//! `retro_fig3_gaps` — the paper's headline pipeline (Fig. 3: impute,
//! upsample, normalize, join ECG with ABP) served as patient jobs by a
//! one-worker `ShardedRuntime`, submit-one / receive-one.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_harness::sharded::{JobOutcome, PipelineFactory, ShardedConfig, ShardedRuntime};
use lifestream_core::exec::{ExecOptions, Executor, OutputCollector};
use lifestream_core::pipeline::fig3_pipeline;
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stats::RunStats;
use lifestream_core::time::{StreamShape, Tick};

use super::{checksum_pairs, set_run_stats, Workload};
use crate::clock::Stretch;
use crate::data::{ecg_abp_patient, sub_seed};
use crate::measure::{median, Recorder, Rep};
use crate::spec::Metrics;
use crate::trace::SpanId;

const PATIENTS: usize = 16;
const MINUTES: i64 = 20;
/// Two jobs per patient, so every repetition is the same work.
const OPS_PER_REP: usize = 2 * PATIENTS;
const FILL_WINDOW: Tick = 1_000;

fn compile(ecg: StreamShape, abp: StreamShape) -> CompiledQuery {
    fig3_pipeline(ecg, abp, FILL_WINDOW)
        .and_then(|q| q.compile())
        .expect("fig3 pipeline")
}

fn ecg_shape() -> StreamShape {
    StreamShape::new(0, 2)
}

fn abp_shape() -> StreamShape {
    StreamShape::new(0, 8)
}

pub struct Fig3 {
    patients: Vec<Vec<SignalData>>,
    events: Vec<u64>,
    refs: Vec<u64>,
    rt: ShardedRuntime,
    next_op: i64,
}

impl Fig3 {
    /// One repetition's jobs on a bare `Executor` on this thread, doing
    /// what a pool slot does (recycle, run, collect, pair up): the
    /// sharded runtime's own cost is what this leaves out.
    fn direct_rep(&self, exec: &mut Executor, pass: &mut DirectPass) {
        let scaled = Stretch::begin();
        let wall = Instant::now();
        for i in 0..OPS_PER_REP {
            let p = i % PATIENTS;
            let t = Instant::now();
            exec.recycle(self.patients[p].clone()).expect("recycle");
            pass.recycle_us.push(t.elapsed().as_secs_f64() * 1e6);
            let mut coll = OutputCollector::new(exec.sink_arity().expect("arity"));
            let mut collect = Duration::ZERO;
            let t = Instant::now();
            let stats = exec
                .run_with(|w| {
                    let c = Instant::now();
                    coll.absorb(w);
                    collect += c.elapsed();
                })
                .expect("run");
            pass.run += t.elapsed();
            pass.collect += collect;
            pass.stats.merge(&stats);
            let pairs: Vec<(Tick, f32)> = coll
                .times()
                .iter()
                .copied()
                .zip(coll.values(0).iter().copied())
                .collect();
            assert_eq!(
                checksum_pairs(pairs.into_iter()),
                self.refs[p],
                "direct executor disagrees with the reference"
            );
        }
        pass.wall += wall.elapsed();
        pass.scaled += scaled.end().scaled;
    }
}

#[derive(Default)]
struct DirectPass {
    wall: Duration,
    /// `wall` at the reference clock, as the sharded arm's time is.
    scaled: Duration,
    run: Duration,
    collect: Duration,
    recycle_us: Vec<f64>,
    stats: RunStats,
}

impl Workload for Fig3 {
    /// Ten-second rounds: targeted skipping works round by round, and
    /// 120 rounds a record keep a gap's alignment to them a small effect.
    const ROUND: Tick = 10_000;

    fn pipeline() -> CompiledQuery {
        compile(ecg_shape(), abp_shape())
    }

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let patients: Vec<Vec<SignalData>> = (0..PATIENTS)
            .map(|p| ecg_abp_patient(MINUTES, sub_seed(seed, p as u64)))
            .collect();
        let events = patients
            .iter()
            .map(|s| s.iter().map(|d| d.present_events() as u64).sum())
            .collect();
        let cold = ExecOptions::default()
            .with_round_ticks(Self::ROUND)
            .without_fusion()
            .without_targeting();
        let refs = patients
            .iter()
            .map(|sources| {
                let out = compile(sources[0].shape(), sources[1].shape())
                    .executor_with(sources.clone(), cold)
                    .and_then(|mut e| e.run_collect())
                    .expect("reference run");
                checksum_pairs(
                    out.times()
                        .iter()
                        .copied()
                        .zip(out.values(0).iter().copied()),
                )
            })
            .collect();
        let factory: PipelineFactory =
            Arc::new(|| fig3_pipeline(ecg_shape(), abp_shape(), FILL_WINDOW)?.compile());
        let rt = ShardedRuntime::new(
            factory,
            ShardedConfig::with_workers(1)
                .round_ticks(Self::ROUND)
                .collecting(),
        );
        Self {
            patients,
            events,
            refs,
            rt,
            next_op: 0,
        }
    }

    fn run_rep(&mut self, rec: &mut Recorder, parent: SpanId) -> Rep {
        let mut rep = Rep::default();
        for i in 0..OPS_PER_REP {
            let p = i % PATIENTS;
            let op = self.next_op;
            self.next_op += 1;
            let sources = self.patients[p].clone();
            let op_span = rec.tracer.begin("op", parent, op);
            let t = Stretch::begin();
            let s = rec.tracer.begin("sharded.submit", op_span, op);
            self.rt.submit(p as u64, sources);
            rec.tracer.end(s);
            let s = rec.tracer.begin("sharded.recv", op_span, op);
            let report = self.rt.recv();
            rec.tracer.end(s);
            let latency = t.end();
            rec.tracer.end(op_span);
            let ok = report.is_some_and(|r| {
                r.outcome == JobOutcome::Ok
                    && r.collected
                        .is_some_and(|c| checksum_pairs(c.into_iter()) == self.refs[p])
            });
            rec.op(latency, ok);
            rep.events += self.events[p];
            rep.elapsed += latency;
        }
        rep
    }

    fn probe(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        let mut exec = Self::pipeline()
            .executor_with(
                self.patients[0].clone(),
                ExecOptions::default().with_round_ticks(Self::ROUND),
            )
            .expect("executor");
        // Alternate the two arms so a noisy stretch hits both.
        let mut pass = DirectPass::default();
        let mut sharded = Duration::ZERO;
        let was_on = std::mem::replace(&mut rec.tracer.on, false);
        for _ in 0..2 {
            sharded += self
                .run_rep(rec, crate::trace::Tracer::root())
                .elapsed
                .scaled;
            self.direct_rep(&mut exec, &mut pass);
        }
        rec.tracer.on = was_on;
        let wall = pass.wall.as_secs_f64();
        m.set(
            "sharded.runtime_overhead_share",
            1.0 - pass.scaled.as_secs_f64() / sharded.as_secs_f64(),
        );
        m.set("core.exec.run_busy_share", pass.run.as_secs_f64() / wall);
        m.set("core.exec.collect_share", pass.collect.as_secs_f64() / wall);
        m.set("core.exec.recycle_us", median(&pass.recycle_us));
        set_run_stats(m, &pass.stats);
        rec.must_be_zero(
            "core.exec.steady_state_allocs",
            pass.stats.steady_state_allocs,
        );
    }

    fn teardown(self, _rec: &mut Recorder, m: &mut Metrics) {
        // Pool counters are published when the worker exits.
        let stats = self.rt.shutdown();
        m.set("sharded.pool.compiles", stats.compiles as f64);
        m.set("sharded.pool.recycles", stats.recycles as f64);
        m.set("sharded.pool.evictions", stats.evictions as f64);
    }
}
