//! `retro_chain_dense` — the single-threaded baseline and the
//! kernel-bound case: `kernel_bench`'s fusible chain over dense signals,
//! compiled once, recycled and run on the calling thread into a fresh
//! `OutputCollector` per op.

use std::path::Path;
use std::time::{Duration, Instant};

use lifestream_core::exec::{ExecOptions, Executor, OutputCollector};
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stats::RunStats;
use lifestream_core::time::Tick;

use super::{set_run_stats, Workload};
use crate::clock::Stretch;
use crate::data::{compile_dense, dense_signal, op_chain, sub_seed, CHAIN_ROUND};
use crate::measure::{median, Recorder, Rep};
use crate::spec::Metrics;
use crate::trace::SpanId;

const SIGNALS: usize = 16;
const SAMPLES: usize = 800_000;
/// Two runs per signal, so every repetition is the same work.
const OPS_PER_REP: usize = 2 * SIGNALS;

pub struct Chain {
    signals: Vec<SignalData>,
    events: Vec<u64>,
    refs: Vec<u64>,
    exec: Executor,
    arity: usize,
    next_op: i64,
    /// Summed over every op since setup.
    stats: RunStats,
}

impl Workload for Chain {
    const ROUND: Tick = CHAIN_ROUND;

    fn pipeline() -> CompiledQuery {
        compile_dense(op_chain)
    }

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let signals: Vec<SignalData> = (0..SIGNALS)
            .map(|i| dense_signal(SAMPLES, sub_seed(seed, i as u64)))
            .collect();
        let events = signals.iter().map(|d| d.present_events() as u64).collect();
        let opts = ExecOptions::default().with_round_ticks(Self::ROUND);
        let refs = signals
            .iter()
            .map(|d| {
                Self::pipeline()
                    .executor_with(vec![d.clone()], opts.without_fusion().without_targeting())
                    .and_then(|mut e| e.run_collect())
                    .expect("reference run")
                    .checksum()
            })
            .collect();
        let exec = Self::pipeline()
            .executor_with(vec![signals[0].clone()], opts)
            .expect("executor");
        let arity = exec.sink_arity().expect("one sink");
        Self {
            signals,
            events,
            refs,
            exec,
            arity,
            next_op: 0,
            stats: RunStats::new(),
        }
    }

    fn run_rep(&mut self, rec: &mut Recorder, parent: SpanId) -> Rep {
        let mut rep = Rep::default();
        let traced = rec.tracer.on;
        for i in 0..OPS_PER_REP {
            let p = i % SIGNALS;
            let op = self.next_op;
            self.next_op += 1;
            let source = vec![self.signals[p].clone()];
            let op_span = rec.tracer.begin("op", parent, op);
            let t = Stretch::begin();
            let s = rec.tracer.begin("core.exec.recycle", op_span, op);
            let recycled = self.exec.recycle(source);
            rec.tracer.end(s);
            let mut out = OutputCollector::new(self.arity);
            let mut collect = Duration::ZERO;
            let s = rec.tracer.begin("core.exec.run_with", op_span, op);
            let ran = if traced {
                self.exec.run_with(|w| {
                    let c = Instant::now();
                    out.absorb(w);
                    collect += c.elapsed();
                })
            } else {
                self.exec.run_with(|w| out.absorb(w))
            };
            rec.tracer.end(s);
            let latency = t.end();
            rec.tracer
                .add_sum("core.exec.collect", s, op, collect.as_nanos() as u64);
            rec.tracer.end(op_span);
            let ok = match (recycled, ran) {
                (Ok(()), Ok(stats)) => {
                    self.stats.merge(&stats);
                    out.checksum() == self.refs[p]
                }
                _ => false,
            };
            rec.op(latency, ok);
            rep.events += self.events[p];
            rep.elapsed += latency;
        }
        rep
    }

    fn probe(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        let t = &rec.tracer;
        let ops = t.total_ns("op") as f64;
        m.set(
            "core.exec.run_busy_share",
            t.total_ns("core.exec.run_with") as f64 / ops,
        );
        m.set(
            "core.exec.collect_share",
            t.total_ns("core.exec.collect") as f64 / ops,
        );
        let recycles = t.durations_ms("core.exec.recycle");
        m.set("core.exec.recycle_us", median(&recycles) * 1e3);
    }

    fn teardown(self, rec: &mut Recorder, m: &mut Metrics) {
        set_run_stats(m, &self.stats);
        rec.must_be_zero(
            "core.exec.steady_state_allocs",
            self.stats.steady_state_allocs,
        );
        if self.stats.skip_fraction() >= 0.05 {
            rec.void("retro_chain_dense skipped 5 % of its rounds or more; it must not");
        }
    }
}
