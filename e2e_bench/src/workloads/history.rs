//! `history_query_mix` — the store read instead of written: sixteen
//! patients are streamed through a `LiveIngest` with a store and left
//! admitted and idle (so queries overlay the live suffix); the timed
//! phase issues a fixed, seed-shuffled list of `HistoryQuery` calls.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cluster_harness::sharded::LiveIngest;
use cluster_harness::HistoryQuery;
use lifestream_core::exec::{ExecOptions, OutputCollector};
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::time::Tick;
use lifestream_store::query::run_patient_on;
use lifestream_store::{HistoryReader, StoreStats};

use super::cluster::{factory, ingest_config, segment_files, store_config};
use super::Workload;
use crate::clock::Stretch;
use crate::data::{empty_sources, live_ecg, live_pipeline, sub_seed, Rng, LIVE_PERIOD, LIVE_ROUND};
use crate::measure::{median, Recorder, Rep};
use crate::spec::Metrics;
use crate::trace::SpanId;

const PATIENTS: u64 = 16;
const SLOTS_PER_PATIENT: usize = 250_000;
const SPAN: Tick = SLOTS_PER_PATIENT as Tick * LIVE_PERIOD;
/// A narrow query covers a tenth of the recorded span.
const NARROW: Tick = SPAN / 10;
const COHORT: u64 = 8;
const COHORT_WARMUP: Tick = 2_000;
// 70 % narrow, 20 % full, 10 % cohort.
const NARROW_OPS: usize = 17;
const FULL_OPS: usize = 5;
const COHORT_OPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Narrow,
    Full,
    Cohort,
}

impl Shape {
    fn span_name(self) -> &'static str {
        match self {
            Shape::Narrow => "history.narrow",
            Shape::Full => "history.full",
            Shape::Cohort => "history.cohort",
        }
    }
}

struct Op {
    shape: Shape,
    patients: Vec<u64>,
    range: Option<(Tick, Tick)>,
    /// Present samples inside the requested range, over the patients.
    events: u64,
    checksum: u64,
}

impl Op {
    fn query(&self) -> HistoryQuery {
        let q = HistoryQuery::new().patients(self.patients.iter().copied());
        let q = match self.range {
            Some((t0, t1)) => q.range(t0, t1),
            None => q,
        };
        if self.shape == Shape::Cohort {
            q.warmup(COHORT_WARMUP)
        } else {
            q
        }
    }
}

fn fold(checksums: impl Iterator<Item = u64>) -> u64 {
    checksums.fold(0, |h, c| h.rotate_left(7) ^ c)
}

pub struct History {
    ingest: LiveIngest,
    dir: PathBuf,
    ops: Vec<Op>,
    next_op: i64,
    /// `records_for_range` calls since the prefill settled (one per
    /// queried patient).
    range_reads: u64,
    /// Store counters once the prefill had settled.
    settled: StoreStats,
}

impl History {
    fn store_stats(&self) -> StoreStats {
        self.ingest.store().expect("store attached").stats()
    }
}

impl Workload for History {
    const ROUND: Tick = LIVE_ROUND;

    fn pipeline() -> CompiledQuery {
        live_pipeline().expect("live pipeline")
    }

    fn setup(seed: u64, scratch: &Path) -> Self {
        let dir = scratch.join("history-store");
        let data: Vec<SignalData> = (0..PATIENTS)
            .map(|p| live_ecg(SLOTS_PER_PATIENT, sub_seed(seed, 2_000 + p)))
            .collect();
        let cold = ExecOptions::default()
            .with_round_ticks(Self::ROUND)
            .without_fusion()
            .without_targeting();
        let refs: Vec<OutputCollector> = data
            .iter()
            .map(|d| {
                Self::pipeline()
                    .executor_with(vec![d.clone()], cold)
                    .and_then(|mut e| e.run_collect())
                    .expect("reference run")
            })
            .collect();

        let ingest = LiveIngest::with_store(factory(), ingest_config(), store_config(&dir))
            .expect("open store");
        for p in 0..PATIENTS {
            ingest.admit(p).expect("admit");
        }
        let poll_every = (LIVE_ROUND / LIVE_PERIOD) as usize;
        for k in 0..SLOTS_PER_PATIENT {
            for (p, d) in data.iter().enumerate() {
                let t = k as Tick * LIVE_PERIOD;
                if d.presence().contains(t) {
                    ingest.push(p as u64, 0, t, d.values()[k]);
                }
            }
            if k % poll_every == 0 {
                ingest.poll();
            }
        }
        ingest.poll();

        let mut rng = Rng::new(sub_seed(seed, 3_000));
        let narrow_range = |rng: &mut Rng| {
            let t0 = rng.below((SPAN - NARROW) as u64) as Tick;
            (t0, t0 + NARROW)
        };
        let in_range = |p: u64, r: Option<(Tick, Tick)>| match r {
            Some((t0, t1)) => data[p as usize].clipped(t0, t1).present_events() as u64,
            None => data[p as usize].present_events() as u64,
        };
        let reference = |p: u64, r: Option<(Tick, Tick)>| match r {
            Some((t0, t1)) => refs[p as usize].clipped(t0, t1).checksum(),
            None => refs[p as usize].checksum(),
        };
        let mut ops = Vec::new();
        for i in 0..NARROW_OPS + FULL_OPS + COHORT_OPS {
            let (shape, patients, range) = if i < NARROW_OPS {
                let p = rng.below(PATIENTS);
                (Shape::Narrow, vec![p], Some(narrow_range(&mut rng)))
            } else if i < NARROW_OPS + FULL_OPS {
                (Shape::Full, vec![rng.below(PATIENTS)], None)
            } else {
                let first = rng.below(PATIENTS);
                let cohort = (0..COHORT).map(|k| (first + k) % PATIENTS).collect();
                (Shape::Cohort, cohort, Some(narrow_range(&mut rng)))
            };
            ops.push(Op {
                shape,
                events: patients.iter().map(|&p| in_range(p, range)).sum(),
                checksum: fold(patients.iter().map(|&p| reference(p, range))),
                patients,
                range,
            });
        }
        rng.shuffle(&mut ops);

        let mut this = Self {
            ingest,
            dir,
            ops,
            next_op: 0,
            range_reads: 0,
            settled: StoreStats::default(),
        };
        // A query waits for the shard to snapshot the patient, which it
        // does after every batch sent before: one query per patient
        // settles the prefill.
        for p in 0..PATIENTS {
            let q = HistoryQuery::new().patient(p).range(0, LIVE_ROUND);
            this.ingest.history(q).expect("settling query");
        }
        this.settled = this.store_stats();
        this
    }

    fn run_rep(&mut self, rec: &mut Recorder, parent: SpanId) -> Rep {
        let mut rep = Rep::default();
        for op in &self.ops {
            let id = self.next_op;
            self.next_op += 1;
            let query = op.query();
            let span = rec.tracer.begin(op.shape.span_name(), parent, id);
            let t = Stretch::begin();
            let report = self.ingest.history(query);
            let latency = t.end();
            rec.tracer.end(span);
            let ok = report.is_ok_and(|r| {
                r.len() == op.patients.len()
                    && fold(r.outputs().iter().map(|(_, out)| out.checksum())) == op.checksum
            });
            rec.op(latency, ok);
            rep.events += op.events;
            rep.elapsed += latency;
            self.range_reads += op.patients.len() as u64;
        }
        rep
    }

    /// The narrow shape taken apart on the same store: the read, the
    /// stitch, and the store-level run (`run_patient_on`, no live
    /// overlay, a prepared executor) each on their own.
    fn probe(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        for (shape, metric) in [
            (Shape::Narrow, "history.narrow_ms_p50"),
            (Shape::Full, "history.full_ms_p50"),
            (Shape::Cohort, "history.cohort_ms_p50"),
        ] {
            m.set(metric, median(&rec.tracer.durations_ms(shape.span_name())));
        }

        let store = self.ingest.store().expect("store attached").clone();
        let compiled = Self::pipeline();
        let shapes = compiled.source_shapes();
        let empty = empty_sources(&compiled);
        let mut exec = compiled
            .executor_with(empty, ExecOptions::default().with_round_ticks(Self::ROUND))
            .expect("executor");
        let (mut read_ms, mut stitch_ms, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut read, mut wanted) = (0u64, 0u64);
        for op in self.ops.iter().filter(|op| op.shape == Shape::Narrow) {
            let (p, (t0, t1)) = (op.patients[0], op.range.expect("narrow range"));
            let back = exec.history_margins().into_iter().max().unwrap_or(0);
            let fwd = exec.future_margins().into_iter().max().unwrap_or(0);
            let t = Instant::now();
            let records = store
                .records_for_range(p, t0 - back, t1 + fwd)
                .expect("records");
            read_ms.push(t.elapsed().as_secs_f64() * 1e3);
            read += records
                .iter()
                .map(|r| r.present_samples() as u64)
                .sum::<u64>();
            wanted += op.events;
            let reader = HistoryReader::from_records(records);
            let t = Instant::now();
            reader.stitch(p, &shapes, None).expect("stitch");
            stitch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            run_patient_on(&mut exec, &store, p, &shapes, (t0, t1), 0, None).expect("run");
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.range_reads += 2;
        }
        m.set("store.read.records_for_range_ms_p50", median(&read_ms));
        m.set("store.reader.stitch_ms_p50", median(&stitch_ms));
        m.set("store.query.run_ms_p50", median(&run_ms));
        m.set(
            "history.warmup_reread_share",
            read.saturating_sub(wanted) as f64 / read.max(1) as f64,
        );
    }

    fn teardown(self, rec: &mut Recorder, m: &mut Metrics) {
        let stats = self.store_stats();
        let ingest = self.ingest.stats();
        let (files, bytes) = segment_files(&self.dir);
        self.ingest.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);

        let skipped = stats.segments_skipped - self.settled.segments_skipped;
        // Every range read lists every segment file and opens those it
        // cannot skip by name.
        let listed = files * self.range_reads;
        let opened = listed.saturating_sub(skipped);
        m.set("store.read.segments_skipped", skipped as f64);
        m.set("store.read.segments_opened", opened as f64);
        m.set(
            "store.read.skip_share",
            skipped as f64 / listed.max(1) as f64,
        );
        m.set("store.segments_written", stats.segments_written as f64);
        m.set("store.spilled_samples", stats.spilled_samples as f64);
        m.set(
            "store.bytes_per_sample",
            bytes as f64 / stats.spilled_samples.max(1) as f64,
        );
        m.set("store.io_errors", stats.io_errors as f64);
        m.set(
            "sharded.ingest.batches_flushed",
            ingest.batches_flushed as f64,
        );
        m.set(
            "sharded.ingest.dropped_unknown",
            ingest.dropped_unknown as f64,
        );

        rec.must_be_zero("store.io_errors", stats.io_errors);
        rec.must_be_zero("sharded.ingest.dropped_unknown", ingest.dropped_unknown);
        if stats.spilled_samples != self.settled.spilled_samples {
            rec.void("history_query_mix spilled during its timed phase; it must only read");
        }
        if skipped == 0 {
            rec.void("narrow history queries skipped no segment: the range index is dead");
        }
    }
}
