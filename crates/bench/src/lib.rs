//! # lifestream-bench
//!
//! Shared machinery for the benchmark harness: dataset construction,
//! timing, table rendering, and workload runners. Every benchmarked
//! query is defined exactly once as a
//! [`Workload`] — the per-engine runner
//! functions are thin wrappers that dispatch the shared definition
//! through the [`Engine`] trait.
//! Each paper table/figure has a binary in `src/bin/` that prints the
//! same rows/series the paper reports.
//!
//! All workload sizes scale with the `LS_SCALE` environment variable
//! (default 1.0) so CI can run quick passes while full runs regenerate
//! paper-sized workloads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

use lifestream::engine::{
    Engine, EngineError, EngineOptions, LifeStreamEngine, NumLibEngine, TableOp, TrillEngine,
    Workload,
};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::pipeline as lspipe;
use lifestream_core::source::SignalData;
use lifestream_core::time::Tick;
use lifestream_signal::dataset::{DatasetBuilder, SignalKind};

/// Times a closure, returning `(result, seconds)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Workload scale factor from `LS_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("LS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a minute count by [`scale`], with a floor of 1.
pub fn scaled_minutes(base: i64) -> i64 {
    ((base as f64 * scale()).round() as i64).max(1)
}

/// A simple aligned text table for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i.min(widths.len() - 1)]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// The paper's synthetic dataset: `minutes` of 1000 Hz random values.
pub fn synthetic_1khz(minutes: i64, seed: u64) -> SignalData {
    DatasetBuilder::new(SignalKind::Random, seed)
        .minutes(minutes)
        .build(1000.0)
}

/// A second synthetic stream at 500 Hz for join benchmarks.
pub fn synthetic_500hz(minutes: i64, seed: u64) -> SignalData {
    DatasetBuilder::new(SignalKind::Random, seed)
        .minutes(minutes)
        .build(500.0)
}

/// Real-like 500 Hz ECG (dense — operation benchmarks use the gap-free
/// portion).
pub fn ecg_500hz(minutes: i64, seed: u64) -> SignalData {
    DatasetBuilder::new(SignalKind::Ecg, seed)
        .minutes(minutes)
        .build(500.0)
}

/// Real-like 125 Hz ABP (dense).
pub fn abp_125hz(minutes: i64, seed: u64) -> SignalData {
    DatasetBuilder::new(SignalKind::Abp, seed)
        .minutes(minutes)
        .build(125.0)
}

/// Default processing window (the paper's 1-minute benchmark default).
pub const WINDOW_1MIN: Tick = 60_000;

/// Which primitive micro-benchmark to run (Fig. 9a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// Payload projection.
    Select,
    /// Predicate filter.
    Where,
    /// 100 ms tumbling mean.
    Aggregate,
    /// Interval chopping.
    Chop,
    /// As-of join with a 100 Hz stream.
    ClipJoin,
    /// Temporal inner join with a 500 Hz stream.
    Join,
}

impl Primitive {
    /// All primitives, in the paper's Fig. 9a order.
    pub fn all() -> [Primitive; 6] {
        [
            Primitive::Select,
            Primitive::Where,
            Primitive::Aggregate,
            Primitive::Chop,
            Primitive::ClipJoin,
            Primitive::Join,
        ]
    }

    /// Display name — delegated to the shared workload definition so
    /// bench labels and engine names cannot drift apart.
    pub fn name(&self) -> &'static str {
        self.workload().name()
    }

    /// The shared [`Workload`] this primitive benchmarks — the single
    /// definition point every engine runs (Fig. 9a).
    pub fn workload(&self) -> Workload {
        match self {
            Primitive::Select => Workload::Select { mul: 2.0, add: 1.0 },
            Primitive::Where => Workload::WhereGt { threshold: 50.0 },
            Primitive::Aggregate => Workload::Aggregate {
                kind: AggKind::Mean,
                window: 100,
                stride: 100,
            },
            Primitive::Chop => Workload::Chop {
                duration: 5,
                boundary: 5,
            },
            Primitive::ClipJoin => Workload::ClipJoin,
            Primitive::Join => Workload::Join,
        }
    }
}

/// Runs a shared workload on one engine with the benchmark defaults
/// (1-minute processing rounds); returns output events. Takes the
/// inputs by value so timed benchmark loops pay exactly one dataset
/// copy.
fn run_workload(engine: &dyn Engine, workload: &Workload, inputs: Vec<SignalData>) -> u64 {
    engine
        .run(
            workload,
            inputs,
            &EngineOptions::default().with_round_ticks(WINDOW_1MIN),
        )
        .unwrap_or_else(|e| panic!("{} on {}: {e}", engine.name(), workload.name()))
        .output_events
}

fn primitive_inputs(p: Primitive, data: &SignalData, side: Option<&SignalData>) -> Vec<SignalData> {
    match p {
        Primitive::ClipJoin | Primitive::Join => {
            vec![data.clone(), side.expect("side stream").clone()]
        }
        _ => vec![data.clone()],
    }
}

/// Runs one primitive on LifeStream; returns output events.
pub fn lifestream_primitive(p: Primitive, data: &SignalData, side: Option<&SignalData>) -> u64 {
    run_workload(
        &LifeStreamEngine,
        &p.workload(),
        primitive_inputs(p, data, side),
    )
}

/// Runs one primitive on the Trill baseline; returns output events.
pub fn trill_primitive(p: Primitive, data: &SignalData, side: Option<&SignalData>) -> u64 {
    run_workload(&TrillEngine, &p.workload(), primitive_inputs(p, data, side))
}

/// Which Table 3 operation to run (Fig. 9b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Standard-score normalization.
    Normalize,
    /// FIR frequency filter (31 taps).
    PassFilter,
    /// Constant gap fill.
    FillConst,
    /// Mean gap fill.
    FillMean,
    /// Linear-interpolation resample 500 Hz → 125 Hz grid and back up.
    Resample,
}

impl Operation {
    /// All operations, in the paper's Fig. 9b order.
    pub fn all() -> [Operation; 5] {
        [
            Operation::Normalize,
            Operation::PassFilter,
            Operation::FillConst,
            Operation::FillMean,
            Operation::Resample,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Operation::Normalize => "Normalize",
            Operation::PassFilter => "PassFilter",
            Operation::FillConst => "FillConst",
            Operation::FillMean => "FillMean",
            Operation::Resample => "Resample",
        }
    }

    /// The shared [`Workload`] this operation benchmarks over a stream
    /// of the given `period` — the single definition point every engine
    /// runs (Fig. 9b).
    pub fn workload(&self, period: Tick) -> Workload {
        let op = match self {
            Operation::Normalize => TableOp::Normalize,
            Operation::PassFilter => TableOp::PassFilter { taps: bench_taps() },
            Operation::FillConst => TableOp::FillConst { value: 0.0 },
            Operation::FillMean => TableOp::FillMean,
            Operation::Resample => TableOp::Resample {
                new_period: period * 4,
            },
        };
        Workload::Operation { op, window: 1000 }
    }
}

/// FIR taps used by every PassFilter benchmark.
fn bench_taps() -> Vec<f32> {
    lspipe::fir_lowpass(31, 0.1)
}

/// Runs one Table 3 operation on LifeStream; returns output events.
pub fn lifestream_operation(op: Operation, data: &SignalData) -> u64 {
    run_workload(
        &LifeStreamEngine,
        &op.workload(data.shape().period()),
        vec![data.clone()],
    )
}

/// Runs one Table 3 operation on the Trill baseline; returns output
/// events.
pub fn trill_operation(op: Operation, data: &SignalData) -> u64 {
    run_workload(
        &TrillEngine,
        &op.workload(data.shape().period()),
        vec![data.clone()],
    )
}

/// Runs one Table 3 operation on the NumLib baseline; returns output
/// samples (whole-array accounting, NaN slots included).
pub fn numlib_operation(op: Operation, data: &SignalData) -> u64 {
    run_workload(
        &NumLibEngine,
        &op.workload(data.shape().period()),
        vec![data.clone()],
    )
}

/// The Fig. 3 end-to-end workload (1-second processing windows).
fn e2e_workload() -> Workload {
    Workload::Fig3 { window: 1000 }
}

/// Runs the Fig. 3 end-to-end pipeline on LifeStream.
///
/// Returns `(output_events, input_events)`.
pub fn lifestream_e2e(ecg: &SignalData, abp: &SignalData, round: Tick) -> (u64, u64) {
    let out = LifeStreamEngine
        .run(
            &e2e_workload(),
            vec![ecg.clone(), abp.clone()],
            &EngineOptions::default().with_round_ticks(round),
        )
        .expect("lifestream e2e");
    (out.output_events, out.input_events)
}

/// Runs the Fig. 3 end-to-end pipeline on the Trill baseline.
///
/// Returns `Ok(output_events)` or the OOM error.
pub fn trill_e2e(ecg: &SignalData, abp: &SignalData, cap_bytes: usize) -> Result<u64, EngineError> {
    TrillEngine
        .run(
            &e2e_workload(),
            vec![ecg.clone(), abp.clone()],
            &EngineOptions::default().with_memory_cap(cap_bytes),
        )
        .map(|o| o.output_events)
}

/// Runs the Fig. 3 end-to-end pipeline on the NumLib baseline.
pub fn numlib_e2e(ecg: &SignalData, abp: &SignalData) -> u64 {
    NumLibEngine
        .run(
            &e2e_workload(),
            vec![ecg.clone(), abp.clone()],
            &EngineOptions::default(),
        )
        .expect("numlib e2e")
        .output_events
}

/// Builds the Listing-1 style join pair used by Table 1: 500 Hz and
/// 200 Hz synthetic streams.
pub fn table1_join_pair(minutes: i64, seed: u64) -> (SignalData, SignalData) {
    let a = DatasetBuilder::new(SignalKind::Random, seed)
        .minutes(minutes)
        .build(500.0);
    let b = DatasetBuilder::new(SignalKind::Random, seed + 1)
        .minutes(minutes)
        .build(200.0);
    (a, b)
}

/// The Table 1 upsample workload: linear-interpolation resample onto a
/// 500 Hz (period-2) grid.
fn upsample_workload() -> Workload {
    Workload::Operation {
        op: TableOp::Resample { new_period: 2 },
        window: 1000,
    }
}

/// LifeStream temporal join for Table 1; returns output events.
pub fn lifestream_join(l: &SignalData, r: &SignalData) -> u64 {
    run_workload(
        &LifeStreamEngine,
        &Workload::Join,
        vec![l.clone(), r.clone()],
    )
}

/// LifeStream upsample (125 Hz → 500 Hz) for Table 1.
pub fn lifestream_upsample(data: &SignalData) -> u64 {
    run_workload(&LifeStreamEngine, &upsample_workload(), vec![data.clone()])
}

/// Trill temporal join for Table 1.
pub fn trill_join(l: &SignalData, r: &SignalData) -> u64 {
    run_workload(&TrillEngine, &Workload::Join, vec![l.clone(), r.clone()])
}

/// Trill upsample for Table 1.
pub fn trill_upsample(data: &SignalData) -> u64 {
    run_workload(&TrillEngine, &upsample_workload(), vec![data.clone()])
}

/// SciPy-style upsample for Table 1 (whole-array linear interpolation).
pub fn numlib_upsample(data: &SignalData) -> u64 {
    run_workload(&NumLibEngine, &upsample_workload(), vec![data.clone()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn primitives_run_on_both_engines() {
        let data = synthetic_1khz(1, 1);
        let side = synthetic_500hz(1, 2);
        for p in Primitive::all() {
            let ls = lifestream_primitive(p, &data, Some(&side));
            let tr = trill_primitive(p, &data, Some(&side));
            assert!(ls > 0, "{} lifestream empty", p.name());
            assert!(tr > 0, "{} trill empty", p.name());
        }
    }

    #[test]
    fn join_primitive_agrees_across_engines() {
        let data = synthetic_1khz(1, 1);
        let side = synthetic_500hz(1, 2);
        let ls = lifestream_primitive(Primitive::Join, &data, Some(&side));
        let tr = trill_primitive(Primitive::Join, &data, Some(&side));
        assert_eq!(ls, tr);
    }

    #[test]
    fn operations_run_on_all_engines() {
        let data = ecg_500hz(1, 3);
        for op in Operation::all() {
            assert!(lifestream_operation(op, &data) > 0, "{}", op.name());
            assert!(trill_operation(op, &data) > 0, "{}", op.name());
            assert!(numlib_operation(op, &data) > 0, "{}", op.name());
        }
    }

    #[test]
    fn e2e_runs_on_all_engines() {
        let ecg = ecg_500hz(2, 5);
        let abp = abp_125hz(2, 6);
        let (ls, _) = lifestream_e2e(&ecg, &abp, WINDOW_1MIN);
        let tr = trill_e2e(&ecg, &abp, 1 << 30).expect("trill e2e");
        let nl = numlib_e2e(&ecg, &abp);
        assert!(ls > 0 && tr > 0 && nl > 0);
        // Engines implement the same pipeline; outputs agree within a few
        // percent (boundary semantics differ slightly at window edges).
        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / a as f64;
        assert!(rel(ls, tr) < 0.1, "ls {ls} tr {tr}");
        assert!(rel(ls, nl) < 0.1, "ls {ls} nl {nl}");
    }

    #[test]
    fn table1_runners_produce_output() {
        let (l, r) = table1_join_pair(1, 7);
        assert!(lifestream_join(&l, &r) > 0);
        assert!(trill_join(&l, &r) > 0);
        let abp = abp_125hz(1, 8);
        assert!(lifestream_upsample(&abp) > 0);
        assert!(trill_upsample(&abp) > 0);
        assert!(numlib_upsample(&abp) > 0);
    }
}
