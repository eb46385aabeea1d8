//! # lifestream-bench
//!
//! Shared machinery for the benchmark harness: dataset construction,
//! timing, table rendering, the bench knobs, and [`run`], the call the
//! cross-engine rows time. Every benchmarked query is defined exactly
//! once as a [`Workload`], and `run` hands it to whichever [`Engine`] the
//! bin passes in (`&LifeStreamEngine`, `&TrillEngine`, `&NumLibEngine`).
//! Each paper table/figure has a binary in `src/bin/` that prints the
//! same rows/series the paper reports.
//!
//! The Fig. 10 scaling harnesses are modules here, not in the data
//! plane: [`multicore`] runs the per-patient workload on real threads
//! (Fig. 10c) and [`machines`] extrapolates a measured single-machine
//! peak to a modelled cluster (Fig. 10d).
//!
//! All workload sizes scale with the `LS_SCALE` environment variable
//! (default 1.0) so CI can run quick passes while full runs regenerate
//! paper-sized workloads; [`knobs`] reads it with the other two
//! variables and refuses a value that does not parse.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod machines;
pub mod multicore;

use std::str::FromStr;
use std::sync::OnceLock;
use std::time::Instant;

use lifestream::engine::{Engine, EngineOptions, TableOp, Workload};
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

/// The bench knobs: the environment variables the paper bins read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// `LS_SCALE`: workload scale factor (default 1.0, the paper's size).
    pub scale: f64,
    /// `LS_TRILL_CAP`: Trill's join-state cap in bytes in Fig. 9(c)
    /// (default 256 MiB).
    pub trill_cap: usize,
    /// `LS_MEM_BUDGET`: the modelled machine's memory in bytes in
    /// Fig. 10(c), shared by its workers (default 512 MiB).
    pub mem_budget: usize,
}

impl Knobs {
    /// Parses the knobs, looking each variable up with `var`; an unset
    /// variable keeps its default.
    ///
    /// # Errors
    /// A message naming the variable whose value does not parse, or
    /// whose `LS_SCALE` is negative or not finite.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        fn read<T: FromStr>(
            var: &dyn Fn(&str) -> Option<String>,
            name: &str,
            default: T,
        ) -> Result<T, String> {
            match var(name) {
                None => Ok(default),
                Some(raw) => raw
                    .parse()
                    .map_err(|_| format!("{name}={raw:?} does not parse")),
            }
        }
        let scale: f64 = read(&var, "LS_SCALE", 1.0)?;
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(format!("LS_SCALE={scale} is not a finite number >= 0"));
        }
        Ok(Knobs {
            scale,
            trill_cap: read(&var, "LS_TRILL_CAP", 256 << 20)?,
            mem_budget: read(&var, "LS_MEM_BUDGET", 512 << 20)?,
        })
    }
}

/// The process's [`Knobs`], parsed from the environment on first use.
/// A bad value ends the process with exit code 2 and a message naming
/// the variable: a typo must not silently run the paper-sized workload.
pub fn knobs() -> Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    *KNOBS.get_or_init(|| {
        Knobs::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
    })
}

/// Workload scale factor, `LS_SCALE` (see [`knobs`]).
pub fn scale() -> f64 {
    knobs().scale
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

/// The benchmark defaults: 1-minute LifeStream processing rounds.
pub fn minute_rounds() -> EngineOptions {
    EngineOptions::default().with_round_ticks(WINDOW_1MIN)
}

/// Runs `workload` on `engine` over copies of `inputs` and returns the
/// output events: the call the cross-engine rows time, construction
/// included. The copies share their sample buffers, so they are cheap.
///
/// # Panics
/// On any engine error, naming the engine and the workload. The bins
/// size every workload to succeed; Fig. 9(c)'s capped Trill arm, whose
/// out-of-memory result is a paper finding, calls [`Engine::run`] itself.
pub fn run(
    engine: &dyn Engine,
    workload: &Workload,
    inputs: &[&SignalData],
    opts: EngineOptions,
) -> u64 {
    let inputs = inputs.iter().map(|&d| d.clone()).collect();
    engine
        .run(workload, inputs, &opts)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", engine.name(), workload.name()))
        .output_events
}

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

/// The Fig. 3 end-to-end workload (1-second processing windows) that
/// Fig. 9(c), Fig. 10 and the multi-core harness run.
pub fn e2e_workload() -> Workload {
    Workload::Fig3 { window: 1000 }
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
pub fn upsample_workload() -> Workload {
    Workload::Operation {
        op: TableOp::Resample { new_period: 2 },
        window: 1000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream::engine::{LifeStreamEngine, NumLibEngine, TrillEngine};

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    fn parse(vars: &[(&str, &str)]) -> Result<Knobs, String> {
        Knobs::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_knobs_keep_their_defaults() {
        let k = parse(&[]).unwrap();
        assert_eq!(
            k,
            Knobs {
                scale: 1.0,
                trill_cap: 256 << 20,
                mem_budget: 512 << 20,
            }
        );
        let k = parse(&[
            ("LS_SCALE", "0.05"),
            ("LS_TRILL_CAP", "1024"),
            ("LS_MEM_BUDGET", "0"),
        ])
        .unwrap();
        assert_eq!((k.scale, k.trill_cap, k.mem_budget), (0.05, 1024, 0));
        assert_eq!(parse(&[("LS_SCALE", "0")]).unwrap().scale, 0.0);
    }

    #[test]
    fn a_bad_knob_is_refused_by_name() {
        for (name, raw) in [
            ("LS_SCALE", "abc"),
            ("LS_SCALE", ""),
            ("LS_SCALE", "-0.5"),
            ("LS_SCALE", "NaN"),
            ("LS_SCALE", "inf"),
            ("LS_TRILL_CAP", "256M"),
            ("LS_TRILL_CAP", "-1"),
            ("LS_MEM_BUDGET", "1.5"),
        ] {
            let err = parse(&[(name, raw)]).unwrap_err();
            assert!(err.starts_with(&format!("{name}=")), "{name}={raw}: {err}");
        }
    }

    #[test]
    fn primitives_run_on_both_engines() {
        let data = synthetic_1khz(1, 1);
        let side = synthetic_500hz(1, 2);
        for p in Primitive::all() {
            let w = p.workload();
            let inputs = &[&data, &side][..w.arity()];
            let ls = run(&LifeStreamEngine, &w, inputs, minute_rounds());
            let tr = run(&TrillEngine, &w, inputs, minute_rounds());
            assert!(ls > 0, "{} lifestream empty", p.name());
            assert!(tr > 0, "{} trill empty", p.name());
        }
    }

    #[test]
    fn join_primitive_agrees_across_engines() {
        let data = synthetic_1khz(1, 1);
        let side = synthetic_500hz(1, 2);
        let w = Primitive::Join.workload();
        let ls = run(&LifeStreamEngine, &w, &[&data, &side], minute_rounds());
        let tr = run(&TrillEngine, &w, &[&data, &side], minute_rounds());
        assert_eq!(ls, tr);
    }

    #[test]
    fn operations_run_on_all_engines() {
        let data = ecg_500hz(1, 3);
        let w = |op: Operation| op.workload(data.shape().period());
        for op in Operation::all() {
            for engine in [
                &LifeStreamEngine as &dyn Engine,
                &TrillEngine,
                &NumLibEngine,
            ] {
                let out = run(engine, &w(op), &[&data], minute_rounds());
                assert!(out > 0, "{} on {}", op.name(), engine.name());
            }
        }
    }

    #[test]
    fn e2e_runs_on_all_engines() {
        let ecg = ecg_500hz(2, 5);
        let abp = abp_125hz(2, 6);
        let w = e2e_workload();
        let ls = run(&LifeStreamEngine, &w, &[&ecg, &abp], minute_rounds());
        let capped = EngineOptions::default().with_memory_cap(1 << 30);
        let tr = run(&TrillEngine, &w, &[&ecg, &abp], capped);
        let nl = run(&NumLibEngine, &w, &[&ecg, &abp], EngineOptions::default());
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
        assert!(
            run(
                &LifeStreamEngine,
                &Workload::Join,
                &[&l, &r],
                minute_rounds()
            ) > 0
        );
        assert!(run(&TrillEngine, &Workload::Join, &[&l, &r], minute_rounds()) > 0);
        let abp = abp_125hz(1, 8);
        for engine in [
            &LifeStreamEngine as &dyn Engine,
            &TrillEngine,
            &NumLibEngine,
        ] {
            assert!(run(engine, &upsample_workload(), &[&abp], minute_rounds()) > 0);
        }
    }
}
