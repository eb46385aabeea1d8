//! The cross-engine layer: one workload definition, every engine.
//!
//! The workspace ships three executable engines — the LifeStream engine
//! itself ([`lifestream_core`]), the Trill-architecture baseline
//! ([`trill_baseline`]), and the NumPy/SciPy-style baseline
//! ([`numlib_baseline`]). Before this layer existed, every comparison
//! (tests, benchmarks, paper figures) hand-wrote the same pipeline once
//! per engine. Now a shared workload is described *once* as data — a
//! [`Workload`] value, deliberately closure-free so even the interpreted
//! baseline can consume it — and each engine implements [`Engine`] to
//! translate that description onto its own query surface:
//!
//! * [`LifeStreamEngine`] builds a [`Query`] chain in the query language
//!   of [`lifestream_core::stream`], compiles it, and executes with the
//!   static memory plan.
//! * [`TrillEngine`] builds the eager push-dataflow pipeline.
//! * [`NumLibEngine`] interprets the workload over materialized arrays;
//!   workloads without an array-library analogue (interval chopping,
//!   as-of joins) report themselves unsupported rather than faking
//!   semantics — mirroring the paper's observation that temporal
//!   operators are missing from array libraries.
//!
//! [`Engine::prepare`] returns a boxed [`EnginePipeline`], so harnesses
//! can separate (untimed) query construction from (timed) execution and
//! iterate over `Vec<Box<dyn Engine>>` — see [`all_engines`] and
//! `tests/cross_engine.rs`.

use lifestream_core::exec::{ExecOptions, OutputCollector};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::ops::join::JoinKind;
use lifestream_core::pipeline as lspipe;
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use trill_baseline::pipelines as tpipe;
use trill_baseline::TrillPipeline;

/// A Table-3 operation, parameterized so each engine can instantiate it.
#[derive(Debug, Clone, PartialEq)]
pub enum TableOp {
    /// Standard-score normalization over tumbling windows.
    Normalize,
    /// FIR frequency filter with the given taps.
    PassFilter {
        /// Filter coefficients (see [`lspipe::fir_lowpass`]).
        taps: Vec<f32>,
    },
    /// Fill gaps with a constant.
    FillConst {
        /// The fill value.
        value: f32,
    },
    /// Fill gaps with the window mean.
    FillMean,
    /// Linear-interpolation resample onto a new grid.
    Resample {
        /// Target period in ticks.
        new_period: Tick,
    },
}

/// A closure-free description of a shared workload.
///
/// Single-input workloads read source 0; join-shaped workloads read
/// sources 0 (left) and 1 (right).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// `Select`: affine payload projection `mul * x + add`.
    Select {
        /// Multiplicative coefficient.
        mul: f32,
        /// Additive coefficient.
        add: f32,
    },
    /// `Where`: keep events with value strictly above `threshold`.
    WhereGt {
        /// The filter threshold.
        threshold: f32,
    },
    /// `Aggregate(w, p)`: windowed aggregation.
    Aggregate {
        /// Aggregate kind.
        kind: AggKind,
        /// Window length in ticks.
        window: Tick,
        /// Window stride in ticks.
        stride: Tick,
    },
    /// Stretch event lifetimes to `duration`, then chop on `boundary`.
    ///
    /// Trill's batch layout keeps lifetimes implicit, so it only
    /// supports `duration == boundary` (see
    /// [`Engine::supports`]); other combinations report
    /// [`EngineError::Unsupported`] there.
    Chop {
        /// New event duration in ticks.
        duration: Tick,
        /// Chop boundary in ticks.
        boundary: Tick,
    },
    /// Temporal inner equijoin of sources 0 and 1.
    Join,
    /// As-of join: each event of source 0 with the latest event of
    /// source 1 at or before it.
    ClipJoin,
    /// One Table-3 operation over tumbling `window`-tick windows.
    Operation {
        /// Which operation.
        op: TableOp,
        /// Processing window in ticks.
        window: Tick,
    },
    /// The Fig. 3 end-to-end pipeline (impute, rate-match, normalize,
    /// join) over sources 0 (ECG) and 1 (ABP).
    Fig3 {
        /// Processing window in ticks.
        window: Tick,
    },
}

impl Workload {
    /// Short display name (used in errors and harness tables).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Select { .. } => "Select",
            Workload::WhereGt { .. } => "Where",
            Workload::Aggregate { .. } => "Aggregate",
            Workload::Chop { .. } => "Chop",
            Workload::Join => "Join",
            Workload::ClipJoin => "ClipJoin",
            Workload::Operation { op, .. } => match op {
                TableOp::Normalize => "Normalize",
                TableOp::PassFilter { .. } => "PassFilter",
                TableOp::FillConst { .. } => "FillConst",
                TableOp::FillMean => "FillMean",
                TableOp::Resample { .. } => "Resample",
            },
            Workload::Fig3 { .. } => "Fig3",
        }
    }

    /// How many input streams the workload consumes.
    pub fn arity(&self) -> usize {
        match self {
            Workload::Join | Workload::ClipJoin | Workload::Fig3 { .. } => 2,
            _ => 1,
        }
    }
}

/// Execution knobs shared by every engine (each engine applies the ones
/// that exist in its architecture).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// Processing-round length for the LifeStream executor (targeted
    /// query processing granularity). `None` uses the engine default.
    pub round_ticks: Option<Tick>,
    /// Collect sink events `(time, first-field value)` into
    /// [`RunOutcome::collected`]. Engines that cannot collect values for
    /// a workload leave it `None`.
    pub collect: bool,
    /// Join-state memory cap in bytes (Trill only; models the paper's
    /// observed OOM behaviour).
    pub memory_cap: Option<usize>,
}

impl EngineOptions {
    /// Sets the LifeStream processing-round length.
    pub fn with_round_ticks(mut self, t: Tick) -> Self {
        self.round_ticks = Some(t);
        self
    }

    /// Requests sink-event collection.
    pub fn collecting(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Caps Trill join-state memory.
    pub fn with_memory_cap(mut self, bytes: usize) -> Self {
        self.memory_cap = Some(bytes);
        self
    }
}

/// What a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Present events ingested from all sources.
    pub input_events: u64,
    /// Events emitted at the sink.
    ///
    /// The NumLib engine reports `Operation` workloads with the paper
    /// baseline's whole-array accounting — every output slot counts, NaN
    /// (absent) slots included — so there it can exceed
    /// `collected.len()`, which only holds present events.
    pub output_events: u64,
    /// Sink events as `(time, first-field value)`, when collection was
    /// requested and the engine supports it for this workload.
    pub collected: Option<Vec<(Tick, f32)>>,
}

/// Errors from preparing or running a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The engine has no implementation for this workload (e.g. temporal
    /// operators on the array baseline).
    Unsupported {
        /// The refusing engine.
        engine: &'static str,
        /// The workload's display name.
        workload: &'static str,
    },
    /// Construction or execution failed; the message preserves the
    /// underlying engine error (including Trill's out-of-memory report).
    Failed(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unsupported { engine, workload } => {
                write!(f, "engine {engine} does not support workload {workload}")
            }
            EngineError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EngineError {}

fn fail(e: impl std::fmt::Display) -> EngineError {
    EngineError::Failed(e.to_string())
}

fn require_arity(engine: &'static str, w: &Workload, supplied: usize) -> Result<(), EngineError> {
    if supplied == w.arity() {
        Ok(())
    } else {
        Err(EngineError::Failed(format!(
            "engine {engine}: workload {} needs {} source(s), got {supplied}",
            w.name(),
            w.arity(),
        )))
    }
}

/// Checks the datasets handed to [`EnginePipeline::run`] against the
/// shapes the pipeline was prepared for (engines bake shape parameters
/// into their operators at prepare time).
fn require_shapes(
    engine: &'static str,
    expected: &[StreamShape],
    inputs: &[SignalData],
) -> Result<(), EngineError> {
    let got: Vec<StreamShape> = inputs.iter().map(SignalData::shape).collect();
    if got == expected {
        Ok(())
    } else {
        Err(EngineError::Failed(format!(
            "engine {engine}: inputs shaped {got:?} do not match prepared shapes {expected:?}"
        )))
    }
}

/// A query engine that can translate a [`Workload`] into an executable
/// pipeline on its own architecture.
pub trait Engine {
    /// Engine display name.
    fn name(&self) -> &'static str;

    /// Whether [`Engine::prepare`] can translate this workload.
    fn supports(&self, workload: &Workload) -> bool;

    /// Builds (but does not run) a pipeline for `workload` over sources
    /// with the given shapes.
    ///
    /// # Errors
    /// Returns [`EngineError::Unsupported`] for workloads outside the
    /// engine's vocabulary, or [`EngineError::Failed`] for invalid
    /// parameters.
    fn prepare(
        &self,
        workload: &Workload,
        shapes: &[StreamShape],
        opts: &EngineOptions,
    ) -> Result<Box<dyn EnginePipeline>, EngineError>;

    /// Convenience: prepare for the inputs' shapes, then run. Takes the
    /// inputs by value so single-shot callers (benchmark loops in
    /// particular) pay no extra dataset copy.
    ///
    /// # Errors
    /// Propagates [`Engine::prepare`] and [`EnginePipeline::run`] errors.
    fn run(
        &self,
        workload: &Workload,
        inputs: Vec<SignalData>,
        opts: &EngineOptions,
    ) -> Result<RunOutcome, EngineError> {
        let shapes: Vec<StreamShape> = inputs.iter().map(SignalData::shape).collect();
        self.prepare(workload, &shapes, opts)?.run(inputs)
    }
}

/// A prepared, single-shot pipeline returned by [`Engine::prepare`].
pub trait EnginePipeline {
    /// Feeds the inputs through the pipeline.
    ///
    /// # Errors
    /// Returns [`EngineError::Failed`] on execution errors (including a
    /// second `run` call on an already-consumed pipeline).
    fn run(&mut self, inputs: Vec<SignalData>) -> Result<RunOutcome, EngineError>;
}

/// All engines that implement the shared [`Engine`] surface: the paper's
/// three in comparison order, then the sharded runtime serving the
/// LifeStream engine (added by this repo's scale-up work — semantically
/// identical to LifeStream, so it rides every cross-engine check), then
/// the LifeStream engine with operator fusion disabled — the staged
/// execution model — so every agreement check also locks "fusion changes
/// nothing about the answer" (fused vs. staged must be *byte-identical*,
/// not merely close).
pub fn all_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(LifeStreamEngine),
        Box::new(TrillEngine),
        Box::new(NumLibEngine),
        Box::new(ShardedEngine::default()),
        Box::new(StagedLifeStreamEngine),
    ]
}

// ---------------------------------------------------------------------
// LifeStream
// ---------------------------------------------------------------------

/// Translates a [`Workload`] into a LifeStream [`Query`].
/// Shared by [`LifeStreamEngine`] (direct execution) and
/// [`ShardedEngine`] (whose shard workers each compile their own copy
/// once, then recycle the pooled executor across inputs).
fn lifestream_query(
    workload: &Workload,
    shapes: &[StreamShape],
) -> lifestream_core::error::Result<Query> {
    match workload {
        Workload::Fig3 { window } => lspipe::fig3_pipeline(shapes[0], shapes[1], *window),
        _ => {
            let q = Query::new();
            let src = q.source("src0", shapes[0]);
            let out = match workload.clone() {
                Workload::Select { mul, add } => src.select(1, move |i, o| o[0] = i[0] * mul + add),
                Workload::WhereGt { threshold } => src.where_(move |v| v[0] > threshold),
                Workload::Aggregate {
                    kind,
                    window,
                    stride,
                } => src.aggregate(kind, window, stride),
                Workload::Chop { duration, boundary } => {
                    src.alter_duration(duration).and_then(|s| s.chop(boundary))
                }
                Workload::Join => src.join(q.source("src1", shapes[1]), JoinKind::Inner),
                Workload::ClipJoin => src.clip_join(q.source("src1", shapes[1])),
                Workload::Operation { op, window } => match op {
                    TableOp::Normalize => lspipe::normalize(src, window),
                    TableOp::PassFilter { taps } => src.pass_filter(taps),
                    TableOp::FillConst { value } => lspipe::fill_const(src, window, value),
                    TableOp::FillMean => lspipe::fill_mean(src, window),
                    TableOp::Resample { new_period } => lspipe::resample(src, new_period, window),
                },
                Workload::Fig3 { .. } => unreachable!("handled above"),
            }?;
            out.sink();
            Ok(q)
        }
    }
}

/// The LifeStream engine behind the shared [`Engine`] surface.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifeStreamEngine;

/// The LifeStream engine with operator fusion disabled
/// ([`ExecOptions::without_fusion`]): every node keeps its own FWindow and
/// staged kernel. Exists as the differential battery's fused-vs-staged
/// arm — its output must be byte-identical to [`LifeStreamEngine`]'s.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedLifeStreamEngine;

struct LifeStreamPrepared {
    compiled: Option<CompiledQuery>,
    shapes: Vec<StreamShape>,
    exec_opts: ExecOptions,
    collect: bool,
}

fn prepare_lifestream(
    engine_name: &'static str,
    workload: &Workload,
    shapes: &[StreamShape],
    opts: &EngineOptions,
    exec_opts: ExecOptions,
) -> Result<Box<dyn EnginePipeline>, EngineError> {
    require_arity(engine_name, workload, shapes.len())?;
    let q = lifestream_query(workload, shapes).map_err(fail)?;
    let mut exec_opts = exec_opts;
    if let Some(t) = opts.round_ticks {
        exec_opts = exec_opts.with_round_ticks(t);
    }
    Ok(Box::new(LifeStreamPrepared {
        compiled: Some(q.compile().map_err(fail)?),
        shapes: shapes.to_vec(),
        exec_opts,
        collect: opts.collect,
    }))
}

impl Engine for LifeStreamEngine {
    fn name(&self) -> &'static str {
        "LifeStream"
    }

    fn supports(&self, _workload: &Workload) -> bool {
        true
    }

    fn prepare(
        &self,
        workload: &Workload,
        shapes: &[StreamShape],
        opts: &EngineOptions,
    ) -> Result<Box<dyn EnginePipeline>, EngineError> {
        prepare_lifestream(self.name(), workload, shapes, opts, ExecOptions::default())
    }
}

impl Engine for StagedLifeStreamEngine {
    fn name(&self) -> &'static str {
        "LifeStream(staged)"
    }

    fn supports(&self, _workload: &Workload) -> bool {
        true
    }

    fn prepare(
        &self,
        workload: &Workload,
        shapes: &[StreamShape],
        opts: &EngineOptions,
    ) -> Result<Box<dyn EnginePipeline>, EngineError> {
        prepare_lifestream(
            self.name(),
            workload,
            shapes,
            opts,
            ExecOptions::default().without_fusion(),
        )
    }
}

impl EnginePipeline for LifeStreamPrepared {
    fn run(&mut self, inputs: Vec<SignalData>) -> Result<RunOutcome, EngineError> {
        // Validate before consuming: a rejected call must not poison the
        // single-shot pipeline.
        require_shapes("LifeStream", &self.shapes, &inputs)?;
        let compiled = self
            .compiled
            .take()
            .ok_or_else(|| EngineError::Failed("pipeline already consumed".into()))?;
        let mut exec = compiled
            .executor_with(inputs, self.exec_opts)
            .map_err(fail)?;
        if self.collect {
            let mut coll = OutputCollector::new(exec.sink_arity().map_err(fail)?);
            let stats = exec.run_with(|w| coll.absorb(w)).map_err(fail)?;
            let collected = coll
                .iter_times()
                .zip(coll.values(0).iter().copied())
                .collect();
            Ok(RunOutcome {
                input_events: stats.input_events,
                output_events: stats.output_events,
                collected: Some(collected),
            })
        } else {
            let stats = exec.run().map_err(fail)?;
            Ok(RunOutcome {
                input_events: stats.input_events,
                output_events: stats.output_events,
                collected: None,
            })
        }
    }
}

// ---------------------------------------------------------------------
// Trill baseline
// ---------------------------------------------------------------------

/// The Trill-architecture baseline behind the shared [`Engine`] surface.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrillEngine;

struct TrillPrepared {
    // `None` once run: TrillPipeline operator state (join buffers,
    // filter history, collected events) is not reset between runs, so a
    // second run would silently produce wrong results.
    pipeline: Option<TrillPipeline>,
    shapes: Vec<StreamShape>,
    collect: bool,
}

impl Engine for TrillEngine {
    fn name(&self) -> &'static str {
        "Trill"
    }

    fn supports(&self, workload: &Workload) -> bool {
        match workload {
            // Event lifetimes are implicit in Trill's batch layout, so a
            // chop cannot honor a stretched duration; claiming to would
            // silently compute something other than the shared workload.
            Workload::Chop { duration, boundary } => duration == boundary,
            _ => true,
        }
    }

    fn prepare(
        &self,
        workload: &Workload,
        shapes: &[StreamShape],
        opts: &EngineOptions,
    ) -> Result<Box<dyn EnginePipeline>, EngineError> {
        if !self.supports(workload) {
            return Err(EngineError::Unsupported {
                engine: self.name(),
                workload: workload.name(),
            });
        }
        require_arity(self.name(), workload, shapes.len())?;
        let mut tp = match workload {
            Workload::Fig3 { window } => tpipe::fig3_pipeline(shapes[0], shapes[1], *window),
            _ => {
                let mut tp = TrillPipeline::new();
                let src = tp.source(shapes[0]);
                let out = match workload.clone() {
                    Workload::Select { mul, add } => {
                        tp.select(src, 1, move |i, o| o[0] = i[0] * mul + add)
                    }
                    Workload::WhereGt { threshold } => tp.where_(src, move |v| v[0] > threshold),
                    Workload::Aggregate {
                        kind,
                        window,
                        stride,
                    } => tp.aggregate(src, kind, window, stride),
                    Workload::Chop { boundary, .. } => {
                        // Trill chops payload-passthrough batches; event
                        // lifetimes are implicit in its batch layout.
                        let pass = tp.select(src, 1, |i, o| o[0] = i[0]);
                        tp.chop(pass, boundary)
                    }
                    Workload::Join => {
                        let other = tp.source(shapes[1]);
                        tp.join(src, other)
                    }
                    Workload::ClipJoin => {
                        let other = tp.source(shapes[1]);
                        tp.clip_join(src, other)
                    }
                    Workload::Operation { op, window } => {
                        let p = shapes[0].period();
                        match op {
                            TableOp::Normalize => tpipe::normalize(&mut tp, src, window),
                            TableOp::PassFilter { taps } => {
                                tpipe::pass_filter(&mut tp, src, window, taps)
                            }
                            TableOp::FillConst { value } => {
                                tpipe::fill_const(&mut tp, src, window, p, value)
                            }
                            TableOp::FillMean => tpipe::fill_mean(&mut tp, src, window, p),
                            TableOp::Resample { new_period } => {
                                tpipe::resample(&mut tp, src, window, new_period)
                            }
                        }
                    }
                    Workload::Fig3 { .. } => unreachable!("handled above"),
                };
                tp.sink(out);
                tp
            }
        };
        if let Some(cap) = opts.memory_cap {
            tp = tp.with_memory_cap(cap);
        }
        if opts.collect {
            tp = tp.with_collection();
        }
        Ok(Box::new(TrillPrepared {
            pipeline: Some(tp),
            shapes: shapes.to_vec(),
            collect: opts.collect,
        }))
    }
}

impl EnginePipeline for TrillPrepared {
    fn run(&mut self, inputs: Vec<SignalData>) -> Result<RunOutcome, EngineError> {
        require_shapes("Trill", &self.shapes, &inputs)?;
        let mut pipeline = self
            .pipeline
            .take()
            .ok_or_else(|| EngineError::Failed("pipeline already consumed".into()))?;
        let stats = pipeline.run(inputs).map_err(fail)?;
        Ok(RunOutcome {
            input_events: stats.input_events,
            output_events: stats.output_events,
            collected: self.collect.then(|| pipeline.collected().to_vec()),
        })
    }
}

// ---------------------------------------------------------------------
// NumLib baseline
// ---------------------------------------------------------------------

/// The NumPy/SciPy-style baseline behind the shared [`Engine`] surface.
///
/// Workloads are interpreted over materialized NaN-encoded arrays; the
/// temporal-operator workloads an array library has no analogue for
/// (`Chop`, `ClipJoin`) are reported as unsupported.
#[derive(Debug, Clone, Copy, Default)]
pub struct NumLibEngine;

struct NumLibPrepared {
    // `None` once run, matching the single-shot EnginePipeline contract.
    workload: Option<Workload>,
    shapes: Vec<StreamShape>,
    collect: bool,
}

impl Engine for NumLibEngine {
    fn name(&self) -> &'static str {
        "NumLib"
    }

    fn supports(&self, workload: &Workload) -> bool {
        !matches!(workload, Workload::Chop { .. } | Workload::ClipJoin)
    }

    fn prepare(
        &self,
        workload: &Workload,
        shapes: &[StreamShape],
        opts: &EngineOptions,
    ) -> Result<Box<dyn EnginePipeline>, EngineError> {
        if !self.supports(workload) {
            return Err(EngineError::Unsupported {
                engine: self.name(),
                workload: workload.name(),
            });
        }
        require_arity(self.name(), workload, shapes.len())?;
        Ok(Box::new(NumLibPrepared {
            workload: Some(workload.clone()),
            shapes: shapes.to_vec(),
            collect: opts.collect,
        }))
    }
}

impl EnginePipeline for NumLibPrepared {
    fn run(&mut self, inputs: Vec<SignalData>) -> Result<RunOutcome, EngineError> {
        use numlib_baseline::ops as nops;
        use numlib_baseline::pipeline::dense_to_events;

        // Validate before consuming: a rejected call must not poison the
        // single-shot pipeline.
        require_shapes("NumLib", &self.shapes, &inputs)?;
        let workload = self
            .workload
            .take()
            .ok_or_else(|| EngineError::Failed("pipeline already consumed".into()))?;

        let input_events: u64 = inputs.iter().map(|d| d.present_events() as u64).sum();
        let outcome = |events: Vec<(Tick, f32)>, collect: bool| RunOutcome {
            input_events,
            output_events: events.len() as u64,
            collected: collect.then_some(events),
        };

        match &workload {
            Workload::Select { mul, add } => {
                let d = &inputs[0];
                let mut arr = nops::to_nan_array(d);
                for v in &mut arr {
                    *v = *v * mul + add;
                }
                let (ts, vs) = dense_to_events(&arr, d.shape().offset(), d.shape().period());
                Ok(outcome(ts.into_iter().zip(vs).collect(), self.collect))
            }
            Workload::WhereGt { threshold } => {
                let d = &inputs[0];
                let mut arr = nops::to_nan_array(d);
                for v in &mut arr {
                    // NaN (absent) slots stay NaN; kept slots must be
                    // strictly above the threshold.
                    if v.is_nan() || *v <= *threshold {
                        *v = f32::NAN;
                    }
                }
                let (ts, vs) = dense_to_events(&arr, d.shape().offset(), d.shape().period());
                Ok(outcome(ts.into_iter().zip(vs).collect(), self.collect))
            }
            Workload::Aggregate {
                kind,
                window,
                stride,
            } => {
                let d = &inputs[0];
                let p = d.shape().period();
                let w = ((*window / p).max(1)) as usize;
                let s = ((*stride / p).max(1)) as usize;
                let arr = nops::to_nan_array(d);
                let mut events = Vec::new();
                let mut start = 0usize;
                while start + w <= arr.len() {
                    let slice = &arr[start..start + w];
                    let present: Vec<f32> = slice.iter().copied().filter(|v| !v.is_nan()).collect();
                    if !present.is_empty() {
                        let t = d.shape().offset() + (start + w) as Tick * p;
                        events.push((t, aggregate_of(*kind, &present)));
                    }
                    start += s;
                }
                Ok(outcome(events, self.collect))
            }
            Workload::Join => {
                let (l, r) = (&inputs[0], &inputs[1]);
                let la = nops::to_nan_array(l);
                let ra = nops::to_nan_array(r);
                let (lt, lv) = dense_to_events(&la, l.shape().offset(), l.shape().period());
                let (rt, rv) = dense_to_events(&ra, r.shape().offset(), r.shape().period());
                let (ts, ls, _rs) =
                    numlib_baseline::pyvm::py_temporal_join(&lt, &lv, &rt, &rv, r.shape().period())
                        .map_err(fail)?;
                Ok(outcome(ts.into_iter().zip(ls).collect(), self.collect))
            }
            Workload::Operation { op, window } => {
                let d = &inputs[0];
                let p = d.shape().period();
                let w = ((*window / p).max(1)) as usize;
                let arr = nops::to_nan_array(d);
                let (offset, period, out) = match op {
                    TableOp::Normalize => (d.shape().offset(), p, nops::normalize_windows(&arr, w)),
                    TableOp::PassFilter { taps } => {
                        (d.shape().offset(), p, nops::fir_filter(&arr, taps))
                    }
                    TableOp::FillConst { value } => {
                        (d.shape().offset(), p, nops::fill_const(&arr, *value))
                    }
                    TableOp::FillMean => (d.shape().offset(), p, nops::fill_mean(&arr, w)),
                    TableOp::Resample { new_period } => {
                        let (_, vs) = nops::resample_linear(&arr, p, *new_period);
                        (d.shape().offset(), *new_period, vs)
                    }
                };
                // Match the whole-array accounting the paper's baseline
                // reports: every output slot counts, NaN or not.
                let n = out.len() as u64;
                let events: Vec<(Tick, f32)> = if self.collect {
                    let (ts, vs) = dense_to_events(&out, offset, period);
                    ts.into_iter().zip(vs).collect()
                } else {
                    Vec::new()
                };
                Ok(RunOutcome {
                    input_events,
                    output_events: n,
                    collected: self.collect.then_some(events),
                })
            }
            Workload::Fig3 { window } => {
                let stats =
                    numlib_baseline::fig3_numlib(&inputs[0], &inputs[1], *window).map_err(fail)?;
                Ok(RunOutcome {
                    input_events: stats.input_events,
                    output_events: stats.output_events,
                    collected: None,
                })
            }
            Workload::Chop { .. } | Workload::ClipJoin => {
                unreachable!("rejected by NumLibEngine::prepare")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sharded runtime
// ---------------------------------------------------------------------

/// The [`ShardedRuntime`](cluster_harness::sharded::ShardedRuntime)
/// behind the shared [`Engine`] surface: the same LifeStream engine, but
/// served by the long-lived multi-patient runtime — shard threads that
/// each keep one warm, recycled executor. A shared-workload run
/// submits its inputs as one patient job; the point of carrying it in
/// [`all_engines`] is that every cross-engine agreement check now also
/// locks "sharding changes nothing about the answer".
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngine {
    /// Shard (worker thread) count for prepared runtimes.
    pub workers: usize,
}

impl Default for ShardedEngine {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4)),
        }
    }
}

impl ShardedEngine {
    /// Engine with an explicit shard count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }
}

struct ShardedPrepared {
    // `None` once run, matching the single-shot EnginePipeline contract;
    // the runtime is shut down after its one job.
    runtime: Option<cluster_harness::sharded::ShardedRuntime>,
    shapes: Vec<StreamShape>,
}

impl Engine for ShardedEngine {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn supports(&self, _workload: &Workload) -> bool {
        true // serves the LifeStream engine, which supports everything
    }

    fn prepare(
        &self,
        workload: &Workload,
        shapes: &[StreamShape],
        opts: &EngineOptions,
    ) -> Result<Box<dyn EnginePipeline>, EngineError> {
        use cluster_harness::sharded::{ShardedConfig, ShardedRuntime};
        require_arity(self.name(), workload, shapes.len())?;
        // Validate the translation once up front so bad parameters fail
        // in prepare (like every other engine), not inside a worker.
        lifestream_query(workload, shapes).map_err(fail)?;
        let (workload, shapes_owned) = (workload.clone(), shapes.to_vec());
        let factory =
            std::sync::Arc::new(move || lifestream_query(&workload, &shapes_owned)?.compile());
        let mut cfg = ShardedConfig::with_workers(self.workers);
        if let Some(t) = opts.round_ticks {
            cfg = cfg.round_ticks(t);
        }
        if let Some(cap) = opts.memory_cap {
            cfg = cfg.mem_cap_per_worker(cap);
        }
        if opts.collect {
            cfg = cfg.collecting();
        }
        Ok(Box::new(ShardedPrepared {
            runtime: Some(ShardedRuntime::new(factory, cfg)),
            shapes: shapes.to_vec(),
        }))
    }
}

impl EnginePipeline for ShardedPrepared {
    fn run(&mut self, inputs: Vec<SignalData>) -> Result<RunOutcome, EngineError> {
        use cluster_harness::sharded::JobOutcome;
        // Validate before consuming: a rejected call must not poison the
        // single-shot pipeline.
        require_shapes("Sharded", &self.shapes, &inputs)?;
        let runtime = self
            .runtime
            .take()
            .ok_or_else(|| EngineError::Failed("pipeline already consumed".into()))?;
        runtime.submit(0, inputs);
        let report = runtime
            .recv()
            .ok_or_else(|| EngineError::Failed("sharded runtime returned no report".into()))?;
        runtime.shutdown();
        match report.outcome {
            JobOutcome::Ok => Ok(RunOutcome {
                input_events: report.input_events,
                output_events: report.output_events,
                collected: report.collected,
            }),
            JobOutcome::OutOfMemory {
                planned_bytes,
                cap_bytes,
            } => Err(EngineError::Failed(format!(
                "sharded worker out of memory: static plan {planned_bytes} B exceeds cap {cap_bytes} B"
            ))),
            JobOutcome::Failed(m) => Err(EngineError::Failed(m)),
        }
    }
}

fn aggregate_of(kind: AggKind, present: &[f32]) -> f32 {
    let n = present.len() as f64;
    let sum: f64 = present.iter().map(|&v| v as f64).sum();
    match kind {
        AggKind::Sum => sum as f32,
        AggKind::Mean => (sum / n) as f32,
        AggKind::Max => present.iter().copied().fold(f32::NEG_INFINITY, f32::max),
        AggKind::Min => present.iter().copied().fold(f32::INFINITY, f32::min),
        AggKind::Count => present.len() as f32,
        AggKind::Std => {
            let mean = sum / n;
            let var: f64 = present
                .iter()
                .map(|&v| {
                    let d = v as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / n;
            var.sqrt() as f32
        }
    }
}
