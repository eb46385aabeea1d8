//! The retrospective query engine: one [`HistoryQuery`] description,
//! executed over the tiered store.
//!
//! A query names a time range, a patient cohort, and a pipeline:
//!
//! ```text
//! HistoryQuery::new().range(t0, t1).patients([7, 9]).pipeline(compiled)
//! ```
//!
//! Execution reconstructs each patient's inputs from the store (pruning
//! segment files by the file-name range index), overlays the live suffix
//! when one is supplied, replays the pipeline, and clips the output to
//! `[t0, t1)`. The contract is *byte identity*: a range-bounded run
//! produces exactly the full-history run's output restricted to the
//! range. That holds because the read window is widened by the
//! pipeline's lineage margins
//! ([`Executor::history_margins`]/[`Executor::future_margins`]) before
//! clipping — every stateful operator sees the same warm-up data it
//! would have seen in the full run. Round alignment is absolute
//! (`div_euclid` of the round length), so a run starting mid-history
//! shares the full run's round grid.
//!
//! The one semantics hole is user state *outside* the lineage system: a
//! `transform` closure carrying unbounded history (e.g. a running
//! normalizer over the entire past) cannot be reconstructed from a
//! bounded window. [`HistoryQuery::warmup`] widens the replay window by
//! a caller-chosen number of ticks for exactly that case.
//!
//! This module is front-end-agnostic: it resolves only
//! [`PipelineSpec::Compiled`] and [`PipelineSpec::Factory`]. The
//! `Live`/`Registered` variants are resolved by the ingest front ends
//! (which own a live pipeline factory and a pipeline registry) before
//! the query reaches [`HistoryQuery::run_with`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lifestream_core::exec::{ExecOptions, Executor, OutputCollector};
use lifestream_core::live::SessionSnapshot;
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::time::{StreamShape, Tick};

use crate::reader::HistoryReader;
use crate::segment::SegmentRecord;
use crate::{ScanStats, SharedStore};

/// Builds a compiled pipeline on demand — the form a cohort spread over
/// shard threads needs (one executor per owning shard). Identical to the
/// cluster crate's `PipelineFactory`.
pub type QueryFactory =
    Arc<dyn Fn() -> lifestream_core::error::Result<CompiledQuery> + Send + Sync>;

/// Which pipeline a [`HistoryQuery`] replays.
pub enum PipelineSpec {
    /// The front end's own live pipeline (the default). Resolved by the
    /// ingest layer; meaningless to the store-level engine.
    Live,
    /// A compiled fluent-API pipeline, handed over directly. The one
    /// logical-plan layer serves both live and retrospective runs — there
    /// is no separate retrospective query dialect.
    Compiled(CompiledQuery),
    /// A pipeline factory, for cohort scans that build one executor per
    /// owning shard.
    Factory(QueryFactory),
    /// A pipeline registered on the serving side under a small id — the
    /// only form that travels over the wire. Id `0` always means the
    /// live pipeline.
    Registered(u32),
}

impl std::fmt::Debug for PipelineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Live => write!(f, "Live"),
            Self::Compiled(_) => write!(f, "Compiled(..)"),
            Self::Factory(_) => write!(f, "Factory(..)"),
            Self::Registered(id) => write!(f, "Registered({id})"),
        }
    }
}

/// What a retrospective query can fail with — the typed replacement for
/// the stringly-typed `query_history` errors. `Display` messages are
/// compatibility surfaces locked by regression tests; change them like
/// you would change a wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// The requested range is empty or inverted (`t1 <= t0`).
    InvalidRange {
        /// Requested range start.
        t0: Tick,
        /// Requested range end.
        t1: Tick,
    },
    /// The range ends at or below the earliest tick the store still
    /// retains — that history was pruned by the retention bound, so an
    /// empty result would be a silent lie.
    BelowRetention {
        /// Requested range end.
        t1: Tick,
        /// Earliest retained tick.
        earliest: Tick,
    },
    /// The front end has no history store attached.
    NoStore,
    /// The patient has no stored history and no live session.
    UnknownPatient(u64),
    /// The query names no patients.
    NoPatients,
    /// The pipeline could not be built or resolved (compile failure,
    /// unknown registered id, a spec the surface cannot express).
    Pipeline(String),
    /// Reconstruction or replay failed (stitch mismatch, executor error,
    /// a panicking user closure).
    Execution(String),
    /// The store itself failed (I/O, corrupt segment).
    Store(String),
    /// The remote side failed or the transport broke.
    Remote(String),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidRange { t0, t1 } => {
                write!(
                    f,
                    "invalid history range [{t0}, {t1}): t1 must be greater than t0"
                )
            }
            Self::BelowRetention { t1, earliest } => write!(
                f,
                "history range ends at {t1}, at or below the earliest retained tick \
                 {earliest}; that history has been pruned"
            ),
            Self::NoStore => write!(f, "no history store attached to this ingest"),
            Self::UnknownPatient(p) => {
                write!(f, "patient {p} is not admitted and has no stored history")
            }
            Self::NoPatients => write!(f, "history query names no patients"),
            Self::Pipeline(m) => write!(f, "history pipeline failed to build: {m}"),
            Self::Execution(m) => write!(f, "history query execution failed: {m}"),
            Self::Store(m) => write!(f, "history store read failed: {m}"),
            Self::Remote(m) => write!(f, "remote history query failed: {m}"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<std::io::Error> for HistoryError {
    fn from(e: std::io::Error) -> Self {
        Self::Store(e.to_string())
    }
}

/// A patient's live tail, overlaid on the durable tiers so a query sees
/// data newer than the last spill. Front ends produce these from their
/// running sessions; store-level callers pass `None`.
#[derive(Debug, Clone)]
pub struct LiveOverlay {
    /// The session's exported suffix.
    pub snapshot: SessionSnapshot,
    /// The live pipeline's source shapes (indexed by source).
    pub shapes: Vec<StreamShape>,
}

/// One retrospective run: range + cohort + pipeline, built fluently and
/// executed by any front end implementing the `HistoryQueryApi` trait
/// (cluster crate), or directly against a [`SharedStore`] via
/// [`run_with`](Self::run_with).
#[derive(Debug)]
pub struct HistoryQuery {
    range: (Tick, Tick),
    patients: Vec<u64>,
    warmup: Tick,
    spec: PipelineSpec,
}

impl Default for HistoryQuery {
    fn default() -> Self {
        Self::new()
    }
}

impl HistoryQuery {
    /// A full-range query of the front end's live pipeline over no
    /// patients yet — add patients, and optionally a range and pipeline.
    pub fn new() -> Self {
        Self {
            range: (Tick::MIN, Tick::MAX),
            patients: Vec::new(),
            warmup: 0,
            spec: PipelineSpec::Live,
        }
    }

    /// Restricts the run to `[t0, t1)`. Segment files not overlapping the
    /// (margin-widened) range are skipped unopened; output is clipped to
    /// exactly the range. An inverted range fails execution with
    /// [`HistoryError::InvalidRange`].
    pub fn range(mut self, t0: Tick, t1: Tick) -> Self {
        self.range = (t0, t1);
        self
    }

    /// Adds one patient to the cohort.
    pub fn patient(mut self, patient: u64) -> Self {
        self.patients.push(patient);
        self
    }

    /// Adds patients to the cohort; results come back in this order.
    pub fn patients(mut self, patients: impl IntoIterator<Item = u64>) -> Self {
        self.patients.extend(patients);
        self
    }

    /// Replays this compiled pipeline instead of the live one. The same
    /// fluent `Query` builder and `compile()` used for live deployment is
    /// the whole logical-plan layer here too.
    pub fn pipeline(mut self, compiled: CompiledQuery) -> Self {
        self.spec = PipelineSpec::Compiled(compiled);
        self
    }

    /// Like [`pipeline`](Self::pipeline), but hands a factory so a
    /// cohort can build one executor per owning shard.
    pub fn pipeline_factory(mut self, factory: QueryFactory) -> Self {
        self.spec = PipelineSpec::Factory(factory);
        self
    }

    /// Replays the pipeline registered on the serving side under `id`
    /// (`0` = the live pipeline) — the only pipeline form expressible
    /// over the wire.
    pub fn pipeline_id(mut self, id: u32) -> Self {
        self.spec = PipelineSpec::Registered(id);
        self
    }

    /// Widens the replay window `ticks` below `t0` *beyond* the
    /// lineage-derived margins. Lineage margins make windowed operators
    /// byte-identical automatically; warmup is the escape hatch for user
    /// `transform` closures carrying state the lineage system cannot see.
    pub fn warmup(mut self, ticks: Tick) -> Self {
        self.warmup = ticks.max(0);
        self
    }

    /// The requested `[t0, t1)` bounds.
    pub fn bounds(&self) -> (Tick, Tick) {
        self.range
    }

    /// True when no range was set (whole history).
    pub fn is_full_range(&self) -> bool {
        self.range == (Tick::MIN, Tick::MAX)
    }

    /// The cohort, in result order.
    pub fn patient_list(&self) -> &[u64] {
        &self.patients
    }

    /// The warmup widening in ticks.
    pub fn warmup_ticks(&self) -> Tick {
        self.warmup
    }

    /// The pipeline this query replays.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Decomposes the query for a front end to execute:
    /// `(range, patients, warmup, spec)`.
    pub fn into_parts(self) -> ((Tick, Tick), Vec<u64>, Tick, PipelineSpec) {
        (self.range, self.patients, self.warmup, self.spec)
    }

    /// Validates the range shape alone (no store consulted).
    ///
    /// # Errors
    /// [`HistoryError::InvalidRange`] when `t1 <= t0`.
    pub fn validate_range(t0: Tick, t1: Tick) -> Result<(), HistoryError> {
        if t1 <= t0 {
            return Err(HistoryError::InvalidRange { t0, t1 });
        }
        Ok(())
    }

    /// Executes the query directly against a store, overlaying whatever
    /// live tail `live` supplies for each patient, on one executor and the
    /// calling thread. This is the reference engine: ingest front ends
    /// replay the same [`CohortPass`]es on the shard threads that own the
    /// patients, one executor per owning shard, and must match this output
    /// byte for byte.
    ///
    /// Only [`PipelineSpec::Compiled`] and [`PipelineSpec::Factory`] can
    /// be resolved here; `Live`/`Registered` belong to a front end.
    ///
    /// # Errors
    /// Any [`HistoryError`]; the first failing patient aborts the cohort.
    pub fn run_with(
        self,
        store: &SharedStore,
        round_ticks: Tick,
        live: impl Fn(u64) -> Option<LiveOverlay>,
    ) -> Result<CohortReport, HistoryError> {
        let (range, patients, warmup, spec) = self.into_parts();
        if patients.is_empty() {
            return Err(HistoryError::NoPatients);
        }
        Self::validate_range(range.0, range.1)?;
        let compiled = match spec {
            PipelineSpec::Compiled(q) => q,
            PipelineSpec::Factory(f) => f().map_err(|e| HistoryError::Pipeline(e.to_string()))?,
            PipelineSpec::Live | PipelineSpec::Registered(_) => {
                return Err(HistoryError::Pipeline(
                    "Live/Registered pipelines resolve at an ingest front end; hand a \
                     compiled pipeline or factory to a store-level query"
                        .into(),
                ))
            }
        };
        let shapes = compiled.source_shapes();
        let mut exec = empty_executor(compiled, round_ticks)?;
        let overlays: Vec<Option<LiveOverlay>> = patients.iter().map(|&p| live(p)).collect();
        let (outputs, scan) = run_cohort_on(
            &mut exec,
            store,
            &patients,
            &shapes,
            range,
            warmup,
            &overlays.iter().map(Option::as_ref).collect::<Vec<_>>(),
        )?;
        Ok(CohortReport::new(range, patients.into_iter().zip(outputs).collect()).with_scan(scan))
    }
}

/// Most patients one [`SharedStore::scan`] pass serves. A pass holds every
/// one of its patients' stitched inputs until they are replayed, so this
/// — not the cohort's size — bounds a full-range cohort's memory; larger
/// cohorts take several passes, each opening the overlapping files again.
pub const SCAN_PASS_PATIENTS: usize = 8;

/// Builds a reusable executor over empty, correctly-shaped sources;
/// [`run_cohort_on`] recycles it with each patient's stitched data.
///
/// # Errors
/// [`HistoryError::Pipeline`] when the plan cannot be instantiated.
pub fn empty_executor(
    compiled: CompiledQuery,
    round_ticks: Tick,
) -> Result<Executor, HistoryError> {
    let empty: Vec<SignalData> = compiled
        .source_shapes()
        .iter()
        .map(|&s| SignalData::dense(s, Vec::new()))
        .collect();
    compiled
        .executor_with(empty, ExecOptions::default().with_round_ticks(round_ticks))
        .map_err(|e| HistoryError::Pipeline(e.to_string()))
}

/// Replays one patient's history on a prepared executor: a one-patient
/// [`run_cohort_on`].
///
/// # Errors
/// As [`run_cohort_on`].
pub fn run_patient_on(
    exec: &mut Executor,
    store: &SharedStore,
    patient: u64,
    shapes: &[StreamShape],
    range: (Tick, Tick),
    warmup: Tick,
    live: Option<&LiveOverlay>,
) -> Result<OutputCollector, HistoryError> {
    let (mut outputs, _) = run_cohort_on(exec, store, &[patient], shapes, range, warmup, &[live])?;
    Ok(outputs.remove(0))
}

/// Replays a cohort's history: the one loop every retrospective run goes
/// through. `exec` is a prepared executor of the query's pipeline (built
/// with empty sources, or recycled from a previous call), `overlays` the
/// patients' live tails in cohort order; outputs come back in that order
/// too, with what the store scans cost. Everything runs on the calling
/// thread: one [`CohortPass`] of at most [`SCAN_PASS_PATIENTS`] patients
/// after another.
///
/// # Errors
/// As [`CohortPass::scan`] and [`CohortPass::replay_next`]. The first
/// failure aborts the cohort.
pub fn run_cohort_on(
    exec: &mut Executor,
    store: &SharedStore,
    patients: &[u64],
    shapes: &[StreamShape],
    range: (Tick, Tick),
    warmup: Tick,
    overlays: &[Option<&LiveOverlay>],
) -> Result<(Vec<OutputCollector>, ScanStats), HistoryError> {
    assert_eq!(patients.len(), overlays.len(), "one overlay slot a patient");
    let mut outputs = Vec::with_capacity(patients.len());
    let mut stats = ScanStats::default();
    for (pass, live) in patients
        .chunks(SCAN_PASS_PATIENTS)
        .zip(overlays.chunks(SCAN_PASS_PATIENTS))
    {
        let (mut pass, scan) = CohortPass::scan(exec, store, pass, shapes, range, warmup)?;
        stats += scan;
        for &live in live {
            outputs.push(
                pass.replay_next(exec, live)
                    .expect("one span set a patient")?,
            );
        }
    }
    Ok((outputs, stats))
}

/// One pass of a cohort: its patients' stored spans over the query's read
/// window, read by one [`SharedStore::scan`], then replayed one patient at
/// a time — so a caller can serve other work between patients, or hand
/// parts of the pass ([`split_front`](Self::split_front)) to the threads
/// that own those patients.
///
/// The read window is `[t0 - back - warmup, t1 + fwd)` where `back`/`fwd`
/// are the executor's lineage margins: segment files outside it are
/// skipped by the range index, the others opened once. Inputs are clipped
/// to the window (so round activity inside it matches the full run
/// exactly) and each collected output to `[t0, t1)`.
///
/// A live tail must be snapshotted *before* the scan: a span retired in
/// between is then in both, and stitching lets the identical samples
/// overlap. Snapshotted after, it would be in neither.
#[derive(Debug)]
pub struct CohortPass {
    todo: VecDeque<(u64, Vec<SegmentRecord>)>,
    shapes: Vec<StreamShape>,
    range: (Tick, Tick),
    window: (Tick, Tick),
}

impl CohortPass {
    /// Reads the stored spans of `patients` (at most
    /// [`SCAN_PASS_PATIENTS`]) over the read window of `exec`'s pipeline,
    /// and what the scan cost.
    ///
    /// # Errors
    /// [`HistoryError::BelowRetention`] when the range ends at or below
    /// the earliest tick the scan's listing shows retained; `Store` for
    /// read failures.
    pub fn scan(
        exec: &Executor,
        store: &SharedStore,
        patients: &[u64],
        shapes: &[StreamShape],
        range: (Tick, Tick),
        warmup: Tick,
    ) -> Result<(Self, ScanStats), HistoryError> {
        debug_assert!(patients.len() <= SCAN_PASS_PATIENTS);
        let (t0, t1) = range;
        let window = if range == (Tick::MIN, Tick::MAX) {
            range
        } else {
            let back = exec.history_margins().into_iter().max().unwrap_or(0).max(0);
            let fwd = exec.future_margins().into_iter().max().unwrap_or(0).max(0);
            (
                t0.saturating_sub(back).saturating_sub(warmup),
                t1.saturating_add(fwd),
            )
        };
        let scan = store.scan(patients, window.0, window.1)?;
        if let Some(earliest) = scan.earliest.filter(|&e| t1 != Tick::MAX && t1 <= e) {
            return Err(HistoryError::BelowRetention { t1, earliest });
        }
        let pass = Self {
            todo: patients.iter().copied().zip(scan.records).collect(),
            shapes: shapes.to_vec(),
            range,
            window,
        };
        Ok((pass, scan.stats))
    }

    /// True once every patient has been replayed.
    pub fn is_empty(&self) -> bool {
        self.todo.is_empty()
    }

    /// Takes the next `n` patients off the front into a pass of their own.
    pub fn split_front(&mut self, n: usize) -> Self {
        let rest = self.todo.split_off(n.min(self.todo.len()));
        Self {
            todo: std::mem::replace(&mut self.todo, rest),
            shapes: self.shapes.clone(),
            ..*self
        }
    }

    /// Replays the next patient on `exec` with `live`, that patient's
    /// live tail; `None` once the pass is done.
    ///
    /// # Errors
    /// [`HistoryError::UnknownPatient`] when the patient has neither
    /// stored history nor a live tail; `Execution` when stitching or the
    /// replay fails.
    pub fn replay_next(
        &mut self,
        exec: &mut Executor,
        live: Option<&LiveOverlay>,
    ) -> Option<Result<OutputCollector, HistoryError>> {
        let (patient, records) = self.todo.pop_front()?;
        let (t0, t1) = self.range;
        let full = self.range == (Tick::MIN, Tick::MAX);
        // A pipeline with a different source layout than the live one runs
        // over the durable tiers only — its shapes cannot absorb the live
        // suffix.
        let live = live.filter(|o| o.shapes.len() == self.shapes.len());
        if records.is_empty() && live.is_none() {
            return Some(Err(HistoryError::UnknownPatient(patient)));
        }
        let run = || {
            let mut datasets = HistoryReader::from_records(records)
                .stitch(patient, &self.shapes, live.map(|o| &o.snapshot))
                .map_err(HistoryError::Execution)?;
            if !full {
                // Clip every source to the same margin-widened window:
                // presence inside it is then identical to the full-history
                // run's, so round-skipping decisions (which clear kernel
                // state) agree too.
                datasets = datasets
                    .into_iter()
                    .map(|d| d.clipped(self.window.0, self.window.1))
                    .collect();
            }
            exec.recycle(datasets)
                .map_err(|e| HistoryError::Execution(e.to_string()))?;
            let out = catch_unwind(AssertUnwindSafe(|| exec.run_collect()))
                .map_err(|p| HistoryError::Execution(panic_text(&p)))?
                .map_err(|e| HistoryError::Execution(e.to_string()))?;
            Ok(if full { out } else { out.clipped(t0, t1) })
        };
        Some(run())
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("history pipeline panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("history pipeline panicked: {s}")
    } else {
        "history pipeline panicked".into()
    }
}

/// Per-patient results of one cohort scan, in the order the query named
/// the patients.
#[derive(Debug, Clone)]
pub struct CohortReport {
    range: (Tick, Tick),
    outputs: Vec<(u64, OutputCollector)>,
    scan: ScanStats,
}

impl CohortReport {
    /// Assembles a report (front ends build these from fanned-out runs).
    pub fn new(range: (Tick, Tick), outputs: Vec<(u64, OutputCollector)>) -> Self {
        Self {
            range,
            outputs,
            scan: ScanStats::default(),
        }
    }

    /// Attaches what the query's store scans cost.
    pub fn with_scan(mut self, scan: ScanStats) -> Self {
        self.scan = scan;
        self
    }

    /// Segment files opened and skipped and bytes read on this query's
    /// behalf, summed over its scan passes. Zero on reports assembled
    /// from remote answers, which do not carry it over the wire.
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// The `[t0, t1)` bounds the cohort ran over.
    pub fn bounds(&self) -> (Tick, Tick) {
        self.range
    }

    /// Number of patients in the report.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// True when the report holds no patients.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The per-patient outputs, in query order.
    pub fn outputs(&self) -> &[(u64, OutputCollector)] {
        &self.outputs
    }

    /// One patient's output, if present.
    pub fn output_for(&self, patient: u64) -> Option<&OutputCollector> {
        self.outputs
            .iter()
            .find(|(p, _)| *p == patient)
            .map(|(_, o)| o)
    }

    /// Consumes the report into its outputs.
    pub fn into_outputs(self) -> Vec<(u64, OutputCollector)> {
        self.outputs
    }

    /// Consumes a single-patient report into its one output.
    ///
    /// # Errors
    /// [`HistoryError::NoPatients`] when the report is empty.
    pub fn into_single(self) -> Result<OutputCollector, HistoryError> {
        self.outputs
            .into_iter()
            .next()
            .map(|(_, o)| o)
            .ok_or(HistoryError::NoPatients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_range_is_a_named_error() {
        assert_eq!(
            HistoryQuery::validate_range(50, 50),
            Err(HistoryError::InvalidRange { t0: 50, t1: 50 })
        );
        let msg = HistoryError::InvalidRange { t0: 50, t1: 10 }.to_string();
        assert_eq!(
            msg,
            "invalid history range [50, 10): t1 must be greater than t0"
        );
    }

    #[test]
    fn builder_accumulates() {
        let q = HistoryQuery::new()
            .range(10, 90)
            .patient(1)
            .patients([2, 3])
            .warmup(40)
            .pipeline_id(7);
        assert_eq!(q.bounds(), (10, 90));
        assert_eq!(q.patient_list(), &[1, 2, 3]);
        assert_eq!(q.warmup_ticks(), 40);
        assert!(matches!(q.spec(), PipelineSpec::Registered(7)));
        assert!(!q.is_full_range());
        assert!(HistoryQuery::new().is_full_range());
    }
}
