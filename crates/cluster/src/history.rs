//! One retrospective query surface over every ingest front end.
//!
//! The paper's engine promises that a retrospective run is the *same
//! program* as the live run — the fluent pipeline is the one logical
//! plan, and history is just a different scan underneath it. This
//! module makes that promise an API: [`HistoryQueryApi`] is implemented
//! by all three front ends ([`LiveIngest`](crate::sharded::LiveIngest)
//! in-process, [`RemoteIngest`](crate::net::RemoteIngest) over the
//! wire, [`ClusterIngest`](crate::net::ClusterIngest) across machines),
//! so a caller describes *what* to re-run — a time range, a patient
//! cohort, a pipeline — with [`HistoryQuery`] and never *where*:
//!
//! ```no_run
//! use cluster_harness::history::{HistoryQuery, HistoryQueryApi};
//! # fn demo(ingest: &cluster_harness::sharded::LiveIngest) {
//! let report = ingest
//!     .history(HistoryQuery::new().range(1_000, 5_000).patients([7, 11, 13]))
//!     .unwrap();
//! for (patient, out) in report.outputs() {
//!     println!("{patient}: {} windows", out.len());
//! }
//! # }
//! ```
//!
//! Range-bounded queries prune: the store's segment file names carry a
//! tick-range index, so segments entirely outside the (margin-padded)
//! query window are never opened, and the answer is byte-identical to
//! the full-history run clipped to `[t0, t1)`. Errors are typed
//! ([`HistoryError`]) rather than strings; the messages for
//! [`HistoryError::InvalidRange`] and
//! [`HistoryError::BelowRetention`] are locked by regression tests.
//!
//! Which [`PipelineSpec`]s a front end accepts depends on the
//! transport: the in-process ingest takes anything; the wire front ends
//! can express the live pipeline ([`PipelineSpec::Live`], registry id
//! `0`) or a server-registered id ([`PipelineSpec::Registered`]), but a
//! locally compiled plan cannot travel over the wire.

use lifestream_core::exec::OutputCollector;
use lifestream_core::time::Tick;

pub use lifestream_store::query::{
    CohortReport, HistoryError, HistoryQuery, LiveOverlay, PipelineSpec, QueryFactory,
};

use crate::sharded::PatientId;

/// The retrospective query protocol every ingest front end exposes.
///
/// Implementations answer a [`HistoryQuery`] — a time range, a patient
/// cohort, and a pipeline spec — with per-patient
/// [`OutputCollector`]s in a [`CohortReport`], byte-identical to the
/// cold batch run over the same span of each patient's history.
pub trait HistoryQueryApi {
    /// Runs `query` against this front end's history store(s).
    ///
    /// # Errors
    /// Typed [`HistoryError`]s: `NoStore` without a store, named range
    /// errors (`InvalidRange`, `BelowRetention`), `UnknownPatient`, and
    /// pipeline/store/transport failures.
    fn history(&self, query: HistoryQuery) -> Result<CohortReport, HistoryError>;

    /// Single-patient, full-range, live-pipeline convenience.
    ///
    /// # Errors
    /// As [`history`](Self::history).
    fn history_one(&self, patient: PatientId) -> Result<OutputCollector, HistoryError> {
        self.history(HistoryQuery::new().patient(patient))?
            .into_single()
    }
}

/// `history` for a front end that reaches its sessions over the wire
/// ([`RemoteIngest`](crate::net::RemoteIngest),
/// [`ClusterIngest`](crate::net::ClusterIngest)): validates the query,
/// names the pipeline by registry id — [`PipelineSpec::Live`] travels as
/// `0`, [`PipelineSpec::Registered`] as its id, and a locally compiled
/// plan or factory cannot cross the wire — and makes one
/// `one(patient, t0, t1, warmup, pipeline)` roundtrip per cohort patient,
/// in the order the cohort named them.
pub(crate) fn history_over_wire(
    query: HistoryQuery,
    mut one: impl FnMut(PatientId, Tick, Tick, Tick, u32) -> Result<OutputCollector, String>,
) -> Result<CohortReport, HistoryError> {
    let (range, patients, warmup, spec) = query.into_parts();
    if patients.is_empty() {
        return Err(HistoryError::NoPatients);
    }
    HistoryQuery::validate_range(range.0, range.1)?;
    let pipeline = match spec {
        PipelineSpec::Live => 0,
        PipelineSpec::Registered(id) => id,
        PipelineSpec::Compiled(_) | PipelineSpec::Factory(_) => {
            return Err(HistoryError::Remote(
                "a compiled pipeline cannot travel over the wire; \
                 register it on the server and query by id"
                    .into(),
            ))
        }
    };
    let outputs = patients
        .iter()
        .map(|&p| Ok((p, one(p, range.0, range.1, warmup, pipeline)?)))
        .collect::<Result<Vec<_>, String>>()
        .map_err(HistoryError::Remote)?;
    Ok(CohortReport::new(range, outputs))
}
