//! The four workloads. Each is a closed loop with one client: the next
//! operation is issued when the previous one returns.

use std::path::Path;

use lifestream_core::query::CompiledQuery;
use lifestream_core::stats::RunStats;
use lifestream_core::time::Tick;

use crate::measure::{Recorder, Rep};
use crate::spec::Metrics;
use crate::trace::SpanId;

pub mod chain;
pub mod cluster;
pub mod fig3;
pub mod history;

pub trait Workload: Sized {
    /// Round length the workload's executors run with.
    const ROUND: Tick;

    /// The workload's pipeline; the traced run times its compile and its
    /// executor construction.
    fn pipeline() -> CompiledQuery;

    /// Synthesizes the inputs from `seed`, computes the reference
    /// outputs, and compiles / binds / connects / prefills. Stores go
    /// under `scratch`.
    fn setup(seed: u64, scratch: &Path) -> Self;

    /// Runs the fixed op list once, recording every op in `rec`.
    fn run_rep(&mut self, rec: &mut Recorder, parent: SpanId) -> Rep;

    /// Traced run only: direct calls into the layers this workload uses,
    /// for the per-layer metrics no repetition can give.
    fn probe(&mut self, _rec: &mut Recorder, _m: &mut Metrics) {}

    /// Stops what `setup` started, reads the layers' counters into `m`
    /// and voids the run if one that must be zero is not.
    fn teardown(self, rec: &mut Recorder, m: &mut Metrics);
}

/// Order-sensitive FNV-style hash of `(time, value)` pairs; on an
/// `OutputCollector` of arity 1 it equals `OutputCollector::checksum`.
pub fn checksum_pairs(pairs: impl Iterator<Item = (Tick, f32)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (t, v) in pairs {
        for x in [t as u64, u64::from(v.to_bits())] {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Publishes an executor's counters as the `core.exec` metrics.
pub fn set_run_stats(m: &mut Metrics, stats: &RunStats) {
    m.set("core.exec.windows_executed", stats.windows_executed as f64);
    m.set("core.exec.windows_skipped", stats.windows_skipped as f64);
    m.set("core.exec.skip_fraction", stats.skip_fraction());
    m.set(
        "core.exec.kernel_invocations",
        stats.kernel_invocations as f64,
    );
    m.set(
        "core.exec.steady_state_allocs",
        stats.steady_state_allocs as f64,
    );
}
