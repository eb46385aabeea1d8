//! Real-thread scale-up (Fig. 10c): per-patient data parallelism.
//!
//! The LifeStream arm runs on the [`ShardedRuntime`]:
//! patients are routed to long-lived shard workers whose pooled
//! executors are compiled once and recycled, so the measured loop is the
//! steady state of the multi-patient service, not a compile-per-patient
//! benchmark. The Trill and NumLib arms keep their per-patient loops —
//! those baselines have no warm state worth pooling, which is part of
//! the comparison.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lifestream_core::pipeline::fig3_pipeline;
use lifestream_core::source::SignalData;
use lifestream_signal::dataset::ecg_abp_pair;

use cluster_harness::sharded::{JobOutcome, ShardedConfig, ShardedRuntime};

/// Which engine to scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// LifeStream (this repo's core engine).
    LifeStream,
    /// The Trill-architecture baseline.
    Trill,
    /// The NumPy/SciPy-style baseline.
    NumLib,
}

/// A per-patient workload: every patient contributes an ECG+ABP pair.
#[derive(Debug, Clone)]
pub struct PatientWorkload {
    /// Pre-generated per-patient signal pairs (cheaply clonable:
    /// `SignalData` shares sample buffers via `Arc`).
    pub patients: Vec<(SignalData, SignalData)>,
    /// Processing window in ticks.
    pub window: i64,
}

impl PatientWorkload {
    /// Synthesizes `n` patients with `minutes` of gap-bearing ECG+ABP
    /// each.
    pub fn synthesize(n: usize, minutes: i64, seed: u64) -> Self {
        let patients = (0..n)
            .map(|i| ecg_abp_pair(minutes, seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Self {
            patients,
            window: 60_000,
        }
    }

    /// Total present events across all patients.
    pub fn total_events(&self) -> u64 {
        self.patients
            .iter()
            .map(|(e, a)| (e.present_events() + a.present_events()) as u64)
            .sum()
    }
}

/// One measured scaling point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Worker thread count.
    pub threads: usize,
    /// Input events processed (0 when the engine crashed).
    pub events: u64,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Throughput in million events per second.
    pub mev_per_s: f64,
    /// True when the engine ran out of memory (Trill beyond its thread
    /// budget, as in the paper).
    pub oom: bool,
}

/// Runs the Fig. 3 pipeline over the workload with `threads` workers,
/// patients partitioned round-robin. `mem_budget_bytes` models the
/// machine's memory: each worker gets an equal share, and an engine whose
/// buffering exceeds its share fails the run with OOM (the Trill failure
/// mode beyond 12 threads in §8.6).
pub fn run_scaling(
    engine: Engine,
    workload: &PatientWorkload,
    threads: usize,
    mem_budget_bytes: usize,
) -> ScalePoint {
    assert!(threads > 0, "need at least one worker");
    let per_worker_cap = mem_budget_bytes / threads;
    let start = Instant::now();
    let (events, oom) = match engine {
        Engine::LifeStream => run_sharded(workload, threads, per_worker_cap),
        _ => run_per_patient(engine, workload, threads, per_worker_cap),
    };
    let elapsed = start.elapsed().as_secs_f64();
    ScalePoint {
        threads,
        events: if oom { 0 } else { events },
        elapsed_s: elapsed,
        mev_per_s: if oom {
            0.0
        } else {
            events as f64 / elapsed / 1e6
        },
        oom,
    }
}

/// The baselines' arm of [`run_scaling`]: one scoped thread per worker,
/// each looping over its patients. Returns the present input events
/// processed and whether a worker ran out of memory.
fn run_per_patient(
    engine: Engine,
    workload: &PatientWorkload,
    threads: usize,
    per_worker_cap: usize,
) -> (u64, bool) {
    let oom = AtomicBool::new(false);
    let processed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (oom, processed) = (&oom, &processed);
            let patients = &workload.patients;
            scope.spawn(move || {
                for (ecg, abp) in patients.iter().skip(w).step_by(threads) {
                    if oom.load(Ordering::Relaxed) {
                        return;
                    }
                    let events = ecg.present_events() + abp.present_events();
                    match engine {
                        Engine::LifeStream => unreachable!("handled by the sharded runtime"),
                        Engine::Trill => {
                            let mut p = trill_baseline::pipelines::fig3_pipeline(
                                ecg.shape(),
                                abp.shape(),
                                1000,
                            )
                            .with_memory_cap(per_worker_cap);
                            if p.run(vec![ecg.clone(), abp.clone()]).is_err() {
                                oom.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                        Engine::NumLib => {
                            // Whole-array materialization: ~10 arrays of
                            // the signal length in flight (see
                            // NumLibStats::arrays_materialized).
                            let approx = (ecg.len() + abp.len()) * 4 * 10;
                            if approx > per_worker_cap {
                                oom.store(true, Ordering::Relaxed);
                                return;
                            }
                            lifestream::numlib::fig3_numlib(ecg, abp, 1000).expect("numlib run");
                        }
                    }
                    processed.fetch_add(events, Ordering::Relaxed);
                }
            });
        }
    });
    (processed.into_inner() as u64, oom.into_inner())
}

/// The LifeStream arm of [`run_scaling`]: the whole patient workload
/// through a [`ShardedRuntime`] over the Fig. 3 pipeline. Returns the
/// present input events of the patients that completed and whether any
/// job failed (OOM or error). The timed interval includes runtime
/// construction and the per-shard warm-up compile — the steady state
/// amortizes it across the patient stream, exactly the effect the
/// pooled-executor design buys.
fn run_sharded(workload: &PatientWorkload, threads: usize, per_worker_cap: usize) -> (u64, bool) {
    let Some((ecg_shape, abp_shape)) = workload
        .patients
        .first()
        .map(|(e, a)| (e.shape(), a.shape()))
    else {
        return (0, false);
    };
    let factory = Arc::new(move || fig3_pipeline(ecg_shape, abp_shape, 1000)?.compile());
    let cfg = ShardedConfig::with_workers(threads)
        .round_ticks(workload.window)
        .mem_cap_per_worker(per_worker_cap);
    let rt = ShardedRuntime::new(factory, cfg);
    for (p, (ecg, abp)) in workload.patients.iter().enumerate() {
        rt.submit(p as u64, vec![ecg.clone(), abp.clone()]);
    }
    let mut events = 0u64;
    let mut failed = false;
    for report in rt.drain(workload.patients.len()) {
        match report.outcome {
            JobOutcome::Ok => {
                let (ecg, abp) = &workload.patients[report.patient as usize];
                events += (ecg.present_events() + abp.present_events()) as u64;
            }
            _ => failed = true,
        }
    }
    rt.shutdown();
    (events, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> PatientWorkload {
        PatientWorkload::synthesize(4, 2, 42)
    }

    #[test]
    fn lifestream_scales_without_oom() {
        let w = tiny_workload();
        let p1 = run_scaling(Engine::LifeStream, &w, 1, 8 << 30);
        let p2 = run_scaling(Engine::LifeStream, &w, 2, 8 << 30);
        assert!(!p1.oom && !p2.oom);
        assert_eq!(p1.events, p2.events);
        assert!(p1.events > 0);
    }

    #[test]
    fn trill_ooms_when_per_worker_share_shrinks() {
        let w = tiny_workload();
        // Generous budget: fine.
        let ok = run_scaling(Engine::Trill, &w, 1, 8 << 30);
        assert!(!ok.oom);
        // Budget so small the per-worker join cap is untenable.
        let bad = run_scaling(Engine::Trill, &w, 4, 4 << 20);
        assert!(bad.oom);
        assert_eq!(bad.events, 0);
    }

    #[test]
    fn numlib_runs_within_budget() {
        let w = tiny_workload();
        let p = run_scaling(Engine::NumLib, &w, 2, 8 << 30);
        assert!(!p.oom);
        assert!(p.events > 0);
    }

    #[test]
    fn workload_event_count_is_stable() {
        let w = tiny_workload();
        assert_eq!(w.total_events(), w.total_events());
        assert!(w.total_events() > 0);
    }
}
