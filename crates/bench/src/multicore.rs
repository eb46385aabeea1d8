//! Real-thread scale-up (Fig. 10c): per-patient data parallelism.
//!
//! Each arm runs the Fig. 3 workload ([`crate::e2e_workload`]) over every
//! patient with `threads` workers, and each worker gets an equal share of
//! the machine's memory budget as its [`EngineOptions::memory_cap`].
//! [`run_lifestream`] serves the patients from the [`ShardedRuntime`]:
//! patients are routed to long-lived shard workers whose pooled
//! executors are compiled once and recycled, so the measured loop is the
//! steady state of the multi-patient service, not a compile-per-patient
//! benchmark. [`run_baseline`] calls [`Engine::run`] once per patient on
//! scoped threads — the Trill and NumLib baselines have no warm state
//! worth pooling, which is part of the comparison.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lifestream::engine::{Engine, EngineError, EngineOptions};
use lifestream_core::pipeline::fig3_pipeline;
use lifestream_core::source::SignalData;
use lifestream_signal::dataset::ecg_abp_pair;

use cluster_harness::sharded::{JobOutcome, ShardedConfig, ShardedRuntime};

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
        self.patients.iter().map(patient_events).sum()
    }
}

/// The present events of one patient: what every arm counts as processed
/// when that patient's job completes, whether or not targeted processing
/// skipped some of its rounds.
fn patient_events((ecg, abp): &(SignalData, SignalData)) -> u64 {
    (ecg.present_events() + abp.present_events()) as u64
}

/// One measured scaling point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Input events processed (0 when the engine ran out of memory).
    pub events: u64,
    /// Throughput in million events per second.
    pub mev_per_s: f64,
    /// True when the engine ran out of memory (Trill beyond its thread
    /// budget, as in the paper).
    pub oom: bool,
}

/// Times `arm`, which returns the input events it processed or `None`
/// when a worker ran out of memory.
fn measure(arm: impl FnOnce() -> Option<u64>) -> ScalePoint {
    let start = Instant::now();
    let events = arm();
    let elapsed = start.elapsed().as_secs_f64();
    match events {
        Some(events) => ScalePoint {
            events,
            mev_per_s: events as f64 / elapsed / 1e6,
            oom: false,
        },
        None => ScalePoint {
            events: 0,
            mev_per_s: 0.0,
            oom: true,
        },
    }
}

/// Runs a baseline `engine` over the workload with `threads` workers,
/// patients partitioned round-robin, one [`Engine::run`] per patient.
/// `mem_budget_bytes` models the machine's memory: each worker gets an
/// equal share as its memory cap, and a patient that exceeds it ends the
/// run with OOM (the Trill failure mode beyond 12 threads in §8.6).
///
/// # Panics
/// On any engine error other than [`EngineError::OutOfMemory`].
pub fn run_baseline(
    engine: &(dyn Engine + Sync),
    workload: &PatientWorkload,
    threads: usize,
    mem_budget_bytes: usize,
) -> ScalePoint {
    assert!(threads > 0, "need at least one worker");
    let opts = EngineOptions::default().with_memory_cap(mem_budget_bytes / threads);
    let fig3 = crate::e2e_workload();
    measure(|| {
        let oom = AtomicBool::new(false);
        let processed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (oom, processed, opts, fig3) = (&oom, &processed, &opts, &fig3);
                let patients = &workload.patients;
                scope.spawn(move || {
                    for patient in patients.iter().skip(w).step_by(threads) {
                        if oom.load(Ordering::Relaxed) {
                            return;
                        }
                        let (ecg, abp) = patient;
                        match engine.run(fig3, vec![ecg.clone(), abp.clone()], opts) {
                            Ok(_) => {
                                processed.fetch_add(patient_events(patient), Ordering::Relaxed);
                            }
                            Err(EngineError::OutOfMemory { .. }) => {
                                oom.store(true, Ordering::Relaxed);
                                return;
                            }
                            Err(e) => panic!("{} on {}: {e}", engine.name(), fig3.name()),
                        }
                    }
                });
            }
        });
        (!oom.into_inner()).then(|| processed.into_inner())
    })
}

/// Runs the LifeStream arm: the whole patient workload through a
/// [`ShardedRuntime`] with `threads` shard workers over the Fig. 3
/// pipeline, each worker's static plan capped at an equal share of
/// `mem_budget_bytes`. Reports OOM when any job's plan exceeds its cap.
/// The timed interval includes runtime construction and the per-shard
/// warm-up compile — the steady state amortizes it across the patient
/// stream, exactly the effect the pooled-executor design buys.
///
/// # Panics
/// When a job fails for any reason other than memory.
pub fn run_lifestream(
    workload: &PatientWorkload,
    threads: usize,
    mem_budget_bytes: usize,
) -> ScalePoint {
    assert!(threads > 0, "need at least one worker");
    let per_worker_cap = mem_budget_bytes / threads;
    measure(|| {
        let Some((ecg_shape, abp_shape)) = workload
            .patients
            .first()
            .map(|(e, a)| (e.shape(), a.shape()))
        else {
            return Some(0);
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
        let mut oom = false;
        for report in rt.drain(workload.patients.len()) {
            match report.outcome {
                JobOutcome::Ok => {
                    events += patient_events(&workload.patients[report.patient as usize]);
                }
                JobOutcome::OutOfMemory { .. } => oom = true,
                JobOutcome::Failed(m) => panic!("patient {}: {m}", report.patient),
            }
        }
        rt.shutdown();
        (!oom).then_some(events)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream::engine::{NumLibEngine, TrillEngine};
    use lifestream_core::presence::PresenceMap;
    use lifestream_signal::dataset::{DatasetBuilder, SignalKind};

    fn tiny_workload() -> PatientWorkload {
        PatientWorkload::synthesize(4, 2, 42)
    }

    #[test]
    fn lifestream_scales_without_oom() {
        let w = tiny_workload();
        let p1 = run_lifestream(&w, 1, 8 << 30);
        let p2 = run_lifestream(&w, 2, 8 << 30);
        assert!(!p1.oom && !p2.oom);
        assert_eq!(p1.events, p2.events);
        assert!(p1.events > 0);
    }

    #[test]
    fn trill_ooms_when_per_worker_share_shrinks() {
        let w = tiny_workload();
        // Generous budget: fine.
        let ok = run_baseline(&TrillEngine, &w, 1, 8 << 30);
        assert!(!ok.oom);
        // Budget so small the per-worker join cap is untenable.
        let bad = run_baseline(&TrillEngine, &w, 4, 4 << 20);
        assert!(bad.oom);
        assert_eq!(bad.events, 0);
    }

    #[test]
    fn numlib_runs_within_budget() {
        let w = tiny_workload();
        let p = run_baseline(&NumLibEngine, &w, 2, 8 << 30);
        assert!(!p.oom);
        assert!(p.events > 0);
    }

    /// A patient whose ECG starts two 60 000-tick rounds late while its
    /// ABP is present throughout: targeted processing skips at least the
    /// first round, and its ABP events still count as processed input.
    fn patient_with_skipped_rounds() -> (SignalData, SignalData) {
        let ecg = DatasetBuilder::new(SignalKind::Ecg, 7)
            .minutes(3)
            .build(500.0);
        let abp = DatasetBuilder::new(SignalKind::Abp, 8)
            .minutes(3)
            .build(125.0);
        let mut late = PresenceMap::new();
        late.add(120_000, 180_000);
        (ecg.with_new_presence(late), abp)
    }

    #[test]
    fn every_arm_processes_every_input_event_at_one_thread() {
        let mut w = tiny_workload();
        w.patients.push(patient_with_skipped_rounds());
        let total = w.total_events();
        assert!(total > 0);
        let arms = [
            ("LifeStream", run_lifestream(&w, 1, 8 << 30)),
            ("Trill", run_baseline(&TrillEngine, &w, 1, 8 << 30)),
            ("NumLib", run_baseline(&NumLibEngine, &w, 1, 8 << 30)),
        ];
        for (name, p) in arms {
            assert!(!p.oom, "{name} ran out of memory");
            assert_eq!(p.events, total, "{name} events");
        }
    }
}
