//! The sharded multi-patient runtime: one set of shard threads.
//!
//! The Fig. 10c experiment showed per-patient data parallelism scales,
//! but its original harness was a one-shot benchmark loop: it recompiled
//! the pipeline for every patient and could not serve patients *arriving
//! over time*. This module turns the engine into a long-lived service,
//! borrowing the shape of Timely Dataflow's workers — data is routed to
//! long-lived workers rather than work being spawned per input.
//!
//! There is one worker model: the shard threads of a
//! [`LiveIngest`], each fed by one bounded command
//! channel. A shard runs three kinds of work, in channel order:
//!
//! * **Live sessions.** [`LiveIngest`] stages pushed
//!   `(patient, source, t, v)` events client-side and ships them in
//!   batches into the [`LiveSession`](lifestream_core::live::LiveSession)s
//!   of the patients hash-routed to each shard, with round-aligned
//!   polling and bounded memory end to end.
//! * **Batch jobs.** [`ShardedRuntime`] is a facade over a shard set that
//!   admits no sessions. A job holds no patient state, so
//!   [`submit`](ShardedRuntime::submit) queues it and wakes the shard
//!   with the fewest wake-ups in flight; a free shard takes the next
//!   queued job, and the shard's bounded channel is the backpressure. Each shard keeps one warm executor, recycled across
//!   patients via [`Executor::recycle`], so locality tracing, memory
//!   planning, and static allocation happen once per shard — not once per
//!   patient.
//! * **History cohort passes.** [`LiveIngest::history`]
//!   splits each pass of a cohort query by owning shard; each shard
//!   snapshots its own sessions and replays its share of the pass.
//!
//! ```
//! use std::sync::Arc;
//! use cluster_harness::sharded::{ShardedConfig, ShardedRuntime};
//! use lifestream_core::source::SignalData;
//! use lifestream_core::stream::Query;
//! use lifestream_core::time::StreamShape;
//!
//! let factory = Arc::new(|| {
//!     let q = Query::new();
//!     q.source("sig", StreamShape::new(0, 1))
//!         .select(1, |i, o| o[0] = i[0] + 1.0)?
//!         .sink();
//!     q.compile()
//! });
//! let rt = ShardedRuntime::new(factory, ShardedConfig::with_workers(2));
//! for patient in 0..8u64 {
//!     let data = SignalData::dense(StreamShape::new(0, 1), vec![patient as f32; 100]);
//!     rt.submit(patient, vec![data]);
//! }
//! let reports = rt.drain(8);
//! assert_eq!(reports.len(), 8);
//! let stats = rt.shutdown();
//! // 8 patients, but at most one compile per shard:
//! assert!(stats.compiles <= 2 && stats.recycles >= 6);
//! ```
//!
//! [`Executor::recycle`]: lifestream_core::exec::Executor::recycle

pub mod ingest;
mod pool;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};

use lifestream_core::source::SignalData;
use lifestream_core::time::Tick;

pub use ingest::{
    BatchTicket, Ingest, IngestConfig, IngestStats, LiveIngest, PatientHandoff, Sample,
    SessionMeta, SourceMeta,
};
pub use pool::PipelineFactory;

use pool::Jobs;

/// Patient identity; the live-ingest router hashes it.
pub type PatientId = u64;

/// Runtime knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Worker-thread (shard) count.
    pub workers: usize,
    /// Processing-round length handed to every pooled executor; `None`
    /// uses each pipeline's traced dimension.
    pub round_ticks: Option<Tick>,
    /// Per-worker memory cap: a static plan exceeding it reports
    /// out-of-memory instead of running (models the machine budget of
    /// the Fig. 10c experiment).
    pub mem_cap_per_worker: Option<usize>,
    /// Collect sink events into every [`PatientReport`].
    pub collect: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            round_ticks: None,
            mem_cap_per_worker: None,
            collect: false,
        }
    }
}

impl ShardedConfig {
    /// Config with an explicit shard count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Sets the processing-round length in ticks.
    pub fn round_ticks(mut self, t: Tick) -> Self {
        self.round_ticks = Some(t);
        self
    }

    /// Caps each worker's static-plan memory.
    pub fn mem_cap_per_worker(mut self, bytes: usize) -> Self {
        self.mem_cap_per_worker = Some(bytes);
        self
    }

    /// Requests sink-event collection on every job.
    pub fn collecting(mut self) -> Self {
        self.collect = true;
        self
    }
}

/// How one patient job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Ok,
    /// The executor's static plan exceeded the worker's memory share.
    OutOfMemory {
        /// Bytes the plan wanted.
        planned_bytes: usize,
        /// The per-worker cap it exceeded.
        cap_bytes: usize,
    },
    /// Compilation or execution failed; the message preserves the
    /// engine error.
    Failed(String),
}

/// Completion report for one patient job.
#[derive(Debug, Clone)]
pub struct PatientReport {
    /// The submitted patient id.
    pub patient: PatientId,
    /// Shard that executed the job.
    pub shard: usize,
    /// Present events ingested.
    pub input_events: u64,
    /// Events emitted at the sink.
    pub output_events: u64,
    /// Sink events `(time, first-field value)` when the runtime was
    /// configured with [`ShardedConfig::collect`].
    pub collected: Option<Vec<(Tick, f32)>>,
    /// How the job ended.
    pub outcome: JobOutcome,
}

/// Aggregate counters over the runtime's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeStats {
    /// Executors compiled (cold checkouts) across all shards.
    pub compiles: u64,
    /// Warm executor recycles across all shards.
    pub recycles: u64,
    /// Warm executors dropped because a job brought another source-shape
    /// signature.
    pub evictions: u64,
    /// Jobs completed (any outcome).
    pub completed: u64,
}

/// A long-lived multi-patient execution service over a [`LiveIngest`]'s
/// shard threads. See the module docs.
///
/// Dropping the runtime is equivalent to [`shutdown`](Self::shutdown):
/// queued jobs finish, shards are joined, unclaimed reports are
/// discarded.
pub struct ShardedRuntime {
    /// The shard set. The runtime admits no sessions, so only its job
    /// side ever runs.
    shards: LiveIngest,
    jobs: Arc<Jobs>,
    /// Receiver plus the count of reports already claimed, under one
    /// lock so the claimed-vs-submitted gate in [`recv`](Self::recv) is
    /// atomic with the channel receive.
    results: Mutex<(Receiver<PatientReport>, u64)>,
    submitted: AtomicU64,
}

impl ShardedRuntime {
    /// Spawns `cfg.workers` shards; each compiles from `factory` on its
    /// first job.
    pub fn new(factory: PipelineFactory, cfg: ShardedConfig) -> Self {
        let (tx, rx) = channel();
        let jobs = Arc::new(Jobs::new(PipelineFactory::clone(&factory), &cfg, tx));
        // The session round length is never used: no session is admitted.
        let round = cfg.round_ticks.unwrap_or(1);
        Self {
            shards: LiveIngest::new(factory, cfg.workers, round),
            jobs,
            results: Mutex::new((rx, 0)),
            submitted: AtomicU64::new(0),
        }
    }

    /// Shard count.
    pub fn workers(&self) -> usize {
        self.shards.workers()
    }

    /// Queues one patient job and wakes the shard with the fewest
    /// wake-ups in flight (the lowest index on a tie). A job holds no
    /// patient state, so whichever shard is free first takes it: a long
    /// job holds no shorter one behind it. Blocks while the woken shard's
    /// bounded channel ([`IngestConfig::channel_cap`]) is full: a slow
    /// shard exerts backpressure on submitters instead of queueing
    /// unboundedly.
    pub fn submit(&self, patient: PatientId, sources: Vec<SignalData>) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.shards.run_job(self.jobs.enqueue(patient, sources));
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Blocks until the next completed job's report arrives. Returns
    /// `None` once every submitted job has been reported. Safe for
    /// concurrent callers: the claimed count and the channel receive sit
    /// under one lock, so each report is handed out exactly once and a
    /// late caller gets `None` instead of blocking on an empty channel.
    pub fn recv(&self) -> Option<PatientReport> {
        let mut results = self.results.lock().expect("results lock");
        if results.1 >= self.submitted.load(Ordering::Relaxed) {
            return None;
        }
        let report = results.0.recv().expect("the runtime holds a report sender");
        results.1 += 1;
        Some(report)
    }

    /// Blocks until `n` more reports arrive (completion order).
    pub fn drain(&self, n: usize) -> Vec<PatientReport> {
        (0..n).map_while(|_| self.recv()).collect()
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> RuntimeStats {
        self.jobs.stats()
    }

    /// Stops accepting work, lets queued jobs finish, joins every shard,
    /// and returns the final counters. Unclaimed reports are discarded.
    pub fn shutdown(self) -> RuntimeStats {
        let jobs = Arc::clone(&self.jobs);
        drop(self);
        jobs.stats()
    }
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("workers", &self.workers())
            .field("submitted", &self.submitted)
            .finish()
    }
}

/// Renders a caught panic payload as a message, shared by batch jobs and
/// live sessions so the policy cannot diverge.
pub(crate) fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// splitmix64 — patient ids are often sequential; a real mix keeps the
/// shard assignment balanced anyway. The cross-machine placement table
/// ([`crate::machines::PlacementTable`]) applies this mix *twice* so the
/// machine level is decorrelated from the shard level (same-hash levels
/// with correlated moduli would funnel each machine's patients onto a
/// subset of its shards).
pub(crate) fn hash_patient(p: PatientId) -> u64 {
    let mut z = p.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream_core::stream::Query;
    use lifestream_core::time::StreamShape;
    use std::time::Duration;

    fn doubler_factory() -> PipelineFactory {
        Arc::new(|| {
            let q = Query::new();
            q.source("s", StreamShape::new(0, 1))
                .select(1, |i, o| o[0] = i[0] * 2.0)?
                .sink();
            q.compile()
        })
    }

    fn ramp(n: usize, bias: f32) -> SignalData {
        SignalData::dense(
            StreamShape::new(0, 1),
            (0..n).map(|i| i as f32 + bias).collect(),
        )
    }

    #[test]
    fn serves_a_stream_of_patients_with_pooled_executors() {
        let rt = ShardedRuntime::new(
            doubler_factory(),
            ShardedConfig::with_workers(3).collecting(),
        );
        for p in 0..12u64 {
            rt.submit(p, vec![ramp(50, p as f32)]);
        }
        let reports = rt.drain(12);
        assert_eq!(reports.len(), 12);
        for r in &reports {
            assert_eq!(r.outcome, JobOutcome::Ok);
            let collected = r.collected.as_ref().unwrap();
            assert_eq!(collected.len(), 50);
            // First sample of patient p is p doubled — results routed back
            // to the right submitter.
            assert_eq!(collected[0].1, r.patient as f32 * 2.0);
        }
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 12);
        // The whole point: at most one compile per shard, everything else
        // recycled.
        assert!(stats.compiles <= 3, "compiles {}", stats.compiles);
        assert_eq!(stats.compiles + stats.recycles, 12);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        // Sessions are hash-routed: a patient always lands on its shard.
        let ingest = LiveIngest::new(doubler_factory(), 4, 100);
        for p in 0..100u64 {
            let s = ingest.shard_of(p);
            assert!(s < 4);
            assert_eq!(s, ingest.shard_of(p), "routing must be deterministic");
        }
        // splitmix routing should not collapse onto one shard.
        let mut seen = [false; 4];
        for p in 0..100u64 {
            seen[ingest.shard_of(p)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards reachable");
        ingest.shutdown();
    }

    #[test]
    fn bulk_submitted_short_jobs_never_wait_behind_a_long_one() {
        // The long job holds its shard until every short job submitted
        // with it has been reported: a job bound to a shard when submitted
        // would wait behind the long one, and the drain below would not end.
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let held = Arc::clone(&gate);
        let factory: PipelineFactory = Arc::new(move || {
            let held = Arc::clone(&held);
            let q = Query::new();
            q.source("s", StreamShape::new(0, 1))
                .select(1, move |i, o| {
                    if i[0] < 0.0 {
                        let (open, wake) = &*held;
                        let mut open = open.lock().unwrap();
                        while !*open {
                            // A deadlock guard, not a timing assert.
                            let (next, wait) =
                                wake.wait_timeout(open, Duration::from_secs(30)).unwrap();
                            open = next;
                            *open |= wait.timed_out();
                        }
                    }
                    o[0] = i[0];
                })?
                .sink();
            q.compile()
        });
        let rt = ShardedRuntime::new(factory, ShardedConfig::with_workers(2));
        const LONG: PatientId = 999;
        rt.submit(LONG, vec![ramp(10, -1.0)]);
        for p in 0..8 {
            rt.submit(p, vec![ramp(10, 0.0)]);
        }
        let early = rt.drain(8);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let long = rt.recv().unwrap();
        assert_eq!(long.patient, LONG, "a short job waited behind the long one");
        assert!(early.iter().all(|r| r.shard != long.shard));
        assert_eq!(rt.shutdown().completed, 9);
    }

    #[test]
    fn bounded_queue_backpressures_submit_but_loses_nothing() {
        // One shard behind the default channel depth: submits beyond it
        // must wait for the shard to drain, and all jobs still complete
        // exactly once.
        let rt = ShardedRuntime::new(doubler_factory(), ShardedConfig::with_workers(1));
        let jobs = 3 * IngestConfig::new(1, 1).channel_cap as u64;
        for p in 0..jobs {
            rt.submit(p, vec![ramp(200, p as f32)]);
        }
        let reports = rt.drain(jobs as usize);
        assert_eq!(reports.len() as u64, jobs);
        assert!(reports.iter().all(|r| r.outcome == JobOutcome::Ok));
        let stats = rt.shutdown();
        assert_eq!(stats.completed, jobs);
    }

    #[test]
    fn mem_cap_surfaces_oom_outcome() {
        let rt = ShardedRuntime::new(
            doubler_factory(),
            ShardedConfig::with_workers(2).mem_cap_per_worker(1),
        );
        rt.submit(0, vec![ramp(100, 0.0)]);
        let r = rt.recv().unwrap();
        assert!(matches!(r.outcome, JobOutcome::OutOfMemory { .. }));
        rt.shutdown();
    }

    #[test]
    fn panicking_user_code_becomes_a_failed_report_not_a_hang() {
        // A pipeline factory that panics must still yield one report per
        // job (otherwise recv()/drain() would block forever), and the
        // shard must survive to serve... nothing else here, but shutdown
        // must complete.
        let rt = ShardedRuntime::new(
            Arc::new(|| panic!("factory exploded")),
            ShardedConfig::with_workers(2),
        );
        rt.submit(0, vec![ramp(10, 0.0)]);
        let r = rt.recv().expect("a report must arrive");
        match &r.outcome {
            JobOutcome::Failed(m) => {
                assert!(
                    m.contains("panicked") && m.contains("factory exploded"),
                    "{m}"
                )
            }
            o => panic!("expected failure, got {o:?}"),
        }
        let stats = rt.shutdown(); // must not hang
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        // Dropping a runtime that never ran a job must not leak parked
        // worker threads (the Drop impl performs the shutdown protocol).
        let rt = ShardedRuntime::new(doubler_factory(), ShardedConfig::with_workers(3));
        drop(rt); // would hang here on a lost wakeup
    }

    #[test]
    fn mismatched_sources_fail_descriptively_not_fatally() {
        let rt = ShardedRuntime::new(doubler_factory(), ShardedConfig::with_workers(1));
        // Wrong source count: the pipeline has one source.
        rt.submit(1, vec![ramp(10, 0.0), ramp(10, 0.0)]);
        let r = rt.recv().unwrap();
        match &r.outcome {
            JobOutcome::Failed(m) => assert!(m.contains("sources"), "message: {m}"),
            o => panic!("expected failure, got {o:?}"),
        }
        // The shard survives and serves the next patient.
        rt.submit(2, vec![ramp(10, 0.0)]);
        assert_eq!(rt.recv().unwrap().outcome, JobOutcome::Ok);
        rt.shutdown();
    }
}
