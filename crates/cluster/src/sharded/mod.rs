//! The sharded multi-patient runtime.
//!
//! The Fig. 10c experiment showed per-patient data parallelism scales,
//! but its original harness was a one-shot benchmark loop: it recompiled
//! the pipeline for every patient and could not serve patients *arriving
//! over time*. This module turns the engine into a long-lived service,
//! borrowing the shape of Timely Dataflow's workers — data is routed to
//! long-lived workers rather than work being spawned per input:
//!
//! * **A fixed pool of worker threads** (shards) is spawned once per
//!   runtime. Each shard owns an [`ExecutorPool`]: prepared executors
//!   recycled across patients via [`Executor::recycle`], so locality
//!   tracing, memory planning, and static allocation happen once per
//!   shard — not once per patient.
//! * **Routing + work stealing**: jobs go to the shard chosen by a
//!   patient-id hash (a returning patient hits its warm shard); idle
//!   shards steal from stragglers' tails so skewed patient sizes cannot
//!   gate the run. Pools are LRU-capped ([`ShardedConfig::pool_cap`])
//!   and queues optionally bounded ([`ShardedConfig::queue_cap`], which
//!   turns a slow shard into backpressure on `submit`).
//! * **Live ingest** ([`ingest::LiveIngest`]) stages pushed
//!   `(patient, source, t, v)` events client-side and ships them in
//!   batches over bounded channels into per-shard
//!   [`LiveSession`](lifestream_core::live::LiveSession)s with
//!   round-aligned polling — the online face of the same runtime, with
//!   per-sample dispatch amortized away and bounded memory end to end.
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
pub mod pool;
mod shard;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use lifestream_core::exec::ExecOptions;
use lifestream_core::source::SignalData;
use lifestream_core::time::Tick;

pub use ingest::{
    BatchTicket, Ingest, IngestConfig, IngestStats, LiveIngest, PatientHandoff, Sample,
    SessionMeta, SourceMeta,
};
pub use pool::{ExecutorPool, PipelineFactory, PoolRun, PoolStats, ShapeFactory};

use shard::{worker_loop, Job, SharedState};

/// Patient identity; the shard router hashes it.
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
    /// Max prepared executors each worker's pool keeps warm (LRU beyond
    /// that); `None` is unbounded. Guards against many distinct pipeline
    /// shapes pinning unbounded static plans.
    pub pool_cap: Option<usize>,
    /// Bound on each shard's pending-job queue; a full queue blocks
    /// [`submit`](ShardedRuntime::submit) (backpressure) instead of
    /// growing without limit. `None` is unbounded.
    pub queue_cap: Option<usize>,
    /// Allow idle shards to steal queued jobs from stragglers.
    pub work_stealing: bool,
    /// Collect sink events into every [`PatientReport`].
    pub collect: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            round_ticks: None,
            mem_cap_per_worker: None,
            pool_cap: None,
            queue_cap: None,
            work_stealing: true,
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

    /// Caps each worker's pool of prepared executors (LRU eviction).
    pub fn pool_cap(mut self, executors: usize) -> Self {
        self.pool_cap = Some(executors.max(1));
        self
    }

    /// Bounds each shard's pending-job queue; a full queue makes
    /// [`submit`](ShardedRuntime::submit) block until the shard (or a
    /// stealing sibling) drains it.
    pub fn queue_cap(mut self, jobs: usize) -> Self {
        self.queue_cap = Some(jobs.max(1));
        self
    }

    /// Requests sink-event collection on every job.
    pub fn collecting(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Disables work stealing (strict hash placement).
    pub fn without_stealing(mut self) -> Self {
        self.work_stealing = false;
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
    /// Shard the router picked.
    pub routed: usize,
    /// Shard that actually executed the job (differs when stolen).
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
    /// Executors compiled (cold pool checkouts) across all shards.
    pub compiles: u64,
    /// Warm executor recycles across all shards.
    pub recycles: u64,
    /// Prepared executors dropped by per-worker LRU pool caps.
    pub evictions: u64,
    /// Jobs executed by a shard other than the routed one.
    pub stolen: u64,
    /// Jobs completed (any outcome).
    pub completed: u64,
}

/// A long-lived multi-patient execution service. See the module docs.
///
/// Dropping the runtime is equivalent to [`shutdown`](Self::shutdown):
/// queued jobs finish, workers are joined, unclaimed reports are
/// discarded.
pub struct ShardedRuntime {
    shared: Arc<SharedState>,
    handles: Vec<JoinHandle<()>>,
    /// Receiver plus the count of reports already claimed, under one
    /// lock so the claimed-vs-submitted gate in [`recv`](Self::recv) is
    /// atomic with the channel receive.
    results: Mutex<(Receiver<PatientReport>, u64)>,
    /// Keeps the channel alive even if every worker exits, so recv()
    /// blocks rather than panicking on a disconnected channel.
    _results_tx: Sender<PatientReport>,
    submitted: AtomicU64,
}

impl ShardedRuntime {
    /// Spawns `cfg.workers` shards, each with an empty executor pool fed
    /// by `factory` on first use.
    pub fn new(factory: PipelineFactory, cfg: ShardedConfig) -> Self {
        Self::new_per_shape(pool::shape_oblivious(factory), cfg)
    }

    /// Like [`new`](Self::new), but the factory sees each job's source
    /// shapes and may build a different pipeline per shape signature —
    /// the shape-adaptive workload that actually exercises the pools'
    /// LRU eviction ([`ShardedConfig::pool_cap`]).
    pub fn new_per_shape(factory: ShapeFactory, cfg: ShardedConfig) -> Self {
        let workers = cfg.workers.max(1);
        let mut opts = ExecOptions::default();
        if let Some(t) = cfg.round_ticks {
            opts = opts.with_round_ticks(t);
        }
        let shared = Arc::new(SharedState {
            queues: Mutex::new((0..workers).map(|_| Default::default()).collect()),
            wake: std::sync::Condvar::new(),
            shutdown: AtomicBool::new(false),
            steal: cfg.work_stealing,
            queue_cap: cfg.queue_cap,
            compiles: AtomicU64::new(0),
            recycles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let (tx, rx) = channel();
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let factory = Arc::clone(&factory);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("shard-{me}"))
                    .spawn(move || {
                        let make_pool = || {
                            ExecutorPool::with_shape_factory(
                                Arc::clone(&factory),
                                opts,
                                cfg.pool_cap,
                            )
                        };
                        worker_loop(
                            me,
                            shared,
                            make_pool(),
                            make_pool,
                            cfg.collect,
                            cfg.mem_cap_per_worker,
                            tx,
                        )
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            shared,
            handles,
            results: Mutex::new((rx, 0)),
            _results_tx: tx,
            submitted: AtomicU64::new(0),
        }
    }

    /// Shard count.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The shard a patient id routes to (splitmix64 of the id).
    pub fn shard_of(&self, patient: PatientId) -> usize {
        (hash_patient(patient) % self.handles.len() as u64) as usize
    }

    /// Enqueues one patient job on its hash-routed shard. With a
    /// [`queue_cap`](ShardedConfig::queue_cap) configured, blocks while
    /// the routed shard's queue is at capacity — a slow shard exerts
    /// backpressure on submitters instead of queueing unboundedly (an
    /// idle sibling stealing from the full queue also unblocks it).
    pub fn submit(&self, patient: PatientId, sources: Vec<SignalData>) {
        let routed = self.shard_of(patient);
        {
            let mut queues = self.shared.queues.lock().expect("queue lock");
            if let Some(cap) = self.shared.queue_cap {
                while queues[routed].len() >= cap && !self.shared.shutdown.load(Ordering::Acquire) {
                    queues = self.shared.wake.wait(queues).expect("submit wait");
                }
            }
            queues[routed].push_back(Job {
                patient,
                sources,
                routed,
            });
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.wake.notify_all();
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
        let report = results
            .0
            .recv()
            .expect("shard workers alive while jobs are pending");
        results.1 += 1;
        Some(report)
    }

    /// Blocks until `n` more reports arrive (completion order).
    pub fn drain(&self, n: usize) -> Vec<PatientReport> {
        (0..n).map_while(|_| self.recv()).collect()
    }

    /// Snapshot of the aggregate counters. Pool hit/miss totals are
    /// published when workers exit, so `compiles`/`recycles` are only
    /// final after [`shutdown`](Self::shutdown).
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            compiles: self.shared.compiles.load(Ordering::Relaxed),
            recycles: self.shared.recycles.load(Ordering::Relaxed),
            evictions: self.shared.evictions.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting work, lets queued jobs finish, joins every shard,
    /// and returns the final counters. Unclaimed reports are discarded.
    pub fn shutdown(mut self) -> RuntimeStats {
        self.stop();
        self.stats()
    }

    /// Shared teardown for [`shutdown`](Self::shutdown) and `Drop`.
    fn stop(&mut self) {
        {
            // The store must happen under the queues lock: a worker that
            // already found its queue empty and read `shutdown == false`
            // holds that lock until it parks on the condvar, so storing
            // inside the lock (and notifying after) cannot slip into the
            // check-to-wait gap and lose the wakeup.
            let _queues = self.shared.queues.lock().expect("queue lock");
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.wake.notify_all();
        // Drain any unclaimed reports; reports not recv()'d are dropped
        // here (std channels are unbounded, so workers never block on
        // send — this is about not accumulating them until process exit).
        {
            let results = self.results.lock().expect("results lock");
            while results.0.try_recv().is_ok() {}
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ShardedRuntime {
    /// A dropped runtime must not leak its worker threads parked on the
    /// wake condvar (e.g. a prepared-but-never-run engine pipeline).
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("workers", &self.handles.len())
            .field("submitted", &self.submitted)
            .finish()
    }
}

/// Renders a caught panic payload as a message, shared by the batch
/// workers and the live-ingest shards so the policy cannot diverge.
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
        let rt = ShardedRuntime::new(doubler_factory(), ShardedConfig::with_workers(4));
        for p in 0..100u64 {
            let s = rt.shard_of(p);
            assert!(s < 4);
            assert_eq!(s, rt.shard_of(p), "routing must be deterministic");
        }
        // splitmix routing should not collapse onto one shard.
        let mut seen = [false; 4];
        for p in 0..100u64 {
            seen[rt.shard_of(p)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards reachable");
        rt.shutdown();
    }

    #[test]
    fn work_stealing_drains_a_skewed_queue() {
        // Everything routes to one patient id's shard; with stealing on,
        // other shards must pick up the slack.
        let rt = ShardedRuntime::new(doubler_factory(), ShardedConfig::with_workers(4));
        let hot = 7u64; // all jobs use ids that route to hot's shard
        let target = rt.shard_of(hot);
        let same_shard_ids: Vec<u64> = (0..10_000u64)
            .filter(|&p| rt.shard_of(p) == target)
            .take(24)
            .collect();
        assert!(same_shard_ids.len() >= 8, "need enough colliding ids");
        for &p in &same_shard_ids {
            rt.submit(p, vec![ramp(2_000, 0.0)]);
        }
        let reports = rt.drain(same_shard_ids.len());
        assert!(reports.iter().all(|r| r.outcome == JobOutcome::Ok));
        let stats = rt.shutdown();
        // On a single-core host the routed shard may still win every job;
        // stealing correctness is what we lock: stolen jobs, if any, were
        // executed elsewhere and reported exactly once.
        assert_eq!(stats.completed as usize, same_shard_ids.len());
        for r in &reports {
            assert_eq!(r.routed, target);
            if r.shard != r.routed {
                // the steal counter saw it
                assert!(stats.stolen > 0);
            }
        }
    }

    #[test]
    fn no_stealing_pins_jobs_to_routed_shard() {
        let rt = ShardedRuntime::new(
            doubler_factory(),
            ShardedConfig::with_workers(4).without_stealing(),
        );
        for p in 0..16u64 {
            rt.submit(p, vec![ramp(100, 0.0)]);
        }
        let reports = rt.drain(16);
        for r in &reports {
            assert_eq!(r.shard, r.routed, "patient {} migrated", r.patient);
        }
        let stats = rt.shutdown();
        assert_eq!(stats.stolen, 0);
    }

    #[test]
    fn bounded_queue_backpressures_submit_but_loses_nothing() {
        // queue_cap 1 on a single shard: every submit beyond the first
        // must wait for the worker to drain, and all jobs still complete
        // exactly once.
        let rt = ShardedRuntime::new(
            doubler_factory(),
            ShardedConfig::with_workers(1).queue_cap(1),
        );
        for p in 0..32u64 {
            rt.submit(p, vec![ramp(200, p as f32)]);
        }
        let reports = rt.drain(32);
        assert_eq!(reports.len(), 32);
        assert!(reports.iter().all(|r| r.outcome == JobOutcome::Ok));
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 32);
    }

    #[test]
    fn pool_cap_flows_through_to_runtime_stats() {
        // One worker, pool capped at 1: a single fixed-shape factory only
        // ever produces one signature, so no evictions — but the knob and
        // the counter must wire through end to end.
        let rt = ShardedRuntime::new(
            doubler_factory(),
            ShardedConfig::with_workers(1).pool_cap(1),
        );
        for p in 0..6u64 {
            rt.submit(p, vec![ramp(50, 0.0)]);
        }
        rt.drain(6);
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.compiles, 1);
    }

    #[test]
    fn shape_adaptive_workload_evicts_under_pool_cap() {
        // A per-shape factory builds a distinct pipeline for each source
        // period; one worker with pool_cap 2 fed six distinct shapes must
        // evict prepared executors — the LRU path is actually exercised,
        // not just wired.
        let factory: ShapeFactory = Arc::new(|shapes: &[StreamShape]| {
            let q = Query::new();
            q.source("s", shapes[0])
                .select(1, |i, o| o[0] = i[0] + 0.5)?
                .sink();
            q.compile()
        });
        let rt = ShardedRuntime::new_per_shape(
            factory,
            ShardedConfig::with_workers(1).pool_cap(2).collecting(),
        );
        for round in 0..2 {
            for period in 1..=6i64 {
                let shape = StreamShape::new(0, period);
                let data = SignalData::dense(shape, vec![round as f32; 40]);
                rt.submit(period as u64, vec![data]);
            }
        }
        let reports = rt.drain(12);
        assert!(reports.iter().all(|r| r.outcome == JobOutcome::Ok));
        for r in &reports {
            // Each shape got its own pipeline: output = input + 0.5.
            let c = r.collected.as_ref().unwrap();
            assert_eq!(c.len(), 40);
            assert!(c.iter().all(|&(_, v)| v.fract() == 0.5));
        }
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 12);
        assert!(
            stats.evictions > 0,
            "six shapes through a cap-2 pool must evict (got {:?})",
            stats
        );
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
