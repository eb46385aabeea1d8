//! Batch jobs on the ingest shards, and the one warm executor each shard
//! keeps for them.
//!
//! An [`Executor`] is expensive to make — locality tracing, memory
//! planning, and static buffer allocation all happen at construction —
//! but cheap to *recycle*: [`Executor::recycle`] wipes kernel state and
//! swaps the source datasets in place. A shard's [`ExecutorPool`]
//! exploits that split: its first job pays the one-time compile, and
//! every later job with the same source-shape signature rides the warmed
//! executor. This is the per-worker half of the PGO observation that the
//! win is in reusing warmed-up execution state on the hot path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use lifestream_core::exec::{ExecOptions, Executor, OutputCollector};
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stats::RunStats;
use lifestream_core::time::{StreamShape, Tick};

use super::shard::catch_panic;
use super::{JobOutcome, PatientId, PatientReport, RuntimeStats, ShardedConfig};

/// Builds a compiled query. A shard invokes this on its first batch job
/// (and again whenever a job brings another source-shape signature); the
/// result is owned by that shard and recycled across patients.
pub type PipelineFactory =
    Arc<dyn Fn() -> lifestream_core::error::Result<CompiledQuery> + Send + Sync>;

/// What every batch job of one runtime shares: how its executors are
/// built and run, the runtime's counters, and where reports go.
pub(crate) struct Jobs {
    factory: PipelineFactory,
    opts: ExecOptions,
    collect: bool,
    mem_cap: Option<usize>,
    /// Submitted jobs no shard has taken yet. A shard takes one only as
    /// it starts to run it, so a long job holds no shorter one behind it.
    queue: Mutex<VecDeque<(PatientId, Vec<SignalData>)>>,
    /// The most jobs `queue` holds: [`enqueue`](Self::enqueue) waits on
    /// `taken` while it is full, so slow shards hold submitters back.
    bound: usize,
    taken: Condvar,
    /// Wake-ups sent to each shard and not yet spent: each live [`Job`]
    /// holds one until it is dropped.
    in_flight: Vec<AtomicUsize>,
    compiles: AtomicU64,
    recycles: AtomicU64,
    evictions: AtomicU64,
    completed: AtomicU64,
    reports: Sender<PatientReport>,
}

impl Jobs {
    /// Jobs for `cfg.workers` shards whose queue holds at most
    /// `channel_cap` jobs a shard.
    pub(crate) fn new(
        factory: PipelineFactory,
        cfg: &ShardedConfig,
        channel_cap: usize,
        reports: Sender<PatientReport>,
    ) -> Self {
        let workers = cfg.workers.max(1);
        let mut opts = ExecOptions::default();
        if let Some(t) = cfg.round_ticks {
            opts = opts.with_round_ticks(t);
        }
        Self {
            factory,
            opts,
            collect: cfg.collect,
            mem_cap: cfg.mem_cap_per_worker,
            queue: Mutex::default(),
            bound: workers * channel_cap.max(1),
            taken: Condvar::new(),
            in_flight: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            compiles: AtomicU64::new(0),
            recycles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            reports,
        }
    }

    /// Queues a job, once the queue has room, and returns the wake-up for
    /// the shard with the fewest wake-ups in flight (the lowest index on a
    /// tie), claiming its slot.
    pub(crate) fn enqueue(self: &Arc<Self>, patient: PatientId, sources: Vec<SignalData>) -> Job {
        let queue = self.queue.lock().expect("job queue");
        let mut queue = (self.taken)
            .wait_while(queue, |q| q.len() >= self.bound)
            .expect("job queue");
        queue.push_back((patient, sources));
        drop(queue);
        let shard = (0..self.in_flight.len())
            .min_by_key(|&s| self.in_flight[s].load(Ordering::Relaxed))
            .expect("at least one shard");
        self.in_flight[shard].fetch_add(1, Ordering::Relaxed);
        Job {
            shard,
            jobs: Arc::clone(self),
        }
    }

    /// The next queued job, making room for a waiting submitter.
    fn take(&self) -> Option<(PatientId, Vec<SignalData>)> {
        let next = self.queue.lock().expect("job queue").pop_front();
        self.taken.notify_one();
        next
    }

    pub(crate) fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            recycles: self.recycles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
        }
    }
}

/// A wake-up for the shard [`Jobs::enqueue`] picked, as it travels on
/// that shard's channel and then waits in its task queue: each step takes
/// one queued job and runs it, until none is left. Dropping it frees the
/// shard's slot, so a shard that already keeps one drops the next.
pub(crate) struct Job {
    pub(crate) shard: usize,
    jobs: Arc<Jobs>,
}

impl Job {
    /// Takes the next queued job and runs it on the shard's pool, with one
    /// report. Returns the wake-up while a job is left; once none is, it is
    /// dropped. Between steps the wake-up holds no job, so a job waits for
    /// whichever shard is free first.
    ///
    /// Every job must produce exactly one report — the runtime's
    /// claimed-vs-submitted accounting depends on it — so a panic in user
    /// code (pipeline factory, kernel closure) is caught and reported as a
    /// failure rather than killing the shard. The warm executor's state is
    /// unknowable after an unwind, so the pool is rebuilt.
    pub(crate) fn step(self, pool: &mut ExecutorPool) -> Option<Self> {
        let (patient, sources) = self.jobs.take()?;
        let run = catch_panic(|| pool.run(&self.jobs, sources)).unwrap_or_else(|panic| {
            *pool = ExecutorPool::default();
            Err(JobOutcome::Failed(panic))
        });
        let (stats, collected, outcome) = match run {
            Ok((stats, collected)) => (stats, collected, JobOutcome::Ok),
            Err(outcome) => (RunStats::default(), None, outcome),
        };
        let (jobs, shard) = (Arc::clone(&self.jobs), self.shard);
        // Free the slot, when no job is left, before the report is out, so
        // a caller who has the report never sees this shard busy with it.
        let more = !jobs.queue.lock().expect("job queue").is_empty();
        let next = more.then_some(self);
        jobs.completed.fetch_add(1, Ordering::Relaxed);
        let _ = jobs.reports.send(PatientReport {
            patient,
            shard,
            input_events: stats.input_events,
            output_events: stats.output_events,
            collected,
            outcome,
        });
        next
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        self.jobs.in_flight[self.shard].fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one pooled run produced: its statistics and, when collection was
/// requested, the sink events `(time, first-field value)`.
type PoolRun = (RunStats, Option<Vec<(Tick, f32)>>);

/// The one warm executor a shard keeps for batch jobs. Every factory is
/// shape-oblivious, so one signature is the steady state; a job with
/// another signature rebuilds the executor and counts an eviction.
#[derive(Default)]
pub(crate) struct ExecutorPool {
    /// The warm executor and the source-shape signature it was built for.
    warm: Option<(Vec<StreamShape>, Executor)>,
    /// A signature whose static plan exceeded a memory cap, with the
    /// plan's size: a persistent cap costs one compile, not one per job.
    over_budget: Option<(Vec<StreamShape>, usize)>,
}

impl ExecutorPool {
    /// Runs one patient job: recycle on a warm hit, compile on a miss.
    /// `jobs.mem_cap` models the shard's share of the machine memory; a
    /// plan that exceeds it reports [`JobOutcome::OutOfMemory`] instead of
    /// running, and the offending executor is dropped to release its
    /// buffers.
    ///
    /// # Errors
    /// [`JobOutcome::OutOfMemory`], or [`JobOutcome::Failed`] with the
    /// pipeline's own message when compilation or execution fails.
    fn run(&mut self, jobs: &Jobs, sources: Vec<SignalData>) -> Result<PoolRun, JobOutcome> {
        let failed = |e: lifestream_core::error::Error| JobOutcome::Failed(e.to_string());
        let key: Vec<StreamShape> = sources.iter().map(SignalData::shape).collect();
        if let (Some((over, planned_bytes)), Some(cap_bytes)) = (&self.over_budget, jobs.mem_cap) {
            if *over == key && *planned_bytes > cap_bytes {
                return Err(JobOutcome::OutOfMemory {
                    planned_bytes: *planned_bytes,
                    cap_bytes,
                });
            }
        }
        let exec = match &mut self.warm {
            Some((warm, exec)) if *warm == key => {
                exec.recycle(sources).map_err(failed)?;
                jobs.recycles.fetch_add(1, Ordering::Relaxed);
                exec
            }
            slot => {
                if slot.take().is_some() {
                    jobs.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let exec = (jobs.factory)()
                    .and_then(|compiled| compiled.executor_with(sources, jobs.opts))
                    .map_err(failed)?;
                jobs.compiles.fetch_add(1, Ordering::Relaxed);
                let planned_bytes = exec.planned_bytes();
                if let Some(cap_bytes) = jobs.mem_cap.filter(|&cap| planned_bytes > cap) {
                    self.over_budget = Some((key, planned_bytes));
                    return Err(JobOutcome::OutOfMemory {
                        planned_bytes,
                        cap_bytes,
                    });
                }
                &mut slot.insert((key, exec)).1
            }
        };
        if !jobs.collect {
            return Ok((exec.run().map_err(failed)?, None));
        }
        let mut coll = OutputCollector::new(exec.sink_arity().map_err(failed)?);
        let stats = exec.run_with(|w| coll.absorb(w)).map_err(failed)?;
        let collected = coll
            .iter_times()
            .zip(coll.values(0).iter().copied())
            .collect();
        Ok((stats, Some(collected)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream_core::stream::Query;

    fn factory() -> PipelineFactory {
        Arc::new(|| {
            let q = Query::new();
            q.source("s", StreamShape::new(0, 1))
                .select(1, |i, o| o[0] = i[0] * 2.0)?
                .sink();
            q.compile()
        })
    }

    impl Jobs {
        /// Jobs no shard has taken, and wake-ups not yet spent.
        pub(crate) fn backlog(&self) -> (usize, usize) {
            let queued = self.queue.lock().expect("job queue").len();
            let woken = self.in_flight.iter().map(|n| n.load(Ordering::Relaxed));
            (queued, woken.sum())
        }
    }

    fn jobs(cfg: ShardedConfig) -> Jobs {
        Jobs::new(
            factory(),
            &cfg.collecting(),
            1,
            std::sync::mpsc::channel().0,
        )
    }

    fn ramp(n: usize) -> SignalData {
        SignalData::dense(StreamShape::new(0, 1), (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn pool_compiles_once_per_shape() {
        let jobs = jobs(ShardedConfig::with_workers(1));
        let mut pool = ExecutorPool::default();
        for _ in 0..5 {
            pool.run(&jobs, vec![ramp(100)]).unwrap();
        }
        let stats = jobs.stats();
        assert_eq!((stats.compiles, stats.recycles, stats.evictions), (1, 4, 0));
    }

    #[test]
    fn recycled_executor_matches_fresh_output() {
        let jobs = jobs(ShardedConfig::with_workers(1));
        let mut pool = ExecutorPool::default();
        // Warm the pool with one patient, then run a second; the second
        // run must look exactly like a fresh executor's.
        pool.run(&jobs, vec![ramp(64)]).unwrap();
        let warm = pool.run(&jobs, vec![ramp(32)]).unwrap().1;
        let fresh = ExecutorPool::default()
            .run(&jobs, vec![ramp(32)])
            .unwrap()
            .1;
        assert_eq!(warm, fresh);
    }

    #[test]
    fn a_new_shape_evicts_the_warm_executor() {
        // A factory whose pipeline follows a shared period: each change of
        // shape rebuilds the one warm executor and counts an eviction.
        let period = Arc::new(AtomicU64::new(1));
        let current = Arc::clone(&period);
        let factory: PipelineFactory = Arc::new(move || {
            let shape = StreamShape::new(0, current.load(Ordering::Relaxed) as Tick);
            let q = Query::new();
            q.source("s", shape).sink();
            q.compile()
        });
        let jobs = Jobs::new(
            factory,
            &ShardedConfig::with_workers(1),
            1,
            std::sync::mpsc::channel().0,
        );
        let mut pool = ExecutorPool::default();
        for p in [1, 2, 2, 1] {
            period.store(p, Ordering::Relaxed);
            let data = SignalData::dense(StreamShape::new(0, p as Tick), vec![1.0; 16]);
            pool.run(&jobs, vec![data]).unwrap();
        }
        let stats = jobs.stats();
        assert_eq!((stats.compiles, stats.recycles, stats.evictions), (3, 1, 2));
    }

    #[test]
    fn mem_cap_reports_oom() {
        let capped = jobs(ShardedConfig::with_workers(1).mem_cap_per_worker(1));
        let mut pool = ExecutorPool::default();
        let r = pool.run(&capped, vec![ramp(100)]);
        assert!(matches!(
            r,
            Err(JobOutcome::OutOfMemory { cap_bytes: 1, .. })
        ));
        // The over-budget executor was dropped, not kept warm.
        assert!(pool.warm.is_none());
        // ... but the verdict is cached: repeating the job must not pay
        // another compile.
        let r2 = pool.run(&capped, vec![ramp(100)]);
        assert!(matches!(
            r2,
            Err(JobOutcome::OutOfMemory { cap_bytes: 1, .. })
        ));
        assert_eq!(capped.stats().compiles, 1);
        // Without a cap the same shape runs on the same pool.
        let uncapped = jobs(ShardedConfig::with_workers(1));
        assert!(pool.run(&uncapped, vec![ramp(100)]).is_ok());
    }
}
