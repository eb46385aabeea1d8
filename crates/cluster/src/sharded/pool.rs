//! Per-worker executor pools.
//!
//! An [`Executor`] is expensive to make — locality tracing, memory
//! planning, and static buffer allocation all happen at construction —
//! but cheap to *recycle*: [`Executor::recycle`] wipes kernel state and
//! swaps the source datasets in place. The pool exploits that split: the
//! first patient with a given source-shape signature pays the one-time
//! compile on its worker; every later patient with the same signature
//! rides the warmed executor. This is the per-worker half of the PGO
//! observation that the win is in reusing warmed-up execution state on
//! the hot path.

use std::collections::HashMap;
use std::sync::Arc;

use lifestream_core::exec::{ExecOptions, Executor, OutputCollector};
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stats::RunStats;
use lifestream_core::time::{StreamShape, Tick};

/// Builds a compiled query. Each worker invokes this once per distinct
/// source-shape signature; the result is owned by that worker's pool and
/// recycled across patients from then on.
pub type PipelineFactory =
    Arc<dyn Fn() -> lifestream_core::error::Result<CompiledQuery> + Send + Sync>;

/// A shape-adaptive pipeline factory: receives the submitted job's
/// source-shape signature and builds a query *for those shapes*. This is
/// what makes the pool's LRU cap real — a ward mixing monitor models
/// (different grid periods per device) compiles one pipeline per shape,
/// and the per-worker warm set must evict, not grow unboundedly.
pub type ShapeFactory =
    Arc<dyn Fn(&[StreamShape]) -> lifestream_core::error::Result<CompiledQuery> + Send + Sync>;

/// Adapts a shape-oblivious [`PipelineFactory`] to the shape-receiving
/// interface the pool stores internally.
pub(crate) fn shape_oblivious(factory: PipelineFactory) -> ShapeFactory {
    Arc::new(move |_shapes: &[StreamShape]| factory())
}

/// Pool hit/miss counters (exposed through the runtime's aggregate
/// stats so scaling runs can prove the compile-once property).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Cold checkouts: an executor was compiled, traced, and planned.
    pub compiles: u64,
    /// Warm checkouts: an existing executor was recycled in place.
    pub recycles: u64,
    /// Prepared executors dropped to honor the pool's size cap (least
    /// recently used first). Many distinct pipeline shapes therefore
    /// cannot pin unbounded static plans on a worker.
    pub evictions: u64,
}

/// One prepared executor plus its recency stamp (for LRU eviction).
struct Slot {
    exec: Executor,
    last_used: u64,
}

/// What one pooled run produced.
#[derive(Debug)]
pub enum PoolRun {
    /// The job ran to completion.
    Done {
        /// Execution statistics for this job.
        stats: RunStats,
        /// Sink events `(time, first-field value)` when collection was
        /// requested.
        collected: Option<Vec<(Tick, f32)>>,
    },
    /// The executor's static memory plan exceeded the worker's share of
    /// the machine budget (the §8.6 failure mode the budget models).
    OutOfMemory {
        /// Bytes the plan wanted.
        planned_bytes: usize,
        /// The per-worker cap it exceeded.
        cap_bytes: usize,
    },
}

/// A pool of prepared executors owned by one worker thread, keyed by the
/// sources' shape signature and optionally capped (LRU) so arbitrarily
/// many distinct shapes cannot pin unbounded static plans.
pub struct ExecutorPool {
    factory: ShapeFactory,
    opts: ExecOptions,
    slots: HashMap<Vec<StreamShape>, Slot>,
    /// Static-plan footprint per shape signature, remembered even after
    /// an over-budget executor is evicted — so a persistent memory cap
    /// costs one compile per shape, not one per job.
    plan_sizes: HashMap<Vec<StreamShape>, usize>,
    /// Max prepared executors kept warm; `None` is unbounded.
    cap: Option<usize>,
    /// Monotonic checkout clock driving LRU recency.
    clock: u64,
    stats: PoolStats,
}

impl ExecutorPool {
    /// Creates an empty, uncapped pool; executors are built lazily on
    /// first use.
    pub fn new(factory: PipelineFactory, opts: ExecOptions) -> Self {
        Self::with_cap(factory, opts, None)
    }

    /// Creates an empty pool that keeps at most `cap` prepared executors
    /// warm, evicting the least recently used shape beyond that.
    pub fn with_cap(factory: PipelineFactory, opts: ExecOptions, cap: Option<usize>) -> Self {
        Self::with_shape_factory(shape_oblivious(factory), opts, cap)
    }

    /// Like [`with_cap`](Self::with_cap), but the factory receives each
    /// job's source-shape signature — the shape-adaptive form a mixed
    /// ward of monitor models needs.
    pub fn with_shape_factory(
        factory: ShapeFactory,
        opts: ExecOptions,
        cap: Option<usize>,
    ) -> Self {
        Self {
            factory,
            opts,
            slots: HashMap::new(),
            plan_sizes: HashMap::new(),
            cap: cap.map(|c| c.max(1)),
            clock: 0,
            stats: PoolStats::default(),
        }
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of distinct shape signatures with a prepared executor.
    pub fn prepared(&self) -> usize {
        self.slots.len()
    }

    /// Memoizes a shape's static-plan size. The memo itself is bounded
    /// when the pool is: an adversarial stream of ever-new shapes must
    /// not grow *any* per-worker map without limit, so at 8x the cap
    /// (+64) the memo is cleared — costing at most one extra compile per
    /// forgotten shape, never unbounded memory.
    fn remember_plan_size(&mut self, key: &[StreamShape], bytes: usize) {
        if let Some(cap) = self.cap {
            if self.plan_sizes.len() >= 8 * cap + 64 {
                self.plan_sizes.clear();
            }
        }
        self.plan_sizes.insert(key.to_vec(), bytes);
    }

    /// Drops least-recently-used slots until a new insert fits the cap.
    fn evict_for_insert(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.slots.len() + 1 > cap {
            let Some(oldest) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            self.slots.remove(&oldest);
            self.stats.evictions += 1;
        }
    }

    /// Runs one patient job on a pooled executor: recycle on a warm hit,
    /// compile on a cold miss. `mem_cap` models the worker's share of the
    /// machine memory; a plan that exceeds it reports
    /// [`PoolRun::OutOfMemory`] instead of running (and the offending
    /// executor is dropped to release its buffers).
    ///
    /// # Errors
    /// Returns the pipeline's own error message when compilation or
    /// execution fails.
    pub fn run(
        &mut self,
        sources: Vec<SignalData>,
        collect: bool,
        mem_cap: Option<usize>,
    ) -> Result<PoolRun, String> {
        let key: Vec<StreamShape> = sources.iter().map(SignalData::shape).collect();
        // Known-over-budget shape: answer from the cached plan size
        // instead of recompiling just to fail again — and evict any warm
        // executor for it, honoring the buffers-are-released contract
        // even when the cap tightened after the compile.
        if let (Some(&planned), Some(cap)) = (self.plan_sizes.get(&key), mem_cap) {
            if planned > cap {
                self.slots.remove(&key);
                return Ok(PoolRun::OutOfMemory {
                    planned_bytes: planned,
                    cap_bytes: cap,
                });
            }
        }
        self.clock += 1;
        let now = self.clock;
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.exec.recycle(sources).map_err(|e| e.to_string())?;
            slot.last_used = now;
            self.stats.recycles += 1;
        } else {
            let compiled = (self.factory)(&key).map_err(|e| e.to_string())?;
            let exec = compiled
                .executor_with(sources, self.opts)
                .map_err(|e| e.to_string())?;
            self.stats.compiles += 1;
            self.remember_plan_size(&key, exec.planned_bytes());
            // Reject over-budget plans *before* touching the warm set:
            // evicting an LRU slot to make room for an executor the cap
            // is about to discard would cost a spurious recompile.
            if let Some(cap) = mem_cap {
                if exec.planned_bytes() > cap {
                    return Ok(PoolRun::OutOfMemory {
                        planned_bytes: exec.planned_bytes(),
                        cap_bytes: cap,
                    });
                }
            }
            self.evict_for_insert();
            self.slots.insert(
                key.clone(),
                Slot {
                    exec,
                    last_used: now,
                },
            );
        }
        let exec = &mut self.slots.get_mut(&key).expect("just inserted or hit").exec;
        // Warm-hit guard: a cap that tightened after the compile (and a
        // cleared size memo) must still evict-and-report, honoring the
        // buffers-are-released contract.
        if let Some(cap) = mem_cap {
            if exec.planned_bytes() > cap {
                let planned = exec.planned_bytes();
                self.slots.remove(&key);
                return Ok(PoolRun::OutOfMemory {
                    planned_bytes: planned,
                    cap_bytes: cap,
                });
            }
        }
        if collect {
            let mut coll = OutputCollector::new(exec.sink_arity().map_err(|e| e.to_string())?);
            let stats = exec
                .run_with(|w| coll.absorb(w))
                .map_err(|e| e.to_string())?;
            let collected = coll
                .iter_times()
                .zip(coll.values(0).iter().copied())
                .collect();
            Ok(PoolRun::Done {
                stats,
                collected: Some(collected),
            })
        } else {
            let stats = exec.run().map_err(|e| e.to_string())?;
            Ok(PoolRun::Done {
                stats,
                collected: None,
            })
        }
    }
}

impl std::fmt::Debug for ExecutorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorPool")
            .field("prepared", &self.slots.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream_core::stream::Query;
    use lifestream_core::time::StreamShape;

    fn factory() -> PipelineFactory {
        Arc::new(|| {
            let q = Query::new();
            q.source("s", StreamShape::new(0, 1))
                .select(1, |i, o| o[0] = i[0] * 2.0)?
                .sink();
            q.compile()
        })
    }

    fn ramp(n: usize) -> SignalData {
        SignalData::dense(StreamShape::new(0, 1), (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn pool_compiles_once_per_shape() {
        let mut pool = ExecutorPool::new(factory(), ExecOptions::default());
        for _ in 0..5 {
            let r = pool.run(vec![ramp(100)], false, None).unwrap();
            assert!(matches!(r, PoolRun::Done { .. }));
        }
        assert_eq!(pool.stats().compiles, 1);
        assert_eq!(pool.stats().recycles, 4);
        assert_eq!(pool.prepared(), 1);
    }

    #[test]
    fn recycled_executor_matches_fresh_output() {
        let mut pool = ExecutorPool::new(factory(), ExecOptions::default());
        // Warm the pool with one patient, then run a second; the second
        // run must look exactly like a fresh executor's.
        pool.run(vec![ramp(64)], true, None).unwrap();
        let warm = match pool.run(vec![ramp(32)], true, None).unwrap() {
            PoolRun::Done { collected, .. } => collected.unwrap(),
            other => panic!("unexpected {other:?}"),
        };
        let fresh = {
            let mut p2 = ExecutorPool::new(factory(), ExecOptions::default());
            match p2.run(vec![ramp(32)], true, None).unwrap() {
                PoolRun::Done { collected, .. } => collected.unwrap(),
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(warm, fresh);
    }

    /// A shape-adaptive factory: the pipeline is built for whatever grid
    /// the submitted job actually has.
    fn per_shape_factory() -> ShapeFactory {
        Arc::new(|shapes: &[StreamShape]| {
            let q = Query::new();
            q.source("s", shapes[0])
                .select(1, |i, o| o[0] = i[0])?
                .sink();
            q.compile()
        })
    }

    #[test]
    fn lru_cap_evicts_least_recently_used_shape() {
        let mut pool =
            ExecutorPool::with_shape_factory(per_shape_factory(), ExecOptions::default(), Some(2));
        let data = |p: i64| SignalData::dense(StreamShape::new(0, p), vec![1.0; 16]);
        for p in [1, 2, 4] {
            assert!(matches!(
                pool.run(vec![data(p)], false, None).unwrap(),
                PoolRun::Done { .. }
            ));
        }
        // Cap 2: the third distinct shape evicted the least recent (p=1).
        assert_eq!(pool.prepared(), 2);
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().compiles, 3);
        // p=2 survived and is still warm.
        pool.run(vec![data(2)], false, None).unwrap();
        assert_eq!(pool.stats().recycles, 1);
        // The evicted shape recompiles, evicting the new LRU (p=4).
        pool.run(vec![data(1)], false, None).unwrap();
        assert_eq!(pool.stats().compiles, 4);
        assert_eq!(pool.stats().evictions, 2);
        assert_eq!(pool.prepared(), 2);
    }

    #[test]
    fn mem_cap_reports_oom() {
        let mut pool = ExecutorPool::new(factory(), ExecOptions::default());
        let r = pool.run(vec![ramp(100)], false, Some(1)).unwrap();
        assert!(matches!(r, PoolRun::OutOfMemory { cap_bytes: 1, .. }));
        // The over-budget executor was dropped, not kept warm.
        assert_eq!(pool.prepared(), 0);
        // ... but the verdict is cached: repeating the job must not pay
        // another compile.
        let r2 = pool.run(vec![ramp(100)], false, Some(1)).unwrap();
        assert!(matches!(r2, PoolRun::OutOfMemory { cap_bytes: 1, .. }));
        assert_eq!(pool.stats().compiles, 1);
        // A generous cap still works for the same shape afterwards.
        let r3 = pool.run(vec![ramp(100)], false, Some(usize::MAX)).unwrap();
        assert!(matches!(r3, PoolRun::Done { .. }));
    }
}
