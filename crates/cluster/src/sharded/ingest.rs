//! Live-ingest front end: batched, bounded, backpressured online sessions
//! behind the same shard router.
//!
//! Deployment (§2 of the paper) means samples arrive continuously from
//! live monitors, for many patients at once. [`LiveIngest`] multiplexes a
//! pushed `(patient, source, t, v)` event stream onto per-shard worker
//! threads, each owning the [`LiveSession`]s of the patients routed to it.
//! The same threads run [`history`](LiveIngest::history)'s cohort passes
//! and, behind [`ShardedRuntime`](super::ShardedRuntime), batch jobs: they
//! are the crate's one worker model.
//!
//! ## Batched ingest, by run
//!
//! A per-sample channel send costs more than the sample's processing, so
//! the front end stages samples client-side: [`push`](LiveIngest::push)
//! appends to a per-shard staging buffer and only ships a `SampleBatch`
//! command once [`IngestConfig::batch`] samples have
//! accumulated (or a [`poll`](LiveIngest::poll) /
//! [`finish`](LiveIngest::finish) forces a flush). The shard applies the
//! whole batch with one channel round, so dispatch cost is amortized over
//! the batch — the same observation batched-rollout systems make about
//! per-item dispatch.
//!
//! What travels on a shard channel is not the staged tuples but the form
//! a periodic stream has: a *run batch* — headers `{patient, source, t0,
//! dt, n}` plus one flat column of values. `group_runs` builds it, once
//! per batch and for both entry points (staged pushes and
//! [`ingest_batch`](LiveIngest::ingest_batch)): each `(patient, source)`
//! key keeps one open run, `dt` is the step between the run's first two
//! ticks, and a sample that is not exactly one step past the run's last
//! (a gap, a duplicate, a step backwards) opens a new run. The shard then
//! pays one session lookup and one [`LiveSession::push_run`] per run
//! instead of a lookup, a grid check and a presence insert per sample.
//! `push_run` appends a run in one piece only when that is provably what
//! the per-sample pushes would have produced — `dt` equals the source's
//! period and the run starts on the grid, at or above the source's
//! watermark and compaction horizon; every other run (wrong step,
//! off-grid, late, duplicate, unknown source) *falls back* to
//! [`LiveSession::push`] sample by sample. So grouping decides nothing
//! about validity, the deferred errors are the strings `push` returns, and
//! per source they come in arrival order. (Across two sources of one
//! patient they come in the order the runs were opened, which is arrival
//! order whenever an offending sample starts its own run.)
//!
//! ## Bounded queues and backpressure
//!
//! Shard command channels are *bounded* ([`IngestConfig::channel_cap`]).
//! When a shard falls behind, `push` blocks on the full channel instead of
//! queueing unboundedly — producers feel backpressure at the ingest edge,
//! and resident memory stays bounded by `workers × channel_cap × batch`
//! staged samples plus each session's compacted retained suffix, plus at
//! most [`SCAN_PASS_PATIENTS`] patients' scanned spans per history query.
//!
//! ## Semantics
//!
//! Polling is *round-aligned*: a [`poll`](LiveIngest::poll) only processes
//! rounds fully below every source's watermark, exactly as a single
//! [`LiveSession`] would, so online output is byte-identical to the
//! retrospective run of the same query regardless of batch size (the core
//! crate's equivalence tests lock the single-session property; this
//! module's tests add the multi-patient, batched fan-in). Pushes for
//! unknown patients are dropped and counted in
//! [`IngestStats::dropped_unknown`]; per-sample grid/order violations are
//! deferred and reported — all of them, joined — by `finish`. Dropping a
//! `LiveIngest` without calling [`shutdown`](LiveIngest::shutdown) runs
//! the same close-channels-and-join protocol, so no worker is ever
//! stranded mid-batch.
//!
//! ## Protocol vs transport
//!
//! The surface above is the ingest *protocol*, named by the [`Ingest`]
//! trait; bounded in-process channels are merely this module's
//! *transport*. [`crate::net`] implements the same trait over TCP
//! ([`RemoteIngest`](crate::net::RemoteIngest) /
//! [`ClusterIngest`](crate::net::ClusterIngest)), reusing this module's
//! shard loop via the acked entry point
//! ([`ingest_batch`](LiveIngest::ingest_batch) enqueues a batch and
//! returns a [`BatchTicket`] that resolves to its drop count once it is
//! applied, so a wire ack can carry it) and moving whole sessions
//! between machines with [`export_patient`](LiveIngest::export_patient) /
//! [`import_patient`](LiveIngest::import_patient) ([`PatientHandoff`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use lifestream_core::exec::{Executor, OutputCollector};
use lifestream_core::live::{LiveSession, SessionSnapshot};
use lifestream_core::time::Tick;
use lifestream_store::query::{empty_executor, CohortPass};
use lifestream_store::{
    CohortReport, HistoryError, HistoryQuery, LiveOverlay, PipelineSpec, ScanStats, SharedStore,
    StoreConfig, SCAN_PASS_PATIENTS,
};

use crate::history::HistoryQueryApi;

use super::pool::{ExecutorPool, Job, PipelineFactory};
use super::PatientId;

/// One pushed sample: `(patient, source index, sync time, value)`.
pub type Sample = (PatientId, usize, Tick, f32);

/// One periodic run inside a [`RunBatch`]: `n` samples of one
/// `(patient, source)` at ticks `t0, t0 + dt, …`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunHeader {
    patient: PatientId,
    source: usize,
    t0: Tick,
    /// The run's first step; `0` for a single-sample run.
    dt: Tick,
    n: usize,
}

/// The one batch form on a shard channel: run headers plus one flat value
/// column holding the runs' values back to back, in header order.
#[derive(Debug, Default, PartialEq)]
struct RunBatch {
    runs: Vec<RunHeader>,
    values: Vec<f32>,
}

/// Groups a tuple batch into per-shard [`RunBatch`]es, the only place
/// samples turn into runs.
///
/// Each `(patient, source)` key has at most one *open* run. A key's second
/// sample sets the run's `dt` (when it lies later); after that a sample
/// continues the run only at exactly `last + dt`. Anything else — a gap, a
/// duplicate, a step backwards, a tick so extreme the subtraction
/// overflows (these come off the socket) — closes the run and opens a new
/// one, so a key's samples keep their arrival order across its runs, and
/// runs are emitted in the order they were opened. Whether a run is
/// *valid* is not decided here: [`LiveSession::push_run`] falls back to
/// per-sample pushes for whatever is not a clean append.
fn group_runs(
    samples: &[Sample],
    shards: usize,
    shard_of: impl Fn(PatientId) -> usize,
) -> Vec<RunBatch> {
    struct Building {
        shard: usize,
        head: RunHeader,
        last: Tick,
        /// Next free position of this run in its shard's value column.
        cursor: usize,
    }
    let mut runs: Vec<Building> = Vec::new();
    let mut run_of: Vec<usize> = Vec::with_capacity(samples.len());
    // The open run of every key seen, in order of first appearance, and
    // each key's place in that list.
    let mut open: Vec<usize> = Vec::new();
    let mut place: HashMap<(PatientId, usize), usize> = HashMap::new();
    // Feeds interleave their keys in a steady rotation, so the key after
    // the one just seen is nearly always the one that followed it last
    // time round: that open run is tried before anything is hashed.
    let mut guess = 0;
    for &(patient, source, t, _) in samples {
        let fresh = |shard| Building {
            shard,
            head: RunHeader {
                patient,
                source,
                t0: t,
                dt: 0,
                n: 1,
            },
            last: t,
            cursor: 0,
        };
        let guessed = open.get(guess).is_some_and(|&at| {
            let head = &runs[at].head;
            head.patient == patient && head.source == source
        });
        let known = if guessed {
            Some(guess)
        } else {
            place.get(&(patient, source)).copied()
        };
        let at = match known {
            Some(at) => {
                let run = &mut runs[open[at]];
                match t.checked_sub(run.last) {
                    Some(step) if step > 0 && (run.head.n == 1 || step == run.head.dt) => {
                        run.head.dt = step;
                        run.head.n += 1;
                        run.last = t;
                    }
                    _ => {
                        let shard = run.shard;
                        open[at] = runs.len();
                        runs.push(fresh(shard));
                    }
                }
                at
            }
            None => {
                place.insert((patient, source), open.len());
                open.push(runs.len());
                runs.push(fresh(shard_of(patient)));
                open.len() - 1
            }
        };
        run_of.push(open[at]);
        guess = if at + 1 == open.len() { 0 } else { at + 1 };
    }
    let mut out: Vec<RunBatch> = (0..shards).map(|_| RunBatch::default()).collect();
    for run in &mut runs {
        let share = &mut out[run.shard];
        run.cursor = share.values.len();
        share.values.resize(run.cursor + run.head.n, 0.0);
        share.runs.push(run.head);
    }
    for (&(.., v), &at) in samples.iter().zip(&run_of) {
        let run = &mut runs[at];
        out[run.shard].values[run.cursor] = v;
        run.cursor += 1;
    }
    out
}

/// Completion handle of one [`LiveIngest::ingest_batch`] call: resolves,
/// once every shard has applied its share, to the number of the batch's
/// samples dropped for unknown patients.
#[derive(Debug)]
pub struct BatchTicket {
    applied: Receiver<u64>,
    /// Shards that have not reported yet.
    outstanding: usize,
    dropped: u64,
}

impl BatchTicket {
    /// The drop count if every shard has applied its share, without
    /// blocking; `None` while one is still behind.
    pub fn try_wait(&mut self) -> Option<u64> {
        while self.outstanding > 0 {
            match self.applied.try_recv() {
                Ok(dropped) => self.absorb(dropped),
                Err(TryRecvError::Empty) => return None,
                // A shard that shut down dropped its share unapplied.
                Err(TryRecvError::Disconnected) => self.outstanding = 0,
            }
        }
        Some(self.dropped)
    }

    /// Blocks until every shard has applied its share.
    pub fn wait(&mut self) -> u64 {
        while self.outstanding > 0 {
            match self.applied.recv() {
                Ok(dropped) => self.absorb(dropped),
                Err(_) => self.outstanding = 0,
            }
        }
        self.dropped
    }

    fn absorb(&mut self, dropped: u64) {
        self.dropped += dropped;
        self.outstanding -= 1;
    }
}

/// The ingest *protocol*: the staging/backpressure surface every ingest
/// front end exposes, independent of the transport underneath.
///
/// Three transports implement it — [`LiveIngest`] (in-process bounded
/// channels), [`RemoteIngest`](crate::net::RemoteIngest) (one TCP peer,
/// ack-windowed), and [`ClusterIngest`](crate::net::ClusterIngest) (a
/// partitioned fleet of peers) — so callers written against this trait
/// move from one process to a wire fabric unchanged.
pub trait Ingest {
    /// Admits a patient: compiles the query and opens a live session
    /// wherever this transport places it.
    ///
    /// # Errors
    /// Returns the compile error message, or a complaint when the patient
    /// is already admitted.
    fn admit(&self, patient: PatientId) -> Result<(), String>;

    /// Stages one sample (fire-and-forget; transports batch staged
    /// samples and block for backpressure). Per-sample violations are
    /// deferred and surface from [`finish`](Self::finish).
    fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32);

    /// Flushes staged samples and asks every session to process all
    /// complete rounds.
    fn poll(&self);

    /// Ends a patient's stream and returns everything the query emitted
    /// for it, in order.
    ///
    /// # Errors
    /// Returns every deferred error for the patient (joined with `"; "`),
    /// or a complaint for an unknown patient.
    fn finish(&self, patient: PatientId) -> Result<OutputCollector, String>;

    /// Front-end counters so far. For remote transports,
    /// [`IngestStats::dropped_unknown`] reflects server-side drops
    /// propagated back through acks (exact after any synchronous call).
    fn stats(&self) -> IngestStats;
}

/// Everything one patient's session carries across a partition handoff:
/// the margin-suffix [`SessionSnapshot`], the output collected so far,
/// and the errors deferred to `finish`. Produced by
/// [`LiveIngest::export_patient`], consumed by
/// [`LiveIngest::import_patient`] — locally or across the wire.
#[derive(Debug, Clone)]
pub struct PatientHandoff {
    /// The live session's retained-suffix snapshot.
    pub snapshot: SessionSnapshot,
    /// Sink events already emitted for this patient.
    pub output: OutputCollector,
    /// Deferred push/poll errors accumulated so far.
    pub errors: Vec<String>,
}

/// Shape facts of one admitted session: everything a remote peer needs
/// to size and align a bounded replay buffer for failover. Produced by
/// [`LiveIngest::admit_meta`] and shipped in the wire `Admitted` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionMeta {
    /// Processing-round length in ticks.
    pub round: Tick,
    /// Payload arity of the session's single sink.
    pub arity: usize,
    /// Per-source grid shape and history margin, in source order.
    pub sources: Vec<SourceMeta>,
}

/// One source's grid shape and lineage history margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceMeta {
    /// Grid offset (first on-grid tick).
    pub offset: Tick,
    /// Grid period in ticks.
    pub period: Tick,
    /// Ticks below the round frontier this source must keep buffered —
    /// exactly what `Executor::history_margins` reports, and exactly how
    /// deep a failover replay buffer must reach.
    pub margin: Tick,
}

/// Ingest front-end knobs.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Ingest shard (worker thread) count.
    pub workers: usize,
    /// Processing-round length for every patient session.
    pub round_ticks: Tick,
    /// Samples staged per shard before an automatic batch flush. `1`
    /// degenerates to per-sample sends (the pre-batching behaviour, which
    /// `ingest_equiv` pins batched ingest against).
    pub batch: usize,
    /// Bounded depth of each shard's command channel; a full channel
    /// blocks `push`/`poll` until the shard catches up (backpressure).
    pub channel_cap: usize,
}

impl IngestConfig {
    /// Config with the default batch (256) and channel depth (64).
    pub fn new(workers: usize, round_ticks: Tick) -> Self {
        Self {
            workers: workers.max(1),
            round_ticks,
            batch: 256,
            channel_cap: 64,
        }
    }

    /// Sets the staging-batch size (min 1).
    pub fn batch(mut self, samples: usize) -> Self {
        self.batch = samples.max(1);
        self
    }

    /// Sets the per-shard command-channel depth (min 1).
    pub fn channel_cap(mut self, depth: usize) -> Self {
        self.channel_cap = depth.max(1);
        self
    }
}

/// Ingest-front-end counters (monotonic over the ingest's lifetime).
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Samples accepted by [`push`](LiveIngest::push).
    pub samples_pushed: u64,
    /// Batch commands shipped to shards.
    pub batches_flushed: u64,
    /// Samples dropped on a shard because their patient was never
    /// admitted (or already finished). Silently losing these was a bug
    /// class; now they are counted and visible.
    pub dropped_unknown: u64,
}

/// Counters shared between the front end and the shard threads.
#[derive(Default)]
struct Counters {
    samples_pushed: AtomicU64,
    batches_flushed: AtomicU64,
    dropped_unknown: AtomicU64,
}

enum Cmd {
    Admit {
        patient: PatientId,
        reply: Sender<Result<SessionMeta, String>>,
    },
    /// One shard's share of a batch, grouped into runs and applied in run
    /// order. An acked transport asks for a reply: the number of samples
    /// dropped for unknown patients, sent once the batch is applied.
    SampleBatch {
        batch: RunBatch,
        reply: Option<Sender<u64>>,
    },
    Poll,
    Finish {
        patient: PatientId,
        reply: Sender<Result<OutputCollector, String>>,
    },
    /// Removes the patient's session and returns its handoff state
    /// (drains complete rounds first, so only the margin suffix moves).
    Export {
        patient: PatientId,
        reply: Sender<Result<PatientHandoff, String>>,
    },
    /// Re-creates a patient session from handoff state.
    Import {
        patient: PatientId,
        state: Box<PatientHandoff>,
        reply: Sender<Result<(), String>>,
    },
    /// One batch job of a [`ShardedRuntime`](super::ShardedRuntime).
    Job(Box<Job>),
    /// Snapshots these patients' live tails for a cohort pass about to
    /// read the store.
    Tails(Box<TailsAsk>),
    /// One owning shard's share of a cohort pass.
    Pass(Box<PassShare>),
    Shutdown,
}

/// One shard's share of a history cohort pass: its patients' scanned
/// spans and live tails, in query order, and the executor it replays them
/// on, one patient per [`step`](Self::step).
struct PassShare {
    pass: CohortPass,
    tails: std::vec::IntoIter<Option<LiveOverlay>>,
    outputs: Vec<OutputCollector>,
    exec: Executor,
    reply: Sender<PassDone>,
}

/// The patients whose live tails a pass needs, and where they go.
type TailsAsk = (Vec<PatientId>, Sender<Vec<Option<LiveOverlay>>>);

/// A share's outputs in its patients' order, and the executor it
/// borrowed.
type PassDone = (Result<Vec<OutputCollector>, HistoryError>, Executor);

impl PassShare {
    /// Replays the share's next patient. Returns the share while patients
    /// remain; replies, and returns `None`, once all are done or one
    /// failed.
    fn step(mut self: Box<Self>) -> Option<Box<Self>> {
        let tail = self.tails.next().flatten();
        let run = match self.pass.replay_next(&mut self.exec, tail.as_ref()) {
            Some(Ok(out)) => {
                self.outputs.push(out);
                if !self.pass.is_empty() {
                    return Some(self);
                }
                Ok(self.outputs)
            }
            Some(Err(e)) => Err(e),
            None => Ok(self.outputs),
        };
        let _ = self.reply.send((run, self.exec));
        None
    }
}

struct Session {
    live: LiveSession,
    out: OutputCollector,
    /// Push/poll errors deferred to `finish` (pushes don't round-trip).
    errors: Vec<String>,
    /// Set when user code panicked inside this session's kernels; the
    /// executor state is unknowable after an unwind, so the session stops
    /// processing and `finish` reports the panic instead.
    poisoned: bool,
}

/// Multiplexes live per-patient sample streams onto sharded
/// [`LiveSession`] workers. See the module docs.
pub struct LiveIngest {
    txs: Vec<SyncSender<Cmd>>,
    handles: Vec<JoinHandle<()>>,
    /// Client-side staging buffers, one per shard. Held while flushing so
    /// a full channel backpressures every producer pushing to that shard.
    staged: Vec<Mutex<Vec<Sample>>>,
    batch: usize,
    channel_cap: usize,
    counters: Arc<Counters>,
    /// A second factory clone for retrospective re-runs
    /// ([`history`](Self::history) compiles its executors on the
    /// caller's thread, off the shard loops).
    factory: PipelineFactory,
    /// Extra retrospective pipelines, addressable by id so wire front
    /// ends can name them without shipping a plan. Id `0` is reserved
    /// for the ingest's own live pipeline.
    registry: Mutex<HashMap<u32, PipelineFactory>>,
    round_ticks: Tick,
    /// The tiered history store, when attached: every session's retired
    /// spans spill here, and retrospective queries stitch from here.
    store: Option<SharedStore>,
}

impl LiveIngest {
    /// Spawns `workers` ingest shards with default batching. Each
    /// admitted patient gets a [`LiveSession`] compiled from `factory` on
    /// its routed shard, with `round_ticks` processing windows.
    pub fn new(factory: PipelineFactory, workers: usize, round_ticks: Tick) -> Self {
        Self::with_config(factory, IngestConfig::new(workers, round_ticks))
    }

    /// Spawns the ingest shards described by `cfg` (no history store:
    /// retired spans are dropped, as the bounded data plane always did).
    pub fn with_config(factory: PipelineFactory, cfg: IngestConfig) -> Self {
        Self::spawn(factory, cfg, None)
    }

    /// Spawns the ingest shards with a tiered history store attached:
    /// every admitted (or imported) session spills its retired spans into
    /// segments under `store_cfg.dir`, and [`history`](Self::history) /
    /// [`history_one`](HistoryQueryApi::history_one) can re-run a pipeline over any
    /// patient's history — full or range-bounded — while its live
    /// stream continues.
    ///
    /// # Errors
    /// Fails when the store directory cannot be created.
    pub fn with_store(
        factory: PipelineFactory,
        cfg: IngestConfig,
        store_cfg: StoreConfig,
    ) -> std::io::Result<Self> {
        Ok(Self::spawn(
            factory,
            cfg,
            Some(SharedStore::open(store_cfg)?),
        ))
    }

    /// Like [`with_store`](Self::with_store) but sharing an already-open
    /// store handle (e.g. several ingests spilling to one directory).
    pub fn with_shared_store(
        factory: PipelineFactory,
        cfg: IngestConfig,
        store: SharedStore,
    ) -> Self {
        Self::spawn(factory, cfg, Some(store))
    }

    fn spawn(factory: PipelineFactory, cfg: IngestConfig, store: Option<SharedStore>) -> Self {
        let workers = cfg.workers.max(1);
        let channel_cap = cfg.channel_cap.max(1);
        let counters = Arc::new(Counters::default());
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let (tx, rx) = sync_channel::<Cmd>(channel_cap);
            let factory = PipelineFactory::clone(&factory);
            let counters = Arc::clone(&counters);
            let store = store.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ingest-{me}"))
                .spawn(move || {
                    ingest_loop(rx, factory, cfg.round_ticks, counters, store, channel_cap)
                })
                .expect("spawn ingest worker");
            txs.push(tx);
            handles.push(handle);
        }
        Self {
            txs,
            handles,
            staged: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            batch: cfg.batch.max(1),
            channel_cap,
            counters,
            factory,
            registry: Mutex::new(HashMap::new()),
            round_ticks: cfg.round_ticks,
            store,
        }
    }

    /// Registers a retrospective pipeline under `id`, so wire clients
    /// can run it with [`HistoryQuery::pipeline_id`]. Id `0` always
    /// means the ingest's own live pipeline and cannot be re-bound.
    ///
    /// # Errors
    /// Rejects the reserved id `0`.
    pub fn register_pipeline(&self, id: u32, factory: PipelineFactory) -> Result<(), String> {
        if id == 0 {
            return Err("pipeline id 0 is reserved for the live pipeline".to_string());
        }
        self.registry
            .lock()
            .expect("pipeline registry lock")
            .insert(id, factory);
        Ok(())
    }

    /// The attached history store, if any.
    pub fn store(&self) -> Option<&SharedStore> {
        self.store.as_ref()
    }

    /// Ingest shard count.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Depth of each shard's bounded command channel
    /// ([`IngestConfig::channel_cap`]).
    pub fn channel_cap(&self) -> usize {
        self.channel_cap
    }

    /// The shard a patient's events route to.
    pub fn shard_of(&self, patient: PatientId) -> usize {
        (super::hash_patient(patient) % self.txs.len() as u64) as usize
    }

    /// Front-end counters so far.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            samples_pushed: self.counters.samples_pushed.load(Ordering::Relaxed),
            batches_flushed: self.counters.batches_flushed.load(Ordering::Relaxed),
            dropped_unknown: self.counters.dropped_unknown.load(Ordering::Relaxed),
        }
    }

    /// Admits a patient: compiles the query and opens a live session on
    /// the routed shard. Waits for the shard's acknowledgement.
    ///
    /// # Errors
    /// Returns the compile error message, or a complaint when the patient
    /// is already admitted.
    pub fn admit(&self, patient: PatientId) -> Result<(), String> {
        self.admit_meta(patient).map(|_| ())
    }

    /// Like [`admit`](Self::admit), but returns the compiled session's
    /// shape facts — round length, sink arity, per-source shape + history
    /// margin — so a remote front end can size its failover replay
    /// buffers without a second round trip.
    ///
    /// # Errors
    /// Returns the compile error message, or a complaint when the patient
    /// is already admitted.
    pub fn admit_meta(&self, patient: PatientId) -> Result<SessionMeta, String> {
        let shard = self.shard_of(patient);
        // Flush staged samples first so a re-admission after finish sees
        // commands in push order.
        self.flush_shard(shard);
        let (reply, ack) = channel();
        let _ = self.txs[shard].send(Cmd::Admit { patient, reply });
        ack.recv().map_err(|_| "ingest shard gone".to_string())?
    }

    /// Stages one sample; ships a batch once the routed shard's staging
    /// buffer reaches the configured batch size. Fire-and-forget:
    /// grid/order violations are recorded on the shard and surface from
    /// [`finish`](Self::finish). Blocks (backpressure) when the shard's
    /// bounded channel is full.
    pub fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        let shard = self.shard_of(patient);
        let mut staged = self.staged[shard].lock().expect("staging lock");
        staged.push((patient, source, t, v));
        self.counters.samples_pushed.fetch_add(1, Ordering::Relaxed);
        if staged.len() >= self.batch {
            // Ship while holding the staging lock: releasing it first
            // would let a concurrent producer ship a *later* batch ahead
            // of this one, reordering samples on the shard.
            self.ship_staged(shard, &mut staged);
        }
    }

    /// Flushes every staged sample and asks every shard to process all
    /// complete rounds of all its sessions (round-aligned: partial rounds
    /// wait for their watermark).
    pub fn poll(&self) {
        for shard in 0..self.txs.len() {
            self.flush_shard(shard);
            let _ = self.txs[shard].send(Cmd::Poll);
        }
    }

    /// Ends a patient's stream: flushes staged samples, drains the tail,
    /// and returns everything the query emitted for this patient, in
    /// order.
    ///
    /// # Errors
    /// Returns every deferred push/poll error for the patient (joined
    /// with `"; "`), or a complaint for an unknown patient.
    pub fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        let shard = self.shard_of(patient);
        self.flush_shard(shard);
        let (reply, ack) = channel();
        let _ = self.txs[shard].send(Cmd::Finish { patient, reply });
        ack.recv().map_err(|_| "ingest shard gone".to_string())?
    }

    /// Enqueues an already-assembled batch: groups it into runs
    /// (`group_runs`), hands each shard its share, and returns at once
    /// with the [`BatchTicket`] that resolves — to the number of samples
    /// dropped for unknown patients, the delta an acked transport ships
    /// back to its client — when every shard has applied it. Blocks only
    /// while a shard's bounded channel is full (backpressure).
    ///
    /// This is the server-side entry point of the wire fabric: samples
    /// arrive pre-batched, so they bypass the client-side staging buffers
    /// (do not interleave this with [`push`](Self::push) for the same
    /// patient — the staging buffer would race the direct path).
    pub fn ingest_batch(&self, batch: Vec<Sample>) -> BatchTicket {
        self.counters
            .samples_pushed
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let (reply, applied) = channel();
        let mut outstanding = 0;
        let shares = group_runs(&batch, self.txs.len(), |p| self.shard_of(p));
        for (shard, share) in shares.into_iter().enumerate() {
            if !share.runs.is_empty() && self.ship(shard, share, Some(reply.clone())) {
                outstanding += 1;
            }
        }
        BatchTicket {
            applied,
            outstanding,
            dropped: 0,
        }
    }

    /// Removes a patient's session and returns its handoff state: the
    /// session is drained of complete rounds, then its margin suffix,
    /// collected output, and deferred errors are extracted. The patient
    /// is no longer admitted here afterwards — pushes for it count as
    /// dropped until [`import_patient`](Self::import_patient) lands it
    /// somewhere.
    ///
    /// # Errors
    /// Returns a message for an unknown patient or a poisoned session
    /// (whose executor state cannot be transferred).
    pub fn export_patient(&self, patient: PatientId) -> Result<PatientHandoff, String> {
        let shard = self.shard_of(patient);
        self.flush_shard(shard);
        let (reply, ack) = channel();
        let _ = self.txs[shard].send(Cmd::Export { patient, reply });
        ack.recv().map_err(|_| "ingest shard gone".to_string())?
    }

    /// Re-creates a patient session from handoff state exported by
    /// [`export_patient`](Self::export_patient) — on this ingest or on a
    /// peer across the wire. The resumed session continues emitting
    /// byte-identically from the exported frontier.
    ///
    /// # Errors
    /// Returns the compile/import error message, or a complaint when the
    /// patient is already admitted.
    pub fn import_patient(&self, patient: PatientId, state: PatientHandoff) -> Result<(), String> {
        let shard = self.shard_of(patient);
        self.flush_shard(shard);
        let (reply, ack) = channel();
        let _ = self.txs[shard].send(Cmd::Import {
            patient,
            state: Box::new(state),
            reply,
        });
        ack.recv().map_err(|_| "ingest shard gone".to_string())?
    }

    /// Answers a retrospective [`HistoryQuery`] — durable segments, the
    /// store's write buffer, and each named patient's live in-memory
    /// suffix stitched into one dataset, then re-run through a freshly
    /// compiled pipeline and clipped to the query's range. A full-range
    /// query's output is byte-identical to the cold batch run over
    /// everything ever pushed; a range-bounded query's output is
    /// byte-identical to that run clipped to `[t0, t1)`, and only reads
    /// the segment files whose tick ranges overlap the query.
    ///
    /// The cohort runs in passes of at most [`SCAN_PASS_PATIENTS`], in
    /// query order, on the shard threads that own its patients. Each
    /// owning shard first snapshots its share's live tails (behind its
    /// staged samples); then this call reads the store once for the whole
    /// pass ([`CohortPass::scan`]) and sends every owning shard its share
    /// with an executor this call compiled (one per owning shard; a
    /// [`PipelineSpec::Compiled`] plan is not cloneable, so its shares
    /// take turns on its one executor). A shard replays its share one
    /// patient at a time and serves the live commands waiting on its
    /// channel between patients. The next pass starts only when every
    /// share of this one has replied, so at most a pass's scanned spans
    /// are in memory.
    ///
    /// A patient that has already `finish`ed (or lives on another
    /// machine) is served from segments alone.
    ///
    /// # Errors
    /// [`HistoryError::NoStore`] without a store,
    /// [`HistoryError::InvalidRange`] / [`BelowRetention`](HistoryError::BelowRetention)
    /// for bad ranges, [`HistoryError::UnknownPatient`] when a patient is
    /// unknown to both the sessions and the store, and pipeline/store
    /// failures otherwise.
    pub fn history(&self, query: HistoryQuery) -> Result<CohortReport, HistoryError> {
        let store = self.store.as_ref().ok_or(HistoryError::NoStore)?;
        let (range, patients, warmup, spec) = query.into_parts();
        if patients.is_empty() {
            return Err(HistoryError::NoPatients);
        }
        HistoryQuery::validate_range(range.0, range.1)?;
        let mut owners: Vec<usize> = patients.iter().map(|&p| self.shard_of(p)).collect();
        owners.sort_unstable();
        owners.dedup();
        let lanes = owners.len().min(SCAN_PASS_PATIENTS);
        let compile_lanes = |factory: PipelineFactory| {
            (0..lanes)
                .map(|_| {
                    catch_user(|| factory()).map_err(|f| HistoryError::Pipeline(f.into_message()))
                })
                .collect::<Result<Vec<_>, _>>()
        };
        let compiled = match spec {
            PipelineSpec::Live | PipelineSpec::Registered(0) => {
                compile_lanes(PipelineFactory::clone(&self.factory))?
            }
            PipelineSpec::Registered(id) => compile_lanes(
                self.registry
                    .lock()
                    .expect("pipeline registry lock")
                    .get(&id)
                    .cloned()
                    .ok_or_else(|| {
                        HistoryError::Pipeline(format!("no pipeline registered under id {id}"))
                    })?,
            )?,
            PipelineSpec::Factory(f) => compile_lanes(f)?,
            PipelineSpec::Compiled(compiled) => vec![compiled],
        };
        let shapes = compiled[0].source_shapes();
        let mut idle = compiled
            .into_iter()
            .map(|c| empty_executor(c, self.round_ticks))
            .collect::<Result<Vec<_>, _>>()?;
        let gone = || HistoryError::Execution("ingest shard gone".to_string());
        let mut outputs: Vec<Option<OutputCollector>> = patients.iter().map(|_| None).collect();
        let mut scan = ScanStats::default();
        // Shares in flight, oldest first: their patients' cohort positions
        // and where their reply arrives.
        let mut in_flight: VecDeque<(Vec<usize>, Receiver<PassDone>)> = VecDeque::new();
        let mut settle = |in_flight: &mut VecDeque<_>, idle: &mut Vec<_>| {
            let (at, done): (Vec<usize>, Receiver<PassDone>) =
                in_flight.pop_front().expect("a share in flight");
            let (run, exec) = done.recv().map_err(|_| gone())?;
            idle.push(exec);
            for (i, out) in at.into_iter().zip(run?) {
                outputs[i] = Some(out);
            }
            Ok::<_, HistoryError>(())
        };
        for (n, pass) in patients.chunks(SCAN_PASS_PATIENTS).enumerate() {
            let mut shares: Vec<(usize, Vec<usize>)> = Vec::new();
            for (i, &p) in pass.iter().enumerate() {
                let (shard, at) = (self.shard_of(p), n * SCAN_PASS_PATIENTS + i);
                match shares.iter_mut().find(|(s, _)| *s == shard) {
                    Some((_, share)) => share.push(at),
                    None => shares.push((shard, vec![at])),
                }
            }
            // Every owning shard snapshots its patients' tails (behind
            // their staged samples) before the pass's one scan.
            let mut asks = Vec::with_capacity(shares.len());
            for (shard, at) in &shares {
                self.flush_shard(*shard);
                let (reply, tails) = channel();
                let ask = (at.iter().map(|&i| patients[i]).collect(), reply);
                self.txs[*shard]
                    .send(Cmd::Tails(Box::new(ask)))
                    .map_err(|_| gone())?;
                asks.push(tails);
            }
            let tails: Vec<Vec<Option<LiveOverlay>>> = asks
                .into_iter()
                .map(|tails| tails.recv().map_err(|_| gone()))
                .collect::<Result<_, _>>()?;
            let order: Vec<PatientId> = shares
                .iter()
                .flat_map(|(_, at)| at)
                .map(|&i| patients[i])
                .collect();
            let (mut pass, stats) =
                CohortPass::scan(&idle[0], store, &order, &shapes, range, warmup)?;
            scan += stats;
            for ((shard, at), tails) in shares.into_iter().zip(tails) {
                if idle.is_empty() {
                    settle(&mut in_flight, &mut idle)?;
                }
                let (reply, done) = channel();
                let share = PassShare {
                    pass: pass.split_front(at.len()),
                    tails: tails.into_iter(),
                    outputs: Vec::with_capacity(at.len()),
                    exec: idle.pop().expect("an idle executor"),
                    reply,
                };
                self.txs[shard]
                    .send(Cmd::Pass(Box::new(share)))
                    .map_err(|_| gone())?;
                in_flight.push_back((at, done));
            }
            while !in_flight.is_empty() {
                settle(&mut in_flight, &mut idle)?;
            }
        }
        let outputs = patients
            .into_iter()
            .zip(outputs)
            .map(|(p, out)| (p, out.expect("every share replied")))
            .collect();
        Ok(CohortReport::new(range, outputs).with_scan(scan))
    }

    /// Sends one batch job to the shard [`Job::shard`] names. Blocks while
    /// that shard's bounded channel is full (backpressure).
    pub(super) fn run_job(&self, job: Job) {
        let shard = job.shard;
        let _ = self.txs[shard].send(Cmd::Job(Box::new(job)));
    }

    /// Closes every session and joins the shard threads. Equivalent to
    /// dropping the ingest; kept for explicit call sites.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Sends staged samples of one shard as a batch command. The staging
    /// lock is held across the send (see `push` for why).
    fn flush_shard(&self, shard: usize) {
        let mut staged = self.staged[shard].lock().expect("staging lock");
        if !staged.is_empty() {
            self.ship_staged(shard, &mut staged);
        }
    }

    /// Groups one shard's staged samples into runs and ships them,
    /// leaving the staging buffer empty with its capacity kept.
    fn ship_staged(&self, shard: usize, staged: &mut Vec<Sample>) {
        let share = group_runs(staged, 1, |_| 0).pop().expect("one share");
        staged.clear();
        self.ship(shard, share, None);
    }

    /// Enqueues one shard's share of a batch; `false` when the shard is
    /// gone (after shutdown), when dropping the batch is correct. A
    /// bounded send blocks while the shard is behind (backpressure).
    fn ship(&self, shard: usize, batch: RunBatch, reply: Option<Sender<u64>>) -> bool {
        self.counters
            .batches_flushed
            .fetch_add(1, Ordering::Relaxed);
        self.txs[shard]
            .send(Cmd::SampleBatch { batch, reply })
            .is_ok()
    }

    /// Shared teardown for [`shutdown`](Self::shutdown) and `Drop`:
    /// flush staged data, close the channels, join the workers.
    fn stop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        for shard in 0..self.txs.len() {
            self.flush_shard(shard);
            let _ = self.txs[shard].send(Cmd::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Ingest for LiveIngest {
    fn admit(&self, patient: PatientId) -> Result<(), String> {
        LiveIngest::admit(self, patient)
    }

    fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        LiveIngest::push(self, patient, source, t, v);
    }

    fn poll(&self) {
        LiveIngest::poll(self);
    }

    fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        LiveIngest::finish(self, patient)
    }

    fn stats(&self) -> IngestStats {
        LiveIngest::stats(self)
    }
}

impl HistoryQueryApi for LiveIngest {
    fn history(&self, query: HistoryQuery) -> Result<CohortReport, HistoryError> {
        LiveIngest::history(self, query)
    }
}

impl Drop for LiveIngest {
    /// Dropping without [`shutdown`](Self::shutdown) must not strand the
    /// shard threads mid-batch: the same protocol runs — staged samples
    /// flushed, channels closed, workers joined.
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for LiveIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveIngest")
            .field("workers", &self.txs.len())
            .field("batch", &self.batch)
            .finish()
    }
}

fn ingest_loop(
    rx: Receiver<Cmd>,
    factory: PipelineFactory,
    round_ticks: Tick,
    counters: Arc<Counters>,
    store: Option<SharedStore>,
    depth: usize,
) {
    let mut sessions: HashMap<PatientId, Session> = HashMap::new();
    let mut pool = ExecutorPool::default();
    let mut shares: VecDeque<Box<PassShare>> = VecDeque::new();
    'serve: loop {
        // With a cohort share queued the shard takes the commands already
        // waiting (at most a channel's depth, so a saturated channel cannot
        // starve the share), then replays one of the share's patients: a
        // live command waits behind one patient's replay, not a whole share.
        let first = if shares.is_empty() {
            match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => break,
            }
        } else {
            None
        };
        for cmd in first.into_iter().chain(rx.try_iter().take(depth)) {
            match cmd {
                Cmd::Admit { patient, reply } => {
                    use std::collections::hash_map::Entry;
                    let outcome = match sessions.entry(patient) {
                        Entry::Occupied(_) => Err(format!("patient {patient} already admitted")),
                        Entry::Vacant(slot) => {
                            // The factory is user code: a panic must become
                            // this admit's error, not the shard's death.
                            catch_user(|| {
                                factory()
                                    .and_then(|compiled| LiveSession::new(compiled, round_ticks))
                            })
                            .map_err(UserFailure::into_message)
                            .and_then(|mut live| {
                                let meta = session_meta(&live)?;
                                if let Some(store) = &store {
                                    live.set_retire_sink(store.sink_for(patient));
                                }
                                slot.insert(Session {
                                    out: OutputCollector::new(meta.arity),
                                    live,
                                    errors: Vec::new(),
                                    poisoned: false,
                                });
                                Ok(meta)
                            })
                        }
                    };
                    let _ = reply.send(outcome);
                }
                Cmd::SampleBatch { batch, reply } => {
                    let dropped = apply_batch(&mut sessions, &batch, &counters);
                    if let Some(reply) = reply {
                        let _ = reply.send(dropped);
                    }
                }
                Cmd::Poll => {
                    for s in sessions.values_mut() {
                        if s.poisoned {
                            continue;
                        }
                        let Session { live, out, .. } = s;
                        // Polling runs user kernel closures: one patient's
                        // panic poisons that session only, never the shard
                        // (its siblings keep streaming). Ordinary engine
                        // errors leave the session sound and just defer.
                        match catch_user(|| live.poll(|w| out.absorb(w))) {
                            Ok(_) => {}
                            Err(UserFailure::Error(e)) => s.errors.push(e),
                            Err(f @ UserFailure::Panic(_)) => {
                                s.poisoned = true;
                                s.errors.push(f.into_message());
                            }
                        }
                    }
                }
                Cmd::Finish { patient, reply } => {
                    let outcome = match sessions.remove(&patient) {
                        Some(mut s) => {
                            if !s.poisoned {
                                let Session { live, out, .. } = &mut s;
                                if let Err(f) = catch_user(|| live.finish(|w| out.absorb(w))) {
                                    s.errors.push(f.into_message());
                                }
                            }
                            if s.errors.is_empty() {
                                Ok(s.out)
                            } else {
                                // All deferred errors, not just the first —
                                // a monitor feed can violate the grid many
                                // ways in one session.
                                Err(s.errors.join("; "))
                            }
                        }
                        None => Err(format!("patient {patient} not admitted")),
                    };
                    let _ = reply.send(outcome);
                }
                Cmd::Export { patient, reply } => {
                    let outcome = match sessions.remove(&patient) {
                        Some(mut s) if !s.poisoned => {
                            // Drain complete rounds so only the margin suffix
                            // (not unprocessed backlog) crosses the wire.
                            let drained = {
                                let Session { live, out, .. } = &mut s;
                                catch_user(|| live.poll(|w| out.absorb(w)))
                            };
                            match drained {
                                Err(f @ UserFailure::Panic(_)) => {
                                    // Executor state is unknowable: keep the
                                    // poisoned session here so finish reports.
                                    s.poisoned = true;
                                    s.errors.push(f.into_message());
                                    sessions.insert(patient, s);
                                    Err(format!("patient {patient} poisoned during export"))
                                }
                                other => {
                                    if let Err(f) = other {
                                        s.errors.push(f.into_message());
                                    }
                                    Ok(PatientHandoff {
                                        snapshot: s.live.export_suffix(),
                                        output: s.out,
                                        errors: s.errors,
                                    })
                                }
                            }
                        }
                        Some(s) => {
                            let why = s.errors.join("; ");
                            sessions.insert(patient, s);
                            Err(format!(
                                "patient {patient} session is poisoned, cannot hand off: {why}"
                            ))
                        }
                        None => Err(format!("patient {patient} not admitted")),
                    };
                    let _ = reply.send(outcome);
                }
                Cmd::Import {
                    patient,
                    state,
                    reply,
                } => {
                    use std::collections::hash_map::Entry;
                    let outcome = match sessions.entry(patient) {
                        Entry::Occupied(_) => Err(format!("patient {patient} already admitted")),
                        Entry::Vacant(slot) => {
                            let PatientHandoff {
                                snapshot,
                                output,
                                errors,
                            } = *state;
                            catch_user(|| {
                                factory().and_then(|compiled| {
                                    LiveSession::import_suffix(compiled, round_ticks, snapshot)
                                })
                            })
                            .map_err(UserFailure::into_message)
                            .and_then(|mut live| {
                                if let Some(store) = &store {
                                    live.set_retire_sink(store.sink_for(patient));
                                }
                                // A failover peer ships an *empty* collector
                                // it could not size; align it to the sink so
                                // the first absorb doesn't panic on arity.
                                let out = if output.is_empty() {
                                    let arity = live.sink_arity().map_err(|e| e.to_string())?;
                                    OutputCollector::new(arity)
                                } else {
                                    output
                                };
                                slot.insert(Session {
                                    live,
                                    out,
                                    errors,
                                    poisoned: false,
                                });
                                Ok(())
                            })
                        }
                    };
                    let _ = reply.send(outcome);
                }
                Cmd::Job(job) => job.run(&mut pool),
                Cmd::Tails(ask) => {
                    // A patient not live here (finished, on another machine,
                    // or poisoned) is served from the durable tiers alone.
                    let (patients, reply) = *ask;
                    let tails = patients.iter().map(|p| match sessions.get(p) {
                        Some(s) if !s.poisoned => Some(LiveOverlay {
                            snapshot: s.live.export_suffix(),
                            shapes: s.live.source_shapes(),
                        }),
                        _ => None,
                    });
                    let _ = reply.send(tails.collect());
                }
                Cmd::Pass(share) => shares.push_back(share),
                Cmd::Shutdown => break 'serve,
            }
        }
        if let Some(share) = shares.pop_front().and_then(PassShare::step) {
            shares.push_front(share);
        }
    }
}

/// Extracts the shape facts of a freshly opened session for the admit
/// reply.
fn session_meta(live: &LiveSession) -> Result<SessionMeta, String> {
    let arity = live.sink_arity().map_err(|e| e.to_string())?;
    let sources = live
        .source_shapes()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Ok(SourceMeta {
                offset: s.offset(),
                period: s.period(),
                margin: live.history_margin(i).map_err(|e| e.to_string())?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SessionMeta {
        round: live.round_dim(),
        arity,
        sources,
    })
}

/// Applies one batch of runs to a shard's sessions — one session lookup
/// and one [`LiveSession::push_run`] per run — counting drops (unknown
/// patients) both into the shared counters and the return value.
fn apply_batch(
    sessions: &mut HashMap<PatientId, Session>,
    batch: &RunBatch,
    counters: &Counters,
) -> u64 {
    let mut dropped = 0u64;
    let mut at = 0;
    for run in &batch.runs {
        let values = &batch.values[at..at + run.n];
        at += run.n;
        match sessions.get_mut(&run.patient) {
            Some(s) if !s.poisoned => {
                let Session { live, errors, .. } = s;
                live.push_run(run.source, run.t0, run.dt, values, |e| {
                    errors.push(e.to_string());
                });
            }
            Some(_) => { /* poisoned: finish will report why */ }
            None => dropped += run.n as u64,
        }
    }
    if dropped > 0 {
        counters
            .dropped_unknown
            .fetch_add(dropped, Ordering::Relaxed);
    }
    dropped
}

/// Why a user-code invocation failed — the distinction matters: an
/// ordinary engine error leaves the session sound, a panic leaves its
/// executor state unknowable (so the caller poisons it).
enum UserFailure {
    /// The engine returned an ordinary error.
    Error(String),
    /// User code panicked (payload rendered by [`super::panic_msg`]).
    Panic(String),
}

impl UserFailure {
    fn into_message(self) -> String {
        match self {
            UserFailure::Error(m) => m,
            UserFailure::Panic(m) => format!("ingest worker panicked: {m}"),
        }
    }
}

/// Runs user-adjacent code, catching both `Err` and panics (same payload
/// policy as batch jobs, via [`super::panic_msg`]).
fn catch_user<R>(f: impl FnOnce() -> lifestream_core::error::Result<R>) -> Result<R, UserFailure> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| UserFailure::Error(e.to_string())),
        Err(payload) => Err(UserFailure::Panic(super::panic_msg(payload.as_ref()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream_core::exec::ExecOptions;
    use lifestream_core::source::SignalData;
    use lifestream_core::stream::Query;
    use lifestream_core::time::StreamShape;
    use std::sync::Arc;

    fn factory() -> PipelineFactory {
        Arc::new(|| {
            let q = Query::new();
            q.source("s", StreamShape::new(0, 2))
                .select(1, |i, o| o[0] = i[0] + 1.0)?
                .sink();
            q.compile()
        })
    }

    /// Every key's samples, in order, as the runs of `shares` spell them.
    fn expand(shares: &[RunBatch]) -> HashMap<(PatientId, usize), Vec<(Tick, f32)>> {
        let mut by_key: HashMap<_, Vec<_>> = HashMap::new();
        for share in shares {
            let mut at = 0;
            for run in &share.runs {
                let samples = by_key.entry((run.patient, run.source)).or_default();
                for (k, &v) in share.values[at..at + run.n].iter().enumerate() {
                    samples.push((run.t0 + k as Tick * run.dt, v));
                }
                at += run.n;
            }
            assert_eq!(
                at,
                share.values.len(),
                "the column holds the runs and no more"
            );
        }
        by_key
    }

    #[test]
    fn group_runs_makes_one_run_per_interleaved_key() {
        // Three keys in rotation, one of them on a slower grid.
        let mut samples = Vec::new();
        for k in 0..40i64 {
            samples.push((1, 0, 2 * k, k as f32));
            samples.push((2, 0, 2 * k, -(k as f32)));
            if k % 4 == 0 {
                samples.push((1, 1, 2 * k, 0.5));
            }
        }
        let shares = group_runs(&samples, 2, |p| (p % 2) as usize);
        let head = |patient, source, dt, n| RunHeader {
            patient,
            source,
            t0: 0,
            dt,
            n,
        };
        assert_eq!(shares[1].runs, [head(1, 0, 2, 40), head(1, 1, 8, 10)]);
        assert_eq!(shares[0].runs, [head(2, 0, 2, 40)]);
        assert_eq!(shares[0].values[39], -39.0);
        assert_eq!(&shares[1].values[38..42], [38.0, 39.0, 0.5, 0.5]);
    }

    #[test]
    fn group_runs_breaks_runs_but_never_reorders_a_key() {
        // Gaps, duplicates, steps back, a changed step and ticks at the
        // ends of the range: whatever the runs, each key's samples come
        // back out in arrival order, and no tick arithmetic overflows.
        let ticks = [
            0,
            2,
            4,
            10,
            12,
            12,
            8,
            9,
            10,
            Tick::MAX,
            Tick::MIN,
            Tick::MIN + 1,
            Tick::MAX - 1,
            Tick::MAX,
            -4,
            -2,
        ];
        let mut samples = Vec::new();
        for (i, &t) in ticks.iter().enumerate() {
            samples.push((7, 0, t, i as f32));
            samples.push((7, 1, t, 100.0 + i as f32));
            samples.push((9, 0, ticks[ticks.len() - 1 - i], 200.0 + i as f32));
        }
        let shares = group_runs(&samples, 3, |p| (p % 3) as usize);
        let mut expect: HashMap<_, Vec<_>> = HashMap::new();
        for &(p, s, t, v) in &samples {
            expect.entry((p, s)).or_default().push((t, v));
        }
        assert_eq!(expand(&shares), expect);
        let runs_of_7_0: Vec<_> = shares[1]
            .runs
            .iter()
            .filter(|r| r.source == 0)
            .map(|r| (r.t0, r.dt, r.n))
            .collect();
        assert_eq!(
            runs_of_7_0,
            [
                (0, 2, 3),
                (10, 2, 2),
                (12, 0, 1),
                (8, 1, 3),
                (Tick::MAX, 0, 1),
                (Tick::MIN, 1, 2),
                (Tick::MAX - 1, 1, 2),
                (-4, 2, 2),
            ]
        );
    }

    #[test]
    fn multiplexed_sessions_match_batch_execution() {
        let ingest = LiveIngest::new(factory(), 2, 100);
        let patients: Vec<u64> = vec![3, 8, 21];
        for &p in &patients {
            ingest.admit(p).unwrap();
        }
        // Interleave pushes across patients, polling as we go.
        for k in 0..200i64 {
            for &p in &patients {
                ingest.push(p, 0, k * 2, (k as f32) + p as f32);
            }
            if k % 37 == 0 {
                ingest.poll();
            }
        }
        for &p in &patients {
            let online = ingest.finish(p).unwrap();
            // Batch reference over the same recorded signal.
            let data = SignalData::dense(
                StreamShape::new(0, 2),
                (0..200).map(|k| (k as f32) + p as f32).collect(),
            );
            let mut exec = (factory())()
                .unwrap()
                .executor_with(vec![data], ExecOptions::default().with_round_ticks(100))
                .unwrap();
            let offline = exec.run_collect().unwrap();
            assert_eq!(online.len(), offline.len(), "patient {p}");
            assert_eq!(online.checksum(), offline.checksum(), "patient {p}");
        }
        let stats = ingest.stats();
        assert_eq!(stats.samples_pushed, 600);
        assert!(stats.batches_flushed >= 3, "finish flushes remainders");
        ingest.shutdown();
    }

    #[test]
    fn per_sample_config_matches_batched_config() {
        // Batch size must be invisible in the output: run the same feed
        // through batch=1 (per-sample sends) and batch=64.
        let run = |batch: usize| {
            let ingest = LiveIngest::with_config(
                factory(),
                IngestConfig::new(2, 100).batch(batch).channel_cap(4),
            );
            ingest.admit(9).unwrap();
            for k in 0..300i64 {
                ingest.push(9, 0, k * 2, (k * 7 % 23) as f32);
                if k % 41 == 0 {
                    ingest.poll();
                }
            }
            let out = ingest.finish(9).unwrap();
            (out.len(), out.checksum())
        };
        assert_eq!(run(1), run(64));
    }

    #[test]
    fn admit_twice_and_unknown_finish_are_errors() {
        let ingest = LiveIngest::new(factory(), 2, 100);
        ingest.admit(1).unwrap();
        assert!(ingest.admit(1).unwrap_err().contains("already admitted"));
        assert!(ingest.finish(99).unwrap_err().contains("not admitted"));
        ingest.shutdown();
    }

    #[test]
    fn all_bad_pushes_surface_at_finish_joined() {
        let ingest = LiveIngest::new(factory(), 1, 100);
        ingest.admit(5).unwrap();
        ingest.push(5, 0, 3, 1.0); // off the period-2 grid
        ingest.push(5, 0, 7, 2.0); // off the grid again
        let err = ingest.finish(5).unwrap_err();
        assert!(err.contains("time 3"), "first error kept: {err}");
        assert!(err.contains("time 7"), "later errors joined in: {err}");
        ingest.shutdown();
    }

    #[test]
    fn push_to_an_unknown_source_surfaces_at_finish() {
        let ingest = LiveIngest::new(factory(), 1, 100);
        ingest.admit(5).unwrap();
        ingest.push(5, 0, 2, 1.0);
        ingest.push(5, 7, 2, 1.0); // the pipeline has one source
        let err = ingest.finish(5).unwrap_err();
        let unknown = lifestream_core::Error::UnknownSource { index: 7 };
        assert_eq!(err, unknown.to_string());
        ingest.shutdown();
    }

    #[test]
    fn unknown_patient_pushes_are_counted_not_lost_silently() {
        let ingest = LiveIngest::new(factory(), 1, 100);
        ingest.admit(1).unwrap();
        ingest.push(2, 0, 0, 1.0); // never admitted
        ingest.push(2, 0, 2, 1.0);
        ingest.push(1, 0, 0, 1.0); // known
        ingest.poll(); // flush + process so the shard has seen them
        let _ = ingest.finish(1).unwrap();
        let stats = ingest.stats();
        assert_eq!(stats.dropped_unknown, 2);
        assert_eq!(stats.samples_pushed, 3);
        ingest.shutdown();
    }

    #[test]
    fn ingest_batch_ticket_resolves_to_the_drop_count() {
        let ingest = LiveIngest::new(factory(), 2, 100);
        ingest.admit(1).unwrap();
        let mut ticket = ingest.ingest_batch(vec![
            (1, 0, 0, 1.0),
            (9, 0, 0, 1.0), // unknown
            (1, 0, 2, 2.0),
            (8, 0, 2, 1.0), // unknown
        ]);
        // Poll without blocking until both shards have applied their share.
        let dropped = loop {
            if let Some(dropped) = ticket.try_wait() {
                break dropped;
            }
            std::thread::yield_now();
        };
        assert_eq!(dropped, 2, "drop count is exact once the ticket resolves");
        let stats = ingest.stats();
        assert_eq!(stats.dropped_unknown, 2);
        assert_eq!(stats.samples_pushed, 4);
        let out = ingest.finish(1).unwrap();
        assert_eq!(out.len(), 2);
        ingest.shutdown();
    }

    #[test]
    fn patient_handoff_between_ingests_is_lossless_and_identical() {
        // Move a patient mid-stream from ingest A to ingest B (the local
        // form of a cross-machine partition handoff) and compare against
        // one uninterrupted run.
        let sliding: PipelineFactory = Arc::new(|| {
            use lifestream_core::ops::aggregate::AggKind;
            let q = Query::new();
            q.source("s", StreamShape::new(0, 2))
                .select(1, |i, o| o[0] = i[0] * 0.5)?
                .aggregate(AggKind::Mean, 100, 10)?
                .sink();
            q.compile()
        });
        let feed = |k: i64| ((k * 37) % 97) as f32;

        let reference = LiveIngest::new(Arc::clone(&sliding), 1, 100);
        reference.admit(5).unwrap();
        for k in 0..600 {
            reference.push(5, 0, k * 2, feed(k));
            if k % 43 == 0 {
                reference.poll();
            }
        }
        let expect = reference.finish(5).unwrap();
        reference.shutdown();

        let a = LiveIngest::new(Arc::clone(&sliding), 1, 100);
        let b = LiveIngest::new(sliding, 2, 100);
        a.admit(5).unwrap();
        for k in 0..350 {
            a.push(5, 0, k * 2, feed(k));
            if k % 43 == 0 {
                a.poll();
            }
        }
        let state = a.export_patient(5).unwrap();
        b.import_patient(5, state).unwrap();
        // The patient left A: it is no longer admitted there, and pushes
        // mis-routed to A now count as drops instead of vanishing.
        assert!(a.finish(5).unwrap_err().contains("not admitted"));
        assert_eq!(a.ingest_batch(vec![(5, 0, 700, 1.0)]).wait(), 1);
        // The stream continues on B, byte-identical to the unbroken run.
        for k in 350..600 {
            b.push(5, 0, k * 2, feed(k));
            if k % 43 == 0 {
                b.poll();
            }
        }
        let moved = b.finish(5).unwrap();
        assert_eq!(moved.len(), expect.len());
        assert_eq!(moved.checksum(), expect.checksum());
        // Importing onto an admitted patient is refused like a double
        // admit.
        b.admit(7).unwrap();
        let err = b
            .import_patient(
                7,
                PatientHandoff {
                    snapshot: lifestream_core::live::SessionSnapshot {
                        next_round: 0,
                        sources: vec![],
                    },
                    output: OutputCollector::new(1),
                    errors: vec![],
                },
            )
            .unwrap_err();
        assert!(err.contains("already"), "err: {err}");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn panicking_kernel_poisons_one_session_not_the_shard() {
        // Patient 1's select closure panics on a poison value; patient 2
        // shares the single shard and must stream on unaffected.
        let fac: PipelineFactory = Arc::new(|| {
            let q = Query::new();
            q.source("s", StreamShape::new(0, 2))
                .select(1, |i, o| {
                    assert!(i[0] < 900.0, "kernel exploded");
                    o[0] = i[0];
                })?
                .sink();
            q.compile()
        });
        let ingest = LiveIngest::with_config(fac, IngestConfig::new(1, 100).batch(8));
        ingest.admit(1).unwrap();
        ingest.admit(2).unwrap();
        for k in 0..200i64 {
            ingest.push(1, 0, k * 2, if k == 60 { 999.0 } else { k as f32 });
            ingest.push(2, 0, k * 2, k as f32);
            if k % 50 == 0 {
                ingest.poll();
            }
        }
        let err = ingest.finish(1).unwrap_err();
        assert!(err.contains("panicked"), "err: {err}");
        let ok = ingest.finish(2).unwrap();
        assert_eq!(ok.len(), 200, "sibling session must be intact");
        ingest.shutdown();
    }

    #[test]
    fn panicking_factory_fails_admit_not_the_shard() {
        let ingest = LiveIngest::new(Arc::new(|| panic!("factory exploded")), 1, 100);
        let err = ingest.admit(5).unwrap_err();
        assert!(err.contains("factory exploded"), "{err}");
        // The shard survives to serve a sane admit... of nothing here,
        // but shutdown must join cleanly (a dead thread would hang).
        ingest.shutdown();
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let ingest = LiveIngest::new(factory(), 2, 100);
        ingest.admit(4).unwrap();
        for k in 0..50i64 {
            ingest.push(4, 0, k * 2, k as f32);
        }
        // No shutdown(): Drop must flush, close channels, and join the
        // shard threads (a leak would hang the test binary at exit).
        drop(ingest);
    }

    #[test]
    fn bounded_channel_backpressures_instead_of_queueing_unboundedly() {
        // A tiny channel with per-sample batches: the producer must make
        // progress only as fast as the shard drains, and everything still
        // arrives intact.
        let ingest =
            LiveIngest::with_config(factory(), IngestConfig::new(1, 100).batch(1).channel_cap(2));
        ingest.admit(6).unwrap();
        for k in 0..2_000i64 {
            ingest.push(6, 0, k * 2, k as f32);
        }
        let out = ingest.finish(6).unwrap();
        assert_eq!(out.len(), 2_000);
        assert_eq!(ingest.stats().batches_flushed, 2_000);
        ingest.shutdown();
    }
}
