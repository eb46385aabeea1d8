//! One ingest shard: the state a shard thread owns, and the loop that
//! feeds it.
//!
//! A [`Shard`] owns the [`LiveSession`]s of the patients routed to it,
//! the one warm [`ExecutorPool`] it keeps for batch jobs, and one queue
//! of [`Task`]s — long work that advances one patient per
//! [`step`](Shard::step): a [`ShardedRuntime`](super::ShardedRuntime)'s
//! batch jobs, or this shard's share of a history cohort pass. A shard
//! keeps at most one job task, and it takes a job off the runtime's
//! shared queue only as it starts to run it, so no job waits on a busy
//! shard while another is free. Every request is a plain method, so a
//! unit test drives a shard with no thread and no channel.
//!
//! The thread loop ([`ingest_loop`]) blocks only when no task is queued.
//! It takes the commands already waiting — at most a channel's depth, so
//! a saturated channel cannot starve a task — and then advances one task
//! by one patient: a live command waits behind one patient's run, never
//! behind a whole task. [`Cmd::Shutdown`] runs the queued tasks to the
//! end before the thread exits, so every submitted job reports.
//!
//! Two rules are written once here. Opening a session (admit, import)
//! refuses an admitted patient, catches a panicking factory and points
//! the session's retired spans at the store. Draining a session (poll,
//! export, finish) defers an engine error to `finish` and poisons the
//! session on a panic in user code — that session only, never the shard.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use lifestream_core::error::{panic_text, Result as CoreResult};
use lifestream_core::exec::{Executor, OutputCollector};
use lifestream_core::live::LiveSession;
use lifestream_core::query::CompiledQuery;
use lifestream_core::time::Tick;
use lifestream_store::query::CohortPass;
use lifestream_store::{HistoryError, LiveOverlay, SharedStore};

use super::ingest::{Counters, PatientHandoff, RunBatch, SessionMeta, SourceMeta};
use super::pool::{ExecutorPool, Job, PipelineFactory};
use super::PatientId;

/// What travels on a shard's bounded channel.
pub(super) enum Cmd {
    /// One shard's share of a batch, grouped into runs and applied in run
    /// order. An acked transport asks for a reply: the number of samples
    /// dropped for unknown patients, sent once the batch is applied.
    Batch {
        batch: RunBatch,
        reply: Option<Sender<u64>>,
    },
    /// Runs every session's complete rounds.
    Poll,
    /// Any synchronous request: it runs on the shard and sends its own
    /// reply.
    Call(Box<dyn FnOnce(&mut Shard) + Send>),
    /// Queues long work behind the shard's other tasks.
    Task(Task),
    /// Runs the queued tasks to the end and stops the thread.
    Shutdown,
}

/// Long work on a shard, advanced one patient per [`Shard::step`].
pub(super) enum Task {
    /// A wake-up for a [`ShardedRuntime`](super::ShardedRuntime)'s queued
    /// batch jobs.
    Job(Job),
    /// This shard's share of a history cohort pass.
    Pass(Box<PassShare>),
}

/// A share's outputs in its patients' order, and the executor it
/// borrowed.
pub(super) type PassDone = (Result<Vec<OutputCollector>, HistoryError>, Executor);

/// One shard's share of a history cohort pass: its patients' scanned
/// spans and live tails, in query order, and the executor it replays them
/// on, one patient per [`step`](Self::step).
pub(super) struct PassShare {
    pub(super) pass: CohortPass,
    pub(super) tails: std::vec::IntoIter<Option<LiveOverlay>>,
    pub(super) outputs: Vec<OutputCollector>,
    pub(super) exec: Executor,
    pub(super) reply: Sender<PassDone>,
}

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

impl Session {
    /// Runs the session's complete rounds into its collector — with `end`,
    /// every round up to its last watermark. The one rule for poll, export
    /// and finish: a poisoned session runs nothing, an engine error leaves
    /// the session sound and is deferred, and a panic in user code poisons
    /// this session only (its siblings on the shard keep streaming).
    fn drain(&mut self, end: bool) {
        if self.poisoned {
            return;
        }
        let Session { live, out, .. } = self;
        let ran = catch_panic(|| {
            let absorb = |w: &_| out.absorb(w);
            if end {
                live.finish(absorb)
            } else {
                live.poll(absorb)
            }
        });
        match ran {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => self.errors.push(e.to_string()),
            Err(panic) => {
                self.poisoned = true;
                self.errors.push(panic);
            }
        }
    }
}

/// Everything one shard thread owns. See the module docs.
pub(super) struct Shard {
    sessions: HashMap<PatientId, Session>,
    /// The warm executor batch jobs recycle across patients.
    pool: ExecutorPool,
    tasks: VecDeque<Task>,
    factory: PipelineFactory,
    round_ticks: Tick,
    counters: Arc<Counters>,
    /// Where every session's retired spans spill, when attached.
    store: Option<SharedStore>,
}

impl Shard {
    pub(super) fn new(
        factory: PipelineFactory,
        round_ticks: Tick,
        counters: Arc<Counters>,
        store: Option<SharedStore>,
    ) -> Self {
        Self {
            sessions: HashMap::new(),
            pool: ExecutorPool::default(),
            tasks: VecDeque::new(),
            factory,
            round_ticks,
            counters,
            store,
        }
    }

    /// Opens a session for `patient` and returns its shape facts.
    ///
    /// # Errors
    /// The compile error (or the factory's panic), or a complaint when the
    /// patient is already admitted.
    pub(super) fn admit(&mut self, patient: PatientId) -> Result<SessionMeta, String> {
        let live = self.open(patient, LiveSession::new)?;
        let meta = session_meta(&live)?;
        let out = OutputCollector::new(meta.arity);
        self.insert(patient, live, out, Vec::new());
        Ok(meta)
    }

    /// Re-creates `patient`'s session from handoff state, which then
    /// continues emitting byte-identically from the exported frontier.
    ///
    /// # Errors
    /// The compile/import error, a complaint when the patient is already
    /// admitted, or when the handoff's output does not have the sink's
    /// arity. No session is opened then.
    pub(super) fn import(
        &mut self,
        patient: PatientId,
        state: PatientHandoff,
    ) -> Result<(), String> {
        let PatientHandoff {
            snapshot,
            output,
            errors,
        } = state;
        let live = self.open(patient, |compiled, round| {
            LiveSession::import_suffix(compiled, round, snapshot)
        })?;
        let arity = live.sink_arity().map_err(|e| e.to_string())?;
        // A failover peer ships an *empty* collector it could not size:
        // align it to the sink. A non-empty one must already fit, or the
        // first poll would absorb windows into the wrong number of fields.
        let out = if output.is_empty() {
            OutputCollector::new(arity)
        } else if output.arity() == arity {
            output
        } else {
            return Err(format!(
                "patient {patient} handoff output has arity {}, the sink has arity {arity}",
                output.arity()
            ));
        };
        self.insert(patient, live, out, errors);
        Ok(())
    }

    /// Ends `patient`'s stream and returns everything its query emitted.
    ///
    /// # Errors
    /// Every deferred error of the session (joined with `"; "` — a monitor
    /// feed can violate the grid many ways in one session), or a complaint
    /// for an unknown patient.
    pub(super) fn finish(&mut self, patient: PatientId) -> Result<OutputCollector, String> {
        let mut s = self
            .sessions
            .remove(&patient)
            .ok_or_else(|| format!("patient {patient} not admitted"))?;
        s.drain(true);
        if s.errors.is_empty() {
            Ok(s.out)
        } else {
            Err(s.errors.join("; "))
        }
    }

    /// Removes `patient`'s session and returns its handoff state. Complete
    /// rounds are drained first, so only the margin suffix (not
    /// unprocessed backlog) moves.
    ///
    /// # Errors
    /// A complaint for an unknown patient or a poisoned session, whose
    /// executor state cannot be transferred; a poisoned session stays
    /// here so `finish` reports why.
    pub(super) fn export(&mut self, patient: PatientId) -> Result<PatientHandoff, String> {
        let s = self
            .sessions
            .get_mut(&patient)
            .ok_or_else(|| format!("patient {patient} not admitted"))?;
        if s.poisoned {
            let why = s.errors.join("; ");
            return Err(format!(
                "patient {patient} session is poisoned, cannot hand off: {why}"
            ));
        }
        s.drain(false);
        if s.poisoned {
            return Err(format!("patient {patient} poisoned during export"));
        }
        let s = self.sessions.remove(&patient).expect("the session is here");
        Ok(PatientHandoff {
            snapshot: s.live.export_suffix(),
            output: s.out,
            errors: s.errors,
        })
    }

    /// Snapshots these patients' live tails for a cohort pass about to
    /// read the store. A patient not live here (finished, on another
    /// machine, or poisoned) is served from the durable tiers alone.
    pub(super) fn tails(&self, patients: &[PatientId]) -> Vec<Option<LiveOverlay>> {
        let tail = |p| match self.sessions.get(p) {
            Some(s) if !s.poisoned => Some(LiveOverlay {
                snapshot: s.live.export_suffix(),
                shapes: s.live.source_shapes(),
            }),
            _ => None,
        };
        patients.iter().map(tail).collect()
    }

    /// Applies one batch of runs — one session lookup and one
    /// [`LiveSession::push_run`] per run — and returns the samples dropped
    /// for unknown patients, also counted into the ingest's counters.
    pub(super) fn apply_batch(&mut self, batch: &RunBatch) -> u64 {
        let mut dropped = 0u64;
        let mut at = 0;
        for run in &batch.runs {
            let values = &batch.values[at..at + run.n];
            at += run.n;
            match self.sessions.get_mut(&run.patient) {
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
            self.counters
                .dropped_unknown
                .fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    /// Runs every session's complete rounds (round-aligned: partial
    /// rounds wait for their watermark).
    pub(super) fn poll(&mut self) {
        for s in self.sessions.values_mut() {
            s.drain(false);
        }
    }

    /// Queues `task` behind the others. One job task takes every queued
    /// job in turn, so a wake-up that finds one here is dropped at once.
    pub(super) fn queue(&mut self, task: Task) {
        match task {
            Task::Job(_) if self.tasks.iter().any(|t| matches!(t, Task::Job(_))) => {}
            task => self.tasks.push_back(task),
        }
    }

    /// Advances the first queued task by one patient; a task with
    /// patients left goes to the back of the queue. Returns whether any
    /// task is queued.
    pub(super) fn step(&mut self) -> bool {
        let left = match self.tasks.pop_front() {
            Some(Task::Job(job)) => job.step(&mut self.pool).map(Task::Job),
            Some(Task::Pass(share)) => share.step().map(Task::Pass),
            None => None,
        };
        self.tasks.extend(left);
        !self.tasks.is_empty()
    }

    /// The one way a session is opened: refuses an admitted patient,
    /// builds the session from a fresh compile with `start` — the factory
    /// is user code, so a panic becomes this request's error, not the
    /// shard's death — and points its retired spans at the store.
    fn open(
        &self,
        patient: PatientId,
        start: impl FnOnce(CompiledQuery, Tick) -> CoreResult<LiveSession>,
    ) -> Result<LiveSession, String> {
        if self.sessions.contains_key(&patient) {
            return Err(format!("patient {patient} already admitted"));
        }
        let mut live = catch_panic(|| (self.factory)().and_then(|c| start(c, self.round_ticks)))?
            .map_err(|e| e.to_string())?;
        if let Some(store) = &self.store {
            live.set_retire_sink(store.sink_for(patient));
        }
        Ok(live)
    }

    fn insert(
        &mut self,
        patient: PatientId,
        live: LiveSession,
        out: OutputCollector,
        errors: Vec<String>,
    ) {
        let session = Session {
            live,
            out,
            errors,
            poisoned: false,
        };
        self.sessions.insert(patient, session);
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

/// The one panic catcher of the shard threads. Runs user code — a
/// pipeline factory, kernel closures — and turns a panic into a message
/// naming its payload, so it fails one session, job or query and never
/// the shard. The caller decides what the unwind left unknowable: a
/// session is poisoned, a job's warm executor is rebuilt.
pub(super) fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = panic_text(&*payload).unwrap_or("non-string panic payload");
        format!("shard worker panicked: {text}")
    })
}

/// A shard thread: serves `rx` on `shard` until [`Cmd::Shutdown`], or
/// until every sender is gone, which counts as one. It blocks only when no
/// task is queued. See the module docs.
pub(super) fn ingest_loop(rx: Receiver<Cmd>, mut shard: Shard, depth: usize) {
    loop {
        let idle = shard.tasks.is_empty();
        let first = idle.then(|| rx.recv().unwrap_or(Cmd::Shutdown));
        for cmd in first.into_iter().chain(rx.try_iter().take(depth)) {
            match cmd {
                Cmd::Batch { batch, reply } => {
                    let dropped = shard.apply_batch(&batch);
                    if let Some(reply) = reply {
                        let _ = reply.send(dropped);
                    }
                }
                Cmd::Poll => shard.poll(),
                Cmd::Call(call) => call(&mut shard),
                Cmd::Task(task) => shard.queue(task),
                Cmd::Shutdown => {
                    while shard.step() {}
                    return;
                }
            }
        }
        shard.step();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ingest::{group_runs, Sample};
    use crate::sharded::pool::Jobs;
    use crate::sharded::ShardedConfig;
    use lifestream_core::source::SignalData;
    use lifestream_core::stream::Query;
    use lifestream_core::time::StreamShape;
    use lifestream_store::query::empty_executor;
    use lifestream_store::StoreConfig;

    const ROUND: Tick = 100;

    /// One source on a period-2 grid; the select panics on 999.
    fn factory() -> PipelineFactory {
        Arc::new(|| {
            let q = Query::new();
            q.source("s", StreamShape::new(0, 2))
                .select(1, |i, o| {
                    assert!(i[0] < 900.0, "kernel exploded");
                    o[0] = i[0] + 1.0;
                })?
                .sink();
            q.compile()
        })
    }

    fn shard() -> Shard {
        Shard::new(factory(), ROUND, Arc::default(), None)
    }

    fn feed(patient: PatientId, ks: std::ops::Range<i64>) -> Vec<Sample> {
        ks.map(|k| (patient, 0, 2 * k, (k * 7 % 23) as f32))
            .collect()
    }

    fn apply(shard: &mut Shard, samples: &[Sample]) -> u64 {
        let batch = group_runs(samples, 1, |_| 0).pop().expect("one share");
        shard.apply_batch(&batch)
    }

    fn same(a: &OutputCollector, b: &OutputCollector) {
        assert_eq!((a.len(), a.arity()), (b.len(), b.arity()));
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn a_shard_session_equals_a_bare_live_session() {
        let samples = feed(3, 0..300);
        let mut bare = LiveSession::new(factory()().unwrap(), ROUND).unwrap();
        let mut expect = OutputCollector::new(1);
        for (i, &(_, source, t, v)) in samples.iter().enumerate() {
            bare.push(source, t, v).unwrap();
            if i == 150 {
                bare.poll(|w| expect.absorb(w)).unwrap();
            }
        }
        bare.finish(|w| expect.absorb(w)).unwrap();

        let mut shard = shard();
        let meta = shard.admit(3).unwrap();
        assert_eq!((meta.round, meta.arity, meta.sources.len()), (ROUND, 1, 1));
        assert!(shard.admit(3).unwrap_err().contains("already admitted"));
        assert_eq!(apply(&mut shard, &samples[..151]), 0);
        shard.poll();
        assert_eq!(apply(&mut shard, &samples[151..]), 0);
        assert_eq!(apply(&mut shard, &feed(4, 0..5)), 5, "unknown patient");
        same(&shard.finish(3).unwrap(), &expect);
        assert!(shard.finish(3).unwrap_err().contains("not admitted"));
    }

    #[test]
    fn export_then_import_round_trips() {
        let samples = feed(5, 0..400);
        let mut whole = shard();
        whole.admit(5).unwrap();
        apply(&mut whole, &samples);
        let expect = whole.finish(5).unwrap();

        let (mut a, mut b) = (shard(), shard());
        a.admit(5).unwrap();
        apply(&mut a, &samples[..230]);
        let state = a.export(5).unwrap();
        assert!(a.export(5).unwrap_err().contains("not admitted"));
        b.import(5, state.clone()).unwrap();
        assert!(b.import(5, state).unwrap_err().contains("already admitted"));
        apply(&mut b, &samples[230..]);
        same(&b.finish(5).unwrap(), &expect);
    }

    #[test]
    fn import_refuses_output_of_another_arity() {
        let mut a = shard();
        a.admit(5).unwrap();
        apply(&mut a, &feed(5, 0..10));
        let mut state = a.export(5).unwrap();
        let mut wide = OutputCollector::new(2);
        wide.push(0, 2, &[1.0, 2.0]);
        state.output = wide;
        let mut b = shard();
        let err = b.import(5, state).unwrap_err();
        assert!(err.contains("arity 2") && err.contains("arity 1"), "{err}");
        assert!(b.sessions.is_empty(), "no session was opened");
    }

    #[test]
    fn a_panicking_kernel_poisons_only_its_session() {
        let mut shard = shard();
        shard.admit(1).unwrap();
        shard.admit(2).unwrap();
        let mut samples = feed(1, 0..200);
        samples[60].3 = 999.0;
        samples.extend(feed(2, 0..200));
        apply(&mut shard, &samples);
        shard.poll();
        let err = shard.export(1).unwrap_err();
        assert!(
            err.contains("poisoned") && err.contains("kernel exploded"),
            "{err}"
        );
        // Pushes to the poisoned session are neither applied nor dropped.
        assert_eq!(apply(&mut shard, &feed(1, 200..210)), 0);
        let err = shard.finish(1).unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert_eq!(shard.finish(2).unwrap().len(), 200);
    }

    #[test]
    fn each_step_advances_one_task_by_one_patient() {
        let dir = std::env::temp_dir().join(format!("lss-shard-step-{}", std::process::id()));
        let store = SharedStore::open(StoreConfig::new(&dir)).unwrap();
        let mut shard = Shard::new(factory(), ROUND, Arc::default(), Some(store.clone()));
        for p in [1, 2] {
            shard.admit(p).unwrap();
            apply(&mut shard, &feed(p, 0..100));
        }
        // Two batch jobs behind one wake-up, and a pass over both patients.
        let (reports, reported) = std::sync::mpsc::channel();
        let jobs = Arc::new(Jobs::new(
            factory(),
            &ShardedConfig::with_workers(1),
            8,
            reports,
        ));
        let ramp = || SignalData::dense(StreamShape::new(0, 2), vec![1.0; 50]);
        let job = jobs.enqueue(10, vec![ramp()]);
        jobs.enqueue(11, vec![ramp()]);
        shard.queue(Task::Job(job));
        let compiled = factory()().unwrap();
        let shapes = compiled.source_shapes();
        let exec = empty_executor(compiled, ROUND).unwrap();
        let range = (Tick::MIN, Tick::MAX);
        let (pass, _) = CohortPass::scan(&exec, &store, &[1, 2], &shapes, range, 0).unwrap();
        let (reply, done) = std::sync::mpsc::channel();
        let share = PassShare {
            pass,
            tails: shard.tails(&[1, 2]).into_iter(),
            outputs: Vec::new(),
            exec,
            reply,
        };
        shard.tasks.push_back(Task::Pass(Box::new(share)));

        let replayed = |shard: &Shard| {
            let share = shard.tasks.iter().find_map(|t| match t {
                Task::Pass(share) => Some(share.outputs.len()),
                Task::Job(_) => None,
            });
            share.unwrap_or(2)
        };
        // (jobs reported, patients replayed) after each step.
        let mut progress = Vec::new();
        let mut left = true;
        while left {
            left = shard.step();
            progress.push((reported.try_iter().count(), replayed(&shard)));
        }
        assert_eq!(progress, [(1, 0), (0, 1), (1, 1), (0, 2)]);
        let (outputs, _) = done.try_recv().expect("the share replied");
        let outputs = outputs.unwrap();
        assert_eq!(outputs.len(), 2);
        assert!(outputs.iter().all(|o| o.len() == 100));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_job_task_takes_each_job_only_as_it_runs_it() {
        let mut shard = shard();
        let (reports, reported) = std::sync::mpsc::channel();
        let jobs = Arc::new(Jobs::new(
            factory(),
            &ShardedConfig::with_workers(1),
            8,
            reports,
        ));
        let ramp = || SignalData::dense(StreamShape::new(0, 2), vec![1.0; 50]);
        // Three jobs, three wake-ups: the first becomes the shard's job
        // task, the other two are spent on arrival.
        for p in 0..3 {
            shard.queue(Task::Job(jobs.enqueue(p, vec![ramp()])));
        }
        assert_eq!(shard.tasks.len(), 1);
        assert_eq!(jobs.backlog(), (3, 1));
        // (task left, jobs queued, wake-ups in flight, jobs reported) after
        // each step: every job is either queued or reported, never held.
        let mut progress = Vec::new();
        let mut reports = 0;
        let mut left = true;
        while left {
            left = shard.step();
            reports += reported.try_iter().count();
            let (queued, woken) = jobs.backlog();
            progress.push((left, queued, woken, reports));
        }
        assert_eq!(
            progress,
            [(true, 2, 1, 1), (true, 1, 1, 2), (false, 0, 0, 3)]
        );
    }
}
