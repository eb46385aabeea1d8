//! The cluster router: one ingest front end over N machine endpoints,
//! with live partition handoff between them and automatic patient
//! failover when a machine dies.

use std::collections::HashMap;
use std::io;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use lifestream_core::exec::OutputCollector;
use lifestream_core::live::SessionBuffer;
use lifestream_core::time::{StreamShape, Tick};
use lifestream_store::{HistoryReader, SharedStore, StoreConfig, SCAN_PASS_PATIENTS};

use crate::history::{
    history_over_wire, CohortReport, HistoryError, HistoryQuery, HistoryQueryApi,
};
use crate::machines::{self, MachineState};
use crate::sharded::{Ingest, IngestStats, PatientHandoff, PatientId, SessionMeta};

use super::client::{RemoteConfig, RemoteHealth, RemoteIngest};

/// One machine's routing state plus its transport recovery counters.
#[derive(Debug, Clone, Copy)]
pub struct MachineHealth {
    /// `Down` once failed over in the routing table; otherwise
    /// `Degraded` while the endpoint is alive after a reconnect, else `Up`.
    pub state: MachineState,
    /// The endpoint's reconnect/replay counters.
    pub remote: RemoteHealth,
}

/// Cluster-wide fault observability: per-machine states plus the
/// failover counters. Snapshot semantics — taken under the routing
/// lock, so the machine states are mutually consistent.
#[derive(Debug, Clone)]
pub struct ClusterHealth {
    /// Per-machine state and recovery counters, by machine index.
    pub machines: Vec<MachineHealth>,
    /// Machines declared [`MachineState::Down`] so far.
    pub failovers: u64,
    /// Patient sessions re-admitted on a survivor after their machine
    /// died.
    pub patients_failed_over: u64,
    /// Patient sessions that could not be re-homed (no survivor, or the
    /// survivor refused the import).
    pub patients_lost: u64,
    /// Sum of every endpoint's successful reconnect-with-resume
    /// handshakes.
    pub reconnects: u64,
    /// Sum of every endpoint's replayed window frames.
    pub frames_replayed: u64,
}

/// Client-side mirror of one patient's live session: the session's buffer
/// half ([`SessionBuffer`], the type the owning server's `LiveSession`
/// keeps its own samples in) with no executor behind it. It is fed every
/// push and advanced at every poll, so it accepts, refuses and retires
/// exactly what the server's session does and stays `O(round + margin +
/// poll lag)` per source — enough to re-admit the patient on a survivor
/// if its machine dies. Its round frontier is the one of the last poll:
/// rounds below it count as emitted, so a failover resumes
/// (output-suppressed warm-up, same as a handoff import) from there.
struct PatientState {
    arity: usize,
    buf: SessionBuffer,
}

impl PatientState {
    /// Sizes the mirror from the owning server's admit reply.
    fn new(meta: &SessionMeta) -> Result<Self, String> {
        let shapes = meta
            .sources
            .iter()
            .map(|s| (s.period > 0).then(|| StreamShape::new(s.offset, s.period)))
            .collect::<Option<Vec<_>>>()
            .ok_or("session meta names a source with a non-positive period")?;
        let margins = meta.sources.iter().map(|s| s.margin).collect();
        let buf = SessionBuffer::new(&shapes, margins, meta.round).map_err(|e| e.to_string())?;
        Ok(Self {
            arity: meta.arity.max(1),
            buf,
        })
    }

    /// Mirrors one pushed sample. What the buffer refuses the server
    /// refuses as well (and defers to `finish`), so the error is dropped.
    fn push(&mut self, source: usize, t: Tick, v: f32) {
        let _ = self.buf.push(source, t, v);
    }

    /// Moves the frontier to the last complete round and retires every
    /// source its margin below it — called at each poll, as the server's
    /// session does when the `Poll` reaches it.
    fn advance(&mut self) {
        self.buf.advance_to(self.buf.frontier(), None);
    }

    /// Builds a re-admission handoff: the mirror's suffix export — what
    /// the dead machine's session would have exported at this frontier —
    /// with an empty output collector (output collected on the dead
    /// machine is gone; the survivor re-emits from the frontier). With a
    /// store attached, the durable segments are overlaid first and the
    /// mirror's own samples over them, so a mirror that lost samples is
    /// healed from disk and stays the fresher of the two where both have
    /// one; a source whose segments cannot be overlaid keeps the mirror
    /// alone.
    fn handoff(&self, store: Option<(&HistoryReader, PatientId)>) -> PatientHandoff {
        let mut buf = self.buf.clone();
        if let Some((reader, patient)) = store {
            let mirrored = self.buf.sources();
            for (i, (src, mine)) in buf.sources_mut().iter_mut().zip(mirrored).enumerate() {
                let healed = reader.overlay_source(patient, i, src).is_ok()
                    && src.overlay_suffix(&mine.suffix()).is_ok();
                if !healed {
                    *src = mine.clone();
                }
            }
        }
        PatientHandoff {
            snapshot: buf.export_suffix(),
            output: OutputCollector::new(self.arity),
            errors: Vec::new(),
        }
    }
}

/// Builds the failover handoffs of one pass of mirrors (at most
/// [`SCAN_PASS_PATIENTS`]), each healed from the shared store. The pass is
/// one [`SharedStore::scan`] of its patients over `[lowest retained base,
/// Tick::MAX)`: what lies below every mirror's base would be dropped as
/// retired, so the pruning changes no handoff. A failed scan — a corrupt
/// segment in the window, say — leaves every mirror of the pass alone.
fn rebuild(
    store: Option<&SharedStore>,
    pass: &[(PatientId, &PatientState)],
) -> Vec<(PatientId, PatientHandoff)> {
    let ids: Vec<PatientId> = pass.iter().map(|&(p, _)| p).collect();
    let sources = pass.iter().flat_map(|(_, state)| state.buf.sources());
    let from = sources.map(|src| src.base_time()).min();
    let scan = store
        .zip(from)
        .and_then(|(s, from)| s.scan(&ids, from, Tick::MAX).ok());
    let Some(scan) = scan else {
        return pass.iter().map(|&(p, s)| (p, s.handoff(None))).collect();
    };
    pass.iter()
        .zip(scan.records)
        .map(|(&(p, state), records)| {
            let reader = HistoryReader::from_records(records);
            (p, state.handoff(Some((&reader, p))))
        })
        .collect()
}

/// One admitted patient's row in the routing table: the machine owning
/// its session and the session's client-side mirror.
struct Route {
    machine: usize,
    mirror: Mutex<PatientState>,
}

/// The router's one table: a down flag per machine and a [`Route`] per
/// admitted patient. A patient with no entry is placed by
/// [`machines::home`]; either way the placement walks past down machines
/// ([`machines::walk_live`]). A machine that is down stays down. A
/// failover takes out the entries on a machine as it downs it, and puts
/// back only those a live survivor re-admitted.
struct Routes {
    down: Vec<bool>,
    patients: HashMap<PatientId, Route>,
}

impl Routes {
    fn new(machines: usize) -> Self {
        Self {
            down: vec![false; machines],
            patients: HashMap::new(),
        }
    }

    /// The machine a patient's calls go to, and its entry if admitted.
    fn route(&self, patient: PatientId) -> (usize, Option<&Route>) {
        let entry = self.patients.get(&patient);
        let preferred =
            entry.map_or_else(|| machines::home(patient, self.down.len()), |r| r.machine);
        (machines::walk_live(preferred, &self.down), entry)
    }

    fn place(&self, patient: PatientId) -> usize {
        self.route(patient).0
    }

    /// Marks machine `m` down and takes out the entries of the patients it
    /// owned; [`failover_locked`](ClusterIngest::failover_locked) puts back,
    /// re-pointed, those a survivor re-admits.
    fn take_down(&mut self, m: usize) -> Vec<(PatientId, Route)> {
        self.down[m] = true;
        self.patients.extract_if(|_, r| r.machine == m).collect()
    }
}

/// Hash-partitions patients across a fleet of
/// [`ShardServer`](super::ShardServer)s and routes every ingest call to
/// the owning machine — the cross-machine face of the same [`Ingest`]
/// protocol.
///
/// Placement starts as a balanced hash ([`machines`]) and stays a
/// *live* table with one entry per admitted patient:
/// [`rebalance`](Self::rebalance) moves one patient's session between
/// machines mid-stream with the cooperative handoff protocol (flush +
/// drain on the source, margin-suffix state transfer, re-point the
/// patient's entry), losing zero samples and zero already-collected
/// output.
///
/// # Failover
///
/// Each patient's entry also holds a *client-side* mirror of its
/// session's buffers: the margin suffix of each source (the same bounded
/// window the server retains, in the same type) plus the round frontier
/// of the last poll. When an endpoint exhausts its reconnect budget and
/// goes dead, the machine is declared [`MachineState::Down`] and each
/// patient it owned is re-admitted on a survivor by importing that
/// mirror — the warm-up replay suppresses output below the frontier,
/// exactly like a [`rebalance`](Self::rebalance) import — and its entry
/// re-pointed there. A hard-killed machine therefore never loses a
/// patient while another machine lives; what *is* lost is bounded:
/// output rounds below the failover frontier that were only collected on
/// the dead machine, and its sessions' deferred per-sample errors. A
/// patient no live machine takes back (a survivor refused the import, or
/// none is left) is counted lost and leaves the table: it is not
/// admitted anywhere any more.
///
/// With a shared tiered store attached
/// ([`connect_with_store`](Self::connect_with_store)), failover prefers
/// **segment rebuild** over the mirror alone: each re-admitted source
/// suffix is the durable segments the dead machine spilled, overlaid
/// with the mirror — a mirror that lost samples is healed from disk.
/// The rebuild reads through the same [`SharedStore::scan`] as every
/// history query: only the failed machine's patients, in passes of at
/// most [`SCAN_PASS_PATIENTS`], and only from the lowest base their
/// mirrors retain — not the whole directory. A pass whose scan fails
/// re-admits its patients from the mirrors alone.
/// [`history`](HistoryQueryApi::history) re-runs any patient's pipeline
/// over its full durable history on whichever machine currently owns it.
pub struct ClusterIngest {
    endpoints: Vec<RemoteIngest>,
    /// The shared tiered store, when every machine spills to the same
    /// directory; scanned at failover to rebuild sessions from segments.
    /// The client never spills, so it never writes there.
    store: Option<SharedStore>,
    /// The routing table. Readers (push/admit/finish) share the lock so
    /// endpoints ingest in parallel; a handoff or failover takes the
    /// write lock, so a concurrent push cannot race a patient to its old
    /// machine mid-move — without one slow endpoint's backpressure
    /// serializing the whole fleet behind a mutex. Admit and finish take
    /// it only to insert or remove the patient's entry.
    routes: RwLock<Routes>,
    /// Cluster-level push counter: a dead endpoint stops counting the
    /// pushes it discards, this one does not.
    samples_pushed: AtomicU64,
    failovers: AtomicU64,
    patients_failed_over: AtomicU64,
    patients_lost: AtomicU64,
}

impl ClusterIngest {
    /// Connects one [`RemoteIngest`] per endpoint address.
    ///
    /// # Errors
    /// Propagates the first connection failure; requires at least one
    /// endpoint.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A], cfg: RemoteConfig) -> io::Result<Self> {
        Self::connect_inner(addrs, cfg, None)
    }

    /// Like [`connect`](Self::connect), for a fleet whose machines all
    /// spill to the tiered store at `store_dir` (shared storage). The
    /// client opens a [`SharedStore`] over it for segment-preferred
    /// failover rebuilds; retrospective queries
    /// ([`history`](HistoryQueryApi::history)) work either way, since
    /// they run server-side.
    ///
    /// # Errors
    /// Fails when the store directory cannot be created; propagates the
    /// first connection failure; requires at least one endpoint.
    pub fn connect_with_store<A: ToSocketAddrs>(
        addrs: &[A],
        cfg: RemoteConfig,
        store_dir: impl Into<PathBuf>,
    ) -> io::Result<Self> {
        let store = SharedStore::open(StoreConfig::new(store_dir))?;
        Self::connect_inner(addrs, cfg, Some(store))
    }

    fn connect_inner<A: ToSocketAddrs>(
        addrs: &[A],
        cfg: RemoteConfig,
        store: Option<SharedStore>,
    ) -> io::Result<Self> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one endpoint",
            ));
        }
        let endpoints = addrs
            .iter()
            .map(|a| RemoteIngest::connect(a, cfg))
            .collect::<io::Result<Vec<_>>>()?;
        let routes = RwLock::new(Routes::new(endpoints.len()));
        Ok(Self {
            endpoints,
            store,
            routes,
            samples_pushed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            patients_failed_over: AtomicU64::new(0),
            patients_lost: AtomicU64::new(0),
        })
    }

    /// Number of machine endpoints.
    pub fn machines(&self) -> usize {
        self.endpoints.len()
    }

    /// The machine currently owning a patient's stream.
    pub fn machine_of(&self, patient: PatientId) -> usize {
        self.routes.read().expect("routes lock").place(patient)
    }

    /// Per-machine states plus the cluster's failover counters.
    pub fn health(&self) -> ClusterHealth {
        let machines: Vec<MachineHealth> = {
            let routes = self.routes.read().expect("routes lock");
            self.endpoints
                .iter()
                .zip(&routes.down)
                .map(|(e, &down)| {
                    let remote = e.health();
                    let state = MachineState::of(down, !e.is_dead(), remote.reconnects);
                    MachineHealth { state, remote }
                })
                .collect()
        };
        ClusterHealth {
            failovers: self.failovers.load(Ordering::Relaxed),
            patients_failed_over: self.patients_failed_over.load(Ordering::Relaxed),
            patients_lost: self.patients_lost.load(Ordering::Relaxed),
            reconnects: machines.iter().map(|m| m.remote.reconnects).sum(),
            frames_replayed: machines.iter().map(|m| m.remote.frames_replayed).sum(),
            machines,
        }
    }

    /// Moves a patient's live session to another machine without losing
    /// a sample: staged data is flushed and acked on the source, the
    /// session's margin-suffix state (plus collected output and deferred
    /// errors) crosses to the destination, and the patient's entry in the
    /// routing table is re-pointed there. Pushes issued after this returns
    /// route to the new machine; the resumed session emits
    /// byte-identically.
    ///
    /// A machine death mid-handoff is recovered, not surfaced: if the
    /// *source* dies during the export, the whole machine fails over
    /// (client-side mirrors re-admit its patients on survivors); if the
    /// *destination* dies during the import, it is declared down and the
    /// already-exported state — still in hand — lands on whichever
    /// machine then owns the patient, with zero loss.
    ///
    /// A patient the table has no entry for (never admitted, finished or
    /// lost) has no session to move, so that call does nothing.
    ///
    /// # Errors
    /// Returns a message for an out-of-range or down machine, a poisoned
    /// patient, or an import refusal with every involved machine still
    /// alive — only then is the patient stranded un-admitted (the export
    /// already removed it, and it leaves the table), and the error says
    /// so explicitly.
    pub fn rebalance(&self, patient: PatientId, to: usize) -> Result<(), String> {
        if to >= self.endpoints.len() {
            return Err(format!(
                "machine {to} out of range ({} endpoints)",
                self.endpoints.len()
            ));
        }
        let mut routes = self.routes.write().expect("routes lock");
        if routes.down[to] {
            return Err(format!("machine {to} is down"));
        }
        let (from, entry) = routes.route(patient);
        if entry.is_none() || from == to {
            return Ok(());
        }
        let state = match self.endpoints[from].export_patient(patient) {
            Ok(state) => state,
            Err(e) => {
                if self.endpoints[from].is_dead() {
                    // Source died mid-export: whether or not the export
                    // landed server-side, the client mirror re-admits the
                    // patient (and everything else the machine owned) on
                    // a survivor.
                    self.failover_locked(&mut routes, from);
                    return Ok(());
                }
                return Err(e);
            }
        };
        let mut landed = self.endpoints[to]
            .import_patient(patient, state.clone())
            .map(|()| to);
        if landed.is_err() && self.endpoints[to].is_dead() {
            // Destination died mid-import: down it (re-homing any
            // patients it owned), then land the exported state — with its
            // collected output intact — on whichever machine now owns
            // the patient.
            self.failover_locked(&mut routes, to);
            let target = routes.place(patient);
            if !routes.down[target] {
                landed = self.endpoints[target]
                    .import_patient(patient, state)
                    .map(|()| target);
            }
        }
        let machine = landed.map_err(|e| {
            // The export removed the session and no machine took it back:
            // the patient is admitted nowhere, so it leaves the table.
            routes.patients.remove(&patient);
            format!("patient {patient} stranded mid-handoff (import failed): {e}")
        })?;
        if let Some(route) = routes.patients.get_mut(&patient) {
            route.machine = machine;
        }
        Ok(())
    }

    /// Synchronization point across every live endpoint: flushes staged
    /// samples and drains outstanding acks, making [`stats`](Self::stats)
    /// exact. An endpoint that dies during the barrier triggers a
    /// failover instead of an error.
    ///
    /// # Errors
    /// Returns the first live endpoint's non-fatal transport error, if
    /// any.
    pub fn barrier(&self) -> Result<(), String> {
        self.on_live(RemoteIngest::barrier)
    }

    /// Runs `call` on every machine not yet down, fails over the ones it
    /// finds (or leaves) dead, and returns the first error a machine that
    /// is still alive gave.
    fn on_live(&self, call: impl Fn(&RemoteIngest) -> Result<(), String>) -> Result<(), String> {
        let mut dead = Vec::new();
        let mut first_err = Ok(());
        {
            let routes = self.routes.read().expect("routes lock");
            for (m, e) in self.endpoints.iter().enumerate() {
                if routes.down[m] {
                    continue;
                }
                let outcome = call(e);
                if e.is_dead() {
                    dead.push(m);
                } else if first_err.is_ok() {
                    first_err = outcome;
                }
            }
        }
        for m in dead {
            self.failover(m);
        }
        first_err
    }

    /// Cluster-wide counters: pushes counted at the router (so a dying
    /// endpoint cannot under-count) plus the sum of every endpoint's
    /// client-side stats (drop counts propagated from the servers
    /// through acks).
    pub fn stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for e in &self.endpoints {
            let s = e.stats();
            total.batches_flushed += s.batches_flushed;
            total.dropped_unknown += s.dropped_unknown;
        }
        total.samples_pushed = self.samples_pushed.load(Ordering::Relaxed);
        total
    }

    /// Admits a patient on its placed machine and starts its client-side
    /// mirror. If the placed machine is dead, it fails over first and the
    /// admit lands on the survivor.
    ///
    /// # Errors
    /// Returns the owning server's error, or — with the session finished
    /// on the server again — what is wrong with the meta it answered.
    pub fn admit(&self, patient: PatientId) -> Result<(), String> {
        let meta = self.on_owner(patient, |e| e.admit_meta(patient), |refused| refused)?;
        // A meta no mirror fits leaves no session behind on the owner.
        let state = PatientState::new(&meta).inspect_err(|_| {
            let _ = self.on_owner(patient, |e| e.finish(patient), |e| e);
        })?;
        let mut routes = self.routes.write().expect("routes lock");
        let machine = routes.place(patient);
        let mirror = Mutex::new(state);
        routes.patients.insert(patient, Route { machine, mirror });
        Ok(())
    }

    /// Stages one sample on the owning machine's client and mirrors it
    /// into the patient's entry. The routing table's read lock is held
    /// across the push so a concurrent [`rebalance`](Self::rebalance)
    /// cannot redirect the patient mid-sample, while pushes to different
    /// machines proceed in parallel (a blocked endpoint backpressures
    /// only its own producers, not the fleet). A push that exhausts the
    /// endpoint's reconnect budget triggers a failover; the sample is
    /// already in the mirror, so it survives the move.
    pub fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        self.samples_pushed.fetch_add(1, Ordering::Relaxed);
        let dead = {
            let routes = self.routes.read().expect("routes lock");
            let (m, entry) = routes.route(patient);
            if let Some(route) = entry {
                route
                    .mirror
                    .lock()
                    .expect("patient state")
                    .push(source, t, v);
            }
            self.endpoints[m].push(patient, source, t, v);
            self.endpoints[m].is_dead().then_some(m)
        };
        if let Some(m) = dead {
            self.failover(m);
        }
    }

    /// Flushes and polls every live machine, advancing each patient's
    /// mirror frontier and retiring its buffers to the margin — the
    /// client-side mirror of the servers' compaction.
    pub fn poll(&self) {
        {
            let routes = self.routes.read().expect("routes lock");
            for route in routes.patients.values() {
                route.mirror.lock().expect("patient state").advance();
            }
        }
        // A poll is fire-and-forget: there is no error to return.
        let _ = self.on_live(|e| {
            e.poll();
            Ok(())
        });
    }

    /// Ends a patient's stream on its owning machine. If the machine is
    /// dead, fails over and finishes on the survivor (output below the
    /// failover frontier was only on the dead machine and is gone).
    ///
    /// Whatever the answer, the patient's entry is dropped: a server
    /// ends the session on `Err` too (deferred errors are its last
    /// output), so a later failover must not bring the patient back.
    ///
    /// # Errors
    /// Returns the owning server's deferred errors.
    pub fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        let out = self.on_owner(patient, |e| e.finish(patient), |e| e);
        self.routes
            .write()
            .expect("routes lock")
            .patients
            .remove(&patient);
        out
    }

    /// The router's one retry rule: runs `call` on the machine owning
    /// `patient` (under the routing table's read lock, so a concurrent
    /// handoff cannot move the patient mid-call); if that fails because the
    /// machine is dead — including dying *mid-call* — fails it over and
    /// runs `call` on the survivor the patient re-homed to. With no
    /// survivor, the error is `no_survivor` of the dead machine's.
    fn on_owner<T>(
        &self,
        patient: PatientId,
        call: impl Fn(&RemoteIngest) -> Result<T, String>,
        no_survivor: impl FnOnce(String) -> String,
    ) -> Result<T, String> {
        let (machine, err) = {
            let routes = self.routes.read().expect("routes lock");
            let m = routes.place(patient);
            match call(&self.endpoints[m]) {
                Ok(done) => return Ok(done),
                Err(e) => (m, e),
            }
        };
        if !self.endpoints[machine].is_dead() {
            return Err(err);
        }
        self.failover(machine);
        let survivor = self.machine_of(patient);
        if survivor == machine {
            return Err(no_survivor(err));
        }
        call(&self.endpoints[survivor])
    }

    /// Closes every endpoint connection. Equivalent to dropping.
    pub fn shutdown(self) {}

    fn failover(&self, machine: usize) {
        let mut routes = self.routes.write().expect("routes lock");
        self.failover_locked(&mut routes, machine);
    }

    /// Declares a dead machine [`MachineState::Down`] and re-admits
    /// every patient it owned onto survivors from the client-side
    /// mirrors, healed from the shared store ([`rebuild`]) pass by pass.
    /// The machine's entries are taken out of the table and put back
    /// re-pointed once a survivor holds their session; with the write
    /// lock held, no call can see one missing. If a survivor dies during
    /// the re-admission it cascades: that machine is downed too and its
    /// patients (plus the ones still in flight) re-home onto whatever
    /// remains. A patient a live survivor refuses, or left with no live
    /// machine, is counted lost and leaves the table.
    fn failover_locked(&self, routes: &mut Routes, machine: usize) {
        let mut pending: Vec<(PatientId, Route)> = Vec::new();
        let mut to_down = vec![machine];
        while let Some(m) = to_down.pop() {
            if routes.down[m] || !self.endpoints[m].is_dead() {
                continue;
            }
            pending.extend(routes.take_down(m));
            self.failovers.fetch_add(1, Ordering::Relaxed);
            if routes.down.iter().all(|&d| d) {
                let lost = std::mem::take(&mut pending).len();
                self.patients_lost.fetch_add(lost as u64, Ordering::Relaxed);
                continue;
            }

            // Whoever a dying survivor refuses goes back into `pending`.
            let mut rest = std::mem::take(&mut pending).into_iter().peekable();
            while rest.peek().is_some() {
                let mut pass: Vec<_> = rest.by_ref().take(SCAN_PASS_PATIENTS).collect();
                // The write lock is held: each mirror is read unlocked.
                let mirrors: Vec<_> = pass
                    .iter_mut()
                    .map(|(p, route)| (*p, &*route.mirror.get_mut().expect("patient state")))
                    .collect();
                let handoffs = rebuild(self.store.as_ref(), &mirrors);
                for ((p, mut route), (_, handoff)) in pass.into_iter().zip(handoffs) {
                    let target = machines::walk_live(route.machine, &routes.down);
                    match self.endpoints[target].import_patient(p, handoff) {
                        Ok(()) => {
                            route.machine = target;
                            routes.patients.insert(p, route);
                            self.patients_failed_over.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) if self.endpoints[target].is_dead() => {
                            to_down.push(target);
                            pending.push((p, route));
                        }
                        Err(_) => {
                            self.patients_lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }
}

impl HistoryQueryApi for ClusterIngest {
    /// Routes each cohort patient's query to the machine owning it,
    /// with the same failover-and-retry the rest of the router applies:
    /// an owner dying mid-query downs the machine, re-homes its patients
    /// (the store directory is shared, so the survivor sees the same
    /// segments) and re-asks the survivor. Transport limits match
    /// [`RemoteIngest`]: only [`PipelineSpec`](crate::history::PipelineSpec)`::Live`
    /// (id `0`) and `Registered` pipelines can cross the wire.
    fn history(&self, query: HistoryQuery) -> Result<CohortReport, HistoryError> {
        history_over_wire(query, |p, t0, t1, warmup, pipeline| {
            self.on_owner(
                p,
                |e| e.history_query(p, t0, t1, warmup, pipeline),
                |_| format!("patient {p}: no live machine left to answer the history query"),
            )
        })
    }
}

impl Ingest for ClusterIngest {
    fn admit(&self, patient: PatientId) -> Result<(), String> {
        ClusterIngest::admit(self, patient)
    }

    fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        ClusterIngest::push(self, patient, source, t, v);
    }

    fn poll(&self) {
        ClusterIngest::poll(self);
    }

    fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        ClusterIngest::finish(self, patient)
    }

    fn stats(&self) -> IngestStats {
        ClusterIngest::stats(self)
    }
}

impl std::fmt::Debug for ClusterIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let routes = self.routes.read().expect("routes lock");
        f.debug_struct("ClusterIngest")
            .field("machines", &self.endpoints.len())
            .field("down", &routes.down)
            .field("admitted", &routes.patients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::SourceMeta;
    use lifestream_core::live::SourceSuffix;
    use lifestream_store::SegmentRecord;

    const PATIENT: PatientId = 9;

    /// One period-2 source with a 10-tick margin under 100-tick rounds.
    fn meta() -> SessionMeta {
        SessionMeta {
            round: 100,
            arity: 1,
            sources: vec![SourceMeta {
                offset: 0,
                period: 2,
                margin: 10,
            }],
        }
    }

    /// A mirror polled at frontier 100 — so retired to `100 - 10 = 90`,
    /// slot 45 — that holds only `values` from tick `from` on.
    fn mirror_holding(from: Tick, values: &[f32]) -> PatientState {
        let mut state = PatientState::new(&meta()).unwrap();
        state.buf.advance_to(100, None);
        for (k, &v) in values.iter().enumerate() {
            state.push(0, from + 2 * k as Tick, v);
        }
        state
    }

    /// A store holding slots `0..n` of the source, value = slot index.
    fn store_with(n: usize, shape: StreamShape) -> HistoryReader {
        HistoryReader::from_records(vec![SegmentRecord {
            patient: PATIENT,
            source: 0,
            shape,
            base_slot: 0,
            values: (0..n).map(|i| i as f32).collect(),
            ranges: vec![(0, 2 * n as Tick)],
        }])
    }

    fn healed(state: PatientState, reader: &HistoryReader) -> SourceSuffix {
        let mut snapshot = state.handoff(Some((reader, PATIENT))).snapshot;
        assert_eq!(snapshot.next_round, 100);
        snapshot.sources.remove(0)
    }

    #[test]
    fn store_heals_a_mirror_that_lost_samples() {
        // The dead machine retained [frontier - margin, ..) = [90, ..),
        // but the mirror lost everything below t = 96. The store covers
        // t < 100: the handoff must splice store samples over the hole
        // and keep the fresher mirror beyond it.
        let state = mirror_holding(96, &[-1.0, -2.0, -3.0]);
        let s = healed(state, &store_with(50, StreamShape::new(0, 2)));
        assert_eq!(s.base_slot, 45);
        assert_eq!(s.ranges, vec![(90, 102)]);
        // 90..96 from the store (values 45, 46, 47), 96.. from the mirror.
        assert_eq!(s.values, vec![45.0, 46.0, 47.0, -1.0, -2.0, -3.0]);
        assert_eq!(s.watermark, 102);
    }

    #[test]
    fn mirror_wins_over_store_on_overlap() {
        let state = mirror_holding(94, &[7.0]);
        let s = healed(state, &store_with(50, StreamShape::new(0, 2)));
        assert_eq!(s.ranges, vec![(90, 100)]);
        assert_eq!(s.values, vec![45.0, 46.0, 7.0, 48.0, 49.0]);
    }

    #[test]
    fn no_usable_store_history_degrades_to_the_mirror() {
        let state = mirror_holding(92, &[1.0, 2.0]);
        let alone = state.handoff(None).snapshot;
        assert_eq!(alone.sources[0].ranges, vec![(92, 96)]);
        // No spans for the patient, and spans on another grid (refused by
        // the overlay): both leave exactly the mirror's own export.
        for reader in [
            HistoryReader::from_records(Vec::new()),
            store_with(50, StreamShape::new(0, 4)),
        ] {
            assert_eq!(state.handoff(Some((&reader, PATIENT))).snapshot, alone);
        }
    }

    #[test]
    fn history_below_the_window_is_clipped() {
        // Everything durable ends before the retained window: the suffix
        // must come out empty at the retired horizon, not drag the whole
        // history into the import replay.
        let state = mirror_holding(100, &[]);
        let s = healed(state, &store_with(10, StreamShape::new(0, 2))); // t < 20
        assert!(s.values.is_empty() && s.ranges.is_empty());
        assert_eq!(s.base_slot, 45);
    }

    #[test]
    fn failover_heals_from_segments_past_a_corrupt_file_below_the_window() {
        let dir = std::env::temp_dir().join(format!("lss-failover-{}", std::process::id()));
        let writer = SharedStore::open(StoreConfig::new(&dir).flush_batch(0)).unwrap();
        let durable = store_with(50, StreamShape::new(0, 2));
        let mut sink = writer.sink_for(PATIENT);
        sink(lifestream_core::live::RetiredSpan {
            source: 0,
            shape: StreamShape::new(0, 2),
            base_slot: 0,
            values: (0..50).map(|i| i as f32).collect(),
            ranges: vec![(0, 100)],
        });
        // A corrupt file whose name says it covers `[lo, hi)`.
        let garbage = |seq: u64, lo: Tick, hi: Tick| {
            let name = format!("seg-{:016x}-{seq:08}-{lo:016x}-{hi:016x}.lss", 1);
            std::fs::write(dir.join(name), b"not a segment").unwrap();
        };
        // Wholly below the mirror's retained base (t = 90): the scan never
        // opens it.
        garbage(0, 0, 20);

        let state = mirror_holding(96, &[-1.0, -2.0, -3.0]);
        let store = SharedStore::open(StoreConfig::new(&dir)).unwrap();
        let (p, handoff) = rebuild(Some(&store), &[(PATIENT, &state)]).remove(0);
        assert_eq!(p, PATIENT);
        assert_eq!(
            handoff.snapshot,
            state.handoff(Some((&durable, PATIENT))).snapshot
        );
        assert_eq!(
            handoff.snapshot.sources[0].values,
            vec![45.0, 46.0, 47.0, -1.0, -2.0, -3.0]
        );

        // The same garbage inside the window fails the pass's scan, which
        // leaves the mirror alone.
        garbage(1, 80, 120);
        let (_, handoff) = rebuild(Some(&store), &[(PATIENT, &state)]).remove(0);
        assert_eq!(handoff.snapshot, state.handoff(None).snapshot);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn route(machine: usize) -> Route {
        let mirror = Mutex::new(PatientState::new(&meta()).unwrap());
        Route { machine, mirror }
    }

    #[test]
    fn a_patients_entry_wins_over_its_hash_home() {
        let mut routes = Routes::new(3);
        let home = machines::home(PATIENT, 3);
        assert_eq!(routes.place(PATIENT), home, "no entry: the hash places");
        let away = (home + 1) % 3;
        routes.patients.insert(PATIENT, route(away));
        assert_eq!(routes.place(PATIENT), away);
    }

    #[test]
    fn a_failover_repoints_the_entry_to_a_survivor() {
        let mut routes = Routes::new(3);
        routes.patients.insert(PATIENT, route(1));
        routes.patients.insert(PATIENT + 1, route(2));
        let mut taken = routes.take_down(1);
        assert!(routes.down[1]);
        assert_eq!(taken.len(), 1, "only machine 1's patient leaves");
        // As the failover does once the survivor holds the session.
        let (p, mut route) = taken.remove(0);
        route.machine = machines::walk_live(route.machine, &routes.down);
        routes.patients.insert(p, route);
        assert_eq!(
            (p, routes.patients[&p].machine, routes.place(p)),
            (PATIENT, 2, 2)
        );
        // A second death takes both entries; the walk wraps to machine 0.
        let taken = routes.take_down(2);
        assert!(routes.patients.is_empty() && taken.len() == 2);
        assert!(taken
            .iter()
            .all(|(_, r)| machines::walk_live(r.machine, &routes.down) == 0));
    }

    #[test]
    fn malformed_session_meta_is_refused_not_mirrored() {
        let mut bad = meta();
        bad.sources[0].period = 0;
        assert!(PatientState::new(&bad).is_err());
        let mut bad = meta();
        bad.round = 0;
        assert!(PatientState::new(&bad).is_err());
    }
}
