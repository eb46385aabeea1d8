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
use crate::machines::{MachineState, PlacementTable};
use crate::sharded::{Ingest, IngestStats, PatientHandoff, PatientId, SessionMeta};

use super::client::{RemoteConfig, RemoteHealth, RemoteIngest};

/// One machine's routing state plus its transport recovery counters.
#[derive(Debug, Clone, Copy)]
pub struct MachineHealth {
    /// Routing state in the placement table.
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

/// Hash-partitions patients across a fleet of
/// [`ShardServer`](super::ShardServer)s and routes every ingest call to
/// the owning machine — the cross-machine face of the same [`Ingest`]
/// protocol.
///
/// Placement starts as the [`PlacementTable`]'s balanced hash and stays
/// a *live* table: [`rebalance`](Self::rebalance) moves one patient's
/// session between machines mid-stream with the cooperative handoff
/// protocol (flush + drain on the source, margin-suffix state transfer,
/// re-pin in the table), losing zero samples and zero already-collected
/// output.
///
/// # Failover
///
/// Every admitted patient additionally keeps a *client-side* mirror of
/// its session's buffers: the margin suffix of each source (the same
/// bounded window the server retains, in the same type) plus the round
/// frontier of the last poll. When an
/// endpoint exhausts its reconnect budget and goes dead, the machine is
/// declared [`MachineState::Down`] in the table and each patient it
/// owned is re-admitted on a survivor by importing that mirror — the
/// warm-up replay suppresses output below the frontier, exactly like a
/// [`rebalance`](Self::rebalance) import. A hard-killed machine
/// therefore never loses a patient; what *is* lost is bounded: output
/// rounds below the failover frontier that were only collected on the
/// dead machine, and its sessions' deferred per-sample errors.
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
    /// serializing the whole fleet behind a mutex.
    table: RwLock<PlacementTable>,
    /// Client-side replay state per admitted patient. Lock order:
    /// `table` before `patients` before a patient's mutex.
    patients: RwLock<HashMap<PatientId, Mutex<PatientState>>>,
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
        let table = RwLock::new(PlacementTable::new(endpoints.len()));
        Ok(Self {
            endpoints,
            store,
            table,
            patients: RwLock::new(HashMap::new()),
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
        self.table.read().expect("table lock").place(patient)
    }

    /// Per-machine states plus the cluster's failover counters.
    pub fn health(&self) -> ClusterHealth {
        let machines: Vec<MachineHealth> = {
            let table = self.table.read().expect("table lock");
            self.endpoints
                .iter()
                .enumerate()
                .map(|(m, e)| MachineHealth {
                    state: table.state(m),
                    remote: e.health(),
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
    /// errors) crosses to the destination, and the routing table re-pins
    /// the patient. Pushes issued after this returns route to the new
    /// machine; the resumed session emits byte-identically.
    ///
    /// A machine death mid-handoff is recovered, not surfaced: if the
    /// *source* dies during the export, the whole machine fails over
    /// (client-side mirrors re-admit its patients on survivors); if the
    /// *destination* dies during the import, it is declared down and the
    /// already-exported state — still in hand — lands on whichever
    /// machine then owns the patient, with zero loss.
    ///
    /// # Errors
    /// Returns a message for an out-of-range or down machine, an unknown
    /// or poisoned patient, or an import refusal with every involved
    /// machine still alive — only then is the patient stranded
    /// un-admitted (the export already removed it), and the error says
    /// so explicitly.
    pub fn rebalance(&self, patient: PatientId, to: usize) -> Result<(), String> {
        if to >= self.endpoints.len() {
            return Err(format!(
                "machine {to} out of range ({} endpoints)",
                self.endpoints.len()
            ));
        }
        let mut table = self.table.write().expect("table lock");
        if table.state(to) == MachineState::Down {
            return Err(format!("machine {to} is down"));
        }
        let from = table.place(patient);
        if from == to {
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
                    self.failover_locked(&mut table, from);
                    return Ok(());
                }
                return Err(e);
            }
        };
        let stranded =
            |e: String| format!("patient {patient} stranded mid-handoff (import failed): {e}");
        let Err(refused) = self.endpoints[to].import_patient(patient, state.clone()) else {
            table.assign(patient, to);
            return Ok(());
        };
        if self.endpoints[to].is_dead() {
            // Destination died mid-import: down it (re-homing any
            // patients it owned), then land the exported state — with its
            // collected output intact — on whichever machine now owns
            // the patient.
            self.failover_locked(&mut table, to);
            let target = table.place(patient);
            if table.state(target) != MachineState::Down {
                self.endpoints[target]
                    .import_patient(patient, state)
                    .map_err(stranded)?;
                table.assign(patient, target);
                return Ok(());
            }
        }
        Err(stranded(refused))
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
            let table = self.table.read().expect("table lock");
            for (m, e) in self.endpoints.iter().enumerate() {
                if table.state(m) == MachineState::Down {
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
        self.note_degraded();
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
        self.patients
            .write()
            .expect("patients lock")
            .insert(patient, Mutex::new(state));
        Ok(())
    }

    /// Stages one sample on the owning machine's client and mirrors it
    /// into the patient's session buffers. The table's read lock is held
    /// across the push so a concurrent [`rebalance`](Self::rebalance)
    /// cannot redirect the patient mid-sample, while pushes to different
    /// machines proceed in parallel (a blocked endpoint backpressures
    /// only its own producers, not the fleet). A push that exhausts the
    /// endpoint's reconnect budget triggers a failover; the sample is
    /// already in the mirror, so it survives the move.
    pub fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        self.samples_pushed.fetch_add(1, Ordering::Relaxed);
        let dead = {
            let table = self.table.read().expect("table lock");
            let m = table.place(patient);
            if let Some(ps) = self.patients.read().expect("patients lock").get(&patient) {
                ps.lock().expect("patient state").push(source, t, v);
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
            let patients = self.patients.read().expect("patients lock");
            for ps in patients.values() {
                ps.lock().expect("patient state").advance();
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
    /// Whatever the answer, the patient's mirror is dropped: a server
    /// ends the session on `Err` too (deferred errors are its last
    /// output), so a later failover must not bring the patient back.
    ///
    /// # Errors
    /// Returns the owning server's deferred errors.
    pub fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        let out = self.on_owner(patient, |e| e.finish(patient), |e| e);
        self.patients
            .write()
            .expect("patients lock")
            .remove(&patient);
        out
    }

    /// The router's one retry rule: runs `call` on the machine owning
    /// `patient` (under the table's read lock, so a concurrent handoff
    /// cannot move the patient mid-call); if that fails because the
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
            let table = self.table.read().expect("table lock");
            let m = table.place(patient);
            match call(&self.endpoints[m]) {
                Ok(done) => return Ok(done),
                Err(e) => (m, e),
            }
        };
        if !self.endpoints[machine].is_dead() {
            return Err(err);
        }
        self.failover(machine);
        let survivor = self.table.read().expect("table lock").place(patient);
        if survivor == machine {
            return Err(no_survivor(err));
        }
        call(&self.endpoints[survivor])
    }

    /// Closes every endpoint connection. Equivalent to dropping.
    pub fn shutdown(self) {}

    fn failover(&self, machine: usize) {
        let mut table = self.table.write().expect("table lock");
        self.failover_locked(&mut table, machine);
    }

    /// Declares a dead machine [`MachineState::Down`] and re-admits
    /// every patient it owned onto survivors from the client-side
    /// mirrors, healed from the shared store ([`rebuild`]) pass by pass.
    /// If a survivor dies during the re-admission it cascades: that
    /// machine is downed too and its patients (plus the ones still in
    /// flight) re-home onto whatever remains. With no live machine left,
    /// remaining patients are counted lost and every subsequent call
    /// surfaces the transport error.
    fn failover_locked(&self, table: &mut PlacementTable, machine: usize) {
        let mut pending: Vec<PatientId> = Vec::new();
        let mut to_down = vec![machine];
        while let Some(m) = to_down.pop() {
            if table.state(m) == MachineState::Down || !self.endpoints[m].is_dead() {
                continue;
            }
            // Owned set under the *old* placement, before the state flip
            // reroutes place().
            {
                let patients = self.patients.read().expect("patients lock");
                let owned: Vec<PatientId> = patients
                    .keys()
                    .copied()
                    .filter(|&p| table.place(p) == m && !pending.contains(&p))
                    .collect();
                pending.extend(owned);
            }
            table.set_state(m, MachineState::Down);
            self.failovers.fetch_add(1, Ordering::Relaxed);
            if table.live_machines() == 0 {
                let lost = std::mem::take(&mut pending).len();
                self.patients_lost.fetch_add(lost as u64, Ordering::Relaxed);
                continue;
            }

            let mut still_pending = Vec::new();
            for pass in pending.chunks(SCAN_PASS_PATIENTS) {
                for (p, handoff) in self.handoffs(pass) {
                    let target = table.place(p);
                    match self.endpoints[target].import_patient(p, handoff) {
                        Ok(()) => {
                            table.assign(p, target);
                            self.patients_failed_over.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) if self.endpoints[target].is_dead() => {
                            to_down.push(target);
                            still_pending.push(p);
                        }
                        Err(_) => {
                            self.patients_lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            pending = still_pending;
        }
    }

    /// The [`rebuild`] handoffs of the patients of `pass` that are still
    /// mirrored (a concurrent `finish` may have dropped one).
    fn handoffs(&self, pass: &[PatientId]) -> Vec<(PatientId, PatientHandoff)> {
        let patients = self.patients.read().expect("patients lock");
        let held: Vec<_> = pass
            .iter()
            .filter_map(|p| Some((*p, patients.get(p)?.lock().expect("patient state"))))
            .collect();
        let mirrors: Vec<_> = held.iter().map(|(p, state)| (*p, &**state)).collect();
        rebuild(self.store.as_ref(), &mirrors)
    }

    /// Marks endpoints that have survived at least one reconnect as
    /// [`MachineState::Degraded`] — still routable, but visibly shaky in
    /// [`health`](Self::health).
    fn note_degraded(&self) {
        let shaky: Vec<usize> = {
            let table = self.table.read().expect("table lock");
            self.endpoints
                .iter()
                .enumerate()
                .filter(|(m, e)| {
                    table.state(*m) == MachineState::Up && !e.is_dead() && e.health().reconnects > 0
                })
                .map(|(m, _)| m)
                .collect()
        };
        if shaky.is_empty() {
            return;
        }
        let mut table = self.table.write().expect("table lock");
        for m in shaky {
            if table.state(m) == MachineState::Up {
                table.set_state(m, MachineState::Degraded);
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
        let table = self.table.read().expect("table lock");
        f.debug_struct("ClusterIngest")
            .field("machines", &self.endpoints.len())
            .field("live", &table.live_machines())
            .field("overridden", &table.overridden())
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
