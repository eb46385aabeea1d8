//! The cluster router: one ingest front end over N machine endpoints,
//! with live partition handoff between them and automatic patient
//! failover when a machine dies.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use lifestream_core::exec::OutputCollector;
use lifestream_core::live::{SessionSnapshot, SourceSuffix};
use lifestream_core::time::Tick;
use lifestream_store::HistoryReader;

use crate::history::{CohortReport, HistoryError, HistoryQuery, HistoryQueryApi, PipelineSpec};
use crate::machines::{MachineState, PlacementTable};
use crate::sharded::{Ingest, IngestStats, PatientHandoff, PatientId, SessionMeta, SourceMeta};

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

/// Client-side replay buffer for one source: the on-grid sample tail at
/// or above the retirement horizon, mirroring exactly what the owning
/// server retains (`frontier - margin`), plus the source watermark.
struct SourceTail {
    meta: SourceMeta,
    /// Accepted samples at or above `retired_to`, ascending by time.
    tail: VecDeque<(Tick, f32)>,
    /// Largest accepted sample time + period (mirrors the server's).
    watermark: Tick,
    /// Grid-aligned horizon: everything below has been retired.
    retired_to: Tick,
}

impl SourceTail {
    fn new(meta: SourceMeta) -> Self {
        Self {
            meta,
            tail: VecDeque::new(),
            watermark: meta.offset,
            retired_to: meta.offset,
        }
    }

    /// Mirrors `LiveSource::push` acceptance: on-grid, at or above the
    /// retained horizon, no duplicate. Rejected samples would have been
    /// rejected (deferred) by the server too, so the tail stays
    /// byte-equivalent to the server's retained suffix.
    fn record(&mut self, t: Tick, v: f32) {
        let SourceMeta { offset, period, .. } = self.meta;
        let newest = self.tail.back().map(|&(last, _)| last);
        // The slot right after the newest entry — every sample of a
        // gapless in-order feed — is on the grid and above the horizon
        // because that entry is: nothing to check, nowhere to search.
        if newest.and_then(|last| last.checked_add(period)) != Some(t) {
            if period <= 0
                || t < offset
                || (t - offset).rem_euclid(period) != 0
                || t < self.retired_to
            {
                return;
            }
            if newest.is_some_and(|last| t <= last) {
                // Out of order: a late sample fills its hole, a duplicate
                // is dropped (the server rejects the re-push as well).
                if let Err(pos) = self.tail.binary_search_by_key(&t, |&(ts, _)| ts) {
                    self.tail.insert(pos, (t, v));
                }
                return;
            }
        }
        self.tail.push_back((t, v));
        self.watermark = self.watermark.max(t + period);
    }

    /// Retires the tail below `frontier - margin`, grid-aligned down —
    /// the same compaction rule `LiveSession` applies after a poll.
    fn retire_below(&mut self, frontier: Tick) {
        let SourceMeta {
            offset,
            period,
            margin,
        } = self.meta;
        if period <= 0 {
            return;
        }
        let cutoff = frontier.saturating_sub(margin).max(offset);
        let aligned = offset + (cutoff - offset).div_euclid(period) * period;
        if aligned <= self.retired_to {
            return;
        }
        self.retired_to = aligned;
        while let Some(&(t, _)) = self.tail.front() {
            if t < aligned {
                self.tail.pop_front();
            } else {
                break;
            }
        }
    }

    /// Densifies the tail into the wire suffix shape: values from the
    /// first buffered slot, presence ranges masking the gaps.
    fn suffix(&self, next_round: Tick) -> SourceSuffix {
        let SourceMeta { offset, period, .. } = self.meta;
        if period <= 0 {
            return SourceSuffix {
                base_slot: 0,
                watermark: self.watermark,
                values: Vec::new(),
                ranges: Vec::new(),
            };
        }
        if let (Some(&(t0, _)), Some(&(tn, _))) = (self.tail.front(), self.tail.back()) {
            let base_slot = ((t0 - offset) / period) as u64;
            let nslots = ((tn - t0) / period) as usize + 1;
            let mut values = vec![0.0_f32; nslots];
            let mut ranges: Vec<(Tick, Tick)> = Vec::new();
            for &(t, v) in &self.tail {
                values[((t - t0) / period) as usize] = v;
                match ranges.last_mut() {
                    Some(r) if r.1 == t => r.1 = t + period,
                    _ => ranges.push((t, t + period)),
                }
            }
            SourceSuffix {
                base_slot,
                watermark: self.watermark,
                values,
                ranges,
            }
        } else {
            // No buffered samples: park the base at the first grid slot
            // at or above the frontier. That keeps the import's warm-up
            // replay window tight, and stays at or below the watermark
            // (every source watermark is >= the frontier), so the next
            // push still clears the imported horizon.
            let start = next_round.max(offset);
            let base_slot = ((start - offset) + period - 1).div_euclid(period) as u64;
            SourceSuffix {
                base_slot,
                watermark: self.watermark,
                values: Vec::new(),
                ranges: Vec::new(),
            }
        }
    }
}

/// Builds one source's failover suffix, preferring durable segment
/// history over the client-side replay tail: the store's densified
/// history and the tail are merged sample-by-sample (the tail wins on
/// overlap — it is at least as fresh), then clipped to the retained
/// window `[align_down(frontier - margin), …)` — the same window the
/// dead machine's live session held. A tail that lost samples (a client
/// mirror truncated by a crash or restart) is thereby healed from the
/// segments, as long as every retired span reached the store.
fn suffix_with_store(
    meta: SourceMeta,
    history: Option<&lifestream_store::DenseHistory>,
    tail: &VecDeque<(Tick, f32)>,
    watermark: Tick,
    frontier: Tick,
) -> SourceSuffix {
    let SourceMeta {
        offset,
        period,
        margin,
    } = meta;
    if period <= 0 {
        return SourceSuffix {
            base_slot: 0,
            watermark,
            values: Vec::new(),
            ranges: Vec::new(),
        };
    }
    let cutoff = {
        let c = frontier.saturating_sub(margin).max(offset);
        offset + (c - offset).div_euclid(period) * period
    };
    let mut samples: BTreeMap<Tick, f32> = BTreeMap::new();
    if let Some((values, ranges)) = history {
        for &(s, e) in ranges {
            // Segment presence ranges start on the grid and the cutoff
            // is grid-aligned, so their max is on the grid too.
            let mut t = s.max(cutoff);
            while t < e {
                if let Some(&v) = values.get(((t - offset) / period) as usize) {
                    samples.insert(t, v);
                }
                t += period;
            }
        }
    }
    for &(t, v) in tail {
        if t >= cutoff {
            samples.insert(t, v);
        }
    }
    if let (Some((&t0, _)), Some((&tn, _))) = (samples.first_key_value(), samples.last_key_value())
    {
        let base_slot = ((t0 - offset) / period) as u64;
        let nslots = ((tn - t0) / period) as usize + 1;
        let mut values = vec![0.0_f32; nslots];
        let mut ranges: Vec<(Tick, Tick)> = Vec::new();
        let mut wm = watermark;
        for (&t, &v) in &samples {
            values[((t - t0) / period) as usize] = v;
            match ranges.last_mut() {
                Some(r) if r.1 == t => r.1 = t + period,
                _ => ranges.push((t, t + period)),
            }
            wm = wm.max(t + period);
        }
        SourceSuffix {
            base_slot,
            watermark: wm,
            values,
            ranges,
        }
    } else {
        let start = frontier.max(offset);
        let base_slot = ((start - offset) + period - 1).div_euclid(period) as u64;
        SourceSuffix {
            base_slot,
            watermark,
            values: Vec::new(),
            ranges: Vec::new(),
        }
    }
}

/// Client-side mirror of one patient's live session: enough bounded
/// state (`O(round + margin + poll lag)` per source) to re-admit the
/// patient on a survivor if its machine dies.
struct PatientState {
    round: Tick,
    arity: usize,
    sources: Vec<SourceTail>,
    /// Round frontier at the last poll: rounds below it are considered
    /// emitted, so a failover resumes (output-suppressed warm-up, same
    /// as a handoff import) from here.
    frontier: Tick,
}

impl PatientState {
    fn new(meta: &SessionMeta) -> Self {
        let mut state = Self {
            round: meta.round.max(1),
            arity: meta.arity.max(1),
            sources: meta.sources.iter().copied().map(SourceTail::new).collect(),
            frontier: 0,
        };
        state.advance();
        state
    }

    /// Recomputes the processed-round frontier from the source
    /// watermarks and retires every tail the source's margin below it —
    /// called at each poll, mirroring the server's compaction.
    fn advance(&mut self) {
        let wm = self.sources.iter().map(|s| s.watermark).min().unwrap_or(0);
        let frontier = (wm.div_euclid(self.round) * self.round).max(0);
        if frontier > self.frontier {
            self.frontier = frontier;
        }
        for s in &mut self.sources {
            s.retire_below(self.frontier);
        }
    }

    /// Builds a re-admission handoff: margin suffix plus the frontier,
    /// with an empty output collector (output collected on the dead
    /// machine is gone; the survivor re-emits from the frontier). With a
    /// store attached, each source's suffix is rebuilt from the durable
    /// segments overlaid with the replay tail ([`suffix_with_store`])
    /// instead of the tail alone.
    fn handoff(&self, store: Option<(&HistoryReader, PatientId)>) -> PatientHandoff {
        let sources = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| match store {
                Some((reader, patient)) => {
                    let history = reader.source_history(patient, i).and_then(Result::ok);
                    suffix_with_store(
                        s.meta,
                        history.as_ref(),
                        &s.tail,
                        s.watermark,
                        self.frontier,
                    )
                }
                None => s.suffix(self.frontier),
            })
            .collect();
        PatientHandoff {
            snapshot: SessionSnapshot {
                next_round: self.frontier,
                sources,
            },
            output: OutputCollector::new(self.arity),
            errors: Vec::new(),
        }
    }

    fn record(&mut self, source: usize, t: Tick, v: f32) {
        if let Some(s) = self.sources.get_mut(source) {
            s.record(t, v);
        }
    }
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
/// Every admitted patient additionally keeps a *client-side* replay
/// tail: the margin suffix of each source (the same bounded window the
/// server retains) plus the round frontier of the last poll. When an
/// endpoint exhausts its reconnect budget and goes dead, the machine is
/// declared [`MachineState::Down`] in the table and each patient it
/// owned is re-admitted on a survivor by importing that tail — the
/// warm-up replay suppresses output below the frontier, exactly like a
/// [`rebalance`](Self::rebalance) import. A hard-killed machine
/// therefore never loses a patient; what *is* lost is bounded: output
/// rounds below the failover frontier that were only collected on the
/// dead machine, and its sessions' deferred per-sample errors.
///
/// With a shared tiered store attached
/// ([`connect_with_store`](Self::connect_with_store)), failover prefers
/// **segment rebuild** over the replay tail alone: each re-admitted
/// source suffix is stitched from the durable segments the dead machine
/// spilled, overlaid with the client tail — a truncated tail is healed
/// from disk — and [`history_query`](Self::history_query) re-runs any
/// patient's pipeline over its full durable history on whichever machine
/// currently owns it.
pub struct ClusterIngest {
    endpoints: Vec<RemoteIngest>,
    /// Shared tiered-store directory, when every machine spills to the
    /// same storage; read at failover to rebuild sessions from segments.
    store_dir: Option<PathBuf>,
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
    /// path enables segment-preferred failover rebuilds; retrospective
    /// queries ([`history_query`](Self::history_query)) work either way,
    /// since they run server-side.
    ///
    /// # Errors
    /// Propagates the first connection failure; requires at least one
    /// endpoint.
    pub fn connect_with_store<A: ToSocketAddrs>(
        addrs: &[A],
        cfg: RemoteConfig,
        store_dir: impl Into<PathBuf>,
    ) -> io::Result<Self> {
        Self::connect_inner(addrs, cfg, Some(store_dir.into()))
    }

    fn connect_inner<A: ToSocketAddrs>(
        addrs: &[A],
        cfg: RemoteConfig,
        store_dir: Option<PathBuf>,
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
            store_dir,
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
    /// (client-side tails re-admit its patients on survivors); if the
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
                    // landed server-side, the client tail re-admits the
                    // patient (and everything else the machine owned) on
                    // a survivor.
                    self.failover_locked(&mut table, from);
                    return Ok(());
                }
                return Err(e);
            }
        };
        match self.endpoints[to].import_patient(patient, state.clone()) {
            Ok(()) => {
                table.assign(patient, to);
                Ok(())
            }
            Err(e) => {
                if self.endpoints[to].is_dead() {
                    // Destination died mid-import: down it (re-homing any
                    // patients it owned), then land the exported state —
                    // with its collected output intact — on whichever
                    // machine now owns the patient.
                    self.failover_locked(&mut table, to);
                    let target = table.place(patient);
                    if table.state(target) != MachineState::Down {
                        return match self.endpoints[target].import_patient(patient, state) {
                            Ok(()) => {
                                table.assign(patient, target);
                                Ok(())
                            }
                            Err(e2) => Err(format!(
                                "patient {patient} stranded mid-handoff (import failed): {e2}"
                            )),
                        };
                    }
                }
                Err(format!(
                    "patient {patient} stranded mid-handoff (import failed): {e}"
                ))
            }
        }
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
        let mut dead = Vec::new();
        let mut first_err = None;
        {
            let table = self.table.read().expect("table lock");
            for (m, e) in self.endpoints.iter().enumerate() {
                if table.state(m) == MachineState::Down {
                    continue;
                }
                if let Err(err) = e.barrier() {
                    if e.is_dead() {
                        dead.push(m);
                    } else if first_err.is_none() {
                        first_err = Some(err);
                    }
                }
            }
        }
        for m in dead {
            self.failover(m);
        }
        self.note_degraded();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
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
    /// replay tail. If the placed machine is dead, it fails over first
    /// and the admit lands on the survivor.
    ///
    /// # Errors
    /// Returns the owning server's error.
    pub fn admit(&self, patient: PatientId) -> Result<(), String> {
        let (machine, refused) = {
            let table = self.table.read().expect("table lock");
            let m = table.place(patient);
            match self.endpoints[m].admit_meta(patient) {
                Ok(meta) => {
                    drop(table);
                    self.register(patient, &meta);
                    return Ok(());
                }
                Err(e) => (m, e),
            }
        };
        if !self.endpoints[machine].is_dead() {
            return Err(refused);
        }
        self.failover(machine);
        let survivor = self.table.read().expect("table lock").place(patient);
        if survivor == machine {
            return Err(refused);
        }
        let meta = self.endpoints[survivor].admit_meta(patient)?;
        self.register(patient, &meta);
        Ok(())
    }

    /// Stages one sample on the owning machine's client and mirrors it
    /// into the patient's replay tail. The table's read lock is held
    /// across the push so a concurrent [`rebalance`](Self::rebalance)
    /// cannot redirect the patient mid-sample, while pushes to different
    /// machines proceed in parallel (a blocked endpoint backpressures
    /// only its own producers, not the fleet). A push that exhausts the
    /// endpoint's reconnect budget triggers a failover; the sample is
    /// already in the tail, so it survives the move.
    pub fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        self.samples_pushed.fetch_add(1, Ordering::Relaxed);
        let dead = {
            let table = self.table.read().expect("table lock");
            let m = table.place(patient);
            if let Some(ps) = self.patients.read().expect("patients lock").get(&patient) {
                ps.lock().expect("patient state").record(source, t, v);
            }
            self.endpoints[m].push(patient, source, t, v);
            self.endpoints[m].is_dead().then_some(m)
        };
        if let Some(m) = dead {
            self.failover(m);
        }
    }

    /// Flushes and polls every live machine, advancing each patient's
    /// replay frontier and retiring its tails to the margin — the
    /// client-side mirror of the servers' compaction.
    pub fn poll(&self) {
        {
            let patients = self.patients.read().expect("patients lock");
            for ps in patients.values() {
                ps.lock().expect("patient state").advance();
            }
        }
        let mut dead = Vec::new();
        {
            let table = self.table.read().expect("table lock");
            for (m, e) in self.endpoints.iter().enumerate() {
                if table.state(m) == MachineState::Down {
                    continue;
                }
                e.poll();
                if e.is_dead() {
                    dead.push(m);
                }
            }
        }
        for m in dead {
            self.failover(m);
        }
        self.note_degraded();
    }

    /// Ends a patient's stream on its owning machine. If the machine is
    /// dead, fails over and finishes on the survivor (output below the
    /// failover frontier was only on the dead machine and is gone).
    ///
    /// # Errors
    /// Returns the owning server's deferred errors.
    pub fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        let machine = {
            let table = self.table.read().expect("table lock");
            let m = table.place(patient);
            match self.endpoints[m].finish(patient) {
                Ok(out) => {
                    drop(table);
                    self.unregister(patient);
                    return Ok(out);
                }
                Err(e) => {
                    if !self.endpoints[m].is_dead() {
                        return Err(e);
                    }
                    m
                }
            }
        };
        self.failover(machine);
        let survivor = self.table.read().expect("table lock").place(patient);
        let out = self.endpoints[survivor].finish(patient)?;
        self.unregister(patient);
        Ok(out)
    }

    /// Re-runs a pipeline over a patient's durable history (segments +
    /// write buffer + live suffix), clipped to `[t0, t1)`, on the
    /// machine currently owning the patient; live ingest on that
    /// patient continues. `pipeline` names a server-side registry id
    /// (`0` = the live pipeline). If the owner is dead — including dying
    /// *mid-query* — it fails over first (the store directory is shared,
    /// so the survivor sees the same segments) and retries on the new
    /// owner. Most callers want the typed
    /// [`HistoryQueryApi`](crate::history::HistoryQueryApi) surface
    /// instead.
    ///
    /// # Errors
    /// Returns the owning server's error (no store attached, bad range,
    /// unknown patient, unregistered pipeline) or the transport error
    /// when no survivor remains.
    pub fn history_query(
        &self,
        patient: PatientId,
        t0: Tick,
        t1: Tick,
        warmup: Tick,
        pipeline: u32,
    ) -> Result<OutputCollector, String> {
        let machine = {
            let table = self.table.read().expect("table lock");
            let m = table.place(patient);
            match self.endpoints[m].history_query(patient, t0, t1, warmup, pipeline) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    if !self.endpoints[m].is_dead() {
                        return Err(e);
                    }
                    m
                }
            }
        };
        self.failover(machine);
        let survivor = self.table.read().expect("table lock").place(patient);
        if survivor == machine {
            return Err(format!(
                "patient {patient}: no live machine left to answer the history query"
            ));
        }
        self.endpoints[survivor].history_query(patient, t0, t1, warmup, pipeline)
    }

    /// Closes every endpoint connection. Equivalent to dropping.
    pub fn shutdown(self) {}

    fn register(&self, patient: PatientId, meta: &SessionMeta) {
        self.patients
            .write()
            .expect("patients lock")
            .insert(patient, Mutex::new(PatientState::new(meta)));
    }

    fn unregister(&self, patient: PatientId) {
        self.patients
            .write()
            .expect("patients lock")
            .remove(&patient);
    }

    fn failover(&self, machine: usize) {
        let mut table = self.table.write().expect("table lock");
        self.failover_locked(&mut table, machine);
    }

    /// Declares a dead machine [`MachineState::Down`] and re-admits
    /// every patient it owned onto survivors from the client-side replay
    /// tails. If a survivor dies during the re-admission it cascades:
    /// that machine is downed too and its patients (plus the ones still
    /// in flight) re-home onto whatever remains. With no live machine
    /// left, remaining patients are counted lost and every subsequent
    /// call surfaces the transport error.
    fn failover_locked(&self, table: &mut PlacementTable, machine: usize) {
        // Fresh view of the shared segments: everything the dead machine
        // flushed is durable and preferred over the replay tails.
        let reader = self
            .store_dir
            .as_ref()
            .and_then(|d| HistoryReader::open(d).ok());
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

            let mut still_pending = Vec::new();
            for p in pending.drain(..) {
                if table.live_machines() == 0 {
                    self.patients_lost.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let handoff = {
                    let patients = self.patients.read().expect("patients lock");
                    match patients.get(&p) {
                        Some(ps) => ps
                            .lock()
                            .expect("patient state")
                            .handoff(reader.as_ref().map(|r| (r, p))),
                        None => continue,
                    }
                };
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
            pending = still_pending;
        }
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
    /// an owner dying mid-query downs the machine, re-homes its
    /// patients, and re-asks the survivor. Per-patient results come
    /// back in the order the cohort named them. Transport limits match
    /// [`RemoteIngest`]: only [`PipelineSpec::Live`] (id `0`) and
    /// [`PipelineSpec::Registered`] pipelines can cross the wire.
    fn history(&self, query: HistoryQuery) -> Result<CohortReport, HistoryError> {
        let (range, patients, warmup, spec) = query.into_parts();
        if patients.is_empty() {
            return Err(HistoryError::NoPatients);
        }
        HistoryQuery::validate_range(range.0, range.1)?;
        let pipeline = match spec {
            PipelineSpec::Live => 0,
            PipelineSpec::Registered(id) => id,
            PipelineSpec::Compiled(_) | PipelineSpec::Factory(_) => {
                return Err(HistoryError::Remote(
                    "a compiled pipeline cannot travel over the wire; \
                     register it on the servers and query by id"
                        .into(),
                ))
            }
        };
        let mut outputs = Vec::with_capacity(patients.len());
        for &p in &patients {
            let out = self
                .history_query(p, range.0, range.1, warmup, pipeline)
                .map_err(HistoryError::Remote)?;
            outputs.push((p, out));
        }
        Ok(CohortReport::new(range, outputs))
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

    fn meta() -> SourceMeta {
        SourceMeta {
            offset: 0,
            period: 2,
            margin: 10,
        }
    }

    fn dense_history(n: usize) -> (Vec<f32>, Vec<(Tick, Tick)>) {
        ((0..n).map(|i| i as f32).collect(), vec![(0, 2 * n as Tick)])
    }

    #[test]
    fn tail_records_what_the_server_would_accept() {
        // In-order samples, a gap, a late sample filling a hole, a
        // duplicate, an off-grid tick and one below the retired horizon:
        // the tail must hold exactly the accepted ones, sorted.
        let mut tail = SourceTail::new(meta());
        for t in [0, 2, 4, 10, 12, 6, 12, 7, 14, 16] {
            tail.record(t, t as f32);
        }
        let ticks = |tail: &SourceTail| tail.tail.iter().map(|&(t, _)| t).collect::<Vec<_>>();
        assert_eq!(ticks(&tail), [0, 2, 4, 6, 10, 12, 14, 16]);
        assert_eq!(tail.watermark, 18);
        tail.retire_below(24); // margin 10: everything below 14 goes
        tail.record(8, 8.0);
        tail.record(18, 18.0);
        assert_eq!(ticks(&tail), [14, 16, 18]);
        assert_eq!(tail.watermark, 20);
    }

    #[test]
    fn store_heals_a_truncated_tail() {
        // The dead machine retained [frontier - margin, ..) = [90, ..),
        // but the client tail lost everything below t = 96 (a restarted
        // mirror). The store's densified history covers slots 0..50
        // (t < 100): the rebuilt suffix must splice store samples over
        // the hole and keep the fresher tail beyond it.
        let tail: VecDeque<(Tick, f32)> = vec![(96, -1.0), (98, -2.0), (100, -3.0)].into();
        let (values, ranges) = dense_history(50);
        let s = suffix_with_store(meta(), Some(&(values, ranges)), &tail, 102, 100);
        // Window starts at 100 - 10 = 90 → slot 45.
        assert_eq!(s.base_slot, 45);
        assert_eq!(s.ranges, vec![(90, 102)]);
        // 90..96 from the store (values 45, 46, 47), 96.. from the tail.
        assert_eq!(s.values, vec![45.0, 46.0, 47.0, -1.0, -2.0, -3.0]);
        assert_eq!(s.watermark, 102);
    }

    #[test]
    fn tail_wins_over_store_on_overlap() {
        let tail: VecDeque<(Tick, f32)> = vec![(94, 7.0)].into();
        let (values, ranges) = dense_history(50);
        let s = suffix_with_store(meta(), Some(&(values, ranges)), &tail, 100, 100);
        let slot_94 = ((94 - s.base_slot as Tick * 2) / 2) as usize;
        assert_eq!(s.values[slot_94], 7.0, "tail sample must shadow the store");
    }

    #[test]
    fn no_store_history_degrades_to_the_tail() {
        let tail: VecDeque<(Tick, f32)> = vec![(92, 1.0), (94, 2.0)].into();
        let s = suffix_with_store(meta(), None, &tail, 96, 100);
        assert_eq!(s.base_slot, 46);
        assert_eq!(s.values, vec![1.0, 2.0]);
        assert_eq!(s.ranges, vec![(92, 96)]);
    }

    #[test]
    fn history_below_the_window_is_clipped() {
        // Everything durable ends before the retained window: the suffix
        // must come out empty with its base parked at the frontier, not
        // drag the whole history into the import replay.
        let (values, ranges) = dense_history(10); // t < 20
        let s = suffix_with_store(meta(), Some(&(values, ranges)), &VecDeque::new(), 20, 100);
        assert!(s.values.is_empty() && s.ranges.is_empty());
        assert_eq!(s.base_slot, 50);
    }
}
