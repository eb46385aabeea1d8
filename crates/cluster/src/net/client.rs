//! The client side of the shard fabric: a remote ingest speaking the
//! [`wire`](super::wire) protocol to one [`ShardServer`](super::ShardServer),
//! surviving socket loss by redialing and replaying its un-acked window.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use lifestream_core::exec::OutputCollector;
use lifestream_core::time::Tick;

use crate::history::{
    history_over_wire, CohortReport, HistoryError, HistoryQuery, HistoryQueryApi,
};
use crate::sharded::{
    splitmix64, Ingest, IngestStats, PatientHandoff, PatientId, Sample, SessionMeta, GOLDEN_GAMMA,
};

use super::wire::{self, WireCmd, WireReply};
use super::SOCKET_BUF;

/// Client-side knobs for a [`RemoteIngest`].
#[derive(Debug, Clone, Copy)]
pub struct RemoteConfig {
    /// Samples staged client-side before a batch frame ships (min 1;
    /// `1` degenerates to a frame per sample).
    pub batch: usize,
    /// Maximum batch/poll frames in flight without an ack (min 1). Acks
    /// drive backpressure: when the server falls behind, the window
    /// fills and `push` blocks — the wire-stretched equivalent of
    /// [`IngestConfig::channel_cap`](crate::sharded::IngestConfig::channel_cap).
    /// The window is also the replay buffer: on a reconnect, exactly
    /// these un-acked frames are re-sent.
    pub window: usize,
    /// Per-dial TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout. `None` (the default) blocks forever — a
    /// slow server exerting backpressure is not a dead server. Set it
    /// when black-holed connections must be detected (a read that times
    /// out is treated as retryable and triggers a reconnect).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (`None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Redial attempts per transport failure before the session is
    /// declared dead (min 1).
    pub retries: u32,
    /// First-retry backoff; attempt `n` waits `base * 2^(n-1)`, jittered
    /// to 50–150%, capped at [`backoff_max`](Self::backoff_max). The
    /// first redial is immediate.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_max: Duration,
}

impl Default for RemoteConfig {
    /// Default batch (256), in-flight window (64), 2 s connect timeout,
    /// no read/write timeouts, 5 redial attempts backing off from 50 ms
    /// to 1 s.
    fn default() -> Self {
        Self {
            batch: 256,
            window: 64,
            connect_timeout: Duration::from_secs(2),
            read_timeout: None,
            write_timeout: None,
            retries: 5,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(1),
        }
    }
}

impl RemoteConfig {
    /// Sets the staging-batch size (min 1).
    pub fn batch(mut self, samples: usize) -> Self {
        self.batch = samples.max(1);
        self
    }

    /// Sets the in-flight ack window (min 1).
    pub fn window(mut self, frames: usize) -> Self {
        self.window = frames.max(1);
        self
    }

    /// Sets the per-dial connect timeout.
    pub fn connect_timeout(mut self, t: Duration) -> Self {
        self.connect_timeout = t;
        self
    }

    /// Sets a socket read timeout (see the field docs for when).
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = Some(t);
        self
    }

    /// Sets a socket write timeout.
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = Some(t);
        self
    }

    /// Sets the redial attempts per failure (min 1).
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n.max(1);
        self
    }

    /// Sets the backoff curve: first-retry delay and its ceiling.
    pub fn backoff(mut self, base: Duration, max: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_max = max.max(base);
        self
    }
}

/// Recovery counters of one remote session.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemoteHealth {
    /// Successful reconnect-with-resume handshakes.
    pub reconnects: u64,
    /// Window frames re-sent across all reconnects.
    pub frames_replayed: u64,
}

/// What kind of reply an un-acked in-flight frame owes us.
enum Pending {
    /// A batch ack whose sample count we verify against what we sent.
    Batch(u64),
    /// A poll ack.
    Poll,
}

/// One un-acked frame: the window entry that makes replay possible.
struct InFlight {
    seq: u64,
    /// The encoded payload, byte-identical on replay.
    payload: Vec<u8>,
    kind: Pending,
    /// Set when a resume handshake reported the server had already
    /// applied this seq but the ack was lost in the sever: its replayed
    /// ack may lump several frames' counter deltas together, so the
    /// per-frame delta check is skipped (cumulative totals still hold).
    maybe_applied: bool,
}

/// An established socket (buffered both ways).
struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Wire {
    /// The one dial: connects to `addr` and opens connection `epoch` of
    /// `session` with `Hello`. `connect` dials epoch 0; every redial
    /// dials the next epoch. Returns the wire and the server's `Resume`:
    /// `(last_applied_seq, cum_samples, cum_dropped)`.
    fn dial(
        addr: &SocketAddr,
        cfg: &RemoteConfig,
        session: u64,
        epoch: u64,
        last_acked_seq: u64,
    ) -> io::Result<(Self, (u64, u64, u64))> {
        let sock = TcpStream::connect_timeout(addr, cfg.connect_timeout)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(cfg.read_timeout)?;
        sock.set_write_timeout(cfg.write_timeout)?;
        let mut wire = Self {
            reader: BufReader::with_capacity(SOCKET_BUF, sock.try_clone()?),
            writer: BufWriter::with_capacity(SOCKET_BUF, sock),
        };
        let hello = WireCmd::Hello {
            session,
            epoch,
            last_acked_seq,
        };
        wire::write_frame(&mut wire.writer, &wire::encode_cmd(0, &hello))?;
        match wire.reply()? {
            WireReply::Resume {
                last_applied_seq,
                cum_samples,
                cum_dropped,
            } => Ok((wire, (last_applied_seq, cum_samples, cum_dropped))),
            WireReply::Err(e) => Err(fatal(format!("server refused resume: {e}"))),
            _ => Err(fatal("unexpected reply to Hello")),
        }
    }

    /// The one reply reader. It first sends whatever is still buffered
    /// when the read may block (the rule on both ends: flush before
    /// blocking on a read), then reads and decodes one reply. A broken
    /// socket, a timeout or a clean close by the server is retryable
    /// ([`wire::retryable_io`]); a reply that does not decode is fatal.
    fn reply(&mut self) -> io::Result<WireReply> {
        if self.reader.buffer().is_empty() {
            self.writer.flush()?;
        }
        let payload = wire::read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )
        })?;
        wire::decode_reply(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// A protocol failure no redial can clear: the peer sent what the
/// protocol forbids, or lost the session. Like a reply that does not
/// decode, it is `InvalidData`, which [`wire::retryable_io`] refuses.
fn fatal(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Whether a failure is the protocol's ([`fatal`], or a reply that does
/// not decode) rather than the transport's.
fn is_protocol(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::InvalidData
}

/// How a failure that ends the session reads in
/// [`RemoteIngest::last_error`].
fn describe(e: &io::Error) -> String {
    if is_protocol(e) {
        format!("protocol: {e}")
    } else {
        format!("transport: {e}")
    }
}

struct Conn {
    /// `None` only while disconnected mid-reconnect.
    wire: Option<Wire>,
    staged: Vec<Sample>,
    window: VecDeque<InFlight>,
    /// Next command seq to assign (the first frame of a session is 1).
    next_seq: u64,
    /// Highest seq known applied (acked or answered synchronously).
    last_acked: u64,
    /// Last cumulative (samples, dropped) totals seen in an ack.
    acked: (u64, u64),
    /// Current connection epoch; bumped on every redial.
    epoch: u64,
    stats: IngestStats,
    health: RemoteHealth,
    /// First fatal transport/protocol error; once set, pushes no-op and
    /// every synchronous call reports it.
    dead: Option<String>,
    /// Set by `close()`: transport failures stop triggering reconnects
    /// and are swallowed — cleanup of a dead peer must not error.
    closing: bool,
}

impl Conn {
    fn wire(&mut self) -> io::Result<&mut Wire> {
        self.wire
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))
    }

    /// Whether a reply has already arrived, so reading it cannot block.
    fn reply_waiting(&self) -> bool {
        self.wire
            .as_ref()
            .is_some_and(|w| !w.reader.buffer().is_empty())
    }
}

static SESSION_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_session_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    let n = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(n.wrapping_mul(GOLDEN_GAMMA) ^ (nanos << 32) ^ u64::from(std::process::id()))
}

/// A [`LiveIngest`](crate::sharded::LiveIngest)-shaped front end whose
/// sessions live on a remote [`ShardServer`](super::ShardServer).
///
/// The staging/backpressure contract is the same as in-process: `push`
/// stages samples, ships them as batch frames, and blocks when the
/// server stops acking ([`RemoteConfig::window`]); `finish` returns the
/// collected output; per-sample violations defer to `finish`. Samples
/// the server dropped for unknown patients come back in every ack and
/// land in this client's [`IngestStats::dropped_unknown`] — exact after
/// any synchronous call ([`admit`](Self::admit)/[`finish`](Self::finish)/
/// [`barrier`](Self::barrier)), not lost server-side.
///
/// ## Reconnect-with-resume
///
/// Every connection opens with a `Hello{session, epoch, last_acked_seq}`
/// handshake; every command frame carries a session seq and stays in the
/// bounded in-flight window until acked. When the socket dies with a
/// retryable error ([`wire::retryable_io`]), the client redials with
/// exponential backoff + jitter ([`RemoteConfig::retries`] attempts),
/// bumps its epoch, and replays exactly the un-acked window; the
/// server's per-session `last_applied_seq` deduplicates whatever had
/// already landed, so every frame is applied exactly once and a resumed
/// stream is byte-identical to an uninterrupted one. Only when every
/// redial fails is the session declared dead ([`is_dead`](Self::is_dead));
/// cleanup ([`shutdown`](Self::shutdown)/`Drop`) never errors either way.
///
/// Each step of that protocol has one home: one dial (`Wire::dial`), one
/// reply reader (`Wire::reply`), one settle per ack (`settle`), and one
/// recovery rule (`recover`) that every windowed send, ack drain and
/// synchronous call hands its failures to.
pub struct RemoteIngest {
    conn: Mutex<Conn>,
    cfg: RemoteConfig,
    addr: SocketAddr,
    session: u64,
    /// Mirror of `Conn::dead`, readable without the conn lock.
    dead_flag: AtomicBool,
}

impl RemoteIngest {
    /// Connects to a shard server and performs the session handshake,
    /// trying each address `addr` resolves to until one answers.
    ///
    /// # Errors
    /// Propagates connection/handshake failures.
    pub fn connect<A: ToSocketAddrs>(addr: A, cfg: RemoteConfig) -> io::Result<Self> {
        let session = fresh_session_id();
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to");
        let mut dialed = None;
        for a in addr.to_socket_addrs()? {
            match Wire::dial(&a, &cfg, session, 0, 0) {
                Ok((wire, _)) => {
                    dialed = Some((a, wire));
                    break;
                }
                Err(e) => last = e,
            }
        }
        let Some((addr, wire)) = dialed else {
            return Err(last);
        };
        Ok(Self {
            conn: Mutex::new(Conn {
                wire: Some(wire),
                staged: Vec::new(),
                window: VecDeque::new(),
                next_seq: 1,
                last_acked: 0,
                acked: (0, 0),
                epoch: 0,
                stats: IngestStats::default(),
                health: RemoteHealth::default(),
                dead: None,
                closing: false,
            }),
            cfg,
            addr,
            session,
            dead_flag: AtomicBool::new(false),
        })
    }

    /// Admits a patient on the server (synchronous round trip).
    ///
    /// # Errors
    /// Returns the server's compile/duplicate error, or the transport
    /// error that killed the connection.
    pub fn admit(&self, patient: PatientId) -> Result<(), String> {
        self.admit_meta(patient).map(|_| ())
    }

    /// Admits a patient and returns the compiled session's shape facts
    /// (round, sink arity, per-source shape + history margin) — what a
    /// failover-capable caller needs to size its replay buffers.
    ///
    /// # Errors
    /// Returns the server's compile/duplicate error, or the transport
    /// error that killed the connection.
    pub fn admit_meta(&self, patient: PatientId) -> Result<SessionMeta, String> {
        self.request(&WireCmd::Admit { patient }, |reply| match reply {
            WireReply::Admitted { meta } => Some(meta),
            _ => None,
        })
    }

    /// Stages one sample; ships a batch frame at the configured batch
    /// size. Blocks when the in-flight window is full (the server is
    /// behind). Transport errors are deferred to [`finish`](Self::finish).
    pub fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        let mut c = self.conn.lock().expect("conn lock");
        if c.dead.is_some() {
            return;
        }
        c.staged.push((patient, source, t, v));
        c.stats.samples_pushed += 1;
        if c.staged.len() >= self.cfg.batch {
            let _ = self.ship_staged(&mut c);
        }
    }

    /// Flushes staged samples and asks the server to process all
    /// complete rounds (fire-and-forget; its ack counts against the
    /// window). Everything written so far leaves for the server here, so a
    /// producer that goes quiet after a poll has still been heard.
    pub fn poll(&self) {
        let mut c = self.conn.lock().expect("conn lock");
        if c.dead.is_some() {
            return;
        }
        let _ = self.ship_staged(&mut c);
        let _ = self.send_windowed(&mut c, &WireCmd::Poll, Pending::Poll);
        if c.dead.is_none() {
            let sent = c.wire().and_then(|w| w.writer.flush());
            let _ = sent.or_else(|e| self.recover(&mut c, e, true));
        }
    }

    /// Ends a patient's stream and returns everything it emitted.
    ///
    /// # Errors
    /// Returns the server's deferred errors, or the transport error that
    /// killed the connection.
    pub fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        self.request(&WireCmd::Finish { patient }, |reply| match reply {
            WireReply::Output(out) => Some(out),
            _ => None,
        })
    }

    /// Exports a patient's session for handoff (synchronous; drains the
    /// in-flight window first so every prior push is applied).
    ///
    /// # Errors
    /// Returns the server's error for unknown/poisoned patients, or the
    /// transport error.
    pub fn export_patient(&self, patient: PatientId) -> Result<PatientHandoff, String> {
        self.request(&WireCmd::Export { patient }, |reply| match reply {
            WireReply::Handoff(state) => Some(*state),
            _ => None,
        })
    }

    /// Imports a patient session exported elsewhere onto this server.
    ///
    /// # Errors
    /// Returns the server's compile/duplicate error, or the transport
    /// error.
    pub fn import_patient(&self, patient: PatientId, state: PatientHandoff) -> Result<(), String> {
        let cmd = WireCmd::Import {
            patient,
            state: Box::new(state),
        };
        self.request(&cmd, |reply| matches!(reply, WireReply::Ok).then_some(()))
    }

    /// One patient's retrospective roundtrip: re-runs the server-side
    /// pipeline named by registry id `pipeline` (`0` = the live pipeline)
    /// over `patient`'s durable history clipped to `[t0, t1)` and returns
    /// the collected output, or the server's error as its display
    /// message. Synchronous: drains the in-flight window first, so every
    /// pushed sample is reflected.
    pub(super) fn history_query(
        &self,
        patient: PatientId,
        t0: Tick,
        t1: Tick,
        warmup: Tick,
        pipeline: u32,
    ) -> Result<OutputCollector, String> {
        let cmd = WireCmd::HistoryQuery {
            patient,
            t0,
            t1,
            warmup,
            pipeline,
        };
        self.request(&cmd, |reply| match reply {
            WireReply::Output(out) => Some(out),
            _ => None,
        })
    }

    /// Synchronization point: flushes staged samples and waits for every
    /// outstanding ack, making [`stats`](Self::stats) (including
    /// server-side drop counts) exact.
    ///
    /// # Errors
    /// Returns the transport error that killed the connection, if any.
    pub fn barrier(&self) -> Result<(), String> {
        let mut c = self.conn.lock().expect("conn lock");
        self.ship_staged(&mut c)?;
        self.drain_all(&mut c)
    }

    /// Client-side counters. `samples_pushed`/`batches_flushed` count
    /// locally; `dropped_unknown` reconciles against the server's
    /// cumulative ack totals (exact after any synchronous call).
    pub fn stats(&self) -> IngestStats {
        self.conn.lock().expect("conn lock").stats
    }

    /// Recovery counters: reconnects and frames replayed.
    pub fn health(&self) -> RemoteHealth {
        self.conn.lock().expect("conn lock").health
    }

    /// Whether the session is unrecoverable (redials exhausted or a
    /// fatal protocol error). Lock-free, so placement logic can probe it
    /// from under its own locks.
    pub fn is_dead(&self) -> bool {
        self.dead_flag.load(Ordering::Acquire)
    }

    /// The first fatal error, if the session has one.
    pub fn last_error(&self) -> Option<String> {
        self.conn.lock().expect("conn lock").dead.clone()
    }

    /// Flushes, drains outstanding acks, and closes the connection.
    /// Never errors — a dead peer cannot make cleanup fail. Equivalent
    /// to dropping the client; kept for explicit call sites.
    pub fn shutdown(self) {
        // Drop runs close().
    }

    fn close(&self) {
        let mut c = self.conn.lock().expect("conn lock");
        c.closing = true;
        if c.dead.is_none() {
            let _ = self.ship_staged(&mut c);
            let _ = self.drain_all(&mut c);
        }
        if let Some(w) = &c.wire {
            let _ = w.writer.get_ref().shutdown(Shutdown::Both);
        }
        c.wire = None;
    }

    // -- internals ----------------------------------------------------

    /// Records the first fatal error and returns it (subsequent calls
    /// keep reporting the original failure, not cascading noise).
    fn poison(&self, c: &mut Conn, msg: &str) -> String {
        if c.dead.is_none() {
            c.dead = Some(msg.to_string());
            self.dead_flag.store(true, Ordering::Release);
        }
        c.dead.clone().expect("just set")
    }

    /// The one recovery rule. A retryable failure, while `redial` is
    /// allowed and the client is not closing, redials and replays the
    /// window ([`reconnect`](Self::reconnect)); anything else kills the
    /// session.
    fn recover(&self, c: &mut Conn, e: io::Error, redial: bool) -> Result<(), String> {
        if redial && wire::retryable_io(&e) && !c.closing {
            self.reconnect(c, &e.to_string())
        } else {
            Err(self.poison(c, &describe(&e)))
        }
    }

    /// One redial round: up to [`RemoteConfig::retries`] attempts with
    /// exponential backoff + jitter. Any transport failure of an attempt,
    /// the dial's included, costs one attempt; a protocol failure ends
    /// the round. On return the window is empty and the connection is
    /// live; on error the session is dead.
    fn reconnect(&self, c: &mut Conn, why: &str) -> Result<(), String> {
        let attempts = self.cfg.retries.max(1);
        let mut last = why.to_string();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff_delay(c.epoch, attempt));
            }
            match self.resume(c) {
                Ok(()) => return Ok(()),
                Err(e) if !is_protocol(&e) => last = e.to_string(),
                Err(e) => return Err(self.poison(c, &describe(&e))),
            }
        }
        Err(self.poison(
            c,
            &format!(
                "transport: {why}; gave up after {attempts} reconnect attempts (last: {last})"
            ),
        ))
    }

    /// One redial attempt: dial the next epoch, check the server kept
    /// the session, then replay the un-acked window and settle its
    /// replies one by one through the reply reader, as `drain_all` does.
    fn resume(&self, c: &mut Conn) -> io::Result<()> {
        c.wire = None;
        let epoch = c.epoch + 1;
        let (wire, (last_applied, cum_s, cum_d)) =
            Wire::dial(&self.addr, &self.cfg, self.session, epoch, c.last_acked)?;
        if last_applied < c.last_acked {
            return Err(fatal(format!(
                "server lost session state: resumed at seq {last_applied}, \
                 client already saw seq {} acked",
                c.last_acked
            )));
        }
        if cum_s < c.acked.0 || cum_d < c.acked.1 {
            return Err(fatal(
                "server lost session state: cumulative counters went backwards",
            ));
        }
        c.epoch = epoch;
        c.health.reconnects += 1;
        c.health.frames_replayed += c.window.len() as u64;
        // Replay the whole un-acked window in order, then settle its
        // replies (one per frame, strictly ordered). The server applies
        // each frame exactly once — duplicates are answered from the
        // session record — so the resumed stream is byte-identical.
        let w = c.wire.insert(wire);
        for e in c.window.iter_mut() {
            // The server applied this frame but its ack died with the old
            // socket: the replayed ack may lump several deltas together.
            e.maybe_applied |= e.seq <= last_applied;
            wire::write_frame(&mut w.writer, &e.payload)?;
        }
        while !c.window.is_empty() {
            self.settle_next(c)?;
        }
        Ok(())
    }

    fn backoff_delay(&self, epoch: u64, attempt: u32) -> Duration {
        let base = self.cfg.backoff_base.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.cfg.backoff_max);
        // Deterministic jitter (50–150%) from session ⊕ epoch ⊕ attempt,
        // so two clients severed together do not redial in lockstep.
        let r = splitmix64(self.session ^ epoch.wrapping_mul(31) ^ u64::from(attempt));
        capped.mul_f64((50 + r % 101) as f64 / 100.0)
    }

    fn ship_staged(&self, c: &mut Conn) -> Result<(), String> {
        if c.staged.is_empty() || c.dead.is_some() {
            return c.dead.clone().map_or(Ok(()), Err);
        }
        let fresh = Vec::with_capacity(c.staged.len());
        let batch = std::mem::replace(&mut c.staged, fresh);
        c.stats.batches_flushed += 1;
        let sent = batch.len() as u64;
        self.send_windowed(c, &WireCmd::Batch(batch), Pending::Batch(sent))
    }

    /// Writes an async-acked frame into the window (buffered — the flush
    /// comes with the next blocking read), then blocks while the window is
    /// over-full — acks are the transport's backpressure — and takes every
    /// further ack that has already arrived. A failure goes to the
    /// recovery rule; a reconnect replays the window, this frame included.
    fn send_windowed(&self, c: &mut Conn, cmd: &WireCmd, kind: Pending) -> Result<(), String> {
        if let Some(e) = &c.dead {
            return Err(e.clone());
        }
        let seq = c.next_seq;
        c.next_seq += 1;
        let payload = wire::encode_cmd(seq, cmd);
        let sent = c
            .wire()
            .and_then(|w| wire::write_frame(&mut w.writer, &payload));
        c.window.push_back(InFlight {
            seq,
            payload,
            kind,
            maybe_applied: false,
        });
        sent.and_then(|()| {
            while c.window.len() > self.cfg.window || (!c.window.is_empty() && c.reply_waiting()) {
                self.settle_next(c)?;
            }
            Ok(())
        })
        .or_else(|e| self.recover(c, e, true))
    }

    /// The synchronous call behind `admit`, `finish`, the handoffs and
    /// history queries: ships staged samples, settles every outstanding
    /// ack (replies are strictly ordered), then sends `cmd` and reads its
    /// reply. A server `Err` passes through; `pick` takes the reply `cmd`
    /// expects, and any other reply is a protocol error. A failure goes
    /// to the recovery rule, at most [`RemoteConfig::retries`] redial
    /// rounds; each re-sends `cmd`, and the server's sync-reply cache
    /// makes it run once.
    fn request<T>(
        &self,
        cmd: &WireCmd,
        pick: impl FnOnce(WireReply) -> Option<T>,
    ) -> Result<T, String> {
        let mut c = self.conn.lock().expect("conn lock");
        self.ship_staged(&mut c)?;
        self.drain_all(&mut c)?;
        if let Some(e) = &c.dead {
            return Err(e.clone());
        }
        let seq = c.next_seq;
        c.next_seq += 1;
        let payload = wire::encode_cmd(seq, cmd);
        let mut rounds = 0;
        let reply = loop {
            let res = c.wire().and_then(|w| {
                wire::write_frame(&mut w.writer, &payload)?;
                w.reply()
            });
            match res {
                Ok(reply) => break reply,
                Err(e) => self.recover(&mut c, e, rounds < self.cfg.retries)?,
            }
            rounds += 1;
        };
        c.last_acked = seq;
        let reply = match reply {
            WireReply::Err(e) => return Err(e),
            reply => pick(reply),
        };
        reply.ok_or_else(|| {
            let name = match cmd {
                WireCmd::Admit { .. } => "Admit",
                WireCmd::Finish { .. } => "Finish",
                WireCmd::Export { .. } => "Export",
                WireCmd::Import { .. } => "Import",
                WireCmd::HistoryQuery { .. } => "HistoryQuery",
                _ => "the command",
            };
            self.poison(&mut c, &format!("protocol: unexpected reply to {name}"))
        })
    }

    /// Reads the reply the oldest in-flight frame owes and settles it.
    /// The frame leaves the window only once its reply has arrived.
    fn settle_next(&self, c: &mut Conn) -> io::Result<()> {
        let reply = c.wire()?.reply()?;
        let entry = c
            .window
            .pop_front()
            .expect("a reply settles an in-flight frame");
        self.settle(c, &entry, reply)
    }

    /// Reconciles one ack against its window entry; any mismatch is
    /// fatal.
    fn settle(&self, c: &mut Conn, entry: &InFlight, reply: WireReply) -> io::Result<()> {
        match reply {
            WireReply::Ack {
                seq,
                cum_samples,
                cum_dropped,
            } => {
                if seq != entry.seq {
                    return Err(fatal(format!(
                        "ack for seq {seq}, expected seq {}",
                        entry.seq
                    )));
                }
                if cum_samples < c.acked.0 || cum_dropped < c.acked.1 {
                    return Err(fatal("cumulative ack counters went backwards"));
                }
                let ds = cum_samples - c.acked.0;
                let dd = cum_dropped - c.acked.1;
                c.acked = (cum_samples, cum_dropped);
                c.stats.dropped_unknown += dd;
                c.last_acked = entry.seq;
                if let Pending::Batch(sent) = entry.kind {
                    // A maybe-applied replay can lump several frames'
                    // deltas into one ack; only fresh acks are exact.
                    if !entry.maybe_applied && ds + dd != sent {
                        return Err(fatal(format!(
                            "batch of {sent} acked as {ds} applied + {dd} dropped"
                        )));
                    }
                }
                Ok(())
            }
            WireReply::Err(e) => Err(fatal(format!("error reply: {e}"))),
            _ => Err(fatal("reply does not match the in-flight command")),
        }
    }

    /// Settles every outstanding ack; a failure goes to the recovery
    /// rule, whose reconnect settles the rest.
    fn drain_all(&self, c: &mut Conn) -> Result<(), String> {
        while !c.window.is_empty() {
            if let Err(e) = self.settle_next(c) {
                return self.recover(c, e, true);
            }
        }
        Ok(())
    }
}

impl Ingest for RemoteIngest {
    fn admit(&self, patient: PatientId) -> Result<(), String> {
        RemoteIngest::admit(self, patient)
    }

    fn push(&self, patient: PatientId, source: usize, t: Tick, v: f32) {
        RemoteIngest::push(self, patient, source, t, v);
    }

    fn poll(&self) {
        RemoteIngest::poll(self);
    }

    fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        RemoteIngest::finish(self, patient)
    }

    fn stats(&self) -> IngestStats {
        RemoteIngest::stats(self)
    }
}

impl HistoryQueryApi for RemoteIngest {
    /// Runs the query over the wire, one synchronous roundtrip per
    /// cohort patient. Only transport-expressible pipelines work here
    /// (see the module docs of [`crate::history`]).
    fn history(&self, query: HistoryQuery) -> Result<CohortReport, HistoryError> {
        history_over_wire(query, |p, t0, t1, warmup, pipeline| {
            self.history_query(p, t0, t1, warmup, pipeline)
        })
    }
}

impl Drop for RemoteIngest {
    /// Dropping flushes staged samples, drains outstanding acks, and
    /// closes the socket so the server's handler unwinds cleanly. Never
    /// errors, even when the peer is already gone.
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for RemoteIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteIngest")
            .field("addr", &self.addr)
            .field("batch", &self.cfg.batch)
            .field("window", &self.cfg.window)
            .finish()
    }
}
