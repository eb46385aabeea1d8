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
    /// Failed dial/handshake attempts since the last success.
    pub consecutive_failures: u64,
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

/// Whether a redial round failed softly (try again) or fatally (the
/// session is unrecoverable: state lost, protocol violated).
enum RetryFail {
    Again(String),
    Fatal(String),
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

fn not_connected() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "not connected")
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
pub struct RemoteIngest {
    conn: Mutex<Conn>,
    cfg: RemoteConfig,
    addr: SocketAddr,
    session: u64,
    /// Mirror of `Conn::dead`, readable without the conn lock.
    dead_flag: AtomicBool,
}

impl RemoteIngest {
    /// Connects to a shard server and performs the session handshake.
    ///
    /// # Errors
    /// Propagates connection/handshake failures.
    pub fn connect<A: ToSocketAddrs>(addr: A, cfg: RemoteConfig) -> io::Result<Self> {
        let mut last: Option<io::Error> = None;
        let mut dialed: Option<(SocketAddr, TcpStream)> = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, cfg.connect_timeout) {
                Ok(sock) => {
                    dialed = Some((a, sock));
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let Some((addr, sock)) = dialed else {
            return Err(last.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")
            }));
        };
        let client = Self {
            conn: Mutex::new(Conn {
                wire: None,
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
            session: fresh_session_id(),
            dead_flag: AtomicBool::new(false),
        };
        let mut wire = client.open_wire(sock)?;
        match client.hello_exchange(&mut wire, 0, 0) {
            Ok(_) => {}
            Err(RetryFail::Again(e)) | Err(RetryFail::Fatal(e)) => return Err(io::Error::other(e)),
        }
        client.conn.lock().expect("conn lock").wire = Some(wire);
        Ok(client)
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
        let mut c = self.conn.lock().expect("conn lock");
        match self.roundtrip(&mut c, &WireCmd::Admit { patient })? {
            WireReply::Admitted { meta } => Ok(meta),
            WireReply::Err(e) => Err(e),
            _ => Err(self.poison(&mut c, "protocol: unexpected reply to Admit")),
        }
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
        let _ = self.flush_wire(&mut c);
    }

    /// Ends a patient's stream and returns everything it emitted.
    ///
    /// # Errors
    /// Returns the server's deferred errors, or the transport error that
    /// killed the connection.
    pub fn finish(&self, patient: PatientId) -> Result<OutputCollector, String> {
        let mut c = self.conn.lock().expect("conn lock");
        match self.roundtrip(&mut c, &WireCmd::Finish { patient })? {
            WireReply::Output(out) => Ok(out),
            WireReply::Err(e) => Err(e),
            _ => Err(self.poison(&mut c, "protocol: unexpected reply to Finish")),
        }
    }

    /// Exports a patient's session for handoff (synchronous; drains the
    /// in-flight window first so every prior push is applied).
    ///
    /// # Errors
    /// Returns the server's error for unknown/poisoned patients, or the
    /// transport error.
    pub fn export_patient(&self, patient: PatientId) -> Result<PatientHandoff, String> {
        let mut c = self.conn.lock().expect("conn lock");
        match self.roundtrip(&mut c, &WireCmd::Export { patient })? {
            WireReply::Handoff(state) => Ok(*state),
            WireReply::Err(e) => Err(e),
            _ => Err(self.poison(&mut c, "protocol: unexpected reply to Export")),
        }
    }

    /// Imports a patient session exported elsewhere onto this server.
    ///
    /// # Errors
    /// Returns the server's compile/duplicate error, or the transport
    /// error.
    pub fn import_patient(&self, patient: PatientId, state: PatientHandoff) -> Result<(), String> {
        let mut c = self.conn.lock().expect("conn lock");
        let cmd = WireCmd::Import {
            patient,
            state: Box::new(state),
        };
        match self.roundtrip(&mut c, &cmd)? {
            WireReply::Ok => Ok(()),
            WireReply::Err(e) => Err(e),
            _ => Err(self.poison(&mut c, "protocol: unexpected reply to Import")),
        }
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
        let mut c = self.conn.lock().expect("conn lock");
        let cmd = WireCmd::HistoryQuery {
            patient,
            t0,
            t1,
            warmup,
            pipeline,
        };
        match self.roundtrip(&mut c, &cmd)? {
            WireReply::Output(out) => Ok(out),
            WireReply::Err(e) => Err(e),
            _ => Err(self.poison(&mut c, "protocol: unexpected reply to HistoryQuery")),
        }
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

    /// Recovery counters: reconnects, frames replayed, consecutive
    /// dial failures.
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

    fn open_wire(&self, sock: TcpStream) -> io::Result<Wire> {
        sock.set_nodelay(true)?;
        sock.set_read_timeout(self.cfg.read_timeout)?;
        sock.set_write_timeout(self.cfg.write_timeout)?;
        Ok(Wire {
            reader: BufReader::with_capacity(SOCKET_BUF, sock.try_clone()?),
            writer: BufWriter::with_capacity(SOCKET_BUF, sock),
        })
    }

    /// Sends `Hello` on a fresh wire and reads the server's answer.
    /// Returns the server's `(last_applied_seq, cum_samples, cum_dropped)`.
    fn hello_exchange(
        &self,
        wire: &mut Wire,
        epoch: u64,
        last_acked: u64,
    ) -> Result<(u64, u64, u64), RetryFail> {
        let hello = wire::encode_cmd(
            0,
            &WireCmd::Hello {
                session: self.session,
                epoch,
                last_acked_seq: last_acked,
            },
        );
        wire::write_frame(&mut wire.writer, &hello)
            .and_then(|()| wire.writer.flush())
            .map_err(|e| RetryFail::Again(format!("handshake send: {e}")))?;
        let payload = match wire::read_frame(&mut wire.reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Err(RetryFail::Again("handshake: server closed".into())),
            Err(e) if wire::retryable_io(&e) => {
                return Err(RetryFail::Again(format!("handshake read: {e}")))
            }
            Err(e) => return Err(RetryFail::Fatal(format!("handshake read: {e}"))),
        };
        match wire::decode_reply(&payload) {
            Ok(WireReply::Resume {
                last_applied_seq,
                cum_samples,
                cum_dropped,
            }) => Ok((last_applied_seq, cum_samples, cum_dropped)),
            Ok(WireReply::Err(e)) => Err(RetryFail::Fatal(format!("server refused resume: {e}"))),
            Ok(_) => Err(RetryFail::Fatal(
                "protocol: unexpected reply to Hello".into(),
            )),
            Err(e) => Err(RetryFail::Fatal(format!("protocol: {e}"))),
        }
    }

    /// Redials with exponential backoff + jitter, resumes the session,
    /// and replays + drains the un-acked window. On return the window is
    /// empty and the connection is live; on error the session is dead.
    fn reconnect(&self, c: &mut Conn, why: &str) -> Result<(), String> {
        if c.closing {
            return Err(self.poison(c, &format!("transport: {why} (while closing)")));
        }
        let attempts = self.cfg.retries.max(1);
        let mut last = why.to_string();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff_delay(c.epoch, attempt));
            }
            match self.try_resume(c) {
                Ok(()) => return Ok(()),
                Err(RetryFail::Fatal(e)) => return Err(self.poison(c, &e)),
                Err(RetryFail::Again(e)) => {
                    c.health.consecutive_failures += 1;
                    last = e;
                }
            }
        }
        Err(self.poison(
            c,
            &format!(
                "transport: {why}; gave up after {attempts} reconnect attempts (last: {last})"
            ),
        ))
    }

    /// One redial + resume + window replay attempt.
    fn try_resume(&self, c: &mut Conn) -> Result<(), RetryFail> {
        c.wire = None;
        let epoch = c.epoch + 1;
        let sock = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
            .map_err(|e| RetryFail::Again(format!("redial: {e}")))?;
        let mut wire = self
            .open_wire(sock)
            .map_err(|e| RetryFail::Again(format!("redial: {e}")))?;
        let (last_applied, cum_s, cum_d) = self.hello_exchange(&mut wire, epoch, c.last_acked)?;
        if last_applied < c.last_acked {
            return Err(RetryFail::Fatal(format!(
                "server lost session state: resumed at seq {last_applied}, \
                 client already saw seq {} acked",
                c.last_acked
            )));
        }
        if cum_s < c.acked.0 || cum_d < c.acked.1 {
            return Err(RetryFail::Fatal(
                "server lost session state: cumulative counters went backwards".into(),
            ));
        }
        c.epoch = epoch;
        c.wire = Some(wire);
        c.health.reconnects += 1;
        c.health.consecutive_failures = 0;
        // Frames the server applied but whose acks died with the old
        // socket: their replayed acks may lump several deltas together.
        for e in c.window.iter_mut() {
            if e.seq <= last_applied {
                e.maybe_applied = true;
            }
        }
        // Replay the whole un-acked window in order, then collect its
        // replies (one per frame, strictly ordered). The server applies
        // each frame exactly once — duplicates are answered from the
        // session record — so the resumed stream is byte-identical.
        if !c.window.is_empty() {
            c.health.frames_replayed += c.window.len() as u64;
            {
                let Conn { wire, window, .. } = &mut *c;
                let w = wire.as_mut().expect("just connected");
                for e in window.iter() {
                    wire::write_frame(&mut w.writer, &e.payload)
                        .map_err(|e2| RetryFail::Again(format!("replay send: {e2}")))?;
                }
                w.writer
                    .flush()
                    .map_err(|e2| RetryFail::Again(format!("replay send: {e2}")))?;
            }
            while !c.window.is_empty() {
                let payload = {
                    let w = c.wire.as_mut().expect("just connected");
                    match wire::read_frame(&mut w.reader) {
                        Ok(Some(p)) => p,
                        Ok(None) => return Err(RetryFail::Again("replay: server closed".into())),
                        Err(e2) if wire::retryable_io(&e2) => {
                            return Err(RetryFail::Again(format!("replay read: {e2}")))
                        }
                        Err(e2) => return Err(RetryFail::Fatal(format!("replay read: {e2}"))),
                    }
                };
                let reply = wire::decode_reply(&payload)
                    .map_err(|e2| RetryFail::Fatal(format!("protocol: {e2}")))?;
                let entry = c.window.pop_front().expect("non-empty");
                self.settle(c, &entry, reply).map_err(RetryFail::Fatal)?;
            }
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
    /// further ack that has already arrived. A retryable send failure
    /// triggers a reconnect, which replays the window (including this
    /// frame).
    fn send_windowed(&self, c: &mut Conn, cmd: &WireCmd, kind: Pending) -> Result<(), String> {
        if let Some(e) = &c.dead {
            return Err(e.clone());
        }
        let seq = c.next_seq;
        c.next_seq += 1;
        c.window.push_back(InFlight {
            seq,
            payload: wire::encode_cmd(seq, cmd),
            kind,
            maybe_applied: false,
        });
        let sent = {
            let Conn { wire, window, .. } = &mut *c;
            let payload = &window.back().expect("just pushed").payload;
            wire.as_mut()
                .ok_or_else(not_connected)
                .and_then(|w| wire::write_frame(&mut w.writer, payload))
        };
        self.sent_or_reconnect(c, sent)?;
        while c.window.len() > self.cfg.window
            || (!c.window.is_empty()
                && c.wire
                    .as_ref()
                    .is_some_and(|w| !w.reader.buffer().is_empty()))
        {
            self.drain_one(c)?;
        }
        Ok(())
    }

    /// A failed window write reconnects (and replays the window) when the
    /// failure is retryable, and kills the session otherwise.
    fn sent_or_reconnect(&self, c: &mut Conn, sent: io::Result<()>) -> Result<(), String> {
        match sent {
            Ok(()) => Ok(()),
            Err(e) if wire::retryable_io(&e) && !c.closing => {
                self.reconnect(c, &format!("send: {e}"))
            }
            Err(e) => Err(self.poison(c, &format!("transport: {e}"))),
        }
    }

    /// Sends everything buffered so far.
    fn flush_wire(&self, c: &mut Conn) -> Result<(), String> {
        if c.dead.is_some() {
            return Ok(());
        }
        let sent = c
            .wire
            .as_mut()
            .ok_or_else(not_connected)
            .and_then(|w| w.writer.flush());
        self.sent_or_reconnect(c, sent)
    }

    fn write_payload(&self, c: &mut Conn, payload: &[u8]) -> io::Result<()> {
        let w = c.wire.as_mut().ok_or_else(not_connected)?;
        wire::write_frame(&mut w.writer, payload)?;
        w.writer.flush()
    }

    /// Reads one reply frame, first sending whatever is still buffered
    /// when the read may sleep (the rule on both ends: flush before
    /// blocking on a read). A clean server close surfaces as a retryable
    /// error (the machine may be back in a moment).
    fn read_reply_frame(&self, c: &mut Conn) -> io::Result<Vec<u8>> {
        let w = c.wire.as_mut().ok_or_else(not_connected)?;
        if w.reader.buffer().is_empty() {
            w.writer.flush()?;
        }
        match wire::read_frame(&mut w.reader)? {
            Some(p) => Ok(p),
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )),
        }
    }

    /// Synchronous command: flush staged data, drain every outstanding
    /// ack (replies are strictly ordered), send, read our reply. A
    /// retryable failure reconnects and re-sends; the server's
    /// sync-reply cache deduplicates, so the command still runs once.
    fn roundtrip(&self, c: &mut Conn, cmd: &WireCmd) -> Result<WireReply, String> {
        self.ship_staged(c)?;
        self.drain_all(c)?;
        if let Some(e) = &c.dead {
            return Err(e.clone());
        }
        let seq = c.next_seq;
        c.next_seq += 1;
        let payload = wire::encode_cmd(seq, cmd);
        let mut tries = 0;
        loop {
            let res = self
                .write_payload(c, &payload)
                .and_then(|()| self.read_reply_frame(c));
            match res {
                Ok(bytes) => {
                    let reply = wire::decode_reply(&bytes)
                        .map_err(|e| self.poison(c, &format!("protocol: {e}")))?;
                    c.last_acked = seq;
                    return Ok(reply);
                }
                Err(e) if wire::retryable_io(&e) && !c.closing && tries < self.cfg.retries => {
                    tries += 1;
                    self.reconnect(c, &format!("sync command: {e}"))?;
                }
                Err(e) => return Err(self.poison(c, &format!("transport: {e}"))),
            }
        }
    }

    /// Reconciles one ack against its window entry. Does not poison;
    /// callers decide how a failure propagates.
    fn settle(&self, c: &mut Conn, entry: &InFlight, reply: WireReply) -> Result<(), String> {
        match reply {
            WireReply::Ack {
                seq,
                cum_samples,
                cum_dropped,
            } => {
                if seq != entry.seq {
                    return Err(format!(
                        "protocol: ack for seq {seq}, expected seq {}",
                        entry.seq
                    ));
                }
                if cum_samples < c.acked.0 || cum_dropped < c.acked.1 {
                    return Err("protocol: cumulative ack counters went backwards".into());
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
                        return Err(format!(
                            "protocol: batch of {sent} acked as {ds} applied + {dd} dropped"
                        ));
                    }
                }
                Ok(())
            }
            WireReply::Err(e) => Err(format!("server: {e}")),
            _ => Err("protocol: reply does not match the in-flight command".into()),
        }
    }

    fn drain_one(&self, c: &mut Conn) -> Result<(), String> {
        if c.window.is_empty() {
            return Ok(());
        }
        match self.read_reply_frame(c) {
            Ok(bytes) => {
                let reply = wire::decode_reply(&bytes)
                    .map_err(|e| self.poison(c, &format!("protocol: {e}")))?;
                let entry = c.window.pop_front().expect("non-empty");
                self.settle(c, &entry, reply)
                    .map_err(|e| self.poison(c, &e))
            }
            Err(e) if wire::retryable_io(&e) && !c.closing => {
                // The reconnect replays and drains the whole window.
                self.reconnect(c, &format!("ack read: {e}"))
            }
            Err(e) => Err(self.poison(c, &format!("transport: {e}"))),
        }
    }

    fn drain_all(&self, c: &mut Conn) -> Result<(), String> {
        while !c.window.is_empty() {
            self.drain_one(c)?;
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
