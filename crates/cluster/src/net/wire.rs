//! Versioned, length-prefixed binary wire format for the ingest command
//! stream.
//!
//! Everything the in-process [`LiveIngest`](crate::sharded::LiveIngest)
//! protocol says — admit/finish, sample batches, polls, partition
//! handoffs, and their replies — has one explicit byte layout here, so a
//! client and server built from different checkouts either interoperate
//! bit-exactly or fail loudly on the version byte.
//!
//! ## Frame layout (v2)
//!
//! Every frame is a 4-byte **little-endian** `u32` payload length
//! followed by the payload. All multi-byte integers in the payload are
//! little-endian; `f32` values travel as their IEEE-754 bit patterns.
//!
//! ```text
//! frame   := len:u32 payload[len]
//! command := version:u8 (=0x02) opcode:u8 seq:u64 body
//! reply   := version:u8 (=0x02) opcode:u8 body
//!
//! commands                         replies
//!   0x01 Admit   patient:u64        0x81 Ok
//!   0x02 Batch   samples:vec        0x82 Err      msg:str
//!   0x03 Poll                       0x83 Ack      seq:u64 cum_samples:u64
//!   0x04 Finish  patient:u64                      cum_dropped:u64
//!   0x05 Export  patient:u64        0x84 Output   collector
//!   0x06 Import  patient:u64        0x85 Handoff  handoff
//!               handoff             0x86 Resume   last_applied_seq:u64
//!   0x07 Hello   session:u64                      cum_samples:u64
//!               epoch:u64                         cum_dropped:u64
//!               last_acked_seq:u64  0x87 Admitted meta
//!   0x08 HistoryQuery patient:u64
//!                t0:i64 t1:i64
//!                warmup:i64
//!                pipeline:u32
//!
//! sample    := patient:u64 source:u32 t:i64 v:f32          (24 bytes)
//! vec       := count:u32 item*
//! str       := len:u32 utf8-bytes
//! collector := arity:u32 len:u32 times:i64*len
//!              durations:i64*len (values:f32*len)*arity
//! suffix    := base_slot:u64 watermark:i64
//!              values:u32+f32* ranges:u32+(start:i64 end:i64)*
//! snapshot  := next_round:i64 sources:u32+suffix*
//! handoff   := snapshot collector errors:u32+str*
//! meta      := round:i64 arity:u32
//!              sources:u32+(offset:i64 period:i64 margin:i64)*
//! ```
//!
//! ## v1 → v2 changes
//!
//! v1 carried no sequencing: a command payload was `version opcode body`
//! and [`Ack`](WireReply::Ack) carried the per-command stats *delta*.
//! v2 makes every connection resumable:
//!
//! * **Every command carries a session-scoped `seq`** (first frame of a
//!   session is seq 1; [`Hello`](WireCmd::Hello) itself travels as
//!   seq 0 because it is connection metadata, not session state).
//! * **`Hello` / `Resume` handshake.** The first frame on every
//!   connection is `Hello{session, epoch, last_acked_seq}`; the server
//!   answers `Resume{last_applied_seq, ..}` so a reconnecting client
//!   knows exactly which un-acked frames to replay. `epoch` increments
//!   on each redial and the server refuses stale epochs, so a delayed
//!   old socket can never resurrect a superseded connection.
//! * **Acks are cumulative.** `Ack{seq, cum_samples, cum_dropped}`
//!   echoes the command seq and carries session-lifetime totals, so a
//!   client that lost acks in a sever still reconciles its counters
//!   exactly from the next ack it sees.
//! * **`Admit` is answered by `Admitted{meta}`** describing the
//!   session's round, sink arity, and per-source shape + history margin
//!   — the exact facts a failover peer needs to size replay buffers.
//!
//! The bytes are written and read by [`lifestream_core::codec`], the
//! codec the segment store shares (DESIGN.md, "the one-codec rule"): the
//! `suffix`'s `values ranges` tail is its span body, and every
//! `vec`/`str` count is validated against the bytes actually left in its
//! frame before anything is allocated. A collector's arity — whose
//! columns can be zero bytes long — is checked against
//! [`MAX_WIRE_ARITY`] here. So a corrupt or hostile frame is refused,
//! never amplified into an allocation. Opcodes, the version byte and the
//! framing are this module's.
//!
//! The layout is locked by golden-byte fixtures in
//! `crates/cluster/tests/wire_codec.rs`: changing any of the above
//! without bumping [`WIRE_VERSION`] fails those tests, not a production
//! peer.

use std::io::{self, Read, Write};

use lifestream_core::codec::{
    put_f32, put_i64, put_span, put_str, put_u32, put_u64, CodecError, Reader,
};
use lifestream_core::exec::OutputCollector;
use lifestream_core::live::{SessionSnapshot, SourceSuffix};

use crate::sharded::{PatientHandoff, PatientId, Sample, SessionMeta, SourceMeta};

/// Wire-format version byte every payload starts with.
pub const WIRE_VERSION: u8 = 2;

/// Hard ceiling on a frame payload (64 MiB): a corrupt or hostile length
/// prefix must not become an allocation bomb.
pub const MAX_FRAME: usize = 64 << 20;

/// Hard ceiling on a decoded collector's payload arity. The engine's own
/// limit is 8 ([`lifestream_core::fwindow::MAX_ARITY`]); the wire allows
/// headroom but must bound it, because arity is the one count whose
/// elements can occupy *zero* payload bytes (a zero-length collector),
/// so the remaining-bytes check below cannot constrain it.
pub const MAX_WIRE_ARITY: usize = 1024;

/// A decoded ingest command (client → server).
#[derive(Debug)]
pub enum WireCmd {
    /// Register a patient: compile its query, open its live session.
    Admit {
        /// Patient to admit.
        patient: PatientId,
    },
    /// A staged run of samples, applied in push order.
    Batch(Vec<Sample>),
    /// Process all complete rounds of every session.
    Poll,
    /// End a patient's stream and return its collected output.
    Finish {
        /// Patient to finish.
        patient: PatientId,
    },
    /// Remove a patient's session and return its handoff state.
    Export {
        /// Patient to export.
        patient: PatientId,
    },
    /// Re-create a patient session from handoff state.
    Import {
        /// Patient to import.
        patient: PatientId,
        /// The exported session state.
        state: Box<PatientHandoff>,
    },
    /// Session handshake: the first frame on every connection.
    ///
    /// A fresh session sends `epoch == 0` and `last_acked_seq == 0`; a
    /// reconnect bumps `epoch` and reports the highest seq it has seen
    /// acknowledged, so the server's [`Resume`](WireReply::Resume) tells
    /// it exactly which window frames to replay.
    Hello {
        /// Client-chosen session identity, stable across reconnects.
        session: u64,
        /// Connection attempt number within the session; the server
        /// refuses Hellos with an epoch older than one it has seen.
        epoch: u64,
        /// Highest command seq the client knows was applied.
        last_acked_seq: u64,
    },
    /// Retrospective query: re-run a pipeline over the patient's durable
    /// history (segments + write buffer + live suffix), clipped to
    /// `[t0, t1)`, and return the collected output. Requires a
    /// server-side tiered store; the live session, if any, keeps
    /// ingesting — the query runs on a stitched copy. Range-bounded
    /// queries only read segment files overlapping the window, and the
    /// full-range sentinel `(i64::MIN, i64::MAX)` means "everything".
    /// Answered by [`Output`](WireReply::Output).
    HistoryQuery {
        /// Patient whose history to re-run.
        patient: PatientId,
        /// Inclusive start of the query range (`i64::MIN` = open).
        t0: i64,
        /// Exclusive end of the query range (`i64::MAX` = open).
        t1: i64,
        /// Extra pre-roll ticks for stateful user transforms.
        warmup: i64,
        /// Server-side pipeline registry id (`0` = the live pipeline).
        pipeline: u32,
    },
}

/// A decoded reply (server → client). Every command frame gets exactly
/// one reply frame, in order.
#[derive(Debug)]
pub enum WireReply {
    /// The command succeeded with nothing to return.
    Ok,
    /// The command failed; the message preserves the server-side error.
    Err(String),
    /// A batch (or poll) was applied. `seq` echoes the command; the
    /// counters are **cumulative** session totals of the server's
    /// [`IngestStats`] contributions — samples accepted and samples
    /// dropped for unknown patients — so a client whose acks were lost
    /// in a sever reconciles exactly from the next ack it sees.
    ///
    /// [`IngestStats`]: crate::sharded::IngestStats
    Ack {
        /// The command seq this ack answers.
        seq: u64,
        /// Session-lifetime samples the server has applied.
        cum_samples: u64,
        /// Session-lifetime samples dropped for unknown patients.
        cum_dropped: u64,
    },
    /// A finished patient's collected output.
    Output(OutputCollector),
    /// An exported patient's handoff state.
    Handoff(Box<PatientHandoff>),
    /// Answer to [`Hello`](WireCmd::Hello): where the session stands.
    Resume {
        /// Highest command seq the server has applied for this session.
        last_applied_seq: u64,
        /// Session-lifetime samples applied (matches the ack counters).
        cum_samples: u64,
        /// Session-lifetime samples dropped for unknown patients.
        cum_dropped: u64,
    },
    /// Answer to [`Admit`](WireCmd::Admit): the compiled session's
    /// shape facts a failover peer needs to size replay buffers.
    Admitted {
        /// Round, sink arity, and per-source shape + history margin.
        meta: SessionMeta,
    },
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure did.
    Truncated,
    /// The version byte is not [`WIRE_VERSION`].
    Version(u8),
    /// Unknown opcode for this payload kind.
    Opcode(u8),
    /// A string field is not valid UTF-8.
    Utf8,
    /// Bytes remained after the structure was fully decoded.
    Trailing(usize),
    /// A declared length or count exceeds what its frame can hold (or a
    /// protocol ceiling such as [`MAX_FRAME`] / [`MAX_WIRE_ARITY`]).
    TooLarge(usize),
    /// The peer vanished mid-frame — EOF inside a length prefix or a
    /// payload. Unlike every other variant this is not a malformed
    /// byte stream; it is a severed one, and the only retryable error.
    ConnectionLost,
}

impl WireError {
    /// Whether a reconnect could clear this error. Structural errors
    /// (bad version, hostile counts, trailing bytes) are permanent —
    /// the same bytes will fail the same way — but a severed connection
    /// is worth redialing.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, WireError::ConnectionLost)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Version(v) => {
                write!(f, "wire version {v} (this build speaks {WIRE_VERSION})")
            }
            WireError::Opcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Utf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::TooLarge(n) => {
                write!(f, "declared length {n} exceeds its frame or a protocol cap")
            }
            WireError::ConnectionLost => write!(f, "connection lost mid-frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// Whether an I/O error is worth a reconnect attempt.
///
/// Errors that wrap a [`WireError`] defer to
/// [`WireError::is_retryable`]; otherwise the error kind decides.
/// `WouldBlock` is retryable because Unix sockets surface a read
/// timeout as `WouldBlock`, and a timed-out read is exactly the
/// black-holed-connection case a redial exists to fix.
#[must_use]
pub fn retryable_io(e: &io::Error) -> bool {
    if let Some(inner) = e.get_ref() {
        if let Some(w) = inner.downcast_ref::<WireError>() {
            return w.is_retryable();
        }
    }
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::Interrupted
    )
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_samples(buf: &mut Vec<u8>, samples: &[Sample]) {
    put_u32(buf, samples.len() as u32);
    for &(patient, source, t, v) in samples {
        put_u64(buf, patient);
        put_u32(buf, source as u32);
        put_i64(buf, t);
        put_f32(buf, v);
    }
}

fn put_collector(buf: &mut Vec<u8>, c: &OutputCollector) {
    put_u32(buf, c.arity() as u32);
    put_u32(buf, c.len() as u32);
    for t in c.iter_times() {
        put_i64(buf, t);
    }
    for r in c.runs() {
        for _ in 0..r.n {
            put_i64(buf, r.duration);
        }
    }
    for f in 0..c.arity() {
        for &v in c.values(f) {
            put_f32(buf, v);
        }
    }
}

fn put_handoff(buf: &mut Vec<u8>, h: &PatientHandoff) {
    put_i64(buf, h.snapshot.next_round);
    put_u32(buf, h.snapshot.sources.len() as u32);
    for s in &h.snapshot.sources {
        put_u64(buf, s.base_slot);
        put_i64(buf, s.watermark);
        put_span(buf, &s.values, &s.ranges);
    }
    put_collector(buf, &h.output);
    put_u32(buf, h.errors.len() as u32);
    for e in &h.errors {
        put_str(buf, e);
    }
}

fn put_meta(buf: &mut Vec<u8>, m: &SessionMeta) {
    put_i64(buf, m.round);
    put_u32(buf, m.arity as u32);
    put_u32(buf, m.sources.len() as u32);
    for s in &m.sources {
        put_i64(buf, s.offset);
        put_i64(buf, s.period);
        put_i64(buf, s.margin);
    }
}

/// Encodes a command as a v2 payload (version + opcode + seq + body).
pub fn encode_cmd(seq: u64, cmd: &WireCmd) -> Vec<u8> {
    let opcode = match cmd {
        WireCmd::Admit { .. } => 0x01,
        WireCmd::Batch(_) => 0x02,
        WireCmd::Poll => 0x03,
        WireCmd::Finish { .. } => 0x04,
        WireCmd::Export { .. } => 0x05,
        WireCmd::Import { .. } => 0x06,
        WireCmd::Hello { .. } => 0x07,
        WireCmd::HistoryQuery { .. } => 0x08,
    };
    let mut buf = vec![WIRE_VERSION, opcode];
    put_u64(&mut buf, seq);
    match cmd {
        WireCmd::Admit { patient } | WireCmd::Finish { patient } | WireCmd::Export { patient } => {
            put_u64(&mut buf, *patient);
        }
        WireCmd::Batch(samples) => put_samples(&mut buf, samples),
        WireCmd::Poll => {}
        WireCmd::Import { patient, state } => {
            put_u64(&mut buf, *patient);
            put_handoff(&mut buf, state);
        }
        WireCmd::Hello {
            session,
            epoch,
            last_acked_seq,
        } => {
            put_u64(&mut buf, *session);
            put_u64(&mut buf, *epoch);
            put_u64(&mut buf, *last_acked_seq);
        }
        WireCmd::HistoryQuery {
            patient,
            t0,
            t1,
            warmup,
            pipeline,
        } => {
            put_u64(&mut buf, *patient);
            put_i64(&mut buf, *t0);
            put_i64(&mut buf, *t1);
            put_i64(&mut buf, *warmup);
            put_u32(&mut buf, *pipeline);
        }
    }
    buf
}

/// Encodes a reply as a v2 payload.
pub fn encode_reply(reply: &WireReply) -> Vec<u8> {
    let mut buf = vec![WIRE_VERSION];
    match reply {
        WireReply::Ok => buf.push(0x81),
        WireReply::Err(msg) => {
            buf.push(0x82);
            put_str(&mut buf, msg);
        }
        WireReply::Ack {
            seq,
            cum_samples,
            cum_dropped,
        } => {
            buf.push(0x83);
            put_u64(&mut buf, *seq);
            put_u64(&mut buf, *cum_samples);
            put_u64(&mut buf, *cum_dropped);
        }
        WireReply::Output(c) => {
            buf.push(0x84);
            put_collector(&mut buf, c);
        }
        WireReply::Handoff(h) => {
            buf.push(0x85);
            put_handoff(&mut buf, h);
        }
        WireReply::Resume {
            last_applied_seq,
            cum_samples,
            cum_dropped,
        } => {
            buf.push(0x86);
            put_u64(&mut buf, *last_applied_seq);
            put_u64(&mut buf, *cum_samples);
            put_u64(&mut buf, *cum_dropped);
        }
        WireReply::Admitted { meta } => {
            buf.push(0x87);
            put_meta(&mut buf, meta);
        }
    }
    buf
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WireError::Truncated,
            CodecError::TooLarge(n) => WireError::TooLarge(n),
            CodecError::Trailing(n) => WireError::Trailing(n),
            CodecError::Utf8 => WireError::Utf8,
        }
    }
}

fn samples(r: &mut Reader<'_>) -> Result<Vec<Sample>, WireError> {
    let n = r.count(24)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.u64()?, r.u32()? as usize, r.i64()?, r.f32()?));
    }
    Ok(out)
}

/// A collector's arity, or a meta's: the one count whose elements may
/// occupy zero payload bytes (a zero-length collector), so the
/// remaining-bytes rule cannot bound it and [`MAX_WIRE_ARITY`] does.
fn arity(r: &mut Reader<'_>) -> Result<usize, WireError> {
    match r.u32()? as usize {
        n if n > MAX_WIRE_ARITY => Err(WireError::TooLarge(n)),
        n => Ok(n),
    }
}

fn collector(r: &mut Reader<'_>) -> Result<OutputCollector, WireError> {
    let arity = arity(r)?;
    // Each event row occupies 16 bytes of times+durations (plus
    // 4 × arity of field values the column takes enforce).
    let len = r.count(16)?;
    let mut times = Reader::new(r.take(len * 8)?);
    let mut durations = Reader::new(r.take(len * 8)?);
    let mut columns = (0..arity)
        .map(|_| r.take(len * 4).map(Reader::new))
        .collect::<Result<Vec<_>, _>>()?;
    let mut c = OutputCollector::new(arity);
    let mut row = vec![0.0f32; arity];
    for _ in 0..len {
        for (slot, column) in row.iter_mut().zip(&mut columns) {
            *slot = column.f32()?;
        }
        c.push(times.i64()?, durations.i64()?, &row);
    }
    Ok(c)
}

fn handoff(r: &mut Reader<'_>) -> Result<PatientHandoff, WireError> {
    let next_round = r.i64()?;
    // A source suffix is at least base_slot + watermark + two counts.
    let nsources = r.count(24)?;
    let mut sources = Vec::with_capacity(nsources);
    for _ in 0..nsources {
        let (base_slot, watermark, span) = (r.u64()?, r.i64()?, r.span()?);
        sources.push(SourceSuffix {
            base_slot,
            watermark,
            values: span.values().collect(),
            ranges: span.ranges().collect(),
        });
    }
    let output = collector(r)?;
    let nerrors = r.count(4)?;
    let mut errors = Vec::with_capacity(nerrors);
    for _ in 0..nerrors {
        errors.push(r.str()?.to_owned());
    }
    Ok(PatientHandoff {
        snapshot: SessionSnapshot {
            next_round,
            sources,
        },
        output,
        errors,
    })
}

fn meta(r: &mut Reader<'_>) -> Result<SessionMeta, WireError> {
    let round = r.i64()?;
    let arity = arity(r)?;
    let nsources = r.count(24)?;
    let mut sources = Vec::with_capacity(nsources);
    for _ in 0..nsources {
        sources.push(SourceMeta {
            offset: r.i64()?,
            period: r.i64()?,
            margin: r.i64()?,
        });
    }
    Ok(SessionMeta {
        round,
        arity,
        sources,
    })
}

fn open(payload: &[u8]) -> Result<(Reader<'_>, u8), WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::Version(version));
    }
    let opcode = r.u8()?;
    Ok((r, opcode))
}

/// Decodes a command payload into its session seq and command.
///
/// # Errors
/// Returns a [`WireError`] on any structural mismatch — wrong version,
/// unknown opcode, short or over-long body.
pub fn decode_cmd(payload: &[u8]) -> Result<(u64, WireCmd), WireError> {
    let (mut r, opcode) = open(payload)?;
    let seq = r.u64()?;
    let cmd = match opcode {
        0x01 => WireCmd::Admit { patient: r.u64()? },
        0x02 => WireCmd::Batch(samples(&mut r)?),
        0x03 => WireCmd::Poll,
        0x04 => WireCmd::Finish { patient: r.u64()? },
        0x05 => WireCmd::Export { patient: r.u64()? },
        0x06 => WireCmd::Import {
            patient: r.u64()?,
            state: Box::new(handoff(&mut r)?),
        },
        0x07 => WireCmd::Hello {
            session: r.u64()?,
            epoch: r.u64()?,
            last_acked_seq: r.u64()?,
        },
        0x08 => WireCmd::HistoryQuery {
            patient: r.u64()?,
            t0: r.i64()?,
            t1: r.i64()?,
            warmup: r.i64()?,
            pipeline: r.u32()?,
        },
        op => return Err(WireError::Opcode(op)),
    };
    r.finish()?;
    Ok((seq, cmd))
}

/// Decodes a reply payload.
///
/// # Errors
/// Returns a [`WireError`] on any structural mismatch.
pub fn decode_reply(payload: &[u8]) -> Result<WireReply, WireError> {
    let (mut r, opcode) = open(payload)?;
    let reply = match opcode {
        0x81 => WireReply::Ok,
        0x82 => WireReply::Err(r.str()?.to_owned()),
        0x83 => WireReply::Ack {
            seq: r.u64()?,
            cum_samples: r.u64()?,
            cum_dropped: r.u64()?,
        },
        0x84 => WireReply::Output(collector(&mut r)?),
        0x85 => WireReply::Handoff(Box::new(handoff(&mut r)?)),
        0x86 => WireReply::Resume {
            last_applied_seq: r.u64()?,
            cum_samples: r.u64()?,
            cum_dropped: r.u64()?,
        },
        0x87 => WireReply::Admitted {
            meta: meta(&mut r)?,
        },
        op => return Err(WireError::Opcode(op)),
    };
    r.finish()?;
    Ok(reply)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
/// Propagates I/O errors; refuses payloads over [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            WireError::TooLarge(payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

fn lost() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, WireError::ConnectionLost)
}

/// Reads until `buf` is full or the stream ends; returns the bytes read.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => break,
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(at)
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed the stream between frames); EOF
/// mid-frame — inside the length prefix or the payload — surfaces as
/// `UnexpectedEof` wrapping [`WireError::ConnectionLost`], so callers
/// can tell a severed peer (retryable) from a malformed stream (fatal)
/// via [`retryable_io`].
///
/// # Errors
/// Propagates I/O errors; refuses length prefixes over [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match fill(r, &mut len)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(lost()),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::TooLarge(len),
        ));
    }
    let mut payload = vec![0u8; len];
    if fill(r, &mut payload)? < len {
        return Err(lost());
    }
    Ok(Some(payload))
}
