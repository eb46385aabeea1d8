//! The serving side of the shard fabric: a TCP listener in front of a
//! sharded live-ingest runtime.
//!
//! ## Pipelined apply, burst acks
//!
//! A connection handler never waits for a shard between two frames it
//! can already read. It decodes a `Batch` or `Poll`, enqueues it on the
//! shard channels, and queues the reply it now *owes* in the session
//! record; the ack contract of [`super`] (an ack means applied; one per
//! command, in order, exact cumulative counters) is kept by settling that
//! queue strictly from the oldest reply on:
//!
//! * after every frame, replies whose work is already done are written
//!   into the socket buffer without blocking;
//! * when the read buffer is empty — the next `read` may sleep — the
//!   handler waits for everything owed, writes it, and flushes, so a
//!   burst of frames costs a burst of acks, one wake-up (it sleeps on the
//!   newest batch, not on each in turn) and one `write` — two when some
//!   acks were ready before it slept: whatever is written goes out before
//!   the handler waits on a shard, so a ready ack never sits behind a
//!   slow batch;
//! * a synchronous command (admit / finish / export / import / history
//!   query) waits for everything owed before it runs;
//! * the queue is bounded by the depth of a shard channel
//!   ([`IngestConfig::channel_cap`]): past it the handler blocks on the
//!   oldest reply, so a peer that ignores its ack window cannot grow the
//!   handler, only stall itself.
//!
//! The queue lives in the session record, under the session lock, not in
//! the connection: when a socket dies with replies still owed, the
//! successor connection first settles them (their acks go nowhere — the
//! client replays those frames and is answered from the record), and only
//! then answers `Resume` with a `last_applied_seq` and counters that are
//! exact. Exactly-once replay keys off that `last_applied_seq` as before.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use lifestream_store::StoreConfig;

use crate::history::{CohortReport, HistoryQuery};
use crate::sharded::{BatchTicket, IngestConfig, IngestStats, LiveIngest, PipelineFactory};

use super::wire::{self, WireCmd, WireReply};
use super::SOCKET_BUF;

/// Everything the server remembers about one client session — the state
/// that makes reconnect-with-resume exactly-once.
///
/// A session outlives its connections: when a socket dies and the client
/// redials with a bumped epoch, the new connection finds this record,
/// answers `Resume{last_applied_seq}` from it, and deduplicates every
/// replayed window frame against `last_applied`.
struct SessionState {
    /// Highest Hello epoch seen; an older epoch is a zombie socket.
    epoch: u64,
    /// Highest command seq taken in (commands are enqueued, and so
    /// applied, strictly in order). Everything up to it is *applied* once
    /// `owed` is empty — which it is whenever a `Resume` reports it.
    last_applied: u64,
    /// Session-lifetime samples applied (rides every ack); covers the
    /// settled replies only.
    cum_samples: u64,
    /// Session-lifetime samples dropped for unknown patients; likewise.
    cum_dropped: u64,
    /// The encoded reply of the newest synchronous command (admit /
    /// finish / export / import), kept so a replayed duplicate returns
    /// the *original* outcome — success or error — without the side
    /// effect running twice.
    last_sync: Option<(u64, Vec<u8>)>,
    /// Acks owed for commands already handed to the shards, oldest first.
    owed: VecDeque<Owed>,
}

/// One ack the session owes.
struct Owed {
    seq: u64,
    /// A batch's sample count and completion ticket. `None` for a poll or
    /// a replayed duplicate, whose ack is due as soon as every earlier
    /// reply is out.
    batch: Option<(u64, BatchTicket)>,
}

impl SessionState {
    /// Settles owed replies from the oldest on: folds each batch's drop
    /// count into the cumulative counters and writes its ack to `w`. The
    /// first `must` replies are waited for; after them it stops at the
    /// first batch a shard has not applied yet. Before it waits it
    /// flushes `w`: an ack that is ready is never held back by a batch
    /// that is not.
    fn settle<W: Write>(&mut self, w: &mut W, mut must: usize) -> io::Result<()> {
        while let Some(front) = self.owed.front_mut() {
            if let Some((samples, ticket)) = &mut front.batch {
                let dropped = match ticket.try_wait() {
                    Some(dropped) => dropped,
                    None if must > 0 => {
                        w.flush()?;
                        ticket.wait()
                    }
                    None => break,
                };
                self.cum_samples += *samples - dropped;
                self.cum_dropped += dropped;
            }
            let ack = WireReply::Ack {
                seq: front.seq,
                cum_samples: self.cum_samples,
                cum_dropped: self.cum_dropped,
            };
            self.owed.pop_front();
            must = must.saturating_sub(1);
            wire::write_frame(w, &wire::encode_reply(&ack))?;
        }
        Ok(())
    }

    /// Settles everything owed. What is ready is written (and, if there
    /// is more to come, sent) first; then the handler sleeps once, on the
    /// newest batch — a shard applies in order, so waking for each batch
    /// of a burst in turn would buy a context switch per frame — and
    /// collects the rest.
    fn settle_all<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        self.settle(w, 0)?;
        let newest = self.owed.iter_mut().rev().find_map(|o| o.batch.as_mut());
        if let Some((_, ticket)) = newest {
            if ticket.try_wait().is_none() {
                w.flush()?;
                ticket.wait();
            }
        }
        self.settle(w, usize::MAX)
    }
}

/// What every connection handler of one server shares.
struct Shared {
    ingest: LiveIngest,
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
    /// Longest any session's `owed` queue has been after a frame.
    owed_high_water: AtomicUsize,
}

/// Live connections: the handler thread plus a raw socket handle that
/// [`ShardServer::kill`] can sever mid-frame.
type ConnList = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// One machine of the shard fabric: a [`LiveIngest`] (sharded worker
/// threads, pooled sessions, bounded channels) hosted behind a TCP
/// listener speaking the [`wire`] protocol.
///
/// Each accepted connection opens with a `Hello`/`Resume` handshake,
/// then gets a handler thread that decodes command frames, executes them
/// against the shared ingest exactly once (replayed duplicates are
/// answered from the session record), and writes exactly one reply frame
/// per command, in order (how the handler pipelines that is in the module
/// docs). Backpressure composes: when the ingest's bounded shard channels
/// fill, the handler blocks enqueueing a batch, its acks stop, the
/// client's in-flight window fills, and the remote producer's `push`
/// blocks — the same discipline as in-process, stretched over TCP.
pub struct ShardServer {
    local: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: ConnList,
}

impl ShardServer {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) and
    /// starts serving the ingest described by `factory` + `cfg`.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind<A: ToSocketAddrs>(
        factory: PipelineFactory,
        cfg: IngestConfig,
        addr: A,
    ) -> io::Result<Self> {
        Self::bind_ingest(LiveIngest::with_config(factory, cfg), addr)
    }

    /// Like [`bind`](Self::bind), but the hosted ingest spills every
    /// compacted span to the tiered store described by `store_cfg`, and
    /// the server answers [`HistoryQuery`](WireCmd::HistoryQuery)
    /// commands with retrospective re-runs over the durable history.
    /// Several servers may share one store directory (e.g. a failover
    /// pair on shared storage): segment filenames carry a per-writer
    /// nonce, so concurrent writers never collide.
    ///
    /// # Errors
    /// Propagates bind failures and store-directory creation failures.
    pub fn bind_with_store<A: ToSocketAddrs>(
        factory: PipelineFactory,
        cfg: IngestConfig,
        store_cfg: StoreConfig,
        addr: A,
    ) -> io::Result<Self> {
        Self::bind_ingest(LiveIngest::with_store(factory, cfg, store_cfg)?, addr)
    }

    fn bind_ingest<A: ToSocketAddrs>(ingest: LiveIngest, addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            ingest,
            sessions: Mutex::new(HashMap::new()),
            owed_high_water: AtomicUsize::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let conns: ConnList = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name(format!("shard-server-{local}"))
                .spawn(move || {
                    for sock in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(sock) = sock else { continue };
                        // Keep a handle on the raw socket so `kill` can
                        // sever it mid-frame, like a machine dying would.
                        let Ok(raw) = sock.try_clone() else { continue };
                        let shared = Arc::clone(&shared);
                        let handle = std::thread::Builder::new()
                            .name("shard-conn".into())
                            .spawn(move || serve_conn(sock, &shared))
                            .expect("spawn connection handler");
                        let mut conns = conns.lock().expect("conns lock");
                        // Prune handles of connections that already
                        // ended, so a long-lived server churning through
                        // short connections does not accumulate them.
                        conns.retain(|(h, _)| !h.is_finished());
                        conns.push((handle, raw));
                    }
                })
                .expect("spawn accept loop")
        };
        Ok(Self {
            local,
            shared,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Server-side ingest counters (what the hosted [`LiveIngest`] saw).
    pub fn ingest_stats(&self) -> IngestStats {
        self.shared.ingest.stats()
    }

    /// The most acks any session has owed at once after serving a frame:
    /// a gauge of how far connection handlers run ahead of the shards,
    /// never above [`IngestConfig::channel_cap`].
    pub fn ack_backlog_high_water(&self) -> usize {
        self.shared.owed_high_water.load(Ordering::Relaxed)
    }

    /// Registers a retrospective pipeline under `id` on the hosted
    /// ingest, so wire clients can run it by naming the id in a
    /// [`HistoryQuery`](WireCmd::HistoryQuery) (`0` always means the
    /// live pipeline).
    ///
    /// # Errors
    /// Rejects the reserved id `0`.
    pub fn register_pipeline(&self, id: u32, factory: PipelineFactory) -> Result<(), String> {
        self.shared.ingest.register_pipeline(id, factory)
    }

    /// Stops accepting, joins every connection handler, and shuts the
    /// hosted ingest down. Call after clients have disconnected — a
    /// still-connected client keeps its handler (and this call) alive
    /// until it closes or fails.
    pub fn shutdown(mut self) {
        self.stop_accepting(false);
    }

    /// Hard-kills the machine: severs every live connection mid-frame,
    /// closes the listener, and tears the ingest down without draining.
    /// From a client's point of view this is indistinguishable from the
    /// machine losing power — in-flight frames are cut, redials are
    /// refused — which is exactly what the failover tests need.
    pub fn kill(mut self) {
        self.stop_accepting(true);
    }

    fn stop_accepting(&mut self, sever: bool) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        if sever {
            let conns = self.conns.lock().expect("conns lock");
            for (_, sock) in conns.iter() {
                let _ = sock.shutdown(Shutdown::Both);
            }
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.conns.lock().expect("conns lock").drain(..).collect();
        for (h, _) in handles {
            let _ = h.join();
        }
        // The ingest is dropped with self; its Drop runs the
        // close-channels-and-join protocol.
    }
}

impl Drop for ShardServer {
    /// Dropping runs the same protocol as [`shutdown`](Self::shutdown).
    fn drop(&mut self) {
        self.stop_accepting(false);
    }
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("local", &self.local)
            .finish()
    }
}

/// One connection's command loop: handshake, then frames in, each
/// executed exactly once, replies out in bursts (see the module docs).
fn serve_conn(sock: TcpStream, shared: &Shared) {
    let raw = sock.try_clone().ok();
    run_conn(sock, shared);
    // The accept loop holds another clone of this socket (for `kill`),
    // so dropping our handles does not close the connection. Shut it
    // down explicitly so the peer sees EOF as soon as the handler ends
    // — e.g. right after the Err reply to a malformed frame.
    if let Some(raw) = raw {
        let _ = raw.shutdown(Shutdown::Both);
    }
}

fn run_conn(sock: TcpStream, shared: &Shared) {
    let _ = sock.set_nodelay(true);
    let mut reader = BufReader::with_capacity(SOCKET_BUF, sock.try_clone().expect("clone socket"));
    let mut writer = BufWriter::with_capacity(SOCKET_BUF, sock);

    // --- Handshake: the first frame must be Hello. -------------------
    let Ok(Some(payload)) = wire::read_frame(&mut reader) else {
        return;
    };
    let hello = match wire::decode_cmd(&payload) {
        Ok((
            _,
            WireCmd::Hello {
                session,
                epoch,
                last_acked_seq: _,
            },
        )) => Some((session, epoch)),
        Ok(_) => None,
        Err(e) => {
            let _ = reply_one(
                &mut writer,
                &WireReply::Err(format!("malformed command: {e}")),
            );
            return;
        }
    };
    let Some((session_id, my_epoch)) = hello else {
        let _ = reply_one(
            &mut writer,
            &WireReply::Err("handshake required: first frame must be Hello".into()),
        );
        return;
    };
    let state = Arc::clone(
        shared
            .sessions
            .lock()
            .expect("sessions lock")
            .entry(session_id)
            .or_insert_with(|| {
                Arc::new(Mutex::new(SessionState {
                    epoch: my_epoch,
                    last_applied: 0,
                    cum_samples: 0,
                    cum_dropped: 0,
                    last_sync: None,
                    owed: VecDeque::new(),
                }))
            }),
    );
    {
        let mut st = state.lock().expect("session lock");
        if my_epoch < st.epoch {
            // A zombie socket from a superseded connection attempt.
            let _ = reply_one(
                &mut writer,
                &WireReply::Err(format!(
                    "stale epoch {my_epoch} (session is at epoch {})",
                    st.epoch
                )),
            );
            return;
        }
        st.epoch = my_epoch;
        // Whatever the previous connection enqueued is applied before
        // `Resume` names it: `last_applied` and both counters are then
        // exact, and the acks nobody will read are discarded — the client
        // replays those frames and gets them from `replay`.
        let _ = st.settle_all(&mut io::sink());
        let resume = WireReply::Resume {
            last_applied_seq: st.last_applied,
            cum_samples: st.cum_samples,
            cum_dropped: st.cum_dropped,
        };
        if reply_one(&mut writer, &resume).is_err() {
            return;
        }
    }

    // --- Command loop. -----------------------------------------------
    // Clean EOF or a dead peer ends the loop either way; sessions (and
    // the replies they still owe) live on the server and survive the
    // connection.
    loop {
        if reader.buffer().is_empty() {
            // The next read may sleep: first wait for everything owed and
            // send it, one flush for the whole burst.
            let mut st = state.lock().expect("session lock");
            if st.epoch == my_epoch && st.settle_all(&mut writer).is_err() {
                break;
            }
            drop(st);
            if writer.flush().is_err() {
                break;
            }
        }
        let Ok(Some(payload)) = wire::read_frame(&mut reader) else {
            break;
        };
        let decoded = wire::decode_cmd(&payload);
        // The session lock is held across decode-check + execute +
        // seq update, so a zombie connection can never interleave with
        // its successor mid-command.
        let mut st = state.lock().expect("session lock");
        let served = serve_frame(&mut st, my_epoch, decoded, shared, &mut writer);
        drop(st);
        if !matches!(served, Ok(true)) {
            let _ = writer.flush();
            break;
        }
    }
}

fn reply_one<W: Write>(w: &mut BufWriter<W>, reply: &WireReply) -> io::Result<()> {
    wire::write_frame(w, &wire::encode_reply(reply))?;
    w.flush()
}

/// Serves one frame under the session lock. A `Batch` or `Poll` is
/// enqueued on the shards and its reply queued as owed; a synchronous
/// command waits for everything owed, runs, and is answered in place. Owed
/// replies that are already done are written out (not flushed) on the way.
/// `Ok(false)` means a fatal reply was written and the connection ends.
fn serve_frame<W: Write>(
    st: &mut SessionState,
    my_epoch: u64,
    decoded: Result<(u64, WireCmd), wire::WireError>,
    shared: &Shared,
    w: &mut W,
) -> io::Result<bool> {
    let refuse = |w: &mut W, msg: String| {
        wire::write_frame(w, &wire::encode_reply(&WireReply::Err(msg))).map(|()| false)
    };
    if st.epoch != my_epoch {
        // The session, with every reply it owes, is the successor's now.
        return refuse(w, format!("connection superseded by epoch {}", st.epoch));
    }
    let frame = match decoded {
        Ok((_, WireCmd::Hello { .. })) => Err("unexpected mid-stream Hello".to_string()),
        Ok((seq, _)) if seq > st.last_applied + 1 => Err(format!(
            "seq gap: got {seq}, expected {}",
            st.last_applied + 1
        )),
        Ok(frame) => Ok(frame),
        Err(e) => Err(format!("malformed command: {e}")),
    };
    let (seq, cmd) = match frame {
        Ok(frame) => frame,
        Err(msg) => {
            // A fatal reply still comes after the replies owed before it.
            st.settle_all(w)?;
            return refuse(w, msg);
        }
    };
    // A replayed window frame the session already applied is answered
    // without re-executing: an ack with the counters as they stand, or
    // the cached reply of the newest synchronous command.
    let replayed = seq <= st.last_applied;
    match cmd {
        WireCmd::Batch(_) | WireCmd::Poll if replayed => {
            st.owed.push_back(Owed { seq, batch: None });
        }
        WireCmd::Batch(samples) => {
            let batch = Some((samples.len() as u64, shared.ingest.ingest_batch(samples)));
            st.owed.push_back(Owed { seq, batch });
        }
        WireCmd::Poll => {
            shared.ingest.poll();
            st.owed.push_back(Owed { seq, batch: None });
        }
        sync_cmd => {
            st.settle_all(w)?;
            let bytes = match &st.last_sync {
                Some((cached, bytes)) if replayed && *cached == seq => bytes.clone(),
                // A synchronous duplicate other than the newest one
                // cannot happen inside one ack window (sync commands
                // drain the window first); refuse rather than guess.
                _ if replayed => {
                    return refuse(w, format!("cannot replay synchronous command seq {seq}"))
                }
                // Run once, remember the encoded outcome (including
                // errors) so a replayed duplicate gets the original.
                _ => {
                    let bytes = wire::encode_reply(&run_sync(sync_cmd, &shared.ingest));
                    st.last_sync = Some((seq, bytes.clone()));
                    bytes
                }
            };
            wire::write_frame(w, &bytes)?;
        }
    }
    st.last_applied = st.last_applied.max(seq);
    // Bound what is owed by the depth of a shard channel — a peer that
    // ignores its window blocks here on the oldest reply instead of
    // growing the queue — then write out whatever else is already done.
    let over = st.owed.len().saturating_sub(shared.ingest.channel_cap());
    st.settle(w, over)?;
    shared
        .owed_high_water
        .fetch_max(st.owed.len(), Ordering::Relaxed);
    Ok(true)
}

/// Runs a synchronous command against the ingest.
fn run_sync(cmd: WireCmd, ingest: &LiveIngest) -> WireReply {
    match cmd {
        WireCmd::Admit { patient } => match ingest.admit_meta(patient) {
            Ok(meta) => WireReply::Admitted { meta },
            Err(e) => WireReply::Err(e),
        },
        WireCmd::Finish { patient } => match ingest.finish(patient) {
            Ok(out) => WireReply::Output(out),
            Err(e) => WireReply::Err(e),
        },
        WireCmd::Export { patient } => match ingest.export_patient(patient) {
            Ok(state) => WireReply::Handoff(Box::new(state)),
            Err(e) => WireReply::Err(e),
        },
        WireCmd::Import { patient, state } => match ingest.import_patient(patient, *state) {
            Ok(()) => WireReply::Ok,
            Err(e) => WireReply::Err(e),
        },
        WireCmd::HistoryQuery {
            patient,
            t0,
            t1,
            warmup,
            pipeline,
        } => {
            let query = HistoryQuery::new()
                .patient(patient)
                .range(t0, t1)
                .warmup(warmup)
                .pipeline_id(pipeline);
            match ingest.history(query).and_then(CohortReport::into_single) {
                Ok(out) => WireReply::Output(out),
                Err(e) => WireReply::Err(e.to_string()),
            }
        }
        WireCmd::Batch(_) | WireCmd::Poll | WireCmd::Hello { .. } => {
            unreachable!("not a synchronous command")
        }
    }
}
