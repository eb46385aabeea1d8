//! Cross-machine shard fabric: the ingest protocol over TCP.
//!
//! PR 4 shaped the live data plane around a serializable `SampleBatch`
//! over bounded channels precisely so a wire transport could slide
//! underneath without touching session semantics. This module is that
//! transport, in three layers that mirror Timely Dataflow's exchange
//! design — a process boundary speaks the same channel protocol as a
//! thread boundary:
//!
//! * [`wire`] — the versioned, length-prefixed, little-endian frame
//!   codec for the ingest command stream (batches, register/finish,
//!   polls, partition handoffs, session handshakes) and its acked
//!   replies. The v2 layout is locked by golden-byte fixtures.
//! * [`ShardServer`] / [`RemoteIngest`] — a TCP listener hosting the
//!   sharded live-ingest runtime, and the client that implements the
//!   same staging/backpressure [`Ingest`](crate::sharded::Ingest) API as
//!   the in-process front end: a bounded window of un-acked frames makes
//!   acks the backpressure signal, and server-side drop counts ride the
//!   acks back into the client's stats. The same window doubles as the
//!   *replay buffer*: a client whose socket dies redials with
//!   exponential backoff, handshakes `Hello{epoch, last_acked_seq}` ↔
//!   `Resume{last_applied_seq}`, and re-sends exactly the un-acked
//!   suffix; the server's per-session `last_applied_seq` deduplicates
//!   the overlap, so every frame applies exactly once and a resumed
//!   stream is byte-identical to an uninterrupted one.
//! * [`ClusterIngest`] — hash-partitions patients over N endpoints
//!   ([`machines::home`](crate::machines)) and keeps one live routing
//!   table: a down flag per machine, and per admitted patient its machine
//!   and a client-side margin tail of its session. It moves a patient
//!   between machines mid-stream with a cooperative handoff (drain,
//!   margin-suffix state transfer, re-point the entry) that loses zero
//!   samples. When an endpoint exhausts its reconnect budget the machine
//!   is declared down and its patients are re-admitted on survivors from
//!   their tails — failover rides the same suffix-import warm-up as a
//!   planned handoff.
//! * [`chaos`] — a deterministic in-process fault-injecting TCP proxy
//!   (sever / delay / black-hole at seed-chosen frame boundaries) that
//!   drives the fault-equivalence battery in `tests/fault_equiv.rs`.
//!
//! ## The ack contract
//!
//! Every command gets exactly one reply, and replies come back in command
//! order. For the windowed commands the reply is an `Ack`, and an ack
//! means *applied*: the batch has been pushed into its sessions on every
//! shard it touched (a `Poll`: enqueued on every shard behind all earlier
//! batches), and the ack's `cum_samples` / `cum_dropped` are the exact
//! session-lifetime totals up to and including that command. That is what
//! lets the client's window bound the work in flight, check each ack's
//! delta against the frame it sent, and reconcile drop counts across a
//! lost connection.
//!
//! What the contract does not promise is one `write` per ack. Both ends
//! buffer their socket writes and obey one rule — **flush before blocking
//! on a read**:
//!
//! * the server handler enqueues a frame on the shards and moves on to
//!   the next frame it has already received; acks are written as their
//!   batches complete and flushed when it runs out of input (see
//!   `server.rs` for the bound on what it may owe);
//! * the client writes frames without flushing and sends them when it is
//!   about to wait — the window is full, or the call is synchronous
//!   (`admit`, `finish`, `barrier`, a handoff, a history query, `close`)
//!   — and at every `poll`, so a producer that then goes quiet has been
//!   heard. When it does read, it takes every ack that has arrived.
//!   Every reply it reads, the `Hello` answer included, goes through one
//!   reader that flushes first if the read may block, and every failure
//!   meets one recovery rule: retryable ([`wire::retryable_io`]) and not
//!   closing means redial, resume and replay; anything else ends the
//!   session ([`RemoteIngest::is_dead`]).
//!
//! Neither side can therefore sleep in `read` holding bytes the other is
//! waiting for, and a burst of frames costs a handful of system calls
//! each way instead of two per frame.
//!
//! Across a reconnect: replies owed for frames the dead connection had
//! already enqueued belong to the session, not the socket. The successor
//! connection waits for them to be applied before it answers `Resume`, so
//! `last_applied_seq` and the cumulative counters it reports are exact;
//! the acks themselves are discarded, and the client — which replays those
//! frames because it never saw them acked — gets a fresh ack for each
//! from the session record, without anything being applied twice.
//!
//! ## Choosing a front end
//!
//! | Front end | Sessions live | Use when |
//! |---|---|---|
//! | [`LiveIngest`](crate::sharded::LiveIngest) | this process | one machine owns every patient |
//! | [`RemoteIngest`] | one server | producers and compute are separate hosts |
//! | [`ClusterIngest`] | a fleet | patients exceed one machine; rebalancing + failover needed |
//!
//! All three implement [`Ingest`](crate::sharded::Ingest), so the choice
//! is a constructor, not a rewrite. The `cluster_loopback` example runs
//! the same feed through all three and asserts byte-identical output —
//! including across a mid-stream handoff; `cluster_failover` does the
//! same under injected faults and a hard server kill.
//!
//! ## Failure semantics
//!
//! What each failure costs, layer by layer:
//!
//! | Failure | Detected by | Recovery | Guaranteed loss bound |
//! |---|---|---|---|
//! | Transient socket death (reset, EOF, timeout) | [`wire::retryable_io`] on read/write | redial + `Hello`/`Resume` + window replay | nothing: resumed stream byte-identical |
//! | Mid-frame EOF | `wire::WireError::ConnectionLost` (retryable) | same as above | nothing |
//! | Malformed / hostile frame | decode error | none — `Err` reply, connection fatal | n/a (protocol error, not a fault) |
//! | Stale epoch (superseded connection) | server epoch guard | none — old connection told to die | nothing: the new epoch owns the window |
//! | Reconnect budget exhausted | [`RemoteIngest::is_dead`] | cluster failover: machine marked `Down`, patients re-admitted from client mirrors on survivors | un-acked window input is *replayed, not lost*; output rounds below the failover frontier collected only on the dead machine, plus its deferred per-sample errors |
//! | Machine death mid-`rebalance` export | dead source endpoint | whole-machine failover (tails) | same as failover |
//! | Machine death mid-`rebalance` import | dead destination endpoint | destination downed; exported state re-imported on the patient's new owner | nothing: the export (with collected output) was still in hand |
//! | Every machine dead | every machine's down flag set | none | patients counted `patients_lost` and dropped from the table; calls surface transport errors |
//! | Survivor refuses a re-admission | import error from a live machine | none | the patient is counted `patients_lost` and dropped from the table: no later failover brings it back |
//!
//! The deterministic guarantee the test battery pins down: under any
//! seed-chosen schedule of sever/delay/black-hole faults *without* a
//! machine death, cluster output is byte-identical to the fault-free
//! retrospective run; with a hard kill, every patient survives on
//! another machine and output at or above the failover frontier is
//! byte-identical to the reference.
//!
//! ## The durable tier changes the loss bounds
//!
//! Everything above describes the store-less fabric, where history
//! below the compaction horizon exists nowhere once it leaves memory.
//! Attaching the tiered store re-prices two rows of the table:
//!
//! * **Server side** — [`ShardServer::bind_with_store`] spills every
//!   compacted span to append-only segment files before it leaves
//!   memory, and answers the v2 `HistoryQuery` command (opcode `0x08`)
//!   by stitching segments + write buffer + live suffix back into a
//!   full retrospective run, byte-identical to the cold batch run,
//!   while ingest continues. Several servers may share one directory
//!   (writer-nonced segment names never collide) — that shared
//!   directory is what makes cross-machine rebuild possible.
//! * **Client side** — [`ClusterIngest::connect_with_store`] opens a
//!   read-only `SharedStore` over the same directory (the client never
//!   spills). On failover it prefers *segment rebuild* over tail replay:
//!   one `SharedStore::scan` per pass of the dead machine's patients,
//!   from the lowest base their margin tails retain — the same
//!   name-indexed read every history query makes, never the whole
//!   directory — and each patient's durable spans are merged under its
//!   client margin tail (the tail wins on overlap), so the survivor's
//!   warm-up suffix is complete even where the tail was truncated, and a
//!   history query on the survivor still reconstructs the patient's
//!   entire feed. A scan that fails leaves that pass to the tails alone. The "output rounds below
//!   the failover frontier" caveat disappears: they are recomputable on
//!   demand.
//!
//! Retrospective access to the durable tier goes through one typed
//! surface: [`HistoryQueryApi`](crate::history::HistoryQueryApi),
//! implemented by all three front ends. A
//! [`HistoryQuery`](crate::history::HistoryQuery) names a time range, a
//! patient cohort, and a pipeline; range-bounded queries prune whole
//! segment files by the tick-range index in their names, and the wire
//! front ends ship the range plus a server-side pipeline-registry id in
//! the `HistoryQuery` command below.
//!
//! The residual loss window on a hard kill is exactly the store's
//! unflushed write buffer (`StoreConfig::flush_batch` samples per
//! session; `flush_batch(0)` flushes every spill and shrinks the
//! window to zero, which is how the kill tests in
//! `tests/history_equiv.rs` pin "zero history lost"). Durability of a
//! flushed segment is the filesystem's: files are written
//! tmp + fsync + rename, so a torn write never corrupts the store —
//! readers skip truncated tails and checksum-reject damaged records.
//!
//! ## Wire format v1 → v2
//!
//! v2 (this PR) extends every command with a session sequence number
//! and adds the resume handshake; see [`wire`] for the full grammar.
//!
//! * commands carry `version:u8 opcode:u8 seq:u64` (v1 had no `seq`),
//!   where `seq` starts at 1 per session and orders the replay window;
//! * new command `Hello{session, epoch, last_acked_seq}` (opcode 0x07)
//!   opens every connection; new replies `Resume` (0x86) answering it
//!   and `Admitted` (0x87) carrying the session's grid metadata so the
//!   client can size failover tails;
//! * `Ack` (0x83) now echoes `seq` and carries *cumulative* applied /
//!   dropped counters, so a client can reconcile counts across lost
//!   acks;
//! * new command `HistoryQuery{patient, t0, t1, warmup, pipeline}`
//!   (opcode 0x08) runs a retrospective query over the server's tiered
//!   store — clipped to `[t0, t1)` with `(i64::MIN, i64::MAX)` as the
//!   full-range sentinel, through the registry pipeline named by
//!   `pipeline` (`0` = the live pipeline) — and answers with an
//!   `Output` reply; additive, so store-less servers simply reject it;
//! * version byte bumped to `0x02`; v1 frames are refused with a
//!   version error.

pub mod chaos;
mod client;
mod cluster;
mod server;
pub mod wire;

pub use client::{RemoteConfig, RemoteHealth, RemoteIngest};
pub use cluster::{ClusterHealth, ClusterIngest, MachineHealth};
pub use server::ShardServer;

/// Capacity of the socket reader and writer on both ends: a burst of
/// frames or acks is a handful of `read`/`write` calls, not one each.
const SOCKET_BUF: usize = 64 << 10;

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use lifestream_core::ops::aggregate::AggKind;
    use lifestream_core::stream::Query;
    use lifestream_core::time::StreamShape;

    use crate::machines::MachineState;
    use crate::sharded::{Ingest, IngestConfig, LiveIngest, PipelineFactory};

    use super::chaos::{ChaosProxy, FaultPlan};
    use super::*;

    fn factory() -> PipelineFactory {
        Arc::new(|| {
            let q = Query::new();
            q.source("s", StreamShape::new(0, 2))
                .select(1, |i, o| o[0] = i[0] + 1.0)?
                .aggregate(AggKind::Mean, 40, 4)?
                .sink();
            q.compile()
        })
    }

    fn serve() -> (ShardServer, std::net::SocketAddr) {
        let server = ShardServer::bind(factory(), IngestConfig::new(2, 100), "127.0.0.1:0")
            .expect("bind loopback");
        let addr = server.local_addr();
        (server, addr)
    }

    #[test]
    fn remote_ingest_matches_local_ingest_byte_for_byte() {
        let (server, addr) = serve();
        let run = |ingest: &dyn Ingest| {
            for p in [1u64, 2, 3] {
                ingest.admit(p).unwrap();
            }
            for k in 0..400i64 {
                for p in [1u64, 2, 3] {
                    ingest.push(p, 0, k * 2, (k * 31 % 83) as f32 + p as f32);
                }
                if k % 47 == 0 {
                    ingest.poll();
                }
            }
            let mut sums = Vec::new();
            for p in [1u64, 2, 3] {
                let out = ingest.finish(p).unwrap();
                sums.push((out.len(), out.checksum()));
            }
            sums
        };
        let local = LiveIngest::new(factory(), 2, 100);
        let expect = run(&local);
        local.shutdown();
        let remote = RemoteIngest::connect(addr, RemoteConfig::default().batch(32).window(4))
            .expect("connect");
        let got = run(&remote);
        assert_eq!(got, expect, "TCP transport must be invisible in output");
        remote.shutdown();
        server.shutdown();
    }

    #[test]
    fn tiny_window_backpressures_but_loses_nothing() {
        let (server, addr) = serve();
        let remote =
            RemoteIngest::connect(addr, RemoteConfig::default().batch(1).window(1)).unwrap();
        remote.admit(7).unwrap();
        for k in 0..1_000i64 {
            remote.push(7, 0, k * 2, k as f32);
        }
        let out = remote.finish(7).unwrap();
        let local = LiveIngest::new(factory(), 1, 100);
        local.admit(7).unwrap();
        for k in 0..1_000i64 {
            local.push(7, 0, k * 2, k as f32);
        }
        let expect = local.finish(7).unwrap();
        local.shutdown();
        assert_eq!(out.len(), expect.len());
        assert_eq!(out.checksum(), expect.checksum());
        let stats = remote.stats();
        assert_eq!(stats.samples_pushed, 1_000);
        assert_eq!(stats.batches_flushed, 1_000, "batch=1 → frame per sample");
        remote.shutdown();
        server.shutdown();
    }

    #[test]
    fn server_side_drops_surface_in_client_stats() {
        // The satellite fix: unknown-patient drops happen on the server,
        // but the client's IngestStats must see them (via ack deltas).
        let (server, addr) = serve();
        let remote = RemoteIngest::connect(addr, RemoteConfig::default().batch(4)).unwrap();
        remote.admit(1).unwrap();
        remote.push(2, 0, 0, 1.0); // never admitted
        remote.push(2, 0, 2, 1.0);
        remote.push(1, 0, 0, 1.0);
        remote.barrier().unwrap();
        let stats = remote.stats();
        assert_eq!(stats.dropped_unknown, 2);
        assert_eq!(stats.samples_pushed, 3);
        assert_eq!(server.ingest_stats().dropped_unknown, 2);
        let _ = remote.finish(1).unwrap();
        remote.shutdown();
        server.shutdown();
    }

    #[test]
    fn remote_errors_and_deferred_violations_propagate() {
        let (server, addr) = serve();
        let remote = RemoteIngest::connect(addr, RemoteConfig::default()).unwrap();
        remote.admit(5).unwrap();
        let err = remote.admit(5).unwrap_err();
        assert!(err.contains("already admitted"), "err: {err}");
        remote.push(5, 0, 3, 1.0); // off the period-2 grid
        remote.push(5, 0, 7, 2.0);
        let err = remote.finish(5).unwrap_err();
        assert!(
            err.contains("time 3") && err.contains("time 7"),
            "err: {err}"
        );
        let err = remote.finish(99).unwrap_err();
        assert!(err.contains("not admitted"), "err: {err}");
        remote.shutdown();
        server.shutdown();
    }

    #[test]
    fn cluster_rebalance_moves_a_patient_without_losing_samples() {
        let (server_a, addr_a) = serve();
        let (server_b, addr_b) = serve();
        let cluster = ClusterIngest::connect(
            &[addr_a, addr_b],
            RemoteConfig::default().batch(16).window(4),
        )
        .unwrap();
        let p = 11u64;
        let home = cluster.machine_of(p);
        let away = 1 - home;
        cluster.admit(p).unwrap();
        for k in 0..300i64 {
            cluster.push(p, 0, k * 2, (k % 53) as f32);
            if k % 59 == 0 {
                cluster.poll();
            }
        }
        cluster.rebalance(p, away).unwrap();
        assert_eq!(cluster.machine_of(p), away);
        for k in 300..600i64 {
            cluster.push(p, 0, k * 2, (k % 53) as f32);
            if k % 59 == 0 {
                cluster.poll();
            }
        }
        let moved = cluster.finish(p).unwrap();

        // Reference: the same feed through one in-process ingest.
        let local = LiveIngest::new(factory(), 1, 100);
        local.admit(p).unwrap();
        for k in 0..600i64 {
            local.push(p, 0, k * 2, (k % 53) as f32);
            if k % 59 == 0 {
                local.poll();
            }
        }
        let expect = local.finish(p).unwrap();
        local.shutdown();

        assert_eq!(moved.len(), expect.len(), "handoff must lose zero samples");
        assert_eq!(
            moved.checksum(),
            expect.checksum(),
            "and stay byte-identical"
        );
        assert_eq!(cluster.stats().dropped_unknown, 0);
        // Rebalancing to the current owner is a no-op; out-of-range is an
        // error, not a panic.
        cluster.rebalance(p, away).unwrap();
        assert!(cluster
            .rebalance(p, 9)
            .unwrap_err()
            .contains("out of range"));
        cluster.shutdown();
        server_a.shutdown();
        server_b.shutdown();
    }

    #[test]
    fn malformed_frame_gets_an_error_reply_not_a_hang() {
        use std::io::Read;
        let (server, addr) = serve();
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        // A well-framed payload with a bogus version byte.
        let payload = [9u8, 0x01, 0, 0, 0, 0, 0, 0, 0, 0];
        wire::write_frame(&mut sock, &payload).unwrap();
        let mut reply = Vec::new();
        sock.read_to_end(&mut reply).unwrap();
        // 4-byte length + version + opcode 0x82 (Err) + message.
        assert!(reply.len() > 6);
        assert_eq!(reply[4], wire::WIRE_VERSION);
        assert_eq!(reply[5], 0x82, "Err reply expected");
        drop(sock);
        server.shutdown();
    }

    #[test]
    fn peer_that_never_reads_is_bounded_and_still_gets_every_ack_in_order() {
        use std::io::Write;
        use std::sync::mpsc::channel;
        use std::sync::Mutex;
        use std::time::Instant;

        use super::wire::{decode_reply, encode_cmd, read_frame, write_frame, WireCmd, WireReply};
        use crate::sharded::splitmix64;

        // A kernel that waits for one token per negative sample it meets:
        // each negative sample stalls its shard inside a poll until the
        // test sends the next token (or hangs up).
        let (token, tokens) = channel::<()>();
        let tokens = Arc::new(Mutex::new(tokens));
        let gated: PipelineFactory = Arc::new(move || {
            let tokens = Arc::clone(&tokens);
            let q = Query::new();
            q.source("s", StreamShape::new(0, 2))
                .select(1, move |i, o| {
                    if i[0] < 0.0 {
                        let _ = tokens.lock().expect("tokens").recv();
                    }
                    o[0] = i[0];
                })?
                .sink();
            q.compile()
        });
        const CAP: usize = 4;
        let server = ShardServer::bind(
            gated,
            IngestConfig::new(2, 100).channel_cap(CAP),
            "127.0.0.1:0",
        )
        .unwrap();
        // One patient per shard, and a stranger routed like the second.
        let on = |shard: u64| (0u64..).filter(move |&p| splitmix64(p) % 2 == shard);
        let stalled = on(0).next().unwrap();
        let (free, unknown) = {
            let mut ids = on(1);
            (ids.next().unwrap(), ids.next().unwrap())
        };

        let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        // Frames written together leave in one `write`.
        let send = |sock: &mut std::net::TcpStream, first: u64, cmds: &[WireCmd]| {
            let mut bytes = Vec::new();
            for (seq, cmd) in (first..).zip(cmds) {
                write_frame(&mut bytes, &encode_cmd(seq, cmd)).unwrap();
            }
            sock.write_all(&bytes).unwrap();
        };
        let recv = |sock: &mut std::net::TcpStream| {
            decode_reply(&read_frame(sock).unwrap().expect("a reply, not EOF")).unwrap()
        };
        let expect_ack = |sock: &mut std::net::TcpStream, want: (u64, u64, u64)| match recv(sock) {
            WireReply::Ack {
                seq,
                cum_samples,
                cum_dropped,
            } => assert_eq!((seq, cum_samples, cum_dropped), want),
            other => panic!("wanted ack {want:?}, got {other:?}"),
        };
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::yield_now();
            }
        };
        let hello = WireCmd::Hello {
            session: 42,
            epoch: 0,
            last_acked_seq: 0,
        };
        send(&mut sock, 0, &[hello]);
        assert!(matches!(recv(&mut sock), WireReply::Resume { .. }));
        for (seq, patient) in [(1, stalled), (2, free)] {
            send(&mut sock, seq, &[WireCmd::Admit { patient }]);
            assert!(matches!(recv(&mut sock), WireReply::Admitted { .. }));
        }

        // Two whole rounds for shard 0's patient, each led by a negative
        // sample and followed by a poll: the shard stalls in the first
        // poll now, and in the second as soon as the first is let go.
        let round = |slots: std::ops::Range<i64>| {
            let lead = slots.start;
            let samples = slots.map(|k| (stalled, 0, 2 * k, if k == lead { -1.0 } else { 1.0 }));
            WireCmd::Batch(samples.collect())
        };
        send(&mut sock, 3, &[round(0..60), WireCmd::Poll]);
        expect_ack(&mut sock, (3, 60, 0));
        expect_ack(&mut sock, (4, 60, 0));
        // The second round, alone: once the handler has taken it in, it
        // has nothing left to read and waits for the stalled shard.
        send(&mut sock, 5, &[round(60..110)]);
        wait_for("the handler never took frame 5", &|| {
            server.ingest_stats().samples_pushed == 110
        });
        // Behind its back: the second poll, one frame that will sit behind
        // that poll on the stalled shard, and ten ack windows' worth that
        // the other shard applies at once — without reading a single ack.
        // The head of it is one segment, so the handler finds the stalled
        // frame and the first of the flood together.
        let flood = 10 * RemoteConfig::default().window as u64;
        let flood_frame = |k: u64| {
            let t = 2 * k as i64;
            WireCmd::Batch(vec![(free, 0, t, k as f32), (unknown, 0, t, 0.0)])
        };
        let mut burst = vec![WireCmd::Poll, WireCmd::Batch(vec![(stalled, 0, 220, 1.0)])];
        burst.extend((1..=CAP as u64).map(flood_frame));
        send(&mut sock, 6, &burst);
        let rest: Vec<WireCmd> = (CAP as u64 + 1..=flood).map(flood_frame).collect();
        send(&mut sock, 8 + CAP as u64, &rest);
        // First token: frame 5 is applied and the shard stalls in the
        // second poll with frame 7 queued behind it. The handler may now
        // take in frames until it owes CAP acks and no further; only then
        // is the shard let go for good.
        token.send(()).unwrap();
        wait_for("the handler never ran ahead", &|| {
            server.ack_backlog_high_water() >= CAP
        });
        drop(token);
        expect_ack(&mut sock, (5, 110, 0));
        expect_ack(&mut sock, (6, 110, 0));
        expect_ack(&mut sock, (7, 111, 0));
        for k in 1..=flood {
            expect_ack(&mut sock, (7 + k, 111 + k, k));
        }
        assert_eq!(server.ack_backlog_high_water(), CAP);
        drop(sock);
        server.shutdown();
    }

    #[test]
    fn severed_connections_resume_byte_identically() {
        let (server, addr) = serve();
        // Every connection gets severed within its first 30 frames, so
        // the run crosses several reconnect-with-resume cycles.
        let proxy = ChaosProxy::spawn(addr, FaultPlan::sever(0xC0FFEE, 4, 30)).unwrap();
        let remote = RemoteIngest::connect(
            proxy.local_addr(),
            RemoteConfig::default()
                .batch(8)
                .window(4)
                .retries(8)
                .backoff(Duration::from_millis(2), Duration::from_millis(20)),
        )
        .unwrap();
        remote.admit(3).unwrap();
        for k in 0..600i64 {
            remote.push(3, 0, k * 2, (k * 13 % 71) as f32);
            if k % 97 == 0 {
                remote.poll();
            }
        }
        let out = remote.finish(3).unwrap();
        let health = remote.health();
        assert!(health.reconnects > 0, "chaos must have forced a resume");
        assert!(proxy.faults_injected() > 0);

        let local = LiveIngest::new(factory(), 1, 100);
        local.admit(3).unwrap();
        for k in 0..600i64 {
            local.push(3, 0, k * 2, (k * 13 % 71) as f32);
            if k % 97 == 0 {
                local.poll();
            }
        }
        let expect = local.finish(3).unwrap();
        local.shutdown();
        assert_eq!(out.len(), expect.len(), "resume must lose zero frames");
        assert_eq!(out.checksum(), expect.checksum());
        remote.shutdown();
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn dead_server_poisons_cleanly_and_shutdown_does_not_panic() {
        let (server, addr) = serve();
        let remote = RemoteIngest::connect(
            addr,
            RemoteConfig::default()
                .batch(2)
                .window(2)
                .retries(2)
                .backoff(Duration::from_millis(1), Duration::from_millis(5)),
        )
        .unwrap();
        remote.admit(1).unwrap();
        remote.push(1, 0, 0, 1.0);
        remote.barrier().unwrap();
        server.kill();
        // Pushes after the kill exhaust the reconnect budget and poison
        // the client instead of hanging or panicking.
        for k in 1..200i64 {
            remote.push(1, 0, k * 2, k as f32);
            if remote.is_dead() {
                break;
            }
        }
        assert!(remote.is_dead());
        let err = remote.finish(1).unwrap_err();
        assert!(err.contains("reconnect"), "err: {err}");
        assert!(remote.last_error().is_some());
        // Drop/shutdown with the peer gone must stay silent.
        remote.shutdown();
    }

    /// A bare listener plays the server: it answers `Hello` with
    /// `Resume`, then the first command with the payload `answer` gives
    /// for it, then waits for the client to hang up.
    fn scripted_peer(
        answer: impl FnOnce(u64, wire::WireCmd) -> Vec<u8> + Send + 'static,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        use std::io::Read;

        use super::wire::{decode_cmd, encode_reply, read_frame, write_frame, WireCmd, WireReply};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let next = |sock: &mut std::net::TcpStream| {
                decode_cmd(&read_frame(sock).unwrap().unwrap()).unwrap()
            };
            assert!(matches!(next(&mut sock), (0, WireCmd::Hello { .. })));
            let resume = WireReply::Resume {
                last_applied_seq: 0,
                cum_samples: 0,
                cum_dropped: 0,
            };
            write_frame(&mut sock, &encode_reply(&resume)).unwrap();
            let (seq, cmd) = next(&mut sock);
            write_frame(&mut sock, &answer(seq, cmd)).unwrap();
            let _ = sock.read_to_end(&mut Vec::new());
        });
        (addr, peer)
    }

    #[test]
    fn a_peer_that_breaks_the_protocol_poisons_the_client() {
        use super::wire::{encode_reply, WireCmd, WireReply};

        fn ack(seq: u64) -> Vec<u8> {
            encode_reply(&WireReply::Ack {
                seq,
                cum_samples: 1,
                cum_dropped: 0,
            })
        }
        fn admit(remote: &RemoteIngest) -> Result<(), String> {
            remote.admit(1)
        }
        fn push(remote: &RemoteIngest) -> Result<(), String> {
            remote.push(1, 0, 0, 1.0);
            remote.barrier()
        }
        // Each peer breaks the protocol once; the client must stop there.
        type Answer = fn(u64, WireCmd) -> Vec<u8>;
        type Call = fn(&RemoteIngest) -> Result<(), String>;
        let cases: [(&str, Call, Answer, &str); 3] = [
            (
                "Admit answered by an Ack",
                admit,
                |seq, _| ack(seq),
                "unexpected reply to Admit",
            ),
            (
                "an ack for the wrong seq",
                push,
                |seq, _| ack(seq + 8),
                "ack for seq 9, expected seq 1",
            ),
            (
                "a reply that does not decode",
                push,
                |_, _| vec![wire::WIRE_VERSION, 0xff],
                "opcode",
            ),
        ];
        for (what, call, answer, expect) in cases {
            let (addr, peer) = scripted_peer(answer);
            // A timeout turns a hang into a failure (it would redial).
            let remote = RemoteIngest::connect(
                addr,
                RemoteConfig::default()
                    .batch(1)
                    .retries(1)
                    .read_timeout(Duration::from_secs(10)),
            )
            .unwrap();
            let err = call(&remote).unwrap_err();
            assert!(remote.is_dead(), "{what}");
            assert_eq!(remote.last_error().as_ref(), Some(&err), "{what}");
            assert!(
                err.starts_with("protocol:") && err.contains(expect),
                "{what}: {err}"
            );
            drop(remote);
            peer.join().unwrap();
        }
    }

    #[test]
    fn cluster_health_reports_machine_states() {
        let (server_a, addr_a) = serve();
        let (server_b, addr_b) = serve();
        let cluster = ClusterIngest::connect(
            &[addr_a, addr_b],
            RemoteConfig::default()
                .batch(4)
                .window(4)
                .retries(2)
                .backoff(Duration::from_millis(1), Duration::from_millis(5)),
        )
        .unwrap();
        let health = cluster.health();
        assert_eq!(health.machines.len(), 2);
        assert!(health.machines.iter().all(|m| m.state == MachineState::Up));
        assert_eq!(health.failovers, 0);
        cluster.shutdown();
        server_a.shutdown();
        server_b.shutdown();
    }
}
