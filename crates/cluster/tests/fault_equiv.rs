//! Fault equivalence of the cluster fabric.
//!
//! Two guarantees, each pinned by a deterministic schedule:
//!
//! * **Fault transparency** — under any seed-chosen schedule of
//!   sever / delay / black-hole faults *without* a machine death, the
//!   reconnect-with-resume protocol makes cluster output byte-identical
//!   to the fault-free retrospective run. Exercised across 50+ explicit
//!   sever schedules and a proptest battery that also varies the
//!   pipeline, batching, window, and fault palette.
//! * **Failover containment** — a hard kill of one of two servers
//!   (mid-batch or mid-handoff) ends with every patient live on the
//!   survivor; output at or above the failover frontier is
//!   byte-identical to the reference, nothing is duplicated, and the
//!   client-side mirrors mean no acked input frame is lost.
//! * **Mirror fidelity** — the session a survivor rebuilds from the
//!   router's mirror is, buffer for buffer, the session the dead machine
//!   held: it exports what a server that never died exports, and accepts
//!   the same late samples.
//! * **Hostile frames** — a far-future tick in a `Batch` and a malformed
//!   `Import` are refused with typed errors; the shard and the server
//!   keep serving and a sibling patient's output is untouched.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cluster_harness::machines::MachineState;
use cluster_harness::net::chaos::{ChaosProxy, Fault, FaultPlan};
use cluster_harness::net::{ClusterIngest, RemoteConfig, RemoteIngest, ShardServer};
use cluster_harness::sharded::{IngestConfig, LiveIngest, PatientHandoff, PipelineFactory};
use lifestream_core::exec::OutputCollector;
use lifestream_core::live::{SessionSnapshot, SourceSuffix};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use proptest::prelude::*;

const ROUND: Tick = 200;
const PERIOD: Tick = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pipe {
    Select,
    SlidingMean,
    Shift,
}

fn factory(pipe: Pipe) -> PipelineFactory {
    Arc::new(move || {
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, PERIOD));
        match pipe {
            Pipe::Select => s.select(1, |i, o| o[0] = i[0] * 2.0 - 3.0)?.sink(),
            Pipe::SlidingMean => s.aggregate(AggKind::Mean, 20 * PERIOD, 2 * PERIOD)?.sink(),
            Pipe::Shift => s.shift(7 * PERIOD)?.sink(),
        }
        q.compile()
    })
}

fn wave(k: i64, p: u64) -> f32 {
    (((k * 37 + p as i64 * 101) % 997) as f32) / 7.0
}

fn chaotic_config() -> RemoteConfig {
    RemoteConfig::default()
        .batch(8)
        .window(4)
        .retries(10)
        .backoff(Duration::from_millis(2), Duration::from_millis(20))
        .read_timeout(Duration::from_millis(250))
}

/// Reference run: the same feed through one in-process front end.
fn reference(pipe: Pipe, patients: &[u64], samples: i64, poll_every: i64) -> Vec<OutputCollector> {
    let local = LiveIngest::new(factory(pipe), 1, ROUND);
    for &p in patients {
        local.admit(p).expect("admit");
    }
    for k in 0..samples {
        for &p in patients {
            local.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % poll_every == 0 {
            local.poll();
        }
    }
    let out = patients
        .iter()
        .map(|&p| local.finish(p).expect("finish"))
        .collect();
    local.shutdown();
    out
}

fn fingerprint(out: &OutputCollector) -> (usize, u64) {
    (out.len(), out.checksum())
}

/// The rows of a collector at or above `from` — the part of the output
/// a failover is required to preserve.
fn suffix_of(out: &OutputCollector, from: Tick) -> OutputCollector {
    out.clipped(from, Tick::MAX)
}

/// One full remote run through a chaos proxy; returns per-patient
/// fingerprints plus the client health counters.
fn run_through_chaos(
    pipe: Pipe,
    plan: FaultPlan,
    patients: &[u64],
    samples: i64,
    poll_every: i64,
    cfg: RemoteConfig,
) -> (Vec<(usize, u64)>, u64, u64) {
    let server = ShardServer::bind(factory(pipe), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind server");
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).expect("spawn proxy");
    let remote = RemoteIngest::connect(proxy.local_addr(), cfg).expect("connect");
    for &p in patients {
        remote.admit(p).expect("admit");
    }
    for k in 0..samples {
        for &p in patients {
            remote.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % poll_every == 0 {
            remote.poll();
        }
    }
    let out: Vec<(usize, u64)> = patients
        .iter()
        .map(|&p| fingerprint(&remote.finish(p).expect("finish")))
        .collect();
    let health = remote.health();
    let injected = proxy.faults_injected();
    remote.shutdown();
    proxy.shutdown();
    server.shutdown();
    (out, health.reconnects, injected)
}

/// The acceptance gate: 50 distinct seeded sever schedules, every one
/// byte-identical to the fault-free run.
#[test]
fn fifty_sever_schedules_resume_byte_identically() {
    let patients = [3u64, 8];
    let (samples, poll_every) = (400i64, 67i64);
    let expect: Vec<(usize, u64)> = reference(Pipe::SlidingMean, &patients, samples, poll_every)
        .iter()
        .map(fingerprint)
        .collect();
    let mut total_reconnects = 0u64;
    let mut total_injected = 0u64;
    for seed in 0..50u64 {
        let plan = FaultPlan::sever(seed, 2, 40);
        let (got, reconnects, injected) = run_through_chaos(
            Pipe::SlidingMean,
            plan,
            &patients,
            samples,
            poll_every,
            chaotic_config(),
        );
        assert_eq!(got, expect, "seed {seed} diverged from the fault-free run");
        total_reconnects += reconnects;
        total_injected += injected;
    }
    assert!(total_injected >= 50, "the schedules must actually fire");
    assert!(total_reconnects >= 50, "every sever must force a resume");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Structural variation on top of the 50-seed gate: pipeline kind,
    /// batch/window, poll cadence, and a mixed fault palette including
    /// black holes (detected only by the read timeout) and delays.
    #[test]
    fn any_fault_schedule_is_output_transparent(
        seed in 0u64..u64::MAX / 2,
        pipe in prop::sample::select(vec![Pipe::Select, Pipe::SlidingMean, Pipe::Shift]),
        batch in prop::sample::select(vec![1usize, 8, 64]),
        window in prop::sample::select(vec![2usize, 4, 16]),
        poll_every in prop::sample::select(vec![43i64, 111]),
        min_frame in 0u64..8,
        span in 4u64..48,
        palette in prop::sample::select(vec![
            vec![Fault::Sever],
            vec![Fault::Sever, Fault::Delay(15)],
            vec![Fault::Sever, Fault::BlackHole],
            vec![Fault::Sever, Fault::Delay(5), Fault::BlackHole],
        ]),
    ) {
        let patients = [5u64, 13];
        let samples = 300i64;
        let expect: Vec<(usize, u64)> = reference(pipe, &patients, samples, poll_every)
            .iter()
            .map(fingerprint)
            .collect();
        let plan = FaultPlan {
            seed,
            min_frame,
            max_frame: min_frame + span,
            faults: palette,
        };
        let cfg = RemoteConfig::default()
            .batch(batch)
            .window(window)
            .retries(10)
            .backoff(Duration::from_millis(2), Duration::from_millis(20))
            .read_timeout(Duration::from_millis(150));
        let (got, _, _) = run_through_chaos(pipe, plan, &patients, samples, poll_every, cfg);
        prop_assert_eq!(got, expect, "fault schedule leaked into output");
    }
}

/// A select whose kernel parks on `gate` whenever it meets a negative
/// sample: holding the gate stalls the shard inside a poll, so frames sent
/// after it are enqueued and cannot be applied until the test lets go.
fn gated_factory(gate: &Arc<Mutex<()>>) -> PipelineFactory {
    let gate = Arc::clone(gate);
    Arc::new(move || {
        let gate = Arc::clone(&gate);
        let q = Query::new();
        q.source("s", StreamShape::new(0, PERIOD))
            .select(1, move |i, o| {
                if i[0] < 0.0 {
                    drop(gate.lock());
                }
                o[0] = i[0] * 2.0 - 3.0;
            })?
            .sink();
        q.compile()
    })
}

/// The server acks in bursts, after the fact: a connection can die while
/// frames it took in are enqueued on a shard and not yet applied. Here a
/// sever lands exactly then — eight frames, half of whose samples belong
/// to a patient nobody admitted, sit behind a shard parked in a poll — and
/// the resumed session must still apply each frame once, report exact
/// applied / dropped totals to the client, and produce the fault-free
/// output.
#[test]
fn sever_with_frames_enqueued_but_unapplied_resumes_exactly_once() {
    const PATIENT: u64 = 5;
    const UNKNOWN: u64 = 77;
    const BEFORE: i64 = 110; // one whole round and a bit
    const STALLED: i64 = 16;
    let gate = Arc::new(Mutex::new(()));
    let value = |k: i64| if k == 0 { -1.0 } else { wave(k, PATIENT) };

    let server = ShardServer::bind(
        gated_factory(&gate),
        IngestConfig::new(1, ROUND),
        "127.0.0.1:0",
    )
    .expect("bind server");
    // Client frames, in order: Hello, Admit, 27 batches of 4, the flush of
    // the 2 staged samples, Poll; then the 8 stalled batches, and the Poll
    // (frame 39) at which the proxy cuts the connection.
    let plan = FaultPlan {
        seed: 1,
        min_frame: 39,
        max_frame: 40,
        faults: vec![Fault::Sever],
    };
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).expect("spawn proxy");
    let remote = RemoteIngest::connect(
        proxy.local_addr(),
        RemoteConfig::default()
            .batch(4)
            .window(32)
            .retries(10)
            .backoff(Duration::from_millis(2), Duration::from_millis(20)),
    )
    .expect("connect");
    remote.admit(PATIENT).expect("admit");

    let held = gate.lock().expect("gate");
    for k in 0..BEFORE {
        remote.push(PATIENT, 0, k * PERIOD, value(k));
    }
    remote.poll(); // the shard meets the negative sample and parks
    let out = std::thread::scope(|scope| {
        // Any call from here on may be the one that meets the sever,
        // redials, and waits for `Resume` — which the server owes only
        // once the parked shard has applied what the dead connection
        // enqueued. So the client runs beside the thread that holds the
        // gate.
        let client = scope.spawn(|| {
            for k in BEFORE..BEFORE + STALLED {
                remote.push(PATIENT, 0, k * PERIOD, value(k));
                remote.push(UNKNOWN, 0, k * PERIOD, 0.0);
            }
            remote.poll(); // sends the eight batches; the proxy severs at this Poll
            remote.barrier().expect("barrier across the sever");
            remote.finish(PATIENT).expect("finish")
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while proxy.faults_injected() == 0 {
            assert!(Instant::now() < deadline, "the sever never fired");
            std::thread::yield_now();
        }
        // The cut is made and the shard is still parked: whatever the old
        // connection took in of the eight batches is enqueued, none of it
        // applied (drops are counted when a batch is applied).
        assert_eq!(server.ingest_stats().dropped_unknown, 0);
        drop(held);
        client.join().expect("client thread")
    });

    assert_eq!(proxy.faults_injected(), 1);
    assert!(
        remote.health().reconnects >= 1,
        "the sever must force a resume"
    );
    let pushed = (BEFORE + 2 * STALLED) as u64;
    assert_eq!(remote.stats().dropped_unknown, STALLED as u64);
    assert_eq!(remote.stats().samples_pushed, pushed);
    // Applied once each: the server saw every sample exactly one time.
    assert_eq!(server.ingest_stats().samples_pushed, pushed);
    assert_eq!(server.ingest_stats().dropped_unknown, STALLED as u64);

    let local = LiveIngest::new(gated_factory(&gate), 1, ROUND);
    local.admit(PATIENT).expect("admit");
    for k in 0..BEFORE + STALLED {
        local.push(PATIENT, 0, k * PERIOD, value(k));
    }
    let expect = local.finish(PATIENT).expect("finish");
    local.shutdown();
    assert_eq!(fingerprint(&out), fingerprint(&expect));

    remote.shutdown();
    proxy.shutdown();
    server.shutdown();
}

/// Hard kill mid-batch: one of two servers dies between a barrier and
/// the next pushes. Every patient must keep streaming on the survivor,
/// and output at or above the failover frontier must be byte-identical
/// to the reference — zero duplicated rows, zero lost acked input.
#[test]
fn hard_kill_mid_batch_fails_over_without_losing_a_patient() {
    let patients = [3u64, 8, 21, 34];
    let (samples, poll_every, cut) = (500i64, 50i64, 250i64);
    let pipe = Pipe::SlidingMean;

    let server_a = ShardServer::bind(factory(pipe), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind a");
    let server_b = ShardServer::bind(factory(pipe), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind b");
    let cluster = ClusterIngest::connect(
        &[server_a.local_addr(), server_b.local_addr()],
        RemoteConfig::default()
            .batch(8)
            .window(4)
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5)),
    )
    .expect("connect");

    for &p in &patients {
        cluster.admit(p).expect("admit");
    }
    // Both machines must own someone for the kill to mean anything.
    let on_a: Vec<u64> = patients
        .iter()
        .copied()
        .filter(|&p| cluster.machine_of(p) == 0)
        .collect();
    assert!(!on_a.is_empty() && on_a.len() < patients.len());

    for k in 0..cut {
        for &p in &patients {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % poll_every == 0 {
            cluster.poll();
        }
    }
    // Poll + barrier: acks drained, every complete round processed, so
    // the failover frontier is exactly known.
    cluster.poll();
    cluster.barrier().expect("barrier");
    let frontier = ((cut * PERIOD) / ROUND) * ROUND;

    server_a.kill();

    for k in cut..samples {
        for &p in &patients {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % poll_every == 0 {
            cluster.poll();
        }
    }

    let reference_out = reference(pipe, &patients, samples, poll_every);
    for (i, &p) in patients.iter().enumerate() {
        let out = cluster.finish(p).expect("patient lost in failover");
        if on_a.contains(&p) {
            // Failed-over patient: the survivor re-emits from the
            // frontier; everything at or above it matches the reference.
            let expect = suffix_of(&reference_out[i], frontier);
            assert_eq!(
                fingerprint(&out),
                fingerprint(&expect),
                "patient {p} suffix diverged after failover"
            );
        } else {
            // Untouched patient: full byte-identity.
            assert_eq!(
                fingerprint(&out),
                fingerprint(&reference_out[i]),
                "patient {p} on the survivor must be untouched"
            );
        }
    }

    let health = cluster.health();
    assert_eq!(health.machines[0].state, MachineState::Down);
    assert_ne!(health.machines[1].state, MachineState::Down);
    assert!(health.failovers >= 1);
    assert_eq!(health.patients_failed_over, on_a.len() as u64);
    assert_eq!(health.patients_lost, 0);

    cluster.shutdown();
    server_b.shutdown();
}

/// Hard kill mid-handoff, destination side: the rebalance import's
/// target dies. The exported state is still in hand, so the patient
/// lands back on a live machine with its collected output intact —
/// full byte-identity, not just the suffix.
#[test]
fn hard_kill_mid_handoff_recovers_the_exported_patient() {
    let patients = [3u64, 8, 21, 34];
    let (samples, poll_every, cut) = (400i64, 50i64, 200i64);
    let pipe = Pipe::SlidingMean;

    let server_a = ShardServer::bind(factory(pipe), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind a");
    let server_b = ShardServer::bind(factory(pipe), IngestConfig::new(2, ROUND), "127.0.0.1:0")
        .expect("bind b");
    let cluster = ClusterIngest::connect(
        &[server_a.local_addr(), server_b.local_addr()],
        RemoteConfig::default()
            .batch(8)
            .window(4)
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5)),
    )
    .expect("connect");

    for &p in &patients {
        cluster.admit(p).expect("admit");
    }
    let home: Vec<usize> = patients.iter().map(|&p| cluster.machine_of(p)).collect();
    assert!(
        home.contains(&0) && home.contains(&1),
        "both machines must own someone"
    );
    let mover = patients[home.iter().position(|&m| m == 1).unwrap()];

    for k in 0..cut {
        for &p in &patients {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % poll_every == 0 {
            cluster.poll();
        }
    }
    cluster.poll();
    cluster.barrier().expect("barrier");

    // Kill the destination, then ask for a handoff onto it. The export
    // succeeds on the live source; the import finds the corpse; the
    // recovery path must land the patient back on a live machine with
    // zero loss.
    server_a.kill();
    cluster.rebalance(mover, 0).expect("mid-handoff recovery");
    assert_ne!(
        cluster.machine_of(mover),
        0,
        "patient must not be routed at a corpse"
    );

    for k in cut..samples {
        for &p in &patients {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % poll_every == 0 {
            cluster.poll();
        }
    }

    let frontier = ((cut * PERIOD) / ROUND) * ROUND;
    let reference_out = reference(pipe, &patients, samples, poll_every);
    for (i, &p) in patients.iter().enumerate() {
        let out = cluster.finish(p).expect("patient lost mid-handoff");
        if p == mover || home[i] == 1 {
            // The mover's collected output crossed inside the exported
            // handoff, and machine-1 patients never moved: full
            // identity for both.
            assert_eq!(
                fingerprint(&out),
                fingerprint(&reference_out[i]),
                "mid-handoff recovery lost output for patient {p}"
            );
        } else {
            // Patients that lived on the killed machine resumed from
            // their client tails: suffix identity.
            let expect = suffix_of(&reference_out[i], frontier);
            assert_eq!(
                fingerprint(&out),
                fingerprint(&expect),
                "patient {p} suffix diverged after failover"
            );
        }
    }

    let health = cluster.health();
    assert_eq!(health.machines[0].state, MachineState::Down);
    assert_eq!(health.patients_lost, 0);

    cluster.shutdown();
    server_b.shutdown();
}

/// The claim the failover docs make, end to end: the router's mirror is
/// the owning server's session state. One patient is fed — in order,
/// across a gap, with a late fill, a duplicate, an off-grid tick and a
/// tick below the retired horizon, polls in between — through a cluster
/// and, identically, into a reference server that never dies. The owner is
/// then hard-killed, so the survivor's session is the mirror's handoff;
/// a late sample lands between the retired horizon and the first sample
/// either holds; and both sessions are exported. Sources, base slots,
/// watermarks, values, ranges and frontier must be equal.
#[test]
fn mirror_handoff_equals_the_servers_export() {
    const P: u64 = 3;
    let pipe = Pipe::SlidingMean; // 40-tick window: a history margin to keep
    let bind = || {
        ShardServer::bind(factory(pipe), IngestConfig::new(2, ROUND), "127.0.0.1:0").expect("bind")
    };
    // Declared first, so dropped last: a failing assertion unwinds the
    // clients before the servers wait on their connections.
    let (server_ref, mut servers) = (bind(), vec![Some(bind()), Some(bind())]);
    let addr = |m: usize| servers[m].as_ref().expect("alive").local_addr();
    let addrs = [addr(0), addr(1)];
    let cfg = || {
        RemoteConfig::default()
            .batch(8)
            .window(4)
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5))
    };
    let cluster = ClusterIngest::connect(&addrs, cfg()).expect("connect cluster");
    let reference = RemoteIngest::connect(server_ref.local_addr(), cfg()).expect("connect ref");
    cluster.admit(P).expect("admit");
    reference.admit(P).expect("admit ref");

    let push = |t: Tick| {
        cluster.push(P, 0, t, wave(t, P));
        reference.push(P, 0, t, wave(t, P));
    };
    let poll = || {
        cluster.poll();
        reference.poll();
    };
    // In order, a gap, a late fill, a duplicate, an off-grid tick, and a
    // source the session does not have.
    for t in [0, 2, 4, 10, 12, 6, 12, 7, 14, 16] {
        push(t);
    }
    cluster.push(P, 1, 18, 0.0);
    reference.push(P, 1, 18, 0.0);
    poll();
    (9..150).for_each(|k| push(k * PERIOD));
    poll();
    // A gap that straddles the next retired horizon: samples resume at
    // 590, the frontier moves to 600, the horizon (600 less the margin)
    // sits below 590 with nothing buffered in between.
    (295..320).for_each(|k| push(k * PERIOD));
    poll();
    push(8); // below the retired horizon now
    cluster.barrier().expect("barrier");
    reference.barrier().expect("barrier ref");

    let owner = cluster.machine_of(P);
    servers[owner].take().expect("alive").kill();

    // Late fills between the horizon and the first buffered sample: the
    // dead machine's session would have taken them. One goes into the
    // mirror before the death is discovered (the barrier's roundtrip
    // finds it and re-admits P on the survivor from the mirror), one
    // into the rebuilt session after.
    push(580);
    (320..330).for_each(|k| push(k * PERIOD));
    poll();
    cluster.barrier().expect("barrier across the kill");
    reference.barrier().expect("barrier ref");
    assert_eq!(cluster.health().patients_failed_over, 1);
    push(570);
    (330..340).for_each(|k| push(k * PERIOD));
    poll();
    cluster.barrier().expect("barrier after failover");
    reference.barrier().expect("barrier ref");

    let probe = RemoteIngest::connect(addrs[1 - owner], cfg()).expect("connect probe");
    let rebuilt = probe.export_patient(P).expect("export survivor");
    let never_died = reference.export_patient(P).expect("export ref");
    assert!(never_died.snapshot.next_round >= 600);
    let ranges = &never_died.snapshot.sources[0].ranges;
    assert!(
        ranges.contains(&(570, 572)) && ranges.contains(&(580, 582)),
        "the reference took both late fills: {ranges:?}"
    );
    assert_eq!(rebuilt.snapshot, never_died.snapshot);
}

/// One far-future tick in a `Batch` frame used to make the shard thread
/// `resize` a sample buffer across the whole gap — at this distance, a
/// capacity-overflow panic that took every session of the shard with it.
/// It is now a push error like any other: deferred to that patient's
/// `finish`, the shard alive, the sibling on the same shard byte-identical
/// to a run that never saw the tick.
#[test]
fn far_future_tick_is_refused_and_the_shard_survives() {
    let (victim, sibling) = (3u64, 8u64);
    let far = (Tick::MAX / 2 / PERIOD) * PERIOD;
    let server = ShardServer::bind(
        factory(Pipe::SlidingMean),
        IngestConfig::new(1, ROUND), // one shard: the two share a thread
        "127.0.0.1:0",
    )
    .expect("bind");
    let remote = RemoteIngest::connect(
        server.local_addr(),
        RemoteConfig::default().batch(16).window(4),
    )
    .expect("connect");
    remote.admit(victim).expect("admit");
    remote.admit(sibling).expect("admit");
    for k in 0..400i64 {
        remote.push(victim, 0, k * PERIOD, wave(k, victim));
        remote.push(sibling, 0, k * PERIOD, wave(k, sibling));
        if k == 123 {
            remote.push(victim, 0, far, 1.0);
        }
        if k % 67 == 0 {
            remote.poll();
        }
    }
    let err = remote
        .finish(victim)
        .expect_err("the tick is a deferred error");
    assert!(err.contains("too far ahead"), "err: {err}");
    assert_eq!(
        err.matches("sample time").count(),
        1,
        "and the only one: {err}"
    );
    let out = remote.finish(sibling).expect("sibling finish");
    let expect = reference(Pipe::SlidingMean, &[sibling], 400, 67).remove(0);
    assert_eq!(fingerprint(&out), fingerprint(&expect));
    remote.shutdown();
    server.shutdown();
}

/// An `Import` frame whose presence ranges are off the grid, below the
/// suffix's base slot, or past its values used to be installed as it
/// came, leaving presence over slots that were never materialised; one
/// whose watermark lies beyond its values sent the shard's next poll
/// running rounds up to it. So did one whose frontier lies above its
/// watermark (the import replayed every round up to the frontier) or
/// whose base lies far above its frontier (the first poll ran every
/// round up to it). Each is now answered with an error reply, admits
/// nothing, and leaves the server serving.
#[test]
fn hostile_import_frames_are_refused_and_admit_nothing() {
    const P: u64 = 5;
    let server = ShardServer::bind(
        factory(Pipe::Select),
        IngestConfig::new(1, ROUND),
        "127.0.0.1:0",
    )
    .expect("bind");
    let remote =
        RemoteIngest::connect(server.local_addr(), RemoteConfig::default()).expect("connect");
    // Five values from slot 10 on: ticks [20, 30) of the period-2 grid,
    // at frontier 0; or at slot `FAR`, more slots above the frontier than
    // a push may open.
    const FAR: u64 = (1 << 26) + 1;
    let far = FAR as Tick * PERIOD;
    let hostile = [
        ("off the", 10, (21, 25), 30, 0),
        ("below the span base", 10, (10, 24), 30, 0),
        ("beyond the span", 10, (20, 40), 30, 0),
        (
            "watermark",
            10,
            (20, 30),
            (Tick::MAX / ROUND - 1) * ROUND,
            0,
        ),
        ("above the watermark 30", 10, (20, 30), 30, 4 * ROUND),
        (
            "above the snapshot frontier",
            FAR,
            (far, far + 10),
            far + 10,
            0,
        ),
    ];
    for (why, base_slot, range, watermark, next_round) in hostile {
        let state = PatientHandoff {
            snapshot: SessionSnapshot {
                next_round,
                sources: vec![SourceSuffix {
                    base_slot,
                    watermark,
                    values: vec![1.0; 5],
                    ranges: vec![range],
                }],
            },
            output: OutputCollector::new(1),
            errors: Vec::new(),
        };
        let err = remote.import_patient(P, state).expect_err(why);
        assert!(err.contains(why), "{why}: {err}");
        // Nothing was admitted under that id.
        assert!(remote.finish(P).unwrap_err().contains("not admitted"));
    }
    // And the server still serves: a fresh admit streams to the end.
    remote.admit(P).expect("admit after the refusals");
    for k in 0..300i64 {
        remote.push(P, 0, k * PERIOD, wave(k, P));
    }
    let out = remote.finish(P).expect("finish");
    let expect = reference(Pipe::Select, &[P], 300, 1000).remove(0);
    assert_eq!(fingerprint(&out), fingerprint(&expect));
    remote.shutdown();
    server.shutdown();
}

/// A `finish` answered with `Err` (here, a deferred off-grid tick) still
/// ends the session on the server, so the router must forget the patient
/// too: a later failover of its machine re-homes only the patient still
/// open, and the finished id can be admitted afresh.
#[test]
fn a_patient_finished_with_an_error_stays_finished_across_a_failover() {
    let pipe = Pipe::Select;
    let bind = || {
        ShardServer::bind(factory(pipe), IngestConfig::new(2, ROUND), "127.0.0.1:0").expect("bind")
    };
    let (mut server_a, server_b) = (Some(bind()), bind());
    let addrs = [
        server_a.as_ref().expect("alive").local_addr(),
        server_b.local_addr(),
    ];
    let cluster = ClusterIngest::connect(
        &addrs,
        RemoteConfig::default()
            .batch(8)
            .window(4)
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5)),
    )
    .expect("connect");
    let on_a: Vec<u64> = (0u64..)
        .filter(|&p| cluster.machine_of(p) == 0)
        .take(2)
        .collect();
    let (finished, open) = (on_a[0], on_a[1]);
    for p in [finished, open] {
        cluster.admit(p).expect("admit");
    }
    for k in 0..50i64 {
        for p in [finished, open] {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
    }
    cluster.push(finished, 0, 101, 1.0); // off the period-2 grid
    let err = cluster
        .finish(finished)
        .expect_err("the off-grid tick is a deferred error");
    assert!(err.contains("101"), "err: {err}");

    server_a.take().expect("alive").kill();
    // Keep feeding the open patient until the router finds machine 0 dead.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut k = 50i64;
    while cluster.health().failovers == 0 {
        assert!(Instant::now() < deadline, "machine 0 never failed over");
        cluster.push(open, 0, k * PERIOD, wave(k, open));
        cluster.poll();
        k += 1;
    }
    let health = cluster.health();
    assert_eq!(health.machines[0].state, MachineState::Down);
    assert_eq!(health.patients_failed_over, 1, "only the open patient");
    assert_eq!(cluster.machine_of(open), 1);
    cluster
        .admit(finished)
        .expect("a finished id admits afresh");
    cluster.finish(finished).expect("finish the new session");
    cluster.finish(open).expect("the open patient survived");
    cluster.shutdown();
    server_b.shutdown();
}

/// Lost means lost. Machine 0 dies and its survivor, machine 1, refuses
/// every re-admission (its factory cannot build the pipeline), so each of
/// machine 0's patients is counted lost. When machine 1 dies in turn, the
/// router must not bring those patients back on machine 2: they are
/// admitted nowhere, and finishing one is an error.
#[test]
fn a_patient_lost_in_a_failover_stays_lost_when_the_survivor_dies() {
    let refusing: PipelineFactory = Arc::new(|| Err(lifestream_core::error::Error::NoSink));
    let mut servers = [factory(Pipe::Select), refusing, factory(Pipe::Select)].map(|f| {
        Some(ShardServer::bind(f, IngestConfig::new(2, ROUND), "127.0.0.1:0").expect("bind"))
    });
    let addrs: Vec<_> = servers.iter().flatten().map(|s| s.local_addr()).collect();
    let cfg = RemoteConfig::default().retries(2);
    let cfg = cfg.backoff(Duration::from_millis(1), Duration::from_millis(5));
    let cluster = ClusterIngest::connect(&addrs, cfg).expect("connect");
    let on_0: Vec<u64> = (0u64..)
        .filter(|&p| cluster.machine_of(p) == 0)
        .take(3)
        .collect();
    on_0.iter().for_each(|&p| cluster.admit(p).expect("admit"));
    let deadline = Instant::now() + Duration::from_secs(60);
    // Feeds machine 0's patients, polling, until `failovers` machines are down.
    let feed_until = |failovers: u64| {
        for k in 0.. {
            if cluster.health().failovers == failovers {
                return;
            }
            assert!(Instant::now() < deadline, "no failover {failovers}");
            on_0.iter()
                .for_each(|&p| cluster.push(p, 0, k * PERIOD, wave(k, p)));
            cluster.poll();
            let _ = cluster.barrier();
        }
    };
    servers[0].take().expect("alive").kill();
    feed_until(1);
    let lost = on_0.len() as u64;
    assert_eq!(cluster.health().patients_lost, lost, "machine 1 refuses");
    servers[1].take().expect("alive").kill();
    feed_until(2);
    let health = cluster.health();
    assert_eq!(health.machines[1].state, MachineState::Down);
    assert_eq!(health.machines[2].state, MachineState::Up);
    assert_eq!(health.patients_lost, lost);
    assert_eq!(health.patients_failed_over, 0, "a lost patient came back");
    // Admitted nowhere: finishing any of them is an error.
    assert!(on_0.iter().all(|&p| cluster.finish(p).is_err()));
    cluster.shutdown(); // dropping `servers` shuts machine 2 down
}
