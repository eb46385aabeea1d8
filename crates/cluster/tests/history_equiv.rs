//! Retrospective equivalence of the tiered history store, through every
//! layer of the stack:
//!
//! * **In-process** — a [`LiveIngest`] with an attached store answers a
//!   retrospective query over data *older than the compaction horizon*
//!   byte-identically to the equivalent cold batch run, while live
//!   ingest on the same patient continues (the query must not disturb
//!   the stream: finishing afterwards still matches the full reference).
//!   Range-bounded queries ([`HistoryQuery::range`]) match the *clipped*
//!   cold run and read only the overlapping segments (the prune counter
//!   must move).
//! * **Over the wire** — the same guarantees through a
//!   [`ShardServer`]/[`RemoteIngest`] pair speaking the v2 protocol's
//!   extended `HistoryQuery` command, including a registry pipeline
//!   resolved server-side by id.
//! * **Across a machine death** — two servers spilling to one shared
//!   store directory; one is hard-killed mid-stream. Failover rebuilds
//!   its patients from segments + the margin suffix, and history
//!   queries — full-range, range-bounded, and cohort — on the survivor
//!   still reconstruct *every* patient's feed byte-identically: zero
//!   history lost. One test triggers the failover *from* the query
//!   itself (the death is only discovered mid-query).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cluster_harness::machines::MachineState;
use cluster_harness::net::{ClusterIngest, RemoteConfig, RemoteIngest, ShardServer};
use cluster_harness::sharded::{IngestConfig, LiveIngest, PipelineFactory};
use cluster_harness::{HistoryError, HistoryQuery, HistoryQueryApi};
use lifestream_core::exec::{ExecOptions, OutputCollector};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use lifestream_store::StoreConfig;

const ROUND: Tick = 200;
const PERIOD: Tick = 2;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lss-hist-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn factory() -> PipelineFactory {
    Arc::new(|| {
        let q = Query::new();
        q.source("s", StreamShape::new(0, PERIOD))
            .aggregate(AggKind::Mean, 10 * PERIOD, 2 * PERIOD)?
            .sink();
        q.compile()
    })
}

/// A second, deliberately different pipeline for the server-side
/// registry: a plain select over the same source shape.
fn select_factory() -> PipelineFactory {
    Arc::new(|| {
        let q = Query::new();
        q.source("s", StreamShape::new(0, PERIOD)).sink();
        q.compile()
    })
}

fn wave(k: i64, p: u64) -> f32 {
    (((k * 37 + p as i64 * 101) % 997) as f32) / 7.0
}

/// Cold batch run of `f` over patient `p`'s first `samples` feed values —
/// the reference every retrospective query must match byte-for-byte.
fn cold_run(f: &PipelineFactory, p: u64, samples: i64) -> OutputCollector {
    let data = SignalData::dense(
        StreamShape::new(0, PERIOD),
        (0..samples).map(|k| wave(k, p)).collect(),
    );
    let mut exec = f()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(ROUND))
        .unwrap();
    exec.run_collect().unwrap()
}

fn cold_reference(p: u64, samples: i64) -> OutputCollector {
    cold_run(&factory(), p, samples)
}

fn assert_same(label: &str, a: &OutputCollector, b: &OutputCollector) {
    assert_eq!(a.len(), b.len(), "{label}: event count");
    assert_eq!(a.checksum(), b.checksum(), "{label}: checksum");
}

/// The store-backed rebuild guarantee, in-process: with a store attached,
/// a mid-stream retrospective query over data already compacted away
/// from memory equals the cold batch run over the same prefix — and the
/// live stream is undisturbed by the query.
#[test]
fn retrospective_query_matches_cold_run_while_ingest_continues() {
    let dir = tmp_dir("live");
    let p = 3u64;
    let ingest = LiveIngest::with_store(
        factory(),
        IngestConfig::new(2, ROUND),
        StoreConfig::new(&dir).flush_batch(0),
    )
    .unwrap();
    ingest.admit(p).unwrap();

    let mid = 2_000i64;
    let total = 3_000i64;
    for k in 0..mid {
        ingest.push(p, 0, k * PERIOD, wave(k, p));
        if k % 64 == 0 {
            ingest.poll();
        }
    }
    ingest.poll();
    let store = ingest.store().expect("store attached").clone();

    // Mid-stream retrospective query: data below the horizon comes from
    // segments, the rest from the live suffix.
    let retro = ingest.history_one(p).unwrap();
    // `poll` is asynchronous; the query's snapshot is what waits for the
    // shard to have applied (and so retired and spilled) everything
    // pushed before it.
    assert!(
        store.stats().spilled_samples > 0,
        "nothing crossed the compaction horizon — the query did not \
         exercise the durable tier"
    );
    assert_same("mid-stream query", &cold_reference(p, mid), &retro);
    assert!(!retro.is_empty(), "empty comparison proves nothing");

    // Range-bounded query while live ingest continues: equals the cold
    // run clipped to [t0, t1), and reads only overlapping segments.
    let (t0, t1) = (400 * PERIOD, 1_200 * PERIOD);
    let skipped_before = store.stats().segments_skipped;
    let ranged = ingest
        .history(HistoryQuery::new().patient(p).range(t0, t1))
        .unwrap()
        .into_single()
        .unwrap();
    assert_same(
        "range query",
        &cold_reference(p, mid).clipped(t0, t1),
        &ranged,
    );
    assert!(!ranged.is_empty(), "range window must contain output");
    assert!(
        store.stats().segments_skipped > skipped_before,
        "a narrow range must prune segments outside its window \
         (skipped {} -> {})",
        skipped_before,
        store.stats().segments_skipped
    );

    // Ingest continues on the same patient; the queries must not have
    // perturbed the live session.
    for k in mid..total {
        ingest.push(p, 0, k * PERIOD, wave(k, p));
        if k % 64 == 0 {
            ingest.poll();
        }
    }
    let final_retro = ingest.history_one(p).unwrap();
    assert_same("final query", &cold_reference(p, total), &final_retro);
    let out = ingest.finish(p).unwrap();
    assert_same("live output", &cold_reference(p, total), &out);

    // Finished patients stay queryable from segments alone.
    let after = ingest.history_one(p).unwrap();
    assert_same("post-finish query", &cold_reference(p, total), &after);
    ingest.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cohort scan runs its passes on the shards that own the patients —
/// twenty patients on three shards, so every pass splits into several
/// shares — and must equal the per-patient sequential loop, output for
/// output, whether the pipeline comes as a factory (one executor per
/// owning shard) or as one compiled plan (whose shares take turns on it),
/// while a second thread keeps streaming other patients through the same
/// shards.
#[test]
fn cohort_scan_matches_per_patient_loop() {
    let dir = tmp_dir("cohort");
    let patients: Vec<u64> = (1..=20).map(|p| p * p).collect();
    let streaming: Vec<u64> = vec![1_000, 1_001, 1_002];
    let ingest = LiveIngest::with_store(
        factory(),
        IngestConfig::new(3, ROUND),
        StoreConfig::new(&dir).flush_batch(0),
    )
    .unwrap();
    let samples = 1_200i64;
    for &p in patients.iter().chain(&streaming) {
        ingest.admit(p).unwrap();
    }
    for k in 0..samples {
        for &p in &patients {
            ingest.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % 64 == 0 {
            ingest.poll();
        }
    }
    ingest.poll();
    let mut owners: Vec<usize> = patients.iter().map(|&p| ingest.shard_of(p)).collect();
    owners.sort_unstable();
    owners.dedup();
    assert_eq!(owners, [0, 1, 2], "the cohort must span every shard");

    let (t0, t1) = (100 * PERIOD, 1_000 * PERIOD);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Far above the cohort's range: these patients' segments are
            // pruned from its scans, but their commands share its shards.
            let mut k = 0i64;
            while k < 256 || !stop.load(Ordering::Relaxed) {
                for &p in &streaming {
                    ingest.push(p, 0, (100_000 + k) * PERIOD, wave(k, p));
                }
                if k % 64 == 0 {
                    ingest.poll();
                }
                k += 1;
            }
        });
        let sequential: Vec<OutputCollector> = patients
            .iter()
            .map(|&p| {
                let seq = ingest
                    .history(HistoryQuery::new().patient(p).range(t0, t1))
                    .unwrap()
                    .into_single()
                    .unwrap();
                assert_same(
                    &format!("patient {p} vs cold"),
                    &cold_reference(p, samples).clipped(t0, t1),
                    &seq,
                );
                assert!(!seq.is_empty(), "empty comparison proves nothing");
                seq
            })
            .collect();
        for spec in ["factory", "compiled"] {
            let query = HistoryQuery::new()
                .patients(patients.iter().copied())
                .range(t0, t1);
            let query = match spec {
                "factory" => query.pipeline_factory(factory()),
                _ => query.pipeline(factory()().unwrap()),
            };
            let report = ingest.history(query).unwrap();
            assert_eq!(report.len(), patients.len());
            for (&p, seq) in patients.iter().zip(&sequential) {
                let fanned = report.output_for(p).expect("patient in report");
                assert_same(&format!("{spec} cohort patient {p}"), seq, fanned);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    for &p in &streaming {
        assert!(
            !ingest.finish(p).unwrap().is_empty(),
            "patient {p} streamed"
        );
    }
    ingest.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cohort_share_serves_waiting_commands_between_patients() {
    // Patient 1's replay holds the shard until a live batch is queued
    // behind it; patient 2's replay holds it until that batch is
    // acked. The ack can only come if the shard serves the batch
    // between the two patients of the share.
    let phase = Arc::new((Mutex::new(0u8), Condvar::new()));
    let held = Arc::clone(&phase);
    let gated: PipelineFactory = Arc::new(move || {
        let held = Arc::clone(&held);
        let q = Query::new();
        q.source("s", StreamShape::new(0, PERIOD))
            .select(1, move |i, o| {
                let (at, wake) = &*held;
                let mut at = at.lock().unwrap();
                let until = if i[0] > 0.0 { 2 } else { 3 };
                if i[0] > 0.0 && *at == 0 {
                    *at = 1;
                    wake.notify_all();
                }
                while *at < until {
                    // A deadlock guard, not a timing assert: it only
                    // fires when the batch is stuck behind the share.
                    let (next, wait) = wake.wait_timeout(at, Duration::from_secs(30)).unwrap();
                    at = next;
                    if wait.timed_out() {
                        *at = 9;
                    }
                }
                o[0] = i[0];
            })?
            .sink();
        q.compile()
    });
    let dir = tmp_dir("yield");
    let ingest = LiveIngest::with_store(
        select_factory(),
        IngestConfig::new(1, ROUND),
        StoreConfig::new(&dir),
    )
    .unwrap();
    for (p, v) in [(1, 1.0), (2, -1.0), (3, 0.0)] {
        ingest.admit(p).unwrap();
        for k in 0..100i64 {
            ingest.push(p, 0, k * PERIOD, v);
        }
    }
    std::thread::scope(|s| {
        let query = HistoryQuery::new().patients([1, 2]).pipeline_factory(gated);
        let report = s.spawn(|| ingest.history(query).unwrap());
        let (at, wake) = &*phase;
        let mut now = wake.wait_while(at.lock().unwrap(), |p| *p == 0).unwrap();
        let mut ticket = ingest.ingest_batch(vec![(3, 0, 100 * PERIOD, 0.0)]);
        *now = 2;
        wake.notify_all();
        drop(now);
        assert_eq!(ticket.wait(), 0);
        let mut now = at.lock().unwrap();
        assert_eq!(*now, 2, "the batch waited behind the whole share");
        *now = 3;
        wake.notify_all();
        drop(now);
        let report = report.join().unwrap();
        assert_eq!(report.output_for(1).unwrap().len(), 100);
        assert_eq!(report.output_for(2).unwrap().len(), 100);
    });
    assert_eq!(ingest.finish(3).unwrap().len(), 101);
    ingest.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A patient the ingest never admitted (or no store at all) is an
/// error, not a panic or an empty answer — and the typed errors carry
/// the locked messages.
#[test]
fn query_errors_are_descriptive() {
    let no_store = LiveIngest::new(factory(), 1, ROUND);
    let err = no_store.history_one(1).unwrap_err();
    assert!(matches!(err, HistoryError::NoStore));
    assert!(err.to_string().contains("store"), "err: {err}");
    let err = HistoryQueryApi::history(&no_store, HistoryQuery::new().patient(1)).unwrap_err();
    assert!(matches!(err, HistoryError::NoStore), "err: {err}");
    no_store.shutdown();

    let dir = tmp_dir("err");
    let with_store = LiveIngest::with_store(
        factory(),
        IngestConfig::new(1, ROUND),
        StoreConfig::new(&dir),
    )
    .unwrap();
    let err = with_store.history_one(42).unwrap_err();
    assert!(matches!(err, HistoryError::UnknownPatient(42)));
    assert!(err.to_string().contains("42"), "err: {err}");

    // A degenerate range is a named error with a locked message, not an
    // empty result.
    with_store.admit(7).unwrap();
    with_store.push(7, 0, 0, 1.0);
    with_store.poll();
    let err = with_store
        .history(HistoryQuery::new().patient(7).range(500, 500))
        .unwrap_err();
    assert!(matches!(
        err,
        HistoryError::InvalidRange { t0: 500, t1: 500 }
    ));
    assert_eq!(
        err.to_string(),
        "invalid history range [500, 500): t1 must be greater than t0"
    );

    // An empty patient list is refused up front.
    let err = with_store.history(HistoryQuery::new()).unwrap_err();
    assert!(matches!(err, HistoryError::NoPatients));
    with_store.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same guarantee through the wire: `HistoryQuery` on a
/// loopback server answers byte-identically to the cold run — full
/// range, clipped range, and a registry pipeline resolved by id.
#[test]
fn history_query_over_the_wire_matches_cold_run() {
    let dir = tmp_dir("wire");
    let p = 11u64;
    let server = ShardServer::bind_with_store(
        factory(),
        IngestConfig::new(2, ROUND),
        StoreConfig::new(&dir).flush_batch(0),
        "127.0.0.1:0",
    )
    .unwrap();
    server.register_pipeline(2, select_factory()).unwrap();
    let remote = RemoteIngest::connect(server.local_addr(), RemoteConfig::default()).unwrap();
    remote.admit(p).unwrap();

    let mid = 1_500i64;
    for k in 0..mid {
        remote.push(p, 0, k * PERIOD, wave(k, p));
        if k % 64 == 0 {
            remote.poll();
        }
    }
    let retro = remote.history_one(p).unwrap();
    assert_same("wire query", &cold_reference(p, mid), &retro);

    // Range-bounded over the wire: equals the clipped cold run.
    let (t0, t1) = (300 * PERIOD, 1_100 * PERIOD);
    let ranged = remote
        .history(HistoryQuery::new().patient(p).range(t0, t1))
        .unwrap()
        .into_single()
        .unwrap();
    assert_same(
        "wire range query",
        &cold_reference(p, mid).clipped(t0, t1),
        &ranged,
    );
    assert!(!ranged.is_empty());

    // A pipeline registered on the server runs by id; the client never
    // holds the compiled plan.
    let selected = remote
        .history(HistoryQuery::new().patient(p).range(t0, t1).pipeline_id(2))
        .unwrap()
        .into_single()
        .unwrap();
    assert_same(
        "wire registry pipeline",
        &cold_run(&select_factory(), p, mid).clipped(t0, t1),
        &selected,
    );

    // A compiled plan cannot travel over the wire — typed refusal.
    let compiled = (select_factory())().unwrap();
    let err = remote
        .history(HistoryQuery::new().patient(p).pipeline(compiled))
        .unwrap_err();
    assert!(matches!(err, HistoryError::Remote(_)), "err: {err}");

    // The stream continues over the same connection, and a later
    // full-range query sees all of it.
    for k in mid..2_000 {
        remote.push(p, 0, k * PERIOD, wave(k, p));
    }
    let full = remote.history_one(p).unwrap();
    let out = remote.finish(p).unwrap();
    assert_same("wire output", &cold_reference(p, 2_000), &out);
    assert_same("wire full-range query", &cold_reference(p, 2_000), &full);
    remote.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The fault-equivalence gate for the durable tier: two machines share
/// one store directory; one is hard-killed mid-stream. Every patient —
/// including the dead machine's — is rebuilt from segments + margin
/// suffix, keeps streaming, and history queries on the survivor
/// reconstruct its *entire* feed byte-identically. Zero history lost.
#[test]
fn killed_machine_patients_rebuild_from_segments_with_zero_history_lost() {
    let dir = tmp_dir("kill");
    let bind = |_: usize| {
        ShardServer::bind_with_store(
            factory(),
            IngestConfig::new(2, ROUND),
            StoreConfig::new(&dir).flush_batch(0),
            "127.0.0.1:0",
        )
        .unwrap()
    };
    let server_a = bind(0);
    let server_b = bind(1);
    let cluster = ClusterIngest::connect_with_store(
        &[server_a.local_addr(), server_b.local_addr()],
        RemoteConfig::default()
            .batch(16)
            .window(4)
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5))
            .read_timeout(Duration::from_millis(250)),
        &dir,
    )
    .unwrap();

    let patients: Vec<u64> = (0..6).collect();
    for &p in &patients {
        cluster.admit(p).unwrap();
    }
    // Both machines must own someone, or the kill proves nothing.
    let machine_of: Vec<usize> = patients.iter().map(|&p| cluster.machine_of(p)).collect();
    assert!(machine_of.contains(&0) && machine_of.contains(&1));

    let mid = 1_200i64;
    let total = 1_800i64;
    for k in 0..mid {
        for &p in &patients {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % 32 == 0 {
            cluster.poll();
        }
    }
    cluster.barrier().unwrap();
    cluster.poll();

    // Hard-kill machine 0: sockets severed mid-frame, ingest torn down.
    server_a.kill();
    for k in mid..total {
        for &p in &patients {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % 32 == 0 {
            cluster.poll();
        }
    }
    cluster.barrier().ok();

    let health = cluster.health();
    assert_eq!(health.machines[0].state, MachineState::Down);
    assert!(health.failovers >= 1);
    assert_eq!(health.patients_lost, 0, "no patient may be lost");

    // The whole point: every patient's full history — including spans
    // only ever held by the dead machine — reconstructs byte-identically
    // on the survivor, while its live session keeps running.
    for &p in &patients {
        let retro = cluster.history_one(p).unwrap();
        assert_same(
            &format!("patient {p} history"),
            &cold_reference(p, total),
            &retro,
        );
    }

    // A range-bounded cohort scan across the whole patient list keeps
    // working after the failover, and matches the clipped cold runs.
    let (t0, t1) = (200 * PERIOD, 1_500 * PERIOD);
    let report = cluster
        .history(
            HistoryQuery::new()
                .patients(patients.iter().copied())
                .range(t0, t1),
        )
        .unwrap();
    assert_eq!(report.len(), patients.len());
    for &p in &patients {
        assert_same(
            &format!("patient {p} post-failover range"),
            &cold_reference(p, total).clipped(t0, t1),
            report.output_for(p).expect("patient in report"),
        );
    }

    for &p in &patients {
        let out = cluster.finish(p);
        assert!(out.is_ok(), "patient {p} must finish on the survivor");
    }
    cluster.shutdown();
    server_b.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failover triggered *by* the query: the machine dies quietly (no
/// pushes in between), so the first thing to discover the death is the
/// history query itself. It must fail over mid-query and answer every
/// patient from the survivor.
#[test]
fn history_query_discovers_death_and_fails_over_mid_query() {
    let dir = tmp_dir("midq");
    let bind = || {
        ShardServer::bind_with_store(
            factory(),
            IngestConfig::new(2, ROUND),
            StoreConfig::new(&dir).flush_batch(0),
            "127.0.0.1:0",
        )
        .unwrap()
    };
    let server_a = bind();
    let server_b = bind();
    let cluster = ClusterIngest::connect_with_store(
        &[server_a.local_addr(), server_b.local_addr()],
        RemoteConfig::default()
            .batch(16)
            .window(4)
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(5))
            .read_timeout(Duration::from_millis(250)),
        &dir,
    )
    .unwrap();

    let patients: Vec<u64> = (0..4).collect();
    for &p in &patients {
        cluster.admit(p).unwrap();
    }
    let machine_of: Vec<usize> = patients.iter().map(|&p| cluster.machine_of(p)).collect();
    assert!(machine_of.contains(&0) && machine_of.contains(&1));

    let samples = 1_000i64;
    for k in 0..samples {
        for &p in &patients {
            cluster.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % 32 == 0 {
            cluster.poll();
        }
    }
    cluster.barrier().unwrap();
    cluster.poll();

    // Kill machine 0 and query immediately: no push traffic has had a
    // chance to notice, so the cohort query trips over the dead socket
    // and must drive the failover itself.
    server_a.kill();
    let (t0, t1) = (100 * PERIOD, 900 * PERIOD);
    let report = cluster
        .history(
            HistoryQuery::new()
                .patients(patients.iter().copied())
                .range(t0, t1),
        )
        .unwrap();
    assert!(
        cluster.health().failovers >= 1,
        "query must trigger failover"
    );
    for &p in &patients {
        assert_same(
            &format!("patient {p} mid-query failover"),
            &cold_reference(p, samples).clipped(t0, t1),
            report.output_for(p).expect("patient in report"),
        );
    }
    cluster.shutdown();
    server_b.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
