//! The tiered history store, end to end: live ingest with durable
//! segment spill, a retrospective query answered mid-stream over data
//! older than the compaction horizon, and the byte-identity proof
//! against the cold batch run.
//!
//! One [`LiveIngest`] runs with an attached [`StoreConfig`]: every
//! sample the compactor retires from memory is spilled to an
//! append-only segment file instead of dropped. Halfway through the
//! feed — long after the earliest rounds left memory — a
//! [`HistoryQueryApi::history_one`] call stitches segments + write
//! buffer + live suffix back into executor-ready inputs and re-runs the
//! same pipeline. A range-bounded [`HistoryQuery`] then replays only a
//! narrow `[t0, t1)` window: the file-name tick-range index lets the
//! store skip every non-overlapping segment unopened (the
//! `segments_skipped` counter is asserted and printed, so CI's archived
//! log carries the pruning proof), and the answer equals the cold run
//! clipped to the same window. The assertions pin every answer
//! (mid-stream, ranged, and final) to the cold runs, so this example
//! doubles as CI's tiered-storage smoke.
//!
//! Set `LS_STORE_DIR=/some/dir` to keep the segment files (CI uploads
//! them as an artifact); by default a temp directory is used and
//! removed.
//!
//! Run with `cargo run --release --example retrospective`.

use std::sync::Arc;

use lifestream::cluster::sharded::{IngestConfig, LiveIngest, PipelineFactory};
use lifestream::cluster::{HistoryQuery, HistoryQueryApi};
use lifestream::core::exec::{ExecOptions, OutputCollector};
use lifestream::core::prelude::*;
use lifestream::core::source::SignalData;
use lifestream::store::StoreConfig;

const ROUND: Tick = 500;
const PERIOD: Tick = 2;
const MID: i64 = 30_000;
const SAMPLES: i64 = 50_000;
const PATIENT: u64 = 7;

/// A margin-bearing pipeline, so compaction retains a real history
/// suffix and everything below it crosses into the store.
fn factory() -> PipelineFactory {
    Arc::new(|| {
        let q = Query::new();
        q.source("ecg", StreamShape::new(0, PERIOD))
            .select(1, |i, o| o[0] = i[0] * 0.25 + 1.0)?
            .aggregate(AggKind::Mean, 40 * PERIOD, 4 * PERIOD)?
            .sink();
        q.compile()
    })
}

fn wave(k: i64) -> f32 {
    (((k * 37 + 101) % 997) as f32) / 7.0
}

/// Cold batch run over the first `n` feed samples.
fn cold(n: i64) -> OutputCollector {
    let data = SignalData::dense(
        StreamShape::new(0, PERIOD),
        (0..n).map(wave).collect::<Vec<_>>(),
    );
    let mut exec = (factory())()
        .expect("compile")
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(ROUND))
        .expect("executor");
    exec.run_collect().expect("run")
}

fn main() {
    let (dir, keep) = match std::env::var_os("LS_STORE_DIR") {
        Some(d) => (std::path::PathBuf::from(d), true),
        None => (
            std::env::temp_dir().join(format!("lss-example-{}", std::process::id())),
            false,
        ),
    };
    std::fs::create_dir_all(&dir).expect("create store dir");
    println!("segment store at {}", dir.display());

    let ingest = LiveIngest::with_store(
        factory(),
        IngestConfig::new(2, ROUND).batch(256),
        StoreConfig::new(&dir).flush_batch(4096),
    )
    .expect("open store");
    ingest.admit(PATIENT).expect("admit");

    // ---------------------------------------------------------------
    // Live ingest to the halfway mark: early rounds leave memory, the
    // retire sink spills them to segments.
    // ---------------------------------------------------------------
    for k in 0..MID {
        ingest.push(PATIENT, 0, k * PERIOD, wave(k));
        if k % (ROUND / PERIOD) == 0 {
            ingest.poll();
        }
    }
    ingest.poll();
    let store = ingest.store().expect("store attached").clone();
    let stats = store.stats();
    println!(
        "mid-stream: {} samples spilled in {} spans, {} segment files, {} still buffered",
        stats.spilled_samples,
        stats.spilled_spans,
        stats.segments_written,
        store.with(|s| s.pending_samples()),
    );
    assert!(
        stats.spilled_samples > 0,
        "nothing crossed the compaction horizon"
    );

    // ---------------------------------------------------------------
    // Retrospective query over data older than the compaction horizon,
    // while the live session stays admitted and keeps ingesting after.
    // ---------------------------------------------------------------
    let retro = ingest.history_one(PATIENT).expect("history query");
    let reference = cold(MID);
    assert_eq!(retro.len(), reference.len(), "mid-stream event count");
    assert_eq!(
        retro.checksum(),
        reference.checksum(),
        "mid-stream retrospective run diverged from the cold batch run"
    );
    println!(
        "mid-stream query: {} events, checksum {:#018x} — byte-identical to the cold run",
        retro.len(),
        retro.checksum()
    );

    // ---------------------------------------------------------------
    // HistoryQuery quickstart: the same fluent builder every front end
    // accepts. A narrow [t0, t1) replays only the overlapping segments
    // (the rest are skipped by the file-name range index, unopened) and
    // equals the cold run clipped to the window.
    // ---------------------------------------------------------------
    let (t0, t1) = (MID * PERIOD * 2 / 5, MID * PERIOD * 3 / 5);
    let skipped_before = store.stats().segments_skipped;
    let ranged = ingest
        .history(HistoryQuery::new().patient(PATIENT).range(t0, t1))
        .expect("range query")
        .into_single()
        .expect("single patient");
    let clipped = reference.clipped(t0, t1);
    assert_eq!(ranged.len(), clipped.len(), "range event count");
    assert_eq!(
        ranged.checksum(),
        clipped.checksum(),
        "range query diverged from the clipped cold run"
    );
    let segments_skipped = store.stats().segments_skipped - skipped_before;
    assert!(
        segments_skipped > 0,
        "narrow range pruned no segments — the range index is dead"
    );
    println!(
        "range query [{t0}, {t1}): {} events, {segments_skipped} segments skipped \
         unopened — byte-identical to the clipped cold run",
        ranged.len()
    );

    for k in MID..SAMPLES {
        ingest.push(PATIENT, 0, k * PERIOD, wave(k));
        if k % (ROUND / PERIOD) == 0 {
            ingest.poll();
        }
    }
    let live_out = ingest.finish(PATIENT).expect("finish");
    let final_query = ingest.history_one(PATIENT).expect("post-finish query");
    let full = cold(SAMPLES);
    assert_eq!(live_out.checksum(), full.checksum(), "live output diverged");
    assert_eq!(
        final_query.checksum(),
        full.checksum(),
        "post-finish retrospective run diverged from the cold batch run"
    );

    let stats = store.stats();
    println!(
        "final: {} events live, {} via history query, both checksum {:#018x}",
        live_out.len(),
        final_query.len(),
        full.checksum()
    );
    println!(
        "store: {} spans / {} samples spilled, {} segment files, {} flushes, {} io errors",
        stats.spilled_spans,
        stats.spilled_samples,
        stats.segments_written,
        stats.flushes,
        stats.io_errors
    );
    ingest.shutdown();
    if keep {
        println!("segments kept in {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("retrospective queries over the durable tier are byte-identical. done.");
}
