//! Tiered-store throughput: the cost of durable segment spill on the
//! live ingest path, and the retrospective-scan rate of the
//! [`HistoryReader`] reconstruction.
//!
//! Two numbers this bench pins down:
//!
//! 1. **Spill is cheap.** The same multi-patient feed runs twice through
//!    [`LiveIngest`] — once plain, once with a [`StoreConfig`] attached
//!    so every compacted span is encoded, checksummed, and flushed to
//!    segment files. The gated metric `spill_vs_no_store_ratio` is
//!    (with-store Mev/s) / (no-store Mev/s): the durable tier must cost
//!    a bounded, near-constant fraction of ingest throughput, not a
//!    multiple. Outputs are asserted byte-identical first.
//! 2. **Retrospective scans are fast.** After the spill run, each
//!    patient's full history is re-run via `HistoryQueryApi::history_one`
//!    (stitch segments + suffix, compile, execute); the scan rate is
//!    reported in reconstructed input samples per second.
//! 3. **Range pruning pays.** The same patients are then queried over a
//!    narrow `[t0, t1)` window (10% of the span) via
//!    `HistoryQuery::range`. The file-name tick-range index lets the
//!    store skip every non-overlapping segment unopened
//!    (`segments_skipped` is asserted to move), so the narrow scan runs
//!    a large multiple faster than the full one. The second gated
//!    metric `range_prune_speedup` is (full-scan elapsed) / (narrow-scan
//!    elapsed) — a portable ratio like the spill ratio.
//!
//! Environment knobs:
//! * `LS_SCALE` — workload scale factor (shared with every bench).
//! * `LS_WORKERS` — ingest shard count (default 4).
//! * `LS_JSON_OUT` — also write the JSON to this path.
//!
//! `host_cores` is recorded: absolute Mev/s numbers are machine-bound,
//! while the spill ratio is dominated by encode+write cost per sample
//! and ports across hosts — which is why it is the gated metric.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cluster_harness::sharded::{IngestConfig, LiveIngest, PipelineFactory};
use cluster_harness::{HistoryQuery, HistoryQueryApi};
use lifestream_bench::{scale, Table};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use lifestream_store::StoreConfig;

const ROUND: Tick = 1_000;
const PERIOD: Tick = 2;

/// Margin-bearing live pipeline (select into a sliding mean), so
/// compaction retains a real suffix and everything below it spills.
fn factory() -> PipelineFactory {
    Arc::new(|| {
        let q = Query::new();
        q.source("sig", StreamShape::new(0, PERIOD))
            .select(1, |i, o| o[0] = i[0] * 0.25 + 1.0)?
            .aggregate(AggKind::Mean, 50 * PERIOD, 5 * PERIOD)?
            .sink();
        q.compile()
    })
}

fn wave(k: i64, p: u64) -> f32 {
    (((k * 37 + p as i64 * 101) % 997) as f32) / 7.0
}

struct RunResult {
    elapsed_s: f64,
    mev_per_s: f64,
    checksum: u64,
    spilled_samples: u64,
    segments_written: u64,
}

/// Full-scan rate, narrow-range rate, prune speedup, and how many
/// segment files the narrow scans skipped unopened.
struct ScanResult {
    full_mev_per_s: f64,
    range_mev_per_s: f64,
    range_prune_speedup: f64,
    segments_skipped: u64,
}

/// Streams the feed through an ingest, optionally with a store attached,
/// querying nothing — pure ingest-path cost. With a store, patients are
/// history-queried (timed separately) before finishing: once over the
/// full range, once over a narrow pruned window.
fn run_mode(
    workers: usize,
    patients: u64,
    samples: i64,
    store_dir: Option<&std::path::Path>,
) -> (RunResult, Option<ScanResult>) {
    let cfg = IngestConfig::new(workers, ROUND).batch(256).channel_cap(64);
    let ingest = match store_dir {
        Some(dir) => {
            LiveIngest::with_store(factory(), cfg, StoreConfig::new(dir).flush_batch(4096))
                .expect("open store")
        }
        None => LiveIngest::with_config(factory(), cfg),
    };
    for p in 0..patients {
        ingest.admit(p).expect("admit");
    }
    let poll_every = ROUND / PERIOD;
    let start = Instant::now();
    for k in 0..samples {
        for p in 0..patients {
            ingest.push(p, 0, k * PERIOD, wave(k, p));
        }
        if k % poll_every == 0 {
            ingest.poll();
        }
    }
    ingest.poll();
    let elapsed = start.elapsed().as_secs_f64();

    // Retrospective scan over every patient's full durable history,
    // then over a narrow range the segment index can prune around.
    let scan = store_dir.map(|_| {
        let full_start = Instant::now();
        for p in 0..patients {
            let out = ingest.history_one(p).expect("history query");
            assert!(!out.is_empty(), "empty retrospective run");
        }
        let full_elapsed = full_start.elapsed().as_secs_f64();
        let scanned = patients as f64 * samples as f64;

        // Narrow window: the middle 10% of the recorded span.
        let span = samples * PERIOD;
        let (t0, t1) = (span * 45 / 100, span * 55 / 100);
        let skipped_before = ingest
            .store()
            .map(|s| s.stats().segments_skipped)
            .unwrap_or(0);
        let range_start = Instant::now();
        for p in 0..patients {
            let out = ingest
                .history(HistoryQuery::new().patient(p).range(t0, t1))
                .expect("range query")
                .into_single()
                .expect("single patient");
            assert!(!out.is_empty(), "empty range run");
        }
        let range_elapsed = range_start.elapsed().as_secs_f64();
        let segments_skipped = ingest
            .store()
            .map(|s| s.stats().segments_skipped)
            .unwrap_or(0)
            - skipped_before;
        assert!(
            segments_skipped > 0,
            "narrow range pruned no segments — the range index is dead"
        );
        ScanResult {
            full_mev_per_s: scanned / full_elapsed / 1e6,
            range_mev_per_s: (patients as f64 * ((t1 - t0) / PERIOD) as f64) / range_elapsed / 1e6,
            range_prune_speedup: full_elapsed / range_elapsed.max(1e-12),
            segments_skipped,
        }
    });

    let mut checksum = 0u64;
    for p in 0..patients {
        let out = ingest.finish(p).expect("finish");
        checksum ^= out.checksum().rotate_left((p % 63) as u32);
    }
    let (spilled_samples, segments_written) = ingest
        .store()
        .map(|s| {
            let st = s.stats();
            assert_eq!(st.io_errors, 0, "spill hit I/O errors");
            (st.spilled_samples, st.segments_written)
        })
        .unwrap_or((0, 0));
    let events = patients as f64 * samples as f64;
    (
        RunResult {
            elapsed_s: elapsed,
            mev_per_s: events / elapsed / 1e6,
            checksum,
            spilled_samples,
            segments_written,
        },
        scan,
    )
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers: usize = std::env::var("LS_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let patients: u64 = 8;
    let samples: i64 = ((100_000.0 * scale()) as i64).max(2_000);
    println!(
        "Tiered-store throughput — {patients} patients x {samples} samples, \
         {workers} ingest shards, {cores} host cores\n"
    );

    let dir = std::env::temp_dir().join(format!("lss-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create store dir");

    let (plain, _) = run_mode(workers, patients, samples, None);
    let (spill, scan) = run_mode(workers, patients, samples, Some(&dir));
    let scan = scan.expect("store run scans");
    assert_eq!(
        plain.checksum, spill.checksum,
        "the store leaked into live output"
    );
    assert!(spill.spilled_samples > 0, "nothing spilled — bench is void");
    let ratio = spill.mev_per_s / plain.mev_per_s.max(1e-12);

    let mut table = Table::new(&["mode", "Mev/s", "elapsed s", "spilled", "segments"]);
    table.row(&[
        "no store".into(),
        format!("{:.3}", plain.mev_per_s),
        format!("{:.2}", plain.elapsed_s),
        "-".into(),
        "-".into(),
    ]);
    table.row(&[
        "segment spill".into(),
        format!("{:.3}", spill.mev_per_s),
        format!("{:.2}", spill.elapsed_s),
        spill.spilled_samples.to_string(),
        spill.segments_written.to_string(),
    ]);
    println!("{}", table.render());
    println!("spill vs no-store ingest ratio: {ratio:.3}");
    println!(
        "retrospective scan rate: {:.3} Mev/s (full), {:.3} Mev/s (10% range)",
        scan.full_mev_per_s, scan.range_mev_per_s
    );
    println!(
        "range prune speedup: {:.3}x ({} segments skipped unopened)\n",
        scan.range_prune_speedup, scan.segments_skipped
    );

    let _ = std::fs::remove_dir_all(&dir);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"history_throughput\",");
    let _ = writeln!(json, "  \"workload\": \"select_sliding_mean_live_spill\",");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"ingest_workers\": {workers},");
    let _ = writeln!(json, "  \"patients\": {patients},");
    let _ = writeln!(json, "  \"samples_per_patient\": {samples},");
    let _ = writeln!(json, "  \"round_ticks\": {ROUND},");
    let _ = writeln!(json, "  \"spill_vs_no_store_ratio\": {ratio:.3},");
    let _ = writeln!(json, "  \"no_store_mev_per_s\": {:.4},", plain.mev_per_s);
    let _ = writeln!(json, "  \"spill_mev_per_s\": {:.4},", spill.mev_per_s);
    let _ = writeln!(
        json,
        "  \"retro_scan_mev_per_s\": {:.4},",
        scan.full_mev_per_s
    );
    let _ = writeln!(
        json,
        "  \"range_scan_mev_per_s\": {:.4},",
        scan.range_mev_per_s
    );
    let _ = writeln!(
        json,
        "  \"range_prune_speedup\": {:.3},",
        scan.range_prune_speedup
    );
    let _ = writeln!(json, "  \"segments_skipped\": {},", scan.segments_skipped);
    let _ = writeln!(json, "  \"spilled_samples\": {},", spill.spilled_samples);
    let _ = writeln!(json, "  \"segments_written\": {}", spill.segments_written);
    let _ = writeln!(json, "}}");
    println!("{json}");
    if let Ok(path) = std::env::var("LS_JSON_OUT") {
        std::fs::write(&path, &json).expect("write JSON output");
        println!("wrote {path}");
    }
}
