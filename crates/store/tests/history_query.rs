//! The retrospective query engine's equivalence battery, at store
//! level (no cluster in the loop):
//!
//! * **Range clipping** — `HistoryQuery::range(t0, t1)` over spilled,
//!   gap-riddled data equals the full in-memory batch run clipped to
//!   `[t0, t1)`, byte-identically, across random Table-2 pipelines,
//!   shapes, gap patterns, flush batches, and ranges — and stays
//!   byte-identical after `compact()` merges the segment files.
//! * **Cohort order** — a multi-patient query returns exactly what the
//!   per-patient sequential loop returns, in cohort order.
//! * **Pruning** — a narrow range over a fragmented store opens only
//!   the overlapping segment files (`segments_skipped` must move).
//! * **Typed errors** — degenerate ranges and ranges below the
//!   retention floor are named errors with locked messages, never
//!   silently-empty results.
//! * **One scan per cohort** — an eight-patient cohort opens each
//!   overlapping file once, not once per patient, and answers what the
//!   per-patient loop answers.
//! * **Reads outside the lock** — a spill completes while a scan is
//!   stopped in the middle of a file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lifestream_core::exec::{ExecOptions, OutputCollector};
use lifestream_core::live::LiveSession;
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use lifestream_store::{
    HistoryError, HistoryQuery, LiveOverlay, QueryFactory, SharedStore, StoreConfig,
};
use proptest::prelude::*;

const ROUND: Tick = 400;
const PATIENT: u64 = 7;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lss-hq-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn segment_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "lss")
        })
        .count()
}

/// A recorded, gap-riddled signal (same construction as the spill
/// equivalence battery): deterministic waveform with several dropouts.
fn recorded(shape: StreamShape, slots: usize, seed: u64) -> SignalData {
    let vals: Vec<f32> = (0..slots)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(seed);
            ((x >> 40) % 997) as f32 / 7.0
        })
        .collect();
    let mut data = SignalData::dense(shape, vals);
    let span = slots as Tick * shape.period();
    data.punch_gap(span / 10, span / 10 + 3 * shape.period());
    data.punch_gap(span / 3, span / 3 + span / 20);
    data.punch_gap(span / 2, span / 2 + ROUND + span / 15);
    data
}

/// One of the Table-2 pipeline shapes, as an on-demand factory.
fn pipeline(pipe: usize, shape: StreamShape) -> QueryFactory {
    let period = shape.period();
    Arc::new(move || {
        let q = Query::new();
        let s = q.source("s", shape);
        match pipe {
            0 => s.select(1, |i, o| o[0] = i[0] * 1.5 + 2.0)?.sink(),
            1 => s.aggregate(AggKind::Mean, 20 * period, 2 * period)?.sink(),
            2 => s.aggregate(AggKind::Max, 64 * period, 64 * period)?.sink(),
            3 => s.where_(|v| v[0] > 30.0)?.sink(),
            _ => s.shift(13 * period)?.sink(),
        }
        q.compile()
    })
}

/// Full in-memory batch run — the reference every range query must
/// match after clipping.
fn batch_run(factory: &QueryFactory, data: &SignalData) -> OutputCollector {
    let mut exec = factory()
        .unwrap()
        .executor_with(
            vec![data.clone()],
            ExecOptions::default().with_round_ticks(ROUND),
        )
        .unwrap();
    exec.run_collect().unwrap()
}

/// Streams `data` through a live session spilling into `store` under
/// `patient`, returning the live-tail overlay for query stitching.
fn spill(
    store: &SharedStore,
    patient: u64,
    factory: &QueryFactory,
    data: &SignalData,
    poll_every: usize,
) -> LiveOverlay {
    let mut session = LiveSession::new(factory().unwrap(), ROUND).unwrap();
    session.set_retire_sink(store.sink_for(patient));
    let events: Vec<(Tick, f32)> = data.present_samples().map(|(_, t, v)| (t, v)).collect();
    for (k, &(t, v)) in events.iter().enumerate() {
        session.push(0, t, v).unwrap();
        if (k + 1) % poll_every == 0 {
            session.poll(|_| {}).unwrap();
        }
    }
    session.poll(|_| {}).unwrap();
    LiveOverlay {
        snapshot: session.export_suffix(),
        shapes: session.source_shapes(),
    }
}

fn assert_same(label: &str, a: &OutputCollector, b: &OutputCollector) {
    assert_eq!(a.len(), b.len(), "{label}: event count");
    assert_eq!(a.checksum(), b.checksum(), "{label}: checksum");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite: a range-bounded query equals the full-history run
    /// clipped to `[t0, t1)`, byte-identically, across random pipelines
    /// and gap-heavy data — and compaction changes nothing but the file
    /// count.
    #[test]
    fn range_query_equals_clipped_full_run(
        period in prop::sample::select(vec![1i64, 2, 4]),
        slots in 1200usize..3000,
        seed in 0u64..u64::MAX / 2,
        gap_a in (0usize..3000, 1usize..400),
        gap_b in (0usize..3000, 1usize..400),
        flush_batch in prop::sample::select(vec![0usize, 256]),
        poll_every in prop::sample::select(vec![53usize, 211, 997]),
        pipe in 0usize..5,
        t0_pct in 0i64..80,
        len_pct in 5i64..100,
    ) {
        let shape = StreamShape::new(0, period);
        let mut data = recorded(shape, slots, seed);
        for (s, l) in [gap_a, gap_b] {
            let s = (s % slots) as Tick * period;
            data.punch_gap(s, s + l as Tick * period);
        }
        let span = slots as Tick * period;
        let t0 = span * t0_pct / 100;
        let t1 = (t0 + (span * len_pct / 100).max(period)).min(span + ROUND);

        let dir = tmp_dir("range");
        let factory = pipeline(pipe, shape);
        let store =
            SharedStore::open(StoreConfig::new(&dir).flush_batch(flush_batch)).unwrap();
        let overlay = spill(&store, PATIENT, &factory, &data, poll_every);
        prop_assert!(store.stats().spilled_samples > 0, "nothing spilled");

        let reference = batch_run(&factory, &data);
        let clipped = reference.clipped(t0, t1);
        let run = |t0: Tick, t1: Tick| {
            HistoryQuery::new()
                .patient(PATIENT)
                .range(t0, t1)
                .pipeline_factory(factory.clone())
                .run_with(&store, ROUND, |_| Some(overlay.clone()))
                .unwrap()
                .into_single()
                .unwrap()
        };
        assert_same("range vs clipped full", &clipped, &run(t0, t1));
        assert_same(
            "full-range sentinel vs batch",
            &reference,
            &run(Tick::MIN, Tick::MAX),
        );

        // Compaction merges the files but may not change a single byte
        // of any answer.
        let files_before = segment_files(&dir);
        let merged = store.compact().unwrap();
        if files_before >= 2 {
            prop_assert_eq!(merged, files_before, "all originals merged");
            prop_assert_eq!(segment_files(&dir), 1, "one merged file left");
            prop_assert!(store.stats().segments_compacted > 0);
        }
        assert_same("post-compaction range", &clipped, &run(t0, t1));
        assert_same(
            "post-compaction full",
            &reference,
            &run(Tick::MIN, Tick::MAX),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: a cohort scan returns exactly the per-patient
    /// sequential loop, in cohort order.
    #[test]
    fn cohort_scan_equals_per_patient_loop(
        period in prop::sample::select(vec![1i64, 2]),
        slots in 1200usize..2200,
        seed in 0u64..u64::MAX / 2,
        pipe in 0usize..5,
        t0_pct in 0i64..60,
        len_pct in 10i64..100,
    ) {
        let shape = StreamShape::new(0, period);
        let span = slots as Tick * period;
        let t0 = span * t0_pct / 100;
        let t1 = t0 + (span * len_pct / 100).max(period);
        let patients: Vec<u64> = vec![3, 1, 12];

        let dir = tmp_dir("cohort");
        let factory = pipeline(pipe, shape);
        let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(0)).unwrap();
        let mut overlays: HashMap<u64, LiveOverlay> = HashMap::new();
        for (i, &p) in patients.iter().enumerate() {
            let data = recorded(shape, slots, seed.wrapping_add(i as u64 * 7919));
            overlays.insert(p, spill(&store, p, &factory, &data, 211));
        }

        let report = HistoryQuery::new()
            .patients(patients.iter().copied())
            .range(t0, t1)
            .pipeline_factory(factory.clone())
            .run_with(&store, ROUND, |p| overlays.get(&p).cloned())
            .unwrap();
        prop_assert_eq!(report.len(), patients.len());
        for (i, &p) in patients.iter().enumerate() {
            prop_assert_eq!(report.outputs()[i].0, p, "cohort order preserved");
            let solo = HistoryQuery::new()
                .patient(p)
                .range(t0, t1)
                .pipeline_factory(factory.clone())
                .run_with(&store, ROUND, |p| overlays.get(&p).cloned())
                .unwrap()
                .into_single()
                .unwrap();
            assert_same(&format!("cohort patient {p}"), &solo, &report.outputs()[i].1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A narrow range over a fragmented store must open only the segments
/// whose tick range overlaps the (margin-widened) window — the prune
/// counter proves files were never read.
#[test]
fn narrow_range_prunes_non_overlapping_segments() {
    let dir = tmp_dir("prune");
    let shape = StreamShape::new(0, 2);
    let data = recorded(shape, 6_000, 17);
    // Zero-margin pipeline (select): the query window widens by nothing,
    // so pruning is exact.
    let factory = pipeline(0, shape);
    let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(0)).unwrap();
    let overlay = spill(&store, PATIENT, &factory, &data, 64);
    assert!(
        segment_files(&dir) >= 3,
        "need a fragmented store to prove pruning ({} files)",
        segment_files(&dir)
    );

    let (t0, t1) = (2_000, 3_000);
    let skipped_before = store.stats().segments_skipped;
    let ranged = HistoryQuery::new()
        .patient(PATIENT)
        .range(t0, t1)
        .pipeline_factory(factory.clone())
        .run_with(&store, ROUND, |_| Some(overlay.clone()))
        .unwrap()
        .into_single()
        .unwrap();
    assert!(
        store.stats().segments_skipped > skipped_before,
        "no segment was pruned for a narrow range over {} files",
        segment_files(&dir)
    );
    assert_same(
        "pruned range query",
        &batch_run(&factory, &data).clipped(t0, t1),
        &ranged,
    );
    assert!(!ranged.is_empty(), "empty comparison proves nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite bugfix, message-locked: `t1 <= t0` is a named typed error,
/// not an empty result.
#[test]
fn inverted_range_is_a_named_error_with_locked_message() {
    let err = HistoryQuery::validate_range(500, 500).unwrap_err();
    assert!(matches!(
        err,
        HistoryError::InvalidRange { t0: 500, t1: 500 }
    ));
    assert_eq!(
        err.to_string(),
        "invalid history range [500, 500): t1 must be greater than t0"
    );
    let err = HistoryQuery::validate_range(10, -10).unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid history range [10, -10): t1 must be greater than t0"
    );

    // The executing path refuses before touching any patient.
    let dir = tmp_dir("inv");
    let shape = StreamShape::new(0, 2);
    let factory = pipeline(0, shape);
    let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(0)).unwrap();
    let overlay = spill(&store, PATIENT, &factory, &recorded(shape, 1_500, 3), 97);
    let err = HistoryQuery::new()
        .patient(PATIENT)
        .range(900, 100)
        .pipeline_factory(factory)
        .run_with(&store, ROUND, |_| Some(overlay.clone()))
        .unwrap_err();
    assert!(matches!(
        err,
        HistoryError::InvalidRange { t0: 900, t1: 100 }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite bugfix, message-locked: a range entirely below the earliest
/// retained tick is a named typed error, not an empty result.
#[test]
fn range_below_retention_is_a_named_error_with_locked_message() {
    let dir = tmp_dir("ret");
    let shape = StreamShape::new(0, 2);
    let factory = pipeline(0, shape);
    let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(0)).unwrap();
    let overlay = spill(&store, PATIENT, &factory, &recorded(shape, 1_500, 9), 97);
    let earliest = store
        .scan(&[PATIENT], Tick::MIN, Tick::MAX)
        .unwrap()
        .earliest
        .expect("segments were written");

    let err = HistoryQuery::new()
        .patient(PATIENT)
        .range(earliest - 200, earliest)
        .pipeline_factory(factory.clone())
        .run_with(&store, ROUND, |_| Some(overlay.clone()))
        .unwrap_err();
    assert!(
        matches!(err, HistoryError::BelowRetention { t1, earliest: e } if t1 == earliest && e == earliest),
        "err: {err}"
    );
    assert_eq!(
        err.to_string(),
        format!(
            "history range ends at {earliest}, at or below the earliest retained tick \
             {earliest}; that history has been pruned"
        )
    );

    // One tick above the floor is answerable again.
    let ok = HistoryQuery::new()
        .patient(PATIENT)
        .range(earliest - 200, earliest + 1)
        .pipeline_factory(factory)
        .run_with(&store, ROUND, |_| Some(overlay.clone()));
    assert!(ok.is_ok(), "err: {:?}", ok.err().map(|e| e.to_string()));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Eight patients interleaved in shared segment files, queried as one
/// narrow cohort: every overlapping file is opened once for the whole
/// cohort (the same files one patient's query opens), the report carries
/// that cost, and the outputs equal the per-patient loop's byte for byte.
#[test]
fn eight_patient_cohort_opens_each_overlapping_file_once() {
    let dir = tmp_dir("onescan");
    let shape = StreamShape::new(0, 2);
    let factory = pipeline(1, shape);
    let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(600)).unwrap();
    let patients: Vec<u64> = (20..28).collect();
    // Round-robin the patients' sessions so every flushed file holds
    // spans of all eight.
    let data: Vec<SignalData> = (0..8).map(|i| recorded(shape, 4_000, 31 + i)).collect();
    let mut sessions: Vec<LiveSession> = patients
        .iter()
        .map(|&p| {
            let mut session = LiveSession::new(factory().unwrap(), ROUND).unwrap();
            session.set_retire_sink(store.sink_for(p));
            session
        })
        .collect();
    for k in 0..4_000 {
        for (session, d) in sessions.iter_mut().zip(&data) {
            let t = k as Tick * 2;
            if d.presence().contains(t) {
                session.push(0, t, d.values()[k]).unwrap();
            }
            if k % 100 == 99 {
                session.poll(|_| {}).unwrap();
            }
        }
    }
    let overlays: HashMap<u64, LiveOverlay> = patients
        .iter()
        .zip(&sessions)
        .map(|(&p, session)| {
            let overlay = LiveOverlay {
                snapshot: session.export_suffix(),
                shapes: session.source_shapes(),
            };
            (p, overlay)
        })
        .collect();
    let files = segment_files(&dir) as u64;
    assert!(files >= 10, "need a fragmented store ({files} files)");

    let (t0, t1) = (3_000, 3_800);
    let query = |cohort: &[u64]| {
        HistoryQuery::new()
            .patients(cohort.iter().copied())
            .range(t0, t1)
            .pipeline_factory(factory.clone())
            .run_with(&store, ROUND, |p| overlays.get(&p).cloned())
            .unwrap()
    };
    let before = store.stats();
    let solo = query(&patients[..1]);
    let one = solo.scan_stats();
    assert!(
        one.segments_opened >= 1 && one.segments_skipped >= 1,
        "{one:?}"
    );
    assert_eq!(one.segments_opened + one.segments_skipped, files);

    let report = query(&patients);
    assert_eq!(
        report.scan_stats(),
        one,
        "a cohort pass costs one patient's"
    );
    let after = store.stats();
    assert_eq!(
        after.segments_opened - before.segments_opened,
        2 * one.segments_opened
    );
    assert_eq!(
        after.segments_skipped - before.segments_skipped,
        2 * one.segments_skipped
    );
    assert_eq!(after.bytes_read - before.bytes_read, 2 * one.bytes_read);

    for (i, &p) in patients.iter().enumerate() {
        assert_eq!(report.outputs()[i].0, p);
        let alone = query(&[p]).into_single().unwrap();
        assert_same(
            &format!("cohort patient {p}"),
            &alone,
            &report.outputs()[i].1,
        );
        assert_same(
            &format!("cohort patient {p} vs clipped batch"),
            &batch_run(&factory, &data[i]).clipped(t0, t1),
            &alone,
        );
        assert!(!alone.is_empty(), "empty comparison proves nothing");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(unix)]
mod mid_scan {
    //! Tests that stop a scan part-way. A FIFO with a segment's name is
    //! listed like any other file; the scan then blocks in `File::open`
    //! until this side opens the write end, which in turn returns only
    //! once the scan is there — a rendezvous with the listing behind the
    //! scan and the read still ahead of it.

    use super::*;
    use lifestream_core::live::RetiredSpan;
    use lifestream_store::segment::encode_record;
    use lifestream_store::{SegmentRecord, SEGMENT_MAGIC, SEGMENT_VERSION};
    use std::io::Write;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn shape() -> StreamShape {
        StreamShape::new(0, 2)
    }

    /// Four samples of `v` from `base_slot`.
    fn span(base_slot: u64, v: f32) -> RetiredSpan {
        RetiredSpan {
            source: 0,
            shape: shape(),
            base_slot,
            values: vec![v; 4],
            ranges: vec![(base_slot as Tick * 2, base_slot as Tick * 2 + 8)],
        }
    }

    fn mkfifo(path: &Path) {
        let made = std::process::Command::new("mkfifo")
            .arg(path)
            .status()
            .unwrap();
        assert!(made.success(), "mkfifo failed");
    }

    /// Opens `fifo`'s write end: returns once the scan is opening it.
    fn meet_scan_at(fifo: &Path) -> std::fs::File {
        std::fs::OpenOptions::new().write(true).open(fifo).unwrap()
    }

    /// A one-span segment image for the FIFO to serve.
    fn image(base_slot: u64, v: f32) -> Vec<u8> {
        let RetiredSpan {
            base_slot,
            values,
            ranges,
            ..
        } = span(base_slot, v);
        let mut image = SEGMENT_MAGIC.to_vec();
        image.push(SEGMENT_VERSION);
        image.extend(encode_record(&SegmentRecord {
            patient: PATIENT,
            source: 0,
            shape: shape(),
            base_slot,
            values,
            ranges,
        }));
        image
    }

    fn first_values(records: &[SegmentRecord]) -> Vec<f32> {
        records.iter().map(|r| r.values[0]).collect()
    }

    /// The store's lock covers a scan's listing, not its file reads: a
    /// spill issued while the scan is inside a file must complete (with
    /// the lock held across reads it would wait for a scan that waits
    /// for this thread).
    #[test]
    fn spill_completes_while_a_scan_is_inside_a_file_read() {
        let dir = tmp_dir("unlocked");
        let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(0)).unwrap();
        let mut sink = store.sink_for(PATIENT);
        sink(span(0, 1.0));
        sink(span(4, 2.0));
        // An un-indexed name, sorting after the writer's: opened last.
        let fifo = dir.join("seg-fifo.lss");
        mkfifo(&fifo);

        std::thread::scope(|s| {
            let scan = s.spawn(|| store.scan(&[PATIENT], Tick::MIN, Tick::MAX));
            let mut pipe = meet_scan_at(&fifo);
            let (done, spilled) = channel();
            s.spawn(move || {
                sink(span(8, 3.0));
                done.send(()).unwrap();
            });
            let outcome = spilled.recv_timeout(Duration::from_secs(20));
            // Release the scan before judging, or a failure would hang
            // the scope instead of failing the test.
            pipe.write_all(&image(12, 4.0)).unwrap();
            drop(pipe);
            let scanned = scan.join().unwrap().unwrap();

            assert!(outcome.is_ok(), "spill waited for the scan's file reads");
            // What was listed before the spill: two files and the FIFO.
            assert_eq!(first_values(&scanned.records[0]), vec![1.0, 2.0, 4.0]);
            assert_eq!(scanned.stats.segments_opened, 3);
        });
        assert_eq!(store.stats().segments_written, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A listed file that is gone when the scan reaches it — here renamed
    /// mid-scan, as a compaction replaces its inputs — restarts the scan
    /// from a fresh listing: the replacement is found, and what the
    /// abandoned pass had read is not in the answer. A name that still
    /// leads nowhere after that is a typed store error.
    #[test]
    fn scan_relists_once_when_a_listed_file_disappears() {
        let dir = tmp_dir("relist");
        let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(0)).unwrap();
        store.sink_for(PATIENT)(span(4, 2.0));
        let flushed = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        // Sorts before any writer's files: opened first.
        let fifo = dir.join("seg-0.lss");
        mkfifo(&fifo);

        std::thread::scope(|s| {
            let scan = s.spawn(|| store.scan(&[PATIENT], Tick::MIN, Tick::MAX));
            // While the scan waits on the FIFO, the file it listed next is
            // replaced under another name, and the FIFO's own name goes
            // (its open ends stay connected) so the restart skips it.
            let mut pipe = meet_scan_at(&fifo);
            std::fs::rename(&flushed, dir.join("seg-replacement.lss")).unwrap();
            std::fs::remove_file(&fifo).unwrap();
            pipe.write_all(&image(0, 1.0)).unwrap();
            drop(pipe);
            let scanned = scan.join().unwrap().unwrap();
            assert_eq!(first_values(&scanned.records[0]), vec![2.0]);
            assert_eq!(scanned.stats.segments_opened, 1, "the completed pass only");
        });

        std::os::unix::fs::symlink("nowhere", dir.join("seg-dangling.lss")).unwrap();
        let err = HistoryQuery::new()
            .patient(PATIENT)
            .pipeline_factory(pipeline(0, shape()))
            .run_with(&store, ROUND, |_| None)
            .unwrap_err();
        assert!(matches!(err, HistoryError::Store(_)), "err: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
