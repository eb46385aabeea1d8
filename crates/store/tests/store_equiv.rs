//! The tiered store's core contract: segment-spill + `HistoryReader`
//! reconstruction is *byte-identical* to the full in-memory retrospective
//! run. A live session streams gap-heavy data with a retire sink spilling
//! every compacted span to disk; stitching segments + the live suffix back
//! into `SignalData` and re-running the pipeline must reproduce the batch
//! run over the original recording exactly — across random Table-2
//! pipelines, shapes, gap patterns, and flush batches.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use lifestream_core::exec::{ExecOptions, OutputCollector};
use lifestream_core::live::{LiveSession, SessionSnapshot, SourceSuffix, MAX_RETAINED_SLOTS};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::ops::join::JoinKind;
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use lifestream_store::{HistoryReader, SegmentRecord, SharedStore, StoreConfig};
use proptest::prelude::*;

const ROUND: Tick = 400;
const PATIENT: u64 = 7;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lss-equiv-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A recorded, gap-riddled signal (same construction as the live
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

/// Streams `sources` through a live session with a store attached, then
/// proves the store + suffix reconstruction re-runs byte-identically to
/// the batch run over the original recording. Returns the store so the
/// caller can make further assertions.
fn assert_spill_reconstructs(
    build: impl Fn() -> CompiledQuery,
    sources: Vec<SignalData>,
    flush_batch: usize,
    poll_every: usize,
    dir: &PathBuf,
) {
    // Full in-memory retrospective reference.
    let mut exec = build()
        .executor_with(
            sources.clone(),
            ExecOptions::default().with_round_ticks(ROUND),
        )
        .unwrap();
    let offline = exec.run_collect().unwrap();
    assert!(
        !offline.is_empty(),
        "trivially-empty comparison proves nothing"
    );

    // Live replay with every compacted span spilled to the store.
    let store = SharedStore::open(StoreConfig::new(dir).flush_batch(flush_batch)).unwrap();
    let mut session = LiveSession::new(build(), ROUND).unwrap();
    session.set_retire_sink(store.sink_for(PATIENT));

    let mut events: Vec<(Tick, usize, f32)> = Vec::new();
    for (s, data) in sources.iter().enumerate() {
        events.extend(data.present_samples().map(|(_, t, v)| (t, s, v)));
    }
    events.sort_by_key(|&(t, s, _)| (t, s));
    for (k, &(t, s, v)) in events.iter().enumerate() {
        session.push(s, t, v).unwrap();
        if (k + 1) % poll_every == 0 {
            session.poll(|_| {}).unwrap();
        }
    }
    session.poll(|_| {}).unwrap();
    assert!(
        store.stats().spilled_samples > 0,
        "no spans crossed the horizon — the run never exercised the store"
    );

    // Reconstruct: durable spans (disk + write buffer) ∪ live suffix.
    let snapshot = session.export_suffix();
    let shapes = session.source_shapes();
    let reader = HistoryReader::from_records(
        store
            .records_for_range(PATIENT, Tick::MIN, Tick::MAX)
            .unwrap(),
    );
    let datasets = reader.stitch(PATIENT, &shapes, Some(&snapshot)).unwrap();
    let mut exec = build()
        .executor_with(datasets, ExecOptions::default().with_round_ticks(ROUND))
        .unwrap();
    let replayed = exec.run_collect().unwrap();

    assert_eq!(offline.len(), replayed.len(), "event count");
    assert_eq!(
        offline.checksum(),
        replayed.checksum(),
        "reconstruction must be byte-identical to the in-memory run"
    );
}

#[test]
fn durable_path_round_trips_through_real_segments() {
    // Force the pure-disk path: flush everything, then scan through a
    // fresh store (empty write buffer) so only segment files feed the
    // re-run.
    let dir = tmp_dir("disk");
    let shape = StreamShape::new(0, 2);
    let data = recorded(shape, 5_000, 91);
    let build = || {
        let q = Query::new();
        q.source("s", shape)
            .aggregate(AggKind::Mean, 40, 4)
            .unwrap()
            .sink();
        q.compile().unwrap()
    };

    let mut exec = build()
        .executor_with(
            vec![data.clone()],
            ExecOptions::default().with_round_ticks(ROUND),
        )
        .unwrap();
    let offline = exec.run_collect().unwrap();

    let store = SharedStore::open(StoreConfig::new(&dir).flush_batch(512)).unwrap();
    let mut session = LiveSession::new(build(), ROUND).unwrap();
    session.set_retire_sink(store.sink_for(PATIENT));
    for (_, t, v) in data.present_samples().collect::<Vec<_>>() {
        session.push(0, t, v).unwrap();
    }
    let mut online = OutputCollector::new(1);
    session.finish(|w| online.absorb(w)).unwrap();
    assert_eq!(offline.checksum(), online.checksum());
    store.flush().unwrap();
    assert!(store.stats().segments_written > 0);

    // After `finish` + flush with a zero-margin-exceeding drain, the
    // session has retired everything: disk alone must reconstruct, with
    // the (empty-or-marginal) suffix still stitched for completeness.
    let snapshot = session.export_suffix();
    let disk = SharedStore::open(StoreConfig::new(&dir)).unwrap();
    let reader = HistoryReader::from_records(
        disk.records_for_range(PATIENT, Tick::MIN, Tick::MAX)
            .unwrap(),
    );
    let datasets = reader
        .stitch(PATIENT, &session.source_shapes(), Some(&snapshot))
        .unwrap();
    let mut exec = build()
        .executor_with(datasets, ExecOptions::default().with_round_ticks(ROUND))
        .unwrap();
    let replayed = exec.run_collect().unwrap();
    assert_eq!(offline.len(), replayed.len());
    assert_eq!(offline.checksum(), replayed.checksum());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_source_join_reconstructs() {
    let dir = tmp_dir("join");
    let s_ecg = StreamShape::new(0, 2);
    let s_abp = StreamShape::new(0, 8);
    let ecg = recorded(s_ecg, 4_000, 5);
    let abp = recorded(s_abp, 1_000, 6);
    assert_spill_reconstructs(
        || {
            let q = Query::new();
            let a = q.source("ecg", s_ecg);
            let b = q.source("abp", s_abp);
            a.aggregate(AggKind::Max, 80, 80)
                .unwrap()
                .join(b, JoinKind::Inner)
                .unwrap()
                .sink();
            q.compile().unwrap()
        },
        vec![ecg, abp],
        256,
        97,
        &dir,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite 3: random Table-2 pipelines × gap-heavy data × flush
    /// batches — spill + reconstruction equals the in-memory run.
    #[test]
    fn random_pipelines_reconstruct_byte_identically(
        period in prop::sample::select(vec![1i64, 2, 4]),
        slots in 600usize..3000,
        seed in 0u64..u64::MAX / 2,
        gap_a in (0usize..3000, 1usize..400),
        gap_b in (0usize..3000, 1usize..400),
        flush_batch in prop::sample::select(vec![0usize, 64, 1024, 1 << 20]),
        poll_every in prop::sample::select(vec![53usize, 211, 997]),
        pipe in 0usize..5,
    ) {
        let shape = StreamShape::new(0, period);
        let mut data = recorded(shape, slots, seed);
        for (s, l) in [gap_a, gap_b] {
            let s = (s % slots) as Tick * period;
            data.punch_gap(s, s + l as Tick * period);
        }
        let build = || {
            let q = Query::new();
            let s = q.source("s", shape);
            match pipe {
                0 => s.select(1, |i, o| o[0] = i[0] * 1.5 + 2.0).unwrap().sink(),
                1 => s.aggregate(AggKind::Mean, 20 * period, 2 * period).unwrap().sink(),
                2 => s.aggregate(AggKind::Max, 64 * period, 64 * period).unwrap().sink(),
                3 => s.where_(|v| v[0] > 30.0).unwrap().sink(),
                _ => s.shift(13 * period).unwrap().sink(),
            }
            q.compile().unwrap()
        };
        let dir = tmp_dir("prop");
        assert_spill_reconstructs(build, vec![data], flush_batch, poll_every, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn stitch_starts_at_the_lowest_span_not_at_slot_zero() {
    // A stream that has run for days: every span, and the live suffix,
    // sit above 2^26 slots — the bound on what a *push* may open. A
    // history is as long as its data, wherever on the grid it starts.
    let shape = StreamShape::new(0, 2);
    let far = MAX_RETAINED_SLOTS as u64 * 3;
    let t = |slot: u64| slot as Tick * 2;
    let span = |base_slot: u64, values: Vec<f32>| SegmentRecord {
        patient: PATIENT,
        source: 0,
        shape,
        ranges: vec![(t(base_slot), t(base_slot + values.len() as u64))],
        base_slot,
        values,
    };
    let reader =
        HistoryReader::from_records(vec![span(far, vec![1.0, 2.0]), span(far + 4, vec![5.0])]);
    let live = SessionSnapshot {
        next_round: 0,
        sources: vec![SourceSuffix {
            base_slot: far + 5,
            watermark: t(far + 7),
            values: vec![6.0, 7.0],
            ranges: vec![(t(far + 5), t(far + 7))],
        }],
    };
    let data = reader
        .stitch(PATIENT, &[shape], Some(&live))
        .unwrap()
        .remove(0);
    assert_eq!((data.base_slot() as u64, data.len()), (far, 7));
    let got: Vec<_> = data.present_samples().map(|(_, t, v)| (t, v)).collect();
    let want = [(0, 1.0), (1, 2.0), (4, 5.0), (5, 6.0), (6, 7.0)];
    assert_eq!(got, want.map(|(k, v)| (t(far + k), v)));
    // And the executor runs over it as over any other input.
    let q = Query::new();
    q.source("s", shape)
        .select(1, |i, o| o[0] = i[0] + 1.0)
        .unwrap()
        .sink();
    let mut exec = q
        .compile()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(ROUND))
        .unwrap();
    let out = exec.run_collect().unwrap();
    assert_eq!(out.times(), want.map(|(k, _)| t(far + k)));
    assert_eq!(out.values(0), want.map(|(_, v)| v + 1.0));
}
