//! Batch-size transparency of the ingest front end: for any workload,
//! gap pattern, batch size, channel depth, and poll cadence, batched
//! ingest must be *byte-identical* to per-sample ingest (batch = 1) and
//! both identical to the retrospective batch run of the same compiled
//! query. Batching and backpressure are transport concerns; they must
//! never leak into results.

use std::sync::Arc;

use cluster_harness::sharded::{IngestConfig, LiveIngest, PipelineFactory};
use lifestream_core::exec::ExecOptions;
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use proptest::prelude::*;

const ROUND: Tick = 200;
const WORKERS: usize = 2;

/// The pipeline vocabulary: stateless, stateful (sliding ring), and
/// history-margin-bearing (shift spill) — the three live-path regimes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pipe {
    Select,
    SlidingMean,
    Shift,
}

fn factory(pipe: Pipe, period: Tick) -> PipelineFactory {
    Arc::new(move || {
        let q = Query::new();
        let s = q.source("s", StreamShape::new(0, period));
        match pipe {
            Pipe::Select => s.select(1, |i, o| o[0] = i[0] * 2.0 - 3.0)?.sink(),
            Pipe::SlidingMean => s.aggregate(AggKind::Mean, 20 * period, 2 * period)?.sink(),
            Pipe::Shift => s.shift(7 * period)?.sink(),
        }
        q.compile()
    })
}

/// Deterministic gap-riddled signal (same recipe as the differential
/// battery).
fn signal(period: Tick, slots: usize, seed: u64, gaps: &[(usize, usize)]) -> SignalData {
    let vals: Vec<f32> = (0..slots)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) % 2001) as f32 / 10.0 - 100.0
        })
        .collect();
    let mut data = SignalData::dense(StreamShape::new(0, period), vals);
    for &(s, l) in gaps {
        let s = (s % slots.max(1)) as Tick * period;
        let e = s + (l.max(1) as Tick) * period;
        data.punch_gap(s, e);
    }
    data
}

/// Present events of `data` in time order.
fn events_of(data: &SignalData) -> Vec<(Tick, f32)> {
    data.present_samples().map(|(_, t, v)| (t, v)).collect()
}

/// Replays per-patient feeds through a `LiveIngest` with the given
/// batching knobs; returns each patient's `(event count, checksum)`.
fn run_ingest(
    pipe: Pipe,
    period: Tick,
    feeds: &[(u64, Vec<(Tick, f32)>)],
    batch: usize,
    channel_cap: usize,
    poll_every: usize,
) -> Vec<(usize, u64)> {
    let ingest = LiveIngest::with_config(
        factory(pipe, period),
        IngestConfig::new(WORKERS, ROUND)
            .batch(batch)
            .channel_cap(channel_cap),
    );
    for &(p, _) in feeds {
        ingest.admit(p).expect("admit");
    }
    // Interleave the feeds by time so shards see realistic arrival order.
    let mut cursors = vec![0usize; feeds.len()];
    let mut pushed = 0usize;
    loop {
        let next = (0..feeds.len())
            .filter(|&i| cursors[i] < feeds[i].1.len())
            .min_by_key(|&i| feeds[i].1[cursors[i]].0);
        let Some(i) = next else { break };
        let (t, v) = feeds[i].1[cursors[i]];
        ingest.push(feeds[i].0, 0, t, v);
        cursors[i] += 1;
        pushed += 1;
        if pushed.is_multiple_of(poll_every) {
            ingest.poll();
        }
    }
    feeds
        .iter()
        .map(|&(p, _)| {
            let out = ingest.finish(p).expect("finish");
            (out.len(), out.checksum())
        })
        .collect()
}

/// Retrospective reference for one feed.
fn run_batch(pipe: Pipe, period: Tick, data: &SignalData) -> (usize, u64) {
    let mut exec = (factory(pipe, period))()
        .expect("compile")
        .executor_with(
            vec![data.clone()],
            ExecOptions::default().with_round_ticks(ROUND),
        )
        .expect("executor");
    let out = exec.run_collect().expect("run");
    (out.len(), out.checksum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_ingest_is_byte_identical_to_per_sample_and_batch(
        period in prop::sample::select(vec![1i64, 2, 4]),
        slots in 300usize..1500,
        seed in 0u64..u64::MAX / 2,
        gaps in prop::collection::vec((0usize..1500, 1usize..250), 0..4),
        batch in prop::sample::select(vec![2usize, 7, 64, 512]),
        channel_cap in prop::sample::select(vec![1usize, 4, 64]),
        poll_every in prop::sample::select(vec![37usize, 211, 997]),
        pipe in prop::sample::select(vec![Pipe::Select, Pipe::SlidingMean, Pipe::Shift]),
    ) {
        // Three patients, phase-shifted copies of the same gap recipe.
        let datas: Vec<(u64, SignalData)> = [3u64, 8, 21]
            .iter()
            .map(|&p| (p, signal(period, slots, seed ^ p, &gaps)))
            .collect();
        let feeds: Vec<(u64, Vec<(Tick, f32)>)> = datas
            .iter()
            .map(|(p, d)| (*p, events_of(d)))
            .collect();

        let batched = run_ingest(pipe, period, &feeds, batch, channel_cap, poll_every);
        let per_sample = run_ingest(pipe, period, &feeds, 1, channel_cap, poll_every);
        prop_assert_eq!(&batched, &per_sample, "batch size leaked into output");

        for (i, (p, d)) in datas.iter().enumerate() {
            let reference = run_batch(pipe, period, d);
            prop_assert_eq!(
                batched[i], reference,
                "patient {} online != retrospective", p
            );
        }
    }
}

/// ECG max-pooled onto ABP's grid and joined with it: two sources with
/// different periods, so a patient's batch share holds runs of both.
fn two_source_factory() -> PipelineFactory {
    Arc::new(|| {
        let q = Query::new();
        let ecg = q.source("ecg", StreamShape::new(0, 2));
        let abp = q.source("abp", StreamShape::new(0, 8));
        ecg.aggregate(AggKind::Max, 80, 80)?
            .join(abp, lifestream_core::ops::join::JoinKind::Inner)?
            .sink();
        q.compile()
    })
}

/// Batches are grouped into runs once and applied by run; none of that may
/// show. An interleaved feed of four admitted patients on two sources —
/// with gaps, off-grid ticks, duplicates, samples below the compaction
/// horizon, and a patient nobody admitted — must give the same outputs,
/// the same joined `finish` errors and the same drop count at every batch
/// size and worker count as it does sample by sample.
///
/// (Errors keep their order per source. Patient 21 errs on both of its
/// sources, more than a batch apart, so its joined message is comparable
/// whole.)
#[test]
fn run_grouped_batches_match_per_sample_ingest_errors_and_drops_included() {
    const STEPS: i64 = 1_500;
    const UNKNOWN: u64 = 99;
    let wave = |k: i64, p: u64, s: usize| ((k * 37 + p as i64 * 101 + s as i64 * 13) % 997) as f32;
    // The arrival order every configuration is fed.
    let mut feed: Vec<(u64, usize, Tick, f32)> = Vec::new();
    for k in 0..STEPS {
        for p in [3u64, 8, 21, 34, UNKNOWN] {
            let gap = (k + p as i64 * 7) % 400 < 25;
            if !gap {
                feed.push((p, 0, 2 * k, wave(k, p, 0)));
                if k % 4 == 0 {
                    feed.push((p, 1, 2 * k, wave(k, p, 1)));
                }
            }
            match (p, k % 300) {
                // Patient 3 errs on source 0 only: off the grid, a
                // duplicate, a sample long retired.
                (3, 50) => feed.push((p, 0, 2 * k + 1, -1.0)),
                (3, 120) => feed.push((p, 0, 2 * k - 20, -2.0)),
                (3, 200) if k > 600 => feed.push((p, 0, 0, -3.0)),
                // Patient 8 on source 1 only.
                (8, 70) => feed.push((p, 1, 2 * k + 2, -4.0)),
                (8, 160) => feed.push((p, 1, 8 * (k / 4) - 8, -5.0)),
                // Patient 21 on both, far apart; and an unknown source.
                (21, 10) => feed.push((p, 0, 2 * k + 1, -6.0)),
                (21, 150) => feed.push((p, 1, 2 * k + 3, -7.0)),
                (21, 290) => feed.push((p, 2, 2 * k, -8.0)),
                _ => {}
            }
        }
    }
    let run = |batch: usize, workers: usize| {
        let ingest = LiveIngest::with_config(
            two_source_factory(),
            IngestConfig::new(workers, ROUND)
                .batch(batch)
                .channel_cap(4),
        );
        for p in [3u64, 8, 21, 34] {
            ingest.admit(p).expect("admit");
        }
        for (i, &(p, s, t, v)) in feed.iter().enumerate() {
            ingest.push(p, s, t, v);
            if i % 701 == 700 {
                ingest.poll();
            }
        }
        let outcomes: Vec<Result<(usize, u64), String>> = [3u64, 8, 21, 34]
            .iter()
            .map(|&p| ingest.finish(p).map(|out| (out.len(), out.checksum())))
            .collect();
        (outcomes, ingest.stats().dropped_unknown)
    };
    let (expect, expect_dropped) = run(1, 1);
    assert!(expect[..3].iter().all(Result::is_err), "{expect:?}");
    assert!(
        expect[0]
            .as_ref()
            .is_err_and(|e| e.contains("compaction horizon")),
        "{expect:?}"
    );
    assert!(expect[3].as_ref().is_ok_and(|&(n, _)| n > 0), "{expect:?}");
    assert_eq!(
        expect_dropped,
        feed.iter().filter(|s| s.0 == UNKNOWN).count() as u64
    );
    for workers in [1, 2] {
        for batch in [1, 7, 256] {
            let (got, dropped) = run(batch, workers);
            assert_eq!(got, expect, "batch {batch}, {workers} workers");
            assert_eq!(dropped, expect_dropped, "batch {batch}, {workers} workers");
        }
    }
}
