//! Deployment seamlessness (§2): a recorded signal pushed through
//! `LiveSession::push`/`poll`/`finish` must yield *byte-identical* output
//! to the batch `Executor::run_collect` of the same compiled query —
//! including on gap-heavy data, where targeted processing skips rounds
//! online and offline alike.

use lifestream_core::exec::{ExecOptions, OutputCollector};
use lifestream_core::live::{
    LiveSession, LiveSource, SessionBuffer, SessionSnapshot, SourceSuffix, MAX_RETAINED_SLOTS,
};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::ops::join::JoinKind;
use lifestream_core::pipeline as lspipe;
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use proptest::prelude::*;

const ROUND: Tick = 400;

/// A recorded, gap-riddled signal: deterministic waveform with several
/// dropouts of varying length (including one longer than a round).
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
    // Gap pattern: short dropout, mid dropout, and one > ROUND.
    data.punch_gap(span / 10, span / 10 + 3 * shape.period());
    data.punch_gap(span / 3, span / 3 + span / 20);
    data.punch_gap(span / 2, span / 2 + ROUND + span / 15);
    data
}

/// Replays `sources` through a live session (pushing present samples in
/// time order, interleaved across sources, polling periodically), then
/// checks the collected output against the batch run bit-for-bit.
fn assert_live_matches_batch(build: impl Fn() -> CompiledQuery, sources: Vec<SignalData>) {
    // Batch reference.
    let mut exec = build()
        .executor_with(
            sources.clone(),
            ExecOptions::default().with_round_ticks(ROUND),
        )
        .unwrap();
    let offline = exec.run_collect().unwrap();

    // Live replay: merge all sources' present events by time.
    let mut events: Vec<(Tick, usize, f32)> = Vec::new();
    for (s, data) in sources.iter().enumerate() {
        events.extend(data.present_samples().map(|(_, t, v)| (t, s, v)));
    }
    events.sort_by_key(|&(t, s, _)| (t, s));

    let mut session = LiveSession::new(build(), ROUND).unwrap();
    let mut online = OutputCollector::new(session.sink_arity().unwrap());
    for (k, &(t, s, v)) in events.iter().enumerate() {
        session.push(s, t, v).unwrap();
        if k % 97 == 0 {
            session.poll(|w| online.absorb(w)).unwrap();
        }
    }
    session.finish(|w| online.absorb(w)).unwrap();

    assert_eq!(offline.len(), online.len(), "event count online vs batch");
    assert_eq!(
        offline.checksum(),
        online.checksum(),
        "live output must be byte-identical to batch"
    );
    assert!(
        !offline.is_empty(),
        "trivially-empty comparison proves nothing"
    );
}

#[test]
fn select_chain_live_equals_batch_on_gap_heavy_data() {
    let shape = StreamShape::new(0, 2);
    let data = recorded(shape, 4_000, 11);
    assert_live_matches_batch(
        || {
            let q = Query::new();
            q.source("s", shape)
                .select(1, |i, o| o[0] = i[0] * 3.0 - 1.0)
                .unwrap()
                .where_(|v| v[0] > 10.0)
                .unwrap()
                .sink();
            q.compile().unwrap()
        },
        vec![data],
    );
}

#[test]
fn sliding_aggregate_live_equals_batch_on_gap_heavy_data() {
    // Stateful kernel: the ring buffer must behave identically when fed
    // round-by-round online.
    let shape = StreamShape::new(0, 2);
    let data = recorded(shape, 4_000, 23);
    assert_live_matches_batch(
        || {
            let q = Query::new();
            q.source("s", shape)
                .aggregate(AggKind::Mean, 40, 4)
                .unwrap()
                .sink();
            q.compile().unwrap()
        },
        vec![data],
    );
}

#[test]
fn shift_spill_live_equals_batch_on_gap_heavy_data() {
    // Shift pushes events into future rounds; the spill queue must drain
    // identically online.
    let shape = StreamShape::new(0, 1);
    let data = recorded(shape, 3_000, 37);
    assert_live_matches_batch(
        || {
            let q = Query::new();
            q.source("s", shape).shift(900).unwrap().sink();
            q.compile().unwrap()
        },
        vec![data],
    );
}

#[test]
fn two_source_join_live_equals_batch_on_gap_heavy_data() {
    let s_ecg = StreamShape::new(0, 2);
    let s_abp = StreamShape::new(0, 8);
    let ecg = recorded(s_ecg, 4_000, 5);
    let abp = recorded(s_abp, 1_000, 6);
    assert_live_matches_batch(
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
    );
}

/// The boundedness contract of the compacting live data plane: a session
/// polled while 100k+ samples stream through holds a buffer bounded by
/// round size + history margin + poll lag, never by stream length — and
/// since snapshots are `Arc` clones whose copy-on-write cost is the
/// retained length, bounded retention is bounded snapshot cost.
#[test]
fn long_session_retained_buffer_stays_bounded() {
    const TOTAL: i64 = 120_000;
    const ROUND: Tick = 500;
    const POLL_EVERY: i64 = 2_000;
    // A stateful pipeline with a real history margin: sliding mean over
    // a shifted stream.
    let q = Query::new();
    q.source("s", StreamShape::new(0, 1))
        .shift(300)
        .unwrap()
        .aggregate(AggKind::Mean, 50, 5)
        .unwrap()
        .sink();
    let mut s = LiveSession::new(q.compile().unwrap(), ROUND).unwrap();
    let margin = s.history_margin(0).unwrap();
    // Shift(300) composes with the sliding aggregate's window-50 lookback.
    assert_eq!(margin, 350);

    let mut emitted = 0usize;
    let mut max_retained = 0usize;
    for t in 0..TOTAL {
        s.push(0, t, (t % 611) as f32).unwrap();
        if (t + 1) % POLL_EVERY == 0 {
            s.poll(|w| emitted += w.present_count()).unwrap();
            max_retained = max_retained.max(s.retained_slots(0).unwrap());
        }
    }
    s.poll(|w| emitted += w.present_count()).unwrap();

    // Post-poll retention: the margin plus at most one unfinished round.
    let bound = (margin + 2 * ROUND) as usize;
    assert!(
        s.retained_slots(0).unwrap() <= bound,
        "retained {} > bound {bound}",
        s.retained_slots(0).unwrap()
    );
    // Across the whole run the buffer never exceeded margin + round +
    // poll lag — two orders of magnitude below the 120k-sample stream.
    let running_bound = (margin + 2 * ROUND + POLL_EVERY) as usize;
    assert!(
        max_retained <= running_bound,
        "max retained {max_retained} > bound {running_bound}"
    );
    assert!(max_retained * 20 < TOTAL as usize);
    assert!(emitted > 0, "the session must actually produce output");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deployment seamlessness, fuzzed: random single-source pipelines,
    /// gap patterns, and poll cadences — the compacting live session's
    /// per-sample replay must stay byte-identical to the batch run.
    #[test]
    fn random_pipelines_live_equal_batch(
        period in prop::sample::select(vec![1i64, 2, 4]),
        slots in 300usize..2500,
        seed in 0u64..u64::MAX / 2,
        gap_a in (0usize..2500, 1usize..400),
        gap_b in (0usize..2500, 1usize..400),
        poll_every in prop::sample::select(vec![23usize, 97, 401, 1861]),
        pipe in 0usize..4,
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
                _ => s.shift(13 * period).unwrap().sink(),
            }
            q.compile().unwrap()
        };

        let mut exec = build()
            .executor_with(
                vec![data.clone()],
                ExecOptions::default().with_round_ticks(ROUND),
            )
            .unwrap();
        let offline = exec.run_collect().unwrap();

        let mut session = LiveSession::new(build(), ROUND).unwrap();
        let mut online = OutputCollector::new(1);
        let mut pushed = 0usize;
        for (_, t, v) in data.present_samples().collect::<Vec<_>>() {
            session.push(0, t, v).unwrap();
            pushed += 1;
            if pushed.is_multiple_of(poll_every) {
                session.poll(|w| online.absorb(w)).unwrap();
            }
        }
        session.finish(|w| online.absorb(w)).unwrap();

        prop_assert_eq!(offline.len(), online.len());
        prop_assert_eq!(offline.checksum(), online.checksum());
    }
}

/// `splitmix64`: the run generator's only source of randomness.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `push_run` against its reference: any sequence of runs — clean
    /// appends, gaps, a wrong `dt`, off-grid starts, starts below the
    /// watermark (duplicates, and late samples that fill a hole) or below
    /// the compaction horizon, single samples, ticks at `i64::MIN` /
    /// `i64::MAX` — must leave the session exactly where the same samples
    /// through `push` leave it: same error strings in the same order, same
    /// retained slots and exported suffix after every run, same output.
    ///
    /// A third participant is a bare [`SessionBuffer`] — what the cluster
    /// router keeps per patient as its failover mirror — pushed sample by
    /// sample and advanced to its frontier where the sessions poll: its
    /// export must equal theirs (sources, base slots, watermarks, values,
    /// ranges, frontier) after every run, and it must refuse what they
    /// refuse.
    #[test]
    fn push_run_equals_per_sample_push(
        seed in 0u64..u64::MAX / 2,
        ops in 20usize..160,
        poll_every in prop::sample::select(vec![1usize, 3, 7, 1000]),
    ) {
        let shapes = [StreamShape::new(0, 2), StreamShape::new(0, 8)];
        let build = || {
            let q = Query::new();
            let a = q.source("ecg", shapes[0]);
            let b = q.source("abp", shapes[1]);
            a.aggregate(AggKind::Max, 80, 80)
                .unwrap()
                .join(b, JoinKind::Inner)
                .unwrap()
                .sink();
            q.compile().unwrap()
        };
        let mut by_run = LiveSession::new(build(), ROUND).unwrap();
        let mut by_sample = LiveSession::new(build(), ROUND).unwrap();
        let arity = by_run.sink_arity().unwrap();
        let (mut out_run, mut out_sample) = (OutputCollector::new(arity), OutputCollector::new(arity));
        let (mut err_run, mut err_sample, mut err_mirror) = (Vec::new(), Vec::new(), Vec::new());
        let margins = (0..2).map(|s| by_run.history_margin(s).unwrap()).collect();
        let mut mirror = SessionBuffer::new(&shapes, margins, by_run.round_dim()).unwrap();

        let mut rng = seed;
        // Where a well-behaved feed would append next, per source.
        let mut head = [0 as Tick; 2];
        let mut clean_runs = 0usize;
        for op in 0..ops {
            // One source index in eight is unknown to the query.
            let source = match mix(&mut rng) % 8 {
                7 => 2,
                r => (r % 2) as usize,
            };
            let known = source.min(1);
            let period = shapes[known].period();
            let n = 1 + (mix(&mut rng) % 40) as usize;
            let (t0, dt, n) = match mix(&mut rng) % 16 {
                // Clean appends, now and then after a gap, dominate —
                // they are what moves the watermark and the horizon.
                0..=6 => (head[known], period, n),
                7 => (head[known] + (1 + mix(&mut rng) % 300) as Tick * period, period, n),
                8 => (head[known], [2 * period, period + 1, 1, 0, -period][(mix(&mut rng) % 5) as usize], n.min(6)),
                9 => (head[known] + 1, period, n),
                10 => (head[known] - (1 + mix(&mut rng) % 60) as Tick * period, period, n),
                11 => ((mix(&mut rng) % 50) as Tick * period, period, n.min(4)),
                12 => (head[known], period, 1),
                13 => (Tick::MIN, [period, 1][(mix(&mut rng) % 2) as usize], n.min(3)),
                14 => (Tick::MAX, [period, 1][(mix(&mut rng) % 2) as usize], n.min(3)),
                _ => (head[known], 0, 1),
            };
            let values: Vec<f32> = (0..n).map(|_| (mix(&mut rng) % 997) as f32 / 7.0).collect();
            if source < 2 && dt == period && t0 >= head[known] && t0 % period == 0 {
                head[known] = t0 + n as Tick * period;
                clean_runs += 1;
            }

            by_run.push_run(source, t0, dt, &values, |e| err_run.push(e.to_string()));
            let mut t = t0;
            for &v in &values {
                if let Err(e) = by_sample.push(source, t, v) {
                    err_sample.push(e.to_string());
                }
                if let Err(e) = mirror.push(source, t, v) {
                    err_mirror.push(e.to_string());
                }
                t = t.wrapping_add(dt);
            }
            if op % poll_every == poll_every - 1 {
                by_run.poll(|w| out_run.absorb(w)).unwrap();
                by_sample.poll(|w| out_sample.absorb(w)).unwrap();
                mirror.advance_to(mirror.frontier(), None);
            }
            for s in 0..2 {
                prop_assert_eq!(by_run.retained_slots(s).unwrap(), by_sample.retained_slots(s).unwrap());
            }
            prop_assert_eq!(by_run.export_suffix(), by_sample.export_suffix());
            prop_assert_eq!(mirror.export_suffix(), by_run.export_suffix());
        }
        by_run.finish(|w| out_run.absorb(w)).unwrap();
        by_sample.finish(|w| out_sample.absorb(w)).unwrap();
        prop_assert_eq!(&err_run, &err_sample);
        prop_assert_eq!(err_mirror, err_sample);
        prop_assert_eq!(out_run.len(), out_sample.len());
        prop_assert_eq!(out_run.checksum(), out_sample.checksum());
        prop_assert!(clean_runs > 0, "the fast path must have been taken");
    }
}

#[test]
fn fig3_pipeline_live_equals_batch_on_gap_heavy_data() {
    // The full end-to-end application, including the stateful transform
    // closures (fill, resample, normalize) whose carried history must
    // survive incremental polling unchanged.
    let s_ecg = StreamShape::new(0, 2);
    let s_abp = StreamShape::new(0, 8);
    let ecg = recorded(s_ecg, 8_000, 41);
    let abp = recorded(s_abp, 2_000, 42);
    assert_live_matches_batch(
        || {
            lspipe::fig3_pipeline(s_ecg, s_abp, ROUND)
                .unwrap()
                .compile()
                .unwrap()
        },
        vec![ecg, abp],
    );
}

/// One period-2 source straight to the sink: no history margin.
fn passthrough() -> CompiledQuery {
    let q = Query::new();
    q.source("s", StreamShape::new(0, 2)).sink();
    q.compile().unwrap()
}

#[test]
fn far_future_push_is_refused_without_allocating() {
    // One tick far above the horizon used to `resize` the dense
    // buffer across the whole gap. It is a push error now, through
    // `push` and through a run alike, and changes nothing.
    let mut s = LiveSession::new(passthrough(), 100).unwrap();
    for k in 0..10 {
        s.push(0, k * 2, k as f32).unwrap();
    }
    let before = s.export_suffix();
    let first_refused = MAX_RETAINED_SLOTS as Tick * 2;
    for t in [first_refused, Tick::MAX / 4 * 2, Tick::MAX - 1] {
        let err = s.push(0, t, 1.0).unwrap_err().to_string();
        assert!(err.contains("too far ahead"), "t = {t}: {err}");
        assert!(err.contains("retained horizon 0"), "t = {t}: {err}");
    }
    let mut errs = Vec::new();
    s.push_run(0, first_refused, 2, &[1.0; 5], |e| errs.push(e.to_string()));
    assert_eq!(errs.len(), 5);
    assert!(errs.iter().all(|e| e.contains("too far ahead")), "{errs:?}");
    assert_eq!(s.export_suffix(), before);
    // The bound is on slots above the horizon, not on the tick: it
    // moves with the horizon.
    for k in 10..100 {
        s.push(0, k * 2, k as f32).unwrap();
    }
    s.poll(|_| {}).unwrap();
    assert_eq!(s.export_suffix().sources[0].base_slot, 100);
    let err = s.push(0, first_refused + 200, 1.0).unwrap_err().to_string();
    assert!(err.contains("retained horizon 200"), "{err}");
    assert_eq!(s.finish_collect().unwrap().len(), 0);
}

#[test]
fn import_validates_every_suffix_field() {
    // A snapshot off the wire is trusted for nothing: presence must
    // sit on the grid, at or above the suffix's base, inside its
    // values; the base itself must be a representable slot; and the
    // watermark, which the round frontier follows, may not lie off the
    // grid or above the values the suffix brought.
    let good = SourceSuffix {
        base_slot: 10,
        watermark: 30,
        values: vec![1.0; 5],
        ranges: vec![(20, 24), (26, 30)],
    };
    let import = |suffix: &SourceSuffix| {
        let snapshot = SessionSnapshot {
            next_round: 0,
            sources: vec![suffix.clone()],
        };
        LiveSession::import_suffix(passthrough(), 100, snapshot)
    };
    let rebuilt = import(&good).unwrap().export_suffix().sources.remove(0);
    assert_eq!((rebuilt.base_slot, rebuilt.watermark), (10, 30));
    assert_eq!(rebuilt.ranges, good.ranges);
    type Spoil = fn(&mut SourceSuffix);
    let hostile: [(&str, Spoil); 9] = [
        ("off the", |s| s.ranges[0] = (21, 25)),
        ("off the", |s| s.ranges[1].1 = 29),
        ("off the", |s| s.ranges[0].0 = Tick::MIN),
        ("is empty", |s| s.ranges[0] = (24, 20)),
        ("below the span base", |s| s.ranges[0].0 = 18),
        ("beyond the span's 5 values", |s| s.ranges[1].1 = 32),
        ("base slot", |s| s.base_slot = u64::MAX / 2),
        ("watermark", |s| s.watermark = Tick::MAX - 1),
        ("watermark", |s| s.watermark = 29),
    ];
    for (why, spoil) in hostile {
        let mut bad = good.clone();
        spoil(&mut bad);
        let err = import(&bad).unwrap_err().to_string();
        assert!(err.contains(why), "{why}: {err}");
    }
}

#[test]
fn overlay_copies_ranges_and_drops_what_is_retired() {
    let mut src = LiveSource::new(StreamShape::new(0, 2));
    // Two spans with a hole between them, then a later span that
    // rewrites part of the first: later spans win.
    src.overlay(0, &[1.0, 2.0, 3.0], &[(0, 6)]).unwrap();
    src.overlay(5, &[6.0, 0.0, 8.0], &[(10, 12), (14, 16)])
        .unwrap();
    src.overlay(1, &[-2.0], &[(2, 4)]).unwrap();
    let got = src.suffix();
    assert_eq!(got.values, [1.0, -2.0, 3.0, 0.0, 0.0, 6.0, 0.0, 8.0]);
    assert_eq!(got.ranges, [(0, 6), (10, 12), (14, 16)]);
    assert_eq!(got.watermark, 16);
    // Below the retained base a span is already retired: clipped,
    // not an error; the rest lands.
    src.retire_below(12, false);
    src.overlay(4, &[9.0, 9.5, 7.0, 7.5], &[(8, 16)]).unwrap();
    let got = src.suffix();
    assert_eq!(got.base_slot, 6);
    assert_eq!(got.values, [7.0, 7.5]);
    assert_eq!(got.ranges, [(12, 16)]);
    // The bound on what a push may open is not a bound on a history:
    // a buffer based near its data takes spans wherever they sit.
    let far = MAX_RETAINED_SLOTS as u64 * 2;
    let mut src = LiveSource::starting_at(StreamShape::new(0, 2), far).unwrap();
    src.overlay(
        far - 1,
        &[0.5, 1.5],
        &[(far as Tick * 2 - 2, far as Tick * 2 + 2)],
    )
    .unwrap();
    let got = src.suffix();
    assert_eq!((got.base_slot, got.values), (far, vec![1.5]));
    assert_eq!(got.ranges, [(far as Tick * 2, far as Tick * 2 + 2)]);
    assert!(LiveSource::starting_at(StreamShape::new(0, 2), u64::MAX / 2).is_err());
}
