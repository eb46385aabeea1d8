//! Executor edge cases: offset streams, join flavours end-to-end,
//! multi-sink queries, chained reshapes, and live-session multi-source
//! interleavings.

use lifestream_core::exec::ExecOptions;
use lifestream_core::live::LiveSession;
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::ops::join::JoinKind;
use lifestream_core::prelude::*;

fn ramp(shape: StreamShape, n: usize) -> SignalData {
    SignalData::dense(shape, (0..n).map(|i| i as f32).collect())
}

#[test]
fn offset_stream_executes_correctly() {
    // Events at 500, 502, 504, ... — far from the round grid's origin.
    let shape = StreamShape::new(500, 2);
    let data = ramp(shape, 100);
    let mut qb = QueryBuilder::new();
    let src = qb.source("s", shape);
    let sel = qb.select_map(src, |v| v + 0.5);
    qb.sink(sel);
    let out = qb
        .compile()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(64))
        .unwrap()
        .run_collect()
        .unwrap();
    assert_eq!(out.len(), 100);
    assert_eq!(out.times()[0], 500);
    assert_eq!(out.values(0)[0], 0.5);
}

#[test]
fn left_join_emits_all_left_events() {
    let s = StreamShape::new(0, 1);
    let left = ramp(s, 100);
    let mut right = ramp(s, 100);
    right.punch_gap(20, 80);
    let mut qb = QueryBuilder::new();
    let l = qb.source("l", s);
    let r = qb.source("r", s);
    let j = qb.join(l, r, JoinKind::Left).unwrap();
    qb.sink(j);
    let out = qb
        .compile()
        .unwrap()
        .executor(vec![left, right])
        .unwrap()
        .run_collect()
        .unwrap();
    assert_eq!(out.len(), 100);
    // Right side NaN inside the gap.
    let idx30 = out.iter_times().position(|t| t == 30).unwrap();
    assert!(out.values(1)[idx30].is_nan());
    assert!(!out.values(1)[5].is_nan());
}

#[test]
fn outer_join_covers_union() {
    let s = StreamShape::new(0, 1);
    let mut left = ramp(s, 100);
    let mut right = ramp(s, 100);
    left.punch_gap(0, 50);
    right.punch_gap(50, 100);
    let mut qb = QueryBuilder::new();
    let l = qb.source("l", s);
    let r = qb.source("r", s);
    let j = qb.join(l, r, JoinKind::Outer).unwrap();
    qb.sink(j);
    let stats = qb
        .compile()
        .unwrap()
        .executor(vec![left, right])
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(stats.output_events, 100); // union covers everything
}

#[test]
fn multi_sink_query_counts_both_outputs() {
    let s = StreamShape::new(0, 2);
    let data = ramp(s, 50);
    let mut qb = QueryBuilder::new();
    let src = qb.source("s", s);
    let a = qb.select_map(src, |v| v);
    let b = qb.where_(src, |v| v[0] >= 25.0).unwrap();
    qb.sink(a);
    qb.sink(b);
    let compiled = qb.compile().unwrap();
    let mut exec = compiled.executor(vec![data]).unwrap();
    // run_collect rejects multi-sink; run_with sees both.
    assert!(exec.run_collect().is_err());
}

#[test]
fn chained_reshapes_compose() {
    // shift -> alter_period -> fill (via transform): a resample-to-denser
    // grid after a timing alignment.
    let s = StreamShape::new(0, 8);
    let data = ramp(s, 50);
    let mut qb = QueryBuilder::new();
    let src = qb.source("s", s);
    let sh = qb.shift(src, 8).unwrap();
    let up = qb.alter_period(sh, 4).unwrap();
    qb.sink(up);
    let out = qb
        .compile()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(80))
        .unwrap()
        .run_collect()
        .unwrap();
    // 50 events survive (shifted by 8, on the finer grid every other slot).
    assert_eq!(out.len(), 50);
    assert_eq!(out.times()[0], 8);
    assert_eq!(out.times()[1], 16);
}

#[test]
fn aggregate_chain_mean_of_means() {
    let s = StreamShape::new(0, 1);
    let data = ramp(s, 1000);
    let mut qb = QueryBuilder::new();
    let src = qb.source("s", s);
    let m1 = qb.aggregate(src, AggKind::Mean, 10, 10).unwrap();
    let m2 = qb.aggregate(m1, AggKind::Mean, 100, 100).unwrap();
    qb.sink(m2);
    let out = qb
        .compile()
        .unwrap()
        .executor(vec![data])
        .unwrap()
        .run_collect()
        .unwrap();
    assert_eq!(out.len(), 10);
    // Mean of means over uniform windows = global window mean.
    assert!((out.values(0)[0] - 49.5).abs() < 1e-3);
    assert!((out.values(0)[9] - 949.5).abs() < 1e-2);
}

#[test]
fn live_session_two_sources_wait_for_slowest() {
    let s1 = StreamShape::new(0, 1);
    let s2 = StreamShape::new(0, 2);
    let mut qb = QueryBuilder::new();
    let a = qb.source("a", s1);
    let b = qb.source("b", s2);
    let j = qb.join(a, b, JoinKind::Inner).unwrap();
    qb.sink(j);
    let mut session = LiveSession::new(qb.compile().unwrap(), 50).unwrap();
    // Source 0 races ahead; source 1 lags.
    for t in 0..200 {
        session.push(0, t, t as f32).unwrap();
    }
    let mut n = 0usize;
    session.poll(|w| n += w.present_count()).unwrap();
    assert_eq!(n, 0, "no output until the lagging source catches up");
    for t in (0..200).step_by(2) {
        session.push(1, t, t as f32).unwrap();
    }
    session.poll(|w| n += w.present_count()).unwrap();
    assert!(n >= 150, "joined output after both sides arrive: {n}");
    session.finish(|w| n += w.present_count()).unwrap();
    assert_eq!(n, 200);
}

#[test]
fn where_then_aggregate_sees_filtered_events_only() {
    let s = StreamShape::new(0, 1);
    let data = ramp(s, 100);
    let mut qb = QueryBuilder::new();
    let src = qb.source("s", s);
    let evens = qb.where_(src, |v| (v[0] as i64) % 2 == 0).unwrap();
    let sum = qb.aggregate(evens, AggKind::Sum, 10, 10).unwrap();
    qb.sink(sum);
    let out = qb
        .compile()
        .unwrap()
        .executor(vec![data])
        .unwrap()
        .run_collect()
        .unwrap();
    assert_eq!(out.len(), 10);
    assert_eq!(out.values(0)[0], 0.0 + 2.0 + 4.0 + 6.0 + 8.0);
}

#[test]
fn round_larger_than_dataset_runs_once() {
    let s = StreamShape::new(0, 2);
    let data = ramp(s, 10);
    let mut qb = QueryBuilder::new();
    let src = qb.source("s", s);
    qb.sink(src);
    let mut exec = qb
        .compile()
        .unwrap()
        .executor_with(
            vec![data],
            ExecOptions::default().with_round_ticks(1_000_000),
        )
        .unwrap();
    let stats = exec.run().unwrap();
    assert_eq!(stats.output_events, 10);
    assert!(stats.windows_executed <= 2);
}

#[test]
fn stats_skip_plus_exec_covers_span() {
    let s = StreamShape::new(0, 1);
    let mut data = ramp(s, 10_000);
    data.punch_gap(2_000, 8_000);
    let mut qb = QueryBuilder::new();
    let src = qb.source("s", s);
    qb.sink(src);
    let mut exec = qb
        .compile()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(500))
        .unwrap();
    let stats = exec.run().unwrap();
    // 10_000 span / 500 round = 20 rounds + 1 drain round.
    assert!(stats.windows_executed + stats.windows_skipped >= 20);
    assert!(stats.windows_skipped >= 10);
    assert_eq!(stats.output_events, 4_000);
}

// ---------------------------------------------------------------------
// replace_sources / recycle misuse: descriptive errors, never panics
// ---------------------------------------------------------------------

fn two_source_executor() -> lifestream_core::exec::Executor {
    let mut qb = QueryBuilder::new();
    let a = qb.source("ecg", StreamShape::new(0, 2));
    let b = qb.source("abp", StreamShape::new(0, 8));
    let j = qb.join(a, b, JoinKind::Inner).unwrap();
    qb.sink(j);
    qb.compile()
        .unwrap()
        .executor(vec![
            ramp(StreamShape::new(0, 2), 400),
            ramp(StreamShape::new(0, 8), 100),
        ])
        .unwrap()
}

#[test]
fn replace_sources_wrong_count_is_a_descriptive_error() {
    let mut exec = two_source_executor();
    let err = exec
        .replace_sources(vec![ramp(StreamShape::new(0, 2), 400)])
        .unwrap_err();
    assert!(matches!(
        err,
        Error::SourceCountMismatch {
            expected: 2,
            actual: 1
        }
    ));
    // Regression lock on the rendered message.
    assert_eq!(
        err.to_string(),
        "query declares 2 sources but 1 datasets were supplied"
    );
    // The executor is untouched and still runs.
    assert!(exec.run().is_ok());
}

#[test]
fn replace_sources_wrong_shape_names_the_offending_source() {
    let mut exec = two_source_executor();
    let err = exec
        .replace_sources(vec![
            ramp(StreamShape::new(0, 2), 400),
            ramp(StreamShape::new(0, 4), 200), // abp declared (0, 8)
        ])
        .unwrap_err();
    match &err {
        Error::SourceShapeMismatch { name, .. } => assert_eq!(name, "abp"),
        other => panic!("expected shape mismatch, got {other:?}"),
    }
    // Regression lock on the rendered message: it must carry the real
    // source name and both shapes, not a generic placeholder.
    assert_eq!(
        err.to_string(),
        "source 'abp' declared (0, 8) but dataset has (0, 4)"
    );
    assert!(exec.run().is_ok(), "failed replace must not poison");
}

#[test]
fn recycle_resets_state_and_recomputes_span() {
    // A recycled executor must behave exactly like a fresh one, even when
    // the new dataset covers a different time span than the old one.
    let shape = StreamShape::new(0, 2);
    let build = || {
        let mut qb = QueryBuilder::new();
        let src = qb.source("s", shape);
        let agg = qb.aggregate(src, AggKind::Mean, 20, 2).unwrap();
        qb.sink(agg);
        qb.compile().unwrap()
    };
    let long = ramp(shape, 2_000);
    let mut short = ramp(shape, 600);
    short.punch_gap(100, 400);

    let mut pooled = build().executor(vec![long]).unwrap();
    pooled.run_collect().unwrap();
    pooled.recycle(vec![short.clone()]).unwrap();
    let warm = pooled.run_collect().unwrap();

    let fresh = build()
        .executor(vec![short])
        .unwrap()
        .run_collect()
        .unwrap();
    assert_eq!(warm.len(), fresh.len());
    assert_eq!(warm.checksum(), fresh.checksum());
}

#[test]
fn recycle_failure_leaves_executor_reusable() {
    let mut exec = two_source_executor();
    assert!(exec.recycle(vec![]).is_err());
    let ok = exec.recycle(vec![
        ramp(StreamShape::new(0, 2), 100),
        ramp(StreamShape::new(0, 8), 25),
    ]);
    assert!(ok.is_ok());
    assert!(exec.run().is_ok());
}
