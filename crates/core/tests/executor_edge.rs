//! Executor edge cases: offset streams, join flavours end-to-end,
//! multi-sink queries, chained reshapes, live-session multi-source
//! interleavings, and every operator refusal reaching the caller.

use lifestream_core::exec::ExecOptions;
use lifestream_core::live::LiveSession;
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::ops::join::JoinKind;
use lifestream_core::ops::where_shape::ShapeMode;
use lifestream_core::prelude::*;
use lifestream_core::query::CompiledQuery;

fn ramp(shape: StreamShape, n: usize) -> SignalData {
    SignalData::dense(shape, (0..n).map(|i| i as f32).collect())
}

/// One source of `shape` through `op` into a sink.
fn compile(shape: StreamShape, op: impl FnOnce(Stream<'_>) -> Stream<'_>) -> CompiledQuery {
    let q = Query::new();
    op(q.source("s", shape)).sink();
    q.compile().unwrap()
}

/// Sources `l` and `r` joined by `kind` into a sink.
fn joined(l: StreamShape, r: StreamShape, kind: JoinKind) -> CompiledQuery {
    let q = Query::new();
    let (a, b) = (q.source("l", l), q.source("r", r));
    a.join(b, kind).unwrap().sink();
    q.compile().unwrap()
}

#[test]
fn offset_stream_executes_correctly() {
    // Events at 500, 502, 504, ... — far from the round grid's origin.
    let shape = StreamShape::new(500, 2);
    let data = ramp(shape, 100);
    let out = compile(shape, |s| s.map(|v| v + 0.5).unwrap())
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
    let out = joined(s, s, JoinKind::Left)
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
    let stats = joined(s, s, JoinKind::Outer)
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
    let q = Query::new();
    let src = q.source("s", s);
    src.map(|v| v).unwrap().sink();
    src.where_(|v| v[0] >= 25.0).unwrap().sink();
    let compiled = q.compile().unwrap();
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
    let out = compile(s, |s| s.shift(8).unwrap().alter_period(4).unwrap())
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
    let out = compile(s, |s| {
        let m1 = s.aggregate(AggKind::Mean, 10, 10).unwrap();
        m1.aggregate(AggKind::Mean, 100, 100).unwrap()
    })
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
    let mut session = LiveSession::new(joined(s1, s2, JoinKind::Inner), 50).unwrap();
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
    let out = compile(s, |s| {
        let evens = s.where_(|v| (v[0] as i64) % 2 == 0).unwrap();
        evens.aggregate(AggKind::Sum, 10, 10).unwrap()
    })
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
    let mut exec = compile(s, |s| s)
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
    let mut exec = compile(s, |s| s)
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
    let q = Query::new();
    let a = q.source("ecg", StreamShape::new(0, 2));
    let b = q.source("abp", StreamShape::new(0, 8));
    a.join(b, JoinKind::Inner).unwrap().sink();
    q.compile()
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
    let build = || compile(shape, |s| s.aggregate(AggKind::Mean, 20, 2).unwrap());
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

// ---------------------------------------------------------------------
// operator refusals: each parameter check reaches the caller as an Error
// ---------------------------------------------------------------------

type RefusedOp = fn(Stream<'_>) -> Result<Stream<'_>>;

fn refused(message: &str) -> Error {
    Error::InvalidParameter {
        message: message.into(),
    }
}

#[test]
fn every_operator_refusal_reaches_the_caller() {
    // A single-field operator on a 2-field stream.
    let two_fields = Error::ArityMismatch {
        expected: 1,
        actual: 2,
    };
    // Each case reads a period-2 source; the `two_fields` cases first
    // widen it to two fields with a `select`.
    let cases: Vec<(&str, RefusedOp, Error)> = vec![
        (
            "select arity 0",
            |s| s.select(0, |_, _| {}),
            refused("select out_arity 0 out of range"),
        ),
        (
            "select arity 9",
            |s| s.select(9, |_, _| {}),
            refused("select out_arity 9 out of range"),
        ),
        (
            "aggregate window 0",
            |s| s.aggregate(AggKind::Mean, 0, 2),
            refused("aggregate window 0 / stride 2 invalid"),
        ),
        (
            "aggregate off the period",
            |s| s.aggregate(AggKind::Mean, 5, 5),
            refused("aggregate window 5 and stride 5 must be multiples of the input period 2"),
        ),
        (
            "aggregate window below stride",
            |s| s.aggregate(AggKind::Mean, 4, 8),
            refused("aggregate window 4 / stride 8 invalid"),
        ),
        (
            "chop 0",
            |s| s.chop(0),
            refused("chop boundary 0 must be positive"),
        ),
        (
            "shift -1",
            |s| s.shift(-1),
            refused("shift delta -1 must be non-negative"),
        ),
        (
            "alter_period 0",
            |s| s.alter_period(0),
            refused("alter_period 0 must be positive"),
        ),
        (
            "alter_duration 0",
            |s| s.alter_duration(0),
            refused("alter_duration 0 must be positive"),
        ),
        (
            "transform off the grid",
            |s| s.transform(3, |_| {}),
            refused("transform window 3 must be a positive multiple of period 2"),
        ),
        (
            "pass_filter no taps",
            |s| s.pass_filter(vec![]),
            refused("pass_filter taps must be non-empty"),
        ),
        (
            "where_shape no pattern",
            |s| s.where_shape(vec![], 4, 1.0, true, ShapeMode::Keep),
            refused("shape pattern must be non-empty"),
        ),
        (
            "aggregate on two fields",
            |s| s.aggregate(AggKind::Mean, 4, 4),
            two_fields.clone(),
        ),
        (
            "transform on two fields",
            |s| s.transform(4, |_| {}),
            two_fields.clone(),
        ),
        (
            "pass_filter on two fields",
            |s| s.pass_filter(vec![1.0]),
            two_fields.clone(),
        ),
        (
            "where_shape on two fields",
            |s| s.where_shape(vec![0.0; 4], 4, 1.0, true, ShapeMode::Keep),
            two_fields.clone(),
        ),
        (
            "join_map arity 9",
            |s| s.join_map(s, JoinKind::Inner, 9, |_, _, _| {}),
            refused("join out_arity 9 out of range"),
        ),
        (
            "clip_join arity 10",
            |s| {
                let wide = s.select(5, |i, o| o.fill(i[0]))?;
                wide.clip_join(wide)
            },
            refused("clip_join arity 10 exceeds 8"),
        ),
    ];
    for (name, op, want) in cases {
        let q = Query::new();
        let src = q.source("s", StreamShape::new(0, 2));
        let input = if want == two_fields {
            src.select(2, |i, o| o.fill(i[0])).unwrap()
        } else {
            src
        };
        assert_eq!(op(input).unwrap_err(), want, "{name}");
    }
}
