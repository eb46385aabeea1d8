//! Equivalence tests: alternative spellings of one query on the fluent
//! [`Stream`] surface must produce identical `run_collect` output.
//!
//! `multicast` returns two aliases of its input, so it must be
//! indistinguishable from reusing the `Copy` stream value; `map` is
//! single-field `select` sugar, and `join_map` is `join` followed by a
//! projection.

use lifestream_core::ops::where_shape::ShapeMode;
use lifestream_core::prelude::*;
use lifestream_core::query::CompiledQuery;

/// The paper's Listing 1, forked with `multicast`.
fn listing1_multicast() -> CompiledQuery {
    let q = Query::new();
    let sig500 = q.source("sig500", StreamShape::new(0, 2));
    let sig200 = q.source("sig200", StreamShape::new(0, 5));
    let (a, b) = sig500.multicast();
    a.aggregate(AggKind::Mean, 100, 100)
        .unwrap()
        .join_map(b, JoinKind::Inner, 1, |m, v, o| o[0] = v[0] - m[0])
        .unwrap()
        .join(sig200, JoinKind::Inner)
        .unwrap()
        .sink();
    q.compile().unwrap()
}

/// The same query reusing the source stream value, with the adjustment
/// written as a plain join and a projection.
fn listing1_reused() -> CompiledQuery {
    let q = Query::new();
    let sig500 = q.source("sig500", StreamShape::new(0, 2));
    let sig200 = q.source("sig200", StreamShape::new(0, 5));
    sig500
        .aggregate(AggKind::Mean, 100, 100)
        .unwrap()
        .join(sig500, JoinKind::Inner)
        .unwrap()
        .select(1, |v, o| o[0] = v[1] - v[0])
        .unwrap()
        .join(sig200, JoinKind::Inner)
        .unwrap()
        .sink();
    q.compile().unwrap()
}

fn listing1_inputs() -> Vec<SignalData> {
    vec![
        SignalData::dense(
            StreamShape::new(0, 2),
            (0..5_000).map(|i| (i % 313) as f32).collect(),
        ),
        SignalData::dense(
            StreamShape::new(0, 5),
            (0..2_000).map(|i| (i % 71) as f32).collect(),
        ),
    ]
}

/// A `where_shape`-bearing pipeline: DTW-filter a ramp pattern, then
/// rescale survivors.
fn shape_pattern() -> Vec<f32> {
    (0..16).map(|i| i as f32).collect()
}

fn where_shape_map() -> CompiledQuery {
    let q = Query::new();
    q.source("abp", StreamShape::new(0, 8))
        .where_shape(shape_pattern(), 4, 3.0, true, ShapeMode::Keep)
        .unwrap()
        .map(|v| v * 0.5)
        .unwrap()
        .sink();
    q.compile().unwrap()
}

fn where_shape_select() -> CompiledQuery {
    let q = Query::new();
    q.source("abp", StreamShape::new(0, 8))
        .where_shape(shape_pattern(), 4, 3.0, true, ShapeMode::Keep)
        .unwrap()
        .select(1, |i, o| o[0] = i[0] * 0.5)
        .unwrap()
        .sink();
    q.compile().unwrap()
}

fn where_shape_inputs() -> Vec<SignalData> {
    vec![SignalData::dense(
        StreamShape::new(0, 8),
        (0..4_000)
            .map(|i| ((i % 97) as f32 * 0.4).sin() * 20.0 + (i % 29) as f32)
            .collect(),
    )]
}

fn collect(c: CompiledQuery, inputs: Vec<SignalData>) -> (Vec<Tick>, Vec<Vec<f32>>) {
    let mut exec = c.executor(inputs).unwrap();
    let out = exec.run_collect().unwrap();
    let values = (0..out.arity()).map(|f| out.values(f).to_vec()).collect();
    (out.times(), values)
}

#[test]
fn listing1_outputs_are_identical() {
    let m = listing1_multicast();
    let r = listing1_reused();
    assert_eq!(m.global_dim(), 100, "Fig. 6's traced dimension");
    assert_eq!(m.global_dim(), r.global_dim());
    let (mt, mv) = collect(m, listing1_inputs());
    let (rt, rv) = collect(r, listing1_inputs());
    assert!(!mt.is_empty());
    assert_eq!(mt, rt);
    assert_eq!(mv, rv);
}

#[test]
fn where_shape_outputs_are_identical() {
    let m = where_shape_map();
    let s = where_shape_select();
    assert_eq!(m.graph().render(), s.graph().render());
    let (mt, mv) = collect(m, where_shape_inputs());
    let (st, sv) = collect(s, where_shape_inputs());
    assert!(!mt.is_empty(), "DTW filter kept nothing; test is vacuous");
    assert_eq!(mt, st);
    assert_eq!(mv, sv);
}
