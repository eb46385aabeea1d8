//! Equivalence tests: the fluent [`Stream`] surface drives the raw
//! [`QueryBuilder`] one-to-one, so both forms of the same query must
//! compile to identical plan graphs, trace to the same `global_dim`,
//! and produce identical `run_collect` output.

use lifestream_core::ops::where_shape::ShapeMode;
use lifestream_core::prelude::*;
use lifestream_core::query::CompiledQuery;

/// The paper's Listing 1 written against the low-level plan layer.
fn listing1_builder() -> CompiledQuery {
    let mut qb = QueryBuilder::new();
    let sig500 = qb.source("sig500", StreamShape::new(0, 2));
    let sig200 = qb.source("sig200", StreamShape::new(0, 5));
    let (a, b) = qb.multicast(sig500);
    let mean = qb.aggregate(a, AggKind::Mean, 100, 100).unwrap();
    let sub = qb
        .join_map(mean, b, JoinKind::Inner, 1, |m, v, o| o[0] = v[0] - m[0])
        .unwrap();
    let joined = qb.join(sub, sig200, JoinKind::Inner).unwrap();
    qb.sink(joined);
    qb.compile().unwrap()
}

/// The same query as one fluent chain.
fn listing1_fluent() -> CompiledQuery {
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

/// A `where_shape`-bearing pipeline in both styles: DTW-filter a ramp
/// pattern, then rescale survivors.
fn shape_pattern() -> Vec<f32> {
    (0..16).map(|i| i as f32).collect()
}

fn where_shape_builder() -> CompiledQuery {
    let mut qb = QueryBuilder::new();
    let src = qb.source("abp", StreamShape::new(0, 8));
    let kept = qb
        .where_shape(src, shape_pattern(), 4, 3.0, true, ShapeMode::Keep)
        .unwrap();
    let scaled = qb.select_map(kept, |v| v * 0.5);
    qb.sink(scaled);
    qb.compile().unwrap()
}

fn where_shape_fluent() -> CompiledQuery {
    let q = Query::new();
    q.source("abp", StreamShape::new(0, 8))
        .where_shape(shape_pattern(), 4, 3.0, true, ShapeMode::Keep)
        .unwrap()
        .map(|v| v * 0.5)
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
fn listing1_graphs_are_identical() {
    let b = listing1_builder();
    let f = listing1_fluent();
    assert_eq!(b.graph().render(), f.graph().render());
    assert_eq!(b.graph().len(), f.graph().len());
    assert_eq!(b.global_dim(), f.global_dim());
    assert_eq!(b.global_dim(), 100, "Fig. 6's traced dimension");
}

#[test]
fn listing1_outputs_are_identical() {
    let (bt, bv) = collect(listing1_builder(), listing1_inputs());
    let (ft, fv) = collect(listing1_fluent(), listing1_inputs());
    assert!(!bt.is_empty());
    assert_eq!(bt, ft);
    assert_eq!(bv, fv);
}

#[test]
fn where_shape_graphs_are_identical() {
    let b = where_shape_builder();
    let f = where_shape_fluent();
    assert_eq!(b.graph().render(), f.graph().render());
    assert_eq!(b.global_dim(), f.global_dim());
}

#[test]
fn where_shape_outputs_are_identical() {
    let (bt, bv) = collect(where_shape_builder(), where_shape_inputs());
    let (ft, fv) = collect(where_shape_fluent(), where_shape_inputs());
    assert!(!bt.is_empty(), "DTW filter kept nothing; test is vacuous");
    assert_eq!(bt, ft);
    assert_eq!(bv, fv);
}
