//! Fusion equivalence battery (the fused-execution contract).
//!
//! Operator fusion ([`lifestream_core::fuse`]) is a pure execution-plan
//! rewrite: a fused chain must produce output *byte-identical* to the
//! staged plan — same times, same durations, same f32 bit patterns —
//! on every input, gaps included. These tests pin that contract with
//! randomized fusible chains over gap-heavy data (including Fig.-3-style
//! long-dropout patterns), plus regression tests that re-gridding
//! operators (tumbling aggregates, `alter_period`) break fusion groups
//! instead of being silently mis-fused. Sliding aggregates — one flat fold
//! behind the staged kernel and the fused stage — are also held, both
//! ways, to a naive `(t − w, t]` reference.

use lifestream_core::exec::{ExecOptions, Executor, OutputCollector};
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::ops::transform::TransformCtx;
use lifestream_core::source::SignalData;
use lifestream_core::stream::{Query, Stream};
use lifestream_core::time::{StreamShape, Tick};
use proptest::prelude::*;

const ROUND: Tick = 256;

/// One fusible unit-scale stage, chosen by the proptest strategy.
#[derive(Debug, Clone)]
enum Stage {
    Select { mul: f32, add: f32 },
    WhereGt { threshold: f32 },
    Normalize { window_slots: usize },
    Fir { taps: Vec<f32> },
    Sliding { kind: AggKind, window_slots: usize },
}

impl Stage {
    fn apply<'q>(&self, s: Stream<'q>) -> Stream<'q> {
        let period = s.shape().period();
        match self.clone() {
            Stage::Select { mul, add } => s.map(move |v| v * mul + add).unwrap(),
            Stage::WhereGt { threshold } => s.where_(move |v| v[0] > threshold).unwrap(),
            Stage::Normalize { window_slots } => s
                .transform(window_slots as Tick * period, normalize_closure())
                .unwrap(),
            Stage::Fir { taps } => s.pass_filter(taps).unwrap(),
            Stage::Sliding { kind, window_slots } => s
                .aggregate(kind, window_slots as Tick * period, period)
                .unwrap(),
        }
    }
}

/// A standard-score normalization over each sub-window — a stateless
/// windowed transform, so fused and staged runs share no hidden state.
fn normalize_closure() -> impl FnMut(TransformCtx<'_>) + Send + 'static {
    |ctx: TransformCtx<'_>| {
        let mut sum = 0.0f32;
        let mut n = 0u32;
        for (i, &p) in ctx.present.iter().enumerate() {
            if p {
                sum += ctx.input[i];
                n += 1;
            }
        }
        if n == 0 {
            return;
        }
        let mean = sum / n as f32;
        let mut var = 0.0f32;
        for (i, &p) in ctx.present.iter().enumerate() {
            if p {
                let d = ctx.input[i] - mean;
                var += d * d;
            }
        }
        let sd = (var / n as f32).sqrt().max(1e-6);
        for (i, &p) in ctx.present.iter().enumerate() {
            if p {
                ctx.output[i] = (ctx.input[i] - mean) / sd;
                ctx.out_present[i] = true;
            }
        }
    }
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (-4.0f32..4.0, -10.0f32..10.0).prop_map(|(mul, add)| Stage::Select { mul, add }),
        (-50.0f32..800.0).prop_map(|threshold| Stage::WhereGt { threshold }),
        (4usize..40).prop_map(|window_slots| Stage::Normalize { window_slots }),
        prop::collection::vec(-1.0f32..1.0, 1..6).prop_map(|taps| Stage::Fir { taps }),
        (
            prop::sample::select(vec![
                AggKind::Mean,
                AggKind::Min,
                AggKind::Max,
                AggKind::Sum,
                AggKind::Count,
                AggKind::Std
            ]),
            2usize..32
        )
            .prop_map(|(kind, window_slots)| Stage::Sliding { kind, window_slots }),
    ]
}

/// A gap-riddled waveform: deterministic pseudo-random payloads with a
/// Fig.-3-style long dropout plus scattered short ones.
fn gappy(shape: StreamShape, slots: usize, seed: u64, gaps: &[(usize, usize)]) -> SignalData {
    let vals: Vec<f32> = (0..slots)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(seed);
            ((x >> 40) % 997) as f32 / 3.0 - 80.0
        })
        .collect();
    let mut data = SignalData::dense(shape, vals);
    let p = shape.period();
    // The long Fig.-3-style dropout (a detached-sensor stretch spanning
    // several rounds) plus whatever the strategy generated.
    data.punch_gap(slots as Tick / 3 * p, (slots as Tick / 3 + 600) * p);
    for &(s, l) in gaps {
        let s = (s % slots) as Tick * p;
        data.punch_gap(s, s + l as Tick * p);
    }
    data
}

fn run_chain(
    stages: &[Stage],
    data: &SignalData,
    opts: ExecOptions,
) -> (Executor, OutputCollector) {
    let q = Query::new();
    let mut s = q.source("s", data.shape());
    for st in stages {
        s = st.apply(s);
    }
    s.sink();
    let mut exec = q
        .compile()
        .unwrap()
        .executor_with(vec![data.clone()], opts)
        .unwrap();
    let out = exec.run_collect().unwrap();
    (exec, out)
}

/// Byte-identity: times, durations, and f32 *bit patterns* must all match.
fn assert_identical(fused: &OutputCollector, staged: &OutputCollector, ctx: &str) {
    assert_eq!(fused.len(), staged.len(), "{ctx}: event count");
    assert_eq!(fused.times(), staged.times(), "{ctx}: times");
    assert_eq!(fused.durations(), staged.durations(), "{ctx}: durations");
    for f in 0..fused.arity() {
        let (a, b) = (fused.values(f), staged.values(f));
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: field {f} slot {i} differs bitwise ({x} vs {y})"
            );
        }
    }
    assert_eq!(fused.checksum(), staged.checksum(), "{ctx}: checksum");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fusible chains × gap-heavy data: the fused plan's output is
    /// byte-identical to staged execution.
    #[test]
    fn fused_matches_staged_bitwise(
        stages in prop::collection::vec(stage_strategy(), 2..6),
        period in prop::sample::select(vec![1i64, 2, 4]),
        slots in 2_000usize..6_000,
        seed in 0u64..u64::MAX / 2,
        gaps in prop::collection::vec((0usize..6_000, 1usize..300), 0..4),
    ) {
        let shape = StreamShape::new(0, period);
        let data = gappy(shape, slots, seed, &gaps);
        let (fused_exec, fused) =
            run_chain(&stages, &data, ExecOptions::default().with_round_ticks(ROUND));
        let (staged_exec, staged) = run_chain(
            &stages,
            &data,
            ExecOptions::default().with_round_ticks(ROUND).without_fusion(),
        );
        prop_assert_eq!(
            fused_exec.fusion_groups().len(),
            1,
            "a pure unit-scale chain must fuse into one group"
        );
        prop_assert!(staged_exec.fusion_groups().is_empty());
        // The fused plan must also be strictly smaller: every interior
        // window is gone from the footprint.
        prop_assert!(fused_exec.planned_bytes() < staged_exec.planned_bytes());
        assert_identical(&fused, &staged, &format!("{stages:?}"));
    }
}

/// Deterministic spot-check kept outside proptest so a plain `cargo test`
/// run always exercises the full op vocabulary in one chain.
#[test]
fn full_vocabulary_chain_is_bit_identical() {
    let stages = [
        Stage::Select {
            mul: 1.75,
            add: -3.0,
        },
        Stage::Normalize { window_slots: 25 },
        Stage::Fir {
            taps: vec![0.25, 0.5, 0.25],
        },
        Stage::Sliding {
            kind: AggKind::Mean,
            window_slots: 8,
        },
        Stage::WhereGt { threshold: -0.5 },
    ];
    let shape = StreamShape::new(0, 2);
    let data = gappy(shape, 12_000, 42, &[(500, 37), (7_000, 3), (9_999, 210)]);
    let (fused_exec, fused) = run_chain(
        &stages,
        &data,
        ExecOptions::default().with_round_ticks(ROUND),
    );
    let (_, staged) = run_chain(
        &stages,
        &data,
        ExecOptions::default()
            .with_round_ticks(ROUND)
            .without_fusion(),
    );
    assert_eq!(fused_exec.fusion_groups().len(), 1);
    assert_eq!(fused_exec.fusion_groups()[0].members.len(), 5);
    assert!(!fused.is_empty(), "empty output proves nothing");
    assert_identical(&fused, &staged, "full vocabulary chain");
}

/// The select ahead of every sliding aggregate of the battery below (so
/// that the `stride == period` chains have two members and fuse).
fn pre_select(v: f32) -> f32 {
    v * 0.5 + 1.0
}

/// Every present `(time, pre-selected value)` of `data` in `(t - w, t]`,
/// oldest first — what a trailing window is defined to hold.
fn trailing_window(data: &SignalData, t: Tick, w: Tick) -> Vec<f32> {
    let p = data.shape().period();
    (1..=w / p)
        .map(|i| t - w + i * p)
        .filter_map(|ti| data.value_at(ti))
        .map(pre_select)
        .collect()
}

/// `AggKind::fold`'s contract written out naively: `f64` sums taken oldest
/// first, the extremes by `f32::max` / `f32::min` from ∓∞.
fn naive_aggregate(kind: AggKind, items: &[f32]) -> Option<f32> {
    let n = items.len() as f64;
    let sum = items.iter().fold(0.0f64, |s, &v| s + v as f64);
    let sumsq = items.iter().fold(0.0f64, |s, &v| s + v as f64 * v as f64);
    (!items.is_empty()).then(|| match kind {
        AggKind::Sum => sum as f32,
        AggKind::Count => n as f32,
        AggKind::Mean => (sum / n) as f32,
        AggKind::Std => (sumsq / n - (sum / n) * (sum / n)).max(0.0).sqrt() as f32,
        AggKind::Max => items.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)),
        AggKind::Min => items.iter().fold(f32::INFINITY, |m, &v| m.min(v)),
    })
}

/// All six kinds × stride = period and 4·period × windows shorter than,
/// as long as and longer than the round, staged and fused, over gaps that
/// start and end inside the carried slots, a gap long enough that rounds
/// are skipped, and a recycled executor (a reset between two datasets):
/// every output equals the naive reference bit for bit.
#[test]
fn sliding_aggregates_match_a_naive_trailing_window_reference() {
    const P: Tick = 2;
    const SLIDING_ROUND: Tick = 64; // 32 input slots
    let shape = StreamShape::new(0, P);
    // Gaps in slots, on top of `gappy`'s 600-slot dropout that no window
    // spans: one that starts in the last slots of round 2 (inside every
    // carry below) and ends in round 3, one that ends in the last slots of
    // round 3, and single slots either side of a round edge.
    let first = gappy(
        shape,
        1_500,
        7,
        &[(90, 12), (120, 6), (127, 1), (128, 1), (161, 2)],
    );
    let second = gappy(shape, 1_100, 11, &[(30, 3), (63, 2)]);
    let kinds = [
        AggKind::Sum,
        AggKind::Mean,
        AggKind::Max,
        AggKind::Min,
        AggKind::Count,
        AggKind::Std,
    ];
    for kind in kinds {
        for stride_slots in [1, 4] {
            for window_slots in [8, 32, 80] {
                for fuse in [true, false] {
                    let (w, stride) = (window_slots * P, stride_slots * P);
                    let ctx = format!("{kind:?} w={w} stride={stride} fuse={fuse}");
                    let q = Query::new();
                    q.source("s", shape)
                        .map(pre_select)
                        .unwrap()
                        .aggregate(kind, w, stride)
                        .unwrap()
                        .sink();
                    let mut opts = ExecOptions::default().with_round_ticks(SLIDING_ROUND);
                    if !fuse {
                        opts = opts.without_fusion();
                    }
                    let mut exec = q
                        .compile()
                        .unwrap()
                        .executor_with(vec![first.clone()], opts)
                        .unwrap();
                    // Only a same-grid sliding aggregate is a fusion member.
                    let fused = fuse && stride_slots == 1;
                    assert_eq!(exec.fusion_groups().len(), usize::from(fused), "{ctx}");
                    for (pass, data) in [&first, &second].into_iter().enumerate() {
                        if pass == 1 {
                            exec.recycle(vec![data.clone()]).unwrap();
                        }
                        let mut out = OutputCollector::new(1);
                        let stats = exec.run_with(|win| out.absorb(win)).unwrap();
                        assert_eq!(stats.steady_state_allocs, 0, "{ctx}");
                        if pass == 0 {
                            assert!(
                                stats.windows_skipped > 0,
                                "{ctx}: the long gap skips rounds"
                            );
                        }
                        // Rounds run until one starts a round past the data.
                        let data_end = data.presence().end().unwrap();
                        let rounds = (data_end + SLIDING_ROUND - 1) / SLIDING_ROUND + 1;
                        let want: Vec<(Tick, f32)> = (0..rounds * SLIDING_ROUND)
                            .step_by(stride as usize)
                            .filter_map(|t| {
                                let items = trailing_window(data, t, w);
                                naive_aggregate(kind, &items).map(|v| (t, v))
                            })
                            .collect();
                        assert_eq!(out.len(), want.len(), "{ctx} pass {pass}: event count");
                        let got = out.iter_times().zip(out.values(0));
                        for ((t, v), (wt, wv)) in got.zip(&want) {
                            assert_eq!(
                                (t, v.to_bits()),
                                (*wt, wv.to_bits()),
                                "{ctx} pass {pass}: {v} vs {wv} at t={wt}"
                            );
                        }
                        assert!(out.durations().iter().all(|&d| d == stride), "{ctx}");
                    }
                }
            }
        }
    }
}

/// Regression: a tumbling aggregate (window == stride) re-grids the
/// stream, so it must *break* the fusion group, not join it.
#[test]
fn tumbling_aggregate_breaks_fusion_group() {
    let q = Query::new();
    let s = q.source("s", StreamShape::new(0, 2));
    s.map(|v| v * 2.0)
        .unwrap()
        .map(|v| v + 1.0)
        .unwrap()
        .aggregate(AggKind::Mean, 64, 64) // tumbling: re-grids to period 64
        .unwrap()
        .map(|v| v * 0.5)
        .unwrap()
        .sink();
    let data = SignalData::dense(
        StreamShape::new(0, 2),
        (0..4_000).map(|i| i as f32).collect(),
    );
    let exec = q
        .compile()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default())
        .unwrap();
    let groups = exec.fusion_groups();
    // Only the two selects ahead of the aggregate fuse; the aggregate and
    // the lone select after it stay staged (a group needs >= 2 members).
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].members.len(), 2);
    for g in groups {
        for &m in &g.members {
            assert!(
                !matches!(
                    exec.graph().nodes[m].kind,
                    lifestream_core::graph::OpKind::Aggregate { .. }
                ),
                "tumbling aggregate must not be a fusion member"
            );
        }
    }
}

/// Regression: `alter_period` (resampling onto a new grid) is not
/// unit-scale and must break the group on both sides.
#[test]
fn alter_period_breaks_fusion_group() {
    let q = Query::new();
    let s = q.source("s", StreamShape::new(0, 2));
    s.map(|v| v * 2.0)
        .unwrap()
        .map(|v| v + 1.0)
        .unwrap()
        .alter_period(4)
        .unwrap()
        .map(|v| v - 3.0)
        .unwrap()
        .map(|v| v * 0.25)
        .unwrap()
        .sink();
    let data = SignalData::dense(
        StreamShape::new(0, 2),
        (0..4_000).map(|i| i as f32).collect(),
    );
    let exec = q
        .compile()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default())
        .unwrap();
    let groups = exec.fusion_groups();
    assert_eq!(groups.len(), 2, "one group on each side of alter_period");
    for g in groups {
        assert_eq!(g.members.len(), 2);
        for &m in &g.members {
            assert!(matches!(
                exec.graph().nodes[m].kind,
                lifestream_core::graph::OpKind::Select
            ));
        }
    }
}
