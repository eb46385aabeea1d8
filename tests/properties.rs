//! Property-based tests over the engine's core invariants.

use lifestream::core::exec::ExecOptions;
use lifestream::core::ops::aggregate::AggKind;
use lifestream::core::ops::join::JoinKind;
use lifestream::core::prelude::*;
use lifestream::core::presence::PresenceMap;
use proptest::prelude::*;

/// Random gap layout: sorted list of disjoint (start, len) gaps.
fn gaps_strategy(span: i64) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..span, 1..span / 4), 0..6)
}

fn apply_gaps(data: &mut SignalData, gaps: &[(i64, i64)]) {
    for &(s, l) in gaps {
        data.punch_gap(s, s + l);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Presence maps keep ranges sorted, disjoint, and non-adjacent under
    /// arbitrary add/remove sequences.
    #[test]
    fn presence_map_canonical(ops in prop::collection::vec(
        (any::<bool>(), 0i64..10_000, 1i64..2_000), 0..40)) {
        let mut m = PresenceMap::new();
        for (add, s, l) in ops {
            if add { m.add(s, s + l); } else { m.remove(s, s + l); }
            let r = m.ranges();
            for w in r.windows(2) {
                prop_assert!(w[0].1 < w[1].0, "ranges must stay disjoint+gapped: {r:?}");
            }
            for &(a, b) in r {
                prop_assert!(a < b);
            }
        }
    }

    /// Intersection is commutative and bounded by both operands.
    #[test]
    fn presence_intersection_laws(
        a in prop::collection::vec((0i64..5_000, 1i64..1_000), 0..8),
        b in prop::collection::vec((0i64..5_000, 1i64..1_000), 0..8),
    ) {
        let ma: PresenceMap = a.iter().map(|&(s, l)| (s, s + l)).collect();
        let mb: PresenceMap = b.iter().map(|&(s, l)| (s, s + l)).collect();
        let i1 = ma.intersect(&mb);
        let i2 = mb.intersect(&ma);
        prop_assert_eq!(i1.ranges(), i2.ranges());
        prop_assert!(i1.covered_ticks() <= ma.covered_ticks());
        prop_assert!(i1.covered_ticks() <= mb.covered_ticks());
        let u = ma.union(&mb);
        prop_assert_eq!(
            u.covered_ticks(),
            ma.covered_ticks() + mb.covered_ticks() - i1.covered_ticks()
        );
    }

    /// Targeted and eager execution produce identical output on arbitrary
    /// gap layouts — the central correctness claim of targeted query
    /// processing.
    #[test]
    fn targeted_equals_eager(
        gaps_a in gaps_strategy(20_000),
        gaps_b in gaps_strategy(20_000),
        round in prop::sample::select(vec![200i64, 400, 1000, 2000]),
    ) {
        let s_a = StreamShape::new(0, 2);
        let s_b = StreamShape::new(0, 5);
        let build = |targeted: bool| {
            let mut a = SignalData::dense(s_a, (0..10_000).map(|i| i as f32).collect());
            let mut b = SignalData::dense(s_b, (0..4_000).map(|i| (i * 2) as f32).collect());
            apply_gaps(&mut a, &gaps_a);
            apply_gaps(&mut b, &gaps_b);
            let q = Query::new();
            let sa = q.source("a", s_a);
            let sb = q.source("b", s_b);
            let mean = sa.aggregate(AggKind::Mean, 100, 100).unwrap();
            sa.join_map(mean, JoinKind::Inner, 1, |v, m, o| o[0] = v[0] - m[0])
                .unwrap()
                .join(sb, JoinKind::Inner)
                .unwrap()
                .sink();
            let opts = if targeted {
                ExecOptions::default().with_round_ticks(round)
            } else {
                ExecOptions::default()
                    .without_targeting()
                    .with_round_ticks(round)
            };
            q.compile()
                .unwrap()
                .executor_with(vec![a, b], opts)
                .unwrap()
                .run_collect()
                .unwrap()
        };
        let targeted = build(true);
        let eager = build(false);
        prop_assert_eq!(targeted.len(), eager.len());
        prop_assert_eq!(targeted.checksum(), eager.checksum());
    }

    /// The engine's join agrees with a brute-force reference join on
    /// arbitrary gap layouts.
    #[test]
    fn join_matches_reference(
        gaps_a in gaps_strategy(4_000),
        gaps_b in gaps_strategy(4_000),
    ) {
        let s_a = StreamShape::new(0, 2);
        let s_b = StreamShape::new(0, 5);
        let mut a = SignalData::dense(s_a, (0..2_000).map(|i| i as f32).collect());
        let mut b = SignalData::dense(s_b, (0..800).map(|i| i as f32).collect());
        apply_gaps(&mut a, &gaps_a);
        apply_gaps(&mut b, &gaps_b);

        // Reference: joint grid gcd(2,5)=1; output at t iff the covering
        // events of both sides are present.
        let mut expected = 0u64;
        for t in 0..4_000i64 {
            let ta = (t / 2) * 2;
            let tb = (t / 5) * 5;
            let pa = a.value_at(ta).is_some();
            let pb = b.value_at(tb).is_some();
            if pa && pb && ta + 2 > t && tb + 5 > t {
                expected += 1;
            }
        }

        let q = Query::new();
        let sa = q.source("a", s_a);
        let sb = q.source("b", s_b);
        sa.join(sb, JoinKind::Inner).unwrap().sink();
        let got = q
            .compile()
            .unwrap()
            .executor_with(vec![a, b], ExecOptions::default().with_round_ticks(500))
            .unwrap()
            .run()
            .unwrap()
            .output_events;
        prop_assert_eq!(got, expected);
    }

    /// Locality tracing always yields one uniform dimension that is a
    /// multiple of every stream period and of every aggregate window.
    #[test]
    fn traced_dims_are_uniform_multiples(
        p1 in prop::sample::select(vec![1i64, 2, 4, 5, 8, 10]),
        p2 in prop::sample::select(vec![1i64, 2, 4, 5, 8, 10]),
        wmul in 1i64..20,
    ) {
        let s1 = StreamShape::new(0, p1);
        let s2 = StreamShape::new(0, p2);
        let w = p1 * wmul;
        let q = Query::new();
        let sa = q.source("a", s1);
        let sb = q.source("b", s2);
        let m = sa.aggregate(AggKind::Sum, w, w).unwrap();
        sa.join(m, JoinKind::Inner)
            .unwrap()
            .join(sb, JoinKind::Inner)
            .unwrap()
            .sink();
        let compiled = q.compile().unwrap();
        let dim = compiled.global_dim();
        for node in &compiled.graph().nodes {
            prop_assert_eq!(node.dim, dim, "all dims uniform");
            prop_assert_eq!(dim % node.shape.period(), 0);
        }
        prop_assert_eq!(dim % w, 0);
    }

    /// DTW distance is symmetric, non-negative, and zero only for
    /// identical sequences (with matching lengths).
    #[test]
    fn dtw_metric_properties(
        a in prop::collection::vec(-100.0f32..100.0, 1..24),
        b in prop::collection::vec(-100.0f32..100.0, 1..24),
        band in 0usize..8,
    ) {
        use lifestream::core::dtw::dtw_distance;
        let dab = dtw_distance(&a, &b, band);
        let dba = dtw_distance(&b, &a, band);
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() <= 1e-3 * (1.0 + dab.abs()),
            "symmetry: {dab} vs {dba}");
        prop_assert_eq!(dtw_distance(&a, &a, band), 0.0);
    }

    /// Run statistics conservation: input events of an identity query
    /// equal output events, regardless of gaps and round size.
    #[test]
    fn identity_query_conserves_events(
        gaps in gaps_strategy(10_000),
        round in prop::sample::select(vec![100i64, 300, 1000]),
    ) {
        let s = StreamShape::new(0, 2);
        let mut d = SignalData::dense(s, (0..5_000).map(|i| i as f32).collect());
        apply_gaps(&mut d, &gaps);
        let expected = d.present_events() as u64;
        let q = Query::new();
        q.source("s", s).sink();
        let stats = q
            .compile()
            .unwrap()
            .executor_with(vec![d], ExecOptions::default().with_round_ticks(round))
            .unwrap()
            .run()
            .unwrap();
        prop_assert_eq!(stats.output_events, expected);
        prop_assert_eq!(stats.input_events, expected);
    }
}
