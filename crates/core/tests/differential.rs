//! Differential property tests: random Table-2 pipelines must produce
//! identical [`OutputCollector`] checksums on every engine.
//!
//! Each case draws an operator, window sizes, and a gap pattern, builds
//! the shared [`Workload`] once, and runs it through every engine in
//! [`all_engines`] — LifeStream, Trill, NumLib, the sharded runtime and
//! staged (unfused) LifeStream.
//! Collected events are poured into an [`OutputCollector`] per engine and
//! compared by the order-sensitive checksum, so agreement is bit-for-bit
//! on both times and payload values.
//!
//! The vocabulary is restricted to workloads whose semantics all three
//! architectures can represent exactly (the paper's own comparison does
//! the same): `Select`, `Where`, tumbling `Aggregate`, and same-grid
//! `Join`. One documented normalization: the NumLib baseline labels an
//! aggregation window by its *end* (NumPy convention), LifeStream and
//! Trill by its *start* — NumLib times are shifted by `-window` before
//! checksumming. Spans are kept window-aligned because a whole-array
//! baseline cannot see a trailing partial window at all.

use lifestream::engine::{all_engines, EngineOptions, Workload};
use lifestream_core::exec::OutputCollector;
use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::source::SignalData;
use lifestream_core::time::{StreamShape, Tick};
use proptest::prelude::*;

/// Deterministic pseudo-random signal: values derived from a seed, gaps
/// punched from `(start_slot, len_slots)` pairs.
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

fn collector_from(events: &[(Tick, f32)], time_shift: Tick) -> OutputCollector {
    let mut c = OutputCollector::new(1);
    for &(t, v) in events {
        c.push(t - time_shift, 0, &[v]);
    }
    c
}

/// Runs `workload` on every supporting engine and asserts all collected
/// outputs hash identically. `numlib_shift` maps the NumLib baseline's
/// window-end timestamps onto the others' window-start grid.
fn assert_engines_agree(workload: &Workload, inputs: &[SignalData], numlib_shift: Tick) {
    let opts = EngineOptions::default().collecting();
    let mut reference: Option<(&'static str, u64, usize)> = None;
    for engine in all_engines().iter().filter(|e| e.supports(workload)) {
        let out = engine
            .run(workload, inputs.to_vec(), &opts)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", engine.name(), workload.name()));
        let collected = out
            .collected
            .unwrap_or_else(|| panic!("{} did not collect", engine.name()));
        let shift = if engine.name() == "NumLib" {
            numlib_shift
        } else {
            0
        };
        let c = collector_from(&collected, shift);
        match reference {
            None => reference = Some((engine.name(), c.checksum(), c.len())),
            Some((ref_name, ref_sum, ref_len)) => {
                prop_assert_eq!(
                    c.len(),
                    ref_len,
                    "{} event count differs from {} on {}",
                    engine.name(),
                    ref_name,
                    workload.name()
                );
                prop_assert_eq!(
                    c.checksum(),
                    ref_sum,
                    "{} checksum differs from {} on {}",
                    engine.name(),
                    ref_name,
                    workload.name()
                );
            }
        }
    }
    assert!(reference.is_some(), "no engine supported the workload");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Payload operators: affine `Select` and threshold `Where` over
    /// random grids, lengths, coefficients, and gap patterns.
    #[test]
    fn select_and_where_agree_on_all_engines(
        period in prop::sample::select(vec![1i64, 2, 4, 8]),
        slots in 200usize..3000,
        seed in 0u64..u64::MAX / 2,
        gaps in prop::collection::vec((0usize..3000, 1usize..400), 0..5),
        mul in -4.0f32..4.0,
        add in -50.0f32..50.0,
        threshold in -80.0f32..80.0,
        pick_where in any::<bool>(),
    ) {
        let data = signal(period, slots, seed, &gaps);
        let workload = if pick_where {
            Workload::WhereGt { threshold }
        } else {
            Workload::Select { mul, add }
        };
        assert_engines_agree(&workload, &[data], 0);
    }

    /// Tumbling aggregations: every exactly-representable kind, random
    /// window sizes, window-aligned spans, random gaps.
    #[test]
    fn tumbling_aggregates_agree_on_all_engines(
        period in prop::sample::select(vec![1i64, 2, 4]),
        wslots in prop::sample::select(vec![5usize, 10, 25, 50]),
        windows in 4usize..40,
        seed in 0u64..u64::MAX / 2,
        gaps in prop::collection::vec((0usize..2000, 1usize..300), 0..5),
        kind in prop::sample::select(vec![
            AggKind::Sum,
            AggKind::Mean,
            AggKind::Max,
            AggKind::Min,
            AggKind::Count,
        ]),
    ) {
        let slots = wslots * windows; // window-aligned span
        let window = wslots as Tick * period;
        let data = signal(period, slots, seed, &gaps);
        let workload = Workload::Aggregate { kind, window, stride: window };
        assert_engines_agree(&workload, &[data], window);
    }

    /// Same-grid temporal inner joins with independent gap patterns on
    /// each side.
    #[test]
    fn joins_agree_on_all_engines(
        period in prop::sample::select(vec![1i64, 2, 4]),
        left_slots in 200usize..2500,
        right_slots in 200usize..2500,
        seed in 0u64..u64::MAX / 2,
        left_gaps in prop::collection::vec((0usize..2500, 1usize..300), 0..4),
        right_gaps in prop::collection::vec((0usize..2500, 1usize..300), 0..4),
    ) {
        let left = signal(period, left_slots, seed, &left_gaps);
        let right = signal(period, right_slots, seed ^ 0xabcdef, &right_gaps);
        assert_engines_agree(&Workload::Join, &[left, right], 0);
    }
}
