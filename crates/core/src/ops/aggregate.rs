//! Windowed aggregation: `Aggregate(w, p)` applies an aggregate function to
//! `w`-sized windows with stride `p`.
//!
//! *Tumbling* windows (`w == p`) are stateless: locality tracing guarantees
//! the FWindow dimension is a multiple of `w`, so every aggregation window
//! lies inside one round. Output events sit at each window's start and
//! aggregate input events in `[t, t + w)` — exactly the
//! `TumblingWindow(100).Mean()` of Listing 1.
//!
//! *Sliding* windows (`w > p`, `SlidingWindow` in the query language) are
//! stateful and emit, at every output grid point `t`, the aggregate of
//! input events in `(t - w, t]` — trailing-window semantics. On the input
//! grid that window is the `w / p_in` slots ending at `t`, so no time is
//! ever stored: `SlidingFold` keeps the last `w / p_in − 1` slots of the
//! rounds before (value and presence) in a flat scratch laid directly
//! before the current round's slots, and every window is one contiguous
//! slice of it. The staged [`SlidingAggKernel`] and the fused stage a
//! fusion group member builds instead run that one fold.
//!
//! Windows whose slots are all present — found from the scratch's presence
//! runs — are folded *lag-major*: for a block of eight neighbouring output
//! slots the fold walks the lags oldest to newest and, per lag, adds that
//! lag's value to every slot's accumulator. Each slot still receives its
//! values oldest first into its own `f64` accumulator — the order
//! [`AggKind::fold`] uses — so every output bit is what the slot-by-slot
//! fold gives; only the dependent chain of `w / p_in` adds per slot becomes
//! independent adds across the block, with the accumulators in registers.
//! The kinds that sum (`Sum`, `Mean`, `Count`, `Std`) read a copy of the
//! scratch widened to `f64` once a round, so a lag's values load as `f64`
//! vectors with no conversion per lag; `f32 → f64` is exact, so this too
//! changes no bit. `Max` and `Min` fold the `f32` scratch. Windows with
//! absent slots take `AggKind::fold` over the present ones.

use crate::fuse::{for_each_run, FusedStage, StageIo};
use crate::fwindow::FWindow;
use crate::ops::Kernel;
use crate::time::Tick;
use std::ops::Range;

/// Built-in aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Sum of present values.
    Sum,
    /// Arithmetic mean of present values.
    Mean,
    /// Maximum present value.
    Max,
    /// Minimum present value.
    Min,
    /// Number of present events.
    Count,
    /// Population standard deviation of present values.
    Std,
}

/// One step of a running sum.
fn add(sum: f64, v: f32) -> f64 {
    sum + v as f64
}

/// One step of a running `(sum, sum of squares)`; only `Std` pays for it.
fn add_squares((sum, sumsq): (f64, f64), v: f32) -> (f64, f64) {
    let v = v as f64;
    (sum + v, sumsq + v * v)
}

/// Population standard deviation of `n` values from their running sums.
fn std_of((sum, sumsq): (f64, f64), n: u32) -> f32 {
    let mean = sum / n as f64;
    ((sumsq / n as f64 - mean * mean).max(0.0)).sqrt() as f32
}

impl AggKind {
    /// Folds the present values of one window, oldest first, into the
    /// aggregate, or `None` when there are none.
    pub fn fold(self, items: impl Iterator<Item = f32> + Clone) -> Option<f32> {
        let mut n = 0u32;
        let counted = items.inspect(|_| n += 1);
        let v = match self {
            AggKind::Max => counted.fold(f32::NEG_INFINITY, f32::max),
            AggKind::Min => counted.fold(f32::INFINITY, f32::min),
            AggKind::Std => std_of(counted.fold((0.0, 0.0), add_squares), n),
            AggKind::Sum | AggKind::Mean | AggKind::Count => self.of_sum(counted.fold(0.0, add), n),
        };
        (n > 0).then_some(v)
    }

    /// `Sum`, `Mean` or `Count` of `n` values from their running sum.
    fn of_sum(self, sum: f64, n: u32) -> f32 {
        match self {
            AggKind::Sum => sum as f32,
            AggKind::Count => n as f32,
            _ => (sum / n as f64) as f32,
        }
    }
}

/// Tumbling-window aggregate kernel (`w == p`): stateless.
#[derive(Debug)]
pub struct TumblingAggKernel {
    kind: AggKind,
    window: Tick,
}

impl TumblingAggKernel {
    /// Creates a tumbling aggregate over `window`-tick windows.
    pub fn new(kind: AggKind, window: Tick) -> Self {
        Self { kind, window }
    }
}

impl Kernel for TumblingAggKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        for o in 0..out.len() {
            let t = out.slot_time(o);
            // Aggregate input events in [t, t + window).
            let lo = match input.slot_of(input.shape().align_up(t)) {
                Some(i) => i,
                None => continue,
            };
            let period = input.shape().period();
            let count = ((self.window + period - 1) / period) as usize;
            let hi = (lo + count).min(input.len());
            let vals = (lo..hi)
                .filter(|&i| input.is_present(i) && input.slot_time(i) < t + self.window)
                .map(|i| input.field(0)[i]);
            if let Some(v) = self.kind.fold(vals) {
                out.write(o, &[v], self.window.min(out.dim()));
            }
        }
    }
}

/// Output slots folded together by the lag-major path: eight `f64`
/// accumulators fit the sixteen vector registers of the baseline x86-64
/// target.
const BLOCK: usize = 8;

/// [`BLOCK`] fully present windows of `width` slots each, `step` apart,
/// over a column of `T`: window `b` is `span[b * step..][..width]`.
struct Block<'a, T> {
    span: &'a [T],
    step: usize,
    width: usize,
}

impl<T: Copy> Block<'_, T> {
    /// The lag-major fold: per lag, oldest first, `add`s that lag's value
    /// into each window's accumulator.
    #[inline(always)]
    fn fold<A: Copy>(&self, init: A, add: impl Fn(A, T) -> A) -> [A; BLOCK] {
        let (step, width) = (self.step, self.width);
        let mut acc = [init; BLOCK];
        if step == 1 {
            // Output and input share a grid (every fused chain): one lag
            // of neighbouring windows is one contiguous load.
            for lag in 0..width {
                let x: &[T; BLOCK] = self.span[lag..lag + BLOCK].try_into().unwrap();
                for (a, &x) in acc.iter_mut().zip(x) {
                    *a = add(*a, x);
                }
            }
        } else {
            let span = &self.span[..(BLOCK - 1) * step + width];
            for lag in 0..width {
                for (b, a) in acc.iter_mut().enumerate() {
                    *a = add(*a, span[b * step + lag]);
                }
            }
        }
        acc
    }
}

/// The aggregates of [`BLOCK`] fully present windows starting at scratch
/// slot `at`, bit for bit what [`AggKind::fold`] gives each (see the
/// module docs): `Max` and `Min` over the `f32` values, the sums over
/// their `f64` widening. `Std`'s two sums are separate folds, so each
/// runs over a flat array of accumulators.
fn aggregate_block(
    kind: AggKind,
    vals: &[f32],
    wide: &[f64],
    at: usize,
    step: usize,
    width: usize,
) -> [f32; BLOCK] {
    let n = width as u32;
    let narrow = || Block {
        span: &vals[at..],
        step,
        width,
    };
    let wide = || Block {
        span: &wide[at..],
        step,
        width,
    };
    match kind {
        AggKind::Max => narrow().fold(f32::NEG_INFINITY, f32::max),
        AggKind::Min => narrow().fold(f32::INFINITY, f32::min),
        AggKind::Std => {
            let sums = wide().fold(0.0, |sum, v| sum + v);
            let sumsqs = wide().fold(0.0, |sumsq, v| sumsq + v * v);
            std::array::from_fn(|b| std_of((sums[b], sumsqs[b]), n))
        }
        _ => (wide().fold(0.0, |sum, v| sum + v)).map(|sum| kind.of_sum(sum, n)),
    }
}

/// The sliding-window fold and the state it carries across rounds, shared
/// by [`SlidingAggKernel`] and its fused stage (see the module docs).
#[derive(Debug)]
struct SlidingFold {
    kind: AggKind,
    /// Window width in input slots (`window / in_period`).
    width: usize,
    /// `[carry | round]`: the last `width − 1` input slots of the rounds
    /// before, then the current round's slots. Sized at construction.
    vals: Vec<f32>,
    /// Presence of `vals`, slot for slot; a carry slot no round has
    /// filled is absent.
    present: Vec<bool>,
    /// `vals` widened to `f64` once a round, for the kinds that sum; the
    /// extremes fold `vals` itself and leave it empty. Sized at
    /// construction.
    wide: Vec<f64>,
}

impl SlidingFold {
    fn new(kind: AggKind, window: Tick, in_period: Tick, capacity: usize) -> Self {
        let width = (window / in_period).max(1) as usize;
        let sums = !matches!(kind, AggKind::Max | AggKind::Min);
        Self {
            kind,
            width,
            vals: vec![0.0; width - 1 + capacity],
            present: vec![false; width - 1 + capacity],
            wide: vec![0.0; if sums { width - 1 + capacity } else { 0 }],
        }
    }

    /// Forgets the carried slots (skipped round, reset).
    fn clear(&mut self) {
        self.present[..self.width - 1].fill(false);
    }

    /// The scratch slots of a round of `len` input slots, for the caller
    /// to fill before [`run`](Self::run).
    fn round_mut(&mut self, len: usize) -> (&mut [f32], &mut [bool]) {
        let c = self.width - 1;
        (&mut self.vals[c..c + len], &mut self.present[c..c + len])
    }

    /// Folds the round loaded through [`round_mut`](Self::round_mut):
    /// output slot `o` is the window ending at input slot `first + o *
    /// step`. `out_present` arrives cleared. Afterwards the round's last
    /// `width − 1` slots become the carry.
    fn run(
        &mut self,
        len: usize,
        first: usize,
        step: usize,
        out_vals: &mut [f32],
        out_present: &mut [bool],
    ) {
        let (kind, width) = (self.kind, self.width);
        let c = width - 1;
        let (vals, present) = (&self.vals[..c + len], &self.present[..c + len]);
        // One exact conversion a slot, instead of one a slot and lag.
        let wide: &[f64] = if self.wide.is_empty() {
            &[]
        } else {
            let wide = &mut self.wide[..c + len];
            for (w, &v) in wide.iter_mut().zip(vals) {
                *w = v as f64;
            }
            wide
        };
        // In scratch indices output `o`'s window starts at `first + o *
        // step`; `outputs_before(j)` counts the windows starting below `j`.
        let n_out = out_vals.len();
        let outputs_before = |j: usize| j.saturating_sub(first).div_ceil(step).min(n_out);
        let per_slot = |outputs: Range<usize>, out_vals: &mut [f32], out_present: &mut [bool]| {
            for o in outputs {
                let j = first + o * step;
                let window = (j..j + width).filter(|&i| present[i]).map(|i| vals[i]);
                if let Some(v) = kind.fold(window) {
                    out_vals[o] = v;
                    out_present[o] = true;
                }
            }
        };
        let mut next = 0usize;
        for_each_run(present, |lo, hi| {
            // The run holds the windows starting in `lo..hi - c`; whole
            // blocks of them fold lag-major, what is left slot by slot.
            let dense_lo = outputs_before(lo).max(next);
            let blocks = outputs_before(hi.saturating_sub(c)).saturating_sub(dense_lo) / BLOCK;
            let dense_hi = dense_lo + blocks * BLOCK;
            per_slot(next..dense_lo, out_vals, out_present);
            out_present[dense_lo..dense_hi].fill(true);
            let dense = out_vals[dense_lo..dense_hi].chunks_exact_mut(BLOCK);
            for (i, block) in dense.enumerate() {
                let at = first + (dense_lo + i * BLOCK) * step;
                block.copy_from_slice(&aggregate_block(kind, vals, wide, at, step, width));
            }
            next = dense_hi;
        });
        per_slot(next..n_out, out_vals, out_present);
        self.vals.copy_within(len..len + c, 0);
        self.present.copy_within(len..len + c, 0);
    }
}

/// Sliding-window aggregate kernel (`w > p`, trailing `(t - w, t]`
/// windows): loads each round into its `SlidingFold` and bulk-writes the
/// folded runs.
#[derive(Debug)]
pub struct SlidingAggKernel {
    fold: SlidingFold,
    /// One round's output, folded flat before it is written by runs.
    out_vals: Vec<f32>,
    out_present: Vec<bool>,
}

impl SlidingAggKernel {
    /// Creates a sliding aggregate with trailing window `window` over an
    /// input stream of period `in_period` and at most `capacity` input
    /// slots per round.
    pub fn new(kind: AggKind, window: Tick, in_period: Tick, capacity: usize) -> Self {
        Self {
            fold: SlidingFold::new(kind, window, in_period, capacity),
            out_vals: vec![0.0; capacity],
            out_present: vec![false; capacity],
        }
    }
}

impl Kernel for SlidingAggKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        let (vals, present) = self.fold.round_mut(input.len());
        vals.copy_from_slice(input.field(0));
        input.presence().unpack_into(present);
        // The output grid is every `step`-th input slot from `first` on.
        let (in_period, out_period) = (input.shape().period(), out.shape().period());
        let first = ((out.slot_time(0) - input.slot_time(0)) / in_period) as usize;
        let step = (out_period / in_period) as usize;
        let out_vals = &mut self.out_vals[..out.len()];
        let out_present = &mut self.out_present[..out.len()];
        out_present.fill(false);
        self.fold
            .run(input.len(), first, step, out_vals, out_present);
        for_each_run(out_present, |lo, hi| {
            out.fill_from_slice(lo, &out_vals[lo..hi], out_period);
        });
    }

    fn on_skip(&mut self) {
        self.fold.clear();
    }

    fn reset(&mut self) {
        self.fold.clear();
    }
}

/// Fused-stage form of [`SlidingAggKernel`], built for a fusion group
/// member and valid only on same-grid chains (output stride == input
/// period), which the fusion pass guarantees: the same [`SlidingFold`],
/// loaded from the chain's flat columns and folding straight into them.
pub(crate) struct FusedSlidingStage {
    fold: SlidingFold,
}

impl FusedSlidingStage {
    /// Creates the stage; the arguments are [`SlidingAggKernel::new`]'s.
    pub(crate) fn new(kind: AggKind, window: Tick, in_period: Tick, capacity: usize) -> Self {
        Self {
            fold: SlidingFold::new(kind, window, in_period, capacity),
        }
    }
}

impl FusedStage for FusedSlidingStage {
    fn apply(&mut self, io: StageIo<'_>) {
        let len = io.vals.len();
        let (vals, present) = self.fold.round_mut(len);
        vals.copy_from_slice(io.vals);
        present.copy_from_slice(io.present);
        self.fold.run(len, 0, 1, io.out_vals, io.out_present);
    }

    fn on_skip(&mut self) {
        self.fold.clear();
    }

    fn reset(&mut self) {
        self.fold.clear();
    }

    fn resets_durations(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{empty, events, filled};
    use crate::time::StreamShape;
    use proptest::prelude::*;

    const KINDS: [AggKind; 6] = [
        AggKind::Sum,
        AggKind::Mean,
        AggKind::Max,
        AggKind::Min,
        AggKind::Count,
        AggKind::Std,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every kind over windows of 1-64 slots and output strides of 1-5
        /// slots, through rounds of odd sizes with gaps, carries and skips:
        /// each output is `AggKind::fold` over its window's present slots,
        /// bit for bit, and the scratch never grows.
        #[test]
        fn sliding_fold_equals_agg_kind_fold_on_present_slots(
            kind in prop::sample::select(KINDS.to_vec()),
            width in 1usize..=64,
            step in 1usize..=5,
            seed in 1u64..u64::MAX,
        ) {
            let mut s = seed;
            let mut next = |n: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % n
            };
            const CAPACITY: usize = 301;
            let mut fold = SlidingFold::new(kind, width as Tick * 3, 3, CAPACITY);
            let sizes = (fold.vals.len(), fold.wide.len(), fold.wide.capacity());
            // The last `width - 1` slots, oldest first, as the reference
            // carries them.
            let mut carry: Vec<Option<f32>> = vec![None; width - 1];
            for r in 0..5 {
                if r > 0 && next(4) == 0 {
                    fold.clear();
                    carry.fill(None);
                }
                let len = CAPACITY - 2 * next(40) as usize;
                let dense = next(2) == 0;
                // Magnitudes from 1e-6 to 1e6: window sums that round in
                // `f64`, and `Std`s that cancel.
                let round: Vec<Option<f32>> = (0..len)
                    .map(|_| {
                        let scale = 10f32.powi(next(13) as i32 - 6);
                        let v = (next(4001) as f32 * 0.0137 - 27.0) * scale;
                        (dense || next(9) != 0).then_some(v)
                    })
                    .collect();
                let (vals, present) = fold.round_mut(len);
                for (i, v) in round.iter().enumerate() {
                    vals[i] = v.unwrap_or(f32::NAN);
                    present[i] = v.is_some();
                }
                let first = next(step as u64) as usize;
                let n_out = (len - first).div_ceil(step);
                let mut out_vals = vec![0.0f32; n_out];
                let mut out_present = vec![false; n_out];
                fold.run(len, first, step, &mut out_vals, &mut out_present);
                let full: Vec<Option<f32>> = carry.iter().chain(&round).copied().collect();
                for o in 0..n_out {
                    let window = &full[first + o * step..][..width];
                    let want = kind.fold(window.iter().flatten().copied());
                    let got = out_present[o].then_some(out_vals[o]);
                    prop_assert_eq!(
                        got.map(f32::to_bits),
                        want.map(f32::to_bits),
                        "{:?} width {} step {} round {} output {}", kind, width, step, r, o
                    );
                }
                carry = full[full.len() - (width - 1)..].to_vec();
            }
            prop_assert_eq!((fold.vals.len(), fold.wide.len(), fold.wide.capacity()), sizes);
        }
    }

    #[test]
    fn agg_kind_folds() {
        let v = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(AggKind::Sum.fold(v.iter().copied()), Some(10.0));
        assert_eq!(AggKind::Mean.fold(v.iter().copied()), Some(2.5));
        assert_eq!(AggKind::Max.fold(v.iter().copied()), Some(4.0));
        assert_eq!(AggKind::Min.fold(v.iter().copied()), Some(1.0));
        assert_eq!(AggKind::Count.fold(v.iter().copied()), Some(4.0));
        let std = AggKind::Std.fold(v.iter().copied()).unwrap();
        assert!((std - 1.118034).abs() < 1e-5);
        assert_eq!(AggKind::Sum.fold(std::iter::empty()), None);
        assert_eq!(AggKind::Max.fold(std::iter::empty()), None);
    }

    #[test]
    fn tumbling_mean_matches_listing1_shape() {
        // Input (0,2), window 10 -> output (0,10): one mean per 10 ticks.
        let s_in = StreamShape::new(0, 2);
        let s_out = StreamShape::new(0, 10);
        let input = filled(
            s_in,
            20,
            0,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
        );
        let mut out = empty(s_out, 20, 0, 1);
        let mut k = TumblingAggKernel::new(AggKind::Mean, 10);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 3.0), (10, 8.0)]);
    }

    #[test]
    fn tumbling_ignores_absent_and_goes_absent_when_empty() {
        let s_in = StreamShape::new(0, 2);
        let s_out = StreamShape::new(0, 10);
        let mut input = filled(s_in, 20, 0, &[1.0; 10]);
        for i in 0..5 {
            input.clear_slot(i); // first window fully absent
        }
        input.clear_slot(5);
        let mut out = empty(s_out, 20, 0, 1);
        let mut k = TumblingAggKernel::new(AggKind::Sum, 10);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(10, 4.0)]); // 4 present events remain
    }

    #[test]
    fn sliding_carry_trails_across_rounds_and_dies_on_a_skip() {
        let s = StreamShape::new(0, 1);
        let mut k = SlidingAggKernel::new(AggKind::Mean, 4, 1, 4);
        let round = |k: &mut SlidingAggKernel, sync: Tick, vals: &[f32]| {
            let mut out = empty(s, 4, sync, 1);
            k.process(&[&filled(s, 4, sync, vals)], &mut out);
            // Three carried slots plus one round, as built: never grows.
            assert_eq!((k.fold.vals.len(), k.fold.vals.capacity()), (7, 7));
            assert_eq!((k.fold.wide.len(), k.fold.wide.capacity()), (7, 7));
            events(&out)
        };
        // t=3 sees (-1, 3] = 1,2,3,4; the first slots see what exists.
        let ev = round(&mut k, 0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ev, vec![(0, 1.0), (1, 1.5), (2, 2.0), (3, 2.5)]);
        // t=4 reaches back into the round before: (0, 4] = 2,3,4,5.
        assert_eq!(round(&mut k, 4, &[5.0, 6.0, 7.0, 8.0])[0], (4, 3.5));
        k.on_skip();
        // After a skipped round the first output sees its own slot only.
        assert_eq!(round(&mut k, 12, &[1.0; 4])[0], (12, 1.0));
    }
}
