//! Windowed aggregation: `Aggregate(w, p)` applies an aggregate function to
//! `w`-sized windows with stride `p`, one output event every `p` ticks on
//! the input's grid.
//!
//! *Tumbling* windows (`w == p`) are the spans `[k · w, (k + 1) · w)`; each
//! emits, at its first point on the input grid `t`, the aggregate of the
//! input events in `[t, t + w)` — exactly the `TumblingWindow(100).Mean()`
//! of Listing 1. They carry nothing across rounds: locality tracing makes
//! the FWindow dimension a multiple of `w`, so every window lies inside one
//! round, whatever the input's offset. The first window of an input whose
//! offset is not a multiple of `w` starts before the input's first event.
//!
//! *Sliding* windows (`w > p`, `SlidingWindow` in the query language) emit,
//! at every output grid point `t`, the aggregate of the input events in
//! `(t - w, t]` — trailing-window semantics, carried across rounds.
//!
//! Both are one `AggregateStage`, fused or alone. On the input grid a
//! window is `w / p_in` consecutive slots, so no time is ever stored: the
//! stage keeps the slots a window reaches back into — the last `w / p_in −
//! 1` of the rounds before for a trailing window, none for a tumbling one —
//! in a flat scratch laid directly before the current round's slots, and
//! every window is one contiguous slice of it. Output slot `o` is the
//! window starting at scratch slot `first + o · step`, where `step = p /
//! p_in` and `first` places output slot 0 on the input grid (it is
//! positive when a round starts between two output points, and negative
//! for the tumbling window that starts before the input's first event). A
//! sliding stage whose stride is its input period keeps its input's grid
//! and may join a fusion group; every other aggregate re-grids its round
//! and runs as a one-stage `FusedKernel`.
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

/// `Aggregate` as every plan runs it, in a fusion group or alone as a
/// one-stage [`FusedKernel`](crate::fuse::FusedKernel): the window fold
/// and the state it carries across rounds (see the module docs). Each
/// round is loaded after the carry and folded onto the output grid, which
/// the stage works out from the round's input grid.
#[derive(Debug)]
pub(crate) struct AggregateStage {
    kind: AggKind,
    /// Window width in input slots (`window / in_period`).
    width: usize,
    /// Input slots between two output slots (`stride / in_period`).
    step: usize,
    /// Input slots carried from the rounds before: `width − 1` for a
    /// trailing window, none for a tumbling one.
    carry: usize,
    /// `[carry | round]`: the carried slots, then the current round's
    /// slots. Sized at construction.
    vals: Vec<f32>,
    /// Presence of `vals`, slot for slot; a carry slot no round has
    /// filled is absent.
    present: Vec<bool>,
    /// `vals` widened to `f64` once a round, for the kinds that sum; the
    /// extremes fold `vals` itself and leave it empty. Sized at
    /// construction.
    wide: Vec<f64>,
}

impl AggregateStage {
    /// A `kind` aggregate of `window`-tick windows every `stride` ticks
    /// over an input of period `in_period`, at most `capacity` input
    /// slots a round: tumbling (`window == stride`) or sliding (`window >
    /// stride`, trailing windows `(t − window, t]`). The output grid is
    /// [`StreamShape::aggregated`](crate::time::StreamShape::aggregated)'s.
    pub(crate) fn new(
        kind: AggKind,
        window: Tick,
        stride: Tick,
        in_period: Tick,
        capacity: usize,
    ) -> Self {
        let width = (window / in_period) as usize;
        // A trailing window reaches `width − 1` slots into the rounds
        // before; a tumbling one starts at its own output slot.
        let carry = if window == stride { 0 } else { width - 1 };
        let sums = !matches!(kind, AggKind::Max | AggKind::Min);
        Self {
            kind,
            width,
            step: (stride / in_period) as usize,
            carry,
            vals: vec![0.0; carry + capacity],
            present: vec![false; carry + capacity],
            wide: vec![0.0; if sums { carry + capacity } else { 0 }],
        }
    }

    /// Forgets the carried slots (skipped round, reset).
    fn clear(&mut self) {
        self.present[..self.carry].fill(false);
    }
}

impl FusedStage for AggregateStage {
    /// Output slot `o` is the window of `width` scratch slots starting at
    /// `first + o * step`, cut to the round; afterwards the round's last
    /// `carry` slots become the carry.
    fn apply(&mut self, io: StageIo<'_>) {
        let (kind, width, step, len) = (self.kind, self.width, self.step, io.vals.len());
        // The output grid lies on the input grid, so a window starts at
        // its output slot's time — before the round's first slot only for
        // the tumbling window the stream's first event falls into.
        let first = (io.out_base - io.base) / io.period;
        let end = self.carry + len;
        self.vals[self.carry..end].copy_from_slice(io.vals);
        self.present[self.carry..end].copy_from_slice(io.present);
        let (vals, present) = (&self.vals[..end], &self.present[..end]);
        // One exact conversion a slot, instead of one a slot and lag.
        let wide: &[f64] = if self.wide.is_empty() {
            &[]
        } else {
            let wide = &mut self.wide[..end];
            for (w, &v) in wide.iter_mut().zip(vals) {
                *w = v as f64;
            }
            wide
        };
        let (out_vals, out_present) = (io.out_vals, io.out_present);
        let n_out = out_vals.len();
        // Output slot `o`'s window starts at scratch slot `start(o)`;
        // `outputs_before(j)` counts the windows starting below slot `j`.
        let start = |o: usize| first + (o * step) as Tick;
        let outputs_before = |j: usize| {
            ((j as Tick - first).max(0) as usize)
                .div_ceil(step)
                .min(n_out)
        };
        let per_slot = |outputs: Range<usize>, out_vals: &mut [f32], out_present: &mut [bool]| {
            for o in outputs {
                let j = start(o);
                let cut = ((j + width as Tick).max(0) as usize).min(end);
                let window = (j.max(0) as usize..cut)
                    .filter(|&i| present[i])
                    .map(|i| vals[i]);
                if let Some(v) = kind.fold(window) {
                    out_vals[o] = v;
                    out_present[o] = true;
                }
            }
        };
        let mut next = 0usize;
        for_each_run(present, |lo, hi| {
            // The run holds the windows starting in `lo..=hi - width`;
            // whole blocks of them fold lag-major, what is left slot by
            // slot.
            let dense_lo = outputs_before(lo).max(next);
            let dense_end = outputs_before((hi + 1).saturating_sub(width));
            let blocks = dense_end.saturating_sub(dense_lo) / BLOCK;
            let dense_hi = dense_lo + blocks * BLOCK;
            per_slot(next..dense_lo, out_vals, out_present);
            out_present[dense_lo..dense_hi].fill(true);
            let dense = out_vals[dense_lo..dense_hi].chunks_exact_mut(BLOCK);
            for (i, block) in dense.enumerate() {
                let at = start(dense_lo + i * BLOCK) as usize;
                block.copy_from_slice(&aggregate_block(kind, vals, wide, at, step, width));
            }
            next = dense_hi;
        });
        per_slot(next..n_out, out_vals, out_present);
        self.vals.copy_within(len..end, 0);
        self.present.copy_within(len..end, 0);
    }

    fn on_skip(&mut self) {
        self.clear();
    }

    fn reset(&mut self) {
        self.clear();
    }

    fn resets_durations(&self) -> bool {
        true
    }

    fn regrids(&self) -> bool {
        self.step != 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::FusedKernel;
    use crate::fwindow::FWindow;
    use crate::ops::testutil::{empty, events, filled};
    use crate::ops::Kernel;
    use crate::time::{lcm, StreamShape};
    use proptest::prelude::*;

    const KINDS: [AggKind; 6] = [
        AggKind::Sum,
        AggKind::Mean,
        AggKind::Max,
        AggKind::Min,
        AggKind::Count,
        AggKind::Std,
    ];

    /// The aggregate as every plan runs it outside a fusion group: a
    /// one-stage fused kernel with scratch for `cap` input slots.
    fn aggregate(kind: AggKind, w: Tick, stride: Tick, period: Tick, cap: usize) -> FusedKernel {
        let stage = AggregateStage::new(kind, w, stride, period, cap);
        FusedKernel::new(vec![Box::new(stage)], cap)
    }

    /// The per-slot tumbling aggregate the stage replaced, kept as a
    /// reference: output slot `o` at time `t` folds the input's present
    /// events in `[t, t + window)` that lie in the round. Its one change
    /// is that the window may start before the input's first slot, as
    /// the first window of an input off the window grid does.
    fn reference(kind: AggKind, window: Tick, input: &FWindow, out: &mut FWindow) {
        for o in 0..out.len() {
            let t = out.slot_time(o);
            // Aggregate input events in [t, t + window).
            let lo = match input.slot_of(input.shape().align_up(t).max(input.slot_time(0))) {
                Some(i) => i,
                None => continue,
            };
            let period = input.shape().period();
            let count = ((window + period - 1) / period) as usize;
            let hi = (lo + count).min(input.len());
            let vals = (lo..hi)
                .filter(|&i| input.is_present(i) && input.slot_time(i) < t + window)
                .map(|i| input.field(0)[i]);
            if let Some(v) = kind.fold(vals) {
                out.write(o, &[v], window.min(out.dim()));
            }
        }
    }

    /// `(time, value bits, duration)` of every present event of `w`.
    fn bits(w: &FWindow) -> Vec<(Tick, u32, Tick)> {
        (w.iter_present())
            .map(|(i, t, _)| (t, w.field(0)[i].to_bits(), w.durations()[i]))
            .collect()
    }

    /// Runs `stage` over one round of input slots from sync time `base`
    /// into `n_out` output slots from sync time `out_base`, as a
    /// one-stage fused kernel does, and returns the output slots' values.
    fn apply_round(
        stage: &mut AggregateStage,
        (base, out_base): (Tick, Tick),
        period: Tick,
        round: &[Option<f32>],
        n_out: usize,
    ) -> Vec<Option<f32>> {
        let vals: Vec<f32> = round.iter().map(|v| v.unwrap_or(f32::NAN)).collect();
        let present: Vec<bool> = round.iter().map(Option::is_some).collect();
        let (mut out_vals, mut out_present) = (vec![0.0f32; n_out], vec![false; n_out]);
        stage.apply(StageIo {
            base,
            out_base,
            period,
            vals: &vals,
            present: &present,
            out_vals: &mut out_vals,
            out_present: &mut out_present,
        });
        (out_vals.iter().zip(&out_present))
            .map(|(&v, &p)| p.then_some(v))
            .collect()
    }

    /// `(length, capacity)` of the stage's three scratch vectors.
    fn scratch_sizes(stage: &AggregateStage) -> [(usize, usize); 3] {
        [
            (stage.vals.len(), stage.vals.capacity()),
            (stage.present.len(), stage.present.capacity()),
            (stage.wide.len(), stage.wide.capacity()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stage for every kind, windows of 1-64 input slots, tumbling
        /// or sliding with strides of 1-5 slots, input offsets off the
        /// round grid (so output slot 0 need not be input slot 0), dense
        /// or gappy input from 1e-6 to 1e6 (window sums that round in
        /// `f64`, `Std`s that cancel), rounds on the window grid or of
        /// ragged, shorter lengths, and skipped rounds. Each output is
        /// `AggKind::fold` over its window's present slots since the last
        /// skip — `[t, t + w)` cut at the round's end for a tumbling
        /// window, `(t - w, t]` for a sliding one — bit for bit; a
        /// tumbling window in a round on its grid is never cut, and on
        /// such rounds [`reference`] gives the same output, durations
        /// included. The scratch keeps its built length and capacity.
        #[test]
        fn sliding_fold_equals_agg_kind_fold_on_present_slots(
            kind in prop::sample::select(KINDS.to_vec()),
            width in 1i64..=64,
            step in 1i64..=5,
            tumbling in any::<bool>(),
            period in 1i64..=3,
            offset in 0i64..120,
            ragged in any::<bool>(),
            sparse in any::<bool>(),
            seed in 1u64..u64::MAX,
        ) {
            let mut s = seed;
            let mut next = |n: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % n
            };
            let (w, step) = if tumbling { (width, width) } else { (width.max(step + 1), step) };
            let (window, stride) = (w * period, step * period);
            let in_shape = StreamShape::new(offset, period);
            let out_shape = in_shape.aggregated(window, stride);
            // One value and presence a tick, from the seed alone.
            let at = |t: Tick| {
                let mut x = (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                x ^= x >> 29;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 32;
                let v = ((x % 4001) as f32 * 0.0137 - 27.0) * 10f32.powi((x >> 12) as i32 % 13 - 6);
                (t >= offset && (!sparse || !(x >> 20).is_multiple_of(4))).then_some(v)
            };
            let grid = (lcm(w, step) as usize).max(50);
            let capacity = 3 * grid;
            let mut stage = AggregateStage::new(kind, window, stride, period, capacity);
            let sizes = scratch_sizes(&stage);
            prop_assert_eq!(sizes[0], (stage.carry + capacity, stage.carry + capacity));
            let (mut sync, mut horizon) = (0, 0);
            for r in 0..5 {
                let slots = if ragged {
                    capacity - next(capacity as u64 / 2) as usize
                } else {
                    lcm(w, step) as usize * (1 + next(3) as usize)
                };
                let end = sync + slots as Tick * period;
                if r > 0 && next(5) == 0 {
                    stage.on_skip();
                    (sync, horizon) = (end, end);
                    continue;
                }
                // A window's grid points before the stream's first one do
                // not exist, as in an `FWindow`.
                let base = in_shape.align_up(sync).max(offset);
                let out_base = out_shape.align_up(sync).max(out_shape.offset());
                let len = ((end - base).max(0) as usize).div_ceil(period as usize);
                let n_out = ((end - out_base).max(0) as usize).div_ceil(stride as usize);
                let round: Vec<Option<f32>> =
                    (0..len as Tick).map(|i| at(base + i * period)).collect();
                let got = if len == 0 {
                    vec![None; n_out] // the kernel runs no stage on an empty round
                } else {
                    apply_round(&mut stage, (base, out_base), period, &round, n_out)
                };
                let on_grid = sync % window == 0 && end % window == 0;
                let want: Vec<Option<f32>> = (0..n_out as Tick)
                    .map(|o| {
                        let t = out_base + o * stride;
                        let from = if tumbling { t } else { t + period - window };
                        let times = (0..w).map(|i| from + i * period);
                        let cut = |u: &Tick| !tumbling || on_grid || (sync..end).contains(u);
                        kind.fold(times.filter(|&u| u >= horizon).filter(cut).filter_map(at))
                    })
                    .collect();
                let ctx = format!("{kind:?} w={window} stride={stride} {in_shape} sync {sync}");
                prop_assert_eq!(
                    got.iter().map(|v| v.map(f32::to_bits)).collect::<Vec<_>>(),
                    want.iter().map(|v| v.map(f32::to_bits)).collect::<Vec<_>>(),
                    "{} walk", ctx
                );
                if tumbling && on_grid {
                    let mut input = empty(in_shape, end - sync, sync, 1);
                    for (i, v) in round.iter().enumerate() {
                        if let Some(v) = *v {
                            input.write(i, &[v], period);
                        }
                    }
                    let mut out = empty(out_shape, end - sync, sync, 1);
                    reference(kind, window, &input, &mut out);
                    let events: Vec<(Tick, u32, Tick)> = (0..n_out)
                        .filter_map(|o| got[o].map(|v| (out.slot_time(o), v.to_bits(), window)))
                        .collect();
                    prop_assert_eq!(events, bits(&out), "{} reference", ctx);
                }
                prop_assert_eq!(scratch_sizes(&stage), sizes, "{} scratch", ctx);
                sync = end;
            }
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
        let mut k = aggregate(AggKind::Mean, 10, 10, 2, 10);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 3.0), (10, 8.0)]);
        assert_eq!(out.durations()[..2], [10, 10]);
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
        let mut k = aggregate(AggKind::Sum, 10, 10, 2, 10);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(10, 4.0)]); // 4 present events remain
    }

    #[test]
    fn sliding_carry_trails_across_rounds_and_dies_on_a_skip() {
        let mut stage = AggregateStage::new(AggKind::Mean, 4, 1, 1, 4);
        let mut round = |sync: Tick, vals: &[f32]| {
            let round: Vec<Option<f32>> = vals.iter().copied().map(Some).collect();
            let out = apply_round(&mut stage, (sync, sync), 1, &round, 4);
            // Three carried slots plus one round, as built: never grows.
            assert_eq!(scratch_sizes(&stage), [(7, 7); 3]);
            out
        };
        // t=3 sees (-1, 3] = 1,2,3,4; the first slots see what exists.
        let out = round(0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(out, [Some(1.0), Some(1.5), Some(2.0), Some(2.5)]);
        // t=4 reaches back into the round before: (0, 4] = 2,3,4,5.
        assert_eq!(round(4, &[5.0, 6.0, 7.0, 8.0])[0], Some(3.5));
        stage.on_skip();
        // After a skipped round the first output sees its own slot only.
        let round = [Some(1.0); 4];
        assert_eq!(
            apply_round(&mut stage, (12, 12), 1, &round, 4)[0],
            Some(1.0)
        );
        assert_eq!(scratch_sizes(&stage), [(7, 7); 3]);
    }

    #[test]
    fn tumbling_windows_sit_on_the_window_grid() {
        // Input (13, 2), window 10: the windows are [10, 20), [20, 30), ...
        // each emitted at its first input grid point, so the first one,
        // at 11, holds the events at 13..=19 and none crosses a round.
        let s_in = StreamShape::new(13, 2);
        let s_out = s_in.aggregated(10, 10);
        assert_eq!(s_out, StreamShape::new(11, 10));
        let mut k = aggregate(AggKind::Count, 10, 10, 2, 10);
        let mut round = |sync: Tick| {
            let mut input = empty(s_in, 20, sync, 1);
            for i in 0..input.len() {
                input.write(i, &[1.0], 2);
            }
            let mut out = empty(s_out, 20, sync, 1);
            k.process(&[&input], &mut out);
            (events(&out), out.durations()[..out.len()].to_vec())
        };
        assert_eq!(round(0), (vec![(11, 4.0)], vec![10]));
        assert_eq!(round(20), (vec![(21, 5.0), (31, 5.0)], vec![10, 10]));
    }
}
