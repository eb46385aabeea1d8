//! First-class FIR filtering: the `pass_filter` hot path as its own
//! operator instead of a `Transform` closure.
//!
//! Semantics are *clean run convolution*: within each maximal run of
//! present samples, `y[t] = Σₖ taps[k] · x[t − k·period]`, where samples
//! before the run's start contribute nothing — any gap resets the filter
//! (on dense data this is exactly the textbook convolution with warm-up
//! partials, matching the old closure-based `pass_filter`). Output is
//! present exactly where input is present. Up to `taps − 1` trailing
//! samples of a run carry across round boundaries in the stage's state,
//! so a run spanning rounds filters identically to the
//! same run inside one round; a skipped round clears the carry, which is
//! consistent because a skipped round is an all-absent round.
//!
//! The operator is one [`FusedStage`], `FirStage`, in the fused and the
//! staged plan alike (outside a fusion group it runs as a one-stage
//! [`FusedKernel`](crate::fuse::FusedKernel)). Each run goes through
//! `FirStage::apply_run`: a per-sample history-aware head for the first
//! `taps − 1` positions of a run, then a branch-free dense interior in
//! blocks of eight output positions. Within a block the taps are the
//! outer loop: each tap is multiplied into all eight inputs it meets and
//! added to eight accumulators that stay in two vector registers, so the
//! block costs one short dependent chain per tap instead of one long
//! chain per output. Each position still accumulates from `0.0` in
//! ascending tap order, the op sequence of the head, so the blocking
//! changes no output bit. The fewer than eight positions left at a run's
//! end are filtered one by one, in that same order.

use crate::fuse::{for_each_run, FusedStage, StageIo};

/// Output positions the dense interior filters together: eight `f32`
/// accumulators are two vector registers of the baseline x86-64 target.
const BLOCK: usize = 8;

/// One output sample with history reach-back: `y = Σₖ taps[k] · x[j−k]`,
/// where `x` is `run` for in-run offsets and `hist` (most recent last)
/// for samples before the run start. f32 accumulation in ascending-k
/// order — the single op sequence every FIR path in the crate executes.
#[inline]
fn dot_with_history(taps: &[f32], run: &[f32], j: usize, hist: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (k, &tap) in taps.iter().enumerate() {
        let x = if k <= j {
            run[j - k]
        } else {
            let back = k - j;
            if back > hist.len() {
                // Older taps reach even further back; nothing contributes.
                break;
            }
            hist[hist.len() - back]
        };
        acc += tap * x;
    }
    acc
}

/// `PassFilter`: walks the round's presence runs, filtering each through
/// [`apply_run`](Self::apply_run) straight into the output column.
/// Output durations are rewritten to the grid period.
pub(crate) struct FirStage {
    taps: Vec<f32>,
    /// Carried run tail, oldest first; `len <= taps.len() - 1`.
    hist: Vec<f32>,
}

impl FirStage {
    /// Creates a FIR stage.
    ///
    /// # Panics
    /// Panics on empty taps
    /// ([`Stream::pass_filter`](crate::stream::Stream::pass_filter)
    /// validates first).
    pub(crate) fn new(taps: Vec<f32>) -> Self {
        assert!(!taps.is_empty(), "FIR requires at least one tap");
        let m = taps.len() - 1;
        Self {
            taps,
            hist: Vec::with_capacity(m),
        }
    }

    /// Drops the carried tail (gap in the data / skipped round / reset).
    fn clear(&mut self) {
        self.hist.clear();
    }

    /// Filters one contiguous present run into `out` (same length).
    /// History carries in from the previous run fragment and is updated
    /// to this run's tail on exit. Never allocates (`hist` stays within
    /// its construction capacity).
    fn apply_run(&mut self, run: &[f32], out: &mut [f32]) {
        debug_assert_eq!(run.len(), out.len());
        let taps = &self.taps;
        let m = taps.len() - 1;
        // Head: output positions whose window reaches before the run.
        let head_end = run.len().min(m);
        for (j, o) in out.iter_mut().enumerate().take(head_end) {
            *o = dot_with_history(taps, run, j, &self.hist);
        }
        // Dense interior, `BLOCK` positions at a time with the taps
        // outermost (see the module docs). Every position still
        // accumulates in ascending k from 0.0, the op sequence of
        // `dot_with_history`.
        let mut j = head_end;
        while j + BLOCK <= run.len() {
            let mut acc = [0.0f32; BLOCK];
            for (k, &tap) in taps.iter().enumerate() {
                let x: &[f32; BLOCK] = run[j - k..][..BLOCK].try_into().unwrap();
                for (a, &x) in acc.iter_mut().zip(x) {
                    *a += tap * x;
                }
            }
            out[j..j + BLOCK].copy_from_slice(&acc);
            j += BLOCK;
        }
        // The remainder of fewer than a block, position by position.
        for j in j..run.len() {
            let win = &run[j - m..=j];
            let mut acc = 0.0f32;
            for (k, &tap) in taps.iter().enumerate() {
                acc += tap * win[m - k];
            }
            out[j] = acc;
        }
        // Carry the run tail: the last `m` samples of (hist ++ run).
        if m > 0 {
            if run.len() >= m {
                self.hist.clear();
                self.hist.extend_from_slice(&run[run.len() - m..]);
            } else {
                let keep = m - run.len();
                let drop = self.hist.len().saturating_sub(keep);
                self.hist.drain(..drop);
                self.hist.extend_from_slice(run);
            }
        }
    }
}

impl FusedStage for FirStage {
    fn apply(&mut self, io: StageIo<'_>) {
        let StageIo {
            vals,
            present,
            out_vals,
            out_present,
            ..
        } = io;
        let len = vals.len();
        let mut last_hi = 0usize;
        for_each_run(present, |lo, hi| {
            if lo > last_hi {
                // A gap precedes this run (also covers an absent round
                // start, since last_hi begins at 0).
                self.clear();
            }
            self.apply_run(&vals[lo..hi], &mut out_vals[lo..hi]);
            out_present[lo..hi].fill(true);
            last_hi = hi;
        });
        if last_hi < len {
            // Trailing gap (or fully absent round): the carry dies here.
            self.clear();
        }
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
}

/// The per-slot FIR interior the blocked one replaced, kept unchanged as
/// the reference the blocked stage is checked against bit for bit: one
/// ascending-k dot product per output position.
#[cfg(test)]
mod reference {
    use super::dot_with_history;
    use crate::fuse::{for_each_run, FusedStage, StageIo};

    pub(super) struct FirStage {
        taps: Vec<f32>,
        hist: Vec<f32>,
    }

    impl FirStage {
        pub(super) fn new(taps: Vec<f32>) -> Self {
            let m = taps.len() - 1;
            Self {
                taps,
                hist: Vec::with_capacity(m),
            }
        }

        fn apply_run(&mut self, run: &[f32], out: &mut [f32]) {
            let taps = &self.taps;
            let m = taps.len() - 1;
            let head_end = run.len().min(m);
            for (j, o) in out.iter_mut().enumerate().take(head_end) {
                *o = dot_with_history(taps, run, j, &self.hist);
            }
            for j in head_end..run.len() {
                let win = &run[j - m..=j];
                let mut acc = 0.0f32;
                for (k, &tap) in taps.iter().enumerate() {
                    acc += tap * win[m - k];
                }
                out[j] = acc;
            }
            if m > 0 {
                if run.len() >= m {
                    self.hist.clear();
                    self.hist.extend_from_slice(&run[run.len() - m..]);
                } else {
                    let keep = m - run.len();
                    let drop = self.hist.len().saturating_sub(keep);
                    self.hist.drain(..drop);
                    self.hist.extend_from_slice(run);
                }
            }
        }
    }

    impl FusedStage for FirStage {
        fn apply(&mut self, io: StageIo<'_>) {
            let StageIo {
                vals,
                present,
                out_vals,
                out_present,
                ..
            } = io;
            let mut last_hi = 0usize;
            for_each_run(present, |lo, hi| {
                if lo > last_hi {
                    self.hist.clear();
                }
                self.apply_run(&vals[lo..hi], &mut out_vals[lo..hi]);
                out_present[lo..hi].fill(true);
                last_hi = hi;
            });
            if last_hi < vals.len() {
                self.hist.clear();
            }
        }

        fn on_skip(&mut self) {
            self.hist.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::FusedKernel;
    use crate::ops::testutil::{empty, events, filled};
    use crate::ops::Kernel;
    use crate::time::StreamShape;
    use proptest::prelude::*;

    /// Runs `stage` over one round and returns its output, absent slots
    /// as `None` and present ones as their bits.
    fn round(stage: &mut dyn FusedStage, vals: &[f32], present: &[bool]) -> Vec<Option<u32>> {
        let mut out_vals = vec![f32::NAN; vals.len()];
        let mut out_present = vec![false; vals.len()];
        stage.apply(StageIo {
            base: 0,
            out_base: 0,
            period: 1,
            vals,
            present,
            out_vals: &mut out_vals,
            out_present: &mut out_present,
        });
        (out_vals.iter().zip(&out_present))
            .map(|(v, &p)| p.then_some(v.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The blocked interior equals the per-slot reference bit for bit
        /// over 1-40 taps, runs shorter than the head, exactly a block, a
        /// block and one more, and around other multiples of the block,
        /// gaps between them, odd round sizes, runs carried across round
        /// edges and skipped rounds.
        #[test]
        fn blocked_interior_equals_per_slot_reference(
            taps in prop::collection::vec(-2.0f32..2.0, 1..=40),
            rounds in 1usize..=6,
            seed in 1u64..u64::MAX,
        ) {
            let mut s = seed;
            let mut next = |n: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % n
            };
            let m = taps.len() - 1;
            let mut new = FirStage::new(taps.clone());
            let mut old = reference::FirStage::new(taps.clone());
            for r in 0..rounds {
                if r > 0 && next(5) == 0 {
                    new.on_skip();
                    old.on_skip();
                }
                let len = 1 + 2 * next(150) as usize;
                let mut present = Vec::with_capacity(len);
                while present.len() < len {
                    let run = match next(4) {
                        0 => next(m as u64 + 1) as usize,
                        1 => BLOCK * (1 + next(4) as usize) + next(3) as usize - 1,
                        2 => m + BLOCK * next(3) as usize + next(2) as usize,
                        _ => next(60) as usize,
                    };
                    present.extend(std::iter::repeat_n(true, run));
                    present.extend(std::iter::repeat_n(false, next(3) as usize));
                }
                present.truncate(len);
                let vals: Vec<f32> = (0..len).map(|_| next(4001) as f32 * 0.0137 - 27.0).collect();
                let got = round(&mut new, &vals, &present);
                let want = round(&mut old, &vals, &present);
                prop_assert_eq!(got, want, "taps {} round {}", taps.len(), r);
            }
        }
    }

    /// The filter as the plan runs it outside a fusion group: a one-stage
    /// fused kernel with scratch for `capacity` slots.
    fn fir(taps: Vec<f32>, capacity: usize) -> FusedKernel {
        FusedKernel::new(vec![Box::new(FirStage::new(taps))], capacity)
    }

    #[test]
    fn dense_fir_matches_direct_convolution() {
        let s = StreamShape::new(0, 1);
        let taps = vec![0.5f32, 0.3, 0.2];
        let x: Vec<f32> = (0..10).map(|i| (i * i) as f32 * 0.25).collect();
        let input = filled(s, 10, 0, &x);
        let mut out = empty(s, 10, 0, 1);
        let mut k = fir(taps.clone(), 10);
        k.process(&[&input], &mut out);
        for (j, &(t, y)) in events(&out).iter().enumerate() {
            assert_eq!(t, j as i64);
            let mut want = 0.0f32;
            for (kk, &tap) in taps.iter().enumerate() {
                if kk <= j {
                    want += tap * x[j - kk];
                }
            }
            assert_eq!(y, want, "slot {j}");
        }
    }

    #[test]
    fn gap_resets_the_filter() {
        let s = StreamShape::new(0, 1);
        let taps = vec![0.5f32, 0.5];
        let mut input = filled(s, 6, 0, &[8.0, 8.0, 8.0, 0.0, 2.0, 2.0]);
        input.clear_slot(3);
        let mut out = empty(s, 6, 0, 1);
        let mut k = fir(taps, 6);
        k.process(&[&input], &mut out);
        let ev = events(&out);
        assert_eq!(ev.len(), 5);
        // First slot after the gap must not see pre-gap samples.
        assert_eq!(ev[3], (4, 1.0)); // 0.5 * 2.0, no history
        assert_eq!(ev[4], (5, 2.0));
    }

    #[test]
    fn history_carries_across_rounds_when_run_continues() {
        let s = StreamShape::new(0, 1);
        let taps = vec![0.25f32, 0.25, 0.25, 0.25];
        let mut k = fir(taps, 4);
        let in1 = filled(s, 4, 0, &[4.0, 4.0, 4.0, 4.0]);
        let mut out1 = empty(s, 4, 0, 1);
        k.process(&[&in1], &mut out1);
        let in2 = filled(s, 4, 4, &[4.0, 4.0, 4.0, 4.0]);
        let mut out2 = empty(s, 4, 4, 1);
        k.process(&[&in2], &mut out2);
        // Slot 4's window covers slots 1..=4 — all 4.0 — so a broken
        // carry would show up as a warm-up dip.
        assert_eq!(events(&out2)[0], (4, 4.0));
    }

    #[test]
    fn skip_clears_carry() {
        let s = StreamShape::new(0, 1);
        let mut k = fir(vec![0.5, 0.5], 2);
        let in1 = filled(s, 2, 0, &[10.0, 10.0]);
        let mut out1 = empty(s, 2, 0, 1);
        k.process(&[&in1], &mut out1);
        k.on_skip();
        let in2 = filled(s, 2, 4, &[2.0, 2.0]);
        let mut out2 = empty(s, 2, 4, 1);
        k.process(&[&in2], &mut out2);
        assert_eq!(events(&out2)[0], (4, 1.0)); // no stale history
    }

    #[test]
    fn single_tap_is_pure_scaling() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 8, 0, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = empty(s, 8, 0, 1);
        let mut k = fir(vec![3.0], 4);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 3.0), (2, 6.0), (4, 9.0), (6, 12.0)]);
    }
}
