//! First-class FIR filtering: the `pass_filter` hot path as its own
//! operator instead of a `Transform` closure.
//!
//! Semantics are *clean run convolution*: within each maximal run of
//! present samples, `y[t] = Σₖ taps[k] · x[t − k·period]`, where samples
//! before the run's start contribute nothing — any gap resets the filter
//! (on dense data this is exactly the textbook convolution with warm-up
//! partials, matching the old closure-based `pass_filter`). Output is
//! present exactly where input is present. Up to `taps − 1` trailing
//! samples of a run carry across round boundaries in kernel state
//! (`FirState`), so a run spanning rounds filters identically to the
//! same run inside one round; a skipped round clears the carry, which is
//! consistent because a skipped round is an all-absent round.
//!
//! Both the staged [`FirKernel`] and the fused stage it converts into run
//! the *same* accumulation code (`FirState::apply_run`): a per-sample
//! history-aware head for the first `taps − 1` positions of a run, then a
//! branch-free dense interior — a fixed-trip tap loop over independent
//! output positions, the autovectorization-friendly shape the fusion pass
//! is built around. Identical code ⟹ bit-identical output, which the
//! differential battery's fused-vs-staged arm checks.

use crate::fuse::{for_each_run, FusedStage, StageIo};
use crate::fwindow::FWindow;
use crate::ops::Kernel;

/// FIR filter state shared by the staged kernel and the fused stage: the
/// taps plus the carried tail (up to `taps − 1` most recent samples of a
/// present run still in progress).
#[derive(Debug, Clone)]
pub(crate) struct FirState {
    taps: Vec<f32>,
    /// Carried run tail, oldest first; `len <= taps.len() - 1`.
    hist: Vec<f32>,
}

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

impl FirState {
    pub(crate) fn new(taps: Vec<f32>) -> Self {
        let m = taps.len().saturating_sub(1);
        Self {
            taps,
            hist: Vec::with_capacity(m),
        }
    }

    /// Drops the carried tail (gap in the data / skipped round / reset).
    pub(crate) fn clear(&mut self) {
        self.hist.clear();
    }

    /// Filters one contiguous present run into `out` (same length).
    /// History carries in from the previous run fragment and is updated
    /// to this run's tail on exit. Never allocates (`hist` stays within
    /// its construction capacity).
    pub(crate) fn apply_run(&mut self, run: &[f32], out: &mut [f32]) {
        debug_assert_eq!(run.len(), out.len());
        let taps = &self.taps;
        let m = taps.len() - 1;
        // Head: output positions whose window reaches before the run.
        let head_end = run.len().min(m);
        for (j, o) in out.iter_mut().enumerate().take(head_end) {
            *o = dot_with_history(taps, run, j, &self.hist);
        }
        // Dense interior: every tap reads inside the run. Fixed-trip tap
        // loop, independent output positions — flat and vectorizable.
        // Ascending-k accumulation matches `dot_with_history` exactly.
        for j in head_end..run.len() {
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

/// Staged FIR kernel: walks the input window's presence runs, filtering
/// each through `FirState::apply_run`. Output durations are rewritten
/// to the grid period (like `Transform`, whose closure-based
/// `pass_filter` this operator replaces).
pub struct FirKernel {
    state: FirState,
    /// Per-run output staging, sized to one round.
    out_buf: Vec<f32>,
}

impl FirKernel {
    /// Creates a FIR kernel. `capacity` bounds one round's slots.
    ///
    /// # Panics
    /// Panics on empty taps
    /// ([`Stream::pass_filter`](crate::stream::Stream::pass_filter)
    /// validates first).
    pub fn new(taps: Vec<f32>, capacity: usize) -> Self {
        assert!(!taps.is_empty(), "FIR requires at least one tap");
        Self {
            state: FirState::new(taps),
            out_buf: vec![0.0; capacity],
        }
    }
}

impl Kernel for FirKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        debug_assert_eq!(input.len(), out.len());
        let period = input.shape().period();
        let len = input.len();
        let col = input.field(0);
        let mut last_hi = 0usize;
        for (lo, hi) in input.presence().iter_runs() {
            if lo > last_hi {
                // A gap precedes this run (also covers an absent round
                // start, since last_hi begins at 0).
                self.state.clear();
            }
            let buf = &mut self.out_buf[..hi - lo];
            self.state.apply_run(&col[lo..hi], buf);
            for (j, &y) in buf.iter().enumerate() {
                out.write(lo + j, &[y], period);
            }
            last_hi = hi;
        }
        if last_hi < len {
            // Trailing gap (or fully absent round): the carry dies here.
            self.state.clear();
        }
    }

    fn on_skip(&mut self) {
        self.state.clear();
    }

    fn reset(&mut self) {
        self.state.clear();
    }

    fn supports_fusion(&self) -> bool {
        true
    }

    fn take_stage(&mut self) -> Option<Box<dyn FusedStage>> {
        Some(Box::new(FusedFirStage {
            state: std::mem::replace(&mut self.state, FirState::new(vec![0.0])),
        }))
    }
}

impl std::fmt::Debug for FirKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FirKernel")
            .field("taps", &self.state.taps.len())
            .finish()
    }
}

/// Fused-stage form of [`FirKernel`]: the same run walk and the same
/// [`FirState::apply_run`], writing straight into the chain's flat output
/// column (no per-slot window writes at all).
struct FusedFirStage {
    state: FirState,
}

impl FusedStage for FusedFirStage {
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
                self.state.clear();
            }
            self.state.apply_run(&vals[lo..hi], &mut out_vals[lo..hi]);
            out_present[lo..hi].fill(true);
            last_hi = hi;
        });
        if last_hi < len {
            self.state.clear();
        }
    }

    fn on_skip(&mut self) {
        self.state.clear();
    }

    fn reset(&mut self) {
        self.state.clear();
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

    #[test]
    fn dense_fir_matches_direct_convolution() {
        let s = StreamShape::new(0, 1);
        let taps = vec![0.5f32, 0.3, 0.2];
        let x: Vec<f32> = (0..10).map(|i| (i * i) as f32 * 0.25).collect();
        let input = filled(s, 10, 0, &x);
        let mut out = empty(s, 10, 0, 1);
        let mut k = FirKernel::new(taps.clone(), 10);
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
        let mut k = FirKernel::new(taps, 6);
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
        let mut k = FirKernel::new(taps, 4);
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
        let mut k = FirKernel::new(vec![0.5, 0.5], 2);
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
        let mut k = FirKernel::new(vec![3.0], 4);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 3.0), (2, 6.0), (4, 9.0), (6, 12.0)]);
    }
}
