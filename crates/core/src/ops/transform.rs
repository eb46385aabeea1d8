//! `Transform(w)`: user-defined window-to-window transformations — the
//! escape hatch that lets third-party numeric code (FIR filters,
//! interpolation, imputation) run inside the streaming pipeline (§6.1).

use crate::fuse::{for_each_run, FusedStage, StageIo};
use crate::fwindow::FWindow;
use crate::ops::Kernel;
use crate::time::Tick;

/// Borrowed view of one transform sub-window: input values with presence,
/// and output values with presence to fill.
///
/// Slot `i` of both sides corresponds to sync time `base + i * period`.
#[derive(Debug)]
pub struct TransformCtx<'a> {
    /// Sync time of slot 0.
    pub base: Tick,
    /// Event period.
    pub period: Tick,
    /// True on the first sub-window after the kernel was constructed,
    /// [`reset`](crate::ops::Kernel::reset) (executor recycled onto a new
    /// dataset), or a skipped round (targeted processing jumped a gap).
    /// Stateful closures must drop carried history when this is set — the
    /// time axis is not continuous with whatever they saw last.
    pub fresh: bool,
    /// Input values (slot-indexed, including absent slots' stale values).
    pub input: &'a [f32],
    /// Input presence, one flag per slot.
    pub present: &'a [bool],
    /// Output values to fill.
    pub output: &'a mut [f32],
    /// Output presence to fill (pre-cleared).
    pub out_present: &'a mut [bool],
}

/// The user transformation. Called once per `w`-sized sub-window.
pub type TransformFn = Box<dyn FnMut(TransformCtx<'_>) + Send>;

/// `Transform(w)` kernel: slices the round into `w`-tick sub-windows and
/// applies the user function to each. Input and output must share the same
/// grid and be single-field (arity 1).
pub struct TransformKernel {
    window: Tick,
    f: TransformFn,
    in_flags: Vec<bool>,
    out_vals: Vec<f32>,
    out_flags: Vec<bool>,
    fresh: bool,
}

impl TransformKernel {
    /// Creates a transform kernel over `window`-tick sub-windows for a
    /// stream of period `period`. `capacity` bounds one round's slots.
    pub fn new(window: Tick, period: Tick, capacity: usize, f: TransformFn) -> Self {
        let sub = (window / period) as usize;
        Self {
            window,
            f,
            in_flags: vec![false; sub.max(capacity)],
            out_vals: vec![0.0; sub.max(capacity)],
            out_flags: vec![false; sub.max(capacity)],
            fresh: true,
        }
    }
}

impl Kernel for TransformKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        let period = input.shape().period();
        let sub = (self.window / period) as usize;
        debug_assert!(sub > 0);
        input.presence().unpack_into(&mut self.in_flags);
        let mut start = 0usize;
        while start < input.len() {
            let end = (start + sub).min(input.len());
            let n = end - start;
            // Closures that set presence without writing must see 0.0.
            self.out_vals[..n].fill(0.0);
            self.out_flags[..n].fill(false);
            (self.f)(TransformCtx {
                base: input.slot_time(start),
                period,
                fresh: self.fresh,
                input: &input.field(0)[start..end],
                present: &self.in_flags[start..end],
                output: &mut self.out_vals[..n],
                out_present: &mut self.out_flags[..n],
            });
            self.fresh = false;
            for_each_run(&self.out_flags[..n], |lo, hi| {
                out.fill_from_slice(start + lo, &self.out_vals[lo..hi], period)
            });
            start = end;
        }
    }

    fn on_skip(&mut self) {
        // A skipped round breaks time continuity for the closure.
        self.fresh = true;
    }

    fn reset(&mut self) {
        self.fresh = true;
    }

    fn supports_fusion(&self) -> bool {
        true
    }

    fn take_stage(&mut self) -> Option<Box<dyn FusedStage>> {
        Some(Box::new(FusedTransformStage {
            window: self.window,
            f: std::mem::replace(&mut self.f, Box::new(|_| {})),
            fresh: self.fresh,
        }))
    }
}

/// Fused-stage form of [`TransformKernel`]: the identical sub-window loop
/// (same `TransformCtx` slices, same zeroed output scratch, same `fresh`
/// transitions), but reading/writing the fused chain's flat columns
/// instead of copying into kernel-private scratch.
struct FusedTransformStage {
    window: Tick,
    f: TransformFn,
    fresh: bool,
}

impl FusedStage for FusedTransformStage {
    fn apply(&mut self, io: StageIo<'_>) {
        let StageIo {
            base,
            period,
            vals,
            present,
            out_vals,
            out_present,
        } = io;
        let sub = (self.window / period) as usize;
        debug_assert!(sub > 0);
        let len = vals.len();
        let mut start = 0usize;
        while start < len {
            let end = (start + sub).min(len);
            // Staged kernels zero their output scratch per sub-window;
            // closures that set presence without writing must see 0.0.
            out_vals[start..end].fill(0.0);
            (self.f)(TransformCtx {
                base: base + start as Tick * period,
                period,
                fresh: self.fresh,
                input: &vals[start..end],
                present: &present[start..end],
                output: &mut out_vals[start..end],
                out_present: &mut out_present[start..end],
            });
            self.fresh = false;
            start = end;
        }
    }

    fn on_skip(&mut self) {
        self.fresh = true;
    }

    fn reset(&mut self) {
        self.fresh = true;
    }

    fn resets_durations(&self) -> bool {
        true
    }
}

impl std::fmt::Debug for TransformKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformKernel")
            .field("window", &self.window)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{empty, events, filled};
    use crate::time::StreamShape;

    #[test]
    fn identity_transform_passes_through() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 8, 0, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = empty(s, 8, 0, 1);
        let mut k = TransformKernel::new(
            4,
            2,
            4,
            Box::new(|ctx: TransformCtx<'_>| {
                for i in 0..ctx.input.len() {
                    ctx.output[i] = ctx.input[i];
                    ctx.out_present[i] = ctx.present[i];
                }
            }),
        );
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 1.0), (2, 2.0), (4, 3.0), (6, 4.0)]);
    }

    #[test]
    fn windowed_reverse_respects_subwindow_boundaries() {
        let s = StreamShape::new(0, 1);
        let input = filled(s, 4, 0, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = empty(s, 4, 0, 1);
        let mut k = TransformKernel::new(
            2,
            1,
            4,
            Box::new(|ctx: TransformCtx<'_>| {
                let n = ctx.input.len();
                for i in 0..n {
                    ctx.output[i] = ctx.input[n - 1 - i];
                    ctx.out_present[i] = true;
                }
            }),
        );
        k.process(&[&input], &mut out);
        assert_eq!(out.field(0), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn transform_can_fill_gaps() {
        // Linear fill of absent slots from neighbours — the Resample /
        // FillMean building block.
        let s = StreamShape::new(0, 1);
        let mut input = filled(s, 4, 0, &[1.0, 0.0, 0.0, 4.0]);
        input.clear_slot(1);
        input.clear_slot(2);
        let mut out = empty(s, 4, 0, 1);
        let mut k = TransformKernel::new(
            4,
            1,
            4,
            Box::new(|ctx: TransformCtx<'_>| {
                // Fill absent slots by linear interpolation between the
                // nearest present neighbours.
                let n = ctx.input.len();
                for i in 0..n {
                    if ctx.present[i] {
                        ctx.output[i] = ctx.input[i];
                        ctx.out_present[i] = true;
                        continue;
                    }
                    let prev = (0..i).rev().find(|&j| ctx.present[j]);
                    let next = (i + 1..n).find(|&j| ctx.present[j]);
                    if let (Some(a), Some(b)) = (prev, next) {
                        let frac = (i - a) as f32 / (b - a) as f32;
                        ctx.output[i] = ctx.input[a] + frac * (ctx.input[b] - ctx.input[a]);
                        ctx.out_present[i] = true;
                    }
                }
            }),
        );
        k.process(&[&input], &mut out);
        assert_eq!(out.present_count(), 4);
        assert_eq!(out.field(0), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn partial_tail_window_is_processed() {
        let s = StreamShape::new(0, 1);
        let input = filled(s, 3, 0, &[1.0, 2.0, 3.0]);
        let mut out = empty(s, 3, 0, 1);
        let mut k = TransformKernel::new(
            2,
            1,
            3,
            Box::new(|ctx: TransformCtx<'_>| {
                for i in 0..ctx.input.len() {
                    ctx.output[i] = ctx.input[i] * 2.0;
                    ctx.out_present[i] = ctx.present[i];
                }
            }),
        );
        k.process(&[&input], &mut out);
        assert_eq!(out.field(0), &[2.0, 4.0, 6.0]);
    }
}
