//! `Transform(w)`: user-defined window-to-window transformations — the
//! escape hatch that lets third-party numeric code (FIR filters,
//! interpolation, imputation) run inside the streaming pipeline (§6.1).

use crate::fuse::{FusedStage, StageIo};
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
    /// True on the first sub-window after the operator was built, reset
    /// (executor recycled onto a new dataset), or a skipped round
    /// (targeted processing jumped a gap).
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

/// `Transform(w)`: slices the round into `w`-tick sub-windows, the spans
/// `[k · w, (k + 1) · w)` (so none straddles a round, whose length is a
/// multiple of `w`), and applies the user function to each one's slots.
/// Input and output share one grid and are
/// single-field (arity 1). It exists only as a stage: outside a fusion
/// group it runs as a one-stage
/// [`FusedKernel`](crate::fuse::FusedKernel).
pub(crate) struct TransformStage {
    window: Tick,
    f: TransformFn,
    fresh: bool,
}

impl TransformStage {
    /// Creates a transform over `window`-tick sub-windows.
    pub(crate) fn new(window: Tick, f: TransformFn) -> Self {
        Self {
            window,
            f,
            fresh: true,
        }
    }
}

impl FusedStage for TransformStage {
    fn apply(&mut self, io: StageIo<'_>) {
        let StageIo {
            base,
            period,
            vals,
            present,
            out_vals,
            out_present,
            ..
        } = io;
        let len = vals.len();
        let mut start = 0usize;
        while start < len {
            // This sub-window ends at the next multiple of `w`.
            let t = base + start as Tick * period;
            let ticks = self.window - t.rem_euclid(self.window);
            let end = (start + ((ticks + period - 1) / period) as usize).min(len);
            // Closures that set presence without writing must see 0.0.
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
        // A skipped round breaks time continuity for the closure.
        self.fresh = true;
    }

    fn reset(&mut self) {
        self.fresh = true;
    }

    fn resets_durations(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::FusedKernel;
    use crate::ops::testutil::{empty, events, filled};
    use crate::ops::Kernel;
    use crate::time::StreamShape;

    /// The transform as the plan runs it outside a fusion group: a
    /// one-stage fused kernel with scratch for `capacity` slots.
    fn transform(window: Tick, capacity: usize, f: TransformFn) -> FusedKernel {
        FusedKernel::new(vec![Box::new(TransformStage::new(window, f))], capacity)
    }

    #[test]
    fn identity_transform_passes_through() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 8, 0, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = empty(s, 8, 0, 1);
        let mut k = transform(
            4,
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
        let mut k = transform(
            2,
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
        let mut k = transform(
            4,
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
        let mut k = transform(
            2,
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
