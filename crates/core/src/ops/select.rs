//! `Select` (payload projection) and `Where` (predicate filter) kernels —
//! the stateless elementwise operators.

use crate::fuse::{for_each_run, FusedStage, StageIo};
use crate::fwindow::{FWindow, MAX_ARITY};
use crate::ops::Kernel;

/// Projection function applied to each present event's payload.
pub type SelectFn = Box<dyn FnMut(&[f32], &mut [f32]) + Send>;

/// `Select`: applies a user projection to every present event. Grid,
/// presence, and durations pass through unchanged; only the payload (and
/// possibly its arity) changes.
pub struct SelectKernel {
    f: SelectFn,
    in_arity: usize,
    out_arity: usize,
    in_buf: [f32; MAX_ARITY],
    out_buf: [f32; MAX_ARITY],
}

impl SelectKernel {
    /// Creates a select kernel with the given in/out arity and projection.
    pub fn new(in_arity: usize, out_arity: usize, f: SelectFn) -> Self {
        Self {
            f,
            in_arity,
            out_arity,
            in_buf: [0.0; MAX_ARITY],
            out_buf: [0.0; MAX_ARITY],
        }
    }
}

impl Kernel for SelectKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        debug_assert_eq!(input.len(), out.len());
        for i in 0..input.len() {
            if !input.is_present(i) {
                continue;
            }
            input.read(i, &mut self.in_buf[..self.in_arity]);
            (self.f)(
                &self.in_buf[..self.in_arity],
                &mut self.out_buf[..self.out_arity],
            );
            out.write(i, &self.out_buf[..self.out_arity], input.duration(i));
        }
    }
}

/// Fused-stage form of a single-field [`SelectKernel`], built for a
/// fusion group member: same closure, same per-present-slot invocation
/// order, but over flat scratch runs. Generic over the closure, so the
/// per-slot call inlines. The output buffer persists across calls exactly
/// like the staged kernel's, so closures that leave outputs unwritten
/// observe identical values.
pub(crate) struct FusedSelectStage<F> {
    f: F,
    out_buf: [f32; 1],
}

impl<F> FusedSelectStage<F> {
    /// Creates the stage of a single-field select.
    pub(crate) fn new(f: F) -> Self {
        Self { f, out_buf: [0.0] }
    }
}

impl<F: FnMut(&[f32], &mut [f32]) + Send> FusedStage for FusedSelectStage<F> {
    fn apply(&mut self, io: StageIo<'_>) {
        let StageIo {
            vals,
            present,
            out_vals,
            out_present,
            ..
        } = io;
        // A local copy for the loop keeps the buffer in a register.
        let mut out_buf = self.out_buf;
        for_each_run(present, |lo, hi| {
            for (&v, o) in vals[lo..hi].iter().zip(&mut out_vals[lo..hi]) {
                (self.f)(&[v], &mut out_buf);
                *o = out_buf[0];
            }
            out_present[lo..hi].fill(true);
        });
        self.out_buf = out_buf;
    }
}

impl std::fmt::Debug for SelectKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectKernel")
            .field("in_arity", &self.in_arity)
            .field("out_arity", &self.out_arity)
            .finish()
    }
}

/// Predicate applied to each present event's payload.
pub type WhereFn = Box<dyn FnMut(&[f32]) -> bool + Send>;

/// `Where`: copies events through, marking those failing the predicate
/// absent. Absence is recorded in the bitvector — the columnar buffers are
/// not compacted, preserving index ↔ sync-time alignment (§6.2).
pub struct WhereKernel {
    pred: WhereFn,
    arity: usize,
    buf: [f32; MAX_ARITY],
}

impl WhereKernel {
    /// Creates a where kernel over `arity`-wide payloads.
    pub fn new(arity: usize, pred: WhereFn) -> Self {
        Self {
            pred,
            arity,
            buf: [0.0; MAX_ARITY],
        }
    }
}

impl Kernel for WhereKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        debug_assert_eq!(input.len(), out.len());
        for i in 0..input.len() {
            if !input.is_present(i) {
                continue;
            }
            input.read(i, &mut self.buf[..self.arity]);
            if (self.pred)(&self.buf[..self.arity]) {
                out.write(i, &self.buf[..self.arity], input.duration(i));
            }
        }
    }
}

/// Fused-stage form of a single-field [`WhereKernel`], built for a
/// fusion group member: the same predicate called in the same order,
/// surviving values copied through. Generic over the predicate, so the
/// per-slot call inlines.
pub(crate) struct FusedWhereStage<F> {
    pred: F,
}

impl<F> FusedWhereStage<F> {
    /// Creates the stage of a single-field where.
    pub(crate) fn new(pred: F) -> Self {
        Self { pred }
    }
}

impl<F: FnMut(&[f32]) -> bool + Send> FusedStage for FusedWhereStage<F> {
    fn apply(&mut self, io: StageIo<'_>) {
        let StageIo {
            vals,
            present,
            out_vals,
            out_present,
            ..
        } = io;
        for_each_run(present, |lo, hi| {
            for i in lo..hi {
                if (self.pred)(&[vals[i]]) {
                    out_vals[i] = vals[i];
                    out_present[i] = true;
                }
            }
        });
    }
}

impl std::fmt::Debug for WhereKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WhereKernel")
            .field("arity", &self.arity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{empty, events, filled};
    use crate::time::StreamShape;

    #[test]
    fn select_projects_payload() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 10, 0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut out = empty(s, 10, 0, 1);
        let mut k = SelectKernel::new(1, 1, Box::new(|i, o| o[0] = i[0] * 10.0));
        k.process(&[&input], &mut out);
        assert_eq!(
            events(&out),
            vec![(0, 10.0), (2, 20.0), (4, 30.0), (6, 40.0), (8, 50.0)]
        );
    }

    #[test]
    fn select_skips_absent_events() {
        let s = StreamShape::new(0, 2);
        let mut input = filled(s, 10, 0, &[1.0; 5]);
        input.clear_slot(2);
        let mut out = empty(s, 10, 0, 1);
        let mut k = SelectKernel::new(1, 1, Box::new(|i, o| o[0] = i[0]));
        k.process(&[&input], &mut out);
        assert_eq!(out.present_count(), 4);
        assert!(!out.is_present(2));
    }

    #[test]
    fn select_can_widen_arity() {
        let s = StreamShape::new(0, 1);
        let input = filled(s, 3, 0, &[1.0, 2.0, 3.0]);
        let mut out = empty(s, 3, 0, 2);
        let mut k = SelectKernel::new(
            1,
            2,
            Box::new(|i, o| {
                o[0] = i[0];
                o[1] = -i[0];
            }),
        );
        k.process(&[&input], &mut out);
        assert_eq!(out.field(1), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn where_filters_by_predicate() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 10, 0, &[1.0, -2.0, 3.0, -4.0, 5.0]);
        let mut out = empty(s, 10, 0, 1);
        let mut k = WhereKernel::new(1, Box::new(|v| v[0] > 0.0));
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 1.0), (4, 3.0), (8, 5.0)]);
    }

    #[test]
    fn where_preserves_durations() {
        let s = StreamShape::new(0, 2);
        let mut input = filled(s, 10, 0, &[1.0; 5]);
        input.set_duration(0, 6);
        let mut out = empty(s, 10, 0, 1);
        let mut k = WhereKernel::new(1, Box::new(|_| true));
        k.process(&[&input], &mut out);
        assert_eq!(out.duration(0), 6);
    }
}
