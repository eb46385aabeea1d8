//! Operator kernels and fused stages.
//!
//! Every temporal operator compiles to a [`Kernel`]: a unit that reads one
//! or two input [`FWindow`]s and fills one output FWindow, all covering the
//! same absolute time interval (the executor slides every window in
//! lock-step rounds after locality tracing has equalized the dimensions).
//!
//! Fusible operators are written as a [`FusedStage`] instead, which works
//! on flat value and presence columns and runs inside a
//! [`FusedKernel`](crate::fuse::FusedKernel). The fusion plan is made
//! from the graph before any operator is built, so each node's factory
//! builds it once, in the form it runs in:
//!
//! * `Transform`, `Fir` and `Aggregate` exist only as stages. Outside a
//!   fusion group (every one of them when fusion is off) a stage runs as
//!   a one-stage `FusedKernel` over its own node's windows; a lone
//!   tumbling or strided `Aggregate` re-grids its round there.
//! * `Select` and `Where` have both forms: a stage inside a group, a
//!   kernel outside one. Their kernels also take the multi-field case
//!   that cannot be a stage.
//! * Every other operator is a kernel only.
//!
//! Stateful kernels and stages (`Shift`, `Chop`, `ClipJoin`, sliding
//! `Aggregate`, `Fir`, the boundary-crossing case of `Join` shown in
//! Fig. 8) carry *constant-size* state across rounds — the
//! bounded-memory-footprint property guarantees the state never grows
//! with the data.

use crate::fuse::FusedStage;
use crate::fwindow::FWindow;

pub mod aggregate;
pub mod fir;
pub mod join;
pub mod reshape;
pub mod select;
pub mod transform;
pub mod where_shape;

/// A compiled operator.
///
/// `process` is invoked once per execution round with the input windows and
/// the output window already slid to the round's interval. Implementations
/// must not allocate in `process` (the static-memory-allocation guarantee);
/// any buffers they need are created in their constructor.
pub trait Kernel: Send {
    /// Fills `out` from `inputs`. Windows cover the same absolute interval.
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow);

    /// Called instead of `process` when targeted query processing skips a
    /// round; stateful kernels drop carried state that the gap invalidated.
    fn on_skip(&mut self) {}

    /// True if the kernel holds carried state that must be flushed into a
    /// future round (prevents the executor from skipping that round).
    fn has_pending(&self) -> bool {
        false
    }

    /// Clears all state, returning the kernel to its initial condition.
    fn reset(&mut self) {}
}

/// What a node's factory builds: a kernel over the node's own windows,
/// or a stage of a [`FusedKernel`](crate::fuse::FusedKernel).
pub(crate) enum Op {
    /// Runs as itself.
    Kernel(Box<dyn Kernel>),
    /// Runs inside a fused kernel: its group's, or a one-stage one.
    Stage(Box<dyn FusedStage>),
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by kernel unit tests.
    use crate::fwindow::FWindow;
    use crate::time::{StreamShape, Tick};

    /// Builds a window over `[sync, sync+dim)` with the given values all
    /// present (duration = period).
    pub fn filled(shape: StreamShape, dim: Tick, sync: Tick, vals: &[f32]) -> FWindow {
        let mut w = FWindow::new(shape, dim, 1);
        w.slide_to(sync);
        assert_eq!(w.len(), vals.len(), "test window slot mismatch");
        for (i, &v) in vals.iter().enumerate() {
            w.write(i, &[v], shape.period());
        }
        w
    }

    /// Builds an empty (all-absent) window over `[sync, sync+dim)`.
    pub fn empty(shape: StreamShape, dim: Tick, sync: Tick, arity: usize) -> FWindow {
        let mut w = FWindow::new(shape, dim, arity);
        w.slide_to(sync);
        w
    }

    /// Extracts `(time, value_of_field0)` pairs of present events.
    pub fn events(w: &FWindow) -> Vec<(Tick, f32)> {
        w.iter_present()
            .map(|(i, t, _)| (t, w.field(0)[i]))
            .collect()
    }
}
