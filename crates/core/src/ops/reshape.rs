//! Grid-reshaping operators: `Shift`, `Chop`, `AlterPeriod`,
//! `AlterDuration`.

use std::collections::VecDeque;

use crate::fwindow::{FWindow, MAX_ARITY};
use crate::ops::Kernel;
use crate::time::{align_up, lcm, Tick};

/// `Shift(k)`: moves every event's sync time forward by `k` ticks.
///
/// Stateful (Table 2): events whose shifted time lands beyond the current
/// round spill into a queue bounded by `ceil(k / period)` entries — a
/// statically known constant, preserving the bounded-memory property.
pub struct ShiftKernel {
    delta: Tick,
    arity: usize,
    /// Spilled events: (shifted_time, duration, payload).
    pending: VecDeque<(Tick, Tick, [f32; MAX_ARITY])>,
    buf: [f32; MAX_ARITY],
}

impl ShiftKernel {
    /// Creates a shift kernel. `delta` must be non-negative; `in_period`
    /// sizes the spill queue.
    pub fn new(delta: Tick, arity: usize, in_period: Tick) -> Self {
        let cap = (delta / in_period + 2) as usize;
        Self {
            delta,
            arity,
            pending: VecDeque::with_capacity(cap),
            buf: [0.0; MAX_ARITY],
        }
    }
}

impl Kernel for ShiftKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        // Drain spilled events that now fall inside the round.
        while let Some(&(t, d, payload)) = self.pending.front() {
            match out.slot_of(t) {
                Some(j) => {
                    out.write(j, &payload[..self.arity], d);
                    self.pending.pop_front();
                }
                None if t >= out.end() => break,
                None => {
                    // The skipped rounds passed this event by; drop it.
                    self.pending.pop_front();
                }
            }
        }
        let input = inputs[0];
        for (i, t, d) in input.iter_present() {
            let shifted = t + self.delta;
            input.read(i, &mut self.buf[..self.arity]);
            match out.slot_of(shifted) {
                Some(j) => out.write(j, &self.buf[..self.arity], d),
                None => {
                    let mut payload = [0.0; MAX_ARITY];
                    payload[..self.arity].copy_from_slice(&self.buf[..self.arity]);
                    self.pending.push_back((shifted, d, payload));
                }
            }
        }
    }

    fn on_skip(&mut self) {
        self.pending.clear();
    }

    fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    fn reset(&mut self) {
        self.pending.clear();
    }
}

impl std::fmt::Debug for ShiftKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShiftKernel")
            .field("delta", &self.delta)
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// `Chop(b)`: splits each event's active interval on `b`-aligned boundary
/// grid points, emitting one event per segment.
///
/// Stateful: a segment starting beyond the current round is carried
/// (at most one event — constant state).
pub struct ChopKernel {
    boundary: Tick,
    arity: usize,
    /// Carried remainder: (next_segment_start, event_end, payload).
    pending: Option<(Tick, Tick, [f32; MAX_ARITY])>,
    buf: [f32; MAX_ARITY],
}

impl ChopKernel {
    /// Creates a chop kernel splitting on multiples of `boundary`.
    pub fn new(boundary: Tick, arity: usize) -> Self {
        Self {
            boundary,
            arity,
            pending: None,
            buf: [0.0; MAX_ARITY],
        }
    }

    /// Emits segments of `[start, end)` into `out`; returns the carried
    /// remainder if the segments extend past the round.
    fn emit_segments(
        &self,
        out: &mut FWindow,
        mut start: Tick,
        end: Tick,
        payload: &[f32],
    ) -> Option<Tick> {
        while start < end {
            let seg_end = (align_up(start + 1, 0, self.boundary)).min(end);
            match out.slot_of(start) {
                Some(j) => out.write(j, payload, seg_end - start),
                None if start >= out.end() => return Some(start),
                None => {} // off-grid start cannot happen: starts lie on gcd grid
            }
            start = seg_end;
        }
        None
    }
}

impl Kernel for ChopKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        if let Some((start, end, payload)) = self.pending.take() {
            let p = payload;
            if let Some(rem) = self.emit_segments(out, start, end, &p[..self.arity]) {
                self.pending = Some((rem, end, p));
            }
        }
        let input = inputs[0];
        for (i, t, d) in input.iter_present() {
            input.read(i, &mut self.buf[..self.arity]);
            let mut payload = [0.0; MAX_ARITY];
            payload[..self.arity].copy_from_slice(&self.buf[..self.arity]);
            if let Some(rem) = self.emit_segments(out, t, t + d, &payload[..self.arity]) {
                self.pending = Some((rem, t + d, payload));
            }
        }
    }

    fn on_skip(&mut self) {
        self.pending = None;
    }

    fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    fn reset(&mut self) {
        self.pending = None;
    }
}

impl std::fmt::Debug for ChopKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChopKernel")
            .field("boundary", &self.boundary)
            .finish()
    }
}

/// `AlterPeriod(p)`: re-grids the stream to a new period. Sync times are
/// unchanged; output slots with no input grid point are absent (upsampling
/// leaves holes a later `Transform`/fill interpolates; downsampling keeps
/// only aligned events).
#[derive(Debug)]
pub struct AlterPeriodKernel {
    arity: usize,
}

impl AlterPeriodKernel {
    /// Creates an alter-period kernel.
    pub fn new(arity: usize) -> Self {
        Self { arity }
    }
}

impl Kernel for AlterPeriodKernel {
    /// Visits only present input slots that lie on the output grid: the
    /// two grids meet every `lcm` ticks, so from the first shared point on
    /// every `stride_in`-th input slot lands on every `stride_out`-th
    /// output slot.
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        let (p_in, p_out) = (input.shape().period(), out.shape().period());
        let shared = lcm(p_in, p_out);
        let (stride_in, stride_out) = ((shared / p_in) as usize, (shared / p_out) as usize);
        let Some((first, j_first)) =
            (0..input.len()).find_map(|i| Some((i, out.slot_of(input.slot_time(i))?)))
        else {
            return;
        };
        let mut buf = [0.0; MAX_ARITY];
        for (lo, hi) in input.presence().iter_runs() {
            let steps = lo.saturating_sub(first).div_ceil(stride_in);
            let (mut i, mut j) = (first + steps * stride_in, j_first + steps * stride_out);
            while i < hi && j < out.len() {
                input.read(i, &mut buf[..self.arity]);
                out.write(j, &buf[..self.arity], p_out);
                i += stride_in;
                j += stride_out;
            }
        }
    }
}

/// `AlterDuration(d)`: rewrites every event's active lifetime.
#[derive(Debug)]
pub struct AlterDurationKernel {
    duration: Tick,
    arity: usize,
}

impl AlterDurationKernel {
    /// Creates an alter-duration kernel setting every duration to
    /// `duration`.
    pub fn new(duration: Tick, arity: usize) -> Self {
        Self { duration, arity }
    }
}

impl Kernel for AlterDurationKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let input = inputs[0];
        let mut buf = [0.0; MAX_ARITY];
        for (i, _, _) in input.iter_present() {
            input.read(i, &mut buf[..self.arity]);
            out.write(i, &buf[..self.arity], self.duration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{empty, events, filled};
    use crate::time::StreamShape;
    use proptest::prelude::*;

    #[test]
    fn shift_moves_events_forward_fig5b() {
        let s = StreamShape::new(0, 2);
        let so = StreamShape::new(4, 2);
        let input = filled(s, 10, 0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut out = empty(so, 10, 0, 1);
        let mut k = ShiftKernel::new(4, 1, 2);
        k.process(&[&input], &mut out);
        // Events at 0,2,4,6,8 -> 4,6,8 visible; 10,12 spilled.
        assert_eq!(events(&out), vec![(4, 1.0), (6, 2.0), (8, 3.0)]);
        assert!(k.has_pending());
        let in2 = empty(s, 10, 10, 1);
        let mut out2 = empty(so, 10, 10, 1);
        k.process(&[&in2], &mut out2);
        assert_eq!(events(&out2), vec![(10, 4.0), (12, 5.0)]);
        assert!(!k.has_pending());
    }

    #[test]
    fn shift_zero_is_identity() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 10, 0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut out = empty(s, 10, 0, 1);
        let mut k = ShiftKernel::new(0, 1, 2);
        k.process(&[&input], &mut out);
        assert_eq!(out.present_count(), 5);
        assert!(!k.has_pending());
    }

    #[test]
    fn shift_skip_drops_spill() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 10, 0, &[1.0; 5]);
        let mut out = empty(StreamShape::new(6, 2), 10, 0, 1);
        let mut k = ShiftKernel::new(6, 1, 2);
        k.process(&[&input], &mut out);
        assert!(k.has_pending());
        k.on_skip();
        assert!(!k.has_pending());
    }

    #[test]
    fn chop_splits_long_duration_on_boundaries() {
        // One event [0, 10) chopped on boundary 4 -> [0,4),[4,8),[8,10).
        let s = StreamShape::new(0, 2);
        let mut input = empty(s, 12, 0, 1);
        input.write(0, &[7.0], 10);
        let mut out = empty(s, 12, 0, 1);
        let mut k = ChopKernel::new(4, 1);
        k.process(&[&input], &mut out);
        let evs: Vec<_> = out.iter_present().collect();
        assert_eq!(evs, vec![(0, 0, 4), (2, 4, 4), (4, 8, 2)]);
        assert_eq!(out.field(0)[0], 7.0);
        assert_eq!(out.field(0)[4], 7.0);
    }

    #[test]
    fn chop_carries_across_rounds() {
        let s = StreamShape::new(0, 2);
        let mut input = empty(s, 8, 0, 1);
        input.write(3, &[5.0], 8); // [6, 14) crosses the round end at 8
        let mut out = empty(s, 8, 0, 1);
        let mut k = ChopKernel::new(4, 1);
        k.process(&[&input], &mut out);
        // Segment [6,8) emitted; remainder [8,14) pending.
        assert_eq!(out.iter_present().collect::<Vec<_>>(), vec![(3, 6, 2)]);
        assert!(k.has_pending());
        let in2 = empty(s, 8, 8, 1);
        let mut out2 = empty(s, 8, 8, 1);
        k.process(&[&in2], &mut out2);
        assert_eq!(
            out2.iter_present().collect::<Vec<_>>(),
            vec![(0, 8, 4), (2, 12, 2)]
        );
        assert!(!k.has_pending());
    }

    #[test]
    fn chop_noop_on_already_aligned_events() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 8, 0, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = empty(s, 8, 0, 1);
        let mut k = ChopKernel::new(2, 1);
        k.process(&[&input], &mut out);
        assert_eq!(out.present_count(), 4);
        assert_eq!(out.duration(0), 2);
    }

    #[test]
    fn alter_period_upsample_leaves_holes() {
        // (0,4) regridded to (0,2): every second slot absent.
        let s_in = StreamShape::new(0, 4);
        let s_out = StreamShape::new(0, 2);
        let input = filled(s_in, 8, 0, &[1.0, 2.0]);
        let mut out = empty(s_out, 8, 0, 1);
        let mut k = AlterPeriodKernel::new(1);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 1.0), (4, 2.0)]);
        assert!(!out.is_present(1));
        assert!(!out.is_present(3));
    }

    #[test]
    fn alter_period_downsample_keeps_aligned() {
        let s_in = StreamShape::new(0, 2);
        let s_out = StreamShape::new(0, 4);
        let input = filled(s_in, 8, 0, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = empty(s_out, 8, 0, 1);
        let mut k = AlterPeriodKernel::new(1);
        k.process(&[&input], &mut out);
        assert_eq!(events(&out), vec![(0, 1.0), (4, 3.0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Walking present input runs writes exactly what visiting every
        /// output slot and looking up its input slot wrote: up, down and
        /// sideways (neither period divides the other), any offset and
        /// presence, over consecutive rounds.
        #[test]
        fn alter_period_equals_per_output_slot_lookup(
            periods in (
                prop::sample::select(vec![1i64, 2, 3, 4, 6, 8]),
                prop::sample::select(vec![1i64, 2, 3, 4, 6, 8]),
                0i64..10,
            ),
            dims in (1i64..=3, 2usize..=4),
            seed in 1u64..u64::MAX,
        ) {
            let (p_in, p_out, offset) = periods;
            let (m, rounds) = dims;
            let mut s = seed;
            let mut next = |n: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % n
            };
            let (s_in, s_out) = (StreamShape::new(offset, p_in), StreamShape::new(offset, p_out));
            let dim = lcm(p_in, p_out) * m;
            let mut input = FWindow::new(s_in, dim, 2);
            let (mut got, mut want) = (FWindow::new(s_out, dim, 2), FWindow::new(s_out, dim, 2));
            let mut k = AlterPeriodKernel::new(2);
            for r in 0..rounds as Tick {
                input.slide_to(r * dim);
                let density = 2 + next(9);
                for i in 0..input.len() {
                    if next(10) < density {
                        input.write(i, &[i as f32, (r * 100) as f32], p_in * (1 + next(3) as Tick));
                    }
                }
                got.slide_to(r * dim);
                want.slide_to(r * dim);
                k.process(&[&input], &mut got);
                for j in 0..want.len() {
                    if let Some(i) = input.slot_of(want.slot_time(j)) {
                        if input.is_present(i) {
                            want.write(j, &[input.field(0)[i], input.field(1)[i]], p_out);
                        }
                    }
                }
                prop_assert_eq!(got.presence(), want.presence());
                for f in 0..2 {
                    prop_assert_eq!(got.field(f), want.field(f));
                }
                prop_assert_eq!(got.durations(), want.durations());
            }
        }
    }

    #[test]
    fn alter_duration_rewrites_lifetimes() {
        let s = StreamShape::new(0, 2);
        let input = filled(s, 6, 0, &[1.0, 2.0, 3.0]);
        let mut out = empty(s, 6, 0, 1);
        let mut k = AlterDurationKernel::new(10, 1);
        k.process(&[&input], &mut out);
        assert_eq!(out.duration(0), 10);
        assert_eq!(out.duration(2), 10);
        assert_eq!(out.present_count(), 3);
    }
}
