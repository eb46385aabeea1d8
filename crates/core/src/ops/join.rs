//! Temporal joins.
//!
//! [`JoinKernel`] implements the temporal equijoin of Table 2: an output
//! event exists at joint-grid point `t` when input events whose active
//! intervals `[sync, sync + duration)` cover `t` exist on the required
//! sides. Thanks to periodicity the kernel needs no hash tables and no
//! per-slot lookups; it works on runs of slots:
//!
//! - **Segment sweep.** One forward sweep per side turns the round's
//!   present events into a sorted list of non-overlapping output-slot
//!   segments, each with one source: a run of input slots (every slot
//!   repeated `in_period / out_period` times), the event carried in from
//!   the previous round, or one event whose duration is not its period.
//!   A presence run of period-long events is a single segment.
//! - **Latest start wins.** Where events overlap, an output slot belongs
//!   to the covering event with the latest start, and the carried event
//!   counts as the earliest. A long event covers again once a shorter,
//!   later one has ended. The sweep keeps the events still open on a
//!   stack, latest start on top, and closes a segment whenever the top
//!   changes.
//! - **Merge, then whole columns.** The two lists merge into pieces with
//!   one source per side. Each piece the join kind keeps is written field
//!   by field as a slice copy, a k-fold repeat or a constant fill (NaN for
//!   an absent side), with presence set by range and every duration the
//!   output period. A user map is still called once per slot, reading the
//!   pieces' sources.
//!
//! The only state across rounds is the single event per side whose
//! interval crosses the FWindow boundary (Fig. 8), which is constant-size.
//!
//! [`ClipJoinKernel`] is the as-of join: each left event pairs with the most
//! recent right event at or before it.

use crate::fwindow::{FWindow, MAX_ARITY};
use crate::ops::Kernel;
use crate::time::Tick;

/// Join flavour. Mirrors [`JoinKindTag`](crate::graph::JoinKindTag) but
/// lives with the kernel for use in public APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Emit only where both sides are covered.
    Inner,
    /// Emit wherever the left side is covered; absent right payloads are
    /// NaN-padded.
    Left,
    /// Emit wherever either side is covered; absent payloads NaN-padded.
    Outer,
}

/// Optional user projection combining the two payloads; `None` concatenates.
pub type JoinMapFn = Box<dyn FnMut(&[f32], &[f32], &mut [f32]) + Send>;

/// An event carried across the FWindow boundary (the Fig. 8 stateful case).
#[derive(Debug, Clone, Copy)]
struct Carry {
    start: Tick,
    end: Tick,
    payload: [f32; MAX_ARITY],
}

/// Where a coverage segment's payload comes from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Input slots from `i0` on, each covering `k` output slots from
    /// output slot `j0`: output slot `j` reads input slot
    /// `i0 + (j - j0) / k`.
    Run { i0: usize, j0: usize, k: usize },
    /// The event carried in from the previous round.
    Carry,
    /// Input slot `i`: one event whose duration is not its period.
    Event(usize),
}

/// Output slots `lo..hi`, all covered by `src`.
#[derive(Debug, Clone, Copy)]
struct Seg {
    lo: usize,
    hi: usize,
    src: Src,
}

/// One round's output grid: slot `j` sits at `base + j * period` for
/// `j < len`, and the round ends at `end`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    base: Tick,
    period: Tick,
    len: usize,
    end: Tick,
}

impl Grid {
    /// The output slots the interval `[t, end)` covers.
    fn slots(&self, t: Tick, end: Tick) -> (usize, usize) {
        let up = |x: Tick| {
            let d = x.max(self.base) - self.base;
            let j = d / self.period + Tick::from(d % self.period != 0);
            j.min(self.len as Tick) as usize
        };
        (up(t), up(end))
    }
}

/// Per-side coverage sweep state.
#[derive(Debug)]
struct Side {
    arity: usize,
    /// The event pending into future rounds (its interval outlives the
    /// current round's end).
    carry: Option<Carry>,
    /// The carry applied to the current round, kept for payload reads even
    /// after it stops being pending.
    round_carry: Option<Carry>,
    /// This round's coverage: sorted, non-overlapping segments.
    segs: Vec<Seg>,
    /// Sweep scratch: the events still open at the sweep position, latest
    /// start on top, each ending before the one beneath it.
    open: Vec<Seg>,
}

impl Side {
    fn new(arity: usize, out_capacity: usize) -> Self {
        // A round opens at most one entry per input slot plus the carry,
        // and each opening closes at most two segments.
        Self {
            arity,
            carry: None,
            round_carry: None,
            segs: Vec::with_capacity(2 * out_capacity + 3),
            open: Vec::with_capacity(out_capacity + 1),
        }
    }

    /// Sweeps `input` into `self.segs` for the output grid `grid`. A
    /// present run of period-long events is one segment.
    fn sweep(&mut self, input: &FWindow, grid: Grid) {
        self.segs.clear();
        self.open.clear();
        let mut pos = 0;
        // Apply the carry from the previous round, keeping it pending only
        // while its interval still outlives this round.
        self.round_carry = self.carry.take();
        if let Some(c) = self.round_carry {
            let (lo, hi) = grid.slots(c.start, c.end);
            self.cover(&mut pos, lo, hi, Src::Carry);
            if c.end > grid.end {
                self.carry = Some(c);
            }
        }
        let period = input.shape().period();
        let k = (period / grid.period) as usize;
        let durations = input.durations();
        for (lo, hi) in input.presence().iter_runs() {
            let mut i = lo;
            while i < hi {
                // `last` is the latest start of the piece: the only event
                // in it that can outlive the round.
                let (last, run) = if durations[i] == period {
                    let n = durations[i..hi]
                        .iter()
                        .take_while(|&&d| d == period)
                        .count();
                    (i + n - 1, true)
                } else {
                    (i, false)
                };
                let end = input.slot_time(last) + durations[last];
                let (jlo, jhi) = grid.slots(input.slot_time(i), end);
                let src = if run {
                    debug_assert_eq!(
                        input.slot_time(i),
                        grid.base + jlo as Tick * grid.period,
                        "input slots lie on the joint grid"
                    );
                    Src::Run { i0: i, j0: jlo, k }
                } else {
                    Src::Event(i)
                };
                self.cover(&mut pos, jlo, jhi, src);
                if end > grid.end {
                    let mut payload = [0.0; MAX_ARITY];
                    input.read(last, &mut payload[..self.arity]);
                    self.carry = Some(Carry {
                        start: input.slot_time(last),
                        end,
                        payload,
                    });
                }
                i = last + 1;
            }
        }
        self.close(&mut pos, grid.len);
    }

    /// Opens `src` over slots `lo..hi`, the latest start so far: closes
    /// the segments before `lo`, then drops the open events it outlasts.
    fn cover(&mut self, pos: &mut usize, lo: usize, hi: usize, src: Src) {
        if lo >= hi {
            return;
        }
        debug_assert!(*pos <= lo, "events arrive in start order");
        self.close(pos, lo);
        while self.open.last().is_some_and(|s| s.hi <= hi) {
            self.open.pop();
        }
        self.open.push(Seg { lo, hi, src });
    }

    /// Closes segments from `*pos` up to `to`, each owned by the open
    /// event on top of the stack.
    fn close(&mut self, pos: &mut usize, to: usize) {
        while *pos < to {
            let Some(top) = self.open.last().copied() else {
                break;
            };
            if top.hi <= *pos {
                self.open.pop();
                continue;
            }
            let hi = top.hi.min(to);
            self.segs.push(Seg {
                lo: *pos,
                hi,
                src: top.src,
            });
            *pos = hi;
        }
        *pos = to;
    }

    /// Writes field `f` of `src` for output slots `lo..lo + dst.len()`,
    /// or NaN when the side is uncovered there.
    fn fill(&self, input: &FWindow, src: Option<Src>, f: usize, lo: usize, dst: &mut [f32]) {
        match src {
            None => dst.fill(f32::NAN),
            Some(Src::Run { i0, j0, k }) => {
                let col = &input.field(f)[i0 + (lo - j0) / k..];
                if k == 1 {
                    dst.copy_from_slice(&col[..dst.len()]);
                } else {
                    let head = (k - (lo - j0) % k).min(dst.len());
                    let (first, rest) = dst.split_at_mut(head);
                    first.fill(col[0]);
                    for (chunk, &v) in rest.chunks_mut(k).zip(&col[1..]) {
                        chunk.fill(v);
                    }
                }
            }
            Some(Src::Carry) => dst.fill(self.round_carry.map_or(f32::NAN, |c| c.payload[f])),
            Some(Src::Event(i)) => dst.fill(input.field(f)[i]),
        }
    }
}

/// The temporal equijoin kernel.
pub struct JoinKernel {
    kind: JoinKind,
    map: Option<JoinMapFn>,
    left: Side,
    right: Side,
    out_arity: usize,
    lbuf: [f32; MAX_ARITY],
    rbuf: [f32; MAX_ARITY],
    obuf: [f32; MAX_ARITY],
}

impl JoinKernel {
    /// Creates a join kernel. `out_capacity` is the output FWindow slot
    /// capacity (from the memory plan); the segment buffers are sized once
    /// here and never reallocated.
    pub fn new(
        kind: JoinKind,
        left_arity: usize,
        right_arity: usize,
        out_arity: usize,
        out_capacity: usize,
        map: Option<JoinMapFn>,
    ) -> Self {
        Self {
            kind,
            map,
            left: Side::new(left_arity, out_capacity),
            right: Side::new(right_arity, out_capacity),
            out_arity,
            lbuf: [0.0; MAX_ARITY],
            rbuf: [0.0; MAX_ARITY],
            obuf: [0.0; MAX_ARITY],
        }
    }

    /// Writes output slots `lo..hi`, where the left side is covered by
    /// `ls` and the right by `rs` (`None`: NaN-padded).
    fn write(
        &mut self,
        (l, r): (&FWindow, &FWindow),
        ls: Option<Src>,
        rs: Option<Src>,
        lo: usize,
        hi: usize,
        out: &mut FWindow,
    ) {
        let (la, ra) = (self.left.arity, self.right.arity);
        match &mut self.map {
            None => {
                for f in 0..la {
                    self.left.fill(l, ls, f, lo, &mut out.field_mut(f)[lo..hi]);
                }
                for f in 0..ra {
                    self.right
                        .fill(r, rs, f, lo, &mut out.field_mut(la + f)[lo..hi]);
                }
            }
            Some(map) => {
                for j in lo..hi {
                    for f in 0..la {
                        self.left.fill(l, ls, f, j, &mut self.lbuf[f..=f]);
                    }
                    for f in 0..ra {
                        self.right.fill(r, rs, f, j, &mut self.rbuf[f..=f]);
                    }
                    map(
                        &self.lbuf[..la],
                        &self.rbuf[..ra],
                        &mut self.obuf[..self.out_arity],
                    );
                    for (f, &v) in self.obuf[..self.out_arity].iter().enumerate() {
                        out.field_mut(f)[j] = v;
                    }
                }
            }
        }
        out.presence_mut().set_range(lo, hi);
        let p = out.shape().period();
        for j in lo..hi {
            out.set_duration(j, p);
        }
    }
}

impl Kernel for JoinKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let (l, r) = (inputs[0], inputs[1]);
        let grid = Grid {
            base: if !out.is_empty() {
                out.slot_time(0)
            } else {
                out.sync()
            },
            period: out.shape().period(),
            len: out.len(),
            end: out.end(),
        };
        self.left.sweep(l, grid);
        self.right.sweep(r, grid);
        // Merge the two segment lists into pieces with one source per side.
        let (mut a, mut b, mut pos) = (0, 0, 0);
        loop {
            let (ls, rs) = (&self.left.segs, &self.right.segs);
            while a < ls.len() && ls[a].hi <= pos {
                a += 1;
            }
            while b < rs.len() && rs[b].hi <= pos {
                b += 1;
            }
            let (ln, rn) = (ls.get(a).copied(), rs.get(b).copied());
            let Some(next) = [ln, rn]
                .into_iter()
                .flatten()
                .map(|s| if s.lo <= pos { s.hi } else { s.lo })
                .min()
            else {
                break;
            };
            let covering = |s: Option<Seg>| s.filter(|s| s.lo <= pos).map(|s| s.src);
            let (lc, rc) = (covering(ln), covering(rn));
            let emit = match self.kind {
                JoinKind::Inner => lc.is_some() && rc.is_some(),
                JoinKind::Left => lc.is_some(),
                JoinKind::Outer => lc.is_some() || rc.is_some(),
            };
            if emit {
                self.write((l, r), lc, rc, pos, next, out);
            }
            pos = next;
        }
    }

    fn on_skip(&mut self) {
        self.left.carry = None;
        self.left.round_carry = None;
        self.right.carry = None;
        self.right.round_carry = None;
    }

    fn has_pending(&self) -> bool {
        self.left.carry.is_some() || self.right.carry.is_some()
    }

    fn reset(&mut self) {
        self.on_skip();
    }
}

impl std::fmt::Debug for JoinKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinKernel")
            .field("kind", &self.kind)
            .field("out_arity", &self.out_arity)
            .finish()
    }
}

/// The as-of join kernel: pairs each left event with the most recent right
/// event at or before it. Constant state: the last right event seen.
pub struct ClipJoinKernel {
    left_arity: usize,
    right_arity: usize,
    last_right: Option<(Tick, [f32; MAX_ARITY])>,
    lbuf: [f32; MAX_ARITY],
    obuf: [f32; MAX_ARITY],
}

impl ClipJoinKernel {
    /// Creates an as-of join kernel.
    pub fn new(left_arity: usize, right_arity: usize) -> Self {
        Self {
            left_arity,
            right_arity,
            last_right: None,
            lbuf: [0.0; MAX_ARITY],
            obuf: [0.0; MAX_ARITY],
        }
    }
}

impl Kernel for ClipJoinKernel {
    fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
        let (l, r) = (inputs[0], inputs[1]);
        let mut ri = 0usize;
        for i in 0..l.len() {
            let t = l.slot_time(i);
            while ri < r.len() && r.slot_time(ri) <= t {
                if r.is_present(ri) {
                    let mut payload = [0.0; MAX_ARITY];
                    r.read(ri, &mut payload[..self.right_arity]);
                    self.last_right = Some((r.slot_time(ri), payload));
                }
                ri += 1;
            }
            if !l.is_present(i) {
                continue;
            }
            if let Some((_, rp)) = &self.last_right {
                l.read(i, &mut self.lbuf[..self.left_arity]);
                self.obuf[..self.left_arity].copy_from_slice(&self.lbuf[..self.left_arity]);
                self.obuf[self.left_arity..self.left_arity + self.right_arity]
                    .copy_from_slice(&rp[..self.right_arity]);
                out.write(
                    i,
                    &self.obuf[..self.left_arity + self.right_arity],
                    l.duration(i),
                );
            }
        }
        // Absorb right-side tail beyond the last left slot.
        while ri < r.len() {
            if r.is_present(ri) {
                let mut payload = [0.0; MAX_ARITY];
                r.read(ri, &mut payload[..self.right_arity]);
                self.last_right = Some((r.slot_time(ri), payload));
            }
            ri += 1;
        }
    }

    fn reset(&mut self) {
        self.last_right = None;
    }
}

impl std::fmt::Debug for ClipJoinKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClipJoinKernel")
            .field("left_arity", &self.left_arity)
            .field("right_arity", &self.right_arity)
            .finish()
    }
}

/// Today's per-slot join, kept unchanged as the reference the segment
/// sweep is checked against bit for bit: an `i32` cover array per side,
/// one `mark` per event, two `Side::read`s and one `FWindow::write` per
/// output slot.
#[cfg(test)]
mod reference {
    use super::{Carry, JoinKind, JoinMapFn};
    use crate::fwindow::{FWindow, MAX_ARITY};
    use crate::ops::Kernel;
    use crate::time::Tick;

    /// Per-side coverage sweep state.
    #[derive(Debug)]
    struct Side {
        arity: usize,
        /// The event pending into future rounds (its interval outlives the
        /// current round's end).
        carry: Option<Carry>,
        /// The carry applied to the current round, kept for payload reads even
        /// after it stops being pending.
        round_carry: Option<Carry>,
        /// cover[j] = input slot covering output slot j; -1 none, -2 carry.
        cover: Vec<i32>,
    }

    impl Side {
        fn new(arity: usize, out_capacity: usize) -> Self {
            Self {
                arity,
                carry: None,
                round_carry: None,
                cover: vec![-1; out_capacity],
            }
        }

        /// Sweeps `input`, filling `self.cover` for the output grid described
        /// by (`out_base`, `out_period`, `out_len`) over an interval ending at
        /// `b`.
        fn sweep(
            &mut self,
            input: &FWindow,
            out_base: Tick,
            out_period: Tick,
            out_len: usize,
            b: Tick,
        ) {
            for c in self.cover[..out_len].iter_mut() {
                *c = -1;
            }
            // Apply the carry from the previous round, keeping it pending only
            // while its interval still outlives this round.
            self.round_carry = self.carry.take();
            if let Some(c) = self.round_carry {
                if c.end > out_base {
                    mark(
                        &mut self.cover,
                        out_base,
                        out_period,
                        out_len,
                        c.start,
                        c.end,
                        -2,
                    );
                }
                if c.end > b {
                    self.carry = Some(c);
                }
            }
            for (i, t, d) in input.iter_present() {
                let end = t + d;
                mark(
                    &mut self.cover,
                    out_base,
                    out_period,
                    out_len,
                    t,
                    end,
                    i as i32,
                );
                if end > b {
                    let mut payload = [0.0; MAX_ARITY];
                    input.read(i, &mut payload[..self.arity]);
                    self.carry = Some(Carry {
                        start: t,
                        end,
                        payload,
                    });
                }
            }
        }

        /// Reads the payload covering output slot `j` into `buf`; returns
        /// false (and NaN-fills) when uncovered.
        fn read(&self, input: &FWindow, j: usize, buf: &mut [f32]) -> bool {
            match self.cover[j] {
                -1 => {
                    buf.fill(f32::NAN);
                    false
                }
                -2 => match &self.round_carry {
                    Some(c) => {
                        buf.copy_from_slice(&c.payload[..self.arity]);
                        true
                    }
                    None => {
                        buf.fill(f32::NAN);
                        false
                    }
                },
                i => {
                    input.read(i as usize, buf);
                    true
                }
            }
        }
    }

    /// Marks output slots covered by `[t, end)` with `tag`.
    fn mark(
        cover: &mut [i32],
        out_base: Tick,
        out_period: Tick,
        out_len: usize,
        t: Tick,
        end: Tick,
        tag: i32,
    ) {
        if end <= out_base {
            return;
        }
        let lo_t = t.max(out_base);
        let mut j = ((lo_t - out_base) + out_period - 1) / out_period;
        loop {
            let ju = j as usize;
            if ju >= out_len {
                break;
            }
            let slot_t = out_base + j * out_period;
            if slot_t >= end {
                break;
            }
            cover[ju] = tag;
            j += 1;
        }
    }

    /// The temporal equijoin kernel.
    pub struct JoinKernel {
        kind: JoinKind,
        map: Option<JoinMapFn>,
        left: Side,
        right: Side,
        out_arity: usize,
        lbuf: [f32; MAX_ARITY],
        rbuf: [f32; MAX_ARITY],
        obuf: [f32; MAX_ARITY],
    }

    impl JoinKernel {
        /// Creates a join kernel. `out_capacity` is the output FWindow slot
        /// capacity (from the memory plan); the cover buffers are sized once
        /// here and never reallocated.
        pub fn new(
            kind: JoinKind,
            left_arity: usize,
            right_arity: usize,
            out_arity: usize,
            out_capacity: usize,
            map: Option<JoinMapFn>,
        ) -> Self {
            Self {
                kind,
                map,
                left: Side::new(left_arity, out_capacity),
                right: Side::new(right_arity, out_capacity),
                out_arity,
                lbuf: [0.0; MAX_ARITY],
                rbuf: [0.0; MAX_ARITY],
                obuf: [0.0; MAX_ARITY],
            }
        }
    }

    impl Kernel for JoinKernel {
        fn process(&mut self, inputs: &[&FWindow], out: &mut FWindow) {
            let (l, r) = (inputs[0], inputs[1]);
            let base = if !out.is_empty() {
                out.slot_time(0)
            } else {
                out.sync()
            };
            let p = out.shape().period();
            let b = out.end();
            self.left.sweep(l, base, p, out.len(), b);
            self.right.sweep(r, base, p, out.len(), b);
            let la = self.left.arity;
            let ra = self.right.arity;
            for j in 0..out.len() {
                let lc = self.left.read(l, j, &mut self.lbuf[..la]);
                let rc = self.right.read(r, j, &mut self.rbuf[..ra]);
                let emit = match self.kind {
                    JoinKind::Inner => lc && rc,
                    JoinKind::Left => lc,
                    JoinKind::Outer => lc || rc,
                };
                if !emit {
                    continue;
                }
                match &mut self.map {
                    Some(f) => {
                        f(
                            &self.lbuf[..la],
                            &self.rbuf[..ra],
                            &mut self.obuf[..self.out_arity],
                        );
                        out.write(j, &self.obuf[..self.out_arity], p);
                    }
                    None => {
                        self.obuf[..la].copy_from_slice(&self.lbuf[..la]);
                        self.obuf[la..la + ra].copy_from_slice(&self.rbuf[..ra]);
                        out.write(j, &self.obuf[..la + ra], p);
                    }
                }
            }
        }

        fn on_skip(&mut self) {
            self.left.carry = None;
            self.left.round_carry = None;
            self.right.carry = None;
            self.right.round_carry = None;
        }

        fn has_pending(&self) -> bool {
            self.left.carry.is_some() || self.right.carry.is_some()
        }

        fn reset(&mut self) {
            self.on_skip();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{empty, filled};
    use crate::time::{lcm, StreamShape};
    use proptest::prelude::*;

    /// `w`'s output as the proptest compares it: present slots, every
    /// field's bits (NaN included) and the present slots' durations.
    fn snapshot(w: &FWindow) -> (Vec<usize>, Vec<Vec<u32>>, Vec<Tick>) {
        let present: Vec<usize> = w.presence().iter_ones().collect();
        let fields = (0..w.arity())
            .map(|f| w.field(f).iter().map(|v| v.to_bits()).collect())
            .collect();
        let durations = present.iter().map(|&i| w.duration(i)).collect();
        (present, fields, durations)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The segment sweep equals the per-slot reference bit for bit over
        /// periods from {1, 2, 3, 4, 6, 8} with offsets on the joint grid,
        /// random presence, durations of one period, of 1-5 periods or of
        /// any 1-5 periods' ticks (overlapping events), 2-6 rounds with
        /// skips between them, every kind, with and without a map.
        #[test]
        fn segment_sweep_equals_per_slot_reference(
            grids in (
                prop::sample::select(vec![1i64, 2, 3, 4, 6, 8]),
                prop::sample::select(vec![1i64, 2, 3, 4, 6, 8]),
                (0i64..8, 0i64..8, 1i64..=4),
            ),
            join in (
                prop::sample::select(vec![JoinKind::Inner, JoinKind::Left, JoinKind::Outer]),
                any::<bool>(),
                0u64..3,
            ),
            rounds in 2usize..=6,
            seed in 1u64..u64::MAX,
        ) {
            let (pl, pr, (ol, or, m)) = grids;
            let (kind, mapped, duration_mode) = join;
            let mut s = seed;
            let mut next = |n: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % n
            };
            let (sl, sr) = (StreamShape::new(ol, pl), StreamShape::new(or, pr));
            let so = sl.join(&sr);
            let dim = lcm(pl, pr) * m;
            let (la, ra) = (1 + next(3) as usize, 1 + next(3) as usize);
            let oa = if mapped { 1 } else { la + ra };
            let map = || -> Option<JoinMapFn> {
                mapped.then(|| -> JoinMapFn {
                    Box::new(|a, b, o| o[0] = a.iter().sum::<f32>() + b.iter().sum::<f32>())
                })
            };
            let cap = (dim / so.period()) as usize;
            let mut new = JoinKernel::new(kind, la, ra, oa, cap, map());
            let mut old = reference::JoinKernel::new(kind, la, ra, oa, cap, map());
            let (mut lw, mut rw) = (FWindow::new(sl, dim, la), FWindow::new(sr, dim, ra));
            let (mut got, mut want) = (FWindow::new(so, dim, oa), FWindow::new(so, dim, oa));
            let mut sync = 0;
            for round in 0..rounds {
                if round > 0 && next(4) == 0 {
                    new.on_skip();
                    old.on_skip();
                    sync += dim * next(3) as Tick;
                }
                let density = 3 + next(8);
                for (w, p) in [(&mut lw, pl), (&mut rw, pr)] {
                    w.slide_to(sync);
                    for i in 0..w.len() {
                        if next(10) >= density {
                            continue;
                        }
                        let d = match duration_mode {
                            0 => p,
                            1 if next(2) == 0 => p,
                            1 => p * (1 + next(5) as Tick),
                            _ => 1 + next(5 * p as u64) as Tick,
                        };
                        let row: Vec<f32> = (0..w.arity())
                            .map(|f| match next(40) {
                                0 => f32::NAN,
                                _ => ((round * 1000 + i) * 4 + f) as f32 * 0.5,
                            })
                            .collect();
                        w.write(i, &row, d);
                    }
                }
                got.slide_to(sync);
                want.slide_to(sync);
                new.process(&[&lw, &rw], &mut got);
                old.process(&[&lw, &rw], &mut want);
                prop_assert_eq!(snapshot(&got), snapshot(&want), "round {}", round);
                prop_assert_eq!(new.has_pending(), old.has_pending(), "round {}", round);
                sync += dim;
            }
        }
    }

    #[test]
    fn inner_join_follows_fig5c() {
        // Left (0,1) x Right (0,2) -> output (0,1): L_k pairs R_{k/2}.
        let sl = StreamShape::new(0, 1);
        let sr = StreamShape::new(0, 2);
        let l = filled(sl, 4, 0, &[10.0, 11.0, 12.0, 13.0]);
        let r = filled(sr, 4, 0, &[100.0, 101.0]);
        let mut out = empty(sl, 4, 0, 2);
        let mut k = JoinKernel::new(JoinKind::Inner, 1, 1, 2, 4, None);
        k.process(&[&l, &r], &mut out);
        assert_eq!(out.present_count(), 4);
        assert_eq!(out.field(0), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(out.field(1), &[100.0, 100.0, 101.0, 101.0]);
    }

    #[test]
    fn inner_join_requires_both_sides() {
        let s = StreamShape::new(0, 1);
        let mut l = filled(s, 4, 0, &[1.0; 4]);
        let mut r = filled(s, 4, 0, &[2.0; 4]);
        l.clear_slot(1);
        r.clear_slot(2);
        let mut out = empty(s, 4, 0, 2);
        let mut k = JoinKernel::new(JoinKind::Inner, 1, 1, 2, 4, None);
        k.process(&[&l, &r], &mut out);
        assert!(out.is_present(0));
        assert!(!out.is_present(1));
        assert!(!out.is_present(2));
        assert!(out.is_present(3));
    }

    #[test]
    fn left_join_nan_pads_missing_right() {
        let s = StreamShape::new(0, 1);
        let l = filled(s, 2, 0, &[1.0, 2.0]);
        let mut r = filled(s, 2, 0, &[9.0, 9.0]);
        r.clear_slot(1);
        let mut out = empty(s, 2, 0, 2);
        let mut k = JoinKernel::new(JoinKind::Left, 1, 1, 2, 2, None);
        k.process(&[&l, &r], &mut out);
        assert!(out.is_present(1));
        assert!(out.field(1)[1].is_nan());
    }

    #[test]
    fn outer_join_emits_either_side() {
        let s = StreamShape::new(0, 1);
        let mut l = filled(s, 3, 0, &[1.0; 3]);
        let mut r = filled(s, 3, 0, &[2.0; 3]);
        l.clear_slot(0);
        r.clear_slot(2);
        let mut out = empty(s, 3, 0, 2);
        let mut k = JoinKernel::new(JoinKind::Outer, 1, 1, 2, 3, None);
        k.process(&[&l, &r], &mut out);
        assert_eq!(out.present_count(), 3);
        assert!(out.field(0)[0].is_nan());
        assert!(out.field(1)[2].is_nan());
    }

    #[test]
    fn join_map_projects() {
        let s = StreamShape::new(0, 1);
        let l = filled(s, 3, 0, &[1.0, 2.0, 3.0]);
        let r = filled(s, 3, 0, &[10.0, 20.0, 30.0]);
        let mut out = empty(s, 3, 0, 1);
        let mut k = JoinKernel::new(
            JoinKind::Inner,
            1,
            1,
            1,
            3,
            Some(Box::new(|a, b, o| o[0] = a[0] + b[0])),
        );
        k.process(&[&l, &r], &mut out);
        assert_eq!(out.field(0), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn stateful_join_carries_boundary_crossing_event_fig8() {
        // Right event at t=3 with duration 4 ([3,7)) crosses the window
        // boundary at 4; left events at 4,5,6 in the next round must pair
        // with it.
        let sl = StreamShape::new(0, 1);
        let sr = StreamShape::new(0, 1);
        let mut k = JoinKernel::new(JoinKind::Inner, 1, 1, 2, 4, None);

        let l1 = filled(sl, 4, 0, &[0.0, 1.0, 2.0, 3.0]);
        let mut r1 = empty(sr, 4, 0, 1);
        r1.write(3, &[77.0], 4); // [3, 7)
        let mut out1 = empty(sl, 4, 0, 2);
        k.process(&[&l1, &r1], &mut out1);
        assert!(out1.is_present(3));
        assert!(!out1.is_present(2));
        assert!(k.has_pending());

        let l2 = filled(sl, 4, 4, &[4.0, 5.0, 6.0, 7.0]);
        let r2 = empty(sr, 4, 4, 1);
        let mut out2 = empty(sl, 4, 4, 2);
        k.process(&[&l2, &r2], &mut out2);
        assert_eq!(out2.present_count(), 3); // t=4,5,6 covered by carry
        assert_eq!(out2.field(1)[0], 77.0);
        assert!(!out2.is_present(3)); // [3,7) does not cover t=7
        assert!(!k.has_pending());
    }

    #[test]
    fn on_skip_drops_carry() {
        let s = StreamShape::new(0, 1);
        let mut k = JoinKernel::new(JoinKind::Inner, 1, 1, 2, 2, None);
        let l1 = filled(s, 2, 0, &[0.0, 1.0]);
        let mut r1 = empty(s, 2, 0, 1);
        r1.write(1, &[9.0], 5);
        let mut out1 = empty(s, 2, 0, 2);
        k.process(&[&l1, &r1], &mut out1);
        assert!(k.has_pending());
        k.on_skip();
        assert!(!k.has_pending());
    }

    #[test]
    fn clip_join_pairs_with_most_recent_right() {
        // Left (0,1), right (0,2): left at t pairs right at align_down(t,2).
        let sl = StreamShape::new(0, 1);
        let sr = StreamShape::new(0, 2);
        let l = filled(sl, 4, 0, &[0.0, 1.0, 2.0, 3.0]);
        let r = filled(sr, 4, 0, &[100.0, 102.0]);
        let mut out = empty(sl, 4, 0, 2);
        let mut k = ClipJoinKernel::new(1, 1);
        k.process(&[&l, &r], &mut out);
        assert_eq!(out.field(1), &[100.0, 100.0, 102.0, 102.0]);
    }

    #[test]
    fn clip_join_state_survives_rounds_and_gaps() {
        let sl = StreamShape::new(0, 1);
        let sr = StreamShape::new(0, 4);
        let mut k = ClipJoinKernel::new(1, 1);
        let l1 = filled(sl, 4, 0, &[0.0; 4]);
        let r1 = filled(sr, 4, 0, &[50.0]);
        let mut out1 = empty(sl, 4, 0, 2);
        k.process(&[&l1, &r1], &mut out1);
        // Next round: right absent; left still pairs with t=0's right event.
        let l2 = filled(sl, 4, 4, &[0.0; 4]);
        let r2 = empty(sr, 4, 4, 1);
        let mut out2 = empty(sl, 4, 4, 2);
        k.process(&[&l2, &r2], &mut out2);
        assert_eq!(out2.present_count(), 4);
        assert_eq!(out2.field(1)[0], 50.0);
    }

    #[test]
    fn clip_join_emits_nothing_before_first_right() {
        let s = StreamShape::new(0, 1);
        let l = filled(s, 3, 0, &[1.0; 3]);
        let mut r = empty(s, 3, 0, 1);
        r.write(2, &[5.0], 1);
        let mut out = empty(s, 3, 0, 2);
        let mut k = ClipJoinKernel::new(1, 1);
        k.process(&[&l, &r], &mut out);
        assert!(!out.is_present(0));
        assert!(!out.is_present(1));
        assert!(out.is_present(2));
    }
}
