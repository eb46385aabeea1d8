//! The fixed-interval sliding window (FWindow) — LifeStream's key construct.
//!
//! An FWindow is a view over a fixed-length interval of a periodic stream.
//! All operators read and write FWindows; an operator slides its windows
//! forward in time (never backward) to traverse the stream.
//!
//! Storage is columnar (§6): payload fields, per-event durations, and a
//! presence bitvector live in separate arrays so operators touch only the
//! fields they need. Event sync times are *not* stored — because the stream
//! is periodic, the sync time of slot `i` is `base + i * period`, computable
//! from the index without a memory read.

use crate::bitvec::BitVec;
use crate::time::{StreamShape, Tick};

/// Maximum payload arity (number of `f32` fields per event) supported by a
/// single stream. Joins concatenate payloads, so deep join trees widen the
/// payload; 8 covers every pipeline in the paper (CAP joins 6 signals).
pub const MAX_ARITY: usize = 8;

/// A fixed-interval window over a periodic stream.
///
/// The window covers the half-open interval `[sync, sync + dim)` of a stream
/// with shape `(offset, period)`. Slots correspond to grid points inside the
/// interval; `dim` must be a positive multiple of `period` so consecutive
/// windows tile the stream exactly.
///
/// # Examples
/// ```
/// use lifestream_core::fwindow::FWindow;
/// use lifestream_core::time::StreamShape;
///
/// let mut w = FWindow::new(StreamShape::new(0, 2), 10, 1);
/// w.slide_to(0);
/// assert_eq!(w.capacity(), 5);
/// assert_eq!(w.slot_time(3), 6);
/// w.write(3, &[42.0], 2);
/// assert!(w.is_present(3));
/// assert_eq!(w.field(0)[3], 42.0);
/// ```
#[derive(Debug, Clone)]
pub struct FWindow {
    shape: StreamShape,
    dim: Tick,
    sync: Tick,
    base: Tick,
    len: usize,
    arity: usize,
    cols: Vec<Vec<f32>>,
    durations: Vec<Tick>,
    present: BitVec,
}

impl FWindow {
    /// Allocates an FWindow of dimension `dim` over a stream of `shape`,
    /// with `arity` payload fields. This is the *only* allocating call;
    /// sliding reuses the buffers.
    ///
    /// # Panics
    /// Panics if `dim` is not a positive multiple of the period, or `arity`
    /// is zero or exceeds [`MAX_ARITY`].
    pub fn new(shape: StreamShape, dim: Tick, arity: usize) -> Self {
        assert!(
            dim > 0 && dim % shape.period() == 0,
            "FWindow dim {dim} must be a positive multiple of period {}",
            shape.period()
        );
        assert!(
            (1..=MAX_ARITY).contains(&arity),
            "arity {arity} out of range 1..={MAX_ARITY}"
        );
        let cap = (dim / shape.period()) as usize;
        Self {
            shape,
            dim,
            sync: 0,
            base: shape.offset(),
            len: 0,
            arity,
            cols: (0..arity).map(|_| vec![0.0; cap]).collect(),
            durations: vec![0; cap],
            present: BitVec::new(cap),
        }
    }

    /// The stream shape this window views.
    pub fn shape(&self) -> StreamShape {
        self.shape
    }

    /// The window dimension (interval length in ticks).
    pub fn dim(&self) -> Tick {
        self.dim
    }

    /// Start of the current interval.
    pub fn sync(&self) -> Tick {
        self.sync
    }

    /// End of the current interval (`sync + dim`).
    pub fn end(&self) -> Tick {
        self.sync + self.dim
    }

    /// Number of payload fields per event.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Maximum number of event slots (`dim / period`).
    pub fn capacity(&self) -> usize {
        self.cols[0].len()
    }

    /// Number of grid slots inside the current interval. Equals
    /// [`capacity`](Self::capacity) whenever `sync` is grid-aligned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the current interval contains no grid slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of *present* events in the window.
    pub fn present_count(&self) -> usize {
        self.present.count_ones()
    }

    /// Repositions the window to the interval `[sync, sync + dim)`,
    /// clearing presence. Slots are the stream grid points in the interval.
    ///
    /// Windows may only move forward during execution; this is enforced by
    /// the executor, not here, so tests can reposition freely.
    pub fn slide_to(&mut self, sync: Tick) {
        self.sync = sync;
        // Clamp to the stream's first event: grid points before the offset
        // do not exist.
        self.base = self.shape.align_up(sync).max(self.shape.offset());
        let end = sync + self.dim;
        self.len = if self.base >= end {
            0
        } else {
            ((end - 1 - self.base) / self.shape.period() + 1) as usize
        };
        debug_assert!(self.len <= self.capacity());
        self.present.reset(self.len);
    }

    /// Sync time of slot `i` — computed from the index, never loaded from
    /// memory (the periodicity payoff described in §8.1).
    #[inline]
    pub fn slot_time(&self, i: usize) -> Tick {
        self.base + i as Tick * self.shape.period()
    }

    /// Slot index of the grid time `t`, if it falls inside the window.
    #[inline]
    pub fn slot_of(&self, t: Tick) -> Option<usize> {
        if t < self.base || t >= self.end() {
            return None;
        }
        let d = t - self.base;
        if d % self.shape.period() != 0 {
            return None;
        }
        let i = (d / self.shape.period()) as usize;
        (i < self.len).then_some(i)
    }

    /// Presence of slot `i`.
    #[inline]
    pub fn is_present(&self, i: usize) -> bool {
        self.present.get(i)
    }

    /// Marks slot `i` absent.
    #[inline]
    pub fn clear_slot(&mut self, i: usize) {
        self.present.set(i, false);
    }

    /// Duration of the event in slot `i` (meaningful only when present).
    #[inline]
    pub fn duration(&self, i: usize) -> Tick {
        self.durations[i]
    }

    /// Overwrites the duration of slot `i` without touching presence
    /// (used by `AlterDuration` and `Chop`).
    #[inline]
    pub fn set_duration(&mut self, i: usize, d: Tick) {
        self.durations[i] = d;
    }

    /// Read-only view of payload field `f` (length [`len`](Self::len)).
    #[inline]
    pub fn field(&self, f: usize) -> &[f32] {
        &self.cols[f][..self.len]
    }

    /// Mutable view of payload field `f`.
    #[inline]
    pub fn field_mut(&mut self, f: usize) -> &mut [f32] {
        let len = self.len;
        &mut self.cols[f][..len]
    }

    /// Writes a present event into slot `i`: payload (one value per field)
    /// and duration.
    ///
    /// # Panics
    /// Panics if `payload.len() != arity` or `i` is out of range.
    #[inline]
    pub fn write(&mut self, i: usize, payload: &[f32], duration: Tick) {
        debug_assert_eq!(payload.len(), self.arity, "payload arity mismatch");
        for (f, &v) in payload.iter().enumerate() {
            self.cols[f][i] = v;
        }
        self.durations[i] = duration;
        self.present.set(i, true);
    }

    /// Bulk-writes a contiguous run of present single-field events starting
    /// at `start_slot`, all with the same `duration`. Used by sources to
    /// ingest dense data ranges without per-event calls.
    ///
    /// # Panics
    /// Panics if the run exceeds the window or the window is multi-field.
    pub fn fill_from_slice(&mut self, start_slot: usize, values: &[f32], duration: Tick) {
        assert_eq!(self.arity, 1, "bulk fill requires single-field windows");
        let end = start_slot + values.len();
        assert!(end <= self.len, "bulk fill run exceeds window");
        self.cols[0][start_slot..end].copy_from_slice(values);
        self.durations[start_slot..end].fill(duration);
        self.present.set_range(start_slot, end);
    }

    /// Bulk-writes a contiguous run with per-slot durations (single-field
    /// windows only) — the fused-kernel output path for operator chains
    /// that pass input durations through unchanged.
    ///
    /// # Panics
    /// Panics for multi-field windows, mismatched slice lengths, or a run
    /// past the window's current length.
    pub fn fill_from_slice_with_durations(
        &mut self,
        start_slot: usize,
        values: &[f32],
        durations: &[Tick],
    ) {
        assert_eq!(self.arity, 1, "bulk fill requires single-field windows");
        assert_eq!(values.len(), durations.len(), "values/durations length");
        let end = start_slot + values.len();
        assert!(end <= self.len, "bulk fill run exceeds window");
        self.cols[0][start_slot..end].copy_from_slice(values);
        self.durations[start_slot..end].copy_from_slice(durations);
        self.present.set_range(start_slot, end);
    }

    /// Per-slot event durations for the window's current length.
    pub fn durations(&self) -> &[Tick] {
        &self.durations[..self.len]
    }

    /// Reads the payload of slot `i` into `out` (must be `arity` long).
    #[inline]
    pub fn read(&self, i: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.arity);
        for (f, o) in out.iter_mut().enumerate() {
            *o = self.cols[f][i];
        }
    }

    /// The presence bitvector.
    pub fn presence(&self) -> &BitVec {
        &self.present
    }

    /// Mutable access to the presence bitvector (for bulk operators).
    pub fn presence_mut(&mut self) -> &mut BitVec {
        &mut self.present
    }

    /// Copies the full contents (interval, payload, durations, presence)
    /// from another window with identical shape, dim, and arity.
    ///
    /// # Panics
    /// Panics on any layout mismatch.
    pub fn copy_from(&mut self, other: &FWindow) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        assert_eq!(self.dim, other.dim, "dim mismatch");
        assert_eq!(self.arity, other.arity, "arity mismatch");
        self.sync = other.sync;
        self.base = other.base;
        self.len = other.len;
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            dst[..other.len].copy_from_slice(&src[..other.len]);
        }
        self.durations[..other.len].copy_from_slice(&other.durations[..other.len]);
        self.present.reset(other.present.len());
        self.present.copy_from(&other.present);
    }

    /// Iterator over `(slot, sync_time, duration)` of present events.
    pub fn iter_present(&self) -> impl Iterator<Item = (usize, Tick, Tick)> + '_ {
        self.present
            .iter_ones()
            .map(move |i| (i, self.slot_time(i), self.durations[i]))
    }

    /// Total heap bytes held by this window's buffers — the statically
    /// bounded footprint used by the memory planner.
    pub fn footprint_bytes(&self) -> usize {
        let cap = self.capacity();
        self.arity * cap * std::mem::size_of::<f32>()
            + cap * std::mem::size_of::<Tick>()
            + cap.div_ceil(64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win() -> FWindow {
        let mut w = FWindow::new(StreamShape::new(0, 2), 10, 2);
        w.slide_to(0);
        w
    }

    #[test]
    fn capacity_is_dim_over_period() {
        let w = win();
        assert_eq!(w.capacity(), 5);
        assert_eq!(w.len(), 5);
        assert_eq!(w.arity(), 2);
    }

    #[test]
    fn slot_times_are_index_derived() {
        let mut w = win();
        w.slide_to(20);
        assert_eq!(w.sync(), 20);
        assert_eq!(w.end(), 30);
        assert_eq!(w.slot_time(0), 20);
        assert_eq!(w.slot_time(4), 28);
        assert_eq!(w.slot_of(24), Some(2));
        assert_eq!(w.slot_of(25), None); // off-grid
        assert_eq!(w.slot_of(30), None); // past end
        assert_eq!(w.slot_of(18), None); // before start
    }

    #[test]
    fn unaligned_sync_shrinks_len() {
        // Stream (3, 2): events at 3, 5, 7, ... Window [0, 10) holds 3,5,7,9.
        let mut w = FWindow::new(StreamShape::new(3, 2), 10, 1);
        w.slide_to(0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.slot_time(0), 3);
        // Window [10, 20) holds 11,13,15,17,19 -> 5 slots.
        w.slide_to(10);
        assert_eq!(w.len(), 5);
        assert_eq!(w.slot_time(0), 11);
    }

    #[test]
    fn write_read_present() {
        let mut w = win();
        w.write(2, &[1.5, -2.5], 2);
        assert!(w.is_present(2));
        assert!(!w.is_present(1));
        let mut buf = [0.0; 2];
        w.read(2, &mut buf);
        assert_eq!(buf, [1.5, -2.5]);
        assert_eq!(w.duration(2), 2);
        assert_eq!(w.present_count(), 1);
        w.clear_slot(2);
        assert_eq!(w.present_count(), 0);
    }

    #[test]
    fn slide_clears_presence_but_not_capacity() {
        let mut w = win();
        w.write(0, &[1.0, 1.0], 2);
        let cap = w.capacity();
        w.slide_to(10);
        assert_eq!(w.capacity(), cap);
        assert_eq!(w.present_count(), 0);
    }

    #[test]
    fn iter_present_yields_times() {
        let mut w = win();
        w.write(1, &[0.0, 0.0], 2);
        w.write(4, &[0.0, 0.0], 2);
        let v: Vec<_> = w.iter_present().collect();
        assert_eq!(v, vec![(1, 2, 2), (4, 8, 2)]);
    }

    #[test]
    fn copy_from_replicates() {
        let mut a = win();
        a.slide_to(10);
        a.write(3, &[7.0, 8.0], 2);
        let mut b = FWindow::new(StreamShape::new(0, 2), 10, 2);
        b.copy_from(&a);
        assert_eq!(b.sync(), 10);
        assert!(b.is_present(3));
        assert_eq!(b.field(0)[3], 7.0);
        assert_eq!(b.field(1)[3], 8.0);
    }

    #[test]
    fn footprint_is_static() {
        let w = win();
        // 2 fields * 5 slots * 4 bytes + 5 * 8 bytes durations + 1 word bits
        assert_eq!(w.footprint_bytes(), 2 * 5 * 4 + 5 * 8 + 8);
    }

    #[test]
    #[should_panic(expected = "multiple of period")]
    fn dim_must_be_multiple_of_period() {
        let _ = FWindow::new(StreamShape::new(0, 3), 10, 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_bounds_enforced() {
        let _ = FWindow::new(StreamShape::new(0, 1), 10, 0);
    }
}
