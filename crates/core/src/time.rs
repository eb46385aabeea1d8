//! Time model: ticks, periods, and the symbolic `(offset, period)` stream
//! descriptor.
//!
//! LifeStream targets streams whose events appear at constant intervals.
//! Every event's sync time therefore lies on a regular grid described by a
//! [`StreamShape`]: the grid points are `offset + k * period` for integer
//! `k >= 0`. A 500 Hz signal with ticks in milliseconds has `period == 2`.

use std::fmt;

/// The engine's time unit. By convention one tick is one millisecond, which
/// gives integral periods for all the signal rates in the paper (500 Hz → 2,
/// 125 Hz → 8, 200 Hz → 5, 1000 Hz → 1).
pub type Tick = i64;

/// Greatest common divisor of two non-negative ticks.
///
/// # Examples
/// ```
/// assert_eq!(lifestream_core::time::gcd(12, 8), 4);
/// assert_eq!(lifestream_core::time::gcd(7, 0), 7);
/// ```
pub fn gcd(a: Tick, b: Tick) -> Tick {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two positive ticks.
///
/// # Panics
/// Panics in debug builds if the result overflows `i64`.
///
/// # Examples
/// ```
/// assert_eq!(lifestream_core::time::lcm(2, 5), 10);
/// assert_eq!(lifestream_core::time::lcm(100, 10), 100);
/// ```
pub fn lcm(a: Tick, b: Tick) -> Tick {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// Round `t` down to the nearest grid point `offset + k * period` that is
/// `<= t`. Works for `t` below `offset` as well (negative `k`).
pub fn align_down(t: Tick, offset: Tick, period: Tick) -> Tick {
    debug_assert!(period > 0);
    let d = t - offset;
    offset + d.div_euclid(period) * period
}

/// Round `t` up to the nearest grid point `offset + k * period` that is
/// `>= t`.
pub fn align_up(t: Tick, offset: Tick, period: Tick) -> Tick {
    let down = align_down(t, offset, period);
    if down == t {
        t
    } else {
        down + period
    }
}

/// Symbolic descriptor of a periodic stream: events occur at
/// `offset + k * period`.
///
/// The paper writes this as `(offset, period)`; an FWindow over the stream
/// additionally carries a dimension, written `(offset, period)[dim]`.
///
/// # Examples
/// ```
/// use lifestream_core::time::StreamShape;
/// let ecg = StreamShape::new(0, 2); // 500 Hz in ms ticks
/// assert_eq!(ecg.frequency_hz(), 500.0);
/// assert!(ecg.on_grid(42));
/// assert!(!ecg.on_grid(43));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamShape {
    offset: Tick,
    period: Tick,
}

impl StreamShape {
    /// Creates a shape with the given offset and period.
    ///
    /// # Panics
    /// Panics if `period <= 0`.
    pub fn new(offset: Tick, period: Tick) -> Self {
        assert!(period > 0, "stream period must be positive, got {period}");
        Self { offset, period }
    }

    /// The sync time of the first event in the stream.
    pub fn offset(&self) -> Tick {
        self.offset
    }

    /// The constant interval between consecutive events.
    pub fn period(&self) -> Tick {
        self.period
    }

    /// Frequency in Hz assuming one tick is one millisecond.
    pub fn frequency_hz(&self) -> f64 {
        1000.0 / self.period as f64
    }

    /// Returns true if `t` lies on this stream's event grid.
    pub fn on_grid(&self, t: Tick) -> bool {
        (t - self.offset).rem_euclid(self.period) == 0
    }

    /// The smallest grid point `>= t`.
    pub fn align_up(&self, t: Tick) -> Tick {
        align_up(t, self.offset, self.period)
    }

    /// The largest grid point `<= t`.
    pub fn align_down(&self, t: Tick) -> Tick {
        align_down(t, self.offset, self.period)
    }

    /// Number of grid points inside the half-open interval `[a, b)`.
    ///
    /// This is the *bounded memory footprint* property: at most
    /// `ceil((b - a) / period)` events can exist in `[a, b)`.
    pub fn events_in(&self, a: Tick, b: Tick) -> usize {
        if b <= a {
            return 0;
        }
        let first = self.align_up(a);
        if first >= b {
            return 0;
        }
        ((b - 1 - first) / self.period + 1) as usize
    }

    /// Shape after shifting every event's sync time by `k` ticks
    /// (the `Shift(k)` operator's linear transformation).
    pub fn shifted(&self, k: Tick) -> Self {
        Self::new(self.offset + k, self.period)
    }

    /// Shape after re-gridding to a new period (the `AlterPeriod` operator).
    pub fn with_period(&self, period: Tick) -> Self {
        Self::new(self.offset, period)
    }

    /// Shape of the output of a temporal equijoin between `self` and
    /// `other`. Output events sit where both sides' active intervals
    /// overlap; their start times lie on the union of the two grids, whose
    /// enclosing uniform grid has period `gcd(p_l, p_r, |o_l − o_r|)`.
    pub fn join(&self, other: &Self) -> Self {
        let mut p = gcd(self.period, other.period);
        let diff = (self.offset - other.offset).abs();
        if diff != 0 {
            p = gcd(p, diff);
        }
        Self::new(self.offset.min(other.offset), p)
    }

    /// Shape of the output of a windowed aggregate of `window`-tick
    /// windows every `stride` ticks (both multiples of the period): one
    /// output event per stride, on this grid. Sliding windows (`window >
    /// stride`) keep this grid's offset. Tumbling windows (`window ==
    /// stride`) are the spans `[k · window, (k + 1) · window)`, each
    /// emitted at its first point on this grid, so a window never
    /// straddles a round, whose length is a multiple of `window`.
    pub fn aggregated(&self, window: Tick, stride: Tick) -> Self {
        let lead = if window == stride {
            self.offset.rem_euclid(window) / self.period * self.period
        } else {
            0
        };
        Self::new(self.offset - lead, stride)
    }
}

impl fmt::Display for StreamShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.offset, self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(10, 4), 2);
        assert_eq!(gcd(4, 10), 2);
        assert_eq!(lcm(2, 5), 10);
        assert_eq!(lcm(2, 100), 100);
        assert_eq!(lcm(5, 100), 100);
        assert_eq!(lcm(0, 5), 0);
    }

    #[test]
    fn align_handles_negative_and_offsets() {
        assert_eq!(align_down(7, 0, 2), 6);
        assert_eq!(align_up(7, 0, 2), 8);
        assert_eq!(align_down(7, 1, 2), 7);
        assert_eq!(align_up(6, 1, 2), 7);
        assert_eq!(align_down(-3, 0, 2), -4);
        assert_eq!(align_up(-3, 0, 2), -2);
        assert_eq!(align_down(5, 5, 10), 5);
        assert_eq!(align_up(5, 5, 10), 5);
    }

    #[test]
    fn shape_grid_queries() {
        let s = StreamShape::new(3, 5);
        assert!(s.on_grid(3));
        assert!(s.on_grid(8));
        assert!(s.on_grid(-2));
        assert!(!s.on_grid(4));
        assert_eq!(s.align_up(4), 8);
        assert_eq!(s.align_down(4), 3);
    }

    #[test]
    fn events_in_interval_is_bounded_by_interval_over_period() {
        let s = StreamShape::new(0, 2);
        assert_eq!(s.events_in(0, 10), 5);
        assert_eq!(s.events_in(1, 10), 4); // 2,4,6,8
        assert_eq!(s.events_in(0, 1), 1); // just event at 0
        assert_eq!(s.events_in(0, 0), 0);
        assert_eq!(s.events_in(10, 0), 0);
        let s2 = StreamShape::new(1, 4);
        assert_eq!(s2.events_in(0, 16), 4); // 1,5,9,13
    }

    #[test]
    fn linear_shape_transformations() {
        let s = StreamShape::new(0, 2);
        assert_eq!(s.shifted(3), StreamShape::new(3, 2));
        assert_eq!(s.with_period(1), StreamShape::new(0, 1));
        assert_eq!(s.aggregated(100, 100), StreamShape::new(0, 100));
        // Tumbling windows sit on multiples of the window; sliding ones
        // keep the offset.
        let off = StreamShape::new(13, 2);
        assert_eq!(off.aggregated(10, 10), StreamShape::new(11, 10));
        assert_eq!(off.aggregated(10, 4), StreamShape::new(13, 4));
        assert_eq!(off.aggregated(2, 2), StreamShape::new(13, 2));
    }

    #[test]
    fn join_shapes_follow_fig5c() {
        // Fig. 5(c): (0,1) join (0,2) -> (0,1).
        let l = StreamShape::new(0, 1);
        let r = StreamShape::new(0, 2);
        assert_eq!(l.join(&r), StreamShape::new(0, 1));
        // Offset-staggered grids refine the joint period.
        let a = StreamShape::new(0, 4);
        let b = StreamShape::new(1, 4);
        assert_eq!(a.join(&b), StreamShape::new(0, 1));
        let c = StreamShape::new(0, 4);
        let d = StreamShape::new(2, 4);
        assert_eq!(c.join(&d), StreamShape::new(0, 2));
        // Equal shapes join to themselves.
        assert_eq!(l.join(&l), l);
    }

    #[test]
    fn frequency_helpers() {
        assert_eq!(StreamShape::new(0, 2).frequency_hz(), 500.0);
        assert_eq!(StreamShape::new(0, 8).frequency_hz(), 125.0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = StreamShape::new(0, 0);
    }
}
