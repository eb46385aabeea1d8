//! Scales measured times to one CPU clock.
//!
//! The reference box's CPUs step between a base clock and five boost
//! levels, up to 1.29 times faster, staying on one for anything from a
//! tenth of a second to twenty seconds, as the host's other guests come
//! and go. A repetition of `retro_fig3_gaps` reads 20.9 M events/s at base
//! and 26.2 M boosted, within one run; over ten runs that spread every
//! timing metric by 13–16 %, medians or quartiles alike. A short loop
//! whose time depends on nothing but the core clock — a chain of dependent
//! multiplies in registers — reads the clock beside every op: 12.4 µs at
//! base, 9.6 µs at full boost, nothing in between but the five steps. Each
//! measured time is multiplied by `REFERENCE_NS / loop time`, which turns
//! it into the time the same work takes at the clock where the loop takes
//! `REFERENCE_NS`: the reference box's base clock. On another machine the
//! factor has another constant part, the same for a parent and a change
//! measured there.

use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERATIONS: u32 = 8_192;
/// The loop's time at the reference box's base clock (2.1 GHz).
const REFERENCE_NS: f64 = 12_400.0;

fn loop_ns() -> u64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ITERATIONS {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    t.elapsed().as_nanos() as u64
}

/// How much faster than the reference clock the CPU runs right now. The
/// quickest of three loops: the other threads of the process share this
/// CPU, and one that is scheduled in mid-loop only ever lengthens it.
pub fn factor() -> f64 {
    let ns = (0..3).map(|_| loop_ns()).min().expect("three loops");
    REFERENCE_NS / ns.max(1) as f64
}

/// Reads the clock before and after one stretch of work.
pub struct Stretch {
    start: Instant,
    factor_before: f64,
}

impl Stretch {
    pub fn begin() -> Self {
        let factor_before = factor();
        Self {
            start: Instant::now(),
            factor_before,
        }
    }

    pub fn end(self) -> Timed {
        let wall = self.start.elapsed();
        Timed {
            wall,
            scaled: wall.mul_f64((self.factor_before + factor()) / 2.0),
        }
    }
}

/// One stretch of work: the time it took, and that time at the reference
/// clock.
#[derive(Clone, Copy, Default)]
pub struct Timed {
    pub wall: Duration,
    pub scaled: Duration,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Self) {
        self.wall += other.wall;
        self.scaled += other.scaled;
    }
}
