//! # llc-sim
//!
//! A set-associative last-level-cache simulator used to reproduce Table 5
//! (LLC misses of Trill vs. LifeStream on the Normalize query across batch
//! sizes).
//!
//! The paper measures LLC misses with Intel vTune on a Xeon E5-2660
//! (20 MiB LLC). PMU counters are not portable, so both engines instead
//! describe their memory behaviour as *buffer-granularity access traces* —
//! sequential sweeps over the address ranges of the buffers they actually
//! touch, in execution order — and this crate replays those traces against
//! an inclusive, set-associative LLC model with true-LRU replacement.
//!
//! The effect Table 5 demonstrates is purely a working-set-vs-cache-size
//! phenomenon: Trill streams whole batches through every operator (fresh
//! allocations each batch, working set ∝ batch size), while LifeStream
//! re-sweeps the same small preallocated FWindows every round (working
//! set ≈ plan size, independent of input scale). A faithful cache model
//! reproduces it without PMU access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod trace;

pub use cache::{CacheConfig, CacheSim};
pub use trace::{AccessTrace, Segment};
