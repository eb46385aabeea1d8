//! # LifeStream
//!
//! A high-performance stream processing engine for *periodic* streams —
//! a from-scratch Rust reproduction of the ASPLOS '21 paper
//! *LifeStream: A High-Performance Stream Processing Engine for Periodic
//! Streams* (Jayarajan, Hau, Goodwin, Pekhimenko).
//!
//! Physiological waveforms (ECG, ABP, EEG, ...) are produced by bedside
//! monitors at fixed rates. LifeStream exploits that periodicity with two
//! properties of temporal operators over periodic streams:
//!
//! * **Linearity** — the sync time of every output event is a linear
//!   transformation of its parent input events' sync times, so the whole
//!   lineage of every event can be computed statically ([`lineage`]).
//! * **Bounded memory footprint** — a stream of period `p` can hold at most
//!   `d / p` events in any interval of length `d`, so every intermediate
//!   buffer size is known at query-compile time ([`memory`]).
//!
//! Those two properties power three optimizations:
//!
//! 1. **Locality tracing** ([`trace`]) — a query-compile-time pass that
//!    equalizes the [`FWindow`] dimensions across the whole
//!    computation graph so intermediate results are consumed immediately,
//!    maximizing end-to-end cache locality.
//! 2. **Static memory allocation** ([`memory`]) — all intermediate FWindows
//!    are preallocated once and reused; steady-state execution performs no
//!    heap allocation.
//! 3. **Targeted query processing** ([`exec`]) — event lineage maps candidate
//!    output windows back to source intervals; windows whose sources cannot
//!    produce output (discontinuities, no join overlap) are skipped entirely.
//!
//! ## Quickstart
//!
//! Queries are written in one language, [`stream`]: a [`Query`] scope
//! hands out chainable [`Stream`] values, and every Table-2 operator is a
//! fallible method on them.
//!
//! ```
//! use lifestream_core::prelude::*;
//!
//! // A 10 Hz stream (period 100 ticks) of ramp values, 100 events.
//! let data = SignalData::dense(StreamShape::new(0, 100),
//!                              (0..100).map(|i| i as f32).collect());
//!
//! let q = Query::new();
//! q.source("sig", data.shape())
//!     .map(|v| v * v)?
//!     .sink();
//!
//! let mut exec = q.compile()?.executor(vec![data])?;
//! let out = exec.run_collect()?;
//! assert_eq!(out.len(), 100);
//! assert_eq!(out.values(0)[3], 9.0);
//! # Ok::<(), lifestream_core::Error>(())
//! ```
//!
//! A [`Query`] owns its logical plan: each operator method validates its
//! parameters and appends one graph node, and [`Query::compile`] traces
//! the graph into the [`CompiledQuery`](query::CompiledQuery) that
//! executors, live sessions and history replays all run.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitvec;
pub mod codec;
pub mod dtw;
pub mod error;
pub mod exec;
pub mod fuse;
pub mod fwindow;
pub mod graph;
pub mod lineage;
pub mod live;
pub mod memory;
pub mod ops;
pub mod pipeline;
pub mod presence;
pub mod query;
pub mod source;
pub mod stats;
pub mod stream;
pub mod time;
pub mod trace;

pub use error::{Error, Result};
pub use exec::{ExecOptions, Executor};
pub use fwindow::FWindow;
pub use source::SignalData;
pub use stream::{Query, Stream};
pub use time::{StreamShape, Tick};

/// Convenience re-exports for typical usage.
pub mod prelude {
    pub use crate::error::{Error, Result};
    pub use crate::exec::{ExecOptions, Executor, OutputCollector};
    pub use crate::fwindow::FWindow;
    pub use crate::ops::aggregate::AggKind;
    pub use crate::ops::join::JoinKind;
    pub use crate::presence::PresenceMap;
    pub use crate::source::SignalData;
    pub use crate::stats::RunStats;
    pub use crate::stream::{Query, Stream};
    pub use crate::time::{StreamShape, Tick};
}
