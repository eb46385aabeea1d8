//! # trill-baseline
//!
//! A re-implementation of Microsoft Trill's published architecture
//! (Chandramouli et al., VLDB 2014) used as the primary baseline in the
//! LifeStream paper's evaluation. Trill itself is .NET and its internals
//! are not reusable here, so this crate implements the same design
//! honestly in Rust:
//!
//! * **Columnar stream batches** ([`batch::StreamBatch`]): events travel
//!   in batches of a configurable size (Trill defaults to ~80 000) with
//!   sync-time, duration, and payload columns. Unlike LifeStream's
//!   FWindows, sync times are *stored and read from memory*, and batch
//!   boundaries are unrelated to window boundaries.
//! * **Eager push dataflow**: every batch is processed by each operator as
//!   soon as it arrives and immediately passed downstream, whether or not
//!   a later join will discard the results — no targeted processing.
//! * **Per-batch dynamic allocation**: each operator allocates fresh
//!   output batches; there is no static memory plan.
//! * **Hash-based temporal join** with divergence buffering: each side
//!   buffers events until the other side's watermark passes them. When
//!   the two inputs progress at different paces (pervasive in gap-riddled
//!   physiological data), the buffers accumulate — the exact behaviour
//!   that drives Trill out of memory at 200 M events in Fig. 9(c). The
//!   engine reports [`TrillError::OutOfMemory`] when the join state
//!   exceeds a configurable cap instead of actually exhausting the host.
//!
//! The operator set mirrors what the paper's benchmarks need (Select,
//! Where, Aggregate, Chop, ClipJoin, Join, windowed user ops), and
//! [`pipelines`] provides the Table 3 operations and the Fig. 3 / Table 4
//! applications expressed against this engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod engine;
pub mod join;
pub mod pipelines;

pub use batch::StreamBatch;
pub use engine::{EventSource, TrillError, TrillPipeline, TrillStats};
