//! # LifeStream (reproduction) — facade crate
//!
//! Re-exports the whole workspace under one roof:
//!
//! * [`core`] — the LifeStream engine (FWindows, temporal operators,
//!   locality tracing, static memory allocation, targeted query
//!   processing, shape-based `Where`).
//! * [`signal`] — synthetic physiological waveforms, gap models,
//!   artifacts, CSV I/O.
//! * [`trill`] — the Trill-architecture baseline engine.
//! * [`numlib`] — the NumPy/SciPy-style baseline (array kernels + the
//!   `pyvm` interpreter for pure-Python stages).
//! * [`distrib`] — Spark/Storm/Flink-like micro-batch engine profiles.
//! * [`cache_sim`] — the set-associative LLC model behind Table 5.
//! * [`cluster`] — the sharded multi-patient runtime and its TCP ingest
//!   fabric.
//! * [`engine`] — the cross-engine layer: a [`Workload`](engine::Workload)
//!   described once runs on every engine through one call,
//!   [`Engine::run`](engine::Engine::run).
//!
//! ## The query language
//!
//! LifeStream queries are written in one language ([`core::stream`]): a
//! [`Query`](core::stream::Query) scope hands out chainable, `Copy`
//! [`Stream`](core::stream::Stream) values, and every Table-2 operator is
//! a fallible method that appends its node to the query's plan, so the
//! paper's Listing 1 reads as one chain:
//! `src.aggregate(Mean, 100, 100)?.join_map(src, Inner, 1, f)?.sink()`.
//! [`Query::compile`](core::stream::Query::compile) traces the plan into
//! a [`CompiledQuery`](core::query::CompiledQuery).
//!
//! Baseline engines plug in *underneath* the query language via the
//! [`engine::Engine`] trait, so comparisons (tests, benches, paper
//! figures) define each workload exactly once and run it with
//! [`Engine::run`](engine::Engine::run); an engine that exceeds its
//! memory cap says so with a typed
//! [`EngineError::OutOfMemory`](engine::EngineError::OutOfMemory).
//!
//! See `examples/` for runnable walkthroughs and `crates/bench/src/bin/`
//! for one binary per paper table/figure.

pub mod engine;

pub use distrib_baseline as distrib;
pub use lifestream_core as core;
pub use lifestream_signal as signal;
pub use lifestream_store as store;
pub use llc_sim as cache_sim;
pub use numlib_baseline as numlib;
pub use trill_baseline as trill;

/// Scale-up (threads) and scale-out (modeled machines) harness.
pub mod cluster {
    pub use cluster_harness::*;
}
