//! # cluster-harness
//!
//! Scale-up and scale-out machinery: the sharded multi-patient runtime
//! and its cross-machine TCP fabric. (The Fig. 10(c) and 10(d) harnesses
//! that drive it live in `lifestream_bench`.)
//!
//! Physiological pipelines are data-parallel across patients (§8.6):
//! every patient's signals are processed independently, so scaling is a
//! matter of partitioning patients over workers — threads first, then
//! machines. This crate provides that partitioning as a *service* at
//! both granularities:
//!
//! * [`sharded`] is the service: a fixed set of long-lived worker
//!   threads (shards), the one worker model for live sessions, batch jobs
//!   and history cohort passes. [`sharded::LiveIngest`] multiplexes live
//!   `(patient, source, t, v)` sample streams into the `LiveSession`s of
//!   the patients hash-routed to each shard, with round-aligned polling;
//!   [`sharded::ShardedRuntime`] queues batch jobs for whichever shard
//!   is free first, where one warm executor is recycled
//!   across patients (`Executor::recycle`), so locality tracing, memory
//!   planning, and static allocation run once per shard rather than once
//!   per patient. This is the architecture the ROADMAP's "heavy traffic"
//!   north star asks for: data is routed *to* warmed workers (the
//!   Timely Dataflow shape) instead of work being spawned per input.
//! * [`net`] stretches the same ingest protocol across machines: a
//!   versioned length-prefixed wire codec ([`net::wire`]), a
//!   [`net::ShardServer`] hosting the sharded live-ingest runtime
//!   behind a TCP listener, a [`net::RemoteIngest`] client with the
//!   same staging/backpressure surface (acks drive backpressure and
//!   carry server-side drop counts), and a [`net::ClusterIngest`]
//!   router that hash-partitions patients over N endpoints with
//!   lossless mid-stream partition handoff. The fabric is fault
//!   tolerant: clients reconnect-with-resume over a session handshake
//!   and replay their un-acked window exactly once, and the router
//!   fails a dead machine's patients over to survivors from bounded
//!   client-side mirrors ([`net::chaos`] drives the deterministic
//!   fault-injection battery that pins both properties). All three
//!   front ends implement [`sharded::Ingest`], so deployment shape is
//!   a constructor choice.
//! * [`machines`] owns placement: the [`MachineState`] a machine reports
//!   and the hash that homes a patient no routing entry places.
//!   [`net::ClusterIngest`] keeps the one live table: per machine a down
//!   flag, per admitted patient its machine and its failover mirror.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The crates reachable from a socket or the disk never `unwrap`: a
// failure there is an error value, not a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod history;
pub mod machines;
pub mod net;
pub mod sharded;

pub use history::{CohortReport, HistoryError, HistoryQuery, HistoryQueryApi, PipelineSpec};
pub use machines::MachineState;
pub use net::{
    ClusterHealth, ClusterIngest, MachineHealth, RemoteConfig, RemoteHealth, RemoteIngest,
    ShardServer,
};
pub use sharded::{
    Ingest, JobOutcome, LiveIngest, PatientId, PatientReport, RuntimeStats, ShardedConfig,
    ShardedRuntime,
};
