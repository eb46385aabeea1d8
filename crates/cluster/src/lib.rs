//! # cluster-harness
//!
//! Scale-up and scale-out machinery: the sharded multi-patient runtime,
//! its cross-machine TCP fabric, and the harnesses behind Figs. 10(c)
//! and 10(d).
//!
//! Physiological pipelines are data-parallel across patients (§8.6):
//! every patient's signals are processed independently, so scaling is a
//! matter of partitioning patients over workers — threads first, then
//! machines. This crate provides that partitioning as a *service* at
//! both granularities, and as a *benchmark*:
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
//! * [`multicore`] runs *real threads* on this machine — the Fig. 10c
//!   experiment. Its LifeStream arm is served by the sharded runtime;
//!   the baselines keep their per-patient loops, including each one's
//!   failure mode (the Trill baseline's join-state memory is
//!   per-process, so thread count multiplies its footprint and it OOMs
//!   beyond a thread budget; the NumLib baseline's whole-array
//!   materialization saturates the memory bus).
//! * [`machines`] owns placement: the live [`machines::PlacementTable`]
//!   routing patients across endpoints (promoted from model to routing
//!   table by the wire fabric), and the discrete coordination/straggler
//!   [`machines::ClusterModel`] behind the Fig. 10d extrapolation. The
//!   paper's 16 × EC2 m5a.8xlarge cluster is not available here; the
//!   substitution is documented in DESIGN.md.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod history;
pub mod machines;
pub mod multicore;
pub mod net;
pub mod sharded;

pub use history::{CohortReport, HistoryError, HistoryQuery, HistoryQueryApi, PipelineSpec};
pub use machines::{ClusterModel, MachineRun, MachineState, PlacementTable};
pub use multicore::{run_scaling, Engine, PatientWorkload, ScalePoint};
pub use net::{
    ClusterHealth, ClusterIngest, MachineHealth, RemoteConfig, RemoteHealth, RemoteIngest,
    ShardServer,
};
pub use sharded::{
    Ingest, JobOutcome, LiveIngest, PatientId, PatientReport, RuntimeStats, ShardedConfig,
    ShardedRuntime,
};
