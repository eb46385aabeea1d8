//! `live_cluster_spill` — one sample's whole journey: the gateway (this
//! thread) pushes eight interleaved episodes through a `ClusterIngest`
//! over one loopback TCP connection into a `ShardServer` whose single
//! ingest shard spills every retired span to a segment store.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cluster_harness::net::{ClusterIngest, RemoteConfig, ShardServer};
use cluster_harness::sharded::{Ingest, IngestConfig, PipelineFactory};
use lifestream_core::query::CompiledQuery;
use lifestream_core::time::Tick;
use lifestream_store::segment::read_segment;
use lifestream_store::StoreConfig;

use super::Workload;
use crate::data::{live_pipeline, LIVE_ROUND};
use crate::feed::{episodes, Feed, STEPS_PER_PASS};
use crate::measure::{median, Recorder, Rep};
use crate::spec::Metrics;
use crate::trace::SpanId;

/// Sixteen episodes per slot: 128 ops and about 7.5 M samples a
/// repetition.
const PASSES_PER_REP: usize = 16;

pub fn ingest_config() -> IngestConfig {
    IngestConfig::new(1, LIVE_ROUND).batch(256).channel_cap(64)
}

pub fn remote_config() -> RemoteConfig {
    RemoteConfig::default().batch(256).window(32)
}

/// 8192 samples a segment, which is also what the client's ack window
/// holds (32 frames of 256): a `finish` waits for that window to drain,
/// so every op carries one whole flush and the latency percentiles do
/// not sit on the line between ops with a flush and ops without. The
/// store's default 4096 made the disk's fsync a fifth of the run; 65 536
/// left it in one finish out of eight, which is where p95 then sat.
pub fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig::new(dir).flush_batch(8_192)
}

pub fn factory() -> PipelineFactory {
    Arc::new(live_pipeline)
}

fn segment_paths(dir: &Path) -> impl Iterator<Item = PathBuf> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|x| x == "lss"))
}

/// Segment files under `dir` and their total size.
pub fn segment_files(dir: &Path) -> (u64, u64) {
    segment_paths(dir).fold((0, 0), |(files, bytes), path| {
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        (files + 1, bytes + len)
    })
}

/// Present samples in every segment file under `dir`.
pub fn spilled_samples(dir: &Path) -> u64 {
    segment_paths(dir)
        .flat_map(|path| read_segment(&path).expect("segment written by this run"))
        .map(|record| record.present_samples() as u64)
        .sum()
}

pub struct Cluster {
    // Declared (and so dropped) client first: the server's shutdown
    // waits for its connections to close.
    client: ClusterIngest,
    server: ShardServer,
    dir: PathBuf,
    feed: Feed,
    first_rep: bool,
}

impl Workload for Cluster {
    const ROUND: Tick = LIVE_ROUND;

    fn pipeline() -> CompiledQuery {
        live_pipeline().expect("live pipeline")
    }

    fn setup(seed: u64, scratch: &Path) -> Self {
        let dir = scratch.join("cluster-store");
        let server = ShardServer::bind_with_store(
            factory(),
            ingest_config(),
            store_config(&dir),
            "127.0.0.1:0",
        )
        .expect("bind loopback");
        let client =
            ClusterIngest::connect(&[server.local_addr()], remote_config()).expect("connect");
        Self {
            client,
            server,
            dir,
            feed: Feed::new(episodes(seed), 0),
            first_rep: true,
        }
    }

    fn run_rep(&mut self, rec: &mut Recorder, parent: SpanId) -> Rep {
        // The very first repetition also ramps the staggered slots in.
        let ramp = if std::mem::take(&mut self.first_rep) {
            STEPS_PER_PASS
        } else {
            0
        };
        self.feed.time_calls = rec.tracer.on;
        self.feed.run(
            &self.client,
            ramp + PASSES_PER_REP * STEPS_PER_PASS,
            rec,
            parent,
        )
    }

    fn probe(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        // The warm-up's spans hang under "setup" and are left out.
        let t = &rec.tracer;
        let reps = t.total_ns("rep") as f64;
        let share = |name| t.total_ns_under(name, "rep") as f64 / reps;
        m.set("net.client.push_share", share("ingest.push_block"));
        m.set("net.client.poll_share", share("ingest.poll"));
        m.set("net.client.finish_share", share("ingest.finish"));
        m.set("net.client.admit_ms_p50", median(&self.feed.admit_ms));
    }

    fn teardown(mut self, rec: &mut Recorder, m: &mut Metrics) {
        self.feed.close(&self.client);
        let stats = Ingest::stats(&self.client);
        let health = self.client.health();
        let server = self.server.ingest_stats();
        self.client.shutdown();
        self.server.shutdown();
        // The server owns its store and offers no handle to it, so what
        // it spilled is read back from its directory.
        let (files, bytes) = segment_files(&self.dir);
        // Parsing every segment back costs about a second; only the
        // traced run pays it.
        let spilled = if rec.traced {
            spilled_samples(&self.dir)
        } else {
            0
        };
        let _ = std::fs::remove_dir_all(&self.dir);

        m.set("net.client.frames", stats.batches_flushed as f64);
        m.set("net.client.reconnects", health.reconnects as f64);
        m.set("net.client.frames_replayed", health.frames_replayed as f64);
        m.set(
            "sharded.ingest.batches_flushed",
            server.batches_flushed as f64,
        );
        m.set(
            "sharded.ingest.dropped_unknown",
            server.dropped_unknown as f64,
        );
        m.set("store.segments_written", files as f64);
        m.set("store.spilled_samples", spilled as f64);
        m.set(
            "store.bytes_per_sample",
            bytes as f64 / spilled.max(1) as f64,
        );

        rec.must_be_zero("net.client.reconnects", health.reconnects);
        rec.must_be_zero("net.client.frames_replayed", health.frames_replayed);
        rec.must_be_zero(
            "sharded.ingest.dropped_unknown",
            server.dropped_unknown + stats.dropped_unknown,
        );
        if files == 0 {
            rec.void("live_cluster_spill wrote no segment: nothing spilled");
        }
    }
}
