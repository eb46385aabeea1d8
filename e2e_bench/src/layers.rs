//! Direct calls into single layers, made by every traced run whatever its
//! workload: compile and executor construction, single-operator
//! pipelines, the wire and segment codecs, a store flush, and the ladder
//! — the live feed through successively longer paths.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use cluster_harness::net::wire::{decode_cmd, encode_cmd, WireCmd};
use cluster_harness::net::{ClusterIngest, RemoteIngest, ShardServer};
use cluster_harness::sharded::{Ingest, IngestStats, LiveIngest, Sample};
use lifestream_core::exec::{ExecOptions, Executor, OutputCollector};
use lifestream_core::live::LiveSession;
use lifestream_core::ops::join::JoinKind;
use lifestream_core::pipeline::{fill_mean, resample};
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};
use lifestream_signal::{DatasetBuilder, SignalKind};
use lifestream_store::segment::{encode_record, parse_segment, write_segment};
use lifestream_store::{SegmentRecord, SegmentStore, StoreConfig};

use crate::clock::Stretch;
use crate::data::{
    compile_dense, dense_signal, empty_sources, live_pipeline, op_chain, op_fir8, op_normalize,
    op_select, op_sliding_mean, op_where, StreamOp, CHAIN_ROUND, LIVE_PERIOD, LIVE_ROUND,
};
use crate::feed::{episodes, Feed, STEPS_PER_PASS};
use crate::measure::{median, percentile, Recorder};
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::workloads::cluster::{factory, ingest_config, remote_config, store_config};
use crate::workloads::Workload;

const PROBE_SAMPLES: usize = 500_000;
const PROBE_RUNS: usize = 5;
/// Episodes per slot on each rung, after the ramp.
const LADDER_PASSES: usize = 3;

/// Compile and executor-construction cost of the workload's pipeline.
pub fn build_costs<W: Workload>(m: &mut Metrics) {
    let opts = ExecOptions::default().with_round_ticks(W::ROUND);
    let (mut compile_us, mut build_us) = (Vec::new(), Vec::new());
    let mut planned = 0;
    for _ in 0..50 {
        let t = Instant::now();
        let compiled = W::pipeline();
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        let sources = empty_sources(&compiled);
        let t = Instant::now();
        let exec = compiled.executor_with(sources, opts).expect("executor");
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
        planned = exec.planned_bytes();
    }
    m.set("core.query.compile_us", median(&compile_us));
    m.set("core.exec.executor_build_us", median(&build_us));
    m.set("core.exec.planned_bytes", planned as f64);
}

/// Median time of a full discarding run over `sources`, like every
/// probe's time at the reference clock (see `clock`).
fn run_seconds(exec: &mut Executor, sources: &[SignalData]) -> f64 {
    let times: Vec<f64> = (0..PROBE_RUNS)
        .map(|_| {
            exec.recycle(sources.to_vec()).expect("recycle");
            let t = Stretch::begin();
            black_box(exec.run().expect("run"));
            t.end().scaled.as_secs_f64()
        })
        .collect();
    median(&times)
}

fn mev_per_s(compiled: CompiledQuery, sources: &[SignalData], opts: ExecOptions) -> f64 {
    let events: usize = sources.iter().map(SignalData::present_events).sum();
    let mut exec = compiled
        .executor_with(sources.to_vec(), opts)
        .expect("executor");
    events as f64 / run_seconds(&mut exec, sources) / 1e6
}

/// Single-operator pipelines (nothing to fuse) and the chain, fused
/// against staged.
pub fn operator_rates(seed: u64, m: &mut Metrics) {
    let opts = ExecOptions::default().with_round_ticks(CHAIN_ROUND);
    let dense = [dense_signal(PROBE_SAMPLES, seed)];
    let singles: [(&'static str, StreamOp); 5] = [
        ("core.ops.select_mev_s", op_select),
        ("core.ops.where_mev_s", op_where),
        ("core.ops.normalize_mev_s", op_normalize),
        ("core.ops.fir8_mev_s", op_fir8),
        ("core.ops.sliding_mean_mev_s", op_sliding_mean),
    ];
    for (name, op) in singles {
        m.set(name, mev_per_s(compile_dense(op), &dense, opts));
    }

    let pair = [dense[0].clone(), dense_signal(PROBE_SAMPLES, seed ^ 1)];
    let q = Query::new();
    let grid = StreamShape::new(0, 1);
    q.source("a", grid)
        .join(q.source("b", grid), JoinKind::Inner)
        .expect("join")
        .sink();
    m.set(
        "core.ops.join_mev_s",
        mev_per_s(q.compile().expect("compile"), &pair, opts),
    );

    let q = Query::new();
    fill_mean(q.source("sig", grid), CHAIN_ROUND)
        .expect("fill_mean")
        .sink();
    m.set(
        "core.ops.fill_mean_mev_s",
        mev_per_s(q.compile().expect("compile"), &dense, opts),
    );

    // Resample is the Fig. 3 step: 125 Hz ABP up to the 500 Hz ECG grid.
    let abp = [DatasetBuilder::new(SignalKind::Abp, seed)
        .span_ticks(PROBE_SAMPLES as Tick * 8)
        .build(125.0)];
    let q = Query::new();
    resample(q.source("abp", abp[0].shape()), 2, CHAIN_ROUND)
        .expect("resample")
        .sink();
    m.set(
        "core.ops.resample_mev_s",
        mev_per_s(q.compile().expect("compile"), &abp, opts),
    );

    let fused = mev_per_s(compile_dense(op_chain), &dense, opts);
    let staged = mev_per_s(compile_dense(op_chain), &dense, opts.without_fusion());
    m.set("core.fuse.fused_vs_staged_ratio", fused / staged);
}

/// `encode_cmd` / `decode_cmd` on 256-sample `Batch` frames.
pub fn wire_codec(m: &mut Metrics) {
    const FRAME: usize = 256;
    const FRAMES: usize = 4_000;
    let samples: Vec<Sample> = (0..FRAME)
        .map(|k| (k as u64 % 8, 0, k as Tick * LIVE_PERIOD, k as f32 * 0.5))
        .collect();
    let cmd = WireCmd::Batch(samples);
    let t = Stretch::begin();
    let mut bytes = 0;
    for seq in 0..FRAMES as u64 {
        bytes = black_box(encode_cmd(seq, &cmd)).len();
    }
    let encode = t.end().scaled;
    let payload = encode_cmd(1, &cmd);
    let t = Stretch::begin();
    for _ in 0..FRAMES {
        black_box(decode_cmd(black_box(&payload)).expect("decode"));
    }
    let decode = t.end().scaled;
    let per_sample = |d: Duration| d.as_nanos() as f64 / (FRAME * FRAMES) as f64;
    m.set("net.wire.encode_ns_per_sample", per_sample(encode));
    m.set("net.wire.decode_ns_per_sample", per_sample(decode));
    m.set("net.wire.bytes_per_sample", bytes as f64 / FRAME as f64);
}

/// The segment codec and one store flush, on 4096-sample spans shaped
/// like the ones a live session retires.
pub fn segment_codec(scratch: &Path, m: &mut Metrics) {
    const SPAN: usize = 4_096;
    const SPANS: usize = 64;
    let record = |i: usize| SegmentRecord {
        patient: i as u64 % 8,
        source: 0,
        shape: StreamShape::new(0, LIVE_PERIOD),
        base_slot: (i * SPAN) as u64,
        values: (0..SPAN).map(|k| (k + i) as f32 * 0.25).collect(),
        ranges: vec![(
            (i * SPAN) as Tick * LIVE_PERIOD,
            ((i + 1) * SPAN) as Tick * LIVE_PERIOD,
        )],
    };
    let records: Vec<SegmentRecord> = (0..SPANS).map(record).collect();
    let mb = |bytes: usize, d: Duration| bytes as f64 / 1e6 / d.as_secs_f64();

    let t = Stretch::begin();
    let encoded: usize = records
        .iter()
        .map(|r| black_box(encode_record(r)).len())
        .sum();
    m.set("store.segment.encode_mb_s", mb(encoded, t.end().scaled));

    let dir = scratch.join("segment-probe");
    std::fs::create_dir_all(&dir).expect("probe dir");
    let image = dir.join("image.lss");
    write_segment(&image, &records).expect("write segment");
    let bytes = std::fs::read(&image).expect("read segment");
    let t = Stretch::begin();
    black_box(parse_segment(black_box(&bytes)).expect("parse"));
    m.set("store.segment.decode_mb_s", mb(bytes.len(), t.end().scaled));

    // flush_batch is out of reach, so `spill` buffers and `flush` is ours.
    let mut store =
        SegmentStore::open(StoreConfig::new(&dir).flush_batch(usize::MAX)).expect("open store");
    let flush_ms: Vec<f64> = records
        .into_iter()
        .map(|r| {
            store.spill(
                r.patient,
                lifestream_core::live::RetiredSpan {
                    source: 0,
                    shape: r.shape,
                    base_slot: r.base_slot,
                    values: r.values,
                    ranges: r.ranges,
                },
            );
            let t = Stretch::begin();
            store.flush().expect("flush");
            t.end().scaled.as_secs_f64() * 1e3
        })
        .collect();
    m.set("store.flush_ms_p50", median(&flush_ms));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ingest protocol over bare `LiveSession`s on the calling thread:
/// what a shard does for its patients, without the channel, the staging
/// or the thread.
struct SessionIngest(RefCell<Sessions>);

#[derive(Default)]
struct Sessions {
    open: Vec<(u64, LiveSession, OutputCollector)>,
    poll_us: Vec<f64>,
    in_polls: Duration,
    retained_slots_max: usize,
}

impl Ingest for SessionIngest {
    fn admit(&self, patient: u64) -> Result<(), String> {
        let session = live_pipeline()
            .and_then(|q| LiveSession::new(q, LIVE_ROUND))
            .map_err(|e| e.to_string())?;
        let out = OutputCollector::new(session.sink_arity().map_err(|e| e.to_string())?);
        self.0.borrow_mut().open.push((patient, session, out));
        Ok(())
    }

    fn push(&self, patient: u64, source: usize, t: Tick, v: f32) {
        let mut s = self.0.borrow_mut();
        if let Some((_, session, _)) = s.open.iter_mut().find(|(p, _, _)| *p == patient) {
            session.push(source, t, v).expect("in-order push");
        }
    }

    fn poll(&self) {
        let s = &mut *self.0.borrow_mut();
        for (_, session, out) in &mut s.open {
            let t = Instant::now();
            session.poll(|w| out.absorb(w)).expect("poll");
            let d = t.elapsed();
            s.in_polls += d;
            s.poll_us.push(d.as_secs_f64() * 1e6);
            s.retained_slots_max = s
                .retained_slots_max
                .max(session.retained_slots(0).expect("source 0"));
        }
    }

    fn finish(&self, patient: u64) -> Result<OutputCollector, String> {
        let mut s = self.0.borrow_mut();
        let at = s
            .open
            .iter()
            .position(|(p, _, _)| *p == patient)
            .ok_or("unknown patient")?;
        let (_, mut session, mut out) = s.open.swap_remove(at);
        session
            .finish(|w| out.absorb(w))
            .map_err(|e| e.to_string())?;
        Ok(out)
    }

    fn stats(&self) -> IngestStats {
        IngestStats::default()
    }
}

struct Rung {
    events_per_s: f64,
    events: u64,
    wall: Duration,
    feed: Feed,
}

/// Streams the ladder's fixed stretch of the feed into `ingest`.
fn climb(ingest: &dyn Ingest, mut feed: Feed, rec: &mut Recorder) -> Rung {
    feed.time_calls = true;
    let steps = (1 + LADDER_PASSES) * STEPS_PER_PASS;
    let rep = feed.run(ingest, steps, rec, Tracer::root());
    feed.close(ingest);
    Rung {
        events_per_s: rep.events_per_s(),
        events: rep.events,
        wall: rep.elapsed.wall,
        feed,
    }
}

/// The live feed of `live_cluster_spill` through five paths, each one
/// layer longer than the last. The gap between two rungs is what the
/// added layer costs; each rung caps `events_per_s` of the workload.
pub fn ladder(seed: u64, scratch: &Path, rec: &mut Recorder, m: &mut Metrics) {
    let episodes = episodes(seed);
    let feed = |first_patient| Feed::new(episodes.clone(), first_patient);
    let dir = scratch.join("ladder-store");

    let sessions = SessionIngest(RefCell::default());
    let session = climb(&sessions, feed(0), rec);
    let s = sessions.0.into_inner();
    // What is left of the rung's wall time after its polls is its push
    // loop (96 admits and finishes of a bare session are microseconds).
    let in_pushes = session.wall - s.in_polls;
    m.set("ladder.session_eps", session.events_per_s);
    m.set(
        "core.live.push_ns",
        in_pushes.as_nanos() as f64 / session.events as f64,
    );
    m.set("core.live.poll_us_p50", percentile(&s.poll_us, 0.5));
    m.set("core.live.retained_slots_max", s.retained_slots_max as f64);

    let ingest = LiveIngest::with_config(factory(), ingest_config());
    let plain = climb(&ingest, feed(0), rec);
    ingest.shutdown();
    m.set("ladder.ingest_eps", plain.events_per_s);

    let ingest =
        LiveIngest::with_store(factory(), ingest_config(), store_config(&dir)).expect("open store");
    let stored = climb(&ingest, feed(0), rec);
    let io_errors = ingest.store().expect("store attached").stats().io_errors;
    ingest.shutdown();
    m.set("ladder.ingest_store_eps", stored.events_per_s);
    m.set(
        "sharded.ingest.admit_us",
        median(&stored.feed.admit_ms) * 1e3,
    );
    m.set(
        "sharded.ingest.finish_ms_p50",
        median(&stored.feed.finish_ms),
    );
    // Besides history_query_mix's own, the one store of a traced run
    // whose counters the benchmark can read.
    m.set(
        "store.io_errors",
        m.get("store.io_errors") + io_errors as f64,
    );
    rec.must_be_zero("store.io_errors", io_errors);

    // Patient ids move on so the two servers' spills stay apart.
    let bind = || {
        ShardServer::bind_with_store(
            factory(),
            ingest_config(),
            store_config(&dir),
            "127.0.0.1:0",
        )
        .expect("bind loopback")
    };
    let server = bind();
    let remote = RemoteIngest::connect(server.local_addr(), remote_config()).expect("connect");
    let remote_rung = climb(&remote, feed(1_000_000), rec);
    remote.shutdown();
    server.shutdown();
    m.set("ladder.remote_eps", remote_rung.events_per_s);

    let server = bind();
    let cluster = ClusterIngest::connect(&[server.local_addr()], remote_config()).expect("connect");
    let cluster_rung = climb(&cluster, feed(2_000_000), rec);
    cluster.shutdown();
    server.shutdown();
    m.set("ladder.cluster_eps", cluster_rung.events_per_s);
    let _ = std::fs::remove_dir_all(&dir);

    m.set(
        "store.spill_ratio",
        stored.events_per_s / plain.events_per_s,
    );
    m.set(
        "net.remote_vs_ingest_ratio",
        remote_rung.events_per_s / stored.events_per_s,
    );
    m.set(
        "net.cluster_vs_remote_ratio",
        cluster_rung.events_per_s / remote_rung.events_per_s,
    );
}
