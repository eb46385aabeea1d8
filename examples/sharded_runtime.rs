//! The sharded multi-patient runtime, end to end.
//!
//! Two faces of the same service:
//!
//! 1. **Batch jobs** — a stream of arriving patients is submitted to a
//!    fixed set of shard threads over their *bounded* channels (a slow
//!    shard backpressures `submit` instead of queueing without limit),
//!    each job taken by whichever shard is free first; each shard
//!    compiles the pipeline once and recycles its warmed executor for
//!    every later patient.
//! 2. **Live ingest** — per-patient monitor feeds push samples that are
//!    staged client-side and shipped to the same kind of shard threads in
//!    batches over bounded channels; sessions compact their buffers as rounds
//!    complete, so a feed can run forever in bounded memory.
//!
//! Run with `cargo run --release --example sharded_runtime`.

use std::sync::Arc;

use lifestream::cluster::sharded::{
    IngestConfig, JobOutcome, LiveIngest, PipelineFactory, ShardedConfig, ShardedRuntime,
};
use lifestream::core::pipeline::fig3_pipeline;
use lifestream::core::prelude::*;
use lifestream::signal::dataset::ecg_abp_pair;

fn main() {
    let workers: usize = std::env::var("LS_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    // ---------------------------------------------------------------
    // 1. Batch: a stream of patients through pooled executors.
    // ---------------------------------------------------------------
    let patients = 12;
    let pairs: Vec<_> = (0..patients)
        .map(|p| ecg_abp_pair(1, 1000 + p as u64))
        .collect();
    let (ecg_shape, abp_shape) = (pairs[0].0.shape(), pairs[0].1.shape());

    let factory: PipelineFactory =
        Arc::new(move || fig3_pipeline(ecg_shape, abp_shape, 1000)?.compile());
    let rt = ShardedRuntime::new(
        factory,
        ShardedConfig::with_workers(workers).round_ticks(60_000),
    );
    println!("submitting {patients} patients to {workers} shards ...");
    for (p, (ecg, abp)) in pairs.iter().enumerate() {
        rt.submit(p as u64, vec![ecg.clone(), abp.clone()]);
    }
    for report in rt.drain(patients) {
        assert!(matches!(report.outcome, JobOutcome::Ok));
        println!(
            "  patient {:>2} -> shard {}: {:>7} events out",
            report.patient, report.shard, report.output_events
        );
    }
    let stats = rt.shutdown();
    println!(
        "pooling: {} compiles, {} recycles\n",
        stats.compiles, stats.recycles
    );

    // ---------------------------------------------------------------
    // 2. Live ingest: batched pushes, round-aligned polls, finish.
    // ---------------------------------------------------------------
    let live_factory: PipelineFactory = Arc::new(|| {
        let q = Query::new();
        q.source("ecg", StreamShape::new(0, 2))
            .aggregate(AggKind::Mean, 100, 100)?
            .sink();
        q.compile()
    });
    // Samples are staged client-side and shipped 256 at a time over
    // bounded (depth-64) channels — per-sample dispatch is amortized and
    // a lagging shard backpressures push instead of queueing unboundedly.
    let ingest = LiveIngest::with_config(
        live_factory,
        IngestConfig::new(workers, 1000).batch(256).channel_cap(64),
    );
    let live_patients: Vec<u64> = vec![7, 42, 99];
    for &p in &live_patients {
        ingest.admit(p).expect("admit");
    }
    println!("live-ingesting 3 patient feeds, interleaved, batched ...");
    for k in 0..5_000i64 {
        for &p in &live_patients {
            // Each monitor has its own waveform phase.
            let v = ((k + p as i64) as f32 * 0.01).sin() * 40.0 + 80.0;
            ingest.push(p, 0, k * 2, v);
        }
        if k % 500 == 0 {
            ingest.poll(); // round-aligned: only complete rounds run
        }
    }
    for &p in &live_patients {
        let out = ingest.finish(p).expect("finish");
        println!(
            "  patient {p:>2}: {} window means, first = {:.2}",
            out.len(),
            out.values(0).first().copied().unwrap_or(f32::NAN)
        );
    }
    let istats = ingest.stats();
    println!(
        "ingest: {} samples in {} batches ({} samples/flush), {} dropped-unknown",
        istats.samples_pushed,
        istats.batches_flushed,
        istats.samples_pushed / istats.batches_flushed.max(1),
        istats.dropped_unknown
    );
    ingest.shutdown();
    println!("done.");
}
