//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `../BENCHMARK.json` states
//! the same lists; a unit test keeps the two in step.

use std::collections::BTreeMap;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload is in the benchmark; `BENCHMARK.json` carries it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "retro_fig3_gaps",
        why: "Paper's Fig. 3 ECG+ABP jobs through a 1-worker ShardedRuntime: skipping, join, resample, fill and pool recycle work; net and store idle",
    },
    WorkloadSpec {
        name: "retro_chain_dense",
        why: "Fused select-normalize-FIR-sliding-mean chain on dense signals on the calling thread: kernels and collector work; skipping, pool, net, store idle",
    },
    WorkloadSpec {
        name: "live_cluster_spill",
        why: "Eight interleaved live episodes via ClusterIngest over loopback TCP into a ShardServer that spills: wire, ack window, session churn, store writes",
    },
    WorkloadSpec {
        name: "history_query_mix",
        why: "Narrow, full and cohort HistoryQuery calls on an idle LiveIngest with a store: segment read, crc, decode, stitch, cold replay; nothing is written",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// The same five names on every workload. `failed_share` is the sixth
/// figure a user sees; it is the result's `failed / attempted`, compared
/// absolutely (`compare` fails on any rise), because a metric that is 0
/// on every good run has no relative bound.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("events_per_s", "1/s", Better::Higher, 0.15),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.20),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: &[MetricSpec] = &[
    // core.query / executor construction, for the workload's pipeline.
    layer("core.query.compile_us", "us", L),
    layer("core.exec.executor_build_us", "us", L),
    layer("core.exec.planned_bytes", "B", L),
    // core.exec, from the workload's direct Executor calls.
    layer("core.exec.run_busy_share", "ratio", H),
    layer("core.exec.recycle_us", "us", L),
    layer("core.exec.collect_share", "ratio", L),
    layer("core.exec.windows_executed", "count", L),
    layer("core.exec.windows_skipped", "count", H),
    layer("core.exec.skip_fraction", "ratio", H),
    layer("core.exec.kernel_invocations", "count", L),
    layer("core.exec.steady_state_allocs", "count", L),
    // core.ops / core.fuse, single-operator pipelines on a dense signal.
    layer("core.ops.select_mev_s", "Mev/s", H),
    layer("core.ops.where_mev_s", "Mev/s", H),
    layer("core.ops.normalize_mev_s", "Mev/s", H),
    layer("core.ops.fir8_mev_s", "Mev/s", H),
    layer("core.ops.sliding_mean_mev_s", "Mev/s", H),
    layer("core.ops.join_mev_s", "Mev/s", H),
    layer("core.ops.resample_mev_s", "Mev/s", H),
    layer("core.ops.fill_mean_mev_s", "Mev/s", H),
    layer("core.fuse.fused_vs_staged_ratio", "ratio", H),
    // sharded (batch side).
    layer("sharded.runtime_overhead_share", "ratio", L),
    layer("sharded.pool.compiles", "count", L),
    layer("sharded.pool.recycles", "count", H),
    layer("sharded.pool.evictions", "count", L),
    // The ladder: the live feed through successively longer paths.
    layer("ladder.session_eps", "1/s", H),
    layer("ladder.ingest_eps", "1/s", H),
    layer("ladder.ingest_store_eps", "1/s", H),
    layer("ladder.remote_eps", "1/s", H),
    layer("ladder.cluster_eps", "1/s", H),
    layer("store.spill_ratio", "ratio", H),
    layer("net.remote_vs_ingest_ratio", "ratio", H),
    layer("net.cluster_vs_remote_ratio", "ratio", H),
    // core.live, on the ladder's bare-session rung.
    layer("core.live.push_ns", "ns", L),
    layer("core.live.poll_us_p50", "us", L),
    layer("core.live.retained_slots_max", "count", L),
    // cluster.sharded ingest.
    layer("sharded.ingest.admit_us", "us", L),
    layer("sharded.ingest.finish_ms_p50", "ms", L),
    layer("sharded.ingest.batches_flushed", "count", L),
    layer("sharded.ingest.dropped_unknown", "count", L),
    // cluster.net.
    layer("net.wire.encode_ns_per_sample", "ns", L),
    layer("net.wire.decode_ns_per_sample", "ns", L),
    layer("net.wire.bytes_per_sample", "B", L),
    layer("net.client.frames", "count", L),
    layer("net.client.push_share", "ratio", L),
    layer("net.client.poll_share", "ratio", L),
    layer("net.client.finish_share", "ratio", L),
    layer("net.client.admit_ms_p50", "ms", L),
    layer("net.client.reconnects", "count", L),
    layer("net.client.frames_replayed", "count", L),
    // store, write side.
    layer("store.segment.encode_mb_s", "MB/s", H),
    layer("store.flush_ms_p50", "ms", L),
    layer("store.segments_written", "count", L),
    layer("store.spilled_samples", "count", H),
    layer("store.bytes_per_sample", "B", L),
    layer("store.io_errors", "count", L),
    // store, read side, and store.query.
    layer("store.read.records_for_range_ms_p50", "ms", L),
    layer("store.segment.decode_mb_s", "MB/s", H),
    layer("store.read.segments_opened", "count", L),
    layer("store.read.segments_skipped", "count", H),
    layer("store.read.skip_share", "ratio", H),
    layer("store.reader.stitch_ms_p50", "ms", L),
    layer("store.query.run_ms_p50", "ms", L),
    layer("history.warmup_reread_share", "ratio", L),
    layer("history.narrow_ms_p50", "ms", L),
    layer("history.full_ms_p50", "ms", L),
    layer("history.cohort_ms_p50", "ms", L),
    // The tracer itself.
    layer("trace.overhead_share", "ratio", L),
    layer("trace.spans", "count", L),
];

pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Values of one run's metrics, keyed by names from one of the lists
/// above. A layer a workload never calls keeps its 0.
pub struct Metrics {
    specs: &'static [MetricSpec],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(specs: &'static [MetricSpec]) -> Self {
        Self {
            specs,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.specs.iter().any(|s| s.name == name),
            "metric {name} is not in the benchmark's list"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `"name": {"value": v, "unit": "u"}` for every metric of the list.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .specs
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    crate::json::number(self.get(s.name)),
                    s.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no string {key}"))
    }

    /// `BENCHMARK.json` is what the driver reads and this file is what
    /// the benchmark does; they must say the same.
    #[test]
    fn benchmark_json_states_these_lists() {
        let b = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| b.get(key).and_then(Value::as_array).expect("a list");

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let metrics = list(key);
            assert_eq!(metrics.len(), specs.len(), "{key}");
            for (j, s) in metrics.iter().zip(specs) {
                assert_eq!(field(j, "name"), s.name);
                assert_eq!(field(j, "unit"), s.unit);
                assert_eq!(field(j, "better"), s.better.as_str());
                if key == "end_to_end" {
                    assert_eq!(j.get("bound").and_then(Value::as_f64), Some(s.bound));
                }
            }
        }
        assert!(b.get("run_seconds").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn names_are_valid_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(is_valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
