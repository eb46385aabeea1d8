//! What one run records: per-op latencies and verdicts, per-repetition
//! throughput, the reasons a run is void, and the summary statistics.

use std::thread::ThreadId;

use crate::clock::Timed;
use crate::trace::Tracer;

/// One repetition of a workload's fixed op list.
#[derive(Default)]
pub struct Rep {
    /// Present input samples the repetition consumed.
    pub events: u64,
    /// Time the system spent serving it (checksum comparison excluded).
    pub elapsed: Timed,
}

impl Rep {
    /// Throughput at the reference CPU clock (see `clock`).
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.elapsed.scaled.as_secs_f64()
    }
}

pub struct Recorder {
    pub tracer: Tracer,
    /// Set for the whole of a traced run, also while the tracer pauses.
    pub traced: bool,
    /// Latencies are kept only while this is set (not during warm-up).
    pub timing: bool,
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons this run reports no number at all.
    pub void: Vec<String>,
    generator: ThreadId,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            traced: false,
            timing: false,
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            void: Vec::new(),
            generator: std::thread::current().id(),
        }
    }

    /// Records one operation: `ok` is false when it returned an error or
    /// its output checksum differs from the reference.
    pub fn op(&mut self, latency: Timed, ok: bool) {
        if std::thread::current().id() != self.generator {
            self.void("load was generated from more than one thread");
        }
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if self.timing {
            self.latencies_ms.push(latency.scaled.as_secs_f64() * 1e3);
        }
    }

    pub fn void(&mut self, reason: impl Into<String>) {
        let reason = reason.into();
        if !self.void.contains(&reason) {
            self.void.push(reason);
        }
    }

    /// Voids the run unless a counter that must stay zero is zero.
    pub fn must_be_zero(&mut self, name: &str, value: u64) {
        if value != 0 {
            self.void(format!("{name} = {value}, must be 0"));
        }
    }
}

/// Nearest-rank percentile of unsorted data (`p` in `0..=1`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
