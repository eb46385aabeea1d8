//! Bench-regression gate: compares a freshly measured bench JSON against
//! the committed baseline and fails (exit 1) when a *portable ratio*
//! regresses beyond the tolerance.
//!
//! Absolute Mev/s numbers are machine-bound — a 4-core CI runner and the
//! 2-core box that produced the baselines legitimately disagree — so the
//! gate checks only the ratios the bench JSONs were designed around:
//!
//! | bench                | gated metrics                                    |
//! |----------------------|--------------------------------------------------|
//! | `sharded_scaling`    | `pooled_vs_cold_speedup_1_worker`                |
//! | `live_throughput`    | `batched_vs_per_sample_speedup`                  |
//! | `net_throughput`     | `batched_vs_per_frame_speedup`                   |
//! | `history_throughput` | `spill_vs_no_store_ratio`, `range_prune_speedup` |
//! | `kernel_bench`       | `fused_vs_staged_ratio`                          |
//!
//! A bench may gate several ratios; every one must clear its floor.
//!
//! Usage: `bench_gate <baseline.json> <current.json>`
//!
//! Environment knobs:
//! * `LS_GATE_TOL` — allowed fractional regression (default `0.25`,
//!   i.e. the current ratio may be up to 25% below the baseline).
//!
//! The parser is deliberately a tiny field scanner, not a JSON library:
//! the bench bins emit flat, known-shaped documents, and the gate must
//! run on the CI image with no extra dependencies.

use std::process::ExitCode;

/// Extracts the number following `"key":` in a flat JSON document.
fn field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The gated metrics for a bench id — empty for benches without any.
fn metrics_for(bench: &str) -> &'static [&'static str] {
    match bench {
        "sharded_scaling" => &["pooled_vs_cold_speedup_1_worker"],
        "live_throughput" => &["batched_vs_per_sample_speedup"],
        "net_throughput" => &["batched_vs_per_frame_speedup"],
        "history_throughput" => &["spill_vs_no_store_ratio", "range_prune_speedup"],
        "kernel_bench" => &["fused_vs_staged_ratio"],
        _ => &[],
    }
}

fn bench_id(json: &str) -> Option<String> {
    let at = json.find("\"bench\":")? + "\"bench\":".len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, current_path] = &args[..] else {
        eprintln!("usage: bench_gate <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    };
    let tolerance: f64 = std::env::var("LS_GATE_TOL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(baseline_path), read(current_path)) else {
        return ExitCode::FAILURE;
    };

    let (Some(base_bench), Some(cur_bench)) = (bench_id(&baseline), bench_id(&current)) else {
        eprintln!("bench_gate: missing \"bench\" field");
        return ExitCode::FAILURE;
    };
    if base_bench != cur_bench {
        eprintln!("bench_gate: comparing {base_bench} baseline against {cur_bench} run");
        return ExitCode::FAILURE;
    }
    let metrics = metrics_for(&base_bench);
    if metrics.is_empty() {
        eprintln!("bench_gate: no gated metric for bench {base_bench}");
        return ExitCode::FAILURE;
    }

    // A remote-vs-local ratio is only meaningful if the wire was quiet:
    // a run that survived injected faults spent time in reconnect-and-
    // replay, which would make a "regression" (or an improvement) an
    // artifact of the fault schedule rather than of the transport.
    if cur_bench == "net_throughput" {
        match field(&current, "faults_injected") {
            Some(n) => {
                if n != 0.0 {
                    eprintln!(
                        "bench_gate: net_throughput run was not fault-free \
                         ({n:.0} faults injected); measurement rejected"
                    );
                    return ExitCode::FAILURE;
                }
            }
            None => {
                eprintln!("bench_gate: net_throughput run missing \"faults_injected\"");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failed = false;
    for metric in metrics {
        let (Some(expect), Some(got)) = (field(&baseline, metric), field(&current, metric)) else {
            eprintln!("bench_gate: metric {metric} missing from one of the files");
            return ExitCode::FAILURE;
        };
        let floor = expect * (1.0 - tolerance);
        let verdict = if got >= floor { "ok" } else { "REGRESSION" };
        println!(
            "{base_bench}: {metric} = {got:.3} (baseline {expect:.3}, floor {floor:.3}, \
             tolerance {:.0}%) ... {verdict}",
            tolerance * 100.0
        );
        if got < floor {
            eprintln!(
                "bench_gate: {metric} regressed more than {:.0}% ({got:.3} < {floor:.3})",
                tolerance * 100.0
            );
            failed = true;
        }
    }
    // Context for the log: cores the two measurements ran on.
    if let (Some(bc), Some(cc)) = (
        field(&baseline, "host_cores"),
        field(&current, "host_cores"),
    ) {
        println!("  host_cores: baseline {bc:.0}, current {cc:.0}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "bench": "live_throughput",
  "host_cores": 4,
  "batched_vs_per_sample_speedup": 3.838,
  "modes": []
}"#;

    #[test]
    fn extracts_fields_and_bench_id() {
        assert_eq!(bench_id(DOC).as_deref(), Some("live_throughput"));
        assert_eq!(field(DOC, "batched_vs_per_sample_speedup"), Some(3.838));
        assert_eq!(field(DOC, "host_cores"), Some(4.0));
        assert_eq!(field(DOC, "missing"), None);
    }

    #[test]
    fn faults_injected_field_parses() {
        let doc = r#"{"bench": "net_throughput", "faults_injected": 0,
                      "batched_vs_per_frame_speedup": 2.0}"#;
        assert_eq!(field(doc, "faults_injected"), Some(0.0));
        let dirty = r#"{"bench": "net_throughput", "faults_injected": 3}"#;
        assert_eq!(field(dirty, "faults_injected"), Some(3.0));
    }

    #[test]
    fn every_gated_bench_has_a_metric() {
        for b in [
            "sharded_scaling",
            "live_throughput",
            "net_throughput",
            "history_throughput",
            "kernel_bench",
        ] {
            assert!(!metrics_for(b).is_empty());
        }
        assert!(metrics_for("fig2").is_empty());
        assert_eq!(
            metrics_for("history_throughput"),
            ["spill_vs_no_store_ratio", "range_prune_speedup"],
            "the prune speedup must stay gated"
        );
    }
}
