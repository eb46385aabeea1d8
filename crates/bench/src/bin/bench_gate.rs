//! Bench-regression gate over `e2e_bench`'s traced result lines: compares
//! fresh `e2e_bench run --trace 1` lines against the committed baseline
//! and fails (exit 1) when the median of a *portable layer ratio* over the
//! fresh runs regresses more than [`TOLERANCE`], when a run was not
//! correct, or when a gated metric is missing from a line. One traced run
//! on a shared host can fall under a floor on noise alone; the median of
//! a few runs on different seeds does not.
//!
//! Absolute events/s are machine-bound, so only the higher-is-better
//! ratios `e2e_bench`'s layer probes report on every traced workload are
//! gated ([`GATED`]): fused vs staged kernels, store spill vs store-less
//! ingest, the TCP hop vs in-process ingest, and the cluster router vs
//! one remote peer. One more ratio is derived here from two rates every
//! traced line reports ([`DERIVED`]): the temporal join's kernel rate over
//! the select kernel's. Range pruning needs no ratio: `history_query_mix`
//! voids a run whose narrow queries skip no segment.
//!
//! Usage: `bench_gate <baseline.json> <current.json>...`, each file
//! holding one result line (`{"correct", "attempted", "failed", "metrics":
//! {name: {"value", "unit"}}}`).
//!
//! The parser is deliberately a tiny field scanner, not a JSON library:
//! the result line is flat and known-shaped, and the gate must run on the
//! CI image with no extra dependencies.

use std::process::ExitCode;

/// The gated layer ratios; every one must clear its floor.
const GATED: [&str; 4] = [
    "core.fuse.fused_vs_staged_ratio",
    "store.spill_ratio",
    "net.remote_vs_ingest_ratio",
    "net.cluster_vs_remote_ratio",
];

/// Ratios derived from two reported metrics, as `(name, numerator,
/// denominator)`; gated like [`GATED`].
const DERIVED: [(&str, &str, &str); 1] = [(
    "core.ops.join_vs_select",
    "core.ops.join_mev_s",
    "core.ops.select_mev_s",
)];

/// Allowed fractional regression: a ratio may fall to 75 % of baseline.
const TOLERANCE: f64 = 0.25;

/// Skips `token` (after leading whitespace) at the front of `s`.
fn expect<'a>(s: &'a str, token: &str) -> Option<&'a str> {
    s.trim_start().strip_prefix(token)
}

/// The `"value"` of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\":"))? + name.len() + 3;
    let rest = expect(expect(&line[at..], "{")?, "\"value\":")?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of gated ratio `name` in a result line: reported, or
/// derived from its two rates.
fn ratio(line: &str, name: &str) -> Option<f64> {
    match DERIVED.iter().find(|d| d.0 == name) {
        Some(&(_, numerator, denominator)) => {
            Some(metric(line, numerator)? / metric(line, denominator)?)
        }
        None => metric(line, name),
    }
}

/// Whether a result line reports `"correct": true`.
fn correct(line: &str) -> bool {
    line.find("\"correct\":")
        .and_then(|at| expect(&line[at + "\"correct\":".len()..], "true"))
        .is_some()
}

/// The median of `values` (the mean of the middle two for an even
/// count); `values` must not be empty.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Gates the median of each ratio over `currents` (at least one line)
/// against `baseline`. `Ok` holds one report line per gated ratio; `Err`
/// says why the runs fail (with the same report when a ratio regressed).
fn gate(baseline: &str, currents: &[String]) -> Result<Vec<String>, String> {
    if !correct(baseline) {
        return Err("baseline run is not \"correct\": true".into());
    }
    for (i, line) in currents.iter().enumerate() {
        if !correct(line) {
            return Err(format!("current run {} is not \"correct\": true", i + 1));
        }
    }
    let mut report = Vec::new();
    let mut regressed = false;
    for name in GATED.into_iter().chain(DERIVED.map(|d| d.0)) {
        let runs: Option<Vec<f64>> = currents.iter().map(|line| ratio(line, name)).collect();
        let (Some(base), Some(runs)) = (ratio(baseline, name), runs) else {
            return Err(format!("metric {name} missing from a result line"));
        };
        let got = median(&runs);
        let floor = base * (1.0 - TOLERANCE);
        let verdict = if got >= floor { "ok" } else { "REGRESSION" };
        regressed |= got < floor;
        let runs: Vec<String> = runs.iter().map(|r| format!("{r:.3}")).collect();
        report.push(format!(
            "{name} = {got:.3} (median of {}; baseline {base:.3}, floor {floor:.3}) ... {verdict}",
            runs.join(" ")
        ));
    }
    if regressed {
        Err(format!(
            "{}\na ratio regressed more than {:.0}%",
            report.join("\n"),
            TOLERANCE * 100.0
        ))
    } else {
        Ok(report)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let current_paths = args.get(2..).filter(|paths| !paths.is_empty());
    let (Some(baseline_path), Some(current_paths)) = (args.get(1), current_paths) else {
        eprintln!("usage: bench_gate <baseline.json> <current.json>...");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            None
        }
    };
    let Some(baseline) = read(baseline_path) else {
        return ExitCode::FAILURE;
    };
    let Some(currents) = current_paths
        .iter()
        .map(|p| read(p))
        .collect::<Option<Vec<_>>>()
    else {
        return ExitCode::FAILURE;
    };
    match gate(&baseline, &currents) {
        Ok(report) => {
            println!("{}", report.join("\n"));
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("bench_gate: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real traced `history_query_mix` result line.
    const LINE: &str = include_str!("../../testdata/e2e_result_line.json");

    /// `LINE` with metric `name`'s value multiplied by `factor`.
    fn scaled(name: &str, factor: f64) -> String {
        let value = metric(LINE, name).unwrap();
        let old = format!("\"{name}\": {{\"value\": {value}");
        assert!(LINE.contains(&old), "{name} is not spelled as expected");
        LINE.replace(
            &old,
            &format!("\"{name}\": {{\"value\": {}", value * factor),
        )
    }

    #[test]
    fn every_gated_name_is_in_the_fixture() {
        for name in GATED {
            assert!(LINE.contains(&format!("\"{name}\"")), "{name}");
        }
    }

    #[test]
    fn every_gated_ratio_parses() {
        for name in GATED {
            let v = metric(LINE, name).unwrap_or_else(|| panic!("{name}"));
            assert!(v > 0.0, "{name} = {v}");
        }
        assert!(correct(LINE));
        assert_eq!(
            gate(LINE, &[LINE.into()]).unwrap().len(),
            GATED.len() + DERIVED.len()
        );
    }

    #[test]
    fn a_ratio_thirty_percent_low_fails() {
        for name in GATED {
            let err = gate(LINE, &[scaled(name, 0.7)]).unwrap_err();
            assert!(err.contains(&format!("{name} = ")), "{err}");
            assert!(err.contains("REGRESSION"), "{err}");
        }
    }

    #[test]
    fn a_ratio_above_its_baseline_passes() {
        for name in GATED {
            assert!(gate(LINE, &[scaled(name, 1.5)]).is_ok(), "{name}");
        }
    }

    #[test]
    fn the_join_ratio_is_derived_from_two_reported_rates() {
        let want = metric(LINE, "core.ops.join_mev_s").unwrap()
            / metric(LINE, "core.ops.select_mev_s").unwrap();
        assert_eq!(ratio(LINE, "core.ops.join_vs_select"), Some(want));
    }

    #[test]
    fn a_derived_ratio_missing_either_rate_fails() {
        for (name, numerator, denominator) in DERIVED {
            for missing in [numerator, denominator] {
                let line = LINE.replace(&format!("\"{missing}\""), "\"renamed\"");
                let err = gate(LINE, &[line]).unwrap_err();
                assert!(err.contains(name), "{err}");
            }
        }
    }

    #[test]
    fn a_derived_ratio_thirty_percent_low_fails() {
        for (name, numerator, _) in DERIVED {
            let err = gate(LINE, &[scaled(numerator, 0.7)]).unwrap_err();
            assert!(err.contains(&format!("{name} = ")), "{err}");
            assert!(err.contains("REGRESSION"), "{err}");
        }
    }

    #[test]
    fn an_incorrect_run_fails() {
        let bad = LINE.replace("\"correct\": true", "\"correct\": false");
        assert!(!correct(&bad));
        assert!(gate(LINE, &[bad]).unwrap_err().contains("current"));
    }

    #[test]
    fn a_missing_gated_metric_fails_with_its_name() {
        let name = GATED[1];
        let missing = LINE.replace(&format!("\"{name}\""), "\"renamed\"");
        let err = gate(LINE, &[missing]).unwrap_err();
        assert!(err.contains(name), "{err}");
    }

    #[test]
    fn the_median_is_the_middle_run_or_the_mean_of_the_middle_two() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[0.1, 9.0, 1.0, 1.2, 1.1]), 1.1);
    }

    #[test]
    fn the_gate_judges_the_median_of_the_runs() {
        let ok = || LINE.to_string();
        for name in GATED {
            let low = || scaled(name, 0.7);
            // Two low runs of five leave the median at the baseline.
            assert!(
                gate(LINE, &[low(), ok(), low(), ok(), ok()]).is_ok(),
                "{name}"
            );
            // Three do not.
            let err = gate(LINE, &[low(), ok(), low(), low(), ok()]).unwrap_err();
            assert!(err.contains(&format!("{name} = ")), "{err}");
            assert!(err.contains("REGRESSION"), "{err}");
        }
    }

    #[test]
    fn any_incorrect_or_incomplete_run_fails() {
        let bad = LINE.replace("\"correct\": true", "\"correct\": false");
        let err = gate(LINE, &[LINE.into(), bad, LINE.into()]).unwrap_err();
        assert!(err.contains("current run 2"), "{err}");
        let missing = LINE.replace(&format!("\"{}\"", GATED[0]), "\"renamed\"");
        let err = gate(LINE, &[LINE.into(), LINE.into(), missing]).unwrap_err();
        assert!(err.contains(GATED[0]), "{err}");
    }
}
