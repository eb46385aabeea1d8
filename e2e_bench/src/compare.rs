//! `e2e_bench compare <a.json> <b.json>`: the relative difference of every
//! end-to-end metric between a baseline `a` and a candidate `b`, and a
//! verdict. Each file holds a run's output; its last line is the result.

use crate::json::{self, Value};
use crate::spec::{is_valid_name, Better, END_TO_END};

pub struct RunResult {
    metrics: Vec<(String, f64)>,
    attempted: f64,
    failed: f64,
}

impl RunResult {
    fn failed_share(&self) -> f64 {
        self.failed / self.attempted
    }
}

pub fn parse_result(text: &str) -> Result<RunResult, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty result file")?;
    let v = json::parse(line)?;
    let number = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("result has no number \"{key}\""))
    };
    let attempted = number("attempted")?;
    if attempted < 1.0 {
        return Err("result attempted no operation".into());
    }
    let mut metrics = Vec::new();
    let listed = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no \"metrics\" object")?;
    for (name, m) in listed {
        if !is_valid_name(name) {
            return Err(format!(
                "metric name \"{name}\" has characters outside letters, digits, _ . -"
            ));
        }
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("metric {name} has no numeric value"))?;
        metrics.push((name.clone(), value));
    }
    Ok(RunResult {
        metrics,
        attempted,
        failed: number("failed")?,
    })
}

#[derive(Debug)]
pub struct Line {
    pub name: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// better); for `failed_share`, the absolute rise.
    pub worse_by: f64,
    pub bound: f64,
    pub regressed: bool,
}

/// Compares two results metric by metric. A metric the benchmark lists
/// but either file lacks is an error, not a pass.
pub fn compare(a: &RunResult, b: &RunResult) -> Result<Vec<Line>, String> {
    let find = |r: &RunResult, which: &str, name: &str| {
        r.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or(format!("metric {name} is missing from {which}"))
    };
    let mut lines = Vec::new();
    for spec in END_TO_END {
        let (va, vb) = (find(a, "a", spec.name)?, find(b, "b", spec.name)?);
        if va <= 0.0 {
            return Err(format!(
                "baseline {} is {va}; it must be positive",
                spec.name
            ));
        }
        let worse_by = match spec.better {
            Better::Lower => (vb - va) / va,
            Better::Higher => (va - vb) / va,
        };
        lines.push(Line {
            name: spec.name.to_string(),
            a: va,
            b: vb,
            worse_by,
            bound: spec.bound,
            regressed: worse_by > spec.bound,
        });
    }
    let rise = b.failed_share() - a.failed_share();
    lines.push(Line {
        name: "failed_share".to_string(),
        a: a.failed_share(),
        b: b.failed_share(),
        worse_by: rise,
        bound: 0.0,
        regressed: rise > 0.0,
    });
    Ok(lines)
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let a = parse_result(&read(path_a)?).map_err(|e| format!("{path_a}: {e}"))?;
    let b = parse_result(&read(path_b)?).map_err(|e| format!("{path_b}: {e}"))?;
    let lines = compare(&a, &b)?;
    println!(
        "{:<16} {:>16} {:>16} {:>10} {:>7}",
        "metric", "a", "b", "worse by", "bound"
    );
    for l in &lines {
        println!(
            "{:<16} {:>16.4} {:>16.4} {:>+9.2}% {:>6.0}%{}",
            l.name,
            l.a,
            l.b,
            l.worse_by * 100.0,
            l.bound * 100.0,
            if l.regressed { "  REGRESSED" } else { "" }
        );
    }
    Ok(lines.iter().all(|l| !l.regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(failed: u32, values: [f64; 5]) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .zip(values)
            .map(|(s, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    s.name, s.unit
                )
            })
            .collect();
        format!(
            "some log line\n{{\"correct\": {}, \"attempted\": 400, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
            failed == 0,
            metrics.join(", ")
        )
    }

    // setup_s, events_per_s, latency_p50_ms, latency_p95_ms, peak_rss_mb
    const BASE: [f64; 5] = [2.0, 1e6, 30.0, 40.0, 200.0];

    fn verdict(a: &str, b: &str) -> Vec<String> {
        compare(&parse_result(a).unwrap(), &parse_result(b).unwrap())
            .unwrap()
            .into_iter()
            .filter(|l| l.regressed)
            .map(|l| l.name)
            .collect()
    }

    #[test]
    fn within_bound_passes() {
        let b = result(0, [2.2, 0.95e6, 32.0, 43.0, 205.0]);
        assert!(verdict(&result(0, BASE), &b).is_empty());
    }

    #[test]
    fn beyond_bound_fails_only_the_metric_that_worsened() {
        let slower = result(0, [2.0, 0.8e6, 30.0, 50.0, 200.0]);
        assert_eq!(
            verdict(&result(0, BASE), &slower),
            ["events_per_s", "latency_p95_ms"]
        );
        let fatter = result(0, [2.0, 1e6, 30.0, 40.0, 240.0]);
        assert_eq!(verdict(&result(0, BASE), &fatter), ["peak_rss_mb"]);
    }

    #[test]
    fn a_faster_run_never_fails() {
        let faster = result(0, [0.5, 3e6, 3.0, 4.0, 20.0]);
        assert!(verdict(&result(0, BASE), &faster).is_empty());
    }

    #[test]
    fn failed_share_is_absolute() {
        // One failure in 400 is a 0.25 % share: far inside any relative
        // bound, and still a regression.
        assert_eq!(
            verdict(&result(0, BASE), &result(1, BASE)),
            ["failed_share"]
        );
        assert!(verdict(&result(1, BASE), &result(1, BASE)).is_empty());
        assert!(verdict(&result(2, BASE), &result(1, BASE)).is_empty());
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let full = parse_result(&result(0, BASE)).unwrap();
        let short =
            parse_result(&result(0, BASE).replace("latency_p95_ms", "latency_p99_ms")).unwrap();
        assert!(compare(&full, &short)
            .unwrap_err()
            .contains("missing from b"));
        assert!(compare(&short, &full)
            .unwrap_err()
            .contains("missing from a"));
    }

    #[test]
    fn names_are_restricted() {
        for bad in ["latency p95", "p95;rm", "", "-lead", "naïve"] {
            assert!(!is_valid_name(bad), "{bad:?}");
            let text = result(0, BASE).replace("latency_p95_ms", bad);
            assert!(parse_result(&text).is_err(), "{bad:?}");
        }
        for good in ["latency_p95_ms", "core.exec.skip_fraction", "9-lives"] {
            assert!(is_valid_name(good), "{good:?}");
        }
    }
}
