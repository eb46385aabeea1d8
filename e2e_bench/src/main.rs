//! `e2e_bench` — the repo's end-to-end benchmark. See `README.md` beside
//! this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! e2e_bench run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! e2e_bench compare <a.json> <b.json>
//! ```
//!
//! `run` is one process per workload (so `VmHWM` is that workload's). Its
//! last line of standard output is the result: with `--trace 0` every
//! end-to-end metric, with `--trace 1` every per-layer metric. Progress
//! and context go to standard error.

mod affinity;
mod clock;
mod compare;
mod data;
mod feed;
mod json;
mod layers;
mod measure;
mod spec;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, peak_rss_mb, percentile, Recorder};
use spec::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;
use workloads::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The timed phase runs whole repetitions until `--seconds` have passed
/// and at least this many ops are timed: p95 needs ten samples beyond it
/// twice over.
const MIN_OPS: usize = 400;
/// Traced and untraced repetitions alternate in the traced run; it makes
/// at least this many of each.
const MIN_TRACED_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a completed run reports.
struct Outcome {
    rec: Recorder,
    metrics: Metrics,
}

fn measure_end_to_end<W: Workload>(a: &Args, scratch: &Path) -> Outcome {
    let mut rec = Recorder::new();
    // Teardown reads the layers' counters for its self-checks; only the
    // traced run reports them.
    let mut layers = Metrics::new(PER_LAYER);
    let mut setup_s = Vec::new();
    let mut workload: Option<W> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = workload.take() {
            previous.teardown(&mut rec, &mut layers);
        }
        let t = Instant::now();
        let mut fresh = W::setup(a.seed, scratch);
        fresh.run_rep(&mut rec, Tracer::root());
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(fresh);
    }
    let mut workload = workload.expect("at least one set-up");

    // Every figure is a median over repetitions of the repetition's own
    // value, so a noisy stretch of the host spoils the repetitions it
    // hits and not the result.
    rec.timing = true;
    let (mut reps, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let mut served = clock::Timed::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < a.seconds || rec.latencies_ms.len() < MIN_OPS {
        let first = rec.latencies_ms.len();
        let rep = workload.run_rep(&mut rec, Tracer::root());
        served += rep.elapsed;
        reps.push(rep.events_per_s());
        p50.push(percentile(&rec.latencies_ms[first..], 0.50));
        p95.push(percentile(&rec.latencies_ms[first..], 0.95));
    }
    let timed = start.elapsed().as_secs_f64();
    rec.timing = false;
    workload.teardown(&mut rec, &mut layers);

    eprintln!(
        "{}: {} timed ops in {} repetitions over {timed:.2} s; set-ups {setup_s:.3?} s",
        a.workload,
        rec.latencies_ms.len(),
        reps.len(),
    );
    eprintln!(
        "{}: events/s by repetition {reps:.0?}, at the reference clock; the CPU ran at {:.3} of it",
        a.workload,
        served.scaled.as_secs_f64() / served.wall.as_secs_f64(),
    );
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", median(&setup_s));
    metrics.set("events_per_s", median(&reps));
    metrics.set("latency_p50_ms", median(&p50));
    metrics.set("latency_p95_ms", median(&p95));
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome { rec, metrics }
}

fn measure_layers<W: Workload>(a: &Args, scratch: &Path, trace_out: &Path) -> Outcome {
    let mut rec = Recorder::new();
    rec.traced = true;
    rec.tracer.on = true;
    let mut m = Metrics::new(PER_LAYER);
    let root = rec.tracer.begin("workload", Tracer::root(), -1);
    let span = rec.tracer.begin("setup", root, -1);
    let mut workload = W::setup(a.seed, scratch);
    workload.run_rep(&mut rec, span);
    rec.tracer.end(span);

    // The same repetitions with and without spans, alternating, so the
    // tracer's own cost is measured on the work it traces.
    let (mut traced_ns, mut traced_ev, mut plain_ns, mut plain_ev) = (0.0, 0.0, 0.0, 0.0);
    let start = Instant::now();
    let mut pairs = 0;
    while start.elapsed().as_secs_f64() < a.seconds / 2.0 || pairs < MIN_TRACED_REPS {
        rec.tracer.on = true;
        let span = rec.tracer.begin("rep", root, -1);
        let rep = workload.run_rep(&mut rec, span);
        rec.tracer.end(span);
        traced_ns += rep.elapsed.scaled.as_nanos() as f64;
        traced_ev += rep.events as f64;
        rec.tracer.on = false;
        let rep = workload.run_rep(&mut rec, Tracer::root());
        plain_ns += rep.elapsed.scaled.as_nanos() as f64;
        plain_ev += rep.events as f64;
        pairs += 1;
    }
    m.set(
        "trace.overhead_share",
        (traced_ns / traced_ev) / (plain_ns / plain_ev) - 1.0,
    );
    workload.probe(&mut rec, &mut m);
    workload.teardown(&mut rec, &mut m);
    rec.tracer.end(root);
    m.set("trace.spans", rec.tracer.len() as f64);
    match rec.tracer.write_jsonl(trace_out) {
        Ok(()) => eprintln!(
            "{}: {} spans in {}",
            a.workload,
            rec.tracer.len(),
            trace_out.display()
        ),
        Err(e) => rec.void(format!("cannot write {}: {e}", trace_out.display())),
    }

    layers::build_costs::<W>(&mut m);
    layers::operator_rates(a.seed, &mut m);
    layers::wire_codec(&mut m);
    layers::segment_codec(scratch, &mut m);
    layers::ladder(a.seed, scratch, &mut rec, &mut m);
    Outcome { rec, metrics: m }
}

/// Filesystem type of the mount holding `path`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn run(args: &[String]) -> ExitCode {
    let a = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench run: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything the run writes goes beside the executable: inside the
    // build directory, so inside the checkout and out of git's sight.
    let home: PathBuf = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir);
    let scratch = home.join(format!("e2e_bench-scratch-{}", std::process::id()));
    let traces = home.join("e2e_bench-traces");
    if let Err(e) =
        std::fs::create_dir_all(&scratch).and_then(|()| std::fs::create_dir_all(&traces))
    {
        eprintln!("e2e_bench run: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = affinity::pin_to_one_cpu().map_or("none".to_string(), |cpu| cpu.to_string());
    eprintln!(
        "{}: seed {}, {} s, trace {}, {cores} cores, pinned to cpu {pinned}, store_fs {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        fs_type(&scratch),
    );
    let trace_out = traces.join(format!("{}-seed{}.jsonl", a.workload, a.seed));
    macro_rules! go {
        ($w:ty) => {
            if a.trace {
                measure_layers::<$w>(&a, &scratch, &trace_out)
            } else {
                measure_end_to_end::<$w>(&a, &scratch)
            }
        };
    }
    let outcome = match a.workload.as_str() {
        "retro_fig3_gaps" => go!(workloads::fig3::Fig3),
        "retro_chain_dense" => go!(workloads::chain::Chain),
        "live_cluster_spill" => go!(workloads::cluster::Cluster),
        "history_query_mix" => go!(workloads::history::History),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("e2e_bench run: unknown workload {other}; one of {names:?}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let Outcome { rec, metrics } = outcome;
    if !rec.void.is_empty() {
        for reason in &rec.void {
            eprintln!("{}: VOID: {reason}", a.workload);
        }
        return ExitCode::from(2);
    }
    let correct = rec.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rec.attempted,
        rec.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            match compare::run(&rest[0], &rest[1]) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("e2e_bench compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!(
                "usage: e2e_bench run --workload <name> --seed <u64> --seconds <n> --trace <0|1>\n       \
                 e2e_bench compare <a.json> <b.json>"
            );
            ExitCode::from(2)
        }
    }
}
