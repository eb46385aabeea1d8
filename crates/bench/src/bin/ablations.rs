//! Ablation benchmarks for the three optimizations DESIGN.md calls out:
//!
//! * **static memory allocation** — preallocated plan vs. per-round
//!   allocation (`ExecOptions::with_dynamic_memory`);
//! * **targeted query processing** — lineage-driven round skipping vs.
//!   eager execution on gap-bearing data;
//! * **locality tracing** — the traced 1-minute round vs. one giant round
//!   spanning the whole dataset (operator-at-a-time, no cross-operator
//!   locality).

use lifestream_bench::*;
use lifestream_core::exec::ExecOptions;
use lifestream_core::pipeline::fig3_pipeline;
use lifestream_core::source::SignalData;
use lifestream_signal::dataset::ecg_abp_pair;

fn run_with(ecg: &SignalData, abp: &SignalData, opts: ExecOptions) -> (f64, u64, u64) {
    let qb = fig3_pipeline(ecg.shape(), abp.shape(), 1000).expect("pipeline");
    let mut exec = qb
        .compile()
        .expect("compile")
        .executor_with(vec![ecg.clone(), abp.clone()], opts)
        .expect("executor");
    let (stats, s) = time(|| exec.run().expect("run"));
    (s, stats.windows_skipped, stats.steady_state_allocs)
}

fn main() {
    let minutes = scaled_minutes(30);
    println!("Ablations — Fig. 3 pipeline on {minutes} min gap-bearing ECG+ABP\n");
    let (ecg, abp) = ecg_abp_pair(minutes, 4242);
    let span = ecg.end_time().max(abp.end_time());

    let mut t = Table::new(&["configuration", "time (s)", "skipped", "allocs"]);

    let (s, skip, alloc) = run_with(
        &ecg,
        &abp,
        ExecOptions::default().with_round_ticks(WINDOW_1MIN),
    );
    t.row(&[
        "all optimizations".into(),
        format!("{s:.2}"),
        skip.to_string(),
        alloc.to_string(),
    ]);
    let base = s;

    let (s, skip, alloc) = run_with(
        &ecg,
        &abp,
        ExecOptions::default()
            .with_round_ticks(WINDOW_1MIN)
            .with_dynamic_memory(),
    );
    t.row(&[
        "- static memory".into(),
        format!("{s:.2}"),
        skip.to_string(),
        alloc.to_string(),
    ]);
    let no_mem = s;

    let (s, skip, alloc) = run_with(
        &ecg,
        &abp,
        ExecOptions::default()
            .without_targeting()
            .with_round_ticks(WINDOW_1MIN),
    );
    t.row(&[
        "- targeted processing".into(),
        format!("{s:.2}"),
        skip.to_string(),
        alloc.to_string(),
    ]);
    let no_target = s;

    let (s, skip, alloc) = run_with(
        &ecg,
        &abp,
        ExecOptions::default()
            .without_targeting()
            .with_round_ticks(span),
    );
    t.row(&[
        "- locality (one giant round)".into(),
        format!("{s:.2}"),
        skip.to_string(),
        alloc.to_string(),
    ]);
    let no_local = s;

    println!("{}", t.render());
    println!(
        "costs: dynamic memory +{:.0}%",
        (no_mem / base - 1.0) * 100.0
    );
    println!(
        "       eager execution +{:.0}%",
        (no_target / base - 1.0) * 100.0
    );
    println!(
        "       no locality     +{:.0}%",
        (no_local / base - 1.0) * 100.0
    );
}
