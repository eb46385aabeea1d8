//! Fig. 10(a): targeted query processing — LifeStream's speedup over the
//! Trill baseline on the end-to-end pipeline as the fraction of mutually
//! overlapping ECG/ABP events varies.
//!
//! Paper: ~7× at full overlap rising to ~65× at 5–10% overlap, because
//! targeted processing skips all work in non-overlapping regions while
//! the eager engine transforms everything.

use lifestream::engine::{EngineOptions, TrillEngine};
use lifestream_bench::*;
use lifestream_signal::dataset::ecg_abp_with_overlap;

fn main() {
    let minutes = scaled_minutes(60);
    println!("Fig. 10(a) — speedup vs overlap fraction ({minutes} min ECG+ABP)\n");
    let mut t = Table::new(&[
        "overlap",
        "Trill (s)",
        "LifeStream (s)",
        "speedup",
        "LS skipped rounds",
    ]);
    let uncapped = EngineOptions::default().with_memory_cap(usize::MAX);
    for overlap in [1.0, 0.8, 0.6, 0.4, 0.2, 0.1] {
        let (ecg, abp) = ecg_abp_with_overlap(minutes, overlap, 9);
        let (_, tr) = time(|| run(&TrillEngine, &e2e_workload(), &[&ecg, &abp], uncapped));
        // Run LifeStream and capture skip stats.
        let (stats, ls) = time(|| {
            let qb = lifestream_core::pipeline::fig3_pipeline(ecg.shape(), abp.shape(), 1000)
                .expect("pipeline");
            let mut exec = qb
                .compile()
                .expect("compile")
                .executor_with(
                    vec![ecg.clone(), abp.clone()],
                    lifestream_core::exec::ExecOptions::default().with_round_ticks(WINDOW_1MIN),
                )
                .expect("executor");
            exec.run().expect("run")
        });
        t.row(&[
            format!("{:.0}%", overlap * 100.0),
            format!("{tr:.2}"),
            format!("{ls:.2}"),
            format!("{:.1}x", tr / ls),
            format!("{:.0}%", stats.skip_fraction() * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("paper: ~7.4x at 100% overlap -> 25-65x below 40% overlap");
}
