//! Fig. 10(b): window-size sensitivity — end-to-end execution time of
//! Trill vs. LifeStream on the synthetic dataset as the processing window
//! grows from 1 to 60 minutes.
//!
//! Paper: LifeStream's advantage holds across the sweep (Trill ~90–150 s,
//! LifeStream flat and far below).

use lifestream::engine::{EngineOptions, LifeStreamEngine, TrillEngine};
use lifestream_bench::*;
use lifestream_signal::dataset::{DatasetBuilder, SignalKind};

fn main() {
    let minutes = scaled_minutes(60);
    println!("Fig. 10(b) — window-size sensitivity ({minutes} min synthetic ECG+ABP)\n");
    let ecg = DatasetBuilder::new(SignalKind::Random, 1)
        .minutes(minutes)
        .build(500.0);
    let abp = DatasetBuilder::new(SignalKind::Random, 2)
        .minutes(minutes)
        .build(125.0);

    // Trill has no window knob (its batch size is events, not time); the
    // paper plots it as a near-flat reference.
    let w = e2e_workload();
    let uncapped = EngineOptions::default().with_memory_cap(usize::MAX);
    let (_, trill_s) = time(|| run(&TrillEngine, &w, &[&ecg, &abp], uncapped));

    let mut t = Table::new(&["window (min)", "Trill (s)", "LifeStream (s)", "speedup"]);
    for wmin in [1i64, 5, 10, 20, 30, 60] {
        let rounds = EngineOptions::default().with_round_ticks(wmin * 60_000);
        let (_, ls) = time(|| run(&LifeStreamEngine, &w, &[&ecg, &abp], rounds));
        t.row(&[
            wmin.to_string(),
            format!("{trill_s:.2}"),
            format!("{ls:.2}"),
            format!("{:.1}x", trill_s / ls),
        ]);
    }
    println!("{}", t.render());
    println!("paper: LifeStream stays flat and ahead across 1–60 min windows");
}
