//! Fig. 9(c): end-to-end application — execution time of the Fig. 3
//! pipeline (ECG 500 Hz ⋈ ABP 125 Hz, real-like gap-bearing data) as the
//! dataset size grows.
//!
//! Paper: LifeStream 7.5× faster than Trill and 3.2× faster than NumLib;
//! Trill goes out of memory at 200 M events because the gap structure
//! diverges the two join inputs.

use lifestream::engine::{
    Engine, EngineError, EngineOptions, LifeStreamEngine, NumLibEngine, TrillEngine,
};
use lifestream_bench::*;
use lifestream_signal::dataset::ecg_abp_pair;

fn main() {
    let base = scaled_minutes(30);
    println!("Fig. 9(c) — end-to-end Fig. 3 pipeline, growing dataset\n");

    // Cap the Trill join buffering the way the paper's 16 GB machine did,
    // scaled to our workload sizes.
    let trill_opts = EngineOptions::default().with_memory_cap(knobs().trill_cap);
    let w = e2e_workload();

    let mut t = Table::new(&[
        "events (M)",
        "Trill (s)",
        "NumLib (s)",
        "LifeStream (s)",
        "LS vs Trill",
        "LS vs NumLib",
    ]);
    for mult in [1, 2, 4, 8] {
        let minutes = base * mult;
        let (ecg, abp) = ecg_abp_pair(minutes, 42);
        let events = (ecg.present_events() + abp.present_events()) as f64 / 1e6;

        let (tr_res, tr) =
            time(|| TrillEngine.run(&w, vec![ecg.clone(), abp.clone()], &trill_opts));
        let trill_cell = match tr_res {
            Ok(_) => format!("{tr:.2}"),
            Err(EngineError::OutOfMemory { .. }) => "OOM".to_string(),
            Err(e) => panic!("Trill on {}: {e}", w.name()),
        };
        let (_, nl) = time(|| run(&NumLibEngine, &w, &[&ecg, &abp], minute_rounds()));
        let (_, ls) = time(|| run(&LifeStreamEngine, &w, &[&ecg, &abp], minute_rounds()));

        t.row(&[
            format!("{events:.1}"),
            trill_cell.clone(),
            format!("{nl:.2}"),
            format!("{ls:.2}"),
            if trill_cell == "OOM" {
                "OOM".into()
            } else {
                format!("{:.2}x", tr / ls)
            },
            format!("{:.2}x", nl / ls),
        ]);
    }
    println!("{}", t.render());
    println!("paper: LS 7.5x vs Trill, 3.2x vs NumLib; Trill OOM at 200M events");
}
