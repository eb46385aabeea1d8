//! Table 1: single-core throughput (million events/s) of the distributed
//! engines, the Trill baseline, NumLib (SciPy), and LifeStream on
//! temporal join and upsampling.
//!
//! Paper row (M ev/s): Join — Spark 0.07, Storm 0.04, Flink 0.09,
//! Trill 0.80; Upsampling — Trill 0.69, SciPy 15.06.

use distrib_baseline::{run_join, run_upsample, Profile};
use lifestream::engine::{Engine, LifeStreamEngine, NumLibEngine, TrillEngine, Workload};
use lifestream_bench::*;

fn main() {
    let minutes = scaled_minutes(30);
    println!("Table 1 — temporal join & upsampling throughput ({minutes} min workloads)\n");

    let mut t = Table::new(&["benchmark", "engine", "Mev/s", "out events"]);
    let mut row = |bench: &str, engine: &str, events: f64, (out, s): (u64, f64)| {
        t.row(&[
            bench.into(),
            engine.into(),
            format!("{:.3}", events / s / 1e6),
            out.to_string(),
        ]);
    };
    let profiles = [Profile::spark(), Profile::storm(), Profile::flink()];

    let (l, r) = table1_join_pair(minutes, 1);
    let join_events = (l.present_events() + r.present_events()) as f64;
    for profile in profiles {
        let timed = time(|| run_join(profile, &l, &r).output_events);
        row("Temporal Join", profile.name, join_events, timed);
    }
    let engines: [(&str, &dyn Engine); 2] =
        [("trill", &TrillEngine), ("lifestream", &LifeStreamEngine)];
    for (name, engine) in engines {
        let timed = time(|| run(engine, &Workload::Join, &[&l, &r], minute_rounds()));
        row("Temporal Join", name, join_events, timed);
    }

    let abp = abp_125hz(minutes, 2);
    let up_events = abp.present_events() as f64;
    let up = upsample_workload();
    let engines: [(&str, &dyn Engine); 3] = [
        ("trill", &TrillEngine),
        ("scipy(numlib)", &NumLibEngine),
        ("lifestream", &LifeStreamEngine),
    ];
    for (name, engine) in engines {
        let timed = time(|| run(engine, &up, &[&abp], minute_rounds()));
        row("Upsampling", name, up_events, timed);
    }
    for profile in profiles {
        let timed = time(|| run_upsample(profile, &abp, 2).output_events);
        row("Upsampling", profile.name, up_events, timed);
    }

    println!("{}", t.render());
    println!("paper (Mev/s): join spark .07 / storm .04 / flink .09 / trill .80;");
    println!("               upsample trill .69 / scipy 15.06");
}
