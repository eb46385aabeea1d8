//! Table 4: single-thread throughput of the LineZero and CAP models on
//! Trill vs. LifeStream.
//!
//! Paper (M ev/s): LineZero — Trill 0.027, LifeStream 0.315 (11.58×);
//! CAP — Trill 0.174, LifeStream 0.877 (5.04×).

use lifestream_bench::*;
use lifestream_core::exec::ExecOptions;
use lifestream_core::ops::where_shape::ShapeMode;
use lifestream_core::pipeline as lspipe;
use lifestream_core::time::StreamShape;
use lifestream_signal::dataset::{DatasetBuilder, SignalKind};

fn main() {
    let minutes = scaled_minutes(60);
    println!("Table 4 — LineZero and CAP model throughput ({minutes} min)\n");
    let mut t = Table::new(&["model", "engine", "Mev/s", "speedup"]);

    // LineZero: 125 Hz ABP.
    let abp = DatasetBuilder::new(SignalKind::Abp, 5)
        .minutes(minutes)
        .build(125.0);
    let events = abp.present_events() as f64;

    let (_, tr) = time(|| {
        let mut p = trill_baseline::pipelines::linezero_pipeline(abp.shape(), 32);
        p.run(vec![abp.clone()]).expect("trill linezero")
    });
    let (_, ls) = time(|| {
        let qb = lspipe::linezero_pipeline(
            abp.shape(),
            lifestream_signal::artifacts::line_zero_pattern(32),
            4,
            3.0,
            ShapeMode::Remove,
        )
        .expect("linezero pipeline");
        let mut exec = qb
            .compile()
            .expect("compile")
            .executor_with(
                vec![abp.clone()],
                ExecOptions::default().with_round_ticks(WINDOW_1MIN),
            )
            .expect("executor");
        exec.run().expect("run")
    });
    t.row(&[
        "LineZero".into(),
        "trill".into(),
        format!("{:.3}", events / tr / 1e6),
        String::new(),
    ]);
    t.row(&[
        "LineZero".into(),
        "lifestream".into(),
        format!("{:.3}", events / ls / 1e6),
        format!("{:.2}x", tr / ls),
    ]);

    // CAP: six signals at mixed rates.
    let shapes = [
        StreamShape::new(0, 2),
        StreamShape::new(0, 8),
        StreamShape::new(0, 8),
        StreamShape::new(0, 4),
        StreamShape::new(0, 2),
        StreamShape::new(0, 8),
    ];
    let data: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            DatasetBuilder::new(SignalKind::Ecg, 10 + i as u64)
                .minutes((minutes / 4).max(1))
                .build(1000.0 / s.period() as f64)
        })
        .collect();
    let cap_events: f64 = data.iter().map(|d| d.present_events() as f64).sum();
    assert!(cap_events > 0.0, "the CAP rows would time an empty dataset");

    let (_, tr) = time(|| {
        let mut p = trill_baseline::pipelines::cap_pipeline(&shapes, 1000);
        p.run(data.clone()).expect("trill cap")
    });
    let (_, ls) = time(|| {
        let qb = lspipe::cap_pipeline(&shapes, 1000).expect("cap pipeline");
        let mut exec = qb
            .compile()
            .expect("compile")
            .executor_with(
                data.clone(),
                ExecOptions::default().with_round_ticks(WINDOW_1MIN),
            )
            .expect("executor");
        exec.run().expect("run")
    });
    t.row(&[
        "CAP".into(),
        "trill".into(),
        format!("{:.3}", cap_events / tr / 1e6),
        String::new(),
    ]);
    t.row(&[
        "CAP".into(),
        "lifestream".into(),
        format!("{:.3}", cap_events / ls / 1e6),
        format!("{:.2}x", tr / ls),
    ]);

    println!("{}", t.render());
    println!("paper: LineZero 0.027 vs 0.315 Mev/s (11.58x); CAP 0.174 vs 0.877 (5.04x)");
}
