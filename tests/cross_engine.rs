//! Cross-engine integration tests.
//!
//! Every shared workload is described exactly once as a
//! [`Workload`](lifestream::engine::Workload) value; the [`Engine`]
//! trait translates it onto each engine's own query surface, so no
//! pipeline here is hand-written per engine.

use lifestream::core::ops::aggregate::AggKind;
use lifestream::core::prelude::*;
use lifestream::engine::{
    all_engines, Engine, EngineError, EngineOptions, LifeStreamEngine, NumLibEngine, RunOutcome,
    ShardedEngine, StagedLifeStreamEngine, TableOp, TrillEngine, Workload,
};
use lifestream::signal::dataset::{DatasetBuilder, SignalKind};

fn ramp(shape: StreamShape, n: usize) -> SignalData {
    SignalData::dense(shape, (0..n).map(|i| (i % 977) as f32).collect())
}

/// Runs one workload on every engine that supports it, via trait
/// objects — the single definition point for each comparison.
fn run_supporting(
    workload: &Workload,
    inputs: &[SignalData],
    opts: &EngineOptions,
) -> Vec<(&'static str, RunOutcome)> {
    all_engines()
        .iter()
        .filter(|e| e.supports(workload))
        .map(|e| {
            let out = e
                .run(workload, inputs.to_vec(), opts)
                .unwrap_or_else(|err| panic!("{} failed on {}: {err}", e.name(), workload.name()));
            (e.name(), out)
        })
        .collect()
}

#[test]
fn select_agrees_between_engines() {
    let shape = StreamShape::new(0, 2);
    let data = ramp(shape, 10_000);
    let results = run_supporting(
        &Workload::Select {
            mul: 3.0,
            add: -1.0,
        },
        &[data],
        &EngineOptions::default().collecting(),
    );
    assert_eq!(results.len(), 5, "all engines support Select");
    let reference = results[0].1.collected.as_ref().unwrap();
    assert_eq!(reference.len(), 10_000);
    for (name, outcome) in &results[1..] {
        let collected = outcome
            .collected
            .as_ref()
            .unwrap_or_else(|| panic!("{name} did not collect"));
        assert_eq!(reference, collected, "{name} disagrees with reference");
    }
}

#[test]
fn tumbling_mean_agrees_between_engines() {
    let shape = StreamShape::new(0, 2);
    let data = ramp(shape, 5_000);
    let workload = Workload::Aggregate {
        kind: AggKind::Mean,
        window: 100,
        stride: 100,
    };
    let opts = EngineOptions::default().collecting();

    let ls = LifeStreamEngine
        .run(&workload, vec![data.clone()], &opts)
        .unwrap();
    let tr = TrillEngine
        .run(&workload, vec![data.clone()], &opts)
        .unwrap();
    let (ls_ev, tr_ev) = (ls.collected.unwrap(), tr.collected.unwrap());
    assert_eq!(ls_ev.len(), tr_ev.len());
    for (i, (&(lt, lv), &(tt, tv))) in ls_ev.iter().zip(&tr_ev).enumerate() {
        assert_eq!(lt, tt, "slot {i} time");
        assert!((lv - tv).abs() < 1e-3, "slot {i}: {lv} vs {tv}");
    }

    // The interpreted array baseline windows the same way; counts match
    // even though its whole-array timestamps live on a different grid.
    let results = run_supporting(&workload, &[data], &EngineOptions::default());
    let counts: Vec<u64> = results.iter().map(|(_, o)| o.output_events).collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "counts {counts:?}");
}

#[test]
fn join_counts_agree_with_gaps() {
    let s1 = StreamShape::new(0, 1);
    let s2 = StreamShape::new(0, 2);
    let mut a = ramp(s1, 20_000);
    let mut b = ramp(s2, 10_000);
    a.punch_gap(3_000, 7_000);
    b.punch_gap(12_000, 15_000);

    let results = run_supporting(
        &Workload::Join,
        &[a, b],
        &EngineOptions::default().with_round_ticks(1000),
    );
    assert_eq!(results.len(), 5, "all engines support Join");
    let reference = results[0].1.output_events;
    assert!(reference > 0);
    for (name, outcome) in &results {
        assert_eq!(outcome.output_events, reference, "{name} join count");
    }
}

#[test]
fn fig3_outputs_close_across_engines() {
    let ecg = DatasetBuilder::new(SignalKind::Ecg, 11)
        .minutes(3)
        .build(500.0);
    let abp = DatasetBuilder::new(SignalKind::Abp, 12)
        .minutes(3)
        .build(125.0);

    let results = run_supporting(
        &Workload::Fig3 { window: 1000 },
        &[ecg, abp],
        &EngineOptions::default(),
    );
    assert_eq!(results.len(), 5, "all engines support Fig3");
    let reference = results[0].1.output_events;
    let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / a.max(1) as f64;
    for (name, outcome) in &results {
        assert!(
            rel(reference, outcome.output_events) < 0.1,
            "{name}: {} vs reference {reference}",
            outcome.output_events
        );
    }
}

#[test]
fn engines_run_as_trait_objects_and_report_support() {
    let shape = StreamShape::new(0, 2);
    let data = ramp(shape, 2_000);
    let supported = Workload::Aggregate {
        kind: AggKind::Max,
        window: 50,
        stride: 50,
    };
    let temporal = Workload::ClipJoin;

    let engines: Vec<Box<dyn Engine>> = all_engines();
    assert_eq!(engines.len(), 5);
    for engine in &engines {
        // Every engine handles the windowed workload through the one
        // shared definition.
        let out = engine
            .run(&supported, vec![data.clone()], &EngineOptions::default())
            .unwrap();
        assert!(out.output_events > 0, "{} produced nothing", engine.name());

        // Engines without a temporal-operator analogue must refuse
        // rather than fake semantics.
        let side = ramp(StreamShape::new(0, 5), 800);
        let run = engine.run(
            &temporal,
            vec![data.clone(), side],
            &EngineOptions::default(),
        );
        if engine.supports(&temporal) {
            assert!(run.is_ok(), "{}: {:?}", engine.name(), run.err());
        } else {
            assert!(matches!(run, Err(EngineError::Unsupported { .. })));
        }
    }
}

#[test]
fn trill_rejects_unrepresentable_chop() {
    let shape = StreamShape::new(0, 2);
    let stretched = Workload::Chop {
        duration: 100,
        boundary: 5,
    };
    assert!(!TrillEngine.supports(&stretched));
    assert!(matches!(
        TrillEngine.run(
            &stretched,
            vec![ramp(shape, 1_000)],
            &EngineOptions::default()
        ),
        Err(EngineError::Unsupported { .. })
    ));
    // The representable form still runs.
    let even = Workload::Chop {
        duration: 5,
        boundary: 5,
    };
    assert!(TrillEngine.supports(&even));
    let out = TrillEngine
        .run(&even, vec![ramp(shape, 1_000)], &EngineOptions::default())
        .unwrap();
    assert!(out.output_events > 0);
}

#[test]
fn run_validates_input_count() {
    let shape = StreamShape::new(0, 2);
    let data = ramp(shape, 500);
    // Join needs two sources; running it with one must error, not
    // panic, on every engine.
    for engine in all_engines() {
        if !engine.supports(&Workload::Join) {
            continue;
        }
        let run = engine.run(
            &Workload::Join,
            vec![data.clone()],
            &EngineOptions::default(),
        );
        assert!(run.is_err(), "{} accepted missing input", engine.name());
    }
}

#[test]
fn sharded_runtime_is_transparent_to_query_semantics() {
    // The sharded runtime serves the LifeStream engine through pooled,
    // recycled executors; nothing about routing, pooling, or worker
    // threads may change a single collected event.
    let shape = StreamShape::new(0, 2);
    let mut data = ramp(shape, 8_000);
    data.punch_gap(3_000, 9_000); // gaps exercise targeted skipping too
    let workloads = vec![
        Workload::Select { mul: 2.0, add: 0.5 },
        Workload::WhereGt { threshold: 400.0 },
        Workload::Aggregate {
            kind: AggKind::Mean,
            window: 100,
            stride: 100,
        },
        Workload::Operation {
            op: TableOp::FillConst { value: -1.0 },
            window: 200,
        },
    ];
    for workload in &workloads {
        let opts = EngineOptions::default().collecting();
        let direct = LifeStreamEngine
            .run(workload, vec![data.clone()], &opts)
            .unwrap();
        let sharded = ShardedEngine::with_workers(3)
            .run(workload, vec![data.clone()], &opts)
            .unwrap();
        assert_eq!(
            direct.output_events,
            sharded.output_events,
            "{} event count",
            workload.name()
        );
        assert_eq!(
            direct.collected,
            sharded.collected,
            "{} collected events",
            workload.name()
        );
    }
}

#[test]
fn fused_and_staged_lifestream_agree_bitwise() {
    // Operator fusion is an execution-plan rewrite; the fused engine's
    // output must be *byte-identical* to staged execution — times,
    // values, and event counts — on every chain-heavy workload, gaps
    // included. `assert_eq!` on f32 payloads is deliberate: "close" is
    // not good enough here.
    let shape = StreamShape::new(0, 2);
    let mut data = ramp(shape, 20_000);
    data.punch_gap(4_000, 6_000);
    data.punch_gap(17_002, 17_010);
    let workloads = vec![
        Workload::Select {
            mul: 3.0,
            add: -1.0,
        },
        Workload::WhereGt { threshold: 300.0 },
        Workload::Operation {
            op: TableOp::Normalize,
            window: 500,
        },
        Workload::Operation {
            op: TableOp::PassFilter {
                taps: vec![0.25, 0.5, 0.25],
            },
            window: 500,
        },
        Workload::Operation {
            op: TableOp::FillMean,
            window: 200,
        },
        Workload::Fig3 { window: 1000 },
    ];
    for workload in &workloads {
        let opts = EngineOptions::default().with_round_ticks(512);
        let opts = if workload.arity() == 1 {
            opts.collecting()
        } else {
            opts // Fig3 collects nothing; counts still must match
        };
        let inputs: Vec<SignalData> = if workload.arity() == 2 {
            vec![data.clone(), ramp(StreamShape::new(0, 8), 5_000)]
        } else {
            vec![data.clone()]
        };
        let fused = LifeStreamEngine
            .run(workload, inputs.clone(), &opts)
            .unwrap();
        let staged = StagedLifeStreamEngine.run(workload, inputs, &opts).unwrap();
        assert_eq!(
            fused.output_events,
            staged.output_events,
            "{} event count",
            workload.name()
        );
        assert_eq!(
            fused.collected,
            staged.collected,
            "{} collected events (fused vs staged)",
            workload.name()
        );
    }
}

/// Runs `workload` on `engine` under a `tiny` and then a generous memory
/// cap: the first must fail with a typed [`EngineError::OutOfMemory`]
/// that names the cap, the second must succeed on the same inputs.
fn assert_oom_only_under_tiny_cap(
    engine: &dyn Engine,
    workload: &Workload,
    inputs: Vec<SignalData>,
    tiny: usize,
) {
    let err = engine
        .run(
            workload,
            inputs.clone(),
            &EngineOptions::default().with_memory_cap(tiny),
        )
        .unwrap_err();
    match err {
        EngineError::OutOfMemory { needed, cap } => {
            assert_eq!(cap, tiny, "{}", engine.name());
            assert!(needed > cap, "{}: needed {needed}", engine.name());
        }
        other => panic!("{}: expected OutOfMemory, got {other:?}", engine.name()),
    }
    assert!(err.to_string().contains("out of memory"), "{err}");
    let out = engine
        .run(
            workload,
            inputs,
            &EngineOptions::default().with_memory_cap(1 << 30),
        )
        .unwrap_or_else(|e| panic!("{} under a generous cap: {e}", engine.name()));
    assert!(out.output_events > 0, "{}", engine.name());
}

#[test]
fn sharded_engine_reports_worker_oom() {
    let shape = StreamShape::new(0, 2);
    assert_oom_only_under_tiny_cap(
        &ShardedEngine::with_workers(2),
        &Workload::Fig3 { window: 1000 },
        vec![ramp(shape, 10_000), ramp(StreamShape::new(0, 8), 2_500)],
        16,
    );
}

#[test]
fn trill_oom_is_contained_and_reported() {
    let s = StreamShape::new(0, 1);
    let mut left = ramp(s, 200_000);
    let mut right = ramp(s, 200_000);
    left.punch_gap(100_000, 200_000);
    right.punch_gap(0, 100_000);
    // Divergent gaps: the join buffers the left half while it waits for
    // the right, which starts where the left ends. The join emits
    // nothing, so under the generous cap only success is checked.
    let err = TrillEngine
        .run(
            &Workload::Join,
            vec![left.clone(), right.clone()],
            &EngineOptions::default().with_memory_cap(128 * 1024),
        )
        .unwrap_err();
    assert!(
        matches!(err, EngineError::OutOfMemory { cap, .. } if cap == 128 * 1024),
        "{err:?}"
    );
    assert!(err.to_string().contains("out of memory"), "{err}");
    TrillEngine
        .run(
            &Workload::Join,
            vec![left, right],
            &EngineOptions::default().with_memory_cap(1 << 30),
        )
        .expect("a generous cap lets the same join complete");
}

#[test]
fn numlib_fig3_reports_oom_under_its_memory_cap() {
    let ecg = DatasetBuilder::new(SignalKind::Ecg, 13)
        .minutes(2)
        .build(500.0);
    let abp = DatasetBuilder::new(SignalKind::Abp, 14)
        .minutes(2)
        .build(125.0);
    assert_oom_only_under_tiny_cap(
        &NumLibEngine,
        &Workload::Fig3 { window: 1000 },
        vec![ecg, abp],
        1024,
    );
}
