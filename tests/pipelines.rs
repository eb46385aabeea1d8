//! End-to-end integration tests spanning the engine, the signal
//! substrate, and the auxiliary systems.

use lifestream::core::exec::ExecOptions;
use lifestream::core::ops::where_shape::ShapeMode;
use lifestream::core::pipeline::{cap_pipeline, fig3_pipeline};
use lifestream::core::prelude::*;
use lifestream::signal::artifacts::{
    inject_line_zero, line_zero_onset_pattern, score_detections, times_to_samples, LineZeroSpec,
};
use lifestream::signal::csv::{read_csv, write_csv};
use lifestream::signal::dataset::{ecg_abp_pair, ecg_abp_with_overlap};
use lifestream::signal::waveform::abp_wave;

#[test]
fn fig3_pipeline_on_gap_bearing_data_skips_and_joins() {
    let (ecg, abp) = ecg_abp_pair(20, 7);
    let q = fig3_pipeline(ecg.shape(), abp.shape(), 1000).unwrap();
    let mut exec = q
        .compile()
        .unwrap()
        .executor_with(
            vec![ecg.clone(), abp.clone()],
            ExecOptions::default().with_round_ticks(60_000),
        )
        .unwrap();
    let stats = exec.run().unwrap();
    assert!(stats.output_events > 0);
    assert_eq!(stats.steady_state_allocs, 0, "static memory plan violated");
    // Output can't exceed the joint-grid capacity of the overlap.
    let overlap = ecg.presence().intersect(abp.presence()).covered_ticks() as u64;
    assert!(stats.output_events <= overlap, "join bounded by overlap");
}

#[test]
fn overlap_fraction_controls_skipping() {
    let mut prev_skip = -1.0f64;
    for overlap in [0.9, 0.5, 0.1] {
        let (ecg, abp) = ecg_abp_with_overlap(60, overlap, 3);
        let q = fig3_pipeline(ecg.shape(), abp.shape(), 1000).unwrap();
        let stats = q
            .compile()
            .unwrap()
            .executor_with(
                vec![ecg, abp],
                ExecOptions::default().with_round_ticks(60_000),
            )
            .unwrap()
            .run()
            .unwrap();
        assert!(
            stats.skip_fraction() > prev_skip,
            "lower overlap must skip more: {} at {overlap}",
            stats.skip_fraction()
        );
        prev_skip = stats.skip_fraction();
    }
}

#[test]
fn linezero_detection_accuracy_on_synthetic_month_slice() {
    // 30 minutes of ABP with 4 artifacts: the Fig. 7 experiment in
    // miniature (the fig7_accuracy binary runs the full-size version).
    let n = 30 * 60 * 125;
    let mut vals = abp_wave(n, 125.0, 74.0, 7);
    let spec = LineZeroSpec {
        count: 4,
        ..Default::default()
    };
    let truth = inject_line_zero(&mut vals, &spec, 11);
    let data = SignalData::dense(StreamShape::new(0, 8), vals);

    let q = Query::new();
    q.source("abp", data.shape())
        .where_shape(
            line_zero_onset_pattern(32, 8, 96),
            8,
            2.1,
            true,
            ShapeMode::Keep,
        )
        .unwrap()
        .sink();
    let out = q
        .compile()
        .unwrap()
        .executor(vec![data])
        .unwrap()
        .run_collect()
        .unwrap();
    let samples = times_to_samples(&out.times(), 8);
    let mut distinct = Vec::new();
    for &d in &samples {
        if distinct.last().is_none_or(|&p| d > p + 300) {
            distinct.push(d);
        }
    }
    let (fneg, fpos, _) = score_detections(&truth, &distinct, 64);
    assert_eq!(fneg, 0, "paper reports 0% false negatives");
    assert!(fpos <= 1, "paper reports 0.2% false positives, got {fpos}");
}

#[test]
fn cap_pipeline_six_signals_with_gaps() {
    let shapes = [
        StreamShape::new(0, 2),
        StreamShape::new(0, 8),
        StreamShape::new(0, 8),
        StreamShape::new(0, 4),
        StreamShape::new(0, 2),
        StreamShape::new(0, 8),
    ];
    let data: Vec<SignalData> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut d = SignalData::dense(
                s,
                (0..(600_000 / s.period()) as usize)
                    .map(|k| (k % 101) as f32)
                    .collect(),
            );
            // Stagger a gap per signal.
            d.punch_gap(50_000 + i as i64 * 60_000, 90_000 + i as i64 * 60_000);
            d
        })
        .collect();
    let q = cap_pipeline(&shapes, 1000).unwrap();
    let mut exec = q
        .compile()
        .unwrap()
        .executor_with(data, ExecOptions::default().with_round_ticks(10_000))
        .unwrap();
    let out = exec.run_collect().unwrap();
    assert_eq!(out.arity(), 6);
    assert!(out.len() > 100_000, "got {}", out.len());
}

#[test]
fn csv_to_pipeline_round_trip() {
    let (ecg, _) = ecg_abp_pair(10, 5);
    let mut buf = Vec::new();
    write_csv(&ecg, &mut buf).unwrap();
    let loaded = read_csv(ecg.shape(), &buf[..]).unwrap();
    assert_eq!(loaded.present_events(), ecg.present_events());

    let q = Query::new();
    let src = q.source("ecg", loaded.shape());
    lifestream::core::pipeline::normalize(src, 1000)
        .unwrap()
        .sink();
    let out = q
        .compile()
        .unwrap()
        .executor(vec![loaded])
        .unwrap()
        .run_collect()
        .unwrap();
    assert_eq!(out.len(), ecg.present_events());
}

#[test]
fn cache_model_reproduces_table5_shape() {
    use lifestream::cache_sim::trace::{lifestream_normalize_trace, trill_normalize_trace};
    use lifestream::cache_sim::{CacheConfig, CacheSim};
    let events = 4_000_000u64;
    let mut misses = Vec::new();
    for batch in [100_000u64, 1_000_000, 4_000_000] {
        let mut c = CacheSim::new(CacheConfig::xeon_e5_2660_llc());
        trill_normalize_trace(events, batch, 4, 16).replay(&mut c);
        misses.push(c.misses());
    }
    assert!(misses[0] < misses[1], "trill misses grow with batch");
    assert!(misses[1] <= misses[2]);
    let mut ls = CacheSim::new(CacheConfig::xeon_e5_2660_llc());
    lifestream_normalize_trace(events, 30_000, 4, 16).replay(&mut ls);
    assert!(ls.misses() * 10 < misses[2], "lifestream stays flat & low");
}
