//! Fig. 7 / §6.1: line-zero artifact detection accuracy.
//!
//! Paper: one month of ABP from a single device containing 49 line-zero
//! artifacts → 0% false negatives, 0.2% false positives.

use lifestream_core::exec::ExecOptions;
use lifestream_core::ops::where_shape::ShapeMode;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::StreamShape;
use lifestream_signal::artifacts::{
    inject_line_zero, line_zero_onset_pattern, score_detections, times_to_samples, LineZeroSpec,
};
use lifestream_signal::waveform::abp_wave;

fn main() {
    let scale = lifestream_bench::scale();
    // A month of 125 Hz ABP is 324M samples; default to ~12 hours and let
    // LS_SCALE raise it (artifact count scales with duration).
    let hours = ((12.0 * scale).max(1.0)) as usize;
    let n = hours * 3600 * 125;
    let spec = LineZeroSpec {
        count: (49.0 * hours as f64 / (30.0 * 24.0)).ceil().max(8.0) as usize,
        ..Default::default()
    };
    println!(
        "Fig. 7 accuracy — {hours} h of synthetic ABP, {} injected line-zero artifacts\n",
        spec.count
    );

    let mut vals = abp_wave(n, 125.0, 74.0, 7);
    let truth = inject_line_zero(&mut vals, &spec, 11);
    let shape = StreamShape::new(0, 8);
    let data = SignalData::dense(shape, vals);

    // Direct shape query (§6.1): the user sketches the artifact onset —
    // pressure level, downward ramp, flat zero — and the extended `Where`
    // matches it amplitude-invariantly (z-normalized windows + cDTW).
    let pattern = line_zero_onset_pattern(32, 8, 96);
    let q = Query::new();
    q.source("abp", shape)
        .where_shape(pattern, 8, 2.1, true, ShapeMode::Keep)
        .expect("where_shape")
        .sink();
    let mut exec = q
        .compile()
        .expect("compile")
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(60_000))
        .expect("executor");
    let out = exec.run_collect().expect("run");

    let detections = times_to_samples(&out.times(), 8);
    // Collapse per-sample detections into distinct detection events
    // (separated by more than one artifact length).
    let mut distinct: Vec<usize> = Vec::new();
    for &d in &detections {
        if distinct.last().is_none_or(|&p| d > p + 300) {
            distinct.push(d);
        }
    }
    let slack = 64;
    let (fneg, fpos, detected) = score_detections(&truth, &distinct, slack);

    println!("injected artifacts : {}", truth.len());
    println!("detection events   : {}", distinct.len());
    println!("detected           : {detected}");
    println!(
        "false negatives    : {fneg} ({:.2}%)",
        fneg as f64 / truth.len() as f64 * 100.0
    );
    println!(
        "false positives    : {fpos} ({:.2}% of detections)",
        if distinct.is_empty() {
            0.0
        } else {
            fpos as f64 / distinct.len() as f64 * 100.0
        }
    );
    println!("\npaper: 0% false negatives, 0.2% false positives (49 artifacts / 1 month)");
}
