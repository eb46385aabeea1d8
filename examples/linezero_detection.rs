//! Shape-based artifact detection (§6.1, Fig. 7): find line-zero
//! calibration artifacts in an ABP stream with the extended `Where`
//! operator and constrained DTW.
//!
//! Run with: `cargo run --release --example linezero_detection`

use lifestream::core::ops::where_shape::ShapeMode;
use lifestream::core::prelude::{Query, SignalData, StreamShape};
use lifestream::signal::artifacts::{inject_line_zero, line_zero_onset_pattern, LineZeroSpec};
use lifestream::signal::waveform::abp_wave;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One hour of 125 Hz ABP with 6 injected calibration artifacts.
    let n = 3600 * 125;
    let mut vals = abp_wave(n, 125.0, 76.0, 3);
    let spec = LineZeroSpec {
        count: 6,
        ..Default::default()
    };
    let truth = inject_line_zero(&mut vals, &spec, 5);
    let abp = SignalData::dense(StreamShape::new(0, 8), vals);
    println!("injected artifacts at sample ranges: {truth:?}\n");

    // The user sketches the artifact onset shape; matching is
    // amplitude-invariant (z-normalized windows + constrained DTW).
    let pattern = line_zero_onset_pattern(32, 8, 96);
    let q = Query::new();
    q.source("abp", abp.shape())
        .where_shape(pattern, 8, 2.1, true, ShapeMode::Keep)?
        .sink();

    let mut exec = q.compile()?.executor(vec![abp])?;
    let out = exec.run_collect()?;

    // Collapse per-sample matches into distinct detections.
    let mut events = Vec::new();
    for t in out.iter_times() {
        let sample = (t / 8) as usize;
        if events.last().is_none_or(|&p: &usize| sample > p + 300) {
            events.push(sample);
        }
    }
    println!(
        "detected {} artifact(s) at samples {events:?}",
        events.len()
    );

    // To scrub instead of detect, flip ShapeMode::Keep to Remove.
    Ok(())
}
