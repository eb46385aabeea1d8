//! Prebuilt physiological-data pipelines, written against the fluent
//! [`Stream`] API.
//!
//! The building blocks here are the operation benchmarks of Table 3
//! (Normalize, PassFilter, FillConst, FillMean, Resample) expressed as
//! LifeStream queries, plus the three end-to-end applications evaluated in
//! the paper: the Fig. 3 ECG ⋈ ABP pipeline (§8.3), the line-zero artifact
//! detection model, and the cardiac-arrest-prediction (CAP) feature
//! pipeline (§8.4). Each operation takes and returns a [`Stream`], so
//! applications compose them like any other operator; the end-to-end
//! builders return a ready-to-compile [`Query`].

use crate::error::{Error, Result};
use crate::ops::aggregate::AggKind;
use crate::ops::join::JoinKind;
use crate::ops::transform::TransformCtx;
use crate::ops::where_shape::ShapeMode;
use crate::stream::{Query, Stream};
use crate::time::{StreamShape, Tick};

/// Designs a windowed-sinc low-pass FIR filter (Hamming window).
///
/// `cutoff` is the normalized cutoff frequency in `(0.0, 0.5)` (fraction of
/// the sampling rate); `taps` is the filter length.
///
/// # Panics
/// Panics if `taps == 0` or `cutoff` is outside `(0, 0.5]`.
pub fn fir_lowpass(taps: usize, cutoff: f32) -> Vec<f32> {
    assert!(taps > 0, "taps must be positive");
    assert!(cutoff > 0.0 && cutoff <= 0.5, "cutoff must be in (0, 0.5]");
    let m = (taps - 1) as f32;
    let mut h: Vec<f32> = (0..taps)
        .map(|i| {
            let x = i as f32 - m / 2.0;
            let sinc = if x.abs() < 1e-6 {
                2.0 * cutoff
            } else {
                (2.0 * std::f32::consts::PI * cutoff * x).sin() / (std::f32::consts::PI * x)
            };
            let hamming = 0.54 - 0.46 * (2.0 * std::f32::consts::PI * i as f32 / m.max(1.0)).cos();
            sinc * hamming
        })
        .collect();
    let sum: f32 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

/// `Normalize`: standard-score normalization over `window`-tick windows
/// (`(v - mean) / std`), the Scikit-learn benchmark of Table 3.
///
/// # Errors
/// Propagates transform validation errors.
pub fn normalize(input: Stream<'_>, window: Tick) -> Result<Stream<'_>> {
    input.transform(window, |ctx: TransformCtx<'_>| {
        let n = ctx.input.len();
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for i in 0..n {
            if ctx.present[i] {
                sum += ctx.input[i] as f64;
                count += 1;
            }
        }
        if count == 0 {
            return;
        }
        let mean = sum / count as f64;
        let mut var = 0.0f64;
        for i in 0..n {
            if ctx.present[i] {
                let d = ctx.input[i] as f64 - mean;
                var += d * d;
            }
        }
        let std = (var / count as f64).sqrt().max(1e-9);
        for i in 0..n {
            if ctx.present[i] {
                ctx.output[i] = ((ctx.input[i] as f64 - mean) / std) as f32;
                ctx.out_present[i] = true;
            }
        }
    })
}

/// `PassFilter`: finite-impulse-response frequency filtering (the SciPy
/// benchmark of Table 3), built on the first-class `Fir` operator so
/// chains containing it fuse into single-pass kernels. Within each
/// maximal run of present samples, `y[t] = Σₖ taps[k]·x[t−k·period]`;
/// gaps reset the filter. On dense data this matches the historical
/// `Transform`-closure implementation exactly.
///
/// `window` is kept for API compatibility with the other Table-3
/// building blocks and validated the same way (positive multiple of the
/// period); the run-based filter no longer slices on it.
///
/// # Errors
/// Rejects an empty tap vector, an invalid window, or multi-field input.
pub fn pass_filter(input: Stream<'_>, window: Tick, taps: Vec<f32>) -> Result<Stream<'_>> {
    if taps.is_empty() {
        return Err(Error::InvalidParameter {
            message: "pass_filter requires at least one tap".into(),
        });
    }
    let period = input.shape()?.period();
    if window <= 0 || window % period != 0 {
        return Err(Error::InvalidParameter {
            message: format!(
                "pass_filter window {window} must be a positive multiple of period {period}"
            ),
        });
    }
    input.pass_filter(taps)
}

/// `FillConst`: fills gaps smaller than the sub-window with a constant
/// (the NumPy benchmark of Table 3). Sub-windows with no present values
/// stay absent — imputation patches holes in data, it does not invent
/// data where a monitor was disconnected outright (and an all-absent
/// window is exactly what targeted query processing skips, so filling it
/// would make targeted and eager execution disagree).
///
/// # Errors
/// Propagates transform validation errors.
pub fn fill_const(input: Stream<'_>, window: Tick, value: f32) -> Result<Stream<'_>> {
    input.transform(window, move |ctx: TransformCtx<'_>| {
        if !ctx.present.iter().any(|&p| p) {
            return;
        }
        for i in 0..ctx.input.len() {
            if ctx.present[i] {
                ctx.output[i] = ctx.input[i];
            } else {
                ctx.output[i] = value;
            }
            ctx.out_present[i] = true;
        }
    })
}

/// `FillMean`: fills gaps smaller than the sub-window with the mean of the
/// window's present values (the NumPy benchmark of Table 3). Windows with
/// no present values stay absent.
///
/// # Errors
/// Propagates transform validation errors.
pub fn fill_mean(input: Stream<'_>, window: Tick) -> Result<Stream<'_>> {
    input.transform(window, |ctx: TransformCtx<'_>| {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for i in 0..ctx.input.len() {
            if ctx.present[i] {
                sum += ctx.input[i] as f64;
                count += 1;
            }
        }
        if count == 0 {
            return;
        }
        let mean = (sum / count as f64) as f32;
        for i in 0..ctx.input.len() {
            ctx.output[i] = if ctx.present[i] { ctx.input[i] } else { mean };
            ctx.out_present[i] = true;
        }
    })
}

/// `Resample`: up/down-samples to `new_period` using linear interpolation
/// (the SciPy benchmark of Table 3). Composed from `AlterPeriod`
/// (re-grid) + `Transform` (interpolate the holes), with the closure
/// carrying the last sample across sub-windows.
///
/// # Errors
/// Propagates operator validation errors.
pub fn resample(input: Stream<'_>, new_period: Tick, window: Tick) -> Result<Stream<'_>> {
    let mut last: Option<(Tick, f32)> = None;
    input
        .alter_period(new_period)?
        .transform(window, move |ctx: TransformCtx<'_>| {
            let n = ctx.input.len();
            // Invalidate the carried sample across discontinuities: a
            // fresh kernel (recycled executor, skipped round) or a time
            // jump larger than one sub-window.
            if ctx.fresh {
                last = None;
            }
            if let Some((t, _)) = last {
                if ctx.base - t > window {
                    last = None;
                }
            }
            // A sub-window with no samples at all emits nothing: holding
            // the carried value across it would invent data in rounds
            // targeted processing (rightly) skips — e.g. the post-end
            // drain rounds, where eager execution would otherwise extend
            // the signal by a full window. The carried sample expires via
            // the distance check above, so later windows cannot
            // interpolate across the dead zone either.
            if !ctx.present.iter().any(|&p| p) {
                return;
            }
            let mut i = 0usize;
            while i < n {
                if ctx.present[i] {
                    ctx.output[i] = ctx.input[i];
                    ctx.out_present[i] = true;
                    last = Some((ctx.base + i as Tick * ctx.period, ctx.input[i]));
                    i += 1;
                    continue;
                }
                // Find the next present sample to interpolate toward.
                let next = (i + 1..n).find(|&j| ctx.present[j]);
                match (last, next) {
                    (Some((lt, lv)), Some(j)) => {
                        let nt = ctx.base + j as Tick * ctx.period;
                        let nv = ctx.input[j];
                        for k in i..j {
                            let t = ctx.base + k as Tick * ctx.period;
                            let frac = (t - lt) as f32 / (nt - lt) as f32;
                            ctx.output[k] = lv + frac * (nv - lv);
                            ctx.out_present[k] = true;
                        }
                        i = j;
                    }
                    (Some((_, lv)), None) => {
                        // Trailing holes: hold the last value (streaming
                        // boundary effect; SciPy would see the full array).
                        for k in i..n {
                            ctx.output[k] = lv;
                            ctx.out_present[k] = true;
                        }
                        i = n;
                    }
                    (None, Some(j)) => {
                        i = j; // leading holes before any sample stay absent
                    }
                    (None, None) => break,
                }
            }
        })
}

/// Builds the Fig. 3 end-to-end pipeline: impute both signals, upsample ABP
/// to the ECG rate, normalize both, and inner-join them. Returns the
/// ready-to-compile query.
///
/// Source order: 0 = ECG (period `ecg.period()`), 1 = ABP.
///
/// # Errors
/// Propagates operator validation errors.
pub fn fig3_pipeline(ecg: StreamShape, abp: StreamShape, window: Tick) -> Result<Query> {
    let q = Query::new();
    let ecg_src = q.source("ecg", ecg);
    let abp_src = q.source("abp", abp);
    // Signal value imputation.
    let ecg_f = fill_mean(ecg_src, window)?;
    let abp_f = fill_mean(abp_src, window)?;
    // Upsample ABP to the ECG rate.
    let abp_up = resample(abp_f, ecg.period(), window)?;
    // Normalize both, then join strictly overlapping events.
    normalize(ecg_f, window)?
        .join(normalize(abp_up, window)?, JoinKind::Inner)?
        .sink();
    Ok(q)
}

/// Builds the line-zero artifact detection model (§8.4): sliding-window
/// normalization followed by shape-based `Where` with the line-zero
/// pattern. `mode` selects detection (keep) or scrubbing (remove).
///
/// # Errors
/// Propagates operator validation errors.
pub fn linezero_pipeline(
    abp: StreamShape,
    pattern: Vec<f32>,
    band: usize,
    threshold: f32,
    mode: ShapeMode,
) -> Result<Query> {
    let q = Query::new();
    let src = q.source("abp", abp);
    // Sliding-window normalization (stride = 1 sample, window = 32 samples).
    let p = abp.period();
    let mean = src.aggregate(AggKind::Mean, 32 * p, p)?;
    let std = src.aggregate(AggKind::Std, 32 * p, p)?;
    src.join(mean, JoinKind::Inner)?
        .join(std, JoinKind::Inner)?
        .select(1, |v, o| {
            o[0] = (v[0] - v[1]) / v[2].max(1e-6);
        })?
        .where_shape(pattern, band, threshold, true, mode)?
        .sink();
    Ok(q)
}

/// Builds the cardiac-arrest-prediction (CAP) feature pipeline (§8.4):
/// joins `shapes.len()` signal streams (the paper uses 6) after per-signal
/// normalization, upsampling to the fastest rate, imputation, and event
/// masking.
///
/// # Errors
/// Returns an error when fewer than two signals are supplied or arity
/// limits are exceeded.
pub fn cap_pipeline(shapes: &[StreamShape], window: Tick) -> Result<Query> {
    if shapes.len() < 2 {
        return Err(Error::InvalidParameter {
            message: "CAP pipeline requires at least two signals".into(),
        });
    }
    let fastest = shapes.iter().map(|s| s.period()).min().expect("non-empty");
    let q = Query::new();
    let mut processed = Vec::with_capacity(shapes.len());
    for (i, &shape) in shapes.iter().enumerate() {
        let src = q.source(format!("sig{i}"), shape);
        let filled = fill_mean(src, window)?;
        let up = if shape.period() != fastest {
            resample(filled, fastest, window)?
        } else {
            filled
        };
        // Event masking: drop implausible magnitudes (|z| > 8).
        let masked = normalize(up, window)?.where_(|v| v[0].abs() <= 8.0)?;
        processed.push(masked);
    }
    let mut joined = processed[0];
    for &next in &processed[1..] {
        joined = joined.join(next, JoinKind::Inner)?;
    }
    joined.sink();
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOptions;
    use crate::source::SignalData;

    fn sine(shape: StreamShape, n: usize, freq: f32) -> SignalData {
        SignalData::dense(
            shape,
            (0..n)
                .map(|i| (i as f32 * freq).sin() * 10.0 + 50.0)
                .collect(),
        )
    }

    #[test]
    fn fir_lowpass_is_normalized() {
        let h = fir_lowpass(31, 0.1);
        assert_eq!(h.len(), 31);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        // Symmetric (linear phase).
        for i in 0..15 {
            assert!((h[i] - h[30 - i]).abs() < 1e-5);
        }
    }

    #[test]
    fn normalize_produces_zero_mean_unit_std() {
        let s = StreamShape::new(0, 2);
        let data = sine(s, 500, 0.05);
        let q = Query::new();
        normalize(q.source("s", s), 1000).unwrap().sink();
        let mut exec = q.compile().unwrap().executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.len(), 500);
        let m: f32 = out.values(0).iter().sum::<f32>() / 500.0;
        assert!(m.abs() < 1e-3, "mean {m}");
    }

    #[test]
    fn pass_filter_attenuates_high_frequency() {
        let s = StreamShape::new(0, 1);
        // High-frequency alternating signal.
        let data = SignalData::dense(
            s,
            (0..2000)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let q = Query::new();
        pass_filter(q.source("s", s), 500, fir_lowpass(31, 0.05))
            .unwrap()
            .sink();
        let mut exec = q.compile().unwrap().executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        // After the filter warms up, the alternating component is ~gone.
        let tail = &out.values(0)[100..];
        let max_abs = tail.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        assert!(max_abs < 0.05, "max abs {max_abs}");
    }

    #[test]
    fn fill_const_fills_small_gaps() {
        let s = StreamShape::new(0, 1);
        let mut data = SignalData::dense(s, vec![5.0; 100]);
        data.punch_gap(10, 14);
        let q = Query::new();
        fill_const(q.source("s", s), 50, -1.0).unwrap().sink();
        let mut exec = q.compile().unwrap().executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out.values(0)[11], -1.0);
        assert_eq!(out.values(0)[20], 5.0);
    }

    #[test]
    fn fill_mean_uses_window_mean() {
        let s = StreamShape::new(0, 1);
        let mut data = SignalData::dense(s, (0..10).map(|i| i as f32).collect());
        data.punch_gap(4, 5);
        let q = Query::new();
        fill_mean(q.source("s", s), 10).unwrap().sink();
        let mut exec = q.compile().unwrap().executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.len(), 10);
        // Present values: 0,1,2,3,5,6,7,8,9 -> mean 41/9.
        let expect = 41.0 / 9.0;
        assert!((out.values(0)[4] - expect).abs() < 1e-5);
    }

    #[test]
    fn resample_upsamples_with_linear_interpolation() {
        let s = StreamShape::new(0, 8); // 125 Hz
        let data = SignalData::dense(s, (0..100).map(|i| i as f32).collect());
        let q = Query::new();
        resample(q.source("s", s), 2, 400).unwrap().sink(); // -> 500 Hz
        let mut exec = q.compile().unwrap().executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        // Original samples at t=0,8,16,... value t/8; interpolated slots
        // at t=2,4,6 should be t/8 exactly (linear data).
        let t10 = out.iter_times().position(|t| t == 10).unwrap();
        assert!((out.values(0)[t10] - 1.25).abs() < 1e-5);
        assert!(out.len() >= 390);
    }

    #[test]
    fn fig3_pipeline_runs_end_to_end() {
        let ecg = StreamShape::new(0, 2);
        let abp = StreamShape::new(0, 8);
        let ecg_data = sine(ecg, 2000, 0.1);
        let abp_data = sine(abp, 500, 0.03);
        let q = fig3_pipeline(ecg, abp, 1000).unwrap();
        let mut exec = q
            .compile()
            .unwrap()
            .executor_with(vec![ecg_data, abp_data], ExecOptions::default())
            .unwrap();
        let out = exec.run_collect().unwrap();
        assert!(out.len() > 1500, "joined events: {}", out.len());
        assert_eq!(out.arity(), 2);
    }

    #[test]
    fn fig3_pipeline_with_gaps_prunes_work() {
        let ecg = StreamShape::new(0, 2);
        let abp = StreamShape::new(0, 8);
        let mut ecg_data = sine(ecg, 50_000, 0.1);
        let mut abp_data = sine(abp, 12_500, 0.03);
        // Disjoint availability: ECG first half, ABP second half.
        ecg_data.punch_gap(50_000, 100_000);
        abp_data.punch_gap(0, 50_000);
        let q = fig3_pipeline(ecg, abp, 1000).unwrap();
        let mut exec = q
            .compile()
            .unwrap()
            .executor_with(
                vec![ecg_data, abp_data],
                ExecOptions::default().with_round_ticks(1000),
            )
            .unwrap();
        let stats = exec.run().unwrap();
        assert_eq!(stats.output_events, 0);
        assert!(
            stats.windows_skipped >= 90,
            "skipped {}",
            stats.windows_skipped
        );
    }

    #[test]
    fn cap_pipeline_joins_six_signals() {
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
            .map(|&s| sine(s, (4000 / s.period()) as usize, 0.05))
            .collect();
        let q = cap_pipeline(&shapes, 1000).unwrap();
        let mut exec = q.compile().unwrap().executor(data).unwrap();
        let out = exec.run_collect().unwrap();
        assert_eq!(out.arity(), 6);
        assert!(out.len() > 1000);
    }

    #[test]
    fn linezero_pipeline_detects_artifact() {
        let abp = StreamShape::new(0, 8);
        // Pulsatile signal with a flat line-zero drop in the middle.
        let mut vals: Vec<f32> = (0..2000)
            .map(|i| 80.0 + 20.0 * (i as f32 * 0.3).sin())
            .collect();
        for v in &mut vals[900..1000] {
            *v = 0.0;
        }
        let data = SignalData::dense(abp, vals);
        // Pattern: normalized flat-drop shape.
        let pattern = vec![0.0; 32];
        let q = linezero_pipeline(abp, pattern, 4, 3.0, ShapeMode::Keep).unwrap();
        let mut exec = q.compile().unwrap().executor(vec![data]).unwrap();
        let out = exec.run_collect().unwrap();
        assert!(!out.is_empty(), "artifact should be detected");
        // Detections should land inside the artifact region [7200, 8000).
        let inside = out
            .iter_times()
            .filter(|t| (7000..8200).contains(t))
            .count();
        assert!(inside * 2 >= out.len(), "detections centered on artifact");
    }
}
