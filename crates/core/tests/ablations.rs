//! `ExecOptions` ablation coverage: targeted-vs-eager query processing
//! and static-vs-dynamic memory are *performance* knobs — they must
//! agree bit-for-bit on outputs for every prebuilt pipeline in
//! `lifestream_core::pipeline`, the FIR operator and a `where_shape` →
//! `map` chain, on both dense and gap-heavy data.

use lifestream_core::exec::ExecOptions;
use lifestream_core::ops::where_shape::ShapeMode;
use lifestream_core::pipeline as lspipe;
use lifestream_core::source::SignalData;
use lifestream_core::stream::Query;
use lifestream_core::time::{StreamShape, Tick};

const WINDOW: Tick = 400;
const ROUND: Tick = 800;

fn waveform(shape: StreamShape, slots: usize, gaps: bool) -> SignalData {
    let vals: Vec<f32> = (0..slots)
        .map(|i| (i as f32 * 0.05).sin() * 30.0 + 80.0 + (i % 13) as f32)
        .collect();
    with_gaps(SignalData::dense(shape, vals), gaps)
}

/// `data` with a short gap, a multi-round gap and a tail dropout, when
/// `gaps` is set.
fn with_gaps(mut data: SignalData, gaps: bool) -> SignalData {
    let (shape, slots) = (data.shape(), data.values().len());
    if gaps {
        let span = slots as Tick * shape.period();
        data.punch_gap(span / 8, span / 8 + span / 16);
        data.punch_gap(span / 2, span / 2 + ROUND * 3); // multi-round gap
        data.punch_gap(span - span / 10, span); // tail dropout
    }
    data
}

type PipelineCase = (&'static str, Box<dyn Fn() -> Query>, Vec<SignalData>);

/// Every prebuilt pipeline as `(name, query builder, source datasets)`.
fn prebuilt(gaps: bool) -> Vec<PipelineCase> {
    let s2 = StreamShape::new(0, 2);
    let s8 = StreamShape::new(0, 8);

    vec![
        (
            "normalize",
            Box::new(move || {
                let q = Query::new();
                lspipe::normalize(q.source("s", s2), WINDOW).unwrap().sink();
                q
            }) as Box<dyn Fn() -> Query>,
            vec![waveform(s2, 6_000, gaps)],
        ),
        (
            "pass_filter",
            Box::new(move || {
                let q = Query::new();
                q.source("s", s2)
                    .pass_filter(lspipe::fir_lowpass(15, 0.1))
                    .unwrap()
                    .sink();
                q
            }),
            vec![waveform(s2, 6_000, gaps)],
        ),
        (
            "fill_const",
            Box::new(move || {
                let q = Query::new();
                lspipe::fill_const(q.source("s", s2), WINDOW, -5.0)
                    .unwrap()
                    .sink();
                q
            }),
            vec![waveform(s2, 6_000, gaps)],
        ),
        (
            "fill_mean",
            Box::new(move || {
                let q = Query::new();
                lspipe::fill_mean(q.source("s", s2), WINDOW).unwrap().sink();
                q
            }),
            vec![waveform(s2, 6_000, gaps)],
        ),
        (
            "resample",
            Box::new(move || {
                let q = Query::new();
                lspipe::resample(q.source("s", s8), 2, WINDOW)
                    .unwrap()
                    .sink();
                q
            }),
            vec![waveform(s8, 1_500, gaps)],
        ),
        (
            "fig3_pipeline",
            Box::new(move || lspipe::fig3_pipeline(s2, s8, WINDOW).unwrap()),
            vec![waveform(s2, 6_000, gaps), waveform(s8, 1_500, gaps)],
        ),
        (
            "linezero_pipeline",
            Box::new(move || {
                lspipe::linezero_pipeline(s8, vec![0.0; 32], 4, 3.0, ShapeMode::Keep).unwrap()
            }),
            vec![{
                // Pulsatile signal with a flat line-zero artifact so the
                // detector has something to find.
                let mut data = waveform(s8, 1_500, gaps);
                let mut vals = data.values().to_vec();
                for v in &mut vals[600..700] {
                    *v = 0.0;
                }
                let mut with_artifact =
                    SignalData::with_presence(data.shape(), vals, data.presence().clone());
                std::mem::swap(&mut data, &mut with_artifact);
                data
            }],
        ),
        (
            "cap_pipeline",
            Box::new(move || {
                lspipe::cap_pipeline(&[s2, s8, StreamShape::new(0, 4)], WINDOW).unwrap()
            }),
            vec![
                waveform(s2, 6_000, gaps),
                waveform(s8, 1_500, gaps),
                waveform(StreamShape::new(0, 4), 3_000, gaps),
            ],
        ),
        (
            "where_shape_map",
            Box::new(move || {
                // DTW-keep a 16-sample ramp, then rescale the survivors.
                let q = Query::new();
                q.source("abp", s8)
                    .where_shape(
                        (0..16).map(|i| i as f32).collect(),
                        4,
                        3.0,
                        true,
                        ShapeMode::Keep,
                    )
                    .unwrap()
                    .map(|v| v * 0.5)
                    .unwrap()
                    .sink();
                q
            }),
            vec![with_gaps(
                SignalData::dense(
                    s8,
                    (0..4_000)
                        .map(|i| ((i % 97) as f32 * 0.4).sin() * 20.0 + (i % 29) as f32)
                        .collect(),
                ),
                gaps,
            )],
        ),
    ]
}

fn run_with(build: &dyn Fn() -> Query, sources: &[SignalData], opts: ExecOptions) -> (usize, u64) {
    let mut exec = build()
        .compile()
        .unwrap()
        .executor_with(sources.to_vec(), opts)
        .unwrap();
    let out = exec.run_collect().unwrap();
    (out.len(), out.checksum())
}

#[test]
fn every_prebuilt_pipeline_agrees_across_all_ablations() {
    for gaps in [false, true] {
        for (name, build, sources) in prebuilt(gaps) {
            let base = ExecOptions::default().with_round_ticks(ROUND);
            let reference = run_with(build.as_ref(), &sources, base);
            assert!(
                reference.0 > 0,
                "{name} (gaps={gaps}) produced no output; comparison is vacuous"
            );
            let ablations = [
                ("eager", base.without_targeting()),
                ("dynamic-memory", base.with_dynamic_memory()),
                (
                    "eager+dynamic",
                    base.without_targeting().with_dynamic_memory(),
                ),
            ];
            for (label, opts) in ablations {
                let got = run_with(build.as_ref(), &sources, opts);
                assert_eq!(
                    got, reference,
                    "{name} (gaps={gaps}): {label} disagrees with targeted+static \
                     (events+checksum)"
                );
            }
        }
    }
}

#[test]
fn targeted_actually_skips_on_gap_heavy_data() {
    // Guard the ablation above against becoming vacuous: on the gapped
    // datasets, targeted execution must really be taking the skip path.
    let s2 = StreamShape::new(0, 2);
    let data = waveform(s2, 6_000, true);
    let q = Query::new();
    lspipe::normalize(q.source("s", s2), WINDOW).unwrap().sink();
    let mut exec = q
        .compile()
        .unwrap()
        .executor_with(vec![data], ExecOptions::default().with_round_ticks(ROUND))
        .unwrap();
    let stats = exec.run().unwrap();
    assert!(stats.windows_skipped > 0, "no rounds were skipped");
}
