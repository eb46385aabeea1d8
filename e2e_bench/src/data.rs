//! Seeded inputs. The seed changes sample values and gap positions; it
//! never changes a size, a gap length or an op count, so every seed asks
//! the engine for the same amount of work.

use lifestream_core::ops::aggregate::AggKind;
use lifestream_core::ops::transform::TransformCtx;
use lifestream_core::query::CompiledQuery;
use lifestream_core::source::SignalData;
use lifestream_core::stream::{Query, Stream};
use lifestream_core::time::{StreamShape, Tick};
use lifestream_signal::{DatasetBuilder, SignalKind};

/// splitmix64: one multiply-xorshift chain per draw, no state beyond a
/// counter, so a sub-stream is just another seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Seed of sub-stream `lane` of a run: distinct lanes and distinct run
/// seeds never collide for the lane counts used here.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ lane.wrapping_mul(0x9E37_79B9)).next_u64()
}

/// Removes one gap of each length in `lens` (grid slots) from `data`.
/// The record is cut into `lens.len() * lanes` equal parts and gap `i`
/// lands at a seeded position inside part `i * lanes + lane`, clear of
/// the part's edges. Gaps therefore never touch or overlap — nor do those
/// of signals given different lanes — so the present-sample count, and
/// the time covered by no gap of any lane, is the same for every seed.
pub fn punch_gaps(data: &mut SignalData, rng: &mut Rng, lens: &[usize], lane: usize, lanes: usize) {
    let n = data.len();
    let shape = data.shape();
    let part = n / (lens.len() * lanes);
    for (i, &len) in lens.iter().enumerate() {
        let edge = part / 16;
        let room = part - len - 2 * edge;
        let start = (i * lanes + lane) * part + edge + rng.below(room as u64) as usize;
        let t0 = shape.offset() + start as Tick * shape.period();
        data.punch_gap(t0, t0 + len as Tick * shape.period());
    }
}

/// One ICU patient of the Fig. 3 workload: `minutes` of 500 Hz ECG and
/// 125 Hz ABP, each missing three disconnections (150 s, 45 s and 5 s of
/// ECG; 120 s, 60 s and 5 s of ABP) at positions of their own. The two
/// signals' gaps never coincide, so the join sees the same stretch of
/// common data, and skips the same share of rounds, whatever the seed.
pub fn ecg_abp_patient(minutes: i64, seed: u64) -> Vec<SignalData> {
    let mut rng = Rng::new(seed);
    let mut ecg = DatasetBuilder::new(SignalKind::Ecg, rng.next_u64())
        .minutes(minutes)
        .build(500.0);
    let mut abp = DatasetBuilder::new(SignalKind::Abp, rng.next_u64())
        .minutes(minutes)
        .build(125.0);
    punch_gaps(&mut ecg, &mut rng, &[75_000, 22_500, 2_500], 0, 2);
    punch_gaps(&mut abp, &mut rng, &[15_000, 7_500, 625], 1, 2);
    vec![ecg, abp]
}

/// `kernel_bench`'s mostly-dense waveform (period 1) with its three
/// dropouts — 40 ticks, three rounds, 7 ticks — at seeded positions.
pub fn dense_signal(samples: usize, seed: u64) -> SignalData {
    let mut rng = Rng::new(seed);
    let salt = rng.next_u64();
    let vals: Vec<f32> = (0..samples as u64)
        .map(|i| {
            let x = (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((x >> 40) % 997) as f32 / 7.0 - 50.0
        })
        .collect();
    let mut data = SignalData::dense(StreamShape::new(0, 1), vals);
    punch_gaps(&mut data, &mut rng, &[40, 3_000, 7], 0, 1);
    data
}

/// A period-2 (500 Hz) ECG stretch of `slots` grid slots missing an 8 s,
/// a 3 s and a 0.4 s disconnection: the live feed of one monitor.
pub fn live_ecg(slots: usize, seed: u64) -> SignalData {
    let mut rng = Rng::new(seed);
    let mut data = DatasetBuilder::new(SignalKind::Ecg, rng.next_u64())
        .span_ticks(slots as Tick * LIVE_PERIOD)
        .build(500.0);
    punch_gaps(&mut data, &mut rng, &[4_000, 1_500, 200], 0, 1);
    data
}

pub const LIVE_PERIOD: Tick = 2;
pub const LIVE_ROUND: Tick = 1_000;

/// The live benches' pipeline: a stateless select into a sliding mean
/// (50 periods wide, every 5), so sessions carry kernel state and retain
/// a history margin that compaction must respect.
pub fn live_pipeline() -> lifestream_core::error::Result<CompiledQuery> {
    let q = Query::new();
    q.source("sig", StreamShape::new(0, LIVE_PERIOD))
        .select(1, |i, o| o[0] = i[0] * 0.25 + 1.0)?
        .aggregate(AggKind::Mean, 50 * LIVE_PERIOD, 5 * LIVE_PERIOD)?
        .sink();
    q.compile()
}

pub const CHAIN_ROUND: Tick = 1_000;
const NORM_WINDOW: Tick = 200;
const SLIDING_WINDOW: Tick = 16;

fn normalize() -> impl FnMut(TransformCtx<'_>) + Send + 'static {
    |ctx: TransformCtx<'_>| {
        let mut sum = 0.0f32;
        let mut n = 0u32;
        for (i, &p) in ctx.present.iter().enumerate() {
            if p {
                sum += ctx.input[i];
                n += 1;
            }
        }
        if n == 0 {
            return;
        }
        let mean = sum / n as f32;
        let mut var = 0.0f32;
        for (i, &p) in ctx.present.iter().enumerate() {
            if p {
                let d = ctx.input[i] - mean;
                var += d * d;
            }
        }
        let sd = (var / n as f32).sqrt().max(1e-6);
        for (i, &p) in ctx.present.iter().enumerate() {
            if p {
                ctx.output[i] = (ctx.input[i] - mean) / sd;
                ctx.out_present[i] = true;
            }
        }
    }
}

fn fir_taps() -> Vec<f32> {
    (0..8).map(|k| 1.0 / (k as f32 + 2.0)).collect()
}

/// Builds one stage (or a whole pipeline) on a source stream.
pub type StreamOp = fn(Stream<'_>) -> Stream<'_>;

pub fn op_select(s: Stream<'_>) -> Stream<'_> {
    s.map(|v| v * 1.25 - 3.0).expect("select")
}

pub fn op_where(s: Stream<'_>) -> Stream<'_> {
    s.where_(|v| v[0] > -20.0).expect("where")
}

pub fn op_normalize(s: Stream<'_>) -> Stream<'_> {
    s.transform(NORM_WINDOW, normalize()).expect("normalize")
}

pub fn op_fir8(s: Stream<'_>) -> Stream<'_> {
    s.pass_filter(fir_taps()).expect("fir")
}

pub fn op_sliding_mean(s: Stream<'_>) -> Stream<'_> {
    s.aggregate(AggKind::Mean, SLIDING_WINDOW, 1)
        .expect("sliding mean")
}

/// `kernel_bench`'s fusible chain: every stage is unit-scale, so the
/// whole pipeline compiles into one fused kernel.
pub fn op_chain(s: Stream<'_>) -> Stream<'_> {
    op_sliding_mean(op_fir8(op_normalize(op_select(s))))
}

/// Empty datasets of a pipeline's source shapes: what an executor is built
/// on before it is handed real sources.
pub fn empty_sources(compiled: &CompiledQuery) -> Vec<SignalData> {
    compiled
        .source_shapes()
        .into_iter()
        .map(|s| SignalData::dense(s, Vec::new()))
        .collect()
}

/// Compiles a single-source pipeline over the dense period-1 grid.
pub fn compile_dense(build: StreamOp) -> CompiledQuery {
    let q = Query::new();
    build(q.source("sig", StreamShape::new(0, 1))).sink();
    q.compile().expect("compile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_moves_gaps_and_values_but_never_the_amount_of_work() {
        let a = ecg_abp_patient(2, 1);
        let b = ecg_abp_patient(2, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            assert_eq!(x.present_events(), y.present_events());
            assert_ne!(x.presence().ranges(), y.presence().ranges());
            assert_ne!(x.values()[..100], y.values()[..100]);
        }
        assert_eq!(
            dense_signal(50_000, 1).present_events(),
            dense_signal(50_000, 2).present_events()
        );
        assert_eq!(live_ecg(64_000, 1).present_events(), 64_000 - 5_700);
    }

    #[test]
    fn gaps_of_different_lanes_never_coincide() {
        for seed in 0..32 {
            let p = ecg_abp_patient(2, seed);
            let (ecg, abp) = (p[0].presence(), p[1].presence());
            let both = ecg.intersect(abp).covered_ticks();
            let span = 2 * 60_000;
            let ecg_gaps = span - ecg.covered_ticks();
            let abp_gaps = span - abp.covered_ticks();
            assert_eq!(both, span - ecg_gaps - abp_gaps, "seed {seed}");
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_input() {
        let (a, b) = (live_ecg(8_000, 7), live_ecg(8_000, 7));
        assert_eq!(a.values(), b.values());
        assert_eq!(a.presence().ranges(), b.presence().ranges());
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
