//! # distrib-baseline
//!
//! Single-machine stand-ins for the distributed streaming engines of
//! Table 1 (Spark Streaming, Storm, Flink). The paper measures their
//! single-core temporal-join and upsampling throughput to motivate
//! LifeStream; the engines themselves are JVM systems we cannot embed, so
//! this crate reproduces the *costs that dominate their single-core
//! performance*:
//!
//! * **per-event record objects** — each event is deserialized into its
//!   own heap allocation (JVM object churn);
//! * **serialization at every operator hop** — micro-batches are encoded
//!   to bytes and decoded again between operators (exchange/network
//!   stack, even on one machine);
//! * **micro-batch scheduling** — work is chunked into per-engine batch
//!   sizes (Storm processes per-event, Flink small batches, Spark larger
//!   micro-batches with extra copies);
//! * **channel-connected operator tasks** — operators run as threads
//!   linked by bounded channels.
//!
//! Three [`Profile`]s dial those knobs to the three engines. Absolute
//! numbers are not the point (the paper's Table 1 machines differ);
//! the order — Storm < Spark < Flink ≪ Trill ≪ LifeStream/SciPy — is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Boxing each event is the point: it reproduces the per-event heap
// allocation (JVM object churn) these engines pay.
#![allow(clippy::vec_box)]
#![warn(rust_2018_idioms)]

use std::sync::mpsc::{sync_channel, SyncSender};

use lifestream_core::source::SignalData;
use lifestream_core::time::Tick;

/// One event record (what a JVM engine would hold as an object).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Sync time.
    pub ts: Tick,
    /// Measurement value.
    pub value: f32,
}

/// Engine tuning profile.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Engine label.
    pub name: &'static str,
    /// Events per micro-batch (1 = per-event processing).
    pub micro_batch: usize,
    /// Serialize/deserialize round-trips per operator hop (framework
    /// layers: exchange, checkpoint buffers, ...).
    pub codec_passes: usize,
    /// Per-record bookkeeping operations (ack registries, lineage
    /// tracking, metrics, per-record iterator dispatch). The counts are
    /// calibrated against Table 1's measured single-core throughputs —
    /// see DESIGN.md's substitution notes.
    pub bookkeeping_ops: u32,
}

impl Profile {
    /// Spark-Streaming-like: large micro-batches, heavyweight per-hop
    /// copies, RDD lineage + per-record iterator chains.
    pub fn spark() -> Self {
        Self {
            name: "spark",
            micro_batch: 10_000,
            codec_passes: 3,
            bookkeeping_ops: 1_100,
        }
    }

    /// Storm-like: per-event tuples through the whole topology with at
    /// least-once ack tracking.
    pub fn storm() -> Self {
        Self {
            name: "storm",
            micro_batch: 1,
            codec_passes: 2,
            bookkeeping_ops: 600,
        }
    }

    /// Flink-like: small buffers, leaner serialization, lighter record
    /// bookkeeping.
    pub fn flink() -> Self {
        Self {
            name: "flink",
            micro_batch: 1_000,
            codec_passes: 2,
            bookkeeping_ops: 850,
        }
    }
}

/// Size of the per-task bookkeeping table (metrics/ack registries touched
/// on every record): 512 KiB, deliberately larger than L2 so the touches
/// behave like real registry lookups, not register spins.
const BOOKKEEPING_SLOTS: usize = 64 * 1024;

/// Per-record framework bookkeeping: scattered read-modify-writes over a
/// registry table, the dominant per-record cost in JVM streaming engines
/// (ack trees, lineage, metrics, per-record iterator dispatch).
#[inline]
fn record_bookkeeping(seed: u64, table: &mut [u64], ops: u32) -> u64 {
    let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for r in 0..ops as u64 {
        let idx = ((h ^ r) % table.len() as u64) as usize;
        table[idx] = table[idx].wrapping_add(h | 1);
        h = h.rotate_left(7) ^ table[idx];
    }
    h
}

/// Run statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistribStats {
    /// Events ingested.
    pub input_events: u64,
    /// Events emitted.
    pub output_events: u64,
    /// Bytes pushed through the codec in total.
    pub bytes_encoded: u64,
}

/// Encodes a batch of events (12 bytes each: `ts` then `value`, both
/// little-endian).
fn encode(events: &[Box<Event>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 12);
    for e in events {
        buf.extend_from_slice(&e.ts.to_le_bytes());
        buf.extend_from_slice(&e.value.to_le_bytes());
    }
    buf
}

/// Decodes a batch into per-event heap allocations (object churn).
fn decode(bytes: Vec<u8>) -> Vec<Box<Event>> {
    bytes
        .chunks_exact(12)
        .map(|record| {
            let (ts, value) = record.split_at(8);
            Box::new(Event {
                ts: i64::from_le_bytes(ts.try_into().expect("8-byte ts")),
                value: f32::from_le_bytes(value.try_into().expect("4-byte value")),
            })
        })
        .collect()
}

/// One operator hop: `codec_passes` serialize/deserialize round trips.
fn hop(events: Vec<Box<Event>>, passes: usize, stats_bytes: &mut u64) -> Vec<Box<Event>> {
    let mut cur = events;
    for _ in 0..passes {
        let b = encode(&cur);
        *stats_bytes += b.len() as u64;
        cur = decode(b);
    }
    cur
}

/// Extracts present events from a dataset as record objects.
fn to_events(data: &SignalData) -> Vec<Box<Event>> {
    let mut out = Vec::with_capacity(data.present_events());
    out.extend(
        data.present_samples()
            .map(|(_, t, v)| Box::new(Event { ts: t, value: v })),
    );
    out
}

/// One message to the join task: an encoded micro-batch from one side,
/// or `None` once that side's stream has ended.
enum Side {
    Left(Option<Vec<u8>>),
    Right(Option<Vec<u8>>),
}

/// Temporal inner join of two streams on the micro-batch engine: two
/// ingress tasks feed a join task through one bounded channel; the join
/// buffers each side until the other's watermark passes (per-event hash
/// probing).
pub fn run_join(profile: Profile, left: &SignalData, right: &SignalData) -> DistribStats {
    use std::collections::HashMap;

    let mut stats = DistribStats::default();
    let l_events = to_events(left);
    let r_events = to_events(right);
    stats.input_events = (l_events.len() + r_events.len()) as u64;
    let grid = lifestream_core::time::gcd(left.shape().period(), right.shape().period()).max(1);
    let (l_period, r_period) = (left.shape().period(), right.shape().period());

    let (tx, rx) = sync_channel::<Side>(32);
    let mb = profile.micro_batch;
    let passes = profile.codec_passes;

    // Ingress tasks: per-record bookkeeping, chunk, codec-pass, ship.
    let book_ops = profile.bookkeeping_ops;
    let ingress = |events: Vec<Box<Event>>, tx: SyncSender<Side>, side: fn(_) -> Side| {
        std::thread::spawn(move || {
            let mut registry = vec![0u64; BOOKKEEPING_SLOTS];
            let mut local_bytes = 0u64;
            let mut sink = 0u64;
            for chunk in events.chunks(mb.max(1)) {
                for e in chunk {
                    sink ^= record_bookkeeping(e.ts as u64, &mut registry, book_ops);
                }
                let hopped = hop(chunk.to_vec(), passes.saturating_sub(1), &mut local_bytes);
                let b = encode(&hopped);
                local_bytes += b.len() as u64;
                if tx.send(side(Some(b))).is_err() {
                    break;
                }
            }
            let _ = tx.send(side(None));
            std::hint::black_box(sink);
            local_bytes
        })
    };
    let hl = ingress(l_events, tx.clone(), Side::Left);
    let hr = ingress(r_events, tx, Side::Right);

    // Join task: symmetric buffered hash join over grid instants.
    let mut lbuf: Vec<Box<Event>> = Vec::new();
    let mut rbuf: Vec<Box<Event>> = Vec::new();
    let (mut lw, mut rw) = (Tick::MIN, Tick::MIN);
    let mut emitted_to = Tick::MIN;
    let mut out_count = 0u64;
    // Ends once both ingress tasks have dropped their senders.
    for msg in rx.iter() {
        let (buf, watermark, batch) = match msg {
            Side::Left(batch) => (&mut lbuf, &mut lw, batch),
            Side::Right(batch) => (&mut rbuf, &mut rw, batch),
        };
        match batch {
            Some(b) => {
                let evs = decode(b);
                if let Some(last) = evs.last() {
                    *watermark = (*watermark).max(last.ts + 1);
                }
                buf.extend(evs);
            }
            None => *watermark = Tick::MAX,
        }
        let safe = lw.min(rw);
        if safe > emitted_to && !lbuf.is_empty() && !rbuf.is_empty() {
            // Hash right coverage, probe left events (per-event hashing —
            // the JVM engines' generic keyed join path).
            let mut probe: HashMap<Tick, f32> = HashMap::new();
            for e in &rbuf {
                let mut t = e.ts;
                while t < (e.ts + r_period).min(safe) {
                    probe.insert(t, e.value);
                    t += grid;
                }
            }
            for e in &lbuf {
                if e.ts >= safe {
                    continue;
                }
                // A left event kept past an earlier emission has already
                // probed its points below `emitted_to`: resume at the
                // first point on its grid at or above it.
                let mut t = if e.ts >= emitted_to {
                    e.ts
                } else {
                    e.ts + (emitted_to - e.ts + grid - 1) / grid * grid
                };
                while t < (e.ts + l_period).min(safe) {
                    if probe.contains_key(&t) {
                        out_count += 1;
                    }
                    t += grid;
                }
            }
            lbuf.retain(|e| e.ts + l_period > safe);
            rbuf.retain(|e| e.ts + r_period > safe);
            emitted_to = safe;
        }
    }
    stats.bytes_encoded += hl.join().unwrap_or(0) + hr.join().unwrap_or(0);
    stats.output_events = out_count;
    stats
}

/// Linear-interpolation upsampling on the micro-batch engine: ingress →
/// codec hop → interpolate task.
pub fn run_upsample(profile: Profile, input: &SignalData, dst_period: Tick) -> DistribStats {
    let mut stats = DistribStats::default();
    let events = to_events(input);
    stats.input_events = events.len() as u64;
    let src_period = input.shape().period();

    let (tx, rx) = sync_channel::<Vec<u8>>(16);
    let mb = profile.micro_batch;
    let passes = profile.codec_passes;
    let book_ops = profile.bookkeeping_ops;
    let h = std::thread::spawn(move || {
        let mut registry = vec![0u64; BOOKKEEPING_SLOTS];
        let mut local_bytes = 0u64;
        let mut sink = 0u64;
        for chunk in events.chunks(mb.max(1)) {
            for e in chunk {
                sink ^= record_bookkeeping(e.ts as u64, &mut registry, book_ops);
            }
            let hopped = hop(chunk.to_vec(), passes.saturating_sub(1), &mut local_bytes);
            let b = encode(&hopped);
            local_bytes += b.len() as u64;
            if tx.send(b).is_err() {
                break;
            }
        }
        std::hint::black_box(sink);
        local_bytes
    });

    let mut prev: Option<Box<Event>> = None;
    let mut out_count = 0u64;
    for b in rx.iter() {
        for e in decode(b) {
            if let Some(p) = &prev {
                if e.ts - p.ts == src_period {
                    let mut t = p.ts;
                    while t < e.ts {
                        let f = (t - p.ts) as f32 / src_period as f32;
                        let _v = p.value + f * (e.value - p.value);
                        out_count += 1;
                        t += dst_period;
                    }
                }
            }
            prev = Some(e);
        }
    }
    out_count += 1; // final sample passes through
    stats.bytes_encoded = h.join().unwrap_or(0);
    stats.output_events = out_count;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream_core::time::StreamShape;

    fn ramp(shape: StreamShape, n: usize) -> SignalData {
        SignalData::dense(shape, (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn codec_roundtrips() {
        let evs: Vec<Box<Event>> = (0..10)
            .map(|i| {
                Box::new(Event {
                    ts: i,
                    value: i as f32,
                })
            })
            .collect();
        let decoded = decode(encode(&evs));
        assert_eq!(decoded.len(), 10);
        assert_eq!(*decoded[3], Event { ts: 3, value: 3.0 });
    }

    #[test]
    fn join_counts_overlapping_grid_points() {
        // Left period 3 over a gcd grid of 1, right period 2, both
        // gapped: a left event outlives emissions (Storm's per-event
        // batches emit after every event) and must not count its points
        // again. The coverage is [0, 600) ∪ [1200, 1800) ∪ [2400, 3000).
        let mut gl = ramp(StreamShape::new(0, 3), 1000);
        let mut gr = ramp(StreamShape::new(0, 2), 1500);
        gl.punch_gap(600, 1200);
        gr.punch_gap(1800, 2400);
        for profile in [Profile::spark(), Profile::storm(), Profile::flink()] {
            let l = ramp(StreamShape::new(0, 1), 1000);
            let r = ramp(StreamShape::new(0, 2), 500);
            let stats = run_join(profile, &l, &r);
            assert_eq!(stats.output_events, 1000, "profile {}", profile.name);
            assert!(stats.bytes_encoded > 0);
            let stats = run_join(profile, &gl, &gr);
            assert_eq!(
                stats.output_events, 1800,
                "gapped, profile {}",
                profile.name
            );
        }
    }

    #[test]
    fn join_respects_gaps() {
        let l = ramp(StreamShape::new(0, 1), 1000);
        let mut r = ramp(StreamShape::new(0, 1), 1000);
        r.punch_gap(0, 500);
        let stats = run_join(Profile::flink(), &l, &r);
        assert_eq!(stats.output_events, 500);
    }

    #[test]
    fn upsample_quadruples_125_to_500() {
        let input = ramp(StreamShape::new(0, 8), 1000);
        let stats = run_upsample(Profile::flink(), &input, 2);
        // Each source interval yields 4 output samples.
        assert!(stats.output_events >= 3993, "out {}", stats.output_events);
    }

    #[test]
    fn storm_processes_per_event() {
        let input = ramp(StreamShape::new(0, 8), 100);
        let stats = run_upsample(Profile::storm(), &input, 2);
        // Per-event batching => one 12-byte frame per event per pass.
        assert!(stats.bytes_encoded >= 100 * 12);
        assert!(stats.output_events > 390);
    }
}
