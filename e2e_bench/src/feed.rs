//! The live feed: eight monitor slots streaming interleaved episodes into
//! any front end that implements the ingest protocol. `live_cluster_spill`
//! drives a `ClusterIngest` with it; the ladder drives each shorter path
//! with the same code, so the rungs differ only in the path.

use std::sync::Arc;
use std::time::Instant;

use cluster_harness::sharded::Ingest;
use lifestream_core::exec::ExecOptions;
use lifestream_core::time::Tick;

use crate::clock::{Stretch, Timed};
use crate::data::{live_ecg, live_pipeline, sub_seed, LIVE_PERIOD, LIVE_ROUND};
use crate::measure::{Recorder, Rep};
use crate::trace::SpanId;

pub const SLOTS: usize = 8;
/// Grid slots per episode (128 s of 500 Hz ECG).
pub const EPISODE_SLOTS: usize = 64_000;
/// Slot `s` starts `s * STAGGER` steps late, so episodes end one at a
/// time, evenly spread.
const STAGGER: usize = EPISODE_SLOTS / SLOTS;
/// Steps between polls: one round of every slot's stream.
const BLOCK: usize = (LIVE_ROUND / LIVE_PERIOD) as usize;
/// Steps in which every slot completes exactly one episode.
pub const STEPS_PER_PASS: usize = EPISODE_SLOTS;
const TEMPLATES: usize = 16;
/// Poll blocks between two readings of the CPU clock (about 10 ms).
const BLOCKS_PER_CLOCK_READING: usize = 8;

/// One distinct input: a gap-bearing ECG stretch and the checksum a cold,
/// staged, untargeted run of the live pipeline gives for it.
pub struct Episode {
    values: Vec<f32>,
    present: Vec<bool>,
    checksum: u64,
}

pub fn episodes(seed: u64) -> Arc<Vec<Episode>> {
    let episodes = (0..TEMPLATES)
        .map(|i| {
            let data = live_ecg(EPISODE_SLOTS, sub_seed(seed, 1_000 + i as u64));
            let mut present = vec![false; data.len()];
            for (slot, _, _) in data.present_samples() {
                present[slot] = true;
            }
            let checksum = live_pipeline()
                .and_then(|q| {
                    q.executor_with(
                        vec![data.clone()],
                        ExecOptions::default()
                            .with_round_ticks(LIVE_ROUND)
                            .without_fusion()
                            .without_targeting(),
                    )
                })
                .and_then(|mut e| e.run_collect())
                .expect("reference run")
                .checksum();
            Episode {
                values: data.values().to_vec(),
                present,
                checksum,
            }
        })
        .collect();
    Arc::new(episodes)
}

#[derive(Clone, Copy)]
struct Slot {
    patient: u64,
    episode: usize,
    pos: usize,
    active: bool,
}

pub struct Feed {
    episodes: Arc<Vec<Episode>>,
    slots: [Slot; SLOTS],
    next_patient: u64,
    step: usize,
    next_op: i64,
    /// Per-call wall times of `admit` and `finish`, kept when
    /// `time_calls` is set.
    pub admit_ms: Vec<f64>,
    pub finish_ms: Vec<f64>,
    pub time_calls: bool,
}

impl Feed {
    /// `first_patient` keeps the ids of feeds sharing a store apart.
    pub fn new(episodes: Arc<Vec<Episode>>, first_patient: u64) -> Self {
        Self {
            episodes,
            slots: [Slot {
                patient: 0,
                episode: 0,
                pos: 0,
                active: false,
            }; SLOTS],
            next_patient: first_patient,
            step: 0,
            next_op: 0,
            admit_ms: Vec::new(),
            finish_ms: Vec::new(),
            time_calls: false,
        }
    }

    fn admit(&mut self, ingest: &dyn Ingest, s: usize, rec: &mut Recorder, parent: SpanId) {
        let patient = self.next_patient;
        self.next_patient += 1;
        let span = rec.tracer.begin("ingest.admit", parent, -1);
        let t = self.time_calls.then(Instant::now);
        let admitted = ingest.admit(patient);
        if let Some(t) = t {
            self.admit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        rec.tracer.end(span);
        if let Err(e) = admitted {
            rec.void(format!("admit failed: {e}"));
        }
        self.slots[s] = Slot {
            patient,
            episode: (patient % self.episodes.len() as u64) as usize,
            pos: 0,
            active: true,
        };
    }

    /// Advances the feed by `steps` (a multiple of the poll block). An op
    /// is one episode; its latency runs from that patient's last `push`
    /// to `finish` returning its output.
    pub fn run(
        &mut self,
        ingest: &dyn Ingest,
        steps: usize,
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Rep {
        assert_eq!(steps % (BLOCK * BLOCKS_PER_CLOCK_READING), 0);
        let mut elapsed = Timed::default();
        let mut stretch = Stretch::begin();
        let mut pushed = 0u64;
        for block in 1..=steps / BLOCK {
            for s in 0..SLOTS {
                if !self.slots[s].active && self.step >= s * STAGGER {
                    self.admit(ingest, s, rec, parent);
                }
            }
            let span = rec.tracer.begin("ingest.push_block", parent, -1);
            for _ in 0..BLOCK {
                for slot in self.slots.iter_mut().filter(|s| s.active) {
                    let ep = &self.episodes[slot.episode];
                    if ep.present[slot.pos] {
                        let t = slot.pos as Tick * LIVE_PERIOD;
                        ingest.push(slot.patient, 0, t, ep.values[slot.pos]);
                        pushed += 1;
                    }
                    slot.pos += 1;
                }
            }
            self.step += BLOCK;
            rec.tracer.end(span);
            for s in 0..SLOTS {
                if self.slots[s].active && self.slots[s].pos == EPISODE_SLOTS {
                    let last_push = Stretch::begin();
                    let op = self.next_op;
                    self.next_op += 1;
                    let span = rec.tracer.begin("ingest.finish", parent, op);
                    let out = ingest.finish(self.slots[s].patient);
                    rec.tracer.end(span);
                    let latency = last_push.end();
                    if self.time_calls {
                        self.finish_ms.push(latency.scaled.as_secs_f64() * 1e3);
                    }
                    let want = self.episodes[self.slots[s].episode].checksum;
                    rec.op(latency, out.is_ok_and(|o| o.checksum() == want));
                    self.admit(ingest, s, rec, parent);
                }
            }
            let span = rec.tracer.begin("ingest.poll", parent, -1);
            ingest.poll();
            rec.tracer.end(span);
            if block % BLOCKS_PER_CLOCK_READING == 0 {
                elapsed += stretch.end();
                stretch = Stretch::begin();
            }
        }
        Rep {
            events: pushed,
            elapsed,
        }
    }

    /// Ends every open episode; their truncated outputs are not compared.
    pub fn close(&mut self, ingest: &dyn Ingest) {
        for slot in self.slots.iter_mut().filter(|s| s.active) {
            let _ = ingest.finish(slot.patient);
            slot.active = false;
        }
    }
}
