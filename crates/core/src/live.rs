//! Live (online) execution.
//!
//! §2 of the paper: analysts develop against retrospective data, then the
//! deployment on live monitor feeds "must be seamless and error-free".
//! [`LiveSession`] provides that path: the *same compiled query* runs over
//! samples appended in arrival order, emitting output round by round as
//! the processing windows fill. Retrospective and live execution share the
//! kernels, the traced dimensions, and the static memory plan — a pipeline
//! validated offline behaves identically online.
//!
//! ```
//! use lifestream_core::live::LiveSession;
//! use lifestream_core::prelude::*;
//!
//! let q = Query::new();
//! q.source("ecg", StreamShape::new(0, 2)).map(|v| v * 2.0)?.sink();
//!
//! let mut session = LiveSession::new(q.compile()?, 100)?;
//! for k in 0..200 {
//!     session.push(0, k * 2, k as f32)?;
//! }
//! let mut emitted = 0;
//! session.poll(|w| emitted += w.present_count())?;
//! assert!(emitted > 0); // completed rounds have been processed
//! # Ok::<(), lifestream_core::Error>(())
//! ```

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::exec::{ExecOptions, Executor, OutputCollector};
use crate::fwindow::FWindow;
use crate::presence::{add_range, ranges_contain, retire_ranges, PresenceMap};
use crate::query::CompiledQuery;
use crate::source::SignalData;
use crate::stats::RunStats;
use crate::time::{StreamShape, Tick};

/// One compacted sample span leaving a [`LiveSession`]'s retained buffer.
///
/// When a retire sink is attached ([`LiveSession::set_retire_sink`]), every
/// suffix compaction hands the dropped prefix to the sink as one of these
/// instead of discarding it — the hook a tiered history store uses to spill
/// retired data to durable segments. The span is self-describing: `values`
/// is the dense slot array starting at grid slot `base_slot` of `shape`,
/// and `ranges` are the half-open presence intervals (absent slots hold
/// garbage the ranges mask off), exactly the `SignalData` conventions.
#[derive(Debug, Clone, PartialEq)]
pub struct RetiredSpan {
    /// Source index within the session.
    pub source: usize,
    /// The source's grid shape (offset, period).
    pub shape: StreamShape,
    /// Grid-slot index of `values[0]` on the stream grid.
    pub base_slot: u64,
    /// The dense retired prefix (covers `[base_slot, base_slot + len)`).
    pub values: Vec<f32>,
    /// Presence ranges within the span, `[start, end)` tick pairs.
    pub ranges: Vec<(Tick, Tick)>,
}

/// Callback receiving compacted spans before they are dropped.
pub type RetireSink = Box<dyn FnMut(RetiredSpan) + Send>;

/// The most grid slots a push may open above a buffer's retained base.
///
/// The buffer is dense, so a push materialises every slot between the
/// base and its tick: without a bound, one far-future tick off a socket
/// allocates `gap / period` floats and, at the extreme, overflows the
/// `Vec`'s capacity on a shard thread. 2^26 slots is a day and a half of
/// a 500 Hz waveform (256 MiB of `f32`) — the longest disconnection, or
/// the longest unpolled stretch, a source rides through. Every test,
/// example and bench in the tree stays below 2^21 slots between two
/// polls, so none of them can meet it.
///
/// It bounds what a *sample* may open, not what a buffer may hold: an
/// [`overlay`](LiveSource::overlay) copies spans the caller already has
/// in memory, so a stitched history is as long as what the store kept.
pub const MAX_RETAINED_SLOTS: usize = 1 << 26;

/// Why a source buffer refused a sample.
enum Reject {
    OffGrid,
    BelowHorizon,
    Duplicate,
    TooFar,
}

/// Compacting per-source ingest buffer: a periodic stream's `(offset,
/// period)`, a dense value column and its presence ranges.
///
/// Samples land in a dense array whose first slot is `base_slot` on the
/// stream grid; once a round has been processed, the session *retires*
/// everything below the round start minus the source's lineage history
/// margin, so the buffer holds only the live suffix. The buffer owns the
/// array outright between snapshots, so an append touches no reference
/// count. A snapshot moves it into an `Arc` — no sample is copied — and
/// the first write after one takes it back: for free once the executor
/// has released its clone at the end of the span, by copying the retained
/// suffix if a snapshot somehow outlives it.
///
/// This is the one such buffer in the tree: [`LiveSession`] runs rounds
/// over it, the cluster router mirrors a remote session in it, and the
/// history store stitches segments into it. Every way in — [`push`],
/// [`append_run`], [`overlay`] — keeps presence inside the materialised
/// slots and at or above the retained base; a pushed sample opens at
/// most [`MAX_RETAINED_SLOTS`] above that base.
///
/// [`push`]: Self::push
/// [`append_run`]: Self::append_run
/// [`overlay`]: Self::overlay
#[derive(Debug, Clone)]
pub struct LiveSource {
    shape: StreamShape,
    /// Grid-slot index of `values[0]`; everything below is retired.
    base_slot: usize,
    /// The value column — empty while `lent` holds it.
    values: Vec<f32>,
    /// The value column while a snapshot shares it.
    lent: Option<Arc<Vec<f32>>>,
    /// Presence intervals, sorted and coalesced — a [`PresenceMap`]'s
    /// list, held bare so that an append touches no reference count
    /// either.
    ranges: Vec<(Tick, Tick)>,
    /// Largest appended sync time + period (this source's watermark).
    watermark: Tick,
}

impl LiveSource {
    /// An empty buffer at the stream offset.
    pub fn new(shape: StreamShape) -> Self {
        Self {
            shape,
            base_slot: 0,
            values: Vec::new(),
            lent: None,
            ranges: Vec::new(),
            watermark: shape.offset(),
        }
    }

    /// An empty buffer whose retained base is grid slot `base_slot`:
    /// what lies below counts as retired, so an [`overlay`](Self::overlay)
    /// materialises nothing under it.
    ///
    /// # Errors
    /// Returns an error when the slot's time does not fit a [`Tick`].
    pub fn starting_at(shape: StreamShape, base_slot: u64) -> Result<Self> {
        let mut src = Self::new(shape);
        if src.time_of(base_slot).is_none() {
            return Err(Error::InvalidParameter {
                message: format!("base slot {base_slot} is off the {shape} grid"),
            });
        }
        src.base_slot = base_slot as usize;
        Ok(src)
    }

    /// Rebuilds a buffer from an exported suffix, trusting none of it:
    /// the base must be a representable grid slot and the watermark and
    /// every presence range must pass [`overlay_suffix`](Self::overlay_suffix).
    ///
    /// # Errors
    /// Returns an error naming the malformed field.
    pub fn from_suffix(shape: StreamShape, suffix: &SourceSuffix) -> Result<Self> {
        let mut src = Self::starting_at(shape, suffix.base_slot)?;
        src.overlay_suffix(suffix)?;
        Ok(src)
    }

    /// The source's grid shape.
    pub fn shape(&self) -> StreamShape {
        self.shape
    }

    /// Sync time of the first retained slot (the retained horizon).
    pub fn base_time(&self) -> Tick {
        self.shape.offset() + self.base_slot as Tick * self.shape.period()
    }

    /// Currently buffered grid slots (the retained suffix length).
    pub fn retained_slots(&self) -> usize {
        self.values().len()
    }

    fn values(&self) -> &[f32] {
        self.lent.as_deref().map_or(&self.values, |lent| lent)
    }

    /// The value column, taken back from the last snapshot if need be.
    fn values_mut(&mut self) -> &mut Vec<f32> {
        if let Some(lent) = self.lent.take() {
            self.values = Arc::try_unwrap(lent).unwrap_or_else(|held| (*held).clone());
        }
        &mut self.values
    }

    /// One past the last materialised slot.
    fn end_time(&self) -> Tick {
        self.base_time() + self.values().len() as Tick * self.shape.period()
    }

    /// Slot index of `t` counted from the stream offset; `None` when `t`
    /// is off the grid or below the offset.
    fn grid_slot(&self, t: Tick) -> Option<u64> {
        let d = t.checked_sub(self.shape.offset())?;
        (d >= 0 && d % self.shape.period() == 0).then(|| (d / self.shape.period()) as u64)
    }

    /// Sync time of grid slot `slot`, when it fits a [`Tick`].
    fn time_of(&self, slot: u64) -> Option<Tick> {
        Tick::try_from(slot)
            .ok()?
            .checked_mul(self.shape.period())?
            .checked_add(self.shape.offset())
    }

    /// The acceptance rule: a sample is taken when it is on the grid, at
    /// or above the retained horizon, not already present, and within
    /// [`MAX_RETAINED_SLOTS`] of the base.
    fn admit(&mut self, t: Tick, v: f32) -> std::result::Result<(), Reject> {
        let end = t.checked_add(self.shape.period()).ok_or(Reject::TooFar)?;
        // The slot right after the buffer's last, at the watermark — every
        // sample of a gapless in-order feed — is on the grid, above the
        // horizon and absent because the buffer's end is: nothing to
        // divide, nowhere to search.
        if t == self.watermark && t == self.end_time() {
            if self.values().len() >= MAX_RETAINED_SLOTS {
                return Err(Reject::TooFar);
            }
            self.values_mut().push(v);
        } else {
            let slot = self.grid_slot(t).ok_or(Reject::OffGrid)?;
            let slot = slot
                .checked_sub(self.base_slot as u64)
                .ok_or(Reject::BelowHorizon)?;
            if t < self.watermark && ranges_contain(&self.ranges, t) {
                return Err(Reject::Duplicate);
            }
            if slot >= MAX_RETAINED_SLOTS as u64 {
                return Err(Reject::TooFar);
            }
            self.write(slot as usize, &[v]);
        }
        add_range(&mut self.ranges, t, end);
        self.watermark = self.watermark.max(end);
        Ok(())
    }

    fn reject(&self, t: Tick, why: Reject) -> Error {
        let message = match why {
            Reject::OffGrid => format!("sample time {t} off the {} grid", self.shape),
            Reject::BelowHorizon => format!(
                "sample time {t} is below the retained horizon {} (already \
                 processed and retired)",
                self.base_time()
            ),
            Reject::Duplicate => format!("sample time {t} arrived out of order"),
            Reject::TooFar => format!(
                "sample time {t} is too far ahead: it would open more than \
                 {MAX_RETAINED_SLOTS} slots above the retained horizon {}",
                self.base_time()
            ),
        };
        Error::InvalidParameter { message }
    }

    /// Appends or fills one sample at grid time `t`.
    ///
    /// # Errors
    /// Returns an error for an off-grid tick, one below the retained
    /// horizon, a duplicate, or one more than [`MAX_RETAINED_SLOTS`]
    /// above the horizon; the buffer is unchanged.
    pub fn push(&mut self, t: Tick, v: f32) -> Result<()> {
        self.admit(t, v).map_err(|why| self.reject(t, why))
    }

    /// Appends the run `t0, t0 + dt, …` as one slice when that leaves the
    /// exact state the same samples through [`push`](Self::push) would:
    /// `dt` is the period and the run starts on the grid, at or above the
    /// watermark (so no slot it covers can be present) and the retained
    /// horizon, and ends within [`MAX_RETAINED_SLOTS`]. Returns `false`,
    /// having changed nothing, otherwise.
    pub fn append_run(&mut self, t0: Tick, dt: Tick, values: &[f32]) -> bool {
        let period = self.shape.period();
        let end = (values.len() as Tick)
            .checked_mul(dt)
            .and_then(|span| t0.checked_add(span));
        let Some(end) = end else { return false };
        if dt != period || values.is_empty() || t0 < self.watermark {
            return false;
        }
        let above = self
            .grid_slot(t0)
            .and_then(|s| s.checked_sub(self.base_slot as u64));
        let Some(slot) = above.map(|s| s as usize) else {
            return false;
        };
        if slot < self.values().len() || slot.saturating_add(values.len()) > MAX_RETAINED_SLOTS {
            return false;
        }
        self.write(slot, values);
        add_range(&mut self.ranges, t0, end);
        self.watermark = end;
        true
    }

    /// Copies `samples` over the slots from `slot` on, materialising (as
    /// zeros) any gap between the buffer's end and `slot`.
    fn write(&mut self, slot: usize, samples: &[f32]) {
        let buf = self.values_mut();
        if slot >= buf.len() {
            buf.resize(slot, 0.0);
            buf.extend_from_slice(samples);
        } else {
            let end = slot + samples.len();
            if end > buf.len() {
                buf.resize(end, 0.0);
            }
            buf[slot..end].copy_from_slice(samples);
        }
    }

    /// Copies one span — dense `values` starting at grid slot `base_slot`,
    /// `ranges` masking its absent slots — over this buffer, one slice
    /// copy per presence range; slots already present are overwritten
    /// (later spans win) and whatever lies below the retained base is
    /// dropped as retired. The span is trusted for nothing: it may come
    /// off a socket or a disk. The buffer grows to the span's last
    /// present slot — within the values the caller holds, plus the gap up
    /// to them, so it is the caller that keeps the base
    /// ([`starting_at`](Self::starting_at)) near its data.
    ///
    /// # Errors
    /// Returns an error, with the ranges before it already copied, for a
    /// range that is empty, off the grid or outside `values`.
    pub fn overlay(
        &mut self,
        base_slot: u64,
        values: &[f32],
        ranges: &[(Tick, Tick)],
    ) -> Result<()> {
        let err = |message: String| Err(Error::InvalidParameter { message });
        for &(start, end) in ranges {
            let (Some(first), Some(last)) = (self.grid_slot(start), self.grid_slot(end)) else {
                return err(format!(
                    "presence range [{start}, {end}) off the {} grid",
                    self.shape
                ));
            };
            if last <= first {
                return err(format!("presence range [{start}, {end}) is empty"));
            }
            let Some(from) = first.checked_sub(base_slot) else {
                return err(format!(
                    "presence range [{start}, {end}) below the span base"
                ));
            };
            if last - base_slot > values.len() as u64 {
                return err(format!(
                    "presence range [{start}, {end}) beyond the span's {} values",
                    values.len()
                ));
            }
            let (from, n) = (from as usize, (last - first) as usize);
            let retired = (self.base_slot as u64).saturating_sub(first).min(n as u64) as usize;
            if retired == n {
                continue;
            }
            let slot = (first as usize + retired) - self.base_slot;
            self.write(slot, &values[from + retired..from + n]);
            let base_time = self.base_time();
            add_range(&mut self.ranges, start.max(base_time), end);
            self.watermark = self.watermark.max(end);
        }
        Ok(())
    }

    /// Overlays an exported suffix and raises the watermark to its.
    ///
    /// # Errors
    /// As [`overlay`](Self::overlay); and, with nothing copied, for a
    /// watermark off the grid or above the suffix's materialised end —
    /// no buffer exports one, and a frontier follows the watermark.
    pub fn overlay_suffix(&mut self, suffix: &SourceSuffix) -> Result<()> {
        let end = (suffix.base_slot)
            .checked_add(suffix.values.len() as u64)
            .and_then(|slot| self.time_of(slot));
        let sound = self.grid_slot(suffix.watermark).is_some()
            && end.is_some_and(|end| suffix.watermark <= end);
        if !sound {
            return Err(Error::InvalidParameter {
                message: format!(
                    "watermark {} is off the {} grid or above the suffix's {} values",
                    suffix.watermark,
                    self.shape,
                    suffix.values.len()
                ),
            });
        }
        self.overlay(suffix.base_slot, &suffix.values, &suffix.ranges)?;
        self.watermark = self.watermark.max(suffix.watermark);
        Ok(())
    }

    /// Snapshot of the retained suffix that copies no sample: the value
    /// column moves into an `Arc` (or, already there, is bumped); only
    /// the presence intervals are copied.
    pub fn snapshot(&mut self) -> SignalData {
        let lent = (self.lent).get_or_insert_with(|| Arc::new(std::mem::take(&mut self.values)));
        SignalData::from_shared(
            self.shape,
            self.base_slot,
            Arc::clone(lent),
            PresenceMap::from_coalesced(self.ranges.clone()),
        )
    }

    /// The retained suffix as a portable copy: base, watermark, dense
    /// values and presence ranges, exactly as held.
    pub fn suffix(&self) -> SourceSuffix {
        SourceSuffix {
            base_slot: self.base_slot as u64,
            watermark: self.watermark,
            values: self.values().to_vec(),
            ranges: self.ranges.clone(),
        }
    }

    /// Retires everything strictly below `cutoff` (grid-aligned down,
    /// clamped to the stream offset): drops the dead sample prefix and the
    /// presence ranges covering it. After this, `push` rejects times below
    /// the new horizon.
    ///
    /// With `capture` set, the dropped prefix is returned as a
    /// [`RetiredSpan`] (with `source` left 0 for the caller to fill in)
    /// instead of vanishing; a span with no present samples returns `None`
    /// either way. Presence coverage never exceeds the materialized slots,
    /// so the drained values always cover the clipped ranges.
    pub fn retire_below(&mut self, cutoff: Tick, capture: bool) -> Option<RetiredSpan> {
        let cutoff = self.shape.align_down(cutoff.max(self.shape.offset()));
        let new_base = ((cutoff - self.shape.offset()) / self.shape.period()) as usize;
        if new_base <= self.base_slot {
            return None;
        }
        // Take the column back first: the drain borrows it beside the
        // other fields.
        let retired = (new_base - self.base_slot).min(self.values_mut().len());
        let dead = self.values.drain(..retired);
        // Clip presence to the retired interval *before* `retire` clamps
        // it away.
        let span = capture
            .then(|| RetiredSpan {
                source: 0,
                shape: self.shape,
                base_slot: self.base_slot as u64,
                values: dead.collect(),
                ranges: (self.ranges.iter())
                    .filter_map(|&(s, e)| (e.min(cutoff) > s).then_some((s, e.min(cutoff))))
                    .collect(),
            })
            .filter(|span| !span.ranges.is_empty());
        self.base_slot = new_base;
        retire_ranges(&mut self.ranges, cutoff);
        span
    }
}

/// Portable snapshot of one source's retained suffix — everything a peer
/// needs to resume this source's live stream at the session's round
/// frontier. Produced by [`LiveSession::export_suffix`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSuffix {
    /// Grid-slot index of `values[0]` on the stream grid.
    pub base_slot: u64,
    /// The source's watermark (largest appended sync time + period).
    pub watermark: Tick,
    /// The retained sample suffix (dense, absent slots hold garbage the
    /// presence ranges mask off).
    pub values: Vec<f32>,
    /// Presence ranges covering the suffix, `[start, end)` tick pairs.
    pub ranges: Vec<(Tick, Tick)>,
}

/// Portable snapshot of a [`LiveSession`] at its current round frontier:
/// the per-source retained suffixes plus the frontier itself.
///
/// This is the unit of *partition handoff*: because a polled session
/// retires everything below `next_round - margin`
/// ([`Executor::history_margins`]), the suffixes are O(round + margin +
/// poll lag) — only that bounded tail ever needs to cross a machine
/// boundary, never the stream's full history.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Next round start the exporting session would have processed.
    pub next_round: Tick,
    /// One suffix per source, in source-index order.
    pub sources: Vec<SourceSuffix>,
}

/// The buffer half of a live session: one [`LiveSource`] per source, each
/// source's history margin, the round length and the round frontier.
///
/// It owns the rules a session's state obeys whoever holds it — which
/// samples are accepted, where the frontier may move (the smallest
/// watermark, floored to the round), what is retired behind it (everything
/// below `frontier − margin`, grid-aligned down) and what crosses a
/// machine boundary ([`export_suffix`](Self::export_suffix)). A
/// [`LiveSession`] is this plus an executor; the cluster router keeps one
/// per patient, with no executor, as its failover mirror of the owning
/// server's session — the same feed and the same polls leave the same
/// state in both, by construction.
#[derive(Debug, Clone)]
pub struct SessionBuffer {
    sources: Vec<LiveSource>,
    /// Per-source retirement margins (ticks below `next_round` a future
    /// round may still consult), fixed by the compiled lineage.
    margins: Vec<Tick>,
    round: Tick,
    /// Next round start to process.
    next_round: Tick,
}

impl SessionBuffer {
    /// Empty buffers for `shapes`, retiring `margins[i]` below the
    /// frontier of `round`-tick rounds.
    ///
    /// # Errors
    /// Returns an error for a non-positive round, a negative margin, or
    /// a margin count that differs from the shape count.
    pub fn new(shapes: &[StreamShape], margins: Vec<Tick>, round: Tick) -> Result<Self> {
        if round <= 0 {
            return Err(Error::InvalidParameter {
                message: "live round length must be positive".into(),
            });
        }
        if margins.len() != shapes.len() || margins.iter().any(|&m| m < 0) {
            return Err(Error::InvalidParameter {
                message: format!(
                    "history margins {margins:?} do not fit {} sources",
                    shapes.len()
                ),
            });
        }
        Ok(Self {
            sources: shapes.iter().map(|&s| LiveSource::new(s)).collect(),
            margins,
            round,
            next_round: 0,
        })
    }

    /// Rebuilds the buffers a peer exported, trusting none of the
    /// snapshot (it may come off a socket).
    ///
    /// # Errors
    /// Returns an error when the snapshot's source count does not match,
    /// when its frontier is not round-aligned, or when a suffix is
    /// malformed ([`LiveSource::from_suffix`]).
    pub fn from_snapshot(
        shapes: &[StreamShape],
        margins: Vec<Tick>,
        round: Tick,
        snapshot: &SessionSnapshot,
    ) -> Result<Self> {
        let mut buf = Self::new(shapes, margins, round)?;
        if snapshot.sources.len() != shapes.len() {
            return Err(Error::InvalidParameter {
                message: format!(
                    "snapshot has {} sources, query has {}",
                    snapshot.sources.len(),
                    shapes.len()
                ),
            });
        }
        if snapshot.next_round < 0 || snapshot.next_round % round != 0 {
            return Err(Error::InvalidParameter {
                message: format!(
                    "snapshot frontier {} is not aligned to the {round}-tick round grid",
                    snapshot.next_round
                ),
            });
        }
        for (src, suffix) in buf.sources.iter_mut().zip(&snapshot.sources) {
            *src = LiveSource::from_suffix(src.shape, suffix)?;
        }
        buf.next_round = snapshot.next_round;
        Ok(buf)
    }

    /// Next round start to process: rounds below it are done.
    pub fn next_round(&self) -> Tick {
        self.next_round
    }

    /// The per-source buffers, in source order.
    pub fn sources(&self) -> &[LiveSource] {
        &self.sources
    }

    /// The per-source buffers, for overlaying spans from elsewhere (a
    /// history store) onto them.
    pub fn sources_mut(&mut self) -> &mut [LiveSource] {
        &mut self.sources
    }

    /// Appends one sample to source `source` at grid time `t`.
    ///
    /// # Errors
    /// Returns an error for an unknown source, an off-grid timestamp, a
    /// sample below the compaction horizon (the error names the horizon,
    /// the round frontier, and the source's history margin), an
    /// out-of-order duplicate, or a tick more than
    /// [`MAX_RETAINED_SLOTS`] above the horizon.
    #[inline]
    pub fn push(&mut self, source: usize, t: Tick, v: f32) -> Result<()> {
        let src = self
            .sources
            .get_mut(source)
            .ok_or(Error::UnknownSource { index: source })?;
        src.admit(t, v).map_err(|why| match why {
            // Only the session knows *why* the horizon sits where it
            // does — say so.
            Reject::BelowHorizon => Error::InvalidParameter {
                message: format!(
                    "sample time {t} is below the compaction horizon {}: rounds \
                     below the frontier {} are already processed, and source \
                     {source} retains a history margin of {} ticks below it",
                    src.base_time(),
                    self.next_round,
                    self.margins[source],
                ),
            },
            why => src.reject(t, why),
        })
    }

    /// Appends a periodic run to source `source`: `values[k]` at tick
    /// `t0 + k·dt` (wrapping), exactly as that many [`push`](Self::push)
    /// calls in order would, with every error `push` would have returned
    /// handed to `on_err` in the same order.
    ///
    /// This is the form a periodic stream arrives in — a base tick, a
    /// period and a column of values. When `dt` is the source's period and
    /// the run is a strict on-grid append (it starts at or above the
    /// source's watermark and compaction horizon) it costs one slice copy,
    /// one presence range and one watermark store. Any other run — wrong
    /// `dt`, off-grid or late start, unknown source — goes through `push`
    /// sample by sample, which stays the reference the fast path is tested
    /// against.
    pub fn push_run(
        &mut self,
        source: usize,
        t0: Tick,
        dt: Tick,
        values: &[f32],
        mut on_err: impl FnMut(Error),
    ) {
        if self
            .sources
            .get_mut(source)
            .is_some_and(|src| src.append_run(t0, dt, values))
        {
            return;
        }
        let mut t = t0;
        for &v in values {
            if let Err(e) = self.push(source, t, v) {
                on_err(e);
            }
            t = t.wrapping_add(dt);
        }
    }

    /// The frontier rule: every round fully below all sources'
    /// watermarks is complete, so the frontier may move to the smallest
    /// watermark floored to the round grid.
    pub fn frontier(&self) -> Tick {
        let safe = self.sources.iter().map(|s| s.watermark).min().unwrap_or(0);
        safe.div_euclid(self.round) * self.round
    }

    /// Moves the frontier up to `to` (never back) and applies the retire
    /// rule: rounds below `to` are done, so each source keeps only its
    /// history margin below it. Every dropped prefix that held samples is
    /// handed to `sink`, when there is one.
    pub fn advance_to(&mut self, to: Tick, mut sink: Option<&mut RetireSink>) {
        if to <= self.next_round {
            return;
        }
        self.next_round = to;
        for (i, (src, &margin)) in self.sources.iter_mut().zip(&self.margins).enumerate() {
            let span = src.retire_below(to.saturating_sub(margin), sink.is_some());
            if let (Some(mut span), Some(sink)) = (span, sink.as_mut()) {
                span.source = i;
                sink(span);
            }
        }
    }

    /// The buffers as a portable snapshot: per-source retained suffixes
    /// plus the round frontier, exactly as held — a peer that rebuilds it
    /// ([`from_snapshot`](Self::from_snapshot)) accepts and refuses the
    /// same pushes from then on.
    pub fn export_suffix(&self) -> SessionSnapshot {
        SessionSnapshot {
            next_round: self.next_round,
            sources: self.sources.iter().map(LiveSource::suffix).collect(),
        }
    }
}

/// An online execution session over a compiled query.
///
/// Samples are appended with [`push`](Self::push); [`poll`](Self::poll)
/// processes every round whose interval is complete (i.e. below all
/// sources' watermarks) and invokes the output callback, exactly as the
/// retrospective executor would have. [`finish`](Self::finish) flushes the
/// tail. One executor persists across polls, so stateful kernels (sliding
/// aggregates, shifts, join carries) behave exactly as offline.
///
/// The session's cost is bounded by the round size, not the stream
/// length: once a round is processed, each source buffer retires
/// everything below the round start minus that source's lineage history
/// margin ([`Executor::history_margins`]), and snapshots handed to the
/// executor share the retained suffix by `Arc` instead of copying it. A
/// session that is pushed to and polled forever therefore holds
/// O(round + margin + poll lag) memory and pays O(delta) per poll,
/// regardless of how many samples have flowed through it.
pub struct LiveSession {
    exec: Executor,
    buf: SessionBuffer,
    /// Optional recipient of compacted spans (tiered history store).
    retire_sink: Option<RetireSink>,
    stats: RunStats,
}

impl LiveSession {
    /// Creates a session with the given processing-window length in ticks.
    ///
    /// # Errors
    /// Returns an error when the round length is incompatible with the
    /// traced dimension.
    pub fn new(compiled: CompiledQuery, round_ticks: Tick) -> Result<Self> {
        if round_ticks <= 0 {
            return Err(Error::InvalidParameter {
                message: "live round length must be positive".into(),
            });
        }
        let shapes = compiled.source_shapes();
        let empty: Vec<SignalData> = shapes
            .iter()
            .map(|&s| SignalData::dense(s, Vec::new()))
            .collect();
        let exec =
            compiled.executor_with(empty, ExecOptions::default().with_round_ticks(round_ticks))?;
        let buf = SessionBuffer::new(&shapes, exec.history_margins(), exec.round_dim())?;
        Ok(Self {
            exec,
            buf,
            retire_sink: None,
            stats: RunStats::new(),
        })
    }

    /// Attaches a retire sink: from now on every compacted span is handed
    /// to `sink` (as a [`RetiredSpan`]) instead of being dropped. This is
    /// the interception point a tiered history store uses to make the
    /// session's past durable while the live suffix stays bounded.
    pub fn set_retire_sink(&mut self, sink: RetireSink) {
        self.retire_sink = Some(sink);
    }

    /// Detaches the retire sink, if any; subsequent compactions discard
    /// retired spans again.
    pub fn clear_retire_sink(&mut self) -> Option<RetireSink> {
        self.retire_sink.take()
    }

    /// The processing-window length in effect.
    pub fn round_dim(&self) -> Tick {
        self.buf.round
    }

    /// The grid shape (offset, period) of every source, in source order —
    /// what a remote peer needs to size and align a replay buffer.
    pub fn source_shapes(&self) -> Vec<StreamShape> {
        self.buf.sources.iter().map(|s| s.shape).collect()
    }

    /// Payload arity of the single sink (what an output collector needs).
    ///
    /// # Errors
    /// Returns an error when the query has more than one sink.
    pub fn sink_arity(&self) -> Result<usize> {
        self.exec.sink_arity()
    }

    /// Cumulative statistics across all polls.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Ticks below the next unprocessed round that source `source` must
    /// keep buffered (its lineage history margin).
    ///
    /// # Errors
    /// Returns an error for an unknown source index.
    pub fn history_margin(&self, source: usize) -> Result<Tick> {
        self.buf
            .margins
            .get(source)
            .copied()
            .ok_or(Error::UnknownSource { index: source })
    }

    /// Grid slots currently buffered for source `source` — after a poll,
    /// bounded by the history margin plus the data not yet processed,
    /// never by the total stream length.
    ///
    /// # Errors
    /// Returns an error for an unknown source index.
    pub fn retained_slots(&self, source: usize) -> Result<usize> {
        self.buf
            .sources
            .get(source)
            .map(LiveSource::retained_slots)
            .ok_or(Error::UnknownSource { index: source })
    }

    /// Appends one sample to source `source` at grid time `t`
    /// ([`SessionBuffer::push`]).
    ///
    /// # Errors
    /// Returns an error for an unknown source, an off-grid timestamp, a
    /// sample below the compaction horizon (the error names the horizon,
    /// the round frontier, and the source's history margin), an
    /// out-of-order duplicate, or a tick too far ahead of the horizon.
    pub fn push(&mut self, source: usize, t: Tick, v: f32) -> Result<()> {
        self.buf.push(source, t, v)
    }

    /// Appends a periodic run to source `source`: `values[k]` at tick
    /// `t0 + k·dt`, exactly as that many [`push`](Self::push) calls in
    /// order would, with every error `push` would have returned handed to
    /// `on_err` in the same order ([`SessionBuffer::push_run`]).
    pub fn push_run(
        &mut self,
        source: usize,
        t0: Tick,
        dt: Tick,
        values: &[f32],
        on_err: impl FnMut(Error),
    ) {
        self.buf.push_run(source, t0, dt, values, on_err);
    }

    /// Processes every round fully below all sources' watermarks, calling
    /// `on_output` with each sink window.
    ///
    /// # Errors
    /// Propagates execution errors.
    pub fn poll<F: FnMut(&FWindow)>(&mut self, on_output: F) -> Result<RunStats> {
        self.run_span(self.buf.frontier(), on_output)
    }

    /// Flushes all remaining data (end of stream), including the same
    /// one-round drain margin the retrospective executor applies (trailing
    /// windows, shift spill).
    ///
    /// # Errors
    /// Propagates execution errors.
    pub fn finish<F: FnMut(&FWindow)>(&mut self, mut on_output: F) -> Result<RunStats> {
        let round = self.buf.round;
        let end = self.buf.sources.iter().map(|s| s.watermark).max();
        let aligned = (end.unwrap_or(0) + round - 1).div_euclid(round) * round + round;
        let mut stats = self.run_span(aligned, &mut on_output)?;
        let mut extra = 0;
        while self.exec.has_pending() && extra < 64 {
            let s = self.run_span(self.buf.next_round + round, &mut on_output)?;
            stats.merge(&s);
            extra += 1;
        }
        Ok(stats)
    }

    /// Convenience: finish and collect all remaining output (single sink).
    ///
    /// # Errors
    /// Returns an error when the query has more than one sink.
    pub fn finish_collect(&mut self) -> Result<OutputCollector> {
        let arity = self.exec.sink_arity()?;
        let mut collector = OutputCollector::new(arity);
        self.finish(|w| collector.absorb(w))?;
        Ok(collector)
    }

    /// Exports the session's state as a portable snapshot: per-source
    /// retained suffixes plus the round frontier. The session itself is
    /// left untouched and can keep running (the caller decides when to
    /// stop feeding it).
    ///
    /// Combined with [`import_suffix`](Self::import_suffix) on a peer
    /// compiled from the *same query*, this is a lossless mid-stream
    /// handoff: samples already pushed but not yet processed are part of
    /// the retained suffix, so nothing in flight is dropped.
    pub fn export_suffix(&self) -> SessionSnapshot {
        self.buf.export_suffix()
    }

    /// Resumes a session exported by [`export_suffix`](Self::export_suffix)
    /// on a fresh executor compiled from the same query.
    ///
    /// Kernel-internal state (sliding-aggregate rings, FIR taps, shift
    /// spill) is not shipped in the snapshot; it is rebuilt by replaying
    /// the retained suffix *with output suppressed* up to the exported
    /// frontier. Every built-in operator's cross-round memory is bounded
    /// by its lineage lookback — the same bound that sized the retained
    /// suffix ([`Executor::history_margins`]) — so the rebuilt state is
    /// identical and rounds at or beyond `next_round` emit byte-identical
    /// output. (A user `transform` closure whose state reaches further
    /// back than the composed lineage margin is outside that guarantee,
    /// exactly as it is outside the compaction guarantee.)
    ///
    /// # Errors
    /// Returns an error when the snapshot's source count does not match
    /// the query, when its frontier is not round-aligned, when a suffix
    /// is malformed (presence off the grid, below its base or past its
    /// values), or when the warm-up replay fails.
    pub fn import_suffix(
        compiled: CompiledQuery,
        round_ticks: Tick,
        snapshot: SessionSnapshot,
    ) -> Result<Self> {
        let mut session = Self::new(compiled, round_ticks)?;
        let (shapes, margins) = (session.source_shapes(), session.buf.margins.clone());
        session.buf = SessionBuffer::from_snapshot(&shapes, margins, session.buf.round, &snapshot)?;
        // Warm-up replay: run the retained rounds below the frontier with
        // output discarded, rebuilding kernel state from the suffix.
        let (round, frontier) = (session.buf.round, session.buf.next_round);
        let replay_from = session
            .buf
            .sources
            .iter()
            .map(|s| s.base_time().div_euclid(round) * round)
            .min()
            .unwrap_or(frontier)
            .min(frontier);
        if replay_from < frontier {
            let datasets = session.buf.sources.iter_mut().map(LiveSource::snapshot);
            session.exec.replace_sources(datasets.collect())?;
            session.exec.run_span(replay_from, frontier, &mut |_| {})?;
            session.exec.release_sources();
        }
        Ok(session)
    }

    fn run_span<F: FnMut(&FWindow)>(&mut self, to: Tick, mut on_output: F) -> Result<RunStats> {
        if to <= self.buf.next_round {
            return Ok(RunStats::new());
        }
        // Zero-copy: snapshots share each source's retained suffix.
        let datasets = self.buf.sources.iter_mut().map(LiveSource::snapshot);
        self.exec.replace_sources(datasets.collect())?;
        let stats = self
            .exec
            .run_span(self.buf.next_round, to, &mut on_output)?;
        // Drop the executor's snapshot before compacting: with the
        // session's buffer unique again, retirement (and later appends)
        // mutate in place instead of copy-on-writing against it.
        self.exec.release_sources();
        // Compact behind the new frontier; with a retire sink attached
        // the dropped prefixes are spilled, not lost.
        self.buf.advance_to(to, self.retire_sink.as_mut());
        self.stats.merge(&stats);
        Ok(stats)
    }
}

impl std::fmt::Debug for LiveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSession")
            .field("sources", &self.buf.sources.len())
            .field("round_dim", &self.buf.round)
            .field("next_round", &self.buf.next_round)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggregate::AggKind;
    use crate::query::CompiledQuery;
    use crate::stream::{Query, Stream};

    /// One source of `shape` through `op` into a sink.
    fn compile(shape: StreamShape, op: impl FnOnce(Stream<'_>) -> Stream<'_>) -> CompiledQuery {
        let q = Query::new();
        op(q.source("s", shape)).sink();
        q.compile().unwrap()
    }

    fn plus_one() -> CompiledQuery {
        compile(StreamShape::new(0, 2), |s| s.map(|v| v + 1.0).unwrap())
    }

    fn shift_250() -> CompiledQuery {
        compile(StreamShape::new(0, 1), |s| s.shift(250).unwrap())
    }

    fn session(round: Tick) -> LiveSession {
        LiveSession::new(plus_one(), round).unwrap()
    }

    #[test]
    fn poll_emits_only_complete_rounds() {
        let mut s = session(100);
        for k in 0..30 {
            s.push(0, k * 2, k as f32).unwrap();
        }
        // Watermark = 60: no complete 100-tick round yet.
        let mut n = 0;
        s.poll(|w| n += w.present_count()).unwrap();
        assert_eq!(n, 0);
        for k in 30..60 {
            s.push(0, k * 2, k as f32).unwrap();
        }
        // Watermark = 120: round [0, 100) complete -> 50 events.
        s.poll(|w| n += w.present_count()).unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn finish_flushes_tail() {
        let mut s = session(100);
        for k in 0..60 {
            s.push(0, k * 2, k as f32).unwrap();
        }
        let out = s.finish_collect().unwrap();
        assert_eq!(out.len(), 60);
        assert_eq!(out.values(0)[59], 60.0);
    }

    #[test]
    fn live_matches_retrospective() {
        // The deployment-seamlessness property: identical output online
        // and offline, including a stateful sliding aggregate.
        let build = || {
            compile(StreamShape::new(0, 2), |s| {
                s.aggregate(AggKind::Mean, 20, 2).unwrap()
            })
        };
        let vals: Vec<f32> = (0..500).map(|i| ((i * 37) % 97) as f32).collect();

        // Retrospective.
        let data = SignalData::dense(StreamShape::new(0, 2), vals.clone());
        let mut exec = build()
            .executor_with(vec![data], ExecOptions::default().with_round_ticks(100))
            .unwrap();
        let offline = exec.run_collect().unwrap();

        // Live, pushed in dribbles.
        let mut s = LiveSession::new(build(), 100).unwrap();
        let mut online = OutputCollector::new(1);
        for (k, &v) in vals.iter().enumerate() {
            s.push(0, k as Tick * 2, v).unwrap();
            if k % 37 == 0 {
                s.poll(|w| online.absorb(w)).unwrap();
            }
        }
        s.finish(|w| online.absorb(w)).unwrap();

        assert_eq!(offline.len(), online.len());
        assert_eq!(offline.checksum(), online.checksum());
    }

    #[test]
    fn rejects_bad_pushes() {
        let mut s = session(100);
        assert!(s.push(0, 3, 1.0).is_err()); // off grid
        assert_eq!(
            s.push(1, 2, 1.0).unwrap_err(),
            Error::UnknownSource { index: 1 }
        );
        s.push(0, 10, 1.0).unwrap();
        assert!(s.push(0, 10, 2.0).is_err()); // duplicate
        s.push(0, 20, 2.0).unwrap(); // forward gap is fine
    }

    #[test]
    fn compaction_retires_processed_history() {
        let mut s = session(100); // stateless select: zero history margin
        assert_eq!(s.history_margin(0).unwrap(), 0);
        for k in 0..500 {
            s.push(0, k * 2, k as f32).unwrap();
        }
        let mut n = 0;
        s.poll(|w| n += w.present_count()).unwrap();
        assert_eq!(n, 500);
        // Rounds [0, 1000) are done; with no margin the whole buffer is
        // retired, not merely the processed prefix kept around.
        assert_eq!(s.retained_slots(0).unwrap(), 0);
        // A sample below the retired horizon is rejected explicitly.
        let err = s.push(0, 4, 1.0).unwrap_err().to_string();
        assert!(err.contains("compaction horizon"), "err: {err}");
        // The frontier keeps accepting and producing.
        for k in 500..600 {
            s.push(0, k * 2, k as f32).unwrap();
        }
        let out = s.finish_collect().unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out.values(0)[0], 501.0);
    }

    #[test]
    fn shift_margin_keeps_lookback_history() {
        let mut s = LiveSession::new(shift_250(), 100).unwrap();
        // Shift(250) lineage looks 250 ticks back from any round start.
        assert_eq!(s.history_margin(0).unwrap(), 250);
        for t in 0..1000 {
            s.push(0, t, t as f32).unwrap();
        }
        let mut out = OutputCollector::new(1);
        s.poll(|w| out.absorb(w)).unwrap();
        // Processed to 1000; the margin (and only the margin) is retained.
        assert_eq!(s.retained_slots(0).unwrap(), 250);
        s.finish(|w| out.absorb(w)).unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(out.times()[0], 250);
    }

    #[test]
    fn snapshots_share_the_retained_buffer() {
        // Two consecutive polls with no pushes in between must not copy
        // the sample buffer at all (replace_sources gets Arc clones).
        let mut s = session(100);
        for k in 0..5_000 {
            s.push(0, k * 2, k as f32).unwrap();
        }
        let before = s.stats();
        s.poll(|_| {}).unwrap();
        s.poll(|_| {}).unwrap(); // no new data: zero rounds re-run
        let after = s.stats();
        assert_eq!(before.windows_executed, 0);
        assert_eq!(
            after.windows_executed + after.windows_skipped,
            100,
            "10_000 ticks / 100-tick rounds, each executed or skipped once"
        );
    }

    #[test]
    fn export_import_resumes_byte_identically() {
        // Handoff fidelity: run one session straight through; run a twin
        // that is exported mid-stream and resumed on a fresh executor
        // (fresh kernels, warm-up replay). Outputs must be identical —
        // including a stateful sliding aggregate whose ring state crosses
        // the handoff point.
        let build = || {
            compile(StreamShape::new(0, 2), |s| {
                s.aggregate(AggKind::Mean, 100, 10).unwrap()
            })
        };
        let vals: Vec<f32> = (0..800).map(|i| ((i * 37) % 97) as f32).collect();

        let mut reference = LiveSession::new(build(), 100).unwrap();
        let mut ref_out = OutputCollector::new(1);
        for (k, &v) in vals.iter().enumerate() {
            reference.push(0, k as Tick * 2, v).unwrap();
            if k % 41 == 0 {
                reference.poll(|w| ref_out.absorb(w)).unwrap();
            }
        }
        reference.finish(|w| ref_out.absorb(w)).unwrap();

        let mut first = LiveSession::new(build(), 100).unwrap();
        let mut out = OutputCollector::new(1);
        let cut = 500;
        for (k, &v) in vals[..cut].iter().enumerate() {
            first.push(0, k as Tick * 2, v).unwrap();
            if k % 41 == 0 {
                first.poll(|w| out.absorb(w)).unwrap();
            }
        }
        // Export mid-stream: samples above the frontier are un-processed
        // and must survive the handoff inside the suffix.
        let snapshot = first.export_suffix();
        drop(first);
        let mut second = LiveSession::import_suffix(build(), 100, snapshot).unwrap();
        for (k, &v) in vals.iter().enumerate().skip(cut) {
            second.push(0, k as Tick * 2, v).unwrap();
            if k % 41 == 0 {
                second.poll(|w| out.absorb(w)).unwrap();
            }
        }
        second.finish(|w| out.absorb(w)).unwrap();

        assert_eq!(ref_out.len(), out.len());
        assert_eq!(ref_out.checksum(), out.checksum());
    }

    #[test]
    fn export_import_survives_shift_lookback_and_polled_frontier() {
        // A forward shift keeps a real spill queue and a 250-tick margin;
        // export right after a poll (frontier advanced, history retired to
        // the margin) and resume.
        let build = shift_250;
        let mut reference = LiveSession::new(build(), 100).unwrap();
        let mut ref_out = OutputCollector::new(1);
        let mut first = LiveSession::new(build(), 100).unwrap();
        let mut out = OutputCollector::new(1);
        for t in 0..700 {
            reference.push(0, t, t as f32).unwrap();
            first.push(0, t, t as f32).unwrap();
        }
        reference.poll(|w| ref_out.absorb(w)).unwrap();
        first.poll(|w| out.absorb(w)).unwrap();
        let snapshot = first.export_suffix();
        assert!(snapshot.next_round > 0, "poll advanced the frontier");
        drop(first);
        let mut second = LiveSession::import_suffix(build(), 100, snapshot).unwrap();
        for t in 700..1000 {
            reference.push(0, t, t as f32).unwrap();
            second.push(0, t, t as f32).unwrap();
        }
        reference.finish(|w| ref_out.absorb(w)).unwrap();
        second.finish(|w| out.absorb(w)).unwrap();
        assert_eq!(ref_out.len(), out.len());
        assert_eq!(ref_out.checksum(), out.checksum());
    }

    #[test]
    fn import_rejects_mismatched_snapshots() {
        let snap = session(100).export_suffix();
        // Wrong source count.
        let q = Query::new();
        let a = q.source("a", StreamShape::new(0, 2));
        let b = q.source("b", StreamShape::new(0, 2));
        a.join(b, crate::ops::join::JoinKind::Inner).unwrap().sink();
        let err = LiveSession::import_suffix(q.compile().unwrap(), 100, snap.clone())
            .unwrap_err()
            .to_string();
        assert!(err.contains("sources"), "err: {err}");
        // Misaligned frontier.
        let mut bad = snap;
        bad.next_round = 37;
        let err = LiveSession::import_suffix(plus_one(), 100, bad)
            .unwrap_err()
            .to_string();
        assert!(err.contains("aligned"), "err: {err}");
    }

    #[test]
    fn horizon_rejection_names_round_and_margin() {
        // Satellite regression: the below-horizon error must name the
        // horizon itself, the round frontier, and the source's history
        // margin so an operator can see *why* the push was refused.
        let mut s = LiveSession::new(shift_250(), 100).unwrap();
        for t in 0..1000 {
            s.push(0, t, t as f32).unwrap();
        }
        s.poll(|_| {}).unwrap();
        // Frontier 1000, margin 250 -> horizon 750.
        let err = s.push(0, 10, 1.0).unwrap_err().to_string();
        assert!(err.contains("compaction horizon 750"), "err: {err}");
        assert!(err.contains("frontier 1000"), "err: {err}");
        assert!(err.contains("history margin of 250 ticks"), "err: {err}");
    }

    #[test]
    fn retire_sink_receives_every_compacted_sample() {
        use std::sync::Mutex;
        // Attach a sink, stream with interleaved polls, and check the
        // spilled spans plus the retained suffix reconstruct the full
        // history exactly — nothing lost, nothing duplicated.
        let mut s = session(100);
        let spilled: Arc<Mutex<Vec<RetiredSpan>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_ref = Arc::clone(&spilled);
        s.set_retire_sink(Box::new(move |span| sink_ref.lock().unwrap().push(span)));

        let vals: Vec<f32> = (0..700).map(|i| (i * 13 % 101) as f32).collect();
        for (k, &v) in vals.iter().enumerate() {
            if k % 3 != 2 {
                s.push(0, k as Tick * 2, v).unwrap(); // gap-y feed
            }
            if k % 97 == 0 {
                s.poll(|_| {}).unwrap();
            }
        }
        s.poll(|_| {}).unwrap();

        let spans = spilled.lock().unwrap();
        assert!(!spans.is_empty(), "compaction produced spans");
        // Rebuild a dense view from the spans + the live suffix.
        let mut rebuilt = vec![None; vals.len()];
        let mut mark = |base_slot: u64, values: &[f32], ranges: &[(Tick, Tick)]| {
            for &(rs, re) in ranges {
                let mut t = rs;
                while t < re {
                    let slot = (t / 2) as usize;
                    let v = values[slot - base_slot as usize];
                    assert!(rebuilt[slot].is_none(), "slot {slot} spilled twice");
                    rebuilt[slot] = Some(v);
                    t += 2;
                }
            }
        };
        for span in spans.iter() {
            assert_eq!(span.source, 0);
            mark(span.base_slot, &span.values, &span.ranges);
        }
        let tail = s.export_suffix();
        mark(
            tail.sources[0].base_slot,
            &tail.sources[0].values,
            &tail.sources[0].ranges,
        );
        for (k, &v) in vals.iter().enumerate() {
            if k % 3 != 2 {
                assert_eq!(rebuilt[k], Some(v), "slot {k}");
            } else {
                assert_eq!(rebuilt[k], None, "slot {k} never pushed");
            }
        }
    }

    #[test]
    fn gaps_in_live_feed_are_skipped() {
        let mut s = LiveSession::new(compile(StreamShape::new(0, 1), |s| s), 50).unwrap();
        s.push(0, 0, 1.0).unwrap();
        s.push(0, 500, 2.0).unwrap(); // long disconnection
        let out = s.finish_collect().unwrap();
        assert_eq!(out.len(), 2);
        assert!(s.stats().windows_skipped > 0);
    }

    #[test]
    fn unknown_source_is_refused_by_index() {
        let mut s = session(100);
        let unknown = Error::UnknownSource { index: 7 };
        assert_eq!(s.push(0, 2, 1.0), Ok(()));
        assert_eq!(s.push(7, 2, 1.0).unwrap_err(), unknown);
        let mut errs = Vec::new();
        s.push_run(7, 0, 2, &[1.0, 2.0], |e| errs.push(e));
        assert_eq!(errs, [unknown.clone(), unknown.clone()]);
        assert_eq!(s.history_margin(7).unwrap_err(), unknown);
        assert_eq!(s.retained_slots(7).unwrap_err(), unknown);
        assert_eq!(unknown.to_string(), "query has no source 7");
    }
}
