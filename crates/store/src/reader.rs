//! Retrospective reads: stitching scanned spans back into executor-ready
//! data.
//!
//! [`HistoryReader`] is the query half of the tiered store. It reads no
//! file: it wraps the records a [`SharedStore::scan`](crate::SharedStore::scan)
//! returned — durable segments plus the unflushed write buffer — and,
//! optionally with the live session's exported suffix, densifies them into
//! one [`SignalData`] per source, from the lowest slot any of them holds:
//! the presence, and so the output, of a cold batch run over the original
//! feed. Any compiled pipeline
//! can then execute over the result: retrospective queries need no special
//! engine, just reconstructed inputs.

use lifestream_core::live::{LiveSource, SessionSnapshot};
use lifestream_core::time::StreamShape;
use lifestream_core::SignalData;

use crate::segment::SegmentRecord;

/// A view over a set of scanned segment records.
#[derive(Debug, Clone, Default)]
pub struct HistoryReader {
    records: Vec<SegmentRecord>,
}

impl HistoryReader {
    /// Wraps records already read (e.g. from
    /// [`SharedStore::records_for_range`](crate::SharedStore::records_for_range),
    /// which includes the unflushed write buffer).
    pub fn from_records(records: Vec<SegmentRecord>) -> Self {
        Self { records }
    }

    /// `patient`'s spans of source `source`, in record order.
    fn spans(&self, patient: u64, source: usize) -> impl Iterator<Item = &SegmentRecord> {
        self.records
            .iter()
            .filter(move |r| r.patient == patient && r.source as usize == source)
    }

    /// Overlays every span of `patient`'s source `source` onto `into`,
    /// in record order (later spans win), through core's validated
    /// [`LiveSource::overlay`]; what lies below `into`'s retained base is
    /// dropped. Returns how many spans there were.
    ///
    /// # Errors
    /// Fails, with `into` partly written, when a span's shape is not
    /// `into`'s or a span is malformed.
    pub fn overlay_source(
        &self,
        patient: u64,
        source: usize,
        into: &mut LiveSource,
    ) -> Result<usize, String> {
        let shape = into.shape();
        let mut spans = 0;
        for r in self.spans(patient, source) {
            if r.shape != shape {
                return Err(format!(
                    "patient {patient} source {source}: segment span on {} but the query expects {shape}",
                    r.shape
                ));
            }
            into.overlay(r.base_slot, &r.values, &r.ranges)
                .map_err(|e| e.to_string())?;
            spans += 1;
        }
        Ok(spans)
    }

    /// Reconstructs `patient`'s history as one [`SignalData`] per source:
    /// durable spans overlaid with the live suffix (when given), densified
    /// from the lowest slot a span starts at — nothing is materialised
    /// below the data, however far up the grid a long-lived or
    /// retention-trimmed stream sits — with the presence, sample for
    /// sample, of a cold batch run over the original feed. Overlapping
    /// spans must agree (re-spills across a failover carry identical
    /// samples); later spans win.
    ///
    /// # Errors
    /// Fails when a span's shape disagrees with `shapes`, when the live
    /// snapshot's source count differs, or when a span is malformed.
    pub fn stitch(
        &self,
        patient: u64,
        shapes: &[StreamShape],
        live: Option<&SessionSnapshot>,
    ) -> Result<Vec<SignalData>, String> {
        if let Some(snap) = live {
            if snap.sources.len() != shapes.len() {
                return Err(format!(
                    "live snapshot has {} sources, expected {}",
                    snap.sources.len(),
                    shapes.len()
                ));
            }
        }
        let mut out = Vec::with_capacity(shapes.len());
        for (i, &shape) in shapes.iter().enumerate() {
            let stored = self.spans(patient, i).map(|r| r.base_slot);
            let base = stored.chain(live.map(|snap| snap.sources[i].base_slot));
            let mut src = LiveSource::starting_at(shape, base.min().unwrap_or(0))
                .map_err(|e| e.to_string())?;
            self.overlay_source(patient, i, &mut src)?;
            if let Some(snap) = live {
                src.overlay_suffix(&snap.sources[i])
                    .map_err(|e| e.to_string())?;
            }
            out.push(src.snapshot());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifestream_core::time::Tick;

    fn rec(
        patient: u64,
        source: u32,
        base_slot: u64,
        values: Vec<f32>,
        ranges: Vec<(Tick, Tick)>,
    ) -> SegmentRecord {
        SegmentRecord {
            patient,
            source,
            shape: StreamShape::new(0, 2),
            base_slot,
            values,
            ranges,
        }
    }

    #[test]
    fn stitch_densifies_spans_with_gaps() {
        let reader = HistoryReader::from_records(vec![
            rec(1, 0, 0, vec![1.0, 2.0], vec![(0, 4)]),
            // A hole at slots 2..5, then a second span.
            rec(1, 0, 5, vec![6.0, 7.0], vec![(10, 14)]),
        ]);
        let data = reader
            .stitch(1, &[StreamShape::new(0, 2)], None)
            .unwrap()
            .remove(0);
        assert_eq!(data.len(), 7);
        assert_eq!(data.present_samples().count(), 4);
        assert!(data.presence().covers(0, 4));
        assert!(!data.presence().contains(4));
        assert!(data.presence().covers(10, 14));
    }

    #[test]
    fn stitch_rejects_shape_mismatch() {
        let reader = HistoryReader::from_records(vec![rec(1, 0, 0, vec![1.0], vec![(0, 2)])]);
        let err = reader
            .stitch(1, &[StreamShape::new(0, 4)], None)
            .unwrap_err();
        assert!(err.contains("expects"), "err: {err}");
    }
}
