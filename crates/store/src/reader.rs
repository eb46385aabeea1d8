//! Retrospective reads: stitching segments back into executor-ready data.
//!
//! [`HistoryReader`] is the query half of the tiered store. It loads every
//! span relevant to a patient — durable segments plus, optionally, the
//! live session's exported suffix — and densifies them into one
//! [`SignalData`] per source, from the lowest slot any of them holds: the
//! presence, and so the output, of a cold batch run over the original
//! feed. Any compiled pipeline
//! can then execute over the result: retrospective queries need no special
//! engine, just reconstructed inputs.

use std::io;
use std::path::Path;

use lifestream_core::live::{LiveSource, SessionSnapshot};
use lifestream_core::time::StreamShape;
use lifestream_core::SignalData;

use crate::segment::{read_segment, SegmentRecord};

/// A loaded view over a set of segment records.
#[derive(Debug, Clone, Default)]
pub struct HistoryReader {
    records: Vec<SegmentRecord>,
}

impl HistoryReader {
    /// Loads every segment in `dir` (non-recursive, `*.lss`).
    ///
    /// # Errors
    /// Propagates I/O failures; a corrupt segment rejects the whole load.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "lss"))
            .collect();
        paths.sort();
        let mut records = Vec::new();
        for p in paths {
            records.extend(read_segment(&p)?);
        }
        Ok(Self { records })
    }

    /// Wraps records already in memory (e.g. from
    /// [`SegmentStore::records_for`](crate::SegmentStore::records_for),
    /// which includes the unflushed write buffer).
    pub fn from_records(records: Vec<SegmentRecord>) -> Self {
        Self { records }
    }

    /// Number of loaded spans.
    pub fn span_count(&self) -> usize {
        self.records.len()
    }

    /// Patients with at least one span, ascending.
    pub fn patients(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.records.iter().map(|r| r.patient).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Source shapes recorded for `patient` (indexed by source), or `None`
    /// when the patient has no spans or its source indices have holes.
    pub fn shapes_for(&self, patient: u64) -> Option<Vec<StreamShape>> {
        let max = self
            .records
            .iter()
            .filter(|r| r.patient == patient)
            .map(|r| r.source)
            .max()?;
        let mut shapes: Vec<Option<StreamShape>> = vec![None; max as usize + 1];
        for r in self.records.iter().filter(|r| r.patient == patient) {
            shapes[r.source as usize] = Some(r.shape);
        }
        shapes.into_iter().collect()
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

    #[test]
    fn shapes_for_requires_contiguous_sources() {
        let mut r1 = rec(1, 0, 0, vec![1.0], vec![(0, 2)]);
        r1.source = 1; // hole at source 0
        let reader = HistoryReader::from_records(vec![r1]);
        assert!(reader.shapes_for(1).is_none());
        assert!(reader.shapes_for(2).is_none());
    }
}
