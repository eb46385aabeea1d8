//! Presence maps: which intervals of a source stream actually hold data.
//!
//! Raw physiological data contains many discontinuities (Fig. 2 of the
//! paper). A [`PresenceMap`] records the kept (data-bearing) intervals of a
//! source as a sorted list of half-open `[start, end)` ranges. Targeted
//! query processing consults these maps — through the event-lineage maps —
//! to decide which output windows can possibly produce output.

use std::sync::Arc;

use crate::time::Tick;

/// Sorted, coalesced set of half-open data-bearing intervals.
///
/// The interval list is `Arc`-backed with copy-on-write mutation: cloning
/// a map is a reference-count bump, and a clone held elsewhere (a live
/// snapshot handed to the executor) stays valid while the original keeps
/// growing — the first mutation after a clone pays one copy of the
/// retained ranges, nothing more. Long-lived live buffers additionally
/// [`retire`](Self::retire) processed history so that copy stays bounded.
///
/// # Examples
/// ```
/// use lifestream_core::presence::PresenceMap;
/// let mut m = PresenceMap::new();
/// m.add(0, 10);
/// m.add(20, 30);
/// assert!(m.overlaps(5, 8));
/// assert!(!m.overlaps(10, 20));
/// assert_eq!(m.covered_ticks(), 20);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PresenceMap {
    /// Sorted, non-overlapping, non-adjacent `[start, end)` intervals.
    ranges: Arc<Vec<(Tick, Tick)>>,
}

/// [`PresenceMap::add`] on a bare interval list (sorted, coalesced; the
/// interval not empty) — for an owner that holds its intervals outright
/// and builds a map only to share them.
pub(crate) fn add_range(ranges: &mut Vec<(Tick, Tick)>, start: Tick, end: Tick) {
    // An interval at or past the last one — every append of an in-order
    // feed — extends or follows it: nothing to search.
    match ranges.last_mut() {
        Some(last) if last.1 == start => {
            last.1 = end;
            return;
        }
        Some(last) if last.1 > start => {}
        _ => return ranges.push((start, end)),
    }
    // Find insertion window: all ranges overlapping or adjacent.
    let lo = ranges.partition_point(|&(_, e)| e < start);
    let hi = ranges.partition_point(|&(s, _)| s <= end);
    if lo == hi {
        ranges.insert(lo, (start, end));
        return;
    }
    let new_start = start.min(ranges[lo].0);
    let new_end = end.max(ranges[hi - 1].1);
    ranges.drain(lo..hi);
    ranges.insert(lo, (new_start, new_end));
}

/// [`PresenceMap::retire`] on a bare interval list.
pub(crate) fn retire_ranges(ranges: &mut Vec<(Tick, Tick)>, before: Tick) {
    let cut = ranges.partition_point(|&(_, e)| e <= before);
    ranges.drain(..cut);
    if let Some(first) = ranges.first_mut() {
        first.0 = first.0.max(before);
    }
}

/// [`PresenceMap::contains`] on a bare interval list.
pub(crate) fn ranges_contain(ranges: &[(Tick, Tick)], t: Tick) -> bool {
    let i = ranges.partition_point(|&(_, e)| e <= t);
    i < ranges.len() && ranges[i].0 <= t
}

impl PresenceMap {
    /// Creates an empty map (no data anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an interval list that is already sorted and coalesced.
    pub(crate) fn from_coalesced(ranges: Vec<(Tick, Tick)>) -> Self {
        Self {
            ranges: Arc::new(ranges),
        }
    }

    /// Creates a map with a single interval `[start, end)`.
    pub fn full(start: Tick, end: Tick) -> Self {
        let mut m = Self::new();
        m.add(start, end);
        m
    }

    /// Adds `[start, end)`, merging with existing/adjacent intervals.
    /// Empty or inverted intervals are ignored.
    pub fn add(&mut self, start: Tick, end: Tick) {
        if end > start {
            add_range(Arc::make_mut(&mut self.ranges), start, end);
        }
    }

    /// Removes `[start, end)` from the map (punches a gap).
    pub fn remove(&mut self, start: Tick, end: Tick) {
        if end <= start {
            return;
        }
        if !self.overlaps(start, end) {
            return;
        }
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        for &(s, e) in self.ranges.iter() {
            if e <= start || s >= end {
                out.push((s, e));
                continue;
            }
            if s < start {
                out.push((s, start));
            }
            if e > end {
                out.push((end, e));
            }
        }
        self.ranges = Arc::new(out);
    }

    /// Drops all coverage strictly below `before` — the compaction step of
    /// long-lived live buffers, which retire processed history so clones
    /// and copy-on-write both stay bounded by the retained suffix.
    pub fn retire(&mut self, before: Tick) {
        let cut = self.ranges.partition_point(|&(_, e)| e <= before);
        if cut == 0 && self.ranges.first().is_none_or(|&(s, _)| s >= before) {
            return;
        }
        retire_ranges(Arc::make_mut(&mut self.ranges), before);
    }

    /// True if any data exists in `[start, end)`.
    pub fn overlaps(&self, start: Tick, end: Tick) -> bool {
        if end <= start {
            return false;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        i < self.ranges.len() && self.ranges[i].0 < end
    }

    /// True if `[start, end)` is entirely covered by data.
    pub fn covers(&self, start: Tick, end: Tick) -> bool {
        if end <= start {
            return true;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        i < self.ranges.len() && self.ranges[i].0 <= start && self.ranges[i].1 >= end
    }

    /// True if the instant `t` lies in a data interval.
    pub fn contains(&self, t: Tick) -> bool {
        ranges_contain(&self.ranges, t)
    }

    /// Number of data ticks covered by `[start, end)` ∩ map.
    pub fn covered_in(&self, start: Tick, end: Tick) -> Tick {
        let mut total = 0;
        for &(s, e) in self.ranges.iter() {
            let a = s.max(start);
            let b = e.min(end);
            if b > a {
                total += b - a;
            }
            if s >= end {
                break;
            }
        }
        total
    }

    /// Total ticks of data in the map.
    pub fn covered_ticks(&self) -> Tick {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// The kept intervals, sorted.
    pub fn ranges(&self) -> &[(Tick, Tick)] {
        &self.ranges
    }

    /// Earliest data tick, if any.
    pub fn start(&self) -> Option<Tick> {
        self.ranges.first().map(|&(s, _)| s)
    }

    /// One past the latest data tick, if any.
    pub fn end(&self) -> Option<Tick> {
        self.ranges.last().map(|&(_, e)| e)
    }

    /// True if the map holds no data.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Intersection with another map (used to reason about inner joins).
    pub fn intersect(&self, other: &PresenceMap) -> PresenceMap {
        let mut out = PresenceMap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (s1, e1) = self.ranges[i];
            let (s2, e2) = other.ranges[j];
            let s = s1.max(s2);
            let e = e1.min(e2);
            if e > s {
                out.add(s, e);
            }
            if e1 <= e2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Union with another map (used for outer joins).
    pub fn union(&self, other: &PresenceMap) -> PresenceMap {
        let mut out = self.clone();
        for &(s, e) in other.ranges.iter() {
            out.add(s, e);
        }
        out
    }

    /// Fraction of `[start, end)` covered by data, in `0.0..=1.0`.
    pub fn coverage_fraction(&self, start: Tick, end: Tick) -> f64 {
        if end <= start {
            return 0.0;
        }
        self.covered_in(start, end) as f64 / (end - start) as f64
    }
}

impl FromIterator<(Tick, Tick)> for PresenceMap {
    fn from_iter<T: IntoIterator<Item = (Tick, Tick)>>(iter: T) -> Self {
        let mut m = PresenceMap::new();
        for (s, e) in iter {
            m.add(s, e);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_merge() {
        let mut m = PresenceMap::new();
        m.add(10, 20);
        m.add(30, 40);
        m.add(18, 32); // bridges both
        assert_eq!(m.ranges(), &[(10, 40)]);
        m.add(40, 50); // adjacent merges
        assert_eq!(m.ranges(), &[(10, 50)]);
        m.add(60, 60); // empty ignored
        assert_eq!(m.ranges().len(), 1);
    }

    #[test]
    fn add_before_and_between() {
        let mut m = PresenceMap::new();
        m.add(100, 200);
        m.add(0, 50);
        m.add(60, 70);
        assert_eq!(m.ranges(), &[(0, 50), (60, 70), (100, 200)]);
    }

    #[test]
    fn remove_punches_gaps() {
        let mut m = PresenceMap::full(0, 100);
        m.remove(20, 30);
        m.remove(90, 120);
        assert_eq!(m.ranges(), &[(0, 20), (30, 90)]);
        m.remove(0, 100);
        assert!(m.is_empty());
    }

    #[test]
    fn overlap_and_cover_queries() {
        let m: PresenceMap = [(0, 10), (20, 30)].into_iter().collect();
        assert!(m.overlaps(5, 25));
        assert!(m.overlaps(9, 10));
        assert!(!m.overlaps(10, 20));
        assert!(m.covers(2, 8));
        assert!(!m.covers(5, 25));
        assert!(m.contains(0));
        assert!(!m.contains(10));
        assert!(m.contains(29));
    }

    #[test]
    fn covered_accounting() {
        let m: PresenceMap = [(0, 10), (20, 30)].into_iter().collect();
        assert_eq!(m.covered_ticks(), 20);
        assert_eq!(m.covered_in(5, 25), 10);
        assert_eq!(m.coverage_fraction(0, 40), 0.5);
        assert_eq!(m.start(), Some(0));
        assert_eq!(m.end(), Some(30));
    }

    #[test]
    fn intersect_union() {
        let a: PresenceMap = [(0, 10), (20, 30)].into_iter().collect();
        let b: PresenceMap = [(5, 25)].into_iter().collect();
        assert_eq!(a.intersect(&b).ranges(), &[(5, 10), (20, 25)]);
        assert_eq!(a.union(&b).ranges(), &[(0, 30)]);
        let empty = PresenceMap::new();
        assert!(a.intersect(&empty).is_empty());
        assert_eq!(a.union(&empty), a);
    }

    #[test]
    fn retire_drops_history() {
        let mut m: PresenceMap = [(0, 10), (20, 30), (40, 50)].into_iter().collect();
        m.retire(25);
        assert_eq!(m.ranges(), &[(25, 30), (40, 50)]);
        m.retire(25); // idempotent
        assert_eq!(m.ranges(), &[(25, 30), (40, 50)]);
        m.retire(0); // below everything: no-op
        assert_eq!(m.ranges(), &[(25, 30), (40, 50)]);
        m.retire(100);
        assert!(m.is_empty());
    }

    #[test]
    fn clone_is_shared_until_mutation() {
        let mut m = PresenceMap::full(0, 100);
        let snap = m.clone();
        m.add(200, 300); // copy-on-write: the snapshot must not move
        assert_eq!(snap.ranges(), &[(0, 100)]);
        assert_eq!(m.ranges(), &[(0, 100), (200, 300)]);
        let snap2 = m.clone();
        m.remove(0, 50);
        assert_eq!(snap2.ranges(), &[(0, 100), (200, 300)]);
        assert_eq!(m.ranges(), &[(50, 100), (200, 300)]);
    }

    #[test]
    fn from_iterator_collects() {
        let m: PresenceMap = [(20, 30), (0, 10), (8, 22)].into_iter().collect();
        assert_eq!(m.ranges(), &[(0, 30)]);
    }
}
