//! Packed presence bitvector.
//!
//! FWindows mark absent events (discontinuities in the signal, events
//! filtered by `Where`) with a bitvector rather than compacting the columnar
//! buffers, preserving the index-position ↔ sync-time alignment that lets
//! operators compute timestamps without memory reads (§6 of the paper).

/// A fixed-capacity, heap-backed bitvector.
///
/// # Examples
/// ```
/// use lifestream_core::bitvec::BitVec;
/// let mut b = BitVec::new(10);
/// b.set(3, true);
/// assert!(b.get(3));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bitvector of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitvector of `len` bits, all set.
    pub fn all_set(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.trim_tail();
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitvector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len` in debug builds; release builds skip the
    /// check (this sits on the per-slot presence hot path) and may read
    /// a stale bit from the backing word instead.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let m = 1u64 << (i % 64);
        if v {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Clears all bits without changing the length.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets all bits.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.trim_tail();
    }

    /// Resizes in place, clearing all bits (used when an FWindow is reused
    /// for a new interval).
    pub fn reset(&mut self, len: usize) {
        let needed = len.div_ceil(64);
        if needed > self.words.len() {
            self.words.resize(needed, 0);
        }
        self.len = len;
        // Clear everything, including words beyond the new length, so
        // count_ones over the backing store stays exact.
        self.words.fill(0);
    }

    /// Sets bits `lo..hi` (half-open), a word at a time: a masked head
    /// word, whole words of ones, a masked tail word. Every bulk window
    /// fill goes through here, so a dense round costs `len / 64` stores.
    ///
    /// # Panics
    /// Panics if `hi > len`.
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        assert!(hi <= self.len, "range end {hi} out of range {}", self.len);
        if lo >= hi {
            return;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        let head = u64::MAX << (lo % 64);
        let tail = u64::MAX >> (63 - (hi - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(u64::MAX);
            self.words[last] |= tail;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// True if every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// In-place intersection with another bitvector of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union with another bitvector of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Copies all bits from `other` (lengths must match).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterator over maximal runs of consecutive set bits, as
    /// half-open `(lo, hi)` index ranges.
    ///
    /// This is the presence-run walk the fused executor is built
    /// around: one `(lo, hi)` per contiguous present range, so inner
    /// loops can iterate flat slices with no per-slot presence branch.
    pub fn iter_runs(&self) -> IterRuns<'_> {
        IterRuns { bv: self, pos: 0 }
    }

    /// Writes the bits out as one flag per bit, run by run — the form
    /// flat stage loops read presence in.
    ///
    /// # Panics
    /// Panics if `flags` is shorter than the bitvector.
    pub fn unpack_into(&self, flags: &mut [bool]) {
        flags[..self.len].fill(false);
        for (lo, hi) in self.iter_runs() {
            flags[lo..hi].fill(true);
        }
    }

    /// Iterator over the indices of set bits.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bv: self,
            word_idx: 0,
            cur: if self.words.is_empty() {
                0
            } else {
                self.words[0]
            },
        }
    }

    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Iterator over set-bit indices, produced by [`BitVec::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bv: &'a BitVec,
    word_idx: usize,
    cur: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                let idx = self.word_idx * 64 + bit;
                if idx < self.bv.len {
                    return Some(idx);
                }
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.bv.words.len() {
                return None;
            }
            self.cur = self.bv.words[self.word_idx];
        }
    }
}

/// Iterator over `(lo, hi)` runs of set bits, produced by
/// [`BitVec::iter_runs`].
#[derive(Debug)]
pub struct IterRuns<'a> {
    bv: &'a BitVec,
    pos: usize,
}

impl Iterator for IterRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let words = &self.bv.words;
        let len = self.bv.len;
        // Scan word-wise for the next set bit at or after `pos`.
        let mut lo = self.pos;
        loop {
            if lo >= len {
                return None;
            }
            let w = words[lo / 64] >> (lo % 64);
            if w == 0 {
                lo = (lo / 64 + 1) * 64;
                continue;
            }
            lo += w.trailing_zeros() as usize;
            break;
        }
        if lo >= len {
            return None;
        }
        // Scan for the end of the run: the next clear bit after `lo`.
        let mut hi = lo;
        loop {
            if hi >= len {
                hi = len;
                break;
            }
            // Invert so clear bits become set; shift out bits below hi.
            let w = !(words[hi / 64]) >> (hi % 64);
            if w == 0 {
                hi = (hi / 64 + 1) * 64;
                continue;
            }
            hi += w.trailing_zeros() as usize;
            break;
        }
        let hi = hi.min(len);
        self.pos = hi + 1; // hi is clear (or == len); resume past it
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitVec::new(130);
        for i in [0, 1, 63, 64, 65, 128, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 7);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 6);
    }

    #[test]
    fn all_set_respects_tail() {
        let b = BitVec::all_set(70);
        assert_eq!(b.count_ones(), 70);
        assert!(b.all());
        let b2 = BitVec::all_set(64);
        assert_eq!(b2.count_ones(), 64);
    }

    #[test]
    fn reset_reuses_capacity() {
        let mut b = BitVec::all_set(100);
        b.reset(50);
        assert_eq!(b.len(), 50);
        assert_eq!(b.count_ones(), 0);
        b.reset(200);
        assert_eq!(b.len(), 200);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn boolean_ops() {
        let mut a = BitVec::new(10);
        let mut b = BitVec::new(10);
        a.set(1, true);
        a.set(2, true);
        b.set(2, true);
        b.set(3, true);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![2]);
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        a.set_all();
        assert!(a.all());
        a.clear();
        assert!(!a.any());
    }

    #[test]
    fn iter_ones_spans_words() {
        let mut b = BitVec::new(200);
        let idxs = [0usize, 5, 63, 64, 127, 128, 199];
        for &i in &idxs {
            b.set(i, true);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), idxs.to_vec());
    }

    #[test]
    fn empty_bitvec() {
        let b = BitVec::new(0);
        assert!(b.is_empty());
        assert!(!b.any());
        assert_eq!(b.iter_ones().count(), 0);
        assert_eq!(b.iter_runs().count(), 0);
    }

    #[test]
    fn iter_runs_matches_iter_ones() {
        // Runs across word boundaries, at both ends, and singletons.
        let mut b = BitVec::new(200);
        for (lo, hi) in [(0, 3), (62, 66), (127, 128), (130, 193), (199, 200)] {
            b.set_range(lo, hi);
        }
        let runs: Vec<(usize, usize)> = b.iter_runs().collect();
        assert_eq!(
            runs,
            vec![(0, 3), (62, 66), (127, 128), (130, 193), (199, 200)]
        );
        let from_runs: Vec<usize> = runs.iter().flat_map(|&(lo, hi)| lo..hi).collect();
        assert_eq!(from_runs, b.iter_ones().collect::<Vec<_>>());
        let mut flags = vec![true; 200];
        b.unpack_into(&mut flags);
        assert!((0..200).all(|i| flags[i] == b.get(i)));
    }

    #[test]
    fn set_range_matches_the_bit_loop_for_every_range() {
        // Every (lo, hi) over 200 bits covers the word edges 0/63/64/65/
        // 127/128, empty ranges, single words and the full vector; the
        // pre-set bits check that a range only ever adds bits.
        for lo in 0..=200 {
            for hi in lo..=200 {
                let mut fast = BitVec::new(200);
                fast.set(7, true);
                fast.set(190, true);
                let mut slow = fast.clone();
                fast.set_range(lo, hi);
                for i in lo..hi {
                    slow.set(i, true);
                }
                assert_eq!(fast, slow, "set_range({lo}, {hi})");
            }
        }
        let mut b = BitVec::new(130);
        b.set_range(5, 5);
        b.set_range(9, 3); // inverted range: empty, like the loop it replaces
        assert!(!b.any());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_range_past_the_end_panics() {
        BitVec::new(130).set_range(100, 131);
    }

    #[test]
    fn iter_runs_all_set_and_all_clear() {
        let b = BitVec::all_set(130);
        assert_eq!(b.iter_runs().collect::<Vec<_>>(), vec![(0, 130)]);
        let c = BitVec::new(130);
        assert_eq!(c.iter_runs().count(), 0);
    }

    // debug_assert-backed: the bounds check (and therefore the panic)
    // only exists in debug builds.
    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)]
    fn out_of_range_get_panics() {
        let b = BitVec::new(4);
        b.get(4);
    }
}
