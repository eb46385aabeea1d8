//! Constrained dynamic time warping (DTW) for shape-based querying.
//!
//! The extended `Where` operator (§6.1, Fig. 4) lets users query visual
//! patterns — e.g. the line-zero calibration artifact in arterial blood
//! pressure (Fig. 7) — by providing a representative shape as a sequence of
//! signal values. We use DTW with a Sakoe–Chiba band (the "constrained DTW"
//! of the paper) so each comparison costs `O(m · band)` instead of `O(m²)`,
//! which is linear per event for a constant band — matching the paper's
//! "linear time" claim.

/// Computes the band-constrained DTW distance between `a` and `b`.
///
/// `band` is the Sakoe–Chiba radius: cell `(i, j)` is explored only when
/// `|i - j| <= band` (after diagonal normalization for unequal lengths).
/// Distance is the square root of the summed squared local costs along the
/// optimal warping path.
///
/// # Examples
/// ```
/// use lifestream_core::dtw::dtw_distance;
/// let a = [0.0, 1.0, 2.0, 1.0, 0.0];
/// assert_eq!(dtw_distance(&a, &a, 1), 0.0);
/// let shifted = [0.0, 0.0, 1.0, 2.0, 1.0];
/// let euclid = 2.0_f32.sqrt(); // element-wise distance
/// assert!(dtw_distance(&a, &shifted, 2) < euclid);
/// ```
pub fn dtw_distance(a: &[f32], b: &[f32], band: usize) -> f32 {
    if a.is_empty() || b.is_empty() {
        return if a.len() == b.len() {
            0.0
        } else {
            f32::INFINITY
        };
    }
    let (n, m) = (a.len(), b.len());
    // Effective band must at least cover the length difference.
    let band = band.max(n.abs_diff(m));
    let inf = f32::INFINITY;
    // Two rolling rows of the DP matrix.
    let mut prev = vec![inf; m + 1];
    let mut cur = vec![inf; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        // Cells outside the band are infinite, but only two of them are
        // ever read: `cur[lo - 1]` by this row (the `j == 0` boundary is
        // unreachable except at the origin) and `cur[hi + 1]` by the next,
        // whose band reaches one further. The rest keep stale values no
        // row reads, so a row costs `O(band)`, not `O(m)`.
        cur[lo - 1] = inf;
        if hi < m {
            cur[hi + 1] = inf;
        }
        for j in lo..=hi {
            let d = a[i - 1] - b[j - 1];
            let cost = d * d;
            let best = prev[j].min(cur[j - 1]).min(prev[j - 1]);
            cur[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m].sqrt()
}

/// Z-normalizes a window in place (zero mean, unit variance); windows with
/// near-zero variance become all-zero. Amplitude-invariant matching uses
/// this before [`dtw_distance`].
pub fn znormalize(w: &mut [f32]) {
    let n = w.len();
    if n == 0 {
        return;
    }
    let mean = w.iter().copied().map(f64::from).sum::<f64>() / n as f64;
    let var = w
        .iter()
        .copied()
        .map(|v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    let std = var.sqrt();
    if std < 1e-9 {
        w.fill(0.0);
    } else {
        for v in w.iter_mut() {
            *v = ((*v as f64 - mean) / std) as f32;
        }
    }
}

/// A streaming shape matcher: feeds one sample at a time and reports when
/// the trailing window matches the target pattern within a DTW distance
/// threshold.
///
/// Repurposes constrained DTW for the streaming scenario (§6.1): the ring
/// buffer holds the last `pattern.len()` samples, and one banded DTW is
/// evaluated per `stride` samples.
#[derive(Debug, Clone)]
pub struct StreamingMatcher {
    pattern: Vec<f32>,
    band: usize,
    threshold: f32,
    normalize: bool,
    stride: usize,
    ring: Vec<f32>,
    head: usize,
    filled: usize,
    since_eval: usize,
    window_buf: Vec<f32>,
}

impl StreamingMatcher {
    /// Creates a matcher for `pattern` with Sakoe–Chiba radius `band` and
    /// match `threshold` (distance below threshold ⇒ match).
    ///
    /// When `normalize` is true both pattern and trailing window are
    /// z-normalized before comparison (amplitude-invariant matching).
    ///
    /// # Panics
    /// Panics if the pattern is empty.
    pub fn new(pattern: Vec<f32>, band: usize, threshold: f32, normalize: bool) -> Self {
        assert!(!pattern.is_empty(), "pattern must be non-empty");
        let mut pattern = pattern;
        if normalize {
            znormalize(&mut pattern);
        }
        let m = pattern.len();
        Self {
            pattern,
            band,
            threshold,
            normalize,
            stride: 1,
            ring: vec![0.0; m],
            head: 0,
            filled: 0,
            since_eval: 0,
            window_buf: vec![0.0; m],
        }
    }

    /// Evaluates the DTW only every `stride` samples (cheaper scanning;
    /// artifacts longer than `stride` samples are still caught).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Pattern length in samples.
    pub fn pattern_len(&self) -> usize {
        self.pattern.len()
    }

    /// Pushes one sample; returns `true` when the trailing window matches.
    pub fn push(&mut self, v: f32) -> bool {
        let m = self.pattern.len();
        self.ring[self.head] = v;
        self.head = (self.head + 1) % m;
        if self.filled < m {
            self.filled += 1;
            if self.filled < m {
                return false;
            }
        }
        self.since_eval += 1;
        if self.since_eval < self.stride {
            return false;
        }
        self.since_eval = 0;
        // Linearize the ring into window_buf (oldest first).
        for i in 0..m {
            self.window_buf[i] = self.ring[(self.head + i) % m];
        }
        if self.normalize {
            znormalize(&mut self.window_buf);
        }
        dtw_distance(&self.window_buf, &self.pattern, self.band) < self.threshold
    }

    /// Clears the trailing window (used across stream discontinuities).
    pub fn reset(&mut self) {
        self.filled = 0;
        self.head = 0;
        self.since_eval = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw_distance(&a, &a, 0), 0.0);
    }

    #[test]
    fn warped_sequences_are_close() {
        let a = [0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        let b = [0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.0]; // time-warped
        let euclid: f32 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        let dtw = dtw_distance(&a, &b, 2);
        assert!(dtw < euclid, "dtw {dtw} should beat euclidean {euclid}");
    }

    /// The full `(n + 1) × (m + 1)` DP matrix, every cell outside the
    /// band set to infinity.
    fn naive_banded_dtw(a: &[f32], b: &[f32], band: usize) -> f32 {
        let (n, m) = (a.len(), b.len());
        let band = band.max(n.abs_diff(m));
        let mut d = vec![vec![f32::INFINITY; m + 1]; n + 1];
        d[0][0] = 0.0;
        for i in 1..=n {
            for j in 1..=m {
                if i.abs_diff(j) <= band {
                    let diff = a[i - 1] - b[j - 1];
                    let best = d[i - 1][j].min(d[i][j - 1]).min(d[i - 1][j - 1]);
                    d[i][j] = diff * diff + best;
                }
            }
        }
        d[n][m].sqrt()
    }

    #[test]
    fn banded_rows_match_the_full_matrix_bitwise() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        for _ in 0..60 {
            let n = 1 + next() as usize % 24;
            let m = 1 + next() as usize % 24;
            let mut draw = |len| -> Vec<f32> {
                (0..len)
                    .map(|_| (next() % 2000) as f32 / 100.0 - 10.0)
                    .collect()
            };
            let (a, b) = (draw(n), draw(m));
            for band in 0..=n.max(m) {
                let fast = dtw_distance(&a, &b, band);
                let naive = naive_banded_dtw(&a, &b, band);
                assert_eq!(fast.to_bits(), naive.to_bits(), "n {n} m {m} band {band}");
            }
        }
    }

    #[test]
    fn unequal_lengths_supported() {
        let a = [0.0, 1.0, 2.0, 1.0, 0.0];
        let b = [0.0, 1.0, 1.5, 2.0, 1.5, 1.0, 0.0];
        let d = dtw_distance(&a, &b, 1);
        assert!(d.is_finite());
        assert!(d < 2.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dtw_distance(&[], &[], 1), 0.0);
        assert!(dtw_distance(&[1.0], &[], 1).is_infinite());
    }

    #[test]
    fn band_zero_equals_euclidean() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.5, 2.0];
        let euclid: f32 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        assert!((dtw_distance(&a, &b, 0) - euclid).abs() < 1e-6);
    }

    #[test]
    fn znormalize_properties() {
        let mut w = [1.0, 2.0, 3.0, 4.0];
        znormalize(&mut w);
        let mean: f32 = w.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        let mut flat = [5.0; 4];
        znormalize(&mut flat);
        assert_eq!(flat, [0.0; 4]);
        znormalize(&mut []);
    }

    #[test]
    fn streaming_matcher_fires_on_embedded_pattern() {
        let pattern = vec![0.0, 5.0, 10.0, 5.0, 0.0];
        let mut m = StreamingMatcher::new(pattern.clone(), 1, 1.0, false);
        let mut signal = vec![20.0; 30];
        signal.extend_from_slice(&pattern);
        signal.extend(vec![20.0; 30]);
        let hits: Vec<usize> = signal
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| m.push(v).then_some(i))
            .collect();
        assert_eq!(hits, vec![34]); // pattern ends at index 34
    }

    #[test]
    fn streaming_matcher_normalized_is_amplitude_invariant() {
        let pattern = vec![0.0, 1.0, 2.0, 1.0, 0.0];
        let mut m = StreamingMatcher::new(pattern, 1, 0.5, true);
        // Same shape, 10x amplitude, offset by 100.
        let scaled = [100.0, 110.0, 120.0, 110.0, 100.0];
        let mut hit = false;
        for &v in &scaled {
            hit |= m.push(v);
        }
        assert!(hit);
    }

    #[test]
    fn streaming_matcher_reset_clears_window() {
        let mut m = StreamingMatcher::new(vec![1.0, 1.0, 1.0], 0, 0.1, false);
        m.push(1.0);
        m.push(1.0);
        m.reset();
        assert!(!m.push(1.0));
        assert!(!m.push(1.0));
        // The window refills on the third push and evaluates immediately.
        assert!(m.push(1.0));
    }

    #[test]
    fn stride_skips_evaluations() {
        let mut m = StreamingMatcher::new(vec![1.0, 1.0], 0, 0.1, false).with_stride(3);
        let mut hits = 0;
        for _ in 0..12 {
            if m.push(1.0) {
                hits += 1;
            }
        }
        // Evaluations happen every 3rd sample after the window fills.
        assert!((3..=4).contains(&hits), "hits = {hits}");
    }
}
