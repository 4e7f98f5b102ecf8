//! Sample statistics and failure accounting shared by every workload.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above the selected
/// rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n.max(1)) - 1;
    (n > idx && n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Median of unsorted `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Op latencies in µs. A failed op is recorded as having missed every
/// latency limit (`+∞`), so failures move the percentiles instead of
/// vanishing from them.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<f64>,
    failed: u64,
}

impl Latencies {
    pub fn record(&mut self, micros: f64, ok: bool) {
        if ok {
            self.samples.push(micros);
        } else {
            self.samples.push(f64::INFINITY);
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed ops / attempted ops.
    pub fn error_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.failed as f64 / self.samples.len() as f64
    }

    /// Percentile `p` of each window of `window` consecutive ops (the
    /// remainder joins the last window), then the median over windows: a
    /// burst of interference on a shared host moves a few windows, not the
    /// result. `None` when a window lacks enough samples beyond `p`.
    pub fn percentile(&self, p: f64, window: usize) -> Option<f64> {
        let n = self.samples.len();
        let windows = (n / window).max(1);
        let mut per_window = Vec::with_capacity(windows);
        for w in 0..windows {
            let end = if w + 1 == windows { n } else { (w + 1) * window };
            let mut sorted = self.samples[w * window..end].to_vec();
            sorted.sort_by(f64::total_cmp);
            per_window.push(percentile(&sorted, p)?);
        }
        Some(median(&per_window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0)); // exactly 10 beyond
        assert_eq!(percentile(&v[..999], 99.0), None); // 989 has only 9 beyond
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_latency() {
        let mut l = Latencies::default();
        for i in 0..995 {
            l.record(f64::from(i), true);
        }
        for _ in 0..5 {
            l.record(1.0, false);
        }
        assert_eq!(l.attempted(), 1000);
        assert_eq!(l.failed(), 5);
        assert!((l.error_rate() - 0.005).abs() < 1e-12);
        // The failures sort above every success: p99 (10 beyond) is a real
        // latency, but it sits higher than it would have without them.
        assert_eq!(l.percentile(99.0, 1000), Some(989.0));
        assert_eq!(l.percentile(99.0, 2000), Some(989.0));
        assert_eq!(l.percentile(99.0, 500), None, "500-op windows have too few beyond p99");
        let mut all_failed = Latencies::default();
        for _ in 0..40 {
            all_failed.record(3.0, false);
        }
        assert_eq!(all_failed.error_rate(), 1.0);
        assert_eq!(all_failed.percentile(50.0, 20), Some(f64::INFINITY));
        assert_eq!(Latencies::default().error_rate(), 0.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_over_windows() {
        let mut l = Latencies::default();
        // Three 100-op windows with medians 10, 1000 (a burst) and 30, then
        // a 50-op remainder that joins the last window.
        for w in [10.0, 1000.0, 30.0] {
            for _ in 0..100 {
                l.record(w, true);
            }
        }
        for _ in 0..50 {
            l.record(30.0, true);
        }
        assert_eq!(l.percentile(50.0, 100), Some(30.0));
        assert_eq!(l.percentile(50.0, 350), Some(30.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
