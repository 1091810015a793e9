//! Quantiles over window samples and a log-bucket histogram for spans.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics; 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Lower quartile, median, upper quartile and count of a sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quartiles {
    pub lo: f64,
    pub med: f64,
    pub hi: f64,
    pub n: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    Quartiles {
        lo: quantile(values, 0.25),
        med: quantile(values, 0.5),
        hi: quantile(values, 0.75),
        n: values.len(),
    }
}

/// The highest of p50/p90/p99 that still has at least ten samples beyond
/// it, as `(percentile, value)`; `None` below 20 samples.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(u32, f64)> {
    [(99u32, 0.99), (90, 0.90), (50, 0.50)]
        .into_iter()
        .find(|(_, q)| values.len() as f64 * (1.0 - q) >= 10.0)
        .map(|(p, q)| (p, quantile(values, q)))
}

/// Sub-buckets per power of two: bucket edges grow by 2^(1/8) ≈ 9 %.
const SUB: u32 = 8;

/// Histogram over nanosecond durations with logarithmic buckets. Fixed
/// memory (64 octaves × 8), so a traced run can record every span.
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
        }
    }
}

impl LogHist {
    fn bucket_of(ns: u64) -> usize {
        let ns = ns.max(1);
        let octave = 63 - ns.leading_zeros();
        // Position within the octave from the bits below the leading one.
        let sub = if octave >= 3 {
            ((ns >> (octave - 3)) & 7) as u32
        } else {
            ((ns << (3 - octave)) & 7) as u32
        };
        (octave * SUB + sub) as usize
    }

    /// Geometric middle of a bucket, in nanoseconds.
    fn bucket_mid(index: usize) -> f64 {
        let octave = (index as u32 / SUB) as f64;
        let sub = (index as u32 % SUB) as f64;
        2f64.powf(octave) * (1.0 + (sub + 0.5) / SUB as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[LogHist::bucket_of(ns)] += 1;
        self.count += 1;
    }

    /// The `q`-quantile in nanoseconds (bucket midpoint; 0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return LogHist::bucket_mid(i);
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let q = quartiles(&v);
        assert_eq!((q.lo, q.med, q.hi, q.n), (2.0, 3.0, 4.0, 5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(highest_supported_percentile(&small).is_none());
        let mid: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&mid).unwrap().0, 90);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&big).unwrap().0, 99);
    }

    #[test]
    fn log_hist_quantiles_land_within_a_bucket_width() {
        let mut h = LogHist::default();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() / want < 0.10,
                "q{q}: got {got}, want {want}"
            );
        }
        assert_eq!(LogHist::default().quantile_ns(0.5), 0.0);
    }
}
