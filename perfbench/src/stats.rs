//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus a tail: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples strictly
//! beyond it, i.e. the sample with exactly that many above it. A fixed
//! p99 read from 300 samples would rest on three values and move with
//! every run; this tail goes as far out as the sample count supports.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (the lower middle value, so always an
/// observed one); 0.0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    sorted(samples)[(samples.len() - 1) / 2]
}

/// The tail of `samples`: `(q, value)` where `value` has exactly
/// [`TAIL_BEYOND`] samples above it in sorted order and `q` is its
/// percentile, `(n - TAIL_BEYOND) / n`. With too few samples for any
/// tail it falls back to the median, `q = 0.5`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n <= 2 * TAIL_BEYOND {
        return (0.5, median(samples));
    }
    (
        (n - TAIL_BEYOND) as f64 / n as f64,
        sorted(samples)[n - TAIL_BEYOND - 1],
    )
}

/// Renders a percentile as a label (`p99`, `p73.7`).
pub fn label(q: f64) -> String {
    let pct = (q * 1000.0).round() / 10.0;
    format!("p{pct}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: the tail is p90, with exactly 10 samples above it.
        assert_eq!(tail(&ramp(100)), (0.9, 90.0));
        // 1000 samples support p99; 38 samples only p73.7.
        assert_eq!(tail(&ramp(1000)), (0.99, 990.0));
        let (q, v) = tail(&ramp(38));
        assert_eq!((label(q), v), ("p73.7".to_string(), 28.0));
        // Too few samples for a tail beyond the median: the median.
        assert_eq!(tail(&ramp(20)), (0.5, 10.0));
        for n in [21, 38, 99, 100, 101, 999, 5000, 123_456] {
            let (q, v) = tail(&ramp(n));
            let beyond = ramp(n).iter().filter(|&&x| x > v).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}: {beyond} beyond {}", label(q));
            assert!(q > 0.5, "n={n}");
        }
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut shuffled = ramp(1000);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(1000)));
    }

    #[test]
    fn median_is_an_observed_value() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn labels() {
        assert_eq!(label(0.99), "p99");
        assert_eq!(label(0.9987), "p99.9");
        assert_eq!(label(0.5), "p50");
    }
}
