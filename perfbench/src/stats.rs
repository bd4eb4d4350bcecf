//! Sample statistics and the metric-name rules every reported number obeys.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One-indexed nearest rank of quantile `q` among `n` sorted samples:
/// `ceil(q * n)`, clamped to `[1, n]`.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile of `sorted` (ascending) at quantile `q`
/// in `(0, 1]`, or `None` for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// How many of `n` samples lie strictly above the nearest-rank
/// percentile at `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// Whether a percentile at `q` over `n` samples is backed by at least
/// [`MIN_BEYOND`] samples beyond it — the rule for reporting a tail.
pub fn tail_reportable(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// The median of `values` (nearest-rank), sorting a copy.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// A deterministic 64-bit generator (splitmix64) for seed-derived choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), Some(50.0));
        assert_eq!(percentile(&sorted, 0.95), Some(95.0));
        assert_eq!(percentile(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile(&sorted, 1.0), Some(100.0));
        // ceil(0.5 * 5) = 3rd of five.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), Some(3.0));
        // A tiny quantile still picks the first sample, never index 0 - 1.
        assert_eq!(percentile(&[7.0, 8.0], 0.001), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert!(!tail_reportable(100, 0.95));
        assert!(!tail_reportable(199, 0.95));
        assert!(tail_reportable(200, 0.95));
        assert!(!tail_reportable(999, 0.99));
        assert!(tail_reportable(1000, 0.99));
        assert!(tail_reportable(20, 0.5));
        assert!(!tail_reportable(19, 0.5));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "stl.apply_ns_per_rec.ls_defrag",
            "sim.cell_s.nols",
            "a",
            "0-x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/x",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn splitmix_is_seed_determined() {
        let a: Vec<u64> = {
            let mut g = SplitMix::new(7);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let mut g = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
        assert!((0..100).all(|_| g.below(3) < 3));
    }
}
