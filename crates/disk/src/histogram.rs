//! Empirical CDFs over seek/access distances (Fig 4).

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution function built from samples.
///
/// # Example
///
/// ```
/// use smrseek_disk::Cdf;
///
/// let cdf = Cdf::from_samples(vec![-5i64, 0, 0, 10]);
/// assert_eq!(cdf.fraction_at_or_below(-6), 0.0);
/// assert_eq!(cdf.fraction_at_or_below(0), 0.75);
/// assert_eq!(cdf.fraction_at_or_below(10), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Cdf {
    sorted: Vec<i64>,
}

impl Cdf {
    /// Builds a CDF from raw samples (consumed and sorted).
    pub fn from_samples(mut samples: Vec<i64>) -> Self {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Builds a CDF from borrowed samples, leaving the source in place
    /// (one copy, made here, instead of a clone at every call site).
    pub fn from_slice(samples: &[i64]) -> Self {
        Self::from_samples(samples.to_vec())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= value`, in `[0, 1]`; 0 for an empty CDF.
    pub fn fraction_at_or_below(&self, value: i64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= value);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, or `None`
    /// for an empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<i64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Fraction of samples in the closed interval `[lo, hi]`.
    pub fn fraction_within(&self, lo: i64, hi: i64) -> f64 {
        if self.sorted.is_empty() || lo > hi {
            return 0.0;
        }
        let a = self.sorted.partition_point(|&s| s < lo);
        let b = self.sorted.partition_point(|&s| s <= hi);
        (b - a) as f64 / self.sorted.len() as f64
    }

    /// Samples the CDF at `points` evenly spaced values across `[lo, hi]`,
    /// returning `(x, F(x))` pairs — the series plotted in Fig 4.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` or `lo >= hi`.
    pub fn curve(&self, lo: i64, hi: i64, points: usize) -> Vec<(i64, f64)> {
        assert!(points >= 2, "need at least two points");
        assert!(lo < hi, "lo must be below hi");
        let span = (hi - lo) as f64;
        (0..points)
            .map(|i| {
                let x = lo + (span * i as f64 / (points - 1) as f64).round() as i64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }

    /// Folds another CDF's samples into this one (linear-time merge of the
    /// two sorted sample sets). The result equals building one CDF from the
    /// concatenated raw samples.
    pub fn merge(&mut self, other: &Cdf) {
        if other.sorted.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.sorted.len() + other.sorted.len());
        let (mut a, mut b) = (
            self.sorted.iter().peekable(),
            other.sorted.iter().peekable(),
        );
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            if x <= y {
                merged.push(x);
                a.next();
            } else {
                merged.push(y);
                b.next();
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.sorted = merged;
    }
}

impl FromIterator<i64> for Cdf {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        Cdf::from_samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::default();
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_within(-1, 1), 0.0);
    }

    #[test]
    fn fractions_and_quantiles() {
        let cdf: Cdf = vec![1i64, 2, 3, 4].into_iter().collect();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.fraction_at_or_below(2), 0.5);
        assert_eq!(cdf.quantile(0.0), Some(1));
        assert_eq!(cdf.quantile(0.5), Some(2));
        assert_eq!(cdf.quantile(1.0), Some(4));
        assert_eq!(cdf.fraction_within(2, 3), 0.5);
        assert_eq!(cdf.fraction_within(5, 9), 0.0);
        assert_eq!(cdf.fraction_within(3, 1), 0.0); // inverted range
    }

    #[test]
    fn curve_endpoints() {
        let cdf: Cdf = vec![0i64, 10].into_iter().collect();
        let pts = cdf.curve(-10, 10, 3);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (-10, 0.0));
        assert_eq!(pts[1], (0, 0.5));
        assert_eq!(pts[2], (10, 1.0));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_validates() {
        Cdf::default().quantile(1.5);
    }

    #[test]
    fn merge_equals_concatenated_samples() {
        let mut a = Cdf::from_samples(vec![5, -3, 9]);
        let b = Cdf::from_samples(vec![0, -3, 12, 7]);
        a.merge(&b);
        assert_eq!(a, Cdf::from_samples(vec![5, -3, 9, 0, -3, 12, 7]));

        let mut empty = Cdf::default();
        empty.merge(&a);
        assert_eq!(empty, a);
        let before = a.clone();
        a.merge(&Cdf::default());
        assert_eq!(a, before);
    }
}
