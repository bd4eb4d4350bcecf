//! A Zipf(θ) sampler over ranks `0..n` whose `n` can grow.
//!
//! Fragment access popularity in the paper's workloads is highly skewed
//! (Fig 10: "a small number of fragments responsible for a large number of
//! seeks"); the synthetic profiles reproduce that skew by sampling re-read
//! targets from a Zipf distribution over everything written so far. That
//! rank count grows between read bursts, so the sampler keeps its
//! unnormalised prefix sums and extends them in place: one trace computes
//! each rank's weight once, however many bursts sample it.

use rand::Rng;

/// A Zipf distribution over `n` ranks with exponent `theta`:
/// `P(rank = k) ∝ 1 / (k + 1)^theta`.
///
/// The table holds the unnormalised prefix sums `acc[k] = Σ_{j ≤ k}
/// 1 / (j + 1)^theta`; [`extend_to`](Zipf::extend_to) appends ranks
/// without touching the ones already summed. Sampling is inverse-CDF by
/// binary search over `acc[k] / acc[n - 1]`: O(n) memory, O(log n) per
/// sample, exact.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use smrseek_workloads::Zipf;
///
/// let mut zipf = Zipf::new(1000, 1.0);
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut hits0 = 0;
/// for _ in 0..1000 {
///     if zipf.sample(&mut rng) == 0 {
///         hits0 += 1;
///     }
/// }
/// assert!(hits0 > 50, "rank 0 must dominate, got {hits0}");
///
/// zipf.extend_to(5000); // 4000 more ranks; the first 1000 stay summed
/// assert_eq!(zipf.len(), 5000);
/// assert!(zipf.sample(&mut rng) < 5000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    theta: f64,
    /// acc[k] = Σ_{j ≤ k} 1 / (j + 1)^theta, non-decreasing.
    acc: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        let mut zipf = Zipf::with_capacity(theta, n);
        zipf.extend_to(n);
        zipf
    }

    /// Creates a distribution with no ranks yet and room for `ranks`
    /// before [`extend_to`](Zipf::extend_to) reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or non-finite.
    pub fn with_capacity(theta: f64, ranks: usize) -> Self {
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be a non-negative finite number"
        );
        Zipf {
            theta,
            acc: Vec::with_capacity(ranks),
        }
    }

    /// The exponent.
    pub(crate) fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// Returns `true` if no rank has been added yet (only possible through
    /// [`with_capacity`](Zipf::with_capacity)).
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Grows the distribution to `n` ranks; a no-op if it has as many.
    /// The new ranks' sums continue the old ones in rank order, so the
    /// table equals the one [`new`](Zipf::new) builds for `n` ranks.
    /// Beyond the reserved capacity the table grows to exactly `n`.
    pub fn extend_to(&mut self, n: usize) {
        let len = self.acc.len();
        if n <= len {
            return;
        }
        self.acc.reserve_exact(n - len);
        let mut acc = self.acc.last().copied().unwrap_or(0.0);
        for k in len..n {
            acc += 1.0 / ((k + 1) as f64).powf(self.theta);
            self.acc.push(acc);
        }
    }

    /// Draws a rank in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has no ranks.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(!self.acc.is_empty(), "sampling needs at least one rank");
        inverse_cdf(&self.acc, rng.gen())
    }

    /// Probability of rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        let total = self.acc[self.acc.len() - 1];
        if k == 0 {
            self.acc[0] / total
        } else {
            self.acc[k] / total - self.acc[k - 1] / total
        }
    }
}

/// The first rank `k` whose normalised sum `acc[k] / total` is not below
/// `u`, clamped to the last rank: inverse-CDF sampling over the table a
/// fresh normalisation would build, bit for bit, without building it.
///
/// A division at every step of the search is slow (it made generating a
/// 500,000-op `w91` trace ~19% slower), so the search compares against
/// `u * total` instead and then checks the boundary it found with the
/// exact quotient. The two comparisons can disagree when `acc[k]` lies
/// within rounding of `u * total`; then the exact search decides.
fn inverse_cdf(acc: &[f64], u: f64) -> usize {
    let total = acc[acc.len() - 1];
    let below = |k: usize| acc[k] / total < u;
    let t = u * total;
    let mut k = acc.partition_point(|&a| a < t);
    if (k > 0 && !below(k - 1)) || (k < acc.len() && below(k)) {
        k = acc.partition_point(|&a| a / total < u);
    }
    k.min(acc.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 0.99);
        let sum: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_theta_more_skewed() {
        let flat = Zipf::new(100, 0.5);
        let steep = Zipf::new(100, 1.5);
        assert!(steep.pmf(0) > flat.pmf(0));
        assert!(steep.pmf(99) < flat.pmf(99));
    }

    #[test]
    fn samples_within_range_and_skewed() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 50];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[49] * 5);
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), 10_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(10, 1.2);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    fn extending_equals_building_at_the_final_size() {
        let mut grown = Zipf::with_capacity(0.9, 0);
        for n in [1, 1, 7, 300, 301, 1000] {
            grown.extend_to(n);
            assert_eq!(grown, Zipf::new(n, 0.9), "n = {n}");
        }
        grown.extend_to(10);
        assert_eq!(grown.len(), 1000, "extending never shrinks");
    }

    #[test]
    fn extending_within_capacity_keeps_the_allocation() {
        let mut z = Zipf::with_capacity(1.0, 500);
        z.extend_to(100);
        let table = z.acc.as_ptr();
        z.extend_to(500);
        assert_eq!(z.acc.as_ptr(), table);
        assert_eq!(z.acc.capacity(), 500);
    }

    #[test]
    fn rounding_disagreement_falls_back_to_the_exact_search() {
        // `a < u * total` is false but `a / total < u` is true.
        let (a, total, u) = (3.0108648134166884, 3.5529206381356233, 0.8474337369372327);
        assert!(a >= u * total && a / total < u);
        let acc = [1.0, a, total];
        assert_eq!(acc.partition_point(|&x| x / total < u), 2);
        assert_eq!(inverse_cdf(&acc, u), 2);
        // And the other way round.
        let (a, total, u) = (3.956558736729818, 15.511717760555667, 0.2550690257394217);
        assert!(a < u * total && a / total >= u);
        let acc = [1.0, a, total];
        assert_eq!(acc.partition_point(|&x| x / total < u), 1);
        assert_eq!(inverse_cdf(&acc, u), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn sampling_no_ranks_panics() {
        let z = Zipf::with_capacity(1.0, 8);
        assert!(z.is_empty());
        z.sample(&mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_theta_panics() {
        Zipf::new(10, -1.0);
    }
}
