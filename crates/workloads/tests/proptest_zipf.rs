//! Differential test for the growable Zipf sampler: extended in place over
//! a non-decreasing sequence of rank counts, it must draw exactly the ranks
//! a table built from scratch for each count draws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smrseek_workloads::Zipf;

/// The sampler as it was before it could grow: one normalised
/// inverse-CDF table per rank count, O(n) work for every new count.
struct FreshTable {
    cdf: Vec<f64>,
}

impl FreshTable {
    fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        FreshTable { cdf }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn theta_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(2.0),
        6 => 0.0..2.0f64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same θ, same seed, same rank counts: same ranks, draw for draw.
    #[test]
    fn growing_table_draws_the_fresh_tables_ranks(
        theta in theta_strategy(),
        first in prop_oneof![1 => Just(1usize), 3 => 1usize..64],
        steps in prop::collection::vec(0usize..2_000, 0..8),
        seed in 0u64..u64::MAX,
    ) {
        let mut grown = Zipf::with_capacity(theta, 0);
        let mut fresh_rng = StdRng::seed_from_u64(seed);
        let mut grown_rng = StdRng::seed_from_u64(seed);
        let mut n = first;
        for step in std::iter::once(0).chain(steps) {
            n += step;
            grown.extend_to(n);
            prop_assert_eq!(grown.len(), n);
            let fresh = FreshTable::new(n, theta);
            for draw in 0..64 {
                let want = fresh.sample(&mut fresh_rng);
                let got = grown.sample(&mut grown_rng);
                prop_assert_eq!(got, want, "theta {} n {} draw {}", theta, n, draw);
            }
        }
    }
}
