//! Property tests for the disk crate: the seek counter against a direct
//! re-implementation and CDF axioms.

use proptest::prelude::*;
use smrseek_disk::{Cdf, PhysIo, SeekCounter};
use smrseek_trace::{OpKind, Pba};

fn io_strategy() -> impl Strategy<Value = PhysIo> {
    (0u64..1 << 20, 1u64..256, prop::bool::ANY).prop_map(|(pba, len, is_read)| {
        PhysIo::new(
            if is_read { OpKind::Read } else { OpKind::Write },
            Pba::new(pba),
            len,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The counter's totals equal a direct scan of the operation stream.
    #[test]
    fn seek_counter_matches_direct_scan(ios in prop::collection::vec(io_strategy(), 1..200)) {
        let mut counter = SeekCounter::with_distances();
        counter.observe_all(&ios);
        let stats = counter.stats();

        let mut next = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut distances = Vec::new();
        for io in &ios {
            if io.pba.sector() != next {
                match io.op {
                    OpKind::Read => reads += 1,
                    OpKind::Write => writes += 1,
                }
                distances.push(io.pba.sector() as i64 - next as i64);
            }
            next = io.pba.sector() + io.sectors;
        }
        prop_assert_eq!(stats.read_seeks, reads);
        prop_assert_eq!(stats.write_seeks, writes);
        prop_assert_eq!(stats.ops, ios.len() as u64);
        prop_assert_eq!(counter.distances(), &distances[..]);
    }

    /// CDF axioms: monotone, bounded, and consistent with quantiles.
    #[test]
    fn cdf_axioms(samples in prop::collection::vec(-1_000_000i64..1_000_000, 1..300)) {
        let cdf = Cdf::from_samples(samples.clone());
        prop_assert_eq!(cdf.len(), samples.len());
        let lo = *samples.iter().min().expect("nonempty");
        let hi = *samples.iter().max().expect("nonempty");
        prop_assert!((cdf.fraction_at_or_below(hi) - 1.0).abs() < 1e-12);
        prop_assert_eq!(cdf.fraction_at_or_below(lo - 1), 0.0);
        // Monotonicity on a coarse grid.
        let mut prev = 0.0;
        for i in 0..20 {
            let x = lo + (hi - lo) * i / 19;
            let f = cdf.fraction_at_or_below(x);
            prop_assert!(f >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        // Quantile inverts fraction: F(q_p) >= p.
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let q = cdf.quantile(p).expect("nonempty");
            prop_assert!(cdf.fraction_at_or_below(q) >= p - 1e-12);
        }
    }
}
