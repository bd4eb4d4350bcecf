//! Per-operation-bucket long-seek time series (Fig 3).
//!
//! Fig 3 plots, per unit of time (bucketed by operation number), the
//! *difference* between long-seek counts under log-structured translation
//! and the original trace. [`LongSeekSeries`] accumulates one side of that
//! difference; [`diff_series`] subtracts two of them.

use crate::seek::Seek;
use serde::{Deserialize, Serialize};

/// Counts long (> 500 KB) seeks per fixed-size bucket of *logical*
/// operations.
///
/// Bucketing is by logical operation index — the trace position — rather
/// than by physical operation, so that the LS and NoLS series of the same
/// trace align bucket-for-bucket even though LS fragments reads into more
/// physical operations.
///
/// # Example
///
/// ```
/// use smrseek_disk::{LongSeekSeries, Seek};
/// use smrseek_trace::OpKind;
///
/// let mut series = LongSeekSeries::new(1000);
/// series.record(0, &Seek { op: OpKind::Read, distance: 5000, op_index: 0 });
/// series.record(1500, &Seek { op: OpKind::Read, distance: -5000, op_index: 9 });
/// assert_eq!(series.buckets(), &[1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LongSeekSeries {
    ops_per_bucket: u64,
    buckets: Vec<u64>,
}

impl LongSeekSeries {
    /// Creates a series with the given bucket width (logical operations).
    ///
    /// # Panics
    ///
    /// Panics if `ops_per_bucket` is zero.
    pub fn new(ops_per_bucket: u64) -> Self {
        assert!(ops_per_bucket > 0, "bucket width must be positive");
        LongSeekSeries {
            ops_per_bucket,
            buckets: Vec::new(),
        }
    }

    /// Records a seek that occurred while serving logical operation
    /// `logical_op_index`; short seeks are ignored.
    pub fn record(&mut self, logical_op_index: u64, seek: &Seek) {
        if !seek.is_long() {
            return;
        }
        let bucket = usize::try_from(logical_op_index / self.ops_per_bucket)
            .expect("bucket index fits usize");
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// The per-bucket long-seek counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Bucket width in logical operations.
    pub fn ops_per_bucket(&self) -> u64 {
        self.ops_per_bucket
    }

    /// Total long seeks recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Computes the per-bucket signed difference `ls - nols` (the series Fig 3
/// plots). The shorter series is zero-padded.
pub fn diff_series(ls: &LongSeekSeries, nols: &LongSeekSeries) -> Vec<i64> {
    let n = ls.buckets.len().max(nols.buckets.len());
    (0..n)
        .map(|i| {
            let a = ls.buckets.get(i).copied().unwrap_or(0) as i64;
            let b = nols.buckets.get(i).copied().unwrap_or(0) as i64;
            a - b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::OpKind;

    fn long(op_index: u64) -> Seek {
        Seek {
            op: OpKind::Read,
            distance: 10_000,
            op_index,
        }
    }

    fn short(op_index: u64) -> Seek {
        Seek {
            op: OpKind::Read,
            distance: 10,
            op_index,
        }
    }

    #[test]
    fn buckets_grow_on_demand() {
        let mut s = LongSeekSeries::new(100);
        s.record(0, &long(0));
        s.record(250, &long(1));
        s.record(250, &long(2));
        assert_eq!(s.buckets(), &[1, 0, 2]);
        assert_eq!(s.total(), 3);
        assert_eq!(s.ops_per_bucket(), 100);
    }

    #[test]
    fn short_seeks_ignored() {
        let mut s = LongSeekSeries::new(10);
        s.record(5, &short(0));
        assert!(s.buckets().is_empty());
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn diff_pads_shorter_series() {
        let mut a = LongSeekSeries::new(10);
        a.record(0, &long(0));
        a.record(25, &long(1));
        let mut b = LongSeekSeries::new(10);
        b.record(0, &long(0));
        b.record(0, &long(1));
        assert_eq!(diff_series(&a, &b), vec![-1, 0, 1]);
        assert_eq!(diff_series(&b, &a), vec![1, 0, -1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_width_panics() {
        LongSeekSeries::new(0);
    }
}
