//! Accumulating seek statistics.

use crate::physio::PhysIo;
use crate::position::HeadTracker;
use crate::seek::Seek;
use serde::{Deserialize, Serialize};
use smrseek_trace::OpKind;
use std::fmt;

/// Aggregate seek counts for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeekStats {
    /// Seeks whose incurring operation was a read.
    pub read_seeks: u64,
    /// Seeks whose incurring operation was a write.
    pub write_seeks: u64,
    /// Long (> 500 KB) read seeks.
    pub long_read_seeks: u64,
    /// Long (> 500 KB) write seeks.
    pub long_write_seeks: u64,
    /// Physical operations observed.
    pub ops: u64,
}

impl SeekStats {
    /// Total seeks (read + write).
    pub fn total(&self) -> u64 {
        self.read_seeks + self.write_seeks
    }

    /// Total long seeks.
    pub fn total_long(&self) -> u64 {
        self.long_read_seeks + self.long_write_seeks
    }

    /// Seeks per operation, in `[0, 1]`.
    pub fn seek_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total() as f64 / self.ops as f64
        }
    }
}

impl fmt::Display for SeekStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} read seeks + {} write seeks over {} ops",
            self.read_seeks, self.write_seeks, self.ops
        )
    }
}

/// Feeds physical operations through a [`HeadTracker`], accumulating
/// [`SeekStats`] and (optionally) every seek's signed distance.
///
/// Distance recording is off by default: multi-million-operation traces
/// would otherwise allocate hundreds of MB. Enable it with
/// [`SeekCounter::with_distances`] for CDF experiments (Fig 4).
///
/// # Example
///
/// ```
/// use smrseek_disk::{PhysIo, SeekCounter};
/// use smrseek_trace::Pba;
///
/// let mut c = SeekCounter::with_distances();
/// c.observe(&PhysIo::write(Pba::new(0), 4));
/// c.observe(&PhysIo::read(Pba::new(1000), 4));
/// assert_eq!(c.stats().read_seeks, 1);
/// assert_eq!(c.distances(), &[996]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeekCounter {
    head: HeadTracker,
    stats: SeekStats,
    record_distances: bool,
    distances: Vec<i64>,
}

impl SeekCounter {
    /// Creates a counter that accumulates counts only.
    pub fn new() -> Self {
        SeekCounter::default()
    }

    /// Creates a counter that additionally records every seek distance.
    pub fn with_distances() -> Self {
        SeekCounter {
            record_distances: true,
            ..SeekCounter::default()
        }
    }

    /// Feeds one physical operation; returns the seek it incurred, if any.
    pub fn observe(&mut self, io: &PhysIo) -> Option<Seek> {
        let seek = self.head.observe(io);
        self.stats.ops += 1;
        if let Some(s) = seek {
            match s.op {
                OpKind::Read => {
                    self.stats.read_seeks += 1;
                    if s.is_long() {
                        self.stats.long_read_seeks += 1;
                    }
                }
                OpKind::Write => {
                    self.stats.write_seeks += 1;
                    if s.is_long() {
                        self.stats.long_write_seeks += 1;
                    }
                }
            }
            if self.record_distances {
                self.distances.push(s.distance);
            }
        }
        seek
    }

    /// Feeds a batch of operations.
    pub fn observe_all<'a>(&mut self, ios: impl IntoIterator<Item = &'a PhysIo>) {
        for io in ios {
            self.observe(io);
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> SeekStats {
        self.stats
    }

    /// Recorded seek distances (empty unless created
    /// [`with_distances`](Self::with_distances)).
    pub fn distances(&self) -> &[i64] {
        &self.distances
    }

    /// Consumes the counter, returning the recorded distances.
    pub fn into_distances(self) -> Vec<i64> {
        self.distances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::Pba;

    #[test]
    fn counts_split_by_kind() {
        let mut c = SeekCounter::new();
        c.observe(&PhysIo::write(Pba::new(0), 4)); // no seek (starts at 0)
        c.observe(&PhysIo::write(Pba::new(4), 4)); // contiguous
        c.observe(&PhysIo::read(Pba::new(100), 4)); // read seek
        c.observe(&PhysIo::read(Pba::new(104), 4)); // contiguous
        c.observe(&PhysIo::write(Pba::new(0), 4)); // write seek
        let s = c.stats();
        assert_eq!(s.read_seeks, 1);
        assert_eq!(s.write_seeks, 1);
        assert_eq!(s.total(), 2);
        assert_eq!(s.ops, 5);
        assert!((s.seek_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn long_seek_counting() {
        let mut c = SeekCounter::new();
        c.observe(&PhysIo::write(Pba::new(0), 1));
        c.observe(&PhysIo::read(Pba::new(500), 1)); // short
        c.observe(&PhysIo::read(Pba::new(100_000), 1)); // long
        c.observe(&PhysIo::write(Pba::new(0), 1)); // long backward
        let s = c.stats();
        assert_eq!(s.long_read_seeks, 1);
        assert_eq!(s.long_write_seeks, 1);
        assert_eq!(s.total_long(), 2);
    }

    #[test]
    fn distance_recording_opt_in() {
        let mut plain = SeekCounter::new();
        plain.observe(&PhysIo::read(Pba::new(9), 1));
        assert!(plain.distances().is_empty());

        let mut rec = SeekCounter::with_distances();
        rec.observe(&PhysIo::read(Pba::new(9), 1));
        rec.observe(&PhysIo::read(Pba::new(0), 1));
        assert_eq!(rec.distances(), &[9, -10]);
        assert_eq!(rec.into_distances(), vec![9, -10]);
    }

    #[test]
    fn observe_all_batches() {
        let ios = vec![
            PhysIo::write(Pba::new(0), 2),
            PhysIo::write(Pba::new(2), 2),
            PhysIo::write(Pba::new(10), 2),
        ];
        let mut c = SeekCounter::new();
        c.observe_all(&ios);
        assert_eq!(c.stats().write_seeks, 1);
        assert_eq!(c.stats().ops, 3);
    }

    #[test]
    fn empty_stats_display() {
        let s = SeekStats::default();
        assert_eq!(s.seek_rate(), 0.0);
        assert!(s.to_string().contains("0 read seeks"));
    }
}
