//! The head-position tracker: turns a stream of physical operations into
//! seek events.

use crate::physio::PhysIo;
use crate::seek::Seek;
use smrseek_trace::Pba;

/// Tracks the sector following the most recent physical operation and
/// reports a [`Seek`] whenever the next operation does not start exactly
/// there (the paper's Section-II seek definition).
///
/// The very first operation counts as a seek (from an unknown rest
/// position); its distance is reported as the signed distance from sector 0.
///
/// # Example
///
/// ```
/// use smrseek_disk::{HeadTracker, PhysIo};
/// use smrseek_trace::Pba;
///
/// let mut head = HeadTracker::new();
/// assert!(head.observe(&PhysIo::write(Pba::new(0), 8)).is_none()); // starts at 0
/// assert!(head.observe(&PhysIo::write(Pba::new(8), 8)).is_none());
/// let seek = head.observe(&PhysIo::read(Pba::new(100), 8)).unwrap();
/// assert_eq!(seek.distance, 84);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeadTracker {
    /// One past the end of the previous operation; starts at sector 0 so a
    /// trace beginning at sector 0 starts seek-free.
    next_expected: Pba,
    ops_seen: u64,
}

impl HeadTracker {
    /// Creates a tracker with the head parked at sector 0.
    pub fn new() -> Self {
        HeadTracker::default()
    }

    /// Current expected next sector (one past the previous operation).
    pub fn position(&self) -> Pba {
        self.next_expected
    }

    /// Number of operations observed so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Feeds one physical operation; returns the seek it incurred, if any.
    pub fn observe(&mut self, io: &PhysIo) -> Option<Seek> {
        let index = self.ops_seen;
        self.ops_seen += 1;
        let seek = if io.pba == self.next_expected {
            None
        } else {
            Some(Seek {
                op: io.op,
                distance: io.pba.distance_from(self.next_expected),
                op_index: index,
            })
        };
        self.next_expected = io.end();
        seek
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::OpKind;

    #[test]
    fn sequential_stream_is_seek_free_after_first() {
        let mut head = HeadTracker::new();
        // The first write seeks from the parked head to the stream.
        let s = head.observe(&PhysIo::write(Pba::new(1000), 8));
        assert_eq!(s.map(|s| s.distance), Some(1000));
        for i in 1..10 {
            let io = PhysIo::write(Pba::new(1000 + i * 8), 8);
            assert!(head.observe(&io).is_none(), "op {i} should be contiguous");
        }
        assert_eq!(head.ops_seen(), 10);
        assert_eq!(head.position(), Pba::new(1080));
    }

    #[test]
    fn classification_follows_second_op() {
        let mut head = HeadTracker::new();
        head.observe(&PhysIo::write(Pba::new(0), 8));
        let s = head.observe(&PhysIo::read(Pba::new(100), 8)).unwrap();
        assert_eq!(s.op, OpKind::Read);
        let s = head.observe(&PhysIo::write(Pba::new(0), 8)).unwrap();
        assert_eq!(s.op, OpKind::Write);
    }

    #[test]
    fn backward_seek_negative_distance() {
        let mut head = HeadTracker::new();
        head.observe(&PhysIo::write(Pba::new(100), 8)); // seek to 100
        let s = head.observe(&PhysIo::read(Pba::new(50), 8)).unwrap();
        assert_eq!(s.distance, -58);
        assert_eq!(s.op_index, 1);
    }

    #[test]
    fn repeat_of_same_sector_is_a_seek() {
        // Re-reading the block just read requires a full rotation on a real
        // disk; under the paper's definition it is a (negative) seek.
        let mut head = HeadTracker::new();
        head.observe(&PhysIo::read(Pba::new(0), 8));
        let s = head.observe(&PhysIo::read(Pba::new(0), 8)).unwrap();
        assert_eq!(s.distance, -8);
    }

    #[test]
    fn first_op_away_from_zero_seeks() {
        let mut head = HeadTracker::new();
        let s = head.observe(&PhysIo::read(Pba::new(42), 1)).unwrap();
        assert_eq!(s.distance, 42);
        assert_eq!(s.op_index, 0);
    }
}
