//! Seek-time cost model.
//!
//! Section III of the paper sketches how seek *cost* varies with length:
//! very short seeks (hundreds of KB) cost only the rotational delay
//! equivalent to the transfer time of the skipped sectors; longer seeks
//! incur head movement (a few ms to ~25 ms, growing with distance) plus an
//! average half-rotation of rotational delay (3–5 ms). [`DiskProfile`]
//! implements that shape so experiments can weight seek counts by time.

use serde::{Deserialize, Serialize};
use smrseek_trace::SECTOR_SIZE;

/// Mechanical parameters of a modeled drive.
///
/// The default profile approximates a 7200 RPM enterprise SMR drive.
///
/// # Example
///
/// ```
/// use smrseek_disk::DiskProfile;
///
/// let disk = DiskProfile::default();
/// // A 64 KB skip costs far less than a full-stroke seek.
/// assert!(disk.seek_time_us(128) < disk.seek_time_us(1 << 30) / 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskProfile {
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Sectors per track (constant-geometry simplification).
    pub sectors_per_track: u64,
    /// Head settle/minimum seek time in microseconds (track-to-track).
    pub min_seek_us: f64,
    /// Full-stroke head movement time in microseconds.
    pub max_seek_us: f64,
    /// Device capacity in sectors (bounds the full stroke).
    pub capacity_sectors: u64,
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile {
            rpm: 7200,
            // ~1 MiB tracks are typical for modern high-density drives.
            sectors_per_track: 2048,
            min_seek_us: 1_000.0,                         // 1 ms track-to-track
            max_seek_us: 25_000.0, // 25 ms full stroke (paper: "25ms or more")
            capacity_sectors: 8 * 1024 * 1024 * 1024 / 4, // 8 TB / 4 KiB... in sectors below
        }
    }
}

impl DiskProfile {
    /// Time for one full rotation, in microseconds.
    pub fn rotation_us(&self) -> f64 {
        60_000_000.0 / f64::from(self.rpm)
    }

    /// Average rotational latency (half a rotation), in microseconds.
    pub fn half_rotation_us(&self) -> f64 {
        self.rotation_us() / 2.0
    }

    /// Time to transfer `sectors` sectors once the head is positioned, in
    /// microseconds.
    pub fn transfer_us(&self, sectors: u64) -> f64 {
        self.rotation_us() * sectors as f64 / self.sectors_per_track as f64
    }

    /// Sustained sequential bandwidth in bytes per second.
    pub fn sequential_bandwidth(&self) -> f64 {
        self.sectors_per_track as f64 * SECTOR_SIZE as f64 / (self.rotation_us() / 1e6)
    }

    /// Estimated cost of a seek of signed `distance` sectors, in
    /// microseconds.
    ///
    /// * `distance == 0` — free.
    /// * short forward skips within one track — rotational delay equal to
    ///   the transfer time of the skipped sectors (§III: "equivalent to the
    ///   transfer time required to read the skipped sectors").
    /// * short *backward* skips — a missed rotation: the platter must come
    ///   almost all the way around (§IV-B's "back up" case).
    /// * longer seeks — head travel following a square-root seek curve
    ///   between `min_seek_us` and `max_seek_us`, plus an average
    ///   half-rotation of rotational delay.
    pub fn seek_time_us(&self, distance: i64) -> f64 {
        if distance == 0 {
            return 0.0;
        }
        let magnitude = distance.unsigned_abs();
        if magnitude < self.sectors_per_track {
            return if distance > 0 {
                self.transfer_us(magnitude)
            } else {
                // Missed rotation: wait for the target to come around again.
                self.rotation_us() - self.transfer_us(magnitude)
            };
        }
        let frac = (magnitude as f64 / self.capacity_sectors as f64).min(1.0);
        let head = self.min_seek_us + (self.max_seek_us - self.min_seek_us) * frac.sqrt();
        head + self.half_rotation_us()
    }

    /// Total service time of an I/O that seeked `distance` sectors and then
    /// transferred `sectors`, in microseconds.
    pub fn io_time_us(&self, distance: i64, sectors: u64) -> f64 {
        self.seek_time_us(distance) + self.transfer_us(sectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_math() {
        let d = DiskProfile::default();
        assert!((d.rotation_us() - 8333.333).abs() < 0.01);
        assert!((d.half_rotation_us() - 4166.666).abs() < 0.01);
    }

    #[test]
    fn zero_distance_is_free() {
        assert_eq!(DiskProfile::default().seek_time_us(0), 0.0);
    }

    #[test]
    fn short_forward_skip_costs_transfer_time() {
        let d = DiskProfile::default();
        let skip = 512; // quarter track
        assert!((d.seek_time_us(skip) - d.transfer_us(512)).abs() < 1e-9);
    }

    #[test]
    fn short_backward_skip_is_a_missed_rotation() {
        let d = DiskProfile::default();
        let fwd = d.seek_time_us(8);
        let back = d.seek_time_us(-8);
        assert!(back > fwd * 10.0, "backing up must cost ~a rotation");
        assert!(back < d.rotation_us());
    }

    #[test]
    fn seek_curve_is_monotone_in_magnitude() {
        let d = DiskProfile::default();
        let mut prev = 0.0;
        for exp in 11..34 {
            let t = d.seek_time_us(1i64 << exp);
            assert!(t >= prev, "seek time decreased at 2^{exp}");
            prev = t;
        }
    }

    #[test]
    fn full_stroke_bounded() {
        let d = DiskProfile::default();
        let t = d.seek_time_us(i64::MAX);
        assert!(t <= d.max_seek_us + d.half_rotation_us() + 1.0);
        assert!(t >= d.max_seek_us * 0.9);
    }

    #[test]
    fn io_time_adds_transfer() {
        let d = DiskProfile::default();
        let io = d.io_time_us(1 << 20, 2048);
        assert!((io - (d.seek_time_us(1 << 20) + d.rotation_us())).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_plausible() {
        // ~2048 sectors/track @7200rpm -> ~125 MB/s
        let bw = DiskProfile::default().sequential_bandwidth();
        assert!(
            bw > 50e6 && bw < 500e6,
            "bandwidth {bw} out of plausible range"
        );
    }
}
