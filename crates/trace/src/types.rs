//! Strongly-typed block addressing.
//!
//! Everything in the workspace is addressed in **512-byte sectors**. Two
//! newtypes keep the two address spaces of a translation layer apart:
//!
//! * [`Lba`] — *logical* block address, the address space the host sees.
//! * [`Pba`] — *physical* block address, the address space of the medium
//!   (where the log's write frontier advances).
//!
//! Mixing the two is a classic translation-layer bug; the newtypes make it a
//! compile error (C-NEWTYPE).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of one sector in bytes. All addresses count sectors of this size.
pub const SECTOR_SIZE: u64 = 512;

/// Highest end sector (one past the last sector) a parsed trace record may
/// reach: 2^62 sectors, 2 ZiB.
///
/// A log-structured replay starts its write frontier above the trace's
/// highest sector and advances it by every sector written, so sector
/// arithmetic needs headroom above the trace itself. Parsers reject a
/// record ending past this bound with a typed error; left in, it would
/// overflow `u64` during replay.
pub const MAX_END_SECTOR: u64 = 1 << 62;

/// One kibibyte in bytes.
pub const KIB: u64 = 1024;
/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * MIB;

/// Converts a byte count to the number of sectors that fully cover it.
///
/// # Example
///
/// ```
/// use smrseek_trace::bytes_to_sectors_ceil;
/// assert_eq!(bytes_to_sectors_ceil(0), 0);
/// assert_eq!(bytes_to_sectors_ceil(1), 1);
/// assert_eq!(bytes_to_sectors_ceil(512), 1);
/// assert_eq!(bytes_to_sectors_ceil(513), 2);
/// ```
pub const fn bytes_to_sectors_ceil(bytes: u64) -> u64 {
    bytes.div_ceil(SECTOR_SIZE)
}

/// Converts a sector count to bytes.
///
/// # Example
///
/// ```
/// use smrseek_trace::sectors_to_bytes;
/// assert_eq!(sectors_to_bytes(8), 4096);
/// ```
pub const fn sectors_to_bytes(sectors: u64) -> u64 {
    sectors * SECTOR_SIZE
}

macro_rules! address_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u64);

        impl $name {
            /// Address zero.
            pub const ZERO: $name = $name(0);
            /// The maximum representable address.
            pub const MAX: $name = $name(u64::MAX);

            /// Creates an address from a raw sector number.
            pub const fn new(sector: u64) -> Self {
                $name(sector)
            }

            /// Creates an address from a byte offset, which must be
            /// sector-aligned in well-formed traces; unaligned offsets are
            /// rounded **down** to the containing sector.
            pub const fn from_bytes(bytes: u64) -> Self {
                $name(bytes / SECTOR_SIZE)
            }

            /// Returns the raw sector number.
            pub const fn sector(self) -> u64 {
                self.0
            }

            /// Returns the byte offset of the start of this sector.
            pub const fn to_bytes(self) -> u64 {
                self.0 * SECTOR_SIZE
            }

            /// Signed distance in sectors from `other` to `self`
            /// (positive when `self` is above `other`).
            ///
            /// Saturates at `i64::MIN`/`i64::MAX` for distances that do not
            /// fit, which cannot occur for realistic device sizes.
            pub fn distance_from(self, other: $name) -> i64 {
                if self.0 >= other.0 {
                    i64::try_from(self.0 - other.0).unwrap_or(i64::MAX)
                } else {
                    i64::try_from(other.0 - self.0)
                        .map(|d| -d)
                        .unwrap_or(i64::MIN)
                }
            }

            /// Checked addition of a sector count.
            pub fn checked_add(self, sectors: u64) -> Option<Self> {
                self.0.checked_add(sectors).map($name)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<u64> for $name {
            fn from(sector: u64) -> Self {
                $name(sector)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }

        impl Add<u64> for $name {
            type Output = $name;
            fn add(self, sectors: u64) -> $name {
                $name(self.0 + sectors)
            }
        }

        impl AddAssign<u64> for $name {
            fn add_assign(&mut self, sectors: u64) {
                self.0 += sectors;
            }
        }

        impl Sub<u64> for $name {
            type Output = $name;
            fn sub(self, sectors: u64) -> $name {
                $name(self.0 - sectors)
            }
        }

        impl Sub<$name> for $name {
            /// Unsigned sector distance; panics in debug builds if
            /// `self < rhs`. Use [`Self::distance_from`] for signed
            /// distances.
            type Output = u64;
            fn sub(self, rhs: $name) -> u64 {
                self.0 - rhs.0
            }
        }
    };
}

address_newtype! {
    /// A **logical** block address: a 512-byte sector number in the address
    /// space exposed to the host.
    ///
    /// # Example
    ///
    /// ```
    /// use smrseek_trace::Lba;
    /// let a = Lba::new(100);
    /// assert_eq!(a + 8, Lba::new(108));
    /// assert_eq!((a + 8).distance_from(a), 8);
    /// ```
    Lba
}

address_newtype! {
    /// A **physical** block address: a 512-byte sector number on the
    /// medium. The log-structured layer's write frontier advances through
    /// this space.
    ///
    /// # Example
    ///
    /// ```
    /// use smrseek_trace::Pba;
    /// let frontier = Pba::new(1 << 30);
    /// assert_eq!(frontier + 16, Pba::new((1 << 30) + 16));
    /// ```
    Pba
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_byte_roundtrip() {
        assert_eq!(Lba::from_bytes(4096), Lba::new(8));
        assert_eq!(Lba::new(8).to_bytes(), 4096);
        assert_eq!(Pba::from_bytes(1023), Pba::new(1)); // round down
    }

    #[test]
    fn distance_signs() {
        let a = Lba::new(100);
        let b = Lba::new(50);
        assert_eq!(a.distance_from(b), 50);
        assert_eq!(b.distance_from(a), -50);
        assert_eq!(a.distance_from(a), 0);
    }

    #[test]
    fn distance_saturates() {
        assert_eq!(Lba::MAX.distance_from(Lba::ZERO), i64::MAX);
        assert_eq!(Lba::ZERO.distance_from(Lba::MAX), i64::MIN);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = Pba::new(10);
        assert!(a < a + 1);
        let mut b = a;
        b += 5;
        assert_eq!(b, Pba::new(15));
        assert_eq!(b - a, 5);
        assert_eq!(b - 5, a);
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(Lba::MAX.checked_add(1), None);
        assert_eq!(Lba::new(1).checked_add(1), Some(Lba::new(2)));
    }

    #[test]
    fn display_is_sector_number() {
        assert_eq!(Lba::new(42).to_string(), "42");
        assert_eq!(format!("{:?}", Pba::new(7)), "Pba(7)");
    }

    #[test]
    fn byte_helpers() {
        assert_eq!(bytes_to_sectors_ceil(GIB), 2 * 1024 * 1024);
        assert_eq!(sectors_to_bytes(bytes_to_sectors_ceil(MIB)), MIB);
        assert_eq!(bytes_to_sectors_ceil(511), 1);
    }
}
