//! Mapping records returned by extent-map lookups.

use smrseek_trace::{Lba, Pba};
use std::fmt;

/// One mapped extent: `sectors` logical sectors starting at `lba` stored
/// contiguously at `pba`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First logical sector.
    pub lba: Lba,
    /// Length in sectors (always > 0 for extents stored in a map).
    pub sectors: u64,
    /// First physical sector.
    pub pba: Pba,
}

impl Extent {
    /// Creates an extent.
    pub const fn new(lba: Lba, sectors: u64, pba: Pba) -> Self {
        Extent { lba, sectors, pba }
    }

    /// One past the last logical sector.
    pub fn lba_end(&self) -> Lba {
        self.lba + self.sectors
    }

    /// One past the last physical sector.
    pub fn pba_end(&self) -> Pba {
        self.pba + self.sectors
    }

    /// Translates a logical sector inside this extent to its physical
    /// sector.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lba` is outside the extent.
    pub fn translate(&self, lba: Lba) -> Pba {
        debug_assert!(lba >= self.lba && lba < self.lba_end());
        self.pba + (lba - self.lba)
    }

    /// Returns `true` if `other` continues this extent both logically and
    /// physically, i.e. the two can be coalesced into one extent.
    pub fn abuts(&self, other: &Extent) -> bool {
        other.lba == self.lba_end() && other.pba == self.pba_end()
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lba {}..{} -> pba {}..{}",
            self.lba,
            self.lba_end(),
            self.pba,
            self.pba_end()
        )
    }
}

/// One piece of a range lookup: either a mapped extent or an unmapped hole.
///
/// Holes matter to the simulator: the paper's disk model stores never-written
/// data "at a physical location corresponding to its LBA" (§III), so holes
/// translate to the identity location at a higher layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// A contiguous mapped piece.
    Mapped(Extent),
    /// An unmapped logical range `[lba, lba + sectors)`.
    Hole {
        /// First unmapped logical sector.
        lba: Lba,
        /// Length of the hole in sectors.
        sectors: u64,
    },
}

impl Segment {
    /// First logical sector of the piece.
    pub fn lba(&self) -> Lba {
        match self {
            Segment::Mapped(e) => e.lba,
            Segment::Hole { lba, .. } => *lba,
        }
    }

    /// Length of the piece in sectors.
    pub fn sectors(&self) -> u64 {
        match self {
            Segment::Mapped(e) => e.sectors,
            Segment::Hole { sectors, .. } => *sectors,
        }
    }

    /// One past the last logical sector of the piece.
    pub fn lba_end(&self) -> Lba {
        self.lba() + self.sectors()
    }

    /// Returns the mapped extent, or `None` for a hole.
    pub fn as_mapped(&self) -> Option<&Extent> {
        match self {
            Segment::Mapped(e) => Some(e),
            Segment::Hole { .. } => None,
        }
    }

    /// Returns `true` for [`Segment::Hole`].
    pub fn is_hole(&self) -> bool {
        matches!(self, Segment::Hole { .. })
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Segment::Mapped(e) => write!(f, "{e}"),
            Segment::Hole { lba, sectors } => {
                write!(f, "hole lba {}..{}", lba, *lba + *sectors)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_geometry() {
        let e = Extent::new(Lba::new(10), 5, Pba::new(100));
        assert_eq!(e.lba_end(), Lba::new(15));
        assert_eq!(e.pba_end(), Pba::new(105));
        assert_eq!(e.translate(Lba::new(12)), Pba::new(102));
    }

    #[test]
    fn abutment_requires_both_spaces() {
        let a = Extent::new(Lba::new(0), 4, Pba::new(100));
        let log_and_phys = Extent::new(Lba::new(4), 4, Pba::new(104));
        let log_only = Extent::new(Lba::new(4), 4, Pba::new(200));
        let phys_only = Extent::new(Lba::new(9), 4, Pba::new(104));
        assert!(a.abuts(&log_and_phys));
        assert!(!a.abuts(&log_only));
        assert!(!a.abuts(&phys_only));
    }

    #[test]
    fn segment_accessors() {
        let m = Segment::Mapped(Extent::new(Lba::new(2), 3, Pba::new(9)));
        let h = Segment::Hole {
            lba: Lba::new(5),
            sectors: 2,
        };
        assert_eq!(m.lba(), Lba::new(2));
        assert_eq!(m.sectors(), 3);
        assert_eq!(m.lba_end(), Lba::new(5));
        assert!(!m.is_hole());
        assert!(m.as_mapped().is_some());
        assert_eq!(h.lba_end(), Lba::new(7));
        assert!(h.is_hole());
        assert!(h.as_mapped().is_none());
    }

    #[test]
    fn display_forms() {
        let e = Extent::new(Lba::new(1), 2, Pba::new(3));
        assert_eq!(e.to_string(), "lba 1..3 -> pba 3..5");
        let h = Segment::Hole {
            lba: Lba::new(9),
            sectors: 1,
        };
        assert_eq!(h.to_string(), "hole lba 9..10");
        assert_eq!(Segment::Mapped(e).to_string(), e.to_string());
    }
}
