//! Helpers over trace record sequences.

use crate::record::TraceRecord;
use crate::types::Lba;

/// Highest LBA touched by any record, or `None` for an empty trace.
///
/// The log-structured disk model places its write frontier just above this
/// address (§III: "we assume this data is stored at a physical location
/// corresponding to its LBA, and start the write frontier above the highest
/// LBA found in the trace").
pub fn max_lba(records: &[TraceRecord]) -> Option<Lba> {
    records.iter().map(|r| r.end()).max().map(|end| {
        // `end` is one past the last touched sector.
        if end.sector() == 0 {
            Lba::ZERO
        } else {
            end - 1
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_lba_accounts_for_length() {
        let v = vec![
            TraceRecord::write(0, Lba::new(10), 8),
            TraceRecord::read(1, Lba::new(100), 4),
        ];
        assert_eq!(max_lba(&v), Some(Lba::new(103)));
        assert_eq!(max_lba(&[]), None);
    }
}
