//! Error type for trace parsing and serialization.

use crate::types::MAX_END_SECTOR;
use std::error::Error as StdError;
use std::fmt;
use std::io;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while reading or writing traces.
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A line of a text trace, or a record of a binary one, did not parse.
    Parse {
        /// 1-based line number within the input (record number for a
        /// binary trace).
        line: u64,
        /// What was wrong with the line.
        reason: String,
    },
    /// A binary trace had a bad magic number or truncated payload, or a
    /// record cannot be written in the requested format.
    Format(String),
}

impl Error {
    pub(crate) fn parse(line: u64, reason: impl Into<String>) -> Self {
        Error::Parse {
            line,
            reason: reason.into(),
        }
    }

    /// Rejects a request of `sectors` sectors at `sector` that ends past
    /// [`MAX_END_SECTOR`].
    pub(crate) fn check_end(line: u64, sector: u64, sectors: u32) -> Result<()> {
        if sector > MAX_END_SECTOR - u64::from(sectors) {
            return Err(Error::parse(
                line,
                format!("request {sector} + {sectors} ends past sector {MAX_END_SECTOR}"),
            ));
        }
        Ok(())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
            Error::Format(msg) => write!(f, "invalid trace format: {msg}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = Error::parse(3, "bad op");
        assert_eq!(e.to_string(), "parse error at line 3: bad op");
        let e = Error::Format("short header".into());
        assert!(e.to_string().contains("short header"));
        let e = Error::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn source_chains_io() {
        let e = Error::from(io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(Error::Format("y".into()).source().is_none());
    }
}
