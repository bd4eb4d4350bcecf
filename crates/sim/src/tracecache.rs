//! Trace files for long-lived processes and the `convert` command.
//!
//! * [`TraceRegistry`] — loads each version of a trace file once (any
//!   format, sniffed by [`sniff_path`] and read into memory by
//!   [`parse_path`]), digests it, and shares the resulting [`TraceSource`]
//!   with every job that names the same path while the file is unchanged.
//! * [`write_smrt`] — atomically writes records as a `.smrt` file, so a
//!   trace converted once skips text parsing on every later load.

use crate::runner::TraceSource;
use smrseek_trace::binary::write_binary;
use smrseek_trace::digest::digest_records;
use smrseek_trace::parse::{parse_path, sniff_path};
use smrseek_trace::{TraceDigest, TraceRecord};
use std::collections::HashMap;
use std::fs::Metadata;
use std::io::{BufWriter, Write as _};
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Writes `records` to `path` in the binary format, atomically: the
/// bytes land in a same-directory temp file first and are renamed into
/// place, so a concurrent reader never sees a torn file.
///
/// # Errors
///
/// Returns the underlying I/O error message on failure (the temp file is
/// cleaned up best-effort).
pub fn write_smrt(path: &Path, records: &[TraceRecord]) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let tmp = path.with_extension(format!("smrt.tmp.{}", std::process::id()));
    let result = (|| {
        let file = std::fs::File::create(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let mut writer = BufWriter::new(file);
        write_binary(&mut writer, records)
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        writer
            .flush()
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot rename into {}: {e}", path.display()))
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// One trace held open by a [`TraceRegistry`]: the replayable source plus
/// its identity, computed once at load time so no job ever re-digests the
/// records.
#[derive(Debug, Clone)]
pub struct RegisteredTrace {
    /// The replayable source (one shared in-memory record vector).
    pub source: TraceSource,
    /// Stable content digest — the daemon's result-cache identity.
    pub digest: TraceDigest,
}

/// Which version of a file a registry entry was loaded from: a file
/// rewritten in place changes its length or modification time, and one
/// replaced by a rename changes its inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileStamp {
    len: u64,
    modified: Option<SystemTime>,
    inode: u64,
}

impl FileStamp {
    fn of(meta: &Metadata) -> Self {
        FileStamp {
            len: meta.len(),
            modified: meta.modified().ok(),
            inode: meta.ino(),
        }
    }
}

/// A shared registry of open traces for long-lived processes: each version
/// of a path is sniffed, loaded into memory and digested exactly once, and
/// every job replaying it thereafter shares the same [`TraceSource`] — one
/// record vector serving every concurrent worker.
#[derive(Debug, Default)]
pub struct TraceRegistry {
    entries: Mutex<HashMap<PathBuf, (FileStamp, Arc<RegisteredTrace>)>>,
}

impl TraceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TraceRegistry::default()
    }

    /// Loads the trace at `path`, whose metadata the caller read as
    /// `meta`, or returns the entry already loaded from the same version
    /// of the file: same length, modification time and inode. A changed
    /// file is loaded afresh and replaces its path's entry. Paths are keyed
    /// by their canonicalized form, so `./t.csv` and an absolute path to
    /// the same file share one entry.
    ///
    /// The registry lock is deliberately held across a cold load: when
    /// many jobs name the same cold trace at once, one loads and digests
    /// it while the rest wait for the entry, instead of N workers parsing
    /// the same file in parallel.
    ///
    /// # Errors
    ///
    /// Propagates open/sniff/parse failures from [`smrseek_trace`].
    pub fn load(
        &self,
        path: &Path,
        meta: &Metadata,
    ) -> smrseek_trace::Result<Arc<RegisteredTrace>> {
        let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
        let stamp = FileStamp::of(meta);
        let mut entries = self.entries.lock().expect("registry lock poisoned");
        if let Some((loaded, entry)) = entries.get(&key) {
            if *loaded == stamp {
                return Ok(Arc::clone(entry));
            }
        }
        let records = parse_path(path, sniff_path(path)?)?;
        let entry = Arc::new(RegisteredTrace {
            digest: digest_records(&records),
            source: TraceSource::from_records(path.display().to_string(), records),
        });
        entries.insert(key, (stamp, Arc::clone(&entry)));
        Ok(entry)
    }

    /// Number of traces currently registered.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock poisoned").len()
    }

    /// Whether no trace has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_workloads::profiles;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("smrseek_tracecache_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn write_smrt_roundtrips_atomically() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("t.smrt");
        let records = profiles::by_name("hm_1")
            .expect("profile exists")
            .generate_scaled(3, 500);
        write_smrt(&path, &records).expect("binary trace written");
        let bytes = std::fs::read(&path).expect("binary trace read back");
        assert_eq!(
            smrseek_trace::binary::read_binary(&bytes[..]).expect("binary trace parses"),
            records
        );
        assert_eq!(smrseek_trace::binary::sniff_magic(&bytes), Some(1));
        assert!(
            std::fs::read_dir(&dir).expect("dir listed").all(|e| !e
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .contains("tmp")),
            "no temp files left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_loads_each_path_once_and_keys_canonically() {
        use smrseek_trace::writer::write_cp_csv;

        let dir = tmp_dir("registry");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let records = profiles::by_name("hm_1")
            .expect("profile exists")
            .generate_scaled(5, 300);

        // One CSV and one binary copy of the same records.
        let csv = dir.join("t.csv");
        let mut f = std::fs::File::create(&csv).expect("csv created");
        write_cp_csv(&mut f, &records).expect("csv written");
        let smrt = dir.join("t.smrt");
        write_smrt(&smrt, &records).expect("binary trace written");

        let load =
            |registry: &TraceRegistry, path: &Path| registry.load(path, &std::fs::metadata(path)?);
        let registry = TraceRegistry::new();
        assert!(registry.is_empty());
        let via_csv = load(&registry, &csv).expect("csv loads");
        let via_smrt = load(&registry, &smrt).expect("binary loads");
        assert_eq!(registry.len(), 2);
        assert_eq!(
            via_csv.digest, via_smrt.digest,
            "digest is content-addressed, not format-addressed"
        );
        assert_eq!(via_csv.digest, digest_records(&records));

        // A second load of the same file (via a relative-ish alias) hits
        // the existing entry instead of re-parsing.
        let again = load(&registry, &csv).expect("cached load");
        assert!(Arc::ptr_eq(&again, &via_csv));
        assert_eq!(registry.len(), 2);

        // A rewritten file is a new version: loaded afresh, in place of
        // the old entry.
        let shorter = &records[..records.len() / 2];
        let mut f = std::fs::File::create(&csv).expect("csv recreated");
        write_cp_csv(&mut f, shorter).expect("csv rewritten");
        let fresh = load(&registry, &csv).expect("rewritten csv loads");
        assert!(!Arc::ptr_eq(&fresh, &via_csv));
        assert_eq!(fresh.digest, digest_records(shorter));
        assert_eq!(registry.len(), 2);

        assert!(load(&registry, &dir.join("missing.csv")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
