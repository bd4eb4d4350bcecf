//! Plot-ready CSV series for every figure.
//!
//! The experiment modules return structured results and render text
//! tables; this module flattens them into the long-format CSV series a
//! plotting tool (gnuplot, matplotlib, vega) consumes to redraw the
//! paper's figures. `smrseek plotdata --out DIR` writes one file per
//! figure.

use crate::experiments::{fig10, fig11, fig2, fig3, fig4, fig5, fig7, fig8, ExpOptions};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

/// CSV for Fig 2: one row per workload with the four seek counts.
pub fn fig2_csv(rows: &[fig2::Fig2Row]) -> String {
    let mut out = String::from("workload,family,nols_read,nols_write,ls_read,ls_write\n");
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            r.workload,
            r.family,
            r.nols.read_seeks,
            r.nols.write_seeks,
            r.ls.read_seeks,
            r.ls.write_seeks
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// CSV for Fig 3: long format, one row per (workload, bucket).
pub fn fig3_csv(series: &[fig3::Fig3Series]) -> String {
    let mut out = String::from("workload,bucket,op_index,ls_minus_nols_long_seeks\n");
    for s in series {
        for (i, &d) in s.diff.iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{}",
                s.workload,
                i,
                i as u64 * s.bucket_ops,
                d
            )
            .expect("writing to String cannot fail");
        }
    }
    out
}

/// CSV for Fig 4: sampled CDF curves, one row per (workload, series, x).
pub fn fig4_csv(cdfs: &[fig4::Fig4Cdfs], points: usize) -> String {
    let mut out = String::from("workload,series,distance_sectors,fraction\n");
    for c in cdfs {
        let (nols, ls) = c.curves(points);
        for (x, f) in nols {
            writeln!(out, "{},NoLS,{x},{f:.6}", c.workload).expect("writing to String cannot fail");
        }
        for (x, f) in ls {
            writeln!(out, "{},LS,{x},{f:.6}", c.workload).expect("writing to String cannot fail");
        }
    }
    out
}

/// CSV for Fig 5: per-workload fragment-count CDF points.
pub fn fig5_csv(dists: &[fig5::Fig5Dist]) -> String {
    let mut out = String::from("workload,fragments_per_read,cdf\n");
    for d in dists {
        for (count, f) in d.cdf_points() {
            writeln!(out, "{},{count},{f:.6}", d.workload).expect("writing to String cannot fail");
        }
    }
    out
}

/// CSV for Fig 7: the write-pattern scatter.
pub fn fig7_csv(patterns: &[fig7::Fig7Pattern]) -> String {
    let mut out = String::from("workload,write_index,lba_sector\n");
    for p in patterns {
        for &(i, lba) in &p.points {
            writeln!(out, "{},{i},{lba}", p.workload).expect("writing to String cannot fail");
        }
    }
    out
}

/// CSV for Fig 8: mis-ordered write fractions.
pub fn fig8_csv(rows: &[fig8::Fig8Row]) -> String {
    let mut out = String::from("workload,misordered,total_writes,fraction\n");
    for r in rows {
        writeln!(
            out,
            "{},{},{},{:.6}",
            r.workload,
            r.misordered,
            r.total_writes,
            r.fraction()
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// CSV for Fig 10: popularity curve + cumulative cache size per fragment
/// rank.
pub fn fig10_csv(stats: &[fig10::Fig10Stats]) -> String {
    let mut out = String::from("workload,rank,access_count,fragment_bytes,cumulative_bytes\n");
    for s in stats {
        let mut cum = 0u64;
        for (rank, f) in s.tracker.popularity().iter().enumerate() {
            cum += f.bytes;
            writeln!(
                out,
                "{},{rank},{},{},{cum}",
                s.workload, f.access_count, f.bytes
            )
            .expect("writing to String cannot fail");
        }
    }
    out
}

/// CSV for Fig 11: one row per workload with the SAF of each bar.
pub fn fig11_csv(rows: &[fig11::Fig11Row]) -> String {
    let mut out = String::from("workload,family,ls,ls_defrag,ls_prefetch,ls_cache\n");
    for r in rows {
        writeln!(
            out,
            "{},{},{:.4},{:.4},{:.4},{:.4}",
            r.workload, r.family, r.ls.total, r.defrag.total, r.prefetch.total, r.cache.total
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Runs every figure experiment on up to `threads` workers and writes its
/// CSV into `dir` (created if needed). Returns the written paths.
///
/// # Errors
///
/// Returns a message if the directory or any file cannot be written.
pub fn export_all(
    opts: &ExpOptions,
    threads: NonZeroUsize,
    dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let files: [(&str, String); 8] = [
        ("fig2.csv", fig2_csv(&fig2::run(opts, threads).0)),
        ("fig3.csv", fig3_csv(&fig3::run(opts, threads).0)),
        ("fig4.csv", fig4_csv(&fig4::run(opts, threads).0, 65)),
        ("fig5.csv", fig5_csv(&fig5::run(opts, threads).0)),
        ("fig7.csv", fig7_csv(&fig7::run(opts, threads))),
        ("fig8.csv", fig8_csv(&fig8::run(opts, threads))),
        ("fig10.csv", fig10_csv(&fig10::run(opts, threads).0)),
        ("fig11.csv", fig11_csv(&fig11::run(opts, threads).0)),
    ];
    let mut written = Vec::with_capacity(files.len());
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 2, ops: 1500 }
    }

    fn parse_csv(s: &str) -> (Vec<String>, Vec<Vec<String>>) {
        let mut lines = s.lines();
        let header: Vec<String> = lines
            .next()
            .expect("has header")
            .split(',')
            .map(str::to_owned)
            .collect();
        let rows = lines
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        (header, rows)
    }

    #[test]
    fn fig11_csv_has_21_rows_and_numeric_cells() {
        let csv = fig11_csv(&fig11::run(&opts(), NonZeroUsize::MIN).0);
        let (header, rows) = parse_csv(&csv);
        assert_eq!(header.len(), 6);
        assert_eq!(rows.len(), 21);
        for row in &rows {
            assert_eq!(row.len(), 6);
            for cell in &row[2..] {
                cell.parse::<f64>().expect("SAF cells are numeric");
            }
        }
    }

    #[test]
    fn fig3_csv_covers_all_buckets() {
        let (series, _) = fig3::run(&opts(), NonZeroUsize::MIN);
        let csv = fig3_csv(&series);
        let (_, rows) = parse_csv(&csv);
        let expected: usize = series.iter().map(|s| s.diff.len()).sum();
        assert_eq!(rows.len(), expected);
    }

    #[test]
    fn fig4_csv_fractions_bounded() {
        let csv = fig4_csv(&fig4::run(&opts(), NonZeroUsize::MIN).0, 17);
        let (_, rows) = parse_csv(&csv);
        assert_eq!(rows.len(), 4 * 2 * 17);
        for row in &rows {
            let f: f64 = row[3].parse().expect("fraction numeric");
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn fig10_csv_cumulative_is_monotone_per_workload() {
        let csv = fig10_csv(&fig10::run(&opts(), NonZeroUsize::MIN).0);
        let (_, rows) = parse_csv(&csv);
        let mut last: Option<(String, u64)> = None;
        for row in &rows {
            let cum: u64 = row[4].parse().expect("cumulative numeric");
            if let Some((w, prev)) = &last {
                if *w == row[0] {
                    assert!(cum >= *prev, "{w}: {cum} < {prev}");
                }
            }
            last = Some((row[0].clone(), cum));
        }
    }

    #[test]
    fn export_all_writes_eight_files() {
        let dir =
            std::env::temp_dir().join(format!("smrseek_plotdata_test_{}", std::process::id()));
        let written = export_all(&opts(), NonZeroUsize::MIN, &dir).expect("export succeeds");
        assert_eq!(written.len(), 8);
        for path in &written {
            let meta = std::fs::metadata(path).expect("file exists");
            assert!(meta.len() > 40, "{} too small", path.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
