//! Model-based correctness tests for the log-structured layer: a
//! sector-granular reference model tracks where the newest version of
//! every logical sector must live; the layer's translation must agree
//! after arbitrary write/read sequences.

use proptest::prelude::*;
use smrseek::disk::PhysIo;
use smrseek::stl::{LogStructured, LsConfig};
use smrseek::trace::{Lba, OpKind, Pba, TraceRecord};
use std::collections::HashMap;

const SPACE: u64 = 4096; // logical sectors
const FRONTIER: u64 = 1 << 20;

#[derive(Debug, Clone)]
enum Op {
    Write { lba: u64, len: u64 },
    Read { lba: u64, len: u64 },
}

/// Lane 0's physical operations for `rec`.
fn apply(ls: &mut LogStructured, rec: &TraceRecord) -> Vec<PhysIo> {
    let mut ios = Vec::new();
    ls.apply_into(rec, &mut |io| ios.push(io));
    ios
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..SPACE, 1..64u64).prop_map(|(lba, len)| Op::Write { lba, len }),
        1 => (0..SPACE, 1..128u64).prop_map(|(lba, len)| Op::Read { lba, len }),
    ]
}

/// Reference: logical sector -> physical sector of its newest version.
/// Unwritten sectors live at their identity location.
#[derive(Default)]
struct Model {
    sectors: HashMap<u64, u64>,
    frontier: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            sectors: HashMap::new(),
            frontier: FRONTIER,
        }
    }

    fn write(&mut self, lba: u64, len: u64) {
        for i in 0..len {
            self.sectors.insert(lba + i, self.frontier + i);
        }
        self.frontier += len;
    }

    fn location(&self, sector: u64) -> u64 {
        self.sectors.get(&sector).copied().unwrap_or(sector)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every physical run returned by a read covers exactly the sectors
    /// the model says, in logical order, with no gaps and no overlap.
    #[test]
    fn reads_fetch_newest_versions(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut ls = LogStructured::new(LsConfig::new(Lba::new(FRONTIER)));
        let mut model = Model::new();
        let mut t = 0u64;
        for op in &ops {
            t += 1;
            match *op {
                Op::Write { lba, len } => {
                    let ios = apply(&mut ls, &TraceRecord::write(
                        t, Lba::new(lba), u32::try_from(len).unwrap(),
                    ));
                    prop_assert_eq!(ios.len(), 1);
                    prop_assert_eq!(ios[0].pba, Pba::new(model.frontier));
                    model.write(lba, len);
                }
                Op::Read { lba, len } => {
                    let ios = apply(&mut ls, &TraceRecord::read(
                        t, Lba::new(lba), u32::try_from(len).unwrap(),
                    ));
                    // Walk the returned runs against the model sector by
                    // sector, in logical order.
                    let mut logical = lba;
                    for io in &ios {
                        prop_assert_eq!(io.op, OpKind::Read);
                        for k in 0..io.sectors {
                            prop_assert_eq!(
                                io.pba.sector() + k,
                                model.location(logical),
                                "logical sector {} of read {}..{}",
                                logical, lba, lba + len
                            );
                            logical += 1;
                        }
                    }
                    prop_assert_eq!(logical, lba + len, "runs must tile the read");
                }
            }
        }
    }

    /// The frontier only ever advances, by exactly the written volume.
    #[test]
    fn frontier_is_monotone(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut ls = LogStructured::new(LsConfig::new(Lba::new(FRONTIER)));
        let mut written = 0u64;
        let mut t = 0u64;
        for op in &ops {
            t += 1;
            match *op {
                Op::Write { lba, len } => {
                    apply(&mut ls, &TraceRecord::write(t, Lba::new(lba), u32::try_from(len).unwrap()));
                    written += len;
                }
                Op::Read { lba, len } => {
                    apply(&mut ls, &TraceRecord::read(t, Lba::new(lba), u32::try_from(len).unwrap()));
                }
            }
            prop_assert_eq!(ls.frontier(), Pba::new(FRONTIER + written));
        }
    }

    /// Physical runs returned by a read are maximal: no two consecutive
    /// runs are physically adjacent (they would have been merged). Plain
    /// LS reads each run once, in order, and rewrites nothing.
    #[test]
    fn runs_are_maximal(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut ls = LogStructured::new(LsConfig::new(Lba::new(FRONTIER)));
        let mut t = 0u64;
        for op in &ops {
            t += 1;
            if let Op::Write { lba, len } = *op {
                apply(&mut ls, &TraceRecord::write(t, Lba::new(lba), u32::try_from(len).unwrap()));
            }
        }
        for &(lba, len) in &[(0u64, 256u64), (SPACE / 2, 512), (SPACE - 64, 64)] {
            t += 1;
            let runs = apply(&mut ls, &TraceRecord::read(t, Lba::new(lba), u32::try_from(len).unwrap()));
            let total: u64 = runs.iter().map(|io| io.sectors).sum();
            prop_assert_eq!(total, len);
            for pair in runs.windows(2) {
                prop_assert_ne!(
                    pair[0].end(),
                    pair[1].pba,
                    "adjacent runs must be merged"
                );
            }
        }
    }

    /// Mechanisms never change *what* is read, only *where from*: with a
    /// selective cache, the sectors fetched from disk plus those served
    /// from cache must cover each read exactly.
    #[test]
    fn cache_preserves_read_coverage(ops in prop::collection::vec(op_strategy(), 1..60)) {
        use smrseek::stl::CacheConfig;
        let mut plain = LogStructured::new(LsConfig::new(Lba::new(FRONTIER)));
        let mut cached = LogStructured::new(
            LsConfig::new(Lba::new(FRONTIER)).with_cache(CacheConfig::default()),
        );
        let mut t = 0u64;
        for op in &ops {
            t += 1;
            let rec = match *op {
                Op::Write { lba, len } => {
                    TraceRecord::write(t, Lba::new(lba), u32::try_from(len).unwrap())
                }
                Op::Read { lba, len } => {
                    TraceRecord::read(t, Lba::new(lba), u32::try_from(len).unwrap())
                }
            };
            let plain_ios = apply(&mut plain, &rec);
            let cached_ios = apply(&mut cached, &rec);
            // Cached runs are a subset of plain runs (hits disappear).
            for io in &cached_ios {
                prop_assert!(
                    plain_ios.contains(io),
                    "cached layer fetched {io} which plain layer would not"
                );
            }
            prop_assert!(cached_ios.len() <= plain_ios.len());
        }
        // Cache hits + misses == fragments seen by the plain layer.
        let p = plain.stats();
        let c = cached.stats();
        prop_assert_eq!(p.fragmented_reads, c.fragmented_reads);
    }
}

#[test]
fn frontier_starts_where_configured() {
    let ls = LogStructured::new(LsConfig::new(Lba::new(777)));
    assert_eq!(ls.frontier(), Pba::new(777));
    assert!(ls.map().is_empty());
}
