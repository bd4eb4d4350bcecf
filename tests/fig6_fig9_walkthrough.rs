//! Step-by-step reproductions of the paper's two worked examples:
//!
//! * **Fig 6** — opportunistic defragmentation on a 6-LBA log: updates
//!   fragment LBAs 1..6; a read of 2..5 incurs three extra seeks; the
//!   defragmented rewrite makes the re-read seek-free; and a later read of
//!   1..2 pays one extra seek *because* of the defragmentation.
//! * **Fig 9** — look-ahead-behind prefetching: updates to LBAs 3, 2, 4
//!   land mis-ordered in the log; a read of 1..5 incurs four extra seeks;
//!   with prefetching the re-read serves LBAs 3 and 4 from the buffer.
//!
//! The paper's figures use 1-indexed LBAs 1..6; we use sectors 0..6.

use smrseek::disk::{PhysIo, SeekCounter};
use smrseek::stl::{DefragConfig, LogStructured, LsConfig, PrefetchConfig};
use smrseek::trace::{Lba, OpKind, Pba, TraceRecord};

const FRONTIER: u64 = 1000;

fn seeks_of(ios: &[PhysIo], counter: &mut SeekCounter) -> u64 {
    let before = counter.stats().total();
    for io in ios {
        counter.observe(io);
    }
    counter.stats().total() - before
}

/// Lane 0's physical operations for `rec`.
fn apply(ls: &mut LogStructured, rec: &TraceRecord) -> Vec<PhysIo> {
    let mut ios = Vec::new();
    ls.apply_into(rec, &mut |io| ios.push(io));
    ios
}

/// Initial state shared by both figures: LBAs 0..6 contiguous at the start
/// of the log.
fn log_with_initial_extent(config: LsConfig) -> (LogStructured, SeekCounter) {
    let mut ls = LogStructured::new(config);
    let mut counter = SeekCounter::new();
    let ios = apply(&mut ls, &TraceRecord::write(0, Lba::new(0), 6));
    seeks_of(&ios, &mut counter);
    (ls, counter)
}

#[test]
fn fig6_defragmentation_walkthrough() {
    let config = LsConfig::new(Lba::new(FRONTIER)).with_defrag(DefragConfig::default());
    let (mut ls, mut counter) = log_with_initial_extent(config);

    // (A) Wr 3 and (B) Wr 5 — two single-sector updates append to the log.
    for (t, lba) in [(1, 2u64), (2, 4u64)] {
        let ios = apply(&mut ls, &TraceRecord::write(t, Lba::new(lba), 1));
        assert_eq!(ios.len(), 1);
        assert_eq!(ios[0].op, OpKind::Write);
        seeks_of(&ios, &mut counter);
    }

    // (C) Rd 2-5: the range is now [1..2)@orig, [2..3)@log, [3..4)@orig,
    // [4..5)@log — four pieces, i.e. three seeks beyond the first.
    let ios = apply(&mut ls, &TraceRecord::read(3, Lba::new(1), 4));
    let reads: Vec<&PhysIo> = ios.iter().filter(|io| io.op == OpKind::Read).collect();
    assert_eq!(reads.len(), 4, "fragmented read splits into four pieces");

    // (D) defragment: the same apply() already appended the rewrite.
    let writes: Vec<&PhysIo> = ios.iter().filter(|io| io.op == OpKind::Write).collect();
    assert_eq!(writes.len(), 1, "opportunistic defragmentation rewrites");
    assert_eq!(writes[0].sectors, 4);
    assert_eq!(
        writes[0].pba,
        Pba::new(FRONTIER + 8),
        "rewrite goes to the frontier"
    );
    seeks_of(&ios, &mut counter);
    assert_eq!(ls.stats().defrag_rewrites, 1);

    // (E) Rd 2-5 again: now a single contiguous piece, zero extra seeks
    // beyond the one seek to reach it.
    let ios = apply(&mut ls, &TraceRecord::read(4, Lba::new(1), 4));
    assert_eq!(ios.len(), 1, "defragmented range reads in one piece");
    assert_eq!(seeks_of(&ios, &mut counter), 1);

    // (F) Rd 1-2: the defragmentation *split* LBAs 0..2 — the figure's
    // point that defragmentation is not free. Reading 0..2 now takes two
    // pieces where the original layout had one.
    let ios = apply(&mut ls, &TraceRecord::read(5, Lba::new(0), 2));
    assert_eq!(
        ios.iter().filter(|io| io.op == OpKind::Read).count(),
        2,
        "read of 1..2 incurs an extra seek as a result of defragmentation"
    );
}

#[test]
fn fig6_without_defrag_keeps_paying() {
    // Control: with plain LS, the (E) re-read pays the three extra seeks
    // every time.
    let (mut ls, _) = log_with_initial_extent(LsConfig::new(Lba::new(FRONTIER)));
    apply(&mut ls, &TraceRecord::write(1, Lba::new(2), 1));
    apply(&mut ls, &TraceRecord::write(2, Lba::new(4), 1));
    for t in 3..6 {
        let ios = apply(&mut ls, &TraceRecord::read(t, Lba::new(1), 4));
        assert_eq!(ios.len(), 4, "fragmentation persists without defrag");
    }
    assert_eq!(ls.stats().defrag_rewrites, 0);
}

#[test]
fn fig9_prefetch_walkthrough() {
    let config = LsConfig::new(Lba::new(FRONTIER)).with_prefetch(PrefetchConfig {
        behind_sectors: 8,
        ahead_sectors: 8,
        buffer_bytes: 1 << 20,
    });
    let (mut ls, _counter) = log_with_initial_extent(config);

    // (A)(B)(C): update LBAs 3, 2, 4 — they land at log offsets 6, 7, 8 in
    // *dispatch* order, not LBA order (mis-ordered writes).
    for (t, lba) in [(1, 3u64), (2, 2u64), (3, 4u64)] {
        let ios = apply(&mut ls, &TraceRecord::write(t, Lba::new(lba), 1));
        assert_eq!(ios[0].pba, Pba::new(FRONTIER + 6 + (t - 1)));
    }

    // (D) Rd 1-5 (sectors 0..5): pieces are [0..2)@log+0, 2@log+7,
    // 3@log+6, 4@log+8 — four pieces, i.e. four seeks without prefetching
    // (the control test below). With look-ahead-behind, the enlarged read
    // around the first piece covers the whole 9-sector neighbourhood where
    // the mis-ordered updates landed, so every other fragment is served
    // from the buffer: the paper's "LBA 3 and LBA 4 are prefetched upon
    // reading LBA 2", taken to its limit by the shared window.
    let ios = apply(&mut ls, &TraceRecord::read(4, Lba::new(0), 5));
    assert_eq!(
        ios.len(),
        1,
        "look-ahead-behind collapses the mis-ordered fragments: {ios:?}"
    );
    assert_eq!(
        ls.stats().prefetch_hit_fragments,
        3,
        "LBAs 2, 3 and 4 served from the buffer"
    );

    // (D') another read of the same range: everything is still buffered.
    let ios = apply(&mut ls, &TraceRecord::read(5, Lba::new(0), 5));
    assert!(
        ios.is_empty(),
        "re-read is fully served from the buffer: {ios:?}"
    );
}

#[test]
fn fig9_without_prefetch_pays_four_extra_seeks() {
    // Control: plain LS pays one physical read per piece.
    let (mut ls, mut counter) = log_with_initial_extent(LsConfig::new(Lba::new(FRONTIER)));
    for (t, lba) in [(1, 3u64), (2, 2u64), (3, 4u64)] {
        apply(&mut ls, &TraceRecord::write(t, Lba::new(lba), 1));
    }
    let ios = apply(&mut ls, &TraceRecord::read(4, Lba::new(0), 5));
    assert_eq!(ios.len(), 4, "four pieces: {ios:?}");
    // The paper counts 5 seeks for this read in total (including reaching
    // the range); our head is at the log frontier after the writes, so all
    // four pieces seek.
    assert_eq!(seeks_of(&ios, &mut counter), 4);
}
