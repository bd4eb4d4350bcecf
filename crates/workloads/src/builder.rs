//! The deterministic trace builder and its archetype operations.
//!
//! Each method appends operations shaped like one of the behaviours the
//! paper identifies in real traces:
//!
//! * ascending sequential streams (ordinary well-behaved I/O),
//! * uniform random writes/reads (the fragmentation source),
//! * *descending chunk bursts* — Fig 7a's pattern from `hm_1`, where
//!   contiguous ranges are dispatched in descending order,
//! * *interleaved ascending streams* — §IV-B's "multiple sequential write
//!   streams interleaved on their way to the disk",
//! * sequential *scans* (the read pattern that pays for random writes),
//! * *temporal replay* reads (reading data in the order it was written —
//!   the log-friendly case of §III),
//! * *Zipf re-reads* of previously written ranges (Fig 10's skew).

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smrseek_trace::{Lba, OpKind, TraceRecord};

/// A deterministic builder of synthetic block traces.
///
/// # Example
///
/// ```
/// use smrseek_workloads::TraceBuilder;
/// use smrseek_trace::Lba;
///
/// let mut b = TraceBuilder::new(42);
/// b.write_sequential(Lba::new(0), 10, 8);
/// b.read_scan(Lba::new(0), 80, 16);
/// let trace = b.finish();
/// assert_eq!(trace.len(), 10 + 5);
/// assert!(trace.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    rng: StdRng,
    clock_us: u64,
    /// Mean microseconds between operations.
    interarrival_us: u64,
    records: Vec<TraceRecord>,
    /// Ranges written so far, in temporal order, for replay/zipf reads.
    written_ranges: Vec<(Lba, u32)>,
    /// Zipf prefix sums over `written_ranges`' ranks, kept across read
    /// bursts and extended as ranges are written; replaced only when a
    /// burst asks for another θ.
    zipf: Option<Zipf>,
}

impl TraceBuilder {
    /// Creates a builder seeded with `seed` (same seed ⇒ same trace).
    pub fn new(seed: u64) -> Self {
        TraceBuilder::with_write_capacity(seed, 0)
    }

    /// Creates a builder seeded with `seed` with room for `writes` written
    /// ranges, and as many Zipf re-read ranks, before either reallocates.
    pub(crate) fn with_write_capacity(seed: u64, writes: usize) -> Self {
        TraceBuilder {
            rng: StdRng::seed_from_u64(seed),
            clock_us: 0,
            interarrival_us: 1_000,
            records: Vec::new(),
            written_ranges: Vec::with_capacity(writes),
            zipf: None,
        }
    }

    /// Sets the mean operation inter-arrival time in microseconds.
    pub fn interarrival_us(&mut self, us: u64) -> &mut Self {
        self.interarrival_us = us.max(1);
        self
    }

    /// Advances the clock by `us` microseconds without emitting an
    /// operation — an idle gap (end of a burst, a quiet diurnal phase).
    pub fn advance_clock(&mut self, us: u64) -> &mut Self {
        self.clock_us += us;
        self
    }

    /// Number of operations so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no operations were generated yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ranges written so far, oldest first.
    pub fn written_ranges(&self) -> &[(Lba, u32)] {
        &self.written_ranges
    }

    /// Consumes the builder, returning the trace.
    pub fn finish(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Crate-internal access to the RNG for recipe engines.
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn tick(&mut self) -> u64 {
        let jitter = self.rng.gen_range(0..=self.interarrival_us);
        self.clock_us += self.interarrival_us / 2 + jitter;
        self.clock_us
    }

    /// Emits one raw operation.
    pub fn push(&mut self, op: OpKind, lba: Lba, sectors: u32) {
        let sectors = sectors.max(1);
        let ts = self.tick();
        self.records.push(TraceRecord::new(ts, op, lba, sectors));
        if op == OpKind::Write {
            self.written_ranges.push((lba, sectors));
        }
    }

    /// Draws an op size around `mean_sectors`: a geometric-tailed multiple
    /// of 8 sectors (4 KiB), in `[8, 4096]`.
    pub fn sample_size(&mut self, mean_sectors: u32) -> u32 {
        let mean = f64::from(mean_sectors.max(8));
        // Exponential with the requested mean, quantized to 4 KiB blocks.
        let u: f64 = self.rng.gen_range(1e-9..1.0f64);
        let raw = -mean * u.ln();
        let quantized = ((raw / 8.0).round() as u32) * 8;
        quantized.clamp(8, 4096)
    }

    // ----- write archetypes ------------------------------------------------

    /// `count` writes of `sectors_each` sectors, ascending from `start`.
    pub fn write_sequential(&mut self, start: Lba, count: usize, sectors_each: u32) {
        let mut at = start;
        for _ in 0..count {
            self.push(OpKind::Write, at, sectors_each);
            at += u64::from(sectors_each);
        }
    }

    /// `count` writes of mean size `mean_sectors`, placed uniformly at
    /// random (4 KiB-aligned) inside `[region_start, region_start + region_sectors)`.
    pub fn write_random(
        &mut self,
        region_start: Lba,
        region_sectors: u64,
        count: usize,
        mean_sectors: u32,
    ) {
        for _ in 0..count {
            let size = self.sample_size(mean_sectors);
            let span = region_sectors.saturating_sub(u64::from(size)).max(8);
            let offset = self.rng.gen_range(0..span) / 8 * 8;
            self.push(OpKind::Write, region_start + offset, size);
        }
    }

    /// Fig 7a's pattern: a contiguous region written as `chunks` chunks in
    /// **descending** chunk order, each chunk itself written ascending.
    /// Every chunk-boundary write is mis-ordered (its logical successor was
    /// already dispatched).
    pub fn write_descending_chunks(
        &mut self,
        region_start: Lba,
        chunks: usize,
        ops_per_chunk: usize,
        sectors_each: u32,
    ) {
        let chunk_span = (ops_per_chunk as u64) * u64::from(sectors_each);
        for c in (0..chunks).rev() {
            let base = region_start + c as u64 * chunk_span;
            for i in 0..ops_per_chunk {
                self.push(
                    OpKind::Write,
                    base + i as u64 * u64::from(sectors_each),
                    sectors_each,
                );
            }
        }
    }

    /// §IV-B's interleaving: `streams` ascending sequential write streams,
    /// dispatched round-robin. `count` total writes.
    pub fn write_interleaved(
        &mut self,
        region_start: Lba,
        streams: usize,
        count: usize,
        sectors_each: u32,
    ) {
        assert!(streams > 0, "need at least one stream");
        let per_stream = (count / streams + 1) as u64 * u64::from(sectors_each);
        let mut cursors: Vec<Lba> = (0..streams)
            .map(|s| region_start + s as u64 * per_stream)
            .collect();
        for i in 0..count {
            let s = i % streams;
            self.push(OpKind::Write, cursors[s], sectors_each);
            cursors[s] += u64::from(sectors_each);
        }
    }

    // ----- read archetypes -------------------------------------------------

    /// One ascending sequential scan of `[start, start + span_sectors)` in
    /// reads of `sectors_each`.
    pub fn read_scan(&mut self, start: Lba, span_sectors: u64, sectors_each: u32) {
        let mut at = start;
        let end = start + span_sectors;
        while at < end {
            let len = u32::try_from((end - at).min(u64::from(sectors_each))).expect("bounded");
            self.push(OpKind::Read, at, len);
            at += u64::from(len);
        }
    }

    /// `count` reads of mean size `mean_sectors`, uniform over the region.
    pub fn read_random(
        &mut self,
        region_start: Lba,
        region_sectors: u64,
        count: usize,
        mean_sectors: u32,
    ) {
        for _ in 0..count {
            let size = self.sample_size(mean_sectors);
            let span = region_sectors.saturating_sub(u64::from(size)).max(8);
            let offset = self.rng.gen_range(0..span) / 8 * 8;
            self.push(OpKind::Read, region_start + offset, size);
        }
    }

    /// Temporal replay: re-reads the `count` most recent written ranges in
    /// the order they were written (the log-friendly case: read order
    /// mimics write order, §III's small-file example).
    pub fn read_replay_recent(&mut self, count: usize) {
        let n = self.written_ranges.len();
        let start = n.saturating_sub(count);
        let targets: Vec<(Lba, u32)> = self.written_ranges[start..].to_vec();
        for (lba, sectors) in targets {
            self.push(OpKind::Read, lba, sectors);
        }
    }

    /// `count` reads drawn Zipf(θ)-skewed over the distinct ranges written
    /// so far (most recent ranks most popular). No-op when nothing was
    /// written.
    pub fn read_zipf_written(&mut self, count: usize, theta: f64) {
        if self.written_ranges.is_empty() {
            return;
        }
        for _ in 0..count {
            let (lba, sectors) = self.zipf_written_range(theta);
            self.push(OpKind::Read, lba, sectors);
        }
    }

    /// Reads spanning previously-written ranges *and* their neighbourhood:
    /// each read covers a written range widened by `halo_sectors` on both
    /// sides, so it crosses log-fragment boundaries (guaranteeing
    /// fragmented reads under LS translation). Targets are Zipf-skewed.
    pub fn read_straddling_written(&mut self, count: usize, theta: f64, halo_sectors: u32) {
        if self.written_ranges.is_empty() {
            return;
        }
        for _ in 0..count {
            let (lba, sectors) = self.zipf_written_range(theta);
            let start = Lba::new(lba.sector().saturating_sub(u64::from(halo_sectors)));
            self.push(OpKind::Read, start, sectors + 2 * halo_sectors);
        }
    }

    /// One Zipf(θ) draw over the ranges written so far, rank 0 the most
    /// recent. The kept table is extended in place to the ranges written
    /// since the last draw; a new θ starts a new table with room for as
    /// many ranks as `written_ranges` has.
    fn zipf_written_range(&mut self, theta: f64) -> (Lba, u32) {
        let zipf = match &mut self.zipf {
            Some(z) if z.theta() == theta => z,
            slot => slot.insert(Zipf::with_capacity(theta, self.written_ranges.capacity())),
        };
        let n = self.written_ranges.len();
        zipf.extend_to(n);
        let rank = zipf.sample(&mut self.rng);
        self.written_ranges[n - 1 - rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_monotone_nondecreasing() {
        let mut b = TraceBuilder::new(1);
        b.write_random(Lba::new(0), 1 << 20, 100, 16);
        b.read_random(Lba::new(0), 1 << 20, 100, 16);
        let t = b.finish();
        assert!(t.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn determinism() {
        let gen = |seed| {
            let mut b = TraceBuilder::new(seed);
            b.write_random(Lba::new(0), 1 << 16, 50, 32);
            b.read_zipf_written(50, 1.0);
            b.finish()
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }

    #[test]
    fn sequential_write_layout() {
        let mut b = TraceBuilder::new(0);
        b.write_sequential(Lba::new(100), 3, 8);
        let t = b.finish();
        assert_eq!(t[0].lba, Lba::new(100));
        assert_eq!(t[1].lba, Lba::new(108));
        assert_eq!(t[2].lba, Lba::new(116));
        assert!(t.iter().all(|r| r.op == OpKind::Write && r.sectors == 8));
    }

    #[test]
    fn random_writes_stay_in_region() {
        let mut b = TraceBuilder::new(3);
        b.write_random(Lba::new(1000), 4096, 200, 16);
        for r in b.finish() {
            assert!(r.lba >= Lba::new(1000));
            assert!(r.end() <= Lba::new(1000 + 4096 + 4096)); // size cap slack
            assert_eq!(r.lba.sector() % 8, 0, "4 KiB aligned");
        }
    }

    #[test]
    fn descending_chunks_are_misordered() {
        let mut b = TraceBuilder::new(0);
        b.write_descending_chunks(Lba::new(0), 3, 2, 8);
        let t = b.finish();
        let lbas: Vec<u64> = t.iter().map(|r| r.lba.sector()).collect();
        assert_eq!(lbas, vec![32, 40, 16, 24, 0, 8]);
    }

    #[test]
    fn interleaved_streams_ascend_individually() {
        let mut b = TraceBuilder::new(0);
        b.write_interleaved(Lba::new(0), 2, 6, 8);
        let t = b.finish();
        let lbas: Vec<u64> = t.iter().map(|r| r.lba.sector()).collect();
        // Streams at 0.. and per_stream offset, round robin.
        assert_eq!(lbas[0], 0);
        assert_eq!(lbas[2], 8);
        assert_eq!(lbas[4], 16);
        assert!(lbas[1] > 16);
        assert_eq!(lbas[3], lbas[1] + 8);
    }

    #[test]
    fn scan_covers_span_exactly() {
        let mut b = TraceBuilder::new(0);
        b.read_scan(Lba::new(10), 100, 16);
        let t = b.finish();
        let total: u64 = t.iter().map(|r| u64::from(r.sectors)).sum();
        assert_eq!(total, 100);
        assert_eq!(t[0].lba, Lba::new(10));
        assert_eq!(t.last().unwrap().end(), Lba::new(110));
        // Consecutive scan ops are contiguous.
        assert!(t.windows(2).all(|w| w[0].end() == w[1].lba));
    }

    #[test]
    fn replay_reads_in_write_order() {
        let mut b = TraceBuilder::new(0);
        b.write_sequential(Lba::new(0), 2, 8);
        b.write_random(Lba::new(1 << 20), 1 << 16, 2, 8);
        b.read_replay_recent(3);
        let t = b.finish();
        assert_eq!(t.len(), 7);
        let reads: Vec<_> = t.iter().filter(|r| r.op == OpKind::Read).collect();
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[0].lba, t[1].lba); // 2nd write
        assert_eq!(reads[1].lba, t[2].lba);
        assert_eq!(reads[2].lba, t[3].lba);
    }

    #[test]
    fn zipf_reads_prefer_recent() {
        let mut b = TraceBuilder::new(11);
        b.write_sequential(Lba::new(0), 100, 8);
        b.read_zipf_written(1000, 1.2);
        let t = b.finish();
        let last_write_lba = Lba::new(99 * 8);
        let hot = t
            .iter()
            .filter(|r| r.op == OpKind::Read && r.lba == last_write_lba)
            .count();
        assert!(hot > 50, "most recent range must dominate, got {hot}");
    }

    #[test]
    fn zipf_table_follows_the_writes_and_each_bursts_theta() {
        let mut b = TraceBuilder::with_write_capacity(4, 300);
        b.write_random(Lba::new(0), 1 << 16, 100, 8);
        b.read_zipf_written(50, 0.8);
        b.write_random(Lba::new(0), 1 << 16, 100, 8);
        b.read_straddling_written(50, 0.8, 16);
        assert_eq!(b.zipf.as_ref().map(Zipf::len), Some(200));

        // A new θ must draw exactly as a table built for it from scratch.
        let mut fresh = b.clone();
        fresh.zipf = None;
        b.read_zipf_written(50, 1.6);
        fresh.read_zipf_written(50, 1.6);
        assert_eq!(b.zipf, fresh.zipf);
        assert_eq!(b.finish(), fresh.finish());
    }

    #[test]
    fn zipf_on_empty_is_noop() {
        let mut b = TraceBuilder::new(0);
        b.read_zipf_written(10, 1.0);
        b.read_straddling_written(10, 1.0, 8);
        assert!(b.is_empty());
    }

    #[test]
    fn straddling_reads_widen() {
        let mut b = TraceBuilder::new(0);
        b.write_random(Lba::new(10_000), 1 << 16, 1, 8);
        let (wlba, wsec) = b.written_ranges()[0];
        b.read_straddling_written(1, 1.0, 16);
        let t = b.finish();
        let read = t.last().unwrap();
        assert_eq!(read.op, OpKind::Read);
        assert_eq!(read.lba, Lba::new(wlba.sector() - 16));
        assert_eq!(read.sectors, wsec + 32);
    }

    #[test]
    fn size_sampler_statistics() {
        let mut b = TraceBuilder::new(2);
        let n = 5000;
        let mean_target = 64u32;
        let sum: u64 = (0..n).map(|_| u64::from(b.sample_size(mean_target))).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - f64::from(mean_target)).abs() < 12.0,
            "sampled mean {mean} too far from {mean_target}"
        );
        for _ in 0..100 {
            let s = b.sample_size(mean_target);
            assert!((8..=4096).contains(&s) && s.is_multiple_of(8));
        }
    }
}
