//! Pins the serialized bytes of every report a `RangeCache` shapes.
//!
//! The selective cache, its flash tier and the prefetch buffer all run
//! on `smrseek_cache::RangeCache`. Each configuration below
//! exercises one or more of them. Its report, serialized to JSON, is
//! digested with 128-bit FNV-1a (the hash `smrseek_trace::digest` uses)
//! on a 100k-op `w91` stand-in and on all 21 Table-I profiles at 20k ops.
//! Every report is produced twice: once per configuration alone, and once
//! from a split translation group with the selective cache's lane on the
//! helper thread. Both must give the pinned digests, so a change to the
//! cache's internals that moves one hit, fill or eviction fails here.

use smrseek_sim::{RunReport, SimConfig, Simulation};
use smrseek_trace::TraceRecord;
use smrseek_workloads::profiles;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Per trace: the digests of LS+prefetch, LS+cache and LS+adaptive, in
/// that order.
type Row = (&'static str, usize, [&'static str; 3]);

fn digest(report: &RunReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let hash = json.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u128::from(b)).wrapping_mul(FNV_PRIME)
    });
    format!("{hash:032x}")
}

/// The three pinned configurations, in [`Row`] order.
fn configs() -> [SimConfig; 3] {
    [
        SimConfig::ls_prefetch(),
        SimConfig::ls_cache(),
        SimConfig::ls_adaptive(),
    ]
}

/// Each configuration replayed alone.
fn inline(trace: &[TraceRecord]) -> Vec<String> {
    configs()
        .iter()
        .map(|c| digest(&Simulation::new(c).run_trace(trace)))
        .collect()
}

/// The same reports from a split group with its LS+cache lane
/// (position 2) on the helper thread.
fn split(trace: &[TraceRecord]) -> Vec<String> {
    let [prefetch, cache, adaptive] = configs();
    let lanes = Simulation::run_group(
        &[SimConfig::log_structured(), prefetch, cache, adaptive],
        &[2],
        trace,
    );
    lanes[1..].iter().map(digest).collect()
}

/// The pinned traces: `(profile, seed, ops)`.
fn traces() -> Vec<(&'static str, u64, usize)> {
    let mut out = vec![("w91", 42, 100_000)];
    out.extend(profiles::all().iter().map(|p| (p.name, 42, 20_000)));
    out
}

/// Seed 42; the first row is `w91` at 100k ops, the rest each Table-I
/// profile at 20k ops.
const PINNED: &[Row] = &[
    (
        "w91",
        100_000,
        [
            "2ab762ff403e26a785a5d57b5a18735c",
            "d78115edadb71dae66833a9732db0f23",
            "45c89b80e871c28ff9e4a505e9d5dfa4",
        ],
    ),
    (
        "usr_0",
        20_000,
        [
            "d79863a3098deab6a0a268b4fd8b3ae2",
            "bb244828a05ec7f8f27c9dfe521dd576",
            "f441a6ec79ef35d32d4edf0780cf06a1",
        ],
    ),
    (
        "src2_2",
        20_000,
        [
            "62fdc7e9894a0fe6a6c0752155468123",
            "2d24bc4d3054783b8dbc93a15e4276d8",
            "c6e40f4f9354b2f4f390441bae9e620b",
        ],
    ),
    (
        "hm_1",
        20_000,
        [
            "b4e0d2cfbf0b83f81b8b5d08454a0531",
            "c801676e3b64406ac07ac8c008cadb69",
            "aac5f4d44b7e484cf6bf2649c1dc5f30",
        ],
    ),
    (
        "web_0",
        20_000,
        [
            "ea21c954e3c55d1fc753d3595577bf85",
            "ffcd2b7dd145fd3f82d2d0d76ca1435d",
            "1e9af4901119ab0aed7d7da322c7b0aa",
        ],
    ),
    (
        "usr_1",
        20_000,
        [
            "b53e10376efe44a47c42a1651e3b7fdc",
            "72d6b8c76f7f0472b7e327864bf711c1",
            "26ce749ded5e0634c5cb234125235a14",
        ],
    ),
    (
        "wdev_0",
        20_000,
        [
            "5bebdb3c0933bde88d869c3c63f61fcd",
            "9762b3183e185106a8186a5bf785c945",
            "f243e9b5acf1605db4acc23e04ab1a04",
        ],
    ),
    (
        "mds_0",
        20_000,
        [
            "6b11ad2dfe69ca241090c916084310b2",
            "da1b679772832b7e830967e4d95a076c",
            "429a49534b491e11f6fc5fda575cd0d8",
        ],
    ),
    (
        "rsrch_0",
        20_000,
        [
            "7407c8a4d754ebed840e814139dca280",
            "f076c6f6cf11783a34b8b201f7d1334e",
            "82acba07fe9773c255baeeeb49e9238d",
        ],
    ),
    (
        "ts_0",
        20_000,
        [
            "452beff302bebbcf20da75f39a9aa5c6",
            "8f50f9105aaf1443b8b005a4738d6c63",
            "70d907107ce5bca40e2d31f0716e16df",
        ],
    ),
    (
        "w84",
        20_000,
        [
            "5bf796733c74f4b4aa0fe8bdfe66e9b9",
            "687d7d3946c92db1b0396fc1322cb3ad",
            "26d04bb8a72f740a82529fcafee96728",
        ],
    ),
    (
        "w95",
        20_000,
        [
            "5b09186f07dff0c715d6951d600c6e06",
            "ee06e1d08313ff43c037993955ba0f36",
            "d8340220eb75cb579ed2acc88e8ec759",
        ],
    ),
    (
        "w64",
        20_000,
        [
            "2831b9f1dc4112319c4fd1654bdd12cf",
            "972137d32519daa6d262018e3709dda9",
            "85d04b0018fe21786e8e0d6fb8d041cb",
        ],
    ),
    (
        "w93",
        20_000,
        [
            "b029ae500370e82edc59caf7e025f7c8",
            "ed29d012035021545450a11acd342e1f",
            "6c0c06ef02ec464cffce9ac1707f7add",
        ],
    ),
    (
        "w20",
        20_000,
        [
            "345d361ffe6bfba5a8249f14f9350d88",
            "ab804ca8fdee3ba0bdda3b9fe23f8fd6",
            "67f9a73603b9044ea2e95210e891f360",
        ],
    ),
    (
        "w91",
        20_000,
        [
            "345c4477e085c5a76c342c1a899522d5",
            "81890f8ab44bf97e00d52999215898d4",
            "f9fb84f35baf79a9708b0111e4b88e23",
        ],
    ),
    (
        "w76",
        20_000,
        [
            "c416f4ff21818ac67c4578bee46467a6",
            "631f3cf2c054998ceba5586e1ae31e3e",
            "b8c9052f5bc1faf1304732e413c04d65",
        ],
    ),
    (
        "w36",
        20_000,
        [
            "af5f24473105156973cb6b0dfb0d1bdf",
            "bbfe26ffae36fb70adcb18b94fabb609",
            "70cbf69dc1808e99646e1a1f2510a702",
        ],
    ),
    (
        "w89",
        20_000,
        [
            "f86f9c4689098355cf71da79512f793a",
            "b16715db6665a6052b45ca35718cdc95",
            "e28c6c11e9e3ae46585df89cd769f8ff",
        ],
    ),
    (
        "w106",
        20_000,
        [
            "8000043083710b0375869d28f622ae63",
            "117b38740f6bd24d1482f4ce0427a18a",
            "af755480d0e5f9aade8db7cb31ce760e",
        ],
    ),
    (
        "w55",
        20_000,
        [
            "78456c7bfaff9cc8ab1e6dd6b26b137f",
            "afa951113d022248fe8944264658daa4",
            "e6116d2c7fa63f8f0def2ebbb18a096a",
        ],
    ),
    (
        "w33",
        20_000,
        [
            "7fead03a9cca202f0823f3f2ac18d5c5",
            "73a100f02c40b6e4f361c9ddfbb53cdf",
            "09642b4e82ff3514f997678c4411251b",
        ],
    ),
];

#[test]
fn cache_bearing_reports_match_their_pinned_digests() {
    let traces = traces();
    let rows: Vec<_> = std::thread::scope(|s| {
        let worker = |part: &[(&'static str, u64, usize)]| {
            part.iter()
                .map(|&(name, seed, ops)| {
                    let profile = profiles::by_name(name).expect("Table-I profile");
                    let trace = profile.generate_scaled(seed, ops);
                    (inline(&trace), split(&trace))
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = traces.split_at(traces.len() / 2);
        let other = s.spawn(move || worker(b));
        let mut rows = worker(a);
        rows.extend(other.join().expect("worker"));
        rows
    });
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for (i, (&(name, _, ops), (inline, split))) in traces.iter().zip(&rows).enumerate() {
        table.push_str(&format!("    (\"{name}\", {ops}, {inline:?}),\n"));
        if inline != split {
            mismatches.push(format!("{name}: split {split:?}, inline {inline:?}"));
        }
        match PINNED.get(i) {
            Some(&(n, o, pinned)) if (n, o) == (name, ops) && inline == &pinned => {}
            pinned => mismatches.push(format!("{name} {ops}: {inline:?}, pinned {pinned:?}")),
        }
    }
    if PINNED.len() != traces.len() {
        mismatches.push(format!(
            "{} pinned rows for {} traces",
            PINNED.len(),
            traces.len()
        ));
    }
    assert!(
        mismatches.is_empty(),
        "{}\ncurrent table:\n{table}",
        mismatches.join("\n")
    );
}
