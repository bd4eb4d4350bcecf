//! Pins the serialized bytes of every report a `RangeCache` shapes.
//!
//! The selective cache, its flash tier, the prefetch buffer and the host
//! cache all run on `smrseek_cache::RangeCache`. Each configuration below
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

/// The host cache of the host-cache configurations.
const HOST_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Per trace: the digests of LS+prefetch, LS+cache, LS+adaptive, LS with
/// a host cache, LS+prefetch with a host cache and LS+cache with a host
/// cache, in that order.
type Row = (&'static str, usize, [&'static str; 6]);

fn digest(report: &RunReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let hash = json.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u128::from(b)).wrapping_mul(FNV_PRIME)
    });
    format!("{hash:032x}")
}

/// The six pinned configurations, in [`Row`] order.
fn configs() -> [SimConfig; 6] {
    [
        SimConfig::ls_prefetch(),
        SimConfig::ls_cache(),
        SimConfig::ls_adaptive(),
        SimConfig::log_structured().with_host_cache(HOST_CACHE_BYTES),
        SimConfig::ls_prefetch().with_host_cache(HOST_CACHE_BYTES),
        SimConfig::ls_cache().with_host_cache(HOST_CACHE_BYTES),
    ]
}

/// Each configuration replayed alone.
fn inline(trace: &[TraceRecord]) -> Vec<String> {
    configs()
        .iter()
        .map(|c| digest(&Simulation::new(c).run_trace(trace)))
        .collect()
}

/// The same reports from two split groups, each with its LS+cache lane
/// (position 2) on the helper thread.
fn split(trace: &[TraceRecord]) -> Vec<String> {
    let [prefetch, cache, adaptive, host, host_prefetch, host_cache] = configs();
    let lanes = Simulation::run_group(
        &[SimConfig::log_structured(), prefetch, cache, adaptive],
        &[2],
        trace,
    );
    let host_lanes = Simulation::run_group(&[host, host_prefetch, host_cache], &[2], trace);
    lanes[1..].iter().chain(&host_lanes).map(digest).collect()
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
            "3774f73f4cdb6e7f066f49e07d2b5bd4",
            "18378e04e406ea204830271924e6e353",
            "4696d0040ce6f2f96d63270f2d66d1e0",
            "3f2bb6973675ee6f9508d283b4339016",
            "ce1f1b2c67efb8c6c12bf955cb99efec",
            "7c340bc99c6db572234062b8a027d7e2",
        ],
    ),
    (
        "usr_0",
        20_000,
        [
            "f22235cdb368faca6350c683523b7d2e",
            "6a6551f0c523dc75ae0055936e38c49e",
            "e678bb1f9d7f31854e4229b94900a4dd",
            "1a0652e98a1438eb692cbdc593b5307b",
            "13b43cf1b9be16eb2c27eb9c98b58fee",
            "fdc0fc5eafa3e212d69391db318d6fb4",
        ],
    ),
    (
        "src2_2",
        20_000,
        [
            "98c95fc6a944918fa11ee2afa014429b",
            "8e5792bdc451792847620e2a299a2990",
            "68599a8fa47b4c71f86af3755ab992a7",
            "1089d989228cef808c549f9334d65859",
            "4b350dbd119802b1c18c0583de97c56a",
            "86230fc2b4a110eaba32529cb340782f",
        ],
    ),
    (
        "hm_1",
        20_000,
        [
            "b0657cf9687ea39234339db032e6416d",
            "d288e7e382389c533ca30f400ef35e6d",
            "9f41fb2db7a096f6a95f99269ff4d8e4",
            "6233d68eea12b995fb60eee232ea42fc",
            "0bac093a8495a696de103281e542102d",
            "280a0439fb8ba6b4d835793ff63e88e2",
        ],
    ),
    (
        "web_0",
        20_000,
        [
            "f20d996efc3065bb7dc262c8e9e8630d",
            "29636305fe96a64a24a9a892e527c621",
            "19149daa842a637c3d42afa4a398127e",
            "8b1fe588917714b463db988d9fcb63a7",
            "dbeb601d77ac64e063c4b9aecf72abf1",
            "57bffdcc6e091192718520ef7f9461ed",
        ],
    ),
    (
        "usr_1",
        20_000,
        [
            "4a8255ee0f5f5b42fe5b791159552d40",
            "1834659af13ab26e507c08fd06dd8c55",
            "7abe11220bd9d298aab5e2aa9d079d70",
            "6c03164bd291eb8182e9696e009c9455",
            "89e725e9ea53153f1665e517f5b489d3",
            "e5d924da861adeadde72d3e1cd49d2d4",
        ],
    ),
    (
        "wdev_0",
        20_000,
        [
            "43d28c06536317a4258e61587319a711",
            "f35696148f388ca3275bbe75ca364021",
            "c10ef78f7ec606d20fae056013433e7c",
            "9dbfaa07a46ca714086824427de9fc6c",
            "71d2376656bee7f72bdcd0696e075fec",
            "991fb77d5128d9c0286f5b1b2e3faa4b",
        ],
    ),
    (
        "mds_0",
        20_000,
        [
            "ebd8409084e426312b2e3e7af1e2c046",
            "8efb867c5aeb74965a2c612cce95a4b8",
            "b8322abf43aa05893558ead0d0231c08",
            "1487c161b72a2c9fce75167b08de53ae",
            "968e956c66d68c9acba774c7cc5bad3b",
            "f9aa54e3ff5e404b0ac079744057fa74",
        ],
    ),
    (
        "rsrch_0",
        20_000,
        [
            "1dec8f9dc405533d3d635df1335cc844",
            "f18e035b3ef5af2b0f71577ca5b3ce6e",
            "aa50491e20616c94e0aba9723a936655",
            "6799ae60889e596014ae5e0541403529",
            "5aa578f6ec871ff23b33ac621287c800",
            "4466bde0fc0b209f88ad1ac931148073",
        ],
    ),
    (
        "ts_0",
        20_000,
        [
            "f5d4163d374e709d0c8f0eaf2ff8275a",
            "83d2f12592f0acec536f05b1683f0207",
            "1cf5412f572b8a003b12f260f2dce8d7",
            "90d47d4603817a12d0a4ffbd8c62cd34",
            "7f8489db01e211cf95e749defcdacf74",
            "2ee188a576c9e7e75d7601b9b2854446",
        ],
    ),
    (
        "w84",
        20_000,
        [
            "5493cdcd95caaa98f5da89248e7a5511",
            "d8d476f9dbcc7fc5775b79b7083cf7dd",
            "0304f9fdec2f57f5ce82c1add1f25438",
            "6b35e9ad53678242126bbe9adff48474",
            "055f33b7bbe5cc22a6604ece9ab2edcc",
            "99b153acc6f99bc87bad618398a44d7e",
        ],
    ),
    (
        "w95",
        20_000,
        [
            "5e807b0f06d56cc0bf7a8e069b078e6a",
            "40ea51b9ec3054dbed2692a7b773e07e",
            "c1c5cdacf7e576cb146acf28d22a03f1",
            "be637d72956f12026a3d38a880400131",
            "1dbd65117ffc8ceff25bfaa3ed3e650c",
            "c0e996a84e78abc8308c4d0bcb6b69cb",
        ],
    ),
    (
        "w64",
        20_000,
        [
            "12f4fc554a1fc665afcd10fb842dade3",
            "9d6eb7110ba2bfb95542b17b57ea852d",
            "bad5ad7b297e15f14ad1dd08746c41bb",
            "123ddfe20bcd4998b83aa8bbea3a2d2e",
            "35bd6a1a902c868ffb2c854bc0e2f3e8",
            "66bacd999d65e49f1ef76d1501f82cad",
        ],
    ),
    (
        "w93",
        20_000,
        [
            "d1dbb08af32ce8654938614643274fe4",
            "f8685d4f1da58463fc7e6494a677a847",
            "9e84f4b86e5094617944a740b77edcad",
            "255afa1a3dca71375a09681570321b0c",
            "a6607cf38abe163f64ab2644833bfba1",
            "d54972a1c2bfddb78289ad6a773ede03",
        ],
    ),
    (
        "w20",
        20_000,
        [
            "19e02e6d539d62c38665f5032c5f7828",
            "9e26c75f23da98a70bfabf53eae3759e",
            "4c77ceb1d24e71efac269437d96565b8",
            "a159930f83bd28746e60735945b2ca1a",
            "ab3b83e49bbc4e3709c91e23e7cfe8c2",
            "d0cfb58467dbb02d0766ed19615cf830",
        ],
    ),
    (
        "w91",
        20_000,
        [
            "ce6563a7ae617d95f7a28af6caef074d",
            "11b396d21191ba1b693d4086a73d7844",
            "d9747746c7e3c7bbd51b1aae04a50f5b",
            "f29aa37754435f6165cd2084ef286841",
            "5c6d9bad9ed1482c9e65f409e0d156f5",
            "998beb7c2a881334069b31bf1522b383",
        ],
    ),
    (
        "w76",
        20_000,
        [
            "d003bed1e84f1674275dbf8862d266ca",
            "5ec43d8cc2f34331f02a1931ff4b00a6",
            "283ce7ce3ae9458eb2f57e55993bb0cd",
            "38b06cc77adbbae92bb8e9e976685491",
            "a33c250a5a86c7929bd28a60c4ae5c33",
            "db2918c91c75d7c1652116cfcd780cb5",
        ],
    ),
    (
        "w36",
        20_000,
        [
            "8ccd6fb10509d91548d10f1f9bec8d3b",
            "caef50af0b30144f3c6929eac1a0e1b1",
            "2274af7a40080c9c4eabb2271c7975e6",
            "bd59400b9092624c8cb00a54e3cdd10b",
            "fcdfb15c4d6f0587c01b3b48e3f6ac55",
            "c1147ace51b5dbb9e138ab4da0691480",
        ],
    ),
    (
        "w89",
        20_000,
        [
            "015372a6cf1da4c56ba920be0088136a",
            "32463e1a896d31a18d7ec76989e4d779",
            "dee4fe32df134f1a578bfd9684d03b3b",
            "0a09816e7634507775b345d79dca00cb",
            "c3b25b405ffe6b607cc98246e7e14ba1",
            "14dc9984c4a6b41f59e30566ecd059cd",
        ],
    ),
    (
        "w106",
        20_000,
        [
            "430f04e32025134e2c54575bc4b508b7",
            "bdb42fe3b2768e74eff993ca47b125da",
            "d38444edd5dbcca0d80ae10300bcaa1a",
            "001663c9943efa30b74ddbdfc66f4041",
            "253427e37b25a187aa62e13c12f12fcc",
            "e8f9f2a02d37826b94c7502c23dbfe49",
        ],
    ),
    (
        "w55",
        20_000,
        [
            "b85561e1fec711f393887e421fc025e7",
            "fa0b0e479fe32efce74be1567abc2d28",
            "7c5879817b5471431d188968935bfb26",
            "2e6cd50477d73b7eb2e1756697dfc40a",
            "2b5a550de75088c4772d76af25d1b3af",
            "e0d119fb9a985dba86a78d7e9b950c41",
        ],
    ),
    (
        "w33",
        20_000,
        [
            "91ebd7666f3ed0eb956ad7b00f9fa9d1",
            "7767d2cbd71963365cda8bca74a7ce57",
            "aec45a27f3c17eadeb3bcce0053e3773",
            "ce11bd1837c4a6713cf550425a2efc2b",
            "6029c2a3809f750127a4bf616538a3c5",
            "a48cefd0c9b235ff676253bfda2d2783",
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
