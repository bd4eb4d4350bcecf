//! Pins the bytes of every generated stand-in trace.
//!
//! Each Table-I profile's trace at two (seed, ops) points is digested with
//! the record digest the daemon's trace cache keys on. Any change to the
//! generator that moves one record (its timestamp, op, address or length)
//! moves a digest, so a performance change to the generator must leave
//! these tables as they are.

use smrseek_trace::digest::digest_records;
use smrseek_workloads::profiles;

/// `(profile, digest, records)` rows, one per Table-I profile.
type Table = &'static [(&'static str, &'static str, usize)];

/// At seed 42, 20,000 ops.
const SEED_42_OPS_20K: Table = &[
    ("usr_0", "970de8724490e78d61cb70dbda1afbf0", 20_000),
    ("src2_2", "571a33987869c095caa72a2bd8fb5a59", 20_004),
    ("hm_1", "5781efa1fe111e717846865d1a827050", 20_019),
    ("web_0", "b325fa66204bacda3388b16bbb359e49", 20_000),
    ("usr_1", "569a6e5eb6717127e00fbdf908595c43", 20_000),
    ("wdev_0", "969242a61f8f0be4b5e0e9c761d6e3f4", 20_000),
    ("mds_0", "4c79e7eaf95845c24d0e12343fe31a57", 20_000),
    ("rsrch_0", "b04bf6eb1f5f03557f1592aa06f3943e", 20_000),
    ("ts_0", "e4083e263d543236410d5344bb49a4c3", 20_000),
    ("w84", "ad7c06c3eaf5893a7e1886dd03ba05c4", 20_000),
    ("w95", "a89c980edd21eb02ca4b169faa8ffd97", 20_008),
    ("w64", "c196cf929d09134d72c9ca57e5cecf6b", 20_000),
    ("w93", "7b2c2fb89107b08a39f185c06c2e6741", 20_000),
    ("w20", "4f6393fab166f7601763a319e41041bb", 20_000),
    ("w91", "f75ac916c21a16dc2f2b8db3d8a6ee6d", 21_441),
    ("w76", "92c40f8a6d87d793aba912e5deaabd17", 20_000),
    ("w36", "beb2d81a67402f5c1fef90635482bb38", 20_000),
    ("w89", "1d69632d2273ea090853ed66c00c48a5", 20_000),
    ("w106", "283ac510887083c43e7d4fa666670633", 20_016),
    ("w55", "571656ba43de005a7197590d60450bf7", 20_219),
    ("w33", "1330019622548c3dab91c4b181871d41", 20_806),
];

/// At seed 1, 30,000 ops.
const SEED_1_OPS_30K: Table = &[
    ("usr_0", "605a18b664f2bcc36d5e144bd226db31", 30_000),
    ("src2_2", "ba39dfab0a3196eea94ea5af5c070744", 30_000),
    ("hm_1", "b5436ba841151c0ca977f93faf57a7b7", 30_005),
    ("web_0", "9ab44abbf989b2bbab47030fc275fec6", 30_000),
    ("usr_1", "facef6418039235346a4deb6fabd6d4c", 30_000),
    ("wdev_0", "36014a727dd6c368a9d83042815ce1ee", 30_000),
    ("mds_0", "c0711bb8ff994e0a7e65bcb2529bc3b9", 30_000),
    ("rsrch_0", "1a7c82f6fb4c9508e374f44e63aa97a0", 30_000),
    ("ts_0", "3c00e1b61eea0a32767f33fe95c6edfe", 30_000),
    ("w84", "446acfaf59c765748496b61504dd0418", 30_000),
    ("w95", "924809e741db0d6830aa7fe35d7e09d5", 30_312),
    ("w64", "cfa65ca6c62cc23eec4813d2fa8894f3", 33_880),
    ("w93", "6b59ca227597c31fa82c6e158c748e69", 30_000),
    ("w20", "f4637fded32d23fab31d4bc42b80fb54", 30_000),
    ("w91", "e3e0fbabc1ef5f5c986fa900d3e6992a", 32_164),
    ("w76", "b9a955fbce981f05565b41bc14dfd97e", 30_000),
    ("w36", "14423abc16a85f1e8cd2b8d68335b34b", 30_000),
    ("w89", "3ba832bb77d6d46a15c8da0c8dc1caa2", 30_000),
    ("w106", "4d76e8928a4040ee3946d18a92cff8ba", 30_009),
    ("w55", "1d6b650bce22eef4a493d302e4277931", 31_974),
    ("w33", "ae9840aa7c303b953b79801774a3db9c", 32_424),
];

/// The pinned points: `(seed, ops, table)`.
const POINTS: [(u64, usize, Table); 2] =
    [(42, 20_000, SEED_42_OPS_20K), (1, 30_000, SEED_1_OPS_30K)];

#[test]
fn generated_traces_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for (seed, ops, table) in POINTS {
        for &(name, digest, len) in table {
            let profile = profiles::by_name(name).expect("Table-I profile");
            let records = profile.generate_scaled(seed, ops);
            let got = digest_records(&records).to_hex();
            if got != digest || records.len() != len {
                mismatches.push(format!(
                    "{name} seed {seed} ops {ops}: {got} over {} records, pinned {digest} over {len}",
                    records.len()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn golden_tables_cover_every_profile() {
    let names: Vec<&str> = profiles::all().iter().map(|p| p.name).collect();
    for (seed, ops, table) in POINTS {
        let pinned: Vec<&str> = table.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(pinned, names, "seed {seed}, {ops} ops");
    }
}
