//! Pinned payload digests: one job per algorithm, run through `job::run`,
//! compared by 64-bit FNV-1a digest against constants recorded before the
//! code they guard changed.
//!
//! The charged CONGEST rounds (`rounds solver=… verify=…`) depend on the hop
//! diameter, so any change to `D` — a wrong bit mask in the word-parallel
//! BFS, a stale cache — changes these bytes. Most instances have more than
//! 64 vertices with `n` not a multiple of 64, and two have more than 256
//! (one pass of the BFS), so a bug at a word or pass boundary shows up here.
//!
//! The two `ring:5000` jobs have more than `EXACT_DIAMETER_MAX_N` vertices,
//! so their charged rounds come from the double-sweep diameter figure, and
//! the thurimella job's verifier charges its labels from the height of a
//! BFS tree there too.
//!
//! The `kecss` jobs at k ≥ 4 cover the cut enumerators: XOR-zero label
//! triples at k = 4, and at k = 5 and 6 the flow enumerator that `auto`
//! runs at sizes ≥ 4. The same two k ≥ 5 instances also run through the
//! explicit `label` and `ks` policies, so a label enumeration that completes
//! and a Karger–Stein one stay pinned by their bytes; those payloads equal
//! the `auto` ones but for the `spec` line. A wrong label lookup, residual
//! closure or contraction changes their cuts, and with them the bytes.
//!
//! The last two jobs run 3-ECSS at the scale of the `high_k` benchmark
//! shape (`torus:256`), where the augmentation loop runs hundreds of
//! iterations and reuses its coverage in most of them, and its weighted
//! variant on the random family.

use kecss_runtime::Executor;
use kecss_server::job;
use kecss_server::protocol::Request;

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(SUBMIT arguments, digest of the payload)`.
const PINNED: &[(&str, u64)] = &[
    ("ring:20 2 2ecss auto 1", 0x2ab4_0f1d_3667_4074),
    ("random:100:50 2 2ecss auto 11", 0xb434_04a4_518e_e9ac),
    ("torus:144 2 2ecss auto 2", 0x58d9_2c8b_6a7e_0ce6),
    ("random:90:30 3 kecss auto 7", 0x7da5_91a1_2d7d_a810),
    ("torus:81 3 3ecss auto 3", 0xefb2_156a_60c3_5827),
    ("ring:72:100 3 3ecss-weighted auto 4", 0x1451_8572_8e4e_bdda),
    ("random:40:20 2 greedy auto 2", 0x1d41_1984_07a2_87c7),
    ("ring:150 2 thurimella auto 1", 0xe0b1_83a2_c416_b9bf),
    ("random:129:40 1 mst auto 9", 0x9e43_0bed_e7c0_1ac7),
    ("random:300:50 2 2ecss auto 5", 0xdb7e_00da_398b_a54a),
    ("ring:520 2 thurimella auto 8", 0x159f_cbbb_fb09_a405),
    ("random:48:100 4 kecss auto 2", 0x2080_04ca_852a_0c61),
    ("hypercube:32 5 kecss auto 3", 0xa6d1_4faa_b66a_84dc),
    ("harary:40 6 kecss auto 1", 0x031e_eaf9_5a6a_8423),
    ("hypercube:32 5 kecss label 3", 0x32ac_207b_c9a6_160b),
    ("harary:40 6 kecss ks 1", 0xa2a3_8271_fcca_54da),
    ("ring:5000 2 thurimella auto 1", 0x72a0_52fd_a80f_911e),
    ("ring:5000 1 mst auto 2", 0x0367_4a49_f839_c214),
    ("torus:256 3 3ecss auto 7", 0x9848_e977_4588_b756),
    (
        "random:128:50 3 3ecss-weighted auto 5",
        0x2fbc_db6e_0bda_15c7,
    ),
];

/// Pinned specs and the strategy whose enumeration each must complete,
/// growing `solver_enum_candidates_total{strategy}`. The `auto` specs must
/// also run no label enumeration.
const ENUMERATOR_SPECS: &[(&str, &str)] = &[
    ("hypercube:32 5 kecss auto 3", "flow"),
    ("harary:40 6 kecss auto 1", "flow"),
    ("hypercube:32 5 kecss label 3", "label"),
    ("harary:40 6 kecss ks 1", "ks"),
];

#[test]
fn payload_digests_match_the_pinned_constants() {
    let candidates = |strategy| {
        kecss_obs::counter_with("solver_enum_candidates_total", &[("strategy", strategy)])
    };
    let label_candidates = candidates("label");
    let mut mismatches = Vec::new();
    for &(args, pinned) in PINNED {
        let Ok(Request::Submit(spec)) = Request::parse(&format!("SUBMIT {args}")) else {
            panic!("`{args}` is not a SUBMIT");
        };
        let strategy = ENUMERATOR_SPECS
            .iter()
            .find(|&&(s, _)| s == args)
            .map(|&(_, strategy)| strategy);
        let before = strategy.map(|s| (candidates(s).get(), label_candidates.get()));
        let payload = job::run(&spec, &Executor::Sequential).unwrap_or_else(|e| panic!("{e}"));
        if let (Some(strategy), Some((before, label_before))) = (strategy, before) {
            assert!(
                candidates(strategy).get() > before,
                "`{args}` never completed a {strategy} enumeration"
            );
            if strategy == "flow" {
                assert_eq!(
                    label_candidates.get(),
                    label_before,
                    "`{args}` ran a label enumeration"
                );
            }
        }
        let text = String::from_utf8_lossy(&payload);
        assert!(text.contains(" yes\n"), "`{args}` did not verify:\n{text}");
        let digest = fnv1a64(&payload);
        if digest != pinned {
            let head: String = text.lines().take(8).collect::<Vec<_>>().join("\n");
            mismatches.push(format!("{args}: {digest:#018x}\n{head}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n\n"));
}
