//! Pinned payload digests: one job per algorithm, run through `job::run`,
//! compared by 64-bit FNV-1a digest against constants recorded before the
//! exact-diameter kernel changed.
//!
//! The charged CONGEST rounds (`rounds solver=… verify=…`) depend on the hop
//! diameter, so any change to `D` — a wrong bit mask in the word-parallel
//! BFS, a stale cache — changes these bytes. Most instances have more than
//! 64 vertices with `n` not a multiple of 64, and two have more than 256
//! (one pass of the BFS), so a bug at a word or pass boundary shows up here.

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
];

#[test]
fn payload_digests_match_the_pinned_constants() {
    let mut mismatches = Vec::new();
    for &(args, pinned) in PINNED {
        let Ok(Request::Submit(spec)) = Request::parse(&format!("SUBMIT {args}")) else {
            panic!("`{args}` is not a SUBMIT");
        };
        let payload = job::run(&spec, &Executor::Sequential).unwrap_or_else(|e| panic!("{e}"));
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
