//! Pins how many exact connectivity sweeps (`is_k_edge_connected_in` at
//! k ≥ 3, n − 1 capped max-flows each) one job runs, on the tiny `high_k`
//! benchmark shapes.
//!
//! Every fact is proved once: a `kecss` job at k sweeps G once (the
//! precheck), H ∪ A once per level from 3 to k (each level's certify), and
//! the solution once (the exact verifier): k sweeps. A `3ecss` job sweeps G
//! in its precheck and the solution in the verifier: 2.
//!
//! The sweep counter is process-global, so this binary holds one test.

use kecss_runtime::Executor;
use kecss_server::job;
use kecss_server::protocol::Request;

#[test]
fn each_job_sweeps_once_per_fact() {
    let sweeps = kecss_obs::counter("solver_connectivity_sweeps_total");
    let shapes: &[(&str, u64)] = &[
        ("hypercube:16 4 kecss auto 1", 4),
        ("random:32:100 3 kecss auto 2", 3),
        ("random:48:100 4 kecss auto 3", 4),
        ("harary:16 5 kecss auto 4", 5),
        ("torus:36 3 3ecss auto 5", 2),
        ("ring:24:100 3 3ecss-weighted auto 6", 2),
    ];
    let mut wrong = Vec::new();
    for &(args, expected) in shapes {
        let Ok(Request::Submit(spec)) = Request::parse(&format!("SUBMIT {args}")) else {
            panic!("`{args}` is not a SUBMIT");
        };
        let before = sweeps.get();
        let payload = job::run(&spec, &Executor::Sequential).unwrap_or_else(|e| panic!("{e}"));
        let swept = sweeps.get() - before;
        assert!(
            String::from_utf8_lossy(&payload).contains(" yes\n"),
            "`{args}` did not verify"
        );
        if swept != expected {
            wrong.push(format!("{args}: {swept} sweeps, expected {expected}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
