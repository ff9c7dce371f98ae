//! E16 — recursive Karger–Stein contraction vs the flat baseline
//! (DESIGN.md §12).
//!
//! PR 8 replaces the flat Karger scheme (`Θ(n² log n)` independent trials,
//! each contracting from the full graph) with the recursive Karger–Stein
//! enumerator: contract to `⌈n/√2⌉ + 1`, recurse twice, share the expensive
//! shallow contraction prefix. This bench isolates the algorithmic gain on
//! the `Aug_k` enumeration workloads that dominate high-`k` solves:
//!
//! * `Q_5` size-5 — the e11 headline workload (kept unchanged there for
//!   trajectory continuity; the ≥ 5× target of ISSUE 8 is measured here);
//! * `harary(7, 16)` size-7 and `Q_8` size-8 — the `k = 8` regime, where
//!   the flat scheme needs seconds per enumeration;
//! * an end-to-end `k = 8` solve of `Q_8` through the default `auto` policy
//!   (`exact`, then the flow enumerator at sizes ≥ 4), which must stay
//!   under 10 s.
//!
//! Both enumerators are exactly verified, so wherever both complete they
//! must agree cut-for-cut; the table asserts it. Criterion then times the
//! flat and recursive enumerators on the `Q_5` workload back to back.

use criterion::{criterion_group, criterion_main, Criterion};
use graphs::generators;
use kecss::cuts::{ContractEnumerator, Cut, CutEnumerator, KargerSteinEnumerator};
use kecss_bench::table::Table;
use kecss_runtime::Executor;
use std::time::{Duration, Instant};

fn timed_cuts(enumerator: &dyn CutEnumerator, g: &graphs::Graph, size: usize) -> (u128, Vec<Cut>) {
    let h = g.full_edge_set();
    let start = Instant::now();
    let cuts = enumerator
        .cuts(g, &h, size, 0, &Executor::Sequential)
        .expect("enumeration succeeds");
    (start.elapsed().as_millis(), cuts)
}

fn print_series() {
    let mut table = Table::new([
        "workload", "n", "m", "size", "strategy", "wall ms", "cuts", "agree",
    ]);
    let workloads: Vec<(&str, graphs::Graph, usize)> = vec![
        ("Q_5", generators::hypercube(5, 1), 5),
        ("harary(7,16)", generators::harary(7, 16, 1), 7),
        ("Q_8", generators::hypercube(8, 1), 8),
    ];
    for (name, g, size) in workloads {
        let (flat_ms, flat) = timed_cuts(&ContractEnumerator::default(), &g, size);
        let (ks_ms, ks) = timed_cuts(&KargerSteinEnumerator::default(), &g, size);
        assert_eq!(
            flat, ks,
            "{name}: flat and ks must agree after verification"
        );
        for (strategy, ms, cuts) in [("contract", flat_ms, &flat), ("ks", ks_ms, &ks)] {
            table.push([
                name.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                size.to_string(),
                strategy.to_string(),
                ms.to_string(),
                cuts.len().to_string(),
                "yes".to_string(),
            ]);
        }
    }

    // End-to-end k = 8 solve through the default auto policy (exact, then
    // flow at sizes >= 4), which must stay under 10 s.
    use rand::SeedableRng;
    let g = generators::hypercube(8, 1);
    let start = Instant::now();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let sol = kecss::kecss::solve_with_exec(&g, 8, &mut rng, &Executor::Sequential)
        .expect("Q_8 is 8-edge-connected");
    let solve_ms = start.elapsed().as_millis();
    table.push([
        "Q_8 solve k=8".to_string(),
        g.n().to_string(),
        g.m().to_string(),
        "auto".to_string(),
        "auto(ks)".to_string(),
        solve_ms.to_string(),
        sol.subgraph.len().to_string(),
        "-".to_string(),
    ]);
    table.print("E16: flat contraction vs recursive Karger-Stein (and the k=8 end-to-end solve)");
}

fn bench(c: &mut Criterion) {
    print_series();
    let g = generators::hypercube(5, 1);
    let h = g.full_edge_set();
    // The pooled flat baseline and the recursive enumerator on the same
    // workload e11 times (`e11/contract_q5_size5` stays unchanged for
    // trajectory continuity).
    c.bench_function("e16/contract_q5_size5", |b| {
        b.iter(|| {
            ContractEnumerator::default()
                .cuts(&g, &h, 5, 0, &Executor::Sequential)
                .unwrap()
                .len()
        })
    });
    c.bench_function("e16/ks_q5_size5", |b| {
        b.iter(|| {
            KargerSteinEnumerator::default()
                .cuts(&g, &h, 5, 0, &Executor::Sequential)
                .unwrap()
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
