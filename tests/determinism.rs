//! The workspace determinism suite (DESIGN.md §8, §9).
//!
//! `Threaded(n)` executors must produce **bit-identical** results to
//! `Sequential`: parallel `Aug_k` cut verification agrees exactly with the
//! sequential enumeration, and every enumerator agrees with the exact
//! ground truth, on seeded random graphs. The service layer makes the same
//! promise: result payloads produced by the `kecss_server` scheduler under
//! concurrent submission are byte-identical to the same jobs run
//! sequentially through `kecss::solve_with_exec`.

use graphs::{generators, mst};
use kecss::cuts::{
    ContractEnumerator, CutEnumerator, ExactEnumerator, KargerSteinEnumerator, LabelEnumerator,
};
use kecss_runtime::Executor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The thread counts the suite checks against the sequential executor.
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// The small seeded graph shapes the enumerator-agreement proptests draw
/// from: random, ring-of-cliques, torus and Harary instances.
fn agreement_graph(shape: u8, seed: u64) -> (&'static str, graphs::Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match shape % 4 {
        0 => (
            "random",
            generators::random_k_edge_connected(8 + (seed % 5) as usize, 2, 4, &mut rng),
        ),
        1 => ("ring", generators::ring_of_cliques(3, 4, 2, 1)),
        2 => ("torus", generators::torus(3, 3, 1)),
        _ => ("harary", generators::harary(3, 8, 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The general label enumerator and the contraction enumerator agree
    /// with the legacy size-1..=3 specializations on seeded
    /// random/ring/torus/harary graphs: after exact verification all three
    /// report exactly the induced cuts of each size.
    #[test]
    fn general_enumerators_agree_with_exact_specializations(
        shape in 0u8..4,
        seed in 0u64..500,
        size in 1usize..=3,
    ) {
        let (label, g) = agreement_graph(shape, seed);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let exact = ExactEnumerator.cuts(&g, &h, size, 0, &exec).unwrap();
        let by_label = LabelEnumerator::default().cuts(&g, &h, size, 0, &exec).unwrap();
        let by_contract = ContractEnumerator::default().cuts(&g, &h, size, 0, &exec).unwrap();
        prop_assert_eq!(&by_label, &exact, "label vs exact on {} size {}", label, size);
        prop_assert_eq!(&by_contract, &exact, "contract vs exact on {} size {}", label, size);
    }

    /// `Threaded(4)` enumeration is bit-identical to `Sequential` for every
    /// strategy, including the new general ones at size 4.
    #[test]
    fn threaded_enumeration_is_bit_identical(shape in 0u8..4, seed in 0u64..500) {
        let (label, g) = agreement_graph(shape, seed);
        let h = g.full_edge_set();
        let threaded = Executor::from_threads(4);
        for size in 1..=4usize {
            let enumerators: [&dyn CutEnumerator; 3] = [
                &LabelEnumerator::default(),
                &ContractEnumerator::default(),
                &KargerSteinEnumerator::default(),
            ];
            for e in enumerators {
                let sequential = e.cuts(&g, &h, size, 0, &Executor::Sequential).unwrap();
                let parallel = e.cuts(&g, &h, size, 0, &threaded).unwrap();
                prop_assert_eq!(
                    &parallel, &sequential,
                    "{} on {} size {}", e.name(), label, size
                );
            }
        }
    }

    /// Karger–Stein agrees with the deterministically-complete label
    /// enumerator — and hence with the induced-cut ground truth — for cut
    /// sizes 4..=6 in the minimum-cut regime the `Aug_k` driver calls from
    /// (`h` is `size`-edge-connected, so the size-`size` cuts are exactly
    /// the minimum cuts the recursion targets).
    #[test]
    fn karger_stein_agrees_with_label_ground_truth(
        seed in 0u64..500,
        size in 4usize..=6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Even n: the harary base of the generator needs it for odd size.
        let n = 8 + 2 * (seed % 3) as usize;
        let g = generators::random_k_edge_connected(n, size, 3, &mut rng);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let by_label = LabelEnumerator::default().cuts(&g, &h, size, 0, &exec).unwrap();
        let by_ks = KargerSteinEnumerator::default().cuts(&g, &h, size, 0, &exec).unwrap();
        prop_assert_eq!(&by_ks, &by_label, "ks vs label, n {} size {}", n, size);
    }

    /// `Threaded(2|4|8)` Karger–Stein enumeration is bit-identical to
    /// `Sequential` across salts: every repetition's RNG is seeded purely
    /// from `(salt, repetition, recursion path)` and repetition results
    /// merge in repetition order, so worker count never reaches the bytes.
    #[test]
    fn threaded_karger_stein_is_bit_identical_across_salts(
        shape in 0u8..4,
        seed in 0u64..500,
        salt in 0u64..3,
    ) {
        let (label, g) = agreement_graph(shape, seed);
        let h = g.full_edge_set();
        let ks = KargerSteinEnumerator::default();
        for size in 3..=4usize {
            let sequential = ks.cuts(&g, &h, size, salt, &Executor::Sequential).unwrap();
            for threads in THREAD_COUNTS {
                let exec = Executor::from_threads(threads);
                let parallel = ks.cuts(&g, &h, size, salt, &exec).unwrap();
                prop_assert_eq!(
                    &parallel, &sequential,
                    "ks on {} size {} salt {} t {}", label, size, salt, threads
                );
            }
        }
    }

    /// Parallel and sequential `Aug_k` cut verification agree: the
    /// enumerated cut families are identical for every thread count.
    #[test]
    fn parallel_cut_enumeration_agrees(seed in 0u64..1000, n in 8usize..16) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_k_edge_connected(n, 2, 4, &mut rng);
        let h = g.full_edge_set();
        let sequential = kecss::cuts::cuts_of_size(&g, &h, 2).unwrap();
        for threads in THREAD_COUNTS {
            let exec = Executor::from_threads(threads);
            let parallel = kecss::cuts::cuts_of_size_with(&g, &h, 2, &exec).unwrap();
            prop_assert_eq!(&parallel, &sequential, "t = {}", threads);
        }
    }

    /// N concurrent submissions through the `kecss_server` scheduler produce
    /// byte-identical result payloads to the same jobs run sequentially
    /// through `kecss::solve_with_exec` (DESIGN.md §9): the scheduler's
    /// worker count and dispatch interleaving never reach the bytes.
    #[test]
    fn concurrent_service_jobs_match_sequential_solves(
        base_seed in 0u64..200,
        jobs in 2usize..6,
    ) {
        use kecss::cuts::EnumeratorPolicy;
        use kecss_server::instance::InstanceSpec;
        use kecss_server::job::{self, Algorithm, JobSpec};
        use kecss_server::scheduler::{Outcome, Scheduler};

        let specs: Vec<JobSpec> = (0..jobs as u64)
            .map(|i| JobSpec {
                instance: InstanceSpec::parse(if i % 2 == 0 { "ring:20" } else { "harary:10:7" })
                    .unwrap(),
                k: 2 + (i % 2) as usize,
                algorithm: Algorithm::KEcss,
                enumerator: EnumeratorPolicy::Auto,
                seed: base_seed + i,
            })
            .collect();

        // Sequential ground truth: build the instance, run the solver through
        // `solve_with_exec` directly, verify, and encode with the same pure
        // encoder the service uses.
        let expected: Vec<Vec<u8>> = specs
            .iter()
            .map(|spec| {
                let g = spec.instance.build(spec.k, spec.seed).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ job::SOLVER_SEED_SALT);
                let sol = kecss::kecss::solve_with_exec(&g, spec.k, &mut rng, &Executor::Sequential)
                    .unwrap();
                prop_assert!(graphs::connectivity::is_k_edge_connected_in(
                    &g, &sol.subgraph, spec.k
                ));
                let payload = job::run(spec, &Executor::Sequential).unwrap();
                // The payload embeds exactly the `solve_with_exec` solution.
                let text = String::from_utf8(payload.clone()).unwrap();
                prop_assert!(
                    text.contains(&format!(
                        "solution edges={} weight={}",
                        sol.subgraph.len(),
                        sol.weight
                    )),
                    "payload does not embed the solve_with_exec solution: {}",
                    text
                );
                Ok(payload)
            })
            .collect::<Result<_, String>>()?;

        // Concurrent service run: all jobs in flight at once on 4 workers.
        let scheduler = Scheduler::new(4, specs.len());
        let ids: Vec<u64> = specs
            .iter()
            .map(|spec| scheduler.submit(spec.clone()).unwrap())
            .collect();
        for (spec, (id, want)) in specs.iter().zip(ids.iter().zip(&expected)) {
            match scheduler.wait(*id) {
                Some(Outcome::Done(got)) => prop_assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "spec '{}' diverged under concurrency",
                    spec.canonical()
                ),
                other => {
                    return Err(format!(
                        "job {id} ({}) did not complete: {other:?}",
                        spec.canonical()
                    ))
                }
            }
        }
        scheduler.shutdown();
    }

    /// Observability is strictly out-of-band (DESIGN.md §11): with metric
    /// recording enabled AND a live JSONL trace sink installed, N concurrent
    /// submissions through the scheduler produce result payloads
    /// byte-identical to an uninstrumented (recording disabled) sequential
    /// oracle. Counters, histograms and spans never reach the bytes.
    #[test]
    fn instrumented_concurrent_jobs_match_uninstrumented_sequential_oracle(
        base_seed in 0u64..200,
        jobs in 2usize..5,
    ) {
        use kecss::cuts::EnumeratorPolicy;
        use kecss_server::instance::InstanceSpec;
        use kecss_server::job::{self, Algorithm, JobSpec};
        use kecss_server::scheduler::{Outcome, Scheduler};
        use std::sync::{Arc, Mutex};

        /// A `Write` handle onto a shared buffer (the sink is consumed by
        /// `install_trace_sink`, so the test keeps the other `Arc`).
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let specs: Vec<JobSpec> = (0..jobs as u64)
            .map(|i| JobSpec {
                instance: InstanceSpec::parse(if i % 2 == 0 { "ring:20" } else { "harary:10:7" })
                    .unwrap(),
                k: 2,
                algorithm: Algorithm::KEcss,
                enumerator: EnumeratorPolicy::Auto,
                seed: base_seed + i,
            })
            .collect();

        // Uninstrumented oracle: recording off, no sink, sequential.
        let was_enabled = kecss_obs::set_enabled(false);
        let expected: Vec<Vec<u8>> = specs
            .iter()
            .map(|spec| job::run(spec, &Executor::Sequential).unwrap())
            .collect();

        // Instrumented run: recording on, trace sink live, 4 workers, all
        // jobs in flight at once.
        kecss_obs::set_enabled(true);
        let buffer = Arc::new(Mutex::new(Vec::new()));
        kecss_obs::install_trace_sink(Box::new(SharedBuf(Arc::clone(&buffer))));
        let scheduler = Scheduler::new(4, specs.len());
        let ids: Vec<u64> = specs
            .iter()
            .map(|spec| scheduler.submit(spec.clone()).unwrap())
            .collect();
        let mut failure = None;
        for (spec, (id, want)) in specs.iter().zip(ids.iter().zip(&expected)) {
            match scheduler.wait(*id) {
                Some(Outcome::Done(got)) => {
                    if got.as_slice() != want.as_slice() && failure.is_none() {
                        failure = Some(format!(
                            "spec '{}' diverged under instrumentation",
                            spec.canonical()
                        ));
                    }
                }
                other => {
                    if failure.is_none() {
                        failure = Some(format!(
                            "job {id} ({}) did not complete: {other:?}",
                            spec.canonical()
                        ));
                    }
                }
            }
        }
        scheduler.shutdown();
        kecss_obs::clear_trace_sink();
        kecss_obs::set_enabled(was_enabled);
        if let Some(message) = failure {
            return Err(message);
        }

        // The instrumentation really was live: the sink streamed span lines.
        let traced = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        prop_assert!(
            traced.lines().any(|l| l.contains("\"type\":\"span\"")),
            "no spans reached the trace sink:\n{}",
            traced
        );
    }

    /// Parallel and sequential `Aug_k` agree end to end for a fixed seed:
    /// the executor only touches pure verification work, never the RNG.
    #[test]
    fn parallel_augmentation_agrees(seed in 0u64..1000) {
        let mut instance_rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_weighted_k_edge_connected(14, 2, 20, 25, &mut instance_rng);
        let h = mst::kruskal(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let sequential = kecss::augk::augment(&g, &h, 2, &mut rng).unwrap();
        for threads in THREAD_COUNTS {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
            let exec = Executor::from_threads(threads);
            let parallel = kecss::augk::augment_with_exec(&g, &h, 2, &mut rng, &exec).unwrap();
            prop_assert_eq!(&parallel.added, &sequential.added, "t = {}", threads);
            prop_assert_eq!(parallel.weight, sequential.weight, "t = {}", threads);
            prop_assert_eq!(parallel.iterations, sequential.iterations, "t = {}", threads);
        }
    }
}
