//! Instance families used by the experiments.
//!
//! The paper has no benchmark suite of its own, so the workloads are chosen to
//! stress the two parameters its round complexities depend on — the vertex
//! count `n` and the hop diameter `D` — independently:
//!
//! * [`Topology::Random`] — random k-edge-connected graphs with small
//!   diameter (the "well-connected data-centre" regime);
//! * [`Topology::RingOfCliques`] — high-diameter backbones, the regime where
//!   `O((D + √n) log² n)` separates from the `O(h_MST + √n)` baseline of \[1\];
//! * [`Topology::Torus`] — bounded-degree, `D = Θ(√n)` instances.

use graphs::{generators, EdgeSet, Graph, Weight};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The instance families used across the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Random k-edge-connected graph (Harary base + random extra edges):
    /// small diameter.
    Random,
    /// Ring of cliques: diameter `Θ(n / clique)`, 2-edge-connected or better.
    RingOfCliques,
    /// Torus grid: 4-edge-connected, diameter `Θ(√n)`.
    Torus,
}

impl Topology {
    /// A short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Random => "random",
            Topology::RingOfCliques => "ring-of-cliques",
            Topology::Torus => "torus",
        }
    }
}

/// A weighted k-edge-connected instance of roughly `n` vertices (the torus
/// and ring families round `n` to their natural grid sizes).
///
/// Weights are uniform in `1..=max_weight`; `seed` makes instances
/// reproducible across benchmark runs.
pub fn weighted_instance(
    topology: Topology,
    n: usize,
    k: usize,
    max_weight: Weight,
    seed: u64,
) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graph = match topology {
        Topology::Random => generators::random_k_edge_connected(n, k, 2 * n, &mut rng),
        Topology::RingOfCliques => {
            let clique = (k + 2).max(4);
            let cliques = (n / clique).max(3);
            generators::ring_of_cliques(cliques, clique, k.max(2), 1)
        }
        Topology::Torus => {
            let side = (n as f64).sqrt().round().max(3.0) as usize;
            generators::torus(side, side, 1)
        }
    };
    if max_weight > 1 {
        generators::randomize_weights(&mut graph, max_weight, &mut rng);
    }
    graph
}

/// An unweighted k-edge-connected instance (unit weights).
pub fn unweighted_instance(topology: Topology, n: usize, k: usize, seed: u64) -> Graph {
    weighted_instance(topology, n, k, 1, seed)
}

/// A weighted instance on which the unweighted sparse-certificate baseline is
/// provably poor: a cheap k-edge-connected "core" (weight 1 edges) hidden
/// among expensive decoy edges with *smaller edge ids*, so a weight-oblivious
/// forest-growing baseline keeps picking expensive edges.
pub fn adversarial_weighted_instance(n: usize, k: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Expensive decoys first (small edge ids): a random connected sparse graph.
    let decoys = generators::random_connected(n, 2.0 / n as f64, &mut rng);
    let mut g = Graph::new(n);
    for (_, e) in decoys.edges() {
        g.add_edge(e.u, e.v, 1_000);
    }
    // The cheap core: a relabelled Harary graph with weight 1. Edges that
    // coincide with a decoy are added as (cheap) parallel edges so the core is
    // always fully present and feasible on its own.
    let core = generators::random_k_edge_connected(n, k, 0, &mut rng);
    for (_, e) in core.edges() {
        g.add_edge(e.u, e.v, 1);
    }
    g
}

/// A cycle of `n` vertices with a chord over every run of `stride`
/// consecutive cycle edges (so `n` must be a multiple of `stride`).
///
/// Two cycle edges form a 2-cut iff they lie under the *same* chord, giving
/// exactly `(n / stride) · stride · (stride - 1) / 2` genuine 2-cuts — a
/// large, known population of independent removal tests, which makes this
/// the E10 stress case for parallel candidate-cut verification.
///
/// # Panics
///
/// Panics if `stride < 2` or `n` is not a multiple of `stride` at least
/// `3 * stride`.
pub fn chorded_cycle(n: usize, stride: usize) -> Graph {
    assert!(stride >= 2, "stride must be at least 2");
    assert!(
        n >= 3 * stride && n.is_multiple_of(stride),
        "n must be a multiple of stride, at least 3 * stride"
    );
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, 1);
    }
    for anchor in (0..n).step_by(stride) {
        g.add_edge(anchor, (anchor + stride) % n, 1);
    }
    g
}

/// The exact hop diameter for small graphs, or the 2-approximation for larger
/// ones (keeps report generation cheap).
pub fn report_diameter(graph: &Graph) -> usize {
    if graph.n() <= 512 {
        graphs::bfs::diameter(graph).unwrap_or(graph.n())
    } else {
        graphs::bfs::approx_diameter(graph).unwrap_or(graph.n())
    }
}

/// E13's parse-throughput fixture: a ring-of-cliques instance with `2 m`
/// edges per `m` requested clique count (4-vertex cliques, 2 links). Shared
/// by `benches/e13_compact_core.rs` and `kecss-bench-json` so the Criterion
/// series and the `BENCH_PR<N>.json` trajectory measure the same workload.
pub fn e13_parse_instance(cliques: usize) -> Graph {
    generators::ring_of_cliques(cliques, 4, 2, 1)
}

/// E13's removal-kernel fixture: a dense 4-edge-connected random graph
/// (n = 2000, m = 64 000) with a sparse 4-connected certificate `H` (union
/// of 4 maximal spanning forests, ~8 k edges ≈ 12% of the universe) — the
/// mask shape the `Aug_k` cut-verification loop actually probes. Shared by
/// the E13 bench and `kecss-bench-json` (same seed, same sizes) so both
/// report the same kernel.
pub fn e13_kernel_instance() -> (Graph, EdgeSet) {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let g = generators::random_k_edge_connected(2_000, 4, 60_000, &mut rng);
    let mut remaining = g.full_edge_set();
    let mut h = g.empty_edge_set();
    for _ in 0..4 {
        let forest = graphs::mst::maximal_spanning_forest_in(&g, &remaining);
        h.union_with(&forest);
        remaining.difference_with(&forest);
    }
    (g, h)
}

/// E14's ingest fixture: streams a synthetic `KGB1` instance of `n` vertices
/// and `m` edges straight to `sink` — header, then `m` fixed-stride records —
/// without ever materializing a [`Graph`] or an edge list. This is what lets
/// the out-of-core bench write 10⁷-edge files whose ingest peak-RSS can be
/// attributed entirely to the *reader* under test.
///
/// Edge `i` connects `u = i mod n` to `v = (u + s) mod n` with stride
/// `s = 1 + (i / n) mod (n - 1)`, so endpoints are always distinct and in
/// range, and every decoded record is a pure function of its edge id (easy
/// to spot-check after a streamed build).
///
/// # Panics
///
/// Panics if `n < 3` or `n` exceeds the format's `u32` vertex-id range.
///
/// # Errors
///
/// Propagates I/O errors from `sink`.
pub fn e14_write_synthetic_kgb1<W: std::io::Write>(
    sink: &mut W,
    n: usize,
    m: u64,
) -> std::io::Result<()> {
    assert!(n >= 3, "the synthetic family needs n >= 3");
    assert!(u32::try_from(n).is_ok(), "KGB1 vertex ids are u32");
    sink.write_all(&graphs::io::BINARY_MAGIC)?;
    sink.write_all(&(n as u64).to_le_bytes())?;
    sink.write_all(&m.to_le_bytes())?;
    let n = n as u64;
    let mut record = [0u8; 16];
    for i in 0..m {
        let u = i % n;
        let stride = 1 + (i / n) % (n - 1);
        let v = (u + stride) % n;
        let weight = 1 + i % 97;
        record[0..4].copy_from_slice(&(u as u32).to_le_bytes());
        record[4..8].copy_from_slice(&(v as u32).to_le_bytes());
        record[8..16].copy_from_slice(&weight.to_le_bytes());
        sink.write_all(&record)?;
    }
    Ok(())
}

/// Deterministic per-experiment RNG.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// E17's fixture: a live in-process fleet — one coordinator plus `workers`
/// registered workers on ephemeral ports — that [`FleetFixture::batch`] pumps
/// job batches through. Built once per configuration so the measured routine
/// is the submit→drain path, not fleet setup (registration needs a heartbeat
/// round trip, which would dwarf small batches).
pub struct FleetFixture {
    coordinator: Option<kecss_server::ServerHandle>,
    workers: Vec<kecss_server::ServerHandle>,
    client: kecss_server::client::Client,
}

impl FleetFixture {
    /// Spawns the fleet and blocks until every worker has registered.
    ///
    /// # Panics
    ///
    /// Panics if binding, registration, or the control connection fails.
    pub fn new(workers: usize, queue_depth: usize) -> FleetFixture {
        use kecss_server::{Role, Server, ServerConfig};
        use std::time::Duration;
        let config = |role| ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_depth,
            role,
            ..ServerConfig::default()
        };
        let coordinator = Server::bind(&config(Role::Coordinator {
            heartbeat_timeout: Duration::from_secs(3),
            max_retries: 5,
        }))
        .expect("bind coordinator")
        .spawn();
        let addr = coordinator.addr().to_string();
        let handles: Vec<_> = (0..workers.max(1))
            .map(|i| {
                Server::bind(&config(Role::Worker {
                    coordinator: addr.clone(),
                    worker_id: format!("bench-{i}"),
                    heartbeat_interval: Duration::from_millis(50),
                    advertise: String::new(),
                }))
                .expect("bind worker")
                .spawn()
            })
            .collect();
        kecss_server::client::wait_for_live_workers(
            &addr,
            handles.len(),
            Duration::from_millis(10),
            Duration::from_secs(30),
        )
        .expect("workers register");
        let client = kecss_server::client::Client::connect(&addr).expect("connect control client");
        FleetFixture {
            coordinator: Some(coordinator),
            workers: handles,
            client,
        }
    }

    /// Submits `jobs` copies of `spec` (a SUBMIT body without the seed,
    /// e.g. `ring:20 2 2ecss auto`; seeds run `0..jobs`) and waits for
    /// every payload. The batch must fit the coordinator's queue depth.
    ///
    /// # Panics
    ///
    /// Panics on any protocol error or a missing/failed result.
    pub fn batch(&mut self, jobs: usize, spec: &str) {
        use kecss_server::protocol::Request;
        let ids: Vec<u64> = (0..jobs)
            .map(|seed| {
                let line = format!("SUBMIT {spec} {seed}");
                let Request::Submit(spec) = Request::parse(&line).expect("well-formed line") else {
                    unreachable!()
                };
                self.client
                    .submit(&spec)
                    .expect("submit succeeds")
                    .expect("batch fits the queue depth")
            })
            .collect();
        for id in ids {
            let payload = self
                .client
                .wait_result(id, std::time::Duration::from_secs(300))
                .expect("job completes");
            assert!(!payload.is_empty());
        }
    }
}

/// E18's fixture: one standalone server on the readiness loop plus a single
/// persistent client connection in either wire mode. [`FrontEndFixture::pump`]
/// drives submit→result traffic through the real socket front-end (framing,
/// the event loop, push-on-complete delivery), which is exactly the slice of
/// the stack E12's in-process scheduler rows leave out.
pub struct FrontEndFixture {
    server: Option<kecss_server::ServerHandle>,
    client: kecss_server::client::Client,
}

impl FrontEndFixture {
    /// Spawns the server (ephemeral port, one scheduler worker) and connects
    /// one client in the requested wire mode.
    ///
    /// # Panics
    ///
    /// Panics if binding or connecting fails.
    pub fn new(binary: bool, queue_depth: usize) -> FrontEndFixture {
        let server = kecss_server::Server::bind(&kecss_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            queue_depth,
            ..kecss_server::ServerConfig::default()
        })
        .expect("bind server")
        .spawn();
        let addr = server.addr().to_string();
        let client = if binary {
            kecss_server::client::Client::connect_binary(&addr).expect("connect binary client")
        } else {
            kecss_server::client::Client::connect(&addr).expect("connect text client")
        };
        FrontEndFixture {
            server: Some(server),
            client,
        }
    }

    /// Pumps `jobs` copies of `spec` (a SUBMIT body without the seed; seeds
    /// run `0..jobs`) keeping at most `depth` in flight: submit a window,
    /// drain it via blocking `RESULT WAIT`, repeat. At depth 1 this is the
    /// pure submit→result round trip — one wait-flagged request per job in
    /// binary mode ([`kecss_server::client::Client::submit_wait`]); larger
    /// depths overlap solver work with framing and measure pipelined per-job
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics on any protocol error or a missing/failed result.
    pub fn pump(&mut self, jobs: usize, depth: usize, spec: &str) {
        use kecss_server::protocol::Request;
        let depth = depth.max(1);
        let parse = |seed: usize| {
            let line = format!("SUBMIT {spec} {seed}");
            let Request::Submit(spec) = Request::parse(&line).expect("well-formed line") else {
                unreachable!()
            };
            spec
        };
        if depth == 1 {
            for seed in 0..jobs {
                let (_, payload) = self
                    .client
                    .submit_wait(&parse(seed), std::time::Duration::from_secs(300))
                    .expect("submit-and-wait succeeds")
                    .expect("a lone job fits the queue depth");
                assert!(!payload.is_empty());
            }
            return;
        }
        let mut submitted = 0usize;
        while submitted < jobs {
            let window = depth.min(jobs - submitted);
            let ids: Vec<u64> = (0..window)
                .map(|offset| {
                    self.client
                        .submit(&parse(submitted + offset))
                        .expect("submit succeeds")
                        .expect("window fits the queue depth")
                })
                .collect();
            submitted += window;
            for id in ids {
                let payload = self
                    .client
                    .wait_result(id, std::time::Duration::from_secs(300))
                    .expect("job completes");
                assert!(!payload.is_empty());
            }
        }
    }
}

impl Drop for FrontEndFixture {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

impl Drop for FleetFixture {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(coordinator) = self.coordinator.take() {
            coordinator.join();
        }
        for worker in self.workers.drain(..) {
            if let Ok(mut c) = kecss_server::client::Client::connect(&worker.addr().to_string()) {
                let _ = c.shutdown();
            }
            worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::connectivity;

    #[test]
    fn weighted_instances_meet_their_connectivity_promise() {
        for topology in [Topology::Random, Topology::RingOfCliques, Topology::Torus] {
            let g = weighted_instance(topology, 48, 2, 20, 1);
            assert!(
                connectivity::is_k_edge_connected(&g, 2),
                "{} instance must be 2-edge-connected",
                topology.label()
            );
        }
    }

    #[test]
    fn random_instances_support_higher_k() {
        let g = weighted_instance(Topology::Random, 32, 4, 10, 2);
        assert!(connectivity::is_k_edge_connected(&g, 4));
    }

    #[test]
    fn ring_instances_have_large_diameter() {
        let g = unweighted_instance(Topology::RingOfCliques, 96, 2, 3);
        let d = report_diameter(&g);
        assert!(d >= 6, "ring of cliques should be high-diameter, got {d}");
    }

    #[test]
    fn adversarial_instance_is_k_connected_and_has_cheap_core() {
        let g = adversarial_weighted_instance(24, 2, 4);
        assert!(connectivity::is_k_edge_connected(&g, 2));
        let cheap: usize = g.edges().filter(|(_, e)| e.weight == 1).count();
        assert!(cheap >= 24, "the cheap core must be present");
    }

    #[test]
    fn chorded_cycle_has_the_predicted_cut_population() {
        let n = 24;
        let stride = 4;
        let g = chorded_cycle(n, stride);
        assert!(connectivity::is_k_edge_connected(&g, 2));
        let cuts = kecss::cuts::cuts_of_size(&g, &g.full_edge_set(), 2).unwrap();
        assert_eq!(cuts.len(), (n / stride) * stride * (stride - 1) / 2);
    }

    #[test]
    fn synthetic_kgb1_streams_a_decodable_instance() {
        let mut bytes = Vec::new();
        e14_write_synthetic_kgb1(&mut bytes, 16, 200).unwrap();
        assert_eq!(bytes.len(), 20 + 200 * 16);
        let g = graphs::io::read_binary(&bytes).unwrap();
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 200);
        // Record i is a pure function of its edge id.
        let id = 150usize;
        let e = g.edge(graphs::EdgeId(id));
        assert_eq!(e.u, id % 16);
        assert_eq!(e.v, (e.u + 1 + (id / 16) % 15) % 16);
        assert_eq!(e.weight, 1 + id as u64 % 97);
        assert!(g.edges().all(|(_, e)| e.u != e.v));
    }

    #[test]
    fn instances_are_reproducible() {
        let a = weighted_instance(Topology::Random, 40, 3, 50, 7);
        let b = weighted_instance(Topology::Random, 40, 3, 50, 7);
        assert_eq!(a, b);
    }
}
