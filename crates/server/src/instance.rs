//! Instance specifications: the `<family>:<n>` / `inline:` grammar of the
//! service protocol, the rules every request grammar holds an instance to,
//! and the shared family-level generation policy.
//!
//! This module is the single source of truth for how an instance family name
//! plus a vertex count turns into a concrete [`Graph`]: the CLI's `generate`
//! command and the service's `SUBMIT` handler both call [`build_family`], so a
//! `ring:32` submitted over the wire is byte-for-byte the instance that
//! `kecss generate --family ring --n 32` writes to disk (for equal `k`,
//! `max-weight` and seed).
//!
//! Each instance-input rule is defined here once, and both request grammars
//! (the text line and the `KGW1` frame) call it: the vertex cap
//! [`MAX_INSTANCE_N`], checked before any edge is read; the inline-edge
//! rules (distinct endpoints below `n`, at least one edge); and the
//! admission check [`InstanceSpec::admit`], which bounds `k` to `u32` and a
//! family instance, through [`family_size`], to [`MAX_INSTANCE_N`] vertices
//! and [`MAX_INSTANCE_M`] edges.
//!
//! A job gets its graph from the crate-private `InstanceSpec::load`, not
//! from [`InstanceSpec::build`]: a `file:` instance is built once per
//! server and kept in a small table keyed by the spec's path. Every later
//! job re-reads the file through the cursor [`graphs::io::read_graph`]
//! opens and shares the built graph, with its frozen CSR and any diameter
//! already computed, only when the header's vertex count and every record,
//! up to a clean end, equal the built graph's. The graph is a pure function
//! of those records, so sharing it changes no byte of any payload; anything
//! else evicts the entry and builds the instance as [`InstanceSpec::build`]
//! does, with its errors. The table keeps at most `FILE_TABLE_ENTRIES`
//! graphs of at most `FILE_TABLE_BUDGET` vertices plus edges in all,
//! evicting the least recently used first.

use graphs::io::{GraphFormat, RECORD_BYTES};
use graphs::stream::{BinaryCursor, RecordCursor, TextCursor};
use graphs::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// The instance families the generator supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Random k-edge-connected graph (Harary base + random extras).
    Random,
    /// Ring of cliques (high diameter).
    RingOfCliques,
    /// Torus grid.
    Torus,
    /// Harary graph (minimum k-edge-connected graph).
    Harary,
    /// Hypercube `Q_d` (edge connectivity exactly `log2 n`).
    Hypercube,
}

impl Family {
    /// Parses a family name as used by the CLI flags and the wire protocol.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(Family::Random),
            "ring" | "ring-of-cliques" => Some(Family::RingOfCliques),
            "torus" => Some(Family::Torus),
            "harary" => Some(Family::Harary),
            "hypercube" | "cube" => Some(Family::Hypercube),
            _ => None,
        }
    }

    /// The canonical family name (inverse of [`Family::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            Family::Random => "random",
            Family::RingOfCliques => "ring",
            Family::Torus => "torus",
            Family::Harary => "harary",
            Family::Hypercube => "hypercube",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds a family instance: `n` vertices (approximate for grid-like
/// families), at least `k`-edge-connected, weights uniform in
/// `1..=max_weight` when `max_weight > 1`.
///
/// This is the family-level policy shared by the CLI and the service; the
/// result is a pure function of the four arguments.
///
/// # Errors
///
/// Returns a human-readable message for undersized instances, `k == 0`, an
/// instance past [`MAX_INSTANCE_M`] edges ([`family_size`]), a hypercube
/// whose rounded size cannot be k-edge-connected, or a `harary` or `random`
/// shape its Harary base cannot have (`k >= n`, or an odd `k` above 1 on an
/// odd `n`).
pub fn build_family(
    family: Family,
    n: usize,
    k: usize,
    max_weight: u64,
    seed: u64,
) -> Result<Graph, String> {
    if n < 3 {
        return Err("instances need at least 3 vertices".into());
    }
    if k == 0 {
        return Err("the connectivity target k must be at least 1".into());
    }
    // No vertex bound here: `kecss generate` writes instances past
    // `MAX_INSTANCE_N`. For every `n` a `SUBMIT` may name, the edge bound
    // refuses each spec the admission's vertex bound does.
    check_edge_count(family_size(family, n, k).1)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graph = match family {
        Family::Random => {
            check_harary_shape(family, n, k)?;
            generators::random_k_edge_connected(n, k, RANDOM_EXTRA_PER_VERTEX * n, &mut rng)
        }
        Family::RingOfCliques => {
            let (cliques, clique) = ring_shape(n, k);
            generators::ring_of_cliques(cliques, clique, k.max(2), 1)
        }
        Family::Torus => {
            let side = torus_side(n);
            generators::torus(side, side, 1)
        }
        Family::Harary => {
            check_harary_shape(family, n, k)?;
            generators::harary(k, n, 1)
        }
        Family::Hypercube => {
            let dim = hypercube_dim(n);
            if k > dim {
                return Err(format!(
                    "a hypercube with n = {} vertices has edge connectivity exactly {dim}; \
                     lower k or raise n",
                    1usize << dim
                ));
            }
            generators::hypercube(dim, 1)
        }
    };
    if max_weight > 1 {
        generators::randomize_weights(&mut graph, max_weight, &mut rng);
    }
    Ok(graph)
}

/// Refuses the shapes the Harary graph `H(k, n)`, the base of the `harary`
/// and `random` families, cannot have: it needs `k < n`, and an even `n`
/// when `k` is odd and above 1.
fn check_harary_shape(family: Family, n: usize, k: usize) -> Result<(), String> {
    if k >= n {
        return Err(format!(
            "a {family} instance needs k < n, got k = {k} on n = {n} vertices; \
             lower k or raise n"
        ));
    }
    if k > 1 && k % 2 == 1 && n % 2 == 1 {
        return Err(format!(
            "a {family} instance at odd k = {k} needs an even n, got n = {n}; \
             raise n by one"
        ));
    }
    Ok(())
}

/// The random extra edges a `random` instance draws per vertex, on top of
/// its Harary base.
const RANDOM_EXTRA_PER_VERTEX: usize = 2;

/// The clique count and clique size of `ring:<n>` at `k`.
fn ring_shape(n: usize, k: usize) -> (usize, usize) {
    let clique = k.saturating_add(2).max(4);
    ((n / clique).max(3), clique)
}

/// The side of the square `torus:<n>`.
fn torus_side(n: usize) -> usize {
    ((n as f64).sqrt().round() as usize).max(3)
}

/// The dimension of `hypercube:<n>`: `n` rounded up to a power of two.
fn hypercube_dim(n: usize) -> usize {
    (n.max(2).next_power_of_two().trailing_zeros() as usize).max(1)
}

/// The vertex and edge counts of the instance [`build_family`] builds for
/// `family`, `n` and `k`, from its own shape arithmetic, saturating at
/// `usize::MAX`. The edge count of `random` is an upper bound: its extra
/// edges are drawn at random, without repeats.
pub fn family_size(family: Family, n: usize, k: usize) -> (usize, usize) {
    // ⌈kn/2⌉ edges make the Harary graph H(k, n); H(1, n) is a path.
    let harary = if k == 1 {
        n.saturating_sub(1)
    } else {
        k.saturating_mul(n).div_ceil(2)
    };
    match family {
        Family::Random => (
            n,
            harary.saturating_add(RANDOM_EXTRA_PER_VERTEX.saturating_mul(n)),
        ),
        Family::RingOfCliques => {
            let (cliques, clique) = ring_shape(n, k);
            let per_clique = (clique.saturating_mul(clique - 1) / 2).saturating_add(k.max(2));
            (
                cliques.saturating_mul(clique),
                cliques.saturating_mul(per_clique),
            )
        }
        Family::Torus => {
            let side = torus_side(n);
            let cells = side.saturating_mul(side);
            (cells, cells.saturating_mul(2))
        }
        Family::Harary => (n, harary),
        Family::Hypercube => {
            let dim = hypercube_dim(n);
            let vertices = 1usize.checked_shl(dim as u32).unwrap_or(usize::MAX);
            (vertices, dim.saturating_mul(vertices / 2))
        }
    }
}

/// The largest vertex count a submitted instance may request. A `SUBMIT`
/// line is attacker-controlled input to a long-running process, and
/// `Graph::new(n)` allocates per-vertex adjacency storage up front, so an
/// unbounded `n` would let one request OOM the server. 2²⁰ vertices keeps
/// the ROADMAP's "10⁶-vertex sweeps" ambition reachable. With
/// [`MAX_INSTANCE_M`] it bounds a single job's graph at about 0.95 GB (2²⁴
/// edges at 24 bytes of edge list and 32 of CSR entries each): a family
/// spec is held to both at admission ([`InstanceSpec::admit`]), whatever its
/// `k` adds to `n`.
pub const MAX_INSTANCE_N: usize = 1 << 20;

/// The largest instance file a `file:` spec may name, checked against the
/// file's metadata *before* any byte is read. The readers stream in bounded
/// chunks, so this no longer bounds a transient buffer — it bounds the edge
/// count (and hence the built graph) a single request can name, alongside
/// the [`MAX_INSTANCE_N`] header check. 256 MiB comfortably covers a
/// [`MAX_INSTANCE_N`]-vertex instance in either format.
pub const MAX_INSTANCE_FILE_BYTES: u64 = 256 << 20;

/// The most edges a family instance may have: what a `KGB1` file of
/// [`MAX_INSTANCE_FILE_BYTES`] holds, 2²⁴.
pub const MAX_INSTANCE_M: usize = (MAX_INSTANCE_FILE_BYTES / RECORD_BYTES as u64) as usize;

/// Refuses a vertex count above [`MAX_INSTANCE_N`]. Both request grammars
/// call it on an instance's vertex count before reading any edge, and
/// [`InstanceSpec::admit`] on the vertices a family spec builds.
pub(crate) fn check_vertex_count(n: usize) -> Result<usize, String> {
    if n > MAX_INSTANCE_N {
        return Err(format!(
            "requested vertex count {n} exceeds the service bound of {MAX_INSTANCE_N}"
        ));
    }
    Ok(n)
}

/// Refuses an edge count above [`MAX_INSTANCE_M`].
fn check_edge_count(m: usize) -> Result<(), String> {
    if m > MAX_INSTANCE_M {
        return Err(format!(
            "requested edge count {m} exceeds the service bound of {MAX_INSTANCE_M}"
        ));
    }
    Ok(())
}

/// A parsed instance field of a `SUBMIT` request.
///
/// Grammar (no whitespace inside the field — the request line is
/// whitespace-split, so `file:` paths with spaces cannot be submitted):
///
/// ```text
/// <family>:<n>[:<max-weight>]          e.g.  hypercube:64   random:48:30
/// inline:<n>:<u>-<v>-<w>[,<u>-<v>-<w>...]   e.g.  inline:3:0-1-1,1-2-1,2-0-1
/// file:<path>                          e.g.  file:/data/big.graphb
/// ```
///
/// `n` is capped at [`MAX_INSTANCE_N`] in all forms; for `file:` the cap is
/// enforced from the instance **header** ([`graphs::stream::peek_header`])
/// before the body is ingested. A `file:` path is read **on the server's
/// filesystem** when the job runs, in either instance format — streamed with
/// extension-based autodetection via [`graphs::io::read_graph`] (`.graphb`
/// = `KGB1` binary, anything else = text).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceSpec {
    /// A generated family instance.
    Family {
        /// The instance family.
        family: Family,
        /// Requested vertex count (approximate for grid-like families).
        n: usize,
        /// Maximum edge weight (1 = unweighted).
        max_weight: u64,
    },
    /// An explicit edge list shipped in the request itself.
    Inline {
        /// The vertex count.
        n: usize,
        /// The edges as `(u, v, weight)` triples, in submission order.
        edges: Vec<(usize, usize, u64)>,
    },
    /// An instance file on the server's filesystem (text or `KGB1` binary,
    /// autodetected by extension).
    File {
        /// The server-local path.
        path: String,
    },
}

impl InstanceSpec {
    /// Parses the instance field of a `SUBMIT` request.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message describing the malformed part.
    pub fn parse(field: &str) -> Result<Self, String> {
        if let Some(path) = field.strip_prefix("file:") {
            // The rest of the field is the path verbatim (it may itself
            // contain ':'); only emptiness is a parse error — existence and
            // well-formedness are checked when the job builds the instance.
            if path.is_empty() {
                return Err("file instance is missing the path".into());
            }
            return Ok(InstanceSpec::File {
                path: path.to_string(),
            });
        }
        let mut parts = field.split(':');
        let head = parts.next().unwrap_or_default();
        if head == "inline" {
            let n: usize = check_vertex_count(
                parts
                    .next()
                    .ok_or("inline instance is missing the vertex count")?
                    .parse()
                    .map_err(|_| "inline instance has a malformed vertex count".to_string())?,
            )?;
            let list = parts
                .next()
                .ok_or("inline instance is missing the edge list")?;
            if parts.next().is_some() {
                return Err("inline instance has trailing ':' fields".into());
            }
            let items = list.split(',').filter(|s| !s.is_empty());
            let edges = items.enumerate().map(|(i, item)| {
                let nums: Vec<&str> = item.split('-').collect();
                let [u, v, w] = nums.as_slice() else {
                    return Err(format!(
                        "inline edge {i} must be '<u>-<v>-<w>', got '{item}'"
                    ));
                };
                let parse = |s: &str, what: &str| -> Result<u64, String> {
                    s.parse()
                        .map_err(|_| format!("inline edge {i}: malformed {what} '{s}'"))
                };
                let (u, v) = (parse(u, "endpoint")?, parse(v, "endpoint")?);
                Ok((u as usize, v as usize, parse(w, "weight")?))
            });
            InstanceSpec::inline(n, edges)
        } else {
            let family = Family::parse(head).ok_or_else(|| {
                format!(
                    "unknown family '{head}' (expected random, ring, torus, harary, hypercube, \
                     inline:... or file:...)"
                )
            })?;
            let n: usize = check_vertex_count(
                parts
                    .next()
                    .ok_or_else(|| format!("family instance '{head}' is missing ':<n>'"))?
                    .parse()
                    .map_err(|_| {
                        format!("family instance '{head}' has a malformed vertex count")
                    })?,
            )?;
            let max_weight: u64 = match parts.next() {
                Some(w) => w
                    .parse()
                    .map_err(|_| format!("family instance '{head}' has a malformed max weight"))?,
                None => 1,
            };
            if parts.next().is_some() {
                return Err(format!("family instance '{head}' has trailing ':' fields"));
            }
            Ok(InstanceSpec::Family {
                family,
                n,
                max_weight,
            })
        }
    }

    /// An inline instance on `n` vertices from its edges in input order:
    /// every edge joins two distinct vertices below `n`, and there is at
    /// least one. The one definition of these rules: both request grammars
    /// build their inline instances through it, after
    /// [`check_vertex_count`], and an edge their own syntax rejects arrives
    /// here as that edge's `Err`.
    pub(crate) fn inline(
        n: usize,
        edges: impl Iterator<Item = Result<(usize, usize, u64), String>>,
    ) -> Result<InstanceSpec, String> {
        let mut checked = Vec::with_capacity(edges.size_hint().0);
        for (i, edge) in edges.enumerate() {
            let (u, v, w) = edge?;
            if u >= n || v >= n || u == v {
                return Err(format!(
                    "inline edge {i}: invalid endpoints {u} {v} for n = {n}"
                ));
            }
            checked.push((u, v, w));
        }
        if checked.is_empty() {
            return Err("inline instance has no edges".into());
        }
        Ok(InstanceSpec::Inline { n, edges: checked })
    }

    /// Refuses what a `SUBMIT` may not ask for at `k`, before anything is
    /// built: a `k` wider than `u32` (the `KGW1` field), and a family spec
    /// whose instance would pass [`MAX_INSTANCE_N`] vertices or
    /// [`MAX_INSTANCE_M`] edges ([`family_size`]). Both request grammars run
    /// it on every `SUBMIT`, and `kecss submit` before it sends one.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the bound.
    pub fn admit(&self, k: usize) -> Result<(), String> {
        if u32::try_from(k).is_err() {
            return Err(format!(
                "SUBMIT: k = {k} exceeds the service bound of {}",
                u32::MAX
            ));
        }
        if let InstanceSpec::Family { family, n, .. } = *self {
            let (vertices, edges) = family_size(family, n, k);
            check_vertex_count(vertices)?;
            check_edge_count(edges)?;
        }
        Ok(())
    }

    /// The canonical wire form (parses back to an equal spec).
    pub fn canonical(&self) -> String {
        match self {
            InstanceSpec::Family {
                family,
                n,
                max_weight,
            } => {
                if *max_weight > 1 {
                    format!("{family}:{n}:{max_weight}")
                } else {
                    format!("{family}:{n}")
                }
            }
            InstanceSpec::Inline { n, edges } => {
                let list: Vec<String> = edges
                    .iter()
                    .map(|(u, v, w)| format!("{u}-{v}-{w}"))
                    .collect();
                format!("inline:{n}:{}", list.join(","))
            }
            InstanceSpec::File { path } => format!("file:{path}"),
        }
    }

    /// Materializes the instance graph. A pure function of `(self, k, seed)`
    /// — and, for `file:` instances, of the file's contents at build time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build_family`] for family instances; inline
    /// instances only require 3 vertices; file instances propagate read and
    /// format errors and enforce [`MAX_INSTANCE_N`] from the header before
    /// the body is ingested.
    pub fn build(&self, k: usize, seed: u64) -> Result<Graph, String> {
        match self {
            InstanceSpec::Family {
                family,
                n,
                max_weight,
            } => build_family(*family, *n, k, *max_weight, seed),
            InstanceSpec::Inline { n, edges } => {
                if *n < 3 {
                    return Err("instances need at least 3 vertices".into());
                }
                let mut graph = Graph::new(*n);
                for &(u, v, w) in edges {
                    graph.add_edge(u, v, w);
                }
                Ok(graph)
            }
            InstanceSpec::File { path } => {
                // Size-bound the file BEFORE reading: a `SUBMIT file:` line
                // is attacker-adjacent input to a long-running process —
                // without this check one request naming a huge file (or an
                // unbounded special file like /dev/zero, which is also not a
                // regular file) could OOM the server or wedge a pool worker.
                let meta =
                    std::fs::metadata(path).map_err(|e| format!("instance file '{path}': {e}"))?;
                if !meta.is_file() {
                    return Err(format!("instance file '{path}' is not a regular file"));
                }
                if meta.len() > MAX_INSTANCE_FILE_BYTES {
                    return Err(format!(
                        "instance file '{path}' is {} bytes, exceeding the service bound of \
                         {MAX_INSTANCE_FILE_BYTES}",
                        meta.len()
                    ));
                }
                // Vertex-cap the instance from its header BEFORE the body is
                // ingested: `peek_header` reads the KGB1 header / the text
                // vertex-count line and nothing else, so an over-cap
                // instance is rejected without the server ever allocating
                // per-vertex or per-edge storage for it.
                let std_path = std::path::Path::new(path);
                let header = graphs::stream::peek_header(std_path)
                    .map_err(|e| format!("instance file '{path}': {e}"))?;
                if header.n > MAX_INSTANCE_N {
                    return Err(format!(
                        "instance file '{path}' declares {} vertices, exceeding the service \
                         bound of {MAX_INSTANCE_N}",
                        header.n
                    ));
                }
                if header.n < 3 {
                    return Err("instances need at least 3 vertices".into());
                }
                let graph = graphs::io::read_graph(std_path)
                    .map_err(|e| format!("instance file '{path}': {e}"))?;
                Ok(graph)
            }
        }
    }

    /// The instance graph of a job: [`InstanceSpec::build`]'s graph, or its
    /// error, except that a `file:` instance whose file still holds the
    /// records it was built from is shared from the server's table of built
    /// files.
    pub(crate) fn load(&self, k: usize, seed: u64) -> Result<Arc<Graph>, String> {
        match self {
            InstanceSpec::File { path } => FILES.load(path, || self.build(k, seed)),
            _ => self.build(k, seed).map(Arc::new),
        }
    }
}

/// The most vertices plus edges, over all its graphs, the table of built
/// `file:` instances keeps: a quarter of [`MAX_INSTANCE_M`]. A graph holds
/// about 56 bytes per edge and 8 per vertex, so this is about 235 MB of
/// graphs at most. A larger graph is never kept; its jobs build it each
/// time.
const FILE_TABLE_BUDGET: usize = MAX_INSTANCE_M / 4;

/// The most graphs the table of built `file:` instances keeps, whatever
/// their size: each costs a few hundred bytes beyond its vertices and edges.
const FILE_TABLE_ENTRIES: usize = 64;

/// The server's table of built `file:` instances.
static FILES: FileTable = FileTable::new(FILE_TABLE_BUDGET);

/// Built `file:` instances keyed by path, least recently used first, within
/// a budget of vertices plus edges and at most [`FILE_TABLE_ENTRIES`]
/// entries. The lock is held for none of the file reads, builds, or drops of
/// evicted graphs. Two jobs that miss on one path at once both build it;
/// the last to finish stays.
struct FileTable {
    budget: usize,
    entries: Mutex<Vec<(String, Arc<Graph>)>>,
}

impl FileTable {
    const fn new(budget: usize) -> Self {
        FileTable {
            budget,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The graph `build` makes of the file at `path`: the kept one when the
    /// file still streams exactly its records, otherwise a new build, kept
    /// if it fits. A kept graph the file no longer matches is evicted.
    fn load(
        &self,
        path: &str,
        build: impl FnOnce() -> Result<Graph, String>,
    ) -> Result<Arc<Graph>, String> {
        if let Some(kept) = self.get(path) {
            if streams_graph(path, &kept) {
                return Ok(kept);
            }
            self.evict(path, &kept);
        }
        let graph = Arc::new(build()?);
        self.keep(path, &graph);
        Ok(graph)
    }

    /// Every update leaves the list valid, so a poisoned lock is still a
    /// usable table.
    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<(String, Arc<Graph>)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The kept graph of `path`, now the most recently used.
    fn get(&self, path: &str) -> Option<Arc<Graph>> {
        let mut entries = self.entries();
        let i = entries.iter().position(|(p, _)| p == path)?;
        let entry = entries.remove(i);
        let graph = Arc::clone(&entry.1);
        entries.push(entry);
        Some(graph)
    }

    /// Removes `stale` from the table, unless another job replaced it. The
    /// caller still holds `stale`, so no graph is freed under the lock.
    fn evict(&self, path: &str, stale: &Arc<Graph>) {
        self.entries()
            .retain(|(p, g)| p != path || !Arc::ptr_eq(g, stale));
    }

    /// Keeps `graph` as the most recently used, evicting the least recently
    /// used until the table is within its bounds. A graph past the budget
    /// on its own is not kept, and evicts nothing.
    fn keep(&self, path: &str, graph: &Arc<Graph>) {
        if charge(graph) > self.budget {
            return;
        }
        let mut entries = self.entries();
        let mut evicted: Vec<_> = entries.extract_if(.., |(p, _)| p == path).collect();
        entries.push((path.to_string(), Arc::clone(graph)));
        let mut total: usize = entries.iter().map(|(_, g)| charge(g)).sum();
        while total > self.budget || entries.len() > FILE_TABLE_ENTRIES {
            let oldest = entries.remove(0);
            total -= charge(&oldest.1);
            evicted.push(oldest);
        }
        // Unlock before the evicted graphs are freed.
        drop(entries);
        drop(evicted);
    }
}

/// What a kept graph counts against [`FILE_TABLE_BUDGET`].
fn charge(graph: &Graph) -> usize {
    graph.n() + graph.m()
}

/// Whether the file at `path` passes [`InstanceSpec::build`]'s checks on its
/// metadata and streams exactly `graph`: the header's vertex count, then
/// every edge record in id order, up to a clean end. The file is read once,
/// through the cursor [`graphs::io::read_graph`] opens for its extension.
fn streams_graph(path: &str, graph: &Graph) -> bool {
    let Ok(meta) = std::fs::metadata(path) else {
        return false;
    };
    if !meta.is_file() || meta.len() > MAX_INSTANCE_FILE_BYTES {
        return false;
    }
    let Ok(file) = std::fs::File::open(path) else {
        return false;
    };
    match GraphFormat::from_path(Path::new(path)) {
        GraphFormat::Binary => BinaryCursor::new(file).is_ok_and(|c| same_records(c, graph)),
        GraphFormat::Text => TextCursor::new(file).is_ok_and(|c| same_records(c, graph)),
    }
}

/// Whether `cursor` streams `graph`'s vertex count and edge list.
fn same_records(mut cursor: impl RecordCursor, graph: &Graph) -> bool {
    if cursor.header().n != graph.n() {
        return false;
    }
    let mut edges = graph.edges();
    loop {
        match (cursor.next_record(), edges.next()) {
            (Ok(None), None) => return true,
            (Ok(Some(r)), Some((_, e))) if (r.u, r.v, r.weight) == (e.u, e.v, e.weight) => {}
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{self, Algorithm, JobSpec};
    use graphs::EdgeId;
    use kecss::cuts::EnumeratorPolicy;
    use kecss_runtime::Executor;
    use std::path::PathBuf;
    use std::sync::Barrier;

    /// An empty directory of its own for one test's instance files.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kecss-file-table-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_spec(path: &Path, algorithm: Algorithm, k: usize) -> JobSpec {
        JobSpec {
            instance: InstanceSpec::File {
                path: path.display().to_string(),
            },
            k,
            algorithm,
            enumerator: EnumeratorPolicy::Auto,
            seed: 11,
        }
    }

    /// The payload of `spec`'s job on the graph [`InstanceSpec::build`]
    /// makes of its instance now.
    fn cold_payload(spec: &JobSpec) -> Vec<u8> {
        let graph = spec.instance.build(spec.k, spec.seed).unwrap();
        job::run_on(spec, &graph, &Executor::Sequential).unwrap()
    }

    /// Loads the instance of `spec` through `table`.
    fn load(table: &FileTable, spec: &JobSpec) -> Result<Arc<Graph>, String> {
        let InstanceSpec::File { path } = &spec.instance else {
            panic!("not a file spec");
        };
        table.load(path, || spec.instance.build(spec.k, spec.seed))
    }

    fn kept_paths(table: &FileTable) -> Vec<String> {
        table.entries().iter().map(|(p, _)| p.clone()).collect()
    }

    /// Rewrites the file at `path` with `graph`, in place, and gives it back
    /// its modification time. The caller keeps its length.
    fn rewrite_keeping_mtime(path: &Path, graph: &Graph) {
        let before = std::fs::metadata(path).unwrap();
        graphs::io::write_graph(path, graph).unwrap();
        let file = std::fs::File::options().write(true).open(path).unwrap();
        file.set_modified(before.modified().unwrap()).unwrap();
        let after = std::fs::metadata(path).unwrap();
        assert_eq!(after.len(), before.len(), "{}", path.display());
        assert_eq!(after.modified().unwrap(), before.modified().unwrap());
    }

    /// `graph` with the weight of edge 0 moved between 1 and 2: a file of
    /// the same length in both formats, and a different payload.
    fn reweighted(graph: &Graph) -> Graph {
        let mut other = graph.clone();
        let w = other.weight(EdgeId(0));
        assert!(w <= 2, "a one-digit weight keeps the text file's length");
        other.set_weight(EdgeId(0), 3 - w);
        other
    }

    #[test]
    fn warm_and_cold_jobs_on_a_file_answer_the_cold_build() {
        let dir = scratch_dir("payloads");
        let graph = build_family(Family::Random, 40, 3, 30, 5).unwrap();
        for ext in ["graph", "graphb"] {
            for (algorithm, k) in [
                (Algorithm::TwoEcss, 2),
                (Algorithm::Thurimella, 2),
                (Algorithm::MstOnly, 2),
                (Algorithm::KEcss, 3),
            ] {
                // A path of its own, so the first job builds the graph.
                let path = dir.join(format!("{algorithm}.{ext}"));
                graphs::io::write_graph(&path, &graph).unwrap();
                let spec = file_spec(&path, algorithm, k);
                let reference = cold_payload(&spec);
                for run in ["cold", "warm", "warm again"] {
                    let payload = job::run(&spec, &Executor::Sequential).unwrap();
                    assert!(payload == reference, "{algorithm}.{ext}, {run} job");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_kept_graph_is_shared_only_while_its_file_streams_it() {
        let dir = scratch_dir("exact");
        let graph = build_family(Family::RingOfCliques, 40, 2, 1, 3).unwrap();
        let table = FileTable::new(FILE_TABLE_BUDGET);
        for ext in ["graph", "graphb"] {
            let path = dir.join(format!("ring.{ext}"));
            graphs::io::write_graph(&path, &graph).unwrap();
            let spec = file_spec(&path, Algorithm::TwoEcss, 2);
            let cold = load(&table, &spec).unwrap();
            let warm = load(&table, &spec).unwrap();
            assert!(Arc::ptr_eq(&cold, &warm), "{ext}: an unchanged file shares");

            // Same length, same mtime, other records: a table keyed on
            // path, size and mtime would serve the old graph here.
            let other = reweighted(&graph);
            rewrite_keeping_mtime(&path, &other);
            let rebuilt = load(&table, &spec).unwrap();
            assert!(!Arc::ptr_eq(&rebuilt, &cold), "{ext}");
            assert_eq!(*rebuilt, other, "{ext}");
            assert_eq!(*rebuilt, spec.instance.build(2, 11).unwrap(), "{ext}");
            assert!(Arc::ptr_eq(&rebuilt, &load(&table, &spec).unwrap()));

            // The same through `job::run`, on a path of its own: the next
            // job answers the cold build of the new bytes.
            let path = dir.join(format!("job.{ext}"));
            graphs::io::write_graph(&path, &graph).unwrap();
            let spec = file_spec(&path, Algorithm::TwoEcss, 2);
            let before = job::run(&spec, &Executor::Sequential).unwrap();
            assert!(before == cold_payload(&spec), "{ext}");
            rewrite_keeping_mtime(&path, &other);
            let after = job::run(&spec, &Executor::Sequential).unwrap();
            assert!(after == cold_payload(&spec), "{ext}");
            assert!(after != before, "{ext}: the rewrite changes the payload");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_broken_file_fails_as_the_cold_build_does_and_is_evicted() {
        let dir = scratch_dir("broken");
        let graph = build_family(Family::RingOfCliques, 40, 2, 1, 3).unwrap();
        let table = FileTable::new(FILE_TABLE_BUDGET);
        for ext in ["graph", "graphb"] {
            for what in ["truncated", "deleted", "a directory"] {
                let path = dir.join(format!("{}.{ext}", what.replace(' ', "-")));
                graphs::io::write_graph(&path, &graph).unwrap();
                let spec = file_spec(&path, Algorithm::TwoEcss, 2);
                load(&table, &spec).unwrap();
                let key = path.display().to_string();
                assert!(kept_paths(&table).contains(&key), "{what} {ext}");
                match what {
                    "truncated" => {
                        let bytes = std::fs::read(&path).unwrap();
                        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
                    }
                    "deleted" => std::fs::remove_file(&path).unwrap(),
                    _ => {
                        std::fs::remove_file(&path).unwrap();
                        std::fs::create_dir(&path).unwrap();
                    }
                }
                let err = load(&table, &spec).unwrap_err();
                assert_eq!(err, spec.instance.build(2, 11).unwrap_err(), "{what} {ext}");
                assert!(!kept_paths(&table).contains(&key), "{what} {ext}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_table_keeps_the_most_recently_used_graphs_within_its_budget() {
        let dir = scratch_dir("retention");
        let budget = 100;
        let table = FileTable::new(budget);
        // Cycles: a cycle on n vertices charges 2n.
        let spec_of = |name: &str, n: usize| {
            let path = dir.join(format!("{name}.graphb"));
            graphs::io::write_graph(&path, &generators::cycle(n, 1)).unwrap();
            file_spec(&path, Algorithm::TwoEcss, 2)
        };
        let a = spec_of("a", 20);
        let b = spec_of("b", 20);
        let c = spec_of("c", 15);
        let oversize = spec_of("oversize", 51);
        let kept = |table: &FileTable| -> Vec<String> {
            let total: usize = table.entries().iter().map(|(_, g)| charge(g)).sum();
            assert!(total <= table.budget, "{total} past the budget");
            kept_paths(table)
                .iter()
                .map(|p| Path::new(p).file_stem().unwrap().to_string_lossy().into())
                .collect()
        };
        let first_a = load(&table, &a).unwrap();
        load(&table, &b).unwrap();
        assert_eq!(kept(&table), ["a", "b"]);
        // A hit makes `a` the most recently used, so `c` evicts `b`.
        assert!(Arc::ptr_eq(&first_a, &load(&table, &a).unwrap()));
        assert_eq!(kept(&table), ["b", "a"]);
        load(&table, &c).unwrap();
        assert_eq!(kept(&table), ["a", "c"]);
        // A graph past the budget on its own is built, not kept, and
        // evicts nothing.
        assert_eq!(load(&table, &oversize).unwrap().n(), 51);
        assert_eq!(kept(&table), ["a", "c"]);
        assert!(Arc::ptr_eq(&first_a, &load(&table, &a).unwrap()));

        // However small the graphs, at most `FILE_TABLE_ENTRIES` stay.
        let table = FileTable::new(FILE_TABLE_BUDGET);
        let specs: Vec<JobSpec> = (0..=FILE_TABLE_ENTRIES)
            .map(|i| spec_of(&format!("tiny{i}"), 3))
            .collect();
        for spec in &specs {
            load(&table, spec).unwrap();
        }
        let kept = kept(&table);
        assert_eq!(kept.len(), FILE_TABLE_ENTRIES);
        assert_eq!(kept[0], "tiny1", "the least recently used went first");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eight_threads_on_one_file_get_identical_payloads() {
        let dir = scratch_dir("threads");
        let path = dir.join("ring.graphb");
        let graph = build_family(Family::RingOfCliques, 400, 2, 1, 9).unwrap();
        graphs::io::write_graph(&path, &graph).unwrap();
        let spec = file_spec(&path, Algorithm::Thurimella, 2);
        let reference = cold_payload(&spec);
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..3)
                            .map(|_| job::run(&spec, &Executor::Sequential).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for thread in threads {
                for payload in thread.join().unwrap() {
                    assert!(payload == reference);
                }
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn family_names_round_trip() {
        for family in [
            Family::Random,
            Family::RingOfCliques,
            Family::Torus,
            Family::Harary,
            Family::Hypercube,
        ] {
            assert_eq!(Family::parse(family.name()), Some(family));
        }
        assert_eq!(Family::parse("cube"), Some(Family::Hypercube));
        assert_eq!(Family::parse("nope"), None);
    }

    #[test]
    fn family_specs_parse_and_round_trip() {
        let spec = InstanceSpec::parse("hypercube:64").unwrap();
        assert_eq!(
            spec,
            InstanceSpec::Family {
                family: Family::Hypercube,
                n: 64,
                max_weight: 1
            }
        );
        assert_eq!(spec.canonical(), "hypercube:64");
        let spec = InstanceSpec::parse("random:48:30").unwrap();
        assert_eq!(spec.canonical(), "random:48:30");
        assert_eq!(
            InstanceSpec::parse(spec.canonical().as_str()).unwrap(),
            spec
        );
    }

    #[test]
    fn inline_specs_parse_and_build() {
        let spec = InstanceSpec::parse("inline:3:0-1-1,1-2-1,2-0-5").unwrap();
        assert_eq!(spec.canonical(), "inline:3:0-1-1,1-2-1,2-0-5");
        let g = spec.build(2, 1).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.total_weight(), 7);
    }

    #[test]
    fn file_specs_parse_and_build_in_both_formats() {
        let spec = InstanceSpec::parse("file:/data/big.graphb").unwrap();
        assert_eq!(
            spec,
            InstanceSpec::File {
                path: "/data/big.graphb".into()
            }
        );
        assert_eq!(spec.canonical(), "file:/data/big.graphb");
        // Paths containing ':' survive verbatim.
        assert_eq!(
            InstanceSpec::parse("file:C:/data/x.graph")
                .unwrap()
                .canonical(),
            "file:C:/data/x.graph"
        );
        assert!(InstanceSpec::parse("file:").is_err());

        let dir = std::env::temp_dir().join("kecss-server-instance-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let reference = build_family(Family::RingOfCliques, 20, 2, 1, 1).unwrap();
        for name in ["inst.graph", "inst.graphb"] {
            let path = dir.join(name);
            graphs::io::write_graph(&path, &reference).unwrap();
            let spec = InstanceSpec::parse(&format!("file:{}", path.display())).unwrap();
            let built = spec.build(2, 7).unwrap();
            assert_eq!(built, reference, "{name}");
        }
        // Missing files fail with a readable message, not a panic.
        let missing = InstanceSpec::parse("file:/no/such/file.graph").unwrap();
        let err = missing.build(2, 1).unwrap_err();
        assert!(err.contains("/no/such/file.graph"), "{err}");
        // Non-regular files (directories, devices) are refused before any
        // read — the size bound cannot be trusted for them.
        let dir_spec = InstanceSpec::parse(&format!("file:{}", dir.display())).unwrap();
        let err = dir_spec.build(2, 1).unwrap_err();
        assert!(err.contains("not a regular file"), "{err}");
    }

    #[test]
    fn oversized_file_instances_are_rejected_from_the_header_alone() {
        let dir = std::env::temp_dir().join("kecss-server-instance-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let over = (MAX_INSTANCE_N + 1) as u64;

        // A KGB1 header declaring an over-cap n, followed by NO body at all:
        // if the server read past the header the build would fail with a
        // truncation error, so getting the "service bound" message proves
        // the cap fired before any body ingest.
        let bin = dir.join("over.graphb");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"KGB1");
        bytes.extend_from_slice(&over.to_le_bytes());
        bytes.extend_from_slice(&1000u64.to_le_bytes());
        std::fs::write(&bin, &bytes).unwrap();
        let spec = InstanceSpec::parse(&format!("file:{}", bin.display())).unwrap();
        let err = spec.build(2, 1).unwrap_err();
        assert!(err.contains("exceeding the service bound"), "{err}");

        // Same for text: an over-cap vertex count followed by a line that
        // would be a parse error if the body were read.
        let text = dir.join("over.graph");
        std::fs::write(&text, format!("{over}\nthis is not an edge\n")).unwrap();
        let spec = InstanceSpec::parse(&format!("file:{}", text.display())).unwrap();
        let err = spec.build(2, 1).unwrap_err();
        assert!(err.contains("exceeding the service bound"), "{err}");

        // Under-cap headers still reach the body (and its errors).
        let torn = dir.join("torn.graphb");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"KGB1");
        bytes.extend_from_slice(&8u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        std::fs::write(&torn, &bytes).unwrap();
        let spec = InstanceSpec::parse(&format!("file:{}", torn.display())).unwrap();
        let err = spec.build(2, 1).unwrap_err();
        assert!(err.contains("ends after"), "{err}");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "nope:8",
            "random",
            "random:abc",
            "random:8:x",
            "random:8:1:9",
            "inline:3",
            "inline:x:0-1-1",
            "inline:3:0-1",
            "inline:3:0-1-1-7",
            "inline:3:0-9-1",
            "inline:3:1-1-1",
            "inline:3:",
            "inline:3:0-1-1:extra",
        ] {
            assert!(
                InstanceSpec::parse(bad).is_err(),
                "'{bad}' should not parse"
            );
        }
    }

    #[test]
    fn oversized_vertex_counts_are_rejected_at_parse_time() {
        let over = MAX_INSTANCE_N + 1;
        for bad in [
            format!("random:{over}"),
            format!("hypercube:{over}"),
            format!("inline:{over}:0-1-1"),
            "random:9999999999999999".to_string(),
        ] {
            let err = InstanceSpec::parse(&bad).unwrap_err();
            assert!(
                err.contains("exceeds") || err.contains("malformed"),
                "'{bad}': {err}"
            );
        }
        // The bound itself is accepted (parsing allocates nothing).
        assert!(InstanceSpec::parse(&format!("random:{MAX_INSTANCE_N}")).is_ok());
    }

    #[test]
    fn family_size_counts_what_build_family_builds() {
        for family in [
            Family::Random,
            Family::RingOfCliques,
            Family::Torus,
            Family::Harary,
            Family::Hypercube,
        ] {
            for (n, k) in [(17, 1), (12, 2), (20, 3), (30, 4)] {
                let graph = build_family(family, n, k, 1, 1).unwrap();
                let (vertices, edges) = family_size(family, n, k);
                assert_eq!(vertices, graph.n(), "{family}:{n} at k = {k}");
                if family == Family::Random {
                    assert!(edges >= graph.m(), "{family}:{n} at k = {k}");
                } else {
                    assert_eq!(edges, graph.m(), "{family}:{n} at k = {k}");
                }
            }
        }
    }

    #[test]
    fn admission_refuses_what_k_inflates_past_the_bounds() {
        // `wire`'s tests refuse the family specs in both grammars. Here: an
        // inline spec is held to the k bound, `build_family` refuses the
        // family specs too, and what stays admitted.
        let inline = InstanceSpec::parse("inline:3:0-1-1,1-2-1,2-0-1").unwrap();
        let err = inline.admit(1 << 32).unwrap_err();
        assert!(err.contains("k = 4294967296"), "{err}");
        // `kecss generate` refuses both family specs, before building.
        for (family, n, k) in [
            (Family::RingOfCliques, 20, 1_000_000),
            (Family::Random, 1 << 20, 1000),
        ] {
            let err = build_family(family, n, k, 1, 1).unwrap_err();
            assert!(err.contains("edge count"), "{family}:{n} at k = {k}: {err}");
        }
        // The widest k, the largest instances the suites submit, and a
        // maximal hypercube stay admitted.
        for (spec, k) in [
            ("inline:3:0-1-1,1-2-1,2-0-1", u32::MAX as usize),
            ("ring:100000", 2),
            ("random:2048:100", 2),
            ("harary:64:9", 6),
            ("torus:1048576", 4),
            ("hypercube:1048576", 20),
        ] {
            let admitted = InstanceSpec::parse(spec).unwrap().admit(k);
            assert_eq!(admitted, Ok(()), "{spec} at k = {k}");
        }
    }

    /// `build_family` holds instances to the edge bound only. For every `n`
    /// a `SUBMIT` may name that loses nothing: a family spec past the vertex
    /// bound is past the edge bound too.
    #[test]
    fn the_edge_bound_refuses_every_submit_the_vertex_bound_does() {
        for family in [
            Family::Random,
            Family::RingOfCliques,
            Family::Torus,
            Family::Harary,
            Family::Hypercube,
        ] {
            for n in [3, 20, 1000, MAX_INSTANCE_N - 1, MAX_INSTANCE_N] {
                for k in (0..=32).flat_map(|e| [(1usize << e) - 1, 1 << e, (1 << e) + 1]) {
                    let (vertices, edges) = family_size(family, n, k);
                    assert!(
                        vertices <= MAX_INSTANCE_N || edges > MAX_INSTANCE_M,
                        "{family}:{n} at k = {k}: {vertices} vertices, {edges} edges"
                    );
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic_and_validates() {
        let spec = InstanceSpec::parse("random:24:10").unwrap();
        let a = spec.build(2, 7).unwrap();
        let b = spec.build(2, 7).unwrap();
        assert_eq!(a, b);
        assert!(spec.build(0, 7).is_err(), "k = 0 must be rejected");
        assert!(InstanceSpec::parse("random:2")
            .unwrap()
            .build(2, 1)
            .is_err());
        assert!(
            InstanceSpec::parse("hypercube:16")
                .unwrap()
                .build(6, 1)
                .is_err(),
            "Q_4 cannot be 6-edge-connected"
        );
    }

    #[test]
    fn harary_shapes_the_generator_cannot_build_are_refused() {
        for (family, n, k, rule) in [
            (Family::Harary, 9, 3, "needs an even n"),
            (Family::Random, 9, 5, "needs an even n"),
            (Family::Random, 5, 7, "needs k < n"),
            (Family::Harary, 6, 6, "needs k < n"),
        ] {
            let err = build_family(family, n, k, 1, 1).unwrap_err();
            assert!(err.contains(rule), "{family}:{n} at k = {k}: {err}");
        }
        for (family, n, k) in [
            (Family::Harary, 16, 5),
            (Family::Random, 129, 1),
            (Family::Harary, 9, 2),
            (Family::Random, 9, 8),
        ] {
            let graph = build_family(family, n, k, 40, 1).unwrap();
            assert_eq!(graph.n(), n, "{family}:{n} at k = {k}");
        }
    }
}
