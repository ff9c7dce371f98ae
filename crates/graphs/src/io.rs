//! Instance files: the plain-text format, the `KGB1` binary format, and
//! extension-based autodetection.
//!
//! Two on-disk encodings of the same logical object — an edge list with a
//! vertex count — with **identical `EdgeId` assignment** (edges are stored in
//! id order in both), so a graph round-trips bit-exactly through either
//! format and solvers produce byte-identical output regardless of which one
//! an instance was loaded from:
//!
//! * **Text** (`.graph`, and any other extension): `#` comment lines, one
//!   data line with the vertex count, then one `u v weight` line per edge.
//!   Human-readable, diff-able, ~20 bytes and one integer-parse per edge.
//! * **Binary** (`.graphb`): the `KGB1` magic, little-endian `u64` vertex
//!   and edge counts, then one fixed-width 16-byte record per edge —
//!   `u: u32, v: u32, weight: u64`, all little-endian. Length-prefixed and
//!   fixed-stride, so reading is one bulk I/O pass with no parsing; DESIGN.md
//!   §10 specifies the layout.
//!
//! Solutions (edge subsets of an instance) mirror the same split:
//!
//! * **Text** (`.edges`, and any other extension): one `u v weight` line per
//!   selected edge; edges are matched back to the instance by endpoints,
//!   cheapest unused edge first.
//! * **Binary** (`.solb`): the `KGS1` magic, a little-endian `u64` count,
//!   then one little-endian `u64` edge id per selected edge in strictly
//!   increasing order — the canonical encoding, since [`EdgeSet::iter`]
//!   yields increasing ids. Exact (ids, not endpoint matching) and eight
//!   bytes per edge; DESIGN.md §10 specifies the layout.
//!
//! All writers stream through an [`io::Write`] sink and the path-level
//! readers ([`read_graph`], [`read_solution`]) stream through the chunked
//! cursors of [`crate::stream`] — a 10⁷-edge instance is never materialized
//! as one in-memory buffer.

use crate::graph::{EdgeId, EdgeSet, Graph};
use crate::stream::{BinaryCursor, RecordCursor, TextCursor};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The `.graphb` magic: "KGB1" (Kecss Graph Binary, version 1).
pub const BINARY_MAGIC: [u8; 4] = *b"KGB1";

/// The file extension that selects the binary format.
pub const BINARY_EXTENSION: &str = "graphb";

/// Size of one binary edge record: `u32 u, u32 v, u64 weight`.
const RECORD_BYTES: usize = 16;

/// The `.solb` magic: "KGS1" (Kecss Graph Solution, version 1).
pub const SOLUTION_BINARY_MAGIC: [u8; 4] = *b"KGS1";

/// The file extension that selects the binary solution format.
pub const SOLUTION_BINARY_EXTENSION: &str = "solb";

/// Size of one binary solution record: one `u64` edge id.
const SOLUTION_RECORD_BYTES: usize = 8;

/// Errors of the instance codecs.
#[derive(Debug)]
pub enum GraphIoError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// Malformed content (either format).
    Format(String),
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<io::Error> for GraphIoError {
    fn from(value: io::Error) -> Self {
        GraphIoError::Io(value)
    }
}

/// The two on-disk instance encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// One `u v weight` line per edge (the seed format).
    Text,
    /// `KGB1` fixed-width records (DESIGN.md §10).
    Binary,
}

impl GraphFormat {
    /// Picks the format from a path's extension: `.graphb` is binary,
    /// everything else (including no extension) is text.
    pub fn from_path(path: &Path) -> GraphFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) if ext.eq_ignore_ascii_case(BINARY_EXTENSION) => GraphFormat::Binary,
            _ => GraphFormat::Text,
        }
    }
}

/// The two on-disk solution encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolutionFormat {
    /// One `u v weight` line per selected edge (the seed format).
    Text,
    /// `KGS1` edge-id records (DESIGN.md §10).
    Binary,
}

impl SolutionFormat {
    /// Picks the format from a path's extension: `.solb` is binary,
    /// everything else (including no extension) is text.
    pub fn from_path(path: &Path) -> SolutionFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) if ext.eq_ignore_ascii_case(SOLUTION_BINARY_EXTENSION) => {
                SolutionFormat::Binary
            }
            _ => SolutionFormat::Text,
        }
    }
}

/// Streams a graph in the text format to `sink`.
///
/// # Errors
///
/// Propagates sink errors.
pub fn write_text<W: Write>(sink: &mut W, graph: &Graph) -> io::Result<()> {
    writeln!(
        sink,
        "# kecss instance: first line = n, then one 'u v weight' per edge"
    )?;
    writeln!(sink, "{}", graph.n())?;
    for (_, e) in graph.edges() {
        writeln!(sink, "{} {} {}", e.u, e.v, e.weight)?;
    }
    Ok(())
}

/// Parses a graph from the text format (in memory, via the legacy mutable
/// builder — the streaming two-pass path is [`read_graph`]).
///
/// # Errors
///
/// Returns [`GraphIoError::Format`] on malformed content; errors carry the
/// 1-based physical line number of the offending line.
pub fn read_text(text: &str) -> Result<Graph, GraphIoError> {
    let mut cursor = TextCursor::new(text.as_bytes())?;
    let mut graph = Graph::new(cursor.header().n);
    while let Some(record) = cursor.next_record()? {
        graph.add_edge(record.u, record.v, record.weight);
    }
    Ok(graph)
}

/// Streams a graph in the `KGB1` binary format to `sink`.
///
/// # Errors
///
/// Returns [`GraphIoError::Format`] if an endpoint exceeds `u32` (the record
/// width), and propagates sink errors.
pub fn write_binary<W: Write>(sink: &mut W, graph: &Graph) -> Result<(), GraphIoError> {
    if graph.n() > u32::MAX as usize {
        return Err(GraphIoError::Format(format!(
            "binary format stores endpoints as u32; n = {} does not fit",
            graph.n()
        )));
    }
    sink.write_all(&BINARY_MAGIC)?;
    sink.write_all(&(graph.n() as u64).to_le_bytes())?;
    sink.write_all(&(graph.m() as u64).to_le_bytes())?;
    let mut record = [0u8; RECORD_BYTES];
    for (_, e) in graph.edges() {
        record[0..4].copy_from_slice(&(e.u as u32).to_le_bytes());
        record[4..8].copy_from_slice(&(e.v as u32).to_le_bytes());
        record[8..16].copy_from_slice(&e.weight.to_le_bytes());
        sink.write_all(&record)?;
    }
    Ok(())
}

/// Parses a graph from the `KGB1` binary format.
///
/// # Errors
///
/// Returns [`GraphIoError::Format`] on a bad magic, truncated or oversized
/// content, or invalid endpoints.
pub fn read_binary(bytes: &[u8]) -> Result<Graph, GraphIoError> {
    let header = 4 + 8 + 8;
    if bytes.len() < header {
        return Err(GraphIoError::Format(
            "binary instance is shorter than the KGB1 header".into(),
        ));
    }
    if bytes[0..4] != BINARY_MAGIC {
        return Err(GraphIoError::Format(format!(
            "bad magic {:02x?} (expected \"KGB1\"); is this a binary instance?",
            &bytes[0..4]
        )));
    }
    let le_u64 =
        |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"));
    let n = le_u64(4);
    let m = le_u64(12);
    // The writer rejects n > u32::MAX (u32 endpoints), so a larger header
    // value can only be a corrupt or hostile file; reject it before it can
    // size any allocation.
    if n > u64::from(u32::MAX) {
        return Err(GraphIoError::Format(format!(
            "binary instance declares {n} vertices, beyond the format's u32 endpoint range"
        )));
    }
    let n = n as usize;
    // Checked arithmetic: a crafted edge count must not overflow the
    // expected-length computation (wrap would mis-validate the body).
    let expected = usize::try_from(m)
        .ok()
        .and_then(|m| m.checked_mul(RECORD_BYTES))
        .ok_or_else(|| {
            GraphIoError::Format(format!(
                "binary instance declares an implausible edge count {m}"
            ))
        })?;
    let m = m as usize;
    let body = &bytes[header..];
    if body.len() != expected {
        return Err(GraphIoError::Format(format!(
            "binary instance declares {m} edges ({expected} body bytes) but carries {}",
            body.len()
        )));
    }
    let mut graph = Graph::new(n);
    for (idx, record) in body.chunks_exact(RECORD_BYTES).enumerate() {
        let u = u32::from_le_bytes(record[0..4].try_into().expect("4-byte slice")) as usize;
        let v = u32::from_le_bytes(record[4..8].try_into().expect("4-byte slice")) as usize;
        let w = u64::from_le_bytes(record[8..16].try_into().expect("8-byte slice"));
        if u >= n || v >= n || u == v {
            return Err(GraphIoError::Format(format!(
                "edge record {idx}: invalid endpoints {u} {v}"
            )));
        }
        graph.add_edge(u, v, w);
    }
    Ok(graph)
}

/// Writes a graph to `path`, picking the format from the extension
/// (`.graphb` = binary, anything else = text), through a buffered stream.
///
/// # Errors
///
/// Propagates I/O and encoding errors.
pub fn write_graph(path: &Path, graph: &Graph) -> Result<(), GraphIoError> {
    let mut sink = BufWriter::new(std::fs::File::create(path)?);
    match GraphFormat::from_path(path) {
        GraphFormat::Text => write_text(&mut sink, graph)?,
        GraphFormat::Binary => write_binary(&mut sink, graph)?,
    }
    sink.flush()?;
    Ok(())
}

/// Reads a graph from `path`, picking the format from the extension, by
/// **streaming**: the file is read twice through a chunked cursor
/// ([`Graph::from_edge_stream`]) and arrives frozen, with no full-file
/// buffer and no intermediate edge list. The result — including `EdgeId`
/// assignment and CSR entry order — is bit-identical to the in-memory
/// readers ([`read_text`], [`read_binary`]).
///
/// # Errors
///
/// Propagates I/O and format errors.
pub fn read_graph(path: &Path) -> Result<Graph, GraphIoError> {
    match GraphFormat::from_path(path) {
        GraphFormat::Text => {
            Graph::from_edge_stream(|| TextCursor::new(std::fs::File::open(path)?))
        }
        GraphFormat::Binary => {
            Graph::from_edge_stream(|| BinaryCursor::new(std::fs::File::open(path)?))
        }
    }
}

/// Streams a solution (edge subset of `graph`) as a text edge list to `sink`.
///
/// # Errors
///
/// Propagates sink errors.
pub fn write_solution_text<W: Write>(
    sink: &mut W,
    graph: &Graph,
    edges: &EdgeSet,
) -> io::Result<()> {
    writeln!(
        sink,
        "# kecss solution: one 'u v weight' line per selected edge"
    )?;
    for id in edges.iter() {
        let e = graph.edge(id);
        writeln!(sink, "{} {} {}", e.u, e.v, e.weight)?;
    }
    Ok(())
}

/// Parses a text solution back into an [`EdgeSet`] of `graph`, streaming
/// line by line.
///
/// Each `u v weight` line claims one edge between `u` and `v`; the weight is
/// informational and ignored. Parallel edges are matched greedily — the
/// cheapest unused edge between the endpoints first (ties by id) — so a
/// canonical re-encoding of the parsed set reproduces the input's edge
/// multiset.
///
/// # Errors
///
/// Returns [`GraphIoError::Format`] (with the 1-based physical line number)
/// if a line is malformed or references an edge the instance does not have.
pub fn read_solution_text<R: Read>(source: R, graph: &Graph) -> Result<EdgeSet, GraphIoError> {
    let mut set = graph.empty_edge_set();
    let mut reader = BufReader::new(source);
    let mut line = String::new();
    let mut line_no: u64 = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(set);
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let mut endpoint = |what: &str| -> Result<usize, GraphIoError> {
            parts.next().and_then(|p| p.parse().ok()).ok_or_else(|| {
                GraphIoError::Format(format!("solution line {line_no}: malformed {what}"))
            })
        };
        let u = endpoint("endpoint u")?;
        let v = endpoint("endpoint v")?;
        if u >= graph.n() || v >= graph.n() {
            return Err(GraphIoError::Format(format!(
                "solution line {line_no}: endpoint out of range"
            )));
        }
        let mut candidates: Vec<EdgeId> = graph
            .neighbors(u)
            .iter()
            .filter(|(nbr, id)| *nbr == v && !set.contains(*id))
            .map(|&(_, id)| id)
            .collect();
        candidates.sort_by_key(|&id| (graph.weight(id), id));
        let Some(&id) = candidates.first() else {
            return Err(GraphIoError::Format(format!(
                "solution line {line_no}: the instance has no unused edge between {u} and {v}"
            )));
        };
        set.insert(id);
    }
}

/// Streams a solution in the `KGS1` binary format to `sink`: magic, LE u64
/// count, then one LE u64 edge id per selected edge in strictly increasing
/// order ([`EdgeSet::iter`]'s order, which makes the encoding canonical).
///
/// # Errors
///
/// Propagates sink errors.
pub fn write_solution_binary<W: Write>(sink: &mut W, edges: &EdgeSet) -> io::Result<()> {
    sink.write_all(&SOLUTION_BINARY_MAGIC)?;
    sink.write_all(&(edges.len() as u64).to_le_bytes())?;
    for id in edges.iter() {
        sink.write_all(&(id.index() as u64).to_le_bytes())?;
    }
    Ok(())
}

/// Parses a solution from the `KGS1` binary format, streaming through a
/// chunked reader — exact edge ids, no endpoint matching.
///
/// # Errors
///
/// Returns [`GraphIoError::Format`] on a bad magic, truncated or trailing
/// content, ids at or beyond `graph.m()`, or ids out of strictly increasing
/// order (which also catches duplicates).
pub fn read_solution_binary<R: Read>(source: R, graph: &Graph) -> Result<EdgeSet, GraphIoError> {
    let mut reader = BufReader::new(source);
    let mut header = [0u8; 4 + 8];
    reader.read_exact(&mut header).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            GraphIoError::Format("binary solution is shorter than the KGS1 header".into())
        } else {
            GraphIoError::Io(e)
        }
    })?;
    if header[0..4] != SOLUTION_BINARY_MAGIC {
        return Err(GraphIoError::Format(format!(
            "bad magic {:02x?} (expected \"KGS1\"); is this a binary solution?",
            &header[0..4]
        )));
    }
    let count = u64::from_le_bytes(header[4..12].try_into().expect("8-byte slice"));
    if count > graph.m() as u64 {
        return Err(GraphIoError::Format(format!(
            "binary solution declares {count} edges but the instance has only {}",
            graph.m()
        )));
    }
    let mut set = graph.empty_edge_set();
    let mut record = [0u8; SOLUTION_RECORD_BYTES];
    let mut previous: Option<u64> = None;
    for idx in 0..count {
        reader.read_exact(&mut record).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                GraphIoError::Format(format!(
                    "binary solution declares {count} edges but its body ends after {idx}"
                ))
            } else {
                GraphIoError::Io(e)
            }
        })?;
        let id = u64::from_le_bytes(record);
        if id >= graph.m() as u64 {
            return Err(GraphIoError::Format(format!(
                "solution record {idx}: edge id {id} out of range (m = {})",
                graph.m()
            )));
        }
        if previous.is_some_and(|p| p >= id) {
            return Err(GraphIoError::Format(format!(
                "solution record {idx}: edge id {id} is not strictly increasing"
            )));
        }
        previous = Some(id);
        set.insert(EdgeId(id as usize));
    }
    if reader.read(&mut [0u8; 1])? != 0 {
        return Err(GraphIoError::Format(format!(
            "binary solution carries trailing bytes after its {count} declared records"
        )));
    }
    Ok(set)
}

/// Writes a solution to `path`, picking the format from the extension
/// (`.solb` = `KGS1` binary, anything else = text), through a buffered
/// stream.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_solution(path: &Path, graph: &Graph, edges: &EdgeSet) -> Result<(), GraphIoError> {
    let mut sink = BufWriter::new(std::fs::File::create(path)?);
    match SolutionFormat::from_path(path) {
        SolutionFormat::Text => write_solution_text(&mut sink, graph, edges)?,
        SolutionFormat::Binary => write_solution_binary(&mut sink, edges)?,
    }
    sink.flush()?;
    Ok(())
}

/// Reads a solution from `path`, picking the format from the extension,
/// streaming either way.
///
/// # Errors
///
/// Propagates I/O and format errors.
pub fn read_solution(path: &Path, graph: &Graph) -> Result<EdgeSet, GraphIoError> {
    let file = std::fs::File::open(path)?;
    match SolutionFormat::from_path(path) {
        SolutionFormat::Text => read_solution_text(file, graph),
        SolutionFormat::Binary => read_solution_binary(file, graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;

    fn sample(seed: u64) -> Graph {
        generators::random_weighted_k_edge_connected(
            14,
            2,
            9,
            40,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed),
        )
    }

    #[test]
    fn text_round_trip_preserves_edge_ids() {
        let g = sample(1);
        let mut buf = Vec::new();
        write_text(&mut buf, &g).unwrap();
        let parsed = read_text(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn binary_round_trip_preserves_edge_ids() {
        let g = sample(2);
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        assert_eq!(&buf[0..4], b"KGB1");
        assert_eq!(buf.len(), 20 + 16 * g.m());
        let parsed = read_binary(&buf).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn formats_agree_on_the_same_graph() {
        let g = sample(3);
        let mut text = Vec::new();
        write_text(&mut text, &g).unwrap();
        let mut binary = Vec::new();
        write_binary(&mut binary, &g).unwrap();
        let from_text = read_text(std::str::from_utf8(&text).unwrap()).unwrap();
        let from_binary = read_binary(&binary).unwrap();
        assert_eq!(from_text, from_binary);
    }

    #[test]
    fn extension_autodetection() {
        assert_eq!(
            GraphFormat::from_path(Path::new("a/b/inst.graph")),
            GraphFormat::Text
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("inst.graphb")),
            GraphFormat::Binary
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("inst.GRAPHB")),
            GraphFormat::Binary
        );
        assert_eq!(GraphFormat::from_path(Path::new("inst")), GraphFormat::Text);
        assert_eq!(
            GraphFormat::from_path(Path::new("inst.edges")),
            GraphFormat::Text
        );
    }

    #[test]
    fn file_round_trip_in_both_formats() {
        let dir = std::env::temp_dir().join("kecss-graphs-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample(4);
        for name in ["roundtrip.graph", "roundtrip.graphb"] {
            let path = dir.join(name);
            write_graph(&path, &g).unwrap();
            let parsed = read_graph(&path).unwrap();
            assert_eq!(parsed, g, "{name}");
        }
        // The binary file is much denser than the text file.
        let text_len = std::fs::metadata(dir.join("roundtrip.graph"))
            .unwrap()
            .len();
        let bin_len = std::fs::metadata(dir.join("roundtrip.graphb"))
            .unwrap()
            .len();
        assert!(
            bin_len < text_len * 3,
            "binary {bin_len} vs text {text_len}"
        );
    }

    #[test]
    fn malformed_binary_is_rejected() {
        // Too short.
        assert!(read_binary(b"KGB1").is_err());
        // Bad magic.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample(5)).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_binary(&bad).is_err());
        // Truncated body.
        assert!(read_binary(&buf[..buf.len() - 1]).is_err());
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert!(read_binary(&long).is_err());
        // A crafted edge count must not overflow the expected-length check
        // (wrap would validate the body against a tiny number).
        let mut huge_m = buf.clone();
        huge_m[12..20].copy_from_slice(&((1u64 << 60) + 1).to_le_bytes());
        assert!(read_binary(&huge_m).is_err());
        // A vertex count beyond the u32 endpoint range is rejected before it
        // sizes anything.
        let mut huge_n = buf.clone();
        huge_n[4..12].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert!(read_binary(&huge_n).is_err());
        // Invalid endpoints (self-loop record).
        let g = Graph::from_edges(3, [(0, 1, 1)]);
        let mut enc = Vec::new();
        write_binary(&mut enc, &g).unwrap();
        enc[20..24].copy_from_slice(&1u32.to_le_bytes());
        enc[24..28].copy_from_slice(&1u32.to_le_bytes());
        assert!(read_binary(&enc).is_err());
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(read_text("").is_err());
        assert!(read_text("three\n").is_err());
        assert!(read_text("3\n0 1\n").is_err());
        assert!(read_text("3\n0 9 1\n").is_err());
        assert!(read_text("3\n1 1 1\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = read_text("# header\n\n4\n# an edge\n0 1 5\n\n2 3 7\n").unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
        assert_eq!(g.total_weight(), 12);
    }

    #[test]
    fn solutions_with_unknown_edges_are_rejected() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1);
        // No such edge, a vertex out of range, and the one 0-1 edge listed
        // twice.
        for text in ["1 2 1\n", "0 7 1\n", "0 1 1\n0 1 1\n"] {
            assert!(read_solution_text(text.as_bytes(), &g).is_err(), "{text:?}");
        }
    }

    #[test]
    fn solution_text_streams() {
        let g = sample(6);
        let set = g.full_edge_set();
        let mut buf = Vec::new();
        write_solution_text(&mut buf, &g, &set).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), g.m());
    }

    #[test]
    fn text_errors_carry_one_based_line_numbers() {
        // The vertex-count line is physical line 2 here.
        let err = read_text("# header\nnope\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // The bad edge line is physical line 4 (comment + count + edge).
        let err = read_text("# header\n3\n0 1 1\n0 2\n").unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn solution_format_autodetection() {
        assert_eq!(
            SolutionFormat::from_path(Path::new("a/b/sol.edges")),
            SolutionFormat::Text
        );
        assert_eq!(
            SolutionFormat::from_path(Path::new("sol.solb")),
            SolutionFormat::Binary
        );
        assert_eq!(
            SolutionFormat::from_path(Path::new("sol.SOLB")),
            SolutionFormat::Binary
        );
        assert_eq!(
            SolutionFormat::from_path(Path::new("sol")),
            SolutionFormat::Text
        );
    }

    #[test]
    fn binary_solution_round_trips() {
        let g = sample(7);
        let mut set = g.empty_edge_set();
        for id in g.edge_ids().filter(|id| id.index() % 3 != 1) {
            set.insert(id);
        }
        let mut buf = Vec::new();
        write_solution_binary(&mut buf, &set).unwrap();
        assert_eq!(&buf[0..4], b"KGS1");
        assert_eq!(buf.len(), 12 + 8 * set.len());
        let parsed = read_solution_binary(buf.as_slice(), &g).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn malformed_binary_solutions_are_rejected() {
        let g = sample(8);
        let mut set = g.empty_edge_set();
        set.insert(crate::EdgeId(0));
        set.insert(crate::EdgeId(2));
        let mut buf = Vec::new();
        write_solution_binary(&mut buf, &set).unwrap();
        // Short header.
        assert!(read_solution_binary(&b"KGS1"[..], &g).is_err());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_solution_binary(bad.as_slice(), &g).is_err());
        // Truncated body.
        assert!(read_solution_binary(&buf[..buf.len() - 1], &g).is_err());
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert!(read_solution_binary(long.as_slice(), &g).is_err());
        // Count beyond m.
        let mut huge = buf.clone();
        huge[4..12].copy_from_slice(&(g.m() as u64 + 1).to_le_bytes());
        assert!(read_solution_binary(huge.as_slice(), &g).is_err());
        // Id out of range.
        let mut oob = buf.clone();
        oob[20..28].copy_from_slice(&(g.m() as u64).to_le_bytes());
        assert!(read_solution_binary(oob.as_slice(), &g).is_err());
        // Duplicate / non-increasing ids.
        let mut dup = buf.clone();
        dup[20..28].copy_from_slice(&0u64.to_le_bytes());
        assert!(read_solution_binary(dup.as_slice(), &g).is_err());
    }

    #[test]
    fn solution_file_round_trip_in_both_formats() {
        let dir = std::env::temp_dir().join("kecss-graphs-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample(9);
        let mut set = g.empty_edge_set();
        for id in g.edge_ids().filter(|id| id.index() % 2 == 0) {
            set.insert(id);
        }
        for name in ["sol.edges", "sol.solb"] {
            let path = dir.join(name);
            write_solution(&path, &g, &set).unwrap();
            assert_eq!(read_solution(&path, &g).unwrap(), set, "{name}");
        }
        // The binary encoding is the canonical one: re-writing the parsed
        // set is byte-identical.
        let path = dir.join("sol.solb");
        let first = std::fs::read(&path).unwrap();
        let parsed = read_solution(&path, &g).unwrap();
        let mut second = Vec::new();
        write_solution_binary(&mut second, &parsed).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn text_solutions_match_by_endpoints_with_line_numbers() {
        let mut g = Graph::new(3);
        let a = g.add_edge(0, 1, 5);
        let b = g.add_edge(0, 1, 2);
        let c = g.add_edge(1, 2, 3);
        let mut set = g.empty_edge_set();
        set.insert(a);
        set.insert(b);
        set.insert(c);
        let mut buf = Vec::new();
        write_solution_text(&mut buf, &g, &set).unwrap();
        let parsed = read_solution_text(buf.as_slice(), &g).unwrap();
        assert_eq!(parsed, set);
        // The header comment is line 1, so the first bad data line is 2.
        let err = read_solution_text(&b"# c\n0 2 1\n"[..], &g).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = read_solution_text(&b"0 x 1\n"[..], &g).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
