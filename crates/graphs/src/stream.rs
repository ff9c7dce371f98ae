//! Out-of-core instance ingest: streaming record cursors and the two-pass
//! CSR build.
//!
//! The `slurp then build` readers in [`crate::io`] copy a whole file into
//! memory before a single edge exists; at the road-network scale the ROADMAP
//! targets (10⁸ edges, gigabytes on disk) that buffer dominates peak RSS.
//! This module replaces the ingest path with two pieces:
//!
//! * [`RecordCursor`] — a cursor over an instance's edge records through any
//!   [`io::Read`]. [`BinaryCursor`] walks `KGB1`'s fixed-stride 16-byte
//!   records through a bounded chunk buffer (records may straddle chunk
//!   boundaries and arbitrarily short reads); [`TextCursor`] streams the
//!   plain-text format line by line and carries 1-based line numbers into
//!   every error. They are the formats' only validators: the in-memory
//!   readers of [`crate::io`] drain them over a byte slice.
//! * [`Graph::from_edge_stream`] — a two-pass counting-sort CSR builder
//!   that opens the source twice: pass 1 validates the records and counts
//!   per-vertex degrees and edges, pass 2 collects the edge list at its exact
//!   size. The CSR entries are then placed by the same loop the lazy
//!   `add_edge` + `freeze()` build runs, from pass 1's degrees. Nothing is
//!   materialized beyond the graph's own storage — no file buffer, no
//!   amortized-doubling edge vector — and the frozen CSR is bit-identical to
//!   the in-memory path (a determinism requirement: adjacency order is
//!   observable through DFS tie-breaks and message ordering).
//!
//! [`peek_header`] exposes the header (vertex count, declared edge count)
//! without touching the body, so a service can enforce instance caps
//! *before* ingesting a single record (`kecss_server`'s `file:` specs do).

use crate::graph::{Edge, Graph};
use crate::io::{decode_record, GraphFormat, GraphIoError, BINARY_MAGIC, RECORD_BYTES};
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

/// Size of the `KGB1` header: magic + LE u64 vertex and edge counts.
const HEADER_BYTES: usize = 4 + 8 + 8;

/// Default chunk-buffer capacity of the streaming cursors (bytes).
const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// One streamed edge record: endpoints and weight, already bounds-checked
/// against the header's vertex count (and self-loop-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRecord {
    /// One endpoint (`< n`).
    pub u: usize,
    /// The other endpoint (`< n`, `!= u`).
    pub v: usize,
    /// The edge weight.
    pub weight: u64,
}

/// What an instance header declares before any edge record is read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHeader {
    /// The vertex count.
    pub n: usize,
    /// The edge count, for formats that declare one up front (`KGB1` does;
    /// the text format does not).
    pub declared_m: Option<u64>,
}

/// A streaming cursor over an instance's edge records, in `EdgeId` order.
///
/// Both on-disk formats sit behind this trait ([`BinaryCursor`],
/// [`TextCursor`]), so every consumer — the two-pass CSR build, the CLI, the
/// service's `file:` specs — ingests either format through the same chunked,
/// bounded-memory discipline. Records are validated as they are produced:
/// endpoints in range, no self-loops, with the record's position (record
/// index or 1-based line number) carried into the error.
pub trait RecordCursor {
    /// The header, available from construction (before any record).
    fn header(&self) -> StreamHeader;

    /// The next edge record, or `Ok(None)` at a clean end of input.
    ///
    /// # Errors
    ///
    /// Returns [`GraphIoError`] on I/O failures or malformed content
    /// (truncated records, trailing bytes, invalid endpoints).
    fn next_record(&mut self) -> Result<Option<EdgeRecord>, GraphIoError>;
}

/// Streams `KGB1` fixed-stride records through a bounded chunk buffer.
///
/// The cursor never holds more than one chunk (64 KiB by default) of the
/// body in memory; records that straddle a chunk boundary — or a reader that
/// hands out one byte at a time — are reassembled transparently. The header
/// is read and validated at construction, so the declared vertex and edge
/// counts are available before any record is ingested.
#[derive(Debug)]
pub struct BinaryCursor<R: Read> {
    source: R,
    n: usize,
    m: u64,
    produced: u64,
    buf: Vec<u8>,
    filled: usize,
    pos: usize,
}

impl<R: Read> BinaryCursor<R> {
    /// Opens a cursor with the default chunk capacity, reading and
    /// validating the `KGB1` header.
    ///
    /// # Errors
    ///
    /// Returns [`GraphIoError::Format`] on a short or bad header (wrong
    /// magic, vertex count beyond the u32 endpoint range, implausible edge
    /// count) and propagates I/O errors.
    pub fn new(source: R) -> Result<Self, GraphIoError> {
        Self::with_chunk_capacity(source, DEFAULT_CHUNK_BYTES)
    }

    /// Opens a cursor whose chunk buffer holds `capacity` bytes (clamped to
    /// at least one record). Small capacities force records to straddle
    /// refills; the tests use this to exercise the reassembly path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BinaryCursor::new`].
    pub fn with_chunk_capacity(mut source: R, capacity: usize) -> Result<Self, GraphIoError> {
        let mut header = [0u8; HEADER_BYTES];
        let mut got = 0;
        while got < HEADER_BYTES {
            let read = source.read(&mut header[got..])?;
            if read == 0 {
                return Err(GraphIoError::Format(
                    "binary instance is shorter than the KGB1 header".into(),
                ));
            }
            got += read;
        }
        if header[0..4] != BINARY_MAGIC {
            return Err(GraphIoError::Format(format!(
                "bad magic {:02x?} (expected \"KGB1\"); is this a binary instance?",
                &header[0..4]
            )));
        }
        let le_u64 =
            |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8-byte slice"));
        let n = le_u64(4);
        let m = le_u64(12);
        // The writer rejects n > u32::MAX (u32 endpoints), so a larger header
        // value can only be a corrupt or hostile file; reject it before it
        // can size any allocation.
        if n > u64::from(u32::MAX) {
            return Err(GraphIoError::Format(format!(
                "binary instance declares {n} vertices, beyond the format's u32 endpoint range"
            )));
        }
        // Checked arithmetic: a crafted edge count must not overflow the
        // body-length bookkeeping downstream (the CSR build sizes `2 * m`
        // entries from this number).
        if usize::try_from(m)
            .ok()
            .and_then(|m| m.checked_mul(RECORD_BYTES))
            .is_none()
        {
            return Err(GraphIoError::Format(format!(
                "binary instance declares an implausible edge count {m}"
            )));
        }
        Ok(BinaryCursor {
            source,
            n: n as usize,
            m,
            produced: 0,
            buf: vec![0u8; capacity.max(RECORD_BYTES)],
            filled: 0,
            pos: 0,
        })
    }

    /// Compacts the unconsumed tail to the front of the chunk buffer and
    /// refills from the source until a whole record is available or the
    /// source is exhausted.
    fn refill(&mut self) -> Result<(), io::Error> {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
        while self.filled < RECORD_BYTES {
            let read = self.source.read(&mut self.buf[self.filled..])?;
            if read == 0 {
                break;
            }
            self.filled += read;
        }
        Ok(())
    }
}

impl<R: Read> RecordCursor for BinaryCursor<R> {
    fn header(&self) -> StreamHeader {
        StreamHeader {
            n: self.n,
            declared_m: Some(self.m),
        }
    }

    // Inlined into the build loops: a call per record cost `read_binary`
    // about half its time.
    #[inline]
    fn next_record(&mut self) -> Result<Option<EdgeRecord>, GraphIoError> {
        if self.produced == self.m {
            // The declared records are all delivered; anything further —
            // buffered or still in the source — is trailing garbage.
            if self.pos < self.filled || self.source.read(&mut [0u8; 1])? != 0 {
                return Err(GraphIoError::Format(format!(
                    "binary instance carries trailing bytes after its {} declared edge records",
                    self.m
                )));
            }
            return Ok(None);
        }
        if self.filled - self.pos < RECORD_BYTES {
            self.refill()?;
        }
        if self.filled - self.pos < RECORD_BYTES {
            return Err(GraphIoError::Format(format!(
                "binary instance declares {} edges but its body ends after {}",
                self.m, self.produced
            )));
        }
        let record = self.buf[self.pos..].first_chunk().expect("a whole record");
        let (u, v, weight) = decode_record(record);
        self.pos += RECORD_BYTES;
        if u >= self.n || v >= self.n || u == v {
            return Err(GraphIoError::Format(format!(
                "edge record {}: invalid endpoints {u} {v}",
                self.produced
            )));
        }
        self.produced += 1;
        Ok(Some(EdgeRecord { u, v, weight }))
    }
}

/// Streams the plain-text format line by line through a [`BufReader`],
/// tracking 1-based physical line numbers (comments and blanks included) so
/// every parse error names the exact line.
#[derive(Debug)]
pub struct TextCursor<R: Read> {
    source: BufReader<R>,
    n: usize,
    /// 1-based number of the last line read (0 before the first line).
    line_no: u64,
    line: String,
}

impl<R: Read> TextCursor<R> {
    /// Opens a cursor with the default chunk capacity, consuming lines up to
    /// and including the vertex-count line.
    ///
    /// # Errors
    ///
    /// Returns [`GraphIoError::Format`] if the input has no data line or the
    /// first data line is not a vertex count; propagates I/O errors.
    pub fn new(source: R) -> Result<Self, GraphIoError> {
        Self::with_chunk_capacity(source, DEFAULT_CHUNK_BYTES)
    }

    /// Opens a cursor whose internal [`BufReader`] holds `capacity` bytes.
    /// Small capacities force lines to straddle refills; the tests use this
    /// to exercise the buffering path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TextCursor::new`].
    pub fn with_chunk_capacity(source: R, capacity: usize) -> Result<Self, GraphIoError> {
        let mut cursor = TextCursor {
            source: BufReader::with_capacity(capacity.max(1), source),
            n: 0,
            line_no: 0,
            line: String::new(),
        };
        match cursor.next_data_line()? {
            None => Err(GraphIoError::Format("empty instance file".into())),
            Some(()) => {
                cursor.n = cursor.line.trim().parse().map_err(|_| {
                    GraphIoError::Format(format!(
                        "line {}: the first data line must be the vertex count",
                        cursor.line_no
                    ))
                })?;
                Ok(cursor)
            }
        }
    }

    /// Advances `self.line` to the next non-blank, non-comment line,
    /// returning `Ok(None)` at end of input.
    fn next_data_line(&mut self) -> Result<Option<()>, GraphIoError> {
        loop {
            self.line.clear();
            if self.source.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                return Ok(Some(()));
            }
        }
    }
}

impl<R: Read> RecordCursor for TextCursor<R> {
    fn header(&self) -> StreamHeader {
        StreamHeader {
            n: self.n,
            declared_m: None,
        }
    }

    fn next_record(&mut self) -> Result<Option<EdgeRecord>, GraphIoError> {
        if self.next_data_line()?.is_none() {
            return Ok(None);
        }
        let line_no = self.line_no;
        let mut parts = self.line.split_whitespace();
        let parse = |part: Option<&str>, what: &str| -> Result<u64, GraphIoError> {
            let token = part
                .ok_or_else(|| GraphIoError::Format(format!("line {line_no}: missing {what}")))?;
            token.parse().map_err(|_| {
                GraphIoError::Format(format!("line {line_no}: malformed {what} '{token}'"))
            })
        };
        let u = parse(parts.next(), "endpoint u")? as usize;
        let v = parse(parts.next(), "endpoint v")? as usize;
        let weight = parse(parts.next(), "weight")?;
        if u >= self.n || v >= self.n || u == v {
            return Err(GraphIoError::Format(format!(
                "line {line_no}: invalid endpoints {u} {v} (n = {})",
                self.n
            )));
        }
        Ok(Some(EdgeRecord { u, v, weight }))
    }
}

/// Reads just the header of an instance file — the `KGB1` header, or the
/// text format's leading comment block plus vertex-count line — without
/// touching the body. This is how a service bounds a submitted instance
/// *before* ingesting it: the vertex count (and, for binary, the edge count)
/// is known after a few dozen bytes.
///
/// # Errors
///
/// Propagates I/O errors and header-level format errors.
pub fn peek_header(path: &Path) -> Result<StreamHeader, GraphIoError> {
    let file = std::fs::File::open(path)?;
    match GraphFormat::from_path(path) {
        GraphFormat::Binary => Ok(BinaryCursor::new(file)?.header()),
        GraphFormat::Text => Ok(TextCursor::new(file)?.header()),
    }
}

impl Graph {
    /// Builds a frozen graph from a re-openable edge-record stream in two
    /// passes, never holding a file buffer.
    ///
    /// `open` is called twice (e.g. opening the same file twice). **Pass 1**
    /// validates every record and counts per-vertex degrees and the edge
    /// count; **pass 2** collects the edge list into an allocation of exactly
    /// that size, in stream order. The CSR is then laid out by the same
    /// placement loop the lazy `add_edge` + `freeze()` build runs, from pass
    /// 1's degrees. Because both formats stream records in `EdgeId` order,
    /// the frozen CSR is bit-identical to that build's. Peak memory is the
    /// final graph footprint itself (edge array + CSR + offsets), with no
    /// transient proportional to the file size.
    ///
    /// If the source changes between the passes (vertex count, record count
    /// or degrees), the build fails rather than producing a torn graph.
    ///
    /// # Errors
    ///
    /// Propagates open, I/O and format errors from the cursors, and returns
    /// [`GraphIoError::Format`] on a declared-versus-actual edge-count
    /// mismatch or a source that changed between passes.
    pub fn from_edge_stream<C, F>(mut open: F) -> Result<Graph, GraphIoError>
    where
        C: RecordCursor,
        F: FnMut() -> Result<C, GraphIoError>,
    {
        // Pass 1: degree counts (in the layout the placement loop takes)
        // and the actual record count.
        let mut cursor = open()?;
        let header = cursor.header();
        let n = header.n;
        let mut degrees = vec![0usize; n + 1];
        let mut m = 0usize;
        while let Some(record) = cursor.next_record()? {
            degrees[record.u + 1] += 1;
            degrees[record.v + 1] += 1;
            m += 1;
        }
        if let Some(declared) = header.declared_m {
            // The binary cursor enforces this itself; keep the contract
            // explicit for any future cursor that declares a count.
            if declared != m as u64 {
                return Err(GraphIoError::Format(format!(
                    "instance declares {declared} edges but streams {m}"
                )));
            }
        }

        // Pass 2: the edge list at its exact size, then the placement loop.
        let changed = |what: &str| {
            GraphIoError::Format(format!(
                "instance changed between streaming passes ({what})"
            ))
        };
        let mut cursor = open()?;
        if cursor.header().n != n {
            return Err(changed("vertex count differs"));
        }
        let mut edges = Vec::with_capacity(m);
        while let Some(EdgeRecord { u, v, weight }) = cursor.next_record()? {
            if edges.len() == m {
                return Err(changed("more records than counted"));
            }
            edges.push(Edge { u, v, weight });
        }
        if edges.len() != m {
            return Err(changed("fewer records than counted"));
        }
        Graph::frozen(n, edges, degrees).ok_or_else(|| changed("degrees differ"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::io;
    use crate::EdgeId;
    use rand::SeedableRng;

    /// A reader that hands out at most `max` bytes per `read` call, forcing
    /// records and lines to straddle refills.
    pub struct Throttled<R> {
        inner: R,
        max: usize,
    }

    impl<R: Read> Throttled<R> {
        pub fn new(inner: R, max: usize) -> Self {
            Throttled { inner, max }
        }
    }

    impl<R: Read> Read for Throttled<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let cap = self.max.min(buf.len()).max(1);
            self.inner.read(&mut buf[..cap])
        }
    }

    fn sample(seed: u64) -> Graph {
        generators::random_weighted_k_edge_connected(
            18,
            2,
            14,
            60,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed),
        )
    }

    #[test]
    fn binary_cursor_streams_all_records_in_id_order() {
        let g = sample(1);
        let mut bytes = Vec::new();
        io::write_binary(&mut bytes, &g).unwrap();
        let mut cursor = BinaryCursor::new(bytes.as_slice()).unwrap();
        assert_eq!(
            cursor.header(),
            StreamHeader {
                n: g.n(),
                declared_m: Some(g.m() as u64)
            }
        );
        for (_, e) in g.edges() {
            let r = cursor.next_record().unwrap().unwrap();
            assert_eq!((r.u, r.v, r.weight), (e.u, e.v, e.weight));
        }
        assert!(cursor.next_record().unwrap().is_none());
        // None is sticky.
        assert!(cursor.next_record().unwrap().is_none());
    }

    #[test]
    fn binary_cursor_handles_straddling_records_at_tiny_capacities() {
        let g = sample(2);
        let mut bytes = Vec::new();
        io::write_binary(&mut bytes, &g).unwrap();
        for (reader_max, chunk) in [(1, 16), (7, 16), (5, 17), (4096, 64), (3, 4096)] {
            let source = Throttled::new(bytes.as_slice(), reader_max);
            let mut cursor = BinaryCursor::with_chunk_capacity(source, chunk).unwrap();
            let mut count = 0;
            while let Some(r) = cursor.next_record().unwrap() {
                let e = g.edge(EdgeId(count));
                assert_eq!((r.u, r.v, r.weight), (e.u, e.v, e.weight));
                count += 1;
            }
            assert_eq!(count, g.m(), "reader_max = {reader_max}, chunk = {chunk}");
        }
    }

    #[test]
    fn binary_cursor_rejects_malformed_streams() {
        let g = sample(3);
        let mut bytes = Vec::new();
        io::write_binary(&mut bytes, &g).unwrap();
        // Short header.
        assert!(BinaryCursor::new(&b"KGB1"[..]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(BinaryCursor::new(bad.as_slice()).is_err());
        // Oversized n / implausible m are header-time errors.
        let mut huge_n = bytes.clone();
        huge_n[4..12].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert!(BinaryCursor::new(huge_n.as_slice()).is_err());
        let mut huge_m = bytes.clone();
        huge_m[12..20].copy_from_slice(&((1u64 << 60) + 1).to_le_bytes());
        assert!(BinaryCursor::new(huge_m.as_slice()).is_err());
        // Truncated body surfaces at the torn record.
        let drain = |mut cursor: BinaryCursor<&[u8]>| -> Result<usize, GraphIoError> {
            let mut count = 0;
            while cursor.next_record()?.is_some() {
                count += 1;
            }
            Ok(count)
        };
        let cursor = BinaryCursor::new(&bytes[..bytes.len() - 1]).unwrap();
        assert!(drain(cursor).is_err());
        // Trailing garbage surfaces after the last declared record.
        let mut long = bytes.clone();
        long.push(0);
        let cursor = BinaryCursor::new(long.as_slice()).unwrap();
        assert!(drain(cursor).is_err());
        // A self-loop record names its index.
        let h = Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]);
        let mut enc = Vec::new();
        io::write_binary(&mut enc, &h).unwrap();
        enc[36..40].copy_from_slice(&2u32.to_le_bytes());
        enc[40..44].copy_from_slice(&2u32.to_le_bytes());
        let cursor = BinaryCursor::new(enc.as_slice()).unwrap();
        let err = drain(cursor).unwrap_err();
        assert!(err.to_string().contains("record 1"), "{err}");
    }

    #[test]
    fn text_cursor_streams_and_numbers_lines() {
        let text = "# comment\n\n4\n0 1 5\n# interlude\n2 3 7\n";
        let mut cursor = TextCursor::new(text.as_bytes()).unwrap();
        assert_eq!(
            cursor.header(),
            StreamHeader {
                n: 4,
                declared_m: None
            }
        );
        let a = cursor.next_record().unwrap().unwrap();
        assert_eq!((a.u, a.v, a.weight), (0, 1, 5));
        let b = cursor.next_record().unwrap().unwrap();
        assert_eq!((b.u, b.v, b.weight), (2, 3, 7));
        assert!(cursor.next_record().unwrap().is_none());
    }

    #[test]
    fn text_cursor_errors_carry_one_based_line_numbers() {
        // Line 3 is the bad vertex count.
        let err = TextCursor::new("# a\n# b\nthree\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        // Line 4: missing weight.
        let mut cursor = TextCursor::new("# a\n3\n0 1 1\n0 2\n".as_bytes()).unwrap();
        cursor.next_record().unwrap();
        let err = cursor.next_record().unwrap_err();
        assert!(
            err.to_string().contains("line 4") && err.to_string().contains("missing weight"),
            "{err}"
        );
        // Line 5: malformed endpoint (names the token).
        let mut cursor = TextCursor::new("3\n\n0 1 1\n# c\n0 x 1\n".as_bytes()).unwrap();
        cursor.next_record().unwrap();
        let err = cursor.next_record().unwrap_err();
        assert!(
            err.to_string().contains("line 5") && err.to_string().contains("'x'"),
            "{err}"
        );
        // Line 2: out-of-range endpoint.
        let mut cursor = TextCursor::new("3\n0 9 1\n".as_bytes()).unwrap();
        let err = cursor.next_record().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Line 2: self-loop.
        let mut cursor = TextCursor::new("3\n1 1 1\n".as_bytes()).unwrap();
        let err = cursor.next_record().unwrap_err();
        assert!(err.to_string().contains("invalid endpoints 1 1"), "{err}");
    }

    #[test]
    fn text_cursor_survives_tiny_buffer_capacities() {
        let g = sample(4);
        let mut text = Vec::new();
        io::write_text(&mut text, &g).unwrap();
        for capacity in [1usize, 7, 4096] {
            let mut cursor = TextCursor::with_chunk_capacity(
                Throttled::new(text.as_slice(), capacity),
                capacity,
            )
            .unwrap();
            let mut count = 0;
            while let Some(r) = cursor.next_record().unwrap() {
                let e = g.edge(EdgeId(count));
                assert_eq!((r.u, r.v, r.weight), (e.u, e.v, e.weight));
                count += 1;
            }
            assert_eq!(count, g.m(), "capacity = {capacity}");
        }
    }

    #[test]
    fn from_edge_stream_is_bit_identical_to_the_legacy_build() {
        let g = sample(5);
        let mut bytes = Vec::new();
        io::write_binary(&mut bytes, &g).unwrap();
        let streamed = Graph::from_edge_stream(|| BinaryCursor::new(bytes.as_slice())).unwrap();
        assert_eq!(streamed, g);
        assert!(streamed.is_frozen(), "the streamed build arrives frozen");
        // The CSR itself is bit-identical: same slices for every vertex.
        g.freeze();
        for v in 0..g.n() {
            assert_eq!(streamed.neighbors(v), g.neighbors(v), "vertex {v}");
        }
        // The streamed graph still accepts the mutable builder (which
        // invalidates and rebuilds, legacy contract).
        let mut grown = streamed.clone();
        grown.add_edge(0, 1, 99);
        assert!(!grown.is_frozen());
        assert_eq!(grown.m(), g.m() + 1);
        assert_eq!(grown.degree(0), g.degree(0) + 1);
    }

    #[test]
    fn from_edge_stream_handles_text_sources() {
        let g = sample(6);
        let mut text = Vec::new();
        io::write_text(&mut text, &g).unwrap();
        let streamed = Graph::from_edge_stream(|| TextCursor::new(text.as_slice())).unwrap();
        assert_eq!(streamed, g);
    }

    #[test]
    fn from_edge_stream_rejects_a_source_that_changes_between_passes() {
        let a = "3\n0 1 1\n1 2 1\n";
        let b = "3\n0 1 1\n";
        let mut openings = 0;
        let result = Graph::from_edge_stream(|| {
            openings += 1;
            let source = if openings == 1 { a } else { b };
            TextCursor::new(source.as_bytes())
        });
        assert!(result.is_err());
        let mut openings = 0;
        let result = Graph::from_edge_stream(|| {
            openings += 1;
            let source = if openings == 1 { b } else { a };
            TextCursor::new(source.as_bytes())
        });
        assert!(result.is_err());
        let mut openings = 0;
        let result = Graph::from_edge_stream(|| {
            openings += 1;
            let source = if openings == 1 {
                "3\n0 1 1\n"
            } else {
                "4\n0 1 1\n"
            };
            TextCursor::new(source.as_bytes())
        });
        assert!(result.is_err());
        // Same vertex and record counts, different endpoints. The second
        // pair puts both of pass 2's edges on vertex 2, which pass 1 counted
        // no slot for, so its entries would land past the entry array.
        for (first, second) in [
            ("3\n0 1 1\n1 2 1\n", "3\n0 1 1\n0 2 1\n"),
            ("3\n0 1 1\n0 1 1\n", "3\n1 2 1\n1 2 1\n"),
        ] {
            let mut openings = 0;
            let err = Graph::from_edge_stream(|| {
                openings += 1;
                let source = if openings == 1 { first } else { second };
                TextCursor::new(source.as_bytes())
            })
            .unwrap_err();
            assert!(err.to_string().contains("degrees differ"), "{err}");
        }
    }

    #[test]
    fn peek_header_reads_only_the_header() {
        let dir = std::env::temp_dir().join("kecss-graphs-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample(7);
        let bin = dir.join("peek.graphb");
        io::write_graph(&bin, &g).unwrap();
        assert_eq!(
            peek_header(&bin).unwrap(),
            StreamHeader {
                n: g.n(),
                declared_m: Some(g.m() as u64)
            }
        );
        let text = dir.join("peek.graph");
        io::write_graph(&text, &g).unwrap();
        assert_eq!(
            peek_header(&text).unwrap(),
            StreamHeader {
                n: g.n(),
                declared_m: None
            }
        );
        // A binary file whose header is valid but whose body is truncated
        // still peeks fine — the header does not touch the body.
        let torn = dir.join("torn.graphb");
        let mut bytes = Vec::new();
        io::write_binary(&mut bytes, &g).unwrap();
        std::fs::write(&torn, &bytes[..HEADER_BYTES + 3]).unwrap();
        assert_eq!(peek_header(&torn).unwrap().n, g.n());
    }
}
