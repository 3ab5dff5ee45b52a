//! Differential tests for the in-place TSV decoder: `TsvEdgeSource` must
//! give the same edges, line numbers and errors as the line-at-a-time
//! reference below (`read_line` into a `String`, then `parse_edge_line`),
//! whatever the reader's buffer size and the chunk size.

use graphstream::tsv::{hash_id, parse_edge_line};
use graphstream::{Edge, EdgeSource, EdgeStreamError, TsvEdgeSource};
use proptest::prelude::*;
use std::io::{BufRead, BufReader};

/// The reference decoder: one `read_line` per line, parsed by
/// `parse_edge_line`.
struct ReadLineSource<R: BufRead> {
    reader: R,
    line: String,
    line_no: usize,
}

impl<R: BufRead> EdgeSource for ReadLineSource<R> {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        buf.clear();
        let max = max.max(1);
        while buf.len() < max {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                break;
            }
            self.line_no += 1;
            if let Some(edge) = parse_edge_line(&self.line, self.line_no)? {
                buf.push(edge);
            }
        }
        Ok(buf.len())
    }
}

/// An error as comparable text: variant, line number and content for
/// `Malformed`, kind and message for I/O.
fn describe(e: &EdgeStreamError) -> String {
    match e {
        EdgeStreamError::Malformed { line, content } => format!("malformed {line} {content:?}"),
        EdgeStreamError::Io(io) => format!("io {:?} {io}", io.kind()),
        EdgeStreamError::Fedge(f) => format!("fedge {f}"),
    }
}

/// Everything one run of a decoder shows: per chunk, the edges (also those
/// left in the buffer by an error), the outcome and `lines_read`.
type Trace = Vec<(Vec<Edge>, Result<usize, String>, usize)>;

/// Drives both decoders over `data` with a `cap`-byte reader buffer and
/// chunks of `max`, and returns the in-place decoder's trace after
/// checking it equals the reference's.
fn differential(data: &[u8], cap: usize, max: usize) -> Trace {
    let mut fast = TsvEdgeSource::new(BufReader::with_capacity(cap, data));
    let mut reference = ReadLineSource {
        reader: BufReader::with_capacity(cap, data),
        line: String::new(),
        line_no: 0,
    };
    let mut got = Trace::new();
    let mut want = Trace::new();
    let mut buf = Vec::new();
    loop {
        let r = fast.next_chunk(&mut buf, max).map_err(|e| describe(&e));
        got.push((buf.clone(), r.clone(), fast.lines_read()));
        let w = reference
            .next_chunk(&mut buf, max)
            .map_err(|e| describe(&e));
        want.push((buf.clone(), w, reference.line_no));
        if !matches!(r, Ok(n) if n > 0) || got.last() != want.last() {
            break;
        }
    }
    assert_eq!(
        got,
        want,
        "cap {cap} max {max} input {:?}",
        String::from_utf8_lossy(data)
    );
    got
}

/// Every edge of a trace that ended cleanly, in order.
fn edges(trace: &Trace) -> Vec<Edge> {
    let (_, last, _) = trace.last().expect("at least one chunk");
    assert_eq!(last, &Ok(0), "stream ended in an error");
    trace
        .iter()
        .flat_map(|(e, _, _)| e.iter().copied())
        .collect()
}

/// The error a trace ended in.
fn error(trace: &Trace) -> String {
    match trace.last() {
        Some((_, Err(e), _)) => e.clone(),
        other => panic!("expected an error, got {other:?}"),
    }
}

/// The byte soup's alphabet: edge-like tokens, every ASCII whitespace,
/// CRLF, comments, control bytes that are not whitespace, Unicode
/// whitespace (U+00A0, U+2003, U+0085), other non-ASCII text, and bytes
/// that are not valid UTF-8 where they stand (0xFF, a truncated 0xC3,
/// lone continuation bytes).
const ALPHABET: &[&[u8]] = &[
    b"u1",
    b"item42",
    b"10.0.0.1",
    b"example.com/a/long/path?q=1",
    b"x",
    b"#",
    b" ",
    b"  ",
    b"\t",
    b"\r",
    b"\n",
    b"\n",
    b"\n",
    b"\r\n",
    b"\x0B",
    b"\x0C",
    b"\x01",
    b"\x1F",
    b"\x7F",
    "\u{A0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "\u{85}".as_bytes(),
    "é".as_bytes(),
    b"\xFF",
    b"\xC3",
    b"\x80",
    b"\xA0",
];

fn soup(pieces: &[usize], final_newline: bool) -> Vec<u8> {
    let mut data: Vec<u8> = pieces
        .iter()
        .flat_map(|&i| ALPHABET[i].iter().copied())
        .collect();
    if final_newline {
        data.push(b'\n');
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25_000))]

    /// Arbitrary byte soup over the alphabet: the in-place decoder and the
    /// reference agree chunk by chunk, for every buffer and chunk size.
    #[test]
    fn matches_read_line_reference(
        pieces in prop::collection::vec(0usize..ALPHABET.len(), 0..80),
        final_newline in any::<bool>(),
        cap in 1usize..=64,
        max in 1usize..=8,
    ) {
        differential(&soup(&pieces, final_newline), cap, max);
    }

    /// Mostly well-formed edge lines (the fast path), with now and then a
    /// piece from the alphabet spliced in.
    #[test]
    fn matches_reference_on_edge_like_lines(
        lines in prop::collection::vec((0usize..40, 0usize..40, 0usize..ALPHABET.len() * 4), 0..40),
        cap in 1usize..=64,
        max in 1usize..=8,
    ) {
        let mut data = Vec::new();
        for &(user, item, noise) in &lines {
            data.extend_from_slice(format!("user{user} item{item}").as_bytes());
            if let Some(piece) = ALPHABET.get(noise) {
                data.extend_from_slice(piece);
            }
            data.push(b'\n');
        }
        differential(&data, cap, max);
    }
}

#[test]
fn line_longer_than_the_buffer() {
    let user = "u".repeat(100 * 1024);
    let data = format!("a b\n{user}\titem\nc d\n");
    for cap in [1, 7, 8 * 1024] {
        let trace = differential(data.as_bytes(), cap, 2);
        let want = vec![
            Edge::new(hash_id("a"), hash_id("b")),
            Edge::new(hash_id(&user), hash_id("item")),
            Edge::new(hash_id("c"), hash_id("d")),
        ];
        assert_eq!(edges(&trace), want, "cap {cap}");
        assert_eq!(trace.last().map(|t| t.2), Some(3));
    }
}

#[test]
fn malformed_line_across_a_refill() {
    // With an 8-byte buffer the lone field straddles the first refill.
    let data = b"a b\nbroken_field\nc d\n";
    for cap in [1, 5, 8] {
        let trace = differential(data, cap, 8);
        assert_eq!(error(&trace), "malformed 2 \"broken_field\"", "cap {cap}");
        assert_eq!(trace.last().map(|t| t.2), Some(2));
    }
}

#[test]
fn malformed_after_valid_edges_in_one_chunk() {
    let data = b"a b\nc d\n# note\nlonely\ne f\n";
    let trace = differential(data, 64, 100);
    assert_eq!(trace.len(), 1, "the error ends the first chunk");
    let (buf, result, lines) = &trace[0];
    assert_eq!(result, &Err("malformed 4 \"lonely\"".to_string()));
    assert_eq!(buf.len(), 2, "edges decoded before the error stay in buf");
    assert_eq!(*lines, 4);
}

#[test]
fn invalid_utf8_is_the_read_line_error() {
    let trace = differential(b"a b\nc \xFF\n", 64, 8);
    assert_eq!(
        error(&trace),
        "io InvalidData stream did not contain valid UTF-8"
    );
    assert_eq!(
        trace.last().map(|t| t.2),
        Some(1),
        "the bad line is not counted"
    );
}

#[test]
fn unicode_whitespace_separates_fields() {
    let trace = differential("a\u{A0}b\r\n c\u{2003}d \n".as_bytes(), 64, 8);
    assert_eq!(
        edges(&trace),
        vec![
            Edge::new(hash_id("a"), hash_id("b")),
            Edge::new(hash_id("c"), hash_id("d")),
        ]
    );
}
