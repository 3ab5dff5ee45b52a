//! Streaming TSV edge reader: `user <ws> item` lines, string ids hashed
//! to `u64`.
//!
//! The text twin of [`fedge`](crate::fedge): identifiers may be arbitrary
//! strings (IP addresses, URLs, numeric ids) — they are hashed with
//! xxhash64 under a fixed seed, so the same file always produces the same
//! edge stream across runs and machines. [`TsvEdgeSource`] implements
//! [`EdgeSource`], yielding chunk-at-a-time in bounded memory.
//!
//! [`parse_edge_line`] defines the format. [`TsvEdgeSource`] decodes in
//! place, inside the reader's own buffer (`fill_buf`/`consume`), so a
//! well-formed line costs no copy and no UTF-8 pass:
//!
//! * **Fast path.** A complete line of plain ASCII — a first token, ASCII
//!   whitespace, a second token, then `\n` or ASCII whitespace and any
//!   ASCII — is tokenized where it lies, 8 bytes at a time (a token ends at
//!   the first byte `≤ 0x20` or `≥ 0x80`), and both tokens are hashed from
//!   the buffer. Only a line that crosses a buffer boundary is first
//!   gathered into one reused carry buffer.
//! * **Exact fallback.** Every other line — a byte `≥ 0x80` (non-ASCII
//!   text, Unicode whitespace, invalid UTF-8), a control byte ending a
//!   token, leading whitespace, a `#` comment, a blank line, fewer than two
//!   fields — is validated as UTF-8 and parsed by [`parse_edge_line`].
//!
//! Both paths give the same edges, line numbers and errors as reading each
//! line with `BufRead::read_line` and calling [`parse_edge_line`] on it
//! (`crates/graphstream/tests/tsv_decode.rs` checks this differentially).

use crate::source::{EdgeSource, EdgeStreamError};
use crate::Edge;
use hashkit::xxhash64;
use std::io::{BufRead, ErrorKind};

/// Seed for hashing string identifiers to `u64`. Fixed forever: changing
/// it would silently disconnect TSV traces from their `fedge` re-encodes.
pub const ID_SEED: u64 = 0x1D_5EED;

/// Longest slice of an offending line quoted in a
/// [`EdgeStreamError::Malformed`] message. A malformed multi-MB line must
/// not balloon the error.
const MALFORMED_CONTENT_MAX: usize = 80;

/// Hashes a string identifier into the u64 id space.
#[must_use]
pub fn hash_id(id: &str) -> u64 {
    xxhash64(ID_SEED, id.as_bytes())
}

/// Truncates error-message content to [`MALFORMED_CONTENT_MAX`]
/// characters, marking the cut with `…`.
fn truncate_content(s: &str) -> String {
    let mut out: String = s.chars().take(MALFORMED_CONTENT_MAX).collect();
    if s.chars().nth(MALFORMED_CONTENT_MAX).is_some() {
        out.push('…');
    }
    out
}

/// Parses one line into an edge; `None` for blanks and `#` comments.
///
/// # Errors
/// [`EdgeStreamError::Malformed`] when the line has fewer than two fields
/// (the quoted content is truncated to at most 80 characters).
pub fn parse_edge_line(line: &str, line_no: usize) -> Result<Option<Edge>, EdgeStreamError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut fields = trimmed.split_whitespace();
    let (Some(user), Some(item)) = (fields.next(), fields.next()) else {
        return Err(EdgeStreamError::Malformed {
            line: line_no,
            content: truncate_content(trimmed),
        });
    };
    Ok(Some(Edge::new(hash_id(user), hash_id(item))))
}

/// `0x01` in every byte of a word.
const LO: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte of a word.
const HI: u64 = u64::from_le_bytes([0x80; 8]);

/// The 8 bytes at `i` as a little-endian word, so byte `i` is the lowest.
#[inline]
fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[i..i + 8]);
    u64::from_le_bytes(w)
}

/// The byte index of the lowest flagged byte in a SWAR mask.
#[inline]
fn lowest(hit: u64) -> usize {
    (hit.trailing_zeros() / 8) as usize
}

/// Index of the first byte at or after `i` that is `≤ 0x20` or `≥ 0x80`,
/// or `bytes.len()`: where an ASCII token ends.
#[inline]
fn token_end(bytes: &[u8], mut i: usize) -> usize {
    while i + 8 <= bytes.len() {
        let w = word(bytes, i);
        // A byte below 0x21 borrows into its top bit, a byte of 0x80 or
        // more has it set. Borrows only run upward, so the lowest flagged
        // byte is exact.
        let hit = (w.wrapping_sub(0x21 * LO) | w) & HI;
        if hit != 0 {
            return i + lowest(hit);
        }
        i += 8;
    }
    while i < bytes.len() && (0x21..0x80).contains(&bytes[i]) {
        i += 1;
    }
    i
}

/// Index of the first `\n` or byte `≥ 0x80` at or after `i`, or
/// `bytes.len()`.
#[inline]
fn newline_or_high(bytes: &[u8], mut i: usize) -> usize {
    while i + 8 <= bytes.len() {
        let w = word(bytes, i);
        let x = w ^ (u64::from(b'\n') * LO);
        // Zero bytes of `x` are newlines; the lowest flag is exact as above.
        let hit = ((x.wrapping_sub(LO) & !x) | w) & HI;
        if hit != 0 {
            return i + lowest(hit);
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] != b'\n' && bytes[i] < 0x80 {
        i += 1;
    }
    i
}

/// ASCII whitespace inside a line: the bytes below 0x80 that
/// `char::is_whitespace` accepts, except `\n`.
#[inline]
fn is_separator(b: u8) -> bool {
    matches!(b, b'\t' | 0x0B | 0x0C | b'\r' | b' ')
}

/// The fast path for the line at the start of `bytes`: the edge and the
/// line's length with its `\n`. `None` when the line needs the exact
/// path, or when its `\n` may lie beyond `bytes`.
#[inline]
fn fast_edge(bytes: &[u8]) -> Option<(Edge, usize)> {
    let first = *bytes.first()?;
    // Leading whitespace, a blank line, a control byte, non-ASCII, `#`.
    if first <= b' ' || first >= 0x80 || first == b'#' {
        return None;
    }
    let user_end = token_end(bytes, 1);
    let mut item_start = user_end;
    while item_start < bytes.len() && is_separator(bytes[item_start]) {
        item_start += 1;
    }
    // No separator, or the second token does not start with plain ASCII
    // (this also catches a first token that ended at `\n`, a control byte
    // or non-ASCII).
    let first = *bytes.get(item_start)?;
    if first <= b' ' || first >= 0x80 {
        return None;
    }
    let item_end = token_end(bytes, item_start + 1);
    let newline = match *bytes.get(item_end)? {
        b'\n' => item_end,
        b if is_separator(b) => {
            // Extra fields are ignored, but must be ASCII to be valid UTF-8.
            let n = newline_or_high(bytes, item_end + 1);
            if *bytes.get(n)? != b'\n' {
                return None;
            }
            n
        }
        _ => return None,
    };
    let user = xxhash64(ID_SEED, &bytes[..user_end]);
    let item = xxhash64(ID_SEED, &bytes[item_start..item_end]);
    Some((Edge::new(user, item), newline + 1))
}

/// Decodes the line at the start of `bytes`, pushing its edge (if any) to
/// `out`. Returns the bytes the line took with its `\n`, or `None` when
/// `bytes` holds no `\n`: the line goes on past them.
///
/// # Errors
/// The error `read_line` gives for invalid UTF-8 (`line_no` is then not
/// advanced, as `read_line` failing never counted a line), or the
/// [`EdgeStreamError::Malformed`] of [`parse_edge_line`].
#[inline]
fn decode_line(
    bytes: &[u8],
    out: &mut Vec<Edge>,
    line_no: &mut usize,
) -> Result<Option<usize>, EdgeStreamError> {
    if let Some((edge, len)) = fast_edge(bytes) {
        *line_no += 1;
        out.push(edge);
        return Ok(Some(len));
    }
    let Some(n) = bytes.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let line = std::str::from_utf8(&bytes[..n]).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    *line_no += 1;
    if let Some(edge) = parse_edge_line(line, *line_no)? {
        out.push(edge);
    }
    Ok(Some(n + 1))
}

/// Streaming TSV reader: lines decoded in place in the reader's buffer,
/// edges yielded chunk-at-a-time through [`EdgeSource`].
#[derive(Debug)]
pub struct TsvEdgeSource<R: BufRead> {
    reader: R,
    /// The start of a line that crossed the end of the reader's buffer.
    /// Cleared after each such line, never dropped, so it only grows to
    /// the longest line.
    carry: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> TsvEdgeSource<R> {
    /// A source over any buffered reader (file, stdin, in-memory bytes).
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            carry: Vec::new(),
            line_no: 0,
        }
    }

    /// Lines consumed so far (including comments and blanks).
    #[must_use]
    pub fn lines_read(&self) -> usize {
        self.line_no
    }
}

impl<R: BufRead> EdgeSource for TsvEdgeSource<R> {
    // HOT: steady-state TSV decode — keep allocation-free (hot-path-hygiene root).
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        buf.clear();
        let max = max.max(1);
        while buf.len() < max {
            let avail = match self.reader.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if avail.is_empty() {
                if self.carry.is_empty() {
                    break;
                }
                // The last line ends at EOF; with a `\n` it parses the same.
                self.carry.push(b'\n');
            } else if !self.carry.is_empty() {
                // Complete the line that crossed the previous buffer's end.
                let take = avail
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(avail.len(), |n| n + 1);
                self.carry.extend_from_slice(&avail[..take]);
                self.reader.consume(take);
                if self.carry.last() != Some(&b'\n') {
                    continue;
                }
            } else {
                // Every complete line in place; a partial last one is carried.
                let mut pos = 0;
                while buf.len() < max && pos < avail.len() {
                    match decode_line(&avail[pos..], buf, &mut self.line_no)? {
                        Some(len) => pos += len,
                        None => {
                            self.carry.extend_from_slice(&avail[pos..]);
                            pos = avail.len();
                        }
                    }
                }
                self.reader.consume(pos);
                continue;
            }
            decode_line(&self.carry, buf, &mut self.line_no)?;
            self.carry.clear();
        }
        Ok(buf.len())
    }
}

/// Reads a whole edge file into memory. Small files and tests only —
/// command paths stream through [`TsvEdgeSource`] instead.
///
/// # Errors
/// Propagates I/O errors and the first malformed line.
pub fn read_edges<R: BufRead>(reader: R) -> Result<Vec<Edge>, EdgeStreamError> {
    let mut src = TsvEdgeSource::new(reader);
    let mut edges = Vec::new();
    let mut buf = Vec::new();
    loop {
        if src.next_chunk(&mut buf, 4096)? == 0 {
            return Ok(edges);
        }
        edges.extend_from_slice(&buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs_and_skips_noise() {
        let data = "\
# comment
10.0.0.1 example.com

10.0.0.1 example.org
10.0.0.2\texample.com
";
        let edges = read_edges(data.as_bytes()).expect("parse");
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].user, edges[1].user, "same user hashes equally");
        assert_ne!(edges[0].item, edges[1].item);
        assert_eq!(edges[0].item, edges[2].item, "same item hashes equally");
    }

    #[test]
    fn extra_fields_are_ignored() {
        let e = parse_edge_line("alice item42 extra stuff", 1)
            .expect("parse")
            .expect("edge");
        assert_eq!(e.user, hash_id("alice"));
        assert_eq!(e.item, hash_id("item42"));
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = read_edges("a b\nonly_one_field\n".as_bytes()).unwrap_err();
        match err {
            EdgeStreamError::Malformed { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "only_one_field");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn malformed_huge_line_is_truncated_in_error() {
        // A malformed multi-MB line must not be copied wholesale into the
        // error message.
        let huge = "x".repeat(2 * 1024 * 1024);
        let err = read_edges(huge.as_bytes()).unwrap_err();
        match &err {
            EdgeStreamError::Malformed { line, content } => {
                assert_eq!(*line, 1);
                assert_eq!(content.chars().count(), MALFORMED_CONTENT_MAX + 1);
                assert!(content.ends_with('…'), "cut must be marked: {content}");
                assert!(content.starts_with("xxx"));
                assert!(err.to_string().len() < 200, "message stayed small");
            }
            other => panic!("wrong error: {other}"),
        }
        // Exactly at the limit: kept whole, no marker.
        let exact = "y".repeat(MALFORMED_CONTENT_MAX);
        match read_edges(exact.as_bytes()).unwrap_err() {
            EdgeStreamError::Malformed { content, .. } => {
                assert_eq!(content, exact);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn deterministic_hashing() {
        assert_eq!(hash_id("198.51.100.7"), hash_id("198.51.100.7"));
        assert_ne!(hash_id("a"), hash_id("b"));
    }

    #[test]
    fn empty_input_is_empty_stream() {
        assert!(read_edges("".as_bytes()).expect("parse").is_empty());
        assert!(read_edges("# only comments\n".as_bytes())
            .expect("parse")
            .is_empty());
    }

    #[test]
    fn source_streams_in_chunks_and_matches_read_edges() {
        let mut data = String::from("# header\n");
        for i in 0..100 {
            data.push_str(&format!("user{} item{}\n", i % 7, i));
        }
        let expected = read_edges(data.as_bytes()).expect("parse");
        for chunk in [1usize, 3, 64, 1000] {
            let mut src = TsvEdgeSource::new(data.as_bytes());
            let mut buf = Vec::new();
            let mut out = Vec::new();
            loop {
                let n = src.next_chunk(&mut buf, chunk).expect("clean");
                assert!(n <= chunk);
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf);
            }
            assert_eq!(out, expected, "chunk {chunk}");
            assert_eq!(src.lines_read(), 101);
        }
    }

    #[test]
    fn source_surfaces_malformed_with_line_number() {
        let data = "a b\nc d\nbroken\n";
        let mut src = TsvEdgeSource::new(data.as_bytes());
        let mut buf = Vec::new();
        let err = src.next_chunk(&mut buf, 100).expect_err("must fail");
        match err {
            EdgeStreamError::Malformed { line, content } => {
                assert_eq!(line, 3);
                assert_eq!(content, "broken");
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
