//! Text I/O for hypergraphs.
//!
//! Two interchange formats are supported:
//!
//! * **Edge-list format** — one hyperedge per line, whitespace-separated
//!   vertex IDs. Lines beginning with `#` or `%` are comments. This matches
//!   the common format of curated hypergraph collections (e.g. the datasets
//!   of Shun's "Practical parallel hypergraph algorithms").
//! * **Bipartite-pair format** — one `edge vertex` incidence pair per line,
//!   the shape of KONECT bipartite graphs the paper loads Web/LiveJournal
//!   from.

use crate::hypergraph::Hypergraph;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors arising while parsing hypergraph files.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A token was not a valid vertex/edge ID.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A pair line did not have exactly two fields.
    BadPair {
        /// 1-based line number.
        line: usize,
    },
    /// The largest ID implies a dense ID space wildly disproportionate
    /// to the data (a handful of huge IDs would make the CSR/transpose
    /// allocation orders of magnitude larger than the file). Remap IDs
    /// densely before loading. This is the untrusted-load guard: a
    /// 20-byte file must not be able to OOM a server.
    IdSpaceTooLarge {
        /// The largest ID seen.
        max_id: u32,
        /// Number of incidence entries actually parsed.
        entries: usize,
    },
    /// An entry violated the declared ID space — surfaced from the
    /// checked CSR builders instead of panicking.
    OutOfRange(crate::csr::CsrOutOfRange),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::BadToken { line, token } => {
                write!(f, "line {line}: invalid ID token {token:?}")
            }
            ParseError::BadPair { line } => {
                write!(f, "line {line}: expected `edge vertex` pair")
            }
            ParseError::IdSpaceTooLarge { max_id, entries } => {
                write!(
                    f,
                    "ID space too large: max ID {max_id} with only {entries} entries; \
                     remap IDs densely before loading"
                )
            }
            ParseError::OutOfRange(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.is_empty() || t.starts_with('#') || t.starts_with('%')
}

/// Guards the dense-ID-space assumption of the text loaders: the implied
/// space (`max ID + 1`) may not exceed the parsed entry count by more
/// than this factor (plus slack for small files). Allocations stay
/// proportional to input size even for adversarial files.
fn check_id_space(max_id: Option<u32>, entries: usize) -> Result<usize, ParseError> {
    let Some(max_id) = max_id else { return Ok(0) };
    let space = max_id as usize + 1;
    if space > 64 * entries + 65_536 {
        return Err(ParseError::IdSpaceTooLarge { max_id, entries });
    }
    Ok(space)
}

/// Reads the edge-list format from a reader. Vertex IDs may be arbitrary
/// `u32`s; the vertex count is `max ID + 1`.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Hypergraph, ParseError> {
    let reader = BufReader::new(reader);
    let mut lists: Vec<Vec<u32>> = Vec::new();
    let mut max_vertex: Option<u32> = None;
    let mut entries = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if is_comment(&line) {
            continue;
        }
        let mut edge = Vec::new();
        for token in line.split_whitespace() {
            let v: u32 = token.parse().map_err(|_| ParseError::BadToken {
                line: lineno + 1,
                token: token.to_string(),
            })?;
            max_vertex = Some(max_vertex.map_or(v, |m| m.max(v)));
            edge.push(v);
            entries += 1;
        }
        lists.push(edge);
    }
    let n = check_id_space(max_vertex, entries)?;
    Hypergraph::try_from_edge_lists(&lists, n).map_err(ParseError::OutOfRange)
}

/// Reads the bipartite-pair format (`edge vertex` per line) from a reader.
pub fn read_bipartite_pairs<R: Read>(reader: R) -> Result<Hypergraph, ParseError> {
    let reader = BufReader::new(reader);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let (mut max_e, mut max_v): (Option<u32>, Option<u32>) = (None, None);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if is_comment(&line) {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b), None) = (it.next(), it.next(), it.next()) else {
            return Err(ParseError::BadPair { line: lineno + 1 });
        };
        let parse = |token: &str| -> Result<u32, ParseError> {
            token.parse().map_err(|_| ParseError::BadToken {
                line: lineno + 1,
                token: token.to_string(),
            })
        };
        let (e, v) = (parse(a)?, parse(b)?);
        max_e = Some(max_e.map_or(e, |m| m.max(e)));
        max_v = Some(max_v.map_or(v, |m| m.max(v)));
        pairs.push((e, v));
    }
    let m = check_id_space(max_e, pairs.len())?;
    let n = check_id_space(max_v, pairs.len())?;
    Hypergraph::try_from_incidence_pairs(&pairs, m, n).map_err(ParseError::OutOfRange)
}

/// Writes the edge-list format to a writer.
pub fn write_edge_list<W: Write>(h: &Hypergraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# hyperline edge list: {} edges, {} vertices",
        h.num_edges(),
        h.num_vertices()
    )?;
    for e in 0..h.num_edges() as u32 {
        let members = h.edge_vertices(e);
        for (i, v) in members.iter().enumerate() {
            if i > 0 {
                write!(w, " ")?;
            }
            write!(w, "{v}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads a hypergraph from a file in edge-list format.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<Hypergraph, ParseError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes a hypergraph to a file in edge-list format.
pub fn save_edge_list(h: &Hypergraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_edge_list(h, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let h = Hypergraph::paper_example();
        let mut buf = Vec::new();
        write_edge_list(&h, &mut buf).unwrap();
        let h2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn edge_list_parses_comments_and_blank_lines() {
        let text = "# comment\n\n0 1 2\n% other comment\n2 3\n";
        let h = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.edge_vertices(1), &[2, 3]);
    }

    #[test]
    fn edge_list_bad_token() {
        let err = read_edge_list("0 x 2\n".as_bytes()).unwrap_err();
        match err {
            ParseError::BadToken { line, token } => {
                assert_eq!(line, 1);
                assert_eq!(token, "x");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn bipartite_pairs_parse() {
        let text = "# edge vertex\n0 5\n0 6\n1 5\n2 7\n";
        let h = read_bipartite_pairs(text.as_bytes()).unwrap();
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.num_vertices(), 8);
        assert_eq!(h.edge_vertices(0), &[5, 6]);
        assert_eq!(h.vertex_edges(5), &[0, 1]);
    }

    #[test]
    fn bipartite_pairs_reject_arity() {
        assert!(matches!(
            read_bipartite_pairs("1 2 3\n".as_bytes()).unwrap_err(),
            ParseError::BadPair { line: 1 }
        ));
        assert!(matches!(
            read_bipartite_pairs("1\n".as_bytes()).unwrap_err(),
            ParseError::BadPair { line: 1 }
        ));
    }

    #[test]
    fn empty_input() {
        let h = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(h.num_edges(), 0);
        assert_eq!(h.num_vertices(), 0);
        let h = read_bipartite_pairs("# nothing\n".as_bytes()).unwrap();
        assert_eq!(h.num_edges(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hyperline-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("example.hgr");
        let h = Hypergraph::paper_example();
        save_edge_list(&h, &path).unwrap();
        let h2 = load_edge_list(&path).unwrap();
        assert_eq!(h, h2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn huge_sparse_ids_rejected() {
        // A tiny file naming a ~4-billion ID must not force a 4-billion
        // slot allocation: the dense-space guard rejects it.
        let err = read_edge_list("0 4000000000\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ParseError::IdSpaceTooLarge {
                max_id: 4_000_000_000,
                entries: 2
            }
        ));
        assert!(err.to_string().contains("ID space too large"));
        let err = read_bipartite_pairs("4000000000 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::IdSpaceTooLarge { .. }));
        // Dense IDs of any absolute size stay loadable: the guard is
        // proportionality, not magnitude.
        let h = read_edge_list("0 1 2 3\n2 3\n".as_bytes()).unwrap();
        assert_eq!(h.num_vertices(), 4);
    }

    #[test]
    fn error_display() {
        let e = ParseError::BadToken {
            line: 3,
            token: "zz".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = ParseError::BadPair { line: 9 };
        assert!(e.to_string().contains("line 9"));
    }
}
