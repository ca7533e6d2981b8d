//! Plain-text network exchange formats: TLN and a DIMACS-shortest-path
//! subset.
//!
//! The paper's obfuscator keeps "a simple road map (e.g., obtained from
//! Tiger/Line)" (§IV). Real TIGER/Line files are unavailable offline, so
//! this module defines a minimal line-oriented format (TLN) carrying exactly
//! what the system needs — node coordinates and weighted segments — and
//! readers/writers for it. Generated networks can be exported, archived with
//! experiment results, and re-imported bit-exactly (coordinates and weights
//! round-trip through `{:.17e}` formatting).
//!
//! ```text
//! TLN 1 undirected
//! # comment lines and blank lines are ignored
//! N <id> <x> <y>
//! E <a> <b> <weight>
//! ```
//!
//! Node ids must be dense (`0..n`) but may appear in any order; edges may
//! only reference declared ids.
//!
//! For continent-scale maps the crate also speaks the file layout of the
//! [9th DIMACS Implementation Challenge] — the de-facto interchange for
//! published road networks (TIGER/Line USA, Europe): a `.gr` distance graph
//! plus a `.co` coordinate file. See [`read_dimacs`] for the exact grammar
//! subset and [`write_dimacs_gr`]/[`write_dimacs_co`] for the emitters.
//! `docs/formats.md` at the repository root documents both formats in full.
//!
//! [9th DIMACS Implementation Challenge]: http://www.diag.uniroma1.it/challenge9/

use crate::error::{Result, RoadNetError};
use crate::geo::Point;
use crate::graph::{GraphBuilder, RoadNetwork};
use crate::ids::NodeId;
use std::io::{BufRead, Write};

const MAGIC: &str = "TLN";
const VERSION: &str = "1";

/// Serialize `g` in TLN format.
pub fn write_tln<W: Write>(g: &RoadNetwork, w: &mut W) -> Result<()> {
    let mode = if g.is_directed() { "directed" } else { "undirected" };
    writeln!(w, "{MAGIC} {VERSION} {mode}")?;
    writeln!(w, "# nodes={} edges={}", g.num_nodes(), g.num_edges())?;
    for n in g.nodes() {
        let p = g.point(n);
        writeln!(w, "N {} {:.17e} {:.17e}", n, p.x, p.y)?;
    }
    for e in g.edges() {
        writeln!(w, "E {} {} {:.17e}", e.a, e.b, e.weight)?;
    }
    Ok(())
}

/// Parse a TLN document into a [`RoadNetwork`].
pub fn read_tln<R: BufRead>(r: &mut R) -> Result<RoadNetwork> {
    let mut lines = r.lines().enumerate();

    let (first_no, first) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('#') {
                    break (no + 1, t.to_string());
                }
            }
            None => return Err(RoadNetError::Parse { line: 0, message: "empty document".into() }),
        }
    };
    let mut hdr = first.split_whitespace();
    if hdr.next() != Some(MAGIC) || hdr.next() != Some(VERSION) {
        return Err(RoadNetError::Parse {
            line: first_no,
            message: format!("expected header '{MAGIC} {VERSION} <mode>', got '{first}'"),
        });
    }
    let directed = match hdr.next() {
        Some("directed") => true,
        Some("undirected") => false,
        other => {
            return Err(RoadNetError::Parse {
                line: first_no,
                message: format!("expected mode directed|undirected, got {other:?}"),
            });
        }
    };

    let mut nodes: Vec<(usize, Point, usize)> = Vec::new();
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for (no, line) in lines {
        let no = no + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let tag = parts.next().expect("non-empty line has a token");
        let parse_f = |s: Option<&str>, what: &str| -> Result<f64> {
            s.and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| RoadNetError::Parse { line: no, message: format!("bad {what}") })
        };
        let parse_u = |s: Option<&str>, what: &str| -> Result<u32> {
            s.and_then(|v| v.parse::<u32>().ok())
                .ok_or_else(|| RoadNetError::Parse { line: no, message: format!("bad {what}") })
        };
        match tag {
            "N" => {
                let id = parse_u(parts.next(), "node id")? as usize;
                let x = parse_f(parts.next(), "x coordinate")?;
                let y = parse_f(parts.next(), "y coordinate")?;
                nodes.push((id, Point::new(x, y), no));
            }
            "E" => {
                let a = parse_u(parts.next(), "edge endpoint")?;
                let b = parse_u(parts.next(), "edge endpoint")?;
                let w = parse_f(parts.next(), "edge weight")?;
                edges.push((a, b, w));
            }
            other => {
                return Err(RoadNetError::Parse {
                    line: no,
                    message: format!("unknown record tag '{other}'"),
                });
            }
        }
        if parts.next().is_some() {
            return Err(RoadNetError::Parse { line: no, message: "trailing tokens".into() });
        }
    }

    let points = dense_points(&nodes, nodes.len()).map_err(|defect| match defect {
        Defect::Duplicate { id, line } => {
            RoadNetError::Parse { line, message: format!("duplicate node id {id}") }
        }
        Defect::Missing(i) => {
            RoadNetError::Parse { line: 0, message: format!("node ids not dense: id {i} missing") }
        }
    })?;
    let mut b = if directed { GraphBuilder::directed() } else { GraphBuilder::new() };
    b.reserve(points.len(), edges.len());
    for p in points {
        b.add_node(p)?;
    }
    for (a, bb, w) in edges {
        b.add_edge(NodeId(a), NodeId(bb), w)?;
    }
    b.build()
}

/// Write `g` to a file at `path` in TLN format.
pub fn save_tln(g: &RoadNetwork, path: &std::path::Path) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_tln(g, &mut f)?;
    f.flush()?;
    Ok(())
}

/// Read a TLN file from `path`.
pub fn load_tln(path: &std::path::Path) -> Result<RoadNetwork> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read_tln(&mut f)
}

// ---------------------------------------------------------------------------
// DIMACS shortest-path subset (.gr distance graph + .co coordinates)
// ---------------------------------------------------------------------------

/// Write the `.gr` (distance graph) half of a DIMACS pair.
///
/// Grammar emitted (1-based node ids, one arc per line):
///
/// ```text
/// c <comment>
/// p sp <nodes> <arcs>
/// a <from> <to> <weight>
/// ```
///
/// Undirected networks emit **both** arc directions, as published DIMACS
/// road graphs do; [`read_dimacs`] re-pairs them. Weights are written
/// `{:.17e}` so they reload bit-exactly (the challenge files use integer
/// deci-meters; this subset generalizes to the float weights the OPAQUE
/// cost model needs).
pub fn write_dimacs_gr<W: Write>(g: &RoadNetwork, w: &mut W) -> Result<()> {
    let arcs = if g.is_directed() { g.num_arcs() } else { 2 * g.num_edges() };
    writeln!(w, "c OPAQUE reproduction road network (DIMACS sp subset)")?;
    writeln!(w, "p sp {} {}", g.num_nodes(), arcs)?;
    for e in g.edges() {
        writeln!(w, "a {} {} {:.17e}", e.a.0 + 1, e.b.0 + 1, e.weight)?;
        if !g.is_directed() {
            writeln!(w, "a {} {} {:.17e}", e.b.0 + 1, e.a.0 + 1, e.weight)?;
        }
    }
    Ok(())
}

/// Write the `.co` (coordinates) half of a DIMACS pair:
///
/// ```text
/// c <comment>
/// p aux sp co <nodes>
/// v <id> <x> <y>
/// ```
///
/// Ids are 1-based to match the `.gr` file; coordinates round-trip
/// bit-exactly through `{:.17e}`.
pub fn write_dimacs_co<W: Write>(g: &RoadNetwork, w: &mut W) -> Result<()> {
    writeln!(w, "c OPAQUE reproduction road network coordinates")?;
    writeln!(w, "p aux sp co {}", g.num_nodes())?;
    for n in g.nodes() {
        let p = g.point(n);
        writeln!(w, "v {} {:.17e} {:.17e}", n.0 + 1, p.x, p.y)?;
    }
    Ok(())
}

/// Parse a DIMACS `.gr` + `.co` pair into a [`RoadNetwork`].
///
/// Accepted grammar (a strict subset of the challenge format):
///
/// * `.gr` — `c` comment lines and blanks anywhere; exactly one
///   `p sp <n> <m>` problem line before any arc; then `m` arc lines
///   `a <u> <v> <w>` with `1 ≤ u, v ≤ n` and a finite weight `w ≥ 0`.
/// * `.co` — `c`/blank lines; exactly one `p aux sp co <n>` problem line
///   whose `n` matches the `.gr` header; then one `v <id> <x> <y>` line
///   per node, each id exactly once.
///
/// Both streams are parsed line-by-line (no full-file buffering), so
/// million-node maps load in one pass. Every violation is reported as
/// [`RoadNetError::Parse`] with the 1-based line number of the offending
/// line and `line: 0` for whole-file defects (missing nodes, arc-count
/// mismatch).
///
/// **Direction recovery.** DIMACS graphs are arc lists. If every arc has a
/// bit-equal reverse partner the network is rebuilt *undirected* — each
/// pair collapses to one edge oriented as its first-seen arc, preserving
/// generator edge order across a write/read cycle. Any unmatched arc makes
/// the whole network directed, keeping every arc verbatim.
///
/// # Errors
/// [`RoadNetError::Parse`] on any grammar violation; I/O errors propagate.
pub fn read_dimacs<R1: BufRead, R2: BufRead>(gr: &mut R1, co: &mut R2) -> Result<RoadNetwork> {
    let fail = |line: usize, message: String| RoadNetError::Parse { line, message };

    // --- .gr pass: header then arcs -------------------------------------
    let mut header: Option<(usize, usize)> = None; // (n, m)
    let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
    for (no, line) in gr.lines().enumerate() {
        let no = no + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        let mut parts = t.split_whitespace();
        match parts.next() {
            Some("p") => {
                if header.is_some() {
                    return Err(fail(no, "duplicate problem line".into()));
                }
                if parts.next() != Some("sp") {
                    return Err(fail(no, "expected 'p sp <nodes> <arcs>'".into()));
                }
                let n = parse_count(parts.next(), no, "node count")?;
                let m = parse_count(parts.next(), no, "arc count")?;
                if n == 0 {
                    return Err(fail(no, "node count must be positive".into()));
                }
                header = Some((n, m));
            }
            Some("a") => {
                let (n, _) =
                    header.ok_or_else(|| fail(no, "arc before 'p sp' problem line".into()))?;
                let u = parse_count(parts.next(), no, "arc tail")?;
                let v = parse_count(parts.next(), no, "arc head")?;
                let w = parts
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| fail(no, "bad arc weight".into()))?;
                if u == 0 || u > n || v == 0 || v > n {
                    return Err(fail(no, format!("arc endpoint out of range 1..={n}")));
                }
                if !w.is_finite() || w < 0.0 {
                    return Err(fail(no, format!("arc weight {w} not finite and non-negative")));
                }
                arcs.push((u as u32 - 1, v as u32 - 1, w));
            }
            Some(other) => {
                return Err(fail(no, format!("unknown record tag '{other}' in .gr")));
            }
            None => unreachable!("non-empty line has a token"),
        }
        if parts.next().is_some() {
            return Err(fail(no, "trailing tokens".into()));
        }
    }
    let (n, m) = header.ok_or_else(|| fail(0, "missing 'p sp' problem line in .gr".into()))?;
    if arcs.len() != m {
        return Err(fail(0, format!("header promised {m} arcs, found {}", arcs.len())));
    }

    // --- .co pass: one coordinate per node -------------------------------
    let mut vertices: Vec<(usize, Point, usize)> = Vec::new();
    let mut co_header = false;
    for (no, line) in co.lines().enumerate() {
        let no = no + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        let mut parts = t.split_whitespace();
        match parts.next() {
            Some("p") => {
                if co_header {
                    return Err(fail(no, "duplicate problem line in .co".into()));
                }
                if (parts.next(), parts.next(), parts.next())
                    != (Some("aux"), Some("sp"), Some("co"))
                {
                    return Err(fail(no, "expected 'p aux sp co <nodes>'".into()));
                }
                let cn = parse_count(parts.next(), no, "node count")?;
                if cn != n {
                    return Err(fail(no, format!(".co has {cn} nodes but .gr has {n}")));
                }
                co_header = true;
            }
            Some("v") => {
                if !co_header {
                    return Err(fail(no, "vertex before 'p aux sp co' problem line".into()));
                }
                let id = parse_count(parts.next(), no, "vertex id")?;
                let x = parts.next().and_then(|s| s.parse::<f64>().ok());
                let y = parts.next().and_then(|s| s.parse::<f64>().ok());
                let (x, y) = match (x, y) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return Err(fail(no, "bad vertex coordinates".into())),
                };
                if id == 0 || id > n {
                    return Err(fail(no, format!("vertex id out of range 1..={n}")));
                }
                vertices.push((id - 1, Point::new(x, y), no));
            }
            Some(other) => {
                return Err(fail(no, format!("unknown record tag '{other}' in .co")));
            }
            None => unreachable!("non-empty line has a token"),
        }
        if parts.next().is_some() {
            return Err(fail(no, "trailing tokens".into()));
        }
    }
    if !co_header {
        return Err(fail(0, "missing 'p aux sp co' problem line in .co".into()));
    }
    let points = dense_points(&vertices, n).map_err(|defect| match defect {
        Defect::Duplicate { id, line } => fail(line, format!("duplicate vertex id {}", id + 1)),
        Defect::Missing(i) => fail(0, format!("no coordinates for node {}", i + 1)),
    })?;

    // --- direction recovery ----------------------------------------------
    // Greedily pair each arc with the earliest unmatched bit-equal reverse.
    // All arcs paired ⇒ undirected (one edge per pair, oriented and ordered
    // by first occurrence); otherwise the graph is directed as written.
    let mut pending: std::collections::HashMap<(u32, u32, u64), Vec<usize>> =
        std::collections::HashMap::new();
    let mut matched = vec![false; arcs.len()];
    let mut undirected: Vec<(u32, u32, f64)> = Vec::with_capacity(arcs.len() / 2);
    for (i, &(u, v, w)) in arcs.iter().enumerate() {
        if let Some(slot) = pending.get_mut(&(v, u, w.to_bits())) {
            if let Some(j) = slot.pop() {
                matched[i] = true;
                matched[j] = true;
                let (fu, fv, fw) = arcs[j];
                undirected.push((fu, fv, fw));
                continue;
            }
        }
        pending.entry((u, v, w.to_bits())).or_default().push(i);
    }
    let all_paired = matched.iter().all(|&m| m);

    let mut b = if all_paired { GraphBuilder::new() } else { GraphBuilder::directed() };
    b.reserve(n, if all_paired { undirected.len() } else { arcs.len() });
    for p in points {
        b.add_node(p)?;
    }
    let edge_list = if all_paired { &undirected } else { &arcs };
    for &(u, v, w) in edge_list {
        b.add_edge(NodeId(u), NodeId(v), w)?;
    }
    b.build()
}

/// What keeps node records from covering ids `0..n` exactly once.
enum Defect {
    /// The second record of `id`, on `line`.
    Duplicate { id: usize, line: usize },
    /// The least id without a record.
    Missing(usize),
}

/// The points of `(id, point, line)` node records, read in file order, for
/// ids `0..n`. The table grows only with the records read, never with `n`
/// or an id a file claims: `k < n` records leave an id of `0..=k` without
/// one, so a table of `k + 1` finds it.
fn dense_points(
    records: &[(usize, Point, usize)],
    n: usize,
) -> std::result::Result<Vec<Point>, Defect> {
    let mut table: Vec<Option<Point>> = vec![None; n.min(records.len() + 1)];
    for &(id, p, line) in records {
        match table.get_mut(id) {
            Some(Some(_)) => return Err(Defect::Duplicate { id, line }),
            Some(slot) => *slot = Some(p),
            None => {}
        }
    }
    table.into_iter().enumerate().map(|(i, p)| p.ok_or(Defect::Missing(i))).collect()
}

/// Parse a positive-or-zero count token, mapping failure to a line error.
fn parse_count(s: Option<&str>, line: usize, what: &str) -> Result<usize> {
    s.and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| RoadNetError::Parse { line, message: format!("bad {what}") })
}

/// Write `g` as a DIMACS pair at `gr_path` / `co_path`.
pub fn save_dimacs(
    g: &RoadNetwork,
    gr_path: &std::path::Path,
    co_path: &std::path::Path,
) -> Result<()> {
    let mut gr = std::io::BufWriter::new(std::fs::File::create(gr_path)?);
    write_dimacs_gr(g, &mut gr)?;
    gr.flush()?;
    let mut co = std::io::BufWriter::new(std::fs::File::create(co_path)?);
    write_dimacs_co(g, &mut co)?;
    co.flush()?;
    Ok(())
}

/// Load a DIMACS pair from `gr_path` / `co_path`.
pub fn load_dimacs(gr_path: &std::path::Path, co_path: &std::path::Path) -> Result<RoadNetwork> {
    let mut gr = std::io::BufReader::new(std::fs::File::open(gr_path)?);
    let mut co = std::io::BufReader::new(std::fs::File::open(co_path)?);
    read_dimacs(&mut gr, &mut co)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GridConfig, grid_network};

    fn round_trip(g: &RoadNetwork) -> RoadNetwork {
        let mut buf = Vec::new();
        write_tln(g, &mut buf).unwrap();
        read_tln(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn round_trip_preserves_structure_exactly() {
        let g = grid_network(&GridConfig { width: 6, height: 5, seed: 11, ..Default::default() })
            .unwrap();
        let h = round_trip(&g);
        assert_eq!(g.num_nodes(), h.num_nodes());
        assert_eq!(g.num_edges(), h.num_edges());
        for n in g.nodes() {
            assert_eq!(g.point(n), h.point(n));
        }
        assert_eq!(g.edges(), h.edges());
        assert_eq!(g.is_directed(), h.is_directed());
    }

    #[test]
    fn directed_flag_round_trips() {
        let mut b = GraphBuilder::directed();
        let a = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let c = b.add_node(Point::new(1.0, 1.0)).unwrap();
        b.add_edge(a, c, 2.0).unwrap();
        let g = b.build().unwrap();
        let h = round_trip(&g);
        assert!(h.is_directed());
        assert_eq!(h.num_arcs(), 1);
    }

    #[test]
    fn comments_blanks_and_order_are_tolerated() {
        let doc = "\n# preamble\nTLN 1 undirected\n\nE 0 1 2.5\nN 1 1.0 0.0\n# interleaved\nN 0 0.0 0.0\n";
        let g = read_tln(&mut std::io::Cursor::new(doc)).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges()[0].weight, 2.5);
    }

    #[test]
    fn rejects_bad_header() {
        for doc in ["XYZ 1 undirected\n", "TLN 2 undirected\n", "TLN 1 sideways\n", ""] {
            let err = read_tln(&mut std::io::Cursor::new(doc)).unwrap_err();
            assert!(matches!(err, RoadNetError::Parse { .. }), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn rejects_malformed_records() {
        let cases = [
            "TLN 1 undirected\nN 0 0.0\n",                            // missing y
            "TLN 1 undirected\nN 0 0.0 0.0 extra\n",                  // trailing token
            "TLN 1 undirected\nQ 0\n",                                // unknown tag
            "TLN 1 undirected\nN 0 a 0.0\n",                          // bad float
            "TLN 1 undirected\nN 0 0 0\nN 0 1 1\n",                   // duplicate id
            "TLN 1 undirected\nN 1 0 0\n",                            // non-dense ids
            "TLN 1 undirected\nN 0 0 0\nN 1 1 1\nE 0 5 1.0\n",        // edge to unknown node
            "TLN 1 undirected\nN 4294967295 0 0\n",                   // id claims ≈ 100 GB
            "TLN 1 undirected\nN 0 0 0\nN 4294967295 1 1\n",          // a huge id beside a real one
            "TLN 1 undirected\nN 4294967295 0 0\nN 4294967295 1 1\n", // twice
        ];
        for doc in cases {
            let err = read_tln(&mut std::io::Cursor::new(doc)).unwrap_err();
            assert!(
                matches!(err, RoadNetError::Parse { .. } | RoadNetError::NodeOutOfRange { .. }),
                "doc {doc:?} gave {err}"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("roadnet_tln_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.tln");
        let g = grid_network(&GridConfig { width: 4, height: 4, ..Default::default() }).unwrap();
        save_tln(&g, &path).unwrap();
        let h = load_tln(&path).unwrap();
        assert_eq!(g.edges(), h.edges());
        std::fs::remove_file(&path).ok();
    }

    fn dimacs_round_trip(g: &RoadNetwork) -> (RoadNetwork, Vec<u8>, Vec<u8>) {
        let mut gr = Vec::new();
        let mut co = Vec::new();
        write_dimacs_gr(g, &mut gr).unwrap();
        write_dimacs_co(g, &mut co).unwrap();
        let h =
            read_dimacs(&mut std::io::Cursor::new(&gr), &mut std::io::Cursor::new(&co)).unwrap();
        (h, gr, co)
    }

    #[test]
    fn dimacs_round_trip_reproduces_the_network_byte_exactly() {
        let g = grid_network(&GridConfig { width: 7, height: 6, seed: 13, ..Default::default() })
            .unwrap();
        let (h, gr, co) = dimacs_round_trip(&g);
        assert!(!h.is_directed());
        assert_eq!(g.num_nodes(), h.num_nodes());
        for n in g.nodes() {
            assert_eq!(g.point(n), h.point(n));
        }
        // Edge list identical including order and bit-exact weights.
        assert_eq!(g.edges(), h.edges());
        // And a second write of the reloaded network is byte-identical,
        // so archived fixtures are stable.
        let (_, gr2, co2) = dimacs_round_trip(&h);
        assert_eq!(gr, gr2);
        assert_eq!(co, co2);
    }

    #[test]
    fn dimacs_unpaired_arcs_recover_a_directed_graph() {
        let gr = "c one-way pair plus a lone arc\np sp 3 3\na 1 2 5.0\na 2 1 5.0\na 2 3 1.5\n";
        let co = "p aux sp co 3\nv 1 0.0 0.0\nv 2 1.0 0.0\nv 3 2.0 0.0\n";
        let g = read_dimacs(&mut std::io::Cursor::new(gr), &mut std::io::Cursor::new(co)).unwrap();
        assert!(g.is_directed(), "lone arc 2→3 must force a directed rebuild");
        assert_eq!(g.num_arcs(), 3);
    }

    #[test]
    fn dimacs_reverse_weights_must_match_bit_for_bit() {
        let gr = "p sp 2 2\na 1 2 5.0\na 2 1 5.000000000000001\n";
        let co = "p aux sp co 2\nv 1 0.0 0.0\nv 2 1.0 0.0\n";
        let g = read_dimacs(&mut std::io::Cursor::new(gr), &mut std::io::Cursor::new(co)).unwrap();
        assert!(g.is_directed(), "ulp-different reverse weights are two one-way arcs");
    }

    #[test]
    fn dimacs_rejects_malformed_inputs_with_line_numbers() {
        let co_ok = "p aux sp co 2\nv 1 0.0 0.0\nv 2 1.0 0.0\n";
        let gr_ok = "p sp 2 2\na 1 2 1.0\na 2 1 1.0\n";
        let bad_gr = [
            ("a 1 2 1.0\n", "arc before 'p sp'"),
            ("p sp 2 2\np sp 2 2\n", "duplicate problem line"),
            ("p xx 2 2\n", "expected 'p sp"),
            ("p sp 0 0\n", "positive"),
            ("p sp 2 2\na 1 3 1.0\na 2 1 1.0\n", "out of range"),
            ("p sp 2 2\na 1 2 nope\n", "bad arc weight"),
            ("p sp 2 2\na 1 2 -1.0\na 2 1 1.0\n", "non-negative"),
            ("p sp 2 2\na 1 2 1.0\n", "promised 2 arcs"),
            ("p sp 2 2\na 1 2 1.0 extra\n", "trailing"),
            ("p sp 2 2\nz 1 2\n", "unknown record tag"),
            ("p sp 1 18446744073709551615\n", "promised 18446744073709551615 arcs, found 0"),
            ("p sp 18446744073709551615 0\n", ".co has 2 nodes"),
        ];
        for (gr, want) in bad_gr {
            let err = read_dimacs(&mut std::io::Cursor::new(gr), &mut std::io::Cursor::new(co_ok))
                .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(want), "gr {gr:?} gave {msg:?}, wanted {want:?}");
        }
        let bad_co = [
            ("v 1 0.0 0.0\n", "vertex before"),
            ("p aux sp co 3\n", ".co has 3 nodes but .gr has 2"),
            ("p aux sp co 2\nv 1 0.0 0.0\n", "no coordinates for node 2"),
            ("p aux sp co 2\nv 1 0.0 0.0\nv 1 1.0 0.0\n", "duplicate vertex id"),
            ("p aux sp co 2\nv 3 0.0 0.0\n", "out of range"),
            ("p aux sp co 2\nv 1 0.0 zz\n", "bad vertex coordinates"),
        ];
        for (co, want) in bad_co {
            let err = read_dimacs(&mut std::io::Cursor::new(gr_ok), &mut std::io::Cursor::new(co))
                .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(want), "co {co:?} gave {msg:?}, wanted {want:?}");
        }
        // Both halves claim a node count no memory holds: only the
        // vertices read are allocated.
        let gr_huge = "p sp 18446744073709551615 0\n";
        let bad_pair = [
            ("p aux sp co 18446744073709551615\n", "no coordinates for node 1"),
            ("p aux sp co 18446744073709551615\nv 1 0 0\nv 3 0 0\n", "no coordinates for node 2"),
            (
                "p aux sp co 18446744073709551615\nv 1 0 0\nv 1 0 0\n",
                "line 3: duplicate vertex id 1",
            ),
        ];
        for (co, want) in bad_pair {
            let err =
                read_dimacs(&mut std::io::Cursor::new(gr_huge), &mut std::io::Cursor::new(co))
                    .unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, RoadNetError::Parse { .. }) && msg.contains(want),
                "co {co:?} gave {msg:?}, wanted {want:?}"
            );
        }
    }

    #[test]
    fn dimacs_file_round_trip() {
        let dir = std::env::temp_dir().join("roadnet_dimacs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (gr, co) = (dir.join("net.gr"), dir.join("net.co"));
        let g = grid_network(&GridConfig { width: 5, height: 5, seed: 2, ..Default::default() })
            .unwrap();
        save_dimacs(&g, &gr, &co).unwrap();
        let h = load_dimacs(&gr, &co).unwrap();
        assert_eq!(g.edges(), h.edges());
        std::fs::remove_file(&gr).ok();
        std::fs::remove_file(&co).ok();
    }
}
