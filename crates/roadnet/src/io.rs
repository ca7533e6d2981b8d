//! The road-map exchange format: the file layout of the [9th DIMACS
//! Implementation Challenge], a `.gr` distance graph plus a `.co`
//! coordinate file.
//!
//! The paper's obfuscator keeps "a simple road map (e.g., obtained from
//! Tiger/Line)" (§IV), and DIMACS is the layout published road networks
//! (TIGER/Line USA, Europe) ship in. Generated networks are exported,
//! archived with experiment results, and re-imported bit-exactly
//! (coordinates and weights round-trip through `{:.17e}` formatting, and a
//! directed map is marked as one). See [`read_dimacs`] for the exact
//! grammar subset and [`write_dimacs_gr`]/[`write_dimacs_co`] for the
//! emitters; `docs/formats.md` at the repository root documents the
//! format in full.
//!
//! [9th DIMACS Implementation Challenge]: http://www.diag.uniroma1.it/challenge9/

use crate::error::{Result, RoadNetError};
use crate::geo::Point;
use crate::graph::{GraphBuilder, RoadNetwork};
use crate::ids::NodeId;
use std::io::{BufRead, Write};

/// The `.gr` comment line that marks a directed map: its arcs are kept as
/// written, never paired into undirected edges.
const DIRECTED: &str = "c directed";

/// Write the `.gr` (distance graph) half of a DIMACS pair.
///
/// Grammar emitted (1-based node ids, one arc per line):
///
/// ```text
/// c <comment>
/// c directed            (directed networks only)
/// p sp <nodes> <arcs>
/// a <from> <to> <weight>
/// ```
///
/// Undirected networks emit **both** arc directions, as published DIMACS
/// road graphs do; [`read_dimacs`] re-pairs them. A directed network
/// emits each arc once, after a `c directed` line that tells
/// [`read_dimacs`] to keep them as written. Weights are written
/// `{:.17e}` so they reload bit-exactly (the challenge files use integer
/// deci-meters; this subset generalizes to the float weights the OPAQUE
/// cost model needs).
pub fn write_dimacs_gr<W: Write>(g: &RoadNetwork, w: &mut W) -> Result<()> {
    let arcs = if g.is_directed() { g.num_arcs() } else { 2 * g.num_edges() };
    writeln!(w, "c OPAQUE reproduction road network (DIMACS sp subset)")?;
    if g.is_directed() {
        writeln!(w, "{DIRECTED}")?;
    }
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
/// **Direction.** DIMACS graphs are arc lists. A `.gr` with a comment line
/// reading exactly `c directed` (what [`write_dimacs_gr`] writes for a
/// directed network) is rebuilt directed, every arc verbatim. Otherwise —
/// a published file carries no such line — direction is recovered: if
/// every arc has a bit-equal reverse partner the network is rebuilt
/// *undirected*, each pair collapsing to one edge oriented as its
/// first-seen arc, preserving generator edge order across a write/read
/// cycle; any unmatched arc makes the whole network directed, keeping
/// every arc verbatim.
///
/// # Errors
/// [`RoadNetError::Parse`] on any grammar violation; I/O errors propagate.
pub fn read_dimacs<R1: BufRead, R2: BufRead>(gr: &mut R1, co: &mut R2) -> Result<RoadNetwork> {
    let fail = |line: usize, message: String| RoadNetError::Parse { line, message };

    // --- .gr pass: header then arcs -------------------------------------
    let mut header: Option<(usize, usize)> = None; // (n, m)
    let mut marked_directed = false;
    let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
    for (no, line) in gr.lines().enumerate() {
        let no = no + 1;
        let line = line?;
        let t = line.trim();
        marked_directed |= t == DIRECTED;
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
    let points = dense_points(&vertices, n)?;

    // --- direction ---------------------------------------------------------
    let undirected = if marked_directed { None } else { pair_reverse_arcs(&arcs) };
    let mut b = if undirected.is_some() { GraphBuilder::new() } else { GraphBuilder::directed() };
    let edge_list = undirected.as_ref().unwrap_or(&arcs);
    b.reserve(n, edge_list.len());
    for p in points {
        b.add_node(p)?;
    }
    for &(u, v, w) in edge_list {
        b.add_edge(NodeId(u), NodeId(v), w)?;
    }
    b.build()
}

/// The undirected edges of `arcs` if every arc pairs with a bit-equal
/// reverse, `None` if any arc is left unmatched. Each arc is paired
/// greedily with an unmatched reverse seen before it; a pair becomes one
/// edge, oriented and ordered by its first-seen arc.
fn pair_reverse_arcs(arcs: &[(u32, u32, f64)]) -> Option<Vec<(u32, u32, f64)>> {
    let mut pending: std::collections::HashMap<(u32, u32, u64), Vec<usize>> =
        std::collections::HashMap::new();
    let mut unmatched = 0usize;
    let mut undirected = Vec::with_capacity(arcs.len() / 2);
    for (i, &(u, v, w)) in arcs.iter().enumerate() {
        if let Some(j) = pending.get_mut(&(v, u, w.to_bits())).and_then(Vec::pop) {
            unmatched -= 1;
            undirected.push(arcs[j]);
            continue;
        }
        unmatched += 1;
        pending.entry((u, v, w.to_bits())).or_default().push(i);
    }
    (unmatched == 0).then_some(undirected)
}

/// The points of `(id, point, line)` vertex records (0-based ids), read in
/// file order, for ids `0..n`: an error names the second record of an id,
/// or the least id without one. The table grows only with the records
/// read, never with `n` or an id a file claims: `k < n` records leave an
/// id of `0..=k` without one, so a table of `k + 1` finds it.
fn dense_points(records: &[(usize, Point, usize)], n: usize) -> Result<Vec<Point>> {
    let mut table: Vec<Option<Point>> = vec![None; n.min(records.len() + 1)];
    for &(id, p, line) in records {
        match table.get_mut(id) {
            Some(Some(_)) => {
                return Err(RoadNetError::Parse {
                    line,
                    message: format!("duplicate vertex id {}", id + 1),
                });
            }
            Some(slot) => *slot = Some(p),
            None => {}
        }
    }
    table
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            p.ok_or_else(|| RoadNetError::Parse {
                line: 0,
                message: format!("no coordinates for node {}", i + 1),
            })
        })
        .collect()
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

    /// `c directed` keeps a directed map directed through a round trip,
    /// even where its arcs pair up or it has none.
    #[test]
    fn directed_flag_round_trips() {
        let directed = |arcs: &[(u32, u32, f64)]| {
            let mut b = GraphBuilder::directed();
            b.add_node(Point::new(0.0, 0.0)).unwrap();
            b.add_node(Point::new(1.0, 1.0)).unwrap();
            for &(u, v, w) in arcs {
                b.add_edge(NodeId(u), NodeId(v), w).unwrap();
            }
            b.build().unwrap()
        };
        for g in [directed(&[(0, 1, 2.0)]), directed(&[(0, 1, 2.0), (1, 0, 2.0)]), directed(&[])] {
            let (h, gr, _) = dimacs_round_trip(&g);
            assert!(h.is_directed(), "{:?}", String::from_utf8_lossy(&gr));
            assert_eq!(g.edges(), h.edges());
            assert_eq!(g.num_arcs(), h.num_arcs());
        }
    }

    #[test]
    fn comments_blanks_and_order_are_tolerated() {
        let gr = "\nc preamble\np sp 2 2\n\nc interleaved\na 2 1 2.5\n  a 1 2 2.5\n";
        let co = "c coordinates\n\np aux sp co 2\nv 2 1.0 0.0\nc interleaved\nv 1 0.0 0.0\n";
        let g = read_dimacs(&mut std::io::Cursor::new(gr), &mut std::io::Cursor::new(co)).unwrap();
        assert!(!g.is_directed());
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges()[0].weight, 2.5);
        assert_eq!(g.point(NodeId(1)), Point::new(1.0, 0.0));
    }

    #[test]
    fn rejects_bad_header() {
        let (gr_ok, co_ok) = ("p sp 1 0\n", "p aux sp co 1\nv 1 0 0\n");
        let cases = [
            ("", co_ok, "missing 'p sp'"),
            ("c only a comment\n", co_ok, "missing 'p sp'"),
            ("p sp 1\n", co_ok, "bad arc count"),
            ("p sp x 0\n", co_ok, "bad node count"),
            (gr_ok, "", "missing 'p aux sp co'"),
            (gr_ok, "p aux sp 1\n", "expected 'p aux sp co"),
        ];
        for (gr, co, want) in cases {
            let err = read_dimacs(&mut std::io::Cursor::new(gr), &mut std::io::Cursor::new(co))
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, RoadNetError::Parse { .. }) && msg.contains(want),
                "gr {gr:?} co {co:?} gave {msg:?}, wanted {want:?}"
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
