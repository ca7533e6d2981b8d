//! E9 — CCAM storage ablation (§III-B, citing Shekhar & Liu \[9\]).
//!
//! The paper's cost analysis assumes "nodes and their edges are clustered
//! and stored on disk"; the I/O cost of a search is then proportional to
//! the pages its spanning tree touches. This experiment runs the same
//! obfuscated-query workload over four page placements (CCAM connectivity
//! clustering, global BFS order, node order, random) and a sweep of buffer
//! sizes, reporting page faults per query — the I/O half of Lemma 1. Each
//! configuration spills the map to a real page file ([`ChunkedCsr`]), so a
//! fault is one page read from disk.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{ClientId, ClientRequest, FakeSelection, Obfuscator, PathQuery, ProtectionSettings};
use pathsearch::{SharingPolicy, msmd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::generators::NetworkClass;
use roadnet::{ChunkedCsr, NodeId, PageLayout, PagePlacement};

/// Run E9.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E9",
        "storage ablation: page placement × buffer size",
        "§III-B storage assumption (CCAM [9])",
        &["placement", "colocation", "buffer pages", "faults/query", "hit ratio"],
    );
    let (g, _) = network_with_index(NetworkClass::Grid, scale);
    let n = g.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(0xE9);
    let ob = Obfuscator::new(g.clone(), FakeSelection::default_ring(), 0xE9);

    // One fixed workload of obfuscated queries, reused for every storage
    // configuration.
    let units: Vec<_> = (0..scale.queries)
        .map(|i| {
            let (s, d) = loop {
                let s = NodeId(rng.gen_range(0..n));
                let d = NodeId(rng.gen_range(0..n));
                if s != d {
                    break (s, d);
                }
            };
            let req = ClientRequest::new(
                ClientId(i as u32),
                PathQuery::new(s, d),
                ProtectionSettings::new(3, 3).expect("positive"),
            );
            ob.obfuscate_independent(&req).expect("map large enough")
        })
        .collect();

    let placements = [
        PagePlacement::Connectivity,
        PagePlacement::BfsOrder,
        PagePlacement::NodeOrder,
        PagePlacement::Random { seed: 0xE9 },
    ];
    // Buffer sizes relative to the file size, so contention exists at every
    // experiment scale: a starved buffer, a half-file buffer, and one that
    // holds everything.
    let num_pages = PageLayout::ccam(&g).num_pages();
    let buffers = [(num_pages / 16).max(2), (num_pages / 2).max(4), num_pages * 2];

    for placement in placements {
        let layout = PageLayout::build(&g, placement, PageLayout::DEFAULT_SLOTS_PER_PAGE);
        let colocation = layout.colocation_ratio(&g);
        for &buffer in &buffers {
            let paged = ChunkedCsr::spill_temp(&g, &layout, buffer).expect("spill to temp");
            for unit in &units {
                let _ = msmd(
                    &paged,
                    unit.query.sources(),
                    unit.query.targets(),
                    SharingPolicy::PerSource,
                );
            }
            let io = paged.io_stats();
            t.row(vec![
                placement.name().into(),
                f3(colocation),
                buffer.to_string(),
                f3(io.faults as f64 / units.len() as f64),
                f3(io.hit_ratio()),
            ]);
        }
    }
    t.note("CCAM's connectivity clustering cuts faults/query versus random placement at every buffer size");
    t.note("larger buffers narrow the gap (everything fits), matching the CCAM paper's shape");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_ccam_beats_random_placement_under_contention() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 12);
        // First row of each placement block is the starved buffer — the
        // regime where placement quality matters.
        let faults = |p: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == p).unwrap_or_else(|| panic!("row {p}"))[3]
                .parse()
                .unwrap()
        };
        assert!(
            faults("ccam") < faults("random"),
            "starved buffer: ccam {} vs random {}",
            faults("ccam"),
            faults("random")
        );
    }

    #[test]
    fn e9_quick_table_is_pinned() {
        // Every fault count is deterministic, so the whole quick table is
        // pinned: a change to the store's charging shows up here first.
        let t = run(&Scale::quick());
        let rows: Vec<String> = t.rows.iter().map(|r| r.join(" ")).collect();
        assert_eq!(
            rows,
            [
                "ccam 0.7462 2 394.88 0.4350",
                "ccam 0.7462 7 58.75 0.9159",
                "ccam 0.7462 30 1.88 0.9973",
                "bfs-order 0.4966 2 431.38 0.3828",
                "bfs-order 0.4966 7 184.62 0.7358",
                "bfs-order 0.4966 30 1.88 0.9973",
                "node-order 0.6139 2 576.75 0.1747",
                "node-order 0.6139 7 316.50 0.5471",
                "node-order 0.6139 30 1.88 0.9973",
                "random 0.0668 2 605.75 0.1332",
                "random 0.0668 7 367.75 0.4738",
                "random 0.0668 30 1.88 0.9973",
            ]
        );
    }

    #[test]
    fn e9_bigger_buffers_fault_less() {
        let t = run(&Scale::quick());
        for placement in ["ccam", "bfs-order", "node-order", "random"] {
            let rows: Vec<f64> = t
                .rows
                .iter()
                .filter(|r| r[0] == placement)
                .map(|r| r[3].parse().unwrap())
                .collect();
            for w in rows.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "{placement}: faults should fall with buffer size");
            }
        }
    }
}
