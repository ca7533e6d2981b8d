//! E1 — plain directions search (Figure 1, §I).
//!
//! Baseline characterization of the server's single-pair evaluators on all
//! three network classes: Dijkstra (the paper's default), A* (its
//! goal-directed alternative), and bidirectional Dijkstra. Verifies all
//! three agree on distances and records how much area each settles — the
//! yardstick every obfuscation-cost experiment is measured against.

use crate::setup::{Scale, network};
use crate::table::{ExperimentTable, f3};
use pathsearch::{AltPreprocessing, Goal, SearchArena, alt, astar, bidirectional, run_in};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::NodeId;
use roadnet::generators::NetworkClass;

/// Run E1.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E1",
        "single-pair search algorithms",
        "Figure 1 / §I server baseline",
        &["network", "algorithm", "mean settled", "mean relaxed", "mean dist", "agree"],
    );
    let mut rng = StdRng::seed_from_u64(0xE1);

    for class in NetworkClass::ALL {
        let g = network(class, scale);
        let n = g.num_nodes() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..scale.queries)
            .map(|_| {
                loop {
                    let s = NodeId(rng.gen_range(0..n));
                    let d = NodeId(rng.gen_range(0..n));
                    if s != d {
                        break (s, d);
                    }
                }
            })
            .collect();

        let pre = AltPreprocessing::try_build(&g, 8).expect("a symmetric map");
        let mut dij = (0u64, 0u64, 0.0f64);
        let mut ast = (0u64, 0u64, 0.0f64);
        let mut bid = (0u64, 0u64, 0.0f64);
        let mut alt_acc = (0u64, 0u64, 0.0f64);
        let mut agree = true;
        let mut arena = SearchArena::new();
        for &(s, d) in &pairs {
            let st = run_in(&mut arena, &g, s, &Goal::Single(d));
            let dd = arena.distance(d).expect("connected network");
            dij.0 += st.settled;
            dij.1 += st.relaxed;
            dij.2 += dd;

            let (ap, ast_st) = astar(&g, s, d);
            let ad = ap.expect("connected").distance();
            ast.0 += ast_st.settled;
            ast.1 += ast_st.relaxed;
            ast.2 += ad;

            let (bp, bid_st) = bidirectional(&g, s, d);
            let bd = bp.expect("connected").distance();
            bid.0 += bid_st.settled;
            bid.1 += bid_st.relaxed;
            bid.2 += bd;

            let (lp, alt_st) = alt(&g, &pre, s, d);
            let ld = lp.expect("connected").distance();
            alt_acc.0 += alt_st.settled;
            alt_acc.1 += alt_st.relaxed;
            alt_acc.2 += ld;

            agree &= (dd - ad).abs() < 1e-6 && (dd - bd).abs() < 1e-6 && (dd - ld).abs() < 1e-6;
        }

        let q = pairs.len() as f64;
        for (name, (settled, relaxed, dist)) in
            [("dijkstra", dij), ("astar", ast), ("bidirectional", bid), ("alt-8", alt_acc)]
        {
            t.row(vec![
                class.name().into(),
                name.into(),
                f3(settled as f64 / q),
                f3(relaxed as f64 / q),
                f3(dist / q),
                if agree { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    t.note("all four algorithms must agree on every distance (column `agree`)");
    t.note(
        "A*, bidirectional, and ALT settle fewer nodes; Dijkstra is the cost baseline for E4/E5",
    );
    t.note("alt-8 = ALT with 8 farthest-point landmarks (extension; network-distance heuristic)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_produces_twelve_rows_and_agreement() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 12);
        for row in &t.rows {
            assert_eq!(row[5], "yes", "algorithms disagreed: {row:?}");
        }
    }

    #[test]
    fn e1_quick_table_is_pinned() {
        // Every column is deterministic, so the whole quick table is pinned:
        // a change to any of the four loops' settle order shows up here.
        let t = run(&Scale::quick());
        let rows: Vec<String> = t.rows.iter().map(|r| r.join(" ")).collect();
        assert_eq!(
            rows,
            [
                "grid dijkstra 143.50 532.00 11.14 yes",
                "grid astar 44.00 162.62 11.14 yes",
                "grid bidirectional 90.75 337.38 11.14 yes",
                "grid alt-8 12.38 43.88 11.14 yes",
                "geometric dijkstra 195.75 745.50 19.06 yes",
                "geometric astar 70.62 266.00 19.06 yes",
                "geometric bidirectional 127.75 488.88 19.06 yes",
                "geometric alt-8 31.88 119.62 19.06 yes",
                "radial dijkstra 195.38 642.38 21.16 yes",
                "radial astar 56.00 183.00 21.16 yes",
                "radial bidirectional 149.62 497.25 21.16 yes",
                "radial alt-8 22.12 73.38 21.16 yes",
            ]
        );
    }

    #[test]
    fn e1_goal_directed_beats_blind_search() {
        let t = run(&Scale::quick());
        // Per class: astar and alt settled <= dijkstra settled.
        for chunk in t.rows.chunks(4) {
            let dij: f64 = chunk[0][2].parse().unwrap();
            let ast: f64 = chunk[1][2].parse().unwrap();
            let alt: f64 = chunk[3][2].parse().unwrap();
            assert!(ast <= dij * 1.05, "A* {ast} vs Dijkstra {dij} on {}", chunk[0][0]);
            assert!(alt <= dij * 1.05, "ALT {alt} vs Dijkstra {dij} on {}", chunk[0][0]);
        }
    }
}
