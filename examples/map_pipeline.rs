//! Map pipeline: generate → export (DIMACS) → reload → serve from paged
//! storage with ALT acceleration.
//!
//! The operator-tooling path: a deployment generates (or imports) its road
//! network once, archives it as a DIMACS `.gr`/`.co` pair, and serves it
//! from a CCAM-ordered page file on disk, with landmark tables precomputed for
//! fast single-pair queries.
//!
//! ```text
//! cargo run --example map_pipeline
//! ```

use pathsearch::{AltPreprocessing, Goal, SearchArena, alt, run_in};
use roadnet::generators::{GeometricConfig, random_geometric};
use roadnet::io::{load_dimacs, save_dimacs};
use roadnet::{ChunkedCsr, GraphView, NodeId, PageLayout};

fn main() {
    // 1. Generate a city-scale network (stands in for a TIGER/Line import).
    let net =
        random_geometric(&GeometricConfig { num_nodes: 3_000, seed: 42, ..Default::default() })
            .expect("generator produces a valid network");
    println!(
        "generated: {} nodes, {} segments, avg degree {:.2}",
        net.num_nodes(),
        net.num_edges(),
        net.avg_degree()
    );

    // 2. Archive and reload through the DIMACS text pair (bit-exact).
    let dir = std::env::temp_dir();
    let (gr, co) = (dir.join("opaque_map_pipeline.gr"), dir.join("opaque_map_pipeline.co"));
    save_dimacs(&net, &gr, &co).expect("write DIMACS");
    let reloaded = load_dimacs(&gr, &co).expect("read DIMACS");
    assert_eq!(net.edges(), reloaded.edges(), "round trip must be exact");
    let bytes: u64 = [&gr, &co].iter().map(|p| std::fs::metadata(p).map_or(0, |m| m.len())).sum();
    println!("archived to {} + .co ({bytes} bytes) and reloaded bit-exact", gr.display());

    // 3. Spill to a CCAM-ordered page file, serve through a small buffer,
    //    and measure the I/O a long query costs.
    let layout = PageLayout::ccam(&reloaded);
    let paged = ChunkedCsr::spill_temp(&reloaded, &layout, 16).expect("spill page file");
    println!(
        "paged store: {} pages of {} slots, buffer 16 pages, colocation {:.2}",
        layout.num_pages(),
        layout.slots_per_page(),
        layout.colocation_ratio(&reloaded),
    );
    let (s, t) = (NodeId(0), NodeId(reloaded.num_nodes() as u32 - 1));
    let mut arena = SearchArena::new();
    let stats = run_in(&mut arena, &paged, s, &Goal::Single(t));
    let io = paged.io_stats();
    println!(
        "dijkstra {s} → {t}: settled {} nodes, {} page faults ({:.0}% buffer hits)",
        stats.settled,
        io.faults,
        io.hit_ratio() * 100.0
    );

    // 4. Precompute ALT landmarks and run the same query goal-directed.
    let pre = AltPreprocessing::try_build(&reloaded, 8).expect("a symmetric map");
    let (path_alt, alt_stats) = alt(&reloaded, &pre, s, t);
    let path_alt = path_alt.expect("connected");
    let d_direct = arena.distance(t).expect("connected");
    assert!((path_alt.distance() - d_direct).abs() < 1e-9);
    println!(
        "alt with {} landmarks ({} table entries): settled {} nodes ({}x fewer), same distance {:.2}",
        pre.landmarks().len(),
        pre.table_entries(),
        alt_stats.settled,
        stats.settled / alt_stats.settled.max(1),
        path_alt.distance()
    );

    // GraphView is one interface over both representations.
    let deg_mem = reloaded.degree(NodeId(7));
    let mut deg_paged = 0;
    paged.for_each_arc(NodeId(7), &mut |_, _| deg_paged += 1);
    assert_eq!(deg_mem, deg_paged);
    println!("in-memory and paged views agree — same GraphView, different cost model");

    std::fs::remove_file(&gr).ok();
    std::fs::remove_file(&co).ok();
}
