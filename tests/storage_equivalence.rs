//! The paged store must be *transparent*: every search returns identical
//! results through the page buffer as against the in-memory CSR, while I/O
//! counters behave monotonically and charge one page touch per arc scan.

use pathsearch::{Goal, SearchArena, SharingPolicy, msmd, run_in};
use proptest::prelude::*;
use roadnet::generators::{GridConfig, NetworkClass, grid_network};
use roadnet::{ChunkedCsr, GraphBuilder, GraphView, NodeId, PageLayout, PagePlacement, Point};

#[test]
fn searches_identical_through_every_placement() {
    for class in NetworkClass::ALL {
        let g = class.generate(500, 21).expect("valid network");
        let n = g.num_nodes() as u32;
        let pairs = [(0u32, n - 1), (n / 3, 2 * n / 3), (1, n / 2)];
        for placement in [
            PagePlacement::Connectivity,
            PagePlacement::BfsOrder,
            PagePlacement::NodeOrder,
            PagePlacement::Random { seed: 9 },
        ] {
            let layout = PageLayout::build(&g, placement, 64);
            let paged = ChunkedCsr::spill_temp(&g, &layout, 4).expect("spill to temp");
            let mut arena = SearchArena::new();
            for &(s, t) in &pairs {
                let direct =
                    pathsearch::shortest_path(&g, NodeId(s), NodeId(t)).expect("connected");
                run_in(&mut arena, &paged, NodeId(s), &Goal::Single(NodeId(t)));
                let through = arena.path_to(NodeId(t)).expect("connected");
                assert_eq!(
                    direct.nodes(),
                    through.nodes(),
                    "{} / {}: different path",
                    class.name(),
                    placement.name()
                );
                assert!((direct.distance() - through.distance()).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn msmd_identical_over_paged_graph() {
    let g = grid_network(&GridConfig { width: 18, height: 18, seed: 2, ..Default::default() })
        .expect("valid network");
    let paged = ChunkedCsr::spill_temp(&g, &PageLayout::ccam(&g), 6).expect("spill to temp");
    let sources = [NodeId(0), NodeId(17)];
    let targets = [NodeId(300), NodeId(200), NodeId(111)];
    let mem = msmd(&g, &sources, &targets, SharingPolicy::PerSource);
    let pag = msmd(&paged, &sources, &targets, SharingPolicy::PerSource);
    for i in 0..sources.len() {
        for j in 0..targets.len() {
            assert_eq!(mem.distance(i, j), pag.distance(i, j), "distance mismatch at ({i},{j})");
        }
    }
    // Settled-node counts are a property of the algorithm, not the storage.
    assert_eq!(mem.stats.settled, pag.stats.settled);
    assert!(paged.io_stats().faults > 0);
}

#[test]
fn an_isolated_node_costs_exactly_one_page_touch() {
    // Three nodes on a line plus one with no arcs, each on its own page.
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> =
        (0..4).map(|i| b.add_node(Point::new(f64::from(i), 0.0)).expect("finite")).collect();
    b.add_edge(nodes[0], nodes[1], 1.0).expect("valid edge");
    b.add_edge(nodes[1], nodes[2], 1.0).expect("valid edge");
    let g = b.build().expect("valid network");
    let layout = PageLayout::build(&g, PagePlacement::NodeOrder, 2);
    let paged = ChunkedCsr::spill_temp(&g, &layout, 1).expect("spill to temp");
    let isolated = nodes[3];
    assert_ne!(layout.page_of(isolated), layout.page_of(nodes[2]));

    let mut arcs = 0;
    paged.for_each_arc(isolated, &mut |_, _| arcs += 1);
    assert_eq!(arcs, 0);
    let io = paged.io_stats();
    assert_eq!((io.accesses, io.faults), (1, 1), "a degree-0 node still reads its page");
    paged.for_each_arc(isolated, &mut |_, _| arcs += 1);
    assert_eq!((paged.io_stats().accesses, paged.io_stats().faults), (2, 1));
    // Searching from it settles the root alone, for one touch.
    let mut arena = SearchArena::new();
    let stats = run_in(&mut arena, &paged, isolated, &Goal::AllNodes);
    assert_eq!(stats.settled, 1);
    assert_eq!(paged.io_stats().accesses, 3);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn buffer_size_monotonicity(buffer_small in 1usize..8, extra in 1usize..64, seed in 0u64..1000) {
        // More buffer never causes more faults (LRU is a stack algorithm —
        // inclusion property).
        let g = grid_network(&GridConfig { width: 14, height: 14, seed, ..Default::default() })
            .expect("valid network");
        let layout = PageLayout::build(&g, PagePlacement::Connectivity, 64);
        let run = |pages: usize| {
            let paged = ChunkedCsr::spill_temp(&g, &layout, pages).expect("spill to temp");
            let mut arena = SearchArena::new();
            run_in(&mut arena, &paged, NodeId(0), &Goal::AllNodes);
            run_in(&mut arena, &paged, NodeId((seed % 196) as u32), &Goal::AllNodes);
            paged.io_stats().faults
        };
        let small = run(buffer_small);
        let large = run(buffer_small + extra);
        prop_assert!(large <= small, "faults grew with buffer: {small} -> {large}");
    }

    #[test]
    fn faults_bounded_by_accesses_and_pages(seed in 0u64..1000, buffer in 1usize..32) {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed, ..Default::default() })
            .expect("valid network");
        let layout = PageLayout::ccam(&g);
        let paged = ChunkedCsr::spill_temp(&g, &layout, buffer).expect("spill to temp");
        let mut arena = SearchArena::new();
        let stats = run_in(&mut arena, &paged, NodeId(0), &Goal::AllNodes);
        let io = paged.io_stats();
        prop_assert_eq!(io.accesses, stats.settled, "one page touch per settled node");
        prop_assert!(io.faults <= io.accesses);
        prop_assert!(io.faults >= (layout.num_pages() as u64).min(io.accesses),
            "a full-tree search must touch every page at least once");
        prop_assert!(io.hit_ratio() >= 0.0 && io.hit_ratio() <= 1.0);
    }
}
