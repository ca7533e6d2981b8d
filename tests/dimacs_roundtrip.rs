//! Property-based round-trip of the DIMACS `.gr`/`.co` exchange pair: any
//! network the builder accepts must survive write → read bit-exactly.

use proptest::prelude::*;
use roadnet::io::{read_dimacs, write_dimacs_co, write_dimacs_gr};
use roadnet::{GraphBuilder, NodeId, Point, RoadNetwork};

fn arb_network(directed: bool) -> impl Strategy<Value = RoadNetwork> {
    (1usize..30)
        .prop_flat_map(move |n| {
            let coords = proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), n);
            let edges =
                proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..1e9), 0..(3 * n));
            (Just(directed), coords, edges)
        })
        .prop_map(|(directed, coords, edges)| {
            let mut b = if directed { GraphBuilder::directed() } else { GraphBuilder::new() };
            for (x, y) in &coords {
                b.add_node(Point::new(*x, *y)).expect("finite");
            }
            let n = coords.len() as u32;
            for (a, c, w) in edges {
                let (a, c) = (a % n, c % n);
                if a != c {
                    b.add_edge(NodeId(a), NodeId(c), w).expect("valid");
                }
            }
            b.build().expect("non-empty")
        })
}

/// `g`'s `.gr` and `.co` halves.
fn write(g: &RoadNetwork) -> (Vec<u8>, Vec<u8>) {
    let (mut gr, mut co) = (Vec::new(), Vec::new());
    write_dimacs_gr(g, &mut gr).expect("write .gr");
    write_dimacs_co(g, &mut co).expect("write .co");
    (gr, co)
}

fn read((gr, co): &(Vec<u8>, Vec<u8>)) -> RoadNetwork {
    read_dimacs(&mut std::io::Cursor::new(gr), &mut std::io::Cursor::new(co)).expect("read back")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn undirected_round_trip_is_exact(g in arb_network(false)) {
        let h = read(&write(&g));
        prop_assert_eq!(g.num_nodes(), h.num_nodes());
        prop_assert_eq!(g.is_directed(), h.is_directed());
        prop_assert_eq!(g.edges(), h.edges());
        for n in g.nodes() {
            prop_assert_eq!(g.point(n), h.point(n));
        }
    }

    #[test]
    fn directed_round_trip_is_exact(g in arb_network(true)) {
        let h = read(&write(&g));
        prop_assert!(h.is_directed());
        prop_assert_eq!(g.edges(), h.edges());
        prop_assert_eq!(g.num_arcs(), h.num_arcs());
    }

    #[test]
    fn double_round_trip_is_stable(g in arb_network(false)) {
        // write(read(write(g))) == write(g): the format is canonical.
        let first = write(&g);
        let second = write(&read(&first));
        prop_assert_eq!(first, second);
    }
}
