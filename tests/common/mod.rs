//! Generators and the response oracle shared by the `*_equivalence.rs`
//! property tests. Each file `mod common;`s this and uses a subset.

#![allow(dead_code)]

use opaque::{ClientId, ClientRequest, PathQuery, ProtectionSettings, ServiceResponse};
use proptest::prelude::*;
use roadnet::{GraphBuilder, NodeId, Point, RoadNetwork};

/// Random connected road map: a random spanning tree plus extra random
/// edges (parallel roads allowed), weights ≥ Euclidean distance so the
/// landmark bounds have nontrivial pruning room.
pub fn arb_map(max_nodes: usize) -> impl Strategy<Value = RoadNetwork> {
    (4..max_nodes)
        .prop_flat_map(|n| {
            let coords = proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), n);
            let parents = proptest::collection::vec(proptest::num::u32::ANY, n - 1);
            let extra = proptest::collection::vec((0..n as u32, 0..n as u32, 1.0f64..3.0), 0..n);
            (coords, parents, extra)
        })
        .prop_map(|(coords, parents, extra)| {
            let mut b = GraphBuilder::new();
            for (x, y) in &coords {
                b.add_node(Point::new(*x, *y)).expect("finite coords");
            }
            let n = coords.len();
            let euclid = |a: usize, c: usize| {
                Point::new(coords[a].0, coords[a].1).distance(Point::new(coords[c].0, coords[c].1))
            };
            for (i, p) in parents.iter().enumerate() {
                let child = i + 1;
                let parent = (*p as usize) % child;
                let w = euclid(parent, child).max(f64::EPSILON) * 1.1;
                b.add_edge(NodeId::from_index(parent), NodeId::from_index(child), w)
                    .expect("valid tree edge");
            }
            for (a, c, factor) in extra {
                let (a, c) = (a as usize % n, c as usize % n);
                if a != c {
                    let w = euclid(a, c).max(f64::EPSILON) * factor;
                    b.add_edge(NodeId::from_index(a), NodeId::from_index(c), w)
                        .expect("valid extra edge");
                }
            }
            b.build().expect("non-empty graph")
        })
}

/// A batch of requests with unique client ids; endpoints and protection
/// demands are arbitrary (including infeasible ones — rejections must be
/// identical across every policy axis too).
pub fn arb_batch(max_requests: usize) -> impl Strategy<Value = Vec<(u32, u32, u32, u32)>> {
    proptest::collection::vec(
        (proptest::num::u32::ANY, proptest::num::u32::ANY, 1u32..5, 1u32..5),
        1..max_requests,
    )
}

pub fn requests_on(map: &RoadNetwork, raw: &[(u32, u32, u32, u32)]) -> Vec<ClientRequest> {
    let n = map.num_nodes() as u32;
    raw.iter()
        .enumerate()
        .map(|(i, &(s, t, f_s, f_t))| {
            ClientRequest::new(
                ClientId(i as u32),
                PathQuery::new(NodeId(s % n), NodeId(t % n)),
                ProtectionSettings::new(f_s, f_t).expect("nonzero by construction"),
            )
        })
        .collect()
}

/// What the clients see: per-client outcomes and the delivered paths, in
/// delivery order.
pub fn assert_same_deliveries(a: &ServiceResponse, b: &ServiceResponse, ctx: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{ctx}: per-client outcomes diverged");
    assert_eq!(a.results.len(), b.results.len(), "{ctx}: delivery count diverged");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.client, y.client, "{ctx}: delivery order diverged");
        assert_eq!(x.path, y.path, "{ctx}: delivered path diverged for {:?}", x.client);
    }
}

/// The equivalence oracle: every observable piece of a batch's output.
pub fn assert_identical(a: &ServiceResponse, b: &ServiceResponse, ctx: &str) {
    assert_same_deliveries(a, b, ctx);
    let a_json = serde_json::to_string(&a.report).expect("report serializes");
    let b_json = serde_json::to_string(&b.report).expect("report serializes");
    assert_eq!(a_json, b_json, "{ctx}: BatchReport not byte-identical");
}
