//! Generators, the one service builder, the Bellman–Ford reference and the
//! output oracle shared by the integration tests. Each file `mod common;`s
//! this and uses a subset.

#![allow(dead_code)]

use opaque::{
    BatchReport, ClientId, ClientRequest, DefaultBackend, DirectionsBackend, HopTraffic,
    OpaqueError, OpaqueService, PathQuery, ProtectionSettings, ServerStats, ServiceBuilder,
    ServiceConfig, ServiceEvent, ServiceResponse,
};
use pathsearch::SharingPolicy;
use proptest::prelude::*;
use roadnet::{EdgeId, GraphBuilder, NodeId, Point, RoadNetwork};
use std::ops::Range;

/// The service every test here drives.
pub type Service = OpaqueService<DefaultBackend>;

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

/// Weights drawn from a small set with repeats (ties), zero among them on
/// maps whose flag allows it.
pub fn tie_weight(zeros: bool) -> BoxedStrategy<f64> {
    if zeros {
        prop_oneof![Just(0.0), Just(1.0), Just(2.5), 0.0f64..10.0].boxed()
    } else {
        prop_oneof![Just(1.0), Just(2.5), 0.001f64..10.0].boxed()
    }
}

/// `rounds` rounds of `updates` raw `(edge pick, weight)` updates each;
/// repeats and no-op rewrites are legal traffic. [`updates_on`] reads
/// them on a map.
pub fn arb_churn(
    weight: BoxedStrategy<f64>,
    rounds: Range<usize>,
    updates: Range<usize>,
) -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((proptest::num::usize::ANY, weight), updates),
        rounds,
    )
}

/// A tie map — 2–199 nodes, any edge list (parallel edges allowed,
/// islands likely), weights from [`tie_weight`] — and its churn, drawn by
/// [`arb_churn`] from the same weights.
pub fn arb_tie_map(
    rounds: Range<usize>,
    updates: Range<usize>,
) -> impl Strategy<Value = (RoadNetwork, Vec<Vec<(usize, f64)>>)> {
    (2..200usize, 0..2u8).prop_flat_map(move |(n, zeros)| {
        let zeros = zeros == 1;
        let coords = proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), n);
        let edges = proptest::collection::vec((0..n, 0..n, tie_weight(zeros)), 1..3 * n);
        let map = (coords, edges).prop_map(|(coords, edges)| {
            let mut b = GraphBuilder::new();
            for (x, y) in coords {
                b.add_node(Point::new(x, y)).expect("finite coords");
            }
            // `GraphBuilder` refuses self-loops; any other pair may repeat.
            for (a, c, w) in edges.into_iter().filter(|&(a, c, _)| a != c) {
                b.add_edge(NodeId::from_index(a), NodeId::from_index(c), w).expect("valid edge");
            }
            b.build().expect("non-empty graph")
        });
        (map, arb_churn(tie_weight(zeros), rounds.clone(), updates.clone()))
    })
}

/// A churn round's raw updates on `map`: edge picks modulo the edge count.
pub fn updates_on(map: &RoadNetwork, raw: &[(usize, f64)]) -> Vec<(EdgeId, f64)> {
    let m = map.num_edges();
    raw.iter()
        .filter_map(|&(pick, w)| Some((EdgeId::from_index(pick.checked_rem(m)?), w)))
        .collect()
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

/// `config` on `map`, with every delivered path re-verified against the
/// map.
pub fn build_service(map: &RoadNetwork, config: ServiceConfig) -> Service {
    ServiceBuilder::from_config(ServiceConfig { verify_results: true, ..config })
        .map(map.clone())
        .build()
        .expect("valid configuration")
}

/// Distances from `source` over the map's current weights by Bellman–Ford:
/// relax every arc until no label falls (`∞` where unreached). It shares
/// no code with `pathsearch`, so it is an oracle, not a mirror.
pub fn bellman_ford(map: &RoadNetwork, source: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; map.num_nodes()];
    dist[source.index()] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for u in map.nodes() {
            let du = dist[u.index()];
            for arc in map.arcs(u) {
                if du + arc.weight < dist[arc.to.index()] {
                    dist[arc.to.index()] = du + arc.weight;
                    changed = true;
                }
            }
        }
    }
    dist
}

/// `request` was answered at Bellman–Ford's cost on `map`, bit for bit
/// (`delivered`), or reported `Unreachable` (`None`) for a pair
/// Bellman–Ford cannot reach.
pub fn assert_bellman_ford(
    map: &RoadNetwork,
    request: &ClientRequest,
    delivered: Option<f64>,
    sharing: SharingPolicy,
    ctx: &str,
) {
    let (s, t) = (request.query.source, request.query.destination);
    let from_s = bellman_ford(map, s)[t.index()];
    let Some(cost) = delivered else {
        assert_eq!(from_s, f64::INFINITY, "{ctx}: {s:?} -> {t:?} reported unreachable");
        return;
    };
    // A transposed unit sums its path from the target.
    let transposed = sharing == SharingPolicy::Auto
        && cost.to_bits() == bellman_ford(map, t)[s.index()].to_bits();
    assert!(
        cost.to_bits() == from_s.to_bits() || transposed,
        "{ctx}: {s:?} -> {t:?} delivered at {cost} against Bellman–Ford's {from_s}"
    );
}

/// Runs `requests` through a service built from each of `a` and `b` on
/// `map`, `rounds` batches in a row, holding every round's response and
/// then the fleet counters to `mask`. Returns both services.
pub fn assert_rounds_agree(
    map: &RoadNetwork,
    requests: &[ClientRequest],
    (a, b): (ServiceConfig, ServiceConfig),
    rounds: usize,
    mask: Mask,
    ctx: &str,
) -> (Service, Service) {
    let (mut x, mut y) = (build_service(map, a), build_service(map, b));
    for round in 0..rounds {
        let (p, q) = (x.process_batch(requests), y.process_batch(requests));
        assert_same_output(&p, &q, mask, &format!("{ctx} round={round}"));
    }
    let (p, q) = (x.backend().stats(), y.backend().stats());
    assert_same_output(&p, &q, mask, &format!("{ctx} fleet counters"));
    (x, y)
}

/// What two runs must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mask {
    /// Every byte a client or an operator reads.
    Exact,
    /// All but the search work, which a guided fleet prunes:
    /// `server_settled`/`server_relaxed` in reports, `search.settled` and
    /// `search.relaxed` in fleet counters.
    Work,
    /// Outcomes and delivered cost bits: where equal-cost paths tie, a
    /// guided sweep may deliver another of them, so the path bytes go too
    /// (nodes, path-node counts, candidate and result traffic).
    Costs,
}

/// Output a [`Mask`] reads: a batch's response, a gateway event stream,
/// fleet counters, or the error that stood in for one.
pub trait Output {
    /// What of `self` is left under `mask`, printed.
    fn masked(&self, mask: Mask) -> String;
}

/// `a` and `b` agree on everything `mask` keeps.
pub fn assert_same_output<T: Output + ?Sized>(a: &T, b: &T, mask: Mask, ctx: &str) {
    let (a, b) = (a.masked(mask), b.masked(mask));
    assert!(a == b, "{ctx}: output diverged under {mask:?}\n left: {a}\nright: {b}");
}

fn masked_report(report: &BatchReport, mask: Mask) -> String {
    let mut r = report.clone();
    if mask != Mask::Exact {
        r.server_settled = 0;
        r.server_relaxed = 0;
    }
    if mask == Mask::Costs {
        r.candidate_path_nodes = 0;
        r.delivered_path_nodes = 0;
        r.traffic = HopTraffic { candidates_bytes: 0, results_bytes: 0, ..r.traffic };
    }
    serde_json::to_string(&r).expect("report serializes")
}

impl Output for ServiceResponse {
    fn masked(&self, mask: Mask) -> String {
        let deliveries: Vec<_> = self
            .results
            .iter()
            .map(|r| {
                let nodes = (mask != Mask::Costs).then(|| r.path.nodes());
                (r.client, nodes, r.path.distance().to_bits())
            })
            .collect();
        format!("{:?} {deliveries:?} {}", self.outcomes, masked_report(&self.report, mask))
    }
}

impl Output for Vec<ServiceEvent> {
    fn masked(&self, mask: Mask) -> String {
        let events: Vec<String> = self
            .iter()
            .map(|event| match event {
                ServiceEvent::BatchFlushed(report) => masked_report(report, mask),
                ServiceEvent::ResponseReady { ticket, client, result, waited }
                    if mask == Mask::Costs =>
                {
                    let cost = result.path.distance().to_bits();
                    format!("{ticket:?} {client:?} cost {cost} waited {waited}")
                }
                event => serde_json::to_string(event).expect("events serialize"),
            })
            .collect();
        events.join("\n")
    }
}

/// Fleet counters. The physical cache hit/miss pair is always masked: it
/// is the one thing a cache may change, and no report carries it.
impl Output for ServerStats {
    fn masked(&self, mask: Mask) -> String {
        let mut s = *self;
        s.tree_cache_hits = 0;
        s.tree_cache_misses = 0;
        if mask != Mask::Exact {
            s.search.settled = 0;
            s.search.relaxed = 0;
        }
        format!("{s:?}")
    }
}

impl<T: Output> Output for Result<T, OpaqueError> {
    fn masked(&self, mask: Mask) -> String {
        match self {
            Ok(output) => output.masked(mask),
            Err(e) => format!("error: {e:?}"),
        }
    }
}
