//! Failure injection: how the pipeline reports misbehaviour — disconnected
//! maps, servers that drop or tamper with candidates, requests the map
//! cannot satisfy, and protection settings that are invalid.

use opaque::{
    ClientId, ClientRequest, DirectionsServer, FakeSelection, ObfuscationUnit, Obfuscator,
    OpaqueError, PathQuery, ProtectionSettings, filter_candidates,
};
use pathsearch::{Path, SharingPolicy};
use roadnet::generators::{GridConfig, grid_network};
use roadnet::{GraphBuilder, NodeId, Point};

fn map() -> roadnet::RoadNetwork {
    grid_network(&GridConfig { width: 12, height: 12, seed: 13, ..Default::default() })
        .expect("valid network")
}

fn request(s: u32, t: u32, f: u32) -> ClientRequest {
    ClientRequest::new(
        ClientId(0),
        PathQuery::new(NodeId(s), NodeId(t)),
        ProtectionSettings::new(f, f).expect(">= 1"),
    )
}

fn obfuscate_one(req: &ClientRequest) -> ObfuscationUnit {
    Obfuscator::new(map(), FakeSelection::default_ring(), 13)
        .obfuscate_independent(req)
        .expect("map large enough")
}

#[test]
fn disconnected_true_pair_is_a_missing_result_not_a_panic() {
    // Two-island map: query spans the islands.
    let mut b = GraphBuilder::new();
    for i in 0..6 {
        b.add_node(Point::new(i as f64, 0.0)).expect("finite");
    }
    b.add_edge(NodeId(0), NodeId(1), 1.0).expect("ok");
    b.add_edge(NodeId(1), NodeId(2), 1.0).expect("ok");
    b.add_edge(NodeId(3), NodeId(4), 1.0).expect("ok");
    b.add_edge(NodeId(4), NodeId(5), 1.0).expect("ok");
    let island_map = b.build().expect("non-empty");

    let ob = Obfuscator::new(island_map.clone(), FakeSelection::Uniform, 1);
    let req = request(0, 5, 2);
    let unit = ob.obfuscate_independent(&req).expect("fakes exist");
    let mut server = DirectionsServer::new(island_map, SharingPolicy::PerSource);
    let candidates = server.process(&unit.query);
    let err = filter_candidates(&unit, &candidates, None).expect_err("pair is disconnected");
    assert!(matches!(err, OpaqueError::MissingResult { source, destination }
        if source == NodeId(0) && destination == NodeId(5)));
}

#[test]
fn server_dropping_candidates_is_detected() {
    let unit = obfuscate_one(&request(0, 143, 3));
    let mut server = DirectionsServer::new(map(), SharingPolicy::PerSource);
    let mut candidates = server.process(&unit.query);
    // A lazy server returns nothing at all.
    for row in candidates.paths.iter_mut() {
        for cell in row.iter_mut() {
            *cell = None;
        }
    }
    let err = filter_candidates(&unit, &candidates, None).expect_err("all results dropped");
    assert!(matches!(err, OpaqueError::MissingResult { .. }));
}

#[test]
fn server_swapping_candidates_is_detected() {
    let unit = obfuscate_one(&request(0, 143, 3));
    let g = map();
    let mut server = DirectionsServer::new(g.clone(), SharingPolicy::PerSource);
    let mut candidates = server.process(&unit.query);
    let i = unit.query.source_index(NodeId(0)).expect("embedded");
    let j = unit.query.target_index(NodeId(143)).expect("embedded");
    // Swap the true answer with some other pair's answer.
    let other_j = (j + 1) % unit.query.targets().len();
    candidates.paths[i].swap(j, other_j);
    let err = filter_candidates(&unit, &candidates, Some(&g))
        .expect_err("swapped path has wrong endpoints");
    assert!(matches!(err, OpaqueError::CorruptResult { .. }));
}

#[test]
fn server_returning_detour_is_accepted_but_measurable() {
    // A detour (valid but non-shortest path) passes structural verification
    // — the obfuscator's map cannot tell congestion-aware routing from
    // malice — but its distance is still consistent, so clients can compare
    // against expectations.
    let g = map();
    let unit = obfuscate_one(&request(0, 143, 2));
    let mut server = DirectionsServer::new(g.clone(), SharingPolicy::PerSource);
    let mut candidates = server.process(&unit.query);
    let i = unit.query.source_index(NodeId(0)).expect("embedded");
    let j = unit.query.target_index(NodeId(143)).expect("embedded");

    // Build a genuine detour: shortest path 0 → x → 143 through a neighbour.
    let via = g.arcs(NodeId(0))[0].to;
    let leg1 = pathsearch::shortest_path(&g, NodeId(0), via).expect("connected");
    let leg2 = pathsearch::shortest_path(&g, via, NodeId(143)).expect("connected");
    let mut nodes = leg1.nodes().to_vec();
    nodes.extend_from_slice(&leg2.nodes()[1..]);
    // Deduplicate immediate backtracks if the detour reuses node 0.
    if nodes.windows(3).any(|w| w[0] == w[2]) {
        // Path verification only needs arc existence; backtracks are legal.
    }
    let detour = Path::new(nodes, leg1.distance() + leg2.distance());
    candidates.paths[i][j] = Some(detour.clone());

    let results =
        filter_candidates(&unit, &candidates, Some(&g)).expect("detour is structurally valid");
    assert!(
        results[0].path.distance()
            >= pathsearch::shortest_distance(&g, NodeId(0), NodeId(143)).expect("connected")
    );
}

#[test]
fn map_too_small_for_protection_level() {
    let tiny = grid_network(&GridConfig { width: 2, height: 2, ..Default::default() })
        .expect("valid network");
    let ob = Obfuscator::new(tiny, FakeSelection::Uniform, 1);
    let err = ob.obfuscate_independent(&request(0, 3, 10)).expect_err("4-node map, f=10");
    assert!(matches!(err, OpaqueError::NotEnoughFakes { .. }));
}

#[test]
fn endpoints_off_the_map_are_rejected() {
    let ob = Obfuscator::new(map(), FakeSelection::Uniform, 1);
    let err = ob.obfuscate_independent(&request(0, 9999, 2)).expect_err("node 9999 unknown");
    assert!(matches!(err, OpaqueError::UnknownNode { node } if node == NodeId(9999)));
}

#[test]
fn invalid_protection_settings_are_unrepresentable() {
    assert!(matches!(ProtectionSettings::new(0, 5), Err(OpaqueError::InvalidProtection { .. })));
    assert!(matches!(ProtectionSettings::new(3, 0), Err(OpaqueError::InvalidProtection { .. })));
}

#[test]
fn empty_batch_is_an_error_not_a_hang() {
    let mut ob = Obfuscator::new(map(), FakeSelection::Uniform, 1);
    for mode in [opaque::ObfuscationMode::Independent, opaque::ObfuscationMode::SharedGlobal] {
        let err = ob.obfuscate_batch(&[], mode).expect_err("empty batch");
        assert!(matches!(err, OpaqueError::EmptyBatch));
    }
}

#[test]
fn all_errors_render_useful_messages() {
    let errors: Vec<OpaqueError> = vec![
        OpaqueError::InvalidProtection { f_s: 0, f_t: 1 },
        OpaqueError::NotEnoughFakes { requested: 9, available: 3 },
        OpaqueError::UnknownNode { node: NodeId(7) },
        OpaqueError::MissingResult { source: NodeId(1), destination: NodeId(2) },
        OpaqueError::CorruptResult { source: NodeId(3), destination: NodeId(4) },
        OpaqueError::EmptyBatch,
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(msg.is_ascii(), "keep messages terminal-safe: {msg}");
    }
}
