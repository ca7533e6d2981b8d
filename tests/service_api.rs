//! Integration tests for the service-layer gateway API: builder
//! validation, typed admission (`SubmitOutcome` under an
//! `AdmissionPolicy`), priority lanes, cancellation, deadline shedding,
//! the per-client event stream, and sharded-backend equivalence.

use opaque::{
    AdmissionPolicy, BatchPolicy, ClientId, ClientOutcome, ClientRequest, ClusteringConfig,
    DefaultBackend, DirectionsServer, FakeSelection, ObfuscationMode, OpaqueError, OpaqueService,
    PartitionPolicy, PathQuery, Priority, ProtectionSettings, RejectReason, ServiceBuilder,
    ServiceConfig, ServiceEvent, ShardedBackend, SubmitOutcome,
};
use pathsearch::SharingPolicy;
use roadnet::generators::{GridConfig, grid_network};
use roadnet::{EdgeId, NodeId, SpatialIndex};
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

fn map() -> roadnet::RoadNetwork {
    grid_network(&GridConfig { width: 18, height: 18, seed: 13, ..Default::default() })
        .expect("valid network")
}

fn workload(n: usize, seed: u64) -> Vec<ClientRequest> {
    let g = map();
    let idx = SpatialIndex::build(&g);
    generate_requests(
        &g,
        &idx,
        &WorkloadConfig {
            num_requests: n,
            queries: QueryDistribution::Uniform,
            protection: ProtectionDistribution::UniformRange { lo: 2, hi: 5 },
            seed,
        },
    )
}

fn request(i: u32) -> ClientRequest {
    ClientRequest::new(
        ClientId(i),
        PathQuery::new(NodeId(i * 5 % 324), NodeId(323 - i * 7 % 324)),
        ProtectionSettings::new(3, 3).unwrap(),
    )
}

#[test]
fn builder_validation_errors_are_typed_and_specific() {
    // No map.
    assert!(matches!(
        ServiceBuilder::new().build(),
        Err(OpaqueError::InvalidConfig { ref reason }) if reason.contains("map")
    ));
    // Zero shards.
    assert!(matches!(
        ServiceBuilder::new().map(map()).shards(0).build(),
        Err(OpaqueError::InvalidConfig { ref reason }) if reason.contains("shards")
    ));
    // Unsatisfiable batch policy.
    assert!(matches!(
        ServiceBuilder::new()
            .map(map())
            .batch_policy(BatchPolicy { max_batch: 0, max_delay: 1.0 })
            .build(),
        Err(OpaqueError::InvalidConfig { ref reason }) if reason.contains("max_batch")
    ));
    // Unsatisfiable admission policy.
    assert!(matches!(
        ServiceBuilder::new()
            .map(map())
            .admission_policy(AdmissionPolicy { queue_depth: 0, deadline: None })
            .build(),
        Err(OpaqueError::InvalidConfig { ref reason }) if reason.contains("queue_depth")
    ));
    // Weight/map mismatch.
    assert!(matches!(
        ServiceBuilder::new().map(map()).weights(vec![0.5; 7]).build(),
        Err(OpaqueError::InvalidConfig { ref reason }) if reason.contains("weights")
    ));
    // A valid config builds, and from_config round-trips the knobs.
    let config = ServiceConfig { shards: 2, seed: 9, ..Default::default() };
    let svc = ServiceBuilder::from_config(config).map(map()).build().expect("valid");
    assert_eq!(svc.backend().num_shards(), 2);
}

#[test]
fn batcher_flushes_on_size_then_deadline() {
    let mut svc = ServiceBuilder::new()
        .map(map())
        .batch_policy(BatchPolicy { max_batch: 3, max_delay: 4.0 })
        .obfuscation_mode(ObfuscationMode::SharedGlobal)
        .build()
        .expect("valid");

    // Size trigger: the third submission makes the batch eligible.
    svc.submit(request(0), 0.0).ticket().unwrap();
    svc.submit(request(1), 0.5).ticket().unwrap();
    assert!(svc.tick(1.0).unwrap().is_empty(), "2 < max_batch and deadline not reached");
    svc.submit(request(2), 1.0).ticket().unwrap();
    let events = svc.tick(1.0).unwrap();
    assert_eq!(events.len(), 4, "three deliveries + the report: {events:?}");
    assert!(
        events[..3].iter().all(|e| matches!(e, ServiceEvent::ResponseReady { .. })),
        "{events:?}"
    );
    assert!(matches!(events[3], ServiceEvent::BatchFlushed(_)));
    assert_eq!(svc.pending(), 0);

    // Deadline trigger: one request, flushed only after max_delay.
    svc.submit(request(3), 10.0).ticket().unwrap();
    assert!(svc.tick(13.9).unwrap().is_empty(), "3.9s < 4s deadline");
    let events = svc.tick(14.0).unwrap();
    assert_eq!(events.len(), 2, "{events:?}");

    // A duplicate client within one pending window defers; a forced
    // flush drains the partial batch and the deferral needs one more.
    svc.submit(request(4), 20.0).ticket().unwrap();
    assert!(matches!(svc.submit(request(4), 20.1), SubmitOutcome::Deferred(_)));
    let events = svc.flush(21.0).unwrap();
    assert_eq!(events.len(), 2, "first window: one delivery + report: {events:?}");
    let events = svc.flush(22.0).unwrap();
    assert_eq!(events.len(), 2, "deferred window: one delivery + report: {events:?}");
    assert_eq!(svc.pending(), 0);
}

#[test]
fn duplicate_submissions_defer_instead_of_erroring() {
    // Regression pin for the gateway redesign: the submit path can no
    // longer fail with OpaqueError::DuplicateClient — both requests from
    // one client are served, one window apart, with distinct tickets and
    // both answered by name.
    let mut svc = ServiceBuilder::new().map(map()).verify_results(true).build().expect("valid");
    let first = ClientRequest::new(
        ClientId(9),
        PathQuery::new(NodeId(0), NodeId(323)),
        ProtectionSettings::new(2, 2).unwrap(),
    );
    let second = ClientRequest::new(
        ClientId(9),
        PathQuery::new(NodeId(17), NodeId(300)),
        ProtectionSettings::new(2, 2).unwrap(),
    );
    let t0 = match svc.submit(first, 0.0) {
        SubmitOutcome::Accepted(t) => t,
        other => panic!("fresh client must be accepted, got {other:?}"),
    };
    let t1 = match svc.submit(second, 0.1) {
        SubmitOutcome::Deferred(t) => t,
        other => panic!("duplicate client must defer, got {other:?}"),
    };
    assert_ne!(t0, t1);

    let mut delivered = Vec::new();
    let mut guard = 0;
    while svc.pending() > 0 {
        for event in svc.flush(1.0 + guard as f64).unwrap() {
            if let ServiceEvent::ResponseReady { ticket, result, .. } = event {
                delivered.push((ticket, result.path.source(), result.path.destination()));
            }
        }
        guard += 1;
        assert!(guard < 5, "deferred requests must drain in bounded windows");
    }
    assert_eq!(
        delivered,
        vec![(t0, NodeId(0), NodeId(323)), (t1, NodeId(17), NodeId(300))],
        "each submission is answered with its own query's path"
    );
}

#[test]
fn queue_depth_refuses_submissions_with_backpressure() {
    let mut svc = ServiceBuilder::new()
        .map(map())
        .batch_policy(BatchPolicy { max_batch: 100, max_delay: 100.0 })
        .admission_policy(AdmissionPolicy { queue_depth: 3, deadline: None })
        .build()
        .expect("valid");
    for i in 0..3 {
        assert!(svc.submit(request(i), 0.0).is_accepted());
    }
    match svc.submit(request(3), 0.1) {
        SubmitOutcome::Rejected(RejectReason::QueueFull { depth: 3 }) => {}
        other => panic!("expected backpressure, got {other:?}"),
    }
    // Refused submissions get no ticket and no event; draining frees
    // capacity again.
    let events = svc.flush(1.0).unwrap();
    assert_eq!(events.len(), 4, "three queued deliveries + report: {events:?}");
    assert!(svc.submit(request(3), 2.0).is_accepted());
}

#[test]
fn interactive_lane_has_priority_over_bulk() {
    let mut svc = ServiceBuilder::new()
        .map(map())
        .batch_policy(BatchPolicy { max_batch: 2, max_delay: 100.0 })
        .build()
        .expect("valid");
    let bulk0 = svc.submit_with_priority(request(0), Priority::Bulk, 0.0).ticket().unwrap();
    let _bulk1 = svc.submit_with_priority(request(1), Priority::Bulk, 0.1).ticket().unwrap();
    let inter = svc.submit_with_priority(request(2), Priority::Interactive, 0.2).ticket().unwrap();
    // Size trigger at 2: the interactive request jumps the older bulk
    // queue; only one bulk rides along.
    let events = svc.tick(0.2).unwrap();
    let tickets: Vec<_> = events.iter().filter_map(ServiceEvent::ticket).collect();
    assert_eq!(tickets, vec![inter, bulk0], "interactive drains first: {events:?}");
}

#[test]
fn cancelled_tickets_never_reach_a_batch() {
    let mut svc = ServiceBuilder::new().map(map()).build().expect("valid");
    let keep = svc.submit(request(0), 0.0).ticket().unwrap();
    let gone = svc.submit(request(1), 0.1).ticket().unwrap();
    assert!(svc.cancel(gone));
    let events = svc.flush(1.0).unwrap();
    // Acknowledgement first, then the survivor's delivery + report.
    assert_eq!(events[0], ServiceEvent::Cancelled { ticket: gone, client: ClientId(1) });
    assert_eq!(events[1].ticket(), Some(keep));
    match events.last().unwrap() {
        ServiceEvent::BatchFlushed(report) => assert_eq!(report.num_requests, 1),
        other => panic!("expected report, got {other:?}"),
    }
    // Cancelling after the drain fails: the request is gone (§IV —
    // satisfied requests are discarded immediately).
    assert!(!svc.cancel(keep));
    assert!(!svc.cancel(gone));
}

#[test]
fn deadline_expiry_sheds_requests_under_backlog() {
    // max_batch 1 forces a backlog: the second request waits a full
    // extra window and crosses its 3s admission deadline.
    let mut svc = ServiceBuilder::new()
        .map(map())
        .batch_policy(BatchPolicy { max_batch: 1, max_delay: 100.0 })
        .admission_policy(AdmissionPolicy { queue_depth: 10, deadline: Some(3.0) })
        .build()
        .expect("valid");
    let t0 = svc.submit(request(0), 0.0).ticket().unwrap();
    let t1 = svc.submit(request(1), 0.0).ticket().unwrap();
    let events = svc.tick(1.0).unwrap();
    assert_eq!(
        events.iter().filter_map(ServiceEvent::ticket).collect::<Vec<_>>(),
        vec![t0],
        "size cap drains one: {events:?}"
    );
    // By t=10 the straggler is overdue: shed, not served.
    let events = svc.tick(10.0).unwrap();
    match &events[0] {
        ServiceEvent::Rejected { ticket, reason: RejectReason::DeadlineExpired { .. }, .. } => {
            assert_eq!(*ticket, t1);
        }
        other => panic!("expected shedding, got {other:?}"),
    }
    assert_eq!(svc.pending(), 0);
}

#[test]
fn sharded_backend_matches_single_server_results() {
    let requests = workload(24, 0x5AAD);

    let run = |shards: usize| {
        let mut svc = ServiceBuilder::new()
            .map(map())
            .seed(77)
            .shards(shards)
            .verify_results(true)
            .obfuscation_mode(ObfuscationMode::SharedClustered(ClusteringConfig::default()))
            .build()
            .expect("valid");
        svc.process_batch(&requests).expect("pipeline succeeds")
    };

    let single = run(1);
    let sharded = run(4);

    // Same obfuscation seed, same map on every shard: identical delivery.
    assert_eq!(single.results.len(), sharded.results.len());
    for (a, b) in single.results.iter().zip(&sharded.results) {
        assert_eq!(a.client, b.client);
        assert_eq!(a.path.nodes(), b.path.nodes());
        assert!((a.path.distance() - b.path.distance()).abs() < 1e-12);
    }
    assert_eq!(single.report.per_client_breach, sharded.report.per_client_breach);
    assert_eq!(single.report.total_pairs, sharded.report.total_pairs);
    // Fleet-wide counters agree with the single server's.
    assert_eq!(
        single.report.server_settled, sharded.report.server_settled,
        "aggregated shard stats must match the single-server load"
    );
}

#[test]
fn sharded_backend_balances_round_robin() {
    let g = map();
    let servers: Vec<DirectionsServer<roadnet::RoadNetwork>> =
        (0..3).map(|_| DirectionsServer::new(g.clone(), SharingPolicy::PerSource)).collect();
    let backend = ShardedBackend::new(servers).unwrap();
    let mut svc = ServiceBuilder::new().map(g).seed(3).build_with_backend(backend).expect("valid");

    let requests = workload(12, 0xBA1A);
    svc.process_batch(&requests).expect("pipeline succeeds");
    let load = svc.backend().load_per_shard();
    assert_eq!(load.len(), 3);
    // 12 independent units over 3 shards: every shard saw work.
    assert!(load.iter().all(|&pairs| pairs > 0), "round robin must touch every shard: {load:?}");
}

#[test]
fn event_stream_matches_the_direct_batch_view() {
    // The gateway's event stream and the legacy process_batch view must
    // describe the same bytes for the same requests (the deterministic
    // pin; tests/gateway_equivalence.rs proves it property-based).
    let requests = workload(10, 0xC0_FFEE);
    let build = || {
        ServiceBuilder::new()
            .map(map())
            .seed(4242)
            .verify_results(true)
            .obfuscation_mode(ObfuscationMode::SharedGlobal)
            .build()
            .expect("valid")
    };

    let mut direct = build();
    let response = direct.process_batch(&requests).expect("pipeline");

    let mut gateway = build();
    for r in &requests {
        gateway.submit(*r, 0.0).ticket().unwrap();
    }
    let events = gateway.flush(0.5).unwrap();
    assert_eq!(events.len(), requests.len() + 1);

    let mut deliveries = 0usize;
    for (event, (client, outcome)) in events.iter().zip(&response.outcomes) {
        match (event, outcome) {
            (ServiceEvent::ResponseReady { client: c, result, .. }, ClientOutcome::Delivered) => {
                assert_eq!(c, client);
                let direct_path = &response.results.iter().find(|r| r.client == *c).unwrap().path;
                assert_eq!(
                    serde_json::to_string(&result.path).unwrap(),
                    serde_json::to_string(direct_path).unwrap(),
                    "hop-4 payload must be byte-identical to the batch view"
                );
                deliveries += 1;
            }
            (ServiceEvent::Unreachable { client: c, .. }, ClientOutcome::Unreachable) => {
                assert_eq!(c, client);
            }
            (
                ServiceEvent::Rejected {
                    client: c,
                    reason: RejectReason::Infeasible { reason },
                    ..
                },
                ClientOutcome::Rejected { reason: direct_reason },
            ) => {
                assert_eq!(c, client);
                assert_eq!(reason, direct_reason);
            }
            (event, outcome) => panic!("event/outcome mismatch: {event:?} vs {outcome:?}"),
        }
    }
    assert_eq!(deliveries, response.results.len());
    match events.last().unwrap() {
        ServiceEvent::BatchFlushed(report) => {
            assert_eq!(
                serde_json::to_string(report).unwrap(),
                serde_json::to_string(&response.report).unwrap(),
                "the trailing report is the same determinism oracle"
            );
        }
        other => panic!("expected trailing report, got {other:?}"),
    }
}

#[test]
fn service_reports_unreachable_instead_of_failing_the_batch() {
    // A two-component map: node 0 and node 1 are connected; an isolated
    // pair far away is not reachable from them.
    let mut b = roadnet::GraphBuilder::new();
    for i in 0..4 {
        b.add_node(roadnet::Point::new(i as f64, 0.0)).unwrap();
    }
    b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
    let g = b.build().unwrap();

    let mut svc = ServiceBuilder::new()
        .map(g.clone())
        .fake_selection(FakeSelection::Uniform)
        .build()
        .expect("valid");
    let reachable = ClientRequest::new(
        ClientId(0),
        PathQuery::new(NodeId(0), NodeId(1)),
        ProtectionSettings::new(1, 1).unwrap(),
    );
    let unreachable = ClientRequest::new(
        ClientId(1),
        PathQuery::new(NodeId(0), NodeId(3)),
        ProtectionSettings::new(1, 1).unwrap(),
    );
    let resp = svc.process_batch(&[reachable, unreachable]).expect("lenient service mode");
    assert_eq!(resp.results.len(), 1);
    assert_eq!(resp.outcomes[0], (ClientId(0), ClientOutcome::Delivered));
    assert_eq!(resp.outcomes[1], (ClientId(1), ClientOutcome::Unreachable));

    // The same pair through the gateway: an explicit Unreachable event.
    let mut svc =
        ServiceBuilder::new().map(g).fake_selection(FakeSelection::Uniform).build().expect("valid");
    let t0 = svc.submit(reachable, 0.0).ticket().unwrap();
    let t1 = svc.submit(unreachable, 0.0).ticket().unwrap();
    let events = svc.flush(0.0).unwrap();
    assert!(matches!(&events[0], ServiceEvent::ResponseReady { ticket, .. } if *ticket == t0));
    assert!(matches!(&events[1], ServiceEvent::Unreachable { ticket, .. } if *ticket == t1));
}

#[test]
fn service_mode_is_used_unless_overridden() {
    let requests = workload(6, 7);
    let mut svc = ServiceBuilder::new()
        .map(map())
        .obfuscation_mode(ObfuscationMode::SharedGlobal)
        .build()
        .expect("valid");
    let resp = svc.process_batch(&requests).expect("ok");
    assert_eq!(resp.report.mode, ObfuscationMode::SharedGlobal);
    assert_eq!(resp.report.num_units, 1);

    // The mode is fixed at build: overriding it means building again.
    let mut svc = ServiceBuilder::new()
        .map(map())
        .obfuscation_mode(ObfuscationMode::Independent)
        .build()
        .expect("valid");
    let resp = svc.process_batch(&requests).expect("ok");
    assert_eq!(resp.report.mode, ObfuscationMode::Independent);
    assert_eq!(resp.report.num_units, requests.len());
}

#[test]
fn a_weight_update_rewrites_the_one_map_in_place() {
    let reqs: Vec<ClientRequest> = (0..4).map(request).collect();
    let mut svc = ServiceBuilder::new().map(map()).shards(3).verify_results(true).build().unwrap();
    let served = |svc: &OpaqueService<DefaultBackend>| {
        let map = svc.obfuscator().map();
        for (i, shard) in svc.backend().shards().iter().enumerate() {
            assert!(std::ptr::eq(map, &**shard.graph()), "shard {i} left the service's map");
        }
        map as *const roadnet::RoadNetwork
    };
    let at_build = served(&svc);
    let old = svc.obfuscator().map().edge(EdgeId(0)).weight;

    // No snapshot outside the service: the map is written where it lies.
    assert_eq!(svc.update_weights(&[(EdgeId(0), old + 7.0)]).unwrap(), vec![EdgeId(0)]);
    assert!(std::ptr::eq(at_build, served(&svc)), "the update copied the map");
    assert_eq!(svc.obfuscator().map().edge(EdgeId(0)).weight, old + 7.0);
    // A rejected update leaves the map where and as it was.
    assert!(svc.update_weights(&[(EdgeId(0), f64::NAN)]).is_err());
    assert!(std::ptr::eq(at_build, served(&svc)));
    assert_eq!(svc.obfuscator().map().edge(EdgeId(0)).weight, old + 7.0);

    // A snapshot taken before an update keeps its weights; the service
    // serves the new ones from one fresh map.
    let snapshot = std::sync::Arc::clone(svc.backend().shards()[0].graph());
    svc.update_weights(&[(EdgeId(0), old + 9.0)]).unwrap();
    assert_eq!(snapshot.edge(EdgeId(0)).weight, old + 7.0);
    assert!(!std::ptr::eq(&*snapshot, served(&svc)));
    for shard in svc.backend().shards() {
        assert_eq!(shard.graph().edge(EdgeId(0)).weight, old + 9.0);
    }
    assert_eq!(svc.obfuscator().map().edge(EdgeId(0)).weight, old + 9.0);
    let resp = svc.process_batch(&reqs).unwrap();
    assert!(resp.outcomes.iter().all(|(_, o)| *o == ClientOutcome::Delivered), "{resp:?}");
}

#[test]
fn a_built_service_holds_one_map_shared_by_obfuscator_and_fleet() {
    // Every shard of a built fleet and the obfuscator read one snapshot:
    // after build, after a weight update, and after a map swap.
    fn assert_one_map(svc: &OpaqueService<DefaultBackend>, when: &str) {
        let obfuscator_map = svc.obfuscator().map();
        for (i, shard) in svc.backend().shards().iter().enumerate() {
            assert!(std::ptr::eq(obfuscator_map, &**shard.graph()), "{when}: shard {i}");
        }
    }
    let reqs: Vec<ClientRequest> = (0..4).map(request).collect();
    let mut svc = ServiceBuilder::new()
        .map(map())
        .shards(3)
        .partition_policy(PartitionPolicy::RegionOwned { halo: 1 })
        .verify_results(true)
        .build()
        .unwrap();
    assert_one_map(&svc, "after build");

    assert_eq!(svc.update_weights(&[(EdgeId(0), 50.0)]).unwrap(), vec![EdgeId(0)]);
    assert_one_map(&svc, "after update_weights");
    assert_eq!(svc.obfuscator().map().edge(EdgeId(0)).weight, 50.0);
    let resp = svc.process_batch(&reqs).unwrap();
    assert!(resp.outcomes.iter().all(|(_, o)| *o == ClientOutcome::Delivered), "{resp:?}");

    svc.swap_map(map());
    assert_one_map(&svc, "after swap_map");
    assert_ne!(svc.obfuscator().map().edge(EdgeId(0)).weight, 50.0);
    let resp = svc.process_batch(&reqs).unwrap();
    assert!(resp.outcomes.iter().all(|(_, o)| *o == ClientOutcome::Delivered), "{resp:?}");

    // A custom backend may serve another view of the map: the obfuscator
    // keeps the builder's map and verifies answers against it. A server
    // on doubled weights returns paths whose costs that map refutes.
    let mut doubled = map();
    let updates: Vec<(EdgeId, f64)> = doubled
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| (EdgeId(i as u32), 2.0 * e.weight))
        .collect();
    doubled.update_weights(&updates).unwrap();
    let custom = |server: DirectionsServer<roadnet::RoadNetwork>| {
        ServiceBuilder::new().map(map()).verify_results(true).build_with_backend(server).unwrap()
    };
    let mut honest = custom(DirectionsServer::new(map(), SharingPolicy::PerSource));
    assert!(!std::ptr::eq(honest.obfuscator().map(), honest.backend().graph()));
    let resp = honest.process_batch(&reqs).unwrap();
    assert!(resp.outcomes.iter().all(|(_, o)| *o == ClientOutcome::Delivered), "{resp:?}");
    let mut other_view = custom(DirectionsServer::new(doubled, SharingPolicy::PerSource));
    assert!(matches!(other_view.process_batch(&reqs), Err(OpaqueError::CorruptResult { .. })));
}
