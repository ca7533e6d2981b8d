//! The JSON format has one definition — `serde_json`'s writer — and three
//! readers of it: the bytes a message streams into a buffer, the bytes of
//! printing the tree `to_value()` builds, and the count `wire_size` takes
//! without producing either. For arbitrary messages of every kind that
//! crosses a hop or a socket:
//!
//! 1. streamed bytes == the bytes of the printed tree (compact and pretty);
//! 2. `wire_size(m) == to_vec(m).len()`;
//! 3. each by-reference `HopTraffic::record_*` counts exactly its owned
//!    message (the borrowed views themselves are private to
//!    `opaque::protocol`, whose unit tests pin their bytes);
//! 4. `decode_message(encode_message(m)) == m` wherever every float is
//!    finite (JSON has no NaN or infinity: they print as `null`).
//!
//! Integers stay within 2^53, the range the stand-in's `f64` number model
//! round-trips exactly (see `vendor/serde`).

use opaque::{
    BatchReport, CandidateResultsMsg, ClientId, ClusteringConfig, HopTraffic, ObfuscatedPathQuery,
    ObfuscatedQueryMsg, ObfuscationMode, PathQuery, Priority, ProtectionSettings, RejectReason,
    RequestMsg, ResultMsg, Ticket, wire_size,
};
use opaque_net::wire::{decode_message, encode_message};
use opaque_net::{WireReply, WireRequest};
use pathsearch::Path;
use proptest::prelude::*;
use roadnet::NodeId;
use serde::{Deserialize, Serialize};

/// Checks 1, 2 and — when `finite` — 4 for one message.
fn check<M: Serialize + Deserialize + PartialEq + std::fmt::Debug>(m: &M, finite: bool) {
    let bytes = encode_message(m).unwrap();
    assert_eq!(bytes, serde_json::to_vec(&m.to_value()).unwrap(), "{m:?}");
    assert_eq!(
        serde_json::to_string_pretty(m).unwrap(),
        serde_json::to_string_pretty(&m.to_value()).unwrap(),
        "{m:?}"
    );
    assert_eq!(wire_size(m), bytes.len(), "{m:?}");
    if finite {
        assert_eq!(&decode_message::<M>(&bytes).unwrap(), m);
    }
}

/// Numbers that exercise every branch of the writer's number printing.
fn finite_f64() -> impl Strategy<Value = f64> {
    // 9.0e15 is where whole numbers stop printing as integers.
    let edge = 9.0e15f64;
    prop_oneof![
        Just(-0.0),
        Just(1e300),
        Just(5e-324),
        Just(edge),
        Just(f64::from_bits(edge.to_bits() - 1)),
        Just(f64::from_bits(edge.to_bits() + 1)),
        (0u32..1_000_000).prop_map(f64::from),
        -1.0e6f64..1.0e6,
        0.0f64..1.0,
    ]
}

fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        finite_f64(),
        finite_f64(),
        finite_f64(),
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ]
}

/// Strings of quotes, backslashes, control and multi-byte characters.
fn awkward_string() -> impl Strategy<Value = String> {
    const PIECES: [&str; 16] = [
        "a", "Z9", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "日本",
        "😀", "/", "\\u0041",
    ];
    proptest::collection::vec(0..PIECES.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

fn id() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000, 0u64..=(1 << 53), Just(1u64 << 53)]
}

fn node() -> impl Strategy<Value = NodeId> {
    proptest::num::u32::ANY.prop_map(NodeId)
}

fn client() -> impl Strategy<Value = ClientId> {
    proptest::num::u32::ANY.prop_map(ClientId)
}

/// One-node paths included; distances are what `Path::new` accepts.
fn path() -> impl Strategy<Value = Path> {
    let distance = prop_oneof![Just(0.0), Just(1e300), Just(5e-324), 0.0f64..1.0e6];
    (proptest::collection::vec(node(), 1..6), distance).prop_map(|(nodes, d)| Path::new(nodes, d))
}

fn request() -> impl Strategy<Value = RequestMsg> {
    (client(), node(), node(), 1u32..=u32::MAX, 1u32..=u32::MAX).prop_map(
        |(client, s, t, f_s, f_t)| RequestMsg {
            client,
            query: PathQuery::new(s, t),
            protection: ProtectionSettings::new(f_s, f_t).expect("nonzero by construction"),
        },
    )
}

fn obfuscated_query() -> impl Strategy<Value = ObfuscatedPathQuery> {
    (proptest::collection::vec(node(), 1..6), proptest::collection::vec(node(), 1..6))
        .prop_map(|(sources, targets)| ObfuscatedPathQuery::new(sources, targets))
}

/// Rows with `None`, empty rows, no rows at all.
fn candidate_rows() -> impl Strategy<Value = Vec<Vec<Option<Path>>>> {
    let cell = prop_oneof![Just(None), path().prop_map(Some)];
    proptest::collection::vec(proptest::collection::vec(cell, 0..4), 0..4)
}

fn reject_reason() -> impl Strategy<Value = (RejectReason, bool)> {
    prop_oneof![
        (0usize..1 << 20).prop_map(|depth| (RejectReason::QueueFull { depth }, true)),
        (proptest::num::u32::ANY, proptest::num::u32::ANY)
            .prop_map(|(f_s, f_t)| (RejectReason::InvalidProtection { f_s, f_t }, true)),
        any_f64().prop_map(|w| (RejectReason::DeadlineExpired { waited: w }, w.is_finite())),
        awkward_string().prop_map(|reason| (RejectReason::Infeasible { reason }, true)),
    ]
}

/// Every [`WireReply`] variant, with whether all its floats are finite.
fn reply() -> impl Strategy<Value = (WireReply, bool)> {
    let ticket = || id().prop_map(Ticket);
    prop_oneof![
        (ticket(), client(), path(), any_f64()).prop_map(|(ticket, client, path, waited)| {
            let result = ResultMsg { client, path };
            (WireReply::Result { ticket, result, waited }, waited.is_finite())
        }),
        (ticket(), client(), any_f64()).prop_map(|(ticket, client, waited)| {
            (WireReply::Unreachable { ticket, client, waited }, waited.is_finite())
        }),
        (prop_oneof![Just(None), ticket().prop_map(Some)], client(), reject_reason(), any_f64())
            .prop_map(|(ticket, client, (reason, finite), waited)| {
                (
                    WireReply::Rejected { ticket, client, reason, waited },
                    finite && waited.is_finite(),
                )
            }),
        (ticket(), client())
            .prop_map(|(ticket, client)| { (WireReply::Cancelled { ticket, client }, true) }),
        awkward_string().prop_map(|reason| (WireReply::Error { reason }, true)),
    ]
}

fn report() -> impl Strategy<Value = (BatchReport, bool)> {
    let mode = prop_oneof![
        Just((ObfuscationMode::Independent, true)),
        Just((ObfuscationMode::SharedGlobal, true)),
        (any_f64(), 1usize..64).prop_map(|(radius_scale, max_cluster_size)| {
            let config = ClusteringConfig { radius_scale, max_cluster_size };
            (ObfuscationMode::SharedClustered(config), radius_scale.is_finite())
        }),
    ];
    let breach = proptest::collection::vec((client(), finite_f64()), 0..6);
    (mode, proptest::collection::vec(id(), 14), breach).prop_map(|((mode, finite), n, breach)| {
        let report = BatchReport {
            mode,
            num_requests: n[0] as usize,
            num_units: n[1] as usize,
            total_pairs: n[2],
            fakes_added: n[3],
            candidate_paths: n[4],
            candidate_path_nodes: n[5],
            delivered_path_nodes: n[6],
            server_settled: n[7],
            server_relaxed: n[8],
            server_trees_grown: n[9],
            per_client_breach: breach,
            traffic: HopTraffic {
                requests_bytes: n[10],
                queries_bytes: n[11],
                candidates_bytes: n[12],
                results_bytes: n[13],
            },
        };
        (report, finite)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn hop_messages_have_one_encoding(
        request in request(),
        query_id in id(),
        query in obfuscated_query(),
        rows in candidate_rows(),
        client in client(),
        path in path(),
    ) {
        check(&request, true);
        let query_msg = ObfuscatedQueryMsg { query_id, query };
        check(&query_msg, true);
        let candidates_msg = CandidateResultsMsg { query_id, paths: rows };
        check(&candidates_msg, true);
        let result_msg = ResultMsg { client, path };
        check(&result_msg, true);

        // 3: the by-reference records count their owned messages.
        let mut traffic = HopTraffic::default();
        traffic.record_request(&request);
        traffic.record_query(query_id, &query_msg.query);
        traffic.record_candidates(query_id, &candidates_msg.paths);
        traffic.record_result(client, &result_msg.path);
        let len = |bytes: Vec<u8>| bytes.len() as u64;
        prop_assert_eq!(traffic, HopTraffic {
            requests_bytes: len(encode_message(&request).unwrap()),
            queries_bytes: len(encode_message(&query_msg).unwrap()),
            candidates_bytes: len(encode_message(&candidates_msg).unwrap()),
            results_bytes: len(encode_message(&result_msg).unwrap()),
        });
    }

    #[test]
    fn wire_messages_have_one_encoding(
        request in request(),
        bulk in prop_oneof![Just(Priority::Interactive), Just(Priority::Bulk)],
        (reply, reply_is_finite) in reply(),
    ) {
        check(&WireRequest { request, priority: bulk }, true);
        check(&reply, reply_is_finite);
    }

    #[test]
    fn batch_reports_have_one_encoding((report, finite) in report()) {
        check(&report, finite);
    }
}
