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
//!    finite (JSON has no NaN or infinity: they print as `null`);
//! 5. the decode outcome table: `WireRequest` and every `WireReply`
//!    variant, each edited the ways a peer may legally or hostilely write
//!    it, decode to the value or the `Malformed` the table pins.
//!
//! Integers stay within 2^53, the range the stand-in's `f64` number model
//! round-trips exactly (see `vendor/serde`).

use opaque::{
    BatchReport, CachePolicy, CandidateResultsMsg, ClientId, ClusteringConfig, DirectionsBackend,
    FakeSelection, HopTraffic, ObfuscatedPathQuery, ObfuscatedQueryMsg, ObfuscationMode,
    PartitionPolicy, PathQuery, Priority, ProtectionSettings, RejectReason, RequestMsg, ResultMsg,
    ServiceBuilder, Ticket, wire_size,
};
use opaque_net::wire::{decode_message, encode_message};
use opaque_net::{NetError, WireReply, WireRequest};
use pathsearch::{Path, SharingPolicy};
use proptest::prelude::*;
use roadnet::generators::{GeometricConfig, random_geometric};
use roadnet::{NodeId, SpatialIndex};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

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

/// A message the decode table edits, by text substitution on its compact
/// encoding.
struct Sample<M> {
    msg: M,
    /// A field with a scalar value, named once in the encoding: the table
    /// duplicates, escapes and drops it, and puts unknown fields and
    /// nesting floods beside it.
    key: &'static str,
    /// How to set that value, when it is an integer.
    int: Option<fn(&mut M, u64)>,
    /// Whether that integer is a `u64` (else a `u32`).
    wide: bool,
    /// How to set the `waited` field, when there is one.
    waited: Option<fn(&mut M, f64)>,
    /// The reply's variant tag: its object must hold exactly one entry.
    tag: Option<&'static str>,
}

/// One row of the table: what was done, the payload, and the outcome —
/// `Some` the decoded value, `None` `NetError::Malformed`.
type Row<M> = (String, Vec<u8>, Option<M>);

/// `text` with the first `from` replaced by `to`; `from` must occur.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "{from} not in {text}");
    text.replacen(from, to, 1)
}

/// The `"key":value` entry of a scalar value in `text`.
fn entry_of<'t>(text: &'t str, key: &str) -> &'t str {
    let at = text.find(&format!("\"{key}\":")).unwrap();
    let len = text[at..].find([',', '}']).unwrap();
    &text[at..at + len]
}

/// Every object's entries in reverse order, all the way down.
fn reversed(v: Value) -> Value {
    match v {
        Value::Object(entries) => {
            Value::Object(entries.into_iter().rev().map(|(k, v)| (k, reversed(v))).collect())
        }
        Value::Array(items) => Value::Array(items.into_iter().map(reversed).collect()),
        other => other,
    }
}

/// The numbers the table writes into an integer and into a float field:
/// the text, the integer it is (if any), and the float.
const NUMBERS: [(&str, Option<u64>, f64); 7] = [
    ("3.0", Some(3), 3.0),
    ("1e2", Some(100), 100.0),
    ("-0", Some(0), -0.0),
    ("1.5", None, 1.5),
    ("-3", None, -3.0),
    ("4294967297", Some(4_294_967_297), 4_294_967_297.0),
    ("1e300", None, 1e300),
];

fn rows<M: Serialize + Clone>(s: &Sample<M>) -> Vec<Row<M>> {
    let text = String::from_utf8(encode_message(&s.msg).unwrap()).unwrap();
    let same = || Some(s.msg.clone());
    let with = |set: &dyn Fn(&mut M)| {
        let mut m = s.msg.clone();
        set(&mut m);
        Some(m)
    };
    let mut rows: Vec<Row<M>> = Vec::new();
    let mut row = |what: &str, input: String, expect: Option<M>| {
        rows.push((what.to_string(), input.into_bytes(), expect));
    };
    row("as encoded", text.clone(), same());
    let pretty = serde_json::to_string_pretty(&reversed(s.msg.to_value())).unwrap();
    row("keys reordered, whitespace added", format!(" \n{pretty}\t\r\n"), same());

    let key = format!("\"{}\":", s.key);
    let entry = entry_of(&text, s.key);
    let unknown = r#""unknown":{"deep":[null,true,-1.5e3,"\"\u0041"]},"#;
    row("an unknown field", edit(&text, &key, &format!("{unknown}{key}")), same());
    // An externally tagged enum is an object of exactly one entry.
    let beside_tag = s.tag.is_none().then(same).flatten();
    row("an unknown field at the top", format!("{{{unknown}{}", &text[1..]), beside_tag);
    row("a duplicated key", edit(&text, entry, &format!("{entry},{entry}")), same());
    row("a duplicate that is bad", edit(&text, entry, &format!("{entry},{key}null")), same());
    row("a duplicate after a bad one", edit(&text, entry, &format!("{key}null,{entry}")), None);
    let escape = |name: &str, at: usize| {
        format!("\"{}\\u{:04x}{}\":", &name[..at], name.as_bytes()[at], &name[at + 1..])
    };
    row("an escaped key", edit(&text, &key, &escape(s.key, 2)), same());
    if let Some(tag) = s.tag {
        row("an escaped variant tag", edit(&text, &format!("\"{tag}\":"), &escape(tag, 1)), same());
    }
    let missing = [format!("{entry},"), format!(",{entry}")]
        .into_iter()
        .find(|e| text.contains(e.as_str()))
        .map_or_else(|| edit(&text, entry, ""), |e| edit(&text, &e, ""));
    row("a missing required field", missing, None);

    for (number, int, float) in NUMBERS {
        if let Some(set) = s.int {
            let expect = int.filter(|&n| s.wide || n <= u64::from(u32::MAX));
            let expect = expect.and_then(|n| with(&|m| set(m, n)));
            row(
                &format!("{} = {number}", s.key),
                edit(&text, entry, &format!("{key}{number}")),
                expect,
            );
        }
        if let Some(set) = s.waited {
            let input = edit(&text, entry_of(&text, "waited"), &format!("\"waited\":{number}"));
            row(&format!("waited = {number}"), input, with(&|m| set(m, float)));
        }
    }
    if let Some(set) = s.int {
        let first_wins = edit(&text, entry, &format!("{key}12,{entry}"));
        row("a duplicated integer: the first wins", first_wins, with(&|m| set(m, 12)));
    }

    row("trailing whitespace", format!("{text} \n\t"), same());
    row("trailing data", format!("{text} x"), None);
    row("a trailing comma", format!("{text},"), None);
    row("a second value", format!("{text}{{}}"), None);

    // Nesting: the cap counts every open array and object, so an unknown
    // field may hold as many levels as the key's own depth leaves.
    let before = &text[..text.find(&key).unwrap()];
    let depth = before.matches(['{', '[']).count() - before.matches(['}', ']']).count();
    let flood = |levels: usize| format!("\"flood\":{}{},", "[".repeat(levels), "]".repeat(levels));
    let at_cap = 128 - depth;
    row("nesting at 128 levels", edit(&text, &key, &format!("{}{key}", flood(at_cap))), same());
    row("nesting past 128 levels", edit(&text, &key, &format!("{}{key}", flood(at_cap + 1))), None);
    let flood_value = format!("{key}{}{}", "[".repeat(200), "]".repeat(200));
    row("a nested flood as the value", edit(&text, entry, &flood_value), None);

    // Cuts inside `é` leave a payload that is not UTF-8.
    for cut in 0..text.len() {
        rows.push((format!("truncated at byte {cut}"), text.as_bytes()[..cut].to_vec(), None));
    }
    rows
}

/// Decode every row and compare with its pinned outcome; values compare
/// by `Debug`, so `-0.0` and `0.0` differ. Returns the number of rows.
fn check_rows<M: Serialize + Deserialize + Clone + Debug>(sample: &Sample<M>) -> usize {
    let rows = rows(sample);
    for (what, input, expect) in &rows {
        let input_text = String::from_utf8_lossy(input);
        match (decode_message::<M>(input), expect) {
            (Ok(got), Some(expect)) => {
                assert_eq!(format!("{got:?}"), format!("{expect:?}"), "{what}: {input_text}")
            }
            (Err(NetError::Malformed { .. }), None) => {}
            (got, expect) => {
                panic!("{what}: {input_text}\n  got {got:?}\n  expected {expect:?}")
            }
        }
    }
    rows.len()
}

#[test]
fn decode_outcome_table() {
    let request = RequestMsg {
        client: ClientId(7),
        query: PathQuery::new(NodeId(1), NodeId(2)),
        protection: ProtectionSettings::new(3, 3).unwrap(),
    };
    let mut n = check_rows(&Sample {
        msg: WireRequest { request, priority: Priority::Bulk },
        key: "client",
        wide: false,
        int: Some(|m, n| m.request.client = ClientId(n as u32)),
        waited: None,
        tag: None,
    });

    fn ticket(m: &mut WireReply, n: u64) {
        match m {
            WireReply::Result { ticket, .. }
            | WireReply::Unreachable { ticket, .. }
            | WireReply::Cancelled { ticket, .. } => *ticket = Ticket(n),
            _ => unreachable!("only these samples set a ticket"),
        }
    }
    fn client(m: &mut WireReply, n: u64) {
        match m {
            WireReply::Unreachable { client, .. } | WireReply::Rejected { client, .. } => {
                *client = ClientId(n as u32)
            }
            _ => unreachable!("only these samples set a client"),
        }
    }
    fn waited(m: &mut WireReply, w: f64) {
        match m {
            WireReply::Result { waited, .. }
            | WireReply::Unreachable { waited, .. }
            | WireReply::Rejected { waited, .. } => *waited = w,
            _ => unreachable!("only these samples set a wait"),
        }
    }
    fn depth(m: &mut WireReply, n: u64) {
        match m {
            WireReply::Rejected { reason, .. } => {
                *reason = RejectReason::QueueFull { depth: n as usize }
            }
            _ => unreachable!("only the rejection sets a depth"),
        }
    }
    let result =
        ResultMsg { client: ClientId(7), path: Path::new(vec![NodeId(1), NodeId(8)], 2.25) };
    let rejected = |ticket: Option<Ticket>| WireReply::Rejected {
        ticket,
        client: ClientId(3),
        reason: RejectReason::QueueFull { depth: 8 },
        waited: 2.0,
    };
    let replies = [
        Sample {
            msg: WireReply::Result { ticket: Ticket(3), result, waited: 0.125 },
            key: "ticket",
            wide: true,
            int: Some(ticket),
            waited: Some(waited),
            tag: Some("Result"),
        },
        Sample {
            msg: WireReply::Unreachable { ticket: Ticket(4), client: ClientId(1), waited: 0.5 },
            key: "client",
            wide: false,
            int: Some(client),
            waited: Some(waited),
            tag: Some("Unreachable"),
        },
        Sample {
            msg: rejected(Some(Ticket(9))),
            key: "client",
            wide: false,
            int: Some(client),
            waited: Some(waited),
            tag: Some("Rejected"),
        },
        Sample {
            msg: rejected(None),
            key: "depth",
            wide: true,
            int: Some(depth),
            waited: None,
            tag: Some("Rejected"),
        },
        Sample {
            msg: WireReply::Cancelled { ticket: Ticket(11), client: ClientId(4) },
            key: "ticket",
            wide: true,
            int: Some(ticket),
            waited: None,
            tag: Some("Cancelled"),
        },
        Sample {
            msg: WireReply::Error { reason: "bad \"version\" é".to_string() },
            key: "reason",
            int: None,
            wide: false,
            waited: None,
            tag: Some("Error"),
        },
    ];
    for sample in &replies {
        n += check_rows(sample);
    }

    // A missing `Option` field reads as `None`; any other missing field
    // is `Malformed` (the rows above).
    let text = String::from_utf8(encode_message(&rejected(Some(Ticket(9)))).unwrap()).unwrap();
    for input in
        [edit(&text, r#""ticket":9,"#, ""), edit(&text, r#""ticket":9"#, r#""ticket":null"#)]
    {
        let got = decode_message::<WireReply>(input.as_bytes()).unwrap();
        assert_eq!(got, rejected(None), "{input}");
    }
    assert!(n > 600, "the table shrank to {n} rows");
}

#[test]
fn hop_traffic_of_fixed_service_windows_is_pinned() {
    // Every byte a batch report prices, pinned on two windows of the
    // benchmark's cached 20 000-node geometric deployment (uniform fakes,
    // 2 region-owned shards, `Lru{64}`): a warm `Auto` 4×1 hotspot window
    // of 16, whose one-target trees are transposed and almost all adopted
    // from the first window's, and a 3×3 `PerSource` window of 4.
    let map =
        random_geometric(&GeometricConfig { num_nodes: 20_000, seed: 14, ..Default::default() })
            .unwrap();
    let index = SpatialIndex::build(&map);
    let requests = |queries, (f_s, f_t), num_requests| {
        let protection = ProtectionDistribution::Fixed { f_s, f_t };
        generate_requests(
            &map,
            &index,
            &WorkloadConfig { num_requests, queries, protection, seed: 14 },
        )
    };
    let traffic = |sharing, windows: &[&[opaque::ClientRequest]]| {
        let mut service = ServiceBuilder::new()
            .map(map.clone())
            .seed(14)
            .fake_selection(FakeSelection::Uniform)
            .sharing_policy(sharing)
            .obfuscation_mode(ObfuscationMode::Independent)
            .shards(2)
            .partition_policy(PartitionPolicy::RegionOwned { halo: 2 })
            .cache_policy(CachePolicy::Lru { trees: 64 })
            .build()
            .unwrap();
        let mut last = HopTraffic::default();
        for window in windows {
            let response = service.process_batch(window).unwrap();
            assert_eq!(response.results.len(), window.len(), "every request is delivered");
            last = response.report.traffic;
        }
        let hits = service.backend().stats().tree_cache_hits;
        let t = last;
        ([t.requests_bytes, t.queries_bytes, t.candidates_bytes, t.results_bytes], hits)
    };
    let hotspot = QueryDistribution::Hotspot { hotspots: 4, exponent: 1.0, spread: 0.003 };
    let trips = requests(hotspot, (4, 1), 32);
    let (warm, hits) = traffic(SharingPolicy::Auto, &[&trips[..16], &trips[16..]]);
    assert!(hits > 0, "the warm window adopts trees");
    let (per_source, _) =
        traffic(SharingPolicy::PerSource, &[&requests(QueryDistribution::Uniform, (3, 3), 4)]);
    // Requests, queries, candidates and results, in bytes.
    assert_eq!(warm, [1402, 1198, 50668, 12051]);
    assert_eq!(per_source, [348, 323, 24438, 2082]);
}
