//! Wire protocol of the OPAQUE deployment (Figures 5–6).
//!
//! Four message kinds flow through the system:
//!
//! 1. [`RequestMsg`] — client → obfuscator, over the secure channel:
//!    `⟨u, (s,t), (f_S, f_T)⟩`;
//! 2. [`ObfuscatedQueryMsg`] — obfuscator → server: the anonymized
//!    `Q(S, T)` (no client identities cross this hop);
//! 3. [`CandidateResultsMsg`] — server → obfuscator: all `|S|×|T|`
//!    candidate paths;
//! 4. [`ResultMsg`] — obfuscator → client, secure channel: the one path
//!    answering the client's true query. The service gateway surfaces
//!    this hop per client as
//!    [`ServiceEvent::ResponseReady`](crate::ServiceEvent::ResponseReady),
//!    closing the Figure 5/6 loop request by request rather than batch
//!    by batch.
//!
//! Messages serialize with serde; [`wire_size`] measures their JSON
//! encoding *without producing it* (the JSON writer over an output that
//! only counts, which counts a whole number's digits instead of printing
//! them, and a run of node ids in one pass), so experiments can report
//! real bytes per hop rather than node-count proxies and the service can
//! afford to do so on every request. The obfuscator–server hops are in-process calls, so
//! [`HopTraffic`] measures them through borrowed views of what the
//! service already holds — same bytes as the owned messages, nothing
//! cloned to be counted. The secure channel itself is modelled, not
//! implemented — the paper assumes it (§IV); what the experiments observe
//! is *what* crosses each hop and *how big* it is, which is exactly what
//! [`HopTraffic`] accumulates.

use crate::query::{ClientId, ObfuscatedPathQuery, PathQuery, ProtectionSettings};
use pathsearch::Path;
use serde::Serialize;

/// Client → obfuscator (secure channel): one directions request.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RequestMsg {
    /// The requesting client.
    pub client: ClientId,
    /// The true path query.
    pub query: PathQuery,
    /// The client's anonymity requirements.
    pub protection: ProtectionSettings,
}

/// Obfuscator → server: an anonymized obfuscated path query. Carries no
/// client identity — the server sees only endpoint sets.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObfuscatedQueryMsg {
    /// Correlation id so the obfuscator can match responses to in-flight
    /// queries (opaque to the server; fresh per query).
    pub query_id: u64,
    /// The anonymized endpoint sets.
    pub query: ObfuscatedPathQuery,
}

/// Server → obfuscator: candidate result paths for every connected pair,
/// in source-major order of the sorted endpoint sets.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CandidateResultsMsg {
    /// Correlation id echoed from the query message.
    pub query_id: u64,
    /// `paths[i][j]` answers `(sources[i], targets[j])`; `None` when
    /// disconnected.
    pub paths: Vec<Vec<Option<Path>>>,
}

/// Obfuscator → client (secure channel): the requested path.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResultMsg {
    /// The client the path is delivered to.
    pub client: ClientId,
    /// The shortest path for the client's true query.
    pub path: Path,
}

/// [`ObfuscatedQueryMsg`] over a borrowed query.
#[derive(serde::Serialize)]
struct ObfuscatedQueryView<'a> {
    query_id: u64,
    query: &'a ObfuscatedPathQuery,
}

/// [`CandidateResultsMsg`] over borrowed candidate rows.
#[derive(serde::Serialize)]
struct CandidateResultsView<'a> {
    query_id: u64,
    paths: &'a [Vec<Option<Path>>],
}

/// [`ResultMsg`] over a borrowed path.
#[derive(serde::Serialize)]
struct ResultView<'a> {
    client: ClientId,
    path: &'a Path,
}

/// Serialized size of a message in bytes (compact JSON encoding — a
/// reasonable stand-in for any self-describing wire format; experiments
/// compare hops, not codecs). Measures the encoding without producing it:
/// the message streams through the JSON writer into a byte counter, which
/// takes a whole number's length from its digit count without printing
/// it, so nothing is allocated and nothing can fail. Node ids — every
/// path's nodes and both endpoint sets — reach the counter as one run per
/// sequence ([`serde::Sink::uints`]), whose digits, commas and brackets it
/// sums in one vectorised pass: counting a candidate matrix costs about a
/// nanosecond per id, not a float conversion and a branch per id.
pub fn wire_size<M: Serialize>(msg: &M) -> usize {
    serde_json::serialized_len(msg)
}

/// Byte counters for the four hops of Figure 5 (both secure-channel legs
/// and both obfuscator–server legs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HopTraffic {
    /// Client → obfuscator requests (secure channel up).
    pub requests_bytes: u64,
    /// Obfuscator → server obfuscated queries.
    pub queries_bytes: u64,
    /// Server → obfuscator candidate results.
    pub candidates_bytes: u64,
    /// Obfuscator → client delivered results (secure channel down).
    pub results_bytes: u64,
}

impl HopTraffic {
    /// Record one request message.
    pub fn record_request(&mut self, m: &RequestMsg) {
        self.requests_bytes += wire_size(m) as u64;
    }

    /// Record one obfuscated query: the bytes of the
    /// [`ObfuscatedQueryMsg`] carrying `query` under `query_id`.
    pub fn record_query(&mut self, query_id: u64, query: &ObfuscatedPathQuery) {
        self.queries_bytes += wire_size(&ObfuscatedQueryView { query_id, query }) as u64;
    }

    /// Record one candidate-results answer: the bytes of the
    /// [`CandidateResultsMsg`] carrying `paths` under `query_id`.
    pub fn record_candidates(&mut self, query_id: u64, paths: &[Vec<Option<Path>>]) {
        self.candidates_bytes += wire_size(&CandidateResultsView { query_id, paths }) as u64;
    }

    /// Record one delivered result: the bytes of the [`ResultMsg`]
    /// delivering `path` to `client`.
    pub fn record_result(&mut self, client: ClientId, path: &Path) {
        self.results_bytes += wire_size(&ResultView { client, path }) as u64;
    }

    /// Total bytes over all hops.
    pub fn total_bytes(&self) -> u64 {
        self.requests_bytes + self.queries_bytes + self.candidates_bytes + self.results_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscator::{FakeSelection, Obfuscator};
    use crate::query::ClientRequest;
    use crate::server::DirectionsServer;
    use pathsearch::SharingPolicy;
    use roadnet::NodeId;
    use roadnet::generators::{GridConfig, grid_network};

    fn request() -> RequestMsg {
        RequestMsg {
            client: ClientId(7),
            query: PathQuery::new(NodeId(1), NodeId(2)),
            protection: ProtectionSettings::new(3, 3).unwrap(),
        }
    }

    #[test]
    fn messages_round_trip_through_serde() {
        let m = request();
        let json = serde_json::to_string(&m).unwrap();
        let back: RequestMsg = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);

        let q = ObfuscatedQueryMsg {
            query_id: 99,
            query: ObfuscatedPathQuery::new(vec![NodeId(1)], vec![NodeId(2), NodeId(3)]),
        };
        let back: ObfuscatedQueryMsg =
            serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn obfuscated_query_msg_carries_no_client_identity() {
        // Structural check on the serialized form: the server-facing hop
        // must contain no "client" field anywhere.
        let q = ObfuscatedQueryMsg {
            query_id: 1,
            query: ObfuscatedPathQuery::new(vec![NodeId(1)], vec![NodeId(2)]),
        };
        let json = serde_json::to_string(&q).unwrap();
        assert!(!json.contains("client"), "server hop leaked identity: {json}");
    }

    #[test]
    fn borrowed_views_print_the_bytes_of_their_owned_messages() {
        let path = |nodes: &[u32], d: f64| Path::new(nodes.iter().map(|&n| NodeId(n)).collect(), d);
        let query = ObfuscatedPathQuery::new(vec![NodeId(3), NodeId(1)], vec![NodeId(2)]);
        let owned = ObfuscatedQueryMsg { query_id: u64::MAX, query: query.clone() };
        let view = ObfuscatedQueryView { query_id: u64::MAX, query: &query };
        assert_eq!(serde_json::to_vec(&view).unwrap(), serde_json::to_vec(&owned).unwrap());

        // Rows with a disconnected pair, an empty row, a one-node path.
        let rows = vec![
            vec![Some(path(&[1, 5, 2], 2.5)), None],
            vec![],
            vec![None, Some(path(&[3], 0.0))],
        ];
        for paths in [rows, vec![]] {
            let view = CandidateResultsView { query_id: 7, paths: &paths };
            let owned = CandidateResultsMsg { query_id: 7, paths: paths.clone() };
            assert_eq!(serde_json::to_vec(&view).unwrap(), serde_json::to_vec(&owned).unwrap());
        }

        let delivered = path(&[4, 9], 1e-3);
        let owned = ResultMsg { client: ClientId(u32::MAX), path: delivered.clone() };
        let view = ResultView { client: ClientId(u32::MAX), path: &delivered };
        assert_eq!(serde_json::to_vec(&view).unwrap(), serde_json::to_vec(&owned).unwrap());
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = ObfuscatedQueryMsg {
            query_id: 1,
            query: ObfuscatedPathQuery::new(vec![NodeId(1)], vec![NodeId(2)]),
        };
        let big = ObfuscatedQueryMsg {
            query_id: 1,
            query: ObfuscatedPathQuery::new(
                (0..50).map(NodeId).collect(),
                (50..120).map(NodeId).collect(),
            ),
        };
        assert!(wire_size(&big) > wire_size(&small) * 5);
    }

    #[test]
    fn traffic_accounting_through_a_real_exchange() {
        let map =
            grid_network(&GridConfig { width: 12, height: 12, seed: 3, ..Default::default() })
                .unwrap();
        let ob = Obfuscator::new(map.clone(), FakeSelection::default_ring(), 5);
        let mut server = DirectionsServer::new(map, SharingPolicy::PerSource);
        let mut traffic = HopTraffic::default();

        let req = ClientRequest::new(
            ClientId(0),
            PathQuery::new(NodeId(0), NodeId(143)),
            ProtectionSettings::new(3, 3).unwrap(),
        );
        traffic.record_request(&RequestMsg {
            client: req.client,
            query: req.query,
            protection: req.protection,
        });

        let unit = ob.obfuscate_independent(&req).unwrap();
        traffic.record_query(1, &unit.query);

        let result = server.process(&unit.query);
        traffic.record_candidates(1, &result.paths);

        let delivered = crate::filter::filter_candidates(&unit, &result, None).unwrap();
        traffic.record_result(delivered[0].client, &delivered[0].path);

        assert!(traffic.requests_bytes > 0);
        assert!(traffic.queries_bytes > 0);
        assert!(
            traffic.candidates_bytes > traffic.results_bytes,
            "9 candidate paths outweigh 1 delivered path"
        );
        assert_eq!(
            traffic.total_bytes(),
            traffic.requests_bytes
                + traffic.queries_bytes
                + traffic.candidates_bytes
                + traffic.results_bytes
        );
    }
}
