//! Path queries and obfuscated path queries (Definitions 1 and 2, §III).

use crate::error::{OpaqueError, Result};
use roadnet::NodeId;
use std::fmt;

/// Identifier of a client (user) of the directions-search service.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ClientId(pub u32);

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A path query `Q(s, t)` (§III-A): a request for the shortest path from
/// source `s` to destination `t`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct PathQuery {
    /// The true source `s`.
    pub source: NodeId,
    /// The true destination `t`.
    pub destination: NodeId,
}

impl PathQuery {
    /// Construct `Q(s, t)`.
    pub fn new(source: NodeId, destination: NodeId) -> Self {
        PathQuery { source, destination }
    }
}

impl fmt::Display for PathQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q({}, {})", self.source, self.destination)
    }
}

/// A user's privacy preference (§III-C): the desired sizes of the obfuscated
/// source set `|S| = f_S` and destination set `|T| = f_T`. Larger settings
/// mean stronger protection (lower breach probability) at higher processing
/// cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct ProtectionSettings {
    /// Required source-set size `f_S ≥ 1` (true source included).
    pub f_s: u32,
    /// Required target-set size `f_T ≥ 1` (true destination included).
    pub f_t: u32,
}

impl ProtectionSettings {
    /// Validated constructor: both sizes must be ≥ 1 (size 1 means "no
    /// fakes on that side").
    pub fn new(f_s: u32, f_t: u32) -> Result<Self> {
        if f_s == 0 || f_t == 0 {
            return Err(OpaqueError::InvalidProtection { f_s, f_t });
        }
        Ok(ProtectionSettings { f_s, f_t })
    }

    /// The breach probability this setting guarantees under a uniform-prior
    /// adversary: `1 / (f_S × f_T)` (Definition 2).
    pub fn breach_probability(&self) -> f64 {
        1.0 / (self.f_s as f64 * self.f_t as f64)
    }
}

/// A client request `⟨u_i, (s_i, t_i), (f_Si, f_Ti)⟩` as sent to the
/// obfuscator over the secure channel (§IV, Figure 6).
#[derive(Clone, Copy, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub struct ClientRequest {
    /// The requesting client `u_i`.
    pub client: ClientId,
    /// The true query `(s_i, t_i)`.
    pub query: PathQuery,
    /// The anonymity requirements `(f_Si, f_Ti)`.
    pub protection: ProtectionSettings,
}

impl ClientRequest {
    /// Construct a request.
    pub fn new(client: ClientId, query: PathQuery, protection: ProtectionSettings) -> Self {
        ClientRequest { client, query, protection }
    }
}

/// An obfuscated path query `Q(S, T)` (Definition 1): the true query's
/// endpoints mixed with fakes. Represents the query set
/// `⋃_{s∈S, t∈T} {Q(s,t)}` — the server must answer all `|S| × |T|` pairs.
///
/// Invariants (enforced by [`ObfuscatedPathQuery::new`]): both sets are
/// non-empty and duplicate-free. Sets are kept in *sorted* order so the
/// wire form leaks nothing about which member is the true endpoint.
#[derive(Clone, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct ObfuscatedPathQuery {
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
}

impl ObfuscatedPathQuery {
    /// Build from endpoint sets; deduplicates and sorts.
    ///
    /// # Panics
    /// Panics if either set is empty after deduplication — an obfuscated
    /// query always carries at least one (true) endpoint per side.
    pub fn new(mut sources: Vec<NodeId>, mut targets: Vec<NodeId>) -> Self {
        sources.sort_unstable();
        sources.dedup();
        targets.sort_unstable();
        targets.dedup();
        assert!(
            !sources.is_empty() && !targets.is_empty(),
            "obfuscated query needs non-empty S and T"
        );
        ObfuscatedPathQuery { sources, targets }
    }

    /// The source set `S`.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The destination set `T`.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// `|S| × |T|`, the number of path queries the server evaluates.
    pub fn num_pairs(&self) -> usize {
        self.sources.len() * self.targets.len()
    }

    /// Definition 2: the probability a uniform-prior adversary reveals any
    /// one embedded true query, `1 / (|S| × |T|)`.
    pub fn breach_probability(&self) -> f64 {
        1.0 / self.num_pairs() as f64
    }

    /// True if this obfuscated query covers `q` (Definition 1's requirement
    /// `s ∈ S ∧ t ∈ T`).
    pub fn covers(&self, q: &PathQuery) -> bool {
        self.sources.binary_search(&q.source).is_ok()
            && self.targets.binary_search(&q.destination).is_ok()
    }

    /// Index of a source within the sorted set.
    pub fn source_index(&self, s: NodeId) -> Option<usize> {
        self.sources.binary_search(&s).ok()
    }

    /// Index of a target within the sorted set.
    pub fn target_index(&self, t: NodeId) -> Option<usize> {
        self.targets.binary_search(&t).ok()
    }

    /// Enumerate all `|S|×|T|` represented path queries, in (source-major)
    /// sorted order.
    pub fn represented_queries(&self) -> impl Iterator<Item = PathQuery> + '_ {
        self.sources
            .iter()
            .flat_map(move |&s| self.targets.iter().map(move |&t| PathQuery::new(s, t)))
    }

    /// Whether `(f_s, f_t)` protection is satisfied by this query's sizes.
    pub fn satisfies(&self, p: &ProtectionSettings) -> bool {
        self.sources.len() >= p.f_s as usize && self.targets.len() >= p.f_t as usize
    }
}

impl fmt::Display for ObfuscatedPathQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q(|S|={}, |T|={})", self.sources.len(), self.targets.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_settings_validate() {
        assert!(ProtectionSettings::new(2, 3).is_ok());
        assert!(matches!(
            ProtectionSettings::new(0, 3),
            Err(OpaqueError::InvalidProtection { .. })
        ));
        assert!(matches!(
            ProtectionSettings::new(1, 0),
            Err(OpaqueError::InvalidProtection { .. })
        ));
    }

    #[test]
    fn paper_example_breach_probability() {
        // Alice's Q(S_A, T_A) with |S|=2, |T|=3 has breach probability 1/6.
        let q = ObfuscatedPathQuery::new(
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(2), NodeId(3), NodeId(4)],
        );
        assert!((q.breach_probability() - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(q.num_pairs(), 6);
    }

    #[test]
    fn covers_requires_both_endpoints() {
        let q = ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(1)], vec![NodeId(2)]);
        assert!(q.covers(&PathQuery::new(NodeId(0), NodeId(2))));
        assert!(q.covers(&PathQuery::new(NodeId(1), NodeId(2))));
        assert!(!q.covers(&PathQuery::new(NodeId(2), NodeId(0))));
        assert!(!q.covers(&PathQuery::new(NodeId(0), NodeId(1))));
    }

    #[test]
    fn sets_are_sorted_and_deduplicated() {
        let q = ObfuscatedPathQuery::new(
            vec![NodeId(5), NodeId(1), NodeId(5)],
            vec![NodeId(9), NodeId(9)],
        );
        assert_eq!(q.sources(), &[NodeId(1), NodeId(5)]);
        assert_eq!(q.targets(), &[NodeId(9)]);
        assert_eq!(q.num_pairs(), 2);
    }

    #[test]
    fn represented_queries_enumerates_cross_product() {
        let q = ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]);
        let all: Vec<PathQuery> = q.represented_queries().collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&PathQuery::new(NodeId(1), NodeId(3))));
    }

    #[test]
    fn satisfies_compares_sizes() {
        let q = ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]);
        assert!(q.satisfies(&ProtectionSettings::new(2, 2).unwrap()));
        assert!(q.satisfies(&ProtectionSettings::new(1, 1).unwrap()));
        assert!(!q.satisfies(&ProtectionSettings::new(3, 2).unwrap()));
    }

    #[test]
    fn settings_breach_matches_query_breach() {
        let p = ProtectionSettings::new(4, 5).unwrap();
        assert!((p.breach_probability() - 1.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PathQuery::new(NodeId(1), NodeId(2)).to_string(), "Q(1, 2)");
        let q = ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(1), NodeId(2)]);
        assert_eq!(q.to_string(), "Q(|S|=1, |T|=2)");
        assert_eq!(ClientId(7).to_string(), "7");
        assert_eq!(format!("{:?}", ClientId(7)), "u7");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sets_panic() {
        let _ = ObfuscatedPathQuery::new(vec![], vec![NodeId(1)]);
    }
}
