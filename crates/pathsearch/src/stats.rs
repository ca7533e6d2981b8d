//! Search-cost instrumentation.
//!
//! The paper's Lemma 1 bounds the processing cost of an obfuscated path
//! query by the *area* covered by the Dijkstra spanning trees. The concrete
//! proxies we record for that area are: nodes settled (computation), arcs
//! relaxed (the work per settled node) and — when searching through the
//! page file of a [`roadnet::ChunkedCsr`] — page faults (I/O, reported
//! separately by the storage layer). Every algorithm in this crate fills in
//! a [`SearchStats`].
//!
//! Heap traffic (pushes and pops) is deliberately not counted: it reached
//! no report and no benchmark, only tests, yet every recorded settle of a
//! tree-cache trace had to carry a snapshot of it. Settle order — which the
//! heap decides — is pinned by `settled` and `relaxed` alone.

/// Counters describing one (or an aggregate of several) search runs; the
/// run count is the owner's tree count (`MsmdResult::per_tree`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchStats {
    /// Nodes permanently labelled (popped with their final distance).
    pub settled: u64,
    /// Arc relaxations attempted.
    pub relaxed: u64,
}

impl SearchStats {
    /// Accumulate another run's counters into this aggregate.
    pub fn merge(&mut self, other: SearchStats) {
        self.settled += other.settled;
        self.relaxed += other.relaxed;
    }
}

impl std::ops::Add for SearchStats {
    type Output = SearchStats;
    fn add(mut self, rhs: SearchStats) -> SearchStats {
        self.merge(rhs);
        self
    }
}

impl std::iter::Sum for SearchStats {
    fn sum<I: Iterator<Item = SearchStats>>(iter: I) -> Self {
        let mut acc = SearchStats::default();
        for s in iter {
            acc.merge(s);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_add_accumulate() {
        let a = SearchStats { settled: 10, relaxed: 30 };
        let b = SearchStats { settled: 5, relaxed: 12 };
        let c = a + b;
        assert_eq!(c.settled, 15);
        assert_eq!(c.relaxed, 42);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            SearchStats { settled: 1, ..Default::default() },
            SearchStats { settled: 2, ..Default::default() },
            SearchStats { settled: 3, ..Default::default() },
        ];
        let total: SearchStats = parts.into_iter().sum();
        assert_eq!(total.settled, 6);
    }
}
