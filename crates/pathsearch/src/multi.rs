//! Multiple-source multiple-destination (MSMD) path search — the engine of
//! the obfuscated path query processor (§IV: "a set of efficient multiple
//! source multiple destination path search algorithms have been designed and
//! implemented by OPAQUE").
//!
//! An obfuscated path query `Q(S, T)` stands for the set of path queries
//! `{Q(s,t) : s ∈ S, t ∈ T}` and the server must answer *all* of them
//! (Definition 1 — it cannot know which is real). The paper's three
//! evaluation policies are provided:
//!
//! * [`SharingPolicy::None`] — `|S|·|T|` independent single-pair Dijkstra
//!   runs; the naive baseline whose cost obfuscation must beat;
//! * [`SharingPolicy::PerSource`] — one multi-destination Dijkstra per
//!   source, the strategy behind Lemma 1's
//!   `O(Σ_{s∈S} max_{t∈T} ‖s,t‖²)` bound;
//! * [`SharingPolicy::Auto`] — per-source sharing over the smaller of the
//!   two sides: when `|T| < |S|` and the network is symmetric (undirected),
//!   run one multi-destination search per *target* instead and transpose,
//!   reducing the spanning-tree count from `|S|` to `min(|S|, |T|)`.
//!
//! Every tree of every policy is one sweep of the adopt-or-grow entry
//! [`run_tree`], so each can be guided by ALT and served from a
//! [`TreeCache`], and every answer is read from the [`crate::TreeView`] it
//! returns. Trees
//! grown for real run inside a caller-provided [`SearchArena`]
//! ([`msmd_in`]): without a cache, a server evaluating a query stream
//! touches no allocator beyond the result paths. A tree-cache hit is read
//! straight from the stored trace and writes no arena slot; a miss also
//! allocates the trace it stores.

use crate::alt::{AltPreprocessing, GoalPotential};
use crate::arena::SearchArena;
use crate::cache::TreeCache;
use crate::dijkstra::{Goal, run_tree};
use crate::path::Path;
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};

/// Evaluation strategy for an MSMD query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SharingPolicy {
    /// Independent Dijkstra per (source, target) pair.
    None,
    /// One multi-destination Dijkstra per source (§III-B).
    PerSource,
    /// Per-source sharing over the smaller side when the graph view reports
    /// itself symmetric ([`GraphView::is_symmetric`]); on directed views it
    /// safely degrades to [`SharingPolicy::PerSource`].
    Auto,
}

impl SharingPolicy {
    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            SharingPolicy::None => "naive",
            SharingPolicy::PerSource => "per-source",
            SharingPolicy::Auto => "auto",
        }
    }

    /// All policies, in the order experiment tables report them.
    pub const ALL: [SharingPolicy; 3] =
        [SharingPolicy::None, SharingPolicy::PerSource, SharingPolicy::Auto];
}

/// Which endpoint set a spanning tree grew from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TreeSide {
    /// Rooted at a source (forward tree).
    Source,
    /// Rooted at a target: the smaller side of an [`SharingPolicy::Auto`]
    /// transposition.
    Target,
}

/// Counters for one spanning tree actually grown, attributed to its root —
/// so transposed ([`SharingPolicy::Auto`]) trees are never mistaken for
/// source-rooted ones.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TreeStats {
    /// The node the tree grew from.
    pub root: NodeId,
    /// Whether the root is a source or a target of the original query.
    pub side: TreeSide,
    /// The tree's search counters.
    pub stats: SearchStats,
}

/// Result of one MSMD evaluation: `paths[i][j]` answers `Q(sources[i],
/// targets[j])` (`None` when disconnected), with aggregate and per-tree
/// counters.
#[derive(Clone, Debug)]
pub struct MsmdResult {
    /// `paths[i][j]` is the shortest path for pair `(sources[i],
    /// targets[j])`, oriented source → target; `None` when disconnected.
    pub paths: Vec<Vec<Option<Path>>>,
    /// Aggregate counters over every tree grown.
    pub stats: SearchStats,
    /// Counters per spanning tree actually grown, attributed to each
    /// tree's root (one per source for `PerSource`, per pair for `None`,
    /// per smaller-side element for `Auto` — the only policy that grows
    /// target-rooted trees).
    pub per_tree: Vec<TreeStats>,
}

impl MsmdResult {
    /// Total number of result paths (excluding unreachable pairs).
    pub fn num_paths(&self) -> usize {
        self.paths.iter().flatten().filter(|p| p.is_some()).count()
    }

    /// Network distance `‖s_i, t_j‖`, if connected.
    pub fn distance(&self, i: usize, j: usize) -> Option<f64> {
        self.paths[i][j].as_ref().map(|p| p.distance())
    }
}

/// Evaluate the MSMD query `(sources × targets)` under `policy` with a
/// throwaway [`SearchArena`]. Prefer [`msmd_in`] on a query stream.
///
/// # Panics
/// Panics if `sources` or `targets` is empty or contains an out-of-range
/// node — an obfuscated query always carries at least the true endpoints.
pub fn msmd<G: GraphView>(
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    policy: SharingPolicy,
) -> MsmdResult {
    msmd_in(&mut SearchArena::new(), g, sources, targets, policy)
}

/// Evaluate the MSMD query `(sources × targets)` under `policy` inside a
/// caller-provided arena, so repeated queries on the same graph reuse all
/// search buffers (see [`SearchArena`]).
///
/// # Panics
/// Panics if `sources` or `targets` is empty or contains an out-of-range
/// node — an obfuscated query always carries at least the true endpoints.
pub fn msmd_in<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    policy: SharingPolicy,
) -> MsmdResult {
    evaluate(arena, g, sources, targets, policy, None, None)
}

/// [`msmd_in`] with optional goal-directed (ALT) pruning: when `pre` is
/// `Some`, every tree is keyed by the landmark potential toward the
/// nearest of its targets it has not settled yet
/// ([`AltPreprocessing::goal_potential`], narrowed as goals settle — so a
/// tree aims at each target in turn and settles a subset of the unguided
/// tree however far apart the targets lie). Paths, distances, and
/// per-pair answers are identical to the unguided evaluation whenever
/// shortest paths are unique (relaxation still compares raw distances);
/// only the settle order and the settled/relaxed counters change. With
/// `None` this *is* [`msmd_in`], byte-for-byte.
///
/// The preprocessing must come from this graph — landmark tables built on
/// a symmetric view ([`AltPreprocessing::try_build`] enforces that).
///
/// # Panics
/// Panics if `sources` or `targets` is empty or contains an out-of-range
/// node — an obfuscated query always carries at least the true endpoints.
pub fn msmd_in_guided<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    policy: SharingPolicy,
    pre: Option<&AltPreprocessing>,
) -> MsmdResult {
    evaluate(arena, g, sources, targets, policy, pre, None)
}

/// [`msmd_in_guided`] with a shard-local [`TreeCache`]: the
/// **adopt-or-grow** MSMD entry point. Before growing a spanning tree, the
/// cache is consulted for a recorded sweep from the same root; when the
/// tree's goal is provably inside the recorded prefix (every goal node
/// settled, or the sweep complete — see [`crate::trace`]) the Dijkstra
/// sweep is skipped entirely: the paths are read from the cached labels and
/// the counters are the *byte-identical* snapshot at the goal's stop.
/// Otherwise the tree is grown for real, recorded, and re-stored — an
/// unguided one recorded to twice the depth its goal needed, so a somewhat
/// deeper goal from the same root adopts next time, while the counters
/// returned are still those of the sweep stopping at its goal (the logical
/// work, as for an adoption).
///
/// The answers and every counter are identical to [`msmd_in_guided`] under
/// the same policy and `pre` — caching, like execution strategy, must never
/// change a report byte. Only hit/miss counts ([`TreeCache::counters`])
/// reveal that a cache was present. Stored traces are stamped with the
/// potential they ran under — landmarks and goal set — and only adopted on
/// an exact match (see [`crate::dijkstra::run_tree`]), so guided and plain
/// traces sharing a root never alias, nor do guided traces toward different
/// goal sets.
///
/// # Panics
/// Panics if `sources` or `targets` is empty or contains an out-of-range
/// node — an obfuscated query always carries at least the true endpoints.
pub fn msmd_in_guided_cached<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    policy: SharingPolicy,
    pre: Option<&AltPreprocessing>,
    cache: &mut TreeCache,
) -> MsmdResult {
    evaluate(arena, g, sources, targets, policy, pre, Some(cache))
}

/// The one MSMD evaluator behind every public arity: validate once, pick
/// the policy's loop once, and let each tree go through
/// [`run_tree`] with whatever potential and cache the caller supplied.
fn evaluate<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    policy: SharingPolicy,
    pre: Option<&AltPreprocessing>,
    cache: Option<&mut TreeCache>,
) -> MsmdResult {
    assert!(!sources.is_empty() && !targets.is_empty(), "S and T must be non-empty");
    let n = g.num_nodes();
    for &x in sources.iter().chain(targets) {
        assert!(x.index() < n, "node {x} out of range");
    }

    match policy {
        SharingPolicy::None => naive(arena, g, sources, targets, pre, cache),
        // Transposed trees really grow from the targets, but the sweep
        // itself is an ordinary forward sweep (the view is symmetric), so
        // they share cache entries with source-rooted trees at the same
        // node.
        SharingPolicy::Auto if targets.len() < sources.len() && g.is_symmetric() => transpose(
            per_source(arena, g, targets, sources, pre, cache),
            sources.len(),
            targets.len(),
        ),
        SharingPolicy::PerSource | SharingPolicy::Auto => {
            per_source(arena, g, sources, targets, pre, cache)
        }
    }
}

/// One (possibly adopted) single-target tree per pair, each guided by its
/// target column's own potential, shared across the source rows. Within
/// one unit, the second pair of a source frequently hits the trace the
/// first pair just stored.
fn naive<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    pre: Option<&AltPreprocessing>,
    mut cache: Option<&mut TreeCache>,
) -> MsmdResult {
    let pots: Option<Vec<GoalPotential<'_>>> =
        pre.map(|p| targets.iter().map(|t| p.goal_potential(std::slice::from_ref(t))).collect());
    let mut stats = SearchStats::default();
    let mut per_tree = Vec::with_capacity(sources.len() * targets.len());
    let mut paths = Vec::with_capacity(sources.len());
    for &s in sources {
        let mut row = Vec::with_capacity(targets.len());
        for (j, &t) in targets.iter().enumerate() {
            let pot = pots.as_ref().map(|p| &p[j]);
            let (run, view) = run_tree(arena, g, s, &Goal::Single(t), pot, cache.as_deref_mut());
            row.push(view.path_to(t));
            stats.merge(run);
            per_tree.push(TreeStats { root: s, side: TreeSide::Source, stats: run });
        }
        paths.push(row);
    }
    MsmdResult { paths, stats, per_tree }
}

/// One (possibly adopted) multi-destination tree per source. All share
/// one [`GoalPotential`] over the target set; each tree retires from its
/// own live copy the targets it settles, so the sweep that has reached the
/// near targets aims at the far ones instead of at their spread.
fn per_source<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    pre: Option<&AltPreprocessing>,
    mut cache: Option<&mut TreeCache>,
) -> MsmdResult {
    let pot = pre.map(|p| p.goal_potential(targets));
    let mut stats = SearchStats::default();
    let mut per_tree = Vec::with_capacity(sources.len());
    let goal = Goal::Set(targets.to_vec());
    let mut paths = Vec::with_capacity(sources.len());
    for &s in sources {
        let (run, view) = run_tree(arena, g, s, &goal, pot.as_ref(), cache.as_deref_mut());
        paths.push(targets.iter().map(|&t| view.path_to(t)).collect());
        stats.merge(run);
        per_tree.push(TreeStats { root: s, side: TreeSide::Source, stats: run });
    }
    MsmdResult { paths, stats, per_tree }
}

/// Transpose a result computed with sources/targets swapped (undirected
/// networks only; paths are reversed back into `s → t` orientation, and
/// the per-tree attribution is flipped to [`TreeSide::Target`] — the trees
/// really grew from the original query's *targets*).
fn transpose(r: MsmdResult, num_sources: usize, num_targets: usize) -> MsmdResult {
    debug_assert_eq!(r.paths.len(), num_targets);
    let mut paths: Vec<Vec<Option<Path>>> =
        (0..num_sources).map(|_| vec![None; num_targets]).collect();
    for (j, row) in r.paths.into_iter().enumerate() {
        for (i, p) in row.into_iter().enumerate() {
            paths[i][j] = p.map(|mut p| {
                p.reverse();
                p
            });
        }
    }
    let per_tree =
        r.per_tree.into_iter().map(|t| TreeStats { side: TreeSide::Target, ..t }).collect();
    MsmdResult { paths, stats: r.stats, per_tree }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // (i, j) index the result matrix and both sets in lockstep
mod tests {
    use super::*;
    use crate::cache::tests::unbounded;
    use roadnet::generators::{GridConfig, NetworkClass, grid_network};

    fn net() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 16, height: 16, seed: 21, ..Default::default() }).unwrap()
    }

    fn sample_sets(n: u32) -> (Vec<NodeId>, Vec<NodeId>) {
        let sources = vec![NodeId(0), NodeId(n / 5), NodeId(n / 2)];
        let targets = vec![NodeId(n - 1), NodeId(n - n / 4), NodeId(2 * n / 3), NodeId(n / 7)];
        (sources, targets)
    }

    #[test]
    fn all_policies_agree_on_distances() {
        let g = net();
        let (s, t) = sample_sets(256);
        let naive = msmd(&g, &s, &t, SharingPolicy::None);
        for policy in [SharingPolicy::PerSource, SharingPolicy::Auto] {
            let r = msmd(&g, &s, &t, policy);
            for i in 0..s.len() {
                for j in 0..t.len() {
                    let d0 = naive.distance(i, j).unwrap();
                    let d1 = r.distance(i, j).unwrap();
                    assert!(
                        (d0 - d1).abs() < 1e-9,
                        "naive vs {} at ({i},{j}): {d0} vs {d1}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn paths_are_verifiable_and_oriented() {
        let g = net();
        let (s, t) = sample_sets(256);
        for policy in SharingPolicy::ALL {
            let r = msmd(&g, &s, &t, policy);
            for i in 0..s.len() {
                for j in 0..t.len() {
                    let p = r.paths[i][j].as_ref().unwrap();
                    assert_eq!(p.source(), s[i], "{}", policy.name());
                    assert_eq!(p.destination(), t[j], "{}", policy.name());
                    assert!(p.verify(&g, 1e-9), "{}", policy.name());
                }
            }
        }
    }

    #[test]
    fn sharing_reduces_settled_nodes() {
        let g = net();
        let (s, t) = sample_sets(256);
        let naive = msmd(&g, &s, &t, SharingPolicy::None);
        let shared = msmd(&g, &s, &t, SharingPolicy::PerSource);
        assert!(
            shared.stats.settled < naive.stats.settled,
            "shared {} vs naive {}",
            shared.stats.settled,
            naive.stats.settled
        );
        assert_eq!(shared.per_tree.len(), s.len());
        assert_eq!(naive.per_tree.len(), s.len() * t.len());
    }

    #[test]
    fn per_source_reuses_one_arena_across_queries() {
        let g = net();
        let (s, t) = sample_sets(256);
        let mut arena = SearchArena::new();
        let first = msmd_in(&mut arena, &g, &s, &t, SharingPolicy::PerSource);
        let cap = arena.capacity();
        for _ in 0..10 {
            let again = msmd_in(&mut arena, &g, &s, &t, SharingPolicy::PerSource);
            assert_eq!(again.stats, first.stats, "runs must be deterministic");
            assert_eq!(again.paths, first.paths);
        }
        assert_eq!(arena.capacity(), cap, "steady-state queries must not regrow the arena");
    }

    #[test]
    fn auto_picks_smaller_side() {
        let g = net();
        // 5 sources, 2 targets: auto should grow only 2 trees.
        let sources: Vec<NodeId> = (0..5).map(|i| NodeId(i * 40)).collect();
        let targets = vec![NodeId(255), NodeId(17)];
        let auto = msmd(&g, &sources, &targets, SharingPolicy::Auto);
        assert_eq!(auto.per_tree.len(), 2);
        // The transposed trees are attributed to the *targets* they grew
        // from, not misread as source trees.
        for (j, tree) in auto.per_tree.iter().enumerate() {
            assert_eq!((tree.root, tree.side), (targets[j], TreeSide::Target));
        }
        // And still answer all 10 pairs correctly.
        let naive = msmd(&g, &sources, &targets, SharingPolicy::None);
        for i in 0..5 {
            for j in 0..2 {
                assert!(
                    (auto.distance(i, j).unwrap() - naive.distance(i, j).unwrap()).abs() < 1e-9
                );
                let p = auto.paths[i][j].as_ref().unwrap();
                assert_eq!(p.source(), sources[i]);
                assert_eq!(p.destination(), targets[j]);
            }
        }
    }

    #[test]
    fn works_on_all_network_classes() {
        for class in NetworkClass::ALL {
            let g = class.generate(500, 3).unwrap();
            let n = g.num_nodes() as u32;
            let s = vec![NodeId(0), NodeId(n / 2)];
            let t = vec![NodeId(n - 1), NodeId(n / 3), NodeId(2 * n / 5)];
            for policy in SharingPolicy::ALL {
                let r = msmd(&g, &s, &t, policy);
                assert_eq!(r.num_paths(), 6, "{} under {}", class.name(), policy.name());
            }
        }
    }

    #[test]
    fn overlapping_sources_and_targets() {
        let g = net();
        let s = vec![NodeId(10), NodeId(20)];
        let t = vec![NodeId(20), NodeId(10)];
        for policy in SharingPolicy::ALL {
            let r = msmd(&g, &s, &t, policy);
            // Q(10,10) and Q(20,20) are trivial paths.
            assert!(r.paths[0][1].as_ref().unwrap().is_trivial(), "{}", policy.name());
            assert!(r.paths[1][0].as_ref().unwrap().is_trivial(), "{}", policy.name());
            assert!(r.paths[0][0].as_ref().unwrap().distance() > 0.0, "{}", policy.name());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sources_panic() {
        let g = net();
        let _ = msmd(&g, &[], &[NodeId(0)], SharingPolicy::PerSource);
    }

    #[test]
    fn policy_names() {
        assert_eq!(SharingPolicy::None.name(), "naive");
        assert_eq!(SharingPolicy::PerSource.name(), "per-source");
        assert_eq!(SharingPolicy::Auto.name(), "auto");
        assert_eq!(SharingPolicy::ALL.len(), 3);
    }

    #[test]
    fn auto_does_not_transpose_on_directed_graphs() {
        use roadnet::{GraphBuilder, Point};
        // Directed chain 0 → 1 → 2 with an expensive reverse detour
        // 2 → 3 → 0: transposing roles would compute wrong distances.
        let mut b = GraphBuilder::directed();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 10.0).unwrap();
        b.add_edge(NodeId(3), NodeId(0), 10.0).unwrap();
        let g = b.build().unwrap();
        assert!(!roadnet::GraphView::is_symmetric(&g));

        // 3 sources, 1 target: Auto would love to transpose, but must not.
        let sources = vec![NodeId(0), NodeId(1), NodeId(2)];
        let targets = vec![NodeId(2)];
        let auto = msmd(&g, &sources, &targets, SharingPolicy::Auto);
        let naive = msmd(&g, &sources, &targets, SharingPolicy::None);
        for i in 0..3 {
            assert_eq!(auto.distance(i, 0), naive.distance(i, 0), "source {i}");
        }
        // Directed distances are asymmetric: 0→2 is 2, 2→0 is 20.
        assert!((auto.distance(0, 0).unwrap() - 2.0).abs() < 1e-12);
        // Auto fell back to one tree per source, attributed to sources.
        assert_eq!(auto.per_tree.len(), 3);
        for (i, tree) in auto.per_tree.iter().enumerate() {
            assert_eq!((tree.root, tree.side), (sources[i], TreeSide::Source));
        }
    }

    #[test]
    fn cached_msmd_is_byte_identical_to_uncached_and_hits_on_reuse() {
        let g = net();
        let (s, t) = sample_sets(256);
        let alt = AltPreprocessing::try_build(&g, 5).unwrap();
        let mut plain_arena = SearchArena::new();
        let mut cached_arena = SearchArena::new();
        // Round 4 adds one target that settles, from some source, past
        // where round 1's plain per-source tree stopped, and from every
        // source inside the trace that miss recorded (twice its stop, or
        // the whole component).
        let deeper = {
            let n = g.num_nodes();
            let full: Vec<_> = s
                .iter()
                .map(|&x| {
                    crate::dijkstra::run_in_traced(&mut plain_arena, &g, x, &Goal::AllNodes).1
                })
                .collect();
            let at = |i: usize, x: NodeId| full[i].position(x).unwrap();
            let stop: Vec<usize> =
                (0..s.len()).map(|i| t.iter().map(|&x| at(i, x)).max().unwrap() + 1).collect();
            let x = (0..n as u32)
                .map(NodeId)
                .find(|&x| {
                    (0..s.len()).all(|i| at(i, x) < (2 * stop[i]).min(n))
                        && (0..s.len()).any(|i| at(i, x) >= stop[i])
                })
                .expect("a target between one stop and twice it");
            let mut deeper = t.clone();
            deeper.push(x);
            deeper
        };
        for pre in [None, Some(&alt)] {
            for policy in SharingPolicy::ALL {
                let tag = format!("{} guided={}", policy.name(), pre.is_some());
                let mut cache = unbounded();
                // Round 1: cold cache — everything misses but must still
                // match the uncached engine exactly, stats included.
                // Rounds 2..: warm cache — hits replay the same bytes.
                for (round, t) in [&t, &t, &t, &deeper].into_iter().enumerate() {
                    let hits_before = cache.counters().0;
                    let reference = msmd_in_guided(&mut plain_arena, &g, &s, t, policy, pre);
                    let cached = msmd_in_guided_cached(
                        &mut cached_arena,
                        &g,
                        &s,
                        t,
                        policy,
                        pre,
                        &mut cache,
                    );
                    assert_eq!(cached.stats, reference.stats, "{tag} round {round}");
                    assert_eq!(
                        cached.per_tree.len(),
                        reference.per_tree.len(),
                        "{tag} round {round}"
                    );
                    for (a, b) in cached.per_tree.iter().zip(&reference.per_tree) {
                        assert_eq!(a, b, "{tag} round {round}: per-tree stats diverged");
                    }
                    for i in 0..s.len() {
                        for j in 0..t.len() {
                            assert_eq!(
                                cached.paths[i][j], reference.paths[i][j],
                                "{tag} round {round} pair ({i},{j})"
                            );
                        }
                    }
                    // The plain per-source misses of round 1 recorded past
                    // their goal sets, so the deeper round adopts every tree.
                    if round == 3 && pre.is_none() && policy != SharingPolicy::None {
                        assert_eq!(
                            cache.counters().0 - hits_before,
                            s.len() as u64,
                            "{tag} round {round}"
                        );
                    }
                }
                // Guided `None` carries one potential per (root, target)
                // pair, so a single-slot-per-root cache may churn between
                // them and warm rounds are not guaranteed to hit.
                if pre.is_none() || policy != SharingPolicy::None {
                    assert!(cache.counters().0 > 0, "{tag}: warm rounds must hit");
                }
                assert!(cache.counters().1 > 0, "{tag}: the cold round must miss");
            }
        }
    }

    #[test]
    fn cached_auto_transposition_shares_roots_with_source_trees() {
        let g = net();
        // 5 sources, 2 targets: Auto transposes, rooting trees at the two
        // targets — which then serve as cache entries for a later query
        // where those nodes appear as *sources* (symmetric view).
        let sources: Vec<NodeId> = (0..5).map(|i| NodeId(i * 40)).collect();
        let targets = vec![NodeId(255), NodeId(17)];
        let mut arena = SearchArena::new();
        let mut cache = unbounded();
        let auto = msmd_in_guided_cached(
            &mut arena,
            &g,
            &sources,
            &targets,
            SharingPolicy::Auto,
            None,
            &mut cache,
        );
        assert_eq!(auto.per_tree.len(), 2);
        assert_eq!(cache.counters().1, 2);

        // Same roots, now as sources of a PerSource query with nearby
        // goals: both trees adopt (the transposed sweeps covered the whole
        // source spread, which includes these goals).
        let reference = msmd(&g, &targets, &[NodeId(0), NodeId(80)], SharingPolicy::PerSource);
        let cached = msmd_in_guided_cached(
            &mut arena,
            &g,
            &targets,
            &[NodeId(0), NodeId(80)],
            SharingPolicy::PerSource,
            None,
            &mut cache,
        );
        assert_eq!(cache.counters().0, 2, "transposed trees are reusable as forward trees");
        assert_eq!(cached.stats, reference.stats);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(cached.paths[i][j], reference.paths[i][j]);
            }
        }
    }

    #[test]
    fn cached_msmd_handles_disconnected_pairs() {
        use roadnet::{GraphBuilder, Point};
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(4), NodeId(5), 1.0).unwrap();
        let g = b.build().unwrap();
        let s = [NodeId(0), NodeId(4)];
        let t = [NodeId(2), NodeId(5)];
        let mut cache = unbounded();
        let mut arena = SearchArena::new();
        for round in 0..2 {
            let reference = msmd(&g, &s, &t, SharingPolicy::PerSource);
            let cached = msmd_in_guided_cached(
                &mut arena,
                &g,
                &s,
                &t,
                SharingPolicy::PerSource,
                None,
                &mut cache,
            );
            assert_eq!(cached.stats, reference.stats, "round {round}");
            for i in 0..2 {
                for j in 0..2 {
                    assert_eq!(cached.paths[i][j], reference.paths[i][j], "round {round}");
                }
            }
        }
        // Unreachable targets force complete sweeps, which are adoptable:
        // the second round is all hits.
        assert_eq!(cache.counters(), (2, 2));
    }

    #[test]
    fn guided_msmd_matches_plain_paths_and_prunes_settles() {
        let g = net();
        let (s, t) = sample_sets(256);
        let pre = AltPreprocessing::try_build(&g, 6).unwrap();
        let mut arena = SearchArena::new();
        let mut settled_guided = 0u64;
        let mut settled_plain = 0u64;
        for policy in SharingPolicy::ALL {
            let plain = msmd_in(&mut arena, &g, &s, &t, policy);
            let guided = msmd_in_guided(&mut arena, &g, &s, &t, policy, Some(&pre));
            for i in 0..s.len() {
                for j in 0..t.len() {
                    assert_eq!(
                        guided.paths[i][j],
                        plain.paths[i][j],
                        "{} pair ({i},{j}): guided path diverged",
                        policy.name()
                    );
                }
            }
            settled_guided += guided.stats.settled;
            settled_plain += plain.stats.settled;
            // And None-preprocessing is byte-identical to the plain entry.
            let none = msmd_in_guided(&mut arena, &g, &s, &t, policy, None);
            assert_eq!(none.stats, plain.stats, "{}", policy.name());
        }
        assert!(
            settled_guided <= settled_plain,
            "ALT settled {settled_guided} vs plain {settled_plain}"
        );
    }

    #[test]
    fn guided_cached_is_byte_identical_and_never_adopts_plain_traces() {
        let g = net();
        let (s, t) = sample_sets(256);
        let pre = AltPreprocessing::try_build(&g, 5).unwrap();
        let mut arena = SearchArena::new();
        let mut cached_arena = SearchArena::new();
        for policy in SharingPolicy::ALL {
            let mut cache = unbounded();
            // Seed the cache with PLAIN traces for the same roots: the
            // guided runner must refuse them all (potential mismatch).
            let _ = msmd_in_guided_cached(&mut cached_arena, &g, &s, &t, policy, None, &mut cache);
            let (plain_hits, plain_misses) = cache.counters();
            for round in 0..2 {
                let reference = msmd_in_guided(&mut arena, &g, &s, &t, policy, Some(&pre));
                let cached = msmd_in_guided_cached(
                    &mut cached_arena,
                    &g,
                    &s,
                    &t,
                    policy,
                    Some(&pre),
                    &mut cache,
                );
                assert_eq!(cached.stats, reference.stats, "{} round {round}", policy.name());
                for (a, b) in cached.per_tree.iter().zip(&reference.per_tree) {
                    assert_eq!(a, b, "{} round {round}", policy.name());
                }
                for i in 0..s.len() {
                    for j in 0..t.len() {
                        assert_eq!(cached.paths[i][j], reference.paths[i][j]);
                    }
                }
                if round == 0 {
                    assert_eq!(
                        cache.counters().0,
                        plain_hits,
                        "{}: plain traces must never serve guided sweeps",
                        policy.name()
                    );
                }
            }
            // Under None each (root, target) pair carries its own potential
            // params, so a single-slot-per-root cache may churn between them
            // and a second round is not guaranteed to hit; set-potential
            // policies share one params value per batch and must hit.
            if policy != SharingPolicy::None {
                assert!(
                    cache.counters().0 > plain_hits,
                    "{}: guided round 2 must hit guided traces",
                    policy.name()
                );
            }
            assert!(
                cache.counters().1 > plain_misses,
                "{}: guided round 1 must miss",
                policy.name()
            );
        }
    }
}
