//! The shared-frontier MSMD engine behind
//! [`SharingPolicy::SharedFrontier`](crate::multi::SharingPolicy) — one of
//! the crate's two label-setting loops (the other is the single-tree loop
//! in `dijkstra.rs`), called by `multi::evaluate` for `|S|×|T|` queries and
//! by [`crate::bidirectional()`] as its 1×1 case.
//!
//! All spanning trees of an obfuscated query grow in **one interleaved
//! sweep**: every tree's tentative labels live in one [`SearchArena`] and
//! compete in one heap, so the globally closest frontier node settles next
//! regardless of which tree owns it — the multi-tree generalization of
//! balanced bidirectional growth.
//!
//! The engine grows `|S|`
//! forward trees *and* `|T|` backward trees and resolves each pair
//! `(s, t)` by the bidirectional meeting rule: track the best connecting
//! distance `μ(s,t)` seen through any commonly-labelled node, and finalize
//! the pair once the two trees' settled radii sum to at least `μ` (the
//! classic stopping criterion, applied per pair). Each tree retires the
//! moment its last open pair resolves — per-source early termination —
//! so every tree stops near *half* the distance it would have to cover
//! alone, which is why this policy settles strictly fewer nodes than
//! [`SharingPolicy::PerSource`](crate::multi::SharingPolicy) on planar
//! maps (two half-radius balls cover about half the area of one
//! full-radius ball).
//!
//! Backward trees reuse the forward adjacency, so the view must be
//! **symmetric** (undirected); both callers check that before they get
//! here, and `multi::evaluate` answers a directed view with its
//! per-source evaluator instead.

use crate::alt::BiPotential;
use crate::arena::{FrontierScratch, NIL, SearchArena};
use crate::multi::{MsmdResult, TreeSide, TreeStats};
use crate::path::Path;
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};

/// Evaluate `sources × targets` with the shared-frontier engine inside
/// `arena`, under an optional ALT potential pair: forward trees are keyed
/// by `dist + pf(n)`, backward trees by `dist − pf(n)` — a feasible pair
/// (the two tree-side potentials sum to zero), so reduced
/// forward/backward lengths still add up to true path lengths and the
/// per-pair stopping rule is unchanged. With `None` (or the all-zero
/// `pf`) the keys equal the raw distances bit-for-bit. Inputs, and that
/// the view is symmetric, are validated by the callers.
pub(crate) fn shared_frontier<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    pot: Option<&BiPotential<'_>>,
) -> MsmdResult {
    debug_assert!(g.is_symmetric(), "backward trees reuse forward arcs");
    match pot {
        Some(p) => bidirectional_sweep(arena, g, sources, targets, &|n| p.pf(n)),
        None => bidirectional_sweep(arena, g, sources, targets, &|_| 0.0),
    }
}

/// `|S|` forward + `|T|` backward trees, one heap, per-pair bidirectional
/// termination. `pf` is the forward-tree potential (backward trees
/// subtract it); keys live in *reduced* space while labels and meeting
/// distances stay raw.
fn bidirectional_sweep<G: GraphView, F: Fn(NodeId) -> f64>(
    arena: &mut SearchArena,
    g: &G,
    sources: &[NodeId],
    targets: &[NodeId],
    pf: &F,
) -> MsmdResult {
    let (ns, nt) = (sources.len(), targets.len());
    let k = ns + nt;
    let n = g.num_nodes();
    arena.begin(n, k);

    let mut fs = arena.take_frontier_scratch();
    fs.mu.clear();
    fs.mu.resize(ns * nt, f64::INFINITY);
    fs.meet.clear();
    fs.meet.resize(ns * nt, NIL);
    fs.done.clear();
    fs.done.resize(ns * nt, false);
    fs.radius.clear();
    fs.radius.resize(k, 0.0);
    fs.open.clear();
    fs.open.resize(k, 0);
    for o in fs.open.iter_mut().take(ns) {
        *o = nt as u32;
    }
    for o in fs.open.iter_mut().skip(ns) {
        *o = ns as u32;
    }

    let mut per_tree: Vec<TreeStats> = sources
        .iter()
        .map(|&s| TreeStats { root: s, side: TreeSide::Source, stats: SearchStats::one_run() })
        .chain(targets.iter().map(|&t| TreeStats {
            root: t,
            side: TreeSide::Target,
            stats: SearchStats::one_run(),
        }))
        .collect();

    for (tree, &root) in sources.iter().chain(targets.iter()).enumerate() {
        // Keys live in reduced space: forward trees add pf, backward trees
        // subtract it (subtraction, not negation, so the zero potential
        // leaves every bit of the unguided sweep intact).
        let key = if tree < ns { 0.0 + pf(root) } else { 0.0 - pf(root) };
        arena.label(tree, root, 0.0, None);
        arena.push(key, 0.0, tree, root);
        // Radii are key-space quantities too: seed at the root key, not
        // zero — a backward root's key is −pf(root) ≤ 0, and a zero seed
        // would overstate the radius and close pairs before their true
        // shortest connection is proven.
        fs.radius[tree] = key;
        per_tree[tree].stats.heap_pushes += 1;
    }

    // Trees whose pair set is still open; the sweep ends when none remain
    // (or the heap drains, for disconnected pairs).
    let mut live = k;
    while live > 0 {
        let Some(e) = arena.pop() else { break };
        let tree = e.tree as usize;
        per_tree[tree].stats.heap_pops += 1;
        if fs.open[tree] == 0 || !arena.is_fresh(&e) {
            continue; // retired tree, or lazy-deletion residue
        }
        arena.settle(tree, e.node);
        per_tree[tree].stats.settled += 1;
        fs.radius[tree] = e.key;

        // Settle-time meeting check: the settled node may already carry a
        // label in an opposite tree.
        record_meetings(arena, &mut fs.mu, &mut fs.meet, ns, nt, tree, e.node);

        // Expand. Label-time meeting checks are what make the per-pair
        // stopping rule exact: every label creation or improvement is a
        // successful relax (roots excepted — the settle-time check above
        // covers those), so checking only on success keeps μ equal to the
        // min over *final* labels while skipping the O(|T|) scan on the
        // majority of arcs whose relaxation changes nothing. Candidates
        // are raw distances (e.dist, not the reduced-space e.key).
        let d_node = e.dist;
        let forward = tree < ns;
        let stats = &mut per_tree[tree].stats;
        g.for_each_arc(e.node, &mut |to, w| {
            stats.relaxed += 1;
            let cand = d_node + w;
            let key = || if forward { cand + pf(to) } else { cand - pf(to) };
            if arena.relax_keyed(tree, e.node, to, cand, key) {
                stats.heap_pushes += 1;
                record_meetings(arena, &mut fs.mu, &mut fs.meet, ns, nt, tree, to);
            }
        });

        // Only this tree's radius moved and only its pairs' μ changed, so
        // a closure scan over this tree's row (or column) is complete.
        if tree < ns {
            for j in 0..nt {
                try_close(&mut fs, &mut live, ns, nt, tree, j);
            }
        } else {
            let j = tree - ns;
            for i in 0..ns {
                try_close(&mut fs, &mut live, ns, nt, i, j);
            }
        }
    }

    // Stitch each pair's path: forward chain to the meeting node, then the
    // backward chain out to the target (parents of a backward tree lead
    // *to* the target; edge weights are symmetric by assumption). The
    // reported distance is re-accumulated source→target along the stitched
    // sequence rather than taken from `μ`: `μ` sums two half-distances at
    // whichever meeting node a particular sweep discovered first, so two
    // exact sweeps of the same pair (e.g. plain vs ALT-guided) can disagree
    // in the last ulp even though the path is identical. Forward
    // re-accumulation matches the single-tree Dijkstra sum bit-for-bit.
    let mut paths: Vec<Vec<Option<Path>>> = Vec::with_capacity(ns);
    for i in 0..ns {
        let mut row = Vec::with_capacity(nt);
        for j in 0..nt {
            let p = i * nt + j;
            if fs.mu[p].is_finite() {
                let m = NodeId(fs.meet[p]);
                let mut nodes = vec![m];
                arena.walk_parents(i, m, &mut nodes); // m … s_i
                nodes.reverse(); // s_i … m
                arena.walk_parents(ns + j, m, &mut nodes); // … t_j
                let d = forward_distance(g, &nodes);
                row.push(Some(Path::new(nodes, d)));
            } else {
                row.push(None);
            }
        }
        paths.push(row);
    }
    arena.put_frontier_scratch(fs);

    let stats = per_tree.iter().map(|t| t.stats).sum();
    MsmdResult { paths, stats, per_tree }
}

/// Left-to-right accumulation of arc weights along `nodes`, exactly the
/// sum a forward Dijkstra sweep would have produced for the same path.
/// Parallel arcs resolve to the cheapest, matching what any shortest-path
/// sweep would relax.
fn forward_distance<G: GraphView>(g: &G, nodes: &[NodeId]) -> f64 {
    let mut d = 0.0;
    for hop in nodes.windows(2) {
        let mut w_min = f64::INFINITY;
        g.for_each_arc(hop[0], &mut |to, w| {
            if to == hop[1] && w < w_min {
                w_min = w;
            }
        });
        d += w_min;
    }
    d
}

/// Finalize pair `(i, j)` if its best connection is provably shortest:
/// once the two trees' settled radii sum to at least `μ`, no unexplored
/// label can improve it (every future settle in either tree carries a key
/// at least its current radius).
#[inline]
fn try_close(fs: &mut FrontierScratch, live: &mut usize, ns: usize, nt: usize, i: usize, j: usize) {
    let p = i * nt + j;
    if !fs.done[p] && fs.mu[p] <= fs.radius[i] + fs.radius[ns + j] {
        fs.done[p] = true;
        fs.open[i] -= 1;
        if fs.open[i] == 0 {
            *live -= 1;
        }
        fs.open[ns + j] -= 1;
        if fs.open[ns + j] == 0 {
            *live -= 1;
        }
    }
}

/// Record pair meetings through `node`, which just gained (or already
/// carries) a label in `tree`: for every *opposite* tree that has labelled
/// `node`, the sum of the two labels is a connecting-path length.
#[inline]
fn record_meetings(
    arena: &SearchArena,
    mu: &mut [f64],
    meet: &mut [u32],
    ns: usize,
    nt: usize,
    tree: usize,
    node: NodeId,
) {
    let d_here = arena.dist_raw(tree, node);
    if tree < ns {
        for j in 0..nt {
            if arena.is_labelled(ns + j, node) {
                let through = d_here + arena.dist_raw(ns + j, node);
                let p = tree * nt + j;
                if through < mu[p] {
                    mu[p] = through;
                    meet[p] = node.0;
                }
            }
        }
    } else {
        let j = tree - ns;
        for i in 0..ns {
            if arena.is_labelled(i, node) {
                let through = d_here + arena.dist_raw(i, node);
                let p = i * nt + j;
                if through < mu[p] {
                    mu[p] = through;
                    meet[p] = node.0;
                }
            }
        }
    }
}
