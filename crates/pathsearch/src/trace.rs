//! Reusable shortest-path-tree traces — the extraction/adoption layer
//! behind the service's shard-local tree cache.
//!
//! Lemma 1 prices an obfuscated query by the spanning trees the server
//! grows, and hotspot/commuter workloads make many queries share roots:
//! the same tree gets recomputed over and over. A [`SweepTrace`] is the
//! reusable form of one Dijkstra sweep: the settled `(node, dist)` labels
//! **in settle order**, each naming its tree parent by the parent's
//! *settle index* (its position in that order, which is always earlier),
//! with a column beside them of the sweep's `relaxed` count at each
//! settle. A trace that settled most of its map also keeps its tree *by
//! node*: one parent-node entry per map node, which a path is read from
//! hop by hop.
//! Because Dijkstra from a fixed root is deterministic and its goal only
//! ever decides *when to stop*, any two sweeps from the same root *under
//! one heap potential* are prefixes of one another (a goal-directed
//! potential reshapes the settle order, so traces are stamped with it —
//! [`SweepTrace::potential`] — and never adopted across). Adopting a
//! trace for a goal is therefore a **read of its goal-stop prefix**: the
//! events a fresh sweep with that goal would settle before stopping.
//! [`crate::dijkstra::run_tree`] answers a hit with a [`TreeView`] over
//! that prefix — a path is read by chasing the target's parents, through
//! the parent column where the trace keeps one and through the events'
//! parent indices otherwise, and the arena is never touched — which gives
//! the two guarantees the cache needs:
//!
//! * **answers** — adopted labels are settled, hence exact; paths read
//!   back identically to a fresh run;
//! * **accounting** — the per-settle counter snapshots are exactly the
//!   values a fresh sweep would report when stopping there, so a cache
//!   hit is *byte-identical* in every stats field to the sweep it
//!   replaced. Execution strategy and cache policy both stay invisible
//!   to reports (the PR-3 invariant, extended to caching).
//!
//! A trace is only adoptable when the goal is **provably inside** the
//! recorded prefix: every goal node must be settled in the trace (the
//! early-termination rule would have stopped within it), or the trace
//! must be complete (the sweep exhausted the root's component, so absent
//! nodes are proven unreachable). Anything else is a miss. On a plain
//! miss, [`crate::dijkstra::run_tree`] records the sweep to twice the
//! depth its goal needed (or to exhaustion) and re-stores that, so the
//! next, somewhat deeper goal from the same root adopts; the counters it
//! reports are still the goal-stopping sweep's, read back from the trace
//! (`SweepTrace::stats_for`, the one stop→counters rule).
//!
//! Replaying a trace into a [`SearchArena`] survives only as
//! [`SweepTrace::adopt_into`]: the benchmark's adoption probe times it,
//! and tests use the replayed arena as the oracle the read is checked
//! against.
//!
//! A live-traffic weight update need not cost a stored trace its value:
//! [`SweepTrace::repair`] rewrites a complete plain trace in place into
//! exactly the trace a fresh sweep records on the reweighted map,
//! recomputing only the labels that move and rewriting only the window of
//! settle order they cross.
//!
//! The traces live in a [`crate::TreeCache`] ([`crate::cache`]), the
//! capacity-bounded LRU the adopt-or-grow entry point
//! ([`crate::dijkstra::run_tree`]) adopts from and stores into; it owns
//! the `(map_epoch, root)` keying, the keep-the-deeper rule and the
//! invalidation and repair story.

use crate::alt::PotentialParams;
use crate::arena::{NIL, SearchArena, ord_of};
use crate::dijkstra::Goal;
use crate::path::Path;
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One settle event of a recorded sweep: the final label and where its
/// tree parent settled. The counter snapshot at this settle is the
/// trace's `relaxed` column.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SettleEvent {
    /// The settled node.
    pub(crate) node: u32,
    /// Settle index of its tree parent — always an earlier event — or
    /// [`NIL`] for the root.
    pub(crate) parent: u32,
    /// Its final (exact) distance from the root.
    pub(crate) dist: f64,
}

const _: () = assert!(size_of::<SettleEvent>() == 16);

/// A recorded Dijkstra sweep: settle-ordered labels with per-event
/// counter snapshots, read by [`crate::dijkstra::run_tree`] through a
/// [`TreeView`].
#[derive(Clone, Debug)]
pub struct SweepTrace {
    root: NodeId,
    nodes: usize,
    events: Vec<SettleEvent>,
    /// Per event, the arc relaxations performed *before* its node expanded
    /// its arcs — what a sweep stopping there would report. A `u32` holds
    /// it: a sweep relaxes each arc at most once, and a map's arc offsets
    /// are `u32`.
    relaxed: Vec<u32>,
    /// The settled-set index: node → settle index (and, when dense, the
    /// tree by node).
    index: SettledIndex,
    /// Counters at sweep end — what a fresh exhausting sweep reports.
    final_stats: SearchStats,
    /// Whether the sweep exhausted the root's component (no early stop),
    /// i.e. every reachable node is settled and absence proves
    /// unreachability.
    complete: bool,
    /// Whether the events are strictly increasing in [`settle_key`] — the
    /// premise [`SweepTrace::repair`]'s order rule needs. Checked once, as
    /// the recorder writes the events; a repair merges sorted runs, so a
    /// repaired trace keeps it.
    ordered: bool,
    /// The goal-directed potential the sweep ran under — its landmarks and
    /// goal set (`None` for plain Dijkstra). Guided sweeps settle in
    /// potential-key order, re-keyed as goals of that set settle, so their
    /// counter snapshots only replay a sweep under the *same* potential;
    /// [`crate::dijkstra::run_tree`] compares this before adopting.
    potential: Option<PotentialParams>,
}

impl SweepTrace {
    /// Assemble a trace from a finished sweep's parts, stamped with the
    /// potential it ran under (crate-internal: only the recording sweep
    /// behind [`crate::dijkstra::run_tree`] and
    /// [`crate::dijkstra::run_in_traced`] produces consistent ones).
    /// `index` is the recorder's node → settle-index map, one entry per
    /// map node; its entries for nodes this sweep did not settle are
    /// stale. `relaxed` holds each event's counter snapshot. `ordered` is
    /// whether the recorder wrote the events strictly increasing in
    /// [`settle_key`]. The root is the first event's node: a sweep settles
    /// its root first.
    pub(crate) fn from_parts(
        mut events: Vec<SettleEvent>,
        mut relaxed: Vec<u32>,
        ordered: bool,
        index: &[u32],
        final_stats: SearchStats,
        complete: bool,
        potential: Option<PotentialParams>,
    ) -> Self {
        // The recorder reserves one slot per node up front; a trace can
        // live in a cache for a long time, so give back the unused tail —
        // an early-stopped sweep must cost memory proportional to what it
        // settled, not to the map.
        events.shrink_to_fit();
        relaxed.shrink_to_fit();
        let (root, nodes) = (NodeId(events[0].node), index.len());
        let index = SettledIndex::scan(&events, index, complete);
        SweepTrace {
            root,
            nodes,
            events,
            relaxed,
            index,
            final_stats,
            complete,
            ordered,
            potential,
        }
    }

    /// The goal-directed potential the recorded sweep ran under, if any.
    /// Adoption is only sound under the identical potential (or `None`
    /// against `None`): the settle *order* — and with it every counter
    /// snapshot — depends on it.
    pub fn potential(&self) -> Option<&PotentialParams> {
        self.potential.as_ref()
    }

    /// The node the sweep grew from.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node count of the graph the sweep ran on (adoption refuses other
    /// sizes — a different map must be a different cache epoch anyway).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of settled nodes recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty (never — sweeps settle their root — but
    /// the conventional pair to [`SweepTrace::len`]).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether the sweep exhausted its component.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The settled nodes in settle order (nearest-first). Lets callers
    /// measure a sweep's *spatial footprint* — e.g. how much of it falls
    /// inside one shard's region under region-owned placement — without
    /// exposing the per-event counter snapshots.
    pub fn settled(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.events.iter().map(|e| NodeId(e.node))
    }

    /// Settle-order index of `node`, if the sweep settled it.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        match self.index.at(node.0) {
            NIL => None,
            i => Some(i as usize),
        }
    }

    /// Whether this recorded sweep depends on any of the given edges, each
    /// described by its endpoint pair — which cached traces a live-traffic
    /// weight update must repair or evict.
    ///
    /// A sweep is affected by an edge `(a, b)` iff it settled `a` or `b`.
    /// Soundness: every arc a sweep relaxes leaves a settled node, so an
    /// edge with both endpoints unsettled was never relaxed during the
    /// recorded prefix, and every relaxation *into* `a` or `b` came over an
    /// unchanged arc — a fresh sweep on the updated map replays the prefix
    /// (labels and counter snapshots) byte-identically. For complete
    /// traces, both endpoints unsettled means the edge is unreachable from
    /// the root, and finite non-negative reweighting cannot change
    /// reachability, so the exhausted sweep replays too. A trace that
    /// returns `false` here therefore stays exact under the update; one
    /// that returns `true` must be repaired ([`SweepTrace::repair`]) or
    /// evicted before it can be adopted.
    pub fn touches_any(&self, endpoints: &[(NodeId, NodeId)]) -> bool {
        endpoints.iter().any(|&(a, b)| self.position(a).is_some() || self.position(b).is_some())
    }

    /// Rewrite this trace in place into exactly the trace a fresh
    /// [`Goal::AllNodes`] sweep from the same root records on `g`, the map
    /// after a weight update whose changed edges are `changes` — the same
    /// events (node, parent index, distance bits), `relaxed` snapshots,
    /// settled-set index and parent column, the same final counters.
    /// Returns `false` when the trace cannot be repaired; it must then be
    /// dropped.
    ///
    /// Only a complete, plain (unguided) trace recorded in settle-key
    /// order on a map of `g`'s size is repaired, and only on a symmetric
    /// `g` (a node's in-arcs are its out-arcs). Anything else returns
    /// `false` untouched.
    ///
    /// The repair is incremental (after Ramalingam & Reps): it recomputes
    /// only the labels that can move and rewrites only the stretch of
    /// settle order they cross.
    ///
    /// * **Rises.** When the cheapest arc `x → y` got dearer and `x` is
    ///   `y`'s recorded parent, `y`'s recorded subtree is a candidate set,
    ///   closed through the map (a tree child is a neighbour naming the
    ///   node as its parent): its labels restart at ∞ and are seeded from
    ///   their non-candidate neighbours. Every other label keeps a
    ///   recorded tree path that avoids each risen arc, so it cannot grow.
    /// * **Falls.** A cheaper arc out of a non-candidate seeds its head
    ///   when it improves the head's label.
    /// * A Dijkstra from the seeds, relaxing with the sweep's strict `<`
    ///   and its float expression `d + w`, reaches the new fixed point.
    /// * **Order.** A plain sweep settles in the `(dist, node)` order its
    ///   integer frontier pops, so the nodes whose distance did not move
    ///   keep their relative order and the moved ones merge in, sorted.
    ///   Only the window of settle indices spanning the moved events' old
    ///   and new positions changes; its ends are binary searches of the
    ///   sorted, unmoved events before and after it. An event outside the
    ///   window keeps its index.
    /// * **Parents.** A node's parent is the earliest-settled neighbour `u`
    ///   with `d_u + w == d_v` (the first strict improver wins). It is
    ///   recomputed for moved nodes, their neighbours and the changed
    ///   endpoints; every other parent keeps its node, so the parent
    ///   column changes exactly at the recomputed ones. Parent indices are
    ///   re-mapped inside the window and by one sequential scan of the
    ///   events after it — those before it cannot point into it.
    /// * **Counters.** `relaxed` snapshots are prefix sums of out-degree in
    ///   settle order, and the degrees are differences of the old
    ///   snapshots; outside the window each snapshot sums the same events,
    ///   so only the window's are rewritten. Reweighting keeps
    ///   reachability, so the final counters and completeness stay.
    ///
    /// A repair costs the labels that move (and their arcs) plus the
    /// window and the events after it, not a pass over the whole trace.
    ///
    /// The premise of the order rule — every node has a tight neighbour
    /// that settles before it — can fail only on zero-weight arcs (or sums
    /// that absorb a weight); the repair checks it and returns `false`
    /// instead, with the trace untouched.
    pub fn repair<G: GraphView>(
        &mut self,
        g: &G,
        changes: &[EdgeChange],
        scratch: &mut RepairScratch,
    ) -> bool {
        if !self.complete
            || !self.ordered
            || self.potential.is_some()
            || !g.is_symmetric()
            || self.nodes != g.num_nodes()
        {
            return false;
        }
        let s = scratch;
        s.begin(self.events.len());
        let repaired = self.relabel(g, changes, s) && {
            self.reorder(s);
            s.new_index(0) == 0 && self.reparent(g, s)
        };
        if repaired {
            self.rewrite(s);
        } else {
            for &(i, old) in &s.touched {
                self.events[i as usize].dist = old;
            }
        }
        s.end();
        repaired
    }

    /// [`SweepTrace::repair`]'s labels: every event's `dist` becomes its
    /// distance on `g`, with the overwritten ones logged in `s.touched`.
    /// Returns whether every candidate was reached again — finite
    /// reweighting keeps reachability, so anything else is a stale trace.
    fn relabel<G: GraphView>(
        &mut self,
        g: &G,
        changes: &[EdgeChange],
        s: &mut RepairScratch,
    ) -> bool {
        // The changed arcs inside the trace, with their old and new
        // cheapest weights; both endpoints need their parents rechecked.
        for c in changes {
            for (x, y, old) in [(c.a, c.b, c.old_ab), (c.b, c.a, c.old_ba)] {
                let (Some(ix), Some(iy)) = (self.position(x), self.position(y)) else {
                    continue;
                };
                s.arcs.push((ix as u32, iy as u32, old, cheapest_arc(g, x, y)));
                s.mark_recheck(ix);
                s.mark_recheck(iy);
            }
        }
        // The rise roots, then their subtrees: `touched` is the walk's
        // queue, and each candidate restarts at ∞.
        for k in 0..s.arcs.len() {
            let (ix, iy, old, new) = s.arcs[k];
            let iy = iy as usize;
            if new > old && self.events[iy].parent == ix && s.flags[iy] & CANDIDATE == 0 {
                s.flags[iy] |= CANDIDATE;
                s.touch(iy, &mut self.events[iy], f64::INFINITY);
            }
        }
        let mut k = 0;
        while k < s.touched.len() {
            let i = s.touched[k].0;
            g.for_each_arc(NodeId(self.events[i as usize].node), &mut |u, _| {
                let j = self.index.at(u.0) as usize;
                if self.events[j].parent == i && s.flags[j] & CANDIDATE == 0 {
                    s.flags[j] |= CANDIDATE;
                    s.touch(j, &mut self.events[j], f64::INFINITY);
                }
            });
            k += 1;
        }
        // Seeds: the candidates from their non-candidate neighbours, then
        // the heads of fallen arcs.
        for k in 0..s.touched.len() {
            let i = s.touched[k].0 as usize;
            let mut best = f64::INFINITY;
            g.for_each_arc(NodeId(self.events[i].node), &mut |u, w| {
                let j = self.index.at(u.0) as usize;
                if s.flags[j] & CANDIDATE == 0 {
                    let cand = self.events[j].dist + w;
                    if cand < best {
                        best = cand;
                    }
                }
            });
            self.events[i].dist = best;
            if best < f64::INFINITY {
                s.heap.push(Reverse((ord_of(best), i as u32)));
            }
        }
        for k in 0..s.arcs.len() {
            let (ix, iy, old, new) = s.arcs[k];
            let (ix, iy) = (ix as usize, iy as usize);
            if new < old && s.flags[ix] & CANDIDATE == 0 {
                let cand = self.events[ix].dist + new;
                if cand < self.events[iy].dist {
                    s.touch(iy, &mut self.events[iy], cand);
                }
            }
        }
        // The Dijkstra from the seeds: a popped label is final.
        while let Some(Reverse((key, i))) = s.heap.pop() {
            let i = i as usize;
            if s.flags[i] & DONE != 0 || key != ord_of(self.events[i].dist) {
                continue;
            }
            s.flags[i] |= DONE;
            let d = self.events[i].dist;
            g.for_each_arc(NodeId(self.events[i].node), &mut |u, w| {
                let j = self.index.at(u.0) as usize;
                let cand = d + w;
                if s.flags[j] & DONE == 0 && cand < self.events[j].dist {
                    s.touch(j, &mut self.events[j], cand);
                }
            });
        }
        s.touched.iter().all(|&(i, _)| self.events[i as usize].dist < f64::INFINITY)
    }

    /// [`SweepTrace::repair`]'s settle order: the events whose distance
    /// moved, sorted into `s.moved`; the window `[s.lo, s.lo +
    /// s.new_idx.len())` of old indices their old and new positions span;
    /// and the new index of every event in it, in `s.new_idx`. Unmoved
    /// events keep their relative order, and those outside the window
    /// keep their index.
    fn reorder(&self, s: &mut RepairScratch) {
        let (mut first, mut last) = (usize::MAX, 0);
        for &(i, old) in &s.touched {
            if self.events[i as usize].dist.to_bits() != old.to_bits() {
                s.moved.push(i);
                s.flags[i as usize] |= MOVED;
                (first, last) = (first.min(i as usize), last.max(i as usize));
            }
        }
        s.moved.sort_unstable_by_key(|&i| settle_key(&self.events[i as usize]));
        let (Some(&low), Some(&high)) = (s.moved.first(), s.moved.last()) else {
            return;
        };
        let (low, high) =
            (settle_key(&self.events[low as usize]), settle_key(&self.events[high as usize]));
        // Events outside `[first, last]` are unmoved, hence sorted: the
        // window opens where the first moved event lands among them and
        // closes where the last one does.
        let lo = self.events[..first].partition_point(|e| settle_key(e) < low);
        let hi = last + 1 + self.events[last + 1..].partition_point(|e| settle_key(e) < high);
        s.lo = lo;
        s.new_idx.resize(hi - lo, 0);
        let (mut next, mut m) = (lo as u32, 0);
        for i in lo..hi {
            if s.flags[i] & MOVED != 0 {
                continue;
            }
            let key = settle_key(&self.events[i]);
            while m < s.moved.len() && settle_key(&self.events[s.moved[m] as usize]) < key {
                s.new_idx[s.moved[m] as usize - lo] = next;
                (next, m) = (next + 1, m + 1);
            }
            s.new_idx[i - lo] = next;
            next += 1;
        }
        for &i in &s.moved[m..] {
            s.new_idx[i as usize - lo] = next;
            next += 1;
        }
        debug_assert_eq!(next as usize, hi, "the window maps onto itself");
    }

    /// [`SweepTrace::repair`]'s parents for the moved events, their
    /// neighbours and the changed endpoints: the earliest tight neighbour,
    /// into `s.reparent`. Returns `false` when one settles no earlier than
    /// the event itself — the order rule's premise fails.
    fn reparent<G: GraphView>(&self, g: &G, s: &mut RepairScratch) -> bool {
        for k in 0..s.moved.len() {
            let i = s.moved[k] as usize;
            s.mark_recheck(i);
            g.for_each_arc(NodeId(self.events[i].node), &mut |u, _| {
                s.mark_recheck(self.index.at(u.0) as usize);
            });
        }
        for k in 0..s.rechecks.len() {
            let i = s.rechecks[k] as usize;
            if i == 0 {
                continue;
            }
            let d = self.events[i].dist;
            let mut best: Option<(u32, u32)> = None;
            g.for_each_arc(NodeId(self.events[i].node), &mut |u, w| {
                let j = self.index.at(u.0);
                if self.events[j as usize].dist + w == d {
                    let at = s.new_index(j as usize);
                    if best.is_none_or(|(b, _)| at < b) {
                        best = Some((at, j));
                    }
                }
            });
            match best {
                Some((at, j)) if at < s.new_index(i) => s.reparent.push((i as u32, j)),
                _ => return false,
            }
        }
        true
    }

    /// [`SweepTrace::repair`]'s rewrite: parents by old index, and the
    /// parent column; degrees and new parent indices inside the window,
    /// then new parent indices after it; then the window's permutation,
    /// prefix sums and index entries.
    fn rewrite(&mut self, s: &mut RepairScratch) {
        for &(i, j) in &s.reparent {
            self.events[i as usize].parent = j;
            if let SettledIndex::Dense { parent, .. } = &mut self.index {
                parent[self.events[i as usize].node as usize] = self.events[j as usize].node;
            }
        }
        let (lo, hi) = (s.lo, s.lo + s.new_idx.len());
        if lo == hi {
            return;
        }
        let snapshot = |relaxed: &[u32], i: usize| {
            relaxed.get(i).map_or(self.final_stats.relaxed, |&r| u64::from(r))
        };
        let base = self.relaxed[lo];
        for i in lo..hi {
            // A degree: the difference of two snapshots, so it fits.
            self.relaxed[i] = (snapshot(&self.relaxed, i + 1) - u64::from(self.relaxed[i])) as u32;
            let e = &mut self.events[i];
            e.parent = s.new_index(e.parent as usize);
        }
        // After the window only a parent inside it changes index; before
        // it, no parent points in.
        for e in &mut self.events[hi..] {
            e.parent = s.new_index(e.parent as usize);
        }
        // Follow each cycle of the permutation, carrying each event with
        // its degree; a slot of `new_idx` is reset to its own index once
        // its event is placed.
        for start in lo..hi {
            if s.new_idx[start - lo] as usize == start {
                continue;
            }
            let (mut carry, mut degree, mut from) =
                (self.events[start], self.relaxed[start], start);
            loop {
                let to = std::mem::replace(&mut s.new_idx[from - lo], from as u32) as usize;
                std::mem::swap(&mut carry, &mut self.events[to]);
                std::mem::swap(&mut degree, &mut self.relaxed[to]);
                if to == start {
                    break;
                }
                from = to;
            }
        }
        let mut relaxed = base;
        for i in lo..hi {
            (self.relaxed[i], relaxed) = (relaxed, relaxed + self.relaxed[i]);
            self.index.set(self.events[i].node, i as u32);
        }
        debug_assert_eq!(
            u64::from(relaxed),
            snapshot(&self.relaxed, hi),
            "the window's degrees sum to the snapshot after it"
        );
    }

    /// Where a fresh sweep with `goal` would stop, if that point is
    /// provably inside this trace; `None` means the trace cannot answer
    /// the goal (some goal node lies beyond the settled radius of an
    /// incomplete sweep).
    fn stop_for(&self, goal: &Goal) -> Option<Stop> {
        match goal {
            Goal::AllNodes => self.complete.then_some(Stop::Exhausted),
            Goal::Single(t) => match self.position(*t) {
                Some(i) => Some(Stop::At(i)),
                None => self.complete.then_some(Stop::Exhausted),
            },
            Goal::Set(ts) => {
                let mut last = None;
                for t in ts {
                    match self.position(*t) {
                        Some(i) => last = Some(last.map_or(i, |l: usize| l.max(i))),
                        // One unsettled target: only a complete sweep can
                        // answer it (by proving it unreachable), and then
                        // the fresh sweep would exhaust too.
                        None => return self.complete.then_some(Stop::Exhausted),
                    }
                }
                match last {
                    Some(i) => Some(Stop::At(i)),
                    // Empty goal set never triggers the stop rule.
                    None => self.complete.then_some(Stop::Exhausted),
                }
            }
        }
    }

    /// The counters a fresh sweep with `goal` reports — the snapshot at the
    /// settle where it would stop, or the exhausted sweep's final counters
    /// — if that stop is provably inside this trace. The one stop→counters
    /// rule: a cache hit reads it, and a recording sweep reports it, which
    /// is what lets a plain cache miss ([`crate::dijkstra::run_tree`])
    /// record past its goal and still report the goal's counters. Its
    /// `settled` is the length of the goal-stop prefix: every settle
    /// records one event.
    pub(crate) fn stats_for(&self, goal: &Goal) -> Option<SearchStats> {
        Some(match self.stop_for(goal)? {
            Stop::At(i) => SearchStats { settled: i as u64 + 1, relaxed: self.relaxed[i].into() },
            Stop::Exhausted => self.final_stats,
        })
    }

    /// The path from the root to `t` inside the first `settled` events, by
    /// chasing `t`'s parents — node by node through the parent column of a
    /// dense trace, event by event through the parent settle indices of
    /// any other — into one buffer sized by a first walk; `None` when `t`
    /// settles later or never.
    fn path_to(&self, settled: usize, t: NodeId) -> Option<Path> {
        let i = self.position(t).filter(|&i| i < settled)?;
        let nodes = match &self.index {
            SettledIndex::Dense { parent, .. } => chase(t.0, |v| parent[v as usize], |v| v),
            SettledIndex::Sorted(_) => chase(
                i as u32,
                |k| {
                    let parent = self.events[k as usize].parent;
                    debug_assert!(parent == NIL || parent < k, "a parent settles before its child");
                    parent
                },
                |k| self.events[k as usize].node,
            ),
        };
        Some(Path::new(nodes, self.events[i].dist))
    }

    /// Replay this trace into `arena` as the answer to `goal`.
    /// On success the arena reads exactly like a fresh
    /// [`crate::dijkstra::run_in`] from the same root with the same goal —
    /// same settled labels, same paths — and the returned counters are
    /// byte-identical to that run's. Returns `None`, with the arena
    /// untouched, when the goal is not provably inside the recorded prefix.
    ///
    /// [`crate::dijkstra::run_tree`] never replays: it reads a hit through
    /// a [`TreeView`] of the same prefix. The replay remains as the
    /// operation the benchmark's adoption probe times and as the oracle the
    /// tests hold that read to.
    ///
    /// One observable difference to a fresh run is intentional: frontier
    /// nodes beyond the stopping point carry *no* tentative labels after
    /// adoption (a fresh run leaves some), so [`SearchArena::distance`]
    /// returns `None` where a fresh run may return a tentative upper
    /// bound. Settled reads — everything results are built from — are
    /// identical.
    pub fn adopt_into(&self, arena: &mut SearchArena, goal: &Goal) -> Option<SearchStats> {
        let stats = self.stats_for(goal)?;
        arena.begin(self.nodes);
        for e in &self.events[..stats.settled as usize] {
            let parent = (e.parent != NIL).then(|| NodeId(self.events[e.parent as usize].node));
            arena.label(NodeId(e.node), e.dist, parent);
            arena.settle(NodeId(e.node));
        }
        Some(stats)
    }
}

/// A trace's settled-set index: node → settle index.
#[derive(Clone, Debug, PartialEq)]
enum SettledIndex {
    /// One entry per map node, [`NIL`] for a node the sweep did not
    /// settle, and beside it the tree by node: each node's parent node
    /// ([`NIL`] for the root and for unsettled nodes), which a path is
    /// read from without touching an event. A complete trace that settled
    /// at least two thirds of the map keeps this form: at most 12 B per
    /// settle on top of its events, 8 B for a map-spanning one, and a
    /// lookup or a hop is one load.
    Dense {
        /// Node → settle index.
        at: Vec<u32>,
        /// Node → its parent node.
        parent: Vec<u32>,
    },
    /// `(node, settle index)` sorted by node: every other trace, so an
    /// early-stopped one (or one of a small component) costs memory in
    /// proportion to what it settled.
    Sorted(Vec<(u32, u32)>),
}

impl SettledIndex {
    /// The index of `events`, read off the recorder's node → settle-index
    /// map in node order: `O(nodes + len)`, sorted as it is built. An
    /// entry the sweep did not write is stale and can only point at
    /// another node's event, so the node check keeps exactly this sweep's
    /// settles. Sorting the `len` pairs instead is only cheaper for a
    /// trace shorter than about a twelfth of the map, and a plain cache
    /// miss records twice its goal's depth, so the cache rarely stores one.
    /// A dense index's parent column is written from the events, each
    /// naming its parent's node through the parent's event.
    fn scan(events: &[SettleEvent], recorded: &[u32], complete: bool) -> Self {
        let settled = |(node, &i): (usize, &u32)| {
            events.get(i as usize).is_some_and(|e| e.node as usize == node)
        };
        if complete && 3 * events.len() >= 2 * recorded.len() {
            let at = recorded.iter().enumerate().map(|p| if settled(p) { *p.1 } else { NIL });
            let mut parent = vec![NIL; recorded.len()];
            for e in events.iter().filter(|e| e.parent != NIL) {
                parent[e.node as usize] = events[e.parent as usize].node;
            }
            SettledIndex::Dense { at: at.collect(), parent }
        } else {
            let mut pairs = Vec::with_capacity(events.len());
            pairs.extend(
                recorded.iter().enumerate().filter(|&p| settled(p)).map(|(n, &i)| (n as u32, i)),
            );
            debug_assert_eq!(pairs.len(), events.len(), "every settle indexed once");
            SettledIndex::Sorted(pairs)
        }
    }

    /// Settle index of `node`, or [`NIL`] when the sweep did not settle it.
    #[inline]
    fn at(&self, node: u32) -> u32 {
        match self {
            SettledIndex::Dense { at, .. } => at.get(node as usize).copied().unwrap_or(NIL),
            SettledIndex::Sorted(pairs) => {
                pairs.binary_search_by_key(&node, |&(n, _)| n).map_or(NIL, |k| pairs[k].1)
            }
        }
    }

    /// Move settled `node` to settle index `i`.
    fn set(&mut self, node: u32, i: u32) {
        match self {
            SettledIndex::Dense { at, .. } => at[node as usize] = i,
            SettledIndex::Sorted(pairs) => {
                if let Ok(k) = pairs.binary_search_by_key(&node, |&(n, _)| n) {
                    pairs[k].1 = i;
                }
            }
        }
    }
}

/// The `(dist, node)` order a plain sweep settles in: its frontier's
/// integer key, then the node.
#[inline]
pub(crate) fn settle_key(e: &SettleEvent) -> (u64, u32) {
    (ord_of(e.dist), e.node)
}

/// The nodes of a tree path, root first, from link `from` up: `up` steps
/// to a link's parent ([`NIL`] above the root) and `node` names a link's
/// node. Counts the hops first, so the buffer is allocated once.
fn chase(from: u32, up: impl Fn(u32) -> u32, node: impl Fn(u32) -> u32) -> Vec<NodeId> {
    let (mut hops, mut at) = (0, from);
    while at != NIL {
        (hops, at) = (hops + 1, up(at));
    }
    let mut nodes = Vec::with_capacity(hops);
    let mut at = from;
    while at != NIL {
        nodes.push(NodeId(node(at)));
        at = up(at);
    }
    nodes.reverse();
    nodes
}

/// Weight of the cheapest arc `a → b` (`∞` when there is none) — what any
/// shortest-path sweep relaxes across parallel arcs.
fn cheapest_arc<G: GraphView>(g: &G, a: NodeId, b: NodeId) -> f64 {
    let mut best = f64::INFINITY;
    g.for_each_arc(a, &mut |to, w| {
        if to == b && w < best {
            best = w;
        }
    });
    best
}

/// One edge a live-traffic weight update changed: its endpoints and the
/// cheapest arc weight in each direction on the map *before* the update.
/// [`SweepTrace::repair`] reads the new weights from the new map.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeChange {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The cheapest `a → b` weight before the update (`∞` for none).
    pub old_ab: f64,
    /// The cheapest `b → a` weight before the update (`∞` for none).
    pub old_ba: f64,
}

impl EdgeChange {
    /// The edge `(a, b)` as measured on `old`, the map before the update.
    pub fn before<G: GraphView>(old: &G, a: NodeId, b: NodeId) -> Self {
        EdgeChange { a, b, old_ab: cheapest_arc(old, a, b), old_ba: cheapest_arc(old, b, a) }
    }

    /// Whether either direction's cheapest arc is cheaper on `new`.
    pub fn fell_on<G: GraphView>(&self, new: &G) -> bool {
        cheapest_arc(new, self.a, self.b) < self.old_ab
            || cheapest_arc(new, self.b, self.a) < self.old_ba
    }
}

/// [`RepairScratch`] flag: in the subtree of a risen tree arc.
const CANDIDATE: u8 = 1;
/// Label overwritten; its old distance is in `touched`.
const TOUCHED: u8 = 1 << 1;
/// Popped by the repair's Dijkstra: the label is final.
const DONE: u8 = 1 << 2;
/// Distance changed: the event moves in settle order.
const MOVED: u8 = 1 << 3;
/// Parent to recompute.
const RECHECK: u8 = 1 << 4;

/// The reusable working memory of [`SweepTrace::repair`]: per-event flags
/// and a few lists sized by what moves, grown to the largest repair and
/// reused, so a shard that repairs on every update allocates nothing once
/// warm. The trace's own resident index maps nodes to events, so nothing
/// here is refilled per repair; the flags are cleared through the lists
/// that set them.
#[derive(Debug, Default)]
pub struct RepairScratch {
    /// Per event, the flags above; all clear between repairs.
    flags: Vec<u8>,
    /// First old settle index of the window the moved events span.
    lo: usize,
    /// Per old settle index in the window, the new one; empty when no
    /// event moves.
    new_idx: Vec<u32>,
    /// Changed arcs inside the trace: `(tail, head, old, new)` weights.
    arcs: Vec<(u32, u32, f64, f64)>,
    /// Events whose label was overwritten, with the old distance.
    touched: Vec<(u32, f64)>,
    /// Events whose distance changed, sorted into settle order.
    moved: Vec<u32>,
    /// Events whose parent is recomputed.
    rechecks: Vec<u32>,
    /// `(event, parent's old settle index)` for the recomputed parents.
    reparent: Vec<(u32, u32)>,
    /// The repair's frontier: `(key, event)`, smallest first.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl RepairScratch {
    fn begin(&mut self, len: usize) {
        if self.flags.len() < len {
            self.flags.resize(len, 0);
        }
        debug_assert!(self.flags.iter().all(|&f| f == 0), "the last repair cleared its flags");
        self.new_idx.clear();
        self.arcs.clear();
        self.touched.clear();
        self.moved.clear();
        self.rechecks.clear();
        self.reparent.clear();
        self.heap.clear();
    }

    /// Clear every flag the repair set: each is on a touched or rechecked
    /// event.
    fn end(&mut self) {
        for &(i, _) in &self.touched {
            self.flags[i as usize] = 0;
        }
        for &i in &self.rechecks {
            self.flags[i as usize] = 0;
        }
    }

    /// The new settle index of the event at old index `i`: its window
    /// slot, or `i` itself outside the window ([`NIL`] stays [`NIL`]).
    #[inline]
    fn new_index(&self, i: usize) -> u32 {
        self.new_idx.get(i.wrapping_sub(self.lo)).map_or(i as u32, |&k| k)
    }

    fn mark_recheck(&mut self, i: usize) {
        if self.flags[i] & RECHECK == 0 {
            self.flags[i] |= RECHECK;
            self.rechecks.push(i as u32);
        }
    }

    /// Set event `i`'s label to `dist`, remembering its old distance the
    /// first time, and queue it when finite.
    fn touch(&mut self, i: usize, e: &mut SettleEvent, dist: f64) {
        if self.flags[i] & TOUCHED == 0 {
            self.flags[i] |= TOUCHED;
            self.touched.push((i as u32, e.dist));
        }
        e.dist = dist;
        if dist < f64::INFINITY {
            self.heap.push(Reverse((ord_of(dist), i as u32)));
        }
    }
}

/// Where an adopted sweep stops.
enum Stop {
    /// At settle event `i` (the goal's last node settles there).
    At(usize),
    /// Never — the sweep exhausts the component.
    Exhausted,
}

/// Where the labels of the tree [`crate::dijkstra::run_tree`] answered
/// with live: read paths from here, not from the arena — a cache hit
/// leaves the arena as it was.
#[derive(Clone, Copy, Debug)]
pub enum TreeView<'a> {
    /// A tree grown for real: the arena's.
    Arena(&'a SearchArena),
    /// A cache hit: the first `settled` events of a stored trace — the
    /// prefix a fresh sweep with the same goal settles before stopping.
    Trace {
        /// The stored trace.
        trace: &'a SweepTrace,
        /// Length of the goal-stop prefix.
        settled: usize,
    },
}

impl TreeView<'_> {
    /// The path from the root to `t`, or `None` when the tree did not
    /// settle `t`. Equal, node for node and bit for bit in distance, to a
    /// fresh sweep's [`SearchArena::path_to`] for every node that sweep
    /// settled — in particular every goal node, and `None` for a goal
    /// node a complete sweep proved unreachable.
    pub fn path_to(&self, t: NodeId) -> Option<Path> {
        match *self {
            TreeView::Arena(arena) => arena.path_to(t),
            TreeView::Trace { trace, settled } => trace.path_to(settled, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alt::{AltPreprocessing, GoalPotential};
    use crate::cache::tests::unbounded;
    use crate::dijkstra::{run_in, run_in_traced, run_tree};
    use proptest::prelude::*;
    use roadnet::generators::{GridConfig, NetworkClass, grid_network};
    use roadnet::{GraphBuilder, Point, RoadNetwork};

    fn grid() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() }).unwrap()
    }

    #[test]
    fn adoption_replays_labels_paths_and_stats_exactly() {
        let g = grid();
        let root = NodeId(5);
        // Record a deep sweep, then check adoption against fresh runs for
        // a spread of goals strictly inside it.
        let mut arena = SearchArena::new();
        let (_, trace) = run_in_traced(&mut arena, &g, root, &Goal::AllNodes);
        assert!(trace.is_complete());
        assert_eq!(trace.len(), g.num_nodes());

        for goal in [
            Goal::Single(NodeId(143)),
            Goal::Single(NodeId(6)),
            Goal::Set(vec![NodeId(100), NodeId(37), NodeId(9)]),
            Goal::Set(vec![NodeId(0), NodeId(143)]),
            Goal::AllNodes,
        ] {
            let mut fresh_arena = SearchArena::new();
            let fresh = run_in(&mut fresh_arena, &g, root, &goal);
            let adopted = trace.adopt_into(&mut arena, &goal).expect("goal inside trace");
            assert_eq!(adopted, fresh, "stats must replay byte-identically for {goal:?}");
            let targets: Vec<NodeId> = match &goal {
                Goal::Single(t) => vec![*t],
                Goal::Set(ts) => ts.clone(),
                Goal::AllNodes => (0..g.num_nodes() as u32).map(NodeId).collect(),
            };
            for t in targets {
                assert_eq!(
                    arena.path_to(t),
                    fresh_arena.path_to(t),
                    "path to {t} diverged for {goal:?}"
                );
            }
        }
    }

    #[test]
    fn partial_trace_is_a_prefix_and_only_answers_inside_its_radius() {
        let g = grid();
        let root = NodeId(0);
        let mut arena = SearchArena::new();
        // A bounded sweep: stops when NodeId(30) settles.
        let (partial_stats, partial) =
            run_in_traced(&mut arena, &g, root, &Goal::Single(NodeId(30)));
        assert!(!partial.is_complete());
        assert_eq!(partial_stats.settled, partial.len() as u64);
        let (_, full) = run_in_traced(&mut arena, &g, root, &Goal::AllNodes);
        // Prefix property: the partial sweep is the full sweep truncated.
        for (i, e) in partial.events.iter().enumerate() {
            assert_eq!(e.node, full.events[i].node, "settle order diverged at {i}");
            assert_eq!(e.dist, full.events[i].dist);
        }
        assert!(partial.events.last().unwrap().dist <= full.events.last().unwrap().dist);

        // Inside the radius: adoptable, byte-identical to a fresh run.
        let inside = partial.events[partial.len() / 2].node;
        let mut fresh_arena = SearchArena::new();
        let fresh = run_in(&mut fresh_arena, &g, root, &Goal::Single(NodeId(inside)));
        let adopted = partial.adopt_into(&mut arena, &Goal::Single(NodeId(inside))).unwrap();
        assert_eq!(adopted, fresh);

        // Beyond the radius (or any unsettled node): refuse.
        let unsettled =
            (0..g.num_nodes() as u32).map(NodeId).find(|n| partial.position(*n).is_none()).unwrap();
        assert!(partial.adopt_into(&mut arena, &Goal::Single(unsettled)).is_none());
        assert!(
            partial.adopt_into(&mut arena, &Goal::Set(vec![NodeId(inside), unsettled])).is_none(),
            "one goal node beyond the prefix poisons the whole set"
        );
        assert!(partial.adopt_into(&mut arena, &Goal::AllNodes).is_none());
    }

    #[test]
    fn complete_trace_proves_unreachability() {
        // Two components: adoption must answer queries for the far
        // component's nodes with "unreachable" and exhausted stats.
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(4), NodeId(5), 1.0).unwrap();
        let g = b.build().unwrap();

        let mut arena = SearchArena::new();
        // Goal::Single on an unreachable node exhausts the component, so
        // the trace comes out complete.
        let (_, trace) = run_in_traced(&mut arena, &g, NodeId(0), &Goal::Single(NodeId(5)));
        assert!(trace.is_complete());
        assert_eq!(trace.len(), 3);

        let mut fresh_arena = SearchArena::new();
        let fresh = run_in(&mut fresh_arena, &g, NodeId(0), &Goal::Single(NodeId(4)));
        let adopted = trace.adopt_into(&mut arena, &Goal::Single(NodeId(4))).unwrap();
        assert_eq!(adopted, fresh, "the exhausted sweep's counters replay");
        assert_eq!(arena.path_to(NodeId(4)), None);
        assert_eq!(arena.distance(NodeId(4)), None);

        // Mixed goal set: reachable + unreachable also exhausts.
        let fresh = run_in(&mut fresh_arena, &g, NodeId(0), &Goal::Set(vec![NodeId(2), NodeId(5)]));
        let adopted = trace.adopt_into(&mut arena, &Goal::Set(vec![NodeId(2), NodeId(5)])).unwrap();
        assert_eq!(adopted, fresh);
        assert!(arena.path_to(NodeId(2)).is_some());
    }

    #[test]
    fn duplicate_goal_nodes_match_fresh_runs() {
        let g = grid();
        let mut arena = SearchArena::new();
        let (_, trace) = run_in_traced(&mut arena, &g, NodeId(7), &Goal::AllNodes);
        let goal = Goal::Set(vec![NodeId(100), NodeId(100), NodeId(12)]);
        let mut fresh_arena = SearchArena::new();
        let fresh = run_in(&mut fresh_arena, &g, NodeId(7), &goal);
        assert_eq!(trace.adopt_into(&mut arena, &goal), Some(fresh));
    }

    #[test]
    fn touches_any_tracks_the_settled_set() {
        let g = grid();
        let mut arena = SearchArena::new();
        let (_, partial) = run_in_traced(&mut arena, &g, NodeId(0), &Goal::Single(NodeId(30)));
        assert!(!partial.is_complete());
        let settled = NodeId(partial.events[partial.len() / 2].node);
        let unsettled =
            (0..g.num_nodes() as u32).map(NodeId).find(|n| partial.position(*n).is_none()).unwrap();
        // One settled endpoint is enough; order of the pair is irrelevant.
        assert!(partial.touches_any(&[(settled, unsettled)]));
        assert!(partial.touches_any(&[(unsettled, settled)]));
        // Both endpoints beyond the settled prefix: the sweep never relaxed
        // the edge, so the trace is unaffected.
        let unsettled2 = (0..g.num_nodes() as u32)
            .map(NodeId)
            .filter(|n| partial.position(*n).is_none())
            .nth(1)
            .unwrap();
        assert!(!partial.touches_any(&[(unsettled, unsettled2)]));
        // Any touched pair in a batch flags the whole batch; an empty batch
        // touches nothing.
        assert!(partial.touches_any(&[(unsettled, unsettled2), (settled, settled)]));
        assert!(!partial.touches_any(&[]));
    }

    /// Two components: the chain 0–1–…–19 (unit weights, so it settles in
    /// id order from 0) and the pair 20–21.
    fn chain_and_pair() -> roadnet::RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..22 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        for i in 0..19 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        b.add_edge(NodeId(20), NodeId(21), 1.0).unwrap();
        b.build().unwrap()
    }

    /// One plain `run_tree` miss into an empty store: its counters, the
    /// paths to `targets` its view reads, and the trace it stored.
    fn plain_miss(
        g: &roadnet::RoadNetwork,
        root: NodeId,
        goal: &Goal,
        targets: &[NodeId],
    ) -> (SearchStats, Vec<Option<Path>>, SweepTrace) {
        let (mut arena, mut cache) = (SearchArena::new(), unbounded());
        let (stats, view) = run_tree(&mut arena, g, root, goal, None, Some(&mut cache));
        let paths = targets.iter().map(|&t| view.path_to(t)).collect();
        assert_eq!(cache.counters(), (0, 1));
        let trace = cache.peek(root).expect("a miss stores its sweep").clone();
        (stats, paths, trace)
    }

    #[test]
    fn deepening_miss_stores_twice_the_goal_depth_or_the_component() {
        let (g, chain) = (grid(), chain_and_pair());
        for (g, root, goal, component) in [
            (&g, NodeId(0), Goal::Single(NodeId(30)), 144),
            (&g, NodeId(60), Goal::Set(vec![NodeId(61), NodeId(75)]), 144),
            (&g, NodeId(0), Goal::Single(NodeId(143)), 144),
            (&chain, NodeId(0), Goal::Single(NodeId(3)), 20),
            // 2k lands exactly on the component's size: the heap drains.
            (&chain, NodeId(0), Goal::Single(NodeId(9)), 20),
            (&chain, NodeId(0), Goal::Single(NodeId(15)), 20),
            (&chain, NodeId(20), Goal::Single(NodeId(21)), 2),
        ] {
            let k = run_in(&mut SearchArena::new(), g, root, &goal).settled as usize;
            let (_, full) = run_in_traced(&mut SearchArena::new(), g, root, &Goal::AllNodes);
            let (_, _, stored) = plain_miss(g, root, &goal, &[]);
            let tag = format!("{goal:?} from {root}, k = {k}");
            assert_eq!(stored.len(), (2 * k).min(component), "{tag}");
            assert_eq!(stored.is_complete(), 2 * k >= component, "{tag}");
            // Recording further never reorders: still a prefix of the full
            // sweep, snapshots included.
            for (i, (a, b)) in stored.events.iter().zip(&full.events).enumerate() {
                assert_eq!((a.node, a.dist, a.parent), (b.node, b.dist, b.parent), "{tag}");
                assert_eq!(stored.relaxed[i], full.relaxed[i], "{tag}");
            }
        }
    }

    #[test]
    fn deepening_lets_a_deeper_goal_from_the_same_root_hit() {
        let g = grid();
        let root = NodeId(0);
        let (_, full) = run_in_traced(&mut SearchArena::new(), &g, root, &Goal::AllNodes);
        let k = full.position(NodeId(30)).unwrap() + 1;
        assert!(2 * k < g.num_nodes(), "the first goal must leave room past 2k");
        let (mut arena, mut cache) = (SearchArena::new(), unbounded());
        run_tree(&mut arena, &g, root, &Goal::Single(NodeId(30)), None, Some(&mut cache));

        // Goals settling past the first stop but inside 2k adopt the
        // deepened trace (a trace stopped at k would miss every one).
        for i in [k, 3 * k / 2, 2 * k - 1] {
            let t = NodeId(full.events[i].node);
            let goal = Goal::Set(vec![NodeId(30), t]);
            let (stats, view) = run_tree(&mut arena, &g, root, &goal, None, Some(&mut cache));
            let mut fresh = SearchArena::new();
            assert_eq!(stats, run_in(&mut fresh, &g, root, &goal), "goal settling at {i}");
            assert_eq!(view.path_to(t), fresh.path_to(t));
        }
        assert_eq!(cache.counters(), (3, 1));

        // One settle past 2k misses, and that miss deepens the entry again.
        let goal = Goal::Single(NodeId(full.events[2 * k].node));
        run_tree(&mut arena, &g, root, &goal, None, Some(&mut cache));
        assert_eq!(cache.counters(), (3, 2));
        assert_eq!(cache.peek(root).unwrap().len(), (2 * (2 * k + 1)).min(g.num_nodes()));
    }

    #[test]
    fn deepening_skips_guided_sweeps() {
        let g = grid();
        let alt = crate::alt::AltPreprocessing::try_build(&g, 4).unwrap();
        let root = NodeId(0);
        for targets in [vec![NodeId(30)], vec![NodeId(30), NodeId(100)]] {
            let pot = alt.goal_potential(&targets);
            for goal in [Goal::Single(targets[0]), Goal::Set(targets.clone())] {
                let mut arena = SearchArena::new();
                let mut cache = unbounded();
                let (stats, _) =
                    run_tree(&mut arena, &g, root, &goal, Some(&pot), Some(&mut cache));
                let (uncached, _) = run_tree(&mut arena, &g, root, &goal, Some(&pot), None);
                assert_eq!(stats, uncached, "{goal:?}");
                let stored = cache.peek(root).unwrap();
                assert_eq!(stored.len() as u64, stats.settled, "{goal:?}: stops at its goal");
                assert!(!stored.is_complete());
            }
        }
    }

    #[test]
    fn deepening_miss_reports_the_goal_stop_stats_and_paths() {
        let (g, chain) = (grid(), chain_and_pair());
        let all: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId).collect();
        for (g, root, goal, targets) in [
            (&g, NodeId(5), Goal::Single(NodeId(40)), vec![NodeId(40)]),
            (
                &g,
                NodeId(5),
                Goal::Set(vec![NodeId(40), NodeId(17), NodeId(17)]),
                vec![NodeId(40), NodeId(17)],
            ),
            // An unreachable member: the sweep exhausts the component.
            (
                &chain,
                NodeId(2),
                Goal::Set(vec![NodeId(6), NodeId(21)]),
                vec![NodeId(6), NodeId(21)],
            ),
            (&g, NodeId(5), Goal::AllNodes, all),
        ] {
            let mut fresh = SearchArena::new();
            let expected = run_in(&mut fresh, g, root, &goal);
            let (stats, paths, stored) = plain_miss(g, root, &goal, &targets);
            assert_eq!(stats, expected, "{goal:?}: the logical, goal-stop counters");
            assert!(stored.len() as u64 > stats.settled || stored.is_complete(), "{goal:?}");
            assert_eq!(stored.stats_for(&goal), Some(expected));
            for (t, path) in targets.into_iter().zip(paths) {
                assert_eq!(path, fresh.path_to(t), "{goal:?}: path to {t}");
            }
        }
    }

    #[test]
    fn radius_and_positions_are_consistent() {
        let g = grid();
        let mut arena = SearchArena::new();
        let (_, trace) = run_in_traced(&mut arena, &g, NodeId(60), &Goal::Single(NodeId(80)));
        assert_eq!(trace.root(), NodeId(60));
        assert_eq!(trace.nodes(), g.num_nodes());
        assert!(!trace.is_empty());
        assert_eq!(trace.position(NodeId(60)), Some(0), "the root settles first");
        let r = trace.events.last().unwrap().dist;
        for e in &trace.events {
            assert!(e.dist <= r + 1e-12, "settle order is nondecreasing in distance");
            assert_eq!(trace.position(NodeId(e.node)).map(|i| trace.events[i].node), Some(e.node));
        }
        // The public settled-nodes view mirrors the event log exactly.
        let settled: Vec<NodeId> = trace.settled().collect();
        assert_eq!(settled.len(), trace.len());
        assert_eq!(settled[0], NodeId(60));
        for (i, &n) in settled.iter().enumerate() {
            assert_eq!(trace.position(n), Some(i));
        }
    }

    /// `g` plus a two-node island no root on `g` reaches.
    fn with_island(g: &RoadNetwork) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for n in g.nodes() {
            b.add_node(g.point(n)).unwrap();
        }
        for e in g.edges() {
            b.add_edge(e.a, e.b, e.weight).unwrap();
        }
        let island =
            [Point::new(-1e4, -1e4), Point::new(-1e4 + 1.0, -1e4)].map(|p| b.add_node(p).unwrap());
        b.add_edge(island[0], island[1], 1.0).unwrap();
        b.build().unwrap()
    }

    /// A path as the exact bits it is compared by: nodes, and the distance
    /// bit for bit.
    fn bits(p: Option<Path>) -> Option<(Vec<NodeId>, u64)> {
        p.map(|p| (p.nodes().to_vec(), p.distance().to_bits()))
    }

    /// Warm `root`'s entry with one miss, then hit it: the hit's view must
    /// read, for every target, the path a fresh uncached sweep reads, and
    /// for every node what the replayed trace reads (`None` past the
    /// goal-stop prefix), with equal counters — and leave the arena as the
    /// last real sweep left it.
    fn assert_hit_reads_fresh_and_replay(
        g: &RoadNetwork,
        root: NodeId,
        goal: &Goal,
        targets: &[NodeId],
        pot: Option<&GoalPotential<'_>>,
        tag: &str,
    ) {
        let (mut arena, mut cache) = (SearchArena::new(), unbounded());
        run_tree(&mut arena, g, root, goal, pot, Some(&mut cache));
        let other = NodeId((root.0 + 1) % g.num_nodes() as u32);
        run_in(&mut arena, g, other, &Goal::AllNodes);
        let before: Vec<_> = targets.iter().map(|&t| arena.path_to(t)).collect();

        let (stats, view) = run_tree(&mut arena, g, root, goal, pot, Some(&mut cache));
        assert!(matches!(view, TreeView::Trace { .. }), "{tag}: the warm run hits");
        let read: Vec<_> = g.nodes().map(|t| bits(view.path_to(t))).collect();
        assert_eq!(cache.counters(), (1, 1), "{tag}");
        let after: Vec<_> = targets.iter().map(|&t| arena.path_to(t)).collect();
        assert_eq!(before, after, "{tag}: a hit writes no arena slot");

        let mut fresh = SearchArena::new();
        let (fresh_stats, _) = run_tree(&mut fresh, g, root, goal, pot, None);
        let mut replay = SearchArena::new();
        let replay_stats = cache.peek(root).unwrap().adopt_into(&mut replay, goal);
        assert_eq!(stats, fresh_stats, "{tag}: counters");
        assert_eq!(Some(stats), replay_stats, "{tag}: counters");
        for &t in targets {
            assert_eq!(read[t.index()], bits(fresh.path_to(t)), "{tag}: fresh path to {t}");
        }
        for (t, got) in g.nodes().zip(read) {
            assert_eq!(got, bits(replay.path_to(t)), "{tag}: replayed path to {t}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..Default::default() })]

        #[test]
        fn hit_view_reads_what_fresh_and_replayed_sweeps_read(
            seed in 0..1_000u64,
            picks in (proptest::num::u32::ANY, proptest::num::u32::ANY, proptest::num::u32::ANY),
        ) {
            for class in NetworkClass::ALL {
                let g = with_island(&class.generate(300, seed).unwrap());
                let n = g.num_nodes() as u32;
                let island = NodeId(n - 1);
                // Roots and targets on the main map.
                let [root, a, b] = [picks.0, picks.1, picks.2].map(|x| NodeId(x % (n - 2)));
                let alt = AltPreprocessing::try_build(&g, 4).unwrap();
                let all: Vec<NodeId> = g.nodes().collect();
                // Each guided sweep aims at its own goal set, as the MSMD
                // loops do; `AllNodes` has none, so it borrows `{a, b}`.
                for (goal, targets, aim) in [
                    (Goal::Single(a), vec![a], vec![a]),
                    (Goal::Set(vec![a, b, a]), vec![a, b], vec![a, b]),
                    (Goal::Set(vec![a, island]), vec![a, island], vec![a, island]),
                    (Goal::AllNodes, all, vec![a, b]),
                ] {
                    let pot = alt.goal_potential(&aim);
                    for pot in [None, Some(&pot)] {
                        let tag = format!(
                            "{} seed {seed} root {root} {goal:?} guided={}",
                            class.name(),
                            pot.is_some()
                        );
                        assert_hit_reads_fresh_and_replay(&g, root, &goal, &targets, pot, &tag);
                    }
                }
            }
        }
    }

    /// `g` with a parallel copy of every 13th edge, dearer and cheaper than
    /// the original in turn, plus the unreachable island of [`with_island`]
    /// (its edge is the last one). `weigh` rewrites every weight.
    fn with_parallels(g: &RoadNetwork, weigh: impl Fn(f64) -> f64) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for n in g.nodes() {
            b.add_node(g.point(n)).unwrap();
        }
        for (i, e) in g.edges().iter().enumerate() {
            b.add_edge(e.a, e.b, weigh(e.weight)).unwrap();
            if i % 13 == 0 {
                let factor = if i % 26 == 0 { 1.25 } else { 0.8 };
                b.add_edge(e.a, e.b, weigh(e.weight * factor)).unwrap();
            }
        }
        with_island(&b.build().unwrap())
    }

    /// A dense trace's parent-node column.
    fn parent_column(t: &SweepTrace) -> Option<&[u32]> {
        match &t.index {
            SettledIndex::Dense { parent, .. } => Some(parent),
            SettledIndex::Sorted(_) => None,
        }
    }

    /// Every event (node, parent index, distance bits) with its `relaxed`
    /// snapshot, the parent column, the settled-set index and the final
    /// counters.
    fn assert_same_trace(got: &SweepTrace, want: &SweepTrace, tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}: settles");
        assert_eq!(got.relaxed.len(), got.len(), "{tag}: one snapshot per event");
        for (i, (a, b)) in got.events.iter().zip(&want.events).enumerate() {
            assert_eq!(
                (a.node, a.parent, a.dist.to_bits(), got.relaxed[i]),
                (b.node, b.parent, b.dist.to_bits(), want.relaxed[i]),
                "{tag}: event {i}"
            );
        }
        assert_eq!(parent_column(got), parent_column(want), "{tag}: parent column");
        assert_eq!(got.index, want.index, "{tag}: settled-set index");
        assert_eq!(got.final_stats, want.final_stats, "{tag}: final counters");
        assert_eq!(got.complete, want.complete, "{tag}: completeness");
        assert_eq!(got.ordered, want.ordered, "{tag}: settle-key order");
    }

    /// The changes of `updates` as a caller lists them: every entry, changed
    /// or a no-op rewrite, measured on the map before the update.
    fn changes_of(g: &RoadNetwork, updates: &[(roadnet::EdgeId, f64)]) -> Vec<EdgeChange> {
        updates.iter().map(|&(e, _)| EdgeChange::before(g, g.edge(e).a, g.edge(e).b)).collect()
    }

    /// Rounds of updates mixing rises, falls and no-op rewrites, each with
    /// an edge at the root, the island's edge and its first edge listed
    /// twice, on maps with parallel arcs — with the generator's weights,
    /// and rounded to small integers so that equal-length paths (parent
    /// ties) abound. Every round repairs the previous round's repaired
    /// trace, which must equal a fresh sweep on the new map.
    fn assert_repair_equals_a_fresh_sweep(seed: u64, root_pick: u32, rounds: &[Vec<(u32, usize)>]) {
        let factors = [0.25, 0.6, 1.0, 1.0, 1.7, 4.0];
        let mut scratch = RepairScratch::default();
        for (class, integral) in NetworkClass::ALL.into_iter().flat_map(|c| [(c, false), (c, true)])
        {
            let base = class.generate(400, seed).unwrap();
            let unit =
                base.edges().iter().map(|e| e.weight).sum::<f64>() / (3 * base.num_edges()) as f64;
            let weigh = |w: f64| if integral { (w / unit).round().max(1.0) } else { w };
            let mut g = with_parallels(&base, weigh);
            let (n, m) = (g.num_nodes() as u32, g.num_edges());
            let root = NodeId(root_pick % (n - 2));
            let (_, mut trace) = run_in_traced(&mut SearchArena::new(), &g, root, &Goal::AllNodes);
            let at_root = g.edges().iter().position(|e| e.a == root || e.b == root).unwrap();
            for (r, picks) in rounds.iter().enumerate() {
                let edge = |i: usize| roadnet::EdgeId::from_index(i);
                let scaled = |e, f: f64| {
                    let w: f64 = g.edge(e).weight * f;
                    if integral { w.round().max(1.0) } else { w }
                };
                let mut updates: Vec<(roadnet::EdgeId, f64)> = picks
                    .iter()
                    .map(|&(e, f)| (edge(e as usize % m), factors[f]))
                    .map(|(e, f)| (e, scaled(e, f)))
                    .collect();
                let root_factor = if r % 2 == 0 { 3.0 } else { 0.5 };
                updates.push((edge(at_root), scaled(edge(at_root), root_factor)));
                updates.push((edge(m - 1), 2.0 + r as f64));
                let mut changes = changes_of(&g, &updates);
                changes.push(changes[0]);
                g.update_weights(&updates).unwrap();

                let tag = format!(
                    "{} integral={integral} seed {seed} root {root} round {r}",
                    class.name()
                );
                assert!(trace.repair(&g, &changes, &mut scratch), "{tag}");
                let (_, fresh) = run_in_traced(&mut SearchArena::new(), &g, root, &Goal::AllNodes);
                assert_same_trace(&trace, &fresh, &tag);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 20, ..Default::default() })]

        #[test]
        fn repair_equals_a_fresh_sweep_on_the_new_map(
            seed in 0..1_000u64,
            root_pick in proptest::num::u32::ANY,
            rounds in proptest::collection::vec(
                proptest::collection::vec((proptest::num::u32::ANY, 0..6usize), 1..9),
                1..4,
            ),
        ) {
            assert_repair_equals_a_fresh_sweep(seed, root_pick, &rounds);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2_000, ..Default::default() })]

        /// [`repair_equals_a_fresh_sweep_on_the_new_map`] at 2 000 cases —
        /// a few seconds in release; run it with `--ignored`.
        #[test]
        #[ignore = "deep twin of repair_equals_a_fresh_sweep_on_the_new_map"]
        fn repair_equals_a_fresh_sweep_on_the_new_map_deep(
            seed in 0..1_000u64,
            root_pick in proptest::num::u32::ANY,
            rounds in proptest::collection::vec(
                proptest::collection::vec((proptest::num::u32::ANY, 0..6usize), 1..9),
                1..4,
            ),
        ) {
            assert_repair_equals_a_fresh_sweep(seed, root_pick, &rounds);
        }
    }

    /// An undirected map on nodes `0..n` (points on a line) with `edges`.
    fn tiny(n: u32, edges: &[(u32, u32, f64)]) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        for &(a, c, w) in edges {
            b.add_edge(NodeId(a), NodeId(c), w).unwrap();
        }
        b.build().unwrap()
    }

    /// Repair `root`'s complete trace on `g` across `updates`: it must
    /// repair, equal a fresh sweep on the new map, and leave in `scratch`
    /// the window it rewrote. Returns the trace before and after.
    fn repair_once(
        g: &RoadNetwork,
        root: NodeId,
        updates: &[(roadnet::EdgeId, f64)],
        scratch: &mut RepairScratch,
        tag: &str,
    ) -> (SweepTrace, SweepTrace) {
        let changes = changes_of(g, updates);
        let mut next = g.clone();
        next.update_weights(updates).unwrap();
        let (_, before) = run_in_traced(&mut SearchArena::new(), g, root, &Goal::AllNodes);
        let mut trace = before.clone();
        assert!(trace.repair(&next, &changes, scratch), "{tag}: repaired");
        let (_, fresh) = run_in_traced(&mut SearchArena::new(), &next, root, &Goal::AllNodes);
        assert_same_trace(&trace, &fresh, tag);
        (before, trace)
    }

    #[test]
    fn repair_window_reaches_the_end_when_a_rise_moves_a_subtree_past_every_event() {
        // Root 0 with the branches 0 – 1 – 2 (unit arcs) and 0 – 3 – 4 – 5
        // (arcs of 1.5): settle order 0 1 3 2 4 5. Raising 0 – 1 sends 1
        // and 2 behind 5.
        let g = tiny(6, &[(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.5), (3, 4, 1.5), (4, 5, 1.5)]);
        let mut scratch = RepairScratch::default();
        let (before, after) =
            repair_once(&g, NodeId(0), &[(roadnet::EdgeId(0), 10.0)], &mut scratch, "rise");
        let order = |t: &SweepTrace| t.settled().map(|v| v.0).collect::<Vec<_>>();
        assert_eq!(
            (order(&before), order(&after)),
            (vec![0, 1, 3, 2, 4, 5], vec![0, 3, 4, 5, 1, 2])
        );
        assert_eq!((scratch.lo, scratch.lo + scratch.new_idx.len()), (1, 6), "hi == len");
    }

    #[test]
    fn repair_window_opens_before_every_moved_event_when_a_fall_jumps_ahead() {
        // As above plus a slack arc 0 – 5; lowering it to 0.5 moves 5
        // (and 4 through it) ahead of 1, which never moves.
        let g = tiny(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.5), (3, 4, 1.5), (4, 5, 1.5), (0, 5, 10.0)],
        );
        let mut scratch = RepairScratch::default();
        let (before, after) =
            repair_once(&g, NodeId(0), &[(roadnet::EdgeId(5), 0.5)], &mut scratch, "fall");
        assert_eq!(after.position(NodeId(5)), Some(1));
        let first_moved = scratch.moved.iter().map(|&i| i as usize).min().unwrap();
        assert_eq!(first_moved, before.position(NodeId(4)).unwrap());
        assert!(scratch.lo < first_moved, "lo {} vs first moved {first_moved}", scratch.lo);
        assert_eq!(scratch.lo, 1);
    }

    #[test]
    fn repair_repicks_parents_on_a_tie_without_moving_any_event() {
        // 3 is reached at 2 through 2 only; lowering 1 – 3 to 1 ties it
        // through 1, which settles earlier and becomes its parent.
        let g = tiny(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 2.0), (2, 3, 1.0)]);
        let mut scratch = RepairScratch::default();
        let (before, after) =
            repair_once(&g, NodeId(0), &[(roadnet::EdgeId(2), 1.0)], &mut scratch, "tie");
        assert!(scratch.moved.is_empty() && scratch.new_idx.is_empty(), "an empty window");
        let parent = |t: &SweepTrace| t.events[t.position(NodeId(3)).unwrap()].parent;
        assert_eq!((parent(&before), parent(&after)), (2, 1));
    }

    #[test]
    fn repair_keeps_a_small_component_on_sorted_pairs() {
        // From 20 the trace is complete but settles 2 of 22 nodes; from 0
        // it settles 20 of them.
        let g = chain_and_pair();
        let pair = g.edges().iter().position(|e| e.a == NodeId(20)).unwrap();
        let mut scratch = RepairScratch::default();
        for (root, edge, dense) in [(NodeId(20), pair, false), (NodeId(0), 3, true)] {
            let updates = [(roadnet::EdgeId::from_index(edge), 3.0)];
            let (before, after) = repair_once(&g, root, &updates, &mut scratch, "component");
            assert!(before.is_complete());
            assert_eq!(matches!(after.index, SettledIndex::Dense { .. }), dense, "root {root}");
        }
    }

    #[test]
    fn repair_refuses_incomplete_guided_and_directed_traces() {
        let g = grid();
        let updates = [(roadnet::EdgeId(0), 50.0)];
        let changes = changes_of(&g, &updates);
        let mut next = g.clone();
        next.update_weights(&updates).unwrap();
        let mut scratch = RepairScratch::default();

        let (_, partial) =
            run_in_traced(&mut SearchArena::new(), &g, NodeId(0), &Goal::Single(NodeId(30)));
        assert!(!partial.is_complete());
        let alt = AltPreprocessing::try_build(&g, 4).unwrap();
        let pot = alt.goal_potential(&[NodeId(30)]);
        let mut cache = unbounded();
        run_tree(
            &mut SearchArena::new(),
            &g,
            NodeId(0),
            &Goal::AllNodes,
            Some(&pot),
            Some(&mut cache),
        );
        let guided = cache.peek(NodeId(0)).unwrap().clone();
        assert!(guided.is_complete() && guided.potential().is_some());

        for (trace, tag) in [(partial, "incomplete"), (guided, "guided")] {
            let mut repaired = trace.clone();
            assert!(!repaired.repair(&next, &changes, &mut scratch), "{tag}");
            assert_same_trace(&repaired, &trace, tag);
        }

        // A directed map's in-arcs are not its out-arcs.
        let mut b = GraphBuilder::directed();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let directed = b.build().unwrap();
        let (_, mut trace) =
            run_in_traced(&mut SearchArena::new(), &directed, NodeId(0), &Goal::AllNodes);
        assert!(!trace.repair(&directed, &[], &mut scratch));
    }

    #[test]
    fn repair_on_zero_weights_is_exact_or_refused_untouched() {
        // The path 0 – 1 – 2 at unit weights.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();
        let mut scratch = RepairScratch::default();
        for (root, edge, exact) in [
            // Node 1 ties the root at 0 but settles after it, in node
            // order as well: repaired exactly.
            (NodeId(0), roadnet::EdgeId(0), true),
            // Node 1 ties root 2 but would sort before it: the fresh sweep
            // still settles the root first, so the order rule cannot
            // rebuild it, and the repair refuses.
            (NodeId(2), roadnet::EdgeId(1), false),
        ] {
            let updates = [(edge, 0.0)];
            let changes = changes_of(&g, &updates);
            let mut next = g.clone();
            next.update_weights(&updates).unwrap();
            let (_, before) = run_in_traced(&mut SearchArena::new(), &g, root, &Goal::AllNodes);
            let mut trace = before.clone();
            assert_eq!(trace.repair(&next, &changes, &mut scratch), exact, "root {root}");
            let (_, fresh) = run_in_traced(&mut SearchArena::new(), &next, root, &Goal::AllNodes);
            assert_same_trace(&trace, if exact { &fresh } else { &before }, "zero weight");
        }
    }

    #[test]
    fn recorded_settles_cost_at_most_28_bytes_and_index_exactly() {
        let g = NetworkClass::Geometric.generate(2_000, 7).unwrap();
        let n = g.num_nodes();
        // The short sweep grows from another root after a complete one, so
        // most of the settle-index map it scans is the complete sweep's,
        // stale.
        let far = NodeId(n as u32 / 2);
        let (_, from_far) = run_in_traced(&mut SearchArena::new(), &g, far, &Goal::AllNodes);
        let mut arena = SearchArena::new();
        let (_, complete) = run_in_traced(&mut arena, &g, NodeId(0), &Goal::AllNodes);
        let goal = Goal::Single(NodeId(from_far.events[n / 20].node));
        let (_, short) = run_in_traced(&mut arena, &g, far, &goal);
        assert!(complete.is_complete() && complete.len() == n, "a map-spanning sweep");
        assert!(short.len() * 16 <= n, "short: {} settles", short.len());
        // The same map beside `n / 2` isolated nodes: a complete sweep
        // settles two thirds of it, the least a dense trace settles.
        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.point(v)).unwrap();
        }
        for e in g.edges() {
            b.add_edge(e.a, e.b, e.weight).unwrap();
        }
        for i in 0..n / 2 {
            b.add_node(Point::new(-1e4 - i as f64, -1e4)).unwrap();
        }
        let wide = b.build().unwrap();
        let (_, two_thirds) = run_in_traced(&mut arena, &wide, NodeId(0), &Goal::AllNodes);
        assert!(two_thirds.is_complete() && 3 * two_thirds.len() == 2 * wide.num_nodes());

        for (trace, map, tag, dense, per_settle) in [
            (&complete, &g, "complete", true, 28),
            (&short, &g, "short", false, 28),
            (&two_thirds, &wide, "two thirds", true, 32),
        ] {
            let reference: Vec<Option<usize>> =
                map.nodes().map(|v| trace.events.iter().position(|e| e.node == v.0)).collect();
            let read: Vec<Option<usize>> = map.nodes().map(|v| trace.position(v)).collect();
            assert_eq!(read, reference, "{tag}: settled-set index");

            let index = match &trace.index {
                SettledIndex::Dense { at, parent } => {
                    (at.capacity() + parent.capacity()) * size_of::<u32>()
                }
                SettledIndex::Sorted(pairs) => pairs.capacity() * size_of::<(u32, u32)>(),
            };
            assert_eq!(matches!(trace.index, SettledIndex::Dense { .. }), dense, "{tag}");
            let bytes = trace.events.capacity() * size_of::<SettleEvent>()
                + trace.relaxed.capacity() * size_of::<u32>()
                + index;
            assert!(
                bytes <= per_settle * trace.len(),
                "{tag}: {bytes} B for {} settles",
                trace.len()
            );
        }
    }
}
