//! Reusable shortest-path-tree traces — the extraction/adoption layer
//! behind the service's shard-local tree cache.
//!
//! Lemma 1 prices an obfuscated query by the spanning trees the server
//! grows, and hotspot/commuter workloads make many queries share roots:
//! the same tree gets recomputed over and over. A [`SweepTrace`] is the
//! reusable form of one plain Dijkstra sweep: its settled `(node, dist)`
//! labels, the tree that links them, and enough of the sweep's counters to
//! give the `relaxed` count at any settle. It keeps the sweep's
//! **key-ordered prefix** — the settles that came strictly increasing in
//! `(dist, node)` order, which is every settle but on a zero-weight tie
//! or a sum that absorbs a weight — in consecutive settle-key ranges
//! (**key buckets**), each an unordered bag of `{dist, node, out-degree}`
//! entries with its count and degree sum. A settle's position is the
//! settles of the buckets before its own plus the members of its own with
//! a smaller key, and its `relaxed` snapshot is read the same way from
//! degrees. Beside the buckets it keeps its tree by node: each settle's
//! parent node, one entry per map node for a trace that settled most of
//! its map, ranked by the settled nodes otherwise. A trace is built after
//! its sweep, by one builder for both loops (`SweepTrace::build`), from
//! what the arena the sweep grew in holds: the sweep's settle log in
//! settle order, and each settle's label, parent and out-degree. Nothing
//! watches the sweep while it runs.
//!
//! Because plain Dijkstra from a fixed root is deterministic and its goal
//! only ever decides *when to stop*, any two sweeps from the same root are
//! prefixes of one another. Adopting a trace for a goal is therefore a
//! **read of its goal-stop prefix**: the settles a fresh sweep with that
//! goal would make before stopping. [`crate::dijkstra::run_tree`] answers
//! a hit with a [`TreeView`] over that prefix — a path is read by the
//! crate's one counted parent walk, the one a grown tree in the arena is
//! read by, several targets side by side, and the arena is never touched —
//! which gives the two guarantees the cache needs:
//!
//! * **answers** — adopted labels are settled, hence exact; paths read
//!   back identically to a fresh run;
//! * **accounting** — the counters read at the stop are exactly the
//!   values a fresh sweep would report when stopping there, so a cache
//!   hit is *byte-identical* in every stats field to the sweep it
//!   replaced. Execution strategy and cache policy both stay invisible
//!   to reports (the PR-3 invariant, extended to caching).
//!
//! A trace is only adoptable when the goal is **provably inside** the
//! recorded prefix: every goal node must be settled in the trace (the
//! early-termination rule would have stopped within it), or the trace
//! must be complete (the sweep exhausted the root's component in key
//! order, so absent nodes are proven unreachable). Anything else is a
//! miss. On a miss, [`crate::dijkstra::run_tree`] records the sweep to
//! twice the depth its goal needed (or to exhaustion) and re-stores that,
//! so the next, somewhat deeper goal from the same root adopts. A
//! goal-directed sweep settles in another order, so it is never recorded.
//!
//! Replaying a trace into a [`SearchArena`] survives only as
//! [`SweepTrace::adopt_into`]: the benchmark's adoption probe times it,
//! and tests use the replayed arena as the oracle the read is checked
//! against.
//!
//! A live-traffic weight update need not cost a stored trace its value:
//! [`SweepTrace::repair`] rewrites a complete trace in place into exactly
//! the trace a fresh sweep records on the reweighted map, recomputing only
//! the labels that move and moving each into the bucket its new key falls
//! in, so a repair costs the labels that move plus one pass over the
//! buckets.
//!
//! The traces live in a [`crate::TreeCache`] ([`crate::cache`]), the
//! capacity-bounded LRU the adopt-or-grow entry point
//! ([`crate::dijkstra::run_tree`]) adopts from and stores into; it owns
//! the `(map_epoch, root)` keying, the keep-the-deeper rule and the
//! invalidation and repair story.

use crate::arena::{NIL, SearchArena, ord_of};
use crate::dijkstra::{DEEPEN_FACTOR, Goal, Swept};
use crate::path::{Path, PathOrder, walk};
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A key whose order is a trace's settle order: `(ord_of(dist), node)`,
/// the order a plain sweep's integer frontier pops in.
type Key = (u64, u32);

/// One settle of a bucketed trace: its final label and its out-degree —
/// the relaxations its expansion adds to every later settle's `relaxed`
/// snapshot (reweighting never changes it).
#[derive(Clone, Copy, Debug)]
struct Entry {
    dist: f64,
    node: u32,
    degree: u32,
}

const _: () = assert!(size_of::<Entry>() == 16);

impl Entry {
    #[inline]
    fn key(&self) -> Key {
        (ord_of(self.dist), self.node)
    }
}

/// The settles a fresh bucket takes, and half the most a bucket holds
/// before it splits: a rank query scans one bucket, a repair walks every
/// bucket once. A measured constant, not a knob.
const BUCKET: usize = 128;

/// How many entries a full bucket grows by. A trace lives long in a
/// cache: a bucket that a repair pushes one settle onto must not double
/// its memory, so it grows by this much instead, and gives back what it
/// holds beyond twice this.
const SLACK: usize = BUCKET / 8;

/// An entry's slot: its bucket's handle in the high bits, its position in
/// the bucket in the low [`POS_BITS`].
const POS_BITS: u32 = 9;
const _: () = assert!(2 * BUCKET < 1 << POS_BITS, "a bucket about to split fits its positions");

/// The most settles a trace records: with at most three buckets per
/// [`BUCKET`] settles during a repair, its handles fit the slot's high
/// bits. A longer sweep (≈ 6 GB) is recorded up to here, incomplete.
const MAX_BUCKETED: usize = 1 << 28;

#[inline]
fn slot(handle: usize, pos: usize) -> u32 {
    (handle << POS_BITS | pos) as u32
}

#[inline]
fn unslot(slot: u32) -> (usize, usize) {
    ((slot >> POS_BITS) as usize, (slot & ((1 << POS_BITS) - 1)) as usize)
}

/// One bucket of a [`KeyBuckets`]: an unordered bag of entries, its count
/// (the bag's length) and degree sum, and the prefix before it.
#[derive(Clone, Debug, Default)]
struct Bucket {
    entries: Vec<Entry>,
    /// Sum of its entries' out-degrees.
    degrees: u32,
    /// Settles in every earlier bucket.
    before: u32,
    /// The `relaxed` snapshot at its first settle: the degree sum of
    /// every earlier bucket.
    relaxed: u32,
}

impl Bucket {
    /// Append `e`, growing by [`SLACK`].
    fn push(&mut self, e: Entry) {
        if self.entries.len() == self.entries.capacity() {
            self.entries.reserve_exact(SLACK);
        }
        self.entries.push(e);
        self.degrees += e.degree;
    }

    /// Give back the room beyond twice [`SLACK`].
    fn trim(&mut self) {
        if self.entries.capacity() > self.entries.len() + 2 * SLACK {
            self.entries.shrink_to(self.entries.len() + SLACK);
        }
    }
}

/// Where a bucket starts in key order: its least key and its handle.
#[derive(Clone, Copy, Debug)]
struct Lo {
    ord: u64,
    node: u32,
    handle: u32,
}

impl Lo {
    #[inline]
    fn key(&self) -> Key {
        (self.ord, self.node)
    }
}

/// The settles of a trace, in consecutive settle-key ranges ("buckets").
#[derive(Clone, Debug, Default)]
struct KeyBuckets {
    /// The buckets by handle; a freed handle holds an empty one.
    buckets: Vec<Bucket>,
    /// The buckets in key order: each range runs from its `Lo` to the
    /// next one's, and the first takes every key.
    order: Vec<Lo>,
    /// Handles of buckets merged away, reused by the next split.
    free: Vec<u32>,
    /// Settles in all buckets.
    len: usize,
}

impl KeyBuckets {
    #[inline]
    fn entry(&self, at: u32) -> &Entry {
        let (h, pos) = unslot(at);
        &self.buckets[h].entries[pos]
    }

    #[inline]
    fn entry_mut(&mut self, at: u32) -> &mut Entry {
        let (h, pos) = unslot(at);
        &mut self.buckets[h].entries[pos]
    }

    /// The settles before the one in slot `at`, and the `relaxed` snapshot
    /// at it: its bucket's prefix plus the members with a smaller key.
    fn rank(&self, at: u32) -> (u64, u64) {
        let (h, pos) = unslot(at);
        let b = &self.buckets[h];
        let key = b.entries[pos].key();
        let (mut before, mut relaxed) = (u64::from(b.before), u64::from(b.relaxed));
        for e in &b.entries {
            let less = u64::from(e.key() < key);
            before += less;
            relaxed += less * u64::from(e.degree);
        }
        (before, relaxed)
    }

    /// Every settle, and the sum of every degree: the last bucket's prefix
    /// and its own.
    fn totals(&self) -> SearchStats {
        let last =
            &self.buckets[self.order.last().expect("a trace settles its root").handle as usize];
        SearchStats { settled: self.len as u64, relaxed: u64::from(last.relaxed + last.degrees) }
    }

    /// Position in `order` of the bucket whose range holds `key`.
    fn bucket_for(&self, key: Key) -> usize {
        self.order.partition_point(|lo| lo.key() <= key) - 1
    }

    /// Move the settles in `moved`, whose labels changed, into the buckets
    /// their new keys fall in, in two passes: first swap-remove by slot
    /// every one that leaves its bucket, then push each onto its new
    /// bucket, splitting one that grows past twice [`BUCKET`]. Lifting
    /// them all out first leaves every bucket holding only keys of its
    /// range, so a split's median falls inside it. Prefixes are left for
    /// [`KeyBuckets::rebalance`].
    fn relocate(&mut self, index: &mut SettledIndex, moved: &[u32], lifted: &mut Vec<Entry>) {
        lifted.clear();
        for &node in moved {
            let (h, pos) = unslot(index.at(node));
            let e = self.buckets[h].entries[pos];
            if self.order[self.bucket_for(e.key())].handle as usize == h {
                continue;
            }
            let from = &mut self.buckets[h];
            from.entries.swap_remove(pos);
            from.degrees -= e.degree;
            if let Some(m) = from.entries.get(pos) {
                index.set(m.node, slot(h, pos));
            }
            lifted.push(e);
        }
        for &e in lifted.iter() {
            let k = self.bucket_for(e.key());
            let to = self.order[k].handle as usize;
            let into = &mut self.buckets[to];
            index.set(e.node, slot(to, into.entries.len()));
            into.push(e);
            if into.entries.len() > 2 * BUCKET {
                self.split(index, k);
            }
        }
    }

    /// Split the bucket at `order[k]` at its median key into two.
    fn split(&mut self, index: &mut SettledIndex, k: usize) {
        let h = self.order[k].handle as usize;
        let entries = &mut self.buckets[h].entries;
        let mid = entries.len() / 2;
        entries.select_nth_unstable_by_key(mid, Entry::key);
        let upper = entries.split_off(mid);
        let degrees = upper.iter().map(|e| e.degree).sum();
        self.buckets[h].degrees -= degrees;
        let (ord, node) = upper[0].key();
        let new = match self.free.pop() {
            Some(handle) => handle as usize,
            None => {
                self.buckets.push(Bucket::default());
                self.buckets.len() - 1
            }
        };
        for (handle, entries) in [(h, &self.buckets[h].entries), (new, &upper)] {
            for (pos, e) in entries.iter().enumerate() {
                index.set(e.node, slot(handle, pos));
            }
        }
        self.buckets[new] = Bucket { entries: upper, degrees, before: 0, relaxed: 0 };
        let lo = Lo { ord, node, handle: new as u32 };
        debug_assert!(
            self.order[k].key() < lo.key()
                && self.order.get(k + 1).is_none_or(|next| lo.key() < next.key()),
            "a split's median lies inside its bucket's range, so `order` stays sorted"
        );
        self.order.insert(k + 1, lo);
    }

    /// One pass over the buckets in key order after a repair's moves:
    /// merge each bucket into the one before it while the two hold at most
    /// [`BUCKET`] settles together, so there are never more than about
    /// two buckets per [`BUCKET`] settles, trim each, and rebuild every
    /// prefix.
    fn rebalance(&mut self, index: &mut SettledIndex) {
        let (mut kept, mut before, mut relaxed) = (0, 0, 0);
        for k in 0..self.order.len() {
            let h = self.order[k].handle as usize;
            let count = self.buckets[h].entries.len();
            if kept > 0 {
                let p = self.order[kept - 1].handle as usize;
                if self.buckets[p].entries.len() + count <= BUCKET {
                    let merged = std::mem::take(&mut self.buckets[h]);
                    let into = &mut self.buckets[p];
                    for e in merged.entries {
                        index.set(e.node, slot(p, into.entries.len()));
                        into.push(e);
                    }
                    (before, relaxed) = (before + count as u32, relaxed + merged.degrees);
                    self.free.push(h as u32);
                    continue;
                }
            }
            let b = &mut self.buckets[h];
            b.trim();
            (b.before, b.relaxed) = (before, relaxed);
            (before, relaxed) = (before + count as u32, relaxed + b.degrees);
            self.order[kept] = self.order[k];
            kept += 1;
        }
        self.order.truncate(kept);
        debug_assert_eq!(before as usize, self.len, "every settle in one bucket");
    }

    /// [`SweepTrace::repair`]'s labels: every entry's `dist` becomes its
    /// distance on `g`, with the overwritten ones logged in `s.touched`.
    /// Returns whether every candidate was reached again — finite
    /// reweighting keeps reachability, so anything else is a stale trace.
    fn relabel<G: GraphView>(
        &mut self,
        index: &SettledIndex,
        g: &G,
        changes: &[EdgeChange],
        s: &mut RepairScratch,
    ) -> bool {
        // The changed arcs inside the trace, with their old and new
        // cheapest weights; both endpoints need their parents rechecked.
        for c in changes {
            for (x, y, old) in [(c.a, c.b, c.old_ab), (c.b, c.a, c.old_ba)] {
                if index.at(x.0) == NIL || index.at(y.0) == NIL {
                    continue;
                }
                s.arcs.push((x.0, y.0, old, cheapest_arc(g, x, y)));
                s.mark_recheck(x.0);
                s.mark_recheck(y.0);
            }
        }
        // The rise roots, then their subtrees: `touched` is the walk's
        // queue, and each candidate restarts at ∞.
        for k in 0..s.arcs.len() {
            let (x, y, old, new) = s.arcs[k];
            if new > old && index.parent(y) == x && s.flags[y as usize] & CANDIDATE == 0 {
                s.flags[y as usize] |= CANDIDATE;
                s.touch(y, self.entry_mut(index.at(y)), f64::INFINITY);
            }
        }
        let mut k = 0;
        while k < s.touched.len() {
            let v = s.touched[k].0;
            g.for_each_arc(NodeId(v), &mut |u, _| {
                if index.parent(u.0) == v && s.flags[u.index()] & CANDIDATE == 0 {
                    s.flags[u.index()] |= CANDIDATE;
                    s.touch(u.0, self.entry_mut(index.at(u.0)), f64::INFINITY);
                }
            });
            k += 1;
        }
        // Seeds: the candidates from their non-candidate neighbours, then
        // the heads of fallen arcs.
        for k in 0..s.touched.len() {
            let v = s.touched[k].0;
            let mut best = f64::INFINITY;
            g.for_each_arc(NodeId(v), &mut |u, w| {
                if s.flags[u.index()] & CANDIDATE == 0 {
                    let cand = self.entry(index.at(u.0)).dist + w;
                    if cand < best {
                        best = cand;
                    }
                }
            });
            self.entry_mut(index.at(v)).dist = best;
            if best < f64::INFINITY {
                s.heap.push(Reverse((ord_of(best), v)));
            }
        }
        for k in 0..s.arcs.len() {
            let (x, y, old, new) = s.arcs[k];
            if new < old && s.flags[x as usize] & CANDIDATE == 0 {
                let cand = self.entry(index.at(x)).dist + new;
                let head = self.entry_mut(index.at(y));
                if cand < head.dist {
                    s.touch(y, head, cand);
                }
            }
        }
        // The Dijkstra from the seeds: a popped label is final.
        while let Some(Reverse((key, v))) = s.heap.pop() {
            let d = self.entry(index.at(v)).dist;
            if s.flags[v as usize] & DONE != 0 || key != ord_of(d) {
                continue;
            }
            s.flags[v as usize] |= DONE;
            g.for_each_arc(NodeId(v), &mut |u, w| {
                if s.flags[u.index()] & DONE == 0 {
                    let (cand, e) = (d + w, self.entry_mut(index.at(u.0)));
                    if cand < e.dist {
                        s.touch(u.0, e, cand);
                    }
                }
            });
        }
        s.touched.iter().all(|&(v, _)| self.entry(index.at(v)).dist < f64::INFINITY)
    }

    /// [`SweepTrace::repair`]'s parents for the moved settles, the
    /// neighbours they held or are tight for, and the changed endpoints:
    /// the tight neighbour with the smallest settle key, into
    /// `s.reparent`. Returns `false` when one
    /// settles no earlier than the node itself, or a moved node would
    /// settle before the root — the order rule's premise fails.
    fn reparent<G: GraphView>(
        &self,
        index: &SettledIndex,
        root: u32,
        g: &G,
        s: &mut RepairScratch,
    ) -> bool {
        let first = self.entry(index.at(root)).key();
        for k in 0..s.moved.len() {
            let v = s.moved[k];
            let e = *self.entry(index.at(v));
            if e.key() < first {
                return false;
            }
            s.mark_recheck(v);
            // An unmoved neighbour off the changed arcs keeps its tight
            // neighbours but the moved ones, so its parent changes only
            // if it hung from `v` or `v` is tight for it now.
            g.for_each_arc(NodeId(v), &mut |u, w| {
                if index.parent(u.0) == v || e.dist + w == self.entry(index.at(u.0)).dist {
                    s.mark_recheck(u.0);
                }
            });
        }
        for k in 0..s.rechecks.len() {
            let v = s.rechecks[k];
            if v == root {
                continue;
            }
            let me = *self.entry(index.at(v));
            let mut best: Option<Key> = None;
            g.for_each_arc(NodeId(v), &mut |u, w| {
                let p = self.entry(index.at(u.0));
                if p.dist + w == me.dist && best.is_none_or(|b| p.key() < b) {
                    best = Some(p.key());
                }
            });
            match best {
                Some(b) if b < me.key() => s.reparent.push((v, b.1)),
                _ => return false,
            }
        }
        true
    }
}

/// A recorded Dijkstra sweep: its labels, tree and counters, read by
/// [`crate::dijkstra::run_tree`] through a [`TreeView`].
#[derive(Clone, Debug)]
pub struct SweepTrace {
    root: NodeId,
    nodes: usize,
    /// The settles; a settle's *slot* is where it lives here.
    buckets: KeyBuckets,
    /// The settled-set index: node → slot, and the tree by node.
    index: SettledIndex,
    /// Whether the sweep exhausted the root's component in key order (no
    /// early stop, nothing cut), i.e. every reachable node is settled and
    /// absence proves unreachability.
    complete: bool,
}

impl SweepTrace {
    /// The trace of the plain sweep that just grew in `arena` and reported
    /// `swept`, read off the arena: its settle log, each settle's label,
    /// parent and out-degree. The log is cut at the first settle whose
    /// `(dist, node)` key does not strictly rise (only a zero-weight tie or
    /// a sum that absorbs a weight makes one) or at [`MAX_BUCKETED`], and a
    /// sweep whose goal stop lies inside it is kept up to that stop, or with
    /// `deepen` up to [`DEEPEN_FACTOR`] times it. The goal's own settle
    /// keeps degree 0 where the sweep stops there: a sweep never expands
    /// the settle that stops it. [`BUCKET`] consecutive settles make a key
    /// bucket. A complete trace that settled at least two thirds of its map
    /// keeps a node-addressed [`SettledIndex`] (a slot column, and a parent
    /// column beside it, [`NIL`] where nothing settled); any other ranks
    /// both by its settled nodes, sorted. The root is the first settle.
    pub(crate) fn build(arena: &SearchArena, swept: &Swept, deepen: bool) -> SweepTrace {
        let log = &arena.log;
        let dist = |v: u32| arena.dist_raw(NodeId(v));
        let key = |v: u32| (ord_of(dist(v)), v);
        let cap = log.len().min(MAX_BUCKETED);
        let cut = log[..cap].windows(2).position(|w| key(w[1]) <= key(w[0]));
        let mut len = cut.map_or(cap, |i| i + 1);
        let stop = swept.met.then_some(swept.stats.settled as usize).filter(|&k| k <= len);
        if let Some(k) = stop {
            len = len.min(if deepen { DEEPEN_FACTOR * k } else { k });
        }
        // A sweep that stopped at its goal proves nothing past it.
        let complete = swept.exhausted && len == log.len() && (deepen || !swept.met);
        let unexpanded = if deepen { None } else { stop.map(|k| k - 1) };
        let degree =
            |i: usize| if unexpanded == Some(i) { 0 } else { arena.degree(NodeId(log[i])) };

        let mut buckets = Vec::with_capacity(len.div_ceil(BUCKET));
        let mut order = Vec::with_capacity(buckets.capacity());
        let mut relaxed = 0;
        for (h, chunk) in log[..len].chunks(BUCKET).enumerate() {
            let first = h * BUCKET;
            let entries: Vec<Entry> = (first..first + chunk.len())
                .map(|i| Entry { dist: dist(log[i]), node: log[i], degree: degree(i) })
                .collect();
            let degrees = entries.iter().map(|e| e.degree).sum();
            let (ord, node) = if h == 0 { (0, 0) } else { entries[0].key() };
            order.push(Lo { ord, node, handle: h as u32 });
            buckets.push(Bucket { entries, degrees, before: first as u32, relaxed });
            relaxed += degrees;
        }
        let at = |i: usize| slot(i / BUCKET, i % BUCKET);
        let parent = |v: u32| arena.parent_raw(NodeId(v));
        let nodes = arena.num_nodes();
        let index = if complete && 3 * len >= 2 * nodes {
            let (mut slots, mut parents) = (vec![NIL; nodes], vec![NIL; nodes]);
            for (i, &v) in log[..len].iter().enumerate() {
                (slots[v as usize], parents[v as usize]) = (at(i), parent(v));
            }
            SettledIndex { sorted: None, at: slots, parent: parents }
        } else {
            // Each settle's node above its rank, sorted.
            let mut ranked: Vec<u64> =
                log[..len].iter().zip(0..).map(|(&v, i)| u64::from(v) << 32 | i).collect();
            ranked.sort_unstable();
            let sorted: Vec<u32> = ranked.iter().map(|&r| (r >> 32) as u32).collect();
            SettledIndex {
                at: ranked.iter().map(|&r| at(r as u32 as usize)).collect(),
                parent: sorted.iter().map(|&v| parent(v)).collect(),
                sorted: Some(sorted),
            }
        };
        let buckets = KeyBuckets { buckets, order, free: Vec::new(), len };
        SweepTrace { root: NodeId(log[0]), nodes, buckets, index, complete }
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
        self.buckets.len
    }

    /// Whether the trace is empty (never — sweeps settle their root — but
    /// the conventional pair to [`SweepTrace::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the sweep exhausted its component.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The settled nodes in settle order (nearest-first). Lets callers
    /// measure a sweep's *spatial footprint* — e.g. how much of it falls
    /// inside one shard's region under region-owned placement — without
    /// exposing the per-settle counters.
    pub fn settled(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.in_settle_order().into_iter().map(|(node, _, _)| NodeId(node))
    }

    /// Settle-order index of `node`, if the sweep settled it.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        let at = self.slot(node)?;
        Some(self.stats_at(Stop(Some(at))).settled as usize - 1)
    }

    /// Slot of `node`'s settle, if the sweep settled it.
    #[inline]
    fn slot(&self, node: NodeId) -> Option<u32> {
        match self.index.at(node.0) {
            NIL => None,
            at => Some(at),
        }
    }

    /// The settle-order key of the settle in slot `at`.
    #[inline]
    fn key_at(&self, at: u32) -> Key {
        self.buckets.entry(at).key()
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
        endpoints.iter().any(|&(a, b)| self.slot(a).is_some() || self.slot(b).is_some())
    }

    /// Rewrite this trace in place into exactly the trace a fresh
    /// [`Goal::AllNodes`] sweep from the same root records on `g`, the map
    /// after a weight update whose changed edges are `changes` — the same
    /// labels (distance bits), tree parents, settle positions and
    /// `relaxed` snapshots, the same final counters. Returns `false` when
    /// the trace cannot be repaired; it must then be dropped.
    ///
    /// Only a complete trace on a map of `g`'s size is repaired, and only
    /// on a symmetric `g` (a node's in-arcs are its out-arcs). Anything
    /// else returns `false` untouched.
    ///
    /// The repair is incremental (after Ramalingam & Reps): it recomputes
    /// only the labels that can move and moves only their entries.
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
    ///   integer frontier pops, which is the order the buckets rank by:
    ///   every settle whose distance moved out of its bucket's range is
    ///   first swap-removed from it by slot, then each joins the bucket its
    ///   new key falls in (a bucket grown past twice its target of 128
    ///   splits at its median key, over keys of its range only), and
    ///   nothing else moves.
    /// * **Parents.** A node's parent is the tight neighbour `u` (`d_u + w
    ///   == d_v`) with the smallest settle key (the first strict improver
    ///   wins). It is recomputed for moved nodes, the neighbours that hung
    ///   from one or that one is now tight for, and the changed endpoints;
    ///   every other node keeps its tight neighbours but the moved ones,
    ///   so its parent stays, and the tree changes exactly at the
    ///   recomputed ones.
    /// * **Counters.** A position is the settles of the earlier buckets
    ///   plus the smaller keys in its own, and a `relaxed` snapshot the
    ///   out-degrees of the same settles. A move carries its entry's
    ///   degree from one bucket's sum to the other's, and one pass over
    ///   the buckets rebuilds the prefixes. Reweighting keeps reachability
    ///   and degrees, so the final counters and completeness stay.
    ///
    /// Every check runs before anything is applied. A repair costs the
    /// labels that move (and their arcs) plus one pass over the buckets,
    /// not a pass over the trace.
    ///
    /// The premise of the order rule — every node has a tight neighbour
    /// that settles before it, and the root settles first — can fail only
    /// on zero-weight arcs (or sums that absorb a weight); the repair
    /// checks it and returns `false` instead, with the trace untouched.
    pub fn repair<G: GraphView>(
        &mut self,
        g: &G,
        changes: &[EdgeChange],
        scratch: &mut RepairScratch,
    ) -> bool {
        if !self.complete || !g.is_symmetric() || self.nodes != g.num_nodes() {
            return false;
        }
        let (s, b, index) = (scratch, &mut self.buckets, &mut self.index);
        s.begin(self.nodes);
        let repaired = b.relabel(index, g, changes, s) && {
            for &(v, old) in &s.touched {
                if b.entry(index.at(v)).dist.to_bits() != old.to_bits() {
                    s.moved.push(v);
                }
            }
            b.reparent(index, self.root.0, g, s)
        };
        if repaired {
            for &(v, p) in &s.reparent {
                index.set_parent(v, p);
            }
            b.relocate(index, &s.moved, &mut s.lifted);
            b.rebalance(index);
        } else {
            for &(v, old) in &s.touched {
                b.entry_mut(index.at(v)).dist = old;
            }
        }
        s.end();
        repaired
    }

    /// Where a fresh sweep with `goal` would stop, if that point is
    /// provably inside this trace; `None` means the trace cannot answer
    /// the goal (some goal node lies beyond the settled radius of an
    /// incomplete sweep). A goal set stops at the member with the largest
    /// settle key, found without a rank query.
    pub(crate) fn stop_for(&self, goal: &Goal) -> Option<Stop> {
        let exhausted = self.complete.then_some(Stop(None));
        match goal {
            Goal::AllNodes => exhausted,
            Goal::Single(t) => self.slot(*t).map(|at| Stop(Some(at))).or(exhausted),
            Goal::Set(ts) => {
                let mut last: Option<(Key, u32)> = None;
                for t in ts {
                    // One unsettled target: only a complete sweep can
                    // answer it (by proving it unreachable), and then the
                    // fresh sweep would exhaust too.
                    let Some(at) = self.slot(*t) else { return exhausted };
                    let key = self.key_at(at);
                    if last.is_none_or(|(k, _)| key > k) {
                        last = Some((key, at));
                    }
                }
                // An empty goal set never triggers the stop rule.
                last.map(|(_, at)| Stop(Some(at))).or(exhausted)
            }
        }
    }

    /// The counters a fresh sweep reports when it stops at `stop`: the
    /// settles up to it and the `relaxed` snapshot there, or — for the
    /// exhausted sweep of a complete trace — every settle and the sum of
    /// every degree.
    pub(crate) fn stats_at(&self, stop: Stop) -> SearchStats {
        let Stop(Some(at)) = stop else { return self.buckets.totals() };
        let (before, relaxed) = self.buckets.rank(at);
        SearchStats { settled: before + 1, relaxed }
    }

    /// The counters a fresh sweep with `goal` reports — the snapshot at the
    /// settle where it would stop, or the exhausted sweep's final counters
    /// — if that stop is provably inside this trace. Its `settled` is the
    /// length of the goal-stop prefix: every settle records one label.
    pub(crate) fn stats_for(&self, goal: &Goal) -> Option<SearchStats> {
        self.stop_for(goal).map(|stop| self.stats_at(stop))
    }

    /// The view a hit answers with: this trace's prefix up to `stop`.
    pub(crate) fn view(&self, stop: Stop) -> TreeView<'_> {
        TreeView::Trace { trace: self, stop }
    }

    /// Every settle as `(node, dist, parent node)` ([`NIL`] for the root),
    /// in settle order: the entries sorted by key.
    fn in_settle_order(&self) -> Vec<(u32, f64, u32)> {
        let mut entries: Vec<&Entry> =
            self.buckets.buckets.iter().flat_map(|b| &b.entries).collect();
        entries.sort_unstable_by_key(|e| e.key());
        entries.iter().map(|e| (e.node, e.dist, self.index.parent(e.node))).collect()
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
    /// tests hold that read to; it sorts the trace's settles first.
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
        let prefix = self.in_settle_order().into_iter().take(stats.settled as usize);
        for (node, dist, parent) in prefix {
            arena.label(NodeId(node), dist, (parent != NIL).then_some(NodeId(parent)));
            arena.settle(NodeId(node));
        }
        Some(stats)
    }
}

/// A trace's settled-set index: for each settled node its slot, and the
/// tree by node — its parent node ([`NIL`] for the root), which a path is
/// read from without touching a settle. The two columns are addressed by
/// node, one entry per map node ([`NIL`] where the sweep did not settle),
/// or by rank in `sorted`, the settled nodes in ascending order. A
/// complete trace that settled at least two thirds of its map is addressed
/// by node: at most 12 B per settle, 8 B for a map-spanning one, and a
/// lookup or a hop is one load. Every other trace — an early stop, a small
/// component — is ranked, at 12 B per settle.
#[derive(Clone, Debug, PartialEq)]
struct SettledIndex {
    /// The settled nodes, ascending, when the columns are ranked by them.
    sorted: Option<Vec<u32>>,
    /// Each node's slot.
    at: Vec<u32>,
    /// Each node's parent node.
    parent: Vec<u32>,
}

impl SettledIndex {
    /// Where `node`'s entries lie in the columns: its rank among the
    /// settled nodes, or the node itself where the columns are addressed by
    /// node.
    #[inline]
    fn position(&self, node: u32) -> Option<usize> {
        match &self.sorted {
            None => Some(node as usize),
            Some(settled) => settled.binary_search(&node).ok(),
        }
    }

    /// Slot of `node`, or [`NIL`] when the sweep did not settle it. The
    /// node-addressed read stays one load: a hit's path read is made of
    /// these and [`SettledIndex::parent`].
    #[inline]
    fn at(&self, node: u32) -> u32 {
        match &self.sorted {
            None => self.at.get(node as usize).copied().unwrap_or(NIL),
            Some(_) => self.position(node).map_or(NIL, |k| self.at[k]),
        }
    }

    /// Parent node of settled `node` ([`NIL`] for the root).
    #[inline]
    fn parent(&self, node: u32) -> u32 {
        match &self.sorted {
            None => self.parent[node as usize],
            Some(_) => self.position(node).map_or(NIL, |k| self.parent[k]),
        }
    }

    /// Move settled `node` to slot `at`.
    fn set(&mut self, node: u32, at: u32) {
        if let Some(k) = self.position(node) {
            self.at[k] = at;
        }
    }

    /// Make `p` the parent node of settled `node`.
    fn set_parent(&mut self, node: u32, p: u32) {
        if let Some(k) = self.position(node) {
            self.parent[k] = p;
        }
    }
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
/// Parent to recompute.
const RECHECK: u8 = 1 << 3;

/// The reusable working memory of [`SweepTrace::repair`]: per-node flags
/// and a few lists sized by what moves, grown to the largest repair and
/// reused, so a shard that repairs on every update allocates nothing once
/// warm. The trace's own resident index maps nodes to settles, so nothing
/// here is refilled per repair; the flags are cleared through the lists
/// that set them.
#[derive(Debug, Default)]
pub struct RepairScratch {
    /// Per map node, the flags above; all clear between repairs.
    flags: Vec<u8>,
    /// Changed arcs inside the trace: `(tail, head, old, new)` weights.
    arcs: Vec<(u32, u32, f64, f64)>,
    /// Nodes whose label was overwritten, with the old distance.
    touched: Vec<(u32, f64)>,
    /// Nodes whose distance changed.
    moved: Vec<u32>,
    /// The moved settles that leave their bucket, between the two passes
    /// of a relocation.
    lifted: Vec<Entry>,
    /// Nodes whose parent is recomputed.
    rechecks: Vec<u32>,
    /// `(node, parent node)` for the recomputed parents.
    reparent: Vec<(u32, u32)>,
    /// The repair's frontier: `(key, node)`, smallest first.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl RepairScratch {
    fn begin(&mut self, nodes: usize) {
        if self.flags.len() < nodes {
            self.flags.resize(nodes, 0);
        }
        debug_assert!(self.flags.iter().all(|&f| f == 0), "the last repair cleared its flags");
        self.arcs.clear();
        self.touched.clear();
        self.moved.clear();
        self.rechecks.clear();
        self.reparent.clear();
        self.heap.clear();
    }

    /// Clear every flag the repair set: each is on a touched or rechecked
    /// node.
    fn end(&mut self) {
        for &(v, _) in &self.touched {
            self.flags[v as usize] = 0;
        }
        for &v in &self.rechecks {
            self.flags[v as usize] = 0;
        }
    }

    fn mark_recheck(&mut self, v: u32) {
        if self.flags[v as usize] & RECHECK == 0 {
            self.flags[v as usize] |= RECHECK;
            self.rechecks.push(v);
        }
    }

    /// Set node `v`'s label `e` to `dist`, remembering its old distance
    /// the first time, and queue it when finite.
    fn touch(&mut self, v: u32, e: &mut Entry, dist: f64) {
        if self.flags[v as usize] & TOUCHED == 0 {
            self.flags[v as usize] |= TOUCHED;
            self.touched.push((v, e.dist));
        }
        e.dist = dist;
        if dist < f64::INFINITY {
            self.heap.push(Reverse((ord_of(dist), v)));
        }
    }
}

/// Where a sweep adopted from a trace stops: at one of that trace's
/// settles (the goal's last node settles there), or never (the sweep
/// exhausts the component). Opaque: only the trace it was found in reads
/// it.
#[derive(Clone, Copy, Debug)]
pub struct Stop(
    /// The slot of that settle, or `None` when the sweep exhausts.
    Option<u32>,
);

/// Where the labels of the tree [`crate::dijkstra::run_tree`] answered
/// with live: read paths from here, not from the arena — a cache hit
/// leaves the arena as it was.
#[derive(Clone, Copy, Debug)]
pub enum TreeView<'a> {
    /// A tree grown for real: the arena's.
    Arena(&'a SearchArena),
    /// A cache hit: the settles of a stored trace up to the one a fresh
    /// sweep with the same goal stops at.
    Trace {
        /// The stored trace.
        trace: &'a SweepTrace,
        /// Where that sweep stops, as only `trace` reads it.
        stop: Stop,
    },
}

impl TreeView<'_> {
    /// The path from the root to `t`, or `None` when the tree did not
    /// settle `t`. Equal, node for node and bit for bit in distance, to a
    /// fresh sweep's [`SearchArena::path_to`] for every node that sweep
    /// settled — in particular every goal node, and `None` for a goal
    /// node a complete sweep proved unreachable. Read, like every path in
    /// this crate, by one counted parent walk into one exact node buffer.
    pub fn path_to(&self, t: NodeId) -> Option<Path> {
        let mut path = None;
        self.paths_to(std::slice::from_ref(&t), PathOrder::RootFirst, |_, p| path = p);
        path
    }

    /// [`TreeView::path_to`] for each of `targets`, handed to `emit` in
    /// order with the target's index, each path read in `order`: root first
    /// for a source-rooted tree, root last for a transposed one, so either
    /// comes out source to target as it is delivered and nothing reverses
    /// it afterwards. Arena and trace alike are read by the one counted
    /// parent walk ([`walk`]), up to [`crate::path::LANES`] targets' chains
    /// side by side, one exact node buffer per path.
    pub(crate) fn paths_to(
        &self,
        targets: &[NodeId],
        order: PathOrder,
        emit: impl FnMut(usize, Option<Path>),
    ) {
        match *self {
            TreeView::Arena(arena) => arena.read_paths(targets, order, emit),
            TreeView::Trace { trace, stop } => {
                // Whether a target settled by the stop is one compare of
                // settle keys, not a rank query.
                let last = stop.0.map(|at| trace.key_at(at));
                let held = |t| {
                    let e = trace.buckets.entry(trace.slot(t)?);
                    last.is_none_or(|last| e.key() <= last).then_some(e.dist)
                };
                walk(targets, order, trace.nodes, held, |v| trace.index.parent(v), emit);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alt::{AltPreprocessing, GoalPotential};
    use crate::cache::TreeCache;
    use crate::cache::tests::unbounded;
    use crate::dijkstra::tests::OnHeap;
    use crate::dijkstra::{run_in, run_in_traced, run_tree};
    use crate::multi::{SharingPolicy, TreeSide, msmd, msmd_in_guided_cached};
    use crate::path::LANES;
    use proptest::prelude::*;
    use roadnet::generators::{
        ContinentConfig, GridConfig, NetworkClass, continent_network, grid_network,
    };
    use roadnet::{EdgeId, GraphBuilder, Point, RoadNetwork};

    fn grid() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() }).unwrap()
    }

    /// Every settle in settle order: node, distance bits, parent node and
    /// the `relaxed` snapshot at it.
    fn snapshots(t: &SweepTrace) -> Vec<(u32, u64, u32, u64)> {
        t.in_settle_order()
            .into_iter()
            .map(|(node, dist, parent)| {
                let at = Stop(Some(t.slot(NodeId(node)).unwrap()));
                (node, dist.to_bits(), parent, t.stats_at(at).relaxed)
            })
            .collect()
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
        let (partial_order, full_order) = (partial.in_settle_order(), full.in_settle_order());
        // Prefix property: the partial sweep is the full sweep truncated.
        for (i, e) in partial_order.iter().enumerate() {
            assert_eq!(e.0, full_order[i].0, "settle order diverged at {i}");
            assert_eq!(e.1, full_order[i].1);
        }
        assert!(partial_order.last().unwrap().1 <= full_order.last().unwrap().1);

        // Inside the radius: adoptable, byte-identical to a fresh run.
        let inside = partial_order[partial.len() / 2].0;
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
        let settled = NodeId(partial.in_settle_order()[partial.len() / 2].0);
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
            for (a, b) in snapshots(&stored).iter().zip(&snapshots(&full)) {
                assert_eq!(a, b, "{tag}");
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
            let t = NodeId(full.in_settle_order()[i].0);
            let goal = Goal::Set(vec![NodeId(30), t]);
            let (stats, view) = run_tree(&mut arena, &g, root, &goal, None, Some(&mut cache));
            let mut fresh = SearchArena::new();
            assert_eq!(stats, run_in(&mut fresh, &g, root, &goal), "goal settling at {i}");
            assert_eq!(view.path_to(t), fresh.path_to(t));
        }
        assert_eq!(cache.counters(), (3, 1));

        // One settle past 2k misses, and that miss deepens the entry again.
        let goal = Goal::Single(NodeId(full.in_settle_order()[2 * k].0));
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
                let (mut arena, mut fresh, mut cache) =
                    (SearchArena::new(), SearchArena::new(), unbounded());
                let (stats, _) =
                    run_tree(&mut arena, &g, root, &goal, Some(&pot), Some(&mut cache));
                let (uncached, _) = run_tree(&mut fresh, &g, root, &goal, Some(&pot), None);
                assert_eq!(stats, uncached, "{goal:?}");
                for v in g.nodes() {
                    assert_eq!(arena.distance(v), fresh.distance(v), "{goal:?}: stops at its goal");
                }
                assert_eq!(cache.counters(), (0, 0), "{goal:?}");
                assert!(cache.peek(root).is_none(), "{goal:?}: nothing recorded");
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
    fn zero_weight_tie_cuts_the_trace_to_its_key_ordered_prefix() {
        // The chain 0 – 1 – 2 – 3 – 9 at unit weights, then 9 – 4 at zero
        // and 4 – 5 – 6 – 7 – 8 at unit weights: 4 settles at 9's
        // distance, after 9 but before it in key order.
        let g = tiny(
            10,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 9, 1.0),
                (9, 4, 0.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 7, 1.0),
                (7, 8, 1.0),
            ],
        );
        let root = NodeId(0);
        let (stats, trace) = run_in_traced(&mut SearchArena::new(), &g, root, &Goal::AllNodes);
        assert_eq!(stats, run_in(&mut SearchArena::new(), &g, root, &Goal::AllNodes));
        assert_eq!(trace.settled().map(|v| v.0).collect::<Vec<_>>(), [0, 1, 2, 3, 9]);
        assert!(!trace.is_complete(), "a cut trace proves nothing beyond its prefix");
        assert_buckets_hold(&trace, "cut");

        // Goals inside the prefix hit once stored, goals beyond it miss;
        // either way the counters and paths are a fresh sweep's.
        let (mut arena, mut cache) = (SearchArena::new(), unbounded());
        let singles = [9, 1, 3, 4, 6, 2, 8].map(|t| vec![NodeId(t)]);
        for targets in singles.into_iter().chain([vec![NodeId(2), NodeId(7)]]) {
            let goal = match targets[..] {
                [t] => Goal::Single(t),
                _ => Goal::Set(targets.clone()),
            };
            let (got, view) = run_tree(&mut arena, &g, root, &goal, None, Some(&mut cache));
            let read: Vec<_> = targets.iter().map(|&t| bits(view.path_to(t))).collect();
            let mut fresh = SearchArena::new();
            assert_eq!(got, run_in(&mut fresh, &g, root, &goal), "{goal:?}: counters");
            let want: Vec<_> = targets.iter().map(|&t| bits(fresh.path_to(t))).collect();
            assert_eq!(read, want, "{goal:?}: paths");
        }
        // The first miss stored the prefix; 1, 3 and 2 hit it, and 4, 6, 8
        // and {2, 7} lie beyond it.
        assert_eq!(cache.counters(), (3, 5));

        // A miss that crosses the tie stops at its goal: its arena reads
        // what a fresh sweep stopping there leaves, tentative labels too,
        // and it stores the prefix again.
        let (mut arena, mut cache) = (SearchArena::new(), unbounded());
        for t in [3, 6] {
            let goal = Goal::Single(NodeId(t));
            run_tree(&mut arena, &g, root, &goal, None, Some(&mut cache));
            let stored = cache.peek(root).unwrap();
            assert_eq!((stored.len(), stored.is_complete()), (5, false), "goal {t}");
            if t == 6 {
                let mut fresh = SearchArena::new();
                run_in(&mut fresh, &g, root, &goal);
                for v in g.nodes() {
                    assert_eq!(arena.distance(v), fresh.distance(v), "goal {t}: label of {v}");
                }
            }
        }
    }

    /// `g` beside as many isolated nodes: a complete sweep settles half of
    /// it, so its trace ranks its columns by settled node.
    fn beside_as_many_isolated(g: &RoadNetwork) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.point(v)).unwrap();
        }
        for e in g.edges() {
            b.add_edge(e.a, e.b, e.weight).unwrap();
        }
        for i in 0..g.num_nodes() {
            b.add_node(Point::new(-1e4 - i as f64, -1e4)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn lockstep_paths_equal_paths_read_one_by_one() {
        let g = grid();
        let n = g.num_nodes() as u32;
        let half = beside_as_many_isolated(&g);
        let root = NodeId(5);
        let mut arena = SearchArena::new();
        let (_, dense) = run_in_traced(&mut arena, &g, root, &Goal::AllNodes);
        let (_, sparse) = run_in_traced(&mut arena, &half, root, &Goal::AllNodes);
        let (_, short) = run_in_traced(&mut arena, &g, root, &Goal::Single(NodeId(100)));
        for (trace, dense_form, complete) in
            [(&dense, true, true), (&sparse, false, true), (&short, false, false)]
        {
            assert_eq!(trace.index.sorted.is_none(), dense_form);
            assert_eq!(trace.is_complete(), complete);
        }

        for (trace, tag) in [(&dense, "dense"), (&sparse, "sorted"), (&short, "short")] {
            let order = trace.in_settle_order();
            let (early, last) = (NodeId(order[order.len() / 3].0), NodeId(order.last().unwrap().0));
            // More than two chunks of lanes: the root, nodes across the map
            // and past it, a duplicate, the last settle (after the early
            // stop) and a node out of range.
            let mut targets: Vec<NodeId> = (0..2 * n).step_by(11).map(NodeId).collect();
            targets.extend([root, NodeId(17), NodeId(17), last, early, NodeId(3 * n)]);
            assert!(targets.len() > 2 * LANES);
            let mut goals = vec![Goal::Single(early), Goal::Single(last)];
            if trace.is_complete() {
                goals.push(Goal::AllNodes);
            }
            for goal in goals {
                let tag = format!("{tag} {goal:?}");
                let view = trace.view(trace.stop_for(&goal).unwrap());
                let lockstep: Vec<_> =
                    read_all(view, &targets, PathOrder::RootFirst).into_iter().map(bits).collect();
                let one_by_one: Vec<_> = targets.iter().map(|&t| bits(view.path_to(t))).collect();
                assert_eq!(lockstep, one_by_one, "{tag}");
                let mut replay = SearchArena::new();
                trace.adopt_into(&mut replay, &goal).unwrap();
                for (&t, got) in targets.iter().zip(&lockstep) {
                    assert_eq!(*got, bits(replay.path_to(t)), "{tag}: path to {t}");
                }
                let early_stop = goal == Goal::Single(early);
                assert_eq!(lockstep[lockstep.len() - 3].is_none(), early_stop, "{tag}: last");
            }
        }

        // A grown tree, read where it grew: on the ring and on the heap,
        // stopped early (tentative labels past the goal) and exhausted, each
        // path equal to a plain parent walk over the arena's labels.
        let mut targets: Vec<NodeId> = (0..2 * n).step_by(11).map(NodeId).collect();
        targets.extend([root, NodeId(17), NodeId(17), NodeId(3 * n)]);
        let mut arena = SearchArena::new();
        for m in [&g, &half] {
            for goal in [Goal::Single(NodeId(100)), Goal::AllNodes] {
                for traced in [false, true] {
                    if traced {
                        run_in_traced(&mut arena, m, root, &goal);
                    } else {
                        run_in(&mut arena, m, root, &goal);
                    }
                    let tag = format!("arena, {} nodes, {goal:?}, traced {traced}", m.num_nodes());
                    let view = TreeView::Arena(&arena);
                    let lockstep: Vec<_> = read_all(view, &targets, PathOrder::RootFirst)
                        .into_iter()
                        .map(bits)
                        .collect();
                    let one_by_one: Vec<_> =
                        targets.iter().map(|&t| bits(view.path_to(t))).collect();
                    assert_eq!(lockstep, one_by_one, "{tag}");
                    for (&t, got) in targets.iter().zip(&lockstep) {
                        assert_eq!(*got, parent_chain(&arena, t), "{tag}: path to {t}");
                    }
                    assert!(lockstep.iter().flatten().any(|p| p.0.len() > 10), "{tag}: long paths");
                }
            }
        }
    }

    /// Every target's path through [`TreeView::paths_to`], emitted in
    /// target order.
    fn read_all(view: TreeView<'_>, targets: &[NodeId], order: PathOrder) -> Vec<Option<Path>> {
        let mut paths = Vec::new();
        view.paths_to(targets, order, |k, p| {
            assert_eq!(k, paths.len(), "paths are emitted in target order");
            paths.push(p);
        });
        paths
    }

    /// The path to `t` by a plain parent walk over the arena's labels,
    /// pushed target first and reversed: the oracle the counted walk is
    /// held to.
    fn parent_chain(arena: &SearchArena, t: NodeId) -> Option<(Vec<NodeId>, u64)> {
        let d = arena.distance(t)?;
        let mut nodes = vec![t];
        loop {
            match arena.parent_raw(*nodes.last().unwrap()) {
                NIL => break,
                p => nodes.push(NodeId(p)),
            }
        }
        nodes.reverse();
        Some((nodes, d.to_bits()))
    }

    #[test]
    fn delivery_order_reads_are_root_first_reads_reversed() {
        let g = grid();
        let mut ties = g.clone();
        let integer: Vec<(EdgeId, f64)> =
            (0..g.num_edges()).map(|e| (EdgeId::from_index(e), (e % 3 + 1) as f64)).collect();
        ties.update_weights(&integer).unwrap();
        let root = NodeId(5);
        let reversed = |p: Option<Path>| {
            bits(p.map(|p| Path::new(p.nodes().iter().rev().copied().collect(), p.distance())))
        };
        for (map, weights) in [(&g, "grid"), (&ties, "tie-heavy")] {
            let n = map.num_nodes() as u32;
            let half = beside_as_many_isolated(map);
            // Nodes across the map, the isolated ones beside it on `half`
            // (out of range on `map`), the root, a duplicate and one out of
            // range on both: more than two chunks of lanes.
            let mut targets: Vec<NodeId> = (0..2 * n).step_by(7).map(NodeId).collect();
            targets.extend([root, NodeId(17), NodeId(17), NodeId(2 * n + 1)]);
            let check = |view: TreeView<'_>, tag: &str| {
                let first = read_all(view, &targets, PathOrder::RootFirst);
                let last = read_all(view, &targets, PathOrder::RootLast);
                assert!(first.iter().any(Option::is_none), "{tag}: an unread target");
                assert!(first.iter().flatten().any(|p| p.num_edges() > 2), "{tag}: long paths");
                for ((t, first), last) in targets.iter().zip(first).zip(last) {
                    assert_eq!(bits(last), reversed(first), "{tag}: path to {t}");
                }
            };

            let mut arena = SearchArena::new();
            let early = Goal::Single(NodeId(100));
            let (_, dense) = run_in_traced(&mut arena, map, root, &Goal::AllNodes);
            let (_, sorted) = run_in_traced(&mut arena, &half, root, &Goal::AllNodes);
            let (_, short) = run_in_traced(&mut arena, map, root, &early);
            for (trace, form) in [(&dense, "dense"), (&sorted, "sorted"), (&short, "short")] {
                assert_eq!(trace.index.sorted.is_none(), form == "dense");
                for goal in [&early, &Goal::AllNodes] {
                    if let Some(stop) = trace.stop_for(goal) {
                        check(trace.view(stop), &format!("{weights} {form} trace, {goal:?}"));
                    }
                }
            }
            for m in [map, &half] {
                for goal in [&early, &Goal::AllNodes] {
                    run_in(&mut arena, m, root, goal);
                    let tag = format!("{weights} arena, {} nodes, {goal:?}", m.num_nodes());
                    check(TreeView::Arena(&arena), &tag);
                }
            }

            // An `Auto` unit answers from trees rooted at its targets: its
            // matrix is the swapped sets' `PerSource` matrix, transposed,
            // each path reversed — grown, then adopted from the cache.
            let sources: Vec<NodeId> = [0, 7, 31, 77, 100, 143].map(NodeId).to_vec();
            let targets = vec![NodeId(66), NodeId(n + 3), NodeId(130)];
            let mut cache = unbounded();
            for round in 0..2 {
                let auto = msmd_in_guided_cached(
                    &mut arena,
                    &half,
                    &sources,
                    &targets,
                    SharingPolicy::Auto,
                    None,
                    &mut cache,
                );
                let swapped = msmd(&half, &targets, &sources, SharingPolicy::PerSource);
                assert!(auto.per_tree.iter().all(|t| t.side == TreeSide::Target));
                for (i, row) in auto.paths.into_iter().enumerate() {
                    for (j, p) in row.into_iter().enumerate() {
                        let expected = reversed(swapped.paths[j][i].clone());
                        assert_eq!(bits(p), expected, "{weights} round {round}: ({i}, {j})");
                    }
                }
            }
            assert_eq!(cache.counters().0, targets.len() as u64, "{weights}: round 1 adopts");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "parent cycle")]
    fn a_parent_cycle_fails_a_path_read_instead_of_spinning() {
        let g = grid();
        let (_, mut trace) = run_in_traced(&mut SearchArena::new(), &g, NodeId(0), &Goal::AllNodes);
        assert!(parent_column(&trace).is_some(), "a dense trace");
        // The far corner's parent made its child's child: the chain loops.
        let corner = NodeId(g.num_nodes() as u32 - 1);
        let parent = trace.index.parent(corner.0);
        trace.index.set_parent(parent, corner.0);
        trace.view(Stop(None)).path_to(corner);
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
        let order = trace.in_settle_order();
        let r = order.last().unwrap().1;
        for &(node, dist, _) in &order {
            assert!(dist <= r + 1e-12, "settle order is nondecreasing in distance");
            assert_eq!(trace.position(NodeId(node)).map(|i| order[i].0), Some(node));
        }
        // The public settled-nodes view mirrors the settle order exactly.
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
    /// last real sweep left it. A guided tree must instead bypass the
    /// cache and read what a fresh guided sweep reads.
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
        let hit = matches!(view, TreeView::Trace { .. });
        let read: Vec<_> = g.nodes().map(|t| bits(view.path_to(t))).collect();
        let mut fresh = SearchArena::new();
        let (fresh_stats, _) = run_tree(&mut fresh, g, root, goal, pot, None);
        assert_eq!(stats, fresh_stats, "{tag}: counters");
        for &t in targets {
            assert_eq!(read[t.index()], bits(fresh.path_to(t)), "{tag}: fresh path to {t}");
        }
        if pot.is_some() {
            // A guided tree bypasses the cache: it grows in the arena.
            assert!(!hit && cache.counters() == (0, 0), "{tag}: a guided tree is never cached");
            return;
        }
        assert!(hit, "{tag}: the warm run hits");
        assert_eq!(cache.counters(), (1, 1), "{tag}");
        let after: Vec<_> = targets.iter().map(|&t| arena.path_to(t)).collect();
        assert_eq!(before, after, "{tag}: a hit writes no arena slot");

        let mut replay = SearchArena::new();
        let replay_stats = cache.peek(root).unwrap().adopt_into(&mut replay, goal);
        assert_eq!(Some(stats), replay_stats, "{tag}: counters");
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
        t.index.sorted.is_none().then_some(&t.index.parent[..])
    }

    /// The bucket invariants: `order` strictly increasing, every bucket
    /// within twice [`BUCKET`] and its room within twice [`SLACK`], its
    /// keys inside its range, its count and degree sum, the prefixes, and
    /// every member's index entry pointing at it.
    fn assert_buckets_hold(t: &SweepTrace, tag: &str) {
        let b = &t.buckets;
        let (mut before, mut relaxed) = (0, 0);
        for (k, lo) in b.order.iter().enumerate() {
            let bucket = &b.buckets[lo.handle as usize];
            let end = b.order.get(k + 1).map(Lo::key);
            assert!(end.is_none_or(|end| lo.key() < end), "{tag}: order at bucket {k}");
            let (len, cap) = (bucket.entries.len(), bucket.entries.capacity());
            assert!(len <= 2 * BUCKET && cap <= len + 2 * SLACK, "{tag}: bucket {k}: {len}/{cap}");
            for (pos, e) in bucket.entries.iter().enumerate() {
                assert!(lo.key() <= e.key() && end.is_none_or(|end| e.key() < end), "{tag}");
                assert_eq!(t.index.at(e.node), slot(lo.handle as usize, pos), "{tag}: slot");
            }
            assert_eq!((bucket.before, bucket.relaxed), (before, relaxed), "{tag}: prefix {k}");
            let degrees: u32 = bucket.entries.iter().map(|e| e.degree).sum();
            assert_eq!(bucket.degrees, degrees, "{tag}: degree sum {k}");
            (before, relaxed) = (before + bucket.entries.len() as u32, relaxed + degrees);
        }
        assert_eq!(before as usize, t.len(), "{tag}: count");
    }

    /// What a hit reads, compared between two traces: the position,
    /// distance bits, parent node and `Goal::Single` counters of every map
    /// node, and the buckets' invariants. Then the parent column and the
    /// final counters.
    fn assert_same_trace(got: &SweepTrace, want: &SweepTrace, tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}: settles");
        assert_buckets_hold(got, tag);
        let read = |t: &SweepTrace, v: NodeId| {
            let at = t.slot(v);
            (
                t.position(v),
                at.map(|at| t.buckets.entry(at).dist.to_bits()),
                at.map(|_| t.index.parent(v.0)),
                t.stats_for(&Goal::Single(v)),
            )
        };
        for v in (0..got.nodes as u32).map(NodeId) {
            assert_eq!(read(got, v), read(want, v), "{tag}: node {v}");
        }
        assert_eq!(parent_column(got), parent_column(want), "{tag}: parent column");
        assert_eq!(got.stats_at(Stop(None)), want.stats_at(Stop(None)), "{tag}: final counters");
        assert_eq!(got.complete, want.complete, "{tag}: completeness");
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
    /// the nodes whose label moved. Returns the trace before and after.
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

    fn sorted(nodes: &[u32]) -> Vec<u32> {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes
    }

    #[test]
    fn repair_moves_a_risen_subtree_behind_every_other_settle() {
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
        assert_eq!(sorted(&scratch.moved), [1, 2], "the subtree moves, nothing else");
    }

    #[test]
    fn repair_moves_only_the_labels_a_fall_brings_ahead() {
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
        assert_eq!(sorted(&scratch.moved), [4, 5], "1 keeps its label");
        let order = |t: &SweepTrace| t.settled().map(|v| v.0).collect::<Vec<_>>();
        assert_eq!(
            (order(&before), order(&after)),
            (vec![0, 1, 3, 2, 4, 5], vec![0, 5, 1, 3, 2, 4]),
            "5 overtakes 1, which keeps its label"
        );
    }

    #[test]
    fn repair_repicks_parents_on_a_tie_without_moving_any_label() {
        // 3 is reached at 2 through 2 only; lowering 1 – 3 to 1 ties it
        // through 1, which settles earlier and becomes its parent.
        let g = tiny(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 2.0), (2, 3, 1.0)]);
        let mut scratch = RepairScratch::default();
        let (before, after) =
            repair_once(&g, NodeId(0), &[(roadnet::EdgeId(2), 1.0)], &mut scratch, "tie");
        assert!(scratch.moved.is_empty(), "no label moves");
        let parent = |t: &SweepTrace| t.index.parent(3);
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
            assert_eq!(after.index.sorted.is_none(), dense, "root {root}");
        }
    }

    #[test]
    fn repair_refuses_incomplete_and_directed_traces() {
        let g = grid();
        let updates = [(roadnet::EdgeId(0), 50.0)];
        let changes = changes_of(&g, &updates);
        let mut next = g.clone();
        next.update_weights(&updates).unwrap();
        let mut scratch = RepairScratch::default();

        let (_, partial) =
            run_in_traced(&mut SearchArena::new(), &g, NodeId(0), &Goal::Single(NodeId(30)));
        assert!(!partial.is_complete());
        let mut repaired = partial.clone();
        assert!(!repaired.repair(&next, &changes, &mut scratch));
        assert_same_trace(&repaired, &partial, "incomplete");

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
    fn repair_splits_a_bucket_a_fall_crowds_and_merges_it_back() {
        // A 30 × 30 lattice of unit arcs rooted in a corner, and a hub
        // tied by 0.5 to every node of the far third (x ≥ 20) and by 100
        // to the root. Lowering the root's arc to 1 pulls the far third,
        // 300 labels, to the one distance 1.5: one key range takes more
        // than twice a bucket. Raising it back spreads them out again.
        let k = 30;
        let mut b = GraphBuilder::new();
        for i in 0..=k * k {
            b.add_node(Point::new((i % k) as f64, (i / k) as f64)).unwrap();
        }
        for i in 0..k * k {
            let (x, y) = (i % k, i / k);
            if x + 1 < k {
                b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
            }
            if y + 1 < k {
                b.add_edge(NodeId(i), NodeId(i + k), 1.0).unwrap();
            }
            if x >= 20 {
                b.add_edge(NodeId(k * k), NodeId(i), 0.5).unwrap();
            }
        }
        b.add_edge(NodeId(0), NodeId(k * k), 100.0).unwrap();
        let g = b.build().unwrap();
        let shortcut = roadnet::EdgeId::from_index(g.num_edges() - 1);
        let (_, mut trace) = run_in_traced(&mut SearchArena::new(), &g, NodeId(0), &Goal::AllNodes);
        let mut scratch = RepairScratch::default();
        let mut map = g;
        for (weight, tag) in [(1.0, "fall"), (100.0, "rise")] {
            let changes = changes_of(&map, &[(shortcut, weight)]);
            map.update_weights(&[(shortcut, weight)]).unwrap();
            assert!(trace.repair(&map, &changes, &mut scratch), "{tag}");
            let (_, fresh) =
                run_in_traced(&mut SearchArena::new(), &map, NodeId(0), &Goal::AllNodes);
            assert_same_trace(&trace, &fresh, tag);
            // More settles than a bucket may hold share one key range
            // after the fall, so it split there (`assert_same_trace` holds
            // every bucket to its bound); merges keep the count of buckets
            // near what a fresh trace has.
            let crowded = trace.in_settle_order().iter().filter(|e| e.1 == 1.5).count();
            assert_eq!(crowded, if weight == 1.0 { 300 } else { 0 }, "{tag}");
            const { assert!(300 > 2 * BUCKET) };
            let b = &trace.buckets;
            let most = 2 * trace.len().div_ceil(BUCKET);
            assert!(b.order.len() <= most, "{tag}: {} buckets", b.order.len());
        }
    }

    #[test]
    fn repair_lifts_the_leaving_labels_before_a_grown_bucket_splits() {
        // A star: leaf `v` hangs from root 0 by an arc of weight `v`, so it
        // settles at position `v`, the third bucket holds leaves 256..384,
        // and a repair moves exactly the leaves of the listed arcs, in list
        // order.
        let n = 1_024;
        let star: Vec<(u32, u32, f64)> = (1..=n).map(|v| (0, v, f64::from(v))).collect();
        let mut map = tiny(n + 1, &star);
        let arc = |v: u32| roadnet::EdgeId::from_index(v as usize - 1);
        let (_, mut trace) =
            run_in_traced(&mut SearchArena::new(), &map, NodeId(0), &Goal::AllNodes);
        // A fall lands 72 far leaves among the third bucket's keys: it
        // grows to 200 settles without splitting.
        let fall: Vec<_> = (800..872).map(|v| (arc(v), 300.5 + f64::from(v) / 1e3)).collect();
        // A rise lands 151 leaves of the first two buckets there, listed
        // first, and sends the third bucket's 200 past every key. Moved one
        // at a time, the arrivals would split it at 257 settles, 200 of
        // them already keyed past its range: a median outside it, and a
        // bucket out of key order that outlives the repair.
        let rise: Vec<_> = (100..251)
            .map(|v| (arc(v), 310.5 + f64::from(v) / 1e3))
            .chain((256..384).chain(800..872).map(|v| (arc(v), 5_000.0 + f64::from(v))))
            .collect();
        let mut scratch = RepairScratch::default();
        for (updates, tag) in [(fall, "fall"), (rise, "rise")] {
            let changes = changes_of(&map, &updates);
            map.update_weights(&updates).unwrap();
            assert!(trace.repair(&map, &changes, &mut scratch), "{tag}");
            let (_, fresh) =
                run_in_traced(&mut SearchArena::new(), &map, NodeId(0), &Goal::AllNodes);
            assert_same_trace(&trace, &fresh, tag);
            assert_eq!(scratch.moved.len(), updates.len(), "{tag}: every listed leaf moves");
            if tag == "fall" {
                let b = &trace.buckets;
                let third = &b.buckets[b.order[2].handle as usize];
                assert_eq!(third.entries.len(), 200, "the third bucket grew past a bucket");
            }
        }
    }

    #[test]
    fn recorded_settles_cost_at_most_24_bytes_and_index_exactly() {
        let g = NetworkClass::Geometric.generate(2_000, 7).unwrap();
        let n = g.num_nodes();
        // The short sweep grows in the same arena after a complete one from
        // another root; its recording writes a fresh slot column and reads
        // only its own settles' parents from the arena, so none of the
        // complete sweep's settles shows in its index.
        let far = NodeId(n as u32 / 2);
        let (_, from_far) = run_in_traced(&mut SearchArena::new(), &g, far, &Goal::AllNodes);
        let mut arena = SearchArena::new();
        let (_, complete) = run_in_traced(&mut arena, &g, NodeId(0), &Goal::AllNodes);
        let goal = Goal::Single(NodeId(from_far.in_settle_order()[n / 20].0));
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
        // The complete trace repaired across a round that halves or
        // doubles every fifth edge: its buckets may keep room to grow.
        let updates: Vec<_> = (0..g.num_edges())
            .step_by(5)
            .map(roadnet::EdgeId::from_index)
            .map(|e| (e, g.edge(e).weight * if e.index() % 2 == 0 { 0.5 } else { 2.0 }))
            .collect();
        let mut reweighed = g.clone();
        reweighed.update_weights(&updates).unwrap();
        let mut repaired = complete.clone();
        let changes = changes_of(&g, &updates);
        assert!(repaired.repair(&reweighed, &changes, &mut RepairScratch::default()));

        // Per trace: its map, whether it is dense, its bytes per settle,
        // and the entries of room a bucket may keep beyond them.
        for (trace, map, tag, dense, per_settle, room) in [
            (&complete, &g, "complete", true, 24, 0),
            (&short, &g, "short", false, 28, 0),
            (&two_thirds, &wide, "two thirds", true, 32, 0),
            (&repaired, &reweighed, "repaired", true, 24, 2 * SLACK),
        ] {
            let order = trace.in_settle_order();
            let reference: Vec<Option<usize>> =
                map.nodes().map(|v| order.iter().position(|e| e.0 == v.0)).collect();
            let read: Vec<Option<usize>> = map.nodes().map(|v| trace.position(v)).collect();
            assert_eq!(read, reference, "{tag}: settled-set index");

            let SettledIndex { sorted, at, parent } = &trace.index;
            let sorted = sorted.as_ref().map_or(0, Vec::capacity);
            let index = (sorted + at.capacity() + parent.capacity()) * size_of::<u32>();
            assert_eq!(trace.index.sorted.is_none(), dense, "{tag}");
            // Every trace is bucketed: 16-byte entries, and beside them a
            // directory of a few words per bucket.
            assert_buckets_hold(trace, tag);
            let b = &trace.buckets;
            let settles =
                b.buckets.iter().map(|b| b.entries.capacity()).sum::<usize>() * size_of::<Entry>();
            let directory = b.buckets.capacity() * size_of::<Bucket>()
                + b.order.capacity() * size_of::<Lo>()
                + b.free.capacity() * size_of::<u32>();
            let buckets = b.order.len();
            // Rebalancing leaves at most two buckets per `BUCKET` settles,
            // so a repaired trace's room costs at most 8 B more per settle.
            assert!(buckets <= 2 * trace.len().div_ceil(BUCKET), "{tag}: {buckets} buckets");
            let bytes = settles + index;
            assert!(
                bytes <= per_settle * trace.len() + buckets * room * size_of::<Entry>(),
                "{tag}: {bytes} B for {} settles",
                trace.len()
            );
            // ½ B per settle, plus one bucket's directory entry: a short
            // trace fills one bucket only partly.
            let one = size_of::<Bucket>() + size_of::<Lo>();
            assert!(
                2 * directory <= trace.len() + 2 * one,
                "{tag}: a {directory}-byte bucket directory"
            );
        }
    }

    /// FNV-1a over the bytes of `words`, continuing from `h`.
    fn fnv(h: u64, words: &[u64]) -> u64 {
        words.iter().fold(h, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// A stored trace and the counters its sweep returned, as the words
    /// the trace pins compare: every settle in rank order as its node,
    /// distance bits, out-degree and parent node, then completeness, the
    /// index form and the counters.
    pub(crate) fn trace_words(t: &SweepTrace, stats: SearchStats) -> Vec<u64> {
        let mut entries: Vec<&Entry> = t.buckets.buckets.iter().flat_map(|b| &b.entries).collect();
        entries.sort_unstable_by_key(|e| e.key());
        let mut words = Vec::with_capacity(4 * entries.len() + 4);
        for e in entries {
            let parent = t.index.parent(e.node);
            words.extend([e.node, e.degree, parent].map(u64::from));
            words.push(e.dist.to_bits());
        }
        words.extend([u64::from(t.complete), u64::from(t.index.sorted.is_none())]);
        words.extend([stats.settled, stats.relaxed]);
        words
    }

    /// A seeded stream of picks below a bound (splitmix64).
    fn picker(mut state: u64) -> impl FnMut(u32) -> u32 {
        move |bound| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        }
    }

    #[test]
    fn stored_traces_are_pinned() {
        // A geometric map beside an island no root reaches, as generated
        // and with integer weights in 1..4 but for a zero on every 997th
        // edge (zero-weight ties: a trace is cut to its key-ordered prefix,
        // before or after its goal). Misses from a pool of roots into
        // one small cache, so entries deepen and are evicted; then traces
        // recorded without deepening.
        let base = NetworkClass::Geometric.generate(3_000, 21).unwrap();
        let mut ties = base.clone();
        let integer: Vec<(EdgeId, f64)> = (0..base.num_edges())
            .map(|e| {
                (EdgeId::from_index(e), if e % 997 == 0 { 0.0 } else { (e * 7 % 3 + 1) as f64 })
            })
            .collect();
        ties.update_weights(&integer).unwrap();
        let mut pick = picker(52);
        let (mut digest, mut misses, mut traced) = (0xcbf2_9ce4_8422_2325, 0, 0);
        let mut cut = [0; 2];
        for (map, grown) in [(with_island(&base), 200), (with_island(&ties), 40)] {
            let n = map.num_nodes() as u32;
            let island = NodeId(n - 1);
            let roots: Vec<NodeId> = (0..40).map(|_| NodeId(pick(n - 2))).collect();
            let goal = |i: usize, pick: &mut dyn FnMut(u32) -> u32| {
                let mut set: Vec<NodeId> = (0..4).map(|_| NodeId(pick(n - 2))).collect();
                match i % 10 {
                    0 => Goal::AllNodes,
                    1 | 2 => {
                        set[3] = island;
                        Goal::Set(set)
                    }
                    3..=5 => Goal::Set(set),
                    _ => Goal::Single(set[0]),
                }
            };
            let (mut arena, mut cache) =
                (SearchArena::new(), TreeCache::new(16, SharingPolicy::PerSource));
            for i in 0..grown {
                let root = roots[pick(40) as usize];
                let goal = goal(i, &mut pick);
                let before = cache.counters().1;
                let (stats, _) = run_tree(&mut arena, &map, root, &goal, None, Some(&mut cache));
                if cache.counters().1 > before {
                    let stored = cache.peek(root).unwrap();
                    // Cut before its goal, or past it short of twice its depth.
                    let (len, k) = (stored.len() as u64, stats.settled);
                    cut[0] += usize::from(len < k);
                    cut[1] += usize::from(k < len && len < 2 * k && !stored.is_complete());
                    misses += 1;
                    digest = fnv(digest, &trace_words(stored, stats));
                }
            }
            for i in 0..grown / 8 {
                let root = roots[pick(40) as usize];
                let goal = goal(i, &mut pick);
                let (stats, trace) = run_in_traced(&mut arena, &map, root, &goal);
                traced += 1;
                digest = fnv(digest, &trace_words(&trace, stats));
            }
        }
        assert!(misses >= 100 && cut[0] > 0 && cut[1] > 0, "{misses} misses, {cut:?} cut");
        assert_eq!((misses, traced, cut, digest), (171, 30, [32, 3], 0xf22a_f5ee_f302_419b));
    }

    /// What one tree reads: its counters or trace words, and the bits of
    /// its paths to the targets.
    type Read = (Vec<u64>, Vec<Option<(Vec<NodeId>, u64)>>);

    /// `goal`'s tree from `root` on `g`, grown in `arena` three ways:
    /// untraced, traced without deepening, and as a deepening cache miss.
    fn grown_three_ways<G: GraphView>(
        arena: &mut SearchArena,
        g: &G,
        root: NodeId,
        goal: &Goal,
        targets: &[NodeId],
    ) -> [Read; 3] {
        let paths = |view: TreeView<'_>| targets.iter().map(|&t| bits(view.path_to(t))).collect();
        let stats = run_in(arena, g, root, goal);
        let untraced = (vec![stats.settled, stats.relaxed], paths(TreeView::Arena(arena)));
        let (stats, trace) = run_in_traced(arena, g, root, goal);
        let traced = (trace_words(&trace, stats), paths(TreeView::Arena(arena)));
        let mut cache = unbounded();
        let (stats, view) = run_tree(arena, g, root, goal, None, Some(&mut cache));
        let read = paths(view);
        let missed = (trace_words(cache.peek(root).unwrap(), stats), read);
        [untraced, traced, missed]
    }

    /// `goal`'s tree from `root` grown on the ring and on the heap reads the
    /// same, all three ways: counters, traces and paths.
    fn assert_ring_equals_heap(
        g: &RoadNetwork,
        arenas: &mut [SearchArena; 2],
        root: NodeId,
        goal: &Goal,
        targets: &[NodeId],
        tag: &str,
    ) {
        assert!(g.arc_weights().is_some_and(|w| crate::bucket::exact_on_ring(&w)), "{tag}: ring");
        let [ring, heap] = arenas;
        let ring = grown_three_ways(ring, g, root, goal, targets);
        let heap = grown_three_ways(heap, &OnHeap(g), root, goal, targets);
        for (way, (r, h)) in
            ["untraced", "traced", "missed"].into_iter().zip(ring.iter().zip(&heap))
        {
            let first = r.0.iter().zip(&h.0).position(|(a, b)| a != b);
            assert!(
                r.0 == h.0,
                "{tag}: {way} {goal:?} from {root}: {} vs {} words, first difference at {first:?}",
                r.0.len(),
                h.0.len()
            );
            assert_eq!(r.1, h.1, "{tag}: {way} {goal:?} from {root}: paths");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

        /// Random grid, geometric, radial and continent maps, kept two-way or
        /// one way (`variant` bit 0), beside an island (an unreachable
        /// target) and, with bit 1, as many isolated nodes again (complete
        /// traces ranked by node). One pair of arenas serves every tree, as
        /// generated and across two rounds of weight updates.
        #[test]
        fn ring_trace_equals_heap_trace(
            seed in 0..1_000u64,
            class in 0..4usize,
            variant in 0..4u8,
            raw_roots in proptest::collection::vec(proptest::num::u32::ANY, 1..3),
            raw_picks in proptest::collection::vec(proptest::num::u32::ANY, 1..4),
        ) {
            let base = match NetworkClass::ALL.get(class) {
                Some(c) => c.generate(300, seed).unwrap(),
                None => continent_network(&ContinentConfig {
                    provinces_x: 2,
                    provinces_y: 2,
                    province_width: 8,
                    province_height: 8,
                    weight_factor: (1.0, 3.0),
                    seed,
                    ..Default::default()
                })
                .unwrap(),
            };
            let (one_way, wide) = (variant & 1 != 0, variant & 2 != 0);
            let n = base.num_nodes() as u32;
            let island = NodeId(n + 1);
            let mut g = with_island(&base);
            if wide {
                g = beside_as_many_isolated(&g);
            }
            if one_way {
                g = crate::bucket::tests::one_way(&g, seed);
            }
            let roots: Vec<NodeId> = raw_roots.iter().map(|r| NodeId(r % n)).collect();
            let picks: Vec<NodeId> = raw_picks.iter().map(|p| NodeId(p % n)).collect();
            let mut arenas = [SearchArena::new(), SearchArena::new()];
            for round in 0..3 {
                match round {
                    1 => crate::bucket::tests::rescale(&mut g, 2, 2.5),
                    2 => crate::bucket::tests::rescale(&mut g, 3, 0.4),
                    _ => {}
                }
                let tag = format!("class {class} seed {seed} variant {variant} round {round}");
                for &root in &roots {
                    let mut set = picks.clone();
                    set.extend([picks[0], root, island]);
                    let all: Vec<NodeId> = g.nodes().collect();
                    for (goal, targets) in [
                        (Goal::Single(picks[0]), &picks[..1]),
                        (Goal::Set(picks.clone()), &picks[..]),
                        (Goal::Set(set.clone()), &set[..]),
                        (Goal::Set(Vec::new()), &[root][..]),
                        (Goal::AllNodes, &all[..]),
                    ] {
                        assert_ring_equals_heap(&g, &mut arenas, root, &goal, targets, &tag);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_trace_equals_heap_trace_on_a_component_of_twice_the_goal() {
        // From 0 the goal 9 settles 10th on a chain of 20: the deepened
        // miss stores exactly the component, on either loop. A root beside
        // the grid has no arcs at all.
        let (g, chain) = (grid(), chain_and_pair());
        let half = beside_as_many_isolated(&g);
        let lone = NodeId(g.num_nodes() as u32 + 3);
        let mut arenas = [SearchArena::new(), SearchArena::new()];
        for (map, root, goal) in [
            (&half, lone, Goal::Single(NodeId(0))),
            (&half, lone, Goal::Single(lone)),
            (&half, lone, Goal::AllNodes),
            (&chain, NodeId(0), Goal::Single(NodeId(9))),
            (&chain, NodeId(0), Goal::Single(NodeId(3))),
            (&chain, NodeId(0), Goal::Set(vec![NodeId(5), NodeId(9), NodeId(5)])),
            (&chain, NodeId(20), Goal::Single(NodeId(21))),
            (&chain, NodeId(2), Goal::Set(vec![NodeId(6), NodeId(21)])),
            (&g, NodeId(0), Goal::Single(NodeId(30))),
            (&g, NodeId(60), Goal::Set(vec![NodeId(61), NodeId(75)])),
            (&g, NodeId(5), Goal::AllNodes),
        ] {
            let targets = match &goal {
                Goal::Single(t) => vec![*t],
                Goal::Set(set) => set.clone(),
                Goal::AllNodes => map.nodes().collect(),
            };
            assert_ring_equals_heap(map, &mut arenas, root, &goal, &targets, "fixed");
        }
        let (_, _, stored) = plain_miss(&chain, NodeId(0), &Goal::Single(NodeId(9)), &[]);
        assert_eq!((stored.len(), stored.is_complete()), (20, true));
    }
}
