//! The reusable search arena: generation-stamped label storage shared by
//! every Dijkstra-family algorithm in this crate.
//!
//! The server's hot path is MSMD evaluation — every obfuscated query
//! `Q(S,T)` grows several spanning trees over the same network (§IV,
//! Lemma 1). A naive implementation pays `O(n)` initialization *and*
//! `O(n)` allocation per tree. [`SearchArena`] removes both:
//!
//! * `dist` / `parent` / *labelled* / *stamp* arrays, one slot per node,
//!   are validated by an **epoch stamp**, so starting a new search is
//!   `O(1)` — stale labels from earlier queries are simply never current;
//! * an arena holds **one tree**: every sweep the server runs grows exactly
//!   one (Lemma 1), and bidirectional search pairs two arenas;
//! * the binary heap, the bucket ring's scratch and the goal scratch buffer
//!   are owned by the arena and reused, so repeated queries on the same
//!   graph touch no allocator once the high-water capacity is reached;
//! * a settled node's out-degree stays in its stamp slot, and a recorded
//!   sweep logs its settles in settle order, so its trace is built after
//!   it from this arena alone (`SweepTrace::build`): labels, parents,
//!   degrees and that log. It allocates only the trace it hands to a tree
//!   cache.
//!
//! The heap holds 16-byte `FrontierEntry`s ordered by integers alone: the
//! float key is encoded once, at push, into a `u64` whose unsigned order is
//! `f64::total_cmp`'s, and ties break on the node. Lazy deletion tells a
//! fresh entry from a stale one by its stamp — the number of the label it
//! was pushed for — which the slot's `stamp` slab holds until a better
//! label or the settle overwrites it.
//!
//! Callers hold an arena and drive it through [`crate::dijkstra::run_in`] /
//! [`crate::dijkstra::run_in_traced`], reading the labels back with
//! [`SearchArena::distance`] / [`SearchArena::path_to`];
//! [`crate::multi::msmd_in`] runs whole MSMD queries inside one. A path is
//! read by the crate's one counted parent walk (`path::walk`), which a
//! cache hit's stored trace is read by too: the hops are counted first, so
//! each path gets one node buffer of exact size, root first or root last.

use crate::bucket::{Buckets, Labels};
use crate::path::{Path, PathOrder, walk};
use crate::stats::SearchStats;
use crate::trace::TreeView;
use roadnet::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The parent of a root; no node carries this id, so a search covers fewer
/// than `u32::MAX` nodes.
pub(crate) const NIL: u32 = u32::MAX;

/// The `stamp` bit of a node settled (on the heap) or expanded at its
/// current label (on the bucket ring); the bits above it hold the node's
/// out-degree once it has relaxed its arcs. Label numbers are even, so no
/// frontier entry carries it and a settled slot matches no entry.
const EXPANDED: u32 = 1;

/// The `u64` whose unsigned order is `f64::total_cmp`'s order on `key`, for
/// every `f64` (−0.0 before +0.0, negatives, infinities, NaNs): a set sign
/// bit flips every bit, a clear one flips only the sign.
#[inline]
pub(crate) fn ord_of(key: f64) -> u64 {
    let bits = key.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// One prioritized frontier entry: a tentative label of a node.
///
/// Ordered so the *smallest* `(ord, node)` pops first from a max-heap —
/// integer compares only. `ord` is the heap key encoded by [`ord_of`] (the
/// raw distance, or `dist + potential(node)` under a goal-directed sweep),
/// so the order is exactly `key` by `total_cmp`, then `node`: ties break on
/// the node for run-to-run determinism. The key is never decoded — readers
/// take the label from the slot once the entry proves fresh.
///
/// `stamp` is the number of the label the entry was pushed for (see
/// [`SearchArena::is_fresh`]); it takes no part in the order.
/// Crate-internal like the raw heap operations that produce and consume it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrontierEntry {
    /// The heap key, encoded once at push.
    ord: u64,
    /// The labelled node.
    node: u32,
    /// The label number this entry was pushed for.
    stamp: u32,
}

const _: () = assert!(size_of::<FrontierEntry>() == 16);

impl FrontierEntry {
    #[inline]
    fn new(key: f64, node: NodeId, stamp: u32) -> Self {
        FrontierEntry { ord: ord_of(key), node: node.0, stamp }
    }

    /// The labelled node.
    #[inline]
    pub(crate) fn node(&self) -> NodeId {
        NodeId(self.node)
    }
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.ord, self.node) == (other.ord, other.node)
    }
}
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (other.ord, other.node).cmp(&(self.ord, self.node))
    }
}

/// Generation-stamped search space of one tree, with its frontier heap.
///
/// After a search finishes, the labels of the *last* search stay readable
/// (via [`SearchArena::distance`] / [`SearchArena::path_to`]) until the
/// next search begins in the arena.
#[derive(Debug, Default)]
pub struct SearchArena {
    /// Tentative/final distances per node, epoch-validated.
    dist: Vec<f64>,
    /// Parent node ids per node ([`NIL`] for the root).
    parent: Vec<u32>,
    /// Label epoch stamps: a slot is labelled iff `labelled[i] == epoch`.
    labelled: Vec<u32>,
    /// Per labelled slot, the (even) number of its current label, or its
    /// out-degree under [`EXPANDED`] once settled. Meaningful only while
    /// the slot is labelled. A tree on the bucket ring numbers no labels:
    /// there it holds 0 until the node expands.
    stamp: Vec<u32>,
    /// Current search generation. Epoch 0 means "never touched".
    epoch: u32,
    /// The next label number of this generation; restarts at 2 in `begin`.
    next_stamp: u32,
    /// The frontier heap (lazy deletion: stale entries are skipped at pop
    /// time).
    heap: BinaryHeap<FrontierEntry>,
    /// Reusable goal-set buffer (sorted, deduplicated target lists).
    goal_scratch: Vec<NodeId>,
    /// The bucket ring's scratch, taken out while a tree sweeps on it.
    pub(crate) buckets: Buckets,
    /// The sweep's log: every node an unrecorded tree on the bucket ring
    /// labelled, in labelling order; for a recorded sweep or a band, its
    /// settles in settle order (on the ring, each drained bucket's).
    pub(crate) log: Vec<u32>,
    /// Nodes of the current search.
    nodes: usize,
}

// One arena per worker thread is the parallel service layer's isolation
// unit: workers never share label storage, only immutable graph views.
// Guard that contract at compile time — an accidentally !Send field (an Rc
// cache, say) would silently break the worker pool.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SearchArena>();
};

impl SearchArena {
    /// An empty arena; buffers grow to the largest search they ever host
    /// and are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose label slabs are already grown to host searches over
    /// `nodes` nodes, so the first query pays no first-touch buffer growth.
    ///
    /// The tree count argument no longer sizes anything: an arena holds one
    /// tree. It stays in the signature for existing callers.
    ///
    /// This is the *arena-per-worker handle*: a worker thread pinned to one
    /// arena (e.g. one shard of a parallel backend fleet) constructs it
    /// up front and then serves its whole query stream allocation-free.
    /// Larger searches still grow the arena on demand, exactly as with
    /// [`SearchArena::new`].
    ///
    /// # Panics
    /// Panics if `nodes ≥ u32::MAX` (the root's parent sentinel).
    pub fn preallocated(nodes: usize, _trees: usize) -> Self {
        let mut arena = Self::default();
        arena.grow(nodes);
        arena
    }

    /// Grow every slab to `nodes` slots, if it is shorter.
    fn grow(&mut self, nodes: usize) {
        assert!(
            nodes < NIL as usize,
            "a search covers fewer than u32::MAX nodes: u32::MAX is the root's parent"
        );
        if self.dist.len() < nodes {
            self.dist.resize(nodes, f64::INFINITY);
            self.parent.resize(nodes, NIL);
            self.labelled.resize(nodes, 0);
            self.stamp.resize(nodes, 0);
        }
    }

    /// Start a new search generation over `nodes` nodes. `O(1)` amortized:
    /// only grows buffers past the high-water mark, never clears them (the
    /// epoch stamp invalidates old labels).
    ///
    /// # Panics
    /// Panics if `nodes ≥ u32::MAX`.
    pub(crate) fn begin(&mut self, nodes: usize) {
        self.grow(nodes);
        self.nodes = nodes;
        self.heap.clear();
        self.log.clear();
        self.next_stamp = 2;
        // Epoch 0 is the "never touched" stamp; skip it on wrap-around so
        // labels from 2^32 generations ago cannot resurface as current.
        // `stamp` needs no wipe: it is read only for labelled slots, and
        // every label writes it.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.labelled.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Nodes of the current search generation.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Label slots currently allocated (the high-water mark) — exposed so
    /// tests can assert reuse instead of regrowth.
    pub fn capacity(&self) -> usize {
        self.dist.len()
    }

    #[inline]
    fn slot(&self, node: NodeId) -> usize {
        debug_assert!(node.index() < self.nodes, "node {node} out of range");
        node.index()
    }

    /// The next label number of this generation: even, so it never reads
    /// as [`EXPANDED`].
    #[inline]
    fn draw_stamp(&mut self) -> u32 {
        let stamp = self.next_stamp;
        self.next_stamp = stamp.checked_add(2).expect("fewer than 2^31 labels per search");
        stamp
    }

    /// Write a label: tentative distance `dist` reached via `parent`
    /// (`None` for roots).
    ///
    /// The raw label/heap operations (`label`, `settle`, `relax_keyed`,
    /// `rekey`, `push`, `pop`, `is_fresh`) are crate-internal: they index by
    /// node with debug-only bounds checks, so exposing them would let a
    /// node beyond the current search read or write a stale slot in release
    /// builds. External callers drive searches through
    /// [`crate::dijkstra::run_in`] / [`crate::multi::msmd_in`] and read
    /// results via the range-checked [`SearchArena::distance`] /
    /// [`SearchArena::path_to`].
    #[inline]
    pub(crate) fn label(&mut self, node: NodeId, dist: f64, parent: Option<NodeId>) {
        let i = self.slot(node);
        self.dist[i] = dist;
        self.parent[i] = parent.map_or(NIL, |p| p.0);
        self.labelled[i] = self.epoch;
        self.stamp[i] = self.draw_stamp();
    }

    /// Whether `node` carries a current-generation label.
    #[inline]
    pub(crate) fn is_labelled(&self, node: NodeId) -> bool {
        self.labelled[self.slot(node)] == self.epoch
    }

    /// Current-generation distance label of `node`, if any.
    /// Final for every node the heap would settle; beyond the goal it is a
    /// tentative upper bound on whichever nodes the sweep (heap or bucket
    /// ring) reached. Out-of-range reads return `None`.
    #[inline]
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        if node.index() >= self.nodes {
            return None;
        }
        let i = self.slot(node);
        (self.labelled[i] == self.epoch).then(|| self.dist[i])
    }

    /// Unchecked distance read: call only when the label is known current.
    #[inline]
    pub(crate) fn dist_raw(&self, node: NodeId) -> f64 {
        self.dist[self.slot(node)]
    }

    /// Unchecked parent read ([`NIL`] for roots): call only when the label
    /// is known current. A trace built after its sweep reads its settles'
    /// parents here: a plain sweep's settled label never changes afterwards.
    #[inline]
    pub(crate) fn parent_raw(&self, node: NodeId) -> u32 {
        self.parent[self.slot(node)]
    }

    /// Mark `node` settled: from now on its slot matches no frontier
    /// entry, and reads out-degree 0 until it expands.
    #[inline]
    pub(crate) fn settle(&mut self, node: NodeId) {
        let i = self.slot(node);
        self.stamp[i] = EXPANDED;
    }

    /// `node`, settled, has relaxed its `degree` out-arcs.
    #[inline]
    pub(crate) fn set_degree(&mut self, node: NodeId, degree: u32) {
        debug_assert!(degree < 1 << 31, "out-degree {degree}");
        let i = self.slot(node);
        self.stamp[i] = degree << 1 | EXPANDED;
    }

    /// The out-degree settled `node` expanded over: 0 for a settle that
    /// stopped its sweep before expanding.
    #[inline]
    pub(crate) fn degree(&self, node: NodeId) -> u32 {
        self.stamp[self.slot(node)] >> 1
    }

    /// The ring has drained a bucket whose expansions were logged past the
    /// first `from` settles: each node expanded there holds its final
    /// label, so sort them by `(ord_of(dist), node)` — the heap's settle
    /// order — and keep one of a node logged more than once. Returns the
    /// settles logged.
    pub(crate) fn seal_bucket(&mut self, from: usize) -> usize {
        let (dist, log) = (&self.dist, &mut self.log);
        log[from..].sort_unstable_by_key(|&v| (ord_of(dist[v as usize]), v));
        let mut kept = from;
        for i in from..log.len() {
            if kept == from || log[i] != log[kept - 1] {
                log[kept] = log[i];
                kept += 1;
            }
        }
        log.truncate(kept);
        kept
    }

    /// Relax the arc `from → to` with candidate distance `cand`:
    /// labels `to` and pushes a frontier entry when `cand` improves on the
    /// current label (or none exists). Returns whether it did. The label
    /// comparison and storage use the *raw* distance `cand` (improvement
    /// stays a statement about real path lengths), while the frontier entry
    /// is prioritized by `key()` — a goal-directed sweep passes
    /// `cand + potential(to)`, a plain one `cand` — encoded into the
    /// entry's `ord` here, once. The key is computed only when the label
    /// improves: most relaxations improve nothing, and a landmark potential
    /// is a table read per call.
    ///
    /// The new label draws the next stamp, which the entry carries. A
    /// settled slot keeps [`EXPANDED`], so an entry pushed for it is stale
    /// from birth and the node never settles twice.
    #[inline]
    pub(crate) fn relax_keyed(
        &mut self,
        from: NodeId,
        to: NodeId,
        cand: f64,
        key: impl FnOnce() -> f64,
    ) -> bool {
        let i = self.slot(to);
        let unlabelled = self.labelled[i] != self.epoch;
        if unlabelled || cand < self.dist[i] {
            let stamp = self.draw_stamp();
            self.dist[i] = cand;
            self.parent[i] = from.0;
            self.labelled[i] = self.epoch;
            if unlabelled || self.stamp[i] & EXPANDED == 0 {
                self.stamp[i] = stamp;
            }
            self.heap.push(FrontierEntry::new(key(), to, stamp));
            true
        } else {
            false
        }
    }

    /// Re-key the open frontier after the sweep's potential changed: drop
    /// the lazy-deletion residue, give every surviving entry the key
    /// `dist + potential(node)` — read from the slot and encoded afresh, so
    /// an old `ord` is never decoded — and heapify: `O(frontier)`, in place.
    /// Sound for any *consistent* new potential: the settled labels are
    /// exact and their out-arcs relaxed, which is all a label-setting sweep
    /// assumes of its past. The single-tree loop is the one caller.
    pub(crate) fn rekey(&mut self, potential: impl Fn(NodeId) -> f64) {
        let mut open = std::mem::take(&mut self.heap).into_vec();
        open.retain(|e| self.is_fresh(e));
        for e in &mut open {
            let node = e.node();
            e.ord = ord_of(self.dist_raw(node) + potential(node));
        }
        self.heap = BinaryHeap::from(open);
    }

    /// Push a frontier entry for `node`'s current label, keyed by `key`
    /// (used to seed the root right after [`SearchArena::label`]; relaxation
    /// goes through [`SearchArena::relax_keyed`]).
    #[inline]
    pub(crate) fn push(&mut self, key: f64, node: NodeId) {
        debug_assert!(self.is_labelled(node), "push follows a label");
        let stamp = self.stamp[self.slot(node)];
        self.heap.push(FrontierEntry::new(key, node, stamp));
    }

    /// Pop the smallest frontier entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<FrontierEntry> {
        self.heap.pop()
    }

    /// The encoded key of the entry [`SearchArena::pop`] would return next,
    /// fresh or stale: what bidirectional search compares across its two
    /// arenas.
    #[inline]
    pub(crate) fn peek_ord(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.ord)
    }

    /// Whether a popped entry is *fresh*: not yet settled and pushed for
    /// its slot's current label. Stale entries are the lazy-deletion
    /// residue and must be skipped.
    ///
    /// The test is one stamp compare, and it is exact. A label is pushed
    /// exactly once, when it is written (a slot is relabelled only on
    /// strict improvement), so the slot's latest push is the one entry
    /// whose stamp the slot still holds — the entry whose raw distance
    /// equals the label. Settling sets [`EXPANDED`], which no entry
    /// carries. A fresh entry's label is therefore read from the slot bit
    /// for bit.
    #[inline]
    pub(crate) fn is_fresh(&self, e: &FrontierEntry) -> bool {
        self.stamp[self.slot(e.node())] == e.stamp
    }

    /// Start a tree on the bucket ring over `nodes` nodes: a new
    /// generation whose one label, and logged node, is `root`'s, at 0.
    pub(crate) fn ring_begin(&mut self, nodes: usize, root: NodeId) {
        self.begin(nodes);
        self.label(root, 0.0, None);
        self.stamp[root.index()] = 0;
        self.log.push(root.0);
    }

    /// The heap's counters off the ring's labels, `last` being the goal's
    /// last target key (`None`: every logged node; see `crate::bucket`).
    /// The log holds every node keyed up to `last`: an unrecorded tree logs
    /// every node it labels, and a recorded one every node of its drained
    /// buckets, which hold `last` or, when the goal is never met, the
    /// component.
    pub(crate) fn ring_counters(&self, last: Option<(u64, u32)>) -> SearchStats {
        let last = last.unwrap_or((u64::MAX, NIL));
        let mut stats = SearchStats::default();
        for &v in &self.log {
            let key = (ord_of(self.dist[v as usize]), v);
            stats.settled += u64::from(key <= last);
            stats.relaxed += if key < last { u64::from(self.stamp[v as usize] >> 1) } else { 0 };
        }
        stats
    }

    /// The path from the root to `t`, read by the crate's one parent walk:
    /// `None` when `t` is out of range or carries no current-generation
    /// label. A node labelled beyond the goal but not settled reads its
    /// tentative path.
    pub fn path_to(&self, t: NodeId) -> Option<Path> {
        TreeView::Arena(self).path_to(t)
    }

    /// The paths to `targets`, read by [`walk`] off this arena's labels.
    pub(crate) fn read_paths(
        &self,
        targets: &[NodeId],
        order: PathOrder,
        emit: impl FnMut(usize, Option<Path>),
    ) {
        walk(targets, order, self.nodes, |t| self.distance(t), |v| self.parent[v as usize], emit);
    }

    /// Take the reusable goal buffer (restore it with
    /// [`SearchArena::put_goal_scratch`] so its capacity is kept).
    pub(crate) fn take_goal_scratch(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.goal_scratch)
    }

    /// Return the goal buffer taken by [`SearchArena::take_goal_scratch`].
    pub(crate) fn put_goal_scratch(&mut self, mut buf: Vec<NodeId>) {
        buf.clear();
        self.goal_scratch = buf;
    }

    /// Test hook: jump the generation counter to exercise epoch
    /// wrap-around without 2^32 searches.
    #[cfg(test)]
    pub(crate) fn set_epoch_for_test(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// A tree on the bucket ring keeps its labels in the arena's slabs.
impl Labels for SearchArena {
    #[inline]
    fn take(&mut self, u: u32) -> Option<f64> {
        let i = u as usize;
        (self.stamp[i] & EXPANDED == 0).then(|| self.dist[i])
    }

    #[inline]
    fn expanded(&mut self, u: u32, degree: u32) {
        self.set_degree(NodeId(u), degree);
    }

    /// An unrecorded tree logs each node it labels.
    #[inline]
    fn relax(&mut self, u: u32, du: f64, v: u32, cand: f64) -> bool {
        self.ring_relax(u, du, v, cand, |arena| arena.log.push(v))
    }
}

impl SearchArena {
    /// Label `v` when `cand` improves on its label, calling `first` when
    /// this is its first label of the generation; on a tie keep the parent
    /// of lesser `(d, node)` key.
    #[inline]
    pub(crate) fn ring_relax(
        &mut self,
        u: u32,
        du: f64,
        v: u32,
        cand: f64,
        first: impl FnOnce(&mut Self),
    ) -> bool {
        debug_assert!(cand > du, "an arc that passes `exact_on_ring` raises every label");
        let i = v as usize;
        let fresh = self.labelled[i] != self.epoch;
        if !fresh && cand > self.dist[i] {
            return false;
        }
        if fresh || cand < self.dist[i] {
            if fresh {
                self.labelled[i] = self.epoch;
                first(self);
            }
            (self.dist[i], self.parent[i], self.stamp[i]) = (cand, u, 0);
            return true;
        }
        // A tie, so `v` is not the root (its label 0 is below `cand`).
        let p = self.parent[i];
        if (ord_of(du), u) < (ord_of(self.dist[p as usize]), p) {
            self.parent[i] = u;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::tests::OnHeap;
    use crate::dijkstra::{Goal, run_in, run_in_traced};
    use proptest::prelude::*;
    use roadnet::generators::{GridConfig, grid_network};
    use roadnet::{GraphBuilder, Point};

    fn line(n: u32) -> roadnet::RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        for i in 0..n - 1 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn begin_is_cheap_and_capacity_is_reused() {
        let g = grid_network(&GridConfig { width: 10, height: 10, seed: 1, ..Default::default() })
            .unwrap();
        let mut a = SearchArena::new();
        run_in(&mut a, &g, NodeId(0), &Goal::AllNodes);
        let cap = a.capacity();
        assert!(cap >= 100);
        for _ in 0..50 {
            run_in(&mut a, &g, NodeId(37), &Goal::Single(NodeId(99)));
        }
        assert_eq!(a.capacity(), cap, "repeated same-graph queries must not regrow buffers");
    }

    #[test]
    fn no_state_leaks_between_generations() {
        // Query a big graph, then a small one: labels of the big run must
        // be invisible to the small run, and vice versa on re-query.
        let big =
            grid_network(&GridConfig { width: 12, height: 12, seed: 3, ..Default::default() })
                .unwrap();
        let small = line(4);
        let mut a = SearchArena::new();
        run_in(&mut a, &big, NodeId(0), &Goal::AllNodes);
        assert!(a.distance(NodeId(143)).is_some());

        run_in(&mut a, &small, NodeId(3), &Goal::AllNodes);
        assert_eq!(a.distance(NodeId(0)), Some(3.0));
        assert_eq!(a.distance(NodeId(3)), Some(0.0));
        // Nodes beyond the small graph are out of this generation even
        // though the big run labelled those slots.
        assert_eq!(a.num_nodes(), 4);

        // And back: the small run's labels must not shadow the big run's.
        run_in(&mut a, &big, NodeId(143), &Goal::Single(NodeId(0)));
        let p = a.path_to(NodeId(0)).unwrap();
        assert_eq!(p.source(), NodeId(143));
        assert_eq!(p.destination(), NodeId(0));
        assert!(p.verify(&big, 1e-9));
    }

    #[test]
    fn epoch_wraparound_clears_all_stamps() {
        let g = line(5);
        let mut a = SearchArena::new();
        run_in(&mut a, &g, NodeId(0), &Goal::AllNodes);
        assert_eq!(a.distance(NodeId(4)), Some(4.0));

        // Force the counter to the wrap boundary: the next begin() lands
        // on epoch 0, which must be skipped and every stamp wiped —
        // otherwise slots stamped `0` (never touched) would read as
        // labelled.
        a.set_epoch_for_test(u32::MAX);
        run_in(&mut a, &g, NodeId(4), &Goal::AllNodes);
        assert_eq!(a.distance(NodeId(0)), Some(4.0));
        assert_eq!(a.distance(NodeId(4)), Some(0.0));
        let p = a.path_to(NodeId(0)).unwrap();
        assert!(p.verify(&g, 1e-9));
        assert_eq!(p.source(), NodeId(4));
    }

    #[test]
    fn preallocated_arena_starts_at_capacity_and_never_regrows() {
        let g = grid_network(&GridConfig { width: 10, height: 10, seed: 1, ..Default::default() })
            .unwrap();
        let mut a = SearchArena::preallocated(100, 1);
        let cap = a.capacity();
        assert_eq!(cap, 100, "slabs sized up front");
        run_in(&mut a, &g, NodeId(0), &Goal::AllNodes);
        assert!(a.distance(NodeId(99)).is_some());
        assert_eq!(a.capacity(), cap, "first query must not grow a preallocated arena");
        // And it behaves exactly like a grown arena on reuse.
        for _ in 0..10 {
            run_in(&mut a, &g, NodeId(37), &Goal::Single(NodeId(99)));
        }
        assert_eq!(a.capacity(), cap);
    }

    #[test]
    fn frontier_orders_across_trees_deterministically() {
        // Equal keys pop by node, whatever the push order. (Bidirectional
        // search orders its two arenas' tops itself.)
        let mut a = SearchArena::new();
        a.begin(4);
        for (key, node) in [(2.0, 0), (1.0, 3), (1.0, 2), (1.0, 1)] {
            a.label(NodeId(node), key, None);
            a.push(key, NodeId(node));
        }
        let order: Vec<u32> = std::iter::from_fn(|| a.pop()).map(|e| e.node().0).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    /// The frontier's order before its keys were integers: `total_cmp` on
    /// the key, then node, reversed for the max-heap.
    fn float_order(a: (f64, u32), b: (f64, u32)) -> Ordering {
        b.0.total_cmp(&a.0).then_with(|| b.1.cmp(&a.1))
    }

    /// Whether the integer order agrees with [`float_order`] on `a` vs `b`.
    fn orders_agree(a: (f64, u32), b: (f64, u32)) -> bool {
        let entry = |(key, node): (f64, u32), stamp| FrontierEntry::new(key, NodeId(node), stamp);
        // Different stamps on purpose: the stamp takes no part in the order.
        entry(a, 1).cmp(&entry(b, 7)) == float_order(a, b)
    }

    #[test]
    fn integer_order_is_the_float_order_on_special_keys() {
        let keys = [
            0.0,
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut entries = Vec::new();
        for key in keys {
            for node in [0, 1, NIL - 1] {
                entries.push((key, node));
            }
        }
        for &a in &entries {
            for &b in &entries {
                assert!(orders_agree(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..Default::default() })]

        #[test]
        fn integer_order_is_the_float_order_on_any_bits(
            bits in (proptest::num::u64::ANY, proptest::num::u64::ANY),
            nodes in (0..NIL, 0..NIL),
        ) {
            let (ka, kb) = (f64::from_bits(bits.0), f64::from_bits(bits.1));
            prop_assert!(orders_agree((ka, nodes.0), (kb, nodes.1)));
            // Equal keys: the tie-break on the node decides.
            prop_assert!(orders_agree((ka, nodes.0), (ka, nodes.1)));
        }
    }

    #[test]
    fn path_reads_hold_their_contract() {
        // 0 —1— 1 —10— 3 —1— 4 and 0 —2— 2 —1— 3: the heap sweep for node 2
        // settles 0, 1 and 2 and stops with node 3 labelled at 11 through
        // node 1 (its final label is 3, through node 2) and node 4 unlabelled.
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        for (x, y, w) in [(0, 1, 1.0), (1, 3, 10.0), (0, 2, 2.0), (2, 3, 1.0), (3, 4, 1.0)] {
            b.add_edge(NodeId(x), NodeId(y), w).unwrap();
        }
        let g = b.build().unwrap();
        let mut a = SearchArena::new();
        // The generation before labels every slot of a larger map.
        run_in(&mut a, &line(8), NodeId(0), &Goal::AllNodes);
        run_in_traced(&mut a, &OnHeap(&g), NodeId(0), &Goal::Single(NodeId(2)));
        let path =
            |nodes: &[u32], d| Some(Path::new(nodes.iter().map(|&v| NodeId(v)).collect(), d));
        assert_eq!(a.path_to(NodeId(2)), path(&[0, 2], 2.0), "the goal");
        assert_eq!(a.path_to(NodeId(0)), path(&[0], 0.0), "the root");
        assert_eq!(a.path_to(NodeId(3)), path(&[0, 1, 3], 11.0), "a tentative label");
        assert_eq!(a.path_to(NodeId(4)), None, "labelled only by the generation before");
        for out in [5, 7, NIL - 1] {
            assert_eq!(a.path_to(NodeId(out)), None, "node {out} is out of range");
        }
    }

    // The limit was 2^31 while the entry spent a bit on the tree; it is now
    // the `NIL` parent sentinel. Panics before any slab grows.
    #[test]
    #[should_panic(expected = "fewer than u32::MAX nodes")]
    fn two_to_the_31_nodes_are_rejected() {
        SearchArena::preallocated(NIL as usize, 1);
    }
}
