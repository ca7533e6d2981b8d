//! The host reference: a fixed piece of work that lives in this crate,
//! never calls the workspace under test, and is timed between chunks of
//! measured work. Dividing a measurement by how slow the reference ran
//! around it ("host factor") removes the minutes-long speed episodes of a
//! shared 2-core host, which move wall time *and* CPU time of identical
//! work by 10–20 % — more than any bound this benchmark gates on.
//!
//! The kernel is a binary-heap Dijkstra over a synthetic jittered grid with
//! as many nodes as the workload's map, because the measured work is mostly
//! heap-and-adjacency traffic over a working set of that size: interference
//! that slows one slows the other by a similar share. A workload that
//! searches with landmark potentials also reads one distance table per
//! landmark, scattered, for every arc it improves — several times the
//! graph's own bytes — and slow episodes of the host slow that by more than
//! they slow a plain sweep (measured: 16 runs of one script spanning 19 % in
//! raw time came out within 8.4 % divided by the plain kernel's factor and
//! within 4.8 % divided by the guided one's). So for such a workload the
//! kernel sweeps in guided order over landmark tables of its own. Nothing
//! here depends on `--seed`; the reference is the same work on every run of
//! a workload.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Smallest grid side: a reference that fits in L1 would not feel the
/// memory interference the workloads feel.
pub const MIN_SIDE: usize = 140;

#[derive(Clone, Copy, PartialEq)]
struct Entry {
    dist: f64,
    node: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; node id breaks ties so the sweep order is
        // a pure function of the grid.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A frontier entry of the guided sweep: ordered by `key` = label plus
/// landmark potential, carrying the label itself.
#[derive(Clone, Copy, PartialEq)]
struct GuidedEntry {
    key: f64,
    dist: f64,
    node: u32,
}

impl Eq for GuidedEntry {}

impl Ord for GuidedEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for GuidedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The reference kernel: a CSR grid plus reusable search buffers.
pub struct Reference {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    dist: Vec<f64>,
    heap: BinaryHeap<Entry>,
    /// `tables[l][v]` = distance from landmark `l` to `v`: one table per
    /// landmark, as the landmark tables of a goal-directed workload are laid
    /// out, so a potential costs one scattered read per landmark. Empty for
    /// the plain kernel.
    tables: Vec<Vec<f64>>,
    /// `tables[l][goal]` of the guided sweep under way.
    at_goal: Vec<f64>,
    guided_heap: BinaryHeap<GuidedEntry>,
    sweeps: usize,
    next_root: u32,
}

impl Reference {
    /// A `side × side` 4-connected grid whose edge weights are `1 + jitter`
    /// from a fixed LCG, timed `sweeps` full sweeps per sample. With
    /// `landmarks > 0` the timed sweeps are guided ones (see
    /// [`Self::guided_sweep`]) over that many landmark tables, so the
    /// reference's working set and access pattern are those of a workload
    /// that searches with landmark potentials.
    pub fn new(side: usize, sweeps: usize, landmarks: usize) -> Self {
        let side = side.max(MIN_SIDE);
        let n = side * side;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            1.0 + ((state >> 40) as f64) / ((1u64 << 24) as f64)
        };
        // One weight per undirected edge, shared by both arcs.
        let right: Vec<f64> = (0..n).map(|_| jitter()).collect();
        let down: Vec<f64> = (0..n).map(|_| jitter()).collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(4 * n);
        let mut weights = Vec::with_capacity(4 * n);
        offsets.push(0);
        for v in 0..n {
            let (x, y) = (v % side, v / side);
            if x > 0 {
                targets.push((v - 1) as u32);
                weights.push(right[v - 1]);
            }
            if x + 1 < side {
                targets.push((v + 1) as u32);
                weights.push(right[v]);
            }
            if y > 0 {
                targets.push((v - side) as u32);
                weights.push(down[v - side]);
            }
            if y + 1 < side {
                targets.push((v + side) as u32);
                weights.push(down[v]);
            }
            offsets.push(targets.len() as u32);
        }
        let mut reference = Reference {
            offsets,
            targets,
            weights,
            dist: vec![f64::INFINITY; n],
            heap: BinaryHeap::with_capacity(n),
            tables: Vec::with_capacity(landmarks),
            at_goal: Vec::with_capacity(landmarks),
            // Like `heap`, sized once: a sample never allocates, so the
            // traced run's allocation counters stay the program's.
            guided_heap: BinaryHeap::with_capacity(if landmarks > 0 { n } else { 0 }),
            sweeps: sweeps.max(1),
            next_root: 0,
        };
        for l in 0..landmarks {
            // Landmarks spread over the grid by a fixed stride.
            reference.sweep(((l * n) / landmarks + side / 2) as u32 % n as u32);
            reference.tables.push(reference.dist.clone());
        }
        reference
    }

    /// Nodes in the reference grid.
    pub fn nodes(&self) -> usize {
        self.dist.len()
    }

    /// One full Dijkstra sweep from `root`; returns the number of settled
    /// nodes and the sum of all labels (the determinism checksum).
    pub fn sweep(&mut self, root: u32) -> (usize, f64) {
        self.dist.fill(f64::INFINITY);
        self.heap.clear();
        self.dist[root as usize] = 0.0;
        self.heap.push(Entry { dist: 0.0, node: root });
        let mut settled = 0usize;
        let mut sum = 0.0;
        while let Some(Entry { dist, node }) = self.heap.pop() {
            if dist > self.dist[node as usize] {
                continue;
            }
            settled += 1;
            sum += dist;
            let (lo, hi) =
                (self.offsets[node as usize] as usize, self.offsets[node as usize + 1] as usize);
            for (&to, &w) in self.targets[lo..hi].iter().zip(&self.weights[lo..hi]) {
                let next = dist + w;
                if next < self.dist[to as usize] {
                    self.dist[to as usize] = next;
                    self.heap.push(Entry { dist: next, node: to });
                }
            }
        }
        (settled, sum)
    }

    /// One full sweep from `root` in the order a landmark-guided search
    /// towards `goal` settles nodes: the frontier is keyed by label plus
    /// `max_l |d(l, v) − d(l, goal)|`, evaluated for every improved arc from
    /// the per-landmark tables. The potential is consistent, so every node
    /// is settled once at its true distance; only the order (and the memory
    /// traffic) differs from [`Self::sweep`]. Returns the settled count and
    /// the label sum.
    pub fn guided_sweep(&mut self, root: u32, goal: u32) -> (usize, f64) {
        self.at_goal.clear();
        self.at_goal.extend(self.tables.iter().map(|t| t[goal as usize]));
        let (tables, at_goal) = (&self.tables, &self.at_goal);
        let potential = |v: u32| {
            tables
                .iter()
                .zip(at_goal)
                .fold(0.0f64, |best, (t, &g)| best.max((t[v as usize] - g).abs()))
        };
        self.dist.fill(f64::INFINITY);
        self.guided_heap.clear();
        self.dist[root as usize] = 0.0;
        self.guided_heap.push(GuidedEntry { key: potential(root), dist: 0.0, node: root });
        let mut settled = 0usize;
        let mut sum = 0.0;
        while let Some(GuidedEntry { dist, node, .. }) = self.guided_heap.pop() {
            if dist > self.dist[node as usize] {
                continue;
            }
            settled += 1;
            sum += dist;
            let (lo, hi) =
                (self.offsets[node as usize] as usize, self.offsets[node as usize + 1] as usize);
            for (&to, &w) in self.targets[lo..hi].iter().zip(&self.weights[lo..hi]) {
                let next = dist + w;
                if next < self.dist[to as usize] {
                    self.dist[to as usize] = next;
                    self.guided_heap.push(GuidedEntry {
                        key: next + potential(to),
                        dist: next,
                        node: to,
                    });
                }
            }
        }
        (settled, sum)
    }

    /// One timed sample, in milliseconds: `sweeps` plain sweeps from roots
    /// that rotate through the grid (so a sample is never served from a warm
    /// copy of the previous one's labels) — or, when the kernel has landmark
    /// tables, `sweeps` guided sweeps between one fixed pair of nodes: the
    /// order a guided sweep settles nodes in, and with it its time, depends
    /// on the pair, and every sample must be the same work.
    pub fn sample_ms(&mut self) -> f64 {
        let n = self.nodes() as u32;
        let start = Instant::now();
        for _ in 0..self.sweeps {
            if self.tables.is_empty() {
                // The stride only has to move the root, not cover the grid.
                self.next_root = (self.next_root + 7919) % n;
                black_box(self.sweep(black_box(self.next_root)));
            } else {
                let root = black_box(n / 4 + 7919);
                black_box(self.guided_sweep(root, (root + n / 2) % n));
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Mean of the two reference samples that bracket a chunk of measured work,
/// as a multiple of the pinned nominal: the chunk's host factor. A factor
/// of 1.25 says the host ran the reference 25 % slower than the container
/// the nominal was pinned on, so the chunk's seconds are divided by 1.25.
pub fn host_factor(before_ms: f64, after_ms: f64, nominal_ms: f64) -> f64 {
    (before_ms + after_ms) / 2.0 / nominal_ms
}

/// Calibrated timing: owns the reference, remembers the last sample so each
/// chunk is bracketed by the sample before and the sample after it, and
/// keeps every factor for the `host.*` metrics.
pub struct HostClock {
    reference: Reference,
    nominal_ms: f64,
    last_ms: f64,
    factors: Vec<f64>,
    samples: usize,
}

impl HostClock {
    /// Build the reference, run the discarded warm sweeps, and take the
    /// opening sample.
    pub fn start(side: usize, sweeps: usize, landmarks: usize, nominal_ms: f64) -> Self {
        let mut reference = Reference::new(side, sweeps, landmarks);
        for _ in 0..3 {
            reference.sample_ms();
        }
        let last_ms = reference.sample_ms();
        HostClock { reference, nominal_ms, last_ms, factors: Vec::new(), samples: 1 }
    }

    /// Re-take the opening sample after a stretch of unmeasured work (script
    /// generation, verification), so the next chunk is bracketed by samples
    /// adjacent to it.
    pub fn resync(&mut self) {
        self.last_ms = self.reference.sample_ms();
        self.samples += 1;
    }

    /// Close the chunk of measured work that ran since the previous sample:
    /// take the closing sample and return the chunk's host factor.
    pub fn close_chunk(&mut self) -> f64 {
        let after = self.reference.sample_ms();
        self.samples += 1;
        let factor = host_factor(self.last_ms, after, self.nominal_ms);
        self.last_ms = after;
        self.factors.push(factor);
        factor
    }

    /// Every chunk factor so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Reference samples taken (for the overhead line in the output).
    pub fn samples(&self) -> usize {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_settles_the_whole_grid() {
        let mut a = Reference::new(MIN_SIDE, 1, 0);
        let mut b = Reference::new(MIN_SIDE, 1, 0);
        let first = a.sweep(17);
        assert_eq!(first.0, MIN_SIDE * MIN_SIDE, "a connected grid settles every node");
        assert_eq!(first, b.sweep(17), "two kernels agree bit for bit");
        assert_eq!(first, a.sweep(17), "and a reused kernel agrees with itself");
        assert_ne!(first.1, a.sweep(18).1, "a different root is different work");
    }

    #[test]
    fn a_guided_sweep_labels_the_grid_as_a_plain_sweep_does() {
        let mut plain = Reference::new(MIN_SIDE, 1, 0);
        let mut guided = Reference::new(MIN_SIDE, 1, 4);
        assert_eq!(guided.tables.len(), 4);
        let (settled, _) = plain.sweep(17);
        // Consistent potentials: every node settled once, at its distance.
        assert_eq!(guided.guided_sweep(17, 9000).0, settled);
        assert_eq!(guided.dist, plain.dist);
        // Every sample is the same work: same order, same labels.
        let first = guided.guided_sweep(17, 9000);
        assert_eq!(first, guided.guided_sweep(17, 9000));
    }

    #[test]
    fn small_sides_are_raised_to_the_floor() {
        assert_eq!(Reference::new(10, 1, 0).nodes(), MIN_SIDE * MIN_SIDE);
        assert_eq!(Reference::new(320, 1, 0).nodes(), 320 * 320);
    }

    #[test]
    fn host_factor_is_the_bracket_mean_over_nominal() {
        assert_eq!(host_factor(30.0, 30.0, 30.0), 1.0);
        assert_eq!(host_factor(30.0, 45.0, 30.0), 1.25);
        // A chunk measured at 2.5 s on a host running 25 % slow is 2.0 s.
        assert_eq!(2.5 / host_factor(30.0, 45.0, 30.0), 2.0);
    }

    #[test]
    fn chunks_are_bracketed_by_adjacent_samples() {
        let mut clock = HostClock::start(MIN_SIDE, 1, 0, 1.0);
        let opening = clock.last_ms;
        let f = clock.close_chunk();
        let closing = clock.last_ms;
        assert_eq!(f, host_factor(opening, closing, 1.0));
        // The closing sample of one chunk opens the next.
        let g = clock.close_chunk();
        assert_eq!(g, host_factor(closing, clock.last_ms, 1.0));
        assert_eq!(clock.factors(), &[f, g]);
        assert_eq!(clock.samples(), 3);
    }
}
