//! Exact LRU buffer pool over simulated disk pages.
//!
//! Fault counts must be deterministic and reproducible across runs (they are
//! experiment outputs), so this is a textbook exact-LRU implementation — an
//! intrusive doubly-linked list over a slot vector plus a page→slot map —
//! rather than an approximation like CLOCK.

use std::collections::HashMap;

/// Counters exposed by the buffer pool.
///
/// `faults` is the simulated I/O cost: each fault stands for one disk page
/// read. `accesses` counts logical page touches, so `faults / accesses`
/// complements [`IoStats::hit_ratio`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IoStats {
    /// Logical page touches.
    pub accesses: u64,
    /// Touches that required a (simulated or real) disk read.
    pub faults: u64,
    /// Resident pages displaced to make room.
    pub evictions: u64,
}

impl IoStats {
    /// Fraction of accesses served from the buffer (0 when untouched).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 { 0.0 } else { 1.0 - self.faults as f64 / self.accesses as f64 }
    }

    /// Aggregate two counters (used when merging per-query stats).
    pub fn merge(&mut self, other: IoStats) {
        self.accesses += other.accesses;
        self.faults += other.faults;
        self.evictions += other.evictions;
    }
}

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    page: u32,
    prev: u32,
    next: u32,
}

/// Fixed-capacity exact-LRU page buffer.
#[derive(Clone, Debug)]
pub struct LruBuffer {
    capacity: usize,
    slots: Vec<Slot>,
    map: HashMap<u32, u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    stats: IoStats,
}

impl LruBuffer {
    /// A buffer holding at most `capacity` pages (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer must hold at least one page");
        LruBuffer {
            capacity,
            slots: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            stats: IoStats::default(),
        }
    }

    /// Buffer capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// True if `page` is currently buffered (does not count as an access).
    pub fn contains(&self, page: u32) -> bool {
        self.map.contains_key(&page)
    }

    /// Counters since construction or the last [`LruBuffer::reset_stats`].
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Zero the counters (resident pages stay resident — experiments reset
    /// between queries to measure warm-buffer behaviour).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Access `page`: returns `true` if the access faulted (page was not
    /// resident and a simulated disk read happened).
    pub fn touch(&mut self, page: u32) -> bool {
        self.touch_evicting(page).0
    }

    /// [`LruBuffer::touch`], also reporting the page a fault displaced —
    /// for callers that keep per-page data beside the buffer and must drop
    /// the victim's.
    pub(crate) fn touch_evicting(&mut self, page: u32) -> (bool, Option<u32>) {
        self.stats.accesses += 1;
        if let Some(&slot) = self.map.get(&page) {
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return (false, None);
        }
        self.stats.faults += 1;
        let mut evicted = None;
        let slot = if self.map.len() < self.capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot { page, prev: NIL, next: NIL });
            slot
        } else {
            // Evict the LRU page and reuse its slot.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity >= 1 guarantees a victim");
            self.unlink(victim);
            let old_page = self.slots[victim as usize].page;
            self.map.remove(&old_page);
            self.stats.evictions += 1;
            self.slots[victim as usize].page = page;
            evicted = Some(old_page);
            victim
        };
        self.map.insert(page, slot);
        self.push_front(slot);
        (true, evicted)
    }

    /// Pages from most- to least-recently used (test/debug helper).
    pub fn lru_order(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slots[cur as usize].page);
            cur = self.slots[cur as usize].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_only_on_first_touch_when_capacity_suffices() {
        let mut b = LruBuffer::new(4);
        assert!(b.touch(1));
        assert!(b.touch(2));
        assert!(!b.touch(1));
        assert!(!b.touch(2));
        let s = b.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.faults, 2);
        assert_eq!(s.evictions, 0);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.touch(1);
        b.touch(2);
        b.touch(1); // order now [1, 2]
        assert_eq!(b.touch_evicting(3), (true, Some(2)));
        assert!(b.contains(1));
        assert!(!b.contains(2));
        assert!(b.contains(3));
        assert_eq!(b.stats().evictions, 1);
        assert_eq!(b.lru_order(), vec![3, 1]);
    }

    #[test]
    fn capacity_one_thrashes() {
        let mut b = LruBuffer::new(1);
        assert!(b.touch(1));
        assert!(b.touch(2));
        assert!(b.touch(1));
        assert_eq!(b.stats().faults, 3);
        assert_eq!(b.resident(), 1);
    }

    #[test]
    fn repeated_touch_of_head_is_cheap_and_correct() {
        let mut b = LruBuffer::new(3);
        b.touch(7);
        for _ in 0..100 {
            assert!(!b.touch(7));
        }
        assert_eq!(b.stats().faults, 1);
        assert_eq!(b.lru_order(), vec![7]);
    }

    #[test]
    fn sequential_scan_larger_than_capacity_always_faults() {
        // Classic LRU worst case: cyclic scan of capacity+1 pages.
        let mut b = LruBuffer::new(3);
        for round in 0..4 {
            for p in 0..4u32 {
                let faulted = b.touch(p);
                assert!(faulted, "round {round} page {p} should fault");
            }
        }
        assert_eq!(b.stats().faults, 16);
    }

    #[test]
    fn reset_stats_keeps_residency() {
        let mut b = LruBuffer::new(2);
        b.touch(1);
        b.reset_stats();
        assert!(!b.touch(1), "page stayed resident across stats reset");
        assert_eq!(b.stats().accesses, 1);
        assert_eq!(b.stats().faults, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IoStats { accesses: 1, faults: 1, evictions: 0 };
        a.merge(IoStats { accesses: 2, faults: 1, evictions: 1 });
        assert_eq!(a, IoStats { accesses: 3, faults: 2, evictions: 1 });
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let _ = LruBuffer::new(0);
    }
}
