//! Exact LRU map: the one recency policy of the workspace.
//!
//! Fault counts must be deterministic and reproducible across runs (they are
//! experiment outputs), so this is a textbook exact-LRU implementation — an
//! intrusive doubly-linked list over a slot vector plus a key→slot map —
//! rather than an approximation like CLOCK. The buffer owns its values, so
//! a store that keeps per-key data (decoded pages, recorded sweeps) needs
//! no side map that could drift from the residency decision.

use std::collections::HashMap;
use std::hash::Hash;

/// Counters exposed by the buffer pool.
///
/// `faults` is the I/O cost: each fault stands for one disk page read.
/// `accesses` counts logical page touches, so `faults / accesses`
/// complements [`IoStats::hit_ratio`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IoStats {
    /// Logical page touches.
    pub accesses: u64,
    /// Touches that found the page absent and required a disk read.
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

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Fixed-capacity exact-LRU map from keys to owned values.
///
/// [`LruBuffer::get`] is the counted access (it refreshes recency and
/// charges a fault when the key is absent); [`LruBuffer::insert`] makes a
/// key most recent, evicting the least recently used entry when full;
/// [`LruBuffer::peek`] reads without touching either. Slots grow on
/// demand, so a huge capacity costs nothing until it is used.
#[derive(Clone, Debug)]
pub struct LruBuffer<K, V> {
    capacity: usize,
    slots: Vec<Slot<K, V>>,
    map: HashMap<K, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    stats: IoStats,
}

impl<K: Copy + Eq + Hash, V> LruBuffer<K, V> {
    /// A buffer holding at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer must hold at least one page");
        LruBuffer {
            capacity,
            slots: Vec::new(),
            map: HashMap::new(),
            head: NIL,
            tail: NIL,
            stats: IoStats::default(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Counters since construction; [`LruBuffer::clear`] keeps them.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Counted access: the value under `key`, made most recent; `None`
    /// (and one fault) when it is absent.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.stats.accesses += 1;
        let Some(&slot) = self.map.get(key) else {
            self.stats.faults += 1;
            return None;
        };
        self.promote(slot);
        Some(&self.slots[slot].value)
    }

    /// The value under `key`, leaving counters and recency untouched.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&slot| &self.slots[slot].value)
    }

    /// Store `value` under `key` as the most recent entry, returning the
    /// value it replaced. A new key at capacity evicts the least recently
    /// used entry.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&slot) = self.map.get(&key) {
            self.promote(slot);
            return Some(std::mem::replace(&mut self.slots[slot].value, value));
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot { key, value, prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            // Reuse the LRU slot for the newcomer.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.stats.evictions += 1;
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        None
    }

    /// Keep only the entries `keep` accepts, visited in slot order;
    /// survivors keep their relative recency. `keep` may rewrite the value
    /// it keeps (a store repairing its entries in place).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let mut slot = 0;
        while slot < self.slots.len() {
            let Slot { key, value, .. } = &mut self.slots[slot];
            if keep(key, value) {
                slot += 1;
            } else {
                // The last slot moves into `slot`, which is visited next.
                self.remove_slot(slot);
            }
        }
    }

    /// Drop every entry; the counters describe the buffer's lifetime and
    /// stay.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Entries from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            // `NIL` is past every slot, so the walk ends at the tail.
            let slot = self.slots.get(cur)?;
            cur = slot.next;
            Some((&slot.key, &slot.value))
        })
    }

    fn promote(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Remove `slot`, moving the last slot into its place.
    fn remove_slot(&mut self, slot: usize) {
        self.unlink(slot);
        self.map.remove(&self.slots[slot].key);
        let last = self.slots.len() - 1;
        self.slots.swap_remove(slot);
        if slot == last {
            return;
        }
        // Re-point the moved slot's neighbours (or the ends) at its new index.
        let Slot { key, prev, next, .. } = self.slots[slot];
        self.map.insert(key, slot);
        if prev != NIL {
            self.slots[prev].next = slot;
        } else {
            self.head = slot;
        }
        if next != NIL {
            self.slots[next].prev = slot;
        } else {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page buffer with no payload: `touch` is a counted access that
    /// loads the page on a fault, as a paged store does.
    fn touch(b: &mut LruBuffer<u32, ()>, page: u32) -> bool {
        let faulted = b.get(&page).is_none();
        if faulted {
            b.insert(page, ());
        }
        faulted
    }

    fn order<V>(b: &LruBuffer<u32, V>) -> Vec<u32> {
        b.iter().map(|(&k, _)| k).collect()
    }

    #[test]
    fn faults_only_on_first_touch_when_capacity_suffices() {
        let mut b = LruBuffer::new(4);
        assert!(touch(&mut b, 1));
        assert!(touch(&mut b, 2));
        assert!(!touch(&mut b, 1));
        assert!(!touch(&mut b, 2));
        let s = b.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.faults, 2);
        assert_eq!(s.evictions, 0);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        touch(&mut b, 1);
        touch(&mut b, 2);
        touch(&mut b, 1); // order now [1, 2]
        assert!(touch(&mut b, 3));
        assert!(b.peek(&1).is_some());
        assert!(b.peek(&2).is_none());
        assert!(b.peek(&3).is_some());
        assert_eq!(b.stats().evictions, 1);
        assert_eq!(order(&b), vec![3, 1]);
    }

    #[test]
    fn capacity_one_thrashes() {
        let mut b = LruBuffer::new(1);
        assert!(touch(&mut b, 1));
        assert!(touch(&mut b, 2));
        assert!(touch(&mut b, 1));
        assert_eq!(b.stats().faults, 3);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn repeated_touch_of_head_is_cheap_and_correct() {
        let mut b = LruBuffer::new(3);
        touch(&mut b, 7);
        for _ in 0..100 {
            assert!(!touch(&mut b, 7));
        }
        assert_eq!(b.stats().faults, 1);
        assert_eq!(order(&b), vec![7]);
    }

    #[test]
    fn sequential_scan_larger_than_capacity_always_faults() {
        // Classic LRU worst case: cyclic scan of capacity+1 pages.
        let mut b = LruBuffer::new(3);
        for round in 0..4 {
            for p in 0..4u32 {
                let faulted = touch(&mut b, p);
                assert!(faulted, "round {round} page {p} should fault");
            }
        }
        assert_eq!(b.stats().faults, 16);
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
        let _ = LruBuffer::<u32, ()>::new(0);
    }
}
