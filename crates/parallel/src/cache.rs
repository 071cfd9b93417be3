//! A fixed-capacity LRU set with O(1) touch/insert/evict.
//!
//! [`LruCache`] models each worker's buffer cache of disk pages. Only page
//! *identity* is cached (hit/miss drives the disk time model); page bytes
//! stay in the worker's store.
//!
//! Implementation: an intrusive doubly-linked list over a slab of nodes plus
//! a key -> slot map. No unsafe code; links are slab indices.

use std::collections::HashMap;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    key: u32,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU set of `u32` keys.
#[derive(Debug)]
pub struct LruCache {
    map: HashMap<u32, u32>, // key -> slot
    slab: Vec<Node>,
    /// Slots vacated by [`LruCache::remove`], reused before the slab grows.
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` keys. A capacity of zero
    /// is allowed and caches nothing (the paper's "raw disk I/O" mode).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on a hit. On a miss the
    /// key is inserted (evicting the least-recently-used key if full).
    /// Returns whether it was a hit.
    pub fn touch(&mut self, key: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        // Miss: insert, evicting if needed.
        let slot = if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old_key = self.slab[lru as usize].key;
            self.map.remove(&old_key);
            self.slab[lru as usize].key = key;
            lru
        } else if let Some(slot) = self.free.pop() {
            self.slab[slot as usize].key = key;
            slot
        } else {
            self.slab.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            (self.slab.len() - 1) as u32
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        false
    }

    /// Whether `key` is cached, without changing recency.
    pub fn contains(&self, key: u32) -> bool {
        self.map.contains_key(&key)
    }

    /// Drops `key` from the cache — the write-invalidation hook: a block
    /// whose bytes were just rewritten must not be served as a (stale) cache
    /// hit. Returns whether the key was cached.
    pub fn remove(&mut self, key: u32) -> bool {
        let Some(slot) = self.map.remove(&key) else {
            return false;
        };
        self.unlink(slot);
        self.free.push(slot);
        true
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.slab[slot as usize];
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot as usize].prev = NIL;
        self.slab[slot as usize].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slab[slot as usize].prev = NIL;
        self.slab[slot as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(1));
        assert!(c.touch(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.touch(1);
        c.touch(2);
        c.touch(1); // 2 is now LRU
        c.touch(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = LruCache::new(0);
        for _ in 0..3 {
            assert!(!c.touch(7));
        }
        assert!(c.is_empty());
    }

    #[test]
    fn single_slot() {
        let mut c = LruCache::new(1);
        assert!(!c.touch(1));
        assert!(c.touch(1));
        assert!(!c.touch(2));
        assert!(!c.touch(1));
    }

    #[test]
    fn sequential_scan_larger_than_cache_never_hits() {
        let mut c = LruCache::new(4);
        for round in 0..3 {
            for k in 0..8u32 {
                assert!(!c.touch(k), "round {round}, key {k}");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = LruCache::new(8);
        for k in 0..8u32 {
            c.touch(k);
        }
        for round in 0..4 {
            for k in 0..8u32 {
                assert!(c.touch(k), "round {round}, key {k}");
            }
        }
    }

    #[test]
    fn remove_invalidates_and_recycles_slots() {
        let mut c = LruCache::new(2);
        c.touch(1);
        c.touch(2);
        assert!(c.remove(1));
        assert!(!c.contains(1));
        assert!(!c.remove(1), "double remove is a no-op");
        assert_eq!(c.len(), 1);
        // Re-touching a removed key is a miss again (slot recycled, not grown).
        assert!(!c.touch(1));
        assert_eq!(c.len(), 2);
        // Capacity still enforced: inserting a third key evicts the LRU (2).
        assert!(!c.touch(3));
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn remove_matches_reference_model() {
        // Same cross-check as below, with removes sprinkled in.
        let cap = 8;
        let mut fast = LruCache::new(cap);
        let mut slow: Vec<u32> = Vec::new(); // front = MRU
        let mut x = 777u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 24) as u32;
            if x.is_multiple_of(5) {
                let expect = slow.contains(&key);
                slow.retain(|&k| k != key);
                assert_eq!(fast.remove(key), expect, "remove {key}");
            } else {
                let expect_hit = slow.contains(&key);
                if expect_hit {
                    slow.retain(|&k| k != key);
                } else if slow.len() == cap {
                    slow.pop();
                }
                slow.insert(0, key);
                assert_eq!(fast.touch(key), expect_hit, "key {key}");
            }
            assert_eq!(fast.len(), slow.len());
        }
    }

    #[test]
    fn matches_reference_model() {
        // Cross-check against a naive Vec-based LRU on a pseudo-random trace.
        let cap = 16;
        let mut fast = LruCache::new(cap);
        let mut slow: Vec<u32> = Vec::new(); // front = MRU
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 48) as u32;
            let expect_hit = slow.contains(&key);
            if expect_hit {
                slow.retain(|&k| k != key);
            } else if slow.len() == cap {
                slow.pop();
            }
            slow.insert(0, key);
            assert_eq!(fast.touch(key), expect_hit, "key {key}");
        }
    }
}
