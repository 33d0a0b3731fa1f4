//! A fixed-capacity fully-associative LRU set with O(1) operations.
//!
//! This is the building block for the victim caches and the bypass buffer.
//! (The miss classification's fully-associative shadow keeps its own list,
//! indexed through the cache's per-block slot table; see `cache.rs`.)

use crate::table::BlockMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// Fixed-capacity fully-associative LRU store keyed by block number.
///
/// ```
/// use selcache_mem::LruSet;
/// let mut s = LruSet::new(2);
/// assert_eq!(s.insert(1, false), None);
/// assert_eq!(s.insert(2, false), None);
/// assert_eq!(s.insert(1, false), None); // 1 becomes MRU
/// let evicted = s.insert(3, false).map(|(k, _)| k);
/// assert_eq!(evicted, Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct LruSet {
    nodes: Vec<Node>,
    map: BlockMap,
    /// Most-recently-used node.
    head: u32,
    /// Least-recently-used node.
    tail: u32,
    free: Vec<u32>,
    capacity: usize,
}

impl LruSet {
    /// Creates an empty set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be positive");
        LruSet {
            nodes: Vec::with_capacity(capacity),
            map: BlockMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    /// Current number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `key` is present (does not update recency).
    pub fn contains(&self, key: u64) -> bool {
        self.map.get(key).is_some()
    }

    /// Inserts `key` as MRU, returning the evicted `(key, dirty)` pair if the
    /// set was full. Re-inserting an existing key refreshes it (and ORs the
    /// dirty bit); nothing is evicted in that case.
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<(u64, bool)> {
        // Fast path: re-inserting the current MRU key changes no ordering,
        // so skip the table lookup and list relink entirely.
        if self.head != NIL {
            let h = &mut self.nodes[self.head as usize];
            if h.key == key {
                h.dirty |= dirty;
                return None;
            }
        }
        if let Some(idx) = self.map.get(key) {
            self.nodes[idx as usize].dirty |= dirty;
            self.unlink(idx);
            self.link_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let node = &self.nodes[victim as usize];
            evicted = Some((node.key, node.dirty));
            let old_key = node.key;
            self.unlink(victim);
            self.map.remove(old_key);
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node { key, dirty, prev: NIL, next: NIL };
                i
            }
            None => {
                self.nodes.push(Node { key, dirty, prev: NIL, next: NIL });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(key, idx);
        self.link_front(idx);
        evicted
    }

    /// Removes `key`, returning its dirty bit if it was present.
    pub fn remove(&mut self, key: u64) -> Option<bool> {
        let idx = self.map.remove(key)?;
        let dirty = self.nodes[idx as usize].dirty;
        self.unlink(idx);
        self.free.push(idx);
        Some(dirty)
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let n = &mut self.nodes[idx as usize];
        n.prev = NIL;
        n.next = NIL;
    }

    fn link_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_lru_order() {
        let mut s = LruSet::new(3);
        s.insert(1, false);
        s.insert(2, false);
        s.insert(3, false);
        assert_eq!(s.insert(4, false), Some((1, false)));
        assert_eq!(s.insert(5, false), Some((2, false)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_and_merges_dirty() {
        let mut s = LruSet::new(2);
        s.insert(1, false);
        s.insert(2, false);
        assert_eq!(s.insert(1, true), None);
        // 2 is now LRU.
        assert_eq!(s.insert(3, false), Some((2, false)));
        // 1 remains, dirty.
        assert_eq!(s.remove(1), Some(true));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut s = LruSet::new(2);
        s.insert(1, true);
        s.insert(2, false);
        assert_eq!(s.remove(1), Some(true));
        assert_eq!(s.remove(1), None);
        assert_eq!(s.insert(3, false), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn single_entry_set() {
        let mut s = LruSet::new(1);
        assert_eq!(s.insert(1, true), None);
        assert_eq!(s.insert(2, false), Some((1, true)));
        assert!(s.contains(2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut s = LruSet::new(8);
        for k in 0..1000u64 {
            s.insert(k, k % 2 == 0);
            assert!(s.len() <= 8);
            assert!(s.contains(k));
        }
        for k in 992..1000 {
            assert!(s.contains(k));
        }
        assert!(!s.contains(991));
    }
}
