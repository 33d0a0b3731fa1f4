//! Victim cache (Jouppi, ISCA 1990): a small fully-associative buffer that
//! holds blocks evicted from a primary cache, turning many conflict misses
//! into short swaps.

use crate::lru::LruSet;

/// A fully-associative victim cache of evicted blocks.
///
/// ```
/// use selcache_mem::VictimCache;
/// let mut v = VictimCache::new(4);
/// v.insert(10, false);
/// assert_eq!(v.probe_remove(10), Some(false)); // hit: block moves back
/// assert_eq!(v.probe_remove(10), None);        // gone after the swap
/// ```
#[derive(Debug, Clone)]
pub struct VictimCache {
    set: LruSet,
    hits: u64,
}

impl VictimCache {
    /// Creates a victim cache with `entries` block slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        VictimCache { set: LruSet::new(entries), hits: 0 }
    }

    /// Probes for `block`; on a hit the block is removed (it is being swapped
    /// back into the primary cache) and its dirty bit returned.
    pub fn probe_remove(&mut self, block: u64) -> Option<bool> {
        let dirty = self.set.remove(block)?;
        self.hits += 1;
        Some(dirty)
    }

    /// Inserts an evicted block; returns a block pushed out of the victim
    /// cache (with its dirty bit) if it was full.
    pub fn insert(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
        self.set.insert(block, dirty)
    }

    /// Number of successful probes.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_removes_block() {
        let mut v = VictimCache::new(2);
        v.insert(1, true);
        assert_eq!(v.probe_remove(1), Some(true));
        assert_eq!(v.probe_remove(1), None);
        assert_eq!(v.hits(), 1);
    }

    #[test]
    fn overflow_evicts_lru() {
        let mut v = VictimCache::new(2);
        v.insert(1, false);
        v.insert(2, true);
        assert_eq!(v.insert(3, false), Some((1, false)));
    }

    #[test]
    fn recency_updates_on_reinsert() {
        let mut v = VictimCache::new(2);
        v.insert(1, false);
        v.insert(2, false);
        v.insert(1, false); // refresh
        assert_eq!(v.insert(3, false), Some((2, false)));
    }
}
