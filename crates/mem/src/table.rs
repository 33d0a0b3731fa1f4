//! Block-number-keyed lookup structures for the simulator hot path.
//!
//! Simulated addresses are synthetic and dense (arrays start at a fixed base
//! and grow contiguously), so block numbers cluster into a few small ranges.
//! That makes a paged array the right shape for per-block state (the miss
//! classification's slot table) and a fixed-size open-addressed table the
//! right shape for the victim-cache and bypass-buffer indices — both replace
//! `std` hash containers whose per-op SipHash cost dominated
//! `Cache::access`.

/// Sentinel marking an empty [`BlockMap`] slot (node indices never reach it).
const EMPTY: u32 = u32::MAX;

/// Fibonacci multiplier for slot hashing.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed-capacity open-addressed hash map from block number to a `u32` node
/// index: the index of an [`crate::LruSet`], which serves the victim caches
/// and the bypass buffer. Linear probing with backward-shift deletion; the
/// slot array is sized to twice the bound passed at construction so the
/// load factor never exceeds one half and probes stay short.
#[derive(Debug, Clone)]
pub(crate) struct BlockMap {
    keys: Box<[u64]>,
    vals: Box<[u32]>,
    mask: usize,
    shift: u32,
    len: usize,
}

impl BlockMap {
    /// A map that can hold up to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(4) * 2).next_power_of_two();
        BlockMap {
            keys: vec![0; slots].into_boxed_slice(),
            vals: vec![EMPTY; slots].into_boxed_slice(),
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn ideal(&self, key: u64) -> usize {
        (key.wrapping_mul(PHI) >> self.shift) as usize
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut i = self.ideal(key);
        while self.vals[i] != EMPTY {
            if self.keys[i] == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Inserts or overwrites `key`. The caller keeps `len` under the
    /// construction-time capacity, so a free slot always exists.
    pub fn insert(&mut self, key: u64, val: u32) {
        debug_assert_ne!(val, EMPTY);
        let mut i = self.ideal(key);
        while self.vals[i] != EMPTY {
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
        debug_assert!(self.len * 2 <= self.mask + 1, "BlockMap over capacity");
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
    }

    /// Removes `key`, compacting the probe chain so later lookups stay
    /// correct without tombstones.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = self.ideal(key);
        loop {
            if self.vals[i] == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let removed = self.vals[i];
        self.len -= 1;
        // Backward-shift: pull each displaced follower into the hole unless
        // its ideal slot lies strictly inside the cyclic range (hole, j].
        loop {
            self.vals[i] = EMPTY;
            let mut j = i;
            loop {
                j = (j + 1) & self.mask;
                if self.vals[j] == EMPTY {
                    return Some(removed);
                }
                let k = self.ideal(self.keys[j]);
                let movable = if j > i { k <= i || k > j } else { k <= i && k > j };
                if movable {
                    self.keys[i] = self.keys[j];
                    self.vals[i] = self.vals[j];
                    i = j;
                    break;
                }
            }
        }
    }
}

/// Blocks per [`PagedSlots`] page (16 KiB of payload).
const PAGE_SHIFT: u32 = 12;
const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
/// Pages addressed directly; block numbers at or beyond
/// `MAX_PAGES << PAGE_SHIFT` (2^31) spill into the overflow map.
const MAX_PAGES: usize = 1 << (31 - PAGE_SHIFT);

/// One `u32` per block number, zero until first written, in lazily
/// allocated pages. A slot is a single indexed load on the hot path;
/// pathological block numbers fall back to a hash map so correctness never
/// depends on density.
#[derive(Debug, Clone, Default)]
pub(crate) struct PagedSlots {
    pages: Vec<Option<Box<[u32]>>>,
    overflow: std::collections::HashMap<u64, u32>,
}

impl PagedSlots {
    pub fn new() -> Self {
        PagedSlots::default()
    }

    /// The slot of `block`, allocating its page on first use.
    #[inline]
    pub fn slot(&mut self, block: u64) -> &mut u32 {
        let page = (block >> PAGE_SHIFT) as usize;
        if page >= MAX_PAGES {
            return self.overflow.entry(block).or_default();
        }
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let slots = self.pages[page].get_or_insert_with(|| vec![0; PAGE_SLOTS].into_boxed_slice());
        &mut slots[block as usize & (PAGE_SLOTS - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_map_insert_get_remove() {
        let mut m = BlockMap::with_capacity(8);
        for k in 0..8u64 {
            m.insert(k * 1000, k as u32);
        }
        assert_eq!(m.len(), 8);
        for k in 0..8u64 {
            assert_eq!(m.get(k * 1000), Some(k as u32));
        }
        assert_eq!(m.get(999), None);
        assert_eq!(m.remove(3000), Some(3));
        assert_eq!(m.remove(3000), None);
        assert_eq!(m.len(), 7);
        for k in [0u64, 1, 2, 4, 5, 6, 7] {
            assert_eq!(m.get(k * 1000), Some(k as u32), "chain broken after removal");
        }
    }

    #[test]
    fn block_map_overwrite_keeps_len() {
        let mut m = BlockMap::with_capacity(4);
        m.insert(7, 1);
        m.insert(7, 2);
        assert_eq!((m.get(7), m.len()), (Some(2), 1));
    }

    #[test]
    fn block_map_matches_std_hashmap_under_churn() {
        let mut m = BlockMap::with_capacity(64);
        let mut h = std::collections::HashMap::new();
        let mut state = 42u64;
        for i in 0..20_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 40) % 97; // heavy collisions in 128 slots
            match state % 3 {
                0 => {
                    if h.len() < 64 || h.contains_key(&key) {
                        m.insert(key, i);
                        h.insert(key, i);
                    }
                }
                1 => assert_eq!(m.get(key), h.get(&key).copied()),
                _ => assert_eq!(m.remove(key), h.remove(&key)),
            }
            assert_eq!(m.len(), h.len());
        }
    }
}
