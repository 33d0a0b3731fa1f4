//! Set-associative cache model with three-C miss classification.

use crate::stats::{CacheStats, MissClass};
use crate::table::PagedSlots;
use selcache_ir::Addr;

/// Geometry of one cache; replacement is always least recently used, the
/// paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Block (line) size in bytes.
    pub block_size: u64,
}

impl CacheConfig {
    /// A cache of `size_kib` KiB with the given associativity and block size.
    pub fn kib(size_kib: u64, assoc: u32, block_size: u64) -> Self {
        CacheConfig { size: size_kib * 1024, assoc, block_size }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        (self.size / self.block_size / self.assoc as u64).max(1)
    }

    /// Number of lines.
    pub fn num_lines(&self) -> u64 {
        (self.size / self.block_size).max(1)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    block: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block was present.
    Hit,
    /// The block was absent, with its three-C classification (only when
    /// classification is enabled; [`MissClass::Capacity`] otherwise).
    Miss(MissClass),
}

impl Lookup {
    /// True for [`Lookup::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block number of the evicted line.
    pub block: u64,
    /// True if the evicted line was dirty (needs write-back).
    pub dirty: bool,
}

/// A set-associative cache operating on block numbers.
///
/// Lookups and fills are decoupled so that assist logic (bypassing, victim
/// caching) can decide what happens on a miss:
///
/// ```
/// use selcache_mem::{Cache, CacheConfig};
/// use selcache_ir::Addr;
///
/// let mut c = Cache::new(CacheConfig::kib(1, 2, 32));
/// let b = c.block_of(Addr(0x1000));
/// assert!(!c.access(b, false).is_hit());
/// c.fill(b, false);
/// assert!(c.access(b, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines in one contiguous allocation, set-major: set `s` occupies
    /// `lines[s * assoc .. (s + 1) * assoc]`.
    lines: Box<[Line]>,
    /// Per-set hint of the most-recently-touched way, checked before the
    /// associative scan on lookups.
    mru: Box<[u32]>,
    /// Cached geometry (avoids re-deriving divisions per access).
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two (the common
    /// case); set indexing then masks instead of dividing.
    set_mask: u64,
    set_pow2: bool,
    /// `log2(block_size)`; block size is always a power of two, so block
    /// numbers are computed with a shift.
    block_shift: u32,
    assoc: usize,
    stamp: u64,
    stats: CacheStats,
    /// Fully-associative LRU shadow of equal capacity, for conflict-miss
    /// classification.
    shadow: Option<Shadow>,
    /// Per-block state: bit 0 is set once the block has missed here
    /// (compulsory-miss detection); the bits above hold 1 + the index of
    /// the shadow node that last held the block, or 0 for none.
    slots: PagedSlots,
    /// Per-line way-duel ownership tags (0 untagged, 1 regular,
    /// 2 irregular), allocated lazily by [`Cache::fill_partitioned`].
    owner: Option<Box<[u8]>>,
}

impl Cache {
    /// Creates a cache without miss classification (fastest).
    pub fn new(cfg: CacheConfig) -> Self {
        Self::build(cfg, false)
    }

    /// Creates a cache that classifies misses into the three Cs.
    ///
    /// # Panics
    ///
    /// Panics if the cache has 2^31 lines or more: its per-block slots
    /// hold shadow node indices below that.
    pub fn with_classification(cfg: CacheConfig) -> Self {
        Self::build(cfg, true)
    }

    fn build(cfg: CacheConfig, classify: bool) -> Self {
        assert!(cfg.block_size.is_power_of_two(), "block size must be a power of two");
        assert!(cfg.assoc > 0, "associativity must be positive");
        let sets = cfg.num_sets();
        Cache {
            cfg,
            lines: vec![Line::default(); (sets * cfg.assoc as u64) as usize].into_boxed_slice(),
            mru: vec![0; sets as usize].into_boxed_slice(),
            num_sets: sets,
            set_mask: sets.wrapping_sub(1),
            set_pow2: sets.is_power_of_two(),
            block_shift: cfg.block_size.trailing_zeros(),
            assoc: cfg.assoc as usize,
            stamp: 0,
            stats: CacheStats::default(),
            shadow: classify.then(|| Shadow::new(cfg.num_lines() as usize)),
            slots: PagedSlots::new(),
            owner: None,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Block number of an address under this cache's block size.
    #[inline]
    pub fn block_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.block_shift
    }

    /// Set index of a block (mask when the set count is a power of two).
    #[inline]
    fn set_index(&self, block: u64) -> usize {
        if self.set_pow2 {
            (block & self.set_mask) as usize
        } else {
            (block % self.num_sets) as usize
        }
    }

    /// The lines of set `si` within the flat array.
    #[inline]
    fn set(&self, si: usize) -> &[Line] {
        &self.lines[si * self.assoc..(si + 1) * self.assoc]
    }

    /// Looks up `block`, updating recency, statistics, and classification
    /// state. Does **not** fill on a miss — call [`Cache::fill`] if the block
    /// should be allocated.
    pub fn access(&mut self, block: u64, write: bool) -> Lookup {
        self.stamp += 1;
        self.stats.accesses += 1;
        let si = self.set_index(block);
        let base = si * self.assoc;
        let stamp = self.stamp;
        // MRU-way fast path: a block lives in at most one way, so a hint
        // match is the same way the associative scan would find.
        let hint = self.mru[si] as usize;
        let way = {
            let set = &self.lines[base..base + self.assoc];
            if set[hint].valid && set[hint].block == block {
                Some(hint)
            } else {
                set.iter().position(|l| l.valid && l.block == block)
            }
        };
        if let Some(way) = way {
            let line = &mut self.lines[base + way];
            line.stamp = stamp;
            line.dirty |= write;
            self.mru[si] = way as u32;
            self.stats.hits += 1;
            // A hit refreshes the shadow but leaves the missed bit alone: a
            // bare fill can make a block hit before its first miss, and
            // that first miss still counts as compulsory.
            if let Some(shadow) = &mut self.shadow {
                shadow.touch(block, self.slots.slot(block));
            }
            return Lookup::Hit;
        }
        let class = self.classify(block);
        self.stats.record_miss(class);
        Lookup::Miss(class)
    }

    fn classify(&mut self, block: u64) -> MissClass {
        let slot = self.slots.slot(block);
        let first_touch = *slot & 1 == 0;
        *slot |= 1;
        // One shadow touch per miss: it reports prior membership and
        // refreshes recency through the same slot.
        let shadow_hit = match &mut self.shadow {
            Some(shadow) => shadow.touch(block, slot),
            None => false,
        };
        if first_touch {
            MissClass::Compulsory
        } else if shadow_hit {
            MissClass::Conflict
        } else {
            MissClass::Capacity
        }
    }

    /// Probes for `block` without changing any state.
    pub fn probe(&self, block: u64) -> bool {
        let si = self.set_index(block);
        self.set(si).iter().any(|l| l.valid && l.block == block)
    }

    /// Allocates `block`, evicting a line if the set is full. Records a
    /// write-back in the statistics when the evicted line is dirty.
    pub fn fill(&mut self, block: u64, dirty: bool) -> Option<Eviction> {
        self.stamp += 1;
        let si = self.set_index(block);
        let base = si * self.assoc;
        let stamp = self.stamp;
        if let Some(line) =
            self.lines[base..base + self.assoc].iter_mut().find(|l| l.valid && l.block == block)
        {
            line.dirty |= dirty;
            line.stamp = stamp;
            return None;
        }
        let way = self.choose_victim(si);
        let line = &mut self.lines[base + way];
        let evicted = line.valid.then_some(Eviction { block: line.block, dirty: line.dirty });
        if let Some(e) = evicted {
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        *line = Line { block, valid: true, dirty, stamp };
        self.mru[si] = way as u32;
        evicted
    }

    /// Allocates `block` on behalf of one way-duel side (`irregular` names
    /// the side; see [`crate::WayDuel`]), keeping that side within
    /// `max_ways` ways of the set: a side at its quota evicts the oldest of
    /// its *own* lines, a side under quota takes the oldest line of the
    /// *other* side. Quotas of 0 or ≥ associativity cannot bind and fall
    /// back to a plain [`Cache::fill`].
    pub fn fill_partitioned(
        &mut self,
        block: u64,
        dirty: bool,
        irregular: bool,
        max_ways: u32,
    ) -> Option<Eviction> {
        if self.owner.is_none() {
            self.owner = Some(vec![0u8; self.lines.len()].into_boxed_slice());
        }
        let side = u8::from(irregular) + 1;
        if max_ways == 0 || max_ways as usize >= self.assoc {
            let e = self.fill(block, dirty);
            // Keep the tag fresh for when the quota binds again.
            let base = self.set_index(block) * self.assoc;
            if let Some(way) =
                self.lines[base..base + self.assoc].iter().position(|l| l.valid && l.block == block)
            {
                self.owner.as_mut().expect("allocated above")[base + way] = side;
            }
            return e;
        }
        self.stamp += 1;
        let si = self.set_index(block);
        let base = si * self.assoc;
        let stamp = self.stamp;
        if let Some(way) =
            self.lines[base..base + self.assoc].iter().position(|l| l.valid && l.block == block)
        {
            let line = &mut self.lines[base + way];
            line.dirty |= dirty;
            line.stamp = stamp;
            self.owner.as_mut().expect("allocated above")[base + way] = side;
            return None;
        }
        let way = {
            let set = &self.lines[base..base + self.assoc];
            let own = &self.owner.as_ref().expect("allocated above")[base..base + self.assoc];
            match set.iter().position(|l| !l.valid) {
                Some(w) => w,
                None => {
                    let owned = set.iter().zip(own).filter(|(l, o)| l.valid && **o == side).count();
                    let oldest = |of_side: Option<bool>| {
                        set.iter()
                            .zip(own)
                            .enumerate()
                            .filter(|(_, (l, o))| {
                                l.valid && of_side.is_none_or(|want| (**o == side) == want)
                            })
                            .min_by_key(|(_, (l, _))| l.stamp)
                            .map(|(w, _)| w)
                    };
                    if owned >= max_ways as usize {
                        oldest(Some(true)).expect("side at quota owns at least one line")
                    } else {
                        // Under quota: grow into the other side's ways
                        // (untagged lines count as the other side).
                        oldest(Some(false)).or_else(|| oldest(None)).expect("set is full")
                    }
                }
            }
        };
        let line = &mut self.lines[base + way];
        let evicted = line.valid.then_some(Eviction { block: line.block, dirty: line.dirty });
        if let Some(e) = evicted {
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        *line = Line { block, valid: true, dirty, stamp };
        self.owner.as_mut().expect("allocated above")[base + way] = side;
        self.mru[si] = way as u32;
        evicted
    }

    /// The block that a fill of `block` would evict, without filling.
    pub fn victim_for(&self, block: u64) -> Option<Eviction> {
        let si = self.set_index(block);
        let set = self.set(si);
        if set.iter().any(|l| l.valid && l.block == block) {
            return None;
        }
        if set.iter().any(|l| !l.valid) {
            return None;
        }
        let line = &self.set(si)[self.peek_victim(si)];
        Some(Eviction { block: line.block, dirty: line.dirty })
    }

    /// The least recently used way of set `si`.
    fn peek_victim(&self, si: usize) -> usize {
        self.set(si).iter().enumerate().min_by_key(|(_, l)| l.stamp).map(|(i, _)| i).unwrap_or(0)
    }

    /// The way a fill into set `si` takes: the first invalid way, else the
    /// least recently used one.
    fn choose_victim(&self, si: usize) -> usize {
        self.set(si).iter().position(|l| !l.valid).unwrap_or_else(|| self.peek_victim(si))
    }

    /// Number of valid lines currently resident.
    pub fn resident(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// End of the shadow list.
const NIL: u32 = u32::MAX;

/// A node of the shadow list.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// Fully-associative LRU list of block numbers, indexed through the cache's
/// slot table instead of a hash table: a block's slot names the node that
/// last held it, and the block is in the shadow exactly when that node's
/// key is still the block. Nodes are never freed; once `capacity` nodes
/// exist, a new block takes over the least recently used node.
#[derive(Debug, Clone)]
struct Shadow {
    nodes: Vec<Node>,
    capacity: usize,
    /// Most-recently-used node.
    head: u32,
    /// Least-recently-used node.
    tail: u32,
}

impl Shadow {
    fn new(capacity: usize) -> Self {
        assert!(capacity < 1 << 31, "a slot holds shadow node indices below 2^31");
        Shadow { nodes: Vec::with_capacity(capacity), capacity, head: NIL, tail: NIL }
    }

    /// Makes `block` the most recently used, recording its node in bits 1
    /// and up of `slot`. Returns whether `block` was already present.
    #[inline]
    fn touch(&mut self, block: u64, slot: &mut u32) -> bool {
        let held = *slot >> 1;
        if held != 0 && self.nodes[(held - 1) as usize].key == block {
            let idx = held - 1;
            if idx != self.head {
                self.unlink(idx);
                self.link_front(idx);
            }
            return true;
        }
        let idx = if self.nodes.len() < self.capacity {
            self.nodes.push(Node { key: block, prev: NIL, next: NIL });
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.tail;
            self.unlink(idx);
            self.nodes[idx as usize].key = block;
            idx
        };
        self.link_front(idx);
        *slot = (*slot & 1) | ((idx + 1) << 1);
        false
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn link_front(&mut self, idx: u32) {
        let old_head = self.head;
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = old_head;
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
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

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 32B = 256B
        Cache::with_classification(CacheConfig { size: 256, assoc: 2, block_size: 32 })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(10, false).is_hit());
        c.fill(10, false);
        assert!(c.access(10, false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn fill_without_access_does_not_count() {
        let mut c = tiny();
        c.fill(3, false);
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, false);
        c.fill(4, false);
        let e = c.fill(8, false).unwrap();
        assert_eq!(e.block, 0);
        assert!(c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn access_refreshes_lru() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(4, false);
        c.access(0, false); // 0 becomes MRU
        let e = c.fill(8, false).unwrap();
        assert_eq!(e.block, 4);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(0, true);
        c.fill(4, false);
        let e = c.fill(8, false).unwrap();
        assert!(e.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.fill(0, false);
        c.access(0, true);
        c.fill(4, false);
        let e = c.fill(8, false).unwrap();
        assert_eq!((e.block, e.dirty), (0, true));
    }

    #[test]
    fn classification_three_cs() {
        let mut c = tiny();
        // Compulsory: first touch.
        assert_eq!(c.access(0, false), Lookup::Miss(MissClass::Compulsory));
        c.fill(0, false);
        // Conflict: evicted by same-set traffic but fits in FA shadow.
        c.fill(4, false);
        c.access(4, false);
        c.fill(8, false);
        c.access(8, false);
        // 0 was evicted by 8; shadow (8 lines) still holds it.
        assert_eq!(c.access(0, false), Lookup::Miss(MissClass::Conflict));
    }

    #[test]
    fn capacity_miss_when_footprint_exceeds_cache() {
        let mut c = tiny();
        // Touch 32 distinct blocks (4x capacity), then re-touch block 0:
        // the FA shadow (8 lines) has also lost it -> capacity.
        for b in 0..32 {
            c.access(b, false);
            c.fill(b, false);
        }
        assert_eq!(c.access(0, false), Lookup::Miss(MissClass::Capacity));
    }

    #[test]
    fn victim_preview_matches_fill() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(4, true);
        c.access(0, false);
        let preview = c.victim_for(8).unwrap();
        let actual = c.fill(8, false).unwrap();
        assert_eq!(preview, actual);
    }

    #[test]
    fn victim_preview_none_when_room_or_present() {
        let mut c = tiny();
        c.fill(0, false);
        assert_eq!(c.victim_for(0), None); // present
        assert_eq!(c.victim_for(4), None); // invalid way available
    }

    #[test]
    fn block_of_uses_block_size() {
        let c = tiny();
        assert_eq!(c.block_of(Addr(64)), 2);
        assert_eq!(c.block_of(Addr(95)), 2);
        assert_eq!(c.block_of(Addr(96)), 3);
    }

    #[test]
    fn classification_counts_pinned() {
        // Regression guard for the single-touch shadow restructuring: exact
        // hit/miss/class counts captured from the original two-touch
        // (`contains` + `insert`) miss path. Any drift in classification or
        // recency behavior changes these numbers.
        let cfg = CacheConfig { size: 1024, assoc: 2, block_size: 32 };
        let mut c = Cache::with_classification(cfg);
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = state >> 33;
            let block = r % 200;
            let write = r & 1 == 1;
            if !c.access(block, write).is_hit() {
                c.fill(block, write);
            }
        }
        let s = c.stats();
        assert_eq!(
            (s.accesses, s.hits, s.misses, s.compulsory, s.capacity, s.conflict, s.writebacks),
            (20000, 3232, 16768, 200, 15744, 824, 8442),
        );
    }

    #[test]
    fn partitioned_fill_respects_quota_and_grows_under_it() {
        // 1 set x 4 ways.
        let mut c = Cache::new(CacheConfig { size: 4 * 32, assoc: 4, block_size: 32 });
        // Regular side fills the whole set.
        for b in 0..4 {
            assert_eq!(c.fill_partitioned(b, false, false, 3), None);
        }
        // Irregular side under quota takes the regular side's oldest line.
        let e = c.fill_partitioned(10, false, true, 2).unwrap();
        assert_eq!(e.block, 0);
        let e = c.fill_partitioned(11, false, true, 2).unwrap();
        assert_eq!(e.block, 1);
        // At quota (2 ways) the irregular side now recycles its own lines;
        // the regular lines 2 and 3 survive.
        let e = c.fill_partitioned(12, false, true, 2).unwrap();
        assert_eq!(e.block, 10);
        assert!(c.probe(2) && c.probe(3));
    }

    #[test]
    fn partitioned_fill_with_unbinding_quota_matches_plain_lru() {
        let mut a = tiny();
        let mut b = tiny();
        let mut state = 11u64;
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = (state >> 33) % 30;
            let ea = a.fill(blk, state & 1 == 1);
            let eb = b.fill_partitioned(blk, state & 1 == 1, state & 2 == 2, b.cfg.assoc);
            assert_eq!(ea, eb, "unbinding quota must reduce to plain LRU");
        }
    }

    #[test]
    fn partitioned_refresh_retags_a_present_line() {
        let mut c = Cache::new(CacheConfig { size: 2 * 32, assoc: 2, block_size: 32 });
        assert_eq!(c.fill_partitioned(0, false, false, 1), None);
        assert_eq!(c.fill_partitioned(1, false, false, 1), None);
        assert_eq!(c.fill_partitioned(0, true, true, 1), None, "present: refresh, no eviction");
        // Block 0 now belongs to the irregular side, so an irregular fill
        // at quota 1 must evict it (not the untouched way).
        let e = c.fill_partitioned(2, false, true, 1).unwrap();
        assert_eq!((e.block, e.dirty), (0, true));
    }

    #[test]
    fn num_sets_geometry() {
        let cfg = CacheConfig::kib(32, 4, 32);
        assert_eq!(cfg.num_sets(), 256);
        assert_eq!(cfg.num_lines(), 1024);
    }

    #[test]
    fn resident_counts() {
        let mut c = tiny();
        assert_eq!(c.resident(), 0);
        c.fill(0, false);
        c.fill(1, false);
        assert_eq!(c.resident(), 2);
    }
}
