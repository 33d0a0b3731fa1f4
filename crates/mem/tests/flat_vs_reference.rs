//! Differential test: the flattened LRU cache must behave bit-identically to
//! the original nested-`Vec` geometry.
//!
//! `reference` below is a scalar re-model of the pre-flattening cache: one
//! `Vec<Line>` per set, a `HashSet` first-touch tracker, and an O(n)
//! fully-associative LRU shadow. Both models are driven through the same
//! 100k-access mixed workload (accesses, fills, victim previews, probes) and
//! must agree on every lookup result, every eviction, and the final
//! `CacheStats` including the three-C classification. The workload runs on
//! several geometries (set-associative, direct-mapped, one set, a set count
//! that is not a power of two, one line) and block universes (dense, at or
//! above 2^31, spread over many pages of the cache's per-block slot table).

use selcache_mem::{Cache, CacheConfig, Lookup};

mod reference {
    use selcache_mem::{CacheConfig, MissClass};
    use std::collections::HashSet;

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        block: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    /// O(n) fully-associative LRU (MRU at the back of the list).
    struct SlowShadow {
        order: Vec<(u64, bool)>,
        capacity: usize,
    }

    impl SlowShadow {
        fn contains(&self, key: u64) -> bool {
            self.order.iter().any(|&(k, _)| k == key)
        }

        fn insert(&mut self, key: u64, dirty: bool) {
            if let Some(pos) = self.order.iter().position(|&(k, _)| k == key) {
                let (k, d) = self.order.remove(pos);
                self.order.push((k, d | dirty));
                return;
            }
            if self.order.len() == self.capacity {
                self.order.remove(0);
            }
            self.order.push((key, dirty));
        }
    }

    /// Pre-flattening cache model: nested sets, `HashSet` seen-tracking, and
    /// the historical two-touch shadow update on the miss path.
    pub struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Vec<Line>>,
        stamp: u64,
        pub accesses: u64,
        pub hits: u64,
        pub misses: u64,
        pub compulsory: u64,
        pub capacity: u64,
        pub conflict: u64,
        pub writebacks: u64,
        shadow: SlowShadow,
        seen: HashSet<u64>,
    }

    impl RefCache {
        pub fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.num_sets();
            RefCache {
                cfg,
                sets: vec![vec![Line::default(); cfg.assoc as usize]; sets as usize],
                stamp: 0,
                accesses: 0,
                hits: 0,
                misses: 0,
                compulsory: 0,
                capacity: 0,
                conflict: 0,
                writebacks: 0,
                shadow: SlowShadow { order: Vec::new(), capacity: cfg.num_lines() as usize },
                seen: HashSet::new(),
            }
        }

        fn set_index(&self, block: u64) -> usize {
            (block % self.cfg.num_sets()) as usize
        }

        /// Returns `None` on a hit, `Some(class)` on a miss.
        pub fn access(&mut self, block: u64, write: bool) -> Option<MissClass> {
            self.stamp += 1;
            self.accesses += 1;
            let si = self.set_index(block);
            let stamp = self.stamp;
            if let Some(line) = self.sets[si].iter_mut().find(|l| l.valid && l.block == block) {
                line.stamp = stamp;
                line.dirty |= write;
                self.hits += 1;
                self.shadow.insert(block, false);
                return None;
            }
            let first_touch = self.seen.insert(block);
            let shadow_hit = self.shadow.contains(block);
            self.shadow.insert(block, false);
            let class = if first_touch {
                MissClass::Compulsory
            } else if shadow_hit {
                MissClass::Conflict
            } else {
                MissClass::Capacity
            };
            self.misses += 1;
            match class {
                MissClass::Compulsory => self.compulsory += 1,
                MissClass::Capacity => self.capacity += 1,
                MissClass::Conflict => self.conflict += 1,
            }
            Some(class)
        }

        pub fn fill(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
            self.stamp += 1;
            let si = self.set_index(block);
            let stamp = self.stamp;
            if let Some(line) = self.sets[si].iter_mut().find(|l| l.valid && l.block == block) {
                line.dirty |= dirty;
                line.stamp = stamp;
                return None;
            }
            let way = self.choose_victim(si);
            let line = &mut self.sets[si][way];
            let evicted = line.valid.then_some((line.block, line.dirty));
            if let Some((_, d)) = evicted {
                if d {
                    self.writebacks += 1;
                }
            }
            *line = Line { block, valid: true, dirty, stamp };
            evicted
        }

        pub fn probe(&self, block: u64) -> bool {
            let si = self.set_index(block);
            self.sets[si].iter().any(|l| l.valid && l.block == block)
        }

        pub fn victim_for(&self, block: u64) -> Option<(u64, bool)> {
            let si = self.set_index(block);
            if self.sets[si].iter().any(|l| l.valid && l.block == block) {
                return None;
            }
            if self.sets[si].iter().any(|l| !l.valid) {
                return None;
            }
            let way = self.peek_victim(si);
            let line = &self.sets[si][way];
            Some((line.block, line.dirty))
        }

        pub fn resident(&self) -> usize {
            self.sets.iter().flatten().filter(|l| l.valid).count()
        }

        fn peek_victim(&self, si: usize) -> usize {
            self.sets[si]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .unwrap_or(0)
        }

        fn choose_victim(&self, si: usize) -> usize {
            match self.sets[si].iter().position(|l| !l.valid) {
                Some(way) => way,
                None => self.peek_victim(si),
            }
        }
    }
}

/// Splitmix-style deterministic stream for the workload driver.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Drives the cache and the reference, both of geometry `cfg`, through
/// 100k mixed steps over the blocks `universe` maps each random word to, and
/// asserts that they agree at every step and in the final counts, and that
/// all three miss classes occurred.
fn check_against_reference(
    label: &str,
    cfg: CacheConfig,
    seed: u64,
    universe: impl Fn(u64) -> u64,
) {
    let mut flat = Cache::with_classification(cfg);
    let mut refc = reference::RefCache::new(cfg);
    let mut s = Stream(seed);

    for step in 0..100_000u64 {
        let r = s.next();
        let block = universe(r);
        match r % 100 {
            0..=84 => {
                let write = r & 4 != 0;
                let got = flat.access(block, write);
                let want = refc.access(block, write);
                match (got, want) {
                    (Lookup::Hit, None) => {}
                    (Lookup::Miss(a), Some(b)) => {
                        assert_eq!(a, b, "{label}, step {step}: class mismatch");
                        let ev_flat = flat.fill(block, write).map(|e| (e.block, e.dirty));
                        let ev_ref = refc.fill(block, write);
                        assert_eq!(ev_flat, ev_ref, "{label}, step {step}: eviction");
                    }
                    (a, b) => panic!("{label}, step {step}: {a:?} vs {b:?}"),
                }
            }
            85..=91 => {
                let ev_flat = flat.fill(block, r & 8 != 0).map(|e| (e.block, e.dirty));
                let ev_ref = refc.fill(block, r & 8 != 0);
                assert_eq!(ev_flat, ev_ref, "{label}, step {step}: bare fill");
            }
            96..=97 => {
                assert_eq!(
                    flat.victim_for(block).map(|e| (e.block, e.dirty)),
                    refc.victim_for(block),
                    "{label}, step {step}: victim preview"
                );
            }
            _ => {
                assert_eq!(flat.probe(block), refc.probe(block), "{label}, step {step}: probe");
            }
        }
    }

    let st = flat.stats();
    assert_eq!(
        (st.accesses, st.hits, st.misses),
        (refc.accesses, refc.hits, refc.misses),
        "{label}: aggregate counts"
    );
    assert_eq!(
        (st.compulsory, st.capacity, st.conflict),
        (refc.compulsory, refc.capacity, refc.conflict),
        "{label}: three-C classification"
    );
    assert_eq!(st.writebacks, refc.writebacks, "{label}: writebacks");
    assert_eq!(flat.resident(), refc.resident(), "{label}: resident lines");
    assert!(st.misses > 0 && st.hits > 0, "{label}: workload must mix hits and misses");
    assert!(
        st.compulsory > 0 && st.capacity > 0 && st.conflict > 0,
        "{label}: workload must exercise all three miss classes"
    );
}

/// Blocks `0..4 * lines`, half the draws from a hot region of three
/// quarters of the cache's lines, so every miss class occurs.
fn dense(lines: u64) -> impl Fn(u64) -> u64 {
    let hot = (lines * 3 / 4).max(1);
    move |r| if r & 1 == 0 { r % hot } else { (r >> 8) % (lines * 4) }
}

#[test]
fn lru_matches_reference() {
    // 4KiB, 4-way, 32B blocks: 32 sets, 128 lines, so the blocks are 0..512
    // with a hot region of 96.
    let cfg = CacheConfig { size: 4096, assoc: 4, block_size: 32 };
    check_against_reference("4 KiB 4-way", cfg, 0xDEAD_BEEF, dense(cfg.num_lines()));
}

#[test]
fn direct_mapped_matches_reference() {
    let cfg = CacheConfig { size: 2048, assoc: 1, block_size: 32 };
    check_against_reference("direct-mapped", cfg, 1, dense(cfg.num_lines()));
}

#[test]
fn fully_associative_matches_reference() {
    // One set of 16 ways.
    let cfg = CacheConfig { size: 16 * 32, assoc: 16, block_size: 32 };
    assert_eq!(cfg.num_sets(), 1);
    check_against_reference("one set", cfg, 2, dense(cfg.num_lines()));
}

#[test]
fn non_power_of_two_set_count_matches_reference() {
    let cfg = CacheConfig { size: 3 * 4 * 32, assoc: 4, block_size: 32 };
    assert_eq!(cfg.num_sets(), 3);
    check_against_reference("3 sets x 4 ways", cfg, 3, dense(cfg.num_lines()));
}

#[test]
fn one_line_cache_matches_reference() {
    let cfg = CacheConfig { size: 32, assoc: 1, block_size: 32 };
    check_against_reference("one line", cfg, 4, dense(cfg.num_lines()));
}

#[test]
fn blocks_above_2_pow_31_match_reference() {
    // Block numbers this high bypass the slot table's pages for its
    // overflow map.
    let cfg = CacheConfig { size: 4096, assoc: 4, block_size: 32 };
    let blocks = dense(cfg.num_lines());
    check_against_reference("blocks >= 2^31", cfg, 5, move |r| (1 << 31) + blocks(r));
}

#[test]
fn blocks_over_many_pages_match_reference() {
    // A stride above the slot table's 4Ki-block pages puts every block on
    // a page of its own; it is odd, so it keeps the draws' spread over sets.
    let cfg = CacheConfig { size: 4096, assoc: 4, block_size: 32 };
    let blocks = dense(cfg.num_lines());
    check_against_reference("many pages", cfg, 6, move |r| blocks(r) * 5003);
}
