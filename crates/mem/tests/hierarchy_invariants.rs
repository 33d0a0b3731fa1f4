//! Invariant tests for the memory hierarchy under randomized access
//! streams: accounting identities, assist state machines, and latency
//! monotonicity.

use proptest::prelude::*;
use selcache_ir::Addr;
use selcache_mem::{AssistKind, HierarchyConfig, HierarchyStatsProbe, MemoryHierarchy, Site};

fn stream(seed: u64, len: usize, footprint: u64) -> Vec<(u64, bool)> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = 0x1000_0000 + (state >> 24) % footprint;
            let write = (state >> 60).is_multiple_of(4);
            (addr & !7, write)
        })
        .collect()
}

fn run(
    assist: AssistKind,
    accesses: &[(u64, bool)],
    toggle_every: Option<usize>,
) -> MemoryHierarchy {
    let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(assist));
    let mut now = 0u64;
    for (k, &(a, w)) in accesses.iter().enumerate() {
        if let Some(n) = toggle_every {
            if k % n == 0 {
                h.set_assist_enabled((k / n) % 2 == 0);
            }
        }
        now += 3;
        h.data_access(Addr(a), w, now);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// hits + misses == accesses at both levels, and L2 accesses never
    /// exceed L1 misses (plus instruction traffic, which is zero here).
    #[test]
    fn accounting_identities(seed in any::<u64>(), assist in 0..3usize) {
        let assist = [AssistKind::None, AssistKind::Bypass, AssistKind::Victim][assist];
        let h = run(assist, &stream(seed, 4000, 1 << 22), None);
        let s = h.stats();
        prop_assert_eq!(s.l1d.hits + s.l1d.misses, s.l1d.accesses);
        prop_assert_eq!(s.l2.hits + s.l2.misses, s.l2.accesses);
        prop_assert!(s.l2.accesses <= s.l1d.misses,
            "L2 accesses {} beyond L1 misses {}", s.l2.accesses, s.l1d.misses);
        prop_assert_eq!(
            s.l1d.compulsory + s.l1d.capacity + s.l1d.conflict,
            s.l1d.misses
        );
    }

    /// Assist hits are bounded by misses, and disabled assists stay silent.
    #[test]
    fn assist_counters_bounded(seed in any::<u64>()) {
        let h = run(AssistKind::Victim, &stream(seed, 4000, 1 << 20), None);
        let s = h.stats();
        prop_assert!(s.assist.l1_victim_hits <= s.l1d.misses);
        prop_assert!(s.assist.l2_victim_hits <= s.l2.misses);

        let mut off = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::Bypass));
        off.set_assist_enabled(false);
        let mut now = 0;
        for &(a, w) in &stream(seed, 2000, 1 << 20) {
            now += 3;
            off.data_access(Addr(a), w, now);
        }
        let s = off.stats();
        prop_assert_eq!(s.assist.assisted_accesses, 0);
        prop_assert_eq!(s.assist.bypass_buffer_hits, 0);
        prop_assert_eq!(s.assist.bypassed_fills, 0);
    }

    /// Toggling the assist mid-stream never breaks accounting.
    #[test]
    fn toggling_preserves_accounting(seed in any::<u64>(), period in 16..512usize) {
        let h = run(AssistKind::Bypass, &stream(seed, 4000, 1 << 21), Some(period));
        let s = h.stats();
        prop_assert_eq!(s.l1d.hits + s.l1d.misses, s.l1d.accesses);
        prop_assert!(s.assist.assisted_accesses <= s.l1d.accesses);
    }

    /// A flag that stays off is no assist: over a whole random stream of
    /// loads, stores and instruction fetches, a Bypass, Victim or Stream
    /// hierarchy whose flag is off answers every access with the latency
    /// of a hierarchy with no assist, and ends with equal counters and
    /// equal event totals. The job engine simulates such a run once with
    /// an assist-free one.
    #[test]
    fn assist_with_flag_off_is_no_assist(seed in any::<u64>(), assist in 0..3usize) {
        let assist = [AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream][assist];
        let accesses = stream(seed, 6000, 1 << 22);
        let run = |assist: AssistKind, enabled: bool| {
            let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(assist));
            h.set_assist_enabled(enabled);
            let mut probe = HierarchyStatsProbe::new();
            let mut now = 0u64;
            let latencies: Vec<u64> = accesses
                .iter()
                .enumerate()
                .map(|(k, &(a, w))| {
                    now += 3;
                    if k % 5 == 0 {
                        // Instruction fetches over their own 256 KiB of text.
                        let pc = 0x0040_0000 + a % (1 << 18);
                        h.inst_fetch_probed(pc, now, Site::UNKNOWN, &mut probe)
                    } else {
                        h.data_access_probed(Addr(a), w, now, Site::UNKNOWN, &mut probe)
                    }
                })
                .collect();
            (latencies, h.stats(), probe.stats())
        };
        let (off, none) = (run(assist, false), run(AssistKind::None, true));
        prop_assert_eq!(&off.0, &none.0, "per-access latencies");
        prop_assert_eq!(off.1, none.1, "hierarchy counters");
        prop_assert_eq!(off.2, none.2, "event totals");
    }

    /// Latencies are at least the L1 hit latency and bounded by a sane
    /// worst case (TLB + L2 + memory + queueing on a 4000-access stream).
    #[test]
    fn latency_bounds(seed in any::<u64>()) {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
        let mut now = 0u64;
        for &(a, w) in &stream(seed, 2000, 1 << 22) {
            now += 100; // spaced: no queueing inflation
            let lat = h.data_access(Addr(a), w, now);
            prop_assert!(lat >= 2, "latency below L1 time: {lat}");
            prop_assert!(lat <= 30 + 2 + 10 + 100 + 16 + 64, "latency implausible: {lat}");
        }
    }
}

#[test]
fn instruction_and_data_paths_share_the_l2() {
    let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
    // A data access pulls the block's 128-byte L2 line in…
    h.data_access(Addr(0x0040_0000), false, 0);
    // …and the instruction fetch of the same line hits the L2.
    let l2_before = h.stats().l2.hits;
    h.inst_fetch(0x0040_0020, 10_000);
    assert_eq!(h.stats().l2.hits, l2_before + 1);
}

#[test]
fn victim_swap_preserves_total_block_population() {
    // Fill one L1 set and its victim entries; every resident block must be
    // findable either in L1 or in the victim cache (no losses).
    let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::Victim));
    let addrs: Vec<u64> = (0..8).map(|k| 0x1000_0000 + k * 8192).collect();
    let mut now = 0;
    for &a in &addrs {
        now += 1000;
        h.data_access(Addr(a), false, now);
    }
    // All 8 blocks re-accessed: 4 still in L1, 4 swapped from the victim —
    // every one should be served without reaching memory again.
    let mem_misses_before = h.stats().l2.misses;
    for &a in &addrs {
        now += 1000;
        h.data_access(Addr(a), false, now);
    }
    assert_eq!(h.stats().l2.misses, mem_misses_before, "victim cache should absorb all conflicts");
}
