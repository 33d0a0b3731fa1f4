//! Analytical set-associative cache model over exact reuse-distance
//! spectra.
//!
//! [`ReuseProfiler`](crate::ReuseProfiler) yields the exact LRU reuse
//! distance of every access; a [`ReuseSpectrum`] counts accesses per
//! distance, without bucketing, so a fully-associative miss ratio is
//! exact at every capacity.
//!
//! On top of the spectrum sits the classic binomial projection from a
//! fully-associative profile to a set-associative cache (Hill & Smith,
//! and the analytical fully-associative model literature): an access with
//! reuse distance `D` hits an `S`-set, `A`-way LRU cache when fewer than
//! `A` of the `D` distinct intervening blocks land in its own set. Under
//! the usual uniform-mapping assumption that count is `Binomial(D, 1/S)`,
//! so
//!
//! ```text
//! P(hit | D) = P[Binomial(D, 1/S) <= A - 1]
//! ```
//!
//! and the expected miss ratio of the whole trace is one minus the
//! spectrum-weighted average of that probability (cold misses always
//! miss). With `S = 1` the binomial degenerates to the exact Mattson
//! condition `D < A`, so the projection is *exact* for fully-associative
//! caches and an approximation — good for irregular streams, weaker for
//! pathologically strided ones — everywhere else.
//!
//! [`CacheModel`] snapshots a spectrum into a form optimized for
//! evaluating many `(sets, assoc)` points: hundreds of grid points cost
//! microseconds each, which is what lets a design-space sweep run from a
//! single trace traversal.

use crate::reuse::Distance;
use std::collections::BTreeMap;

/// Exact reuse-distance spectrum: how many accesses saw each distance,
/// plus the cold (first-touch) count.
///
/// ```
/// use selcache_analysis::{Distance, ReuseProfiler, ReuseSpectrum};
/// use selcache_ir::Addr;
///
/// let mut prof = ReuseProfiler::new(32);
/// let mut spec = ReuseSpectrum::new();
/// for block in [0u64, 1, 2, 0, 1, 2] {
///     spec.record(prof.record(Addr(block * 32)));
/// }
/// // Three cold touches, three reuses at distance 2.
/// assert_eq!(spec.cold(), 3);
/// assert_eq!(spec.total(), 6);
/// // A 4-block fully-associative cache holds the loop: only cold misses.
/// assert!((spec.model().miss_ratio(1, 4) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseSpectrum {
    /// Access count per distance. A distance is below the footprint, so
    /// the vector is as long as the footprint at most; sums run in
    /// ascending distance order, so they are deterministic.
    counts: Vec<u64>,
    cold: u64,
    total: u64,
}

impl ReuseSpectrum {
    /// An empty spectrum.
    pub fn new() -> Self {
        ReuseSpectrum::default()
    }

    /// Records one access's reuse distance.
    pub fn record(&mut self, d: Distance) {
        self.total += 1;
        match d {
            Distance::Cold => self.cold += 1,
            Distance::Finite(n) => {
                let n = n as usize;
                if n >= self.counts.len() {
                    self.counts.resize(n + 1, 0);
                }
                self.counts[n] += 1;
            }
        }
    }

    /// Total recorded accesses.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) accesses.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Exact fully-associative LRU miss ratio at a capacity of `blocks`
    /// lines (Mattson: an access hits iff its distance is `< blocks`).
    pub fn fa_miss_ratio(&self, blocks: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let exact = blocks.min(self.counts.len() as u64) as usize;
        let hits: u64 = self.counts[..exact].iter().sum();
        1.0 - hits as f64 / self.total as f64
    }

    /// Snapshots the spectrum into a [`CacheModel`] for repeated
    /// `(sets, assoc)` queries.
    pub fn model(&self) -> CacheModel {
        // Exact distances up to EXACT_LIMIT; log-linear bins above, each
        // carrying its weighted-mean distance so the binomial projection
        // sees a faithful representative.
        const EXACT_LIMIT: u64 = 1024;
        const BINS_PER_OCTAVE: u64 = 32;
        let mut exact: Vec<(u64, u64)> = Vec::new();
        let mut bins: BTreeMap<(u32, u64), (f64, u64)> = BTreeMap::new();
        for (d, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let d = d as u64;
            if d < EXACT_LIMIT {
                exact.push((d, c));
            } else {
                let octave = 63 - d.leading_zeros();
                let step = (1u64 << octave) / BINS_PER_OCTAVE;
                let sub = (d - (1u64 << octave)) / step.max(1);
                let e = bins.entry((octave, sub)).or_insert((0.0, 0));
                e.0 += d as f64 * c as f64;
                e.1 += c;
            }
        }
        let mut entries: Vec<(f64, u64)> = exact.iter().map(|&(d, c)| (d as f64, c)).collect();
        entries.extend(bins.values().map(|&(sum, c)| (sum / c as f64, c)));
        CacheModel { entries, exact, cold: self.cold, total: self.total }
    }
}

/// Probability that an access with reuse distance `distance` hits an
/// `sets`-set, `assoc`-way LRU cache, under the binomial uniform-mapping
/// model. Exact when `sets == 1`.
///
/// `distance` is fractional to admit binned spectra; the binomial
/// coefficient extends continuously.
pub fn hit_probability(distance: f64, sets: u64, assoc: u32) -> f64 {
    debug_assert!(sets >= 1 && assoc >= 1);
    if sets <= 1 {
        return if distance < assoc as f64 { 1.0 } else { 0.0 };
    }
    if distance < 1.0 {
        // No intervening distinct block can conflict.
        return 1.0;
    }
    let d = distance;
    let p = 1.0 / sets as f64;
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    // Sum Binomial(d, p) mass for k = 0 .. min(assoc, d+1) - 1 in log
    // space: ln C(d, k) accumulates term by term, so the sum is stable
    // even when (1-p)^d underflows a direct product.
    let kmax = (assoc as f64 - 1.0).min(d.floor());
    let mut ln_choose = 0.0;
    let mut prob = 0.0;
    let mut k = 0.0;
    while k <= kmax {
        if k > 0.0 {
            ln_choose += ((d - k + 1.0) / k).ln();
        }
        prob += (ln_choose + k * ln_p + (d - k) * ln_q).exp();
        k += 1.0;
    }
    prob.clamp(0.0, 1.0)
}

/// A reuse spectrum frozen for fast evaluation of many cache geometries.
///
/// Built by [`ReuseSpectrum::model`]; the exact sub-spectrum keeps
/// fully-associative queries exact while long distances are binned
/// (32 bins per octave) so a grid point costs `O(entries × assoc)`.
#[derive(Debug, Clone)]
pub struct CacheModel {
    /// `(representative distance, count)`, exact below 1024.
    entries: Vec<(f64, u64)>,
    /// Exact `(distance, count)` pairs below the binning threshold.
    exact: Vec<(u64, u64)>,
    cold: u64,
    total: u64,
}

impl CacheModel {
    /// Expected miss ratio of an `sets`-set, `assoc`-way LRU cache over
    /// the profiled trace. Exact for `sets == 1` (fully associative);
    /// the binomial uniform-mapping projection otherwise.
    pub fn miss_ratio(&self, sets: u64, assoc: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let capacity = sets.saturating_mul(assoc as u64);
        if sets <= 1 {
            // Exact Mattson path: distances below the binning threshold
            // are exact, and binned entries are far above any
            // single-set capacity that matters — compare against the
            // representative either way.
            let mut hits = 0u64;
            for &(d, c) in &self.exact {
                if d < capacity {
                    hits += c;
                }
            }
            for &(d, c) in &self.entries[self.exact.len()..] {
                if d < capacity as f64 {
                    hits += c;
                }
            }
            return 1.0 - hits as f64 / self.total as f64;
        }
        let mut expected_hits = 0.0;
        for &(d, c) in &self.entries {
            // Distances at or beyond the cache's block count cannot hit
            // even fully associatively; skip the binomial there.
            if d >= capacity as f64 {
                continue;
            }
            expected_hits += c as f64 * hit_probability(d, sets, assoc);
        }
        1.0 - expected_hits / self.total as f64
    }

    /// Total accesses in the underlying spectrum.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold accesses in the underlying spectrum (a lower bound on misses
    /// for every geometry).
    pub fn cold(&self) -> u64 {
        self.cold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseProfiler;
    use selcache_ir::Addr;

    fn spectrum_of(blocks: &[u64]) -> ReuseSpectrum {
        let mut prof = ReuseProfiler::new(32);
        let mut spec = ReuseSpectrum::new();
        for &b in blocks {
            spec.record(prof.record(Addr(b * 32)));
        }
        spec
    }

    #[test]
    fn fa_ratio_is_exact_at_any_capacity() {
        // Cyclic sweep over 100 blocks, 3 rounds: reuse distance 99.
        let stream: Vec<u64> = (0..3).flat_map(|_| 0..100u64).collect();
        let spec = spectrum_of(&stream);
        // 100-line cache: only the 100 cold misses. 99 lines: all miss.
        assert!((spec.fa_miss_ratio(100) - 100.0 / 300.0).abs() < 1e-12);
        assert!((spec.fa_miss_ratio(99) - 1.0).abs() < 1e-12);
        // The model's sets==1 path agrees exactly.
        let m = spec.model();
        assert!((m.miss_ratio(1, 100) - spec.fa_miss_ratio(100)).abs() < 1e-12);
        assert!((m.miss_ratio(1, 99) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hit_probability_degenerates_to_mattson_for_one_set() {
        assert_eq!(hit_probability(3.0, 1, 4), 1.0);
        assert_eq!(hit_probability(4.0, 1, 4), 0.0);
        assert_eq!(hit_probability(0.0, 64, 1), 1.0);
    }

    #[test]
    fn hit_probability_is_monotone() {
        // More ways or more sets never hurt; longer distances never help.
        for d in [1.0, 7.0, 100.0, 5000.0] {
            for sets in [2u64, 16, 256] {
                for a in 1..8u32 {
                    assert!(hit_probability(d, sets, a + 1) >= hit_probability(d, sets, a) - 1e-12);
                    assert!(hit_probability(d, sets * 2, a) >= hit_probability(d, sets, a) - 1e-12);
                }
            }
        }
        for sets in [2u64, 16] {
            for a in [1u32, 4] {
                let mut last = 1.0;
                for d in 1..200 {
                    let p = hit_probability(d as f64, sets, a);
                    assert!(p <= last + 1e-12, "d={d} sets={sets} a={a}");
                    last = p;
                }
            }
        }
    }

    #[test]
    fn hit_probability_survives_huge_distances() {
        // (1-p)^d underflows a direct product here; the log-space sum
        // must return a clean 0-ish probability, not NaN.
        let p = hit_probability(50_000_000.0, 64, 8);
        assert!(p.is_finite() && (0.0..=1e-6).contains(&p), "{p}");
        // And a huge cache still hits short distances.
        assert!(hit_probability(4.0, 1 << 20, 8) > 0.999_999);
    }

    #[test]
    fn projection_interpolates_between_capacity_bounds() {
        // Random-ish stream: the set-associative estimate must sit
        // between the FA ratio at full capacity (lower bound on misses)
        // and the FA ratio at `assoc` lines (conflict-free upper bound).
        let mut state = 12345u64;
        let stream: Vec<u64> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % 4096
            })
            .collect();
        let spec = spectrum_of(&stream);
        let m = spec.model();
        for (sets, assoc) in [(64u64, 2u32), (128, 4), (256, 8)] {
            let est = m.miss_ratio(sets, assoc);
            let fa_full = spec.fa_miss_ratio(sets * assoc as u64);
            let fa_ways = spec.fa_miss_ratio(assoc as u64);
            assert!(
                est >= fa_full - 1e-9 && est <= fa_ways + 1e-9,
                "sets={sets} assoc={assoc}: est {est:.4} outside [{fa_full:.4}, {fa_ways:.4}]"
            );
        }
    }

    #[test]
    fn model_miss_ratio_monotone_in_geometry() {
        let mut state = 7u64;
        let stream: Vec<u64> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (state >> 40) % 1500
            })
            .collect();
        let m = spectrum_of(&stream).model();
        for assoc in [1u32, 2, 4, 8] {
            let mut last = 1.0;
            for sets in [16u64, 32, 64, 128, 256, 512] {
                let r = m.miss_ratio(sets, assoc);
                assert!(r <= last + 1e-9, "sets={sets} assoc={assoc}: {r} > {last}");
                last = r;
            }
        }
        for sets in [32u64, 128] {
            let mut last = 1.0;
            for assoc in [1u32, 2, 4, 8, 16] {
                let r = m.miss_ratio(sets, assoc);
                assert!(r <= last + 1e-9, "sets={sets} assoc={assoc}: {r} > {last}");
                last = r;
            }
        }
    }

    #[test]
    fn empty_spectrum_reports_zero() {
        let spec = ReuseSpectrum::new();
        assert_eq!(spec.fa_miss_ratio(64), 0.0);
        assert_eq!(spec.model().miss_ratio(16, 4), 0.0);
        assert_eq!(spec.model().total(), 0);
    }

    #[test]
    fn binned_tail_stays_close_to_exact() {
        // A stream with long distances (beyond the exact limit): binning
        // must not move the FA curve by more than the bin width implies.
        let n = 5000u64;
        let stream: Vec<u64> = (0..3).flat_map(|_| 0..n).collect();
        let spec = spectrum_of(&stream);
        let m = spec.model();
        // All reuses sit at distance 4999; capacities straddling it flip
        // between all-miss and cold-only.
        assert!((m.miss_ratio(1, (n + 1) as u32) - spec.fa_miss_ratio(n + 1)).abs() < 1e-9);
        assert!((m.miss_ratio(1, 4096) - 1.0).abs() < 1e-9);
    }
}
