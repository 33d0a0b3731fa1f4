//! Canonical execution-identity serialization and stable 128-bit job ids.
//!
//! The engine's dedup key — a job's full *execution identity* (prepared
//! program, machine, effective assist, initial assist state) — is
//! serialized to a canonical byte string and hashed with SipHash-2-4
//! (128-bit output, fixed keys). The resulting [`JobId`] is stable across
//! processes and platforms, so it serves three roles at once:
//!
//! 1. the in-process dedup key (replacing the old linear-scan identity
//!    maps),
//! 2. the on-disk address of a [`Store`](crate::Store) entry, and
//! 3. the `job_id` field reports and the `selcached` protocol expose.
//!
//! The canonical encoding is versioned (it starts with a schema tag) and
//! mirrors the structural `PartialEq` of the identity exactly: every field
//! compared by equality is written, in declaration order, with fixed-width
//! little-endian encodings and length-prefixed strings. Floats are written
//! as IEEE bits with `-0.0` normalized to `+0.0` so the encoding agrees
//! with `==`. A property test (`tests/identity_props.rs` at the workspace
//! root of `selcache-core`) pins the agreement between hash identity and
//! structural identity over arbitrary job sets.
//!
//! A config field that is retired keeps its slot: the encoding writes the
//! constant byte the field's one remaining value wrote, so ids (and every
//! stored result keyed by them) stay stable without a schema bump.

use selcache_compiler::{padding, tiling, OptConfig};
use selcache_cpu::{CpuConfig, CpuModel};
use selcache_mem::{
    AssistKind, BypassConfig, CacheConfig, ControllerConfig, HierarchyConfig, StreamConfig,
    TlbConfig,
};
use selcache_workloads::{Benchmark, Scale};
use std::fmt;
use std::str::FromStr;

/// Schema tag leading every canonical identity encoding. Bump the suffix
/// whenever the encoding changes shape — stored results keyed by the old
/// encoding then become clean misses instead of silent aliases.
pub const IDENTITY_SCHEMA: &str = "selcache-exec/3";

/// A stable 128-bit content hash of one execution identity.
///
/// Displays as 32 lowercase hex digits; parses back with [`FromStr`].
///
/// ```
/// use selcache_core::JobId;
///
/// let id: JobId = "000000000000000000000000000002a5".parse().unwrap();
/// assert_eq!(id.as_u128(), 0x2a5);
/// assert_eq!(id.to_string().len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u128);

impl JobId {
    /// The id of a canonical identity byte string.
    pub fn of_bytes(canonical: &[u8]) -> JobId {
        JobId(siphash_2_4_128(SIP_KEY_0, SIP_KEY_1, canonical))
    }

    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Failed to parse a [`JobId`] from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJobIdError;

impl fmt::Display for ParseJobIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("job ids are 1..=32 hex digits")
    }
}

impl std::error::Error for ParseJobIdError {}

impl FromStr for JobId {
    type Err = ParseJobIdError;

    fn from_str(s: &str) -> Result<JobId, ParseJobIdError> {
        if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ParseJobIdError);
        }
        u128::from_str_radix(s, 16).map(JobId).map_err(|_| ParseJobIdError)
    }
}

/// Renders bytes as lowercase hex (the identity echo stored in result
/// envelopes).
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

// Fixed SipHash keys: arbitrary but permanent. Changing them (like
// changing the encoding) re-keys every store.
const SIP_KEY_0: u64 = 0x7365_6c63_6163_6865; // "selcache"
const SIP_KEY_1: u64 = 0x6578_6563_2d69_6431; // "exec-id1"

/// SipHash-2-4 with 128-bit output (the reference `siphash128` variant).
fn siphash_2_4_128(k0: u64, k1: u64, data: &[u8]) -> u128 {
    #[inline]
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13);
        v[1] ^= v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16);
        v[3] ^= v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21);
        v[3] ^= v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17);
        v[1] ^= v[2];
        v[2] = v[2].rotate_left(32);
    }

    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    v[1] ^= 0xee; // 128-bit output domain separation

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        v[3] ^= m;
        round(&mut v);
        round(&mut v);
        v[0] ^= m;
    }
    let rest = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    let mut m = u64::from_le_bytes(last);
    m |= (data.len() as u64) << 56;
    v[3] ^= m;
    round(&mut v);
    round(&mut v);
    v[0] ^= m;

    v[2] ^= 0xee;
    for _ in 0..4 {
        round(&mut v);
    }
    let lo = v[0] ^ v[1] ^ v[2] ^ v[3];
    v[1] ^= 0xdd;
    for _ in 0..4 {
        round(&mut v);
    }
    let hi = v[0] ^ v[1] ^ v[2] ^ v[3];
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Canonical byte writer: fixed-width little-endian scalars, length-
/// prefixed strings. Injective as long as callers write a statically-known
/// field sequence (which the [`Canon`] impls below do).
pub(crate) struct CanonWriter {
    buf: Vec<u8>,
}

impl CanonWriter {
    pub(crate) fn new() -> CanonWriter {
        let mut w = CanonWriter { buf: Vec::with_capacity(256) };
        w.str(IDENTITY_SCHEMA);
        w
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE bits, with `-0.0` normalized to `+0.0` so the encoding agrees
    /// with `f64::eq` (the structural dedup this replaces compared floats
    /// with `==`).
    pub(crate) fn f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn opt<T: Canon>(&mut self, v: &Option<T>) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                inner.canon(self);
            }
        }
    }
}

/// Canonical serialization of one identity component. Implementations
/// must write every field that participates in the type's `PartialEq`, in
/// a fixed order.
pub(crate) trait Canon {
    fn canon(&self, w: &mut CanonWriter);
}

impl Canon for Benchmark {
    fn canon(&self, w: &mut CanonWriter) {
        w.str(self.name());
    }
}

impl Canon for Scale {
    fn canon(&self, w: &mut CanonWriter) {
        w.u8(match self {
            Scale::Tiny => 0,
            Scale::Small => 1,
            Scale::Medium => 2,
            Scale::Large => 3,
        });
    }
}

impl Canon for AssistKind {
    fn canon(&self, w: &mut CanonWriter) {
        w.u8(match self {
            AssistKind::None => 0,
            AssistKind::Bypass => 1,
            AssistKind::Victim => 2,
            AssistKind::Stream => 3,
        });
    }
}

impl Canon for CpuModel {
    fn canon(&self, w: &mut CanonWriter) {
        w.u8(match self {
            CpuModel::OutOfOrder => 0,
            CpuModel::InOrder => 1,
        });
    }
}

impl Canon for CpuConfig {
    fn canon(&self, w: &mut CanonWriter) {
        w.u32(self.issue_width);
        w.u32(self.fetch_width);
        w.u32(self.commit_width);
        w.u32(self.ruu_entries);
        w.u32(self.lsq_entries);
        w.u32(self.mem_ports);
        w.u32(self.int_units);
        w.u32(self.fp_units);
        w.usize(self.predictor_entries);
        // Retired `predictor` field: tag 0 was the bimodal predictor.
        w.u8(0);
        w.u64(self.mispredict_penalty);
        w.u64(self.int_latency);
        w.u64(self.fp_latency);
        w.u64(self.fetch_block);
        self.model.canon(w);
    }
}

impl Canon for CacheConfig {
    fn canon(&self, w: &mut CanonWriter) {
        w.u64(self.size);
        w.u32(self.assoc);
        w.u64(self.block_size);
        // Retired `replacement` field: tag 0 was LRU.
        w.u8(0);
    }
}

impl Canon for TlbConfig {
    fn canon(&self, w: &mut CanonWriter) {
        w.u32(self.entries);
        w.u32(self.assoc);
        w.u64(self.page_size);
        w.u64(self.miss_penalty);
    }
}

impl Canon for BypassConfig {
    fn canon(&self, w: &mut CanonWriter) {
        w.u64(self.buffer_bytes);
        w.u64(self.block_size);
        w.usize(self.mat.entries);
        w.u64(self.mat.macro_block);
        w.u32(self.mat.max_count);
        w.u64(self.mat.decay_interval);
        w.usize(self.sldt.entries);
        w.u64(self.sldt.macro_block);
        w.u64(self.sldt.block_size);
        w.i32(self.sldt.threshold);
        w.i32(self.sldt.max);
        w.i32(self.sldt.min);
    }
}

impl Canon for StreamConfig {
    fn canon(&self, w: &mut CanonWriter) {
        w.usize(self.buffers);
        w.u8(self.depth);
    }
}

impl Canon for ControllerConfig {
    fn canon(&self, w: &mut CanonWriter) {
        w.u32(self.interval_accesses);
        w.u32(self.trial_intervals);
        w.u32(self.hysteresis_pct);
        w.u32(self.hysteresis_intervals);
        w.usize(self.max_regions);
        // Retired `way_partition` field: the way duel is always on.
        w.bool(true);
        w.u32(self.min_ways);
        w.u32(self.duel_accesses);
    }
}

impl Canon for HierarchyConfig {
    fn canon(&self, w: &mut CanonWriter) {
        self.l1d.canon(w);
        self.l1i.canon(w);
        self.l2.canon(w);
        w.u64(self.l1_latency);
        w.u64(self.l2_latency);
        w.u64(self.mem_latency);
        w.u64(self.bus_bytes);
        w.u64(self.l2_occupancy);
        w.u64(self.dram_page_bytes);
        w.u64(self.dram_hit_latency);
        w.u64(self.dram_banks);
        self.dtlb.canon(w);
        self.itlb.canon(w);
        self.assist.canon(w);
        self.bypass.canon(w);
        w.usize(self.l1_victim_entries);
        w.usize(self.l2_victim_entries);
        self.stream.canon(w);
        // Retired `classify_misses` field: L1d and L2 always classify.
        w.bool(true);
        w.opt(&self.controller);
    }
}

impl Canon for OptConfig {
    fn canon(&self, w: &mut CanonWriter) {
        w.f64(self.threshold);
        w.u64(self.block_bytes);
        // Tile size, minimum tiled trip, padding span and stagger were
        // fields; their slots now hold the constants that replaced them.
        w.i64(tiling::TILE_SIZE);
        w.u64(self.cache_bytes);
        w.i64(tiling::MIN_TRIP);
        w.u64(padding::SET_SPAN);
        w.u64(padding::STAGGER);
        w.bool(self.interchange);
        w.bool(self.tile);
        w.bool(self.layout);
        w.bool(self.scalar_replacement);
        w.bool(self.pad);
        w.bool(self.fusion);
        // Retired loop-distribution and unroll-and-jam passes: the flags'
        // `false` and the unroll factor, minimum trip and body bound.
        w.bool(false);
        w.bool(false);
        w.i64(4);
        w.i64(16);
        w.usize(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siphash128_matches_reference_vectors() {
        // Reference test vectors for SipHash-2-4-128 with key
        // 000102...0f over inputs 00, 0001, 000102, ... (from the
        // SipHash reference implementation's vectors_128 table).
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let expect: [[u8; 16]; 4] = [
            [
                0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
                0x02, 0x93,
            ],
            [
                0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b, 0x22,
                0xfc, 0x45,
            ],
            [
                0x81, 0x77, 0x22, 0x8d, 0xa4, 0xa4, 0x5d, 0xc7, 0xfc, 0xa3, 0x8b, 0xde, 0xf6, 0x0a,
                0xff, 0xe4,
            ],
            [
                0x9c, 0x70, 0xb6, 0x0c, 0x52, 0x67, 0xa9, 0x4e, 0x5f, 0x33, 0xb6, 0xb0, 0x29, 0x85,
                0xed, 0x51,
            ],
        ];
        for (len, want) in expect.iter().enumerate() {
            let data: Vec<u8> = (0..len as u8).collect();
            let h = siphash_2_4_128(k0, k1, &data);
            let mut got = [0u8; 16];
            got[..8].copy_from_slice(&(h as u64).to_le_bytes());
            got[8..].copy_from_slice(&((h >> 64) as u64).to_le_bytes());
            assert_eq!(&got, want, "vector length {len}");
        }
    }

    #[test]
    fn job_id_hex_round_trips() {
        let id = JobId::of_bytes(b"some canonical identity");
        let hex = id.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex.parse::<JobId>().unwrap(), id);
        assert!("".parse::<JobId>().is_err());
        assert!("xyz".parse::<JobId>().is_err());
        assert!("0".repeat(33).parse::<JobId>().is_err());
    }

    #[test]
    fn writer_is_prefix_tagged_and_distinguishes_values() {
        let enc = |f: &dyn Fn(&mut CanonWriter)| {
            let mut w = CanonWriter::new();
            f(&mut w);
            w.finish()
        };
        let a = enc(&|w| w.u64(1));
        let b = enc(&|w| w.u64(2));
        assert_ne!(a, b);
        assert!(a.starts_with(&{
            let mut w = CanonWriter::new();
            w.buf.clear();
            w.str(IDENTITY_SCHEMA);
            w.buf
        }));
        // -0.0 normalizes to +0.0 (agreement with f64 equality).
        assert_eq!(enc(&|w| w.f64(0.0)), enc(&|w| w.f64(-0.0)));
        assert_ne!(enc(&|w| w.f64(0.5)), enc(&|w| w.f64(0.25)));
    }

    #[test]
    fn to_hex_renders_lowercase_pairs() {
        assert_eq!(to_hex(&[0x00, 0xab, 0x0f]), "00ab0f");
        assert_eq!(to_hex(&[]), "");
        // Every byte renders as `{:02x}` does, so stored echoes still match.
        let all: Vec<u8> = (0..=255).collect();
        let expect: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), expect);
    }
}
