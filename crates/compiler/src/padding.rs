//! Inter-array padding.
//!
//! Natural allocation places power-of-two-sized arrays at identical
//! cache-set offsets, so corresponding elements of every array contend for
//! the same set — the dominant source of the conflict misses the paper
//! reports. This data transformation appends padding to each array so that
//! consecutive base addresses are staggered across the L1 index range
//! (classic "aggressive array padding").

use selcache_ir::{AddressMap, Program};

/// The cache index span bases are staggered across: `sets * block_size`
/// of the base machine's L1 (32 KiB, 4-way, 32-byte lines).
pub const SET_SPAN: u64 = 8 * 1024;

/// Stagger step between consecutive arrays, in bytes: a multiple of
/// [`AddressMap::ALIGN`] whose 5 × 256 steps cover all 32 `ALIGN`
/// residues of [`SET_SPAN`], so many arrays spread evenly.
pub const STAGGER: u64 = 1280;

/// Pads the program's arrays so the k-th array's base address lands at
/// residue `k * STAGGER (mod SET_SPAN)`. Returns the number of arrays that
/// received padding. Padding never changes program semantics — only the
/// address map.
pub fn pad_arrays(program: &mut Program) -> usize {
    let align = AddressMap::ALIGN;
    let mut padded = 0;
    let mut cursor = AddressMap::BASE;
    let n = program.arrays.len();
    for idx in 0..n {
        // Desired residue of *this* array's base.
        let desired = (idx as u64 * STAGGER) % SET_SPAN;
        let have = cursor % SET_SPAN;
        if have != desired && idx > 0 {
            // Grow the previous array's padding to push this base forward.
            let shift = (desired + SET_SPAN - have) % SET_SPAN;
            program.arrays[idx - 1].pad_bytes += shift;
            cursor += shift;
            padded += 1;
        }
        let sz = program.arrays[idx].size_bytes().max(1);
        cursor += sz.div_ceil(align) * align;
    }
    padded
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{ArrayId, ProgramBuilder, Subscript};

    fn eight_same_sized() -> Program {
        let mut b = ProgramBuilder::new("t");
        let mut last = None;
        for k in 0..8 {
            last = Some(b.array(format!("A{k}"), &[32, 32], 8)); // exactly 8 KiB
        }
        let a = last.unwrap();
        b.loop_(4, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::constant(0)]);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn unpadded_bases_collide() {
        let p = eight_same_sized();
        let m = p.address_map();
        let residues: std::collections::HashSet<u64> =
            (0..8).map(|k| m.array_base(ArrayId(k)).0 % 8192).collect();
        assert_eq!(residues.len(), 1, "power-of-two arrays collide by default");
    }

    #[test]
    fn padding_staggers_bases() {
        let mut p = eight_same_sized();
        let n = pad_arrays(&mut p);
        assert!(n >= 7, "most arrays padded, got {n}");
        let m = p.address_map();
        let residues: std::collections::HashSet<u64> =
            (0..8).map(|k| m.array_base(ArrayId(k)).0 % 8192).collect();
        assert_eq!(residues.len(), 8, "all bases distinct modulo the set span");
        // And they match the requested stagger pattern.
        for k in 0..8u32 {
            assert_eq!(m.array_base(ArrayId(k)).0 % 8192, (k as u64 * 1280) % 8192, "array {k}");
        }
    }

    #[test]
    fn padding_is_idempotent() {
        let mut p = eight_same_sized();
        pad_arrays(&mut p);
        let once = p.clone();
        let n = pad_arrays(&mut p);
        assert_eq!(n, 0);
        assert_eq!(p, once);
    }

    #[test]
    fn padding_preserves_validity_and_trace_shape() {
        use selcache_ir::trace_len;
        let mut p = eight_same_sized();
        let before = trace_len(&p);
        pad_arrays(&mut p);
        assert!(p.validate().is_ok());
        assert_eq!(trace_len(&p), before);
    }
}
