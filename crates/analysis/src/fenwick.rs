//! A Fenwick (binary indexed) tree over access timestamps — the engine of
//! the O(N log F) reuse-distance algorithm.

/// Fenwick tree of `u32` counters with prefix-sum queries.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over indices `0..n`.
    pub fn new(n: usize) -> Self {
        Fenwick { tree: vec![0; n + 1] }
    }

    /// Number of indexable positions.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// True if the tree has no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grows the index space to at least `n` positions, keeping every
    /// point value, in O(n): the tree is turned back into its point values,
    /// extended with zeros and rebuilt, all in place.
    pub fn grow(&mut self, n: usize) {
        if n + 1 > self.tree.len() {
            self.unbuild();
            self.tree.resize(n + 1, 0);
            self.build();
        }
    }

    /// Resets position `i` to 1 for every `i < ones` and to 0 above, in
    /// O(len).
    ///
    /// # Panics
    ///
    /// Panics if `ones` exceeds [`Fenwick::len`].
    pub(crate) fn reset_ones(&mut self, ones: usize) {
        assert!(ones <= self.len(), "fenwick reset to {ones} ones over {} positions", self.len());
        for (k, v) in self.tree.iter_mut().enumerate() {
            *v = u32::from((1..=ones).contains(&k));
        }
        self.build();
    }

    /// Turns `tree[1..]` from point values into Fenwick sums: each node
    /// passes its finished sum to its parent, children before parents.
    fn build(&mut self) {
        let n = self.tree.len();
        for k in 1..n {
            let parent = k + (k & k.wrapping_neg());
            if parent < n {
                self.tree[parent] += self.tree[k];
            }
        }
    }

    /// The inverse of [`Fenwick::build`]: parents before children, each
    /// node takes back what its children passed up.
    fn unbuild(&mut self) {
        let n = self.tree.len();
        for k in (1..n).rev() {
            let parent = k + (k & k.wrapping_neg());
            if parent < n {
                self.tree[parent] -= self.tree[k];
            }
        }
    }

    /// Adds `delta` at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the counter underflows.
    pub fn add(&mut self, i: usize, delta: i64) {
        assert!(i < self.len(), "fenwick index {i} out of range {}", self.len());
        let mut k = i + 1;
        while k < self.tree.len() {
            let v = self.tree[k] as i64 + delta;
            assert!(v >= 0, "fenwick underflow at {k}");
            self.tree[k] = v as u32;
            k += k & k.wrapping_neg();
        }
    }

    /// Sum of positions `0..i` (exclusive).
    pub fn prefix(&self, i: usize) -> u64 {
        let mut k = i.min(self.len());
        let mut s = 0u64;
        while k > 0 {
            s += self.tree[k] as u64;
            k -= k & k.wrapping_neg();
        }
        s
    }

    /// Sum over `lo..hi`.
    pub fn range(&self, lo: usize, hi: usize) -> u64 {
        if hi <= lo {
            0
        } else {
            self.prefix(hi) - self.prefix(lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_updates_and_prefix_sums() {
        let mut f = Fenwick::new(10);
        f.add(0, 1);
        f.add(4, 2);
        f.add(9, 3);
        assert_eq!(f.prefix(0), 0);
        assert_eq!(f.prefix(1), 1);
        assert_eq!(f.prefix(5), 3);
        assert_eq!(f.prefix(10), 6);
        assert_eq!(f.range(1, 5), 2);
        assert_eq!(f.range(5, 10), 3);
    }

    #[test]
    fn negative_deltas() {
        let mut f = Fenwick::new(4);
        f.add(2, 5);
        f.add(2, -3);
        assert_eq!(f.range(2, 3), 2);
    }

    #[test]
    fn grow_preserves_contents() {
        let mut f = Fenwick::new(4);
        f.add(1, 7);
        f.add(3, 2);
        f.grow(16);
        assert_eq!(f.len(), 16);
        assert_eq!(f.range(1, 2), 7);
        assert_eq!(f.range(3, 4), 2);
        f.add(15, 1);
        assert_eq!(f.prefix(16), 10);
    }

    #[test]
    fn reset_ones_sets_a_prefix() {
        let mut f = Fenwick::new(13);
        f.add(2, 5);
        f.add(12, 1);
        f.reset_ones(6);
        for i in 0..=13 {
            assert_eq!(f.prefix(i), i.min(6) as u64, "prefix({i})");
        }
        f.reset_ones(0);
        assert_eq!(f.prefix(13), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut f = Fenwick::new(4);
        f.add(4, 1);
    }

    #[test]
    fn matches_naive_model() {
        let mut f = Fenwick::new(64);
        let mut naive = vec![0i64; 64];
        let mut state = 12345u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as usize % 64;
            f.add(i, 1);
            naive[i] += 1;
            let q = (state >> 13) as usize % 65;
            let expect: i64 = naive[..q].iter().sum();
            assert_eq!(f.prefix(q), expect as u64);
        }
    }
}
