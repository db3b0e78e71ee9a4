//! Fixed-width row bitsets for columnar subgroup enumeration.
//!
//! A [`RowMask`] represents a set of row indices as packed `u64` words,
//! so set intersection is a word-wise `AND` and set cardinality is a
//! `popcount` — the two operations the conjunction-lattice subgroup
//! auditor performs millions of times per audit. Compared to the
//! `Vec<usize>` row lists it replaces, a mask over `n` rows costs
//! `n / 8` bytes regardless of how many rows it selects, intersecting
//! two masks touches `n / 64` words with no branches, and counting
//! members compiles to hardware `popcnt`.
//!
//! The key fused primitive is [`RowMask::count_and`]: it computes
//! `|a ∩ b|` without materializing the intersection, which is how the
//! subgroup auditor answers "how many positive decisions inside this
//! subgroup?" (`count_and(subgroup, decisions)`) with zero allocation.
//!
//! Invariant: bits at positions `>= n_bits` (the tail of the last word)
//! are always zero, so `count_ones` never over-counts. Every
//! constructor and mutator maintains this.

/// The most levels [`RowMask::level_masks`] builds through a per-chunk
/// scratch. Its write-back costs one word per level per 64 rows, which
/// outgrows the one-write-per-row scatter at about 50–64 levels (measured
/// at 100k rows: half the scatter's time at 2–10 levels, 1.8× it at 200).
const DENSE_LEVELS: usize = 32;

/// A fixed-width set of row indices backed by packed `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    words: Vec<u64>,
    n_bits: usize,
}

impl RowMask {
    /// An empty mask over `n_bits` rows.
    pub fn zeros(n_bits: usize) -> RowMask {
        RowMask {
            words: vec![0u64; n_bits.div_ceil(64)],
            n_bits,
        }
    }

    /// A mask over `n_bits` rows with exactly the given rows set.
    ///
    /// Panics if any index is out of bounds (row indices come from the
    /// dataset that fixed `n_bits`, so a violation is a logic error).
    pub fn from_indices<I: IntoIterator<Item = usize>>(n_bits: usize, indices: I) -> RowMask {
        let mut mask = RowMask::zeros(n_bits);
        for i in indices {
            mask.set(i);
        }
        mask
    }

    /// A mask selecting the rows where `flags` is `true`.
    ///
    /// Each 64-row word is built in registers with no per-row branch:
    /// eight flags to a byte, then eight bytes to a word (packing
    /// straight into a `u64` compiled to code half as fast). The tail of
    /// the last word stays zero.
    pub fn from_bools(flags: &[bool]) -> RowMask {
        let byte = |eight: &[bool]| {
            eight
                .iter()
                .enumerate()
                .fold(0u8, |b, (i, &f)| b | u8::from(f) << i)
        };
        let word = |chunk: &[bool]| {
            chunk
                .chunks(8)
                .enumerate()
                .fold(0u64, |w, (j, eight)| w | u64::from(byte(eight)) << (8 * j))
        };
        RowMask {
            words: flags.chunks(64).map(word).collect(),
            n_bits: flags.len(),
        }
    }

    /// One mask per level: `masks[l]` selects the rows where
    /// `codes[row] == l`. This is the per-`(column, level)` layout the
    /// subgroup lattice intersects; it is built once per audited column.
    ///
    /// Panics if any code is `>= n_levels` (dataset categorical columns
    /// validate codes at construction).
    pub fn level_masks(codes: &[u32], n_levels: usize) -> Vec<RowMask> {
        let mut masks = vec![RowMask::zeros(codes.len()); n_levels];
        if n_levels > DENSE_LEVELS {
            for (row, &code) in codes.iter().enumerate() {
                masks[code as usize].set(row);
            }
            return masks;
        }
        // Each 64-row chunk is ORed into one scratch word per level, then
        // every level's word is written out. Even and odd rows go to
        // separate words: a run of equal codes would otherwise chain
        // each read-modify-write on the one before it.
        let (mut even, mut odd) = (vec![0u64; n_levels], vec![0u64; n_levels]);
        for (j, chunk) in codes.chunks(64).enumerate() {
            let mut pairs = chunk.chunks_exact(2);
            for (i, pair) in pairs.by_ref().enumerate() {
                even[pair[0] as usize] |= 1u64 << (2 * i);
                odd[pair[1] as usize] |= 1u64 << (2 * i + 1);
            }
            if let [last] = pairs.remainder() {
                even[*last as usize] |= 1u64 << (chunk.len() - 1);
            }
            for ((mask, e), o) in masks.iter_mut().zip(&mut even).zip(&mut odd) {
                mask.words[j] = std::mem::take(e) | std::mem::take(o);
            }
        }
        masks
    }

    /// The number of rows this mask ranges over (not the popcount).
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Adds a row to the set. Panics if `i >= n_bits`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.n_bits, "bit {i} out of range {}", self.n_bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether row `i` is in the set (`false` when out of range).
    pub fn contains(&self, i: usize) -> bool {
        i < self.n_bits && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The number of rows in the set (hardware popcount per word,
    /// batched four words wide — see [`RowMask::count_and`]).
    pub fn count_ones(&self) -> usize {
        let mut quads = self.words.chunks_exact(4);
        let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
        for quad in quads.by_ref() {
            if let [w0, w1, w2, w3] = quad {
                c0 += w0.count_ones() as usize;
                c1 += w1.count_ones() as usize;
                c2 += w2.count_ones() as usize;
                c3 += w3.count_ones() as usize;
            }
        }
        let mut total = (c0 + c1) + (c2 + c3);
        for w in quads.remainder() {
            total += w.count_ones() as usize;
        }
        total
    }

    /// Writes `self ∩ other` into `out` without allocating.
    ///
    /// All three masks must range over the same number of rows.
    pub fn and_into(&self, other: &RowMask, out: &mut RowMask) {
        debug_assert_eq!(self.n_bits, other.n_bits);
        debug_assert_eq!(self.n_bits, out.n_bits);
        for ((o, &a), &b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a & b;
        }
    }

    /// `|self ∩ other|` — AND and popcount fused, no intersection mask
    /// is materialized. This is the subgroup auditor's positive-count
    /// primitive: `subgroup.count_and(&decisions)`.
    ///
    /// The loop is batched four words (256 rows) per step with four
    /// independent integer accumulators, so the `popcnt` units pipeline
    /// instead of serializing on one add chain — the same
    /// lane-splitting trick as `stats::kernel`, but in exact integer
    /// arithmetic where any association order gives the same count.
    /// The reference single-word loop stays as
    /// [`RowMask::count_and_unbatched`] for the equivalence tests and
    /// the `bench_subgroup` before/after rows.
    pub fn count_and(&self, other: &RowMask) -> usize {
        debug_assert_eq!(self.n_bits, other.n_bits);
        let mut a_quads = self.words.chunks_exact(4);
        let mut b_quads = other.words.chunks_exact(4);
        let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
        for (a, b) in a_quads.by_ref().zip(b_quads.by_ref()) {
            if let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (a, b) {
                c0 += (a0 & b0).count_ones() as usize;
                c1 += (a1 & b1).count_ones() as usize;
                c2 += (a2 & b2).count_ones() as usize;
                c3 += (a3 & b3).count_ones() as usize;
            }
        }
        let mut total = (c0 + c1) + (c2 + c3);
        for (a, b) in a_quads.remainder().iter().zip(b_quads.remainder()) {
            total += (a & b).count_ones() as usize;
        }
        total
    }

    /// Reference single-accumulator `|self ∩ other|`: one word, one
    /// popcount, one add per step. Kept as the baseline
    /// [`RowMask::count_and`] is benchmarked and equivalence-tested
    /// against.
    pub fn count_and_unbatched(&self, other: &RowMask) -> usize {
        debug_assert_eq!(self.n_bits, other.n_bits);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Whole mask popcount of `self`, single-accumulator reference for
    /// [`RowMask::count_ones`].
    pub fn count_ones_unbatched(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set row indices in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1; // clear lowest set bit
                Some(wi * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_contains_count() {
        let mut m = RowMask::zeros(130);
        assert_eq!(m.count_ones(), 0);
        for i in [0, 63, 64, 127, 129] {
            m.set(i);
        }
        assert_eq!(m.count_ones(), 5);
        assert!(m.contains(63));
        assert!(m.contains(129));
        assert!(!m.contains(1));
        assert!(!m.contains(999));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range() {
        RowMask::zeros(10).set(10);
    }

    #[test]
    fn from_indices_and_bools_agree() {
        let flags: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        let a = RowMask::from_bools(&flags);
        let b = RowMask::from_indices(100, (0..100).filter(|i| i % 7 == 0));
        assert_eq!(a, b);
        assert_eq!(a.count_ones(), flags.iter().filter(|&&f| f).count());
    }

    #[test]
    fn and_into_and_count_and_match_naive_intersection() {
        let a = RowMask::from_indices(200, (0..200).filter(|i| i % 2 == 0));
        let b = RowMask::from_indices(200, (0..200).filter(|i| i % 3 == 0));
        let mut out = RowMask::zeros(200);
        a.and_into(&b, &mut out);
        let expected: Vec<usize> = (0..200).filter(|i| i % 6 == 0).collect();
        assert_eq!(out.ones().collect::<Vec<_>>(), expected);
        assert_eq!(a.count_and(&b), expected.len());
        assert_eq!(out.count_ones(), expected.len());
    }

    #[test]
    fn level_masks_partition_rows() {
        let codes = [0u32, 2, 1, 1, 0, 2, 2];
        let masks = RowMask::level_masks(&codes, 3);
        assert_eq!(masks.len(), 3);
        assert_eq!(masks[0].ones().collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(masks[1].ones().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(masks[2].ones().collect::<Vec<_>>(), vec![1, 5, 6]);
        // the level masks are disjoint and cover every row
        let total: usize = masks.iter().map(RowMask::count_ones).sum();
        assert_eq!(total, codes.len());
        assert_eq!(masks[0].count_and(&masks[1]), 0);
    }

    #[test]
    fn ones_iterates_in_ascending_order_across_words() {
        let idx = [3usize, 64, 65, 190];
        let m = RowMask::from_indices(191, idx.iter().copied());
        assert_eq!(m.ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn batched_counts_equal_unbatched_on_awkward_widths() {
        // Widths crossing the 4-word batch boundary: 0–3 tail words,
        // partial last words, and the empty mask.
        for n_bits in [0usize, 1, 63, 64, 65, 255, 256, 257, 300, 511, 512, 1000] {
            let a = RowMask::from_indices(n_bits, (0..n_bits).filter(|i| i % 3 == 0));
            let b = RowMask::from_indices(n_bits, (0..n_bits).filter(|i| i % 5 != 1));
            assert_eq!(a.count_ones(), a.count_ones_unbatched(), "n_bits {n_bits}");
            assert_eq!(
                a.count_and(&b),
                a.count_and_unbatched(&b),
                "n_bits {n_bits}"
            );
            assert_eq!(
                a.count_and(&b),
                (0..n_bits)
                    .filter(|&i| a.contains(i) && b.contains(i))
                    .count(),
                "n_bits {n_bits} vs naive membership scan"
            );
        }
    }

    #[test]
    fn empty_mask_over_zero_rows() {
        let m = RowMask::zeros(0);
        assert_eq!(m.count_ones(), 0);
        assert_eq!(m.ones().count(), 0);
        assert!(!m.contains(0));
    }
}
