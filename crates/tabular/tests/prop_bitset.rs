//! `RowMask::from_bools` packs rows into words in registers and
//! `RowMask::level_masks` scatters each row into its level's mask;
//! `RowMask::from_indices`, which sets one bit at a time, is their
//! oracle. `count_ones` equal to the number of selected rows proves the
//! bits past `n_bits` stay zero.

use fairbridge_stats::rng::{Rng, StdRng};
use fairbridge_tabular::RowMask;

const LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 1_000];

#[test]
fn from_bools_matches_from_indices() {
    let mut rng = StdRng::seed_from_u64(0xB175_0001);
    for n in LENGTHS {
        for p in [0.0, 0.1, 0.5, 1.0] {
            let flags: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
            let set: Vec<usize> = (0..n).filter(|&i| flags[i]).collect();
            let mask = RowMask::from_bools(&flags);
            assert_eq!(
                mask,
                RowMask::from_indices(n, set.iter().copied()),
                "n {n} p {p}"
            );
            assert_eq!(mask.count_ones(), set.len(), "n {n} p {p}");
            assert_eq!(mask.n_bits(), n);
        }
    }
}

#[test]
fn level_masks_match_from_indices() {
    let mut rng = StdRng::seed_from_u64(0xB175_0002);
    for n in LENGTHS {
        // Up to 32 levels the masks are built through a per-chunk
        // scratch; past that, by a scatter.
        for n_levels in [1usize, 2, 3, 4, 5, 32, 33, 100] {
            // The last level is one no row has when `used < n_levels`.
            for used in [n_levels, n_levels.saturating_sub(1).max(1)] {
                let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..used) as u32).collect();
                let masks = RowMask::level_masks(&codes, n_levels);
                assert_eq!(masks.len(), n_levels);
                for (level, mask) in masks.iter().enumerate() {
                    let rows: Vec<usize> = (0..n).filter(|&i| codes[i] as usize == level).collect();
                    let what = format!("n {n} levels {n_levels} used {used} level {level}");
                    assert_eq!(
                        mask,
                        &RowMask::from_indices(n, rows.iter().copied()),
                        "{what}"
                    );
                    assert_eq!(mask.count_ones(), rows.len(), "{what}");
                }
            }
        }
    }
}

#[test]
fn level_masks_reject_a_code_past_the_level_count() {
    // The bad code in an even row, in an odd row, in the row left over
    // after pairing, and past 32 levels.
    let cases: [(&[u32], usize); 4] = [
        (&[0, 2, 3, 1], 3),
        (&[0, 3, 2, 1], 3),
        (&[0, 1, 3], 3),
        (&[0, 40, 1], 40),
    ];
    for (codes, n_levels) in cases {
        let built = std::panic::catch_unwind(|| RowMask::level_masks(codes, n_levels));
        assert!(built.is_err(), "codes {codes:?} levels {n_levels}");
    }
}
