//! Bit-identity of the proxy scorer's numeric branch: every numeric
//! feature's score from `association_ranking` must equal, `to_bits`
//! for `to_bits`, the per-level `point_biserial` fold it replaced,
//! which lives here as the oracle.

use fairbridge_stats::correlation::{association_ranking, point_biserial};
use fairbridge_stats::rng::{Rng, StdRng};
use fairbridge_tabular::{Dataset, DatasetBuilder, Role};

/// Largest |point-biserial| of `x` against any level's indicator, one
/// indicator vector and one `pearson` call per level.
fn oracle(x: &[f64], codes: &[u32], n_levels: usize) -> f64 {
    (0..n_levels)
        .map(|level| {
            let ind: Vec<bool> = codes.iter().map(|&c| c as usize == level).collect();
            point_biserial(x, &ind).abs()
        })
        .fold(0.0f64, f64::max)
}

/// Numeric features covering the scorer's edge cases: ordinary values,
/// a constant (`Σ(x − mx)² == 0`), all-negative values and large values
/// on a large offset.
fn features(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        (
            "seeded",
            (0..n).map(|_| rng.gen_range(-10.0..100.0)).collect(),
        ),
        ("constant", vec![7.25; n]),
        (
            "negative",
            (0..n).map(|_| rng.gen_range(-50.0..-1.0)).collect(),
        ),
        (
            "large",
            (0..n).map(|_| 1e15 + rng.gen_range(-1e12..1e12)).collect(),
        ),
    ]
}

/// Asserts the scorer matches the oracle on every numeric feature of `ds`.
fn assert_pinned(ds: &Dataset, codes: &[u32], n_levels: usize, what: &str) {
    let ranking = association_ranking(ds, "p").unwrap();
    for meta in ds.schema().fields() {
        if meta.role != Role::Feature {
            continue;
        }
        let x = ds.numeric(&meta.name).unwrap();
        let got = ranking.iter().find(|a| a.feature == meta.name).unwrap();
        let want = oracle(x, codes, n_levels);
        assert_eq!(
            got.association.to_bits(),
            want.to_bits(),
            "{what} feature {}: {} vs oracle {}",
            meta.name,
            got.association,
            want
        );
        assert!(got.nmi.is_nan());
    }
}

fn with_features(mut b: DatasetBuilder, rng: &mut StdRng, n: usize) -> Dataset {
    for (name, values) in features(rng, n) {
        b = b.numeric(name, values);
    }
    b.build().unwrap()
}

const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 5_000];

/// Categorical protected columns of 1 to 5 levels, with and without a
/// level that no row has (mean 0).
#[test]
fn categorical_protected_scores_match_the_point_biserial_fold() {
    let mut rng = StdRng::seed_from_u64(0xA55C);
    for n in LENGTHS {
        for n_levels in 1..=5usize {
            for empty_level in [None, Some(n_levels / 2)] {
                let codes: Vec<u32> = (0..n)
                    .map(|_| loop {
                        let c = rng.gen_range(0..n_levels);
                        if Some(c) != empty_level || n_levels == 1 {
                            break c as u32;
                        }
                    })
                    .collect();
                let levels: Vec<String> = (0..n_levels).map(|l| format!("l{l}")).collect();
                let b = Dataset::builder().categorical_with_role(
                    "p",
                    levels,
                    codes.clone(),
                    Role::Protected,
                );
                let ds = with_features(b, &mut rng, n);
                let what = format!("n {n} levels {n_levels} empty {empty_level:?}");
                assert_pinned(&ds, &codes, n_levels, &what);
            }
        }
    }
}

/// A boolean protected column scores through its coded view
/// (`false` = 0, `true` = 1).
#[test]
fn boolean_protected_scores_match_the_point_biserial_fold() {
    let mut rng = StdRng::seed_from_u64(0xA55B);
    for n in LENGTHS {
        for p_true in [0.0, 0.3, 1.0] {
            let flags: Vec<bool> = (0..n).map(|_| rng.gen_bool(p_true)).collect();
            let codes: Vec<u32> = flags.iter().map(|&f| u32::from(f)).collect();
            let b = Dataset::builder().boolean_with_role("p", flags, Role::Protected);
            let ds = with_features(b, &mut rng, n);
            assert_pinned(&ds, &codes, 2, &format!("n {n} p_true {p_true}"));
        }
    }
}
