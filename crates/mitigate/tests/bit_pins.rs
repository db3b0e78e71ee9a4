//! Bit-level pins for the counting mitigations: `reweigh`'s row and cell
//! weights, `massage`'s flipped rows and `fit_margin`'s chosen margin on
//! two seeded datasets. The expected values were captured from the
//! row-scanning implementations these functions replaced, so any change
//! to their counts, formulas or row order shows up here.

use fairbridge_mitigate::massage::massage;
use fairbridge_mitigate::reject_option::fit_margin;
use fairbridge_mitigate::reweigh;
use fairbridge_stats::rng::StdRng;
use fairbridge_synth::{hiring, intersectional, HiringConfig, IntersectionalConfig};
use fairbridge_tabular::{Dataset, GroupKey};

/// FNV-1a over the little-endian bytes of `values`.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Biased hiring data (n = 1500, seed 23); scores are the skill score
/// minus 0.15 for women, so the decisions carry a planted gap.
fn hiring_data() -> (Dataset, Vec<f64>) {
    let config = HiringConfig {
        n: 1500,
        ..HiringConfig::biased()
    };
    let ds = hiring::generate(&config, &mut StdRng::seed_from_u64(23)).dataset;
    let (_, sex) = ds.categorical("sex").unwrap();
    let skill = ds.numeric("skill_score").unwrap();
    let scores = skill
        .iter()
        .zip(sex)
        .map(|(&s, &c)| s - 0.15 * f64::from(c))
        .collect();
    (ds, scores)
}

/// Gerrymandered gender × race data (n = 1500, seed 23), scored by its
/// `score` feature.
fn intersectional_data() -> (Dataset, Vec<f64>) {
    let config = IntersectionalConfig {
        n: 1500,
        ..IntersectionalConfig::default()
    };
    let ds = intersectional::generate(&config, &mut StdRng::seed_from_u64(23));
    let scores = ds.numeric("score").unwrap().to_vec();
    (ds, scores)
}

fn assert_reweigh(ds: &Dataset, protected: &[&str], rows_fnv: u64, cells: &[u64]) {
    let result = reweigh(ds, protected).unwrap();
    let weights = result.dataset.weights();
    assert_eq!(weights.len(), ds.n_rows());
    assert_eq!(fnv(weights.iter().map(|w| w.to_bits())), rows_fnv);
    let expected: Vec<(usize, bool, u64)> = cells
        .iter()
        .enumerate()
        .map(|(i, &bits)| (i / 2, i % 2 == 1, bits))
        .collect();
    let actual: Vec<(usize, bool, u64)> = result
        .cell_weights
        .iter()
        .map(|&(g, y, w)| (g, y, w.to_bits()))
        .collect();
    assert_eq!(actual, expected);
}

fn assert_massage(ds: &Dataset, protected: &str, scores: &[f64], flips: usize, pins: (u64, u64)) {
    let result = massage(ds, protected, scores).unwrap();
    assert_eq!(
        (result.promoted.len(), result.demoted.len()),
        (flips, flips)
    );
    let digest = |rows: &[usize]| fnv(rows.iter().map(|&i| i as u64));
    assert_eq!((digest(&result.promoted), digest(&result.demoted)), pins);
}

/// `fit_margin` over a coarse candidate list, a fall-back list no
/// candidate of which meets the tolerance, and a fine grid at four
/// tolerances; the margins chosen, as bits, in that order.
fn chosen_margins(ds: &Dataset, protected: &[&str], scores: &[f64], key: &GroupKey) -> Vec<u64> {
    let fit = |candidates: &[f64], tolerance: f64| {
        fit_margin(ds, protected, scores, key.clone(), candidates, tolerance)
            .unwrap()
            .margin
            .to_bits()
    };
    let grid: Vec<f64> = (1..=30).map(|i| f64::from(i) * 0.01).collect();
    let mut margins = vec![
        fit(&[0.02, 0.05, 0.1, 0.15, 0.2, 0.3], 0.02),
        fit(&[0.01, 0.02, 0.03], 0.0),
    ];
    margins.extend([0.0, 0.005, 0.01, 0.03].map(|tolerance| fit(&grid, tolerance)));
    margins
}

const M_003: u64 = 0x3f9e_b851_eb85_1eb8;
const M_005: u64 = 0x3fa9_9999_9999_999a;
const M_006: u64 = 0x3fae_b851_eb85_1eb8;

#[test]
fn reweigh_bits_hiring() {
    let (ds, _) = hiring_data();
    assert_reweigh(
        &ds,
        &["sex"],
        0xd144_6ac1_6a5f_09d6,
        &[
            0x3feb_6d22_5b0b_6594,
            0x3ff5_387b_4fa8_0b36,
            0x3ff1_7361_7255_1290,
            0x3fec_8116_4fbc_9661,
        ],
    );
}

#[test]
fn reweigh_bits_intersectional() {
    let (ds, _) = intersectional_data();
    assert_reweigh(
        &ds,
        &["gender", "race"],
        0xf204_af04_355d_77b1,
        &[
            0x3fe7_b43f_5310_9027,
            0x3ff9_3eb9_6e47_936d,
            0x3ffa_96de_8ca1_1bfd,
            0x3fe6_9656_9f70_caaf,
            0x3ff8_79cf_7c33_278c,
            0x3fe7_7d1c_5dca_7d3e,
            0x3fe7_624b_3731_b129,
            0x3ffa_0a20_90f0_64c8,
        ],
    );
}

#[test]
fn massage_rows_hiring() {
    let (ds, scores) = hiring_data();
    assert_massage(
        &ds,
        "sex",
        &scores,
        50,
        (0x3aac_7581_e8bf_1b6a, 0x3eff_8b15_358c_e321),
    );
}

#[test]
fn massage_rows_intersectional() {
    let (ds, scores) = intersectional_data();
    assert_massage(
        &ds,
        "gender",
        &scores,
        9,
        (0x9eec_ff4d_8cf3_4219, 0x4398_56ad_0469_c997),
    );
}

#[test]
fn fit_margin_bits_hiring() {
    let (ds, scores) = hiring_data();
    let key = GroupKey(vec!["female".into()]);
    assert_eq!(
        chosen_margins(&ds, &["sex"], &scores, &key),
        [M_005, M_003, M_006, M_006, M_006, M_005]
    );
}

#[test]
fn fit_margin_bits_intersectional() {
    let (ds, scores) = intersectional_data();
    let key = GroupKey(vec!["female".into(), "caucasian".into()]);
    assert_eq!(
        chosen_margins(&ds, &["gender", "race"], &scores, &key),
        [M_005, M_003, M_005, M_005, M_005, M_005]
    );
}
