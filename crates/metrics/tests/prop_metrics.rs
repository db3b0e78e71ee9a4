//! Randomized property tests for the fairness metrics: gap/ratio
//! invariants, and every group metric pinned bit for bit against the
//! row-list counting oracle (`oracle/mod.rs`), driven by the workspace's
//! deterministic PRNG (no proptest: the build is offline).

mod oracle;

use fairbridge_metrics::conditional::{
    conditional_parity_on_labels, conditional_statistical_parity,
};
use fairbridge_metrics::disparity::{
    conditional_demographic_disparity, demographic_disparity, DisparityReport, GroupDisparity,
};
use fairbridge_metrics::extended::{
    accuracy_equality, fpr_balance, group_confusions, predictive_parity, GroupRateReport,
};
use fairbridge_metrics::odds::{equalized_odds, OddsReport};
use fairbridge_metrics::opportunity::{equal_opportunity, fnr_balance, OpportunityReport};
use fairbridge_metrics::outcome::{GapSummary, Outcomes, RateStat};
use fairbridge_metrics::parity::{
    demographic_parity, disparate_impact, four_fifths, FourFifthsVerdict, ParityReport,
};
use fairbridge_metrics::{from_accumulator, GroupAccumulator};
use fairbridge_stats::rng::{Rng, StdRng};
use fairbridge_tabular::{Dataset, GroupIndex, GroupKey, Role};

const CASES: usize = 64;

/// Random predictions + labels + binary group codes of equal length.
fn outcome_data<R: Rng>(rng: &mut R) -> (Vec<bool>, Vec<bool>, Vec<u32>) {
    let n = rng.gen_range(2..80usize);
    let preds: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2usize) as u32).collect();
    (preds, labels, codes)
}

/// Gap is in [0,1]; ratio in [0,1]; gap 0 iff ratio 1 (when defined).
#[test]
fn parity_gap_ratio_bounds() {
    let mut rng = StdRng::seed_from_u64(0x3E_01);
    for _ in 0..CASES {
        let (preds, _labels, codes) = outcome_data(&mut rng);
        let o = Outcomes::from_slices(&preds, None, &codes, &["a", "b"]).unwrap();
        let r = demographic_parity(&o, 0);
        if !r.summary.gap.is_nan() {
            assert!((0.0..=1.0).contains(&r.summary.gap));
            assert!((0.0..=1.0 + 1e-12).contains(&r.summary.ratio));
            if r.summary.gap < 1e-12 {
                assert!((r.summary.ratio - 1.0).abs() < 1e-9);
            }
        }
    }
}

/// Relabeling the groups (swapping codes) leaves the gap unchanged.
#[test]
fn parity_invariant_under_group_relabel() {
    let mut rng = StdRng::seed_from_u64(0x3E_02);
    for _ in 0..CASES {
        let (preds, _labels, codes) = outcome_data(&mut rng);
        let swapped: Vec<u32> = codes.iter().map(|&c| 1 - c).collect();
        let o1 = Outcomes::from_slices(&preds, None, &codes, &["a", "b"]).unwrap();
        let o2 = Outcomes::from_slices(&preds, None, &swapped, &["a", "b"]).unwrap();
        let g1 = demographic_parity(&o1, 0).summary.gap;
        let g2 = demographic_parity(&o2, 0).summary.gap;
        if g1.is_nan() {
            assert!(g2.is_nan());
        } else {
            assert!((g1 - g2).abs() < 1e-12);
        }
    }
}

/// Flipping every prediction maps selection rate r to 1−r, so the
/// parity gap is preserved.
#[test]
fn parity_invariant_under_outcome_flip() {
    let mut rng = StdRng::seed_from_u64(0x3E_03);
    for _ in 0..CASES {
        let (preds, _labels, codes) = outcome_data(&mut rng);
        let flipped: Vec<bool> = preds.iter().map(|&p| !p).collect();
        let o1 = Outcomes::from_slices(&preds, None, &codes, &["a", "b"]).unwrap();
        let o2 = Outcomes::from_slices(&flipped, None, &codes, &["a", "b"]).unwrap();
        let g1 = demographic_parity(&o1, 0).summary.gap;
        let g2 = demographic_parity(&o2, 0).summary.gap;
        if !g1.is_nan() && !g2.is_nan() {
            assert!((g1 - g2).abs() < 1e-12);
        }
    }
}

/// Duplicating every row leaves all rates, gaps and verdicts intact.
#[test]
fn metrics_invariant_under_duplication() {
    let mut rng = StdRng::seed_from_u64(0x3E_04);
    for _ in 0..CASES {
        let (preds, labels, codes) = outcome_data(&mut rng);
        let doubled = |v: &[bool]| -> Vec<bool> { v.iter().chain(v.iter()).copied().collect() };
        let codes2: Vec<u32> = codes.iter().chain(codes.iter()).copied().collect();
        let o1 = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let o2 = Outcomes::from_slices(
            &doubled(&preds),
            Some(&doubled(&labels)),
            &codes2,
            &["a", "b"],
        )
        .unwrap();
        let p1 = demographic_parity(&o1, 0).summary.gap;
        let p2 = demographic_parity(&o2, 0).summary.gap;
        if !p1.is_nan() {
            assert!((p1 - p2).abs() < 1e-12);
        }
        let e1 = equal_opportunity(&o1, 0).unwrap().summary.gap;
        let e2 = equal_opportunity(&o2, 0).unwrap().summary.gap;
        if !e1.is_nan() {
            assert!((e1 - e2).abs() < 1e-12);
        }
    }
}

/// The four-fifths verdict is monotone in the threshold.
#[test]
fn four_fifths_monotone_in_threshold() {
    let mut rng = StdRng::seed_from_u64(0x3E_05);
    for _ in 0..CASES {
        let (preds, _labels, codes) = outcome_data(&mut rng);
        let t1 = rng.gen_range(0.0..1.0);
        let t2 = rng.gen_range(0.0..1.0);
        let o = Outcomes::from_slices(&preds, None, &codes, &["a", "b"]).unwrap();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let easy = disparate_impact(&o, 0, lo);
        let hard = disparate_impact(&o, 0, hi);
        // passing the harder threshold implies passing the easier one
        if hard.passes {
            assert!(easy.passes);
        }
    }
}

/// Equalized odds' worst gap dominates the equal-opportunity gap.
#[test]
fn odds_dominates_opportunity() {
    let mut rng = StdRng::seed_from_u64(0x3E_06);
    for _ in 0..CASES {
        let (preds, labels, codes) = outcome_data(&mut rng);
        let o = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let eo = equal_opportunity(&o, 0).unwrap();
        let odds = equalized_odds(&o, 0).unwrap();
        if !eo.summary.gap.is_nan() && !odds.worst_gap().is_nan() {
            assert!(odds.worst_gap() >= eo.summary.gap - 1e-12);
        }
    }
}

/// Demographic disparity verdict matches the rate definition exactly.
#[test]
fn disparity_matches_rate_rule() {
    let mut rng = StdRng::seed_from_u64(0x3E_07);
    for _ in 0..CASES {
        let (preds, _labels, codes) = outcome_data(&mut rng);
        let o = Outcomes::from_slices(&preds, None, &codes, &["a", "b"]).unwrap();
        let report = demographic_disparity(&o);
        for g in &report.groups {
            assert_eq!(g.fair, g.stat.rate > 0.5);
        }
    }
}

/// GapSummary over a single qualifying group reports zero gap.
#[test]
fn single_group_gap_is_zero() {
    let mut rng = StdRng::seed_from_u64(0x3E_08);
    for _ in 0..CASES {
        let n = rng.gen_range(1..50usize);
        let pos = rng.gen_range(0..50usize).min(n);
        let key = GroupKey(vec!["only".into()]);
        let stat = RateStat {
            group: key,
            n,
            positives: pos,
            rate: pos as f64 / n as f64,
        };
        let s = GapSummary::from_rates(&[stat], 0);
        assert!(s.gap.abs() < 1e-12);
        assert!((s.ratio - 1.0).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------
// Equivalence with the row-list counting oracle.
// ---------------------------------------------------------------------

const LEVELS: [&str; 4] = ["g0", "g1", "g2", "g3"];

/// The tolerance every verdict is pinned at.
const TOL: f64 = 0.1;

/// Random predictions, labels and group codes over 1–4 groups.
fn coded_rows<R: Rng>(rng: &mut R) -> (Vec<bool>, Vec<bool>, Vec<u32>, usize) {
    let k = rng.gen_range(1..5usize);
    let n = rng.gen_range(1..60usize);
    let preds = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let labels = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let codes = (0..n).map(|_| rng.gen_range(0..k) as u32).collect();
    (preds, labels, codes, k)
}

/// `min_group_size` values below, at, between and above the view's
/// group sizes.
fn min_sizes(o: &Outcomes) -> [usize; 4] {
    let sizes: Vec<usize> = o.groups.iter().map(|(_, rows)| rows.len()).collect();
    let lo = sizes.iter().copied().min().unwrap_or(0);
    let hi = sizes.iter().copied().max().unwrap_or(0);
    [0, lo, (lo + hi).div_ceil(2), hi + 1]
}

/// Every per-definition report — rates, summaries, skipped groups and
/// verdicts — equals the oracle's, and each labelled definition refuses
/// an unlabelled view with its own error text.
#[test]
fn per_definition_reports_match_the_row_list_oracle() {
    let mut rng = StdRng::seed_from_u64(0x3E_09);
    for case in 0..CASES {
        let (preds, labels, codes, k) = coded_rows(&mut rng);
        for labelled in [false, true] {
            let o = Outcomes::from_slices(
                &preds,
                labelled.then_some(labels.as_slice()),
                &codes,
                &LEVELS[..k],
            )
            .unwrap();
            for min in min_sizes(&o) {
                let ctx = format!("case {case}, labelled {labelled}, min {min}");
                let sel = oracle::selection(&o);
                let summary = GapSummary::from_rates(&sel, min);
                let dp = demographic_parity(&o, min);
                let want = ParityReport {
                    rates: sel.clone(),
                    summary: summary.clone(),
                    skipped_small_groups: oracle::skipped(&sel, min),
                };
                oracle::assert_same(&dp, &want, &ctx);
                assert_eq!(dp.is_fair(TOL), oracle::within(summary.gap, TOL), "{ctx}");

                let want = DisparityReport {
                    groups: sel
                        .iter()
                        .map(|stat| GroupDisparity {
                            stat: stat.clone(),
                            fair: stat.rate > 0.5,
                        })
                        .collect(),
                };
                let dd = demographic_disparity(&o);
                oracle::assert_same(&dd, &want, &ctx);
                assert_eq!(dd.is_fair(), want.groups.iter().all(|g| g.fair), "{ctx}");

                let want = FourFifthsVerdict {
                    impact_ratio: summary.ratio,
                    threshold: 0.8,
                    passes: !summary.ratio.is_nan() && summary.ratio >= 0.8,
                };
                oracle::assert_same(&four_fifths(&o, min), &want, &ctx);

                let report = from_accumulator(&GroupAccumulator::from_outcomes(&o), TOL, min);
                oracle::assert_same(&report, &oracle::expected_report(&o, TOL, min), &ctx);

                if labelled {
                    check_labelled(&o, min, &ctx);
                } else {
                    check_refusals(&o);
                }
            }
        }
    }
}

fn rate_report(rates: Vec<RateStat>, min: usize) -> GroupRateReport {
    let summary = GapSummary::from_rates(&rates, min);
    GroupRateReport { rates, summary }
}

fn check_labelled(o: &Outcomes, min: usize, ctx: &str) {
    let tpr = oracle::tpr(o);
    let fpr = oracle::fpr(o);
    let tpr_summary = GapSummary::from_rates(&tpr, min);
    let fpr_summary = GapSummary::from_rates(&fpr, min);

    let eo = equal_opportunity(o, min).unwrap();
    let want = OpportunityReport {
        tpr: tpr.clone(),
        summary: tpr_summary.clone(),
    };
    oracle::assert_same(&eo, &want, ctx);
    assert_eq!(
        eo.is_fair(TOL),
        oracle::within(tpr_summary.gap, TOL),
        "{ctx}"
    );

    let fnr = oracle::fnr(o);
    let want = OpportunityReport {
        summary: GapSummary::from_rates(&fnr, min),
        tpr: fnr,
    };
    oracle::assert_same(&fnr_balance(o, min).unwrap(), &want, ctx);

    let odds = equalized_odds(o, min).unwrap();
    let want = OddsReport {
        tpr,
        fpr: fpr.clone(),
        tpr_summary: tpr_summary.clone(),
        fpr_summary: fpr_summary.clone(),
    };
    oracle::assert_same(&odds, &want, ctx);
    let worst = oracle::worst_of(tpr_summary.gap, fpr_summary.gap);
    assert_eq!(odds.worst_gap().to_bits(), worst.to_bits(), "{ctx}");
    assert_eq!(odds.is_fair(TOL), oracle::within(worst, TOL), "{ctx}");

    for (got, want) in [
        (predictive_parity(o, min), oracle::ppv(o)),
        (fpr_balance(o, min), fpr),
        (accuracy_equality(o, min), oracle::accuracy(o)),
    ] {
        let got = got.unwrap();
        let want = rate_report(want, min);
        oracle::assert_same(&got, &want, ctx);
        assert_eq!(
            got.is_fair(TOL),
            oracle::within(want.summary.gap, TOL),
            "{ctx}"
        );
    }

    let confusions = group_confusions(o).unwrap();
    assert_eq!(confusions.groups, oracle::confusions(o), "{ctx}");
}

fn check_refusals(o: &Outcomes) {
    let refusal = |metric: &str| Some(format!("{metric} requires ground-truth labels (Y)"));
    assert_eq!(equal_opportunity(o, 0).err(), refusal("equal opportunity"));
    assert_eq!(fnr_balance(o, 0).err(), refusal("FNR balance"));
    assert_eq!(equalized_odds(o, 0).err(), refusal("equalized odds"));
    assert_eq!(predictive_parity(o, 0).err(), refusal("predictive parity"));
    assert_eq!(fpr_balance(o, 0).err(), refusal("FPR balance"));
    assert_eq!(accuracy_equality(o, 0).err(), refusal("accuracy equality"));
    assert_eq!(
        group_confusions(o).err(),
        refusal("group confusion matrices")
    );
}

/// Random protected groups (1–4 levels), one stratum column (1–3
/// levels), labels and predictions.
fn stratified_dataset<R: Rng>(rng: &mut R) -> Dataset {
    let (preds, labels, codes, k) = coded_rows(rng);
    let n_strata = rng.gen_range(1..4usize);
    let strata = (0..codes.len())
        .map(|_| rng.gen_range(0..n_strata) as u32)
        .collect();
    Dataset::builder()
        .categorical_with_role("g", LEVELS[..k].to_vec(), codes, Role::Protected)
        .categorical_with_role("s", vec!["s0", "s1", "s2"], strata, Role::Feature)
        .boolean_with_role("y", labels, Role::Label)
        .boolean_with_role("r", preds, Role::Prediction)
        .build()
        .unwrap()
}

/// Conditional statistical parity (Eq. 2) and conditional demographic
/// disparity (Eq. 6), stratum by stratum, against each stratum's rows
/// bucketed by group.
#[test]
fn conditional_definitions_match_the_bucket_oracle() {
    let mut rng = StdRng::seed_from_u64(0x3E_0A);
    for case in 0..CASES {
        let ds = stratified_dataset(&mut rng);
        let index = |column: &str| GroupIndex::build(&ds, &[column]).unwrap();
        let (strata, groups) = (index("s"), index("g"));
        for on_labels in [false, true] {
            let decisions = if on_labels {
                ds.labels()
            } else {
                ds.predictions()
            }
            .unwrap();
            let buckets = oracle::stratum_selection(&strata, &groups, decisions);
            for min in [0, 2, 5, 100] {
                let ctx = format!("case {case}, on_labels {on_labels}, min {min}");
                let got = if on_labels {
                    conditional_parity_on_labels(&ds, &["g"], &["s"], min)
                } else {
                    conditional_statistical_parity(&ds, &["g"], &["s"], min)
                }
                .unwrap();
                assert_eq!(got.strata.len(), buckets.len(), "{ctx}");
                let mut worst: Option<(f64, &GroupKey)> = None;
                for (stratum, (key, n, rates)) in got.strata.iter().zip(&buckets) {
                    assert_eq!((&stratum.stratum, stratum.n), (key, *n), "{ctx}");
                    let want = ParityReport {
                        rates: rates.clone(),
                        summary: GapSummary::from_rates(rates, min),
                        skipped_small_groups: oracle::skipped(rates, min),
                    };
                    oracle::assert_same(&stratum.parity, &want, &ctx);
                    let gap = want.summary.gap;
                    if !gap.is_nan() && worst.map_or(true, |(w, _)| gap > w) {
                        worst = Some((gap, key));
                    }
                }
                let (worst_gap, worst_stratum) =
                    worst.map_or((f64::NAN, None), |(g, k)| (g, Some(k)));
                assert_eq!(got.worst_gap.to_bits(), worst_gap.to_bits(), "{ctx}");
                assert_eq!(got.worst_stratum.as_ref(), worst_stratum, "{ctx}");
                assert_eq!(got.is_fair(TOL), oracle::within(worst_gap, TOL), "{ctx}");
            }

            let got = conditional_demographic_disparity(&ds, &["g"], &["s"], on_labels).unwrap();
            let ctx = format!("case {case}, on_labels {on_labels}");
            assert_eq!(got.strata.len(), buckets.len(), "{ctx}");
            for (stratum, (key, _, rates)) in got.strata.iter().zip(&buckets) {
                assert_eq!(&stratum.stratum, key, "{ctx}");
                let want: Vec<GroupDisparity> = rates
                    .iter()
                    .filter(|stat| stat.n > 0)
                    .map(|stat| GroupDisparity {
                        stat: stat.clone(),
                        fair: stat.rate >= 0.5,
                    })
                    .collect();
                oracle::assert_same(&stratum.groups, &want, &ctx);
            }
        }
    }
}
