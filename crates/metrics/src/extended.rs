//! Extended metric canon referenced by the paper's §V discussion:
//! predictive parity, calibration within groups, accuracy equality,
//! treatment equality, FPR balance and per-group confusion matrices.

use crate::outcome::{GapSummary, Outcomes, RateStat};
use fairbridge_learn::eval::{expected_calibration_error, Confusion};
use fairbridge_tabular::GroupKey;

/// Per-group confusion matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupConfusions {
    /// `(group, confusion)` pairs in group-key order.
    pub groups: Vec<(GroupKey, Confusion)>,
}

/// Builds per-group confusion matrices (requires labels).
pub fn group_confusions(outcomes: &Outcomes) -> Result<GroupConfusions, String> {
    let acc = outcomes.labelled_counts("group confusion matrices")?;
    let groups = acc
        .keys()
        .iter()
        .zip(acc.counts())
        .map(|(key, c)| {
            let confusion = Confusion {
                tp: c.tp,
                fp: c.fp,
                tn: c.tn(),
                fn_: c.fn_(),
            };
            (key.clone(), confusion)
        })
        .collect();
    Ok(GroupConfusions { groups })
}

/// A generic per-group rate report (rate definition given by the caller).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRateReport {
    /// Per-group statistics.
    pub rates: Vec<RateStat>,
    /// Gap/ratio summary.
    pub summary: GapSummary,
}

impl GroupRateReport {
    /// Builds the report from per-group rates, summarized over the groups
    /// with at least `min_group_size` rows in the rate's denominator.
    pub fn from_rates(rates: Vec<RateStat>, min_group_size: usize) -> GroupRateReport {
        let summary = GapSummary::from_rates(&rates, min_group_size);
        GroupRateReport { rates, summary }
    }

    /// Whether rates agree within `tolerance`.
    pub fn is_fair(&self, tolerance: f64) -> bool {
        !self.summary.gap.is_nan() && self.summary.gap <= tolerance
    }
}

/// Predictive parity: equal precision Pr(Y = + | R = +, A = a) per group.
pub fn predictive_parity(
    outcomes: &Outcomes,
    min_group_size: usize,
) -> Result<GroupRateReport, String> {
    let ppv = outcomes.labelled_counts("predictive parity")?.ppv_rates()?;
    Ok(GroupRateReport::from_rates(ppv, min_group_size))
}

/// False-positive-rate balance: equal Pr(R = + | Y = −, A = a) per group
/// (one half of equalized odds; legally salient in punitive settings where
/// a false positive is the harm).
pub fn fpr_balance(outcomes: &Outcomes, min_group_size: usize) -> Result<GroupRateReport, String> {
    let fpr = outcomes.labelled_counts("FPR balance")?.fpr_rates()?;
    Ok(GroupRateReport::from_rates(fpr, min_group_size))
}

/// Accuracy equality: equal Pr(R = Y | A = a) per group.
pub fn accuracy_equality(
    outcomes: &Outcomes,
    min_group_size: usize,
) -> Result<GroupRateReport, String> {
    let accuracy = outcomes
        .labelled_counts("accuracy equality")?
        .accuracy_rates()?;
    Ok(GroupRateReport::from_rates(accuracy, min_group_size))
}

/// Treatment equality: the per-group ratio FN/FP, compared across groups.
/// Returns `(group, fn/fp)` pairs and the max−min gap (NaN-producing
/// groups with zero FPs are skipped).
#[derive(Debug, Clone, PartialEq)]
pub struct TreatmentEqualityReport {
    /// `(group, FN/FP ratio)` per group (NaN when the group has no FPs).
    pub ratios: Vec<(GroupKey, f64)>,
    /// Max − min ratio across groups with finite ratios.
    pub gap: f64,
}

/// Computes treatment equality.
pub fn treatment_equality(outcomes: &Outcomes) -> Result<TreatmentEqualityReport, String> {
    let confusions = group_confusions(outcomes)?;
    let ratios: Vec<(GroupKey, f64)> = confusions
        .groups
        .iter()
        .map(|(key, c)| {
            let ratio = if c.fp == 0 {
                f64::NAN
            } else {
                c.fn_ as f64 / c.fp as f64
            };
            (key.clone(), ratio)
        })
        .collect();
    let finite: Vec<f64> = ratios
        .iter()
        .map(|(_, r)| *r)
        .filter(|r| r.is_finite())
        .collect();
    let gap = if finite.len() < 2 {
        f64::NAN
    } else {
        finite.iter().cloned().fold(f64::MIN, f64::max)
            - finite.iter().cloned().fold(f64::MAX, f64::min)
    };
    Ok(TreatmentEqualityReport { ratios, gap })
}

/// Calibration within groups: expected calibration error per group over
/// probabilistic scores, plus the worst per-group ECE.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCalibrationReport {
    /// `(group, ECE)` pairs.
    pub ece: Vec<(GroupKey, f64)>,
    /// The largest per-group ECE.
    pub worst: f64,
}

/// Computes per-group calibration from scores (not hard decisions).
pub fn calibration_within_groups(
    outcomes: &Outcomes,
    scores: &[f64],
    n_bins: usize,
) -> Result<GroupCalibrationReport, String> {
    if scores.len() != outcomes.n() {
        return Err("scores length must match outcome count".to_owned());
    }
    let labels = outcomes.require_labels("calibration within groups")?;
    let mut ece = Vec::new();
    let mut worst = 0.0f64;
    for (key, rows) in outcomes.groups.iter() {
        let y: Vec<bool> = rows.iter().map(|&i| labels[i]).collect();
        let s: Vec<f64> = rows.iter().map(|&i| scores[i]).collect();
        let e = expected_calibration_error(&y, &s, n_bins);
        if e.is_finite() && e > worst {
            worst = e;
        }
        ece.push((key.clone(), e));
    }
    Ok(GroupCalibrationReport { ece, worst })
}

/// Per-group ROC-AUC: whether the scores rank positives above negatives
/// equally well in every group (a ranking-quality analogue of accuracy
/// equality; large per-group AUC gaps mean the scores are differently
/// informative across groups even if thresholds are repaired).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAucReport {
    /// `(group, AUC)` pairs (NaN when a group lacks one of the classes).
    pub auc: Vec<(GroupKey, f64)>,
    /// Max − min AUC over groups with defined AUC (NaN if fewer than 2).
    pub gap: f64,
}

/// Computes per-group ROC-AUC from scores.
pub fn auc_within_groups(outcomes: &Outcomes, scores: &[f64]) -> Result<GroupAucReport, String> {
    if scores.len() != outcomes.n() {
        return Err("scores length must match outcome count".to_owned());
    }
    let labels = outcomes.require_labels("per-group AUC")?;
    let mut auc = Vec::new();
    for (key, rows) in outcomes.groups.iter() {
        let y: Vec<bool> = rows.iter().map(|&i| labels[i]).collect();
        let s: Vec<f64> = rows.iter().map(|&i| scores[i]).collect();
        auc.push((key.clone(), fairbridge_learn::eval::roc_auc(&y, &s)));
    }
    let finite: Vec<f64> = auc
        .iter()
        .map(|(_, a)| *a)
        .filter(|a| a.is_finite())
        .collect();
    let gap = if finite.len() < 2 {
        f64::NAN
    } else {
        finite.iter().cloned().fold(f64::MIN, f64::max)
            - finite.iter().cloned().fold(f64::MAX, f64::min)
    };
    Ok(GroupAucReport { auc, gap })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes() -> Outcomes {
        // group a: y [1,1,0,0] r [1,0,1,0] → tp1 fp1 tn1 fn1
        // group b: y [1,1,1,0] r [1,1,0,0] → tp2 fn1 tn1
        let labels = vec![true, true, false, false, true, true, true, false];
        let preds = vec![true, false, true, false, true, true, false, false];
        let codes = vec![0, 0, 0, 0, 1, 1, 1, 1];
        Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap()
    }

    #[test]
    fn group_confusions_counts() {
        let gc = group_confusions(&outcomes()).unwrap();
        assert_eq!(gc.groups.len(), 2);
        let a = &gc.groups[0].1;
        assert_eq!((a.tp, a.fp, a.tn, a.fn_), (1, 1, 1, 1));
        let b = &gc.groups[1].1;
        assert_eq!((b.tp, b.fp, b.tn, b.fn_), (2, 0, 1, 1));
    }

    #[test]
    fn predictive_parity_rates() {
        let r = predictive_parity(&outcomes(), 0).unwrap();
        // group a precision = 1/2, group b = 2/2
        let a = r.rates.iter().find(|x| x.group.levels()[0] == "a").unwrap();
        assert!((a.rate - 0.5).abs() < 1e-12);
        let b = r.rates.iter().find(|x| x.group.levels()[0] == "b").unwrap();
        assert!((b.rate - 1.0).abs() < 1e-12);
        assert!((r.summary.gap - 0.5).abs() < 1e-12);
        assert!(!r.is_fair(0.1));
    }

    #[test]
    fn accuracy_equality_rates() {
        let r = accuracy_equality(&outcomes(), 0).unwrap();
        // a: 2/4 correct, b: 3/4 correct
        assert!((r.summary.gap - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fpr_balance_rates() {
        let r = fpr_balance(&outcomes(), 0).unwrap();
        let a = r.rates.iter().find(|x| x.group.levels()[0] == "a").unwrap();
        assert!((a.rate - 0.5).abs() < 1e-12);
        let b = r.rates.iter().find(|x| x.group.levels()[0] == "b").unwrap();
        assert!(b.rate.abs() < 1e-12);
    }

    #[test]
    fn treatment_equality_handles_zero_fp() {
        let r = treatment_equality(&outcomes()).unwrap();
        // a: fn/fp = 1/1 = 1; b: fp = 0 → NaN skipped
        let a = r.ratios.iter().find(|(k, _)| k.levels()[0] == "a").unwrap();
        assert!((a.1 - 1.0).abs() < 1e-12);
        let b = r.ratios.iter().find(|(k, _)| k.levels()[0] == "b").unwrap();
        assert!(b.1.is_nan());
        assert!(r.gap.is_nan()); // fewer than two finite ratios
    }

    #[test]
    fn calibration_within_groups_detects_group_miscalibration() {
        // group a perfectly calibrated at 0.5; group b predicted 0.9 but
        // observes 0.5.
        let labels: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let codes: Vec<u32> = (0..200).map(|i| u32::from(i >= 100)).collect();
        let preds = vec![true; 200]; // irrelevant here
        let scores: Vec<f64> = (0..200).map(|i| if i < 100 { 0.5 } else { 0.9 }).collect();
        let o = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let r = calibration_within_groups(&o, &scores, 10).unwrap();
        let a = r.ece.iter().find(|(k, _)| k.levels()[0] == "a").unwrap();
        let b = r.ece.iter().find(|(k, _)| k.levels()[0] == "b").unwrap();
        assert!(a.1 < 0.05, "group a ece {}", a.1);
        assert!((b.1 - 0.4).abs() < 0.05, "group b ece {}", b.1);
        assert!((r.worst - b.1).abs() < 1e-12);
    }

    #[test]
    fn calibration_validates_lengths() {
        let o = outcomes();
        assert!(calibration_within_groups(&o, &[0.5; 3], 10).is_err());
    }

    #[test]
    fn auc_within_groups_detects_differential_ranking_quality() {
        // group a: scores perfectly rank labels; group b: scores are
        // anti-correlated with labels.
        let labels = vec![false, false, true, true, false, false, true, true];
        let scores = vec![0.1, 0.2, 0.8, 0.9, 0.8, 0.9, 0.1, 0.2];
        let codes = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let preds = vec![false; 8];
        let o = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let r = auc_within_groups(&o, &scores).unwrap();
        let a = r.auc.iter().find(|(k, _)| k.levels()[0] == "a").unwrap().1;
        let b = r.auc.iter().find(|(k, _)| k.levels()[0] == "b").unwrap().1;
        assert!((a - 1.0).abs() < 1e-12);
        assert!(b.abs() < 1e-12);
        assert!((r.gap - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_within_groups_handles_single_class_groups() {
        let labels = vec![true, true, true, false];
        let scores = vec![0.9, 0.8, 0.7, 0.2];
        let codes = vec![0, 0, 1, 1];
        let preds = vec![true; 4];
        let o = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let r = auc_within_groups(&o, &scores).unwrap();
        let a = r.auc.iter().find(|(k, _)| k.levels()[0] == "a").unwrap().1;
        assert!(a.is_nan()); // group a has positives only
        assert!(r.gap.is_nan()); // fewer than two defined AUCs
        assert!(auc_within_groups(&o, &[0.5; 2]).is_err());
    }
}
