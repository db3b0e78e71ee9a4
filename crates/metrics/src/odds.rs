//! Equalized odds — paper Section III.D, Eq. (4):
//!
//! > Pr(R = + | Y = y, A = a) = Pr(R = + | Y = y, A = b)
//! >   for y ∈ {+, −}, ∀ a, b ∈ A
//!
//! "More restrictive since it demands that individuals in protected and
//! unprotected groups have equal true positive rate and equal false
//! positive rate."

use crate::outcome::{GapSummary, Outcomes, RateStat};

/// The equalized-odds report: per-group TPR and FPR with separate
/// summaries; the overall gap is the max of the two.
#[derive(Debug, Clone, PartialEq)]
pub struct OddsReport {
    /// Pr(R = + | Y = +, A = a) per group.
    pub tpr: Vec<RateStat>,
    /// Pr(R = + | Y = −, A = a) per group.
    pub fpr: Vec<RateStat>,
    /// Gap summary of the TPRs.
    pub tpr_summary: GapSummary,
    /// Gap summary of the FPRs.
    pub fpr_summary: GapSummary,
}

impl OddsReport {
    /// Builds the report from per-group TPRs and FPRs, each summarized
    /// over the groups with at least `min_group_size` rows in its
    /// denominator.
    pub fn from_rates(tpr: Vec<RateStat>, fpr: Vec<RateStat>, min_group_size: usize) -> OddsReport {
        let tpr_summary = GapSummary::from_rates(&tpr, min_group_size);
        let fpr_summary = GapSummary::from_rates(&fpr, min_group_size);
        OddsReport {
            tpr,
            fpr,
            tpr_summary,
            fpr_summary,
        }
    }

    /// The binding constraint: max of the TPR gap and the FPR gap.
    pub fn worst_gap(&self) -> f64 {
        match (self.tpr_summary.gap.is_nan(), self.fpr_summary.gap.is_nan()) {
            (true, true) => f64::NAN,
            (true, false) => self.fpr_summary.gap,
            (false, true) => self.tpr_summary.gap,
            (false, false) => self.tpr_summary.gap.max(self.fpr_summary.gap),
        }
    }

    /// Whether both rate pairs agree within `tolerance`.
    pub fn is_fair(&self, tolerance: f64) -> bool {
        let w = self.worst_gap();
        !w.is_nan() && w <= tolerance
    }
}

/// Computes equalized odds (Eq. 4).
///
/// `min_group_size` applies to the conditional denominators: a group needs
/// at least that many actual positives (for TPR) or actual negatives (for
/// FPR) to enter the respective summary.
pub fn equalized_odds(outcomes: &Outcomes, min_group_size: usize) -> Result<OddsReport, String> {
    let acc = outcomes.labelled_counts("equalized odds")?;
    Ok(OddsReport::from_rates(
        acc.tpr_rates()?,
        acc.fpr_rates()?,
        min_group_size,
    ))
}

/// Average-odds difference: mean of the TPR gap and FPR gap — a scalar
/// summary used by several toolkits for trend plots.
pub fn average_odds_difference(report: &OddsReport) -> f64 {
    0.5 * (report.tpr_summary.gap + report.fpr_summary.gap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's III.D example: 12 males (6 good matches), 6 females
    /// (3 good matches); the model hires 9 and rejects 9. Fair outcome:
    /// all good matches hired, all bad matches rejected.
    fn paper_example(fair: bool) -> Outcomes {
        let mut preds = Vec::new();
        let mut labels = Vec::new();
        let mut codes = Vec::new();
        // 6 good-match males — all hired
        for _ in 0..6 {
            preds.push(true);
            labels.push(true);
            codes.push(0);
        }
        // 6 bad-match males — all rejected
        for _ in 0..6 {
            preds.push(false);
            labels.push(false);
            codes.push(0);
        }
        if fair {
            // 3 good-match females hired, 3 bad-match rejected
            for _ in 0..3 {
                preds.push(true);
                labels.push(true);
                codes.push(1);
            }
            for _ in 0..3 {
                preds.push(false);
                labels.push(false);
                codes.push(1);
            }
        } else {
            // inverted for females: good matches rejected, bad hired
            for _ in 0..3 {
                preds.push(false);
                labels.push(true);
                codes.push(1);
            }
            for _ in 0..3 {
                preds.push(true);
                labels.push(false);
                codes.push(1);
            }
        }
        Outcomes::from_slices(&preds, Some(&labels), &codes, &["male", "female"]).unwrap()
    }

    #[test]
    fn paper_iii_d_fair_case() {
        // "the model should hire all the 3 females who are good matches
        // and reject all the 3 females who are bad matches" → TPR = 100%
        // and FPR = 0% for both groups.
        let report = equalized_odds(&paper_example(true), 0).unwrap();
        for r in &report.tpr {
            assert!((r.rate - 1.0).abs() < 1e-12);
        }
        for r in &report.fpr {
            assert!(r.rate.abs() < 1e-12);
        }
        assert!(report.is_fair(1e-9));
        assert_eq!(report.worst_gap(), 0.0);
        // 9 hired, 9 rejected in total, as the example stipulates
        let o = paper_example(true);
        assert_eq!(o.predictions.iter().filter(|&&p| p).count(), 9);
    }

    #[test]
    fn paper_iii_d_unfair_case() {
        let report = equalized_odds(&paper_example(false), 0).unwrap();
        assert!(!report.is_fair(0.1));
        assert!((report.tpr_summary.gap - 1.0).abs() < 1e-12);
        assert!((report.fpr_summary.gap - 1.0).abs() < 1e-12);
        assert!((average_odds_difference(&report) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tpr_fair_fpr_unfair_detected() {
        // Equal opportunity satisfied but equalized odds violated.
        let mut preds = Vec::new();
        let mut labels = Vec::new();
        let mut codes = Vec::new();
        for g in 0..2u32 {
            // 4 positives per group, 2 hired → TPR 0.5 both
            for i in 0..4 {
                preds.push(i < 2);
                labels.push(true);
                codes.push(g);
            }
            // 4 negatives per group; group 0: none hired, group 1: all hired
            for _ in 0..4 {
                preds.push(g == 1);
                labels.push(false);
                codes.push(g);
            }
        }
        let o = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let eo = crate::opportunity::equal_opportunity(&o, 0).unwrap();
        assert!(eo.is_fair(1e-9));
        let odds = equalized_odds(&o, 0).unwrap();
        assert!(!odds.is_fair(0.1));
        assert!((odds.fpr_summary.gap - 1.0).abs() < 1e-12);
        assert!((odds.worst_gap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn requires_labels() {
        let o = Outcomes::from_slices(&[true], None, &[0], &["a"]).unwrap();
        assert!(equalized_odds(&o, 0).is_err());
    }

    #[test]
    fn worst_gap_handles_nan_sides() {
        // No actual negatives anywhere → FPR NaN, worst gap = TPR gap.
        let preds = vec![true, false, true, true];
        let labels = vec![true, true, true, true];
        let codes = vec![0, 0, 1, 1];
        let o = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let r = equalized_odds(&o, 0).unwrap();
        assert!(r.fpr_summary.gap.is_nan());
        assert!((r.worst_gap() - 0.5).abs() < 1e-12);
    }
}
