//! Equal opportunity — paper Section III.C, Eq. (3):
//!
//! > Pr(R = + | Y = +, A = a) = Pr(R = + | Y = +, A = b)  ∀ a, b ∈ A
//!
//! The positive outcome must be independent of the protected class among
//! *actual positives*: equal true-positive rates per group. Unlike
//! demographic parity this definition consults the ground truth `Y`.

use crate::outcome::{GapSummary, Outcomes, RateStat};

/// The equal-opportunity report: per-group TPR plus gap summary.
#[derive(Debug, Clone, PartialEq)]
pub struct OpportunityReport {
    /// Pr(R = + | Y = +, A = a) per group.
    pub tpr: Vec<RateStat>,
    /// Gap/ratio summary over qualifying groups.
    pub summary: GapSummary,
}

impl OpportunityReport {
    /// Builds the report from per-group rates conditioned on the actual
    /// positives (TPRs, or FNRs for [`fnr_balance`]).
    pub fn from_rates(tpr: Vec<RateStat>, min_group_size: usize) -> OpportunityReport {
        let summary = GapSummary::from_rates(&tpr, min_group_size);
        OpportunityReport { tpr, summary }
    }

    /// Whether TPRs agree within `tolerance`.
    pub fn is_fair(&self, tolerance: f64) -> bool {
        !self.summary.gap.is_nan() && self.summary.gap <= tolerance
    }
}

/// Computes equal opportunity (Eq. 3).
///
/// `min_group_size` is the minimum number of *actual positives* a group
/// needs for its TPR to enter the summary.
pub fn equal_opportunity(
    outcomes: &Outcomes,
    min_group_size: usize,
) -> Result<OpportunityReport, String> {
    let tpr = outcomes.labelled_counts("equal opportunity")?.tpr_rates()?;
    Ok(OpportunityReport::from_rates(tpr, min_group_size))
}

/// False-negative-rate balance, the complement view of equal opportunity:
/// Pr(R = − | Y = +, A = a) per group. Gaps are identical to the TPR gaps.
pub fn fnr_balance(
    outcomes: &Outcomes,
    min_group_size: usize,
) -> Result<OpportunityReport, String> {
    let fnr = outcomes.labelled_counts("FNR balance")?.fnr_rates()?;
    Ok(OpportunityReport::from_rates(fnr, min_group_size))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's III.C example: 20 males (10 good matches, 5 of them
    /// hired), 10 females (6 good matches, k hired among the good ones).
    fn paper_example(good_females_hired: usize) -> Outcomes {
        let mut preds = Vec::new();
        let mut labels = Vec::new();
        let mut codes = Vec::new();
        // 10 good-match males, 5 hired
        for i in 0..10 {
            preds.push(i < 5);
            labels.push(true);
            codes.push(0);
        }
        // 10 bad-match males, none hired
        for _ in 0..10 {
            preds.push(false);
            labels.push(false);
            codes.push(0);
        }
        // 6 good-match females, k hired
        for i in 0..6 {
            preds.push(i < good_females_hired);
            labels.push(true);
            codes.push(1);
        }
        // 4 bad-match females
        for _ in 0..4 {
            preds.push(false);
            labels.push(false);
            codes.push(1);
        }
        Outcomes::from_slices(&preds, Some(&labels), &codes, &["male", "female"]).unwrap()
    }

    #[test]
    fn paper_iii_c_exact_numbers() {
        // "If 5 males that are good matches get the outcome hire, then we
        // have a 50% probability of males being hired conditioned they are
        // good matches ... 3 females should be hired conditioned that they
        // are good matches."
        let report = equal_opportunity(&paper_example(3), 0).unwrap();
        for r in &report.tpr {
            assert!((r.rate - 0.5).abs() < 1e-12);
        }
        assert!(report.is_fair(1e-9));
        // female group conditions on its 6 good matches
        let female = report
            .tpr
            .iter()
            .find(|r| r.group.levels()[0] == "female")
            .unwrap();
        assert_eq!(female.n, 6);
        assert_eq!(female.positives, 3);
    }

    #[test]
    fn fewer_than_three_is_biased_against_females() {
        let report = equal_opportunity(&paper_example(1), 0).unwrap();
        assert!(!report.is_fair(0.05));
        assert_eq!(
            report.summary.min_group.as_ref().unwrap().levels()[0],
            "female"
        );
        assert!((report.summary.gap - (0.5 - 1.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn more_than_three_is_biased_against_males() {
        let report = equal_opportunity(&paper_example(6), 0).unwrap();
        assert!(!report.is_fair(0.05));
        assert_eq!(
            report.summary.min_group.as_ref().unwrap().levels()[0],
            "male"
        );
    }

    #[test]
    fn requires_labels() {
        let o = Outcomes::from_slices(&[true], None, &[0], &["a"]).unwrap();
        assert!(equal_opportunity(&o, 0).is_err());
    }

    #[test]
    fn fnr_complements_tpr() {
        let o = paper_example(2);
        let tpr = equal_opportunity(&o, 0).unwrap();
        let fnr = fnr_balance(&o, 0).unwrap();
        for (t, f) in tpr.tpr.iter().zip(&fnr.tpr) {
            assert!((t.rate + f.rate - 1.0).abs() < 1e-12);
        }
        assert!((tpr.summary.gap - fnr.summary.gap).abs() < 1e-12);
    }

    #[test]
    fn group_without_positives_is_skipped() {
        // group b has no actual positives → NaN TPR, excluded
        let preds = vec![true, false, false];
        let labels = vec![true, true, false];
        let codes = vec![0, 0, 1];
        let o = Outcomes::from_slices(&preds, Some(&labels), &codes, &["a", "b"]).unwrap();
        let report = equal_opportunity(&o, 0).unwrap();
        let b = report
            .tpr
            .iter()
            .find(|r| r.group.levels()[0] == "b")
            .unwrap();
        assert!(b.rate.is_nan());
        assert!((report.summary.gap - 0.0).abs() < 1e-12); // only group a qualifies
    }
}
