//! Demographic parity — paper Section III.A, Eq. (1):
//!
//! > Pr(R = + | A = a) = Pr(R = + | A = b)  ∀ a, b ∈ A
//!
//! "The proportion of each segment of a protected class should receive
//! the positive outcome at equal rates."

use crate::accumulator::GroupAccumulator;
use crate::outcome::{GapSummary, Outcomes, RateStat};

/// The demographic-parity report: per-group selection rates plus the
/// worst-case gap/ratio summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityReport {
    /// P(R = + | A = a) for each group, in group-key order.
    pub rates: Vec<RateStat>,
    /// Gap / disparate-impact ratio across qualifying groups.
    pub summary: GapSummary,
    /// Groups below the minimum size that were excluded from the summary.
    pub skipped_small_groups: usize,
}

impl ParityReport {
    /// Builds the report from per-group selection rates: groups with
    /// fewer than `min_group_size` rows stay in `rates` but are left out
    /// of the summary.
    pub fn from_rates(rates: Vec<RateStat>, min_group_size: usize) -> ParityReport {
        let summary = GapSummary::from_rates(&rates, min_group_size);
        let skipped_small_groups = rates.iter().filter(|r| r.n < min_group_size).count();
        ParityReport {
            rates,
            summary,
            skipped_small_groups,
        }
    }

    /// Whether the report satisfies parity within `tolerance` on the gap.
    pub fn is_fair(&self, tolerance: f64) -> bool {
        !self.summary.gap.is_nan() && self.summary.gap <= tolerance
    }

    /// Applies the disparate-impact screen at `threshold` (in `[0, 1]`,
    /// else this panics) to the summary's impact ratio.
    pub fn disparate_impact(&self, threshold: f64) -> FourFifthsVerdict {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        let ratio = self.summary.ratio;
        FourFifthsVerdict {
            impact_ratio: ratio,
            threshold,
            passes: !ratio.is_nan() && ratio >= threshold,
        }
    }
}

/// Computes demographic parity (Eq. 1) over an outcome view.
///
/// `min_group_size` excludes statistically meaningless groups from the
/// gap/ratio summary (they still appear in `rates`).
///
/// # Examples
///
/// The paper's III.A cohort — 20 males (10 hired), 10 females (5 hired)
/// — satisfies parity exactly:
///
/// ```
/// use fairbridge_metrics::{demographic_parity, Outcomes};
///
/// let mut preds = vec![true; 10];          // 10 males hired
/// preds.extend(vec![false; 10]);           // 10 males rejected
/// preds.extend(vec![true; 5]);             // 5 females hired
/// preds.extend(vec![false; 5]);            // 5 females rejected
/// let codes: Vec<u32> = std::iter::repeat(0).take(20)
///     .chain(std::iter::repeat(1).take(10)).collect();
/// let outcomes = Outcomes::from_slices(&preds, None, &codes,
///     &["male", "female"]).unwrap();
///
/// let report = demographic_parity(&outcomes, 0);
/// assert!(report.is_fair(1e-9));
/// assert!(report.summary.gap.abs() < 1e-12);
/// ```
pub fn demographic_parity(outcomes: &Outcomes, min_group_size: usize) -> ParityReport {
    ParityReport::from_rates(
        GroupAccumulator::from_outcomes(outcomes).selection_rates(),
        min_group_size,
    )
}

/// The four-fifths (80%) rule of the EEOC's Uniform Guidelines — the
/// disparate-impact screen US enforcement practice applies (paper
/// Section II.B.4): the selection rate of any group must be at least
/// `threshold` (conventionally 0.8) of the highest group's rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FourFifthsVerdict {
    /// The observed minimum/maximum selection-rate ratio.
    pub impact_ratio: f64,
    /// The threshold applied (0.8 for the standard rule).
    pub threshold: f64,
    /// Whether the rule is satisfied.
    pub passes: bool,
}

/// Applies the four-fifths rule at a custom threshold.
pub fn disparate_impact(
    outcomes: &Outcomes,
    min_group_size: usize,
    threshold: f64,
) -> FourFifthsVerdict {
    demographic_parity(outcomes, min_group_size).disparate_impact(threshold)
}

/// Applies the standard 80% rule.
pub fn four_fifths(outcomes: &Outcomes, min_group_size: usize) -> FourFifthsVerdict {
    disparate_impact(outcomes, min_group_size, 0.8)
}

/// How many positive outcomes group `group_idx` would need (keeping its
/// size fixed) for its rate to match the reference group's rate — the
/// "5 females should be hired" arithmetic of the paper's III.A example.
pub fn required_positives_for_parity(
    report: &ParityReport,
    group_idx: usize,
    reference_idx: usize,
) -> f64 {
    let g = &report.rates[group_idx];
    let r = &report.rates[reference_idx];
    g.n as f64 * r.rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcomes;

    /// The paper's III.A example: 20 males, 10 hired; 10 females, k hired.
    fn paper_example(female_hired: usize) -> Outcomes {
        let mut preds = Vec::new();
        let mut codes = Vec::new();
        for i in 0..20 {
            preds.push(i < 10);
            codes.push(0);
        }
        for i in 0..10 {
            preds.push(i < female_hired);
            codes.push(1);
        }
        Outcomes::from_slices(&preds, None, &codes, &["male", "female"]).unwrap()
    }

    #[test]
    fn paper_iii_a_exact_numbers() {
        // "If 10 males receive the outcome hire, then we have a 50%
        // probability of males being hired. The model is considered fair
        // if the probability of females receiving the outcome hire is also
        // 50%, meaning that 5 females should be hired."
        let fair = demographic_parity(&paper_example(5), 0);
        assert!((fair.rates[1].rate - 0.5).abs() < 1e-12); // male rate (key order: female first? check below)
        assert!(fair.is_fair(1e-9));

        // required positives for females to match males = 5
        let report = demographic_parity(&paper_example(0), 0);
        // group keys are sorted: "female" < "male"
        assert_eq!(report.rates[0].group.levels()[0], "female");
        assert_eq!(report.rates[1].group.levels()[0], "male");
        let needed = required_positives_for_parity(&report, 0, 1);
        assert!((needed - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fewer_than_five_biased_against_females() {
        let report = demographic_parity(&paper_example(3), 0);
        assert!(!report.is_fair(0.01));
        assert_eq!(
            report.summary.min_group.as_ref().unwrap().levels()[0],
            "female"
        );
        assert!((report.summary.gap - 0.2).abs() < 1e-12);
    }

    #[test]
    fn more_than_five_biased_against_males() {
        let report = demographic_parity(&paper_example(8), 0);
        assert!(!report.is_fair(0.01));
        assert_eq!(
            report.summary.min_group.as_ref().unwrap().levels()[0],
            "male"
        );
    }

    #[test]
    fn four_fifths_rule() {
        // female rate 0.4 vs male 0.5 → ratio 0.8, passes exactly
        let v = four_fifths(&paper_example(4), 0);
        assert!((v.impact_ratio - 0.8).abs() < 1e-12);
        assert!(v.passes);
        // female rate 0.3 → ratio 0.6, fails
        let v = four_fifths(&paper_example(3), 0);
        assert!(!v.passes);
    }

    #[test]
    fn min_group_size_excludes_tiny_groups() {
        let preds = vec![true, true, false, false, true];
        let codes = vec![0, 0, 0, 0, 1];
        let o = Outcomes::from_slices(&preds, None, &codes, &["big", "tiny"]).unwrap();
        let strict = demographic_parity(&o, 3);
        assert_eq!(strict.skipped_small_groups, 1);
        // only "big" qualifies → gap 0
        assert!((strict.summary.gap - 0.0).abs() < 1e-12);
        let loose = demographic_parity(&o, 0);
        assert!((loose.summary.gap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_positive_ratio_is_one() {
        let o = Outcomes::from_slices(&[true, true], None, &[0, 1], &["a", "b"]).unwrap();
        let r = demographic_parity(&o, 0);
        assert_eq!(r.summary.ratio, 1.0);
        assert!(r.is_fair(0.0));
    }

    #[test]
    fn zero_max_rate_ratio_defined_as_one() {
        let o = Outcomes::from_slices(&[false, false], None, &[0, 1], &["a", "b"]).unwrap();
        let r = demographic_parity(&o, 0);
        assert_eq!(r.summary.ratio, 1.0);
        assert!(four_fifths(&o, 0).passes);
    }
}
