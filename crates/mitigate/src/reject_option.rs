//! Reject-option classification (Kamiran, Karim & Zhang 2012) —
//! post-processing in the spirit of the paper's Section IV.A: decisions
//! near the decision boundary (where the model is least certain) are
//! reassigned in favour of the disadvantaged group.
//!
//! Outside the critical band `|score − 0.5| ≥ margin` decisions are left
//! untouched, so the intervention is minimal and auditable — a property
//! the proportionality test of EU indirect-discrimination doctrine
//! (Section II.A.3) cares about.

use fairbridge_metrics::outcome::GapSummary;
use fairbridge_metrics::GroupAccumulator;
use fairbridge_tabular::{Dataset, GroupIndex, GroupKey};

/// The reject-option rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectOptionRule {
    /// Half-width of the critical band around 0.5.
    pub margin: f64,
    /// Key of the disadvantaged group (gets + inside the band).
    pub disadvantaged: GroupKey,
}

/// The application result.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectOptionResult {
    /// Final decisions.
    pub decisions: Vec<bool>,
    /// Rows whose decision was changed by the rule.
    pub changed: Vec<usize>,
}

impl RejectOptionRule {
    /// Creates the rule; `margin` must be in (0, 0.5].
    pub fn new(margin: f64, disadvantaged: GroupKey) -> Result<RejectOptionRule, String> {
        if !(margin > 0.0 && margin <= 0.5) {
            return Err("margin must be in (0, 0.5]".to_owned());
        }
        Ok(RejectOptionRule {
            margin,
            disadvantaged,
        })
    }

    /// Applies the rule: inside the critical band, disadvantaged-group
    /// members get the favorable outcome and everyone else the
    /// unfavorable one; outside the band, the score's own verdict stands.
    pub fn apply(
        &self,
        ds: &Dataset,
        protected: &[&str],
        scores: &[f64],
    ) -> Result<RejectOptionResult, String> {
        let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;
        self.apply_over(&groups, scores)
    }

    /// [`RejectOptionRule::apply`] over an already built partition.
    fn apply_over(
        &self,
        groups: &GroupIndex,
        scores: &[f64],
    ) -> Result<RejectOptionResult, String> {
        if scores.len() != groups.n_rows() {
            return Err("scores length must match dataset rows".to_owned());
        }
        let disadvantaged = groups
            .keys()
            .binary_search(&self.disadvantaged)
            .map_err(|_| {
                format!(
                    "disadvantaged group {} not present in the data",
                    self.disadvantaged
                )
            })?;
        let mut decisions = Vec::with_capacity(scores.len());
        let mut changed = Vec::new();
        for (i, &s) in scores.iter().enumerate() {
            let base = s >= 0.5;
            let final_decision = if (s - 0.5).abs() < self.margin {
                groups.group_of(i) == disadvantaged
            } else {
                base
            };
            if final_decision != base {
                changed.push(i);
            }
            decisions.push(final_decision);
        }
        Ok(RejectOptionResult { decisions, changed })
    }
}

/// Fits the smallest margin (from `candidates`) whose post-rule
/// demographic-parity gap — the one the audit reports — falls below
/// `tolerance` on the calibration data. Returns the fitted rule, or the
/// candidate with the smallest gap if none reaches the tolerance (best
/// effort).
pub fn fit_margin(
    ds: &Dataset,
    protected: &[&str],
    scores: &[f64],
    disadvantaged: GroupKey,
    candidates: &[f64],
    tolerance: f64,
) -> Result<RejectOptionRule, String> {
    if candidates.is_empty() {
        return Err("no margin candidates supplied".to_owned());
    }
    let mut sorted = candidates.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN margin"));
    let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;

    // Return the smallest margin meeting the tolerance; if none does,
    // fall back to the candidate with the smallest achieved gap (a larger
    // margin can overshoot and invert the disparity, so "largest tried"
    // is not a safe default).
    let mut best: Option<(f64, RejectOptionRule)> = None;
    for &margin in &sorted {
        let rule = RejectOptionRule::new(margin, disadvantaged.clone())?;
        let result = rule.apply_over(&groups, scores)?;
        let mut acc = GroupAccumulator::for_groups(&groups, false);
        acc.observe_rows(&groups, 0..scores.len(), &result.decisions, None);
        let gap = GapSummary::from_rates(&acc.selection_rates(), 0).gap;
        if gap <= tolerance {
            return Ok(rule);
        }
        if best.as_ref().map_or(true, |(g, _)| gap < *g) {
            best = Some((gap, rule));
        }
    }
    Ok(best.expect("candidates non-empty").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

    /// Scores depressed by 0.2 for group "f", on a fine grid so the band
    /// contains members of both groups at distinct positions.
    fn world() -> (Dataset, Vec<f64>) {
        let n = 400;
        let mut codes = Vec::new();
        let mut scores = Vec::new();
        for i in 0..n {
            let f = i % 2 == 1;
            let base = ((i / 2) % 40) as f64 / 40.0 + 0.0125;
            codes.push(u32::from(f));
            scores.push((base - if f { 0.2 } else { 0.0 }).clamp(0.0, 1.0));
        }
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], codes, Role::Protected)
            .boolean_with_role("y", vec![true; n], Role::Label)
            .build()
            .unwrap();
        (ds, scores)
    }

    fn gap(ds: &Dataset, decisions: &[bool]) -> f64 {
        let (_, codes) = ds.categorical("sex").unwrap();
        let rate = |c: u32| {
            let v: Vec<bool> = codes
                .iter()
                .zip(decisions)
                .filter_map(|(&g, &d)| (g == c).then_some(d))
                .collect();
            v.iter().filter(|&&d| d).count() as f64 / v.len() as f64
        };
        (rate(0) - rate(1)).abs()
    }

    #[test]
    fn rule_shrinks_the_gap_and_touches_only_the_band() {
        let (ds, scores) = world();
        let naive: Vec<bool> = scores.iter().map(|&s| s >= 0.5).collect();
        let before = gap(&ds, &naive);
        assert!(before > 0.15, "planted gap {before}");

        let rule = RejectOptionRule::new(0.15, GroupKey(vec!["f".into()])).unwrap();
        let result = rule.apply(&ds, &["sex"], &scores).unwrap();
        let after = gap(&ds, &result.decisions);
        assert!(after < before, "gap {before} -> {after}");
        // every changed row was inside the band
        for &i in &result.changed {
            assert!((scores[i] - 0.5).abs() < 0.15, "row {i} outside band");
        }
        // rows far from the boundary untouched
        for (i, &s) in scores.iter().enumerate() {
            if (s - 0.5).abs() >= 0.15 {
                assert_eq!(result.decisions[i], s >= 0.5);
            }
        }
    }

    #[test]
    fn wider_margin_changes_more_rows() {
        let (ds, scores) = world();
        let narrow = RejectOptionRule::new(0.05, GroupKey(vec!["f".into()]))
            .unwrap()
            .apply(&ds, &["sex"], &scores)
            .unwrap();
        let wide = RejectOptionRule::new(0.3, GroupKey(vec!["f".into()]))
            .unwrap()
            .apply(&ds, &["sex"], &scores)
            .unwrap();
        assert!(wide.changed.len() >= narrow.changed.len());
    }

    #[test]
    fn fit_margin_picks_smallest_sufficient() {
        let (ds, scores) = world();
        let rule = fit_margin(
            &ds,
            &["sex"],
            &scores,
            GroupKey(vec!["f".into()]),
            &[0.05, 0.1, 0.15, 0.25, 0.35],
            0.05,
        )
        .unwrap();
        let result = rule.apply(&ds, &["sex"], &scores).unwrap();
        assert!(gap(&ds, &result.decisions) <= 0.05 + 1e-9);
        // a smaller candidate would not have sufficed
        if rule.margin > 0.05 {
            let smaller = RejectOptionRule::new(rule.margin - 0.05, GroupKey(vec!["f".into()]))
                .unwrap()
                .apply(&ds, &["sex"], &scores)
                .unwrap();
            assert!(gap(&ds, &smaller.decisions) > 0.05);
        }
    }

    #[test]
    fn validates_inputs() {
        let (ds, scores) = world();
        assert!(RejectOptionRule::new(0.0, GroupKey(vec!["f".into()])).is_err());
        assert!(RejectOptionRule::new(0.6, GroupKey(vec!["f".into()])).is_err());
        let rule = RejectOptionRule::new(0.1, GroupKey(vec!["nope".into()])).unwrap();
        assert!(rule.apply(&ds, &["sex"], &scores).is_err());
        let ok = RejectOptionRule::new(0.1, GroupKey(vec!["f".into()])).unwrap();
        assert!(ok.apply(&ds, &["sex"], &scores[..3]).is_err());
    }
}
