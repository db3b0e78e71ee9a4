//! Per-group decision thresholds (Hardt, Price & Srebro — paper ref \[6\]).
//!
//! Post-processing repair: keep the scorer, move each group's decision
//! threshold so that the chosen rate condition holds on a calibration set.
//! Supported objectives: equal opportunity (match TPRs, Eq. 3) and
//! demographic parity (match selection rates, Eq. 1).

use fairbridge_tabular::{Dataset, GroupIndex, GroupKey};
use std::collections::BTreeMap;

/// Which rate the per-group thresholds equalize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdObjective {
    /// Match each group's TPR to the overall TPR at threshold 0.5
    /// (equal opportunity, Eq. 3). Requires labels.
    EqualOpportunity,
    /// Match each group's selection rate to the overall selection rate at
    /// threshold 0.5 (demographic parity, Eq. 1).
    DemographicParity,
}

/// Fitted per-group thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupThresholds {
    /// The objective the thresholds were fitted for.
    pub objective: ThresholdObjective,
    /// Per-group thresholds.
    pub thresholds: BTreeMap<GroupKey, f64>,
    /// Fallback threshold for groups unseen at fit time.
    pub default_threshold: f64,
    /// The rate targeted (overall TPR or selection rate at 0.5).
    pub target_rate: f64,
}

impl GroupThresholds {
    /// Fits thresholds on a calibration dataset: `scores` are the model's
    /// probabilistic outputs for `ds`'s rows; groups come from the named
    /// protected columns. Labels are required for
    /// [`ThresholdObjective::EqualOpportunity`].
    pub fn fit(
        ds: &Dataset,
        protected: &[&str],
        scores: &[f64],
        objective: ThresholdObjective,
    ) -> Result<GroupThresholds, String> {
        if scores.len() != ds.n_rows() {
            return Err("scores length must match dataset rows".to_owned());
        }
        let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;
        let labels: Option<Vec<bool>> = match objective {
            ThresholdObjective::EqualOpportunity => {
                Some(ds.labels().map_err(|e| e.to_string())?.to_vec())
            }
            ThresholdObjective::DemographicParity => ds.labels().ok().map(<[bool]>::to_vec),
        };

        // Target rate: the rate achieved by the plain 0.5 threshold overall.
        let target_rate = match objective {
            ThresholdObjective::DemographicParity => {
                scores.iter().filter(|&&s| s >= 0.5).count() as f64 / scores.len().max(1) as f64
            }
            ThresholdObjective::EqualOpportunity => {
                let labels = labels.as_ref().expect("labels checked above");
                let pos: Vec<&f64> = scores
                    .iter()
                    .zip(labels)
                    .filter_map(|(s, &y)| y.then_some(s))
                    .collect();
                if pos.is_empty() {
                    return Err("equal opportunity fit requires positive instances".to_owned());
                }
                pos.iter().filter(|&&&s| s >= 0.5).count() as f64 / pos.len() as f64
            }
        };

        let mut thresholds = BTreeMap::new();
        for (key, rows) in groups.iter() {
            // The relevant score population for the rate condition.
            let pool: Vec<f64> = match objective {
                ThresholdObjective::DemographicParity => rows.iter().map(|&i| scores[i]).collect(),
                ThresholdObjective::EqualOpportunity => {
                    let labels = labels.as_ref().expect("labels checked above");
                    rows.iter()
                        .filter(|&&i| labels[i])
                        .map(|&i| scores[i])
                        .collect()
                }
            };
            let t = threshold_for_rate(&pool, target_rate);
            thresholds.insert(key.clone(), t);
        }
        Ok(GroupThresholds {
            objective,
            thresholds,
            default_threshold: 0.5,
            target_rate,
        })
    }

    /// Applies the thresholds: decisions for `ds`'s rows given `scores`.
    pub fn apply(
        &self,
        ds: &Dataset,
        protected: &[&str],
        scores: &[f64],
    ) -> Result<Vec<bool>, String> {
        if scores.len() != ds.n_rows() {
            return Err("scores length must match dataset rows".to_owned());
        }
        let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;
        let mut out = vec![false; ds.n_rows()];
        for (key, rows) in groups.iter() {
            let t = self
                .thresholds
                .get(key)
                .copied()
                .unwrap_or(self.default_threshold);
            for &i in rows {
                out[i] = scores[i] >= t;
            }
        }
        Ok(out)
    }

    /// The threshold fitted for a group, if any.
    pub fn threshold_for(&self, key: &GroupKey) -> Option<f64> {
        self.thresholds.get(key).copied()
    }
}

/// The threshold making `fraction ≥ t` of `pool` as close as possible to
/// `rate` from above (ties resolved toward selecting more).
fn threshold_for_rate(pool: &[f64], rate: f64) -> f64 {
    if pool.is_empty() {
        return 0.5;
    }
    let mut sorted = pool.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN score"));
    let n = sorted.len();
    // Selecting k of n gives rate k/n; want k ≈ rate·n.
    let k = (rate * n as f64).round() as usize;
    let k = k.min(n);
    if k == 0 {
        // threshold above the max selects nobody
        return sorted[n - 1] + 1e-9;
    }
    // Select the top k: threshold at the k-th largest value.
    sorted[n - k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_metrics::outcome::Outcomes;
    use fairbridge_metrics::parity::demographic_parity;
    use fairbridge_tabular::Role;

    /// Scores systematically depressed for group f.
    fn biased_scores() -> (Dataset, Vec<f64>) {
        let n = 100;
        let sex: Vec<u32> = (0..n).map(|i| u32::from(i >= 50)).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let scores: Vec<f64> = (0..n)
            .map(|i| {
                let merit = if i % 2 == 0 { 0.7 } else { 0.3 };
                let penalty = if i >= 50 { 0.25 } else { 0.0 };
                (merit - penalty + (i % 5) as f64 * 0.01).clamp(0.0, 1.0)
            })
            .collect();
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], sex, Role::Protected)
            .boolean_with_role("y", labels, Role::Label)
            .build()
            .unwrap();
        (ds, scores)
    }

    #[test]
    fn demographic_parity_thresholds_close_the_gap() {
        let (ds, scores) = biased_scores();
        // Before: plain 0.5 threshold is grossly unfair.
        let naive: Vec<bool> = scores.iter().map(|&s| s >= 0.5).collect();
        let ds_naive = ds.with_predictions("pred", naive).unwrap();
        let o = Outcomes::from_dataset(&ds_naive, &["sex"]).unwrap();
        let before = demographic_parity(&o, 0);
        assert!(before.summary.gap > 0.4);

        // After: fitted group thresholds equalize selection rates.
        let gt = GroupThresholds::fit(
            &ds,
            &["sex"],
            &scores,
            ThresholdObjective::DemographicParity,
        )
        .unwrap();
        let repaired = gt.apply(&ds, &["sex"], &scores).unwrap();
        let ds_fixed = ds.with_predictions("pred", repaired).unwrap();
        let o = Outcomes::from_dataset(&ds_fixed, &["sex"]).unwrap();
        let after = demographic_parity(&o, 0);
        assert!(after.summary.gap < 0.05, "gap {}", after.summary.gap);
        // the disadvantaged group got the lower threshold
        let tf = gt.threshold_for(&GroupKey(vec!["f".into()])).unwrap();
        let tm = gt.threshold_for(&GroupKey(vec!["m".into()])).unwrap();
        assert!(tf < tm);
    }

    #[test]
    fn equal_opportunity_thresholds_equalize_tpr() {
        let (ds, scores) = biased_scores();
        let gt = GroupThresholds::fit(&ds, &["sex"], &scores, ThresholdObjective::EqualOpportunity)
            .unwrap();
        let repaired = gt.apply(&ds, &["sex"], &scores).unwrap();
        let ds_fixed = ds.with_predictions("pred", repaired).unwrap();
        let o = Outcomes::from_dataset(&ds_fixed, &["sex"]).unwrap();
        let eo = fairbridge_metrics::opportunity::equal_opportunity(&o, 0).unwrap();
        assert!(eo.summary.gap < 0.06, "TPR gap {}", eo.summary.gap);
    }

    #[test]
    fn unseen_group_uses_default() {
        let (ds, scores) = biased_scores();
        let gt = GroupThresholds::fit(
            &ds,
            &["sex"],
            &scores,
            ThresholdObjective::DemographicParity,
        )
        .unwrap();
        // apply on a dataset with an extra unseen level
        let ds2 = Dataset::builder()
            .categorical_with_role("sex", vec!["x"], vec![0, 0], Role::Protected)
            .boolean_with_role("y", vec![true, false], Role::Label)
            .build()
            .unwrap();
        let out = gt.apply(&ds2, &["sex"], &[0.6, 0.4]).unwrap();
        assert_eq!(out, vec![true, false]); // default 0.5
    }

    #[test]
    fn threshold_for_rate_extremes() {
        assert_eq!(threshold_for_rate(&[], 0.5), 0.5);
        let pool = [0.1, 0.2, 0.3, 0.4];
        // rate 0 → nobody selected
        let t = threshold_for_rate(&pool, 0.0);
        assert!(pool.iter().all(|&s| s < t));
        // rate 1 → everybody
        let t = threshold_for_rate(&pool, 1.0);
        assert!(pool.iter().all(|&s| s >= t));
        // rate 0.5 → top 2
        let t = threshold_for_rate(&pool, 0.5);
        assert_eq!(pool.iter().filter(|&&s| s >= t).count(), 2);
    }

    #[test]
    fn validates_score_length() {
        let (ds, _) = biased_scores();
        assert!(GroupThresholds::fit(
            &ds,
            &["sex"],
            &[0.5; 3],
            ThresholdObjective::DemographicParity
        )
        .is_err());
    }
}
