//! The [`Outcomes`] view: predictions `R`, labels `Y` and protected
//! attribute `A` bound together in the paper's Section III notation.

use crate::accumulator::GroupAccumulator;
use fairbridge_tabular::{Dataset, GroupIndex, GroupKey};

/// A resolved view over one dataset's outcome columns.
///
/// All group-fairness metrics consume this view. `labels` is optional:
/// predicted-outcome-only definitions (demographic parity, conditional
/// statistical parity, demographic disparity) do not need `Y`, while
/// error-rate definitions (equal opportunity, equalized odds) do.
#[derive(Debug, Clone)]
pub struct Outcomes {
    /// Classifier decisions `R` per row.
    pub predictions: Vec<bool>,
    /// Ground-truth labels `Y` per row, when available.
    pub labels: Option<Vec<bool>>,
    /// The group partition induced by the protected attribute(s) `A`.
    pub groups: GroupIndex,
}

impl Outcomes {
    /// Builds the view from a dataset holding a prediction column and the
    /// named protected attribute(s). Labels are attached when present.
    pub fn from_dataset(ds: &Dataset, protected: &[&str]) -> Result<Outcomes, String> {
        let predictions = ds.predictions().map_err(|e| e.to_string())?.to_vec();
        let labels = ds.labels().ok().map(<[bool]>::to_vec);
        let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;
        Ok(Outcomes {
            predictions,
            labels,
            groups,
        })
    }

    /// Builds the view treating the dataset's *labels* as the decisions.
    ///
    /// This is how historical data (where the recorded outcome *is* the
    /// decision, e.g. "was hired") is audited before any model exists —
    /// the setting of the paper's Section III worked examples.
    pub fn from_labels_as_decisions(ds: &Dataset, protected: &[&str]) -> Result<Outcomes, String> {
        let predictions = ds.labels().map_err(|e| e.to_string())?.to_vec();
        let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;
        Ok(Outcomes {
            predictions,
            labels: None,
            groups,
        })
    }

    /// Builds the view from raw slices: `codes` are group codes resolved
    /// against `level_names`.
    pub fn from_slices(
        predictions: &[bool],
        labels: Option<&[bool]>,
        codes: &[u32],
        level_names: &[&str],
    ) -> Result<Outcomes, String> {
        if predictions.len() != codes.len() {
            return Err("predictions and group codes differ in length".to_owned());
        }
        if let Some(l) = labels {
            if l.len() != predictions.len() {
                return Err("labels and predictions differ in length".to_owned());
            }
        }
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= level_names.len()) {
            return Err(format!("group code {bad} out of range"));
        }
        // Reuse GroupIndex by building a one-column throwaway dataset.
        let ds = Dataset::builder()
            .categorical_with_role(
                "group",
                level_names.iter().map(|s| s.to_string()).collect(),
                codes.to_vec(),
                fairbridge_tabular::Role::Protected,
            )
            .build()
            .map_err(|e| e.to_string())?;
        let groups = GroupIndex::build(&ds, &["group"]).map_err(|e| e.to_string())?;
        Ok(Outcomes {
            predictions: predictions.to_vec(),
            labels: labels.map(<[bool]>::to_vec),
            groups,
        })
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.predictions.len()
    }

    /// The labels, or an error naming the metric that required them.
    pub fn require_labels(&self, metric: &str) -> Result<&[bool], String> {
        self.labels
            .as_deref()
            .ok_or_else(|| format!("{metric} requires ground-truth labels (Y)"))
    }

    /// This view's [`GroupAccumulator`], or an error naming `metric`
    /// when the view has no labels.
    pub fn labelled_counts(&self, metric: &str) -> Result<GroupAccumulator, String> {
        self.require_labels(metric)?;
        Ok(GroupAccumulator::from_outcomes(self))
    }
}

/// A per-group positive-rate statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct RateStat {
    /// The group key.
    pub group: GroupKey,
    /// Rows in the group (denominator).
    pub n: usize,
    /// Rows with the positive outcome (numerator).
    pub positives: usize,
    /// `positives / n`, `NaN` for empty groups.
    pub rate: f64,
}

/// Summary of per-group rates: worst-case gap and disparate-impact ratio.
///
/// Groups with fewer than `min_group_size` rows (or NaN rates) are skipped
/// when computing the gap/ratio — the Section IV.C warning about drawing
/// conclusions from tiny subgroups.
#[derive(Debug, Clone, PartialEq)]
pub struct GapSummary {
    /// Largest rate minus smallest rate across qualifying groups.
    pub gap: f64,
    /// Smallest rate divided by largest (the disparate-impact ratio);
    /// 1.0 when all rates are equal, NaN when no groups qualify.
    pub ratio: f64,
    /// Key of the most favored group.
    pub max_group: Option<GroupKey>,
    /// Key of the least favored group.
    pub min_group: Option<GroupKey>,
}

impl GapSummary {
    /// Computes the summary over rate statistics.
    pub fn from_rates(rates: &[RateStat], min_group_size: usize) -> GapSummary {
        let mut max: Option<&RateStat> = None;
        let mut min: Option<&RateStat> = None;
        for r in rates {
            if r.n < min_group_size || r.rate.is_nan() {
                continue;
            }
            if max.map_or(true, |m| r.rate > m.rate) {
                max = Some(r);
            }
            if min.map_or(true, |m| r.rate < m.rate) {
                min = Some(r);
            }
        }
        match (max, min) {
            (Some(mx), Some(mn)) => GapSummary {
                gap: mx.rate - mn.rate,
                ratio: if mx.rate > 0.0 {
                    mn.rate / mx.rate
                } else {
                    1.0
                },
                max_group: Some(mx.group.clone()),
                min_group: Some(mn.group.clone()),
            },
            _ => GapSummary {
                gap: f64::NAN,
                ratio: f64::NAN,
                max_group: None,
                min_group: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

    fn ds() -> Dataset {
        Dataset::builder()
            .categorical_with_role(
                "sex",
                vec!["male", "female"],
                vec![0, 0, 0, 0, 1, 1],
                Role::Protected,
            )
            .boolean_with_role(
                "hired",
                vec![true, true, false, false, true, false],
                Role::Label,
            )
            .boolean_with_role(
                "pred",
                vec![true, false, true, false, false, false],
                Role::Prediction,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn from_dataset_binds_everything() {
        let o = Outcomes::from_dataset(&ds(), &["sex"]).unwrap();
        assert_eq!(o.n(), 6);
        assert!(o.labels.is_some());
        assert_eq!(o.groups.n_groups(), 2);
    }

    #[test]
    fn labels_as_decisions_view() {
        let o = Outcomes::from_labels_as_decisions(&ds(), &["sex"]).unwrap();
        assert_eq!(o.predictions, vec![true, true, false, false, true, false]);
        assert!(o.labels.is_none());
        assert!(o.require_labels("equal opportunity").is_err());
    }

    #[test]
    fn from_slices_validates() {
        let o = Outcomes::from_slices(&[true, false], None, &[0, 1], &["a", "b"]).unwrap();
        assert_eq!(o.groups.n_groups(), 2);
        assert!(Outcomes::from_slices(&[true], None, &[0, 1], &["a", "b"]).is_err());
        assert!(Outcomes::from_slices(&[true], None, &[5], &["a"]).is_err());
        assert!(Outcomes::from_slices(&[true], Some(&[true, false]), &[0], &["a"]).is_err());
    }

    #[test]
    fn rate_stat_computation() {
        // Group "a": 3 of 4 rows selected; group "b" observed no rows.
        let keys = vec![GroupKey(vec!["a".into()]), GroupKey(vec!["b".into()])];
        let mut acc = GroupAccumulator::with_keys(keys, false).unwrap();
        for p in [true, true, true, false] {
            acc.observe(0, p, None);
        }
        let rates = acc.selection_rates();
        assert_eq!((rates[0].n, rates[0].positives), (4, 3));
        assert!((rates[0].rate - 0.75).abs() < 1e-12);
        assert!(rates[1].rate.is_nan());
    }

    #[test]
    fn conditioned_rate_stat() {
        // The TPR conditions on Y = +: 2 actual positives, 1 selected.
        let mut acc = GroupAccumulator::with_keys(vec![GroupKey(vec!["g".into()])], true).unwrap();
        for (p, y) in [(true, true), (false, true), (true, false), (false, false)] {
            acc.observe(0, p, Some(y));
        }
        let tpr = &acc.tpr_rates().unwrap()[0];
        assert_eq!((tpr.n, tpr.positives), (2, 1));
        assert!((tpr.rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gap_summary_skips_small_groups() {
        let k = |s: &str| GroupKey(vec![s.into()]);
        let rates = vec![
            RateStat {
                group: k("big_hi"),
                n: 100,
                positives: 80,
                rate: 0.8,
            },
            RateStat {
                group: k("big_lo"),
                n: 100,
                positives: 40,
                rate: 0.4,
            },
            RateStat {
                group: k("tiny"),
                n: 2,
                positives: 0,
                rate: 0.0,
            },
        ];
        let s = GapSummary::from_rates(&rates, 10);
        assert!((s.gap - 0.4).abs() < 1e-12);
        assert!((s.ratio - 0.5).abs() < 1e-12);
        assert_eq!(s.max_group, Some(k("big_hi")));
        assert_eq!(s.min_group, Some(k("big_lo")));
        // with no size filter the tiny group dominates the gap
        let s2 = GapSummary::from_rates(&rates, 0);
        assert!((s2.gap - 0.8).abs() < 1e-12);
    }

    #[test]
    fn gap_summary_empty_is_nan() {
        let s = GapSummary::from_rates(&[], 0);
        assert!(s.gap.is_nan());
        assert!(s.max_group.is_none());
    }
}
