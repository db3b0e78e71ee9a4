//! Mergeable per-group sufficient statistics.
//!
//! Every Section III group definition is a ratio of *integer counts*
//! within each protected group: selection rates (n⁺/n), true/false
//! positive rates, precision, accuracy. [`GroupAccumulator`] carries
//! exactly those counts — plus score sums for calibration-style
//! monitoring — and supports an associative [`GroupAccumulator::merge`],
//! so a dataset can be scanned in independent shards (or consumed as a
//! stream) and finalized once.
//!
//! Finalization via [`from_accumulator`] is the one Section III report
//! finalizer ([`FairnessReport::evaluate`] is a single accumulation pass
//! plus this call), and it agrees **bitwise** with the per-definition
//! functions (`demographic_parity`, `equal_opportunity`, …): the counts
//! are integers (addition order cannot change them), the per-group rate
//! is the same single `positives / n` division, and groups are visited
//! in the same sorted-key order those functions use.

use crate::definition::Definition;
use crate::outcome::{GapSummary, Outcomes, RateStat};
use crate::report::{FairnessReport, MetricLine};
use fairbridge_tabular::{GroupIndex, GroupKey};
use std::ops::Range;

/// Sufficient statistics for one protected group.
///
/// With labels present the full confusion matrix is recoverable:
/// `fn = label_pos − tp`, `tn = (n − label_pos) − fp`,
/// `correct = tp + tn`. Without labels only `n` and `pred_pos` are
/// maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupCounts {
    /// Rows observed in the group.
    pub n: u64,
    /// Rows with a positive decision (R = +).
    pub pred_pos: u64,
    /// Rows with a positive label (Y = +); 0 when labels are absent.
    pub label_pos: u64,
    /// True positives (R = + ∧ Y = +).
    pub tp: u64,
    /// False positives (R = + ∧ Y = −).
    pub fp: u64,
    /// Sum of scores observed in the group (0 when unscored).
    pub score_sum: f64,
    /// Sum of squared scores observed in the group.
    pub score_sum_sq: f64,
}

impl GroupCounts {
    /// Adds another group's counts into this one.
    pub fn merge(&mut self, other: &GroupCounts) {
        self.n += other.n;
        self.pred_pos += other.pred_pos;
        self.label_pos += other.label_pos;
        self.tp += other.tp;
        self.fp += other.fp;
        self.score_sum += other.score_sum;
        self.score_sum_sq += other.score_sum_sq;
    }

    /// False negatives (requires labels).
    pub fn fn_(&self) -> u64 {
        self.label_pos - self.tp
    }

    /// True negatives (requires labels).
    pub fn tn(&self) -> u64 {
        (self.n - self.label_pos) - self.fp
    }

    /// Correct decisions `R = Y` (requires labels).
    pub fn correct(&self) -> u64 {
        self.tp + self.tn()
    }

    /// Mean observed score, NaN when no rows.
    pub fn score_mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.score_sum / self.n as f64
        }
    }
}

/// A set of per-group [`GroupCounts`] under fixed, sorted group keys.
///
/// The key list is fixed at construction so that two accumulators built
/// over different shards of the same partition are structurally
/// compatible: [`GroupAccumulator::merge`] is then a per-group integer
/// addition — associative and commutative-in-effect.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAccumulator {
    keys: Vec<GroupKey>,
    counts: Vec<GroupCounts>,
    has_labels: bool,
}

impl GroupAccumulator {
    /// Creates an empty accumulator over caller-supplied `keys` (the
    /// streaming monitor's): they must be non-empty, sorted and unique —
    /// the order [`GroupIndex`] iterates in, which is what makes
    /// finalization order-identical to the sequential path.
    pub fn with_keys(keys: Vec<GroupKey>, has_labels: bool) -> Result<GroupAccumulator, String> {
        if keys.is_empty() {
            return Err("accumulator needs at least one group key".to_owned());
        }
        if keys.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
            return Err("group keys must be sorted and unique".to_owned());
        }
        let counts = vec![GroupCounts::default(); keys.len()];
        Ok(GroupAccumulator {
            keys,
            counts,
            has_labels,
        })
    }

    /// Creates an empty accumulator over `groups`' keys, which are sorted
    /// and unique by construction; an index with no rows has no groups.
    pub fn for_groups(groups: &GroupIndex, has_labels: bool) -> GroupAccumulator {
        GroupAccumulator {
            keys: groups.keys().to_vec(),
            counts: vec![GroupCounts::default(); groups.n_groups()],
            has_labels,
        }
    }

    /// Observes `rows` of a dataset partitioned by `groups` (this
    /// accumulator's key source): each row's decision, plus its label
    /// when `labels` is given. The one counting loop behind the
    /// sequential reference and every shard of the sharded engine.
    pub fn observe_rows(
        &mut self,
        groups: &GroupIndex,
        rows: Range<usize>,
        decisions: &[bool],
        labels: Option<&[bool]>,
    ) {
        for row in rows {
            self.observe(groups.group_of(row), decisions[row], labels.map(|l| l[row]));
        }
    }

    /// Builds an accumulator by a single sequential pass over an outcome
    /// view — the reference the sharded path must reproduce.
    pub fn from_outcomes(outcomes: &Outcomes) -> GroupAccumulator {
        let labels = outcomes.labels.as_deref();
        let mut acc = GroupAccumulator::for_groups(&outcomes.groups, labels.is_some());
        acc.observe_rows(
            &outcomes.groups,
            0..outcomes.n(),
            &outcomes.predictions,
            labels,
        );
        acc
    }

    /// The group keys, in sorted order.
    pub fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// The per-group counts, in key order.
    pub fn counts(&self) -> &[GroupCounts] {
        &self.counts
    }

    /// Whether labeled statistics (confusion counts) are maintained.
    pub fn has_labels(&self) -> bool {
        self.has_labels
    }

    /// Total rows observed.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.n).sum()
    }

    /// Records one decision for group index `group` (position in
    /// [`GroupAccumulator::keys`]). `label` must be `Some` exactly when
    /// the accumulator was created with labels.
    ///
    /// # Panics
    /// Panics if `group` is out of range or the label presence does not
    /// match the accumulator's mode.
    pub fn observe(&mut self, group: usize, prediction: bool, label: Option<bool>) {
        assert_eq!(
            label.is_some(),
            self.has_labels,
            "label presence must match accumulator mode"
        );
        let c = &mut self.counts[group];
        c.n += 1;
        c.pred_pos += u64::from(prediction);
        if let Some(y) = label {
            c.label_pos += u64::from(y);
            c.tp += u64::from(prediction && y);
            c.fp += u64::from(prediction && !y);
        }
    }

    /// Records one scored decision (adds to the score sums as well).
    pub fn observe_scored(
        &mut self,
        group: usize,
        prediction: bool,
        label: Option<bool>,
        score: f64,
    ) {
        self.observe(group, prediction, label);
        let c = &mut self.counts[group];
        c.score_sum += score;
        c.score_sum_sq += score * score;
    }

    /// Merges another accumulator (built over the same keys and mode)
    /// into this one. Integer counts make this associative; calling it in
    /// a fixed shard order additionally makes the floating-point score
    /// sums deterministic.
    pub fn merge(&mut self, other: &GroupAccumulator) -> Result<(), String> {
        if self.keys != other.keys {
            return Err("cannot merge accumulators over different group keys".to_owned());
        }
        if self.has_labels != other.has_labels {
            return Err("cannot merge labeled with unlabeled accumulators".to_owned());
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            c.merge(o);
        }
        Ok(())
    }

    fn rates<N, P>(&self, denom: N, numer: P) -> Vec<RateStat>
    where
        N: Fn(&GroupCounts) -> u64,
        P: Fn(&GroupCounts) -> u64,
    {
        self.keys
            .iter()
            .zip(&self.counts)
            .map(|(key, c)| {
                let n = denom(c) as usize;
                let positives = numer(c) as usize;
                RateStat {
                    group: key.clone(),
                    n,
                    positives,
                    rate: if n == 0 {
                        f64::NAN
                    } else {
                        positives as f64 / n as f64
                    },
                }
            })
            .collect()
    }

    /// Per-group selection rates `P(R = + | A = a)` (demographic parity).
    pub fn selection_rates(&self) -> Vec<RateStat> {
        self.rates(|c| c.n, |c| c.pred_pos)
    }

    /// Per-group true-positive rates `P(R = + | Y = +, A = a)`.
    pub fn tpr_rates(&self) -> Result<Vec<RateStat>, String> {
        self.require_labels("TPR")?;
        Ok(self.rates(|c| c.label_pos, |c| c.tp))
    }

    /// Per-group false-positive rates `P(R = + | Y = −, A = a)`.
    pub fn fpr_rates(&self) -> Result<Vec<RateStat>, String> {
        self.require_labels("FPR")?;
        Ok(self.rates(|c| c.n - c.label_pos, |c| c.fp))
    }

    /// Per-group precision `P(Y = + | R = +, A = a)` (predictive parity).
    pub fn ppv_rates(&self) -> Result<Vec<RateStat>, String> {
        self.require_labels("predictive parity")?;
        Ok(self.rates(|c| c.pred_pos, |c| c.tp))
    }

    /// Per-group accuracy `P(R = Y | A = a)`.
    pub fn accuracy_rates(&self) -> Result<Vec<RateStat>, String> {
        self.require_labels("accuracy equality")?;
        Ok(self.rates(|c| c.n, |c| c.correct()))
    }

    fn require_labels(&self, what: &str) -> Result<(), String> {
        if self.has_labels {
            Ok(())
        } else {
            Err(format!("{what} requires ground-truth labels (Y)"))
        }
    }
}

/// Finalizes an accumulator into a [`FairnessReport`]: every line's gap
/// is bitwise the one the matching per-definition function computes over
/// the equivalent [`Outcomes`] view.
pub fn from_accumulator(
    acc: &GroupAccumulator,
    tolerance: f64,
    min_group_size: usize,
) -> FairnessReport {
    let mut lines = Vec::new();

    let selection = acc.selection_rates();
    let dp_summary = GapSummary::from_rates(&selection, min_group_size);
    lines.push(MetricLine {
        definition: Definition::DemographicParity,
        gap: dp_summary.gap,
        fair: Some(!dp_summary.gap.is_nan() && dp_summary.gap <= tolerance),
        detail: dp_summary
            .min_group
            .as_ref()
            .map(|g| format!("least favored: {g}"))
            .unwrap_or_default(),
    });

    // Demographic disparity (Eq. 5): strict `rate > 0.5` per group; an
    // undefined (NaN) rate counts as unfair, exactly like the direct path.
    let n_unfair = selection
        .iter()
        .filter(|r| r.rate.partial_cmp(&0.5) != Some(std::cmp::Ordering::Greater))
        .count();
    lines.push(MetricLine {
        definition: Definition::DemographicDisparity,
        gap: n_unfair as f64,
        fair: Some(n_unfair == 0),
        detail: if n_unfair > 0 {
            format!("{n_unfair} group(s) receive more rejections than acceptances")
        } else {
            String::new()
        },
    });

    if let (Ok(tpr), Ok(fpr), Ok(ppv), Ok(accuracy)) = (
        acc.tpr_rates(),
        acc.fpr_rates(),
        acc.ppv_rates(),
        acc.accuracy_rates(),
    ) {
        let eo_summary = GapSummary::from_rates(&tpr, min_group_size);
        lines.push(MetricLine {
            definition: Definition::EqualOpportunity,
            gap: eo_summary.gap,
            fair: Some(!eo_summary.gap.is_nan() && eo_summary.gap <= tolerance),
            detail: eo_summary
                .min_group
                .as_ref()
                .map(|g| format!("lowest TPR: {g}"))
                .unwrap_or_default(),
        });

        let fpr_summary = GapSummary::from_rates(&fpr, min_group_size);
        let worst_gap = match (eo_summary.gap.is_nan(), fpr_summary.gap.is_nan()) {
            (true, true) => f64::NAN,
            (true, false) => fpr_summary.gap,
            (false, true) => eo_summary.gap,
            (false, false) => eo_summary.gap.max(fpr_summary.gap),
        };
        lines.push(MetricLine {
            definition: Definition::EqualizedOdds,
            gap: worst_gap,
            fair: Some(!worst_gap.is_nan() && worst_gap <= tolerance),
            detail: format!(
                "TPR gap {:.3}, FPR gap {:.3}",
                eo_summary.gap, fpr_summary.gap
            ),
        });

        let pp_summary = GapSummary::from_rates(&ppv, min_group_size);
        lines.push(MetricLine {
            definition: Definition::PredictiveParity,
            gap: pp_summary.gap,
            fair: Some(!pp_summary.gap.is_nan() && pp_summary.gap <= tolerance),
            detail: String::new(),
        });

        let ae_summary = GapSummary::from_rates(&accuracy, min_group_size);
        lines.push(MetricLine {
            definition: Definition::AccuracyEquality,
            gap: ae_summary.gap,
            fair: Some(!ae_summary.gap.is_nan() && ae_summary.gap <= tolerance),
            detail: String::new(),
        });
    }

    let ratio = dp_summary.ratio;
    FairnessReport {
        lines,
        tolerance,
        impact_ratio: ratio,
        four_fifths_passes: !ratio.is_nan() && ratio >= 0.8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> GroupKey {
        GroupKey(vec![s.to_owned()])
    }

    fn sample_outcomes(with_labels: bool) -> Outcomes {
        // group a: 8/10 selected; group b: 2/10 selected
        let mut preds = Vec::new();
        let mut labels = Vec::new();
        let mut codes = Vec::new();
        for i in 0..10 {
            preds.push(i < 8);
            labels.push(i < 5);
            codes.push(0);
        }
        for i in 0..10 {
            preds.push(i < 2);
            labels.push(i < 5);
            codes.push(1);
        }
        Outcomes::from_slices(
            &preds,
            with_labels.then_some(labels.as_slice()),
            &codes,
            &["a", "b"],
        )
        .unwrap()
    }

    #[test]
    fn with_keys_requires_sorted_unique() {
        assert!(GroupAccumulator::with_keys(vec![key("a"), key("b")], false).is_ok());
        assert!(GroupAccumulator::with_keys(vec![key("b"), key("a")], false).is_err());
        assert!(GroupAccumulator::with_keys(vec![key("a"), key("a")], false).is_err());
        assert!(GroupAccumulator::with_keys(vec![], false).is_err());
    }

    #[test]
    fn counts_match_sequential_pass() {
        let o = sample_outcomes(true);
        let acc = GroupAccumulator::from_outcomes(&o);
        assert_eq!(acc.total(), 20);
        let a = &acc.counts()[0];
        assert_eq!((a.n, a.pred_pos, a.label_pos, a.tp, a.fp), (10, 8, 5, 5, 3));
        assert_eq!((a.fn_(), a.tn(), a.correct()), (0, 2, 7));
        let b = &acc.counts()[1];
        assert_eq!((b.n, b.pred_pos, b.tp, b.fp), (10, 2, 2, 0));
    }

    /// The per-definition functions scan group row lists on their own,
    /// so they are an oracle independent of the accumulator.
    #[test]
    fn report_is_bitwise_identical_to_direct_evaluation() {
        use crate::disparity::demographic_disparity;
        use crate::extended::{accuracy_equality, predictive_parity};
        use crate::odds::equalized_odds;
        use crate::opportunity::equal_opportunity;
        use crate::parity::{demographic_parity, four_fifths};

        let tol = 0.05;
        // min_group_size 11 excludes both 10-row groups: NaN gaps.
        for min in [0, 11] {
            for with_labels in [false, true] {
                let o = sample_outcomes(with_labels);
                let report = from_accumulator(&GroupAccumulator::from_outcomes(&o), tol, min);
                let dp = demographic_parity(&o, min);
                let dd = demographic_disparity(&o);
                let mut expected = vec![
                    (
                        Definition::DemographicParity,
                        dp.summary.gap,
                        dp.is_fair(tol),
                    ),
                    (
                        Definition::DemographicDisparity,
                        dd.unfair_groups().len() as f64,
                        dd.is_fair(),
                    ),
                ];
                if with_labels {
                    let eo = equal_opportunity(&o, min).unwrap();
                    let odds = equalized_odds(&o, min).unwrap();
                    let pp = predictive_parity(&o, min).unwrap();
                    let ae = accuracy_equality(&o, min).unwrap();
                    expected.extend([
                        (
                            Definition::EqualOpportunity,
                            eo.summary.gap,
                            eo.is_fair(tol),
                        ),
                        (
                            Definition::EqualizedOdds,
                            odds.worst_gap(),
                            odds.is_fair(tol),
                        ),
                        (
                            Definition::PredictiveParity,
                            pp.summary.gap,
                            pp.is_fair(tol),
                        ),
                        (
                            Definition::AccuracyEquality,
                            ae.summary.gap,
                            ae.is_fair(tol),
                        ),
                    ]);
                }
                let got: Vec<_> = report
                    .lines
                    .iter()
                    .map(|l| (l.definition, l.gap.to_bits(), l.fair))
                    .collect();
                let want: Vec<_> = expected
                    .into_iter()
                    .map(|(d, gap, fair)| (d, gap.to_bits(), Some(fair)))
                    .collect();
                assert_eq!(got, want, "labels {with_labels}, min {min}");
                let ff = four_fifths(&o, min);
                assert_eq!(report.impact_ratio.to_bits(), ff.impact_ratio.to_bits());
                assert_eq!(report.four_fifths_passes, ff.passes);
                // Debug, not PartialEq: NaN gaps are unequal to themselves.
                assert_eq!(
                    format!("{:?}", FairnessReport::evaluate(&o, tol, min)),
                    format!("{report:?}")
                );
            }
        }
    }

    #[test]
    fn merge_of_split_equals_whole() {
        let o = sample_outcomes(true);
        let keys: Vec<GroupKey> = o.groups.keys().to_vec();
        let row_group = |i: usize| usize::from(i >= 10); // codes above
        let labels = o.labels.clone().unwrap();

        let whole = GroupAccumulator::from_outcomes(&o);
        // split at every possible point; merge must always reproduce `whole`
        for split in 0..=o.n() {
            let mut left = GroupAccumulator::with_keys(keys.clone(), true).unwrap();
            let mut right = GroupAccumulator::with_keys(keys.clone(), true).unwrap();
            for (i, (&p, &l)) in o.predictions.iter().zip(&labels).enumerate() {
                let target = if i < split { &mut left } else { &mut right };
                target.observe(row_group(i), p, Some(l));
            }
            let mut merged = left.clone();
            merged.merge(&right).unwrap();
            assert_eq!(merged, whole, "split at {split}");
            // commutative in effect
            let mut flipped = right.clone();
            flipped.merge(&left).unwrap();
            assert_eq!(flipped, whole);
        }
    }

    #[test]
    fn merge_rejects_mismatched_shapes() {
        let mut a = GroupAccumulator::with_keys(vec![key("a")], false).unwrap();
        let b = GroupAccumulator::with_keys(vec![key("b")], false).unwrap();
        assert!(a.merge(&b).is_err());
        let c = GroupAccumulator::with_keys(vec![key("a")], true).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn scored_observations_accumulate_sums() {
        let mut acc = GroupAccumulator::with_keys(vec![key("a")], false).unwrap();
        acc.observe_scored(0, true, None, 0.5);
        acc.observe_scored(0, false, None, 0.25);
        let c = &acc.counts()[0];
        assert!((c.score_sum - 0.75).abs() < 1e-12);
        assert!((c.score_sum_sq - 0.3125).abs() < 1e-12);
        assert!((c.score_mean() - 0.375).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label presence")]
    fn observe_enforces_label_mode() {
        let mut acc = GroupAccumulator::with_keys(vec![key("a")], true).unwrap();
        acc.observe(0, true, None);
    }
}
