//! Mergeable per-group sufficient statistics: the one counting path
//! behind every group metric.
//!
//! Every Section III group definition is a ratio of *integer counts*
//! within each protected group: selection rates (n⁺/n), true/false
//! positive rates, precision, accuracy. [`GroupAccumulator`] carries
//! exactly those counts and supports an associative
//! [`GroupAccumulator::merge`], so a dataset can be scanned in
//! independent shards (or consumed as a stream) and finalized once.
//!
//! [`GroupAccumulator::observe`] is the only per-row counting step. The
//! per-definition functions (`demographic_parity`, `equal_opportunity`,
//! …) count through [`GroupAccumulator::from_outcomes`], the conditional
//! definitions (Eq. 2 and 6) through [`GroupAccumulator::per_stratum`],
//! and each finalizes one rate view into its report type. The rate views
//! divide `positives / n` once per group, in sorted-key order.
//! [`from_accumulator`], the aggregate finalizer behind
//! [`FairnessReport::evaluate`] and the sharded engine, builds those same
//! report types and reads every [`MetricLine`] off them, so gaps and
//! verdicts have one implementation.

use crate::definition::Definition;
use crate::disparity::DisparityReport;
use crate::extended::GroupRateReport;
use crate::odds::OddsReport;
use crate::opportunity::OpportunityReport;
use crate::outcome::{GapSummary, Outcomes, RateStat};
use crate::parity::ParityReport;
use crate::report::{FairnessReport, MetricLine};
use fairbridge_tabular::{Dataset, GroupIndex, GroupKey};
use std::ops::Range;

/// Sufficient statistics for one protected group.
///
/// With labels present the full confusion matrix is recoverable:
/// `fn = label_pos − tp`, `tn = (n − label_pos) − fp`,
/// `correct = tp + tn`. Without labels only `n` and `pred_pos` are
/// maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
}

impl GroupCounts {
    /// Adds another group's counts into this one.
    pub fn merge(&mut self, other: &GroupCounts) {
        self.n += other.n;
        self.pred_pos += other.pred_pos;
        self.label_pos += other.label_pos;
        self.tp += other.tp;
        self.fp += other.fp;
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
}

/// A set of per-group [`GroupCounts`] under fixed, sorted group keys.
///
/// The key list is fixed at construction so that two accumulators built
/// over different shards of the same partition are structurally
/// compatible: [`GroupAccumulator::merge`] is then a per-group integer
/// addition — associative and commutative-in-effect.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// when `labels` is given. The counting loop behind the sequential
    /// reference and every shard of the sharded engine.
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

    /// Counts `decisions` per group of the `protected` columns within
    /// each stratum of the `strata` columns of `ds`: one unlabelled
    /// accumulator per stratum, in stratum-key order. The counting pass
    /// behind the conditional definitions, Eq. (2) and Eq. (6).
    pub fn per_stratum(
        ds: &Dataset,
        protected: &[&str],
        strata: &[&str],
        decisions: &[bool],
    ) -> Result<Vec<(GroupKey, GroupAccumulator)>, String> {
        let index = |columns: &[&str]| GroupIndex::build(ds, columns).map_err(|e| e.to_string());
        let (strata, groups) = (index(strata)?, index(protected)?);
        let mut accs = vec![GroupAccumulator::for_groups(&groups, false); strata.n_groups()];
        for (row, &decision) in decisions.iter().enumerate() {
            accs[strata.group_of(row)].observe(groups.group_of(row), decision, None);
        }
        Ok(strata.keys().iter().cloned().zip(accs).collect())
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

    /// Merges another accumulator (built over the same keys and mode)
    /// into this one: per-group integer addition, so the result does not
    /// depend on merge order.
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

    /// Per-group false-negative rates `P(R = − | Y = +, A = a)`.
    pub fn fnr_rates(&self) -> Result<Vec<RateStat>, String> {
        self.require_labels("FNR")?;
        Ok(self.rates(|c| c.label_pos, GroupCounts::fn_))
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
        Ok(self.rates(|c| c.n, GroupCounts::correct))
    }

    fn require_labels(&self, what: &str) -> Result<(), String> {
        if self.has_labels {
            Ok(())
        } else {
            Err(format!("{what} requires ground-truth labels (Y)"))
        }
    }
}

/// Finalizes an accumulator into a [`FairnessReport`]: every line is read
/// off the report the matching per-definition function returns for the
/// same counts, and the four-fifths screen off the parity report.
pub fn from_accumulator(
    acc: &GroupAccumulator,
    tolerance: f64,
    min_group_size: usize,
) -> FairnessReport {
    let selection = acc.selection_rates();
    let parity = ParityReport::from_rates(selection.clone(), min_group_size);
    let disparity = DisparityReport::from_rates(selection);
    let n_unfair = disparity.unfair_groups().len();
    let mut lines = vec![
        line(
            Definition::DemographicParity,
            parity.summary.gap,
            parity.is_fair(tolerance),
            least("least favored", &parity.summary),
        ),
        line(
            Definition::DemographicDisparity,
            n_unfair as f64,
            disparity.is_fair(),
            if n_unfair > 0 {
                format!("{n_unfair} group(s) receive more rejections than acceptances")
            } else {
                String::new()
            },
        ),
    ];

    if let (Ok(tpr), Ok(fpr), Ok(ppv), Ok(accuracy)) = (
        acc.tpr_rates(),
        acc.fpr_rates(),
        acc.ppv_rates(),
        acc.accuracy_rates(),
    ) {
        let opportunity = OpportunityReport::from_rates(tpr.clone(), min_group_size);
        let odds = OddsReport::from_rates(tpr, fpr, min_group_size);
        let precision = GroupRateReport::from_rates(ppv, min_group_size);
        let accuracy = GroupRateReport::from_rates(accuracy, min_group_size);
        lines.extend([
            line(
                Definition::EqualOpportunity,
                opportunity.summary.gap,
                opportunity.is_fair(tolerance),
                least("lowest TPR", &opportunity.summary),
            ),
            line(
                Definition::EqualizedOdds,
                odds.worst_gap(),
                odds.is_fair(tolerance),
                format!(
                    "TPR gap {:.3}, FPR gap {:.3}",
                    odds.tpr_summary.gap, odds.fpr_summary.gap
                ),
            ),
            line(
                Definition::PredictiveParity,
                precision.summary.gap,
                precision.is_fair(tolerance),
                String::new(),
            ),
            line(
                Definition::AccuracyEquality,
                accuracy.summary.gap,
                accuracy.is_fair(tolerance),
                String::new(),
            ),
        ]);
    }

    let screen = parity.disparate_impact(0.8);
    FairnessReport {
        lines,
        tolerance,
        impact_ratio: screen.impact_ratio,
        four_fifths_passes: screen.passes,
    }
}

fn line(definition: Definition, gap: f64, fair: bool, detail: String) -> MetricLine {
    MetricLine {
        definition,
        gap,
        fair: Some(fair),
        detail,
    }
}

/// `"<label>: <least favored group>"`, empty when no group qualifies.
fn least(label: &str, summary: &GapSummary) -> String {
    summary
        .min_group
        .as_ref()
        .map(|g| format!("{label}: {g}"))
        .unwrap_or_default()
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

    /// The aggregate report, line by line with its detail strings and
    /// the four-fifths screen, against the row-list oracle: with and
    /// without labels, and with `min_group_size` 11 excluding both
    /// 10-row groups (NaN gaps).
    #[test]
    fn report_is_bitwise_identical_to_direct_evaluation() {
        let tol = 0.05;
        for min in [0, 11] {
            for with_labels in [false, true] {
                let o = sample_outcomes(with_labels);
                let want = crate::oracle::expected_report(&o, tol, min);
                let context = format!("labels {with_labels}, min {min}");
                let report = from_accumulator(&GroupAccumulator::from_outcomes(&o), tol, min);
                crate::oracle::assert_same(&report, &want, &context);
                crate::oracle::assert_same(
                    &FairnessReport::evaluate(&o, tol, min),
                    &want,
                    &context,
                );
                assert_eq!(report.lines.len(), if with_labels { 6 } else { 2 });
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
    #[should_panic(expected = "label presence")]
    fn observe_enforces_label_mode() {
        let mut acc = GroupAccumulator::with_keys(vec![key("a")], true).unwrap();
        acc.observe(0, true, None);
    }
}
