//! The row-list counting oracle.
//!
//! The library counts every group metric through `GroupAccumulator`.
//! This module counts the same rates the slow, obvious way — straight off
//! each group's row list, or off a stratum's rows bucketed by group — and
//! restates the Section III verdict rules by hand, so the equivalence
//! tests have something independent of the accumulator to compare with.
//! It is shared by `prop_metrics.rs` and the crate's unit tests.

#![allow(dead_code)]

use fairbridge_learn::eval::Confusion;
use fairbridge_metrics::definition::Definition;
use fairbridge_metrics::outcome::{GapSummary, Outcomes, RateStat};
use fairbridge_metrics::report::{FairnessReport, MetricLine};
use fairbridge_tabular::{GroupIndex, GroupKey};
use std::cmp::Ordering;
use std::fmt::Debug;

/// The rate of `predicate` over `rows`; NaN for no rows.
pub fn over_rows(group: &GroupKey, rows: &[usize], predicate: impl Fn(usize) -> bool) -> RateStat {
    let positives = rows.iter().filter(|&&i| predicate(i)).count();
    RateStat {
        group: group.clone(),
        n: rows.len(),
        positives,
        rate: if rows.is_empty() {
            f64::NAN
        } else {
            positives as f64 / rows.len() as f64
        },
    }
}

/// The rate of `predicate` over the subset of `rows` passing `condition`.
pub fn over_conditioned_rows(
    group: &GroupKey,
    rows: &[usize],
    condition: impl Fn(usize) -> bool,
    predicate: impl Fn(usize) -> bool,
) -> RateStat {
    let eligible: Vec<usize> = rows.iter().copied().filter(|&i| condition(i)).collect();
    over_rows(group, &eligible, predicate)
}

fn per_group(
    o: &Outcomes,
    condition: impl Fn(usize) -> bool,
    predicate: impl Fn(usize) -> bool,
) -> Vec<RateStat> {
    o.groups
        .iter()
        .map(|(key, rows)| over_conditioned_rows(key, rows, &condition, &predicate))
        .collect()
}

fn labels(o: &Outcomes) -> &[bool] {
    o.labels.as_deref().expect("oracle rate needs labels")
}

/// `P(R = + | A = a)`.
pub fn selection(o: &Outcomes) -> Vec<RateStat> {
    per_group(o, |_| true, |i| o.predictions[i])
}

/// `P(R = + | Y = +, A = a)`.
pub fn tpr(o: &Outcomes) -> Vec<RateStat> {
    let y = labels(o);
    per_group(o, |i| y[i], |i| o.predictions[i])
}

/// `P(R = − | Y = +, A = a)`.
pub fn fnr(o: &Outcomes) -> Vec<RateStat> {
    let y = labels(o);
    per_group(o, |i| y[i], |i| !o.predictions[i])
}

/// `P(R = + | Y = −, A = a)`.
pub fn fpr(o: &Outcomes) -> Vec<RateStat> {
    let y = labels(o);
    per_group(o, |i| !y[i], |i| o.predictions[i])
}

/// `P(Y = + | R = +, A = a)`.
pub fn ppv(o: &Outcomes) -> Vec<RateStat> {
    let y = labels(o);
    per_group(o, |i| o.predictions[i], |i| y[i])
}

/// `P(R = Y | A = a)`.
pub fn accuracy(o: &Outcomes) -> Vec<RateStat> {
    let y = labels(o);
    per_group(o, |_| true, |i| o.predictions[i] == y[i])
}

/// Each group's confusion matrix, tallied from copies of its labels and
/// predictions.
pub fn confusions(o: &Outcomes) -> Vec<(GroupKey, Confusion)> {
    let y = labels(o);
    o.groups
        .iter()
        .map(|(key, rows)| {
            let ys: Vec<bool> = rows.iter().map(|&i| y[i]).collect();
            let rs: Vec<bool> = rows.iter().map(|&i| o.predictions[i]).collect();
            (key.clone(), Confusion::from_predictions(&ys, &rs))
        })
        .collect()
}

/// Selection rates of `decisions` within each stratum of `strata`: the
/// stratum's rows bucketed by protected group, every key of `groups`
/// listed (a group absent from the stratum has `n = 0` and a NaN rate).
pub fn stratum_selection(
    strata: &GroupIndex,
    groups: &GroupIndex,
    decisions: &[bool],
) -> Vec<(GroupKey, usize, Vec<RateStat>)> {
    strata
        .iter()
        .map(|(stratum, rows)| {
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); groups.n_groups()];
            for &r in rows {
                buckets[groups.group_of(r)].push(r);
            }
            let rates = groups
                .keys()
                .iter()
                .zip(&buckets)
                .map(|(key, rows)| over_rows(key, rows, |i| decisions[i]))
                .collect();
            (stratum.clone(), rows.len(), rates)
        })
        .collect()
}

/// Groups with fewer than `min_group_size` rows in the rate's denominator.
pub fn skipped(rates: &[RateStat], min_group_size: usize) -> usize {
    rates.iter().filter(|r| r.n < min_group_size).count()
}

/// A gap passes at `tolerance`; an undefined (NaN) gap fails.
pub fn within(gap: f64, tolerance: f64) -> bool {
    !gap.is_nan() && gap <= tolerance
}

/// Equalized odds' binding gap: the larger of the two, ignoring a NaN
/// side, NaN only when both are.
pub fn worst_of(tpr_gap: f64, fpr_gap: f64) -> f64 {
    match (tpr_gap.is_nan(), fpr_gap.is_nan()) {
        (true, true) => f64::NAN,
        (true, false) => fpr_gap,
        (false, true) => tpr_gap,
        (false, false) => tpr_gap.max(fpr_gap),
    }
}

fn gap_line(definition: Definition, gap: f64, tolerance: f64, detail: String) -> MetricLine {
    MetricLine {
        definition,
        gap,
        fair: Some(within(gap, tolerance)),
        detail,
    }
}

fn least(label: &str, summary: &GapSummary) -> String {
    summary
        .min_group
        .as_ref()
        .map(|g| format!("{label}: {g}"))
        .unwrap_or_default()
}

/// The aggregate report restated from the oracle's rates: every Section
/// III line with its gap, verdict and detail, and the four-fifths screen.
pub fn expected_report(o: &Outcomes, tolerance: f64, min_group_size: usize) -> FairnessReport {
    let selection = selection(o);
    let dp = GapSummary::from_rates(&selection, min_group_size);
    let n_unfair = selection
        .iter()
        .filter(|r| r.rate.partial_cmp(&0.5) != Some(Ordering::Greater))
        .count();
    let mut lines = vec![
        gap_line(
            Definition::DemographicParity,
            dp.gap,
            tolerance,
            least("least favored", &dp),
        ),
        MetricLine {
            definition: Definition::DemographicDisparity,
            gap: n_unfair as f64,
            fair: Some(n_unfair == 0),
            detail: if n_unfair > 0 {
                format!("{n_unfair} group(s) receive more rejections than acceptances")
            } else {
                String::new()
            },
        },
    ];
    if o.labels.is_some() {
        let eo = GapSummary::from_rates(&tpr(o), min_group_size);
        let fp = GapSummary::from_rates(&fpr(o), min_group_size);
        let pp = GapSummary::from_rates(&ppv(o), min_group_size);
        let ae = GapSummary::from_rates(&accuracy(o), min_group_size);
        lines.extend([
            gap_line(
                Definition::EqualOpportunity,
                eo.gap,
                tolerance,
                least("lowest TPR", &eo),
            ),
            gap_line(
                Definition::EqualizedOdds,
                worst_of(eo.gap, fp.gap),
                tolerance,
                format!("TPR gap {:.3}, FPR gap {:.3}", eo.gap, fp.gap),
            ),
            gap_line(
                Definition::PredictiveParity,
                pp.gap,
                tolerance,
                String::new(),
            ),
            gap_line(
                Definition::AccuracyEquality,
                ae.gap,
                tolerance,
                String::new(),
            ),
        ]);
    }
    FairnessReport {
        lines,
        tolerance,
        impact_ratio: dp.ratio,
        four_fifths_passes: !dp.ratio.is_nan() && dp.ratio >= 0.8,
    }
}

/// Asserts two values print identically. `Debug` renders every float in
/// its shortest round-trip form, so equal output means equal bits (NaN
/// aside, whose payload nothing here sets) — unlike `PartialEq`, under
/// which a report holding a NaN gap never equals itself.
pub fn assert_same<T: Debug>(got: &T, want: &T, context: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{context}");
}
