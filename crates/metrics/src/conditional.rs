//! Conditional statistical parity — paper Section III.B, Eq. (2):
//!
//! > Pr(R = + | S = s, A = a) = Pr(R = + | S = s, A = b)  ∀ a,b ∈ A, ∀ s ∈ S
//!
//! Demographic parity "only when other legitimate factors are taken into
//! account": the audit conditions on strata of one or more legitimate
//! attributes `S` and demands parity inside every stratum.

use crate::accumulator::GroupAccumulator;
use crate::parity::ParityReport;
use fairbridge_tabular::{Dataset, GroupKey};

/// Per-stratum parity results.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumReport {
    /// The stratum key (levels of the legitimate factor columns).
    pub stratum: GroupKey,
    /// Rows in the stratum.
    pub n: usize,
    /// The parity report computed within the stratum.
    pub parity: ParityReport,
}

/// The conditional-statistical-parity report.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalParityReport {
    /// One report per stratum, in stratum-key order.
    pub strata: Vec<StratumReport>,
    /// The largest within-stratum gap (NaN when no stratum qualifies).
    pub worst_gap: f64,
    /// Key of the stratum exhibiting the worst gap.
    pub worst_stratum: Option<GroupKey>,
}

impl ConditionalParityReport {
    /// Whether every stratum satisfies parity within `tolerance`.
    pub fn is_fair(&self, tolerance: f64) -> bool {
        !self.worst_gap.is_nan() && self.worst_gap <= tolerance
    }
}

/// Computes conditional statistical parity (Eq. 2).
///
/// * `ds` must carry a prediction column and the protected attribute(s);
/// * `legitimate` names the categorical/boolean columns defining strata
///   (bin numeric factors first, e.g. with
///   [`fairbridge_stats::descriptive::bin_codes`]);
/// * `min_group_size` applies within each stratum.
pub fn conditional_statistical_parity(
    ds: &Dataset,
    protected: &[&str],
    legitimate: &[&str],
    min_group_size: usize,
) -> Result<ConditionalParityReport, String> {
    let predictions = ds.predictions().map_err(|e| e.to_string())?;
    conditional_parity_over(ds, protected, legitimate, predictions, min_group_size)
}

/// Like [`conditional_statistical_parity`] but treats the dataset labels
/// as the decisions (historical-data auditing).
pub fn conditional_parity_on_labels(
    ds: &Dataset,
    protected: &[&str],
    legitimate: &[&str],
    min_group_size: usize,
) -> Result<ConditionalParityReport, String> {
    let decisions = ds.labels().map_err(|e| e.to_string())?;
    conditional_parity_over(ds, protected, legitimate, decisions, min_group_size)
}

fn conditional_parity_over(
    ds: &Dataset,
    protected: &[&str],
    legitimate: &[&str],
    decisions: &[bool],
    min_group_size: usize,
) -> Result<ConditionalParityReport, String> {
    if legitimate.is_empty() {
        return Err("conditional parity requires at least one legitimate factor".to_owned());
    }
    let mut strata = Vec::new();
    let mut worst_gap = f64::NAN;
    let mut worst_stratum = None;
    for (stratum, acc) in GroupAccumulator::per_stratum(ds, protected, legitimate, decisions)? {
        let parity = ParityReport::from_rates(acc.selection_rates(), min_group_size);
        let gap = parity.summary.gap;
        if !gap.is_nan() && (worst_gap.is_nan() || gap > worst_gap) {
            worst_gap = gap;
            worst_stratum = Some(stratum.clone());
        }
        strata.push(StratumReport {
            stratum,
            n: acc.total() as usize,
            parity,
        });
    }
    Ok(ConditionalParityReport {
        strata,
        worst_gap,
        worst_stratum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcomes;
    use fairbridge_tabular::Role;

    /// The paper's III.B example: 20 male applicants (10 young), 10 female
    /// (6 young). 5 young males hired. Fair iff 3 young females hired.
    fn paper_example(young_females_hired: usize) -> Dataset {
        let mut sex = Vec::new(); // 0 male, 1 female
        let mut young = Vec::new();
        let mut hired = Vec::new();
        // 10 young males, 5 hired
        for i in 0..10 {
            sex.push(0);
            young.push(true);
            hired.push(i < 5);
        }
        // 10 older males, none hired (irrelevant to the young stratum)
        for _ in 0..10 {
            sex.push(0);
            young.push(false);
            hired.push(false);
        }
        // 6 young females, k hired
        for i in 0..6 {
            sex.push(1);
            young.push(true);
            hired.push(i < young_females_hired);
        }
        // 4 older females
        for _ in 0..4 {
            sex.push(1);
            young.push(false);
            hired.push(false);
        }
        Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .boolean("young", young)
            .boolean_with_role("hired", hired, Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_iii_b_exact_numbers() {
        // "If 5 young males receive the outcome hire ... the model is
        // considered fair if the probability of young females to receive
        // the outcome hire is also 50% meaning that 3 young females should
        // be hired."
        let ds = paper_example(3);
        let report = conditional_parity_on_labels(&ds, &["sex"], &["young"], 0).unwrap();
        let young_stratum = report
            .strata
            .iter()
            .find(|s| s.stratum.levels()[0] == "true")
            .unwrap();
        for r in &young_stratum.parity.rates {
            assert!((r.rate - 0.5).abs() < 1e-12, "{:?}", r);
        }
        assert!(young_stratum.parity.is_fair(1e-9));
    }

    #[test]
    fn fewer_than_three_is_biased() {
        let ds = paper_example(1);
        let report = conditional_parity_on_labels(&ds, &["sex"], &["young"], 0).unwrap();
        assert!(!report.is_fair(0.05));
        assert_eq!(report.worst_stratum.as_ref().unwrap().levels()[0], "true");
        // young female rate 1/6 vs male 1/2 → gap 1/3
        assert!((report.worst_gap - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_parity_can_hide_stratum_bias() {
        // Simpson-style: marginal rates equal, within-stratum rates differ.
        let mut sex = Vec::new();
        let mut senior = Vec::new();
        let mut hired = Vec::new();
        // males: 8 senior (6 hired), 2 junior (0 hired) → marginal 0.6
        for i in 0..8 {
            sex.push(0);
            senior.push(true);
            hired.push(i < 6);
        }
        for _ in 0..2 {
            sex.push(0);
            senior.push(false);
            hired.push(false);
        }
        // females: 2 senior (0 hired), 8 junior (6 hired) → marginal 0.6
        for _ in 0..2 {
            sex.push(1);
            senior.push(true);
            hired.push(false);
        }
        for i in 0..8 {
            sex.push(1);
            senior.push(false);
            hired.push(i < 6);
        }
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .boolean("senior", senior)
            .boolean_with_role("hired", hired, Role::Label)
            .build()
            .unwrap();

        // Marginal: fair.
        let o = Outcomes::from_labels_as_decisions(&ds, &["sex"]).unwrap();
        let marginal = crate::parity::demographic_parity(&o, 0);
        assert!(marginal.is_fair(1e-9));

        // Conditional: glaringly unfair in both strata.
        let cond = conditional_parity_on_labels(&ds, &["sex"], &["senior"], 0).unwrap();
        assert!(!cond.is_fair(0.1));
        assert!(cond.worst_gap > 0.7);
    }

    #[test]
    fn requires_a_legitimate_factor() {
        let ds = paper_example(3);
        assert!(conditional_parity_on_labels(&ds, &["sex"], &[], 0).is_err());
    }
}
