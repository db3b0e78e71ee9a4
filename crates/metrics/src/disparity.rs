//! Demographic disparity and its conditional refinement — paper
//! Sections III.E and III.F, Eq. (5) and (6).
//!
//! Eq. (5): Pr(R = + | A = a) > Pr(R = − | A = a) ∀ a ∈ A — each
//! protected group independently must receive more acceptances than
//! rejections.
//!
//! Eq. (6): Pr(R = + | S = s, A = a) ≥ Pr(R = − | S = s, A = a)
//! ∀ a ∈ A, ∀ s ∈ S — the same check within each stratum of a legitimate
//! factor (the paper's five-jobs example).

use crate::accumulator::GroupAccumulator;
use crate::outcome::{Outcomes, RateStat};
use fairbridge_tabular::{Dataset, GroupKey};

/// Verdict for one group under demographic disparity.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDisparity {
    /// Selection-rate statistic for the group.
    pub stat: RateStat,
    /// Whether Pr(R=+|a) > Pr(R=−|a), i.e. rate > 0.5. Strict by Eq. (5).
    pub fair: bool,
}

/// The demographic-disparity report (Eq. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct DisparityReport {
    /// Per-group verdicts.
    pub groups: Vec<GroupDisparity>,
}

impl DisparityReport {
    /// Applies Eq. (5)'s strict `rate > 0.5` to each group's selection
    /// rate; an undefined (NaN) rate fails.
    pub fn from_rates(rates: Vec<RateStat>) -> DisparityReport {
        let groups = rates
            .into_iter()
            .map(|stat| GroupDisparity {
                fair: stat.rate > 0.5,
                stat,
            })
            .collect();
        DisparityReport { groups }
    }

    /// Whether every group receives more acceptances than rejections.
    pub fn is_fair(&self) -> bool {
        self.groups.iter().all(|g| g.fair)
    }

    /// Groups failing the check.
    pub fn unfair_groups(&self) -> Vec<&GroupKey> {
        self.groups
            .iter()
            .filter(|g| !g.fair)
            .map(|g| &g.stat.group)
            .collect()
    }
}

/// Computes demographic disparity (Eq. 5): strict `>` as in the paper.
pub fn demographic_disparity(outcomes: &Outcomes) -> DisparityReport {
    DisparityReport::from_rates(GroupAccumulator::from_outcomes(outcomes).selection_rates())
}

/// One stratum's verdicts under conditional demographic disparity.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalDisparityStratum {
    /// The stratum key.
    pub stratum: GroupKey,
    /// Per-group verdicts within the stratum. Eq. (6) uses `≥`.
    pub groups: Vec<GroupDisparity>,
}

/// The conditional-demographic-disparity report (Eq. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalDisparityReport {
    /// Per-stratum verdicts.
    pub strata: Vec<ConditionalDisparityStratum>,
}

impl ConditionalDisparityReport {
    /// Strata in which some group fails the check.
    pub fn unfair_strata(&self) -> Vec<&GroupKey> {
        self.strata
            .iter()
            .filter(|s| s.groups.iter().any(|g| !g.fair))
            .map(|s| &s.stratum)
            .collect()
    }

    /// Whether the check passes in every stratum.
    pub fn is_fair(&self) -> bool {
        self.unfair_strata().is_empty()
    }
}

/// Computes conditional demographic disparity (Eq. 6) over dataset
/// decisions, conditioning on the named stratum columns. Uses `≥` as the
/// paper's Eq. (6) states (note the deliberate difference from Eq. (5)'s
/// strict `>`).
pub fn conditional_demographic_disparity(
    ds: &Dataset,
    protected: &[&str],
    strata_cols: &[&str],
    use_labels_as_decisions: bool,
) -> Result<ConditionalDisparityReport, String> {
    if strata_cols.is_empty() {
        return Err("conditional disparity requires at least one stratum column".to_owned());
    }
    let decisions = if use_labels_as_decisions {
        ds.labels()
    } else {
        ds.predictions()
    }
    .map_err(|e| e.to_string())?;
    // Groups absent from a stratum get no verdict there.
    let strata = GroupAccumulator::per_stratum(ds, protected, strata_cols, decisions)?
        .into_iter()
        .map(|(stratum, acc)| ConditionalDisparityStratum {
            stratum,
            groups: acc
                .selection_rates()
                .into_iter()
                .filter(|stat| stat.n > 0)
                .map(|stat| GroupDisparity {
                    fair: stat.rate >= 0.5,
                    stat,
                })
                .collect(),
        })
        .collect();
    Ok(ConditionalDisparityReport { strata })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

    #[test]
    fn paper_iii_e_example() {
        // "Suppose that we have 10 female applicants. The model is fair
        // towards females if it gives the outcome hire to more females
        // than it gives the outcome not-hire ... if more than 5 females
        // are rejected, then the model is unfair towards females."
        let make = |hired: usize| {
            let preds: Vec<bool> = (0..10).map(|i| i < hired).collect();
            let codes = vec![0u32; 10];
            Outcomes::from_slices(&preds, None, &codes, &["female"]).unwrap()
        };
        assert!(demographic_disparity(&make(6)).is_fair());
        // exactly 5/5 fails the strict inequality of Eq. (5)
        assert!(!demographic_disparity(&make(5)).is_fair());
        assert!(!demographic_disparity(&make(4)).is_fair());
        let report = demographic_disparity(&make(3));
        assert_eq!(report.unfair_groups().len(), 1);
    }

    /// The paper's III.F example: 100 females across 5 jobs; 40 hired
    /// overall; all accepted in the first 4 jobs (10 each), all rejected
    /// in the fifth (60 applicants).
    fn paper_iii_f_dataset() -> Dataset {
        let mut sex = Vec::new();
        let mut job = Vec::new();
        let mut hired = Vec::new();
        for j in 0..4u32 {
            for _ in 0..10 {
                sex.push(0u32);
                job.push(j);
                hired.push(true);
            }
        }
        for _ in 0..60 {
            sex.push(0);
            job.push(4);
            hired.push(false);
        }
        Dataset::builder()
            .categorical_with_role("sex", vec!["female"], sex, Role::Protected)
            .categorical_with_role(
                "job",
                vec!["job1", "job2", "job3", "job4", "job5"],
                job,
                Role::Feature,
            )
            .boolean_with_role("hired", hired, Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_iii_f_conditioning_flips_verdict() {
        let ds = paper_iii_f_dataset();
        // Marginal demographic disparity: 40 hired < 60 rejected → unfair.
        let o = Outcomes::from_labels_as_decisions(&ds, &["sex"]).unwrap();
        assert!(!demographic_disparity(&o).is_fair());

        // Conditional: fair for jobs 1–4, unfair only for job 5.
        let report = conditional_demographic_disparity(&ds, &["sex"], &["job"], true).unwrap();
        let unfair: Vec<String> = report
            .unfair_strata()
            .iter()
            .map(|k| k.levels()[0].clone())
            .collect();
        assert_eq!(unfair, vec!["job5".to_owned()]);
        assert!(!report.is_fair());
        assert_eq!(report.strata.len(), 5);
    }

    #[test]
    fn eq6_uses_weak_inequality() {
        // Exactly 50/50 within a stratum passes Eq. (6) (≥) though it
        // would fail Eq. (5) (>).
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["female"], vec![0, 0], Role::Protected)
            .categorical_strs("job", &["j", "j"])
            .boolean_with_role("hired", vec![true, false], Role::Label)
            .build()
            .unwrap();
        let cond = conditional_demographic_disparity(&ds, &["sex"], &["job"], true).unwrap();
        assert!(cond.is_fair());
        let o = Outcomes::from_labels_as_decisions(&ds, &["sex"]).unwrap();
        assert!(!demographic_disparity(&o).is_fair());
    }

    #[test]
    fn empty_stratum_groups_are_skipped() {
        // Group "b" never appears in stratum "j2" — no verdict for it.
        let ds = Dataset::builder()
            .categorical_with_role("g", vec!["a", "b"], vec![0, 0, 1], Role::Protected)
            .categorical_with_role("s", vec!["j1", "j2"], vec![0, 1, 0], Role::Feature)
            .boolean_with_role("y", vec![true, true, true], Role::Label)
            .build()
            .unwrap();
        let report = conditional_demographic_disparity(&ds, &["g"], &["s"], true).unwrap();
        let j2 = report
            .strata
            .iter()
            .find(|s| s.stratum.levels()[0] == "j2")
            .unwrap();
        assert_eq!(j2.groups.len(), 1);
    }

    #[test]
    fn requires_stratum_column() {
        let ds = paper_iii_f_dataset();
        assert!(conditional_demographic_disparity(&ds, &["sex"], &[], true).is_err());
    }
}
