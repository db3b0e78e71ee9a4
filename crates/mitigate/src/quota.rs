//! Affirmative-action quota selection (paper Section IV.A).
//!
//! "Affirmative action or a company's policy would require a minimum
//! quota in female acceptances for every job." The selector takes model
//! scores and a total capacity and fills it so that each group receives at
//! least its quota (proportional by default), choosing the highest-scored
//! members within each group — the equal-outcome instrument in its purest
//! form.

use fairbridge_tabular::{Dataset, GroupIndex, GroupKey};
use std::collections::BTreeMap;

/// Quota policy for one selection round.
#[derive(Debug, Clone, PartialEq)]
pub enum QuotaPolicy {
    /// Each group is guaranteed ⌊share_of_applicants × capacity⌋ slots.
    Proportional,
    /// Explicit minimum share of the capacity per group key (groups not
    /// listed get no guarantee). Shares must sum to ≤ 1.
    MinimumShares(BTreeMap<GroupKey, f64>),
}

/// The quota selection result.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaSelection {
    /// Selected decision per row.
    pub selected: Vec<bool>,
    /// Guaranteed slots per group.
    pub guaranteed: BTreeMap<GroupKey, usize>,
    /// Rows selected due to a quota that pure score ranking would have
    /// passed over.
    pub quota_beneficiaries: Vec<usize>,
}

/// Selects `capacity` rows by score, honouring the quota policy.
///
/// Algorithm: first give each group its guaranteed slots (top-scored
/// within the group), then fill the remaining capacity from the global
/// score ranking.
pub fn quota_select(
    ds: &Dataset,
    protected: &[&str],
    scores: &[f64],
    capacity: usize,
    policy: &QuotaPolicy,
) -> Result<QuotaSelection, String> {
    if scores.len() != ds.n_rows() {
        return Err("scores length must match dataset rows".to_owned());
    }
    if capacity > ds.n_rows() {
        return Err("capacity exceeds number of candidates".to_owned());
    }
    let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;

    // Guaranteed slots per group.
    let mut guaranteed: BTreeMap<GroupKey, usize> = BTreeMap::new();
    match policy {
        QuotaPolicy::Proportional => {
            let n = ds.n_rows() as f64;
            for (key, rows) in groups.iter() {
                let share = rows.len() as f64 / n;
                guaranteed.insert(key.clone(), (share * capacity as f64).floor() as usize);
            }
        }
        QuotaPolicy::MinimumShares(shares) => {
            let total: f64 = shares.values().sum();
            if total > 1.0 + 1e-9 {
                return Err(format!("quota shares sum to {total} > 1"));
            }
            for (key, share) in shares {
                if !(0.0..=1.0).contains(share) {
                    return Err("quota shares must be in [0,1]".to_owned());
                }
                guaranteed.insert(key.clone(), (share * capacity as f64).floor() as usize);
            }
        }
    }

    let mut selected = vec![false; ds.n_rows()];
    let mut slots_used = 0usize;

    // Phase 1: per-group guarantees, top-scored first.
    for (key, rows) in groups.iter() {
        let quota = guaranteed.get(key).copied().unwrap_or(0).min(rows.len());
        let mut ranked: Vec<usize> = rows.to_vec();
        ranked.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));
        for &i in ranked.iter().take(quota) {
            if slots_used >= capacity {
                break;
            }
            selected[i] = true;
            slots_used += 1;
        }
    }

    // Phase 2: remaining capacity by global score ranking.
    let mut remaining: Vec<usize> = (0..ds.n_rows()).filter(|&i| !selected[i]).collect();
    remaining.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));
    for &i in &remaining {
        if slots_used >= capacity {
            break;
        }
        selected[i] = true;
        slots_used += 1;
    }

    // Beneficiaries: selected rows that pure top-`capacity` ranking skips.
    let mut pure: Vec<usize> = (0..ds.n_rows()).collect();
    pure.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));
    let pure_set: Vec<bool> = {
        let mut v = vec![false; ds.n_rows()];
        for &i in pure.iter().take(capacity) {
            v[i] = true;
        }
        v
    };
    let quota_beneficiaries: Vec<usize> = (0..ds.n_rows())
        .filter(|&i| selected[i] && !pure_set[i])
        .collect();

    Ok(QuotaSelection {
        selected,
        guaranteed,
        quota_beneficiaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

    /// 20 males scored high, 10 females scored low (depressed by bias).
    fn cohort() -> (Dataset, Vec<f64>) {
        let mut sex = Vec::new();
        let mut scores = Vec::new();
        for i in 0..20 {
            sex.push(0);
            scores.push(0.9 - i as f64 * 0.01);
        }
        for i in 0..10 {
            sex.push(1);
            scores.push(0.5 - i as f64 * 0.01);
        }
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .boolean_with_role("y", vec![true; 30], Role::Label)
            .build()
            .unwrap();
        (ds, scores)
    }

    #[test]
    fn pure_ranking_excludes_females_quota_fixes_it() {
        let (ds, scores) = cohort();
        // capacity 15: pure ranking = 15 males. Proportional quota
        // guarantees females 1/3 × 15 = 5 slots.
        let sel = quota_select(&ds, &["sex"], &scores, 15, &QuotaPolicy::Proportional).unwrap();
        let (_, sex) = ds.categorical("sex").unwrap();
        let female_selected = sel
            .selected
            .iter()
            .zip(sex)
            .filter(|(&s, &c)| s && c == 1)
            .count();
        assert_eq!(female_selected, 5);
        assert_eq!(sel.selected.iter().filter(|&&s| s).count(), 15);
        assert_eq!(sel.quota_beneficiaries.len(), 5);
        // beneficiaries are the top-scored females
        assert!(sel
            .quota_beneficiaries
            .iter()
            .all(|&i| (20..25).contains(&i)));
    }

    #[test]
    fn proportional_quota_matches_paper_example() {
        // Paper III.A arithmetic: 20 male/10 female, 15 hired → 5 females.
        let (ds, scores) = cohort();
        let sel = quota_select(&ds, &["sex"], &scores, 15, &QuotaPolicy::Proportional).unwrap();
        assert_eq!(
            sel.guaranteed
                .get(&GroupKey(vec!["female".into()]))
                .copied(),
            Some(5)
        );
        assert_eq!(
            sel.guaranteed.get(&GroupKey(vec!["male".into()])).copied(),
            Some(10)
        );
    }

    #[test]
    fn minimum_shares_policy() {
        let (ds, scores) = cohort();
        let mut shares = BTreeMap::new();
        shares.insert(GroupKey(vec!["female".into()]), 0.4);
        let sel = quota_select(
            &ds,
            &["sex"],
            &scores,
            10,
            &QuotaPolicy::MinimumShares(shares),
        )
        .unwrap();
        let (_, sex) = ds.categorical("sex").unwrap();
        let females = sel
            .selected
            .iter()
            .zip(sex)
            .filter(|(&s, &c)| s && c == 1)
            .count();
        assert_eq!(females, 4);
    }

    #[test]
    fn capacity_is_respected_exactly() {
        let (ds, scores) = cohort();
        for cap in [0, 1, 7, 30] {
            let sel =
                quota_select(&ds, &["sex"], &scores, cap, &QuotaPolicy::Proportional).unwrap();
            assert_eq!(sel.selected.iter().filter(|&&s| s).count(), cap);
        }
    }

    #[test]
    fn validates_inputs() {
        let (ds, scores) = cohort();
        assert!(quota_select(&ds, &["sex"], &scores, 31, &QuotaPolicy::Proportional).is_err());
        assert!(quota_select(&ds, &["sex"], &[0.0; 2], 1, &QuotaPolicy::Proportional).is_err());
        let mut bad = BTreeMap::new();
        bad.insert(GroupKey(vec!["female".into()]), 0.7);
        bad.insert(GroupKey(vec!["male".into()]), 0.7);
        assert!(
            quota_select(&ds, &["sex"], &scores, 10, &QuotaPolicy::MinimumShares(bad)).is_err()
        );
    }

    #[test]
    fn quota_cannot_exceed_group_size() {
        let ds = Dataset::builder()
            .categorical_with_role("g", vec!["a", "b"], vec![0, 0, 0, 1], Role::Protected)
            .boolean_with_role("y", vec![true; 4], Role::Label)
            .build()
            .unwrap();
        let mut shares = BTreeMap::new();
        shares.insert(GroupKey(vec!["b".into()]), 0.9);
        // group b has one member; quota of floor(0.9*4)=3 clamps to 1.
        let sel = quota_select(
            &ds,
            &["g"],
            &[0.9, 0.8, 0.7, 0.1],
            4,
            &QuotaPolicy::MinimumShares(shares),
        )
        .unwrap();
        assert_eq!(sel.selected.iter().filter(|&&s| s).count(), 4);
    }
}
