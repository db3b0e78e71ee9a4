//! Kamiran–Calders reweighing (paper reference \[8\]).
//!
//! Assigns each instance the weight `P(A=a)·P(Y=y) / P(A=a, Y=y)`, which
//! makes the *weighted* joint distribution of protected attribute and
//! label exactly independent: a weight-aware learner then sees a dataset
//! in which group membership carries no label information.

use fairbridge_metrics::GroupAccumulator;
use fairbridge_tabular::{Column, Dataset, GroupIndex, Role};

/// The reweighing result.
#[derive(Debug, Clone)]
pub struct ReweighResult {
    /// The input dataset with a `reweigh_weight` column attached
    /// ([`Role::Weight`]).
    pub dataset: Dataset,
    /// Per-(group, label) weights in the order (group key asc, label
    /// false/true): `(group_index, label, weight)`.
    pub cell_weights: Vec<(usize, bool, f64)>,
}

/// Computes reweighing weights over the dataset's protected column(s) and
/// label, attaching them as a weight column.
///
/// # Examples
///
/// ```
/// use fairbridge_mitigate::reweigh;
/// use fairbridge_tabular::{Dataset, Role};
///
/// // 4 males (3 hired), 4 females (1 hired): dependent.
/// let ds = Dataset::builder()
///     .categorical_with_role("sex", vec!["m", "f"],
///         vec![0, 0, 0, 0, 1, 1, 1, 1], Role::Protected)
///     .boolean_with_role("hired",
///         vec![true, true, true, false, true, false, false, false],
///         Role::Label)
///     .build()
///     .unwrap();
///
/// let result = reweigh(&ds, &["sex"]).unwrap();
/// let w = result.dataset.weights();
/// // the rare hired female is up-weighted, the common hired male down-weighted
/// assert!(w[4] > 1.0 && w[0] < 1.0);
/// // total mass preserved
/// assert!((w.iter().sum::<f64>() - 8.0).abs() < 1e-9);
/// ```
pub fn reweigh(ds: &Dataset, protected: &[&str]) -> Result<ReweighResult, String> {
    let labels = ds.labels().map_err(|e| e.to_string())?;
    let n = ds.n_rows() as f64;
    if n == 0.0 {
        return Err("reweigh requires a non-empty dataset".to_owned());
    }
    let groups = GroupIndex::build(ds, protected).map_err(|e| e.to_string())?;
    // The labels are observed as the decisions, so `pred_pos` counts each
    // group's positive labels.
    let mut acc = GroupAccumulator::for_groups(&groups, false);
    acc.observe_rows(&groups, 0..ds.n_rows(), labels, None);

    let p_pos = acc.counts().iter().map(|c| c.pred_pos).sum::<u64>() as f64 / n;
    let p_neg = 1.0 - p_pos;

    // Per group, the weights of its negative and positive cells.
    let cells: Vec<[f64; 2]> = acc
        .counts()
        .iter()
        .map(|c| {
            let p_group = c.n as f64 / n;
            let weight = |rows: f64, p: f64| {
                if rows > 0.0 {
                    p_group * p / (rows / n)
                } else {
                    0.0
                }
            };
            let pos_rows = c.pred_pos as f64;
            [
                weight(c.n as f64 - pos_rows, p_neg),
                weight(pos_rows, p_pos),
            ]
        })
        .collect();
    let weights = labels
        .iter()
        .enumerate()
        .map(|(row, &y)| cells[groups.group_of(row)][usize::from(y)])
        .collect();
    let cell_weights = cells
        .iter()
        .enumerate()
        .flat_map(|(gi, &[w_neg, w_pos])| [(gi, false, w_neg), (gi, true, w_pos)])
        .collect();

    let dataset = ds
        .with_column("reweigh_weight", Column::Numeric(weights), Role::Weight)
        .map_err(|e| e.to_string())?;
    Ok(ReweighResult {
        dataset,
        cell_weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

    /// 10 males (8 hired), 10 females (2 hired): strongly dependent.
    fn biased() -> Dataset {
        let mut sex = Vec::new();
        let mut hired = Vec::new();
        for i in 0..10 {
            sex.push(0);
            hired.push(i < 8);
        }
        for i in 0..10 {
            sex.push(1);
            hired.push(i < 2);
        }
        Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .boolean_with_role("hired", hired, Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn weighted_joint_is_independent() {
        let result = reweigh(&biased(), &["sex"]).unwrap();
        let ds = &result.dataset;
        let w = ds.weights();
        let labels = ds.labels().unwrap();
        let (_, sex) = ds.categorical("sex").unwrap();

        let total: f64 = w.iter().sum();
        // Weighted P(A=a, Y=y) must equal weighted P(A=a)·P(Y=y) exactly.
        for a in 0..2u32 {
            for y in [false, true] {
                let p_ay: f64 = w
                    .iter()
                    .zip(sex)
                    .zip(labels)
                    .filter(|((_, &s), &l)| s == a && l == y)
                    .map(|((wi, _), _)| wi)
                    .sum::<f64>()
                    / total;
                let p_a: f64 = w
                    .iter()
                    .zip(sex)
                    .filter(|(_, &s)| s == a)
                    .map(|(wi, _)| wi)
                    .sum::<f64>()
                    / total;
                let p_y: f64 = w
                    .iter()
                    .zip(labels)
                    .filter(|(_, &l)| l == y)
                    .map(|(wi, _)| wi)
                    .sum::<f64>()
                    / total;
                assert!(
                    (p_ay - p_a * p_y).abs() < 1e-12,
                    "a={a} y={y}: {p_ay} vs {}",
                    p_a * p_y
                );
            }
        }
    }

    #[test]
    fn disadvantaged_positives_upweighted() {
        let result = reweigh(&biased(), &["sex"]).unwrap();
        let ds = &result.dataset;
        let w = ds.weights();
        let labels = ds.labels().unwrap();
        let (_, sex) = ds.categorical("sex").unwrap();
        // A hired female is rare (2 of 10 expected 5) → weight > 1.
        let hired_female = w
            .iter()
            .zip(sex)
            .zip(labels)
            .find(|((_, &s), &l)| s == 1 && l)
            .map(|((wi, _), _)| *wi)
            .unwrap();
        assert!(hired_female > 1.5, "weight {hired_female}");
        // A hired male is over-represented → weight < 1.
        let hired_male = w
            .iter()
            .zip(sex)
            .zip(labels)
            .find(|((_, &s), &l)| s == 0 && l)
            .map(|((wi, _), _)| *wi)
            .unwrap();
        assert!(hired_male < 1.0);
    }

    #[test]
    fn already_independent_weights_are_one() {
        let mut sex = Vec::new();
        let mut hired = Vec::new();
        for g in 0..2 {
            for i in 0..10 {
                sex.push(g);
                hired.push(i < 5);
            }
        }
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], sex, Role::Protected)
            .boolean_with_role("hired", hired, Role::Label)
            .build()
            .unwrap();
        let result = reweigh(&ds, &["sex"]).unwrap();
        for w in result.dataset.weights() {
            assert!((w - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn intersectional_reweighing_works() {
        // group by two protected columns at once
        let ds = Dataset::builder()
            .categorical_with_role("g1", vec!["a", "b"], vec![0, 0, 1, 1], Role::Protected)
            .categorical_with_role("g2", vec!["x", "y"], vec![0, 1, 0, 1], Role::Protected)
            .boolean_with_role("y", vec![true, false, false, true], Role::Label)
            .build()
            .unwrap();
        let result = reweigh(&ds, &["g1", "g2"]).unwrap();
        assert_eq!(result.cell_weights.len(), 8); // 4 cells × 2 labels
        assert_eq!(result.dataset.weights().len(), 4);
    }

    #[test]
    fn weight_mass_is_preserved() {
        let result = reweigh(&biased(), &["sex"]).unwrap();
        let total: f64 = result.dataset.weights().iter().sum();
        assert!((total - 20.0).abs() < 1e-9, "total weight {total}");
    }
}
