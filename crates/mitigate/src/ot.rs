//! Optimal-transport feature repair toward the group barycenter
//! (Feldman-style "total repair"; paper Section IV.F's Wasserstein
//! machinery put to constructive use).
//!
//! Each group's feature distribution is pushed onto the Wasserstein
//! barycenter of all groups via its quantile map — after full repair the
//! feature carries no group information, so no downstream model can use
//! it as a proxy. `lambda` interpolates between no repair (0) and total
//! repair (1), trading residual disparate impact against feature fidelity
//! (the "partial repair" knob).

use fairbridge_stats::descriptive::quantile_sorted;
use fairbridge_stats::distribution::Discrete;
use fairbridge_stats::sinkhorn::par_sinkhorn;
use fairbridge_tabular::{Column, Dataset};

/// Per-group sorted views used by the repair maps.
#[derive(Debug, Clone)]
pub struct QuantileRepairer {
    /// Sorted feature values per group.
    group_sorted: Vec<Vec<f64>>,
    /// Group weights (proportional to size) used for the barycenter.
    weights: Vec<f64>,
}

impl QuantileRepairer {
    /// Fits the repairer from raw values and group codes (codes must be
    /// `< n_groups`; every group must be non-empty).
    pub fn fit(
        values: &[f64],
        group_codes: &[u32],
        n_groups: usize,
    ) -> Result<QuantileRepairer, String> {
        if values.len() != group_codes.len() {
            return Err("values and group codes differ in length".to_owned());
        }
        if n_groups == 0 {
            return Err("need at least one group".to_owned());
        }
        let mut group_sorted: Vec<Vec<f64>> = vec![Vec::new(); n_groups];
        for (&v, &g) in values.iter().zip(group_codes) {
            let g = g as usize;
            if g >= n_groups {
                return Err(format!("group code {g} out of range"));
            }
            if v.is_nan() {
                return Err("values must not contain NaN".to_owned());
            }
            group_sorted[g].push(v);
        }
        if group_sorted.iter().any(Vec::is_empty) {
            return Err("every group must be non-empty".to_owned());
        }
        for g in &mut group_sorted {
            g.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        }
        let total: f64 = values.len() as f64;
        let weights = group_sorted
            .iter()
            .map(|g| g.len() as f64 / total)
            .collect();
        Ok(QuantileRepairer {
            group_sorted,
            weights,
        })
    }

    /// The barycenter quantile at level `t`: the weight-averaged group
    /// quantile (the 1-D Wasserstein barycenter's quantile function).
    pub fn barycenter_quantile(&self, t: f64) -> f64 {
        self.group_sorted
            .iter()
            .zip(&self.weights)
            .map(|(g, &w)| w * quantile_sorted(g, t))
            .sum()
    }

    /// The quantile level of `v` within group `g` (mid-point convention).
    fn level_within_group(&self, g: usize, v: f64) -> f64 {
        let sorted = &self.group_sorted[g];
        let below = sorted.partition_point(|&s| s < v);
        let not_above = sorted.partition_point(|&s| s <= v);
        // mid-rank of the value's ties, mapped to (0,1)
        ((below + not_above) as f64 / 2.0) / sorted.len() as f64
    }

    /// Repairs one value from group `g` at strength `lambda` ∈ \[0,1\].
    pub fn repair_value(&self, g: usize, v: f64, lambda: f64) -> f64 {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0,1]");
        let t = self.level_within_group(g, v).clamp(0.0, 1.0);
        let target = self.barycenter_quantile(t);
        (1.0 - lambda) * v + lambda * target
    }

    /// Repairs a full value column.
    pub fn repair_all(&self, values: &[f64], group_codes: &[u32], lambda: f64) -> Vec<f64> {
        values
            .iter()
            .zip(group_codes)
            .map(|(&v, &g)| self.repair_value(g as usize, v, lambda))
            .collect()
    }
}

/// A categorical repair recipe derived from an entropic transport plan:
/// for each source level, the conditional distribution over target
/// levels a repaired value should be drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalRepairPlan {
    /// Row-stochastic transition rows, `source.k() × target.k()`
    /// row-major. Rows of source levels carrying no mass (or unreachable
    /// under the cost) are all-zero.
    pub transitions: Vec<f64>,
    /// Number of target levels per row.
    pub n_targets: usize,
    /// The entropic transport cost of the underlying plan.
    pub cost: f64,
    /// Whether the Sinkhorn solve converged.
    pub converged: bool,
}

impl CategoricalRepairPlan {
    /// The repair distribution over target levels for `source_level`.
    pub fn row(&self, source_level: usize) -> &[f64] {
        &self.transitions[source_level * self.n_targets..(source_level + 1) * self.n_targets]
    }
}

/// Fits a categorical repair plan moving a group's level distribution
/// onto a target (e.g. barycenter or population) distribution under an
/// explicit level-to-level cost, via the deterministic parallel Sinkhorn
/// kernel. The ε knob plays the role `lambda` plays for numeric repair:
/// larger ε spreads each level across more targets (softer repair),
/// smaller ε approaches the exact OT rounding.
pub fn entropic_repair_plan(
    source: &Discrete,
    target: &Discrete,
    cost: &[f64],
    epsilon: f64,
    workers: usize,
) -> Result<CategoricalRepairPlan, String> {
    let result = par_sinkhorn(source, target, cost, epsilon, 5000, workers)?;
    let m = target.k();
    let mut transitions = result.plan;
    for i in 0..source.k() {
        let row = &mut transitions[i * m..(i + 1) * m];
        let mass: f64 = row.iter().sum();
        if mass > 0.0 {
            for x in row.iter_mut() {
                *x /= mass;
            }
        }
    }
    Ok(CategoricalRepairPlan {
        transitions,
        n_targets: m,
        cost: result.cost,
        converged: result.converged,
    })
}

/// Repairs the named numeric feature columns of a dataset toward the
/// barycenter over the groups of `protected` (a categorical or boolean
/// column, one group per level that some row has), returning a new
/// dataset.
pub fn repair_dataset(
    ds: &Dataset,
    protected: &str,
    features: &[&str],
    lambda: f64,
) -> Result<Dataset, String> {
    let (levels, codes) = ds
        .column(protected)
        .and_then(|c| c.as_coded(protected))
        .map_err(|e| e.to_string())?;
    // A level only the dictionary names is no group, as in `reweigh` and
    // `/audit`. The present levels keep their code order, so with every
    // level present the group ids are the codes.
    let mut present = vec![false; levels.len()];
    for &c in codes.iter() {
        present[c as usize] = true;
    }
    let group_of_level: Vec<u32> = present
        .iter()
        .scan(0u32, |next, &p| {
            let id = *next;
            *next += u32::from(p);
            Some(id)
        })
        .collect();
    let groups: Vec<u32> = codes.iter().map(|&c| group_of_level[c as usize]).collect();
    let n_groups = present.iter().filter(|&&p| p).count();
    let mut out = ds.clone();
    for fname in features {
        let values = ds.numeric(fname).map_err(|e| e.to_string())?;
        let repairer = QuantileRepairer::fit(values, &groups, n_groups)?;
        let repaired = repairer.repair_all(values, &groups, lambda);
        let role = ds.schema().field(fname).map_err(|e| e.to_string())?.role;
        out = out
            .drop_column(fname)
            .and_then(|d| d.with_column(fname, Column::Numeric(repaired), role))
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_stats::distribution::Empirical;
    use fairbridge_stats::wasserstein_1d;
    use fairbridge_tabular::Role;

    /// Group 0 ~ grid on \[0,1\], group 1 ~ grid on \[2,3\]: disjoint.
    fn shifted() -> (Vec<f64>, Vec<u32>) {
        let mut values = Vec::new();
        let mut codes = Vec::new();
        for i in 0..100 {
            values.push(i as f64 / 100.0);
            codes.push(0);
            values.push(2.0 + i as f64 / 100.0);
            codes.push(1);
        }
        (values, codes)
    }

    fn group_w1(values: &[f64], codes: &[u32]) -> f64 {
        let g0: Vec<f64> = values
            .iter()
            .zip(codes)
            .filter_map(|(&v, &c)| (c == 0).then_some(v))
            .collect();
        let g1: Vec<f64> = values
            .iter()
            .zip(codes)
            .filter_map(|(&v, &c)| (c == 1).then_some(v))
            .collect();
        wasserstein_1d(&Empirical::new(g0).unwrap(), &Empirical::new(g1).unwrap())
    }

    #[test]
    fn total_repair_collapses_group_gap() {
        let (values, codes) = shifted();
        assert!((group_w1(&values, &codes) - 2.0).abs() < 0.01);
        let repairer = QuantileRepairer::fit(&values, &codes, 2).unwrap();
        let repaired = repairer.repair_all(&values, &codes, 1.0);
        assert!(
            group_w1(&repaired, &codes) < 0.03,
            "{}",
            group_w1(&repaired, &codes)
        );
    }

    #[test]
    fn partial_repair_interpolates_linearly() {
        let (values, codes) = shifted();
        let repairer = QuantileRepairer::fit(&values, &codes, 2).unwrap();
        let w_half = group_w1(&repairer.repair_all(&values, &codes, 0.5), &codes);
        let w_full = group_w1(&repairer.repair_all(&values, &codes, 1.0), &codes);
        let w_none = group_w1(&repairer.repair_all(&values, &codes, 0.0), &codes);
        assert!((w_none - 2.0).abs() < 0.01);
        assert!((w_half - 1.0).abs() < 0.05, "half repair W1 = {w_half}");
        assert!(w_full < 0.03);
    }

    #[test]
    fn repair_preserves_within_group_order() {
        let (values, codes) = shifted();
        let repairer = QuantileRepairer::fit(&values, &codes, 2).unwrap();
        let repaired = repairer.repair_all(&values, &codes, 1.0);
        // within each group, the map is monotone
        for c in 0..2u32 {
            let mut pairs: Vec<(f64, f64)> = values
                .iter()
                .zip(&repaired)
                .zip(&codes)
                .filter_map(|((&v, &r), &g)| (g == c).then_some((v, r)))
                .collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in pairs.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12);
            }
        }
    }

    #[test]
    fn barycenter_is_weighted_middle() {
        let (values, codes) = shifted();
        let repairer = QuantileRepairer::fit(&values, &codes, 2).unwrap();
        // equal-sized groups on [0,1] and [2,3] → barycenter ≈ [1,2]
        let med = repairer.barycenter_quantile(0.5);
        assert!((med - 1.5).abs() < 0.03, "median {med}");
    }

    #[test]
    fn repair_dataset_rewrites_feature() {
        let (values, codes) = shifted();
        let ds = Dataset::builder()
            .categorical_with_role("g", vec!["a", "b"], codes.clone(), Role::Protected)
            .numeric("score", values.clone())
            .boolean_with_role("y", vec![true; values.len()], Role::Label)
            .build()
            .unwrap();
        let repaired = repair_dataset(&ds, "g", &["score"], 1.0).unwrap();
        let new_vals = repaired.numeric("score").unwrap();
        assert!(group_w1(new_vals, &codes) < 0.03);
        // schema preserved
        assert_eq!(repaired.n_cols(), ds.n_cols());
        assert_eq!(
            repaired.schema().field("score").unwrap().role,
            Role::Feature
        );
    }

    #[test]
    fn boolean_protected_column_repairs_like_its_categorical_spelling() {
        let (values, codes) = shifted();
        let spell = |column: Column| {
            Dataset::builder()
                .numeric("score", values.clone())
                .build()
                .unwrap()
                .with_column("g", column, Role::Protected)
                .unwrap()
        };
        let boolean = spell(Column::Boolean(codes.iter().map(|&c| c == 1).collect()));
        let categorical = spell(Column::Categorical {
            levels: vec!["false".into(), "true".into()],
            codes: codes.clone(),
        });
        let bits = |ds: &Dataset| -> Vec<u64> {
            let repaired = repair_dataset(ds, "g", &["score"], 0.7).unwrap();
            let values = repaired.numeric("score").unwrap();
            values.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&boolean), bits(&categorical));
    }

    /// A dictionary level that no row has is no group: the repair equals
    /// the one over the dictionary without it, as `reweigh` accepts it.
    #[test]
    fn repair_skips_a_level_no_row_has() {
        let spell = |levels: Vec<&str>, codes: Vec<u32>| {
            Dataset::builder()
                .categorical_with_role("g", levels, codes, Role::Protected)
                .numeric("x", vec![1.0, 5.0, 2.0, 7.0])
                .boolean_with_role("y", vec![true, false, true, false], Role::Label)
                .build()
                .unwrap()
        };
        let bits = |ds: &Dataset| -> Vec<u64> {
            let repaired = repair_dataset(ds, "g", &["x"], 1.0).unwrap();
            let values = repaired.numeric("x").unwrap();
            values.iter().map(|v| v.to_bits()).collect()
        };
        let with_unused = spell(vec!["a", "b", "c"], vec![0, 1, 0, 1]);
        assert!(crate::reweigh(&with_unused, &["g"]).is_ok());
        assert_eq!(
            bits(&with_unused),
            bits(&spell(vec!["a", "b"], vec![0, 1, 0, 1]))
        );
        // An unused level between two used ones keeps the others' order.
        assert_eq!(
            bits(&spell(vec!["a", "c", "b"], vec![0, 2, 0, 2])),
            bits(&spell(vec!["a", "b"], vec![0, 1, 0, 1]))
        );
    }

    #[test]
    fn entropic_plan_rows_are_distributions() {
        use fairbridge_stats::sinkhorn::ordinal_cost;
        let source = Discrete::new(vec![0.6, 0.3, 0.1]).unwrap();
        let target = Discrete::new(vec![0.2, 0.3, 0.5]).unwrap();
        let plan = entropic_repair_plan(&source, &target, &ordinal_cost(3, 3), 0.05, 1).unwrap();
        assert!(plan.converged);
        for i in 0..3 {
            let sum: f64 = plan.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
            assert!(plan.row(i).iter().all(|&x| x >= 0.0));
        }
        // Moving mass rightward: level 0 must send some mass to higher
        // levels since the target is right-heavy.
        assert!(plan.row(0)[1] + plan.row(0)[2] > 0.1);
    }

    #[test]
    fn entropic_plan_on_identical_distributions_is_near_identity() {
        use fairbridge_stats::sinkhorn::ordinal_cost;
        let p = Discrete::new(vec![0.25, 0.5, 0.25]).unwrap();
        let plan = entropic_repair_plan(&p, &p, &ordinal_cost(3, 3), 0.01, 2).unwrap();
        for i in 0..3 {
            assert!(plan.row(i)[i] > 0.95, "row {i}: {:?}", plan.row(i));
        }
        assert!(plan.cost < 0.05);
    }

    #[test]
    fn validates_inputs() {
        assert!(QuantileRepairer::fit(&[1.0], &[0, 1], 2).is_err()); // length
        assert!(QuantileRepairer::fit(&[1.0, 2.0], &[0, 5], 2).is_err()); // code range
        assert!(QuantileRepairer::fit(&[1.0, 2.0], &[0, 0], 2).is_err()); // empty group
        assert!(QuantileRepairer::fit(&[f64::NAN, 2.0], &[0, 1], 2).is_err());
    }
}
