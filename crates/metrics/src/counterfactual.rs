//! Counterfactual fairness — paper Section III.G:
//!
//! > "if the value of a sensitive attribute of an individual changes,
//! > then the outcome predicted by the model should remain the same."
//!
//! The probe flips each individual's protected attribute — optionally
//! "adjusting other features to this change" as the paper's example says —
//! re-scores, and reports how often the decision flips. A decision that
//! changes under the intervention is counterfactually unfair for that
//! individual; the aggregate flip rate summarizes the model.

use fairbridge_learn::TrainedModel;
use fairbridge_tabular::{Column, Dataset, GroupKey, Role};

/// How non-protected features are adjusted when the protected attribute is
/// counterfactually changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustStrategy {
    /// Change only the protected attribute (ceteris paribus probe). An
    /// unaware model trivially passes this; it detects *direct* use of A.
    Identity,
    /// Shift every numeric feature by the difference of group means
    /// (a linear structural-equation surrogate for the paper's "adjusting
    /// other features to this change"). This propagates the intervention
    /// through descendants of A, so proxy-using models are caught too.
    GroupMeanShift,
}

/// Per-individual counterfactual outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct IndividualCounterfactual {
    /// Row index in the audited dataset.
    pub row: usize,
    /// Original decision.
    pub factual: bool,
    /// Whether *any* counterfactual level changed the decision.
    pub flipped: bool,
    /// Largest |score difference| over the counterfactual levels.
    pub max_score_shift: f64,
}

/// The counterfactual-fairness report.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterfactualReport {
    /// Number of individuals probed.
    pub n: usize,
    /// Number whose decision flipped under some counterfactual level.
    pub flipped: usize,
    /// `flipped / n`.
    pub flip_rate: f64,
    /// Flip rate by the individual's *original* group.
    pub per_group: Vec<(GroupKey, f64)>,
    /// Mean over individuals of the largest |score shift|.
    pub mean_score_shift: f64,
    /// Per-individual details.
    pub individuals: Vec<IndividualCounterfactual>,
}

impl CounterfactualReport {
    /// Whether the model is counterfactually fair at `tolerance` flip rate.
    pub fn is_fair(&self, tolerance: f64) -> bool {
        self.flip_rate <= tolerance
    }
}

/// Runs the counterfactual probe for `model` over every row of `ds`,
/// intervening on the categorical or boolean protected column
/// `protected`; the intervened column keeps the column's own type, so
/// the model's encoder reads it as it read the original.
pub fn counterfactual_fairness(
    model: &TrainedModel,
    ds: &Dataset,
    protected: &str,
    adjust: AdjustStrategy,
) -> Result<CounterfactualReport, String> {
    let column = ds.column(protected).map_err(|e| e.to_string())?;
    let (levels, codes) = column.as_coded(protected).map_err(|e| e.to_string())?;
    let n = ds.n_rows();
    if n == 0 {
        return Err("counterfactual probe requires a non-empty dataset".to_owned());
    }
    let n_levels = levels.len();
    if n_levels < 2 {
        return Err(format!(
            "protected column `{protected}` has {n_levels} level(s); need at least 2"
        ));
    }

    // Numeric feature adjustment deltas: per feature, per (from, to) pair
    // we need mean[to] - mean[from]; precompute per-level means.
    let numeric_features: Vec<String> = ds
        .schema()
        .fields()
        .iter()
        .filter(|f| f.role == Role::Feature && f.dtype == fairbridge_tabular::DType::Numeric)
        .map(|f| f.name.clone())
        .collect();
    let mut level_means: Vec<Vec<f64>> = Vec::new(); // [feature][level]
    if adjust == AdjustStrategy::GroupMeanShift {
        for fname in &numeric_features {
            let values = ds.numeric(fname).map_err(|e| e.to_string())?;
            let mut sums = vec![0.0; n_levels];
            let mut counts = vec![0usize; n_levels];
            for (&v, &c) in values.iter().zip(codes.iter()) {
                sums[c as usize] += v;
                counts[c as usize] += 1;
            }
            level_means.push(
                sums.iter()
                    .zip(&counts)
                    .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                    .collect(),
            );
        }
    }

    let factual_scores = model.score_dataset(ds)?;
    let threshold = model.threshold();
    let factual: Vec<bool> = factual_scores.iter().map(|&s| s >= threshold).collect();

    let mut flipped = vec![false; n];
    let mut max_shift = vec![0.0f64; n];

    // For each alternative level, build the "everyone becomes level t"
    // counterfactual dataset in one pass and score it; then only rows whose
    // original level differs from t contribute.
    for target in 0..n_levels as u32 {
        let intervened = match column {
            Column::Boolean(_) => Column::Boolean(vec![target == 1; n]),
            _ => Column::Categorical {
                levels: levels.to_vec(),
                codes: vec![target; n],
            },
        };
        let mut cf = replace(ds, protected, intervened)?;
        if adjust == AdjustStrategy::GroupMeanShift {
            for (fi, fname) in numeric_features.iter().enumerate() {
                let values = ds.numeric(fname).map_err(|e| e.to_string())?;
                let shifted: Vec<f64> = values
                    .iter()
                    .zip(codes.iter())
                    .map(|(&v, &c)| {
                        v + level_means[fi][target as usize] - level_means[fi][c as usize]
                    })
                    .collect();
                cf = replace(&cf, fname, Column::Numeric(shifted))?;
            }
        }
        let cf_scores = model.score_dataset(&cf)?;
        for i in 0..n {
            if codes[i] == target {
                continue; // not a counterfactual for this row
            }
            let decision = cf_scores[i] >= threshold;
            if decision != factual[i] {
                flipped[i] = true;
            }
            let shift = (cf_scores[i] - factual_scores[i]).abs();
            if shift > max_shift[i] {
                max_shift[i] = shift;
            }
        }
    }

    let individuals: Vec<IndividualCounterfactual> = (0..n)
        .map(|i| IndividualCounterfactual {
            row: i,
            factual: factual[i],
            flipped: flipped[i],
            max_score_shift: max_shift[i],
        })
        .collect();
    let n_flipped = flipped.iter().filter(|&&f| f).count();

    // Per-original-group flip rates, in level order: (members, flipped).
    let mut tallies = vec![(0usize, 0usize); n_levels];
    for (&c, &f) in codes.iter().zip(&flipped) {
        tallies[c as usize].0 += 1;
        tallies[c as usize].1 += usize::from(f);
    }
    let per_group = levels
        .iter()
        .zip(tallies)
        .filter(|&(_, (members, _))| members > 0)
        .map(|(level, (members, f))| (GroupKey(vec![level.clone()]), f as f64 / members as f64))
        .collect();

    Ok(CounterfactualReport {
        n,
        flipped: n_flipped,
        flip_rate: n_flipped as f64 / n as f64,
        per_group,
        mean_score_shift: max_shift.iter().sum::<f64>() / n as f64,
        individuals,
    })
}

/// `ds` with column `name` replaced by `column`, keeping its role.
fn replace(ds: &Dataset, name: &str, column: Column) -> Result<Dataset, String> {
    let role = ds.schema().field(name).map_err(|e| e.to_string())?.role;
    ds.drop_column(name)
        .and_then(|d| d.with_column(name, column, role))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_learn::{EncoderConfig, FeatureEncoder, LogisticTrainer, TrainedModel};
    use fairbridge_tabular::Role;

    /// Dataset where the label equals "is male" exactly and a feature
    /// duplicates sex (a perfect proxy).
    fn proxy_dataset() -> Dataset {
        let n = 40;
        let sex: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let proxy: Vec<f64> = sex.iter().map(|&s| s as f64).collect();
        let noise: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.01).collect();
        let label: Vec<bool> = sex.iter().map(|&s| s == 0).collect();
        Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .numeric("proxy", proxy)
            .numeric("noise", noise)
            .boolean_with_role("hired", label, Role::Label)
            .build()
            .unwrap()
    }

    fn train(ds: &Dataset, include_protected: bool) -> TrainedModel {
        let cfg = EncoderConfig {
            include_protected,
            standardize: false,
            ..EncoderConfig::default()
        };
        let (enc, x) = FeatureEncoder::fit_transform(ds, cfg).unwrap();
        let y = ds.labels().unwrap();
        let model = LogisticTrainer {
            epochs: 3000,
            learning_rate: 1.0,
            ..LogisticTrainer::default()
        }
        .fit(&x, y);
        TrainedModel::new(enc, Box::new(model))
    }

    /// Like [`proxy_dataset`] but without the duplicated proxy feature, so
    /// an aware model must put all its weight on the sex indicator.
    fn direct_dataset() -> Dataset {
        let n = 40;
        let sex: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let noise: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.01).collect();
        let label: Vec<bool> = sex.iter().map(|&s| s == 0).collect();
        Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .numeric("noise", noise)
            .boolean_with_role("hired", label, Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn aware_model_fails_identity_probe() {
        let ds = direct_dataset();
        let model = train(&ds, true);
        let report = counterfactual_fairness(&model, &ds, "sex", AdjustStrategy::Identity).unwrap();
        assert!(report.flip_rate > 0.9, "flip rate {}", report.flip_rate);
        assert!(!report.is_fair(0.05));
    }

    #[test]
    fn unaware_model_passes_identity_but_fails_adjusted_probe() {
        let ds = proxy_dataset();
        let model = train(&ds, false); // sex not a feature, proxy is
        let identity =
            counterfactual_fairness(&model, &ds, "sex", AdjustStrategy::Identity).unwrap();
        // flipping only the (unused) attribute changes nothing
        assert_eq!(identity.flip_rate, 0.0);
        assert!(identity.is_fair(0.0));

        // adjusting downstream features (the proxy shifts with sex) reveals
        // the dependence — fairness through unawareness fails (IV.B).
        let adjusted =
            counterfactual_fairness(&model, &ds, "sex", AdjustStrategy::GroupMeanShift).unwrap();
        assert!(adjusted.flip_rate > 0.9, "flip rate {}", adjusted.flip_rate);
        assert!(adjusted.mean_score_shift > 0.3);
    }

    #[test]
    fn fair_model_passes_both_probes() {
        // Label depends only on noise-free merit independent of sex.
        let n = 40;
        let sex: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let merit: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
        let label: Vec<bool> = merit.iter().map(|&m| m >= 2.0).collect();
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .numeric("merit", merit)
            .boolean_with_role("y", label, Role::Label)
            .build()
            .unwrap();
        let model = train(&ds, false);
        for strategy in [AdjustStrategy::Identity, AdjustStrategy::GroupMeanShift] {
            let r = counterfactual_fairness(&model, &ds, "sex", strategy).unwrap();
            assert!(r.flip_rate < 0.05, "{strategy:?}: {}", r.flip_rate);
        }
    }

    #[test]
    fn per_group_rates_cover_all_groups() {
        let ds = proxy_dataset();
        let model = train(&ds, true);
        let r = counterfactual_fairness(&model, &ds, "sex", AdjustStrategy::Identity).unwrap();
        assert_eq!(r.per_group.len(), 2);
        assert_eq!(r.individuals.len(), 40);
    }

    /// `ds` with `sex` replaced by a protected column `g` that is
    /// boolean (`true` = code 1) or its `false`/`true` categorical
    /// spelling.
    fn respell(ds: &Dataset, boolean: bool) -> Dataset {
        let (_, sex) = ds.categorical("sex").unwrap();
        let column = if boolean {
            Column::Boolean(sex.iter().map(|&c| c == 1).collect())
        } else {
            Column::Categorical {
                levels: vec!["false".into(), "true".into()],
                codes: sex.to_vec(),
            }
        };
        ds.drop_column("sex")
            .unwrap()
            .with_column("g", column, Role::Protected)
            .unwrap()
    }

    #[test]
    fn boolean_protected_column_probes_like_its_categorical_spelling() {
        let ds = proxy_dataset();
        let model = train(&ds, false);
        for strategy in [AdjustStrategy::Identity, AdjustStrategy::GroupMeanShift] {
            let probe = |boolean: bool| {
                counterfactual_fairness(&model, &respell(&ds, boolean), "g", strategy).unwrap()
            };
            assert_eq!(probe(true), probe(false), "{strategy:?}");
        }
        // A model that reads the boolean column itself still reads the
        // intervened one: the probe writes it back as a boolean.
        let direct = respell(&direct_dataset(), true);
        let aware = train(&direct, true);
        let report =
            counterfactual_fairness(&aware, &direct, "g", AdjustStrategy::Identity).unwrap();
        assert!(report.flip_rate > 0.9, "flip rate {}", report.flip_rate);
    }

    #[test]
    fn single_level_protected_rejected() {
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["x"], vec![0, 0], Role::Protected)
            .numeric("f", vec![0.0, 1.0])
            .boolean_with_role("y", vec![true, false], Role::Label)
            .build()
            .unwrap();
        let model = train(
            &Dataset::builder()
                .numeric("f", vec![0.0, 1.0])
                .boolean_with_role("y", vec![true, false], Role::Label)
                .build()
                .unwrap(),
            false,
        );
        assert!(counterfactual_fairness(&model, &ds, "sex", AdjustStrategy::Identity).is_err());
    }
}
