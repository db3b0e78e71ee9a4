//! Proxy-discrimination auditing (paper Section IV.B).
//!
//! Three complementary probes:
//!
//! 1. **Association ranking** — how strongly each feature associates with
//!    the protected attribute (Cramér's V / point-biserial / mutual
//!    information), the paper's "height and maternity leave ... serving as
//!    proxies for the sex sensitive attribute". The scorer lives in
//!    [`fairbridge_stats::correlation`] and is re-exported here, so
//!    proxy-aware suppression in `fairbridge-mitigate` ranks features
//!    with the same code;
//! 2. **Predictability audit** — train a classifier to *recover* the
//!    protected attribute from the remaining features; its held-out AUC is
//!    the leakage: 0.5 means no proxy channel, 1.0 means the feature set
//!    fully encodes `A`;
//! 3. **Unawareness experiment** — train the same model with and without
//!    the protected attribute and compare parity gaps, reproducing the
//!    paper's claim that "even if sensitive attributes are removed, the
//!    bias of the training data can still be transferred into the trained
//!    model".

use fairbridge_learn::eval::roc_auc;
use fairbridge_learn::{EncoderConfig, FeatureEncoder, LogisticTrainer, TrainedModel};
use fairbridge_metrics::outcome::Outcomes;
use fairbridge_metrics::parity::demographic_parity;
use fairbridge_stats::rng::Rng;
use fairbridge_tabular::{Column, Dataset, Role};

pub use fairbridge_stats::correlation::{association_ranking, FeatureAssociation};

/// Result of the predictability audit.
#[derive(Debug, Clone)]
pub struct PredictabilityAudit {
    /// Held-out AUC of the attribute-recovery model (0.5 = no leakage).
    pub auc: f64,
    /// Feature coefficients of the recovery model, paired with names,
    /// sorted by |coefficient| descending — the proxy channels.
    pub channels: Vec<(String, f64)>,
}

/// Trains a logistic model to predict membership of `protected_level`
/// within the (categorical or boolean) protected column from the
/// *feature* columns only, and
/// reports its held-out AUC plus the leading coefficients.
pub fn predictability_audit<R: Rng>(
    ds: &Dataset,
    protected: &str,
    protected_level: &str,
    rng: &mut R,
) -> Result<PredictabilityAudit, String> {
    let (levels, codes) = ds
        .column(protected)
        .and_then(|c| c.as_coded(protected))
        .map_err(|e| e.to_string())?;
    let target_code = levels
        .iter()
        .position(|l| l == protected_level)
        .ok_or_else(|| format!("level `{protected_level}` not found in `{protected}`"))?
        as u32;
    let target: Vec<bool> = codes.iter().map(|&c| c == target_code).collect();

    // Build a shadow dataset whose *label* is the protected indicator.
    let mut shadow = ds.clone();
    if let Ok(meta) = shadow.schema().single_with_role(Role::Label) {
        let name = meta.name.clone();
        shadow = shadow
            .with_role(&name, Role::Ignored)
            .map_err(|e| e.to_string())?;
    }
    let shadow = shadow
        .with_column("__protected_target", Column::Boolean(target), Role::Label)
        .map_err(|e| e.to_string())?;

    let (train, test) = fairbridge_learn::split::train_test_split(&shadow, 0.3, rng)?;
    let cfg = EncoderConfig::default(); // excludes protected columns
    let (enc, x) = FeatureEncoder::fit_transform(&train, cfg)?;
    let y = train.labels().map_err(|e| e.to_string())?;
    let model = LogisticTrainer::default().fit(&x, y);

    let channels: Vec<(String, f64)> = {
        let mut pairs: Vec<(String, f64)> = enc
            .feature_names()
            .iter()
            .cloned()
            .zip(model.weights.iter().copied())
            .collect();
        pairs.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("NaN weight"));
        pairs
    };

    let trained = TrainedModel::new(enc, Box::new(model));
    let scores = trained.score_dataset(&test)?;
    let y_test = test.labels().map_err(|e| e.to_string())?;
    let auc = roc_auc(y_test, &scores);
    Ok(PredictabilityAudit { auc, channels })
}

/// Result of the unawareness experiment.
#[derive(Debug, Clone)]
pub struct UnawarenessExperiment {
    /// Demographic-parity gap of the model trained *with* the protected
    /// attribute.
    pub gap_aware: f64,
    /// Gap of the model trained *without* it (fairness through
    /// unawareness).
    pub gap_unaware: f64,
    /// Test accuracy of the aware model.
    pub acc_aware: f64,
    /// Test accuracy of the unaware model.
    pub acc_unaware: f64,
}

impl UnawarenessExperiment {
    /// The paper's IV.B claim quantified: how much of the aware model's
    /// bias survives removing the attribute (1.0 = all of it).
    pub fn bias_retention(&self) -> f64 {
        if self.gap_aware <= 0.0 {
            return f64::NAN;
        }
        self.gap_unaware / self.gap_aware
    }
}

/// Trains the same logistic model with and without the protected
/// attribute on a train split and compares held-out parity gaps.
pub fn unawareness_experiment<R: Rng>(
    ds: &Dataset,
    protected: &str,
    rng: &mut R,
) -> Result<UnawarenessExperiment, String> {
    let (train, test) = fairbridge_learn::split::train_test_split(ds, 0.3, rng)?;
    let run = |include_protected: bool| -> Result<(f64, f64), String> {
        let cfg = EncoderConfig {
            include_protected,
            ..EncoderConfig::default()
        };
        let (enc, x) = FeatureEncoder::fit_transform(&train, cfg)?;
        let y = train.labels().map_err(|e| e.to_string())?;
        let model = LogisticTrainer::default().fit(&x, y);
        let trained = TrainedModel::new(enc, Box::new(model));
        let preds = trained.predict_dataset(&test)?;
        let y_test = test.labels().map_err(|e| e.to_string())?;
        let acc = fairbridge_learn::eval::accuracy(y_test, &preds);
        let annotated = test
            .with_predictions("__pred", preds)
            .map_err(|e| e.to_string())?;
        let o = Outcomes::from_dataset(&annotated, &[protected])?;
        let gap = demographic_parity(&o, 0).summary.gap;
        Ok((gap, acc))
    };
    let (gap_aware, acc_aware) = run(true)?;
    let (gap_unaware, acc_unaware) = run(false)?;
    Ok(UnawarenessExperiment {
        gap_aware,
        gap_unaware,
        acc_aware,
        acc_unaware,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_stats::rng::StdRng;
    use fairbridge_synth::hiring::{generate, HiringConfig};

    #[test]
    fn association_ranking_finds_the_planted_proxy() {
        let mut rng = StdRng::seed_from_u64(51);
        let data = generate(
            &HiringConfig {
                n: 8000,
                proxy_strength: 0.9,
                ..HiringConfig::biased()
            },
            &mut rng,
        );
        let ranking = association_ranking(&data.dataset, "sex").unwrap();
        assert_eq!(ranking[0].feature, "university");
        assert!(ranking[0].association > 0.6);
        assert!(ranking[0].nmi > 0.2);
    }

    /// The scorer's output pinned bit for bit: categorical, numeric and
    /// boolean features of one seeded hiring dataset, in ranked order.
    #[test]
    fn association_ranking_bits_are_pinned() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(
            &HiringConfig {
                n: 1500,
                ..HiringConfig::biased()
            },
            &mut rng,
        );
        let ds = data.dataset.with_role("qualified", Role::Feature).unwrap();
        let ranking = association_ranking(&ds, "sex").unwrap();
        let bits: Vec<(&str, u64, u64)> = ranking
            .iter()
            .map(|a| (a.feature.as_str(), a.association.to_bits(), a.nmi.to_bits()))
            .collect();
        assert_eq!(
            bits,
            [
                ("university", 0x3fe796c7b6e0b1c0, 0x3fdd897ef3270857),
                ("skill_score", 0x3f91b56cda7bc10f, 0x7ff8000000000000),
                ("experience", 0x3f894403d5a547ae, 0x7ff8000000000000),
                ("qualified", 0x3f698e3b305db6f7, 0x3ee02d4937e63067),
            ]
        );
    }

    #[test]
    fn predictability_audit_quantifies_leakage() {
        let mut rng = StdRng::seed_from_u64(52);
        // Strong proxy → high AUC.
        let strong = generate(
            &HiringConfig {
                n: 4000,
                proxy_strength: 0.95,
                ..HiringConfig::default()
            },
            &mut rng,
        );
        let audit_strong =
            predictability_audit(&strong.dataset, "sex", "female", &mut rng).unwrap();
        assert!(audit_strong.auc > 0.85, "auc {}", audit_strong.auc);
        assert!(audit_strong.channels[0].0.starts_with("university"));

        // No proxy → AUC near chance.
        let none = generate(
            &HiringConfig {
                n: 4000,
                proxy_strength: 0.5,
                ..HiringConfig::default()
            },
            &mut rng,
        );
        let audit_none = predictability_audit(&none.dataset, "sex", "female", &mut rng).unwrap();
        assert!(
            (audit_none.auc - 0.5).abs() < 0.08,
            "auc {}",
            audit_none.auc
        );
    }

    #[test]
    fn boolean_protected_column_audits_like_its_categorical_spelling() {
        let data = generate(
            &HiringConfig {
                n: 1500,
                proxy_strength: 0.9,
                ..HiringConfig::default()
            },
            &mut StdRng::seed_from_u64(54),
        );
        let (_, sex) = data.dataset.categorical("sex").unwrap();
        let codes = sex.to_vec();
        let spell = |column: Column| {
            data.dataset
                .drop_column("sex")
                .unwrap()
                .with_column("g", column, Role::Protected)
                .unwrap()
        };
        let boolean = spell(Column::Boolean(codes.iter().map(|&c| c == 1).collect()));
        let categorical = spell(Column::Categorical {
            levels: vec!["false".into(), "true".into()],
            codes,
        });
        let run = |ds: &Dataset| {
            let audit =
                predictability_audit(ds, "g", "true", &mut StdRng::seed_from_u64(55)).unwrap();
            let channels: Vec<(String, u64)> = audit
                .channels
                .into_iter()
                .map(|(name, w)| (name, w.to_bits()))
                .collect();
            (audit.auc.to_bits(), channels)
        };
        let (auc, channels) = run(&boolean);
        assert!(f64::from_bits(auc) > 0.8, "auc {}", f64::from_bits(auc));
        assert_eq!((auc, channels), run(&categorical));
    }

    #[test]
    fn unawareness_does_not_remove_bias_with_strong_proxy() {
        let mut rng = StdRng::seed_from_u64(53);
        let data = generate(
            &HiringConfig {
                n: 8000,
                bias_against_female: 0.4,
                proxy_strength: 0.95,
                ..HiringConfig::default()
            },
            &mut rng,
        );
        let exp = unawareness_experiment(&data.dataset, "sex", &mut rng).unwrap();
        assert!(exp.gap_aware > 0.1, "aware gap {}", exp.gap_aware);
        // the unaware model keeps most of the bias via the proxy
        assert!(
            exp.gap_unaware > exp.gap_aware * 0.4,
            "aware {} unaware {}",
            exp.gap_aware,
            exp.gap_unaware
        );
        assert!(exp.bias_retention() > 0.4);
    }

    #[test]
    fn unawareness_works_when_no_proxy_exists() {
        let mut rng = StdRng::seed_from_u64(54);
        let data = generate(
            &HiringConfig {
                n: 8000,
                bias_against_female: 0.4,
                proxy_strength: 0.5, // no proxy channel
                ..HiringConfig::default()
            },
            &mut rng,
        );
        let exp = unawareness_experiment(&data.dataset, "sex", &mut rng).unwrap();
        // without a proxy, removing the attribute actually helps a lot
        assert!(
            exp.gap_unaware < exp.gap_aware * 0.5 || exp.gap_unaware < 0.05,
            "aware {} unaware {}",
            exp.gap_aware,
            exp.gap_unaware
        );
    }

    #[test]
    fn predictability_audit_validates_level() {
        let mut rng = StdRng::seed_from_u64(55);
        let data = generate(&HiringConfig::default(), &mut rng);
        assert!(predictability_audit(&data.dataset, "sex", "nonbinary", &mut rng).is_err());
    }
}
