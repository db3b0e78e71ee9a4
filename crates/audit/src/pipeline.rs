//! The one-call audit pipeline: metrics + proxy + subgroup analyses with
//! a composite, renderable report.

use crate::proxy::{association_ranking, FeatureAssociation};
use crate::representation::{representation_audit, RepresentationAudit};
use crate::subgroup::{SubgroupAuditor, SubgroupFinding};
use fairbridge_metrics::outcome::Outcomes;
use fairbridge_metrics::FairnessReport;
use fairbridge_obs::Telemetry;
use fairbridge_tabular::Dataset;
use std::fmt;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Gap tolerance for fairness verdicts.
    pub tolerance: f64,
    /// Minimum group size entering gap summaries.
    pub min_group_size: usize,
    /// Subgroup audit depth (conjunctions).
    pub subgroup_depth: usize,
    /// Subgroup significance level.
    pub alpha: f64,
    /// Features with at least this association flagged as proxies.
    pub proxy_threshold: f64,
    /// Population marginals of the FIRST protected column (level order);
    /// when set, the §IV.F representation audit runs too.
    pub population_marginals: Option<Vec<f64>>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            tolerance: 0.05,
            min_group_size: 20,
            subgroup_depth: 2,
            alpha: 0.05,
            proxy_threshold: 0.3,
            population_marginals: None,
        }
    }
}

/// The composite audit result.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Group-metric evaluation (paper Section III definitions).
    pub metrics: FairnessReport,
    /// Proxy association ranking (Section IV.B), sorted descending.
    pub proxies: Vec<FeatureAssociation>,
    /// Features exceeding the proxy threshold.
    pub flagged_proxies: Vec<String>,
    /// Subgroup findings (Section IV.C), sorted by |gap|.
    pub subgroups: Vec<SubgroupFinding>,
    /// Representation audit (Section IV.F), when population marginals
    /// were configured.
    pub representation: Option<RepresentationAudit>,
}

impl AuditReport {
    /// Whether any component raises a fairness concern.
    pub fn has_concerns(&self) -> bool {
        !self.metrics.violations().is_empty()
            || !self.flagged_proxies.is_empty()
            || !self.subgroups.is_empty()
            || self
                .representation
                .as_ref()
                .is_some_and(|r| r.drift_detected())
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== group metrics (Section III) ==")?;
        write!(f, "{}", self.metrics)?;
        writeln!(f, "\n== proxy analysis (Section IV.B) ==")?;
        for p in self.proxies.iter().take(8) {
            writeln!(
                f,
                "  {:<24} association {:.3}{}",
                p.feature,
                p.association,
                if self.flagged_proxies.contains(&p.feature) {
                    "  ⚠ proxy"
                } else {
                    ""
                }
            )?;
        }
        writeln!(f, "\n== subgroup audit (Section IV.C) ==")?;
        if self.subgroups.is_empty() {
            writeln!(f, "  no significant subgroup disparities")?;
        }
        for s in self.subgroups.iter().take(8) {
            writeln!(
                f,
                "  {:<44} n={:<6} rate {:.3} vs {:.3} (gap {:+.3}, p={:.2e})",
                s.describe(),
                s.size,
                s.rate,
                s.complement_rate,
                s.gap,
                s.p_value
            )?;
        }
        if let Some(rep) = &self.representation {
            writeln!(f, "\n== representation audit (Section IV.F) ==")?;
            writeln!(
                f,
                "  TV vs population {:.3} (95% CI [{:.3}, {:.3}], noise bound {:.3}) → {}",
                rep.tv,
                rep.tv_ci.0,
                rep.tv_ci.1,
                rep.sampling_bound,
                if rep.drift_detected() {
                    "DRIFT"
                } else {
                    "within noise"
                }
            )?;
            for g in rep.under_represented(0.8) {
                writeln!(
                    f,
                    "  ⚠ {} under-represented: {:.1}% of training vs {:.1}% of population",
                    g.level,
                    100.0 * g.training_share,
                    100.0 * g.population_share
                )?;
            }
        }
        Ok(())
    }
}

/// The audit pipeline over a dataset carrying decisions.
#[derive(Debug, Clone, Default)]
pub struct AuditPipeline {
    /// Configuration used for every stage.
    pub config: AuditConfig,
    telemetry: Telemetry,
}

impl AuditPipeline {
    /// Creates a pipeline with the given configuration and telemetry
    /// disabled.
    pub fn new(config: AuditConfig) -> AuditPipeline {
        AuditPipeline {
            config,
            telemetry: Telemetry::off(),
        }
    }

    /// Records each stage of this pipeline as a span through `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> AuditPipeline {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle this pipeline records through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs the full audit.
    ///
    /// * `protected` — the protected columns to audit;
    /// * `use_labels` — audit the historical labels (`true`) or the
    ///   prediction column (`false`).
    pub fn run(
        &self,
        ds: &Dataset,
        protected: &[&str],
        use_labels: bool,
    ) -> Result<AuditReport, String> {
        let _span = self.telemetry.span("pipeline.run");
        let metrics_span = self.telemetry.span("pipeline.metrics");
        let outcomes = if use_labels {
            Outcomes::from_labels_as_decisions(ds, protected)?
        } else {
            Outcomes::from_dataset(ds, protected)?
        };
        let metrics =
            FairnessReport::evaluate(&outcomes, self.config.tolerance, self.config.min_group_size);
        drop(metrics_span);
        let stages = self.support_stages(ds, protected, &outcomes.predictions)?;
        Ok(stages.into_report(metrics))
    }

    /// Runs every non-metric stage — proxy ranking, subgroup audit and
    /// (when configured) the representation audit — over precomputed
    /// `decisions`.
    ///
    /// Exposed so alternative executors (such as the sharded
    /// `fairbridge-engine`) can supply their own metric evaluation while
    /// reusing the exact stage behaviour of this pipeline.
    pub fn support_stages(
        &self,
        ds: &Dataset,
        protected: &[&str],
        decisions: &[bool],
    ) -> Result<SupportStages, String> {
        // Proxy ranking against the first protected column (extend per
        // column when auditing several).
        let proxy_span = self.telemetry.span("pipeline.proxy");
        let mut proxies = Vec::new();
        let mut flagged = Vec::new();
        if let Some(&first) = protected.first() {
            proxies = association_ranking(ds, first)?;
            flagged = proxies
                .iter()
                .filter(|p| p.association >= self.config.proxy_threshold)
                .map(|p| p.feature.clone())
                .collect();
        }
        drop(proxy_span);

        let subgroup_span = self.telemetry.span("pipeline.subgroup");
        let auditor = SubgroupAuditor {
            max_depth: self.config.subgroup_depth,
            min_support: self.config.min_group_size,
            alpha: self.config.alpha,
        };
        let subgroups = auditor.audit_observed(ds, protected, decisions, 0, &self.telemetry)?;
        drop(subgroup_span);

        // Representation audit against configured population marginals
        // (fixed internal seed: the bootstrap CI must be reproducible in
        // a compliance document).
        let _rep_span = self.telemetry.span("pipeline.representation");
        let representation = match (&self.config.population_marginals, protected.first()) {
            (Some(marginals), Some(&first)) => {
                let mut rng = fairbridge_stats::rng::StdRng::seed_from_u64(0xFA1B);
                Some(representation_audit(ds, first, marginals, 300, &mut rng)?)
            }
            _ => None,
        };

        Ok(SupportStages {
            proxies,
            flagged_proxies: flagged,
            subgroups,
            representation,
        })
    }
}

/// The non-metric stage results of [`AuditPipeline::support_stages`].
#[derive(Debug, Clone)]
pub struct SupportStages {
    /// Proxy association ranking, sorted descending.
    pub proxies: Vec<FeatureAssociation>,
    /// Features exceeding the proxy threshold.
    pub flagged_proxies: Vec<String>,
    /// Subgroup findings, sorted by |gap|.
    pub subgroups: Vec<SubgroupFinding>,
    /// Representation audit, when population marginals were configured.
    pub representation: Option<RepresentationAudit>,
}

impl SupportStages {
    /// Combines the stages with a metric evaluation into a full report.
    pub fn into_report(self, metrics: FairnessReport) -> AuditReport {
        AuditReport {
            metrics,
            proxies: self.proxies,
            flagged_proxies: self.flagged_proxies,
            subgroups: self.subgroups,
            representation: self.representation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_stats::rng::StdRng;
    use fairbridge_synth::hiring::{generate, HiringConfig};
    use fairbridge_synth::intersectional::{self, IntersectionalConfig};
    use fairbridge_tabular::{Column, Role};

    #[test]
    fn pipeline_flags_biased_hiring_data() {
        let mut rng = StdRng::seed_from_u64(91);
        let data = generate(
            &HiringConfig {
                n: 6000,
                ..HiringConfig::biased()
            },
            &mut rng,
        );
        let pipeline = AuditPipeline::new(AuditConfig::default());
        let report = pipeline.run(&data.dataset, &["sex"], true).unwrap();
        assert!(report.has_concerns());
        assert!(!report.metrics.violations().is_empty());
        assert!(report.flagged_proxies.contains(&"university".to_owned()));
        assert!(!report.subgroups.is_empty());
        let text = report.to_string();
        assert!(text.contains("proxy"));
        assert!(text.contains("subgroup"));
    }

    #[test]
    fn pipeline_passes_fair_data() {
        let mut rng = StdRng::seed_from_u64(92);
        let data = generate(
            &HiringConfig {
                n: 6000,
                bias_against_female: 0.0,
                proxy_strength: 0.5,
                ..HiringConfig::default()
            },
            &mut rng,
        );
        let pipeline = AuditPipeline::new(AuditConfig::default());
        let report = pipeline.run(&data.dataset, &["sex"], true).unwrap();
        assert!(report.metrics.violations().len() <= 1); // demographic
                                                         // disparity may trip on base rates alone
        assert!(report.flagged_proxies.is_empty());
    }

    #[test]
    fn pipeline_runs_representation_audit_when_configured() {
        let mut rng = StdRng::seed_from_u64(94);
        let data = generate(
            &HiringConfig {
                n: 6000,
                ..HiringConfig::biased()
            },
            &mut rng,
        );
        let config = AuditConfig {
            population_marginals: Some(vec![0.5, 0.5]),
            ..AuditConfig::default()
        };
        let report = AuditPipeline::new(config)
            .run(&data.dataset, &["sex"], true)
            .unwrap();
        let rep = report
            .representation
            .as_ref()
            .expect("representation audit");
        assert!(rep.drift_detected());
        assert_eq!(rep.under_represented(0.8).len(), 1);
        assert!(report.to_string().contains("representation audit"));
        assert!(report.to_string().contains("under-represented"));
    }

    /// A boolean first protected column runs every stage, representation
    /// included, and reports exactly what its categorical spelling
    /// (levels `false`/`true`, codes 0/1) reports.
    #[test]
    fn boolean_protected_column_runs_every_stage() {
        let mut rng = StdRng::seed_from_u64(95);
        let data = generate(
            &HiringConfig {
                n: 2000,
                ..HiringConfig::biased()
            },
            &mut rng,
        );
        let (_, sex) = data.dataset.categorical("sex").unwrap();
        let female: Vec<bool> = sex.iter().map(|&c| c == 1).collect();
        let codes: Vec<u32> = female.iter().map(|&b| u32::from(b)).collect();
        let base = data.dataset.with_role("sex", Role::Ignored).unwrap();
        let as_bool = base
            .with_column("female", Column::Boolean(female), Role::Protected)
            .unwrap();
        let as_cat = base
            .with_column(
                "female",
                Column::categorical_from_codes(
                    vec!["false".into(), "true".into()],
                    codes,
                    "female",
                )
                .unwrap(),
                Role::Protected,
            )
            .unwrap();
        let config = AuditConfig {
            population_marginals: Some(vec![0.5, 0.5]),
            ..AuditConfig::default()
        };
        let run = |ds: &Dataset| {
            AuditPipeline::new(config.clone())
                .run(ds, &["female"], true)
                .unwrap()
        };
        let report = run(&as_bool);
        assert!(report.representation.is_some());
        assert!(report.flagged_proxies.contains(&"university".to_owned()));
        assert_eq!(format!("{report:?}"), format!("{:?}", run(&as_cat)));
    }

    /// `min_group_size: 0` with an empty depth-2 intersection (no row is
    /// `g=a ∧ h=y`) runs, and its subgroups are those of bound 1.
    #[test]
    fn min_group_size_zero_with_an_empty_intersection_runs() {
        let labels = vec![true, true, false, false, true, false, false, true];
        let ds = Dataset::builder()
            .categorical_with_role(
                "g",
                vec!["a", "b"],
                vec![0, 0, 0, 1, 1, 1, 1, 1],
                Role::Protected,
            )
            .categorical_with_role(
                "h",
                vec!["x", "y"],
                vec![0, 0, 0, 0, 1, 1, 0, 1],
                Role::Protected,
            )
            .boolean_with_role("hired", labels, Role::Label)
            .build()
            .unwrap();
        let run = |min_group_size| {
            AuditPipeline::new(AuditConfig {
                min_group_size,
                alpha: 1.0,
                ..AuditConfig::default()
            })
            .run(&ds, &["g", "h"], true)
            .unwrap()
        };
        let report = run(0);
        assert!(!report.subgroups.is_empty());
        assert_eq!(report.subgroups, run(1).subgroups);
    }

    #[test]
    fn pipeline_catches_gerrymandering_with_depth_two() {
        let mut rng = StdRng::seed_from_u64(93);
        let ds = intersectional::generate(
            &IntersectionalConfig {
                n: 8000,
                ..IntersectionalConfig::default()
            },
            &mut rng,
        );
        let pipeline = AuditPipeline::new(AuditConfig::default());
        let report = pipeline.run(&ds, &["gender", "race"], true).unwrap();
        assert!(!report.subgroups.is_empty());
        assert!(report.subgroups[0].gap.abs() > 0.2);
    }
}
