//! Convenience re-exports for typical fairbridge sessions.

pub use crate::criteria::{recommend, AuditKind, MitigationKind, Recommendation, UseCase};
pub use crate::guidelines::{compile_guidelines, Guidelines, Phase};
pub use crate::legal::{
    statutes, statutes_covering, Doctrine, Jurisdiction, ProtectedAttribute, Sector, Statute,
};
pub use crate::report::{compliance_report, ReportOptions};
pub use fairbridge_audit::{AuditConfig, AuditPipeline, AuditReport, SubgroupAuditor};
pub use fairbridge_engine::{AuditSpec, Engine, EngineConfig, MonitorConfig, StreamingMonitor};
pub use fairbridge_learn::{
    Classifier, EncoderConfig, FeatureEncoder, LogisticTrainer, Scorer, TrainedModel,
};
pub use fairbridge_metrics::{
    demographic_parity, four_fifths, Definition, EqualityNotion, FairnessReport, Outcomes,
};
pub use fairbridge_mitigate::{reweigh, GroupThresholds, ThresholdObjective};
pub use fairbridge_obs::{FairnessEvent, JsonlSink, RingSink, Telemetry};
pub use fairbridge_synth::{HiringConfig, IntersectionalConfig, PopulationModel};
pub use fairbridge_tabular::{Dataset, GroupKey, Role};

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_exposes_key_names() {
        use super::*;
        // Touch a few items to keep the re-exports honest.
        let _ = Definition::DemographicParity.name();
        let _ = Jurisdiction::Eu;
        let _ = HiringConfig::default();
        let _: fn(&UseCase) -> Recommendation = recommend;
    }
}
