//! Attribute suppression: remove protected attributes and, optionally,
//! their strongest proxies.
//!
//! Plain suppression is "fairness through unawareness" — the strategy the
//! paper's Section IV.B shows to be insufficient, because "there most
//! probably exist other attributes that are correlated with it". The
//! proxy-aware variant therefore also drops (or flags) features whose
//! association with the protected attribute exceeds a threshold. The
//! association is [`association_ranking`]'s, the scorer the audit's proxy
//! ranking uses, so suppression drops exactly the features an audit at the
//! same threshold flags.

use fairbridge_stats::correlation::{association_ranking, FeatureAssociation};
use fairbridge_tabular::{Dataset, Role};

/// The suppression result.
#[derive(Debug, Clone)]
pub struct SuppressResult {
    /// Dataset with the protected column demoted to [`Role::Ignored`] and
    /// the selected proxies dropped.
    pub dataset: Dataset,
    /// Features dropped as proxies, with their associations.
    pub dropped: Vec<FeatureAssociation>,
}

/// Suppresses a protected attribute and every feature whose association
/// with it is at least `proxy_threshold` (set it above 1.0 for plain
/// unawareness that keeps all proxies).
pub fn suppress(
    ds: &Dataset,
    protected: &str,
    proxy_threshold: f64,
) -> Result<SuppressResult, String> {
    let scores = association_ranking(ds, protected)?;
    let mut dataset = ds
        .with_role(protected, Role::Ignored)
        .map_err(|e| e.to_string())?;
    let mut dropped = Vec::new();
    for s in scores {
        if s.association >= proxy_threshold {
            dataset = dataset.drop_column(&s.feature).map_err(|e| e.to_string())?;
            dropped.push(s);
        }
    }
    Ok(SuppressResult { dataset, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

    fn ds() -> Dataset {
        // proxy duplicates sex; merit is independent of it.
        let n = 40;
        let sex: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let proxy: Vec<u32> = sex.clone();
        let merit: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], sex, Role::Protected)
            .categorical_with_role("proxy_uni", vec!["u1", "u2"], proxy, Role::Feature)
            .numeric("merit", merit)
            .boolean_with_role("y", (0..n).map(|i| i % 5 > 1).collect(), Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn suppress_drops_strong_proxies() {
        let result = suppress(&ds(), "sex", 0.5).unwrap();
        assert_eq!(result.dropped.len(), 1);
        assert_eq!(result.dropped[0].feature, "proxy_uni");
        assert!(result.dataset.column("proxy_uni").is_err());
        // protected column demoted, not dropped (audits still need it)
        assert_eq!(
            result.dataset.schema().field("sex").unwrap().role,
            Role::Ignored
        );
        assert!(result.dataset.column("merit").is_ok());
    }

    #[test]
    fn plain_unawareness_keeps_proxies() {
        let result = suppress(&ds(), "sex", 1.1).unwrap();
        assert!(result.dropped.is_empty());
        assert!(result.dataset.column("proxy_uni").is_ok());
    }
}
