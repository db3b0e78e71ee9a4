//! Representation audit (paper Section IV.F, first paragraph):
//!
//! "AI systems typically require huge training datasets, where bias
//! detection needs to be performed, for instance, in terms of
//! underrepresentation of some of the subgroups of the general
//! population. There, one can compare the distribution of a protected
//! attribute in the general population against the distribution of the
//! protected attribute in the training data."
//!
//! The audit computes every Section IV.F distance between the training
//! distribution of a protected attribute and known population marginals,
//! attaches a bootstrap confidence interval to the headline TV estimate,
//! and reports which groups are under-represented and by how much.

use fairbridge_stats::distance::{hellinger, js_divergence, total_variation};
use fairbridge_stats::distribution::Discrete;
use fairbridge_stats::rng::Rng;
use fairbridge_stats::sampling::tv_plugin_bound;
use fairbridge_tabular::Dataset;

/// Per-group representation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRepresentation {
    /// Level name.
    pub level: String,
    /// Share in the training data.
    pub training_share: f64,
    /// Share in the population.
    pub population_share: f64,
    /// `training / population` (1.0 = perfectly represented;
    /// < 1 = under-represented).
    pub representation_ratio: f64,
}

/// The representation audit result.
#[derive(Debug, Clone, PartialEq)]
pub struct RepresentationAudit {
    /// Per-level comparison, in level order.
    pub groups: Vec<GroupRepresentation>,
    /// Total-variation distance between training and population.
    pub tv: f64,
    /// Bootstrap CI for the TV estimate (percentile, 95%).
    pub tv_ci: (f64, f64),
    /// Hellinger distance.
    pub hellinger: f64,
    /// Jensen–Shannon divergence.
    pub js: f64,
    /// The √(k/n) plug-in sampling bound at this sample size — estimates
    /// below this are within sampling noise of zero.
    pub sampling_bound: f64,
    /// Number of training rows.
    pub n: usize,
}

impl RepresentationAudit {
    /// Whether the training distribution drifts detectably beyond
    /// sampling noise.
    pub fn drift_detected(&self) -> bool {
        self.tv > self.sampling_bound && self.tv_ci.0 > 0.0
    }

    /// Groups under-represented by more than `(1 − tolerance)`, i.e.
    /// with representation ratio below `tolerance`.
    pub fn under_represented(&self, tolerance: f64) -> Vec<&GroupRepresentation> {
        self.groups
            .iter()
            .filter(|g| g.representation_ratio < tolerance)
            .collect()
    }
}

/// Runs the representation audit.
///
/// * `protected` — categorical or boolean column to audit (a boolean's
///   levels are `false`, `true`);
/// * `population` — population marginals, one entry per level of the
///   column, in the column's level order (must sum to 1);
/// * `n_bootstrap` — resamples for the TV confidence interval.
pub fn representation_audit<R: Rng>(
    ds: &Dataset,
    protected: &str,
    population: &[f64],
    n_bootstrap: usize,
    rng: &mut R,
) -> Result<RepresentationAudit, String> {
    let (levels, codes) = ds
        .column(protected)
        .and_then(|c| c.as_coded(protected))
        .map_err(|e| e.to_string())?;
    if population.len() != levels.len() {
        return Err(format!(
            "population has {} entries for {} levels",
            population.len(),
            levels.len()
        ));
    }
    let pop = Discrete::new(population.to_vec()).map_err(|e| e.to_string())?;
    let train = Discrete::from_codes(&codes, levels.len()).map_err(|e| e.to_string())?;
    let n = codes.len();

    let groups = levels
        .iter()
        .enumerate()
        .map(|(i, level)| {
            let t = train.p(i);
            let p = pop.p(i);
            GroupRepresentation {
                level: level.clone(),
                training_share: t,
                population_share: p,
                representation_ratio: if p > 0.0 { t / p } else { f64::NAN },
            }
        })
        .collect();

    // Bootstrap the TV estimate by resampling the training codes. One
    // resample buffer is reused across every replicate — the RNG draw
    // sequence is identical to the allocate-per-replicate version, so
    // the CI bounds are bitwise-unchanged (asserted by regression test).
    let tv = total_variation(&train, &pop);
    let mut stats = Vec::with_capacity(n_bootstrap.max(2));
    let mut resample = vec![0u32; n];
    for _ in 0..n_bootstrap.max(2) {
        for slot in resample.iter_mut() {
            *slot = codes[rng.gen_range(0..n)];
        }
        let d = Discrete::from_codes(&resample, levels.len()).map_err(|e| e.to_string())?;
        stats.push(total_variation(&d, &pop));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("NaN TV"));
    let lo = fairbridge_stats::descriptive::quantile_sorted(&stats, 0.025);
    let hi = fairbridge_stats::descriptive::quantile_sorted(&stats, 0.975);

    Ok(RepresentationAudit {
        groups,
        tv,
        tv_ci: (lo, hi),
        hellinger: hellinger(&train, &pop),
        js: js_divergence(&train, &pop),
        sampling_bound: tv_plugin_bound(levels.len(), n),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_stats::rng::StdRng;
    use fairbridge_tabular::Role;

    fn dataset(female_count: usize, male_count: usize) -> Dataset {
        let mut codes = vec![0u32; male_count];
        codes.extend(vec![1u32; female_count]);
        Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], codes, Role::Protected)
            .build()
            .unwrap()
    }

    #[test]
    fn underrepresentation_detected() {
        let mut rng = StdRng::seed_from_u64(91);
        // population is 50/50; training is 90/10
        let ds = dataset(100, 900);
        let audit = representation_audit(&ds, "sex", &[0.5, 0.5], 200, &mut rng).unwrap();
        assert!((audit.tv - 0.4).abs() < 1e-9);
        assert!(audit.drift_detected());
        let under = audit.under_represented(0.8);
        assert_eq!(under.len(), 1);
        assert_eq!(under[0].level, "female");
        assert!((under[0].representation_ratio - 0.2).abs() < 1e-9);
        assert!(audit.tv_ci.0 <= audit.tv && audit.tv <= audit.tv_ci.1 + 1e-9);
    }

    #[test]
    fn representative_sample_passes() {
        let mut rng = StdRng::seed_from_u64(92);
        let ds = dataset(500, 500);
        let audit = representation_audit(&ds, "sex", &[0.5, 0.5], 200, &mut rng).unwrap();
        assert!(audit.tv < audit.sampling_bound);
        assert!(!audit.drift_detected());
        assert!(audit.under_represented(0.9).is_empty());
    }

    #[test]
    fn distances_are_consistent() {
        let mut rng = StdRng::seed_from_u64(93);
        let ds = dataset(100, 900);
        let audit = representation_audit(&ds, "sex", &[0.5, 0.5], 50, &mut rng).unwrap();
        // standard inequality h^2 <= tv
        assert!(audit.hellinger.powi(2) <= audit.tv + 1e-9);
        assert!(audit.js > 0.0);
    }

    #[test]
    fn small_sample_bound_dominates() {
        // 20 rows, 60/40 observed vs 50/50 population: within noise.
        let mut rng = StdRng::seed_from_u64(94);
        let ds = dataset(8, 12);
        let audit = representation_audit(&ds, "sex", &[0.5, 0.5], 100, &mut rng).unwrap();
        assert!((audit.tv - 0.1).abs() < 1e-9);
        assert!(audit.sampling_bound > audit.tv); // sqrt(2/20) ≈ 0.32
        assert!(!audit.drift_detected());
    }

    #[test]
    fn buffer_reuse_preserves_seed_ci_bounds_exactly() {
        // Regression: the resample buffer is now reused across
        // replicates. The RNG draw order must be unchanged, so the CI
        // must match the historical allocate-per-replicate computation
        // bit for bit (same seed the audit pipeline uses).
        let ds = dataset(150, 850);
        let mut rng = StdRng::seed_from_u64(0xFA1B);
        let audit = representation_audit(&ds, "sex", &[0.5, 0.5], 300, &mut rng).unwrap();

        // The pre-refactor replicate loop, reproduced verbatim.
        let (levels, codes) = ds.categorical("sex").unwrap();
        let pop = Discrete::new(vec![0.5, 0.5]).unwrap();
        let n = codes.len();
        let mut rng = StdRng::seed_from_u64(0xFA1B);
        let mut stats = Vec::with_capacity(300);
        for _ in 0..300 {
            let resample: Vec<u32> = (0..n).map(|_| codes[rng.gen_range(0..n)]).collect();
            let d = Discrete::from_codes(&resample, levels.len()).unwrap();
            stats.push(total_variation(&d, &pop));
        }
        stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = fairbridge_stats::descriptive::quantile_sorted(&stats, 0.025);
        let hi = fairbridge_stats::descriptive::quantile_sorted(&stats, 0.975);
        assert_eq!(audit.tv_ci.0.to_bits(), lo.to_bits());
        assert_eq!(audit.tv_ci.1.to_bits(), hi.to_bits());
    }

    #[test]
    fn validates_population() {
        let mut rng = StdRng::seed_from_u64(95);
        let ds = dataset(10, 10);
        assert!(representation_audit(&ds, "sex", &[1.0], 10, &mut rng).is_err());
        assert!(representation_audit(&ds, "sex", &[0.7, 0.7], 10, &mut rng).is_err());
    }
}
