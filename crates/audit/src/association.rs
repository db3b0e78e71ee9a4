//! Discrimination by association (paper Section IV.B, refs \[5\]\[22\]).
//!
//! "This issue appears when individuals are mistakenly categorized as
//! part of a protected group, which faces discrimination, and
//! consequently experience the same type of discrimination. In our
//! example ... the derived ML model \[is\] biased towards female
//! individuals and, by correlation, also towards individuals that have
//! attended the specific universities, even if they are males."
//!
//! The audit quantifies the spillover: among the *non-protected* group,
//! compare outcomes for those who share the protected group's proxy
//! signature against those who do not. A gap there is discrimination
//! landing on people who merely *look like* the protected group.

use fairbridge_stats::hypothesis::{two_proportion_z, TestResult};
use fairbridge_tabular::Dataset;

/// The association-spillover audit result for one proxy level.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationFinding {
    /// The proxy column audited.
    pub proxy: String,
    /// The proxy level typical of the protected group.
    pub protected_typical_level: String,
    /// Positive rate of non-protected individuals WITH the protected-
    /// typical proxy value.
    pub rate_with_signature: f64,
    /// Positive rate of non-protected individuals WITHOUT it.
    pub rate_without_signature: f64,
    /// `rate_with − rate_without` (negative = spillover discrimination).
    pub spillover_gap: f64,
    /// Significance of the gap.
    pub test: TestResult,
    /// Sample sizes: (with signature, without).
    pub n: (usize, usize),
}

/// Runs the association audit.
///
/// * `protected` — categorical or boolean protected column;
/// * `protected_level` — the discriminated level (e.g. `"female"`);
/// * `proxy` — the categorical/boolean feature suspected of carrying the
///   group signature (e.g. `"university"`);
/// * decisions come from the label column (historical audit) unless a
///   prediction column is present and `use_predictions` is set.
///
/// Both columns are read through [`fairbridge_tabular::Column::coded`].
/// One pass over the rows counts every (protected?, proxy level) cell and
/// the positives per proxy level among non-protected rows; each finding
/// is read off those counts.
pub fn association_audit(
    ds: &Dataset,
    protected: &str,
    protected_level: &str,
    proxy: &str,
    use_predictions: bool,
) -> Result<Vec<AssociationFinding>, String> {
    let decisions = if use_predictions {
        ds.predictions()
    } else {
        ds.labels()
    }
    .map_err(|e| e.to_string())?;
    let (p_levels, p_codes) = ds
        .column(protected)
        .and_then(|c| c.as_coded(protected))
        .map_err(|e| e.to_string())?;
    let target = p_levels
        .iter()
        .position(|l| l == protected_level)
        .ok_or_else(|| format!("level `{protected_level}` not in `{protected}`"))?
        as u32;
    let (levels, codes) = ds
        .column(proxy)
        .map_err(|e| e.to_string())?
        .coded()
        .ok_or_else(|| format!("proxy `{proxy}` is numeric; bin it first"))?;

    // Rows at each proxy level, protected and not, and the positive
    // decisions among the non-protected rows at each level.
    let mut prot_at = vec![0usize; levels.len()];
    let mut rest_at = vec![0usize; levels.len()];
    let mut rest_pos_at = vec![0usize; levels.len()];
    for ((&p, &code), &d) in p_codes.iter().zip(codes.iter()).zip(decisions) {
        let level = code as usize;
        if p == target {
            prot_at[level] += 1;
        } else {
            rest_at[level] += 1;
            rest_pos_at[level] += usize::from(d);
        }
    }
    let prot_total: usize = prot_at.iter().sum();
    let rest_total: usize = rest_at.iter().sum();
    if prot_total == 0 || rest_total == 0 {
        return Ok(Vec::new());
    }
    let rest_pos: usize = rest_pos_at.iter().sum();

    let mut findings = Vec::new();
    for (li, level) in levels.iter().enumerate() {
        // Is this level protected-typical? (over-represented among the
        // protected group relative to the rest.)
        let prot_rate = prot_at[li] as f64 / prot_total as f64;
        let rest_rate = rest_at[li] as f64 / rest_total as f64;
        if prot_rate <= rest_rate {
            continue; // not protected-typical
        }

        // Spillover among the NON-protected group.
        let (sig_n, sig_pos) = (rest_at[li] as u64, rest_pos_at[li] as u64);
        let other_n = (rest_total - rest_at[li]) as u64;
        let other_pos = (rest_pos - rest_pos_at[li]) as u64;
        if sig_n == 0 || other_n == 0 {
            continue;
        }
        let rate_with = sig_pos as f64 / sig_n as f64;
        let rate_without = other_pos as f64 / other_n as f64;
        findings.push(AssociationFinding {
            proxy: proxy.to_owned(),
            protected_typical_level: level.clone(),
            rate_with_signature: rate_with,
            rate_without_signature: rate_without,
            spillover_gap: rate_with - rate_without,
            test: two_proportion_z(sig_pos, sig_n, other_pos, other_n),
            n: (sig_n as usize, other_n as usize),
        });
    }
    findings.sort_by(|a, b| {
        a.spillover_gap
            .partial_cmp(&b.spillover_gap)
            .expect("NaN gap")
    });
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_stats::rng::StdRng;
    use fairbridge_synth::hiring::{generate, HiringConfig};
    use fairbridge_tabular::Role;

    /// World where the decision depends directly on the proxy (a learned
    /// model's behaviour): males from the female-typical university are
    /// hit by the same penalty.
    fn proxy_decided_world() -> Dataset {
        use fairbridge_stats::rng::Rng;
        let mut rng = StdRng::seed_from_u64(70);
        let n = 4000;
        let mut sex = Vec::new();
        let mut uni = Vec::new();
        let mut hired = Vec::new();
        for _ in 0..n {
            let female = rng.gen::<f64>() < 1.0 / 3.0;
            // proxy: female-typical with 90% probability
            let metro = rng.gen::<f64>() < if female { 0.9 } else { 0.1 };
            // decision keyed on the PROXY, not sex (a proxy-using model)
            let hire = rng.gen::<f64>() < if metro { 0.2 } else { 0.7 };
            sex.push(u32::from(female));
            uni.push(u32::from(metro));
            hired.push(hire);
        }
        Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .categorical_with_role(
                "university",
                vec!["tech_institute", "metro_college"],
                uni,
                Role::Feature,
            )
            .boolean_with_role("hired", hired, Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn spillover_detected_on_proxy_decided_world() {
        let ds = proxy_decided_world();
        let findings = association_audit(&ds, "sex", "female", "university", false).unwrap();
        // metro_college is female-typical; males attending it are hit.
        let metro = findings
            .iter()
            .find(|f| f.protected_typical_level == "metro_college")
            .expect("metro finding");
        assert!(
            metro.spillover_gap < -0.3,
            "spillover gap {}",
            metro.spillover_gap
        );
        assert!(metro.test.p_value < 0.01);
        assert!(metro.n.0 > 0 && metro.n.1 > 0);
    }

    #[test]
    fn no_spillover_when_decisions_ignore_proxy() {
        let mut rng = StdRng::seed_from_u64(71);
        // generator with direct sex bias but decisions independent of the
        // university GIVEN sex → male outcomes don't depend on university
        let data = generate(
            &HiringConfig {
                n: 20_000,
                bias_against_female: 0.4,
                proxy_strength: 0.85,
                ..HiringConfig::default()
            },
            &mut rng,
        );
        let findings =
            association_audit(&data.dataset, "sex", "female", "university", false).unwrap();
        for f in &findings {
            assert!(
                f.spillover_gap.abs() < 0.05 || !f.test.significant_at(0.01),
                "unexpected spillover: {f:?}"
            );
        }
    }

    /// A 3-level proxy counted by hand. Protected (female) rows: 1 at a,
    /// 3 at b, 2 at c. Male rows: a ×4 (3 hired), b ×2 (0 hired), c ×2
    /// (1 hired). Shares: b 3/6 > 2/8 and c 2/6 > 2/8 are female-typical,
    /// a 1/6 < 4/8 is not.
    /// * b: with 0/2, without (a, c) 4/6, gap −2/3;
    /// * c: with 1/2, without (a, b) 3/6, gap 0.
    #[test]
    fn three_level_proxy_counted_by_hand() {
        let rows: [(u32, u32, bool); 14] = [
            (1, 0, true),
            (1, 1, false),
            (1, 1, true),
            (1, 1, false),
            (1, 2, true),
            (1, 2, false),
            (0, 0, true),
            (0, 0, true),
            (0, 0, true),
            (0, 0, false),
            (0, 1, false),
            (0, 1, false),
            (0, 2, true),
            (0, 2, false),
        ];
        let ds = Dataset::builder()
            .categorical_with_role(
                "sex",
                vec!["male", "female"],
                rows.iter().map(|r| r.0).collect(),
                Role::Protected,
            )
            .categorical_with_role(
                "uni",
                vec!["a", "b", "c"],
                rows.iter().map(|r| r.1).collect(),
                Role::Feature,
            )
            .boolean_with_role("hired", rows.iter().map(|r| r.2).collect(), Role::Label)
            .build()
            .unwrap();
        let findings = association_audit(&ds, "sex", "female", "uni", false).unwrap();
        let summary: Vec<_> = findings
            .iter()
            .map(|f| {
                (
                    f.protected_typical_level.as_str(),
                    f.n,
                    f.rate_with_signature,
                    f.rate_without_signature,
                    f.spillover_gap,
                )
            })
            .collect();
        assert_eq!(
            summary,
            [
                ("b", (2, 6), 0.0, 4.0 / 6.0, -(4.0 / 6.0)),
                ("c", (2, 6), 0.5, 0.5, 0.0),
            ]
        );
    }

    #[test]
    fn validates_inputs() {
        let ds = proxy_decided_world();
        assert!(association_audit(&ds, "sex", "nonbinary", "university", false).is_err());
        assert!(association_audit(&ds, "sex", "female", "missing_col", false).is_err());
    }
}
