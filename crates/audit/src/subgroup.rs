//! Intersectional / subgroup fairness auditing (paper Section IV.C,
//! following Kearns et al.'s fairness-gerrymandering programme, ref \[9\]).
//!
//! Two auditors:
//!
//! * [`SubgroupAuditor::audit`] — **exhaustive**: enumerates every
//!   conjunction of `column = level` conditions up to a depth bound,
//!   computes each subgroup's positive rate against its complement, and
//!   attaches a two-proportion z-test p-value (Section IV.C's warning
//!   that sparse-subgroup findings need significance checks). Complexity
//!   grows exponentially in depth — the paper's "computational issues
//!   arise when trying to drill down" — hence the depth/support bounds,
//!   and hence the **bitset lattice engine** behind it: per-`(column,
//!   level)` row masks are precomputed once ([`RowMask::level_masks`]),
//!   every lattice node is an AND of its parent's mask with one level
//!   mask, the positive count inside a node is a fused AND+popcount
//!   against a single decisions mask ([`RowMask::count_and`]), children
//!   of under-support nodes are never generated (Apriori-style
//!   anti-monotone pruning — support can only shrink under conjunction),
//!   and the top level of the lattice fans out over worker threads with
//!   a deterministic seed-order merge
//!   ([`fairbridge_tabular::par::ordered_parallel_map`]), so output is
//!   bitwise-identical for every thread count.
//! * [`tree_audit`] — **learned**: fits a shallow decision tree to the
//!   decisions over the audit columns and reads disparate regions off the
//!   leaves; scales past the exhaustive regime at the cost of
//!   completeness.
//!
//! The pre-bitset row-list implementation is the reference oracle of
//! the equivalence suite in `crates/audit/tests/prop_audit.rs`, which
//! checks this auditor against it finding for finding.
//!
//! With telemetry attached (see [`SubgroupAuditor::audit_observed`]) an
//! audit leaves an evidential trail: a `subgroup_audit_started` event, a
//! `subgroup.seed` span per top-level subtree, and the
//! `subgroup.nodes_visited` / `subgroup.nodes_pruned` /
//! `subgroup.findings` counters — the record that the lattice really was
//! searched exhaustively down to the declared support bound, which is
//! what conditional-disparity evidence across all strata requires.

use fairbridge_learn::tree::TreeTrainer;
use fairbridge_learn::{EncoderConfig, FeatureEncoder};
use fairbridge_obs::{FairnessEvent, Telemetry};
use fairbridge_stats::hypothesis::two_proportion_z;
use fairbridge_tabular::par::{ordered_parallel_map, size_aware_workers};
use fairbridge_tabular::{Column, Dataset, RowMask};
use std::borrow::Cow;

/// Work-unit floor per lattice worker, where one unit is one row
/// touched by one seed subtree (`rows × seeds` total), sized from
/// `BENCH_subgroup.json`, where `bitset_parallel` at depths 2–3 lost to
/// the serial bitset scan at benchmark size: the per-node AND+popcount
/// is so cheap (word-parallel over `rows / 64` words) that fan-out only
/// pays once the mask passes themselves are long.
pub const SEED_MIN_UNITS_PER_WORKER: usize = 1 << 18;

/// One audited subgroup.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgroupFinding {
    /// Conjunctive conditions defining the subgroup, as `(column, level)`.
    pub conditions: Vec<(String, String)>,
    /// Subgroup size.
    pub size: usize,
    /// Positive rate inside the subgroup.
    pub rate: f64,
    /// Positive rate of the complement.
    pub complement_rate: f64,
    /// `rate - complement_rate` (negative = disadvantaged subgroup).
    pub gap: f64,
    /// Two-proportion z-test p-value for the gap.
    pub p_value: f64,
}

impl SubgroupFinding {
    /// Renders the conditions as `col=level ∧ col=level`.
    pub fn describe(&self) -> String {
        self.conditions
            .iter()
            .map(|(c, l)| format!("{c}={l}"))
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

/// Configuration for exhaustive subgroup auditing.
#[derive(Debug, Clone)]
pub struct SubgroupAuditor {
    /// Maximum number of conjuncts per subgroup.
    pub max_depth: usize,
    /// Minimum subgroup size to report — also the anti-monotone pruning
    /// bound: no descendant of an under-support node is ever generated.
    pub min_support: usize,
    /// Significance level for the z-test filter (1.0 disables filtering).
    pub alpha: f64,
}

impl Default for SubgroupAuditor {
    fn default() -> Self {
        SubgroupAuditor {
            max_depth: 2,
            min_support: 20,
            alpha: 0.05,
        }
    }
}

/// Per-column `(name, levels, codes)` view used during enumeration,
/// borrowed from the dataset through [`Column::coded`].
struct ColumnView<'a> {
    name: &'a str,
    levels: Cow<'a, [String]>,
    codes: Cow<'a, [u32]>,
}

/// Coded views of the audited columns.
fn build_views<'a>(ds: &'a Dataset, columns: &[&'a str]) -> Result<Vec<ColumnView<'a>>, String> {
    columns
        .iter()
        .map(|&name| {
            let col = ds.column(name).map_err(|e| e.to_string())?;
            let (levels, codes) = col.coded().ok_or_else(|| {
                format!("column `{name}` is numeric; bin it before subgroup auditing")
            })?;
            Ok(ColumnView {
                name,
                levels,
                codes,
            })
        })
        .collect()
}

/// A finding before its conditions are rendered: interned `(column
/// index, level code)` pairs only — level strings are resolved once per
/// *reported* finding, never per lattice node.
struct RawFinding {
    conds: Vec<(usize, u32)>,
    size: usize,
    rate: f64,
    complement_rate: f64,
    gap: f64,
    p_value: f64,
}

/// Per-seed enumeration statistics, merged into the obs counters.
#[derive(Default, Clone, Copy)]
struct SeedStats {
    /// Lattice nodes whose mask was materialized and evaluated.
    visited: u64,
    /// Materialized nodes under `min_support` whose subtree was
    /// abandoned (the anti-monotone prune).
    pruned: u64,
}

/// Shared read-only state of one lattice enumeration.
struct Lattice<'a> {
    views: &'a [ColumnView<'a>],
    /// `masks[ci][lv]` selects the rows with `views[ci].codes == lv`.
    masks: &'a [Vec<RowMask>],
    decisions: &'a RowMask,
    n: usize,
    total_pos: usize,
    max_depth: usize,
    min_support: usize,
    alpha: f64,
}

impl Lattice<'_> {
    /// Enumerates the subtree rooted at seed condition `(ci, level)`.
    fn explore_seed(&self, ci: usize, level: u32) -> (Vec<RawFinding>, SeedStats) {
        let mut out = Vec::new();
        let mut stats = SeedStats::default();
        // One scratch mask per additional conjunct, reused across the
        // whole subtree: the engine allocates max_depth-1 masks per
        // seed, not one row list per node.
        let mut scratch: Vec<RowMask> = (1..self.max_depth)
            .map(|_| RowMask::zeros(self.n))
            .collect();
        let mut conds = vec![(ci, level)];
        self.dfs(
            &self.masks[ci][level as usize],
            ci,
            &mut conds,
            &mut scratch,
            &mut out,
            &mut stats,
        );
        (out, stats)
    }

    /// Depth-first walk: evaluate the node, then extend it with every
    /// level of every later column — unless its support already fell
    /// below the bound, in which case no child is ever materialized.
    fn dfs(
        &self,
        mask: &RowMask,
        last_ci: usize,
        conds: &mut Vec<(usize, u32)>,
        scratch: &mut [RowMask],
        out: &mut Vec<RawFinding>,
        stats: &mut SeedStats,
    ) {
        stats.visited += 1;
        let size = mask.count_ones();
        if size >= self.min_support && size < self.n {
            let pos = mask.count_and(self.decisions);
            let comp_n = self.n - size;
            let comp_pos = self.total_pos - pos;
            let test = two_proportion_z(pos as u64, size as u64, comp_pos as u64, comp_n as u64);
            if test.p_value < self.alpha {
                let rate = pos as f64 / size as f64;
                let complement_rate = comp_pos as f64 / comp_n as f64;
                out.push(RawFinding {
                    conds: conds.clone(),
                    size,
                    rate,
                    complement_rate,
                    gap: rate - complement_rate,
                    p_value: test.p_value,
                });
            }
        }
        if size < self.min_support {
            // Anti-monotone bound: |A ∧ B| ≤ |A|, so every descendant is
            // also under support — the subtree is never generated.
            stats.pruned += 1;
            return;
        }
        if conds.len() >= self.max_depth {
            return;
        }
        let (child_mask, deeper) = scratch
            .split_first_mut()
            .expect("scratch depth matches max_depth");
        for ci in last_ci + 1..self.views.len() {
            for level in 0..self.views[ci].levels.len() as u32 {
                mask.and_into(&self.masks[ci][level as usize], child_mask);
                conds.push((ci, level));
                self.dfs(child_mask, ci, conds, deeper, out, stats);
                conds.pop();
            }
        }
    }
}

impl SubgroupAuditor {
    /// Audits subgroups of the named categorical/boolean columns against
    /// `decisions`, returning significant findings sorted by |gap|
    /// descending.
    ///
    /// Runs the bitset lattice engine with automatic parallelism and no
    /// telemetry — see [`SubgroupAuditor::audit_observed`] for both
    /// knobs. The result is identical for every thread count.
    pub fn audit(
        &self,
        ds: &Dataset,
        columns: &[&str],
        decisions: &[bool],
    ) -> Result<Vec<SubgroupFinding>, String> {
        self.audit_observed(ds, columns, decisions, 0, &Telemetry::off())
    }

    /// [`SubgroupAuditor::audit`] with explicit worker-thread count
    /// (`0` = available parallelism) and a telemetry handle.
    ///
    /// Each seed `(column, level)` subtree is an independent work unit
    /// fanned out over scoped threads; per-seed findings merge in seed
    /// order, so the output is **bitwise-identical** to the
    /// single-threaded run. Telemetry records a `subgroup_audit_started`
    /// event, a `subgroup.seed` span per subtree and the
    /// `subgroup.nodes_visited` / `subgroup.nodes_pruned` /
    /// `subgroup.findings` counters.
    pub fn audit_observed(
        &self,
        ds: &Dataset,
        columns: &[&str],
        decisions: &[bool],
        threads: usize,
        telemetry: &Telemetry,
    ) -> Result<Vec<SubgroupFinding>, String> {
        if decisions.len() != ds.n_rows() {
            return Err("decisions length must match dataset rows".to_owned());
        }
        if columns.is_empty() {
            return Err("subgroup audit requires at least one column".to_owned());
        }
        let _span = telemetry.span("subgroup.audit");
        let views = build_views(ds, columns)?;
        let n = decisions.len();
        if telemetry.is_enabled() {
            telemetry.emit(FairnessEvent::SubgroupAuditStarted {
                rows: n,
                columns: columns.iter().map(|&c| c.to_owned()).collect(),
                max_depth: self.max_depth,
                min_support: self.min_support,
            });
        }

        // Columnar layout, built once: per-(column, level) row masks and
        // one decisions mask. Every per-node count below is popcount
        // work over these.
        let masks: Vec<Vec<RowMask>> = views
            .iter()
            .map(|v| RowMask::level_masks(&v.codes, v.levels.len()))
            .collect();
        let decisions_mask = RowMask::from_bools(decisions);
        let total_pos = decisions_mask.count_ones();

        let lattice = Lattice {
            views: &views,
            masks: &masks,
            decisions: &decisions_mask,
            n,
            total_pos,
            // A conjunct extends a node with a strictly later column, so
            // no node is deeper than the column count; the clamp bounds
            // the per-seed scratch masks without changing any finding.
            max_depth: self.max_depth.min(views.len()),
            min_support: self.min_support,
            alpha: self.alpha,
        };
        let seeds: Vec<(usize, u32)> = views
            .iter()
            .enumerate()
            .flat_map(|(ci, v)| (0..v.levels.len() as u32).map(move |lv| (ci, lv)))
            .collect();
        let requested = if threads > 0 {
            threads
        } else {
            fairbridge_tabular::par::available_workers()
        };
        // Size-aware dispatch: a seed subtree's work is dominated by
        // AND+popcount passes over n-row masks, so `rows × seeds` is the
        // unit count. BENCH_subgroup.json showed the benchmark-size
        // lattice (a few thousand rows, ~a dozen seeds) losing to the
        // inline scan at depths 2–3; the clamp keeps those serial while
        // census-scale datasets still fan out. Merge order is seed order
        // either way, so results are identical.
        let workers = size_aware_workers(
            requested,
            seeds.len(),
            n.saturating_mul(seeds.len()),
            SEED_MIN_UNITS_PER_WORKER,
        );

        // Deterministic fan-out: workers pull seed indices from a shared
        // counter, results slot back in seed order (the same sharding
        // pattern as the engine's metric scan).
        let results = ordered_parallel_map(seeds.len(), workers, |i| {
            let (ci, lv) = seeds[i];
            let _seed_span = telemetry.span("subgroup.seed");
            lattice.explore_seed(ci, lv)
        });

        let mut stats = SeedStats::default();
        let mut findings: Vec<SubgroupFinding> = Vec::new();
        for (raw, seed_stats) in results {
            stats.visited += seed_stats.visited;
            stats.pruned += seed_stats.pruned;
            // Render conditions only now, for reported findings: one
            // string clone per reported condition, none per node.
            findings.extend(raw.into_iter().map(|f| {
                SubgroupFinding {
                    conditions: f
                        .conds
                        .iter()
                        .map(|&(ci, lv)| {
                            (
                                views[ci].name.to_owned(),
                                views[ci].levels[lv as usize].clone(),
                            )
                        })
                        .collect(),
                    size: f.size,
                    rate: f.rate,
                    complement_rate: f.complement_rate,
                    gap: f.gap,
                    p_value: f.p_value,
                }
            }));
        }
        if telemetry.is_enabled() {
            telemetry
                .counter("subgroup.nodes_visited")
                .add(stats.visited);
            telemetry.counter("subgroup.nodes_pruned").add(stats.pruned);
            telemetry
                .counter("subgroup.findings")
                .add(findings.len() as u64);
        }
        sort_findings(&mut findings);
        Ok(findings)
    }

    /// Convenience: audits the dataset's protected columns against its
    /// labels (historical audit) or predictions.
    pub fn audit_dataset(
        &self,
        ds: &Dataset,
        columns: &[&str],
        use_labels: bool,
    ) -> Result<Vec<SubgroupFinding>, String> {
        let decisions: Vec<bool> = if use_labels {
            ds.labels().map_err(|e| e.to_string())?.to_vec()
        } else {
            ds.predictions().map_err(|e| e.to_string())?.to_vec()
        };
        self.audit(ds, columns, &decisions)
    }
}

/// |gap|-descending order via `total_cmp`, so a degenerate complement
/// (NaN gap from an empty complement or 0/0 rate) can never panic an
/// audit — NaN gaps order last instead of first (positive NaN sits
/// above +∞ in the `total_cmp` order, so it is mapped below every real
/// magnitude here).
fn sort_findings(findings: &mut [SubgroupFinding]) {
    let key = |f: &SubgroupFinding| {
        let magnitude = f.gap.abs();
        if magnitude.is_nan() {
            f64::NEG_INFINITY
        } else {
            magnitude
        }
    };
    findings.sort_by(|a, b| key(b).total_cmp(&key(a)));
}

/// Tree-based heuristic subgroup audit: fits a depth-bounded tree to the
/// decisions over the audit columns and returns the most disparate leaf
/// regions. Conditions are rendered over the one-hot encoded features
/// (`col=level` / `col≠level`).
pub fn tree_audit(
    ds: &Dataset,
    columns: &[&str],
    decisions: &[bool],
    max_depth: usize,
    min_support: usize,
) -> Result<Vec<SubgroupFinding>, String> {
    if decisions.len() != ds.n_rows() {
        return Err("decisions length must match dataset rows".to_owned());
    }
    // Project to the audit columns only (all as features).
    let mut builder = Dataset::builder();
    for &name in columns {
        let col = ds.column(name).map_err(|e| e.to_string())?;
        builder = match col {
            Column::Categorical { levels, codes } => builder.categorical_with_role(
                name,
                levels.clone(),
                codes.clone(),
                fairbridge_tabular::Role::Feature,
            ),
            Column::Boolean(v) => builder.boolean(name, v.clone()),
            Column::Numeric(v) => builder.numeric(name, v.clone()),
        };
    }
    let proj = builder.build().map_err(|e| e.to_string())?;
    let cfg = EncoderConfig {
        include_protected: true,
        standardize: false,
        drop_first_level: false,
    };
    let (enc, x) = FeatureEncoder::fit_transform(&proj, cfg)?;
    let tree = TreeTrainer {
        max_depth,
        min_samples_split: min_support.max(2),
        min_samples_leaf: min_support.max(1),
    }
    .fit(&x, decisions);

    // Assign rows to leaves by replaying the paths.
    let total_pos = decisions.iter().filter(|&&d| d).count();
    let n = decisions.len();
    let mut findings = Vec::new();
    for (path, _) in tree.leaves() {
        if path.is_empty() {
            continue;
        }
        let member = |row: &[f64]| path.iter().all(|&(f, t, left)| (row[f] < t) == left);
        let rows: Vec<usize> = x
            .rows()
            .enumerate()
            .filter_map(|(i, row)| member(row).then_some(i))
            .collect();
        if rows.len() < min_support || rows.len() == n {
            continue;
        }
        let pos = rows.iter().filter(|&&i| decisions[i]).count();
        let comp_pos = total_pos - pos;
        let comp_n = n - rows.len();
        let test = two_proportion_z(
            pos as u64,
            rows.len() as u64,
            comp_pos as u64,
            comp_n as u64,
        );
        let rate = pos as f64 / rows.len() as f64;
        let complement_rate = comp_pos as f64 / comp_n as f64;
        let conditions: Vec<(String, String)> = path
            .iter()
            .map(|&(f, _, left)| {
                let feat = enc.feature_names()[f].clone();
                // one-hot feature "col=level": < threshold means indicator
                // 0, i.e. the negation.
                let (col, level) = feat
                    .split_once('=')
                    .map(|(c, l)| (c.to_owned(), l.to_owned()))
                    .unwrap_or((feat.clone(), "true".to_owned()));
                if left {
                    (col, format!("¬{level}"))
                } else {
                    (col, level)
                }
            })
            .collect();
        findings.push(SubgroupFinding {
            conditions,
            size: rows.len(),
            rate,
            complement_rate,
            gap: rate - complement_rate,
            p_value: test.p_value,
        });
    }
    sort_findings(&mut findings);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_stats::rng::StdRng;
    use fairbridge_synth::intersectional::{generate, IntersectionalConfig};

    fn gerrymandered() -> Dataset {
        let mut rng = StdRng::seed_from_u64(61);
        generate(
            &IntersectionalConfig {
                n: 8000,
                ..IntersectionalConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn exhaustive_audit_finds_planted_intersections() {
        let ds = gerrymandered();
        let auditor = SubgroupAuditor::default();
        let findings = auditor
            .audit_dataset(&ds, &["gender", "race"], true)
            .unwrap();
        assert!(!findings.is_empty());
        // Top finding must be a depth-2 intersection with gap ≈ ±0.4+
        let top = &findings[0];
        assert_eq!(top.conditions.len(), 2, "{top:?}");
        assert!(top.gap.abs() > 0.2, "gap {}", top.gap);
        assert!(top.p_value < 1e-6);
        // The disadvantaged intersections are the planted ones.
        let disadvantaged: Vec<String> = findings
            .iter()
            .filter(|f| f.conditions.len() == 2 && f.gap < -0.2)
            .map(|f| f.describe())
            .collect();
        assert!(
            disadvantaged
                .iter()
                .any(|d| d.contains("gender=male") && d.contains("race=non_caucasian")),
            "{disadvantaged:?}"
        );
        assert!(
            disadvantaged
                .iter()
                .any(|d| d.contains("gender=female") && d.contains("race=caucasian")),
            "{disadvantaged:?}"
        );
    }

    #[test]
    fn marginal_groups_not_flagged_in_gerrymandered_data() {
        let ds = gerrymandered();
        let auditor = SubgroupAuditor {
            max_depth: 1,
            ..SubgroupAuditor::default()
        };
        let findings = auditor
            .audit_dataset(&ds, &["gender", "race"], true)
            .unwrap();
        // single-attribute audits see (almost) nothing
        for f in &findings {
            assert!(
                f.gap.abs() < 0.05,
                "marginal audit should not find large gaps: {f:?}"
            );
        }
    }

    #[test]
    fn min_support_prunes_small_subgroups() {
        let ds = gerrymandered();
        let auditor = SubgroupAuditor {
            min_support: 100_000, // larger than the data
            ..SubgroupAuditor::default()
        };
        let findings = auditor
            .audit_dataset(&ds, &["gender", "race"], true)
            .unwrap();
        assert!(findings.is_empty());
    }

    #[test]
    fn alpha_one_disables_significance_filter() {
        let ds = gerrymandered();
        let strict = SubgroupAuditor {
            alpha: 1e-30,
            ..SubgroupAuditor::default()
        };
        let loose = SubgroupAuditor {
            alpha: 1.0,
            ..SubgroupAuditor::default()
        };
        let n_strict = strict
            .audit_dataset(&ds, &["gender", "race"], true)
            .unwrap()
            .len();
        let n_loose = loose
            .audit_dataset(&ds, &["gender", "race"], true)
            .unwrap()
            .len();
        assert!(n_loose >= n_strict);
        assert!(n_loose >= 8); // all marginal + intersectional cells
    }

    #[test]
    fn parallel_audit_is_bitwise_identical_to_serial() {
        let ds = gerrymandered();
        let decisions = ds.labels().unwrap().to_vec();
        let auditor = SubgroupAuditor {
            alpha: 1.0,
            ..SubgroupAuditor::default()
        };
        let telemetry = Telemetry::off();
        let serial = auditor
            .audit_observed(&ds, &["gender", "race"], &decisions, 1, &telemetry)
            .unwrap();
        for threads in [2, 4, 8] {
            let parallel = auditor
                .audit_observed(&ds, &["gender", "race"], &decisions, threads, &telemetry)
                .unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn nan_gap_findings_cannot_panic_the_sort() {
        let mut findings = vec![
            SubgroupFinding {
                conditions: vec![("g".into(), "a".into())],
                size: 5,
                rate: 0.5,
                complement_rate: 0.1,
                gap: 0.4,
                p_value: 0.01,
            },
            SubgroupFinding {
                conditions: vec![("g".into(), "b".into())],
                size: 5,
                rate: f64::NAN,
                complement_rate: f64::NAN,
                gap: f64::NAN,
                p_value: 0.01,
            },
        ];
        sort_findings(&mut findings); // must not panic
        assert_eq!(findings[0].gap, 0.4, "NaN orders last under total_cmp");
        assert!(findings[1].gap.is_nan());
    }

    #[test]
    fn tree_audit_finds_disparate_region() {
        let ds = gerrymandered();
        let decisions = ds.labels().unwrap().to_vec();
        let findings = tree_audit(&ds, &["gender", "race"], &decisions, 3, 50).unwrap();
        assert!(!findings.is_empty());
        assert!(findings[0].gap.abs() > 0.2, "{:?}", findings[0]);
        assert!(findings[0].p_value < 1e-6);
    }

    #[test]
    fn numeric_columns_rejected_by_exhaustive_audit() {
        let ds = gerrymandered();
        let auditor = SubgroupAuditor::default();
        let decisions = ds.labels().unwrap().to_vec();
        assert!(auditor.audit(&ds, &["score"], &decisions).is_err());
    }

    #[test]
    fn describe_renders_conjunction() {
        let f = SubgroupFinding {
            conditions: vec![
                ("gender".into(), "male".into()),
                ("race".into(), "non_caucasian".into()),
            ],
            size: 10,
            rate: 0.2,
            complement_rate: 0.6,
            gap: -0.4,
            p_value: 0.01,
        };
        assert_eq!(f.describe(), "gender=male ∧ race=non_caucasian");
    }
}
