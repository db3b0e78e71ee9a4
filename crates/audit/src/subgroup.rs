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
//!   arise when trying to drill down" — hence the depth/support bounds.
//!   A finding depends on four integers only (the node's size and
//!   positives, the row count and the total positives), so the walk
//!   reads a **count table** keyed by the audited columns' level codes,
//!   built in one row pass: a node's size and positives are sums over
//!   its cells, its children on a column are one bucketing of its cells
//!   by code, and children of under-support nodes are never generated
//!   (Apriori-style anti-monotone pruning — support can only shrink
//!   under conjunction).
//! * [`tree_audit`] — **learned**: fits a shallow decision tree to the
//!   decisions over the audit columns and reads disparate regions off the
//!   leaves; scales past the exhaustive regime at the cost of
//!   completeness.
//!
//! A row-list implementation is the reference oracle of the
//! equivalence suite in `crates/audit/tests/prop_audit.rs`, which
//! checks this auditor against it finding for finding.
//!
//! With telemetry attached (see [`SubgroupAuditor::audit_observed`]) an
//! audit leaves an evidential trail: a `subgroup_audit_started` event, a
//! `subgroup.audit` span, and the
//! `subgroup.nodes_visited` / `subgroup.nodes_pruned` /
//! `subgroup.findings` counters — the record that the lattice really was
//! searched exhaustively down to the declared support bound, which is
//! what conditional-disparity evidence across all strata requires.

use fairbridge_learn::tree::TreeTrainer;
use fairbridge_learn::{EncoderConfig, FeatureEncoder};
use fairbridge_obs::{FairnessEvent, Telemetry};
use fairbridge_stats::hypothesis::two_proportion_z;
use fairbridge_tabular::{Column, Dataset};
use std::borrow::Cow;

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
    /// An empty subgroup is never tested, so the bound in effect is
    /// `max(min_support, 1)`.
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

/// Coded views of the audited columns, each code checked against its
/// dictionary (the count table's cell ids rely on it).
fn build_views<'a>(ds: &'a Dataset, columns: &[&'a str]) -> Result<Vec<ColumnView<'a>>, String> {
    columns
        .iter()
        .map(|&name| {
            let col = ds.column(name).map_err(|e| e.to_string())?;
            let (levels, codes) = col.coded().ok_or_else(|| {
                format!("column `{name}` is numeric; bin it before subgroup auditing")
            })?;
            // A fold of `code >= n_levels` flags: no per-row branch.
            let n_levels = u32::try_from(levels.len()).unwrap_or(u32::MAX);
            if codes.iter().fold(false, |bad, &c| bad | (c >= n_levels)) {
                return Err(format!(
                    "column `{name}` has a code outside its {} levels",
                    levels.len()
                ));
            }
            Ok(ColumnView {
                name,
                levels,
                codes,
            })
        })
        .collect()
}

/// Rows per chunk of cell ids in the dense table's row pass.
const ID_CHUNK: usize = 256;

/// How many rows, and how many positive decisions, each cell holds.
enum Tallies<'a> {
    /// One cell per row: one row, positive iff its decision is.
    Rows(&'a [bool]),
    /// `(rows, positives)` per cell.
    Counts(Vec<(usize, usize)>),
}

/// The audited rows grouped by their level-code tuple: cell `i` has
/// code `codes[c][i]` on audited column `c`.
struct CountTable<'a> {
    codes: Vec<Cow<'a, [u32]>>,
    tallies: Tallies<'a>,
}

impl<'a> CountTable<'a> {
    /// One cell per occurring code tuple when the product of the level
    /// counts is at most the row count, so the dense table is never
    /// larger than the rows it sums (and its ids fit a `u32`); otherwise
    /// one cell per row, borrowing the coded views and the decisions.
    fn build(views: &'a [ColumnView<'a>], decisions: &'a [bool]) -> CountTable<'a> {
        let cells = views
            .iter()
            .try_fold(1usize, |p, v| p.checked_mul(v.levels.len()))
            .filter(|&p| p <= decisions.len() && u32::try_from(2 * p).is_ok());
        let Some(cells) = cells else {
            return CountTable {
                codes: views.iter().map(|v| Cow::Borrowed(&*v.codes)).collect(),
                tallies: Tallies::Rows(decisions),
            };
        };
        // Mixed-radix cell id, the first column most significant so ids
        // run in code-tuple order, with the decision as a last binary
        // digit: `dense[2·id + d]` counts the cell's rows with decision
        // `d`. Ids are computed a column at a time over a fixed chunk of
        // rows, then counted.
        let mut strides = vec![2u32; views.len()];
        for c in (1..views.len()).rev() {
            strides[c - 1] = strides[c] * views[c].levels.len() as u32;
        }
        let mut dense = vec![0usize; 2 * cells];
        let mut ids = [0u32; ID_CHUNK];
        for (start, chunk) in (0..).step_by(ID_CHUNK).zip(decisions.chunks(ID_CHUNK)) {
            let ids = &mut ids[..chunk.len()];
            for (id, &d) in ids.iter_mut().zip(chunk) {
                *id = u32::from(d);
            }
            for (v, &stride) in views.iter().zip(&strides) {
                for (id, &code) in ids.iter_mut().zip(&v.codes[start..]) {
                    *id += code * stride;
                }
            }
            for &id in ids.iter() {
                dense[id as usize] += 1;
            }
        }
        let mut codes = vec![Vec::new(); views.len()];
        let mut counts = Vec::new();
        let negatives = dense.iter().step_by(2);
        let positives = dense.iter().skip(1).step_by(2);
        for (id, (&neg, &pos)) in negatives.zip(positives).enumerate() {
            if neg + pos == 0 {
                continue;
            }
            let mut rest = id;
            for (c, v) in views.iter().enumerate().rev() {
                codes[c].push((rest % v.levels.len()) as u32);
                rest /= v.levels.len();
            }
            counts.push((neg + pos, pos));
        }
        CountTable {
            codes: codes.into_iter().map(Cow::Owned).collect(),
            tallies: Tallies::Counts(counts),
        }
    }

    /// All cells, as the root node of the walk.
    fn all_cells(&self) -> Vec<usize> {
        let n_cells = match &self.tallies {
            Tallies::Rows(decisions) => decisions.len(),
            Tallies::Counts(counts) => counts.len(),
        };
        (0..n_cells).collect()
    }

    /// A node's `(size, positives)`: sums over its cells.
    fn tally(&self, cells: &[usize]) -> (usize, usize) {
        match &self.tallies {
            Tallies::Rows(decisions) => (
                cells.len(),
                cells.iter().map(|&i| usize::from(decisions[i])).sum(),
            ),
            Tallies::Counts(counts) => cells.iter().fold((0, 0), |(size, pos), &i| {
                (size + counts[i].0, pos + counts[i].1)
            }),
        }
    }

    /// Counting sort of `cells` by their code on column `c`: level `l`'s
    /// cells are `order[starts[l]..starts[l + 1]]`.
    fn bucket(&self, cells: &[usize], c: usize, n_levels: usize) -> (Vec<usize>, Vec<usize>) {
        let codes = &self.codes[c];
        let mut starts = vec![0; n_levels + 1];
        for &cell in cells {
            starts[codes[cell] as usize + 1] += 1;
        }
        for l in 0..n_levels {
            starts[l + 1] += starts[l];
        }
        let mut next = starts.clone();
        let mut order = vec![0; cells.len()];
        for &cell in cells {
            let slot = &mut next[codes[cell] as usize];
            order[*slot] = cell;
            *slot += 1;
        }
        (starts, order)
    }
}

/// One lattice enumeration over a [`CountTable`].
struct Walk<'a> {
    views: &'a [ColumnView<'a>],
    table: &'a CountTable<'a>,
    n: usize,
    total_pos: usize,
    max_depth: usize,
    /// `max(min_support, 1)`: an empty node is never tested.
    min_support: usize,
    alpha: f64,
    findings: Vec<SubgroupFinding>,
    /// Lattice nodes evaluated.
    visited: u64,
    /// Evaluated nodes under support whose subtree was abandoned (the
    /// anti-monotone prune).
    pruned: u64,
}

impl Walk<'_> {
    /// Visits the children of the node `cells` (conditions `conds`) on
    /// every column from `first` on, each column's levels in code order —
    /// empty ones included.
    fn extend(&mut self, cells: &[usize], first: usize, conds: &mut Vec<(usize, u32)>) {
        for ci in first..self.views.len() {
            let n_levels = self.views[ci].levels.len();
            let (starts, order) = self.table.bucket(cells, ci, n_levels);
            for level in 0..n_levels {
                conds.push((ci, level as u32));
                self.visit(&order[starts[level]..starts[level + 1]], ci, conds);
                conds.pop();
            }
        }
    }

    /// Depth-first: evaluate the node, then extend it with every level
    /// of every later column — unless its support already fell below
    /// the bound, in which case no child is ever generated.
    fn visit(&mut self, cells: &[usize], ci: usize, conds: &mut Vec<(usize, u32)>) {
        self.visited += 1;
        let (size, pos) = self.table.tally(cells);
        if size < self.min_support {
            // Anti-monotone bound: |A ∧ B| ≤ |A|, so every descendant is
            // also under support — the subtree is never generated.
            self.pruned += 1;
            return;
        }
        if size < self.n {
            let comp_n = self.n - size;
            let comp_pos = self.total_pos - pos;
            let test = two_proportion_z(pos as u64, size as u64, comp_pos as u64, comp_n as u64);
            if test.p_value < self.alpha {
                let rate = pos as f64 / size as f64;
                let complement_rate = comp_pos as f64 / comp_n as f64;
                // Conditions are rendered only for reported findings.
                let conditions = conds
                    .iter()
                    .map(|&(c, lv)| {
                        let view = &self.views[c];
                        (view.name.to_owned(), view.levels[lv as usize].clone())
                    })
                    .collect();
                self.findings.push(SubgroupFinding {
                    conditions,
                    size,
                    rate,
                    complement_rate,
                    gap: rate - complement_rate,
                    p_value: test.p_value,
                });
            }
        }
        if conds.len() < self.max_depth {
            self.extend(cells, ci + 1, conds);
        }
    }
}

impl SubgroupAuditor {
    /// Audits subgroups of the named categorical/boolean columns against
    /// `decisions`, returning significant findings sorted by |gap|
    /// descending.
    ///
    /// Runs without telemetry — see [`SubgroupAuditor::audit_observed`].
    pub fn audit(
        &self,
        ds: &Dataset,
        columns: &[&str],
        decisions: &[bool],
    ) -> Result<Vec<SubgroupFinding>, String> {
        self.audit_observed(ds, columns, decisions, 0, &Telemetry::off())
    }

    /// [`SubgroupAuditor::audit`] with a telemetry handle, which records
    /// a `subgroup_audit_started` event, a `subgroup.audit` span and the
    /// `subgroup.nodes_visited` / `subgroup.nodes_pruned` /
    /// `subgroup.findings` counters.
    ///
    /// `_threads` has no effect: the walk runs on the calling thread.
    pub fn audit_observed(
        &self,
        ds: &Dataset,
        columns: &[&str],
        decisions: &[bool],
        _threads: usize,
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
        if telemetry.is_enabled() {
            telemetry.emit(FairnessEvent::SubgroupAuditStarted {
                rows: decisions.len(),
                columns: columns.iter().map(|&c| c.to_owned()).collect(),
                max_depth: self.max_depth,
                min_support: self.min_support,
            });
        }

        let table = CountTable::build(&views, decisions);
        let root = table.all_cells();
        let (n, total_pos) = table.tally(&root);
        let mut walk = Walk {
            views: &views,
            table: &table,
            n,
            total_pos,
            max_depth: self.max_depth,
            min_support: self.min_support.max(1),
            alpha: self.alpha,
            findings: Vec::new(),
            visited: 0,
            pruned: 0,
        };
        // The root is every cell; its children are the depth-1 seeds in
        // `(column, code)` order.
        walk.extend(&root, 0, &mut Vec::new());
        let mut findings = walk.findings;
        if telemetry.is_enabled() {
            telemetry
                .counter("subgroup.nodes_visited")
                .add(walk.visited);
            telemetry.counter("subgroup.nodes_pruned").add(walk.pruned);
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

    /// `g` has a level no row has and no row is `g=a ∧ h=y`.
    fn with_empty_subgroups() -> (Dataset, Vec<bool>) {
        let decisions = vec![true, true, false, false, true, false, false, true];
        let ds = Dataset::builder()
            .categorical_with_role(
                "g",
                vec!["a", "b", "unused"],
                vec![0, 0, 0, 1, 1, 1, 1, 1],
                fairbridge_tabular::Role::Protected,
            )
            .categorical_with_role(
                "h",
                vec!["x", "y"],
                vec![0, 0, 0, 0, 1, 1, 0, 1],
                fairbridge_tabular::Role::Protected,
            )
            .build()
            .unwrap();
        (ds, decisions)
    }

    #[test]
    fn min_support_zero_prunes_empty_subgroups_instead_of_testing_them() {
        let (ds, decisions) = with_empty_subgroups();
        let sink = std::sync::Arc::new(fairbridge_obs::RingSink::with_capacity(64));
        let telemetry = Telemetry::new(sink);
        let zero = SubgroupAuditor {
            max_depth: 2,
            min_support: 0,
            alpha: 1.0,
        };
        let findings = zero
            .audit_observed(&ds, &["g", "h"], &decisions, 0, &telemetry)
            .unwrap();
        let one = SubgroupAuditor {
            min_support: 1,
            ..zero
        };
        assert_eq!(findings, one.audit(&ds, &["g", "h"], &decisions).unwrap());
        let counters: std::collections::BTreeMap<String, u64> =
            telemetry.counter_values().into_iter().collect();
        // Five seeds and the four children of `g=a` and `g=b`; the
        // empty `g=unused` and `g=a ∧ h=y` are the pruned nodes.
        assert_eq!(counters["subgroup.nodes_visited"], 9);
        assert_eq!(counters["subgroup.nodes_pruned"], 2);
    }

    #[test]
    fn codes_outside_the_dictionary_are_an_error() {
        let ds = Dataset::builder()
            .boolean("y", vec![true, false])
            .build()
            .unwrap()
            .with_column(
                "g",
                Column::Categorical {
                    levels: vec!["a".into()],
                    codes: vec![0, 1],
                },
                fairbridge_tabular::Role::Protected,
            )
            .unwrap();
        let err = SubgroupAuditor::default()
            .audit(&ds, &["g"], &[true, false])
            .unwrap_err();
        assert!(err.contains("outside its 1 levels"), "{err}");
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
