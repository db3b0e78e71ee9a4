//! Randomized property tests for the audit machinery, driven by the
//! workspace's deterministic PRNG (no proptest: the build is offline).

use fairbridge_audit::subgroup::{SubgroupAuditor, SubgroupFinding};
use fairbridge_obs::Telemetry;
use fairbridge_stats::hypothesis::two_proportion_z;
use fairbridge_stats::rng::{Rng, StdRng};
use fairbridge_synth::intersectional::{self, IntersectionalConfig};
use fairbridge_tabular::{Dataset, Role};

const CASES: usize = 32;

fn audit_data<R: Rng>(rng: &mut R) -> (Dataset, Vec<bool>) {
    let n = rng.gen_range(8..120usize);
    let g1: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2usize) as u32).collect();
    let g2: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2usize) as u32).collect();
    let decisions: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let ds = Dataset::builder()
        .categorical_with_role("g1", vec!["a", "b"], g1, Role::Protected)
        .categorical_with_role("g2", vec!["x", "y"], g2, Role::Protected)
        .boolean_with_role("y", decisions.clone(), Role::Label)
        .build()
        .unwrap();
    (ds, decisions)
}

/// Every finding respects min_support, has a valid p-value and a gap
/// consistent with its reported rates.
#[test]
fn findings_are_internally_consistent() {
    let mut rng = StdRng::seed_from_u64(0xA0_01);
    for _ in 0..CASES {
        let (ds, decisions) = audit_data(&mut rng);
        let auditor = SubgroupAuditor {
            max_depth: 2,
            min_support: 3,
            alpha: 1.0, // keep everything
        };
        let findings = auditor.audit(&ds, &["g1", "g2"], &decisions).unwrap();
        for f in &findings {
            assert!(f.size >= 3);
            assert!(f.size < ds.n_rows());
            assert!((0.0..=1.0).contains(&f.p_value));
            assert!((0.0..=1.0).contains(&f.rate));
            assert!((0.0..=1.0).contains(&f.complement_rate));
            assert!((f.gap - (f.rate - f.complement_rate)).abs() < 1e-12);
            assert!(!f.conditions.is_empty() && f.conditions.len() <= 2);
        }
        // findings are sorted by |gap| descending
        for w in findings.windows(2) {
            assert!(w[0].gap.abs() >= w[1].gap.abs() - 1e-12);
        }
    }
}

/// Tightening alpha can only remove findings, never add them.
#[test]
fn alpha_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0xA0_02);
    for _ in 0..CASES {
        let (ds, decisions) = audit_data(&mut rng);
        let run = |alpha: f64| {
            SubgroupAuditor {
                max_depth: 2,
                min_support: 3,
                alpha,
            }
            .audit(&ds, &["g1", "g2"], &decisions)
            .unwrap()
            .len()
        };
        assert!(run(0.01) <= run(0.10));
        assert!(run(0.10) <= run(1.0));
    }
}

/// Raising min_support can only remove findings.
#[test]
fn support_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0xA0_03);
    for _ in 0..CASES {
        let (ds, decisions) = audit_data(&mut rng);
        let run = |min_support: usize| {
            SubgroupAuditor {
                max_depth: 2,
                min_support,
                alpha: 1.0,
            }
            .audit(&ds, &["g1", "g2"], &decisions)
            .unwrap()
            .len()
        };
        assert!(run(20) <= run(5));
        assert!(run(5) <= run(1));
    }
}

/// Depth-1 findings are a subset of the conditions seen at depth 2.
#[test]
fn depth_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0xA0_04);
    for _ in 0..CASES {
        let (ds, decisions) = audit_data(&mut rng);
        let run = |depth: usize| {
            SubgroupAuditor {
                max_depth: depth,
                min_support: 3,
                alpha: 1.0,
            }
            .audit(&ds, &["g1", "g2"], &decisions)
            .unwrap()
        };
        let d1 = run(1);
        let d2 = run(2);
        assert!(d2.len() >= d1.len());
        // every depth-1 description reappears at depth 2
        for f in &d1 {
            assert!(d2.iter().any(|g| g.describe() == f.describe()));
        }
    }
}

/// Constant decisions produce no significant findings at any alpha
/// below 1 (no gap exists).
#[test]
fn constant_decisions_no_findings() {
    let mut rng = StdRng::seed_from_u64(0xA0_05);
    for _ in 0..CASES {
        let n = rng.gen_range(8..80usize);
        let value = rng.gen_bool(0.5);
        let ds = Dataset::builder()
            .categorical_with_role(
                "g1",
                vec!["a", "b"],
                (0..n).map(|i| (i % 2) as u32).collect(),
                Role::Protected,
            )
            .boolean_with_role("y", vec![value; n], Role::Label)
            .build()
            .unwrap();
        let findings = SubgroupAuditor {
            max_depth: 1,
            min_support: 1,
            alpha: 0.5,
        }
        .audit(&ds, &["g1"], &vec![value; n])
        .unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }
}

// ---------------------------------------------------------------------------
// Bitset-lattice equivalence suite: the fast engine must agree with the
// naive oracle below on arbitrary categorical data, at every depth and
// thread count.
// ---------------------------------------------------------------------------

/// The pre-bitset subgroup audit, kept as the reference **oracle**: it
/// filters `Vec<usize>` row lists per lattice node on one thread and
/// shares no code with the bitset engine beyond the coded column view
/// and the z-test. It returns the same findings as
/// [`SubgroupAuditor::audit`], orders of magnitude apart in cost.
fn audit_naive(
    auditor: &SubgroupAuditor,
    ds: &Dataset,
    columns: &[&str],
    decisions: &[bool],
) -> Result<Vec<SubgroupFinding>, String> {
    if decisions.len() != ds.n_rows() {
        return Err("decisions length must match dataset rows".to_owned());
    }
    if columns.is_empty() {
        return Err("subgroup audit requires at least one column".to_owned());
    }
    let mut views = Vec::new();
    for &name in columns {
        let col = ds.column(name).map_err(|e| e.to_string())?;
        let (levels, codes) = col
            .coded()
            .ok_or_else(|| format!("column `{name}` is numeric"))?;
        views.push((name, levels, codes));
    }
    let total_pos = decisions.iter().filter(|&&d| d).count();
    let n = decisions.len();
    let mut findings = Vec::new();
    // Depth-first enumeration over column index combinations (strictly
    // increasing to avoid duplicates), with membership row lists.
    type Frame = (usize, Vec<(usize, u32)>, Vec<usize>);
    let mut stack: Vec<Frame> = Vec::new();
    // seed: single-column conditions
    for (ci, (_, levels, codes)) in views.iter().enumerate() {
        for level in 0..levels.len() as u32 {
            let rows: Vec<usize> = (0..n).filter(|&i| codes[i] == level).collect();
            stack.push((ci, vec![(ci, level)], rows));
        }
    }
    while let Some((last_ci, conds, rows)) = stack.pop() {
        if rows.len() >= auditor.min_support && rows.len() < n {
            let pos = rows.iter().filter(|&&i| decisions[i]).count();
            let comp_n = n - rows.len();
            let comp_pos = total_pos - pos;
            let test = two_proportion_z(
                pos as u64,
                rows.len() as u64,
                comp_pos as u64,
                comp_n as u64,
            );
            if test.p_value < auditor.alpha {
                let rate = pos as f64 / rows.len() as f64;
                let complement_rate = comp_pos as f64 / comp_n as f64;
                findings.push(SubgroupFinding {
                    conditions: conds
                        .iter()
                        .map(|&(ci, lv)| {
                            let (name, levels, _) = &views[ci];
                            ((*name).to_owned(), levels[lv as usize].clone())
                        })
                        .collect(),
                    size: rows.len(),
                    rate,
                    complement_rate,
                    gap: rate - complement_rate,
                    p_value: test.p_value,
                });
            }
        }
        // Extend with deeper conjunctions.
        if conds.len() < auditor.max_depth && rows.len() >= auditor.min_support {
            for (ci, (_, levels, codes)) in views.iter().enumerate().skip(last_ci + 1) {
                for level in 0..levels.len() as u32 {
                    let sub: Vec<usize> = rows
                        .iter()
                        .copied()
                        .filter(|&i| codes[i] == level)
                        .collect();
                    if sub.len() >= auditor.min_support {
                        let mut c = conds.clone();
                        c.push((ci, level));
                        stack.push((ci, c, sub));
                    }
                }
            }
        }
    }
    // |gap| descending, NaN gaps last: the auditor's documented order.
    let key = |f: &SubgroupFinding| {
        let magnitude = f.gap.abs();
        if magnitude.is_nan() {
            f64::NEG_INFINITY
        } else {
            magnitude
        }
    };
    findings.sort_by(|a, b| key(b).total_cmp(&key(a)));
    Ok(findings)
}

/// A random wide dataset: 2–4 categorical columns with 2–4 levels each,
/// 40–400 rows, arbitrary decisions. Returns the dataset, its audit
/// column names and the decision vector.
fn wide_audit_data<R: Rng>(rng: &mut R) -> (Dataset, Vec<String>, Vec<bool>) {
    let n = rng.gen_range(40..400usize);
    let n_cols = rng.gen_range(2..5usize);
    let mut builder = Dataset::builder();
    let mut names = Vec::new();
    for c in 0..n_cols {
        let n_levels = rng.gen_range(2..5usize);
        let levels: Vec<String> = (0..n_levels).map(|l| format!("l{l}")).collect();
        let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n_levels) as u32).collect();
        let name = format!("c{c}");
        builder = builder.categorical_with_role(&name, levels, codes, Role::Protected);
        names.push(name);
    }
    let decisions: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
    let ds = builder
        .boolean_with_role("y", decisions.clone(), Role::Label)
        .build()
        .unwrap();
    (ds, names, decisions)
}

fn sorted_by_conditions(mut findings: Vec<SubgroupFinding>) -> Vec<SubgroupFinding> {
    findings.sort_by(|a, b| a.conditions.cmp(&b.conditions));
    findings
}

/// The bitset engine returns exactly the naive oracle's findings — same
/// subgroups, bitwise-identical rates/gaps/p-values — on random data at
/// depths 1–3 and 1/2/8 threads.
#[test]
fn bitset_engine_is_equivalent_to_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xB17_5E7);
    for case in 0..CASES {
        let (ds, names, decisions) = wide_audit_data(&mut rng);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        for max_depth in 1..=3usize {
            let auditor = SubgroupAuditor {
                max_depth,
                min_support: rng.gen_range(1..8usize),
                alpha: if rng.gen_bool(0.5) { 1.0 } else { 0.2 },
            };
            let naive =
                sorted_by_conditions(audit_naive(&auditor, &ds, &columns, &decisions).unwrap());
            for threads in [1usize, 2, 8] {
                let fast = sorted_by_conditions(
                    auditor
                        .audit_observed(&ds, &columns, &decisions, threads, &Telemetry::off())
                        .unwrap(),
                );
                assert_eq!(
                    fast, naive,
                    "case {case}: depth {max_depth}, {threads} threads"
                );
            }
        }
    }
}

/// The same agreement on the planted-gerrymandering dataset, with every
/// lattice node kept.
#[test]
fn bitset_audit_matches_naive_oracle_on_gerrymandered_data() {
    let mut rng = StdRng::seed_from_u64(61);
    let ds = intersectional::generate(
        &IntersectionalConfig {
            n: 8000,
            ..IntersectionalConfig::default()
        },
        &mut rng,
    );
    let decisions = ds.labels().unwrap().to_vec();
    let auditor = SubgroupAuditor {
        max_depth: 2,
        min_support: 20,
        alpha: 1.0, // keep everything: exercise every lattice node
    };
    let fast = auditor.audit(&ds, &["gender", "race"], &decisions).unwrap();
    let naive = audit_naive(&auditor, &ds, &["gender", "race"], &decisions).unwrap();
    assert_eq!(sorted_by_conditions(fast), sorted_by_conditions(naive));
}

/// Thread count must not perturb even the *order* of the returned
/// findings: serial and parallel runs are byte-for-byte identical.
#[test]
fn parallel_findings_identical_to_serial_in_order() {
    let mut rng = StdRng::seed_from_u64(0xB17_0DD);
    for _ in 0..CASES {
        let (ds, names, decisions) = wide_audit_data(&mut rng);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        let auditor = SubgroupAuditor {
            max_depth: 3,
            min_support: 2,
            alpha: 1.0,
        };
        let serial = auditor
            .audit_observed(&ds, &columns, &decisions, 1, &Telemetry::off())
            .unwrap();
        for threads in [2usize, 8] {
            let parallel = auditor
                .audit_observed(&ds, &columns, &decisions, threads, &Telemetry::off())
                .unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }
}

/// Independent recount of the lattice walk: visit a node, count it; if
/// it is under support, count the prune and stop; otherwise extend with
/// every level of every later column while depth remains. Mirrors the
/// engine's accounting without sharing any of its code.
fn expected_node_budget(
    ds: &Dataset,
    columns: &[&str],
    max_depth: usize,
    min_support: usize,
) -> (u64, u64) {
    let n = ds.n_rows();
    let views: Vec<(Vec<u32>, usize)> = columns
        .iter()
        .map(|&name| match ds.column(name).unwrap() {
            fairbridge_tabular::Column::Categorical { levels, codes } => {
                (codes.clone(), levels.len())
            }
            _ => panic!("categorical only"),
        })
        .collect();
    let mut visited = 0u64;
    let mut pruned = 0u64;
    #[allow(clippy::too_many_arguments)]
    fn walk(
        views: &[(Vec<u32>, usize)],
        rows: &[usize],
        last_ci: usize,
        depth: usize,
        max_depth: usize,
        min_support: usize,
        visited: &mut u64,
        pruned: &mut u64,
    ) {
        *visited += 1;
        if rows.len() < min_support {
            *pruned += 1;
            return;
        }
        if depth >= max_depth {
            return;
        }
        for (ci, (codes, n_levels)) in views.iter().enumerate().skip(last_ci + 1) {
            for level in 0..*n_levels as u32 {
                let sub: Vec<usize> = rows
                    .iter()
                    .copied()
                    .filter(|&r| codes[r] == level)
                    .collect();
                walk(
                    views,
                    &sub,
                    ci,
                    depth + 1,
                    max_depth,
                    min_support,
                    visited,
                    pruned,
                );
            }
        }
    }
    let all_rows: Vec<usize> = (0..n).collect();
    for (ci, (codes, n_levels)) in views.iter().enumerate() {
        for level in 0..*n_levels as u32 {
            let seed: Vec<usize> = all_rows
                .iter()
                .copied()
                .filter(|&r| codes[r] == level)
                .collect();
            walk(
                &views,
                &seed,
                ci,
                1,
                max_depth,
                min_support,
                &mut visited,
                &mut pruned,
            );
        }
    }
    (visited, pruned)
}

/// The obs counters published by an observed audit match an
/// independently computed node budget for the same lattice.
#[test]
fn pruning_counters_match_independent_node_budget() {
    let mut rng = StdRng::seed_from_u64(0xB17_C07);
    for _ in 0..8 {
        let (ds, names, decisions) = wide_audit_data(&mut rng);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        let auditor = SubgroupAuditor {
            max_depth: 3,
            min_support: rng.gen_range(2..20usize),
            alpha: 0.2,
        };
        let (expected_visited, expected_pruned) =
            expected_node_budget(&ds, &columns, auditor.max_depth, auditor.min_support);

        let sink = std::sync::Arc::new(fairbridge_obs::RingSink::with_capacity(1 << 14));
        let telemetry = Telemetry::new(sink);
        let findings = auditor
            .audit_observed(&ds, &columns, &decisions, 4, &telemetry)
            .unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            telemetry.counter_values().into_iter().collect();
        assert_eq!(counters["subgroup.nodes_visited"], expected_visited);
        assert_eq!(counters["subgroup.nodes_pruned"], expected_pruned);
        assert_eq!(counters["subgroup.findings"], findings.len() as u64);
        assert!(expected_visited >= expected_pruned);
    }
}

// ---------------------------------------------------------------------------
// Count-table coverage: shapes the random suites above do not draw —
// levels no row has, a dictionary that repeats a level name, boolean
// columns, support 1, many levels, and both sides of the bound between
// the dense table (level-count product ≤ rows) and one cell per row.
// ---------------------------------------------------------------------------

/// Findings as a multiset, in the order of their debug rendering: two
/// findings whose conditions read alike (a repeated level name) are
/// told apart by their counts.
fn as_multiset(findings: Vec<SubgroupFinding>) -> Vec<String> {
    let mut rendered: Vec<String> = findings.iter().map(|f| format!("{f:?}")).collect();
    rendered.sort();
    rendered
}

fn assert_agrees_with_oracle(
    auditor: &SubgroupAuditor,
    ds: &Dataset,
    columns: &[&str],
    decisions: &[bool],
    what: &str,
) {
    let fast = auditor.audit(ds, columns, decisions).unwrap();
    let naive = audit_naive(auditor, ds, columns, decisions).unwrap();
    assert_eq!(as_multiset(fast), as_multiset(naive), "{what}");
}

/// `n` rows over categorical columns `c0, c1, …` with the given
/// dictionaries; column `c`'s codes are drawn from `used[c]` only.
fn dictionary_data<R: Rng>(
    rng: &mut R,
    n: usize,
    dictionaries: &[Vec<String>],
    used: &[Vec<u32>],
) -> (Dataset, Vec<String>, Vec<bool>) {
    let mut builder = Dataset::builder();
    let mut names = Vec::new();
    for (c, (levels, used)) in dictionaries.iter().zip(used).enumerate() {
        let codes: Vec<u32> = (0..n).map(|_| used[rng.gen_range(0..used.len())]).collect();
        let name = format!("c{c}");
        builder = builder.categorical_with_role(&name, levels.clone(), codes, Role::Protected);
        names.push(name);
    }
    let decisions: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
    (builder.build().unwrap(), names, decisions)
}

fn level_names(n_levels: usize) -> Vec<String> {
    (0..n_levels).map(|l| format!("l{l}")).collect()
}

#[test]
fn oracle_agrees_on_levels_no_row_has() {
    let mut rng = StdRng::seed_from_u64(0xC0_0001);
    for case in 0..CASES {
        let n_cols = rng.gen_range(2..4usize);
        let dictionaries: Vec<Vec<String>> = (0..n_cols)
            .map(|_| level_names(rng.gen_range(3..6usize)))
            .collect();
        // Every column skips its level 1 and its last level.
        let used: Vec<Vec<u32>> = dictionaries
            .iter()
            .map(|d| (0..d.len() as u32 - 1).filter(|&l| l != 1).collect())
            .collect();
        let n = rng.gen_range(20..200usize);
        let (ds, names, decisions) = dictionary_data(&mut rng, n, &dictionaries, &used);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        for max_depth in 1..=3 {
            let auditor = SubgroupAuditor {
                max_depth,
                min_support: rng.gen_range(1..6usize),
                alpha: 1.0,
            };
            assert_agrees_with_oracle(
                &auditor,
                &ds,
                &columns,
                &decisions,
                &format!("case {case}, depth {max_depth}"),
            );
        }
    }
}

#[test]
fn oracle_agrees_on_a_repeated_level_name() {
    let mut rng = StdRng::seed_from_u64(0xC0_0002);
    let names = |ls: &[&str]| ls.iter().map(|&l| l.to_owned()).collect::<Vec<_>>();
    let dictionaries = [names(&["a", "b", "a"]), names(&["x", "x"])];
    let used = [vec![0, 1, 2], vec![0, 1]];
    for case in 0..CASES {
        let n = rng.gen_range(20..200usize);
        let (ds, names, decisions) = dictionary_data(&mut rng, n, &dictionaries, &used);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        let auditor = SubgroupAuditor {
            max_depth: 2,
            min_support: rng.gen_range(1..6usize),
            alpha: 1.0,
        };
        let findings = auditor.audit(&ds, &columns, &decisions).unwrap();
        // Both codes named `a` are their own subgroups.
        let named_a = findings.iter().filter(|f| f.describe() == "c0=a").count();
        assert_eq!(named_a, 2, "case {case}: {findings:?}");
        assert_agrees_with_oracle(&auditor, &ds, &columns, &decisions, &format!("case {case}"));
    }
}

#[test]
fn oracle_agrees_on_a_boolean_column() {
    let mut rng = StdRng::seed_from_u64(0xC0_0003);
    for case in 0..CASES {
        let n = rng.gen_range(20..200usize);
        let flag: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let group: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3usize) as u32).collect();
        let decisions: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let ds = Dataset::builder()
            .boolean_with_role("flag", flag, Role::Protected)
            .categorical_with_role("g", vec!["a", "b", "c"], group, Role::Protected)
            .build()
            .unwrap();
        for columns in [&["flag", "g"][..], &["g", "flag"], &["flag"]] {
            let auditor = SubgroupAuditor {
                max_depth: 2,
                min_support: rng.gen_range(1..6usize),
                alpha: 1.0,
            };
            assert_agrees_with_oracle(
                &auditor,
                &ds,
                columns,
                &decisions,
                &format!("case {case}, {columns:?}"),
            );
        }
    }
}

#[test]
fn oracle_agrees_at_support_one() {
    let mut rng = StdRng::seed_from_u64(0xC0_0004);
    for case in 0..CASES {
        let (ds, names, decisions) = wide_audit_data(&mut rng);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        for max_depth in 1..=3 {
            for alpha in [1.0, 0.2] {
                let auditor = SubgroupAuditor {
                    max_depth,
                    min_support: 1,
                    alpha,
                };
                assert_agrees_with_oracle(
                    &auditor,
                    &ds,
                    &columns,
                    &decisions,
                    &format!("case {case}, depth {max_depth}, alpha {alpha}"),
                );
            }
        }
    }
}

#[test]
fn oracle_agrees_on_a_1000_level_column() {
    let mut rng = StdRng::seed_from_u64(0xC0_0005);
    let dictionaries = [level_names(3), level_names(1000)];
    let used = [vec![0, 1, 2], (0..1000).collect::<Vec<u32>>()];
    // 2 000 rows sit under the 3 000-cell product, 4 000 over it.
    for n in [2000, 4000] {
        let (ds, names, decisions) = dictionary_data(&mut rng, n, &dictionaries, &used);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        for min_support in [1, 4] {
            let auditor = SubgroupAuditor {
                max_depth: 2,
                min_support,
                alpha: 1.0,
            };
            assert_agrees_with_oracle(
                &auditor,
                &ds,
                &columns,
                &decisions,
                &format!("{n} rows, support {min_support}"),
            );
        }
    }
}

/// Seeded cases around the bound between the dense table and one cell
/// per row: findings equal the oracle's and the node counters equal the
/// independent budget on both sides, and both sides are drawn.
#[test]
fn oracle_and_node_budget_agree_on_both_sides_of_the_dense_bound() {
    let mut rng = StdRng::seed_from_u64(0xC0_0006);
    let (mut dense, mut per_row) = (0, 0);
    for case in 0..64 {
        let n = rng.gen_range(4..64usize);
        let n_cols = rng.gen_range(1..4usize);
        let dictionaries: Vec<Vec<String>> = (0..n_cols)
            .map(|_| level_names(rng.gen_range(1..9usize)))
            .collect();
        let used: Vec<Vec<u32>> = dictionaries
            .iter()
            .map(|d| (0..d.len() as u32).collect())
            .collect();
        let (ds, names, decisions) = dictionary_data(&mut rng, n, &dictionaries, &used);
        let columns: Vec<&str> = names.iter().map(String::as_str).collect();
        let product: usize = dictionaries.iter().map(Vec::len).product();
        if product <= n {
            dense += 1;
        } else {
            per_row += 1;
        }
        let auditor = SubgroupAuditor {
            max_depth: rng.gen_range(1..4usize),
            min_support: rng.gen_range(1..5usize),
            alpha: if rng.gen_bool(0.5) { 1.0 } else { 0.3 },
        };
        let what = format!("case {case}: {n} rows, {product} cells");
        assert_agrees_with_oracle(&auditor, &ds, &columns, &decisions, &what);

        let (visited, pruned) =
            expected_node_budget(&ds, &columns, auditor.max_depth, auditor.min_support);
        let sink = std::sync::Arc::new(fairbridge_obs::RingSink::with_capacity(1 << 10));
        let telemetry = Telemetry::new(sink);
        auditor
            .audit_observed(&ds, &columns, &decisions, 0, &telemetry)
            .unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            telemetry.counter_values().into_iter().collect();
        assert_eq!(counters["subgroup.nodes_visited"], visited, "{what}");
        assert_eq!(counters["subgroup.nodes_pruned"], pruned, "{what}");
    }
    assert!(dense > 0 && per_row > 0, "{dense} dense, {per_row} per-row");
}
