//! Randomized property tests for the dataset substrate, driven by the
//! workspace's deterministic PRNG (no proptest: the build is offline).

use fairbridge_stats::rng::{Rng, StdRng};
use fairbridge_tabular::{io, Column, Dataset, GroupIndex, GroupKey, Role};
use std::collections::BTreeMap;

/// A small random dataset with one categorical (protected), one numeric,
/// one boolean label column.
fn random_dataset<R: Rng>(rng: &mut R) -> Dataset {
    let n = rng.gen_range(1..60usize);
    let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3usize) as u32).collect();
    let nums: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    Dataset::builder()
        .categorical_with_role("group", vec!["a", "b", "c"], codes, Role::Protected)
        .numeric("x", nums)
        .boolean_with_role("y", labels, Role::Label)
        .build()
        .expect("valid dataset")
}

const CASES: usize = 48;

/// `select` preserves per-row content at the selected indices.
#[test]
fn select_preserves_rows() {
    let mut rng = StdRng::seed_from_u64(0xD5_01);
    for case in 0..CASES {
        let ds = random_dataset(&mut rng);
        let n = ds.n_rows();
        let indices: Vec<usize> = (0..n).map(|i| (i * 7 + case) % n).collect();
        let sub = ds.select(&indices).unwrap();
        assert_eq!(sub.n_rows(), indices.len());
        for (new_row, &old_row) in indices.iter().enumerate() {
            assert_eq!(sub.row(new_row).unwrap(), ds.row(old_row).unwrap());
        }
    }
}

/// `filter(all-true)` is the identity; `filter(all-false)` is empty.
#[test]
fn filter_extremes() {
    let mut rng = StdRng::seed_from_u64(0xD5_02);
    for _ in 0..CASES {
        let ds = random_dataset(&mut rng);
        let all = ds.filter(&vec![true; ds.n_rows()]).unwrap();
        assert_eq!(all.n_rows(), ds.n_rows());
        assert_eq!(all.labels().unwrap(), ds.labels().unwrap());
        let none = ds.filter(&vec![false; ds.n_rows()]).unwrap();
        assert_eq!(none.n_rows(), 0);
    }
}

/// A random grouping dataset: 1–4 grouping columns mixing categorical
/// and boolean, over dictionaries that repeat level names, leave levels
/// unused and order names unlike their codes. Case 0 mod 8 has zero rows
/// and case 1 mod 8 has a single group. Returns the grouping columns.
fn grouping_dataset<R: Rng>(rng: &mut R, case: usize) -> (Dataset, Vec<String>) {
    const NAMES: [&str; 6] = ["b", "a", "c", "a", "B", "ab"];
    let n = match case % 8 {
        0 => 0,
        _ => rng.gen_range(1..60usize),
    };
    let single = case % 8 == 1;
    let mut builder = Dataset::builder();
    let mut columns = Vec::new();
    for c in 0..rng.gen_range(1..5usize) {
        let name = format!("g{c}");
        if rng.gen_bool(0.3) {
            let value = rng.gen_bool(0.5);
            let values = (0..n)
                .map(|_| if single { value } else { rng.gen_bool(0.5) })
                .collect();
            builder = builder.boolean_with_role(&name, values, Role::Protected);
        } else {
            let levels: Vec<&str> = (0..rng.gen_range(1..7usize))
                .map(|_| NAMES[rng.gen_range(0..NAMES.len())])
                .collect();
            // Draw codes from a prefix of the dictionary: the rest of
            // the levels stay unused.
            let used = if single {
                1
            } else {
                rng.gen_range(1..levels.len() + 1)
            };
            let codes = (0..n).map(|_| rng.gen_range(0..used) as u32).collect();
            builder = builder.categorical_with_role(&name, levels, codes, Role::Protected);
        }
        columns.push(name);
    }
    (builder.build().expect("valid dataset"), columns)
}

/// The original two-map build: bucket rows by their code tuple, then
/// re-key by level names, merging (and re-sorting) groups whose codes
/// share names.
fn oracle_groups(ds: &Dataset, columns: &[String]) -> BTreeMap<GroupKey, Vec<usize>> {
    let views: Vec<(Vec<String>, Vec<u32>)> = columns
        .iter()
        .map(|name| match ds.column(name).unwrap() {
            Column::Categorical { levels, codes } => (levels.clone(), codes.clone()),
            Column::Boolean(v) => (
                vec!["false".to_owned(), "true".to_owned()],
                v.iter().map(|&b| u32::from(b)).collect(),
            ),
            Column::Numeric(_) => unreachable!("grouping columns are never numeric"),
        })
        .collect();
    let mut code_groups: BTreeMap<Vec<u32>, Vec<usize>> = BTreeMap::new();
    for row in 0..ds.n_rows() {
        let key = views.iter().map(|(_, codes)| codes[row]).collect();
        code_groups.entry(key).or_default().push(row);
    }
    let mut groups: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
    for (codes, rows) in code_groups {
        let key = GroupKey(
            codes
                .iter()
                .zip(&views)
                .map(|(&c, (levels, _))| levels[c as usize].clone())
                .collect(),
        );
        let merged = groups.entry(key).or_default();
        merged.extend(rows);
        merged.sort_unstable();
    }
    groups
}

/// Group sizes partition the rows exactly, and the index agrees with the
/// original two-map build on keys, row lists, sizes and `group_of`.
#[test]
fn groups_partition_rows() {
    let mut rng = StdRng::seed_from_u64(0xD5_03);
    for case in 0..CASES {
        let (ds, columns) = grouping_dataset(&mut rng, case);
        let names: Vec<&str> = columns.iter().map(String::as_str).collect();
        let gi = GroupIndex::build(&ds, &names).unwrap();
        let total: usize = gi.sizes().iter().sum();
        assert_eq!(total, ds.n_rows());
        if ds.n_rows() > 0 {
            let prop_sum: f64 = gi.proportions().iter().sum();
            assert!((prop_sum - 1.0).abs() < 1e-9);
        }
        if case % 8 == 1 {
            assert_eq!(gi.n_groups(), 1, "case {case}");
        }
        // every row appears exactly once
        let mut seen = vec![false; ds.n_rows()];
        for (_, rows) in gi.iter() {
            for &r in rows {
                assert!(!seen[r], "row {r} appears twice");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));

        let oracle = oracle_groups(&ds, &columns);
        let expected_keys: Vec<&GroupKey> = oracle.keys().collect();
        assert_eq!(
            gi.keys().iter().collect::<Vec<_>>(),
            expected_keys,
            "case {case}"
        );
        let expected_sizes: Vec<usize> = oracle.values().map(Vec::len).collect();
        assert_eq!(gi.sizes(), expected_sizes, "case {case}");
        for (g, (key, rows)) in oracle.iter().enumerate() {
            assert_eq!(gi.rows(key), Some(rows.as_slice()), "case {case}, {key}");
            for &r in rows {
                assert_eq!(gi.group_of(r), g, "case {case}, row {r}");
            }
        }
    }
}

/// concat(a, b) has a's rows then b's rows.
#[test]
fn concat_appends() {
    let mut rng = StdRng::seed_from_u64(0xD5_04);
    for _ in 0..CASES {
        let a = random_dataset(&mut rng);
        let b = random_dataset(&mut rng);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.n_rows(), a.n_rows() + b.n_rows());
        for i in 0..a.n_rows() {
            assert_eq!(c.row(i).unwrap(), a.row(i).unwrap());
        }
        for j in 0..b.n_rows() {
            assert_eq!(c.row(a.n_rows() + j).unwrap(), b.row(j).unwrap());
        }
    }
}

/// CSV write→read is lossless for label and group columns (floats can
/// change representation; we compare their parsed values).
#[test]
fn csv_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xD5_05);
    for _ in 0..CASES {
        let ds = random_dataset(&mut rng);
        let text = io::write_csv_string(&ds).unwrap();
        let back = io::read_csv_str(&text).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        assert_eq!(back.boolean("y").unwrap(), ds.labels().unwrap());
        // group round-trips through level names
        let (levels_a, codes_a) = ds.categorical("group").unwrap();
        let (levels_b, codes_b) = back.categorical("group").unwrap();
        for (ca, cb) in codes_a.iter().zip(codes_b) {
            assert_eq!(&levels_a[*ca as usize], &levels_b[*cb as usize]);
        }
        // numeric values survive via Display/parse
        let xa = ds.numeric("x").unwrap();
        let xb = back.numeric("x").unwrap();
        for (a, b) in xa.iter().zip(xb) {
            assert!((a - b).abs() <= a.abs() * 1e-12 + 1e-12);
        }
    }
}

/// Adding then dropping a column returns to the original schema size.
#[test]
fn add_drop_inverse() {
    let mut rng = StdRng::seed_from_u64(0xD5_06);
    for _ in 0..CASES {
        let ds = random_dataset(&mut rng);
        let with = ds
            .with_column(
                "extra",
                Column::Numeric(vec![0.5; ds.n_rows()]),
                Role::Feature,
            )
            .unwrap();
        assert_eq!(with.n_cols(), ds.n_cols() + 1);
        let back = with.drop_column("extra").unwrap();
        assert_eq!(back.n_cols(), ds.n_cols());
        assert_eq!(back.labels().unwrap(), ds.labels().unwrap());
    }
}

/// Column::take then to_f64 commutes with to_f64 then manual gather.
#[test]
fn take_commutes_with_to_f64() {
    let mut rng = StdRng::seed_from_u64(0xD5_07);
    for seed in 0..CASES {
        let len = rng.gen_range(1..40usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let col = Column::Numeric(values.clone());
        let idx: Vec<usize> = (0..values.len())
            .map(|i| (i + seed) % values.len())
            .collect();
        let a = col.take(&idx).to_f64();
        let b: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
        assert_eq!(a, b);
    }
}
