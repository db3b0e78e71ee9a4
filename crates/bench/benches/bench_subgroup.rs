//! Bench for experiment E10: subgroup auditing — exhaustive
//! enumeration vs the learned tree auditor, and the exponential cost of
//! depth (the paper's IV.C "computational issues ... complexity increases
//! exponentially"). The `subgroup_lattice` group measures the lattice
//! over a many-level column.

use fairbridge::audit::subgroup::{tree_audit, SubgroupAuditor};
use fairbridge::prelude::*;
use fairbridge::stats::descriptive::bin_codes;
use fairbridge::tabular::Column;
use fairbridge_bench::harness::{BenchmarkId, Criterion};
use fairbridge_bench::{criterion_group, criterion_main};
use fairbridge_stats::rng::StdRng;
use std::hint::black_box;

/// Gerrymandered data plus extra binned categorical columns so deeper
/// audits have something to enumerate over.
fn setup(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(4);
    let ds = fairbridge::synth::intersectional::generate(
        &IntersectionalConfig {
            n,
            ..IntersectionalConfig::default()
        },
        &mut rng,
    );
    let score_bins = bin_codes(ds.numeric("score").unwrap(), 3);
    let tenure_bins = bin_codes(ds.numeric("tenure").unwrap(), 3);
    ds.with_column(
        "score_bin",
        Column::categorical_from_codes(
            vec!["lo".into(), "mid".into(), "hi".into()],
            score_bins,
            "score_bin",
        )
        .unwrap(),
        Role::Feature,
    )
    .unwrap()
    .with_column(
        "tenure_bin",
        Column::categorical_from_codes(
            vec!["lo".into(), "mid".into(), "hi".into()],
            tenure_bins,
            "tenure_bin",
        )
        .unwrap(),
        Role::Feature,
    )
    .unwrap()
}

fn bench_subgroup(c: &mut Criterion) {
    let mut group = c.benchmark_group("subgroup_e10");
    let ds = setup(10_000);
    let decisions = ds.labels().unwrap().to_vec();
    let cols = ["gender", "race", "score_bin", "tenure_bin"];
    for depth in [1usize, 2, 3, 4] {
        group.bench_with_input(
            BenchmarkId::new("exhaustive_depth", depth),
            &depth,
            |b, &d| {
                let auditor = SubgroupAuditor {
                    max_depth: d,
                    min_support: 20,
                    alpha: 0.05,
                };
                b.iter(|| black_box(auditor.audit(&ds, &cols, &decisions).unwrap()))
            },
        );
    }
    group.bench_function("tree_auditor_depth4", |b| {
        b.iter(|| black_box(tree_audit(&ds, &cols, &decisions, 4, 20).unwrap()))
    });
    group.finish();
}

/// The lattice over a 1000-level column: the node count grows with the
/// level count (every level of a later column is a child). The four
/// columns' 12 000 code tuples outnumber the 10 000 rows, so this row
/// measures the one-cell-per-row table; the `subgroup_e10` rows measure
/// the dense one.
fn bench_lattice(c: &mut Criterion) {
    let mut group = c.benchmark_group("subgroup_lattice");
    let ds = setup(10_000);
    let n_levels = 1000usize;
    let bucket: Vec<u32> = (0..ds.n_rows())
        .map(|i| (i.wrapping_mul(7919) % n_levels) as u32)
        .collect();
    let ds = ds
        .with_column(
            "bucket",
            Column::categorical_from_codes(
                (0..n_levels).map(|l| format!("b{l}")).collect(),
                bucket,
                "bucket",
            )
            .unwrap(),
            Role::Feature,
        )
        .unwrap();
    let decisions = ds.labels().unwrap().to_vec();
    let cols = ["gender", "race", "score_bin", "bucket"];
    let auditor = SubgroupAuditor {
        max_depth: 2,
        min_support: 20,
        alpha: 0.05,
    };
    group.bench_with_input(BenchmarkId::new("levels", n_levels), &n_levels, |b, _| {
        b.iter(|| black_box(auditor.audit(&ds, &cols, &decisions).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_subgroup, bench_lattice);
criterion_main!(benches);
