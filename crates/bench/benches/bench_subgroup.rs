//! Bench for experiment E10: subgroup auditing — exhaustive
//! enumeration vs the learned tree auditor, and the exponential cost of
//! depth (the paper's IV.C "computational issues ... complexity increases
//! exponentially"). The `subgroup_lattice` group measures the bitset
//! lattice engine, serial and parallel, at depths 2 and 3.

use fairbridge::audit::subgroup::{tree_audit, SubgroupAuditor};
use fairbridge::obs::Telemetry;
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

/// The bitset lattice engine, serial and parallel, on the same audit.
fn bench_lattice(c: &mut Criterion) {
    let mut group = c.benchmark_group("subgroup_lattice");
    let ds = setup(10_000);
    let decisions = ds.labels().unwrap().to_vec();
    let cols = ["gender", "race", "score_bin", "tenure_bin"];
    let telemetry = Telemetry::off();
    for depth in [2usize, 3] {
        let auditor = SubgroupAuditor {
            max_depth: depth,
            min_support: 20,
            alpha: 0.05,
        };
        group.bench_with_input(BenchmarkId::new("bitset_depth", depth), &depth, |b, _| {
            b.iter(|| {
                black_box(
                    auditor
                        .audit_observed(&ds, &cols, &decisions, 1, &telemetry)
                        .unwrap(),
                )
            })
        });
        group.bench_with_input(
            BenchmarkId::new("bitset_parallel_depth", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        auditor
                            .audit_observed(&ds, &cols, &decisions, 0, &telemetry)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The fused popcount primitive under the lattice engine at 10⁵ and
/// 10⁶ rows. One row per size: measurement showed the 4-word batched
/// body and the single-accumulator reference are at timing parity on
/// current hardware (the compiler already unrolls and the loop is
/// popcount-throughput-bound either way — see EXPERIMENTS.md), so the
/// unbatched arm no longer earns a baseline row.
fn bench_count_and(c: &mut Criterion) {
    use fairbridge::tabular::bitset::RowMask;
    let mut group = c.benchmark_group("subgroup_lattice");
    for n_bits in [100_000usize, 1_000_000] {
        let a = RowMask::from_indices(n_bits, (0..n_bits).filter(|i| i % 3 == 0));
        let b_mask = RowMask::from_indices(n_bits, (0..n_bits).filter(|i| i % 5 != 1));
        group.bench_with_input(BenchmarkId::new("count_and", n_bits), &n_bits, |b, _| {
            b.iter(|| black_box(a.count_and(&b_mask)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_subgroup, bench_lattice, bench_count_and);
criterion_main!(benches);
