//! Bench for experiments E1–E6: the Section III group metrics
//! over growing cohort sizes.

use fairbridge::learn::matrix::Matrix;
use fairbridge::metrics::conditional::conditional_parity_on_labels;
use fairbridge::metrics::disparity::demographic_disparity;
use fairbridge::metrics::individual::{consistency, lipschitz_violations};
use fairbridge::metrics::odds::equalized_odds;
use fairbridge::metrics::opportunity::equal_opportunity;
use fairbridge::prelude::*;
use fairbridge_bench::harness::{BenchmarkId, Criterion};
use fairbridge_bench::{criterion_group, criterion_main};
use std::hint::black_box;

/// The cohort as an outcome view, and as a dataset whose label column
/// holds the same decisions (audited as historical outcomes) next to a
/// 4-level stratum column.
fn cohort(n: usize) -> (Outcomes, Dataset) {
    let preds: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
    let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let codes: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
    let strata: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
    let stratified = Dataset::builder()
        .categorical_with_role(
            "sex",
            vec!["male", "female"],
            codes.clone(),
            Role::Protected,
        )
        .categorical_with_role(
            "stratum",
            vec!["s0", "s1", "s2", "s3"],
            strata,
            Role::Feature,
        )
        .boolean_with_role("decision", preds.clone(), Role::Label)
        .build()
        .unwrap();
    (
        Outcomes::from_slices(&preds, Some(&labels), &codes, &["male", "female"]).unwrap(),
        stratified,
    )
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("section3_metrics");
    for n in [1_000usize, 10_000, 100_000] {
        let (outcomes, stratified) = cohort(n);
        group.bench_with_input(BenchmarkId::new("demographic_parity_e1", n), &n, |b, _| {
            b.iter(|| black_box(demographic_parity(&outcomes, 0)))
        });
        group.bench_with_input(BenchmarkId::new("conditional_parity_e2", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    conditional_parity_on_labels(&stratified, &["sex"], &["stratum"], 0).unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("equal_opportunity_e3", n), &n, |b, _| {
            b.iter(|| black_box(equal_opportunity(&outcomes, 0).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("equalized_odds_e4", n), &n, |b, _| {
            b.iter(|| black_box(equalized_odds(&outcomes, 0).unwrap()))
        });
        group.bench_with_input(
            BenchmarkId::new("demographic_disparity_e5", n),
            &n,
            |b, _| b.iter(|| black_box(demographic_disparity(&outcomes))),
        );
        group.bench_with_input(BenchmarkId::new("four_fifths_rule", n), &n, |b, _| {
            b.iter(|| black_box(four_fifths(&outcomes, 0)))
        });
        group.bench_with_input(BenchmarkId::new("full_report", n), &n, |b, _| {
            b.iter(|| black_box(FairnessReport::evaluate(&outcomes, 0.05, 0)))
        });
    }
    group.finish();

    // Individual fairness is O(n^2); bench at small n.
    let mut ind = c.benchmark_group("individual_fairness_e17");
    for n in [100usize, 400] {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64 * 0.37).fract(), (i as f64 * 0.71).fract()])
            .collect();
        let x = Matrix::from_rows(&rows);
        let decisions: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let scores: Vec<f64> = (0..n).map(|i| ((i * 13) % 100) as f64 / 100.0).collect();
        ind.bench_with_input(BenchmarkId::new("knn_consistency", n), &n, |b, _| {
            b.iter(|| black_box(consistency(&x, &decisions, 5)))
        });
        ind.bench_with_input(BenchmarkId::new("lipschitz_audit", n), &n, |b, _| {
            b.iter(|| black_box(lipschitz_violations(&x, &scores, 1.0, 10)))
        });
    }
    ind.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
