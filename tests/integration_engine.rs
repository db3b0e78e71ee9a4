//! Integration: the sharded execution engine against the sequential audit
//! pipeline, mergeable-accumulator algebra, and the streaming monitor
//! wired to the Section IV.D feedback-loop simulation.

use fairbridge::audit::feedback::{run_feedback_loop_observed, FeedbackConfig};
use fairbridge::engine::{
    AuditSpec, Engine, EngineConfig, GroupAccumulator, MonitorConfig, StreamingMonitor,
};
use fairbridge::prelude::*;
use fairbridge::stats::rng::StdRng;
use fairbridge::synth::hiring::{self, HiringConfig};
use fairbridge::synth::intersectional::{self, IntersectionalConfig};

/// Every shared piece of two audit reports must agree — and the metric
/// numbers must agree *bitwise*, not just within tolerance.
fn assert_reports_identical(seq: &AuditReport, par: &AuditReport, context: &str) {
    // Debug rendering compares NaN fields (NaN != NaN under PartialEq);
    // a zero-row audit has NaN gaps.
    assert_eq!(
        format!("{:?}", seq.metrics),
        format!("{:?}", par.metrics),
        "{context}: metrics differ"
    );
    for (a, b) in seq.metrics.lines.iter().zip(&par.metrics.lines) {
        assert_eq!(
            a.gap.to_bits(),
            b.gap.to_bits(),
            "{context}: gap bits differ for {:?}",
            a.definition
        );
    }
    assert_eq!(
        seq.metrics.impact_ratio.to_bits(),
        par.metrics.impact_ratio.to_bits(),
        "{context}: impact ratio bits differ"
    );
    assert_eq!(
        format!("{:?}", seq.proxies),
        format!("{:?}", par.proxies),
        "{context}: proxies differ"
    );
    assert_eq!(
        seq.flagged_proxies, par.flagged_proxies,
        "{context}: flags differ"
    );
    assert_eq!(seq.subgroups, par.subgroups, "{context}: subgroups differ");
    assert_eq!(
        seq.to_string(),
        par.to_string(),
        "{context}: rendered reports differ"
    );
}

#[test]
fn parallel_audit_matches_sequential_on_hiring() {
    let mut rng = StdRng::seed_from_u64(0xE1_01);
    let data = hiring::generate(
        &HiringConfig {
            n: 6000,
            ..HiringConfig::biased()
        },
        &mut rng,
    );
    let config = AuditConfig {
        population_marginals: Some(vec![0.5, 0.5]),
        ..AuditConfig::default()
    };
    let sequential = AuditPipeline::new(config.clone())
        .run(&data.dataset, &["sex"], true)
        .unwrap();
    let spec = AuditSpec {
        config,
        ..AuditSpec::new(&["sex"], true)
    };
    for threads in [1, 2, 8] {
        let engine = Engine::new(EngineConfig {
            num_threads: threads,
            shard_size: 512, // forces 12 shards on 6000 rows
        });
        let parallel = engine.audit(&data.dataset, &spec).unwrap();
        assert_reports_identical(&sequential, &parallel, &format!("hiring/{threads}t"));
    }
}

#[test]
fn parallel_audit_matches_sequential_on_intersectional() {
    let mut rng = StdRng::seed_from_u64(0xE1_02);
    let ds = intersectional::generate(
        &IntersectionalConfig {
            n: 8000,
            ..IntersectionalConfig::default()
        },
        &mut rng,
    );
    let sequential = AuditPipeline::new(AuditConfig::default())
        .run(&ds, &["gender", "race"], true)
        .unwrap();
    let spec = AuditSpec::new(&["gender", "race"], true);
    for threads in [1, 2, 8] {
        let engine = Engine::new(EngineConfig {
            num_threads: threads,
            shard_size: 1024,
        });
        let parallel = engine.audit(&ds, &spec).unwrap();
        assert_reports_identical(
            &sequential,
            &parallel,
            &format!("intersectional/{threads}t"),
        );
    }
}

#[test]
fn parallel_audit_matches_sequential_with_labels_and_predictions() {
    // Auditing a prediction column with ground truth attached exercises
    // the full six-definition metric path through the accumulator.
    let mut rng = StdRng::seed_from_u64(0xE1_03);
    let data = hiring::generate(
        &HiringConfig {
            n: 5000,
            ..HiringConfig::biased()
        },
        &mut rng,
    );
    let decisions: Vec<bool> = (0..data.dataset.n_rows())
        .map(|i| (i * 13 + 5) % 7 < 3)
        .collect();
    let ds = data
        .dataset
        .with_predictions("decision", decisions)
        .unwrap();
    // A zero-row dataset has no groups; the engine must still return
    // exactly what the pipeline returns.
    let empty = ds.select(&[]).unwrap();
    for (ds, name) in [(&ds, "predictions"), (&empty, "predictions/0 rows")] {
        let sequential = AuditPipeline::new(AuditConfig::default())
            .run(ds, &["sex"], false)
            .unwrap();
        assert_eq!(sequential.metrics.lines.len(), 6, "labels must be in play");
        let spec = AuditSpec::new(&["sex"], false);
        for threads in [1, 2, 8] {
            let engine = Engine::new(EngineConfig {
                num_threads: threads,
                shard_size: 333, // uneven final shard
            });
            let parallel = engine.audit(ds, &spec).unwrap();
            assert_reports_identical(&sequential, &parallel, &format!("{name}/{threads}t"));
        }
    }
}

/// A small fixed event pool: (group index, prediction, label) over groups
/// {a, b}, mixing all confusion cells.
fn event_pool() -> Vec<(usize, bool, bool)> {
    vec![
        (0, true, true),
        (0, true, false),
        (0, false, true),
        (1, false, false),
        (1, true, true),
        (1, false, true),
    ]
}

fn acc_of(events: &[(usize, bool, bool)]) -> GroupAccumulator {
    let keys = vec![
        GroupKey(vec!["a".to_owned()]),
        GroupKey(vec!["b".to_owned()]),
    ];
    let mut acc = GroupAccumulator::with_keys(keys, true).unwrap();
    for &(g, p, y) in events {
        acc.observe(g, p, Some(y));
    }
    acc
}

#[test]
fn merge_is_associative_and_commutative_in_effect() {
    let events = event_pool();
    let whole = acc_of(&events);
    // Exhaustively assign each of the 6 events to one of 3 shards
    // (3^6 = 729 assignments) and check both association orders and the
    // reversed merge order against the single-pass accumulator.
    for assignment in 0..3usize.pow(6) {
        let mut shards: [Vec<(usize, bool, bool)>; 3] = Default::default();
        let mut a = assignment;
        for &e in &events {
            shards[a % 3].push(e);
            a /= 3;
        }
        let [sa, sb, sc] = shards;
        let (a, b, c) = (acc_of(&sa), acc_of(&sb), acc_of(&sc));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut right = a.clone();
        right.merge(&bc).unwrap();
        // c ⊕ b ⊕ a
        let mut rev = c.clone();
        rev.merge(&b).unwrap();
        rev.merge(&a).unwrap();

        assert_eq!(left, right, "associativity, assignment {assignment}");
        assert_eq!(
            left, rev,
            "commutativity in effect, assignment {assignment}"
        );
        assert_eq!(left, whole, "split/merge vs single pass, {assignment}");
    }
}

#[test]
fn streaming_monitor_detects_feedback_loop_drift() {
    // Monitor the raw decision stream of the paper's Section IV.D loop:
    // a biased seed model, retrained each generation on its own output.
    // Group code 0 = "male", 1 = "female" (the simulator's level order).
    let mut monitor = StreamingMonitor::over_levels(
        &["male", "female"],
        false,
        MonitorConfig {
            window_size: 400,
            retained_windows: 64, // retain the whole stream
            drift_threshold: 0.10,
            ..MonitorConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(71);
    let outcome = run_feedback_loop_observed(
        &FeedbackConfig::default(),
        &mut rng,
        |_, codes, decisions| {
            monitor.ingest_batch(codes, decisions, None).unwrap();
        },
    )
    .unwrap();

    // The loop itself sustains a disparity ...
    assert!(outcome.mean_gap() > 0.1, "loop gap {}", outcome.mean_gap());
    // ... and the monitor saw it live: several windows sealed, and the
    // parity gap breached the threshold in consecutive windows.
    assert!(
        monitor.windows_sealed() >= 8,
        "{} windows",
        monitor.windows_sealed()
    );
    let snap = monitor.snapshot();
    assert!(
        snap.drift,
        "drift flag not raised; gaps: {:?}",
        snap.windows
            .iter()
            .map(|w| w.parity_gap)
            .collect::<Vec<_>>()
    );
    assert!(snap.latest_gap().is_finite());
    // every sealed window carries a full windowed metric evaluation
    assert!(snap.windows.iter().all(|w| !w.report.lines.is_empty()));
}

#[test]
fn engine_is_exposed_through_the_prelude() {
    // AuditSpec/Engine/StreamingMonitor are prelude names (spot-check).
    let _ = EngineConfig::with_threads(2);
    let spec = AuditSpec::new(&["sex"], true);
    assert!(spec.use_labels);
    let _ = MonitorConfig::default();
}
