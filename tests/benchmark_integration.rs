//! End-to-end benchmark integration: the full three-phase process over
//! the complete setup matrix, at test scale.

use streambench_core::{all_setups, BenchConfig, BenchmarkRunner, Measurement, Query};

fn runner() -> BenchmarkRunner {
    BenchmarkRunner::new(
        BenchConfig::quick()
            .records(400)
            .runs(2)
            .parallelisms(vec![1, 2]),
    )
}

fn setups_of(measurements: &[Measurement]) -> std::collections::HashSet<String> {
    measurements.iter().map(|m| m.setup.to_string()).collect()
}

#[test]
fn full_matrix_identity() {
    let measurements = runner().run_query(Query::Identity).unwrap();
    // 12 setups × 2 runs.
    assert_eq!(measurements.len(), 24);
    assert_eq!(setups_of(&measurements).len(), 12);
    for m in &measurements {
        assert_eq!(
            m.output_records, 400,
            "identity must forward everything: {m:?}"
        );
        assert!(m.execution_seconds >= 0.0);
    }
}

#[test]
fn full_matrix_projection_counts() {
    let measurements = runner().run_query(Query::Projection).unwrap();
    for m in &measurements {
        assert_eq!(
            m.output_records, 400,
            "projection keeps the record count: {m:?}"
        );
    }
}

#[test]
fn full_matrix_grep_counts() {
    let measurements = runner().run_query(Query::Grep).unwrap();
    let expected = streambench_core::data::expected_grep_hits(400);
    for m in &measurements {
        assert_eq!(m.output_records, expected, "{m:?}");
    }
}

#[test]
fn full_matrix_sample_agrees_everywhere() {
    let measurements = runner().run_query(Query::Sample).unwrap();
    let counts: std::collections::HashSet<u64> =
        measurements.iter().map(|m| m.output_records).collect();
    assert_eq!(
        counts.len(),
        1,
        "content-determined sampling must agree across engines"
    );
    let count = *counts.iter().next().unwrap();
    let rate = count as f64 / 400.0;
    assert!((0.30..=0.50).contains(&rate), "sample rate {rate}");
}

#[test]
fn setup_matrix_is_complete() {
    let setups = all_setups(&[1, 2]);
    assert_eq!(
        setups.len(),
        12,
        "paper §III-A2: twelve execution setups per query"
    );
}

#[test]
fn measurements_are_reproducible_in_output() {
    // Two separate campaigns over the same seed produce identical output
    // counts (timings of course vary).
    let a = runner().run_query(Query::Sample).unwrap();
    let b = runner().run_query(Query::Sample).unwrap();
    let counts = |ms: &[Measurement]| -> Vec<u64> { ms.iter().map(|m| m.output_records).collect() };
    assert_eq!(counts(&a), counts(&b));
}
