//! The variance experiments (paper Fig. 10 / Table III): per-run
//! execution times of one cell, as measured — no outlier is added.

use streambench_core::{report, Api, BenchConfig, BenchmarkRunner, Query, System};

#[test]
fn table_three_renders_per_run_series() {
    let config = BenchConfig::quick()
        .records(1_500)
        .runs(4)
        .parallelisms(vec![1, 2])
        .request_latency_micros(100);
    let measurements = BenchmarkRunner::new(config)
        .run_query(Query::Identity)
        .unwrap();
    let per_run = report::per_run_times(&measurements, System::Rill, Api::Native, Query::Identity);
    assert_eq!(per_run.len(), 2, "both parallelisms present");
    assert_eq!(per_run[&1].len(), 4, "one entry per run");
    let rendered = report::table_three(&per_run);
    assert!(rendered.contains("Parallelism = 1"));
    assert!(rendered.contains("Parallelism = 2"));
    assert_eq!(
        rendered.lines().count(),
        2 + 4,
        "header + separator + 4 runs"
    );
}
