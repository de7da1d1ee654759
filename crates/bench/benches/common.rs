//! Shared Criterion scaffolding for the ablation benches.

/// Records per benchmarked run (small: Criterion repeats many times).
pub const RECORDS: u64 = 2_000;
/// Simulated broker request latency in microseconds.
pub const LATENCY_MICROS: u64 = 50;

/// Applies the shared group configuration: 10 samples with short warm-up
/// and measurement phases — each iteration is a whole benchmark job, so
/// statistical precision comes from the iteration count, not wall time.
pub fn configure<M: criterion::measurement::Measurement>(
    group: &mut criterion::BenchmarkGroup<'_, M>,
) {
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
}
