//! Benchmark configuration.

use logbus::Acks;

/// Configuration of a full benchmark campaign.
///
/// The paper's setup is `records = 1_000_001`, `runs = 10`,
/// `parallelisms = [1, 2]`. Reproduction runs default to a scaled-down
/// workload so the full matrix finishes quickly; per-record costs scale
/// linearly, so ratios (orderings, slowdown factors) are preserved.
/// Override with the `STREAMBENCH_RECORDS` and `STREAMBENCH_RUNS`
/// environment variables or the builder methods.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Input records per query benchmark.
    pub records: u64,
    /// Repetitions per setup (the paper's `N_run = 10`).
    pub runs: u32,
    /// Parallelism degrees (the paper's `[1, 2]`).
    pub parallelisms: Vec<usize>,
    /// Simulated broker network round trip per request, in microseconds.
    /// The paper's brokers live on a remote three-node cluster; see
    /// `logbus::Broker::set_request_latency_micros`.
    pub request_latency_micros: u64,
    /// Workload seed.
    pub seed: u64,
    /// Producer acknowledgement level of the data sender.
    pub sender_acks: Acks,
    /// Micro-batch size of the `dstream` engine.
    pub dstream_batch_records: usize,
    /// Streaming-window size of the `apx` engine.
    pub apx_window_size: usize,
    /// Seed of the broker fault plan installed during each run's
    /// processing phase (`logbus::FaultPlan::seeded`); `None` (the
    /// default) benchmarks a fault-free broker. Load and measurement
    /// phases always run fault-free.
    pub fault_seed: Option<u64>,
    /// Retries granted to a failed run before it is abandoned and
    /// recorded as an outlier-with-cause (total attempts = 1 + retries).
    pub max_run_retries: u32,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            records: env_u64("STREAMBENCH_RECORDS", 20_000),
            runs: env_u64("STREAMBENCH_RUNS", 3) as u32,
            parallelisms: vec![1, 2],
            request_latency_micros: 25,
            seed: 2019,
            sender_acks: Acks::Leader,
            dstream_batch_records: 2_000,
            apx_window_size: 2_048,
            fault_seed: None,
            max_run_retries: 2,
        }
    }
}

pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a comma-separated list (`"500,2000"`) into numbers, skipping
/// malformed entries. `None` when the variable is unset or yields no
/// usable value.
pub(crate) fn env_list<T: std::str::FromStr>(name: &str) -> Option<Vec<T>> {
    let raw = std::env::var(name).ok()?;
    let values: Vec<T> = raw
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .collect();
    (!values.is_empty()).then_some(values)
}

impl BenchConfig {
    /// The default configuration (environment-aware).
    pub fn new() -> Self {
        Self::default()
    }

    /// A tiny configuration for tests: 2,000 records, 2 runs, no
    /// simulated latency.
    pub fn quick() -> Self {
        BenchConfig {
            records: 2_000,
            runs: 2,
            request_latency_micros: 0,
            ..BenchConfig::default()
        }
    }

    /// Sets the record count.
    pub fn records(mut self, records: u64) -> Self {
        self.records = records.max(1);
        self
    }

    /// Sets the run count.
    pub fn runs(mut self, runs: u32) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Sets the parallelism degrees.
    ///
    /// # Panics
    ///
    /// Panics when `parallelisms` is empty or contains zero.
    pub fn parallelisms(mut self, parallelisms: Vec<usize>) -> Self {
        assert!(!parallelisms.is_empty(), "at least one parallelism");
        assert!(
            parallelisms.iter().all(|&p| p > 0),
            "parallelism must be positive"
        );
        self.parallelisms = parallelisms;
        self
    }

    /// Sets the simulated broker request latency.
    pub fn request_latency_micros(mut self, micros: u64) -> Self {
        self.request_latency_micros = micros;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables broker fault injection during processing with the given
    /// plan seed.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Sets the per-run retry budget.
    pub fn max_run_retries(mut self, retries: u32) -> Self {
        self.max_run_retries = retries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BenchConfig::default();
        assert!(c.records >= 1);
        assert!(c.runs >= 1);
        assert_eq!(c.parallelisms, vec![1, 2]);
    }

    #[test]
    fn builders() {
        let c = BenchConfig::quick()
            .records(500)
            .runs(5)
            .parallelisms(vec![1])
            .request_latency_micros(42)
            .seed(1)
            .with_fault_seed(13)
            .max_run_retries(4);
        assert_eq!(c.records, 500);
        assert_eq!(c.runs, 5);
        assert_eq!(c.parallelisms, vec![1]);
        assert_eq!(c.request_latency_micros, 42);
        assert_eq!(c.seed, 1);
        assert_eq!(c.fault_seed, Some(13));
        assert_eq!(c.max_run_retries, 4);
    }

    #[test]
    #[should_panic(expected = "at least one parallelism")]
    fn empty_parallelisms_panics() {
        let _ = BenchConfig::quick().parallelisms(vec![]);
    }

    #[test]
    fn env_helpers_parse_and_default() {
        std::env::set_var("STREAMBENCH_TEST_U64", "7");
        assert_eq!(env_u64("STREAMBENCH_TEST_U64", 1), 7);
        assert_eq!(env_u64("STREAMBENCH_TEST_U64_UNSET", 1), 1);
        std::env::set_var("STREAMBENCH_TEST_LIST", "500, 2000,junk");
        assert_eq!(
            env_list::<u64>("STREAMBENCH_TEST_LIST"),
            Some(vec![500, 2000])
        );
        assert_eq!(env_list::<u64>("STREAMBENCH_TEST_LIST_UNSET"), None);
    }
}
