//! The driver context (SparkContext analog).

use crate::executor::{ExecutorPool, SharedPool};
use crate::rdd::Rdd;
use std::sync::Arc;

/// Task threads of the executor pool: two executors of two cores each.
const EXECUTOR_THREADS: usize = 2 * 2;

/// Application-level configuration, the analog of a `SparkConf`.
#[derive(Debug, Clone)]
pub struct ContextConfig {
    /// Default number of partitions for shuffles and repartitioning —
    /// `spark.default.parallelism`, the knob the paper uses to set
    /// parallelism on Apache Spark (§III-A2).
    pub default_parallelism: usize,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            default_parallelism: 1,
        }
    }
}

impl ContextConfig {
    /// Sets `spark.default.parallelism`.
    pub fn default_parallelism(mut self, parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be at least 1");
        self.default_parallelism = parallelism;
        self
    }
}

/// The driver-side coordinator: owns the executor pool and creates RDDs.
///
/// Cheap to clone; all clones share the same executors, like references to
/// one `SparkContext`.
///
/// # Example
///
/// ```
/// use dstream::Context;
///
/// let ctx = Context::local();
/// let doubled = ctx.parallelize((0..10).collect::<Vec<i64>>(), 4).map(|x| x * 2);
/// assert_eq!(doubled.collect().len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Context {
    pool: SharedPool,
    config: ContextConfig,
}

impl Context {
    /// Creates a context with the default configuration.
    pub fn local() -> Self {
        Self::with_config(ContextConfig::default())
    }

    /// Creates a context from an explicit configuration.
    pub fn with_config(config: ContextConfig) -> Self {
        let pool = Arc::new(ExecutorPool::new(EXECUTOR_THREADS));
        Context { pool, config }
    }

    /// The application configuration.
    pub fn config(&self) -> &ContextConfig {
        &self.config
    }

    /// The shared executor pool.
    pub(crate) fn pool(&self) -> SharedPool {
        self.pool.clone()
    }

    /// `spark.default.parallelism`.
    pub fn default_parallelism(&self) -> usize {
        self.config.default_parallelism
    }

    /// Distributes a local collection into an RDD with `partitions`
    /// partitions (elements are dealt round-robin).
    pub fn parallelize<T: Clone + Send + Sync + 'static>(
        &self,
        items: Vec<T>,
        partitions: usize,
    ) -> Rdd<T> {
        let partitions = partitions.max(1);
        let mut parts: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            parts[i % partitions].push(item);
        }
        Rdd::from_partitions(self.clone(), parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_deals_round_robin() {
        let ctx = Context::local();
        let rdd = ctx.parallelize(vec![1, 2, 3, 4, 5], 2);
        assert_eq!(rdd.partition_count(), 2);
        assert_eq!(rdd.collect(), vec![1, 3, 5, 2, 4]);
    }

    #[test]
    fn zero_partitions_clamped() {
        let ctx = Context::local();
        let rdd = ctx.parallelize(vec![1], 0);
        assert_eq!(rdd.partition_count(), 1);
    }

    #[test]
    fn config_builders() {
        let config = ContextConfig::default().default_parallelism(3);
        assert_eq!(config.default_parallelism, 3);
        let ctx = Context::with_config(config);
        assert_eq!(ctx.default_parallelism(), 3);
        assert_eq!(ctx.pool().worker_count(), EXECUTOR_THREADS);
    }

    #[test]
    #[should_panic(expected = "parallelism must be at least 1")]
    fn zero_parallelism_panics() {
        let _ = ContextConfig::default().default_parallelism(0);
    }
}
