//! Discretized streams: sequences of RDD micro-batches.
//!
//! Apache Spark Streaming represents a stream as a **D-Stream** — a
//! sequence of RDDs, one per batch interval (paper §II-C). [`DStream<T>`]
//! mirrors that: it lazily produces one [`Rdd<T>`] per tick, and
//! transformations apply RDD-to-RDD, so per-element work is amortized over
//! whole batches.

use crate::context::Context;
use crate::rdd::Rdd;
use crate::source::BatchSource;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

type BatchPull<T> = Arc<Mutex<Box<dyn FnMut() -> Option<Rdd<T>> + Send>>>;

/// Lazily resolved per-operator instruments (records-in, busy time).
///
/// RDD transformations are lazy — the work happens at action time,
/// inside executor tasks — so metering is spliced into the lineage as a
/// fused [`Rdd::metered`] stage just upstream of the operator: one
/// records-count update and one timing pair per partition, not per
/// element. Busy time is therefore inclusive of the fused pass (see
/// DESIGN.md §9); records-in totals are exact. Resolution happens once
/// per operator, on the first metered batch, and only while
/// instrumentation is enabled; the disabled path installs the bare
/// transformation.
#[derive(Clone)]
struct OpMeter {
    name: &'static str,
    slots: Arc<OnceLock<(obs::Counter, obs::Counter)>>,
}

impl OpMeter {
    fn new(name: &'static str) -> Self {
        OpMeter {
            name,
            slots: Arc::new(OnceLock::new()),
        }
    }

    fn resolve(&self) -> (obs::Counter, obs::Counter) {
        self.slots
            .get_or_init(|| {
                (
                    obs::counter(&format!("dstream.op.{}.records_in", self.name)),
                    obs::counter(&format!("dstream.op.{}.busy_micros", self.name)),
                )
            })
            .clone()
    }
}

/// A discretized stream: one RDD per micro-batch.
///
/// `DStream` values are cheap handles; transformations return new streams
/// that pull from the same underlying source. A stream should be consumed
/// by exactly one output operation — several consumers would each pull
/// separate batches from the shared source.
pub struct DStream<T> {
    ctx: Context,
    pull: BatchPull<T>,
}

impl<T> Clone for DStream<T> {
    fn clone(&self) -> Self {
        DStream {
            ctx: self.ctx.clone(),
            pull: self.pull.clone(),
        }
    }
}

impl<T> std::fmt::Debug for DStream<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DStream").finish_non_exhaustive()
    }
}

impl<T: Clone + Send + Sync + 'static> DStream<T> {
    /// Creates a stream that pulls micro-batches from `source` on the
    /// driver, producing single-partition RDDs (one Kafka partition → one
    /// RDD partition, as in Spark's direct stream).
    pub fn from_source(ctx: Context, source: impl BatchSource<T> + 'static) -> Self {
        let ctx_for_pull = ctx.clone();
        let mut source = source;
        Self::from_batches(ctx, move || {
            source
                .next_batch()
                .map(|batch| Rdd::from_partitions(ctx_for_pull.clone(), vec![batch]))
        })
    }

    /// Creates a stream whose batch *k* is the `k`-th RDD `next` returns
    /// (the driver calls it once per tick); `None` ends the stream.
    pub(crate) fn from_batches(
        ctx: Context,
        next: impl FnMut() -> Option<Rdd<T>> + Send + 'static,
    ) -> Self {
        DStream {
            ctx,
            pull: Arc::new(Mutex::new(Box::new(next))),
        }
    }

    /// The driver context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Pulls the next micro-batch, if the source still has one.
    pub fn next_batch(&self) -> Option<Rdd<T>> {
        (self.pull.lock())()
    }

    /// RDD-level transformation applied to every batch — the escape hatch
    /// behind all the sugar below (Spark's `transform`).
    pub fn transform<U, F>(&self, f: F) -> DStream<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(Rdd<T>) -> Rdd<U> + Send + 'static,
    {
        let parent = self.pull.clone();
        let pull: BatchPull<U> = Arc::new(Mutex::new(Box::new(move || (parent.lock())().map(&f))));
        DStream {
            ctx: self.ctx.clone(),
            pull,
        }
    }

    /// Element-wise transformation of every batch.
    pub fn map<U, F>(&self, f: F) -> DStream<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(T) -> U + Clone + Send + Sync + 'static,
    {
        let meter = OpMeter::new("Map");
        self.transform(move |rdd| {
            let rdd = if obs::enabled() {
                let (records, busy) = meter.resolve();
                rdd.metered(records, busy)
            } else {
                rdd
            };
            rdd.map(f.clone())
        })
    }

    /// Per-batch filtering.
    pub fn filter<F>(&self, f: F) -> DStream<T>
    where
        F: Fn(&T) -> bool + Clone + Send + Sync + 'static,
    {
        let meter = OpMeter::new("Filter");
        self.transform(move |rdd| {
            let rdd = if obs::enabled() {
                let (records, busy) = meter.resolve();
                rdd.metered(records, busy)
            } else {
                rdd
            };
            rdd.filter(f.clone())
        })
    }

    /// Whole-partition transformation of every batch.
    pub fn map_partitions<U, F>(&self, f: F) -> DStream<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(Vec<T>) -> Vec<U> + Clone + Send + Sync + 'static,
    {
        let meter = OpMeter::new("MapPartitions");
        self.transform(move |rdd| {
            let f = f.clone();
            if obs::enabled() {
                let (records, busy) = meter.resolve();
                rdd.map_partitions(move |part| {
                    records.add(part.len() as u64);
                    let started = Instant::now();
                    let out = f(part);
                    busy.add(started.elapsed().as_micros() as u64);
                    out
                })
            } else {
                rdd.map_partitions(f)
            }
        })
    }

    /// Repartitions every batch — a shuffle per micro-batch. The
    /// abstraction layer's runner does this to honour
    /// `spark.default.parallelism`, which is exactly the overhead the
    /// paper observes for parallelism 2 on trivial queries.
    pub fn repartition(&self, partitions: usize) -> DStream<T> {
        self.transform(move |rdd| rdd.repartition(partitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecBatchSource;

    fn stream_of(batches: Vec<Vec<i64>>) -> DStream<i64> {
        DStream::from_source(Context::local(), VecBatchSource::new(batches))
    }

    #[test]
    fn batches_flow_in_order() {
        let s = stream_of(vec![vec![1, 2], vec![3]]);
        assert_eq!(s.next_batch().unwrap().collect(), vec![1, 2]);
        assert_eq!(s.next_batch().unwrap().collect(), vec![3]);
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn transformations_apply_per_batch() {
        let s = stream_of(vec![vec![1, 2, 3], vec![4, 5]]);
        let out = s.map(|x| x * 10).filter(|x| *x >= 20);
        assert_eq!(out.next_batch().unwrap().collect(), vec![20, 30]);
        assert_eq!(out.next_batch().unwrap().collect(), vec![40, 50]);
        assert!(out.next_batch().is_none());
    }

    #[test]
    fn map_partitions_sees_the_whole_batch() {
        let s = stream_of(vec![vec![2, 3], vec![4]]);
        let out = s
            .map(|x| x * 2)
            .map_partitions(|p| vec![p.iter().sum::<i64>()]);
        assert_eq!(out.next_batch().unwrap().collect(), vec![10]);
        assert_eq!(out.next_batch().unwrap().collect(), vec![8]);
    }

    #[test]
    fn repartition_splits_batches() {
        let s = stream_of(vec![(0..10).collect()]);
        let out = s.repartition(2);
        let rdd = out.next_batch().unwrap();
        assert_eq!(rdd.partition_count(), 2);
        assert_eq!(rdd.count(), 10);
    }
}
