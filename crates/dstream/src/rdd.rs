//! Resilient-distributed-dataset analog: lazy, partitioned, immutable
//! collections with lineage.
//!
//! An [`Rdd<T>`] is a recipe: a partition count plus a pass producing any
//! partition on demand (the lineage of paper §II-C's RDDs, without the
//! fault-tolerance machinery — there are no node failures in one process).
//! Transformations compose passes lazily; actions run one task per
//! partition on the context's executor pool.

use crate::context::Context;
use std::sync::Arc;

/// A fused per-partition pass: computes partition `i` of the lineage,
/// pushing each element into `sink` as it is produced. Stateless
/// transformations wrap the parent's pass, so a chain of
/// `map`/`filter` runs as **one** traversal per partition —
/// no intermediate `Vec` is materialized between transformations.
type Pass<T> = Arc<dyn Fn(usize, &mut dyn FnMut(T)) + Send + Sync>;

/// Runs one partition of a pass to completion, materializing the result.
fn materialize<T>(pass: &Pass<T>, partition: usize) -> Vec<T> {
    let mut out = Vec::new();
    pass(partition, &mut |item| out.push(item));
    out
}

/// A lazy, partitioned collection.
pub struct Rdd<T> {
    ctx: Context,
    partitions: usize,
    pass: Pass<T>,
}

impl<T> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            partitions: self.partitions,
            pass: self.pass.clone(),
        }
    }
}

impl<T> std::fmt::Debug for Rdd<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rdd")
            .field("partitions", &self.partitions)
            .finish_non_exhaustive()
    }
}

impl<T: Send + Sync + 'static> Rdd<T> {
    /// Creates an RDD whose partitions are the given vectors.
    pub fn from_partitions(ctx: Context, parts: Vec<Vec<T>>) -> Self
    where
        T: Clone,
    {
        let parts = Arc::new(parts);
        let partitions = parts.len().max(1);
        Rdd {
            ctx,
            partitions,
            pass: Arc::new(move |i, sink: &mut dyn FnMut(T)| {
                if let Some(part) = parts.get(i) {
                    for item in part {
                        sink(item.clone());
                    }
                }
            }),
        }
    }

    /// Creates an RDD from an explicit compute function.
    pub fn from_compute(
        ctx: Context,
        partitions: usize,
        compute: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        Rdd {
            ctx,
            partitions: partitions.max(1),
            pass: Arc::new(move |i, sink: &mut dyn FnMut(T)| {
                for item in compute(i) {
                    sink(item);
                }
            }),
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// The driver context this RDD belongs to.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Element-wise transformation (lazy). Fuses into the parent's pass:
    /// no intermediate `Vec` is materialized between transformations.
    pub fn map<U, F>(self, f: F) -> Rdd<U>
    where
        U: Send + Sync + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let pass = self.pass;
        Rdd {
            ctx: self.ctx,
            partitions: self.partitions,
            pass: Arc::new(move |i, sink: &mut dyn FnMut(U)| {
                pass(i, &mut |item| sink(f(item)));
            }),
        }
    }

    /// Keeps elements satisfying the predicate (lazy, fused).
    pub fn filter<F>(self, f: F) -> Rdd<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let pass = self.pass;
        Rdd {
            ctx: self.ctx,
            partitions: self.partitions,
            pass: Arc::new(move |i, sink: &mut dyn FnMut(T)| {
                pass(i, &mut |item| {
                    if f(&item) {
                        sink(item);
                    }
                });
            }),
        }
    }

    /// Whole-partition transformation (lazy); the parent partition is
    /// materialized once so `f` sees the complete batch slice.
    pub fn map_partitions<U, F>(self, f: F) -> Rdd<U>
    where
        U: Send + Sync + 'static,
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        let pass = self.pass;
        Rdd {
            ctx: self.ctx,
            partitions: self.partitions,
            pass: Arc::new(move |i, sink: &mut dyn FnMut(U)| {
                for out in f(materialize(&pass, i)) {
                    sink(out);
                }
            }),
        }
    }

    /// Meters the elements flowing out of this RDD (crate-internal): one
    /// records-count update and one timing pair **per partition**, not per
    /// element. Because passes are fused, the busy time is inclusive — it
    /// covers the upstream pass and the downstream consumption of each
    /// element, not just one operator's closure.
    pub(crate) fn metered(self, records: obs::Counter, busy: obs::Counter) -> Rdd<T> {
        let pass = self.pass;
        Rdd {
            ctx: self.ctx,
            partitions: self.partitions,
            pass: Arc::new(move |i, sink: &mut dyn FnMut(T)| {
                let mut count = 0u64;
                let started = std::time::Instant::now();
                pass(i, &mut |item| {
                    count += 1;
                    sink(item);
                });
                busy.add(started.elapsed().as_micros() as u64);
                records.add(count);
            }),
        }
    }

    /// Redistributes elements round-robin into `partitions` partitions.
    ///
    /// This is a **shuffle**: like a Spark stage boundary, the parent
    /// lineage runs *now* (the map side of the shuffle, driven from the
    /// driver) and the result is redistributed; downstream lineage starts
    /// from the materialized buckets.
    pub fn repartition(self, partitions: usize) -> Rdd<T>
    where
        T: Clone,
    {
        let partitions = partitions.max(1);
        let mut next = 0usize;
        self.shuffle(partitions, move |_t: &T| {
            let target = next;
            next = next.wrapping_add(1);
            target
        })
    }

    /// Materializes the shuffle eagerly: the parent stage runs on the
    /// executors (driven from the calling thread — the driver, as in
    /// Spark's scheduler), every element is routed to its bucket, and the
    /// result becomes a fresh in-memory RDD.
    ///
    /// Shuffles must be driven from the driver: running a stage from
    /// inside an executor task would let tasks submit tasks, which can
    /// exhaust the pool and deadlock — the reason Spark separates stages
    /// at shuffle boundaries in the first place.
    fn shuffle<R>(self, buckets: usize, mut route: R) -> Rdd<T>
    where
        T: Clone,
        R: FnMut(&T) -> usize,
    {
        let ctx = self.ctx.clone();
        let mut out: Vec<Vec<T>> = (0..buckets).map(|_| Vec::new()).collect();
        for part in self.collect_partitions() {
            for item in part {
                let b = route(&item) % buckets;
                out[b].push(item);
            }
        }
        Rdd::from_partitions(ctx, out)
    }

    /// Runs the lineage and returns all partitions (in partition order).
    pub fn collect_partitions(&self) -> Vec<Vec<T>> {
        let pool = self.ctx.pool();
        let tasks: Vec<_> = (0..self.partitions)
            .map(|i| {
                let pass = self.pass.clone();
                move || materialize(&pass, i)
            })
            .collect();
        pool.run_stage(tasks)
    }

    /// Runs the lineage and returns all elements, partition by partition.
    pub fn collect(&self) -> Vec<T> {
        self.collect_partitions().into_iter().flatten().collect()
    }

    /// Counts elements (runs the lineage). The fused pass lets counting
    /// drop elements as they are produced — nothing is materialized.
    pub fn count(&self) -> usize {
        let pool = self.ctx.pool();
        let tasks: Vec<_> = (0..self.partitions)
            .map(|i| {
                let pass = self.pass.clone();
                move || {
                    let mut n = 0usize;
                    pass(i, &mut |_item| n += 1);
                    n
                }
            })
            .collect();
        pool.run_stage(tasks).into_iter().sum()
    }

    /// Applies `f` to each partition on the executors (an action).
    pub fn foreach_partition<F>(&self, f: F)
    where
        F: Fn(usize, Vec<T>) + Send + Sync + 'static,
    {
        let pool = self.ctx.pool();
        let f = Arc::new(f);
        let tasks: Vec<_> = (0..self.partitions)
            .map(|i| {
                let pass = self.pass.clone();
                let f = f.clone();
                move || f(i, materialize(&pass, i))
            })
            .collect();
        let _: Vec<()> = pool.run_stage(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ctx() -> Context {
        Context::local()
    }

    #[test]
    fn map_then_filter() {
        let rdd = ctx().parallelize((0..20).collect::<Vec<i64>>(), 3);
        let out = rdd.map(|x| x + 1).filter(|x| x % 2 == 0).collect();
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|x| x % 2 == 0));
    }

    #[test]
    fn laziness() {
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let rdd = Rdd::from_compute(ctx(), 2, move |i| {
            calls2.fetch_add(1, Ordering::SeqCst);
            vec![i]
        });
        let mapped = rdd.map(|x| x * 10);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "nothing computed before an action"
        );
        assert_eq!(mapped.collect(), vec![0, 10]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn repartition_preserves_elements() {
        let rdd = ctx().parallelize((0..100).collect::<Vec<i64>>(), 1);
        let repartitioned = rdd.repartition(4);
        assert_eq!(repartitioned.partition_count(), 4);
        let parts = repartitioned.collect_partitions();
        assert!(parts.iter().all(|p| p.len() == 25));
        let mut all: Vec<i64> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn shuffle_runs_parent_stage_once() {
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let rdd = Rdd::from_compute(ctx(), 2, move |i| {
            calls2.fetch_add(1, Ordering::SeqCst);
            vec![i as i64]
        });
        let repartitioned = rdd.repartition(2);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "map side ran at the boundary"
        );
        let _ = repartitioned.collect();
        let _ = repartitioned.collect();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "parent computed once despite two actions on the shuffled RDD"
        );
    }

    #[test]
    fn wide_repartition_does_not_deadlock() {
        // Regression: a lazy shuffle computed inside executor tasks
        // deadlocked once the bucket count reached the worker count.
        let workers = Context::local().pool().worker_count();
        let rdd = ctx().parallelize((0..100i64).collect::<Vec<_>>(), 1);
        let wide = rdd.repartition(workers * 4);
        assert_eq!(wide.count(), 100);
    }

    #[test]
    fn count_and_foreach() {
        let rdd = ctx().parallelize((0..42).collect::<Vec<i64>>(), 5);
        assert_eq!(rdd.count(), 42);
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = seen.clone();
        rdd.foreach_partition(move |_i, part| {
            seen2.fetch_add(part.len(), Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn stateless_transforms_fuse_into_one_pass() {
        // Two chained maps over one partition: fused execution interleaves
        // them per element instead of completing one whole map before the
        // next (which would need an intermediate Vec).
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        let out = ctx()
            .parallelize(vec![1i64, 2], 1)
            .map(move |x| {
                l1.lock().push(format!("a{x}"));
                x
            })
            .map(move |x| {
                l2.lock().push(format!("b{x}"));
                x
            })
            .collect();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(*log.lock(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn metered_counts_per_partition_not_per_element() {
        let records = obs::Counter::new();
        let busy = obs::Counter::new();
        let rdd = ctx()
            .parallelize((0..30).collect::<Vec<i64>>(), 3)
            .metered(records.clone(), busy.clone())
            .map(|x| x * 2);
        assert_eq!(records.get(), 0, "metering is lazy like the lineage");
        assert_eq!(rdd.count(), 30);
        assert_eq!(records.get(), 30, "exact records-in total");
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let rdd = ctx().parallelize((0..10).collect::<Vec<i64>>(), 2);
        let sizes = rdd.map_partitions(|part| vec![part.len()]).collect();
        assert_eq!(sizes, vec![5, 5]);
    }
}
