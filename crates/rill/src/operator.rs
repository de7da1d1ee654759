//! Push-based operators.
//!
//! A rill pipeline is a composition of [`Collector`]s: every operator wraps
//! its downstream collector, so an entire operator chain becomes a single
//! stack of inlined calls — rill's equivalent of Flink's operator chaining.
//! No element is boxed or serialized inside a chain; types stay concrete
//! from source to the next exchange or sink.
//!
//! Chains move data batch-at-a-time where they can: sources hand whole
//! fetch batches to [`Collector::collect_batch`], and the operators
//! forward batches with one virtual call per *batch* instead of one per
//! element. A collector that does not override the batch path falls back
//! to the per-element default, so correctness never depends on which path
//! a chain takes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A sink for elements of type `T`, called by the upstream operator.
///
/// `close` is called exactly once, after the last element; implementations
/// flush buffers and propagate the close downstream.
pub trait Collector<T>: Send {
    /// Accepts one element.
    fn collect(&mut self, item: T);

    /// Accepts a whole batch of elements, draining `items`.
    ///
    /// The contract: on return `items` is empty, its capacity intact, so
    /// callers can refill and resend the same buffer. The default forwards
    /// element by element; stateless operators override it to amortize the
    /// boxed-collector virtual call over the batch.
    fn collect_batch(&mut self, items: &mut Vec<T>) {
        for item in items.drain(..) {
            self.collect(item);
        }
    }

    /// Signals the end of the (bounded) stream.
    fn close(&mut self);
}

/// Blanket impl so `Box<dyn Collector<T>>` is itself a collector.
impl<T, C: Collector<T> + ?Sized> Collector<T> for Box<C> {
    fn collect(&mut self, item: T) {
        (**self).collect(item);
    }

    fn collect_batch(&mut self, items: &mut Vec<T>) {
        (**self).collect_batch(items);
    }

    fn close(&mut self) {
        (**self).close();
    }
}

/// One-to-one transformation.
pub struct MapCollector<F, C, U> {
    f: F,
    downstream: C,
    /// Reused output buffer for the batch path.
    scratch: Vec<U>,
}

impl<F, C, U> MapCollector<F, C, U> {
    /// Wraps `downstream` with the mapping `f`.
    pub fn new(f: F, downstream: C) -> Self {
        MapCollector {
            f,
            downstream,
            scratch: Vec::new(),
        }
    }
}

impl<T, U, F, C> Collector<T> for MapCollector<F, C, U>
where
    F: FnMut(T) -> U + Send,
    C: Collector<U>,
    U: Send,
{
    fn collect(&mut self, item: T) {
        self.downstream.collect((self.f)(item));
    }

    fn collect_batch(&mut self, items: &mut Vec<T>) {
        // `Drain` is `TrustedLen`, so this is one reservation plus an
        // unchecked-capacity fill — no per-element capacity test.
        self.scratch.extend(items.drain(..).map(&mut self.f));
        self.downstream.collect_batch(&mut self.scratch);
    }

    fn close(&mut self) {
        self.downstream.close();
    }
}

/// Predicate-based filtering.
pub struct FilterCollector<F, C> {
    predicate: F,
    downstream: C,
}

impl<F, C> FilterCollector<F, C> {
    /// Wraps `downstream` with the predicate.
    pub fn new(predicate: F, downstream: C) -> Self {
        FilterCollector {
            predicate,
            downstream,
        }
    }
}

impl<T, F, C> Collector<T> for FilterCollector<F, C>
where
    F: FnMut(&T) -> bool + Send,
    C: Collector<T>,
{
    fn collect(&mut self, item: T) {
        if (self.predicate)(&item) {
            self.downstream.collect(item);
        }
    }

    fn collect_batch(&mut self, items: &mut Vec<T>) {
        let predicate = &mut self.predicate;
        items.retain(|item| predicate(item));
        self.downstream.collect_batch(items);
    }

    fn close(&mut self) {
        self.downstream.close();
    }
}

/// Pass-through collector that counts elements; used for task metrics.
pub struct CountingCollector<C> {
    counter: obs::Counter,
    downstream: C,
}

impl<C> CountingCollector<C> {
    /// Wraps `downstream`, incrementing `counter` per element.
    pub fn new(counter: obs::Counter, downstream: C) -> Self {
        CountingCollector {
            counter,
            downstream,
        }
    }
}

impl<T, C> Collector<T> for CountingCollector<C>
where
    C: Collector<T>,
{
    fn collect(&mut self, item: T) {
        self.counter.inc();
        self.downstream.collect(item);
    }

    fn collect_batch(&mut self, items: &mut Vec<T>) {
        self.counter.add(items.len() as u64);
        self.downstream.collect_batch(items);
    }

    fn close(&mut self) {
        self.downstream.close();
    }
}

/// Pass-through collector recording records-in and busy time for one
/// named operator; installed by
/// [`DataStream::transform`](crate::DataStream::transform) only while
/// instrumentation is enabled, so the disabled path never pays the
/// per-element clock reads.
///
/// Busy time is *inclusive*: operator chains are single call stacks, so
/// an operator's measured time contains its chained downstream (exactly
/// like a span tree — subtract the downstream operator to get exclusive
/// time).
pub struct MeteredCollector<C> {
    records_in: obs::Counter,
    busy_micros: obs::Counter,
    downstream: C,
}

impl<C> MeteredCollector<C> {
    /// Wraps `downstream` with the given instruments.
    pub fn new(records_in: obs::Counter, busy_micros: obs::Counter, downstream: C) -> Self {
        MeteredCollector {
            records_in,
            busy_micros,
            downstream,
        }
    }
}

impl<T, C> Collector<T> for MeteredCollector<C>
where
    C: Collector<T>,
{
    fn collect(&mut self, item: T) {
        self.records_in.inc();
        let started = std::time::Instant::now();
        self.downstream.collect(item);
        self.busy_micros.add(started.elapsed().as_micros() as u64);
    }

    fn collect_batch(&mut self, items: &mut Vec<T>) {
        // One counter add and one clock pair per batch: metering cost no
        // longer scales with element count on the batched plane.
        self.records_in.add(items.len() as u64);
        let started = std::time::Instant::now();
        self.downstream.collect_batch(items);
        self.busy_micros.add(started.elapsed().as_micros() as u64);
    }

    fn close(&mut self) {
        let started = std::time::Instant::now();
        self.downstream.close();
        self.busy_micros.add(started.elapsed().as_micros() as u64);
    }
}

/// Terminal collector that appends elements to a shared vector; the
/// workhorse of tests.
pub struct VecCollector<T> {
    items: Arc<parking_lot::Mutex<Vec<T>>>,
    closed: Arc<AtomicU64>,
}

impl<T> VecCollector<T> {
    /// Creates a collector appending into `items`; `closed` counts close
    /// calls.
    pub fn new(items: Arc<parking_lot::Mutex<Vec<T>>>, closed: Arc<AtomicU64>) -> Self {
        VecCollector { items, closed }
    }
}

impl<T: Send> Collector<T> for VecCollector<T> {
    fn collect(&mut self, item: T) {
        self.items.lock().push(item);
    }

    fn collect_batch(&mut self, items: &mut Vec<T>) {
        self.items.lock().append(items);
    }

    fn close(&mut self) {
        self.closed.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn harness<T>() -> (Arc<Mutex<Vec<T>>>, Arc<AtomicU64>, VecCollector<T>) {
        let items = Arc::new(Mutex::new(Vec::new()));
        let closed = Arc::new(AtomicU64::new(0));
        let collector = VecCollector::new(items.clone(), closed.clone());
        (items, closed, collector)
    }

    #[test]
    fn map_transforms_and_closes() {
        let (items, closed, sink) = harness::<i64>();
        let mut chain = MapCollector::new(|x: i64| x * 2, sink);
        for i in 0..5 {
            chain.collect(i);
        }
        chain.close();
        assert_eq!(*items.lock(), vec![0, 2, 4, 6, 8]);
        assert_eq!(closed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn filter_drops() {
        let (items, _, sink) = harness::<i64>();
        let mut chain = FilterCollector::new(|x: &i64| x % 2 == 0, sink);
        for i in 0..6 {
            chain.collect(i);
        }
        chain.close();
        assert_eq!(*items.lock(), vec![0, 2, 4]);
    }

    #[test]
    fn chained_operators_compose() {
        let (items, closed, sink) = harness::<String>();
        // Outermost collector runs first: +1, then filter, then format.
        let mut chain = MapCollector::new(
            |x: i64| x + 1,
            FilterCollector::new(
                |x: &i64| *x > 2,
                MapCollector::new(|x: i64| format!("n{x}"), sink),
            ),
        );
        for i in 0..5 {
            chain.collect(i);
        }
        chain.close();
        assert_eq!(
            *items.lock(),
            vec!["n3".to_string(), "n4".to_string(), "n5".to_string()]
        );
        assert_eq!(closed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn counting_collector_counts() {
        let (items, _, sink) = harness::<i64>();
        let counter = obs::Counter::new();
        let mut chain = CountingCollector::new(counter.clone(), sink);
        for i in 0..7 {
            chain.collect(i);
        }
        chain.close();
        assert_eq!(counter.get(), 7);
        assert_eq!(items.lock().len(), 7);
    }

    #[test]
    fn batched_chain_matches_per_element() {
        let (batched, _, batched_sink) = harness::<String>();
        let (one_by_one, _, element_sink) = harness::<String>();
        let build = |sink: VecCollector<String>| {
            MapCollector::new(
                |x: i64| x + 1,
                FilterCollector::new(
                    |x: &i64| *x % 2 == 1,
                    MapCollector::new(|x: i64| format!("n{x}"), sink),
                ),
            )
        };
        let mut chain = build(batched_sink);
        let mut batch: Vec<i64> = (0..10).collect();
        chain.collect_batch(&mut batch);
        assert!(batch.is_empty(), "the batch must be drained");
        assert!(batch.capacity() >= 10, "capacity survives for reuse");
        chain.close();

        let mut chain = build(element_sink);
        for i in 0..10 {
            chain.collect(i);
        }
        chain.close();
        assert_eq!(*batched.lock(), *one_by_one.lock());
    }

    #[test]
    fn map_batch_reuses_scratch_across_batches() {
        let (items, _, sink) = harness::<i64>();
        let mut chain = MapCollector::new(|x: i64| x * 10, sink);
        for round in 0..3i64 {
            let mut batch = vec![round, round + 1];
            chain.collect_batch(&mut batch);
        }
        chain.close();
        assert_eq!(*items.lock(), vec![0, 10, 10, 20, 20, 30]);
    }

    #[test]
    fn metered_collector_batch_records_once_per_batch() {
        let (items, _, sink) = harness::<i64>();
        let records_in = obs::Counter::new();
        let busy = obs::Counter::new();
        let mut chain = MeteredCollector::new(records_in.clone(), busy.clone(), sink);
        let mut batch: Vec<i64> = (0..8).collect();
        chain.collect_batch(&mut batch);
        chain.close();
        assert_eq!(records_in.get(), 8, "records-in still counts elements");
        assert_eq!(items.lock().len(), 8);
    }

    #[test]
    fn counting_collector_batch_counts_elements() {
        let (items, _, sink) = harness::<i64>();
        let counter = obs::Counter::new();
        let mut chain = CountingCollector::new(counter.clone(), sink);
        let mut batch: Vec<i64> = (0..6).collect();
        chain.collect_batch(&mut batch);
        chain.close();
        assert_eq!(counter.get(), 6);
        assert_eq!(items.lock().len(), 6);
    }

    #[test]
    fn metered_collector_counts_and_times() {
        let (items, closed, sink) = harness::<i64>();
        let records_in = obs::Counter::new();
        let busy = obs::Counter::new();
        let mut chain = MeteredCollector::new(
            records_in.clone(),
            busy.clone(),
            MapCollector::new(
                |x: i64| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    x
                },
                sink,
            ),
        );
        for i in 0..5 {
            chain.collect(i);
        }
        chain.close();
        assert_eq!(records_in.get(), 5);
        assert!(busy.get() >= 5 * 200, "busy time includes downstream work");
        assert_eq!(items.lock().len(), 5);
        assert_eq!(closed.load(Ordering::SeqCst), 1);
    }
}
