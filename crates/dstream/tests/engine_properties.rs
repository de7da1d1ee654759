//! Property-based tests of the dstream engine: RDD laws and micro-batch
//! semantics.

use dstream::{Context, StreamingContext, VecBatchSource};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// map/filter over any partitioning equals the sequential
    /// reference.
    #[test]
    fn rdd_transformations_match_reference(
        items in prop::collection::vec(any::<i64>(), 0..400),
        partitions in 1usize..6,
    ) {
        let ctx = Context::local();
        let got = ctx
            .parallelize(items.clone(), partitions)
            .map(|x| x.wrapping_add(1))
            .filter(|x| x % 3 != 0)
            .map(i64::wrapping_neg)
            .collect();
        let mut expected: Vec<i64> = Vec::new();
        for p in 0..partitions {
            // Round-robin dealing: partition p holds items[p], items[p+P], …
            expected.extend(
                items
                    .iter()
                    .skip(p)
                    .step_by(partitions)
                    .map(|x| x.wrapping_add(1))
                    .filter(|x| x % 3 != 0)
                    .map(i64::wrapping_neg),
            );
        }
        prop_assert_eq!(got, expected);
    }

    /// count == collect().len() for any lineage.
    #[test]
    fn count_equals_collect_len(
        items in prop::collection::vec(any::<i64>(), 0..300),
        partitions in 1usize..5,
    ) {
        let rdd = Context::local()
            .parallelize(items, partitions)
            .filter(|x| x % 2 == 0);
        prop_assert_eq!(rdd.count(), rdd.collect().len());
    }

    /// Repartitioning preserves the multiset and balances partitions to
    /// within one element.
    #[test]
    fn repartition_is_balanced(
        items in prop::collection::vec(any::<i64>(), 0..300),
        from in 1usize..4,
        to in 1usize..6,
    ) {
        let rdd = Context::local().parallelize(items.clone(), from).repartition(to);
        let parts = rdd.collect_partitions();
        prop_assert_eq!(parts.len(), to);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {sizes:?}");
        let mut all: Vec<i64> = parts.into_iter().flatten().collect();
        let mut expected = items;
        all.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(all, expected);
    }

    /// Micro-batch processing sees every element exactly once, across any
    /// batching.
    #[test]
    fn stream_processes_everything_once(
        batches in prop::collection::vec(prop::collection::vec(any::<i64>(), 0..40), 0..10),
    ) {
        let flat: Vec<i64> = batches.iter().flatten().copied().collect();
        let ssc = StreamingContext::new(Context::local());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        ssc.receiver_stream(VecBatchSource::new(batches))
            .map(|x: i64| x)
            .foreach_rdd(&ssc, move |rdd| sink.lock().extend(rdd.collect()));
        match ssc.run_to_completion() {
            Ok(report) => prop_assert!(report.batches as usize <= flat.len().max(1)),
            Err(dstream::Error::NoOutputOperations) => unreachable!(),
            Err(e) => return Err(TestCaseError::fail(e.to_string())),
        }
        prop_assert_eq!(&*seen.lock(), &flat);
    }
}
