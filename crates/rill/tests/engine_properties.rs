//! Property-based tests of the rill engine: transformation semantics,
//! chaining transparency, and exchange correctness.

use proptest::prelude::*;
use rill::{StreamExecutionEnvironment, VecSink, VecSource};

fn run_pipeline(items: Vec<i64>, parallelism: usize, chaining: bool) -> Vec<i64> {
    let env = StreamExecutionEnvironment::local();
    env.set_parallelism(parallelism);
    if !chaining {
        env.disable_operator_chaining();
    }
    let sink = VecSink::new();
    env.add_source(VecSource::new(items))
        .map(|x| x.wrapping_mul(3))
        .filter(|x| x % 2 == 0)
        .map(|x| x.wrapping_add(1))
        .add_sink(sink.clone());
    env.execute("prop").unwrap();
    sink.snapshot()
}

fn reference(items: &[i64]) -> Vec<i64> {
    items
        .iter()
        .map(|x| x.wrapping_mul(3))
        .filter(|x| x % 2 == 0)
        .map(|x| x.wrapping_add(1))
        .collect()
}

proptest! {
    /// A chained single-parallelism pipeline equals the sequential
    /// reference, element for element and in order.
    #[test]
    fn chained_pipeline_matches_reference(items in prop::collection::vec(any::<i64>(), 0..300)) {
        let expected = reference(&items);
        prop_assert_eq!(run_pipeline(items, 1, true), expected);
    }

    /// Disabling chaining (forward exchanges between all operators) never
    /// changes results or order.
    #[test]
    fn chaining_is_transparent(items in prop::collection::vec(any::<i64>(), 0..300)) {
        let expected = reference(&items);
        prop_assert_eq!(run_pipeline(items, 1, false), expected);
    }

    /// At any parallelism, the forward exchanges between unchained
    /// subtasks preserve the multiset of results.
    #[test]
    fn unchained_parallel_pipeline_preserves_multiset(
        items in prop::collection::vec(any::<i64>(), 0..300),
        parallelism in 1usize..4,
    ) {
        let mut expected = reference(&items);
        let mut got = run_pipeline(items, parallelism, false);
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
