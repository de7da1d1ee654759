//! Property-based tests of the apx engine: locality transparency and
//! window framing.

use apx::testkit::{VecInput, VecOutput};
use apx::{Codec, Dag, Emitter, FnOperator, Link, Stram, StramConfig};
use proptest::prelude::*;
use std::sync::Arc;
use yarnsim::{Resource, ResourceManager};

#[derive(Debug, Default, Clone, Copy)]
struct I64Codec;

impl Codec<i64> for I64Codec {
    fn encode_into(&self, tuple: &i64, out: &mut Vec<u8>) {
        out.extend_from_slice(&tuple.to_be_bytes());
    }

    fn decode(&self, bytes: &[u8]) -> i64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[..8]);
        i64::from_be_bytes(buf)
    }
}

fn cluster() -> ResourceManager {
    let mut rm = ResourceManager::new();
    rm.register_node(Resource::new(64 * 1024, 32));
    rm.register_node(Resource::new(64 * 1024, 32));
    rm
}

fn run_dag(items: Vec<i64>, window: usize, link_of: fn(u8) -> Link<i64>) -> Vec<i64> {
    let mut rm = cluster();
    let dag = Dag::with_window_size("prop", window);
    let out = VecOutput::new();
    dag.add_input("in", VecInput::new(items))
        .unwrap()
        .add_operator::<i64, _>(
            "triple",
            FnOperator::new(|t: i64, e: &mut dyn Emitter<i64>| e.emit(t.wrapping_mul(3))),
            link_of(0),
        )
        .unwrap()
        .add_operator::<i64, _>(
            "evens",
            FnOperator::new(|t: i64, e: &mut dyn Emitter<i64>| {
                if t % 2 == 0 {
                    e.emit(t);
                }
            }),
            link_of(1),
        )
        .unwrap()
        .add_output("out", out.clone(), link_of(2))
        .unwrap();
    Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap();
    out.snapshot()
}

fn reference(items: &[i64]) -> Vec<i64> {
    items
        .iter()
        .map(|x| x.wrapping_mul(3))
        .filter(|x| x % 2 == 0)
        .collect()
}

proptest! {
    /// Stream locality (fused / container-local queue / serialized
    /// network) never changes results or order.
    #[test]
    fn locality_is_transparent(
        items in prop::collection::vec(any::<i64>(), 0..300),
        window in 1usize..64,
        locality in 0u8..3,
    ) {
        let link_of: fn(u8) -> Link<i64> = match locality {
            0 => |_| Link::Thread,
            1 => |_| Link::Container,
            _ => |_| Link::Network(Arc::new(I64Codec)),
        };
        let expected = reference(&items);
        prop_assert_eq!(run_dag(items, window, link_of), expected);
    }

    /// Mixed localities along one chain are also transparent.
    #[test]
    fn mixed_localities(items in prop::collection::vec(any::<i64>(), 0..200)) {
        let link_of: fn(u8) -> Link<i64> = |i| match i {
            0 => Link::Network(Arc::new(I64Codec)),
            1 => Link::Thread,
            _ => Link::Container,
        };
        let expected = reference(&items);
        prop_assert_eq!(run_dag(items, 16, link_of), expected);
    }

    /// The streaming-window size never affects results, only framing;
    /// per-operator emitted counts are exact.
    #[test]
    fn window_size_is_transparent(
        items in prop::collection::vec(any::<i64>(), 1..200),
        window in 1usize..50,
    ) {
        let mut rm = cluster();
        let dag = Dag::with_window_size("prop-count", window);
        let out = VecOutput::new();
        dag.add_input("in", VecInput::new(items.clone()))
            .unwrap()
            .add_operator::<i64, _>(
                "id",
                apx::PassThrough,
                Link::Network(Arc::new(I64Codec)),
            )
            .unwrap()
            .add_output("out", out.clone(), Link::Thread)
            .unwrap();
        let result = Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap();
        prop_assert_eq!(out.snapshot(), items.clone());
        prop_assert_eq!(result.emitted_by("in"), Some(items.len() as u64));
        prop_assert_eq!(result.emitted_by("id"), Some(items.len() as u64));
    }

    /// YARN accounting: all containers and the application are released
    /// after completion, regardless of topology.
    #[test]
    fn cluster_is_clean_after_runs(runs in 1usize..4) {
        let mut rm = cluster();
        for r in 0..runs {
            let dag = Dag::new(format!("app-{r}"));
            let out = VecOutput::new();
            dag.add_input("in", VecInput::new(vec![1i64, 2, 3]))
                .unwrap()
                .add_output("out", out, Link::Network(Arc::new(I64Codec)))
                .unwrap();
            Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap();
            let metrics = rm.metrics();
            prop_assert_eq!(metrics.live_containers, 0);
            prop_assert_eq!(metrics.active_applications, 0);
            prop_assert_eq!(metrics.used, Resource::zero());
        }
    }
}
