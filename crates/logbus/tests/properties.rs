//! Property-based tests for the broker's core invariants.

use logbus::{Broker, Cluster, ClusterConfig, ManualClock, Record, TopicConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..200)
}

proptest! {
    /// Offsets are dense and fetch returns exactly what was produced, in
    /// order, however the stream is split into produce requests.
    #[test]
    fn produce_fetch_roundtrip(
        payloads in arb_payloads(),
        batch_sizes in prop::collection::vec(1usize..64, 1..100),
    ) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("t", 0).unwrap();
        let mut rest = &payloads[..];
        let mut sizes = batch_sizes.iter().cycle();
        while !rest.is_empty() {
            let size = *sizes.next().unwrap();
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            let base = writer
                .produce_batch(batch.iter().cloned().map(Record::from_value).collect())
                .unwrap();
            prop_assert_eq!(base as usize, payloads.len() - rest.len(), "base offset of the batch");
            rest = tail;
        }

        let fetched = broker.fetch("t", 0, 0, payloads.len() + 10).unwrap();
        prop_assert_eq!(fetched.len(), payloads.len());
        for (i, (stored, sent)) in fetched.iter().zip(&payloads).enumerate() {
            prop_assert_eq!(stored.offset, i as u64);
            prop_assert_eq!(&stored.record.value[..], &sent[..]);
        }
    }

    /// LogAppendTime stamps never decrease along a partition.
    #[test]
    fn append_time_is_monotone(payloads in arb_payloads()) {
        let broker = Broker::with_clock(Arc::new(ManualClock::new(0)));
        broker.create_topic("t", TopicConfig::default()).unwrap();
        for p in &payloads {
            broker.produce("t", 0, Record::from_value(p.clone())).unwrap();
        }
        let fetched = broker.fetch("t", 0, 0, payloads.len()).unwrap();
        prop_assert!(fetched.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    /// A reader fetching with arbitrary read sizes from where it left
    /// off sees every record exactly once, in order.
    #[test]
    fn consumer_sees_everything_once(
        payloads in arb_payloads(),
        read_sizes in prop::collection::vec(1usize..50, 1..100),
    ) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        for p in &payloads {
            broker.produce("t", 0, Record::from_value(p.clone())).unwrap();
        }
        let reader = broker.partition_reader("t", 0).unwrap();
        let mut seen = Vec::new();
        let mut sizes = read_sizes.iter().cycle();
        while seen.len() < payloads.len() {
            let max = *sizes.next().unwrap();
            let appended = reader.fetch_into(seen.len() as u64, max, &mut seen).unwrap();
            prop_assert!(appended > 0, "fetch stalled before draining the topic");
            prop_assert!(appended <= max, "a fetch returns at most what was asked for");
        }
        prop_assert_eq!(seen.len(), payloads.len());
        for (i, stored) in seen.iter().enumerate() {
            prop_assert_eq!(stored.offset, i as u64);
            prop_assert_eq!(&stored.record.value[..], &payloads[i][..]);
        }
        prop_assert_eq!(reader.fetch_into(seen.len() as u64, 10, &mut seen).unwrap(), 0);
    }

    /// Replicated topics converge: every replica stores the same record
    /// sequence as the leader.
    #[test]
    fn replicas_converge(payloads in arb_payloads(), brokers in 2u32..5) {
        let cluster = Cluster::new(ClusterConfig { brokers });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(brokers))
            .unwrap();
        for p in &payloads {
            cluster.produce("t", 0, Record::from_value(p.clone())).unwrap();
        }
        let leader = cluster.leader_of("t", 0).unwrap();
        let reference = cluster.broker(leader).fetch("t", 0, 0, payloads.len()).unwrap();
        for b in 0..brokers as usize {
            let replica = cluster.broker(b).fetch("t", 0, 0, payloads.len()).unwrap();
            prop_assert_eq!(replica.len(), reference.len());
            for (x, y) in replica.iter().zip(&reference) {
                prop_assert_eq!(x.offset, y.offset);
                prop_assert_eq!(&x.record.value[..], &y.record.value[..]);
            }
        }
    }

    /// Interleaved append/fetch over recycled segment storage never
    /// aliases across records: views fetched in one round are pinned
    /// while deleted topics give their arena chunks back and later
    /// appends draw the same chunks and batch vectors out of the pools.
    /// Every pinned view must still hold the exact bytes it held when
    /// fetched.
    #[test]
    fn recycled_segment_buffers_never_alias_live_views(
        rounds in 4usize..20,
        batch in 1usize..32,
        payload_len in 1usize..160,
    ) {
        let broker = Broker::new();
        // (offset, snapshot at fetch time, live zero-copy view)
        let mut held: Vec<(u64, Vec<u8>, bytes::Bytes)> = Vec::new();
        let mut fetch_buffer = Vec::new();
        for round in 0..rounds {
            // A fresh topic every round, the last one deleted: its chunks
            // recycle unless a pinned view still holds them.
            let _ = broker.delete_topic("t");
            broker.create_topic("t", TopicConfig::default()).unwrap();
            let writer = broker.partition_writer("t", 0).unwrap();
            let reader = broker.partition_reader("t", 0).unwrap();
            let mut records = logbus::pool::record_vec();
            for i in 0..batch {
                // Distinct fill per record so aliasing is detectable.
                let fill = (round * 37 + i * 5 + 1) as u8;
                records.push(Record::from_value(vec![fill; payload_len]));
            }
            let base = writer.produce_batch_drain(&mut records).unwrap();
            logbus::pool::recycle_record_vec(records);
            fetch_buffer.clear();
            reader.fetch_into(base, batch, &mut fetch_buffer).unwrap();
            prop_assert_eq!(fetch_buffer.len(), batch);
            // Pin every other round's views; drop the rest so their
            // chunks actually return to the pool and get reused.
            if round % 2 == 0 {
                for stored in fetch_buffer.drain(..) {
                    held.push((
                        stored.offset,
                        stored.record.value.to_vec(),
                        stored.record.value,
                    ));
                }
            }
        }
        for (offset, snapshot, view) in &held {
            prop_assert_eq!(
                &view[..],
                &snapshot[..],
                "view at offset {} changed after segment recycling",
                offset
            );
        }
    }
}

proptest! {
    /// The key-hash placement rule is a pure function of the key: in
    /// range for any partition count and the same verdict every time —
    /// what `batch_equivalence`'s partitioned input load relies on when
    /// it routes with it.
    #[test]
    fn partition_for_key_is_in_range_and_deterministic(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..150),
        partitions in 1u32..32,
    ) {
        for key in &keys {
            let partition = logbus::partition_for_key(key, partitions);
            prop_assert!(partition < partitions);
            prop_assert_eq!(logbus::partition_for_key(&key.clone(), partitions), partition);
            prop_assert_eq!(logbus::partition_for_key(key, 1), 0);
            prop_assert_eq!(logbus::partition_for_key(key, 0), 0, "a zero count clamps to one");
        }
    }
}
