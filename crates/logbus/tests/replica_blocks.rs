//! Block replication against generated histories.
//!
//! A follower copies its leader's log range in blocks — one `memcpy` per
//! run of records that sit back to back in a leader arena chunk
//! (`Topic::append_range`) — where it used to re-materialise and
//! re-append every record. What that must not change is checked here
//! against the loop it replaced, kept below as the reference model
//! (`replay_record_by_record`): whatever the interleaving of leader
//! appends (keys, empty keys, every kind of spilled record, values just
//! under the spill limit so arena chunks fill within a few records),
//! follower copies (lagging by many appends, the same range twice, a
//! range reaching back over what the follower holds), divergence
//! truncations and leader changes, a replica fed by block copies is
//! indistinguishable from one fed record by record: same records at the
//! same offsets with the same stamps, same `stats()`, the same records
//! back to back in memory (so the same arena chunk boundaries), and it
//! packs the records appended afterwards alike.
//!
//! Schedules run on one thread over a `ManualClock`. A copy holds two
//! partition locks, and which replica leads changes during a history, so
//! under `--features check-sync` the `zzz_` gate additionally asserts the
//! lock-order graph stayed acyclic; CI runs this file with
//! `--test-threads=1` there.

use bytes::Bytes;
use logbus::{
    Acks, Clock, Cluster, ClusterConfig, Error, FaultPlan, ManualClock, Record, StoredRecord,
    Topic, TopicConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of a generated history.
#[derive(Debug, Clone)]
enum Op {
    /// The leader appends these records as one batch.
    Append(Vec<Record>),
    /// The follower copies everything it lacks, as one range starting
    /// this fraction (in 1/256ths) of the way into what it holds — 255
    /// is "where it ends", anything less reaches back over held records.
    Copy(u8),
    /// Every replica truncates to this fraction of the leader's log: the
    /// divergence repair of an election or a rejoin. The leader's arena
    /// keeps the dropped bytes, so later runs are not back to back.
    Truncate(u8),
    /// The follower becomes the leader; the old leader drops what the
    /// new one never got and follows it.
    Swap,
}

fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), len).prop_map(Bytes::from)
}

/// Every shape of record a segment tells apart. The first four pack into
/// the arena; the rest spill.
fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        arb_bytes(1..200).prop_map(Record::from_value),
        (arb_bytes(0..40), arb_bytes(0..200)).prop_map(|(k, v)| Record::from_key_value(k, v)),
        arb_bytes(0..3).prop_map(|v| Record::from_key_value(Bytes::new(), v)),
        // Just under the 16 KiB spill limit: a 64 KiB chunk takes four.
        (12_000usize..16_000).prop_map(|n| Record::from_value(vec![n as u8; n])),
        Just(Record::from_value(Bytes::from_static(b"static payload"))),
        (16_380usize..16_400).prop_map(|n| Record::from_key_value(vec![1u8; 8], vec![2u8; n - 8])),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(arb_record(), 1..40).prop_map(Op::Append),
        prop::collection::vec(arb_record(), 1..40).prop_map(Op::Append),
        prop::collection::vec(arb_bytes(60..140).prop_map(Record::from_value), 100..400)
            .prop_map(Op::Append),
        Just(Op::Copy(255)),
        Just(Op::Copy(255)),
        any::<u8>().prop_map(Op::Copy),
        any::<u8>().prop_map(Op::Truncate),
        Just(Op::Swap),
    ]
}

/// A replica's log beside its reference: a second log that is only ever
/// appended to record by record.
struct Replica {
    log: Topic,
    reference: Topic,
}

impl Replica {
    fn new() -> Self {
        Replica {
            log: Topic::new("t", TopicConfig::default()).unwrap(),
            reference: Topic::new("t", TopicConfig::default()).unwrap(),
        }
    }

    fn end(&self) -> u64 {
        self.log.latest_offset(0).unwrap()
    }

    fn records(topic: &Topic) -> Vec<StoredRecord> {
        topic.read(0, 0, usize::MAX).unwrap()
    }

    /// The log and its reference cannot be told apart from outside.
    fn check(&self, step: usize) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.log.stats(0),
            self.reference.stats(0),
            "stats after step {}",
            step
        );
        let (log, reference) = (Self::records(&self.log), Self::records(&self.reference));
        prop_assert!(log == reference, "records after step {step}");
        prop_assert!(
            Self::back_to_back(&log) == Self::back_to_back(&reference),
            "arena chunk boundaries after step {step}"
        );
        Ok(())
    }

    /// For each record but the first, whether its value starts where the
    /// record before it ends in memory: true inside an arena chunk,
    /// false across chunks and around spilled records.
    fn back_to_back(records: &[StoredRecord]) -> Vec<bool> {
        let end = |r: &StoredRecord| {
            let last = r.key().unwrap_or(r.value());
            last.as_ptr() as usize + last.len()
        };
        records
            .windows(2)
            .map(|pair| end(&pair[0]) == pair[1].value().as_ptr() as usize)
            .collect()
    }
}

/// The follower path this file's subject replaced, kept as the model:
/// every leader record, one by one, skipping what the replica holds,
/// refusing a gap. The stamp passed as the clock reading is the stamp
/// stored, as leader stamps never decrease.
fn replay_record_by_record(replica: &Topic, records: &[StoredRecord]) {
    for stored in records {
        let next = replica.latest_offset(0).unwrap();
        if stored.offset < next {
            continue;
        }
        assert_eq!(stored.offset, next, "replica copy must be contiguous");
        replica
            .append(0, stored.record.clone(), stored.timestamp)
            .unwrap();
    }
}

proptest! {
    #[test]
    fn block_copies_match_record_by_record_replay(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let clock = ManualClock::new(1);
        let mut leader = Replica::new();
        let mut follower = Replica::new();
        // What the leader was given, by offset: the model of the log.
        let mut model: Vec<StoredRecord> = Vec::new();
        let copy = |leader: &Replica, follower: &Replica, from: u64| -> Result<(), TestCaseError> {
            let (held, to) = (follower.end(), leader.end());
            let copied = follower.log.append_range(0, &leader.log, from, to);
            if from >= to {
                prop_assert_eq!(copied, Ok(0), "an empty range copies nothing");
            } else {
                prop_assert_eq!(copied, Ok(to - held));
                let range = leader.log.read(0, held, (to - held) as usize).unwrap();
                replay_record_by_record(&follower.reference, &range);
            }
            Ok(())
        };
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Append(records) => {
                    // One `LogAppendTime` stamp per batch; the clock only
                    // moves forward, so it is the reading itself.
                    let now = clock.now();
                    for record in &records {
                        model.push(StoredRecord {
                            offset: model.len() as u64,
                            timestamp: now,
                            record: record.clone(),
                        });
                    }
                    leader.reference.append_batch(0, records.clone(), now).unwrap();
                    leader.log.append_batch(0, records, now).unwrap();
                }
                Op::Copy(back) => {
                    let from = follower.end() * u64::from(back) / 255;
                    copy(&leader, &follower, from)?;
                    // The same range again: everything is held.
                    prop_assert_eq!(
                        follower.log.append_range(0, &leader.log, from, leader.end()).ok(),
                        (follower.end() == leader.end() || from >= leader.end()).then_some(0)
                    );
                }
                Op::Truncate(frac) => {
                    let to = leader.end() * u64::from(frac) / 255;
                    for replica in [&leader, &follower] {
                        replica.log.truncate_to(0, to).unwrap();
                        replica.reference.truncate_to(0, to).unwrap();
                    }
                    model.truncate(leader.end() as usize);
                }
                Op::Swap => {
                    let to = follower.end();
                    leader.log.truncate_to(0, to).unwrap();
                    leader.reference.truncate_to(0, to).unwrap();
                    model.truncate(leader.end() as usize);
                    std::mem::swap(&mut leader, &mut follower);
                }
            }
            leader.check(step)?;
            follower.check(step)?;
            // The follower ends inside the leader's log...
            prop_assert!(follower.end() <= leader.end());
            // ...and both hold what the model says, offset for offset.
            for replica in [&leader, &follower] {
                let held = Replica::records(&replica.log);
                prop_assert!(
                    held[..] == model[..held.len()],
                    "records differ from the model after step {step}"
                );
            }
        }
        // A caught-up follower's records outlive the leader they were
        // copied from: a block copy shares no storage with its source.
        copy(&leader, &follower, follower.end())?;
        let fetched = Replica::records(&follower.log);
        drop(leader);
        prop_assert!(fetched[..] == model[..fetched.len()]);
        // The last arena chunk is as full as the reference's: both pack
        // the records appended from here on alike.
        for i in 0..40 {
            let record = Record::from_value(vec![7u8; 30]);
            let now = clock.now();
            follower.reference.append(0, record.clone(), now).unwrap();
            follower.log.append(0, record, now).unwrap();
            follower.check(1_000 + i)?;
        }
    }
}

/// A three-broker cluster, topic `t` replicated on all of them.
fn cluster() -> Cluster {
    let cluster = Cluster::with_clock(ClusterConfig { brokers: 3 }, Arc::new(ManualClock::new(1)));
    let config = TopicConfig::default().replication_factor(3);
    cluster.create_topic("t", config).unwrap();
    cluster
}

fn batch(round: u64, records: u64) -> Vec<Record> {
    (0..records)
        .map(|i| Record::from_value(format!("round-{round}-record-{i}").into_bytes()))
        .collect()
}

/// Every broker's copy of `t`, which must equal the first's.
fn assert_replicas_agree(cluster: &Cluster, records: usize) {
    let logs: Vec<Vec<StoredRecord>> = (0..3)
        .map(|b| cluster.broker(b).fetch("t", 0, 0, usize::MAX).unwrap())
        .collect();
    assert_eq!(logs[0].len(), records);
    for (b, log) in logs.iter().enumerate() {
        assert!(log == &logs[0], "broker {b} differs from broker 0");
        assert_eq!(
            cluster.broker(b).topic("t").unwrap().stats(0),
            cluster.broker(0).topic("t").unwrap().stats(0),
            "broker {b}"
        );
    }
}

#[test]
fn a_killed_follower_catches_up_in_one_range() {
    let cluster = cluster();
    let leader = cluster.leader_of("t", 0).unwrap();
    let follower = (leader + 1) % 3;
    cluster.produce_batch("t", 0, batch(0, 100)).unwrap();
    cluster.kill_broker(follower);
    for round in 1..=20 {
        cluster.produce_batch("t", 0, batch(round, 100)).unwrap();
    }
    assert_eq!(
        cluster
            .broker(follower)
            .topic("t")
            .unwrap()
            .latest_offset(0),
        Ok(100),
        "a dead follower copies nothing"
    );
    cluster.restart_broker(follower);
    // One produce later it holds the twenty rounds it missed and the new
    // one.
    cluster.produce_batch("t", 0, batch(21, 100)).unwrap();
    assert_replicas_agree(&cluster, 2_200);
}

#[test]
fn a_lagging_follower_holds_the_watermark_then_catches_up() {
    let cluster = cluster();
    let leader = cluster.leader_of("t", 0).unwrap();
    let follower = (leader + 2) % 3;
    // The follower fails every replication fetch: alive and in sync, but
    // stuck where it is.
    let mut plan = FaultPlan::seeded(7);
    plan.produce_error = 1.0;
    plan.fetch_error = 0.0;
    plan.metadata_error = 0.0;
    plan.ack_loss = 0.0;
    plan.duplicate = 0.0;
    plan.extra_latency = 0.0;
    plan.max_consecutive = u32::MAX;
    cluster.broker(follower).install_fault_plan(plan);
    let writer = cluster
        .partition_writer("t", 0)
        .unwrap()
        .with_acks(Acks::Leader);
    for round in 0..10 {
        writer.produce_batch(batch(round, 100)).unwrap();
    }
    assert_eq!(cluster.high_watermark_of("t", 0), Ok(0));
    cluster.broker(follower).clear_fault_plan();
    // Read repair copies the whole backlog as one range.
    assert_eq!(cluster.latest_offset("t", 0), Ok(1_000));
    assert_replicas_agree(&cluster, 1_000);
}

#[test]
fn a_follower_out_of_step_lags_instead_of_panicking() {
    let cluster = cluster();
    let leader = cluster.leader_of("t", 0).unwrap();
    let follower = (leader + 1) % 3;
    cluster.produce_batch("t", 0, batch(0, 10)).unwrap();
    // Behind the cluster's back the follower loses its tail: the next
    // range starts past its end. The per-record path asserted here.
    cluster
        .broker(follower)
        .topic("t")
        .unwrap()
        .truncate_to(0, 5)
        .unwrap();
    assert!(matches!(
        cluster.produce_batch("t", 0, batch(1, 10)),
        Err(Error::RequestTimedOut)
    ));
    assert_eq!(
        cluster.high_watermark_of("t", 0),
        Ok(10),
        "the misaligned follower holds the watermark back"
    );
    // And the same with a record it should not have.
    let other = (leader + 2) % 3;
    cluster
        .broker(other)
        .produce("t", 0, Record::from_value("stray"))
        .unwrap();
    cluster
        .broker(other)
        .produce("t", 0, Record::from_value("stray"))
        .unwrap();
    let other_end = cluster.broker(other).topic("t").unwrap().latest_offset(0);
    let writer = cluster
        .partition_writer("t", 0)
        .unwrap()
        .with_acks(Acks::Leader);
    assert!(writer.produce(Record::from_value("x")).is_ok());
    assert_eq!(
        cluster.broker(other).topic("t").unwrap().latest_offset(0),
        other_end,
        "nothing is copied onto a replica that is ahead of the range"
    );
}

/// End-of-suite gate for the `check-sync` build: a copy takes the
/// leader's partition lock shared and the follower's exclusive, and
/// every history above changed leaders, so both roles were played by
/// every log. The lock-order graph must still be acyclic. Named `zzz_`
/// so libtest's alphabetical order runs it last (CI passes
/// `--test-threads=1`).
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_replica_blocks() {
    parking_lot::sync_check::assert_clean("logbus replica block suite");
    println!("{}", parking_lot::sync_check::report());
}
