//! The one read drive against generated histories.
//!
//! Every engine connector reads through `TopicReader::next_batch`, so
//! what must hold for *it* holds for all four: whatever the interleaving
//! of appends and of reads by `p` readers over a topic's partitions,
//! reader `i` delivers only the partitions `{j : j mod p = i}`, each in
//! offset order, so the readers' outputs are disjoint; together they
//! deliver exactly the model — up to the ends at their start when
//! bounded, up to the shared target to the record when following; and a
//! reader that owns no partition finishes on its first call.
//!
//! Schedules run on one thread, so they step the drive with
//! `try_next_batch` — `next_batch` is that pass plus the wait — against a
//! `Vec` model of what was appended. The bus is one more generated input:
//! a `Broker` or a 3-broker `Cluster`, both on a `ManualClock`, so the
//! cluster's routed committed reads run the same histories. Under
//! `--features check-sync` the `zzz_` gate additionally asserts the
//! lock-order graph stayed acyclic; CI runs this file with
//! `--test-threads=1` there.

use logbus::{
    Broker, BusHandle, Cluster, ClusterConfig, FollowTarget, ManualClock, Record, TopicConfig,
    TopicReader,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append `count` records to `partition` (modulo the topic's count).
    Append { partition: u32, count: u64 },
    /// One drive pass of reader `reader` (modulo the reader count) with
    /// this cap; a no-op once that reader has finished.
    Read { reader: usize, cap: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..10, 0u32..4, 1u64..9).prop_map(|(pick, index, n)| match pick {
        0..=3 => Op::Append {
            partition: index,
            count: n,
        },
        _ => Op::Read {
            reader: index as usize,
            cap: n as usize,
        },
    });
    prop::collection::vec(op, 1..80)
}

/// One reader, the offsets it may not pass — the model's partition
/// lengths at its start for a bounded read, no limit for a follower —
/// and whether it has been stepped yet.
struct Reader {
    reader: TopicReader,
    line: Vec<u64>,
    stepped: bool,
}

/// The bus under test next to the model of what it was given.
struct History {
    bus: BusHandle,
    /// `Some`: follow mode, every reader sharing this finish line.
    target: Option<(u64, FollowTarget)>,
    /// Model: the values appended to each partition, in order.
    log: Vec<Vec<u64>>,
    /// How many records of each partition the readers have delivered.
    delivered: Vec<u64>,
}

impl History {
    fn new(cluster: bool, partitions: u32, target: Option<u64>) -> Self {
        let clock = Arc::new(ManualClock::new(0));
        let bus: BusHandle = if cluster {
            Cluster::with_clock(ClusterConfig { brokers: 3 }, clock).into()
        } else {
            Broker::with_clock(clock).into()
        };
        bus.create_topic("t", TopicConfig::default().partitions(partitions))
            .unwrap();
        History {
            bus,
            target: target.map(|records| (records, FollowTarget::new(records))),
            log: vec![Vec::new(); partitions as usize],
            delivered: vec![0; partitions as usize],
        }
    }

    fn appended(&self) -> u64 {
        self.log.iter().map(|p| p.len() as u64).sum()
    }

    fn append(&mut self, partition: u32, count: u64) {
        let partition = partition % self.log.len() as u32;
        let writer = self.bus.partition_writer("t", partition).unwrap();
        for _ in 0..count {
            let value = self.appended();
            let record = Record::from_value(value.to_le_bytes().to_vec());
            writer.produce(record).unwrap();
            self.log[partition as usize].push(value);
        }
    }

    fn start(&self, subtask: usize, parallelism: usize) -> Reader {
        let bus = self.bus.clone();
        let (reader, line) = match &self.target {
            Some((_, target)) => (
                TopicReader::following(bus, "t", subtask, parallelism, target.clone()),
                vec![u64::MAX; self.log.len()],
            ),
            None => (
                TopicReader::bounded(bus, "t", subtask, parallelism),
                self.log.iter().map(|p| p.len() as u64).collect(),
            ),
        };
        Reader {
            reader: reader.unwrap(),
            line,
            stepped: false,
        }
    }

    /// One drive pass of reader `subtask` of `parallelism`, checked
    /// against the model. Returns whether the reader is still reading.
    fn read(
        &mut self,
        reader: &mut Reader,
        subtask: usize,
        parallelism: usize,
        cap: usize,
    ) -> Result<bool, TestCaseError> {
        let mut batch = Vec::new();
        let step = reader.reader.try_next_batch(cap, &mut |partition, stored| {
            batch.push((partition as usize, stored.offset, stored.record.value));
        });
        let first = !std::mem::replace(&mut reader.stepped, true);
        if first && subtask >= self.log.len() {
            prop_assert!(step.is_none(), "reader {subtask} owns nothing yet read on");
        }
        prop_assert_eq!(step.unwrap_or(0), batch.len());
        prop_assert!(
            batch.len() <= cap,
            "{} delivered over a cap of {cap}",
            batch.len()
        );
        for (p, offset, value) in batch {
            prop_assert_eq!(
                p % parallelism,
                subtask,
                "reader {subtask} read partition {p}"
            );
            // The next offset of its partition: nothing skipped, nothing
            // twice, in order.
            prop_assert_eq!(offset, self.delivered[p], "partition {p} out of sequence");
            prop_assert_eq!(&value[..], &self.log[p][offset as usize].to_le_bytes()[..]);
            prop_assert!(
                offset < reader.line[p],
                "partition {p} read past the ends at start"
            );
            self.delivered[p] += 1;
        }
        let total: u64 = self.delivered.iter().sum();
        if let Some((target, _)) = &self.target {
            prop_assert!(
                total <= *target,
                "{total} delivered over a target of {target}"
            );
        }
        if step.is_some() {
            return Ok(true);
        }
        // Finished: at this reader's finish line.
        match &self.target {
            Some((target, _)) if subtask < self.log.len() => prop_assert_eq!(total, *target),
            Some(_) => {}
            None => {
                for (p, line) in reader.line.iter().enumerate() {
                    if p % parallelism == subtask {
                        prop_assert_eq!(self.delivered[p], *line, "partition {p}");
                    }
                }
            }
        }
        Ok(false)
    }

    /// Starts `parallelism` readers, runs `ops`, then drives whoever is
    /// still reading to the finish line.
    fn run(&mut self, parallelism: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut readers: Vec<Option<Reader>> = (0..parallelism)
            .map(|subtask| Some(self.start(subtask, parallelism)))
            .collect();
        for op in ops {
            match *op {
                Op::Append { partition, count } => self.append(partition, count),
                Op::Read { reader, cap } => {
                    let subtask = reader % parallelism;
                    if let Some(mut reader) = readers[subtask].take() {
                        if self.read(&mut reader, subtask, parallelism, cap)? {
                            readers[subtask] = Some(reader);
                        }
                    }
                }
            }
        }
        // A follow read needs its target on the topic to finish.
        if let Some((target, _)) = &self.target {
            let missing = target.saturating_sub(self.appended());
            self.append(0, missing);
        }
        let mut rounds = 0;
        while readers.iter().any(Option::is_some) {
            rounds += 1;
            prop_assert!(rounds < 10_000, "the readers never reached the finish line");
            for (subtask, slot) in readers.iter_mut().enumerate() {
                if let Some(mut reader) = slot.take() {
                    if self.read(&mut reader, subtask, parallelism, 7)? {
                        *slot = Some(reader);
                    }
                }
            }
        }
        Ok(())
    }
}

proptest! {
    /// Bounded: the records on the topic at the readers' start are the
    /// finish line, and together the readers deliver exactly them.
    #[test]
    fn bounded_readers_split_the_ends_at_start_exactly_once(
        preload in prop::collection::vec(0u64..20, 1..5),
        parallelism in 1usize..4,
        ops in arb_ops(),
        cluster in any::<bool>(),
    ) {
        let mut history = History::new(cluster, preload.len() as u32, None);
        for (partition, count) in preload.iter().enumerate() {
            history.append(partition as u32, *count);
        }
        history.run(parallelism, &ops)?;
        prop_assert_eq!(history.delivered, preload);
    }

    /// Follow: the readers count towards one shared target and stop at it.
    #[test]
    fn following_readers_split_the_topic_and_stop_at_the_target(
        partitions in 1u32..5,
        parallelism in 1usize..4,
        target in 1u64..120,
        ops in arb_ops(),
        cluster in any::<bool>(),
    ) {
        let mut history = History::new(cluster, partitions, Some(target));
        history.run(parallelism, &ops)?;
        prop_assert_eq!(history.delivered.iter().sum::<u64>(), target);
    }
}

/// End-of-suite gate for the `check-sync` build (see `chaos.rs`): named
/// `zzz_` so it runs last under `--test-threads=1`.
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_topic_reader() {
    parking_lot::sync_check::assert_clean("logbus topic_reader suite");
    println!("{}", parking_lot::sync_check::report());
}
