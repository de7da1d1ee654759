//! The one read drive against generated histories.
//!
//! Every engine connector reads through `GroupedReader::next_batch`, so
//! what must hold for *it* holds for all four: whatever the interleaving
//! of appends, reads by two members, a member joining and a member
//! leaving, the group delivers each partition exactly once and in offset
//! order across every handover, a bounded member never passes the ends
//! it captured at its join and finishes only once the group is at them,
//! and a follow group stops at its shared target to the record.
//!
//! Schedules run on one thread, so they step the drive with
//! `try_next_batch` — `next_batch` is that pass plus the wait — against a
//! `Vec` model of what was appended. The bus is one more generated input:
//! a `Broker` or a 3-broker `Cluster`, both on a `ManualClock`, so the
//! cluster's coordinator gate and committed reads run the same histories. Under `--features check-sync` the
//! `zzz_` gate additionally asserts the lock-order graph stayed acyclic;
//! CI runs this file with `--test-threads=1` there.

use logbus::{
    Broker, BusHandle, Cluster, ClusterConfig, FollowTarget, GroupedReader, ManualClock, Record,
    TopicConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

const GROUP: &str = "history";

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append `count` records to `partition` (modulo the topic's count).
    Append { partition: u32, count: u64 },
    /// One drive pass of member A (`b == false`) or B with this cap; a
    /// no-op while that member is not in the group.
    Read { b: bool, cap: usize },
    /// B joins the group; a no-op while it is a member.
    Join,
    /// B leaves mid-read; a no-op while it is not a member.
    Leave,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..10, 0u32..4, 1u64..9).prop_map(|(pick, partition, n)| match pick {
        0..=2 => Op::Append {
            partition,
            count: n,
        },
        3..=5 => Op::Read {
            b: false,
            cap: n as usize,
        },
        6..=7 => Op::Read {
            b: true,
            cap: n as usize,
        },
        8 => Op::Join,
        _ => Op::Leave,
    });
    prop::collection::vec(op, 1..80)
}

/// A group member and the offsets it may not pass: the model's partition
/// lengths at its join for a bounded member, no limit for a follower.
struct Member {
    reader: GroupedReader,
    line: Vec<u64>,
}

/// The bus under test next to the model of what it was given.
struct History {
    bus: BusHandle,
    /// `Some`: follow mode, every member sharing this finish line.
    target: Option<(u64, FollowTarget)>,
    /// Model: the values appended to each partition, in order.
    log: Vec<Vec<u64>>,
    /// How many records of each partition the group has delivered.
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
        for _ in 0..count {
            let value = self.appended();
            let record = Record::from_value(value.to_le_bytes().to_vec());
            self.bus
                .produce_batch("t", partition, vec![record])
                .unwrap();
            self.log[partition as usize].push(value);
        }
    }

    fn join(&self) -> Member {
        let bus = self.bus.clone();
        match &self.target {
            Some((_, target)) => Member {
                reader: GroupedReader::following(bus, "t", GROUP, target.clone()).unwrap(),
                line: vec![u64::MAX; self.log.len()],
            },
            None => Member {
                reader: GroupedReader::bounded(bus, "t", GROUP).unwrap(),
                line: self.log.iter().map(|p| p.len() as u64).collect(),
            },
        }
    }

    /// One drive pass of `member`, checked against the model. Returns
    /// whether the member is still reading.
    fn read(&mut self, member: &mut Member, cap: usize) -> Result<bool, TestCaseError> {
        let mut batch = Vec::new();
        let step = member.reader.try_next_batch(cap, &mut |partition, stored| {
            batch.push((partition as usize, stored.offset, stored.record.value));
        });
        prop_assert_eq!(step.unwrap_or(0), batch.len());
        prop_assert!(
            batch.len() <= cap,
            "{} delivered over a cap of {cap}",
            batch.len()
        );
        for (p, offset, value) in batch {
            // The next offset of its partition, whoever read the one
            // before: nothing skipped, nothing twice, in order.
            prop_assert_eq!(offset, self.delivered[p], "partition {p} out of sequence");
            prop_assert_eq!(&value[..], &self.log[p][offset as usize].to_le_bytes()[..]);
            prop_assert!(
                offset < member.line[p],
                "partition {p} read past the join's end"
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
        // Finished: the *group* is at this member's finish line.
        match &self.target {
            Some((target, _)) => prop_assert_eq!(total, *target),
            None => {
                for (p, line) in member.line.iter().enumerate() {
                    prop_assert!(
                        self.delivered[p] >= *line,
                        "finished short on partition {p}"
                    );
                }
            }
        }
        Ok(false)
    }

    /// Runs `ops` with A a member from the start, then drives whoever is
    /// still reading to the finish line.
    fn run(&mut self, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut a = Some(self.join());
        let mut b: Option<Member> = None;
        for op in ops {
            match *op {
                Op::Append { partition, count } => self.append(partition, count),
                Op::Read { b: pick_b, cap } => {
                    let slot = if pick_b { &mut b } else { &mut a };
                    if let Some(member) = slot {
                        if !self.read(member, cap)? {
                            *slot = None;
                        }
                    }
                }
                Op::Join if b.is_none() => b = Some(self.join()),
                Op::Leave => {
                    if let Some(mut member) = b.take() {
                        member.reader.leave().unwrap();
                    }
                }
                Op::Join => {}
            }
        }
        // A follow read needs its target on the topic to finish.
        if let Some((target, _)) = &self.target {
            let missing = target.saturating_sub(self.appended());
            self.append(0, missing);
        }
        let mut live: Vec<Member> = a.into_iter().chain(b).collect();
        let mut rounds = 0;
        while !live.is_empty() {
            rounds += 1;
            prop_assert!(rounds < 10_000, "the group never reached its finish line");
            let mut still = Vec::new();
            for mut member in live {
                if self.read(&mut member, 7)? {
                    still.push(member);
                }
            }
            live = still;
        }
        Ok(())
    }
}

proptest! {
    /// Bounded: records appended before A's join are its finish line;
    /// later appends belong only to members that join after them.
    #[test]
    fn bounded_group_delivers_exactly_once_up_to_the_captured_ends(
        preload in prop::collection::vec(0u64..20, 1..5),
        ops in arb_ops(),
        cluster in any::<bool>(),
    ) {
        let mut history = History::new(cluster, preload.len() as u32, None);
        for (partition, count) in preload.iter().enumerate() {
            history.append(partition as u32, *count);
        }
        history.run(&ops)?;
    }

    /// Follow: A and B count towards one shared target and stop at it.
    #[test]
    fn follow_group_delivers_exactly_once_and_stops_at_the_target(
        partitions in 1u32..5,
        target in 1u64..120,
        ops in arb_ops(),
        cluster in any::<bool>(),
    ) {
        let mut history = History::new(cluster, partitions, Some(target));
        history.run(&ops)?;
        prop_assert_eq!(history.delivered.iter().sum::<u64>(), target);
    }
}

/// End-of-suite gate for the `check-sync` build (see `chaos.rs`): named
/// `zzz_` so it runs last under `--test-threads=1`.
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_grouped_reader() {
    parking_lot::sync_check::assert_clean("logbus grouped_reader suite");
    println!("{}", parking_lot::sync_check::report());
}
