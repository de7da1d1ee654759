//! Failover safety: the DESIGN.md §10 replication contract under broker
//! crashes, exercised end to end through the routed client tiers.
//!
//! The core property test is **seeded randomized** rather than
//! proptest-driven: the schedule interleaves produces with broker kills
//! and restarts, and a failing seed must replay byte-for-byte —
//! including the wall-clock-free election and truncation decisions — so
//! the schedule comes from an explicit SplitMix64 stream per fixed seed.
//!
//! Two invariants are asserted at every committed read and once more
//! after quiescence:
//!
//! 1. **No acked loss** — every record acknowledged under `Acks::All`
//!    survives every election, exactly once, in produce order.
//! 2. **No zombie reads** — committed reads never surface a record that
//!    was not produced through the client path (a deposed leader's
//!    unreplicated tail is truncated, never served), and never run past
//!    the high-watermark.

use logbus::{Acks, BusHandle, Cluster, ClusterConfig, Error, Record, RetryPolicy, TopicConfig};
use std::time::{Duration, Instant};

/// Deterministic schedule stream (Steele et al.'s SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// One produced record: its value and whether the produce was
/// acknowledged (`Err` leaves the outcome indeterminate — the record may
/// or may not have landed, but must never land twice).
struct Sent {
    value: u64,
    acked: bool,
}

fn decode(value: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(value);
    u64::from_le_bytes(bytes)
}

/// Asserts the committed log against the send history: it must be a
/// subsequence of the sends (no zombies, no reordering), contain every
/// acked send, and contain nothing twice.
fn assert_committed_log(committed: &[u64], sent: &[Sent], context: &str) {
    let mut cursor = committed.iter().peekable();
    for s in sent {
        if cursor.peek() == Some(&&s.value) {
            cursor.next();
        } else {
            assert!(
                !s.acked,
                "{context}: acked value {} lost or reordered (committed: {committed:?})",
                s.value
            );
        }
    }
    assert!(
        cursor.peek().is_none(),
        "{context}: committed log contains zombie records: {:?}",
        cursor.collect::<Vec<_>>()
    );
}

/// The seeded randomized failover safety property. Each seed drives a
/// fresh 3-broker cluster through ~150 interleaved produces, kills,
/// restarts, and committed-read checks; the cluster must never lose an
/// `Acks::All`-acked record nor surface a zombie write past the
/// high-watermark.
#[test]
fn seeded_random_kills_never_lose_acked_records_or_surface_zombies() {
    for &seed in &[2019u64, 97, 0xF417_0BE5, 0xDEAD_BEEF, 31_337, 8_675_309] {
        let mut rng = SplitMix64(seed);
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(3))
            .unwrap();
        let writer = cluster
            .partition_writer("t", 0)
            .unwrap()
            .idempotent()
            .with_acks(Acks::All)
            .with_retry(RetryPolicy::default());

        let mut alive = [true; 3];
        let mut sent: Vec<Sent> = Vec::new();
        let mut next_value = 0u64;

        for _ in 0..150 {
            match rng.below(100) {
                // Produce one record through the retrying idempotent
                // writer; a final error leaves it indeterminate.
                0..=54 => {
                    let value = next_value;
                    next_value += 1;
                    let acked = writer
                        .produce(Record::from_value(value.to_le_bytes().to_vec()))
                        .is_ok();
                    sent.push(Sent { value, acked });
                }
                // Kill a broker — but never the last one standing.
                55..=69 => {
                    let victim = rng.below(3) as usize;
                    if alive[victim] && alive.iter().filter(|&&a| a).count() > 1 {
                        cluster.kill_broker(victim);
                        alive[victim] = false;
                    }
                }
                // Restart a dead broker: it truncates its unreplicated
                // tail and rejoins as a catching-up follower.
                70..=84 => {
                    let victim = rng.below(3) as usize;
                    if !alive[victim] {
                        cluster.restart_broker(victim);
                        alive[victim] = true;
                    }
                }
                // Committed read: check both invariants mid-schedule. A
                // read can legitimately fail here (the only live broker
                // may be a catching-up ex-follower that cannot be
                // elected yet) — skip the check then; the final
                // quiescent read below never skips.
                _ => {
                    if let Ok(records) = cluster.fetch("t", 0, 0, sent.len() + 16) {
                        let hw = cluster.high_watermark_of("t", 0).unwrap();
                        let committed: Vec<u64> =
                            records.iter().map(|s| decode(&s.record.value)).collect();
                        assert!(
                            committed.len() as u64 <= hw,
                            "seed {seed}: committed read ran past the high-watermark"
                        );
                        assert_committed_log(&committed, &sent, &format!("seed {seed} (mid)"));
                    }
                }
            }
        }

        // Quiescence: restart everything, force one more fully-acked
        // produce so the in-sync set re-forms and the high-watermark
        // reaches the log end, then check the final committed log.
        for (broker, alive) in alive.iter().enumerate() {
            if !alive {
                cluster.restart_broker(broker);
            }
        }
        let value = next_value;
        writer
            .produce(Record::from_value(value.to_le_bytes().to_vec()))
            .unwrap();
        sent.push(Sent { value, acked: true });

        let committed: Vec<u64> = cluster
            .fetch("t", 0, 0, sent.len() + 16)
            .unwrap()
            .iter()
            .map(|s| decode(&s.record.value))
            .collect();
        assert_committed_log(&committed, &sent, &format!("seed {seed} (final)"));
        let acked = sent.iter().filter(|s| s.acked).count();
        assert!(
            committed.len() >= acked,
            "seed {seed}: {} committed < {acked} acked",
            committed.len()
        );
        assert!(
            cluster.leader_epoch("t", 0).unwrap() > 0 || sent.iter().all(|s| s.acked),
            "seed {seed}: schedule should have forced at least one election \
             unless it never failed a produce"
        );
    }
}

/// Satellite: the retry tier's **wall budget** is a hard ceiling. With
/// every broker dead no election can succeed, so a routed produce must
/// burn its budget and surface `RetriesExhausted` wrapping the
/// partition-offline error — and recover as soon as a broker returns.
#[test]
fn retry_wall_budget_exhausts_while_the_whole_cluster_is_down() {
    let cluster = Cluster::new(ClusterConfig { brokers: 2 });
    cluster
        .create_topic("t", TopicConfig::default().replication_factor(2))
        .unwrap();
    let budget = Duration::from_millis(15);
    let writer = cluster
        .partition_writer("t", 0)
        .unwrap()
        .with_acks(Acks::Leader)
        .with_retry(RetryPolicy {
            // Attempts must not be the binding constraint.
            max_retries: u32::MAX,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(500),
            timeout: budget,
            seed: 7,
        });
    writer.produce(Record::from_value("pre")).unwrap();

    cluster.kill_broker(0);
    cluster.kill_broker(1);
    let started = Instant::now();
    let err = writer.produce(Record::from_value("down")).unwrap_err();
    let elapsed = started.elapsed();
    match err {
        Error::RetriesExhausted { attempts, last } => {
            assert!(attempts > 1, "the budget must cover multiple attempts");
            assert!(
                matches!(*last, Error::PartitionOffline { .. } | Error::BrokerDown),
                "unexpected terminal error: {last}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    assert!(
        elapsed >= budget,
        "gave up after {elapsed:?}, before the {budget:?} wall budget was spent"
    );

    // Recovery: the brokers back up, the next produce goes through. The
    // timed-out record never landed (the leader died before any
    // append), so the log holds exactly "pre" and "back".
    cluster.restart_broker(0);
    cluster.restart_broker(1);
    writer.produce(Record::from_value("back")).unwrap();
    assert_eq!(cluster.latest_offset("t", 0).unwrap(), 2);
}

/// Satellite: the group commit-then-release handover survives the death
/// of the coordinator's broker mid-handover. Reader A consumes part of a
/// partitioned topic and commits; the coordinator broker is killed;
/// reader B joins through the surviving brokers (forcing A to commit and
/// release under the new coordinator); both drain. Nothing may be
/// consumed twice and no commit may be lost.
#[test]
fn group_handover_survives_coordinator_death() {
    const PARTITIONS: u32 = 4;
    const RECORDS: u64 = 200;
    let cluster = Cluster::new(ClusterConfig { brokers: 3 });
    cluster
        .create_topic(
            "t",
            TopicConfig::default()
                .partitions(PARTITIONS)
                .replication_factor(3),
        )
        .unwrap();
    for value in 0..RECORDS {
        cluster
            .produce(
                "t",
                (value % u64::from(PARTITIONS)) as u32,
                Record::from_value(value.to_le_bytes().to_vec()),
            )
            .unwrap();
    }
    let bus = BusHandle::from(&cluster);

    let mut seen: Vec<u64> = Vec::new();
    let mut reader_a = logbus::GroupedReader::bounded(bus.clone(), "t", "g").unwrap();
    assert_eq!(reader_a.owned_partitions(), PARTITIONS as usize);

    // A consumes part of its assignment and commits — these positions
    // must survive the coordinator's death.
    let consumed_before = reader_a.fetch_pass(40, &mut |_, stored| {
        seen.push(decode(&stored.record.value));
    });
    assert!(consumed_before > 0);
    reader_a.commit().unwrap();

    // The coordinator (first alive broker) dies mid-handover: group
    // state lives cluster-side, so the join below and A's
    // commit-then-release both proceed under the successor coordinator.
    cluster.kill_broker(0);

    let mut reader_b = logbus::GroupedReader::bounded(bus, "t", "g").unwrap();
    // A reconciles: commits and releases the partitions B now owns.
    reader_a.poll_rebalance().unwrap();
    let _ = reader_b.poll_rebalance().unwrap();
    assert_eq!(
        reader_a.owned_partitions() + reader_b.owned_partitions(),
        PARTITIONS as usize,
        "the group must split the topic, not overlap"
    );
    assert!(reader_b.owned_partitions() > 0, "B claimed nothing");

    // Both members drain to the bounded finish line.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !(reader_a.drained() && reader_b.drained()) {
        assert!(Instant::now() < deadline, "group never drained");
        let _ = reader_a.poll_rebalance();
        let _ = reader_b.poll_rebalance();
        reader_a.fetch_pass(64, &mut |_, stored| {
            seen.push(decode(&stored.record.value));
        });
        reader_b.fetch_pass(64, &mut |_, stored| {
            seen.push(decode(&stored.record.value));
        });
        // `drained` judges peers by their committed offsets, so both
        // members publish their progress each pass.
        let _ = reader_a.commit();
        let _ = reader_b.commit();
    }

    seen.sort_unstable();
    let expected: Vec<u64> = (0..RECORDS).collect();
    assert_eq!(
        seen, expected,
        "handover across coordinator death must be exactly-once"
    );
}

/// Kill-the-leader chaos phase: an idempotent producer and a committed
/// consumer ride through repeated leader kills and delayed restarts with
/// exactly-once, in-order output — the logbus-tier version of the
/// engine suite's kill-the-leader phase.
#[test]
fn producer_consumer_pipeline_rides_through_repeated_leader_kills() {
    const RECORDS: u64 = 400;
    let cluster = Cluster::new(ClusterConfig { brokers: 3 });
    cluster
        .create_topic("t", TopicConfig::default().replication_factor(3))
        .unwrap();
    let writer = cluster
        .partition_writer("t", 0)
        .unwrap()
        .idempotent()
        .with_acks(Acks::All)
        .with_retry(RetryPolicy::default());

    let mut pending_restart: Option<(usize, u64)> = None;
    for value in 0..RECORDS {
        // A killed leader stays down for the next 20 produces — the
        // cluster serves on the surviving in-sync replicas meanwhile —
        // then rejoins, truncates, and catches back up.
        if let Some((broker, due)) = pending_restart {
            if value >= due {
                cluster.restart_broker(broker);
                pending_restart = None;
            }
        }
        if value % 50 == 25 && pending_restart.is_none() {
            let leader = cluster.leader_of("t", 0).unwrap();
            cluster.kill_broker(leader);
            pending_restart = Some((leader, value + 20));
        }
        writer
            .produce(Record::from_value(value.to_le_bytes().to_vec()))
            .unwrap();
    }
    if let Some((broker, _)) = pending_restart {
        cluster.restart_broker(broker);
    }

    assert!(
        cluster.leader_epoch("t", 0).unwrap() > 0,
        "the kills must have forced elections"
    );
    let stored = cluster.fetch("t", 0, 0, RECORDS as usize + 16).unwrap();
    assert_eq!(stored.len() as u64, RECORDS, "exactly-once");
    for (i, s) in stored.iter().enumerate() {
        assert_eq!(s.offset, i as u64);
        assert_eq!(decode(&s.record.value), i as u64, "in order");
    }
}

/// End-of-suite gate for the `check-sync` build: the failover scenarios
/// above must leave the lock-order graph acyclic and every append
/// witness untripped. Named `zzz_` so libtest's alphabetical order runs
/// it last (CI passes `--test-threads=1`).
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_failover() {
    parking_lot::sync_check::assert_clean("logbus failover suite");
    println!("{}", parking_lot::sync_check::report());
}
