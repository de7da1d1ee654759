//! A pinned fault schedule for the group path.
//!
//! Offset commits, handle resolution and offset lookups all draw from a
//! topic-partition's one `Metadata` fault stream, so how many requests
//! the group path makes, and in which order, decides which of them a
//! seeded [`FaultPlan`] fails. Two `GroupedReader`s over a 3-partition
//! topic — A alone for three passes, then B joins and they alternate —
//! are stepped on one thread with `try_next_batch` under
//! `FaultPlan::seeded(2019)` with a raised metadata error rate. Pinned
//! are the records every pass delivered from each partition, the final
//! committed offset of every partition, and where the run left each
//! broker's metadata streams: a probe of sixteen unretried offset
//! lookups per partition afterwards, which fail exactly where the streams
//! inject. Retries hide most faults from the delivery schedule, so the
//! probe is what catches a group path that adds, drops or reorders a
//! gated request.

use logbus::{
    Broker, BusHandle, Cluster, ClusterConfig, FaultPlan, GroupedReader, Record, TopicConfig,
};

const GROUP: &str = "pinned";
const LOAD: [u64; 3] = [40, 25, 33];

/// The pinned schedule's metadata error rate.
const METADATA_ERROR: f64 = 0.3;

fn plan(metadata_error: f64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(2019);
    plan.metadata_error = metadata_error;
    plan
}

/// One pass: the member, and the records it delivered from each
/// partition — `None` once the member finished.
type Pass = (char, Option<[usize; 3]>);

/// What one run observed: every pass, the committed offset of each
/// partition, and per broker and partition the probe's outcomes (`.` an
/// answer, `x` an injected fault).
type Observed = (Vec<Pass>, Vec<Option<u64>>, Vec<String>);

/// One `try_next_batch` of `reader`, counted per partition.
fn step(name: char, reader: &mut GroupedReader) -> Pass {
    let mut counts = [0usize; 3];
    let step = reader.try_next_batch(9, &mut |p, _stored| counts[p as usize] += 1);
    (name, step.map(|_| counts))
}

/// Loads the topic fault-free, installs the plan with `metadata_error` on
/// `brokers` (the bus's brokers), steps the two readers to the finish
/// line, then probes.
fn drive(bus: BusHandle, brokers: &[&Broker], metadata_error: f64) -> Observed {
    bus.create_topic("t", TopicConfig::default().partitions(3))
        .unwrap();
    for (partition, count) in LOAD.iter().enumerate() {
        for i in 0..*count {
            let value = format!("p{partition}-{i}");
            bus.produce_batch("t", partition as u32, vec![Record::from_value(value)])
                .unwrap();
        }
    }
    for broker in brokers {
        broker.install_fault_plan(plan(metadata_error));
    }
    let mut passes = Vec::new();
    let mut a = GroupedReader::bounded(bus.clone(), "t", GROUP).unwrap();
    for _ in 0..3 {
        passes.push(step('a', &mut a));
    }
    let mut b = GroupedReader::bounded(bus.clone(), "t", GROUP).unwrap();
    let (mut a_live, mut b_live) = (true, true);
    while a_live || b_live {
        if a_live {
            let pass = step('a', &mut a);
            a_live = pass.1.is_some();
            passes.push(pass);
        }
        if b_live {
            let pass = step('b', &mut b);
            b_live = pass.1.is_some();
            passes.push(pass);
        }
        assert!(passes.len() < 500, "the group never finished");
    }
    let committed = (0..3)
        .map(|p| bus.committed_offset(GROUP, "t", p))
        .collect();
    let probes = brokers
        .iter()
        .flat_map(|broker| (0..3).map(move |p| (broker, p)))
        .map(|(broker, p)| {
            let outcome = |_| {
                if broker.latest_offset("t", p).is_ok() {
                    '.'
                } else {
                    'x'
                }
            };
            (0..16).map(outcome).collect()
        })
        .collect();
    (passes, committed, probes)
}

/// The cluster's delivery schedule: A alone, then B takes partition 2
/// over while A finishes 0 and 1.
fn pinned_passes() -> Vec<Pass> {
    vec![
        ('a', Some([9, 0, 0])),
        ('a', Some([9, 0, 0])),
        ('a', Some([9, 0, 0])),
        ('a', Some([9, 0, 0])),
        ('b', Some([0, 0, 9])),
        ('a', Some([4, 5, 0])),
        ('b', Some([0, 0, 9])),
        ('a', Some([0, 9, 0])),
        ('b', Some([0, 0, 9])),
        ('a', Some([0, 9, 0])),
        ('b', Some([0, 0, 6])),
        ('a', Some([0, 2, 0])),
        ('b', None),
        ('a', None),
    ]
}

const PINNED_COMMITS: [Option<u64>; 3] = [Some(40), Some(25), Some(33)];

/// The single broker's delivery schedule. A's first two passes resolve
/// no reader: each fails inside `on_assign`, hands its claim back and
/// delivers nothing. Then the cluster's shape follows, with B's takeover
/// of partition 2 two passes later.
fn pinned_broker_passes() -> Vec<Pass> {
    vec![
        ('a', Some([0, 0, 0])),
        ('a', Some([0, 0, 0])),
        ('a', Some([9, 0, 0])),
        ('a', Some([9, 0, 0])),
        ('b', Some([0, 0, 9])),
        ('a', Some([9, 0, 0])),
        ('b', Some([0, 0, 9])),
        ('a', Some([9, 0, 0])),
        ('b', Some([0, 0, 9])),
        ('a', Some([4, 5, 0])),
        ('b', Some([0, 0, 6])),
        ('a', Some([0, 9, 0])),
        ('b', Some([0, 0, 0])),
        ('a', Some([0, 9, 0])),
        ('b', Some([0, 0, 0])),
        ('a', Some([0, 2, 0])),
        ('b', None),
        ('a', None),
    ]
}

#[test]
fn broker_group_path_replays_its_fault_schedule() {
    let broker = Broker::new();
    let (passes, committed, probes) = drive((&broker).into(), &[&broker], METADATA_ERROR);
    assert_eq!(passes, pinned_broker_passes());
    assert_eq!(committed, PINNED_COMMITS);
    assert_eq!(
        probes,
        [".x.......x.x....", "....x....x..x...", "x........xxx..x."]
    );
}

#[test]
fn cluster_group_path_replays_its_fault_schedule() {
    // Commits gate on the coordinator (broker 0, the first live one);
    // each partition's lookups and fetches on its leader.
    let cluster = Cluster::new(ClusterConfig { brokers: 3 });
    let brokers = [cluster.broker(0), cluster.broker(1), cluster.broker(2)];
    let (passes, committed, probes) = drive((&cluster).into(), &brokers, METADATA_ERROR);
    assert_eq!(passes, pinned_passes());
    assert_eq!(committed, PINNED_COMMITS);
    let pinned = [
        "..xx..x.......x.",
        ".......x....x..x",
        "..xx........xxx.",
        ".x....x....x.xx.",
        ".x.xx.x..x.x....",
        "..xx..x...x.....",
        ".x....x....x.xx.",
        "x.xx..x.xx.x..x.",
        "...x.......xx...",
    ];
    assert_eq!(probes, pinned);
}

#[test]
fn failed_assignment_releases_its_claim() {
    // At this rate a pass's `on_assign` fails after the coordinator
    // granted the claim. The member must hand that claim back, or a later
    // retarget never releases the partition and both readers stall.
    let broker = Broker::new();
    let (passes, committed, _) = drive((&broker).into(), &[&broker], 0.5);
    let finished: Vec<char> = passes
        .iter()
        .filter(|(_, counts)| counts.is_none())
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(finished.len(), 2, "each reader finishes once: {passes:?}");
    let delivered =
        passes
            .iter()
            .filter_map(|(_, counts)| *counts)
            .fold([0usize; 3], |mut sum, counts| {
                for (s, c) in sum.iter_mut().zip(counts) {
                    *s += c;
                }
                sum
            });
    assert_eq!(delivered, LOAD.map(|n| n as usize));
    assert_eq!(committed, PINNED_COMMITS);
}
