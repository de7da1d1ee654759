//! Every produce and fetch door is observed exactly once, and so is a
//! read that gives up; a bundle of one is one request and no thread
//! hand-off; a follower's copy of a produce round is a block or two, and
//! a topic's second life runs on its first life's memory.
//!
//! One test, alone in its binary: the obs registry is process-wide, so
//! exact counter deltas hold only when nothing else records.

use logbus::{
    AsyncProducer, Broker, BusHandle, Cluster, ClusterConfig, FollowTarget, Record, TopicConfig,
    TopicReader,
};

fn counter(name: &str) -> u64 {
    let snap = obs::global().registry().snapshot();
    snap.counters.get(name).copied().unwrap_or(0)
}

fn requests(name: &str) -> u64 {
    let snap = obs::global().registry().snapshot();
    snap.histograms.get(name).map_or(0, |h| h.count)
}

fn pair() -> Vec<Record> {
    vec![Record::from_value("a"), Record::from_value("b")]
}

/// Drives every door of `bus` once with a batch of two and checks each
/// moved the produce (or fetch) instruments by one request of two
/// records — a routed writer's `replicated_append` and a named call's
/// inner handle path must not count a second time.
fn each_door_counts_once(bus: &BusHandle, replication: u32) {
    bus.create_topic("t", TopicConfig::default().replication_factor(replication))
        .unwrap();
    let writer = bus.partition_writer("t", 0).unwrap();
    let reader = bus.partition_reader("t", 0).unwrap();
    let mut buffer = pair();
    let produce_doors: [&mut dyn FnMut(); 4] = [
        &mut || assert!(bus.produce_batch("t", 0, pair()).is_ok()),
        &mut || assert!(writer.produce_batch(pair()).is_ok()),
        &mut || assert!(writer.produce_batch_drain(&mut buffer).is_ok()),
        &mut || {
            writer.produce(Record::from_value("c")).unwrap();
            writer.produce(Record::from_value("d")).unwrap();
        },
    ];
    for (door, produce) in produce_doors.into_iter().enumerate() {
        let (records, calls) = (
            counter("logbus.produce.records"),
            requests("logbus.produce.micros"),
        );
        produce();
        assert_eq!(
            counter("logbus.produce.records") - records,
            2,
            "produce door {door} on {bus:?}"
        );
        // The last door is two single-record requests.
        let expected = if door == 3 { 2 } else { 1 };
        assert_eq!(
            requests("logbus.produce.micros") - calls,
            expected,
            "produce door {door} on {bus:?}"
        );
    }
    let mut out = Vec::new();
    let fetch_doors: [&mut dyn FnMut(); 4] = [
        &mut || assert_eq!(bus.fetch("t", 0, 0, 2).unwrap().len(), 2),
        &mut || assert_eq!(bus.fetch_into("t", 0, 0, 2, &mut Vec::new()).unwrap(), 2),
        &mut || assert_eq!(reader.fetch(0, 2).unwrap().len(), 2),
        &mut || assert_eq!(reader.fetch_into(0, 2, &mut out).unwrap(), 2),
    ];
    for (door, fetch) in fetch_doors.into_iter().enumerate() {
        let (records, calls) = (
            counter("logbus.fetch.records"),
            requests("logbus.fetch.micros"),
        );
        fetch();
        assert_eq!(
            counter("logbus.fetch.records") - records,
            2,
            "fetch door {door} on {bus:?}"
        );
        assert_eq!(
            requests("logbus.fetch.micros") - calls,
            1,
            "fetch door {door} on {bus:?}"
        );
    }
}

/// The stall exit of the one read drive: a read that reaches its finish
/// line leaves `logbus.reader.stalled` alone, one that gives up short of
/// it — here a follow read whose producer stopped a record early, which
/// takes the drive's whole 10 s stall window — counts exactly once.
fn stall_exit_counts_once(bus: &BusHandle) {
    let before = counter("logbus.reader.stalled");
    let mut clean = TopicReader::bounded(bus.clone(), "t", 0, 1).unwrap();
    while clean.next_batch(64, &mut |_, _| {}).is_some() {}
    assert_eq!(counter("logbus.reader.stalled"), before, "clean read");

    let short = bus.latest_offset("t", 0).unwrap() + 1;
    let target = FollowTarget::new(short);
    let mut stalled = TopicReader::following(bus.clone(), "t", 0, 1, target).unwrap();
    let mut seen = 0;
    while stalled.next_batch(64, &mut |_, _| seen += 1).is_some() {}
    assert_eq!(seen + 1, short, "everything but the missing record");
    assert_eq!(counter("logbus.reader.stalled"), before + 1, "stalled read");
}

/// A bundle of one costs one produce request on the calling thread and
/// wakes nobody — through `AsyncProducer::commit` itself, and through
/// `BrokerIO`'s write `ParDo` driven as the `apx` runner drives it. The
/// second loop is what fails if the write `DoFn` goes back to a `send`
/// per record, which wakes the parked sender thread every time.
fn bundle_of_one_is_one_request_and_no_wakeup(bus: &BusHandle) {
    const BUNDLES: u64 = 200;
    bus.create_topic("bundles", TopicConfig::default()).unwrap();
    let producer = AsyncProducer::new(bus.clone(), "bundles", 0);
    let mut bundle = Vec::new();
    let commits: &mut dyn FnMut() = &mut || {
        for _ in 0..BUNDLES {
            bundle.push(Record::from_value("a"));
            producer.commit(&mut bundle);
        }
    };

    let pipeline = beamline::Pipeline::new();
    pipeline
        .apply(beamline::Create::bytes(Vec::new()))
        .apply(beamline::BrokerIO::write(bus.clone(), "bundles"));
    let mut write = pipeline.with_graph(|graph| match &graph.nodes().last().unwrap().payload {
        beamline::graph::StagePayload::ParDo(factory) => factory(),
        other => panic!("the write is a ParDo, not {other:?}"),
    });
    let element = beamline::Coder::encode_to_vec(&beamline::BytesCoder, &"a".into());
    let element = beamline::WindowedValue::in_global_window(bytes::Bytes::from(element));
    let bundles: &mut dyn FnMut() = &mut || {
        for _ in 0..BUNDLES {
            write.start_bundle();
            write.process(element.clone(), &mut |_| {});
            write.finish_bundle(&mut |_| {});
        }
    };

    for (name, run) in [("commit", commits), ("write ParDo", bundles)] {
        let (wakeups, calls) = (
            counter("logbus.async_producer.sender_wakeups"),
            requests("logbus.produce.micros"),
        );
        run();
        assert_eq!(
            counter("logbus.async_producer.sender_wakeups"),
            wakeups,
            "{name}: a bundle of one woke the sender thread"
        );
        assert_eq!(
            requests("logbus.produce.micros") - calls,
            BUNDLES,
            "{name}: one request per bundle of one"
        );
    }
    // The meter does move: a `send` that finds the sender parked wakes it,
    // at most once per park. The sender thread parks only once it has
    // run; until then every `flush` ships on this thread and wakes
    // nobody, so send and flush until the meter moves (or 10 s pass).
    let wakeups = counter("logbus.async_producer.sender_wakeups");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut iterations = 0;
    while counter("logbus.async_producer.sender_wakeups") == wakeups
        && std::time::Instant::now() < deadline
    {
        producer.send(Record::from_value("a"));
        producer.flush();
        iterations += 1;
        std::thread::yield_now();
    }
    let woken = counter("logbus.async_producer.sender_wakeups") - wakeups;
    assert!(
        (1..=iterations).contains(&woken),
        "{woken} wake-ups in {iterations} sends"
    );
}

fn gauge(name: &str) -> i64 {
    let snap = obs::global().registry().snapshot();
    snap.gauges.get(name).copied().unwrap_or(0)
}

/// 10 000 records onto an RF-3 topic in batches of 512: each follower
/// copies every record, a produce round's worth per block (a block also
/// ends with a leader arena chunk and a segment). The topic's second
/// life takes every chunk it needs from the pool its first life retired
/// them to, so the fresh-chunk gauge stays where it was.
fn replication_copies_blocks_into_recycled_memory() {
    const RECORDS: u64 = 10_000;
    let cluster = Cluster::new(ClusterConfig { brokers: 3 });
    let one_life = || {
        cluster
            .create_topic("blocks", TopicConfig::default().replication_factor(3))
            .unwrap();
        let writer = cluster.partition_writer("blocks", 0).unwrap();
        let record = Record::from_value(vec![b'x'; 100]);
        for _ in 0..RECORDS.div_ceil(512) {
            let left = RECORDS - cluster.latest_offset("blocks", 0).unwrap();
            let batch = vec![record.clone(); left.min(512) as usize];
            writer.produce_batch(batch).unwrap();
        }
        drop(writer);
        for broker in 0..3 {
            cluster.broker(broker).delete_topic("blocks").unwrap();
        }
    };
    let (records, blocks) = (
        counter("logbus.replica.records"),
        counter("logbus.replica.blocks"),
    );
    one_life();
    let records = counter("logbus.replica.records") - records;
    let blocks = counter("logbus.replica.blocks") - blocks;
    assert_eq!(records, 2 * RECORDS, "two followers copy every record");
    assert!(
        (1..=records / 100).contains(&blocks),
        "{blocks} blocks for {records} records"
    );
    let fresh = gauge("bytes.pool.fresh_chunks");
    assert!(fresh > 0, "the first life's chunks came from the allocator");
    one_life();
    assert_eq!(gauge("bytes.pool.fresh_chunks"), fresh, "second life");
}

#[test]
fn every_door_is_observed_exactly_once() {
    obs::set_enabled(true);
    let broker: BusHandle = Broker::new().into();
    each_door_counts_once(&broker, 1);
    each_door_counts_once(&Cluster::new(ClusterConfig { brokers: 3 }).into(), 3);
    bundle_of_one_is_one_request_and_no_wakeup(&broker);
    replication_copies_blocks_into_recycled_memory();
    stall_exit_counts_once(&broker);
    obs::set_enabled(false);
}
