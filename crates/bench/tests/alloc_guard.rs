//! Allocation guard for the fault-free steady-state record path.
//!
//! Runs only with `--features alloc-count` (its own test binary, so the
//! counting global allocator cannot interfere with other tests):
//!
//! ```text
//! cargo test -p streambench-bench --features alloc-count --test alloc_guard
//! ```
//!
//! The guard drives the batched produce→fetch hot path with everything
//! warm — pooled batch vectors, and the arena chunks and index blocks a
//! deleted topic of the measured size left behind — and asserts the
//! measured phase performs near-zero heap allocations per record. This is the enforcement half
//! of the zero-copy record path: `Bytes` clones are refcount bumps,
//! segment arenas draw recycled chunks from the `bytes` shim free-list,
//! and batch vectors cycle through the `logbus` pool tier.
//!
//! The same bound holds one record per request through cluster-routed
//! handles on a replicated topic: a handle resolves its route once.
//!
//! A second guard pins what a whole native `apx` cell allocates per
//! record: its cross-container streams encode into pooled frame blocks
//! and `BytesCodec` decodes into the thread-local arena the Beam coders
//! use, so the modeled copy per tuple per hop is a `memcpy`, not an
//! allocation, and the cell allocates per chunk and per run.
//!
//! A third guard covers the asynchronous producer's per-record `send`:
//! its accumulator chunks cycle through the same pool tier whichever
//! thread ships them.
//!
//! A fourth guard covers the driver: the data sender formats each line
//! into a generator-owned arena, so generating a payload — plain or
//! event-time stamped — and preloading a topic allocate per arena
//! chunk, not per record.
//!
//! A fifth guard covers the abstraction layer's coded data plane: every
//! decoded value and every emitted payload is a view of a thread-local
//! arena, so a Beam cell — seven stages, a coder round trip at each —
//! allocates per arena chunk and per batch, not per record.
//!
//! A sixth guard covers the log's own memory across topics: a deleted
//! topic's arena chunks and index blocks are the next topic's, on a
//! broker and on every replica of a cluster, so a warmed create → fill →
//! drain → delete cycle never asks the allocator for a kilobyte — and
//! the chunk pool that makes it so holds its byte budget, not whatever
//! the largest topic ever needed.
#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation *events* (alloc / alloc_zeroed / realloc) on the
/// current thread; deallocations are pass-through. Thread-local counters
/// keep any background threads (none in this binary's steady phase) from
/// polluting the measurement.
struct CountingAllocator;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

/// Allocation events on every thread: an `apx` application runs one
/// thread per container, so its guard cannot count thread-locally.
static ALL_THREADS_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Held by each test while it measures, so the process-wide count sees
/// one test at a time.
static ONE_AT_A_TIME: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Allocation events of a kilobyte or more on every thread: what a
/// recycled arena chunk (64 KiB) or index block (48 KiB) would have been.
static ALL_THREADS_KILOBYTE_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Arena-chunk-sized allocations handed back to the allocator.
static ARENA_CHUNK_FREES: AtomicU64 = AtomicU64::new(0);

const ARENA_CHUNK: usize = 64 << 10;

fn bump(size: usize) {
    ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
    ALL_THREADS_EVENTS.fetch_add(1, Ordering::Relaxed);
    if size >= 1024 {
        ALL_THREADS_KILOBYTE_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == ARENA_CHUNK {
            ARENA_CHUNK_FREES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const BATCH: usize = 64;
const MEASURED_ROUNDS: usize = 512;

/// One round of the steady-state loop: refill the pooled batch with
/// refcount-bump clones, append it through the cached writer, fetch it
/// back into a reused buffer.
fn round(
    writer: &logbus::PartitionWriter,
    reader: &logbus::PartitionReader,
    record: &logbus::Record,
    batch: &mut Vec<logbus::Record>,
    fetched: &mut Vec<logbus::StoredRecord>,
) {
    for _ in 0..BATCH {
        batch.push(record.clone());
    }
    let base = writer
        .produce_batch_drain(batch)
        .expect("fault-free append");
    fetched.clear();
    let appended = reader
        .fetch_into(base, BATCH, fetched)
        .expect("fetch just-appended records");
    assert_eq!(appended, BATCH);
}

#[test]
fn steady_state_record_path_is_allocation_free() {
    let _alone = ONE_AT_A_TIME.lock();
    let broker = logbus::Broker::new();
    let record = logbus::Record::from_value("payload-0123456789abcdef");
    let mut batch = logbus::pool::record_vec();
    let mut fetched: Vec<logbus::StoredRecord> = Vec::with_capacity(BATCH);
    let handles = |topic: &str| {
        broker
            .create_topic(topic, logbus::TopicConfig::new())
            .expect("create topic");
        let writer = broker.partition_writer(topic, 0).expect("writer");
        let reader = broker.partition_reader(topic, 0).expect("reader");
        (writer, reader)
    };

    // Warm-up: a topic of the measured size, filled and deleted, grows
    // the pools' capacities and leaves its arena chunks and index
    // blocks for the measured topic to draw.
    let (writer, reader) = handles("warm");
    for _ in 0..MEASURED_ROUNDS {
        round(&writer, &reader, &record, &mut batch, &mut fetched);
    }
    drop((writer, reader));
    broker.delete_topic("warm").expect("delete");
    let (writer, reader) = handles("t");

    let before = alloc_events();
    // Self-check: the counter must have seen the warm-up's allocations,
    // otherwise the guard below would pass vacuously.
    assert!(before > 0, "counting allocator is not wired in");
    for _ in 0..MEASURED_ROUNDS {
        round(&writer, &reader, &record, &mut batch, &mut fetched);
    }
    let events = alloc_events() - before;

    let records = (MEASURED_ROUNDS * BATCH) as f64;
    let per_record = events as f64 / records;
    // Near-zero: whole-run slack for pool-cap spill, but orders of
    // magnitude below one allocation per record (the pre-zero-copy path
    // paid several per record).
    assert!(
        per_record < 0.01,
        "steady state should be allocation-free: {events} allocation \
         events over {records} records ({per_record:.4}/record)"
    );
}

const ROUTED_ROUNDS: usize = 8_192;

/// One record per request through cluster-routed handles, so a
/// per-request cost — resolving the topic name to a route and the route
/// to each replica's log — cannot hide behind a batch.
#[test]
fn routed_handle_requests_are_allocation_free() {
    let _alone = ONE_AT_A_TIME.lock();
    let cluster = logbus::Cluster::new(logbus::ClusterConfig { brokers: 3 });
    let record = logbus::Record::from_value("payload-0123456789abcdef");
    let mut fetched: Vec<logbus::StoredRecord> = Vec::with_capacity(1);
    let handles = |topic: &str| {
        cluster
            .create_topic(topic, logbus::TopicConfig::new().replication_factor(3))
            .expect("create topic");
        let writer = cluster.partition_writer(topic, 0).expect("writer");
        let reader = cluster.partition_reader(topic, 0).expect("reader");
        (writer, reader)
    };
    let mut requests = |writer: &logbus::PartitionWriter, reader: &logbus::PartitionReader| {
        for _ in 0..ROUTED_ROUNDS {
            let offset = writer.produce(record.clone()).expect("fault-free append");
            fetched.clear();
            let appended = reader
                .fetch_into(offset, 1, &mut fetched)
                .expect("fetch the just-committed record");
            assert_eq!(appended, 1);
        }
    };

    // Warm-up: a topic of the measured size on every replica, filled and
    // deleted broker by broker.
    let (writer, reader) = handles("warm");
    requests(&writer, &reader);
    drop((writer, reader));
    for b in 0..3 {
        cluster.broker(b).delete_topic("warm").expect("delete");
    }
    let (writer, reader) = handles("t");
    let before = alloc_events();
    assert!(before > 0, "counting allocator is not wired in");
    requests(&writer, &reader);
    let events = alloc_events() - before;

    // Held to the single-broker bound. A handle that re-resolves its
    // route by name allocates the `(topic, partition)` key on every
    // request and reads 2.0 or more here.
    let per_record = events as f64 / ROUTED_ROUNDS as f64;
    assert!(
        per_record < 0.01,
        "routed steady state should be allocation-free: {events} allocation \
         events over {ROUTED_ROUNDS} records ({per_record:.4}/record)"
    );
}

const APX_RECORDS: u64 = 100_000;

/// A broker whose topic `in` holds `records` generated records.
fn preloaded_broker(records: u64) -> logbus::Broker {
    let broker = logbus::Broker::new();
    broker
        .create_topic("in", logbus::TopicConfig::default())
        .expect("create input topic");
    let config = streambench_core::SenderConfig {
        records,
        ..Default::default()
    };
    streambench_core::send_workload(&broker, "in", &config).expect("preload");
    broker
}

/// One bounded identity run of one cell from topic `in` into `output`,
/// which must end up holding all `records`.
fn identity_run(
    broker: &logbus::Broker,
    system: streambench_core::System,
    api: streambench_core::Api,
    output: &str,
    records: u64,
) {
    broker
        .create_topic(output, logbus::TopicConfig::default())
        .expect("create output topic");
    let setup = streambench_core::Setup {
        system,
        api,
        parallelism: 1,
    };
    let job = streambench_core::trial::Job {
        query: streambench_core::Query::Identity,
        input: "in",
        output,
        follow: None,
        dstream_batch_records: streambench_core::BenchConfig::default().dstream_batch_records,
    };
    streambench_core::trial::execute(&broker.into(), setup, &job).expect("fault-free run");
    assert_eq!(
        broker
            .partition_reader(output, 0)
            .and_then(|r| r.latest_offset())
            .expect("output topic"),
        records,
        "identity writes every record back"
    );
}

#[test]
fn native_apx_decodes_into_the_arena() {
    use streambench_core::{Api::Native, System::Apx};
    let _alone = ONE_AT_A_TIME.lock();
    let broker = preloaded_broker(APX_RECORDS);
    // Warm-up run: fills the frame-block and batch pools, the chunk
    // free-list and every lazy static.
    identity_run(&broker, Apx, Native, "warm", APX_RECORDS);

    let before = ALL_THREADS_EVENTS.load(Ordering::Relaxed);
    identity_run(&broker, Apx, Native, "out", APX_RECORDS);
    let events = ALL_THREADS_EVENTS.load(Ordering::Relaxed) - before;

    // Two `Link::Network` hops, one `BytesCodec::decode` copy each into
    // the decoding container's arena: what is left is per 64 KiB chunk,
    // per frame block and per run (deploy, threads, topic). An owned
    // `Bytes` per decode is two allocations (payload + shared header)
    // and reads 4.0 per record; a per-tuple encode buffer on each hop
    // (how frames travelled before they were blocks) makes it 6.
    let per_record = events as f64 / APX_RECORDS as f64;
    assert!(
        per_record < 0.05,
        "native apx identity: {events} allocation events over \
         {APX_RECORDS} records ({per_record:.3}/record), expected < 0.05"
    );
}

const BEAM_RECORDS: u64 = 50_000;

#[test]
fn beam_cells_allocate_per_chunk_not_per_record() {
    use beamline::PipelineRunner;
    use streambench_core::{Api::Beam, Query::Identity, System::Rill};
    let _alone = ONE_AT_A_TIME.lock();
    let broker = preloaded_broker(BEAM_RECORDS);
    let direct_run = |output: &str| {
        broker
            .create_topic(output, logbus::TopicConfig::default())
            .expect("create output topic");
        let pipeline = streambench_core::beam_pipeline(&broker, Identity, "in", output);
        beamline::runners::DirectRunner::new()
            .run(&pipeline)
            .expect("fault-free direct run");
        assert_eq!(
            broker
                .partition_reader(output, 0)
                .and_then(|r| r.latest_offset())
                .expect("output topic"),
            BEAM_RECORDS
        );
    };
    // Warm-up runs: the chunk free-list, the producer's batch pool and
    // every lazy static.
    identity_run(&broker, Rill, Beam, "warm-rill", BEAM_RECORDS);
    direct_run("warm-direct");

    let before = ALL_THREADS_EVENTS.load(Ordering::Relaxed);
    identity_run(&broker, Rill, Beam, "out-rill", BEAM_RECORDS);
    let rill = ALL_THREADS_EVENTS.load(Ordering::Relaxed) - before;
    direct_run("out-direct");
    let direct = ALL_THREADS_EVENTS.load(Ordering::Relaxed) - before - rill;

    // Seven stages, a coder round trip at each, and on rill an envelope
    // round trip per boundary: an owned buffer per decoded value and per
    // emitted payload read 21 per record here, and a single allocation
    // per record at any one stage reads 1.0. What remains (0.03) is per
    // 64 KiB chunk, per 1 024-element batch and per run.
    for (cell, events) in [("rill.beam", rill), ("DirectRunner", direct)] {
        let per_record = events as f64 / BEAM_RECORDS as f64;
        assert!(
            per_record <= 0.5,
            "{cell} identity: {events} allocation events over \
             {BEAM_RECORDS} records ({per_record:.3}/record)"
        );
    }
}

const ASYNC_RECORDS: usize = 100_000;

/// Per-record `send` with a `flush` every 1 024 records: the tail
/// chunk fills in place, which `send` alone exercises.
fn async_send_round(producer: &logbus::AsyncProducer, record: &logbus::Record) {
    for i in 1..=ASYNC_RECORDS {
        producer.send(record.clone());
        if i % 1_024 == 0 {
            producer.flush();
        }
    }
    producer.flush();
}

/// Warms the pools for an asynchronous producer's guard: a producer on
/// topic `warm` runs `round` — the measured size — and the topic is
/// deleted, leaving its arena chunks and index blocks behind.
fn warm_with_deleted_topic(broker: &logbus::Broker, round: impl FnOnce(&logbus::AsyncProducer)) {
    broker
        .create_topic("warm", logbus::TopicConfig::new())
        .expect("create topic");
    round(&logbus::AsyncProducer::new(broker.clone(), "warm", 0));
    broker.delete_topic("warm").expect("delete");
    broker
        .create_topic("t", logbus::TopicConfig::new())
        .expect("create topic");
}

#[test]
fn async_producer_per_record_send_is_allocation_free() {
    let _alone = ONE_AT_A_TIME.lock();
    let broker = logbus::Broker::new();
    let record = logbus::Record::from_value("payload-0123456789abcdef");
    // Warm-up: the accumulator's chunks reach `max_batch` capacity and
    // settle into the pool, and a deleted topic's storage waits for `t`.
    warm_with_deleted_topic(&broker, |producer| async_send_round(producer, &record));
    let producer = logbus::AsyncProducer::new(broker.clone(), "t", 0);

    // Either thread may ship a chunk and recycle it, so count them all.
    let before = ALL_THREADS_EVENTS.load(Ordering::Relaxed);
    async_send_round(&producer, &record);
    let events = ALL_THREADS_EVENTS.load(Ordering::Relaxed) - before;

    assert_eq!(
        broker
            .partition_reader("t", 0)
            .and_then(|r| r.latest_offset())
            .expect("topic"),
        ASYNC_RECORDS as u64
    );
    let per_record = events as f64 / ASYNC_RECORDS as f64;
    assert!(
        per_record < 0.01,
        "warmed per-record send: {events} allocation events over \
         {ASYNC_RECORDS} records ({per_record:.4}/record)"
    );
}

#[test]
fn bundle_commit_per_record_is_allocation_free() {
    let _alone = ONE_AT_A_TIME.lock();
    let broker = logbus::Broker::new();
    let record = logbus::Record::from_value("payload-0123456789abcdef");
    // A bundle of one, as the `apx` runner drives the Beam write: push
    // into the reused bundle buffer, `commit`.
    let mut bundle = Vec::new();
    let mut commit = |producer: &logbus::AsyncProducer, records: usize| {
        for _ in 0..records {
            bundle.push(record.clone());
            producer.commit(&mut bundle);
        }
    };
    // Warm-up: a deleted topic of the size `t` will reach leaves its
    // storage behind, and the producer on `t` primes itself: it resolves
    // its writer, and the one chunk a commit needs settles into the pool
    // tiers of both its threads.
    const PRIMING: usize = 4_096;
    warm_with_deleted_topic(&broker, |producer| {
        commit(producer, PRIMING + ASYNC_RECORDS)
    });
    let producer = logbus::AsyncProducer::new(broker.clone(), "t", 0);
    commit(&producer, PRIMING);

    let before = ALL_THREADS_EVENTS.load(Ordering::Relaxed);
    commit(&producer, ASYNC_RECORDS);
    let events = ALL_THREADS_EVENTS.load(Ordering::Relaxed) - before;

    assert_eq!(
        broker
            .partition_reader("t", 0)
            .and_then(|r| r.latest_offset())
            .expect("topic"),
        (PRIMING + ASYNC_RECORDS) as u64
    );
    assert_eq!(events, 0, "warmed per-record commit allocates");
}

const SENDER_RECORDS: u64 = 50_000;

#[test]
fn data_sender_is_allocation_free() {
    let _alone = ONE_AT_A_TIME.lock();
    let per_record = |events: u64| events as f64 / SENDER_RECORDS as f64;
    let mut generator = streambench_core::QueryLogGenerator::new(2019);
    // Warm-up: the line buffer reaches its size and retired arena
    // chunks reach the free-list.
    for _ in 0..SENDER_RECORDS {
        generator.next_payload();
    }

    let before = alloc_events();
    assert!(before > 0, "counting allocator is not wired in");
    for _ in 0..SENDER_RECORDS {
        std::hint::black_box(generator.next_payload());
    }
    let plain = alloc_events() - before;
    for i in 0..SENDER_RECORDS as i64 {
        std::hint::black_box(generator.next_stamped_payload(1_700_000_000_000_000 + i));
    }
    let stamped = alloc_events() - before - plain;
    // What remains is the refcount header of each 64 KiB arena chunk,
    // one per ~800 records. A `String` per line reads 1.0 or more.
    for (path, events) in [("next_payload", plain), ("next_stamped_payload", stamped)] {
        assert!(
            per_record(events) < 0.01,
            "{path}: {events} allocation events over {SENDER_RECORDS} records"
        );
    }

    let broker = logbus::Broker::new();
    let config = streambench_core::SenderConfig {
        records: SENDER_RECORDS,
        ..Default::default()
    };
    let preload = |topic: &str| {
        broker
            .create_topic(topic, logbus::TopicConfig::default())
            .expect("create topic");
        streambench_core::send_workload(&broker, topic, &config).expect("preload");
    };
    preload("warm");
    let before = alloc_events();
    preload("in");
    let events = alloc_events() - before;
    // The topic keeps every record: its segments' arena chunks and
    // index growth are the preload's whole allocation bill.
    assert!(
        per_record(events) < 0.01,
        "send_workload: {events} allocation events over {SENDER_RECORDS} records"
    );
}

const CHURN_RECORDS: u64 = 100_000;

/// One life of topic `churn` on `bus`: create, fill with
/// [`CHURN_RECORDS`] in batches of 512, read everything back, delete —
/// `delete` says how, as a cluster's topic goes broker by broker.
fn churn_cycle(
    bus: &logbus::BusHandle,
    replication: u32,
    delete: &dyn Fn(),
    fetched: &mut Vec<logbus::StoredRecord>,
) {
    let config = logbus::TopicConfig::default().replication_factor(replication);
    bus.create_topic("churn", config).expect("create topic");
    let writer = bus.partition_writer("churn", 0).expect("writer");
    let reader = bus.partition_reader("churn", 0).expect("reader");
    // A heap payload, which the append copies into the segment arena (a
    // `&'static` one would be kept as it is, beside the arena).
    let record = logbus::Record::from_value(b"payload-0123456789abcdef".to_vec());
    let mut batch = logbus::pool::record_vec();
    let mut sent = 0;
    while sent < CHURN_RECORDS {
        let take = 512.min(CHURN_RECORDS - sent);
        batch.extend((0..take).map(|_| record.clone()));
        writer.produce_batch_drain(&mut batch).expect("append");
        sent += take;
    }
    logbus::pool::recycle_record_vec(batch);
    let mut offset = 0;
    while offset < CHURN_RECORDS {
        fetched.clear();
        offset += reader.fetch_into(offset, 4_096, fetched).expect("fetch") as u64;
    }
    fetched.clear();
    drop((writer, reader));
    delete();
}

/// Arena chunks one replica of `churn` fills: 24 payload bytes a record.
const CHURN_CHUNKS: usize = CHURN_RECORDS as usize * 24 / ARENA_CHUNK;

#[test]
fn topic_churn_runs_on_recycled_chunks_and_index_blocks() {
    let _alone = ONE_AT_A_TIME.lock();
    let broker = logbus::Broker::new();
    let cluster = logbus::Cluster::new(logbus::ClusterConfig { brokers: 3 });
    let delete_on_broker = || broker.delete_topic("churn").expect("delete");
    let delete_on_cluster = || {
        for b in 0..3 {
            cluster.broker(b).delete_topic("churn").expect("delete");
        }
    };
    let cases: [(&str, logbus::BusHandle, u32, &dyn Fn()); 2] = [
        ("broker", broker.clone().into(), 1, &delete_on_broker),
        ("cluster rf3", cluster.clone().into(), 3, &delete_on_cluster),
    ];
    let mut fetched = Vec::with_capacity(4_096);
    for (name, bus, replication, delete) in cases {
        // Warm-up life: the chunks, the index blocks, the pools' own
        // stacks and every lazy static come from the allocator once.
        churn_cycle(&bus, replication, delete, &mut fetched);
        for cycle in 1..=3 {
            let kilobytes = ALL_THREADS_KILOBYTE_EVENTS.load(Ordering::Relaxed);
            let fresh = bytes::pool_fresh_chunks();
            let (reused, _) = bytes::pool_stats();
            churn_cycle(&bus, replication, delete, &mut fetched);
            // Index blocks that are freed instead of pooled read 51 here
            // on the broker; a chunk pool of 64 slots, which covers the
            // broker's 36 chunks, reads 59 on the cluster's 109.
            assert_eq!(
                ALL_THREADS_KILOBYTE_EVENTS.load(Ordering::Relaxed) - kilobytes,
                0,
                "{name}, cycle {cycle}: allocations of 1 KiB or more"
            );
            assert_eq!(bytes::pool_fresh_chunks(), fresh, "{name}, cycle {cycle}");
            assert!(
                bytes::pool_stats().0 - reused >= CHURN_CHUNKS * replication as usize,
                "{name}, cycle {cycle}: every chunk comes out of the pool"
            );
        }
    }
}

/// The chunk pool bounds memory: past its byte budget, retired arena
/// chunks go back to the allocator. Chunk by chunk rather than through
/// a topic — a topic past the budget would make this guard touch
/// 130 MiB, and a deleted topic's chunks take this same way out.
#[test]
fn chunk_pool_returns_the_surplus_past_its_budget() {
    const SURPLUS: usize = 64;
    let _alone = ONE_AT_A_TIME.lock();
    let budget = bytes::POOL_ARENA_BUDGET / ARENA_CHUNK;
    let hold = || -> Vec<bytes::BytesMut> {
        (0..budget + SURPLUS)
            .map(|_| bytes::BytesMut::with_capacity(ARENA_CHUNK))
            .collect()
    };
    // More chunks alive at once than the budget covers (never written,
    // so they cost address space), then all retired.
    let frees = ARENA_CHUNK_FREES.load(Ordering::Relaxed);
    drop(hold());
    assert_eq!(
        ARENA_CHUNK_FREES.load(Ordering::Relaxed) - frees,
        SURPLUS as u64,
        "what does not fit the budget is freed"
    );
    // The pool kept exactly its budget: that many come back out, the
    // rest are fresh.
    let (reused, fresh) = (bytes::pool_stats().0, bytes::pool_fresh_chunks());
    let held = hold();
    assert_eq!(bytes::pool_stats().0 - reused, budget);
    assert_eq!(bytes::pool_fresh_chunks() - fresh, SURPLUS);
    drop(held);
}
