//! A tour of the `logbus` broker substrate: topics, partition writers
//! and readers, replication, and the LogAppendTime-based measurement trick
//! the benchmark is built on.
//!
//! ```sh
//! cargo run --example broker_tour
//! ```

use logbus::{Acks, Broker, Cluster, ClusterConfig, Record, TopicConfig, TopicDescription};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // --- Single broker: write in batches, read from any offset. ---
    let broker = Broker::new();
    broker.create_topic("events", TopicConfig::default())?;

    let writer = broker
        .partition_writer("events", 0)?
        .idempotent()
        .with_acks(Acks::Leader);
    let mut batch = Vec::with_capacity(8);
    for chunk in 0..4 {
        batch.extend((0..8).map(|i| Record::from_value(format!("event-{}", chunk * 8 + i))));
        // One request, one LogAppendTime stamp; the batch comes back empty.
        writer.produce_batch_drain(&mut batch)?;
    }
    println!("produced 32 records in 4 requests");

    let reader = broker.partition_reader("events", 0)?;
    let mut fetched = Vec::new();
    reader.fetch_into(0, 10, &mut fetched)?;
    println!(
        "first fetch: {} records, offsets {}..{}",
        fetched.len(),
        fetched[0].offset,
        fetched.last().unwrap().offset
    );
    fetched.clear();
    reader.fetch_into(30, 10, &mut fetched)?;
    println!(
        "fetch from 30: {:?}",
        fetched.iter().map(|r| r.offset).collect::<Vec<_>>()
    );

    // --- The measurement trick (paper §III-A3): the broker stamps every
    // append, so the time between the first and last output record is a
    // system-independent execution time. ---
    let description = TopicDescription::describe(&broker, "events")?;
    println!(
        "LogAppendTime span over the topic: {:.6}s across {} records",
        description.append_time_span_seconds().unwrap_or(0.0),
        description.total_records()
    );

    // --- A replicated cluster, like the paper's three Kafka nodes. ---
    let cluster = Cluster::new(ClusterConfig { brokers: 3 });
    cluster.create_topic("replicated", TopicConfig::default().replication_factor(3))?;
    let writer = cluster.partition_writer("replicated", 0)?;
    for i in 0..5 {
        writer.produce(Record::from_value(format!("r{i}")))?;
    }
    let leader = cluster.leader_of("replicated", 0)?;
    println!("cluster: leader of replicated/0 is broker {leader}");
    for b in 0..3 {
        let n = cluster
            .broker(b)
            .partition_reader("replicated", 0)?
            .latest_offset()?;
        println!("  broker {b} holds {n} replica records");
    }
    Ok(())
}
