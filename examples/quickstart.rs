//! Quickstart: define one pipeline with the abstraction layer and run it
//! unchanged on three different stream processing engines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use beamline::runners::{ApxRunner, DStreamRunner, RillRunner};
use beamline::{BrokerIO, BytesCoder, Filter, PipelineRunner, Values, WithoutMetadata};
use bytes::Bytes;
use logbus::{Broker, Record, TopicConfig};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // A broker with an input topic holding a few log lines.
    let broker = Broker::new();
    broker.create_topic("logs", TopicConfig::default())?;
    let writer = broker.partition_writer("logs", 0)?;
    for line in [
        "2026-07-07 10:00:01 INFO service started",
        "2026-07-07 10:00:02 ERROR disk full",
        "2026-07-07 10:00:03 INFO heartbeat",
        "2026-07-07 10:00:04 ERROR connection reset",
        "2026-07-07 10:00:05 INFO heartbeat",
    ] {
        writer.produce(Record::from_value(line))?;
    }

    // One pipeline definition: read -> drop metadata -> values -> filter
    // errors -> write.
    let build_pipeline = |output_topic: &str| {
        let pipeline = beamline::Pipeline::new();
        pipeline
            .apply(BrokerIO::read(broker.clone(), "logs"))
            .apply(WithoutMetadata::new())
            .apply(Values::create(Arc::new(BytesCoder)))
            .apply(Filter::new("ErrorsOnly", |v: &Bytes| {
                v.windows(5).any(|w| w == b"ERROR")
            }))
            .apply(BrokerIO::write(broker.clone(), output_topic));
        pipeline
    };

    // The same program runs on every engine — that is the abstraction
    // layer's value proposition (and the paper quantifies its price).
    let runners: Vec<(&str, Box<dyn PipelineRunner>)> = vec![
        ("rill (Flink analog)", Box::new(RillRunner::new())),
        ("dstream (Spark analog)", Box::new(DStreamRunner::new())),
        ("apx (Apex analog)", Box::new(ApxRunner::new())),
    ];
    for (label, runner) in runners {
        let output_topic = format!("errors-{}", runner.name());
        broker.create_topic(&output_topic, TopicConfig::default())?;
        let result = runner.run(&build_pipeline(&output_topic))?;
        let reader = broker.partition_reader(&output_topic, 0)?;
        let n = reader.latest_offset()?;
        println!("{label}: {n} error lines in {:?}", result.duration);
        for stored in reader.fetch(0, n as usize)? {
            println!("  {}", String::from_utf8_lossy(&stored.record.value));
        }
    }
    Ok(())
}
