//! Failure behaviour across the stack (the paper lists fault-tolerance
//! behaviour as future benchmark work, §V): panicking operators must
//! surface as clean job failures, release cluster resources, and never
//! hang the harness.

use bytes::Bytes;
use logbus::{Broker, TopicConfig};
use streambench_core::fresh_yarn_cluster;

fn broker_with_records(n: usize) -> Broker {
    let broker = Broker::new();
    broker.create_topic("in", TopicConfig::default()).unwrap();
    broker.create_topic("out", TopicConfig::default()).unwrap();
    for i in 0..n {
        broker
            .produce("in", 0, logbus::Record::from_value(format!("r{i}")))
            .unwrap();
    }
    broker
}

#[test]
fn rill_operator_panic_fails_job() {
    let broker = broker_with_records(100);
    let env = rill::StreamExecutionEnvironment::local();
    env.add_source(rill::BrokerSource::new(broker.clone(), "in"))
        .map(|v: Bytes| {
            if v.ends_with(b"50") {
                panic!("injected operator failure");
            }
            v
        })
        .add_sink(rill::BrokerSink::new(broker.clone(), "out"));
    let err = env.execute("faulty").unwrap_err();
    assert!(matches!(err, rill::Error::TaskPanicked { .. }), "{err:?}");
}

#[test]
fn rill_panic_downstream_of_exchange_terminates() {
    let broker = broker_with_records(5_000);
    let env = rill::StreamExecutionEnvironment::local();
    env.set_parallelism(2);
    // Every operator boundary becomes a forward exchange: the map runs
    // as its own task behind a bounded channel from the source.
    env.disable_operator_chaining();
    env.add_source(rill::BrokerSource::new(broker.clone(), "in"))
        .map(|v: Bytes| {
            if v.ends_with(b"999") {
                panic!("downstream failure");
            }
            v
        })
        .add_sink(rill::BrokerSink::new(broker.clone(), "out"));
    // Must fail, not deadlock on the full exchange channel.
    let err = env.execute("faulty").unwrap_err();
    assert!(matches!(err, rill::Error::TaskPanicked { .. }));
}

#[test]
fn apx_operator_panic_fails_application_and_releases_containers() {
    let broker = broker_with_records(100);
    let mut rm = fresh_yarn_cluster();
    let dag = apx::Dag::new("faulty");
    dag.add_input("in", apx::KafkaInput::new(broker.clone(), "in"))
        .unwrap()
        .add_operator::<Bytes, _>(
            "boom",
            apx::FnOperator::new(|v: Bytes, e: &mut dyn apx::Emitter<Bytes>| {
                if v.ends_with(b"42") {
                    panic!("injected");
                }
                e.emit(v);
            }),
            apx::Link::Network(std::sync::Arc::new(apx::BytesCodec)),
        )
        .unwrap()
        .add_output(
            "out",
            apx::KafkaOutput::new(broker.clone(), "out"),
            apx::Link::Network(std::sync::Arc::new(apx::BytesCodec)),
        )
        .unwrap();
    let err = apx::Stram::run(&dag, &mut rm, &apx::StramConfig::default()).unwrap_err();
    assert!(matches!(err, apx::Error::TaskPanicked(_)));
    // The failed application released everything.
    let metrics = rm.metrics();
    assert_eq!(metrics.live_containers, 0);
    assert_eq!(metrics.active_applications, 0);
}

#[test]
fn beam_dofn_panic_on_rill_runner_fails_cleanly() {
    use beamline::PipelineRunner;
    let broker = broker_with_records(50);
    let pipeline = beamline::Pipeline::new();
    pipeline
        .apply(beamline::BrokerIO::read(broker.clone(), "in"))
        .apply(beamline::WithoutMetadata::new())
        .apply(beamline::Values::create(std::sync::Arc::new(
            beamline::BytesCoder,
        )))
        .apply(beamline::MapElements::into_bytes("Boom", |v: Bytes| {
            if v.ends_with(b"25") {
                panic!("injected DoFn failure");
            }
            v
        }))
        .apply(beamline::BrokerIO::write(broker.clone(), "out"));
    let err = beamline::runners::RillRunner::new()
        .run(&pipeline)
        .unwrap_err();
    assert!(matches!(err, beamline::Error::Engine(_)), "{err:?}");
}

#[test]
fn sink_to_deleted_topic_does_not_hang() {
    // A mid-run topic deletion turns the async producer into a black
    // hole; the job must still terminate (fire-and-forget semantics).
    let broker = broker_with_records(100);
    broker.delete_topic("out").unwrap();
    let env = rill::StreamExecutionEnvironment::local();
    env.add_source(rill::BrokerSource::new(broker.clone(), "in"))
        .map(|v: Bytes| v)
        .add_sink(rill::BrokerSink::new(broker.clone(), "out"));
    env.execute("black-hole").unwrap();
    assert!(!broker.has_topic("out"));
}
