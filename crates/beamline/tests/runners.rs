//! Cross-runner equivalence: the same pipeline produces the same output
//! topic contents on every runner — the abstraction layer's functional
//! promise, which makes its performance cost measurable in isolation.

use beamline::runners::{ApxRunner, DStreamRunner, DirectRunner, RillRunner};
use beamline::{
    BrokerIO, BytesCoder, Create, Error, Filter, MapElements, Pipeline, PipelineRunner, Values,
    WithoutMetadata,
};
use bytes::Bytes;
use logbus::{Broker, Record, TopicConfig};
use std::sync::Arc;

fn broker_with_input(records: usize) -> Broker {
    let broker = Broker::new();
    broker.create_topic("in", TopicConfig::default()).unwrap();
    broker.create_topic("out", TopicConfig::default()).unwrap();
    let input = (0..records).map(|i| {
        let marker = if i % 7 == 0 { "test" } else { "data" };
        Record::from_value(format!("user{i}\t{marker} query {i}"))
    });
    broker.produce_batch("in", 0, input.collect()).unwrap();
    broker
}

/// The grep-shaped pipeline of the paper's Fig. 13: read, drop metadata,
/// take values, filter, format, write — seven erased stages.
fn grep_pipeline(broker: &Broker) -> Pipeline {
    let pipeline = Pipeline::new();
    pipeline
        .apply(BrokerIO::read(broker.clone(), "in"))
        .apply(WithoutMetadata::new())
        .apply(Values::create(Arc::new(BytesCoder)))
        .apply(Filter::new("Grep", |value: &Bytes| {
            value.windows(4).any(|w| w == b"test")
        }))
        .apply(MapElements::into_bytes("Format", |value: Bytes| value))
        .apply(BrokerIO::write(broker.clone(), "out"));
    pipeline
}

fn output_values(broker: &Broker) -> Vec<Vec<u8>> {
    let n = broker.latest_offset("out", 0).unwrap();
    broker
        .fetch("out", 0, 0, n as usize)
        .unwrap()
        .into_iter()
        .map(|r| r.record.value.to_vec())
        .collect()
}

fn reset_output(broker: &Broker) {
    broker.delete_topic("out").unwrap();
    broker.create_topic("out", TopicConfig::default()).unwrap();
}

#[test]
fn grep_pipeline_has_seven_stages() {
    let broker = broker_with_input(1);
    let pipeline = grep_pipeline(&broker);
    assert_eq!(
        pipeline.stage_count(),
        7,
        "paper Fig. 13: seven plan elements"
    );
}

#[test]
fn all_runners_agree_on_grep() {
    let broker = broker_with_input(200);
    let expected: Vec<Vec<u8>> = (0..200)
        .filter(|i| i % 7 == 0)
        .map(|i| format!("user{i}\ttest query {i}").into_bytes())
        .collect();

    let runners: Vec<Box<dyn PipelineRunner>> = vec![
        Box::new(DirectRunner::new()),
        Box::new(RillRunner::new()),
        Box::new(DStreamRunner::new().with_batch_records(64)),
        Box::new(ApxRunner::new().with_window_size(32)),
    ];
    for runner in runners {
        reset_output(&broker);
        let pipeline = grep_pipeline(&broker);
        runner
            .run(&pipeline)
            .unwrap_or_else(|e| panic!("{} failed: {e}", runner.name()));
        assert_eq!(output_values(&broker), expected, "runner {}", runner.name());
    }
}

#[test]
fn parallel_runners_agree_on_grep() {
    let broker = broker_with_input(150);
    let expected: Vec<Vec<u8>> = (0..150)
        .filter(|i| i % 7 == 0)
        .map(|i| format!("user{i}\ttest query {i}").into_bytes())
        .collect();

    // Parallelism 2, as in the paper's second setup per system.
    let runners: Vec<Box<dyn PipelineRunner>> = vec![
        Box::new(RillRunner::new().with_parallelism(2)),
        Box::new(
            DStreamRunner::new()
                .with_parallelism(2)
                .with_batch_records(64),
        ),
        Box::new(ApxRunner::new().with_vcores(2).with_window_size(32)),
    ];
    for runner in runners {
        reset_output(&broker);
        let pipeline = grep_pipeline(&broker);
        runner
            .run(&pipeline)
            .unwrap_or_else(|e| panic!("{} failed: {e}", runner.name()));
        let mut got = output_values(&broker);
        let mut want = expected.clone();
        // Parallel execution may reorder across subtasks.
        got.sort();
        want.sort();
        assert_eq!(got, want, "runner {}", runner.name());
    }
}

#[test]
fn rill_plan_matches_figure_13() {
    let broker = broker_with_input(1);
    let pipeline = grep_pipeline(&broker);
    let plan = RillRunner::new().plan(&pipeline).unwrap();
    assert_eq!(plan.element_count(), 7, "Fig. 13: seven plan elements");
    assert_eq!(
        plan.nodes()[0].name,
        "Source: PTransformTranslation.UnknownRawPTransform"
    );
    assert_eq!(plan.nodes()[1].name, "Flat Map");
    assert_eq!(plan.nodes_named_like("ParDoTranslation.RawParDo").len(), 5);
    assert!(plan.nodes().iter().all(|n| n.parallelism == 1));
}

#[test]
fn rill_runner_sizes_its_cluster_from_parallelism() {
    // One subtask more than the default local cluster has slots.
    let parallelism = rill::ClusterSpec::local().total_slots() + 1;
    let broker = broker_with_input(150);
    let mut want: Vec<Vec<u8>> = (0..150)
        .filter(|i| i % 7 == 0)
        .map(|i| format!("user{i}\ttest query {i}").into_bytes())
        .collect();
    RillRunner::new()
        .with_parallelism(parallelism)
        .run(&grep_pipeline(&broker))
        .unwrap_or_else(|e| panic!("rill at parallelism {parallelism} failed: {e}"));
    let mut got = output_values(&broker);
    got.sort();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn non_linear_pipelines_rejected_by_engine_runners() {
    // Every runner, the direct one included, translates only the chain
    // `Read -> ParDo...`.
    let broker = broker_with_input(5);
    let fan_out = Pipeline::new();
    let values = fan_out
        .apply(BrokerIO::read(broker.clone(), "in"))
        .apply(WithoutMetadata::new())
        .apply(Values::create(Arc::new(BytesCoder)));
    // Two writes from one collection.
    values.clone().apply(BrokerIO::write(broker.clone(), "out"));
    values
        .apply(MapElements::into_bytes("Copy", |v: Bytes| v))
        .apply(BrokerIO::write(broker.clone(), "out"));
    let two_reads = Pipeline::new();
    for _ in 0..2 {
        two_reads
            .apply(BrokerIO::read(broker.clone(), "in"))
            .apply(WithoutMetadata::new())
            .apply(Values::create(Arc::new(BytesCoder)))
            .apply(BrokerIO::write(broker.clone(), "out"));
    }
    let runners: [Box<dyn PipelineRunner>; 4] = [
        Box::new(DirectRunner::new()),
        Box::new(RillRunner::new()),
        Box::new(DStreamRunner::new()),
        Box::new(ApxRunner::new()),
    ];
    for (shape, pipeline) in [("fan-out", &fan_out), ("two reads", &two_reads)] {
        for runner in &runners {
            assert!(
                matches!(runner.run(pipeline), Err(Error::InvalidPipeline(_))),
                "runner {} should reject {shape}",
                runner.name()
            );
            assert!(
                output_values(&broker).is_empty(),
                "runner {} wrote before rejecting {shape}",
                runner.name()
            );
        }
    }
}

#[test]
fn pipelines_without_a_pardo_are_rejected_by_tuple_runners() {
    // An engine job needs a sink, and only a ParDo (the write) becomes
    // one; the direct runner materializes a read-only pipeline.
    let pipeline = Pipeline::new();
    let numbers = pipeline.apply(Create::i64s(vec![1, 2]));
    for runner in [
        Box::new(RillRunner::new()) as Box<dyn PipelineRunner>,
        Box::new(DStreamRunner::new()),
        Box::new(ApxRunner::new()),
    ] {
        assert!(
            matches!(runner.run(&pipeline), Err(Error::InvalidPipeline(_))),
            "runner {} should reject a read-only pipeline",
            runner.name()
        );
    }
    let result = DirectRunner::new().run(&pipeline).unwrap();
    assert_eq!(result.collect_of(&numbers).unwrap(), vec![1, 2]);
}
