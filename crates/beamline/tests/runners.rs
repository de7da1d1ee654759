//! Cross-runner equivalence: the same pipeline produces the same output
//! topic contents on every runner — the abstraction layer's functional
//! promise, which makes its performance cost measurable in isolation.

use beamline::runners::{ApxRunner, DStreamRunner, DirectRunner, RillRunner};
use beamline::{
    BrokerIO, BytesCoder, Create, DoFn, Error, Filter, MapElements, ParDo, Pipeline,
    PipelineRunner, ProcessContext, UnitCoder, Values, WithoutMetadata,
};
use bytes::Bytes;
use logbus::{Broker, Record, TopicConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn broker_with_input(records: usize) -> Broker {
    let broker = Broker::new();
    broker.create_topic("in", TopicConfig::default()).unwrap();
    broker.create_topic("out", TopicConfig::default()).unwrap();
    let input = (0..records).map(|i| {
        let marker = if i % 7 == 0 { "test" } else { "data" };
        Record::from_value(format!("user{i}\t{marker} query {i}"))
    });
    let writer = broker.partition_writer("in", 0).unwrap();
    writer.produce_batch(input.collect()).unwrap();
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
    let reader = broker.partition_reader("out", 0).unwrap();
    let n = reader.latest_offset().unwrap();
    reader
        .fetch(0, n as usize)
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

/// A write-shaped leaf `DoFn`: the runner builds one instance per
/// bundle through the stage's factory, which clones this prototype.
/// Counts the instances built and those whose bundle held an element —
/// the ones `BrokerIO`'s write opens a producer in.
struct CountingWrite {
    built: Arc<AtomicUsize>,
    wrote: Arc<AtomicUsize>,
    elements: usize,
}

impl Clone for CountingWrite {
    fn clone(&self) -> Self {
        self.built.fetch_add(1, Ordering::SeqCst);
        CountingWrite {
            built: self.built.clone(),
            wrote: self.wrote.clone(),
            elements: 0,
        }
    }
}

impl DoFn<Bytes, ()> for CountingWrite {
    fn process(&mut self, _element: Bytes, _ctx: &mut ProcessContext<'_, ()>) {
        self.elements += 1;
    }

    fn finish_bundle(&mut self, _ctx: &mut ProcessContext<'_, ()>) {
        if self.elements > 0 {
            self.wrote.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Beam's Spark runner runs a `DoFn`'s `@Setup` per partition of each
/// micro-batch, and KafkaIO's writer opens its producer there; the
/// dstream runner does the same. 100 elements in batches of 10 at
/// parallelism 2 are 10 micro-batches of 2 partitions: the leaf factory
/// runs once per partition, and an instance sees elements in exactly the
/// non-empty partitions — after a filter keeping 30, those of the first
/// three batches.
#[test]
fn dstream_runner_builds_the_write_dofn_per_batch_partition() {
    for (kept, non_empty) in [(100u8, 20), (30, 6)] {
        let built = Arc::new(AtomicUsize::new(0));
        let wrote = Arc::new(AtomicUsize::new(0));
        let pipeline = Pipeline::new();
        pipeline
            .apply(Create::bytes(
                (0..100u8).map(|i| Bytes::from(vec![i])).collect(),
            ))
            .apply(Filter::new("Keep", move |value: &Bytes| value[0] < kept))
            .apply(ParDo::of(
                "CountingWrite",
                CountingWrite {
                    built: built.clone(),
                    wrote: wrote.clone(),
                    elements: 0,
                },
                Arc::new(UnitCoder) as Arc<dyn beamline::Coder<()>>,
            ));
        let prototypes = built.load(Ordering::SeqCst);
        DStreamRunner::new()
            .with_batch_records(10)
            .with_parallelism(2)
            .run(&pipeline)
            .unwrap();
        assert_eq!(built.load(Ordering::SeqCst) - prototypes, 20, "kept {kept}");
        assert_eq!(wrote.load(Ordering::SeqCst), non_empty, "kept {kept}");
    }
}
