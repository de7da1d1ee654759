//! The four stateless StreamBench queries (paper Table II) in every
//! implementation variant: one Apache-Beam-style pipeline per query plus
//! a native program per engine.
//!
//! All implementations operate on the raw tab-separated payloads and are
//! written to produce byte-identical outputs, so the result calculator's
//! measurements compare equal work.

use crate::data::sample_keeps;
use beamline::{BrokerIO, BytesCoder, Filter, MapElements, Pipeline, Values, WithoutMetadata};
use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

/// Fraction of records the sample query keeps, in percent (paper: the
/// output is about 40 % of the input).
pub const SAMPLE_PERCENT: u32 = 40;

/// The benchmarked queries (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Query {
    /// Read input and output it unchanged — the computational baseline.
    Identity,
    /// Output a ~40 % content-determined sample of the input.
    Sample,
    /// Output only the first column of each record.
    Projection,
    /// Output only records containing the search string `"test"`
    /// (~0.3 % of the input).
    Grep,
}

impl Query {
    /// All four queries in paper order.
    pub const ALL: [Query; 4] = [
        Query::Identity,
        Query::Sample,
        Query::Projection,
        Query::Grep,
    ];

    /// The paper's Table II description.
    pub fn description(self) -> &'static str {
        match self {
            Query::Identity => {
                "Read input and output it without performing any data transformation. \
                 Baseline query with respect to computational complexity."
            }
            Query::Sample => {
                "Read input and output only a certain percentage of data. The number of \
                 output tuples is about 40% of the number of input tuples."
            }
            Query::Projection => {
                "Read input and output only a certain column of the input record — here \
                 the values of the first column."
            }
            Query::Grep => {
                "Read input and output only records that match a certain search string. \
                 The search string is \"test\", matching about 0.3% of the input."
            }
        }
    }

    /// Whether the query needs state (none of these do; the stateful
    /// StreamBench queries are excluded because the abstraction layer
    /// does not support stateful processing on the micro-batch engine,
    /// paper §III-B).
    pub fn stateful(self) -> bool {
        false
    }

    /// Applies the query to one payload, returning the outputs (0 or 1
    /// records for these queries). The single source of truth every
    /// implementation delegates to.
    pub fn apply(self, payload: &Bytes) -> Option<Bytes> {
        match self {
            Query::Identity => Some(payload.clone()),
            Query::Sample => sampled(payload).then(|| payload.clone()),
            Query::Projection => Some(first_column(payload)),
            Query::Grep => matches_needle(payload).then(|| payload.clone()),
        }
    }
}

/// The sample query's predicate.
fn sampled(payload: &Bytes) -> bool {
    sample_keeps(payload, SAMPLE_PERCENT)
}

/// The projection query's cut: the payload up to its first tab (the
/// whole payload when it has none).
fn first_column(payload: &Bytes) -> Bytes {
    let cut = payload
        .iter()
        .position(|&b| b == b'\t')
        .unwrap_or(payload.len());
    payload.slice(..cut)
}

/// The grep query's predicate: the payload contains `"test"`.
fn matches_needle(payload: &Bytes) -> bool {
    payload.windows(4).any(|w| w == b"test")
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Identity => f.write_str("identity"),
            Query::Sample => f.write_str("sample"),
            Query::Projection => f.write_str("projection"),
            Query::Grep => f.write_str("grep"),
        }
    }
}

/// Builds the abstraction-layer pipeline for `query`: read → drop
/// metadata → values → query logic → output formatting → write. Seven
/// erased stages, the Fig. 13 shape.
pub fn beam_pipeline(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
) -> Pipeline {
    beam_pipeline_impl(&bus.into(), query, input_topic, output_topic, None)
}

/// [`beam_pipeline`] in follow mode: the read tails the input topic
/// until `target_records` records have been consumed, backpressuring the
/// runner to the producer's rate — the abstraction-layer path of the
/// latency benchmark.
pub fn beam_pipeline_following(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    target_records: u64,
) -> Pipeline {
    beam_pipeline_impl(
        &bus.into(),
        query,
        input_topic,
        output_topic,
        Some(target_records),
    )
}

fn beam_pipeline_impl(
    bus: &logbus::BusHandle,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    follow: Option<u64>,
) -> Pipeline {
    let pipeline = Pipeline::new();
    let mut read = BrokerIO::read(bus.clone(), input_topic);
    if let Some(target) = follow {
        read = read.follow_until(target);
    }
    let values = pipeline
        .apply(read)
        .apply(WithoutMetadata::new())
        .apply(Values::create(Arc::new(BytesCoder)));
    let transformed = match query {
        Query::Identity => values.apply(MapElements::into_bytes("Identity", |v: Bytes| v)),
        Query::Sample => values.apply(Filter::new("Sample", sampled)),
        Query::Projection => values.apply(MapElements::into_bytes("Projection", |v: Bytes| {
            first_column(&v)
        })),
        Query::Grep => values.apply(Filter::new("Grep", matches_needle)),
    };
    transformed
        .apply(MapElements::into_bytes("FormatOutput", |v: Bytes| v))
        .apply(BrokerIO::write(bus.clone(), output_topic));
    pipeline
}

/// Native implementation on the `rill` engine: source → operator → sink,
/// fully chained (the Fig. 12 plan shape).
pub fn native_rill(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    parallelism: usize,
) -> rill::Result<rill::JobResult> {
    native_rill_impl(
        &bus.into(),
        query,
        input_topic,
        output_topic,
        parallelism,
        None,
    )
}

/// [`native_rill`] in follow mode: the source tails the input topic
/// (with backoff while caught up) until `target_records` records have
/// been consumed — the native rill path of the latency benchmark.
pub fn native_rill_following(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    parallelism: usize,
    target_records: u64,
) -> rill::Result<rill::JobResult> {
    native_rill_impl(
        &bus.into(),
        query,
        input_topic,
        output_topic,
        parallelism,
        Some(target_records),
    )
}

fn native_rill_impl(
    bus: &logbus::BusHandle,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    parallelism: usize,
    follow: Option<u64>,
) -> rill::Result<rill::JobResult> {
    // `local_for` widens the slot pool past the host core count when
    // needed, so high-parallelism setups schedule instead of
    // failing with "not enough slots" on small hosts.
    let env =
        rill::StreamExecutionEnvironment::with_cluster(rill::ClusterSpec::local_for(parallelism));
    env.set_parallelism(parallelism);
    rill_job(&env, bus, query, input_topic, output_topic, follow);
    env.execute(&format!("native-{query}"))
}

/// Adds the native rill job for `query` to `env`: source → one operator
/// → sink, three elements, as in the paper's Fig. 12.
fn rill_job(
    env: &rill::StreamExecutionEnvironment,
    bus: &logbus::BusHandle,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    follow: Option<u64>,
) {
    let mut source = rill::BrokerSource::new(bus.clone(), input_topic);
    if let Some(target) = follow {
        source = source.follow_until(target);
    }
    // The sink's async producer batches adaptively, so sparse outputs
    // (grep) land as individual appends spread over the run — which the
    // LogAppendTime measurement needs — while dense outputs amortize.
    let sink = rill::BrokerSink::new(bus.clone(), output_topic);
    let stream = env.add_source(source);
    let transformed = match query {
        Query::Identity => stream.map(|v: Bytes| v),
        Query::Sample => stream.filter(sampled),
        Query::Projection => stream.map(|v: Bytes| first_column(&v)),
        Query::Grep => stream.filter(matches_needle),
    };
    transformed.add_sink(sink);
}

/// Builds (without executing) the native rill job for `query` and
/// returns its execution plan — the paper's Fig. 12 view.
pub fn native_rill_plan(bus: impl Into<logbus::BusHandle>, query: Query) -> rill::ExecutionPlan {
    let env = rill::StreamExecutionEnvironment::local();
    rill_job(&env, &bus.into(), query, "plan-input", "plan-output", None);
    env.execution_plan()
}

/// Native implementation on the `dstream` engine: broker stream →
/// per-batch transformation → per-batch save.
pub fn native_dstream(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    parallelism: usize,
    batch_records: usize,
) -> dstream::Result<dstream::StreamingReport> {
    native_dstream_impl(
        &bus.into(),
        query,
        input_topic,
        output_topic,
        parallelism,
        batch_records,
        None,
    )
}

/// [`native_dstream`] in follow mode: micro-batches tail the input topic
/// until `target_records` records have been consumed — the native
/// dstream path of the latency benchmark.
pub fn native_dstream_following(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    parallelism: usize,
    batch_records: usize,
    target_records: u64,
) -> dstream::Result<dstream::StreamingReport> {
    native_dstream_impl(
        &bus.into(),
        query,
        input_topic,
        output_topic,
        parallelism,
        batch_records,
        Some(target_records),
    )
}

fn native_dstream_impl(
    bus: &logbus::BusHandle,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    parallelism: usize,
    batch_records: usize,
    follow: Option<u64>,
) -> dstream::Result<dstream::StreamingReport> {
    let ctx = dstream::Context::with_config(
        dstream::ContextConfig::default().default_parallelism(parallelism),
    );
    let ssc = dstream::StreamingContext::new(ctx);
    let stream = match follow {
        None => ssc.broker_stream(bus.clone(), input_topic, batch_records)?,
        Some(target) => {
            ssc.broker_stream_following(bus.clone(), input_topic, batch_records, target)?
        }
    };
    let transformed = match query {
        Query::Identity => stream.map(|v: Bytes| v),
        Query::Sample => stream.filter(sampled),
        Query::Projection => stream.map(|v: Bytes| first_column(&v)),
        Query::Grep => stream.filter(matches_needle),
    };
    transformed.save_to_broker(&ssc, bus.clone(), output_topic);
    ssc.run_to_completion()
}

/// Native implementation on the `apx` engine: Kafka input → operator →
/// Kafka output, one container per operator as in stock Apex.
pub fn native_apx(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    vcores: u32,
    rm: &mut yarnsim::ResourceManager,
) -> apx::Result<apx::AppResult> {
    native_apx_impl(
        &bus.into(),
        query,
        input_topic,
        output_topic,
        vcores,
        rm,
        None,
    )
}

/// [`native_apx`] in follow mode: the Kafka input operator tails the
/// input topic until `target_records` records have been consumed — the
/// native apx path of the latency benchmark.
pub fn native_apx_following(
    bus: impl Into<logbus::BusHandle>,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    vcores: u32,
    rm: &mut yarnsim::ResourceManager,
    target_records: u64,
) -> apx::Result<apx::AppResult> {
    native_apx_impl(
        &bus.into(),
        query,
        input_topic,
        output_topic,
        vcores,
        rm,
        Some(target_records),
    )
}

fn native_apx_impl(
    bus: &logbus::BusHandle,
    query: Query,
    input_topic: &str,
    output_topic: &str,
    vcores: u32,
    rm: &mut yarnsim::ResourceManager,
    follow: Option<u64>,
) -> apx::Result<apx::AppResult> {
    let dag = apx::Dag::new(format!("native-{query}"));
    let mut input = apx::KafkaInput::new(bus.clone(), input_topic);
    if let Some(target) = follow {
        input = input.follow_until(target);
    }
    let output = apx::KafkaOutput::new(bus.clone(), output_topic);
    let codec = Arc::new(apx::BytesCodec);
    let op = apx::FnOperator::new(move |v: Bytes, out: &mut dyn apx::Emitter<Bytes>| {
        if let Some(result) = query.apply(&v) {
            out.emit(result);
        }
    });
    dag.add_input("kafka-input", input)?
        .add_operator::<Bytes, _>("query", op, apx::Link::Network(codec.clone()))?
        .add_output("kafka-output", output, apx::Link::Network(codec))?;
    apx::Stram::run(&dag, rm, &apx::StramConfig::default().vcores(vcores))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_identity_and_projection() {
        let payload = Bytes::from_static(b"123\tsome query\t2006-03-01 00:00:00\t\t");
        assert_eq!(Query::Identity.apply(&payload), Some(payload.clone()));
        assert_eq!(
            Query::Projection.apply(&payload),
            Some(Bytes::from_static(b"123"))
        );
    }

    #[test]
    fn apply_grep() {
        let hit = Bytes::from_static(b"1\ta test query\tt\t\t");
        let miss = Bytes::from_static(b"1\tother query\tt\t\t");
        assert_eq!(Query::Grep.apply(&hit), Some(hit.clone()));
        assert_eq!(Query::Grep.apply(&miss), None);
    }

    #[test]
    fn apply_sample_is_content_deterministic() {
        let payload = Bytes::from_static(b"1\tq\tt\t\t");
        assert_eq!(
            Query::Sample.apply(&payload).is_some(),
            sample_keeps(&payload, SAMPLE_PERCENT)
        );
    }

    #[test]
    fn projection_without_tabs_keeps_whole_record() {
        let payload = Bytes::from_static(b"no-tabs-here");
        assert_eq!(Query::Projection.apply(&payload), Some(payload.clone()));
    }

    #[test]
    fn beam_pipeline_has_seven_stages() {
        let broker = logbus::Broker::new();
        broker
            .create_topic("in", logbus::TopicConfig::default())
            .unwrap();
        for query in Query::ALL {
            let pipeline = beam_pipeline(&broker, query, "in", "out");
            assert_eq!(pipeline.stage_count(), 7, "query {query}");
        }
    }

    #[test]
    fn table_two_metadata() {
        for query in Query::ALL {
            assert!(!query.description().is_empty());
            assert!(!query.stateful());
        }
        assert_eq!(Query::Identity.to_string(), "identity");
        assert_eq!(Query::ALL.len(), 4);
    }
}
