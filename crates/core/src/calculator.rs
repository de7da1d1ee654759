//! The result calculator: phase 3 of the benchmark process
//! (paper §III-A3).
//!
//! Execution time is computed **only** from the broker's `LogAppendTime`
//! stamps of the query's output topic — the difference between the first
//! and the last appended result record. That keeps the measurement
//! application- and system-independent: one cannot rely on performance
//! numbers reported by the systems themselves, and the overhead between
//! computing a result and having it appended to the log is identical for
//! every system, so results stay comparable.

use logbus::{Broker, TopicDescription};

/// A measurement derived from an output topic.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMeasurement {
    /// Execution time in seconds: last output `LogAppendTime` minus first
    /// output `LogAppendTime`. Zero when the topic holds fewer than two
    /// append batches.
    pub execution_seconds: f64,
    /// Records in the output topic.
    pub output_records: u64,
}

/// Errors raised by the calculator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalculatorError {
    /// The output topic does not exist.
    UnknownTopic(String),
    /// The output topic is empty — the query produced nothing, which for
    /// the benchmarked queries and workload indicates a broken run.
    EmptyOutput(String),
}

impl std::fmt::Display for CalculatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalculatorError::UnknownTopic(t) => write!(f, "unknown output topic `{t}`"),
            CalculatorError::EmptyOutput(t) => write!(f, "output topic `{t}` is empty"),
        }
    }
}

impl std::error::Error for CalculatorError {}

/// Computes the execution time of a finished query run from its output
/// topic.
///
/// This is a cold path — one description per finished run — read
/// through [`TopicDescription::describe`], which resolves one reader per
/// partition.
///
/// # Errors
///
/// [`CalculatorError::UnknownTopic`] or [`CalculatorError::EmptyOutput`].
pub fn measure(broker: &Broker, output_topic: &str) -> Result<QueryMeasurement, CalculatorError> {
    let description = {
        let mut drain_span = obs::span("drain");
        drain_span.field("topic", output_topic);
        TopicDescription::describe(broker, output_topic)
            .map_err(|_| CalculatorError::UnknownTopic(output_topic.to_string()))?
    };
    let _calculate_span = obs::span("calculate");
    let records = description.total_records();
    if records == 0 {
        return Err(CalculatorError::EmptyOutput(output_topic.to_string()));
    }
    let execution_seconds = description
        .append_time_span_seconds()
        .unwrap_or(0.0)
        .max(0.0);
    Ok(QueryMeasurement {
        execution_seconds,
        output_records: records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::{ManualClock, Record, TopicConfig};
    use std::sync::Arc;

    #[test]
    fn span_between_first_and_last_append() {
        let clock = Arc::new(ManualClock::with_auto_tick(0, 1_000_000));
        let broker = Broker::with_clock(clock);
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("out", 0).unwrap();
        for i in 0..4 {
            writer.produce(Record::from_value(format!("{i}"))).unwrap();
        }
        let m = measure(&broker, "out").unwrap();
        assert_eq!(m.output_records, 4);
        assert!((m.execution_seconds - 3.0).abs() < 1e-9);
    }

    #[test]
    fn batch_appends_share_stamps() {
        let clock = Arc::new(ManualClock::with_auto_tick(0, 500_000));
        let broker = Broker::with_clock(clock);
        broker.create_topic("out", TopicConfig::default()).unwrap();
        // Two batches: one stamp each -> span is one tick.
        let writer = broker.partition_writer("out", 0).unwrap();
        writer
            .produce_batch(vec![Record::from_value("a"), Record::from_value("b")])
            .unwrap();
        writer.produce_batch(vec![Record::from_value("c")]).unwrap();
        let m = measure(&broker, "out").unwrap();
        assert_eq!(m.output_records, 3);
        assert!((m.execution_seconds - 0.5).abs() < 1e-9);
    }

    #[test]
    fn error_cases() {
        let broker = Broker::new();
        assert_eq!(
            measure(&broker, "nope"),
            Err(CalculatorError::UnknownTopic("nope".to_string()))
        );
        broker
            .create_topic("empty", TopicConfig::default())
            .unwrap();
        assert_eq!(
            measure(&broker, "empty"),
            Err(CalculatorError::EmptyOutput("empty".to_string()))
        );
    }

    #[test]
    fn single_append_has_zero_span() {
        let broker = Broker::new();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("out", 0).unwrap();
        writer.produce(Record::from_value("only")).unwrap();
        let m = measure(&broker, "out").unwrap();
        assert_eq!(m.execution_seconds, 0.0);
    }
}
