//! Cross-engine, cross-API output equality: for every query, all seven
//! implementation variants (3 native engines + the abstraction layer on
//! 4 runners) must produce byte-identical output. This is the
//! precondition that makes the paper's performance comparison meaningful.
//!
//! The six benchmarked variants run through the production dispatch
//! (`trial::execute` via `Trial::run`) and are verified against
//! `Query::apply`; the `DirectRunner` — the abstraction layer on no
//! engine at all, which no campaign runs — is compared with them here.

use beamline::runners::DirectRunner;
use beamline::PipelineRunner;
use logbus::{Acks, Broker, StoredRecord, TopicConfig};
use streambench_core::trial::{self, Trial};
use streambench_core::{all_setups, beam_pipeline, Api, Query, SenderConfig, Setup, System};

const RECORDS: u64 = 500;
const BATCH_RECORDS: usize = 128;

fn loaded(broker: &Broker) -> Trial {
    let trial = Trial::on_broker(broker, RECORDS, SenderConfig::default().seed);
    trial.preload(Acks::Leader).unwrap();
    trial
}

/// Runs `query` on `setup` and returns the verified output.
fn verified_output(trial: &Trial, setup: Setup, query: Query) -> Vec<StoredRecord> {
    let outcome = trial
        .run(
            setup,
            query,
            &format!("out-{setup}"),
            BATCH_RECORDS,
            |engine| engine(),
        )
        .unwrap();
    outcome.engine.unwrap();
    trial::verify(trial, setup, query, &outcome.outputs).unwrap_or_else(|e| panic!("{query}: {e}"));
    outcome.outputs
}

fn values(records: &[StoredRecord]) -> Vec<&[u8]> {
    records.iter().map(|r| &r.record.value[..]).collect()
}

fn assert_all_equal(query: Query) {
    let broker = Broker::new();
    let trial = loaded(&broker);
    let mut reference = Vec::new();
    for setup in all_setups(&[1]) {
        reference = verified_output(&trial, setup, query);
        assert!(!reference.is_empty(), "{query}: {setup} produced nothing");
    }

    broker
        .create_topic("out-direct", TopicConfig::default())
        .unwrap();
    DirectRunner::new()
        .run(&beam_pipeline(&broker, query, "input", "out-direct"))
        .unwrap();
    let reader = broker.partition_reader("out-direct", 0).unwrap();
    let direct = reader.fetch(0, RECORDS as usize + 1).unwrap();
    assert_eq!(
        values(&direct),
        values(&reference),
        "{query}: beam direct differs from the verified engines"
    );
}

#[test]
fn identity_outputs_identical_everywhere() {
    assert_all_equal(Query::Identity);
}

#[test]
fn sample_outputs_identical_everywhere() {
    assert_all_equal(Query::Sample);
}

#[test]
fn projection_outputs_identical_everywhere() {
    assert_all_equal(Query::Projection);
}

#[test]
fn grep_outputs_identical_everywhere() {
    assert_all_equal(Query::Grep);
}

fn native(system: System) -> Setup {
    Setup {
        system,
        api: Api::Native,
        parallelism: 1,
    }
}

#[test]
fn projection_extracts_first_column() {
    let trial = loaded(&Broker::new());
    for value in values(&verified_output(
        &trial,
        native(System::Rill),
        Query::Projection,
    )) {
        assert!(!value.contains(&b'\t'), "projected value contains a tab");
        assert!(!value.is_empty());
        assert!(
            value.iter().all(u8::is_ascii_digit),
            "first column is the user id"
        );
    }
}

#[test]
fn grep_outputs_contain_the_needle() {
    let trial = loaded(&Broker::new());
    let out = verified_output(&trial, native(System::DStream), Query::Grep);
    assert_eq!(
        out.len() as u64,
        streambench_core::data::expected_grep_hits(RECORDS)
    );
    for value in values(&out) {
        assert!(value.windows(4).any(|w| w == b"test"));
    }
}
