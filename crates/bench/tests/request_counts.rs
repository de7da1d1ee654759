//! Produce request counts per P1 cell are invariants of each cell's
//! write mechanism, not measurements: they hold on any host, so a
//! changed mechanism shows here without a timer.
//!
//! * `apx.beam` makes one synchronous request per output record (its
//!   write DoFn commits every record);
//! * `dstream.native` one per micro-batch that has output;
//! * `apx.native` one per streaming window that has output;
//! * `rill.beam` one per 500-record write hand-off (`BrokerIO`'s
//!   `flush_records`);
//! * `rill.native` and `dstream.beam` ship through the adaptive
//!   `AsyncProducer`, whose batches follow the sender's speed; only a
//!   lower bound holds. A request takes the oldest queued chunk (at most
//!   500 records) and then whole chunks while it is below 500 records,
//!   so it carries at most 999.
//!
//! One test, alone in its binary: the obs registry is process-wide, so
//! exact request deltas hold only when nothing else records.

use logbus::{Acks, Broker};
use streambench_core::setup::{Api, Setup, System};
use streambench_core::trial::Trial;
use streambench_core::{Query, QueryLogGenerator};

/// Input records per trial.
const RECORDS: u64 = 5_000;
/// The input topic's generator seed.
const SEED: u64 = 7;
/// Micro-batch size handed to `dstream`: small enough that the sparse
/// query leaves some batches without output.
const DSTREAM_BATCH: usize = 250;
/// `apx`'s default streaming window, in input records.
const APX_WINDOW: usize = 2_048;
/// Records per write hand-off of `rill.beam` and per `AsyncProducer`
/// chunk.
const HAND_OFF: u64 = 500;

fn produce_requests() -> u64 {
    let snap = obs::global().registry().snapshot();
    snap.histograms
        .get("logbus.produce.micros")
        .map_or(0, |h| h.count)
}

#[test]
fn produce_requests_follow_each_cells_write_mechanism() {
    for query in [Query::Identity, Query::Sample, Query::Grep] {
        // Which input records reach the output.
        let mut generator = QueryLogGenerator::new(SEED);
        let hits: Vec<bool> = (0..RECORDS)
            .map(|_| query.apply(&generator.next_payload()).is_some())
            .collect();
        let out = hits.iter().filter(|&&hit| hit).count() as u64;
        let with_output = |window: usize| hits.chunks(window).filter(|w| w.contains(&true)).count();

        let broker = Broker::new();
        let trial = Trial::on_broker(&broker, RECORDS, SEED);
        trial.preload(Acks::All).unwrap();
        obs::set_enabled(true);
        for system in System::ALL {
            for api in Api::ALL {
                let setup = Setup {
                    system,
                    api,
                    parallelism: 1,
                };
                let before = produce_requests();
                let outcome = trial
                    .run(
                        setup,
                        query,
                        &format!("out-{setup}"),
                        DSTREAM_BATCH,
                        |engine| engine(),
                    )
                    .unwrap();
                outcome.engine.unwrap();
                assert_eq!(outcome.outputs.len() as u64, out, "{query:?} {setup}");
                let requests = produce_requests() - before;
                let cell = format!("{query:?} {setup}: {requests} requests for {out} records");
                match (system, api) {
                    (System::Apx, Api::Beam) => assert_eq!(requests, out, "{cell}"),
                    (System::DStream, Api::Native) => {
                        assert_eq!(requests, with_output(DSTREAM_BATCH) as u64, "{cell}");
                    }
                    (System::Apx, Api::Native) => {
                        assert_eq!(requests, with_output(APX_WINDOW) as u64, "{cell}");
                    }
                    (System::Rill, Api::Beam) => {
                        assert_eq!(requests, out.div_ceil(HAND_OFF), "{cell}");
                    }
                    (System::Rill, Api::Native) | (System::DStream, Api::Beam) => {
                        assert!(requests >= out.div_ceil(2 * HAND_OFF - 1), "{cell}");
                    }
                }
            }
        }
        obs::set_enabled(false);
        // The sparse query must exercise the "has output" rule.
        if query == Query::Grep {
            assert!(with_output(DSTREAM_BATCH) < hits.len().div_ceil(DSTREAM_BATCH));
        }
    }
}
