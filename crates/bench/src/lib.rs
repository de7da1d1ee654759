//! Shared helpers for the benchmark binaries and Criterion benches.

use logbus::Broker;
use streambench_core::trial::Trial;
use streambench_core::SenderConfig;

/// A broker preloaded with `records` workload records in `input`.
///
/// # Panics
///
/// Panics on broker failures (benchmark setup must not silently degrade).
pub fn loaded_broker(records: u64, latency_micros: u64) -> Broker {
    let broker = Broker::new();
    broker.set_request_latency_micros(latency_micros);
    let sender = SenderConfig::default();
    Trial::on_broker(&broker, records, sender.seed)
        .preload(sender.acks)
        .expect("load workload");
    broker
}
