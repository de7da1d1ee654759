// Fixture: a campaign module growing its own engine dispatch next to
// the one in `core::trial`. Linted as if at
// `crates/core/src/latency.rs`; must trip exactly
// `dispatch-confinement`, once.
fn run_following(broker: &Broker, query: Query, records: u64) -> Result<(), String> {
    queries::native_rill_following(broker, query, "input", "output", 1, records)
        .map(drop)
        .map_err(|e| e.to_string())
}
