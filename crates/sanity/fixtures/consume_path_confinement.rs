// Fixture: a connector growing its own rebalance client next to
// `GroupMember::poll_rebalance` — it releases what it lost without
// committing the position first. Linted as if at
// `crates/rill/src/source.rs`; must trip exactly
// `consume-path-confinement`, once.
fn hand_over(bus: &BusHandle, group: &str, member: &str, lost: &[TopicPartition]) -> Result<()> {
    bus.release_partitions(group, member, lost)
}
