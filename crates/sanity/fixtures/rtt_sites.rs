// Fixture: follower replication charging a round trip per follower
// again, beside the one round. Linted as if at
// `crates/logbus/src/cluster.rs`; must trip exactly `rtt-sites`, once —
// on the second spin.
fn sync_followers(route: &Route, round: Duration) {
    spin_delay(round);
    for follower in route.followers() {
        spin_delay(follower.request_delay());
        follower.copy();
    }
}
