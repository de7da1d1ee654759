//! Self-test: every fixture under `fixtures/` is a known-bad snippet
//! that must trip exactly one lint — no more, no fewer — when linted
//! under a representative hot-path location. Keeps the lint engine
//! honest about both false negatives and collateral findings.

use sanity::lint_source;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Asserts the fixture trips `lint` exactly once at the pretend path.
fn assert_trips_once(file: &str, rel: &str, lint: &str) {
    let found = lint_source(rel, &fixture(file));
    assert_eq!(
        found.len(),
        1,
        "{file} must trip exactly one violation, got: {found:?}"
    );
    assert_eq!(
        found[0].lint, lint,
        "{file} tripped the wrong lint: {found:?}"
    );
}

#[test]
fn hot_path_panic_fixture() {
    assert_trips_once(
        "hot_path_panic.rs",
        "crates/logbus/src/broker.rs",
        "hot-path-panic",
    );
}

#[test]
fn obs_gate_bypass_fixture() {
    assert_trips_once(
        "obs_gate_bypass.rs",
        "crates/rill/src/runtime.rs",
        "obs-gate",
    );
}

#[test]
fn obs_gate_ungated_observe_fixture() {
    assert_trips_once(
        "obs_gate_ungated.rs",
        "crates/rill/src/operator.rs",
        "obs-gate",
    );
}

#[test]
fn batch_contract_fixture() {
    assert_trips_once(
        "batch_contract.rs",
        "crates/rill/src/operator.rs",
        "batch-contract",
    );
}

#[test]
fn std_sync_lock_fixture() {
    assert_trips_once(
        "std_sync_lock.rs",
        "crates/core/src/sender.rs",
        "std-sync-lock",
    );
}

#[test]
fn fault_confinement_fixture() {
    assert_trips_once(
        "fault_confinement.rs",
        "crates/rill/src/runtime.rs",
        "fault-confinement",
    );
}

#[test]
fn dispatch_confinement_fixture() {
    assert_trips_once(
        "dispatch_confinement.rs",
        "crates/core/src/latency.rs",
        "dispatch-confinement",
    );
    // The same call is the whole point of the trial loop, and a test
    // file gets no exemption.
    let src = fixture("dispatch_confinement.rs");
    assert!(lint_source("crates/core/src/trial.rs", &src).is_empty());
    assert_eq!(lint_source("tests/cross_engine.rs", &src).len(), 1);
}

#[test]
fn produce_path_confinement_fixture() {
    // A named-path copy of the produce fault gate next to the
    // fetch/metadata gate `broker.rs` legitimately holds.
    assert_trips_once(
        "produce_path_confinement.rs",
        "crates/logbus/src/broker.rs",
        "produce-path-confinement",
    );
    // Outside the gate homes the first arm is already one too many.
    let src = fixture("produce_path_confinement.rs");
    let gates = lint_source("crates/logbus/src/producer.rs", &src)
        .into_iter()
        .filter(|v| v.lint == "produce-path-confinement")
        .count();
    assert_eq!(gates, 2);
    // The one append is `handle.rs`'s to call, test code included.
    let call = "fn f(t: &Topic) { t.append_request(0, &mut v, now, delay, None, None); }\n";
    assert!(lint_source("crates/logbus/src/handle.rs", call).is_empty());
    let found = lint_source("crates/logbus/src/consumer.rs", call);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].lint, "produce-path-confinement");
}

#[test]
fn rtt_sites_fixture() {
    assert_trips_once("rtt_sites.rs", "crates/logbus/src/cluster.rs", "rtt-sites");
    let src = fixture("rtt_sites.rs");
    // Two sites fit `topic.rs` and `broker.rs`; a file that charges no
    // round trip may not start.
    assert!(lint_source("crates/logbus/src/broker.rs", &src).is_empty());
    assert_eq!(lint_source("crates/logbus/src/group.rs", &src).len(), 2);
    // Test code spins as it likes.
    let test_spin = "#[cfg(test)]\nmod tests {\n    fn t(d: Duration) { spin_delay(d); }\n}\n";
    assert!(lint_source("crates/logbus/src/group.rs", test_spin).is_empty());
}

#[test]
fn zero_copy_fixture() {
    assert_trips_once("zero_copy.rs", "crates/core/src/data.rs", "zero-copy");
    // Off the hot path a copy is nobody's business.
    let src = fixture("zero_copy.rs");
    assert!(lint_source("crates/core/src/report.rs", &src).is_empty());
}

#[test]
fn inline_substrate_fixture() {
    const SHIM: &str = "shims/bytes/src/lib.rs";
    assert_trips_once("inline_substrate.rs", SHIM, "inline-substrate");
    let src = fixture("inline_substrate.rs");
    let found = lint_source(SHIM, &src);
    assert!(found[0].excerpt.contains("fn acquire"), "{found:?}");
    // With the attribute back the substrate is clean; any other file
    // may inline as it likes.
    let fixed = src.replace("    fn acquire", "    #[inline]\n    fn acquire");
    assert!(lint_source(SHIM, &fixed).is_empty());
    assert!(lint_source("shims/rand/src/lib.rs", &src).is_empty());
    // A method that leaves the substrate, or is renamed, leaves the
    // list stale: that is a finding too.
    let gone = fixed.replace("fn roll(", "fn grow(");
    let found = lint_source(SHIM, &gone);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains("BytesMut::roll"), "{found:?}");
    // `#[cold]` is what `roll` must carry; `#[inline(never)]` alone fails.
    let warm = fixed.replace("    #[cold]\n", "");
    assert_eq!(lint_source(SHIM, &warm).len(), 1);
}

/// The fixtures are bad only *because of where they claim to live*: the
/// same panic fixture on a cold-path module is clean, and the ungated
/// observe is fine off the hot path. Guards against the lints becoming
/// workspace-wide bans they were never meant to be.
#[test]
fn fixtures_are_location_sensitive() {
    let cold = "crates/bench/src/report.rs";
    assert!(
        lint_source(cold, &fixture("hot_path_panic.rs")).is_empty(),
        "panic lint must only bite on hot-path modules"
    );
    assert!(
        lint_source(cold, &fixture("obs_gate_ungated.rs")).is_empty(),
        "ungated observe is allowed off the hot path"
    );
}

/// A gated observe on a hot path is clean: the idiom the lint demands.
#[test]
fn gated_observe_is_clean() {
    let src = r#"
fn record(hist: &obs::Histogram, started: std::time::Instant) {
    if !obs::enabled() {
        return;
    }
    hist.observe(started.elapsed().as_micros() as u64);
}
"#;
    let found = lint_source("crates/rill/src/operator.rs", src);
    assert!(found.is_empty(), "gated observe flagged: {found:?}");
}
