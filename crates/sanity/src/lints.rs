//! The lint catalog: each lint enforces one contract DESIGN.md states in
//! prose (§7 hot-path discipline, §8 observability gating, §9 batching
//! contract, §10 fault confinement, §7 the one produce path and its
//! round-trip charge sites, §12 the byte substrate's inlined per-value
//! path, §11 this tool).

use crate::strip::Stripped;
use crate::Violation;

/// Hot-path modules: broker/log/handle tiers, every engine
/// operator/collector/connector/codec path, the decode arena, and the
/// data sender with its generator. A panic here can poison a
/// measurement run, so failures must surface as typed errors.
const HOT_PATH: &[&str] = &[
    "crates/logbus/src/handle.rs",
    "crates/logbus/src/async_producer.rs",
    "crates/logbus/src/log.rs",
    "crates/logbus/src/broker.rs",
    "crates/logbus/src/cluster.rs",
    "crates/logbus/src/election.rs",
    "crates/logbus/src/topic.rs",
    "crates/logbus/src/segment.rs",
    "crates/logbus/src/telemetry.rs",
    "crates/logbus/src/group.rs",
    "crates/rill/src/operator.rs",
    "crates/rill/src/sink.rs",
    "crates/rill/src/source.rs",
    "crates/dstream/src/rdd.rs",
    "crates/dstream/src/stream.rs",
    "crates/dstream/src/source.rs",
    "crates/apx/src/operator.rs",
    "crates/apx/src/stream.rs",
    "crates/apx/src/malhar.rs",
    "crates/apx/src/codec.rs",
    "shims/bytes/src/arena.rs",
    "crates/beamline/src/pardo.rs",
    "crates/beamline/src/io.rs",
    "crates/beamline/src/coder.rs",
    "crates/beamline/src/runners/",
    "crates/core/src/sender.rs",
    "crates/core/src/data.rs",
];

/// Panicking constructs forbidden on hot paths.
const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Files allowed to bypass the `obs::enabled()` gate: the obs crate
/// itself and the benchmark driver's cold snapshot/reset path.
const GATE_BYPASS_OK: &[&str] = &["crates/obs/", "crates/bench/"];

/// Files where the broker's fault-injection machinery may appear; every
/// other layer interacts with faults only through `FaultPlan`.
const FAULT_HOME: &[&str] = &[
    "crates/logbus/src/fault.rs",
    "crates/logbus/src/broker.rs",
    "crates/logbus/src/handle.rs",
    "crates/logbus/src/cluster.rs",
    "crates/logbus/src/election.rs",
];

/// Files where an engine dispatch — a call to one of the native query
/// entry points — may appear: the one trial loop, the definitions
/// themselves, the teaching examples, and the benchmark's frozen twin.
const DISPATCH_HOME: &[&str] = &[
    "crates/core/src/trial.rs",
    "crates/core/src/queries.rs",
    "examples/",
    "ledger/",
];

/// The native query entry points, bounded and follow-mode.
const DISPATCH_PATTERNS: &[&str] = &[
    "native_rill(",
    "native_rill_following(",
    "native_dstream(",
    "native_dstream_following(",
    "native_apx(",
    "native_apx_following(",
];

/// Files that may call `Topic`'s one client append: the produce request
/// in `handle.rs` and the definition (with its thin unit-test wrappers).
const APPEND_HOME: &[&str] = &["crates/logbus/src/handle.rs", "crates/logbus/src/topic.rs"];

/// Files that may each name `FaultAction::AckLost` — the marker of a
/// produce-side fault gate — once: the one gate (`handle.rs`), the
/// fetch/metadata gate's cannot-happen arm (`broker.rs`), and follower
/// replication's own gate (`cluster.rs`). `fault.rs` defines it.
const PRODUCE_GATE_HOME: &[&str] = &[
    "crates/logbus/src/handle.rs",
    "crates/logbus/src/broker.rs",
    "crates/logbus/src/cluster.rs",
];

/// Files that may charge modeled network time with `spin_delay(`, and
/// how many times each, outside test code: the definition and the
/// produce round trip under the append lock (`topic.rs`), the fetch
/// round trip and the fetch/metadata fault latency (`broker.rs`), the
/// one replication round (`cluster.rs`), the produce fault latency
/// (`handle.rs`), and retry backoff (`retry.rs`).
const RTT_SITES: &[(&str, usize)] = &[
    ("crates/logbus/src/topic.rs", 2),
    ("crates/logbus/src/broker.rs", 2),
    ("crates/logbus/src/cluster.rs", 1),
    ("crates/logbus/src/handle.rs", 1),
    ("crates/logbus/src/retry.rs", 1),
];

/// How many preceding lines an `obs::enabled()` gate may sit above a
/// telemetry recording site and still count as guarding it.
const GATE_WINDOW: usize = 15;

/// True when `rel` (unix-style, repo-relative) is a hot-path module.
pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATH.iter().any(|p| {
        if p.ends_with('/') {
            rel.contains(p)
        } else {
            rel == *p || rel.ends_with(p)
        }
    })
}

fn matches_any(rel: &str, set: &[&str]) -> bool {
    set.iter().any(|p| {
        if p.ends_with('/') {
            rel.contains(p)
        } else {
            rel == *p || rel.ends_with(p)
        }
    })
}

/// Runs every per-file lint over one preprocessed source file.
pub fn lint_file(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    hot_path_panic(rel, src, out);
    obs_gate(rel, src, out);
    batch_contract(rel, src, out);
    std_sync_lock(rel, src, out);
    confine(&FAULT_CONFINEMENT, rel, src, out);
    confine(&DISPATCH_CONFINEMENT, rel, src, out);
    produce_path_confinement(rel, src, out);
    rtt_sites(rel, src, out);
    zero_copy(rel, src, out);
    inline_substrate(rel, src, out);
}

/// `hot-path-panic`: no `unwrap()`/`expect()`/`panic!` family on hot
/// paths (non-test code). Residue goes in `sanity.allow` with a
/// one-line justification.
fn hot_path_panic(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    if !is_hot_path(rel) {
        return;
    }
    for line in src.lines.iter().filter(|l| !l.in_test) {
        for pat in PANIC_PATTERNS {
            if line.code.contains(pat) {
                out.push(Violation::new(
                    "hot-path-panic",
                    rel,
                    line.number,
                    &line.raw,
                    format!("`{pat}` on a hot-path module; return a typed error instead"),
                ));
            }
        }
    }
}

/// `obs-gate`: instrumentation must stay behind the runtime gate.
///
/// Two shapes: (a) `obs::global()` outside the obs crate / bench driver
/// bypasses the gated helpers entirely; (b) a `.observe(` telemetry
/// recording on a hot path must have `obs::enabled(` within the
/// preceding [`GATE_WINDOW`] lines (the fast path bails before timing).
fn obs_gate(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("obs::global()") && !matches_any(rel, GATE_BYPASS_OK) {
            out.push(Violation::new(
                "obs-gate",
                rel,
                line.number,
                &line.raw,
                "`obs::global()` bypasses the runtime gate; use the gated `obs::*` helpers"
                    .to_string(),
            ));
        }
        if line.code.contains(".observe(") && is_hot_path(rel) {
            let gated = src.lines[idx.saturating_sub(GATE_WINDOW)..=idx]
                .iter()
                .any(|l| l.code.contains("obs::enabled("));
            if !gated {
                out.push(Violation::new(
                    "obs-gate",
                    rel,
                    line.number,
                    &line.raw,
                    format!(
                        "telemetry `.observe(` with no `obs::enabled()` gate in the previous \
                         {GATE_WINDOW} lines"
                    ),
                ));
            }
        }
    }
}

/// `batch-contract`: every `fn collect_batch` body must drain its input
/// (`items` comes back empty, capacity intact — DESIGN.md §9). A body
/// that never calls `drain`/`clear`/`mem::take`/`mem::swap` and does not
/// delegate to another `collect_batch` cannot uphold that.
fn batch_contract(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    let lines = &src.lines;
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.in_test || !line.code.contains("fn collect_batch") {
            i += 1;
            continue;
        }
        // Find the body: brace-match from the signature's `{` (a bodyless
        // trait signature ends in `;` first and is skipped).
        let mut depth = 0usize;
        let mut entered = false;
        let mut body = String::new();
        let mut j = i;
        'scan: while j < lines.len() {
            // Body text starts *after* the opening brace: the signature
            // itself contains `collect_batch(` and must not satisfy the
            // delegation check below.
            for c in lines[j].code.chars() {
                if !entered {
                    if c == ';' {
                        break 'scan;
                    }
                    if c == '{' {
                        depth = 1;
                        entered = true;
                    }
                    continue;
                }
                if c == '{' {
                    depth += 1;
                } else if c == '}' {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break 'scan;
                    }
                }
                body.push(c);
            }
            body.push('\n');
            j += 1;
        }
        if entered {
            // `.append(` drains its `&mut Vec` argument; `invoke_batch(`
            // delegates to a batch consumer that owns the contract.
            let drains = [
                "drain(",
                "collect_batch(",
                "invoke_batch(",
                ".append(",
                ".clear()",
                "mem::take",
                "mem::swap",
            ]
            .iter()
            .any(|p| body.contains(p));
            if !drains {
                out.push(Violation::new(
                    "batch-contract",
                    rel,
                    line.number,
                    &line.raw,
                    "`collect_batch` body never drains `items`; the drained-Vec contract \
                     (DESIGN.md §9) requires it returns empty with capacity intact"
                        .to_string(),
                ));
            }
        }
        i = j.max(i) + 1;
    }
}

/// `std-sync-lock`: blocking `std::sync` primitives are forbidden outside
/// the shims — all workspace locking must go through the `parking_lot`
/// shim so the `check-sync` lock-order checker sees every acquisition.
fn std_sync_lock(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    if rel.starts_with("shims/") || rel.contains("/shims/") {
        return;
    }
    for line in &src.lines {
        let code = &line.code;
        let names_primitive = ["Mutex", "RwLock", "Condvar", "Barrier"]
            .iter()
            .any(|p| code.contains(p));
        if names_primitive && (code.contains("std::sync::") || code.contains(" sync::")) {
            // `std::sync::atomic`, `Arc`, `OnceLock`, `mpsc` are fine.
            out.push(Violation::new(
                "std-sync-lock",
                rel,
                line.number,
                &line.raw,
                "blocking `std::sync` primitive outside the shims; use the `parking_lot` \
                 shim so `check-sync` can observe the lock"
                    .to_string(),
            ));
        }
    }
}

/// A confinement lint: none of `patterns` may appear outside the `home`
/// files. `advice` completes "`{pat}` outside …".
struct Confinement {
    lint: &'static str,
    home: &'static [&'static str],
    patterns: &'static [&'static str],
    /// Whether `#[cfg(test)]` code is held to the rule too.
    tests_too: bool,
    advice: &'static str,
}

fn confine(rule: &Confinement, rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    if matches_any(rel, rule.home) {
        return;
    }
    for line in src.lines.iter().filter(|l| rule.tests_too || !l.in_test) {
        for pat in rule.patterns.iter().filter(|p| line.code.contains(**p)) {
            let message = format!("`{pat}` outside {}", rule.advice);
            out.push(Violation::new(
                rule.lint,
                rel,
                line.number,
                &line.raw,
                message,
            ));
        }
    }
}

/// `fault-confinement`: the fault-injection machinery (`FaultInjector`,
/// the `fault_action`/`fault_gate` hooks) lives only in the broker
/// layer; every other crate configures faults exclusively via
/// `FaultPlan` installation.
const FAULT_CONFINEMENT: Confinement = Confinement {
    lint: "fault-confinement",
    home: FAULT_HOME,
    patterns: &["FaultInjector", ".fault_action(", ".fault_gate("],
    tests_too: false,
    advice: "the broker fault layer; inject via `FaultPlan`",
};

/// `dispatch-confinement`: only `core::trial::execute` maps a
/// (system, API) setup to an engine. A second caller of the native query
/// entry points — tests included — is a second trial harness in the
/// making, with its own topic set-up, engine sizing and drain.
const DISPATCH_CONFINEMENT: Confinement = Confinement {
    lint: "dispatch-confinement",
    home: DISPATCH_HOME,
    patterns: DISPATCH_PATTERNS,
    tests_too: true,
    advice: "`core::trial`; run the setup through `trial::execute`",
};

/// `produce-path-confinement`: one append, one produce fault gate
/// (DESIGN.md §7). `Topic::append_request` is called only from the
/// produce request in `handle.rs` (tests included), and a second
/// `FaultAction::AckLost` arm — a second copy of the gate — cannot
/// appear in any file, nor a first one outside the three that own one.
fn produce_path_confinement(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    if !matches_any(rel, APPEND_HOME) {
        for line in src
            .lines
            .iter()
            .filter(|l| l.code.contains(".append_request("))
        {
            out.push(Violation::new(
                "produce-path-confinement",
                rel,
                line.number,
                &line.raw,
                "`Topic::append_request` outside `handle.rs`; produce through \
                 `WriteTarget::append_batch`"
                    .to_string(),
            ));
        }
    }
    if rel.ends_with("crates/logbus/src/fault.rs") {
        return;
    }
    let allowed = usize::from(matches_any(rel, PRODUCE_GATE_HOME));
    let gates = src
        .lines
        .iter()
        .filter(|l| !l.in_test && l.code.contains("FaultAction::AckLost"));
    for line in gates.skip(allowed) {
        out.push(Violation::new(
            "produce-path-confinement",
            rel,
            line.number,
            &line.raw,
            "a second produce-side fault gate; every produce goes through the one in \
             `WriteTarget::append_batch`"
                .to_string(),
        ));
    }
}

/// `rtt-sites`: every spin burns a core for modeled time (ROADMAP item
/// 1), so the sites that charge it are counted per file — a second
/// spin in `cluster.rs` is a per-follower round trip growing back, and
/// any spin outside the [`RTT_SITES`] files is a new charge nobody
/// accounted for.
fn rtt_sites(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    let allowed = RTT_SITES
        .iter()
        .find(|(home, _)| rel.ends_with(home))
        .map_or(0, |&(_, sites)| sites);
    let spins = src
        .lines
        .iter()
        .filter(|l| !l.in_test && l.code.contains("spin_delay("));
    for line in spins.skip(allowed) {
        out.push(Violation::new(
            "rtt-sites",
            rel,
            line.number,
            &line.raw,
            "a modeled round trip beyond the file's count in `RTT_SITES`; charge network \
             time at an existing site (one replication round, not one per follower)"
                .to_string(),
        ));
    }
}

/// Payload-copying constructs forbidden on hot paths (DESIGN.md §12):
/// record keys/values are refcounted `Bytes` slices of segment storage,
/// so the fault-free plane moves and refcount-bumps them — it never
/// materializes an owned byte copy per record.
const COPY_PATTERNS: &[&str] = &[
    ".to_vec()",
    ".to_owned()",
    "Bytes::copy_from_slice(",
    ".value.clone()",
    ".key.clone()",
];

/// `zero-copy`: no per-record payload copies on hot-path modules.
///
/// `Bytes` clones are refcount bumps and stay legal; what this bans is
/// converting a payload back into an owned `Vec`/`String`
/// (`.to_vec()`, `.to_owned()`, `Bytes::copy_from_slice`) or cloning a
/// record's key/value field where a move would do. Justified residue
/// goes in `sanity.allow`.
fn zero_copy(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    if !is_hot_path(rel) {
        return;
    }
    for line in src.lines.iter().filter(|l| !l.in_test) {
        for pat in COPY_PATTERNS {
            if line.code.contains(pat) {
                out.push(Violation::new(
                    "zero-copy",
                    rel,
                    line.number,
                    &line.raw,
                    format!(
                        "`{pat}` copies payload bytes on a hot-path module; move the \
                         refcounted `Bytes` (or slice the arena) instead"
                    ),
                ));
            }
        }
    }
}

/// The byte substrate: every `Bytes` read, clone and drop in the
/// workspace runs its code.
const SUBSTRATE: &str = "shims/bytes/src/lib.rs";

/// `(impl type, fn, attribute)`: the per-value path of [`SUBSTRATE`],
/// which must inline into callers in other crates (the workspace builds
/// without LTO), and the one slow path kept out of line.
const SUBSTRATE_ATTRS: &[(&str, &str, &str)] = &[
    ("Bytes", "deref", "#[inline]"),
    ("Bytes", "as_ref", "#[inline]"),
    ("Bytes", "len", "#[inline]"),
    ("Bytes", "is_empty", "#[inline]"),
    ("Bytes", "is_static", "#[inline]"),
    ("Bytes", "clone", "#[inline]"),
    ("Bytes", "drop", "#[inline]"),
    ("Bytes", "slice", "#[inline]"),
    ("Bytes", "eq", "#[inline]"),
    ("BytesMut", "capacity", "#[inline]"),
    ("BytesMut", "extend_from_slice", "#[inline]"),
    ("BytesMut", "pack_frozen", "#[inline]"),
    ("BytesMut", "pack_view", "#[inline]"),
    ("BytesMut", "frozen", "#[inline]"),
    ("BytesMut", "reserve", "#[inline]"),
    ("BytesMut", "roll", "#[cold]"),
    ("Handle", "get", "#[inline]"),
    ("Handle", "acquire", "#[inline]"),
    ("Handle", "park", "#[inline]"),
    ("Parked", "find", "#[inline]"),
    ("Parked", "unpark", "#[inline]"),
    ("Parked", "settle_at", "#[inline]"),
];

/// `inline-substrate`: in [`SUBSTRATE`], every method [`SUBSTRATE_ATTRS`]
/// names exists and each of its definitions (`eq` has several) carries
/// the attribute. Without `#[inline]` a view's deref, clone or drop is a
/// cross-crate call per value, a cost of the harness that the Beam cells
/// pay 18 times per record (DESIGN.md §12).
fn inline_substrate(rel: &str, src: &Stripped, out: &mut Vec<Violation>) {
    if !rel.ends_with(SUBSTRATE) {
        return;
    }
    let mut seen = [false; SUBSTRATE_ATTRS.len()];
    let mut depth = 0usize;
    let mut impl_type: Option<&str> = None;
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.trim();
        if depth == 0 && (code.starts_with("impl") || code.starts_with("unsafe impl")) {
            impl_type = Some(impl_self_type(code));
        }
        if let (1, Some(ty), Some(name)) = (depth, impl_type, fn_name(code)) {
            for (i, &(t, f, attr)) in SUBSTRATE_ATTRS.iter().enumerate() {
                if (t, f) != (ty, name) {
                    continue;
                }
                seen[i] = true;
                if !attributes_of(src, idx).contains(attr) {
                    out.push(Violation::new(
                        "inline-substrate",
                        rel,
                        line.number,
                        &line.raw,
                        format!(
                            "`{t}::{f}` lost `{attr}`; the per-value path must inline \
                             across crates, its slow path stay out of line"
                        ),
                    ));
                }
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if depth == 0 {
            impl_type = None;
        }
    }
    for (&(t, f, attr), _) in SUBSTRATE_ATTRS.iter().zip(seen).filter(|(_, s)| !s) {
        out.push(Violation::new(
            "inline-substrate",
            rel,
            0,
            "",
            format!("`{t}::{f}` (which must carry `{attr}`) is gone; update `SUBSTRATE_ATTRS`"),
        ));
    }
}

/// The type an `impl` header implements for: `impl Deref for Bytes {`,
/// `impl<'a> IntoIterator for &'a Bytes {` and `impl Bytes {` give
/// `Bytes`. (The shim's inherent impls take no generics.)
fn impl_self_type(header: &str) -> &str {
    let head = header.split('{').next().unwrap_or(header);
    let ty = match head.rfind(" for ") {
        Some(at) => &head[at + 5..],
        None => head
            .trim_start_matches("unsafe ")
            .trim_start_matches("impl"),
    };
    ty.trim_start()
        .trim_start_matches('&')
        .split_whitespace()
        .find(|t| !t.starts_with('\''))
        .unwrap_or("")
        .split('<')
        .next()
        .unwrap_or("")
}

/// The name a line defines with `fn`, if it does.
fn fn_name(code: &str) -> Option<&str> {
    let at = code
        .match_indices("fn ")
        .map(|(i, _)| i)
        .find(|&i| i == 0 || code[..i].ends_with(' '))?;
    let rest = &code[at + 3..];
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The attributes on the item that starts at line `idx`: the lines
/// above it that are attributes or blank (doc comments are blanked),
/// and anything before `fn` on the line itself.
fn attributes_of(src: &Stripped, idx: usize) -> String {
    let mut attrs = src.lines[..idx]
        .iter()
        .rev()
        .map(|l| l.code.trim())
        .take_while(|c| c.is_empty() || c.starts_with("#["))
        .collect::<Vec<_>>()
        .join(" ");
    let own = &src.lines[idx].code;
    attrs.push_str(own.split("fn ").next().unwrap_or(""));
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::preprocess;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        lint_file(rel, &preprocess(src), &mut out);
        out
    }

    #[test]
    fn hot_path_detection() {
        assert!(is_hot_path("crates/logbus/src/broker.rs"));
        assert!(is_hot_path("crates/logbus/src/cluster.rs"));
        assert!(is_hot_path("crates/logbus/src/election.rs"));
        assert!(is_hot_path("crates/logbus/src/group.rs"));
        assert!(is_hot_path("crates/core/src/sender.rs"));
        assert!(is_hot_path("crates/beamline/src/runners/direct.rs"));
        assert!(is_hot_path("crates/core/src/data.rs"));
        assert!(!is_hot_path("crates/logbus/src/config.rs"));
        assert!(!is_hot_path("crates/core/src/report.rs"));
    }

    #[test]
    fn unwrap_in_test_mod_is_ignored() {
        let src = "fn live() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(run("crates/logbus/src/broker.rs", src).is_empty());
    }

    #[test]
    fn unwrap_outside_hot_path_is_ignored() {
        let src = "fn f() { Some(1).unwrap(); }\n";
        assert!(run("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn gated_observe_is_clean() {
        let src = "fn f(b: &B) {\n    if !obs::enabled() {\n        return;\n    }\n    telemetry::produce_path().observe(1);\n}\n";
        assert!(run("crates/logbus/src/broker.rs", src).is_empty());
    }

    #[test]
    fn payload_copy_on_hot_path_is_flagged() {
        let src = "fn f(r: &Record) -> Vec<u8> { r.value.to_vec() }\n";
        let found = run("crates/logbus/src/segment.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, "zero-copy");
        let src = "fn f(r: &Record) -> Bytes { r.value.clone() }\n";
        assert_eq!(run("crates/logbus/src/segment.rs", src).len(), 1);
    }

    #[test]
    fn payload_copy_off_hot_path_or_in_tests_is_ignored() {
        let src = "fn f(r: &Record) -> Vec<u8> { r.value.to_vec() }\n";
        assert!(run("crates/logbus/src/config.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t(r: &Record) { r.value.to_vec(); }\n}\n";
        assert!(run("crates/logbus/src/segment.rs", src).is_empty());
    }

    #[test]
    fn bytes_refcount_clone_is_clean() {
        // Cloning a whole `Bytes` binding (refcount bump) stays legal;
        // only field-level key/value clones and owned conversions flag.
        let src = "fn f(b: &Bytes) -> Bytes { b.clone() }\n";
        assert!(run("crates/logbus/src/segment.rs", src).is_empty());
    }
}
