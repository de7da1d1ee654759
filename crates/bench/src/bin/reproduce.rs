//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```sh
//! # Everything (the per-experiment index of DESIGN.md):
//! STREAMBENCH_RECORDS=50000 STREAMBENCH_RUNS=5 cargo run --release -p streambench-bench --bin reproduce -- all
//! # Or a single artifact:
//! cargo run --release -p streambench-bench --bin reproduce -- fig9
//! # With instrumentation: any target plus `--obs-json <path>` enables
//! # the obs layer, prints the span tree, and writes metrics + spans +
//! # per-stage totals as JSON:
//! cargo run --release -p streambench-bench --bin reproduce -- smoke --obs-json obs.json
//! # Under chaos: any target plus `--fault-seed <n>` injects seeded
//! # transient broker faults into every processing phase and appends the
//! # run-incident table (which runs needed retries, which were dropped):
//! cargo run --release -p streambench-bench --bin reproduce -- smoke --fault-seed 2019
//! # Latency mode: an open-loop, coordinated-omission-safe offered-rate
//! # sweep per (engine, SDK, parallelism) cell, with p50/p95/p99/p999
//! # and a sustainable-vs-overloaded verdict per trial
//! # (`STREAMBENCH_LATENCY_*` env vars set records/warmup):
//! cargo run --release -p streambench-bench --bin reproduce -- --latency --rates 500,2000,8000 --latency-json latency.json
//! ```
//!
//! Any other argument — a second target, an unknown flag, a latency
//! flag without `--latency` — is an error (exit code 2), never ignored.
//!
//! Absolute numbers differ from the paper (this substrate is an
//! in-process simulation, not a virtualized JVM cluster); the reproduced
//! quantity is the *shape*: orderings, ratios, and where the exceptions
//! fall. See EXPERIMENTS.md for the side-by-side record.

use std::collections::BTreeMap;
use streambench_core::{
    report, Api, BenchConfig, BenchmarkRunner, LatencyConfig, Measurement, Query, System,
};

/// One invocation's arguments.
#[derive(Debug, PartialEq)]
struct Args {
    /// The artifact to print; `None` in latency mode.
    target: Option<String>,
    obs_json: Option<String>,
    /// Installs a `logbus::FaultPlan` of transient broker faults for
    /// every processing phase; the run-incident table at the end of the
    /// campaign records which runs needed retries.
    fault_seed: Option<u64>,
    /// `--rates`, `--latency-json`: only with `--latency`.
    rates: Option<String>,
    latency_json: Option<String>,
}

/// Parses the arguments after the program name. Everything is
/// accounted for: an unknown flag, a second target, or a flag outside
/// its mode is an error naming the argument.
fn parse(mut args: Vec<String>) -> Result<Args, String> {
    let obs_json = take_value(&mut args, "--obs-json")?;
    let fault_seed = take_value(&mut args, "--fault-seed")?
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("--fault-seed requires a numeric seed, got `{raw}`"))
        })
        .transpose()?;
    let latency = args
        .iter()
        .position(|a| a == "--latency")
        .map(|at| args.remove(at))
        .is_some();
    let rates = take_value(&mut args, "--rates")?;
    let latency_json = take_value(&mut args, "--latency-json")?;
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag `{flag}`"));
    }
    let mut rest = args.into_iter();
    let target = if latency {
        if fault_seed.is_some() {
            return Err("--fault-seed does not apply to --latency".into());
        }
        None
    } else {
        for (flag, value) in [("--rates", &rates), ("--latency-json", &latency_json)] {
            if value.is_some() {
                return Err(format!("{flag} requires --latency"));
            }
        }
        Some(rest.next().unwrap_or_else(|| "all".into()))
    };
    if let Some(extra) = rest.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok(Args {
        target,
        obs_json,
        fault_seed,
        rates,
        latency_json,
    })
}

/// Removes `<flag> <value>` from the argument list, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{flag} requires an argument"));
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Ok(Some(value))
}

fn main() {
    let args = parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let fault_seed = args.fault_seed;

    if args.obs_json.is_some() {
        obs::set_enabled(true);
        obs::global().reset();
    }

    let Some(target) = args.target.as_deref() else {
        latency_mode(args.rates.as_deref(), args.latency_json.as_deref());
        if let Some(path) = args.obs_json {
            export_obs(&path);
        }
        return;
    };

    match target {
        "smoke" => smoke(fault_seed),
        "table1" => print!("{}", report::table_one()),
        "table2" => print!("{}", report::table_two()),
        "fig6" => execution_times(&campaign(&[Query::Identity], fault_seed)),
        "fig7" => execution_times(&campaign(&[Query::Sample], fault_seed)),
        "fig8" => execution_times(&campaign(&[Query::Projection], fault_seed)),
        "fig9" => execution_times(&campaign(&[Query::Grep], fault_seed)),
        "fig10" => fig10(&campaign(&Query::ALL, fault_seed)),
        "table3" => {
            let measurements = campaign(&Query::ALL, fault_seed);
            fig10(&measurements);
            table3(&measurements);
        }
        "fig11" => fig11(&campaign(&Query::ALL, fault_seed)),
        "all" => {
            println!("=== Table I: system comparison ===");
            print!("{}", report::table_one());
            println!("\n=== Table II: benchmark queries ===");
            print!("{}", report::table_two());
            println!();
            // One campaign feeds every figure and Table III.
            let measurements = campaign(&Query::ALL, fault_seed);
            execution_times(&measurements);
            fig11(&measurements);
            fig10(&measurements);
            table3(&measurements);
        }
        other => {
            eprintln!(
                "unknown target `{other}`; use smoke|table1|table2|fig6|fig7|fig8|fig9|fig10|fig11|table3|all"
            );
            std::process::exit(2);
        }
    }

    if let Some(path) = args.obs_json {
        export_obs(&path);
    }
}

/// The latency-mode benchmark: sweeps offered rates per (engine, SDK,
/// parallelism) cell with the open-loop coordinated-omission-safe
/// sender, classifies each cell sustainable vs overloaded, and prints
/// the per-cell p50/p95/p99/p999 table (plus JSON when requested).
/// Defaults come from `STREAMBENCH_LATENCY_*`; `--rates a,b,c`
/// overrides the sweep.
fn latency_mode(rates: Option<&str>, json_path: Option<&str>) {
    let mut config = LatencyConfig::from_env();
    if let Some(raw) = rates {
        let parsed: Vec<f64> = raw
            .split(',')
            .filter_map(|part| part.trim().parse().ok())
            .filter(|r: &f64| r.is_finite() && *r > 0.0)
            .collect();
        if parsed.is_empty() {
            eprintln!("--rates requires a comma-separated list of positive numbers, got `{raw}`");
            std::process::exit(2);
        }
        config = config.rates(parsed);
    }
    eprintln!(
        "running latency sweep: {} query, {} records/trial, rates {:?}, parallelisms {:?}",
        config.query, config.records, config.rates, config.parallelisms
    );
    let report = match streambench_core::run_latency(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("latency sweep failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report::latency_table(&report));
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("latency report written to {path}");
    }
}

/// A minimal instrumented campaign: the grep query across all six
/// system × API setups, one run, small workload. Exists so CI can assert
/// the instrumentation pipeline end to end in seconds.
fn smoke(fault_seed: Option<u64>) {
    let mut config = BenchConfig::quick()
        .records(500)
        .runs(1)
        .parallelisms(vec![1]);
    if let Some(seed) = fault_seed {
        config = config.with_fault_seed(seed);
    }
    eprintln!(
        "running smoke campaign: grep, 500 records, 6 setups{}",
        fault_seed
            .map(|s| format!(", fault seed {s}"))
            .unwrap_or_default()
    );
    let runner = BenchmarkRunner::new(config);
    let outcome = runner.run_query_report(Query::Grep).expect("smoke run");
    let rows = report::average_times(&outcome.measurements, Query::Grep);
    println!(
        "{}",
        report::render_bars("=== smoke: grep execution times (s) ===", &rows, "s")
    );
    print!("{}", report::render_incidents(&outcome.incidents));
}

/// Writes the collected metrics, spans, and per-stage totals as JSON and
/// prints the span tree.
fn export_obs(path: &str) {
    let spans = obs::global().tracer().snapshot_spans();
    let metrics = obs::global().registry().snapshot();

    // Per-stage totals: summed duration of every span with a benchmark
    // stage name (the three-phase process of paper §III-A, with `process`
    // split out of `measure` = drain + calculate).
    let mut stages: BTreeMap<&str, u64> = BTreeMap::new();
    for stage in ["send", "process", "drain", "calculate"] {
        stages.insert(stage, 0);
    }
    for span in &spans {
        if let Some(total) = stages.get_mut(span.name.as_str()) {
            *total += span.duration_micros;
        }
    }

    let mut out = String::new();
    out.push_str("{\"metrics\":");
    out.push_str(&metrics.to_json());
    out.push_str(",\"spans\":");
    out.push_str(&obs::span::spans_to_json(&spans));
    out.push_str(",\"stages\":{");
    for (i, (stage, micros)) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{stage}\":{micros}"));
    }
    out.push_str("}}");
    std::fs::write(path, &out).expect("write obs json");

    eprintln!("\n=== span tree ===");
    eprint!("{}", obs::span::render_tree(&spans));
    eprintln!("obs snapshot written to {path}");
}

/// Runs `queries` over the 12-setup matrix, every run byte-verified,
/// and prints the incident table once.
fn campaign(queries: &[Query], fault_seed: Option<u64>) -> Vec<Measurement> {
    let mut config = BenchConfig::default();
    if let Some(seed) = fault_seed {
        config = config.with_fault_seed(seed);
    }
    eprintln!(
        "running campaign: {} records, {} runs, parallelisms {:?}{}",
        config.records,
        config.runs,
        config.parallelisms,
        fault_seed
            .map(|s| format!(", fault seed {s}"))
            .unwrap_or_default()
    );
    let runner = BenchmarkRunner::new(config);
    let mut measurements = Vec::new();
    let mut incidents = Vec::new();
    for &query in queries {
        eprintln!("  benchmarking {query} over the 12-setup matrix...");
        let outcome = runner.run_query_report(query).expect("benchmark run");
        measurements.extend(outcome.measurements);
        incidents.extend(outcome.incidents);
    }
    print!("{}", report::render_incidents(&incidents));
    measurements
}

fn figure_number(query: Query) -> u32 {
    match query {
        Query::Identity => 6,
        Query::Sample => 7,
        Query::Projection => 8,
        Query::Grep => 9,
    }
}

/// Figs. 6–9, one per query the campaign ran.
fn execution_times(measurements: &[Measurement]) {
    for query in Query::ALL {
        let rows = report::average_times(measurements, query);
        if rows.is_empty() {
            continue;
        }
        println!(
            "{}",
            report::render_bars(
                &format!(
                    "=== Fig. {}: average execution times — {query} query (s) ===",
                    figure_number(query)
                ),
                &rows,
                "s"
            )
        );
    }
}

fn fig11(measurements: &[Measurement]) {
    let mut rows = Vec::new();
    for query in Query::ALL {
        rows.extend(report::slowdown_factors(measurements, query));
    }
    println!(
        "{}",
        report::render_bars(
            "=== Fig. 11: slowdown factor sf(dsps, query) ===",
            &rows,
            "x"
        )
    );
}

/// Fig. 10: the measured run-to-run spread of the same campaign.
fn fig10(measurements: &[Measurement]) {
    let rows = report::relative_std_devs(measurements);
    println!(
        "{}",
        report::render_bars(
            "=== Fig. 10: relative standard deviation per system-query-SDK ===",
            &rows,
            ""
        )
    );
}

fn table3(measurements: &[Measurement]) {
    let per_run: BTreeMap<usize, Vec<f64>> =
        report::per_run_times(measurements, System::Rill, Api::Native, Query::Identity);
    println!("=== Table III: per-run identity times on the Flink analog ===");
    print!("{}", report::table_three(&per_run));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(ToString::to_string).collect())
    }

    #[test]
    fn removed_sweep_flag_is_rejected() {
        let err = parse_args(&["--scaleout"]).unwrap_err();
        assert!(err.contains("--scaleout"), "{err}");
        let err = parse_args(&["fig6", "--scaleout"]).unwrap_err();
        assert!(err.contains("--scaleout"), "{err}");
    }

    #[test]
    fn latency_flags_without_latency_are_rejected() {
        let err = parse_args(&["--rates", "1000"]).unwrap_err();
        assert!(err.contains("--rates"), "{err}");
        let err = parse_args(&["fig9", "--latency-json", "l.json"]).unwrap_err();
        assert!(err.contains("--latency-json"), "{err}");
    }

    #[test]
    fn a_second_target_is_rejected() {
        let err = parse_args(&["fig6", "fig7"]).unwrap_err();
        assert!(err.contains("fig7"), "{err}");
        let err = parse_args(&["--latency", "fig6"]).unwrap_err();
        assert!(err.contains("fig6"), "{err}");
    }

    #[test]
    fn target_with_fault_seed_and_obs_json_parses() {
        assert_eq!(
            parse_args(&["fig6", "--fault-seed", "3", "--obs-json", "x"]),
            Ok(Args {
                target: Some("fig6".into()),
                obs_json: Some("x".into()),
                fault_seed: Some(3),
                rates: None,
                latency_json: None,
            })
        );
        assert_eq!(parse_args(&[]).unwrap().target.as_deref(), Some("all"));
        let latency = parse_args(&["--latency", "--rates", "1000,8000"]).unwrap();
        assert_eq!(latency.target, None);
        assert_eq!(latency.rates.as_deref(), Some("1000,8000"));
        assert!(parse_args(&["fig6", "--fault-seed", "x"]).is_err());
        assert!(parse_args(&["fig6", "--obs-json"]).is_err());
    }
}
