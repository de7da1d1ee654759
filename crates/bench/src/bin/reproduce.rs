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
//! # Scale-out mode: binary-search the max sustainable open-loop rate
//! # per (engine, SDK, parallelism) cell, input topic partitioned to
//! # the cell's parallelism and split by the engine's consumer group
//! # (`STREAMBENCH_SCALEOUT_*` env vars set records/bracket/iters):
//! cargo run --release -p streambench-bench --bin reproduce -- --scaleout --parallelisms 1,2,4,8,16,32 --scaleout-json scaleout.json
//! ```
//!
//! Absolute numbers differ from the paper (this substrate is an
//! in-process simulation, not a virtualized JVM cluster); the reproduced
//! quantity is the *shape*: orderings, ratios, and where the exceptions
//! fall. See EXPERIMENTS.md for the side-by-side record.

use std::collections::BTreeMap;
use streambench_core::{
    report, Api, BenchConfig, BenchmarkRunner, LatencyConfig, Measurement, Query, ScaleoutConfig,
    System,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs_json = take_obs_json(&mut args);
    let fault_seed = take_fault_seed(&mut args);
    let latency = take_flag(&mut args, "--latency");
    let rates = take_value(&mut args, "--rates");
    let latency_json = take_value(&mut args, "--latency-json");
    let scaleout = take_flag(&mut args, "--scaleout");
    let parallelisms = take_value(&mut args, "--parallelisms");
    let scaleout_json = take_value(&mut args, "--scaleout-json");
    let target = args.first().map_or("all", String::as_str);

    if obs_json.is_some() {
        obs::set_enabled(true);
        obs::global().reset();
    }

    if latency {
        latency_mode(rates.as_deref(), latency_json.as_deref());
        if let Some(path) = obs_json {
            export_obs(&path);
        }
        return;
    }

    if scaleout {
        scaleout_mode(parallelisms.as_deref(), scaleout_json.as_deref());
        if let Some(path) = obs_json {
            export_obs(&path);
        }
        return;
    }

    match target {
        "smoke" => smoke(fault_seed),
        "table1" => print!("{}", report::table_one()),
        "table2" => print!("{}", report::table_two()),
        "fig6" => figures(&[Query::Identity], fault_seed),
        "fig7" => figures(&[Query::Sample], fault_seed),
        "fig8" => figures(&[Query::Projection], fault_seed),
        "fig9" => figures(&[Query::Grep], fault_seed),
        "fig10" => fig10_and_table3(false, fault_seed),
        "table3" => fig10_and_table3(true, fault_seed),
        "fig11" => fig11(fault_seed),
        "all" => {
            println!("=== Table I: system comparison ===");
            print!("{}", report::table_one());
            println!("\n=== Table II: benchmark queries ===");
            print!("{}", report::table_two());
            println!();
            // One noise-off campaign feeds Figs. 6-9 and 11; the noisy
            // campaign feeds Fig. 10 and Table III.
            let measurements = campaign(&Query::ALL, false, fault_seed);
            for query in Query::ALL {
                let rows = report::average_times(&measurements, query);
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
            let mut rows = Vec::new();
            for query in Query::ALL {
                rows.extend(report::slowdown_factors(&measurements, query));
            }
            println!(
                "{}",
                report::render_bars(
                    "=== Fig. 11: slowdown factor sf(dsps, query) ===",
                    &rows,
                    "x"
                )
            );
            fig10_and_table3(true, fault_seed);
        }
        other => {
            eprintln!(
                "unknown target `{other}`; use smoke|table1|table2|fig6|fig7|fig8|fig9|fig10|fig11|table3|all"
            );
            std::process::exit(2);
        }
    }

    if let Some(path) = obs_json {
        export_obs(&path);
    }
}

/// Removes `--obs-json <path>` from the argument list, if present.
fn take_obs_json(args: &mut Vec<String>) -> Option<String> {
    let at = args.iter().position(|a| a == "--obs-json")?;
    if at + 1 >= args.len() {
        eprintln!("--obs-json requires a path argument");
        std::process::exit(2);
    }
    let path = args.remove(at + 1);
    args.remove(at);
    Some(path)
}

/// Removes a boolean flag from the argument list, returning whether it
/// was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(at) => {
            args.remove(at);
            true
        }
        None => false,
    }
}

/// Removes `<flag> <value>` from the argument list, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Some(value)
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

/// The scale-out benchmark: binary-searches the max sustainable
/// open-loop rate per (engine, SDK, parallelism) cell. The input topic
/// is partitioned to the cell's parallelism, records are key-hash
/// routed with `logbus::partition_for_key`, and the engine's
/// consumer group splits the partitions across its parallel sources.
/// Defaults come from `STREAMBENCH_SCALEOUT_*`; `--parallelisms a,b,c`
/// overrides the sweep.
fn scaleout_mode(parallelisms: Option<&str>, json_path: Option<&str>) {
    let mut config = ScaleoutConfig::from_env();
    if let Some(raw) = parallelisms {
        let parsed: Vec<usize> = raw
            .split(',')
            .filter_map(|part| part.trim().parse().ok())
            .filter(|p: &usize| *p > 0)
            .collect();
        if parsed.is_empty() {
            eprintln!(
                "--parallelisms requires a comma-separated list of positive integers, got `{raw}`"
            );
            std::process::exit(2);
        }
        config = config.parallelisms(parsed);
    }
    eprintln!(
        "running scale-out sweep: {} records/probe, bracket [{:.0}, {:.0}] rec/s, parallelisms {:?}",
        config.records, config.min_rate, config.max_rate, config.parallelisms
    );
    let report = match streambench_core::run_scaleout(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scale-out sweep failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report::scaleout_table(&report));
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("scale-out report written to {path}");
    }
}

/// Removes `--fault-seed <n>` from the argument list, if present.
/// The seed installs a `logbus::FaultPlan` of transient broker faults
/// for every processing phase; the run-incident table at the end of the
/// campaign records which runs needed retries.
fn take_fault_seed(args: &mut Vec<String>) -> Option<u64> {
    let at = args.iter().position(|a| a == "--fault-seed")?;
    if at + 1 >= args.len() {
        eprintln!("--fault-seed requires a numeric seed argument");
        std::process::exit(2);
    }
    let raw = args.remove(at + 1);
    args.remove(at);
    match raw.parse() {
        Ok(seed) => Some(seed),
        Err(_) => {
            eprintln!("--fault-seed requires a numeric seed, got `{raw}`");
            std::process::exit(2);
        }
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

fn campaign(queries: &[Query], noise: bool, fault_seed: Option<u64>) -> Vec<Measurement> {
    let mut config = BenchConfig::default();
    if noise {
        config = config.with_noise(2019);
    }
    if let Some(seed) = fault_seed {
        config = config.with_fault_seed(seed);
    }
    eprintln!(
        "running campaign: {} records, {} runs, parallelisms {:?}, noise {}{}",
        config.records,
        config.runs,
        config.parallelisms,
        if noise { "on" } else { "off" },
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

fn figures(queries: &[Query], fault_seed: Option<u64>) {
    let measurements = campaign(queries, false, fault_seed);
    for &query in queries {
        let rows = report::average_times(&measurements, query);
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

fn fig11(fault_seed: Option<u64>) {
    let measurements = campaign(&Query::ALL, false, fault_seed);
    let mut rows = Vec::new();
    for query in Query::ALL {
        rows.extend(report::slowdown_factors(&measurements, query));
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

fn fig10_and_table3(with_table3: bool, fault_seed: Option<u64>) {
    // The variance experiments run with the environment-noise model on:
    // the paper's cluster had noisy neighbours, this substrate does not
    // (see DESIGN.md).
    let measurements = campaign(&Query::ALL, true, fault_seed);
    let rows = report::relative_std_devs(&measurements);
    println!(
        "{}",
        report::render_bars(
            "=== Fig. 10: relative standard deviation per system-query-SDK ===",
            &rows,
            ""
        )
    );
    if with_table3 {
        let per_run: BTreeMap<usize, Vec<f64>> =
            report::per_run_times(&measurements, System::Rill, Api::Native, Query::Identity);
        println!("=== Table III: per-run identity times on the Flink analog ===");
        print!("{}", report::table_three(&per_run));
    }
}
