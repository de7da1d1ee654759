//! Kill-the-leader failover campaign: runs every engine cell against a
//! replicated broker cluster while a chaos thread repeatedly fails the
//! partition leader's host, and reports unavailability percentiles plus
//! output correctness as JSON.
//!
//! ```sh
//! cargo run --release -p streambench-bench --bin failover -- --json failover.json
//! ```
//!
//! `STREAMBENCH_FAILOVER_RECORDS` sets the input records per cell; the
//! fleet (three brokers) and the kill schedule (two leader kills per
//! cell, 10 ms down each) are fixed.

use std::io::Write as _;

use streambench_core::{percentile_micros, run_failover, FailoverConfig};

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next(),
            "--help" | "-h" => {
                eprintln!("usage: failover [--json PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let config = FailoverConfig::from_env();
    eprintln!(
        "failover campaign: {} records x {} cells, {} leader kills per cell",
        config.records,
        config.cells.len(),
        config.kills_per_cell,
    );

    let report = match run_failover(&config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("failover campaign failed: {err}");
            std::process::exit(1);
        }
    };

    for cell in &report.cells {
        let windows = &cell.unavailability_micros;
        eprintln!(
            "  {:<16} ok={} kills={} displaced={} epoch={} unavailability p50={}us p99={}us",
            format!("{}/{}", cell.setup.system, cell.setup.api),
            cell.output_ok,
            cell.kills,
            cell.displaced_containers,
            cell.input_epoch,
            percentile_micros(windows, 50.0),
            percentile_micros(windows, 99.0),
        );
    }
    let all = report.unavailability_micros();
    eprintln!(
        "overall unavailability over {} windows: p50={}us p99={}us max={}us",
        all.len(),
        percentile_micros(&all, 50.0),
        percentile_micros(&all, 99.0),
        all.iter().copied().max().unwrap_or(0),
    );

    let json = report.to_json();
    match json_path {
        Some(path) => match std::fs::File::create(&path).and_then(|mut f| {
            f.write_all(json.as_bytes())?;
            f.write_all(b"\n")
        }) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(err) => {
                eprintln!("failed to write {path}: {err}");
                std::process::exit(1);
            }
        },
        None => println!("{json}"),
    }

    if !report.all_ok() {
        eprintln!("FAIL: at least one cell diverged from the reference output");
        std::process::exit(1);
    }
}
