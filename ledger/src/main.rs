//! `ledger` — this repository's benchmark.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! ledger run [--runs N] [--seed S] [--seconds S] [--workload W]... [--trace 0|1] [--out F]
//! ledger compare A.json B.json [--bench BENCHMARK.json]
//! ledger smoke
//! ```
//!
//! See `README.md` beside this crate for the metric and workload
//! glossary and how the metrics interact.

mod bench;
mod cells;
mod compare;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod trial;
mod workloads;

use bench::{RunOptions, MIN_ROUNDS, SETUP_REPS};
use json::{object, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_SEED: u64 = 2019;
/// Where running leaves files unless told otherwise (git-ignored).
const OUT_DIR: &str = "ledger-out";

/// `--key value` pairs after the subcommand, plus bare arguments.
struct Args {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            bare: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = iter.next().ok_or(format!("--{key} needs a value"))?;
                    parsed.flags.push((key.to_string(), value.clone()));
                }
                None => parsed.bare.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn all(&self, key: &str) -> Vec<&str> {
        let hits = self.flags.iter().filter(|(k, _)| k == key);
        hits.map(|(_, v)| v.as_str()).collect()
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.all(key).last() {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key} {text}: not a number")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.number("trace", 0u8)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace {other}: expected 0 or 1")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        let names = self.all("workload");
        if names.is_empty() {
            return Ok(WORKLOADS.to_vec());
        }
        let find = |name: &&str| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            workloads::find(name).copied().ok_or(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ))
        };
        names.iter().map(find).collect()
    }
}

fn span_file(workload: &Workload) -> PathBuf {
    Path::new(OUT_DIR).join(format!("spans.{}.json", workload.name))
}

/// The contract's command: one workload, one run, the result object as
/// the last line of standard output.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let [workload] = args.workloads()?[..] else {
        return Err("name exactly one --workload".into());
    };
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let trace = args.trace()?;
    let opts = RunOptions {
        workload,
        seed,
        seconds,
        trace,
        min_rounds: MIN_ROUNDS,
        setup_reps: if trace { 1 } else { SETUP_REPS },
        span_file: trace.then(|| {
            args.all("trace-out")
                .last()
                .map_or(span_file(&workload), PathBuf::from)
        }),
    };
    println!("workload {}: {}", workload.name, workload.why);
    let result = bench::run(&opts)?;
    result.metrics.print();
    println!(
        "ops_attempted {}  ops_failed {}",
        result.attempted, result.failed
    );
    for name in &result.missing {
        eprintln!("MISSING {name}");
    }
    if let Some(path) = args.all("out").last() {
        let entry = compare::run_entry(
            workload.name,
            seed,
            trace,
            result.wall_s,
            result.to_value(),
            result.trials.clone(),
        );
        write_result_file(Path::new(path), seed, seconds, vec![entry])?;
    }
    println!("{}", result.to_value().to_json());
    Ok(ExitCode::SUCCESS)
}

fn write_result_file(path: &Path, seed: u64, seconds: f64, runs: Vec<Value>) -> Result<(), String> {
    let file = object([
        ("fingerprint", report::fingerprint(seed, seconds)),
        ("claim", Value::Null),
        ("runs", Value::Array(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the single-run command in a child process per (seed, workload)
/// — one process per run, so `VmHWM` is that run's own — with seeds
/// `seed, seed + 1, ...` outermost, and gathers the result lines.
fn run_many(args: &Args) -> Result<ExitCode, String> {
    let workloads = args.workloads()?;
    let runs: u64 = args.number("runs", 1)?;
    let first_seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let trace = args.trace()?;
    let default_out = Path::new(OUT_DIR).join("results.json");
    let out = args.all("out").last().map_or(default_out, PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;

    let mut entries = Vec::new();
    let mut all_correct = true;
    for seed in first_seed..first_seed + runs {
        for workload in &workloads {
            let started = std::time::Instant::now();
            let child = std::process::Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let wall_s = started.elapsed().as_secs_f64();
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !child.status.success() {
                return Err(format!(
                    "run of {} seed {seed} exited with {}",
                    workload.name, child.status
                ));
            }
            let result = json::parse(last)?;
            let correct = result.get("correct") == Some(&Value::Bool(true));
            all_correct &= correct;
            println!(
                "{:<14} seed {seed} {wall_s:>6.1} s  correct {correct}",
                workload.name
            );
            entries.push(compare::run_entry(
                workload.name,
                seed,
                trace,
                wall_s,
                result,
                Value::Null,
            ));
        }
    }
    write_result_file(&out, first_seed, seconds, entries)?;
    let file = compare::read_json(&out)?;
    compare::print_spreads(
        &file,
        compare::read_json(Path::new("BENCHMARK.json"))
            .ok()
            .as_ref(),
    );
    println!("results written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [baseline, candidate] = &args.bare[..] else {
        return Err("compare takes two result files".into());
    };
    let bench = args
        .all("bench")
        .last()
        .copied()
        .unwrap_or("BENCHMARK.json");
    let worse = compare::compare(
        &compare::read_json(Path::new(baseline))?,
        &compare::read_json(Path::new(candidate))?,
        &compare::read_json(Path::new(bench))?,
    )?;
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Every workload, untraced then traced, at a hundredth of the records
/// and one round: exercises the whole harness in seconds, bounds nothing.
fn smoke() -> Result<ExitCode, String> {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOptions {
                workload: workload.scaled_down(100),
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace,
                min_rounds: 1,
                setup_reps: 1,
                span_file: None,
            };
            let result = bench::run(&opts)?;
            println!(
                "smoke {:<14} trace {} correct {} ops {}/{} metrics {} in {:.1} s",
                workload.name,
                u8::from(trace),
                result.correct(),
                result.attempted - result.failed,
                result.attempted,
                result.metrics.names().count(),
                result.wall_s,
            );
            for name in &result.missing {
                eprintln!("MISSING {name}");
            }
            ok &= result.correct();
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(sub @ ("run" | "compare" | "smoke")) => (sub, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "run" => run_many(&args),
        "compare" => compare_files(&args),
        "smoke" => smoke(),
        _ => run_one(&args),
    });
    outcome.unwrap_or_else(|why| {
        eprintln!("ledger: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the names, units and run
    /// length it declares must be the ones this program reports.
    #[test]
    fn benchmark_json_declares_what_the_program_reports() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            let entries = doc.get(key).unwrap().as_array().iter();
            let mut names: Vec<String> = entries
                .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
                .collect();
            names.sort();
            names
        };
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(names("end_to_end"), sorted(bench::end_to_end_names()));
        assert_eq!(names("per_layer"), sorted(bench::per_layer_names()));
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        let declared = doc.get("workloads").unwrap().as_array();
        assert_eq!(declared.len(), WORKLOADS.len());
        for (entry, workload) in declared.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(workload.name));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(workload.why));
        }
        let gates = compare::gates(&doc).unwrap();
        assert!(gates
            .iter()
            .all(|g| g.bound > 0.0 && g.bound <= 0.25 && g.lower_is_better));
        assert!(gates.iter().any(|g| g.name == "setup_s"));
        assert_eq!(
            doc.get("paths").unwrap().as_array(),
            [json::string("ledger")]
        );
    }
}
