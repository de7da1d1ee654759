//! One run of one workload: set-up, interleaved rounds of trials until
//! the time budget is spent, and the metrics distilled from them. The
//! untraced run yields the end-to-end metrics from bounded jobs alone;
//! the traced run repeats a shorter version of it with the open loop
//! added, and then builds the per-layer ledger.

use crate::cells::{Cell, Fleet, System, CELLS};
use crate::json::{object, Value};
use crate::layers::isolation_loops;
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::stats::{median, percentile, rsd};
use crate::trace;
use crate::trial::{
    bounded_trial, open_trial, preload, references, rtt_micros, span, BoundedTrial, OpenTrial,
    Reference, TrialContext, MAX_DRAIN_RATIO,
};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Rounds a measured run never goes below, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 3;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Share of `--seconds` a traced run spends on untraced rounds before
/// its traced round, RTT-0 round and isolation loops.
const TRACED_RUN_ROUND_SHARE: f64 = 0.4;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// How long the rounds of trials measure, s.
    pub seconds: f64,
    pub trace: bool,
    pub min_rounds: usize,
    pub setup_reps: usize,
    /// Where a traced run writes its spans.
    pub span_file: Option<PathBuf>,
}

/// The end-to-end metric names, on every workload. Open-loop latency
/// is not among them: its run-to-run spread on a shared host is too
/// wide to gate (README, "Demotions"), so it is reported per layer as
/// `cell.lat_p50_us.<cell>` and untraced runs spend all their time on
/// bounded jobs.
pub fn end_to_end_names() -> Vec<String> {
    let mut names = vec!["setup_s".to_string()];
    names.extend(
        CELLS
            .iter()
            .map(|cell| format!("ns_per_rec.{}", cell.name())),
    );
    names
}

/// The per-layer metric names, on every workload.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "proc.peak_rss_mb",
        "core.verify_s",
        "core.sender.openloop_max_lag_us",
        "core.sender.preload_rec_per_s",
        "core.data.gen_ns_per_rec",
        "core.query.apply_ns_per_rec",
        "logbus.fetch1024_ns_per_rec",
        "logbus.produce_batch512_ns_per_rec",
        "logbus.produce_batch512_rtt0_ns_per_rec",
        "logbus.produce_sync1_ns_per_rec",
        "logbus.async_producer_ns_per_rec",
        "logbus.cluster_produce_batch512_ns_per_rec",
        "logbus.cluster_fetch1024_ns_per_rec",
        "beamline.coder_roundtrip_ns_per_rec",
        "beamline.direct_ns_per_rec",
        "beamline.stage_count",
        "yarnsim.allocate_us",
        "obs.overhead_share",
        "obs.spans_recorded",
    ]
    .map(String::from)
    .to_vec();
    for system in System::ALL {
        names.push(format!("sf.{}", system.name()));
        names.push(format!("beamline.overhead_ns_per_rec.{}", system.name()));
    }
    for cell in CELLS {
        for family in [
            "cell.ns_per_rec",
            "cell.lat_p50_us",
            "cell.rtt0_ns_per_rec",
            "rsd",
            "core.run_wall_s",
            "core.startup_s",
            "logbus.out_batch_records",
            "lat_p99_us",
            "drain_ratio",
        ]
        .into_iter()
        .chain(trace::SHARE_FAMILIES)
        {
            names.push(format!("{family}.{}", cell.name()));
        }
    }
    names
}

/// A preloaded bus and what correct outputs look like.
struct Prepared {
    fleet: Fleet,
    bounded: BTreeMap<u64, Reference>,
    preload_rec_per_s: f64,
}

/// Everything before the first timed trial: topics, input generation
/// and preload, reference digests (on a second thread, beside the
/// preload), and one untimed trial of the first cell so pools and lazy
/// statics are warm.
fn set_up(workload: &Workload, seed: u64) -> Result<Prepared, String> {
    let _s = span("setup", &[]);
    let fleet = Fleet::new(workload.bus, rtt_micros());
    let setup_span = obs::global().tracer().current_span_id();
    let (preloaded, bounded) = std::thread::scope(|scope| {
        let reference = scope.spawn(move || {
            let _s = obs::global().tracer().span_under(setup_span, "reference");
            references(workload.query, seed, &workload.input_sizes())
        });
        let preloaded = {
            let _s = span("preload", &[]);
            let started = Instant::now();
            preload(&fleet, workload, seed).map(|()| started.elapsed().as_secs_f64())
        };
        let bounded = reference.join().expect("the reference pass does not panic");
        (preloaded, bounded)
    });
    let records: u64 = workload.input_sizes().iter().sum();
    let prepared = Prepared {
        fleet,
        bounded,
        preload_rec_per_s: records as f64 / preloaded?,
    };
    let _s = span("warmup", &[]);
    let ctx = TrialContext {
        workload,
        cell: CELLS[0],
        seed,
    };
    bounded_trial(
        &ctx,
        &prepared.fleet,
        prepared.reference_of(&ctx),
        &mut |_| {},
    )?;
    Ok(prepared)
}

impl Prepared {
    fn reference_of(&self, ctx: &TrialContext<'_>) -> &Reference {
        &self.bounded[&ctx.workload.bounded_records[ctx.cell.index()]]
    }
}

/// Successful trials per cell, and the count of operations behind them.
#[derive(Default)]
struct Samples {
    bounded: [Vec<BoundedTrial>; 6],
    open: [Vec<OpenTrial>; 6],
    attempted: u64,
    failed: u64,
}

impl Samples {
    /// Books one operation; a failure is reported where it happens.
    fn book<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|why| {
                self.failed += 1;
                eprintln!("FAILED {why}");
            })
            .ok()
    }

    /// Every trial's own numbers, for result files: the medians above
    /// hide how the trials were spread.
    fn to_value(&self, setup_times: &[f64]) -> Value {
        let list = |values: Vec<f64>| Value::Array(values.into_iter().map(Value::Number).collect());
        let mut out = BTreeMap::new();
        out.insert("setup_s".to_string(), list(setup_times.to_vec()));
        for cell in CELLS {
            let bounded = &self.bounded[cell.index()];
            let open = &self.open[cell.index()];
            let per_cell = object([
                (
                    "ns_per_rec",
                    list(bounded.iter().map(|t| t.ns_per_rec).collect()),
                ),
                ("lat_p50_us", list(open.iter().map(|t| t.p50_us).collect())),
                ("lat_p99_us", list(open.iter().map(|t| t.p99_us).collect())),
                (
                    "max_lag_us",
                    list(open.iter().map(|t| t.max_lag_us).collect()),
                ),
            ]);
            out.insert(cell.name(), per_cell);
        }
        Value::Object(out)
    }

    fn bounded_median(&self, cell: Cell, of: impl Fn(&BoundedTrial) -> f64) -> Option<f64> {
        median(
            &self.bounded[cell.index()]
                .iter()
                .map(of)
                .collect::<Vec<_>>(),
        )
    }

    fn open_median(&self, cell: Cell, of: impl Fn(&OpenTrial) -> f64) -> Option<f64> {
        median(&self.open[cell.index()].iter().map(of).collect::<Vec<_>>())
    }

    /// Exact median latency over the post-warm-up outputs of all of the
    /// cell's open-loop trials, pooled, so every output weighs alike
    /// however few a trial of a sparse query yields.
    fn lat_p50_us(&self, cell: Cell) -> Option<f64> {
        let trials = self.open[cell.index()].iter();
        let mut pooled: Vec<f64> = trials
            .flat_map(|t| t.latencies_us.iter().copied())
            .collect();
        pooled.sort_by(f64::total_cmp);
        percentile(&pooled, 0.5)
    }
}

struct Run<'a> {
    opts: &'a RunOptions,
    prepared: Prepared,
    samples: Samples,
}

impl Run<'_> {
    fn ctx(&self, cell: Cell) -> TrialContext<'_> {
        TrialContext {
            workload: &self.opts.workload,
            cell,
            seed: self.opts.seed,
        }
    }

    /// One bounded trial of `cell`, booked as an operation. `after_run`
    /// sees the engine call's wall time before the output is read back.
    fn bounded(&mut self, cell: Cell, after_run: &mut dyn FnMut(f64)) -> Option<BoundedTrial> {
        let ctx = self.ctx(cell);
        let outcome = bounded_trial(
            &ctx,
            &self.prepared.fleet,
            self.prepared.reference_of(&ctx),
            after_run,
        );
        self.samples.book(outcome)
    }

    /// Round r runs all six cells — as bounded jobs, then, in a traced
    /// run, under the open loop — before round r + 1: slow drift of the
    /// host lands on every cell alike.
    fn round(&mut self) {
        let _s = span("round", &[]);
        for cell in CELLS {
            if let Some(trial) = self.bounded(cell, &mut |_| {}) {
                self.samples.bounded[cell.index()].push(trial);
            }
        }
        if !self.opts.trace {
            return;
        }
        for cell in CELLS {
            if let Some(trial) = self.open(cell) {
                self.samples.open[cell.index()].push(trial);
            }
        }
    }

    /// One open-loop trial of `cell`, booked as an operation; it fails
    /// if the cell did not keep up. Trials are a few tenths of a second,
    /// so one host stall can stretch a drain past the limit: a trial
    /// over it is repeated once — one is the host's, two are the cell's.
    fn open(&mut self, cell: Cell) -> Option<OpenTrial> {
        let ctx = self.ctx(cell);
        let lagging = |t: &OpenTrial| t.drain_ratio > MAX_DRAIN_RATIO;
        let mut outcome = open_trial(&ctx);
        if outcome.as_ref().is_ok_and(lagging) {
            eprintln!(
                "REPEATED {} open trial: drain ratio over {MAX_DRAIN_RATIO}",
                cell.name()
            );
            outcome = open_trial(&ctx);
        }
        let outcome = outcome.and_then(|trial| match lagging(&trial) {
            true => Err(format!(
                "{} open trial on {}: drain ratio {:.2} exceeds {MAX_DRAIN_RATIO} twice",
                cell.name(),
                ctx.workload.name,
                trial.drain_ratio
            )),
            false => Ok(trial),
        });
        self.samples.book(outcome)
    }

    /// Rounds until `seconds` are spent: another round starts only if
    /// the longest so far would still fit, and never fewer than
    /// `min_rounds` run.
    fn rounds(&mut self, seconds: f64, min_rounds: usize) {
        let started = Instant::now();
        let mut longest = 0.0f64;
        let mut done = 0usize;
        while done < min_rounds || started.elapsed().as_secs_f64() + longest <= seconds {
            let round_started = Instant::now();
            self.round();
            longest = longest.max(round_started.elapsed().as_secs_f64());
            done += 1;
        }
    }

    /// The traced round: `obs` on, one bounded trial per cell, the
    /// registry snapshotted after each engine call. Returns the summed
    /// engine wall time.
    fn traced_round(&mut self, metrics: &mut Metrics) -> f64 {
        let _s = span("round", &[("traced", "1".to_string())]);
        let mut traced_wall = 0.0;
        for cell in CELLS {
            obs::global().registry().reset();
            obs::set_enabled(true);
            let mut snapshot = None;
            let trial = self.bounded(cell, &mut |wall_s| {
                obs::set_enabled(false);
                snapshot = Some((obs::global().registry().snapshot(), wall_s));
            });
            obs::set_enabled(false);
            if let (Some(trial), Some((snapshot, wall_s))) = (trial, snapshot) {
                traced_wall += trial.wall_s;
                trace::shares(&snapshot, wall_s).record(cell, metrics);
            }
        }
        traced_wall
    }

    /// One bounded trial per cell with the modeled round trip at zero:
    /// end to end minus this is the network model's share.
    fn rtt0_round(&mut self, metrics: &mut Metrics) {
        let _s = span("round", &[("rtt_micros", "0".to_string())]);
        self.prepared.fleet.set_rtt_micros(0);
        for cell in CELLS {
            if let Some(trial) = self.bounded(cell, &mut |_| {}) {
                let name = format!("cell.rtt0_ns_per_rec.{}", cell.name());
                metrics.put(name, trial.ns_per_rec, "ns");
            }
        }
        self.prepared.fleet.set_rtt_micros(rtt_micros());
    }

    fn end_to_end(&self, setup_times: &[f64]) -> Metrics {
        let mut metrics = Metrics::default();
        if let Some(setup_s) = median(setup_times) {
            metrics.put("setup_s", setup_s, "s");
        }
        for cell in CELLS {
            if let Some(ns) = self.samples.bounded_median(cell, |t| t.ns_per_rec) {
                metrics.put(format!("ns_per_rec.{}", cell.name()), ns, "ns");
            }
        }
        metrics
    }

    /// What the untraced trials say about each cell and each layer
    /// around it.
    fn untraced_ledger(&self, metrics: &mut Metrics) {
        let samples = &self.samples;
        for cell in CELLS {
            let name = cell.name();
            let mut put = |family: &str, value: Option<f64>, unit| {
                if let Some(value) = value {
                    metrics.put(format!("{family}.{name}"), value, unit);
                }
            };
            let bounded = |of: fn(&BoundedTrial) -> f64| samples.bounded_median(cell, of);
            put("cell.ns_per_rec", bounded(|t| t.ns_per_rec), "ns");
            put("core.run_wall_s", bounded(|t| t.wall_s), "s");
            put("core.startup_s", bounded(|t| t.startup_s), "s");
            put(
                "logbus.out_batch_records",
                bounded(|t| t.out_batch_records),
                "count",
            );
            put("cell.lat_p50_us", samples.lat_p50_us(cell), "us");
            put("lat_p99_us", samples.open_median(cell, |t| t.p99_us), "us");
            put(
                "drain_ratio",
                samples.open_median(cell, |t| t.drain_ratio),
                "ratio",
            );
            let ns: Vec<f64> = samples.bounded[cell.index()]
                .iter()
                .map(|t| t.ns_per_rec)
                .collect();
            put("rsd", (!ns.is_empty()).then(|| rsd(&ns)), "ratio");
        }
        for system in System::ALL {
            let of = |beam| samples.bounded_median(Cell { system, beam }, |t| t.ns_per_rec);
            if let (Some(native), Some(beam)) = (of(false), of(true)) {
                metrics.put(format!("sf.{}", system.name()), beam / native, "ratio");
                let name = format!("beamline.overhead_ns_per_rec.{}", system.name());
                metrics.put(name, beam - native, "ns");
            }
        }
        let verify: Vec<f64> = samples
            .bounded
            .iter()
            .flatten()
            .map(|t| t.verify_s)
            .collect();
        if let Some(v) = median(&verify) {
            metrics.put("core.verify_s", v, "s");
        }
        let lag = samples.open.iter().flatten().map(|t| t.max_lag_us);
        if let Some(worst) = lag.reduce(f64::max) {
            metrics.put("core.sender.openloop_max_lag_us", worst, "us");
        }
        let rate = self.prepared.preload_rec_per_s;
        metrics.put("core.sender.preload_rec_per_s", rate, "1/s");
    }
}

/// Runs `opts.workload` once. `Err` means the run could not be set up
/// at all; failed operations are counted in the result instead.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    if obs::enabled() {
        return Err("obs is enabled: end-to-end numbers must come from an untraced run".into());
    }
    let run_started = Instant::now();
    obs::global().tracer().clear();
    let workload_span = span("workload", &[("workload", opts.workload.name.to_string())]);

    let mut setup_times = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.setup_reps.max(1) {
        // The previous set-up's bus goes first, so the peak is one bus.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(set_up(&opts.workload, opts.seed)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.ok_or("no set-up ran")?;
    let mut run = Run {
        opts,
        prepared,
        samples: Samples::default(),
    };

    let (metrics, owed) = if opts.trace {
        run.rounds(
            opts.seconds * TRACED_RUN_ROUND_SHARE,
            opts.min_rounds.min(2),
        );
        let mut metrics = Metrics::default();
        run.untraced_ledger(&mut metrics);
        let traced_wall = run.traced_round(&mut metrics);
        let untraced_wall: Option<f64> = CELLS
            .iter()
            .map(|&cell| run.samples.bounded_median(cell, |t| t.wall_s))
            .sum();
        if let Some(untraced_wall) = untraced_wall {
            metrics.put(
                "obs.overhead_share",
                traced_wall / untraced_wall - 1.0,
                "ratio",
            );
        }
        run.rtt0_round(&mut metrics);
        isolation_loops(&opts.workload, opts.seed, &mut metrics)?;
        drop(workload_span);
        let spans = trace::export(opts.span_file.as_deref())?;
        metrics.put("obs.spans_recorded", spans as f64, "count");
        if let Some(mb) = peak_rss_mb() {
            metrics.put("proc.peak_rss_mb", mb, "MB");
        }
        (metrics, per_layer_names())
    } else {
        run.rounds(opts.seconds, opts.min_rounds);
        (run.end_to_end(&setup_times), end_to_end_names())
    };

    let missing = owed
        .into_iter()
        .filter(|name| metrics.get(name).is_none())
        .collect();
    Ok(RunResult {
        metrics,
        trials: run.samples.to_value(&setup_times),
        attempted: run.samples.attempted,
        failed: run.samples.failed,
        missing,
        wall_s: run_started.elapsed().as_secs_f64(),
    })
}
