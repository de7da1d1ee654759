//! Kill-the-leader failover campaign: the robustness counterpart of the
//! throughput benchmarks.
//!
//! Each cell of the campaign runs one implementation variant of the
//! matrix against a **replicated** [`logbus::Cluster`] while a chaos
//! thread repeatedly fails the machine hosting the current partition
//! leader: the leader's YARN node goes down via
//! [`yarnsim::ResourceManager::fail_node`] (displacing the broker
//! container onto a healthy host, as the RM would), the broker process
//! is killed via [`Cluster::kill_broker`], and after a hold period the
//! broker rejoins via [`Cluster::restart_broker`] — truncating its
//! unacknowledged tail and catching back up into the in-sync set.
//!
//! The campaign asserts the DESIGN.md §10 contract end to end: with
//! epoch-fenced elections, a committed-read high-watermark, and
//! idempotent producer retries, every engine rides through the kills
//! with **byte-identical** output. The chaos thread also measures each
//! partition's unavailability window (leader kill until the partition
//! serves again under its successor), the number the EXPERIMENTS.md
//! failover appendix reports as percentiles.

use crate::config::env_u64;
use crate::queries::Query;
use crate::runner::BenchError;
use crate::setup::{Api, Setup, System};
use crate::trial::{self, Trial};
use logbus::{Cluster, ClusterConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Broker count of the replicated cluster (the paper's Kafka cluster
/// has three nodes).
const BROKERS: u32 = 3;
/// Micro-batch size of the `dstream` engine: small, so kills land
/// between batches rather than after the only one.
const DSTREAM_BATCH_RECORDS: usize = 256;
/// Engine parallelism: 1 keeps the byte-identity check order-sensitive.
const PARALLELISM: usize = 1;

/// Configuration of a failover campaign.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Input records per cell.
    pub records: u64,
    /// The query under test.
    pub query: Query,
    /// Leader kills injected while each cell's engine runs.
    pub kills_per_cell: u32,
    /// How long a killed broker stays down before it is restarted, in
    /// milliseconds. The cluster serves on the surviving replicas for
    /// the whole window.
    pub hold_millis: u64,
    /// Workload seed.
    pub seed: u64,
    /// The (system, API) cells to run. Defaults to all six variants.
    pub cells: Vec<(System, Api)>,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            records: 2_000,
            query: Query::Identity,
            kills_per_cell: 2,
            hold_millis: 10,
            seed: 2019,
            cells: System::ALL
                .iter()
                .flat_map(|&system| Api::ALL.iter().map(move |&api| (system, api)))
                .collect(),
        }
    }
}

impl FailoverConfig {
    /// The default configuration with the `STREAMBENCH_FAILOVER_RECORDS`
    /// environment override applied.
    pub fn from_env() -> Self {
        let default = FailoverConfig::default();
        FailoverConfig {
            records: env_u64("STREAMBENCH_FAILOVER_RECORDS", default.records),
            ..default
        }
    }
}

/// One completed failover cell.
#[derive(Debug, Clone)]
pub struct FailoverCell {
    /// The executed setup.
    pub setup: Setup,
    /// Records in the output topic (committed reads only).
    pub output_records: u64,
    /// Whether the output is byte-identical to the fault-free
    /// reference, in order.
    pub output_ok: bool,
    /// Leader kills actually landed during the run.
    pub kills: u32,
    /// Leader epoch of the input partition after the run — the number
    /// of elections it survived.
    pub input_epoch: u64,
    /// Broker containers the YARN node failures displaced (and the RM
    /// re-placed on healthy hosts).
    pub displaced_containers: u32,
    /// Per-kill unavailability windows: leader kill until the
    /// partition served a committed request again, µs.
    pub unavailability_micros: Vec<u64>,
}

/// Aggregated outcome of a failover campaign.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The query under test.
    pub query: Query,
    /// Broker count of the replicated cluster.
    pub brokers: u32,
    /// Input records per cell.
    pub records: u64,
    /// One entry per executed cell.
    pub cells: Vec<FailoverCell>,
}

/// Nearest-rank percentile over an unsorted sample; 0 for empty input.
pub fn percentile_micros(samples: &[u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl FailoverReport {
    /// All unavailability windows of the campaign, µs.
    pub fn unavailability_micros(&self) -> Vec<u64> {
        self.cells
            .iter()
            .flat_map(|c| c.unavailability_micros.iter().copied())
            .collect()
    }

    /// Whether every cell produced the byte-identical reference output.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.output_ok)
    }

    /// The report as one JSON object (hand-rolled, schema-stable).
    pub fn to_json(&self) -> String {
        let windows = self.unavailability_micros();
        let mut out = format!(
            "{{\"query\":\"{}\",\"brokers\":{},\"records\":{},\
             \"unavailability\":{{\"samples\":{},\"p50_micros\":{},\"p99_micros\":{},\"max_micros\":{}}},\
             \"cells\":[",
            self.query,
            self.brokers,
            self.records,
            windows.len(),
            percentile_micros(&windows, 50.0),
            percentile_micros(&windows, 99.0),
            windows.iter().copied().max().unwrap_or(0),
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"setup\":\"{}\",\"output_records\":{},\"output_ok\":{},\"kills\":{},\
                 \"input_epoch\":{},\"displaced_containers\":{},\"p50_micros\":{},\"max_micros\":{}}}",
                cell.setup,
                cell.output_records,
                cell.output_ok,
                cell.kills,
                cell.input_epoch,
                cell.displaced_containers,
                percentile_micros(&cell.unavailability_micros, 50.0),
                cell.unavailability_micros.iter().copied().max().unwrap_or(0),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The broker fleet as a YARN application: one node per broker, one
/// pinned broker container per node, plus the fleet's master container.
/// Failing a leader's host goes through the real RM path —
/// [`yarnsim::ResourceManager::fail_node`] kills the containers the node
/// hosted and re-places them on healthy capacity, which is what "the
/// broker restarts on another machine" means here.
struct BrokerHosts {
    rm: yarnsim::ResourceManager,
    app: yarnsim::ApplicationId,
    /// Broker index → the node currently hosting its container.
    hosts: Vec<yarnsim::NodeId>,
    displaced: u32,
}

/// Capacity of one broker host (memory MB, vcores).
const HOST_CAPACITY: (u64, u32) = (8_192, 8);
/// Size of one broker container.
const BROKER_CONTAINER: (u64, u32) = (4_096, 4);

impl BrokerHosts {
    fn new(brokers: u32) -> Result<Self, BenchError> {
        let chaos = |e: &dyn std::fmt::Display| BenchError::Broker(format!("broker hosts: {e}"));
        let mut rm = yarnsim::ResourceManager::new();
        let nodes: Vec<yarnsim::NodeId> = (0..brokers)
            .map(|_| rm.register_node(yarnsim::Resource::new(HOST_CAPACITY.0, HOST_CAPACITY.1)))
            .collect();
        let app = rm
            .submit_application("logbus-brokers", yarnsim::Resource::new(512, 1))
            .map_err(|e| chaos(&e))?;
        let mut hosts = Vec::with_capacity(brokers as usize);
        for &node in &nodes {
            let granted = rm
                .allocate(
                    app,
                    &[yarnsim::ResourceRequest::new(yarnsim::Resource::new(
                        BROKER_CONTAINER.0,
                        BROKER_CONTAINER.1,
                    ))
                    .on_node(node)],
                )
                .map_err(|e| chaos(&e))?;
            hosts.push(granted[0].node);
        }
        Ok(BrokerHosts {
            rm,
            app,
            hosts,
            displaced: 0,
        })
    }

    /// Fails the node hosting `broker`'s container. The RM re-places the
    /// displaced containers on healthy capacity; the broker's new host
    /// (where its process will restart) is recorded, and a replacement
    /// machine is registered so the fleet never runs out of hosts.
    fn fail_broker_host(&mut self, broker: usize) {
        let Ok(replacements) = self.rm.fail_node(self.hosts[broker]) else {
            return;
        };
        self.displaced += replacements.len() as u32;
        if let Some(container) = replacements.iter().find(|c| !c.is_master) {
            self.hosts[broker] = container.node;
        }
        // A fresh machine replaces the failed one, keeping capacity for
        // the next kill.
        let fresh = self
            .rm
            .register_node(yarnsim::Resource::new(HOST_CAPACITY.0, HOST_CAPACITY.1));
        let _ = self.app; // the fleet application stays registered
        let _ = fresh;
    }
}

/// What the chaos thread observed.
struct ChaosOutcome {
    kills: u32,
    displaced: u32,
    unavailability_micros: Vec<u64>,
}

/// Runs the kill-the-leader campaign.
///
/// # Errors
///
/// Fails on cluster errors outside the chaos window (topic creation,
/// workload load) or when an engine run fails outright; kills landing
/// mid-run are expected to be survived, not retried.
pub fn run_failover(config: &FailoverConfig) -> Result<FailoverReport, BenchError> {
    if config.cells.is_empty() {
        return Err(BenchError::Broker("no failover cells configured".into()));
    }
    let mut cells = Vec::new();
    for &(system, api) in &config.cells {
        let setup = Setup {
            system,
            api,
            parallelism: PARALLELISM,
        };
        cells.push(run_cell(config, setup)?);
    }
    Ok(FailoverReport {
        query: config.query,
        brokers: BROKERS,
        records: config.records,
        cells,
    })
}

fn run_cell(config: &FailoverConfig, setup: Setup) -> Result<FailoverCell, BenchError> {
    let mut span = obs::span("failover.cell");
    span.field("setup", setup.to_string());
    let cluster = Cluster::new(ClusterConfig { brokers: BROKERS });
    let trial = Trial::on_cluster(&cluster, config.records, config.seed);
    trial.preload(logbus::Acks::All)?;

    let hosts = BrokerHosts::new(BROKERS)?;
    let mut chaos_outcome = None;
    let outcome = trial.run(
        setup,
        config.query,
        "output",
        DSTREAM_BATCH_RECORDS,
        |engine| {
            let stop = Arc::new(AtomicBool::new(false));
            let chaos = spawn_chaos(
                cluster.clone(),
                hosts,
                stop.clone(),
                config.kills_per_cell,
                config.hold_millis,
            );
            let result = engine();
            stop.store(true, Ordering::Release);
            chaos_outcome = Some(
                chaos
                    .join()
                    .map_err(|_| BenchError::Broker("chaos thread panicked".into()))?,
            );
            result
        },
    )?;
    outcome.engine?;
    let chaos = chaos_outcome.expect("the chaos thread was joined beside a finished engine");

    Ok(FailoverCell {
        setup,
        output_records: outcome.outputs.len() as u64,
        output_ok: trial::verify(&trial, setup, config.query, &outcome.outputs).is_ok(),
        kills: chaos.kills,
        input_epoch: cluster.leader_epoch("input", 0)?,
        displaced_containers: chaos.displaced,
        unavailability_micros: chaos.unavailability_micros,
    })
}

/// The chaos thread: waits for output progress, then fails the current
/// input-partition leader's host, kills the broker, measures how long
/// the partition stays unavailable, holds, and restarts the broker on
/// its replacement host. Alternates the victim between the input and
/// output partitions' leaders.
fn spawn_chaos(
    cluster: Cluster,
    mut hosts: BrokerHosts,
    stop: Arc<AtomicBool>,
    kills: u32,
    hold_millis: u64,
) -> std::thread::JoinHandle<ChaosOutcome> {
    std::thread::spawn(move || {
        let mut outcome = ChaosOutcome {
            kills: 0,
            displaced: 0,
            unavailability_micros: Vec::new(),
        };
        for kill in 0..kills {
            let topic = if kill % 2 == 0 { "input" } else { "output" };
            // Let the engine make some progress first so the kill lands
            // mid-run, but never block a finished run.
            let progress_deadline = Instant::now() + Duration::from_millis(200);
            while Instant::now() < progress_deadline && !stop.load(Ordering::Acquire) {
                if cluster.latest_offset("output", 0).is_ok_and(|o| o > 0) {
                    break;
                }
                std::thread::yield_now();
            }
            if stop.load(Ordering::Acquire) && kill > 0 {
                break;
            }
            let Ok(leader) = cluster.leader_of(topic, 0) else {
                continue;
            };
            hosts.fail_broker_host(leader);
            cluster.kill_broker(leader);
            // Unavailability window: kill until the partition serves a
            // committed request again (the lazy election runs inside the
            // first such request).
            let killed_at = Instant::now();
            let serve_deadline = killed_at + Duration::from_secs(2);
            while cluster.latest_offset(topic, 0).is_err() {
                if Instant::now() > serve_deadline {
                    break;
                }
                std::thread::yield_now();
            }
            outcome
                .unavailability_micros
                .push(killed_at.elapsed().as_micros() as u64);
            outcome.kills += 1;
            std::thread::sleep(Duration::from_millis(hold_millis));
            // The replacement container is up: the broker process
            // restarts, truncates its unacknowledged tail, and catches
            // back up into the in-sync set.
            cluster.restart_broker(leader);
        }
        outcome.displaced = hosts.displaced;
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let samples = [40u64, 10, 30, 20];
        assert_eq!(percentile_micros(&samples, 50.0), 20);
        assert_eq!(percentile_micros(&samples, 99.0), 40);
        assert_eq!(percentile_micros(&samples, 100.0), 40);
        assert_eq!(percentile_micros(&[], 50.0), 0);
    }

    #[test]
    fn broker_hosts_survive_leader_host_failures() {
        let mut hosts = BrokerHosts::new(3).unwrap();
        let first = hosts.hosts[0];
        hosts.fail_broker_host(0);
        assert_ne!(hosts.hosts[0], first, "the container moved to a new host");
        assert!(hosts.displaced >= 1);
        // Repeated failures keep finding capacity (a fresh machine is
        // registered per failure).
        for _ in 0..4 {
            let victim = hosts.hosts[1];
            hosts.fail_broker_host(1);
            assert_ne!(hosts.hosts[1], victim);
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let config = FailoverConfig {
            cells: Vec::new(),
            ..FailoverConfig::default()
        };
        assert!(run_failover(&config).is_err());
    }

    #[test]
    fn single_cell_rides_through_kills() {
        let config = FailoverConfig {
            records: 600,
            kills_per_cell: 1,
            hold_millis: 2,
            cells: vec![(System::Rill, Api::Native)],
            ..FailoverConfig::default()
        };
        let report = run_failover(&config).unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert!(cell.output_ok, "output must be byte-identical: {cell:?}");
        assert_eq!(cell.output_records, 600);
        assert!(cell.kills >= 1);
        assert_eq!(cell.unavailability_micros.len(), cell.kills as usize);
        let json = report.to_json();
        assert!(json.contains("\"p50_micros\""));
        assert!(json.contains("rill-native-p1"));
    }
}
