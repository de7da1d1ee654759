//! The typed `DataStream` API and its execution environment.
//!
//! Programs are built fluently — `env.add_source(...).filter(...)
//! .add_sink(...)` — and executed with
//! [`StreamExecutionEnvironment::execute`]. Consecutive operators connected
//! by forward edges are **chained**: they compose into a single
//! [`Collector`] stack running in one thread per subtask, with no
//! serialization or boxing between them (paper §II-B describes the same
//! optimization in Apache Flink). With chaining disabled
//! ([`StreamExecutionEnvironment::disable_operator_chaining`]) every
//! operator boundary becomes a forward exchange instead: subtask `i` hands
//! its elements to subtask `i` of the next task over a typed bounded
//! channel.

use crate::error::{Error, Result};
use crate::graph::{NodeId, NodeKind, StreamGraph};
use crate::operator::{
    Collector, CountingCollector, FilterCollector, MapCollector, MeteredCollector,
};
use crate::plan::ExecutionPlan;
use crate::runtime::{ClusterSpec, JobManager, JobResult, TaskSpec};
use crate::sink::{ParallelSink, SinkCollector};
use crate::source::ParallelSource;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;

/// Capacity of inter-task exchange channels; provides backpressure like
/// Flink's bounded network buffers.
const EXCHANGE_CAPACITY: usize = 4096;

type BuildFn<T> =
    Arc<dyn Fn(usize, Box<dyn Collector<T>>) -> Box<dyn FnOnce() + Send> + Send + Sync>;

#[derive(Debug)]
struct EnvCore {
    graph: StreamGraph,
    parallelism: usize,
    chaining: bool,
    cluster: ClusterSpec,
    tasks: Vec<TaskSpec>,
    sink_counters: Vec<(String, obs::Counter)>,
}

/// Entry point for building and executing jobs — rill's counterpart of
/// Flink's `StreamExecutionEnvironment` plus the client role of Fig. 1.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use rill::{StreamExecutionEnvironment, VecSink, VecSource};
///
/// let env = StreamExecutionEnvironment::local();
/// let sink = VecSink::new();
/// env.add_source(VecSource::new(vec![1, 2, 3, 4]))
///     .filter(|x: &i64| x % 2 == 0)
///     .add_sink(sink.clone());
/// env.execute("evens")?;
/// assert_eq!(sink.snapshot(), vec![2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamExecutionEnvironment {
    core: Arc<Mutex<EnvCore>>,
}

impl StreamExecutionEnvironment {
    /// Creates an environment on a local single-task-manager cluster with
    /// default parallelism 1.
    pub fn local() -> Self {
        Self::with_cluster(ClusterSpec::local())
    }

    /// Creates an environment on an explicit cluster shape.
    pub fn with_cluster(cluster: ClusterSpec) -> Self {
        StreamExecutionEnvironment {
            core: Arc::new(Mutex::new(EnvCore {
                graph: StreamGraph::new(),
                parallelism: 1,
                chaining: true,
                cluster,
                tasks: Vec::new(),
                sink_counters: Vec::new(),
            })),
        }
    }

    /// Sets the default parallelism applied to subsequently created
    /// operators (Flink's `-p` submission flag, paper §III-A2).
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn set_parallelism(&self, parallelism: usize) {
        assert!(parallelism > 0, "parallelism must be at least 1");
        self.core.lock().parallelism = parallelism;
    }

    /// Disables operator chaining: every operator boundary becomes a
    /// channel handoff between threads. Exists for the ablation benchmark
    /// quantifying what chaining is worth.
    pub fn disable_operator_chaining(&self) {
        self.core.lock().chaining = false;
    }

    /// Whether chaining is enabled.
    pub fn chaining_enabled(&self) -> bool {
        self.core.lock().chaining
    }

    /// Adds a source, returning the stream it produces.
    pub fn add_source<T, S>(&self, source: S) -> DataStream<T>
    where
        T: Send + 'static,
        S: ParallelSource<T>,
    {
        let mut core = self.core.lock();
        let parallelism = core.parallelism;
        let name = source.name();
        let node = core
            .graph
            .add_node(NodeKind::Source, name.clone(), parallelism);
        drop(core);
        let source = Arc::new(source);
        let build: BuildFn<T> = Arc::new(move |subtask, mut col| {
            let mut instance = source.create(subtask, parallelism);
            Box::new(move || {
                instance.run(&mut col);
                col.close();
            })
        });
        DataStream {
            env: self.clone(),
            node,
            parallelism,
            chain: vec![name],
            build,
        }
    }

    /// Extracts the current execution plan (the Fig. 12/13 view).
    pub fn execution_plan(&self) -> ExecutionPlan {
        ExecutionPlan::from_graph(&self.core.lock().graph)
    }

    /// Executes all pending sinks as one job and waits for completion.
    ///
    /// # Errors
    ///
    /// [`Error::DanglingStream`] if a stream was never terminated;
    /// [`Error::NotEnoughSlots`] if the job's maximum parallelism exceeds
    /// the cluster's slots; [`Error::TaskPanicked`] if a subtask panics;
    /// [`Error::InvalidTopology`] when there is nothing to run.
    pub fn execute(&self, name: &str) -> Result<JobResult> {
        let (cluster, tasks, counters) = {
            let mut core = self.core.lock();
            if let Some(node) = core.graph.dangling().into_iter().next() {
                let node_name = core
                    .graph
                    .node(node)
                    .map_or_else(|| node.to_string(), |n| n.name.clone());
                return Err(Error::DanglingStream { node: node_name });
            }
            (
                core.cluster,
                std::mem::take(&mut core.tasks),
                std::mem::take(&mut core.sink_counters),
            )
        };
        JobManager::execute(name, cluster, tasks, counters)
    }

    fn with_core<R>(&self, f: impl FnOnce(&mut EnvCore) -> R) -> R {
        f(&mut self.core.lock())
    }
}

/// A typed stream of elements flowing through the job.
///
/// `DataStream` values are consumed by every transformation (move
/// semantics): each stream has exactly one downstream consumer, keeping
/// chains statically typed. See the crate root for the full API tour.
pub struct DataStream<T> {
    env: StreamExecutionEnvironment,
    node: NodeId,
    parallelism: usize,
    /// Names of the operators accumulated in the current (unfinalized)
    /// chain, for task naming.
    chain: Vec<String>,
    build: BuildFn<T>,
}

impl<T: Send + 'static> DataStream<T> {
    /// The graph node this stream currently ends at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Applies a custom operator: `make` receives the downstream collector
    /// of each subtask and returns the operator's collector. This is the
    /// extension point used by the abstraction-layer runner to install its
    /// `ParDo` stages.
    pub fn transform<U, F>(self, name: &str, make: F) -> DataStream<U>
    where
        U: Send + 'static,
        F: Fn(Box<dyn Collector<U>>) -> Box<dyn Collector<T>> + Send + Sync + 'static,
    {
        let stream = self.maybe_unchain();
        let node = stream.env.with_core(|core| {
            let node = core
                .graph
                .add_node(NodeKind::Operator, name, stream.parallelism);
            core.graph.add_edge(stream.node, node);
            node
        });
        let parent = stream.build;
        let make = Arc::new(make);
        let metric_name = name.to_string();
        let build: BuildFn<U> = Arc::new(move |subtask, col| {
            if obs::enabled() {
                // Resolved at job materialization, not per element; the
                // disabled path builds the exact pre-instrumentation chain.
                let records_in = obs::counter(&format!("rill.op.{metric_name}.records_in"));
                let busy = obs::counter(&format!("rill.op.{metric_name}.busy_micros"));
                parent(
                    subtask,
                    Box::new(MeteredCollector::new(records_in, busy, make(col))),
                )
            } else {
                parent(subtask, make(col))
            }
        });
        let mut chain = stream.chain;
        chain.push(name.to_string());
        DataStream {
            env: stream.env,
            node,
            parallelism: stream.parallelism,
            chain,
            build,
        }
    }

    /// Element-wise transformation.
    pub fn map<U, F>(self, f: F) -> DataStream<U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Clone + Send + Sync + 'static,
    {
        self.transform("Map", move |col| {
            Box::new(MapCollector::new(f.clone(), col))
        })
    }

    /// Keeps only elements satisfying the predicate.
    pub fn filter<F>(self, f: F) -> DataStream<T>
    where
        F: Fn(&T) -> bool + Clone + Send + Sync + 'static,
    {
        self.transform("Filter", move |col| {
            Box::new(FilterCollector::new(f.clone(), col))
        })
    }

    /// Terminates the stream in a sink. Every pipeline branch must end in
    /// a sink before [`StreamExecutionEnvironment::execute`].
    pub fn add_sink<S>(self, sink: S)
    where
        S: ParallelSink<T>,
    {
        let stream = self.maybe_unchain();
        let name = sink.name();
        let (node, counter) = stream.env.with_core(|core| {
            let node = core
                .graph
                .add_node(NodeKind::Sink, name.clone(), stream.parallelism);
            core.graph.add_edge(stream.node, node);
            let counter = obs::Counter::new();
            let key = if core.sink_counters.iter().any(|(n, _)| *n == name) {
                format!("{name} ({node})")
            } else {
                name.clone()
            };
            core.sink_counters.push((key, counter.clone()));
            (node, counter)
        });
        let _ = node;
        let sink = Arc::new(sink);
        let parallelism = stream.parallelism;
        let mut runnables = Vec::with_capacity(parallelism);
        for subtask in 0..parallelism {
            let collector = Box::new(CountingCollector::new(
                counter.clone(),
                SinkCollector::new(sink.create(subtask, parallelism)),
            ));
            runnables.push((stream.build)(subtask, collector));
        }
        let mut chain = stream.chain;
        chain.push(name);
        stream.env.with_core(|core| {
            core.tasks.push(TaskSpec {
                name: chain.join(" -> "),
                parallelism,
                runnables,
            });
        });
    }

    /// Inserts a forward exchange when chaining is disabled, so each
    /// operator runs as its own task.
    fn maybe_unchain(self) -> DataStream<T> {
        if self.env.chaining_enabled() || self.chain.is_empty() {
            return self;
        }
        // A fresh exchange already starts an unchained task; only break
        // when the current chain has an operator pending.
        self.forward_exchange()
    }

    /// Finalizes the current chain into a task whose subtask `i` hands
    /// its output to subtask `i` of the next task over a bounded channel.
    fn forward_exchange(self) -> DataStream<T> {
        let mut runnables = Vec::with_capacity(self.parallelism);
        let mut receivers = Vec::with_capacity(self.parallelism);
        for subtask in 0..self.parallelism {
            let (tx, rx) = bounded::<T>(EXCHANGE_CAPACITY);
            runnables.push((self.build)(subtask, Box::new(ExchangeCollector(Some(tx)))));
            receivers.push(rx);
        }
        self.env.with_core(|core| {
            core.tasks.push(TaskSpec {
                name: self.chain.join(" -> "),
                parallelism: self.parallelism,
                runnables,
            });
        });
        let build: BuildFn<T> = Arc::new(move |subtask, mut col| {
            let rx: Receiver<T> = receivers[subtask].clone();
            Box::new(move || {
                while let Ok(item) = rx.recv() {
                    col.collect(item);
                }
                col.close();
            })
        });
        DataStream {
            env: self.env,
            node: self.node,
            parallelism: self.parallelism,
            chain: Vec::new(),
            build,
        }
    }
}

/// Collector terminating a chain at a forward exchange: sends each
/// element to the channel of the same-index downstream subtask.
struct ExchangeCollector<T>(Option<Sender<T>>);

impl<T: Send> Collector<T> for ExchangeCollector<T> {
    fn collect(&mut self, item: T) {
        if let Some(tx) = &self.0 {
            // A closed receiver means the downstream task is gone (e.g.
            // it panicked); dropping the element keeps the job from
            // deadlocking and the failure surfaces through the
            // downstream task's join.
            let _ = tx.send(item);
        }
    }

    fn close(&mut self) {
        self.0 = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use crate::source::VecSource;

    #[test]
    fn linear_pipeline_runs() {
        let env = StreamExecutionEnvironment::local();
        let sink = VecSink::new();
        env.add_source(VecSource::new((0..100).collect::<Vec<i64>>()))
            .map(|x| x * 2)
            .filter(|x| *x % 4 == 0)
            .add_sink(sink.clone());
        let result = env.execute("job").unwrap();
        let expected: Vec<i64> = (0..100).map(|x| x * 2).filter(|x| x % 4 == 0).collect();
        assert_eq!(sink.snapshot(), expected);
        assert_eq!(result.total_sink_records(), expected.len() as u64);
    }

    #[test]
    fn dangling_stream_is_rejected() {
        let env = StreamExecutionEnvironment::local();
        let _ = env.add_source(VecSource::new(vec![1])).map(|x: i64| x);
        let err = env.execute("job").unwrap_err();
        assert_eq!(
            err,
            Error::DanglingStream {
                node: "Map".to_string()
            }
        );
    }

    #[test]
    fn empty_env_is_rejected() {
        let env = StreamExecutionEnvironment::local();
        assert!(matches!(env.execute("job"), Err(Error::InvalidTopology(_))));
    }

    #[test]
    fn parallelism_beyond_slots_fails() {
        let env = StreamExecutionEnvironment::with_cluster(ClusterSpec {
            task_managers: 1,
            slots_per_manager: 1,
        });
        env.set_parallelism(2);
        env.add_source(VecSource::new(vec![1, 2, 3]))
            .add_sink(VecSink::new());
        assert_eq!(
            env.execute("job").unwrap_err(),
            Error::NotEnoughSlots {
                required: 2,
                available: 1
            }
        );
    }

    #[test]
    fn chaining_disabled_still_correct() {
        let env = StreamExecutionEnvironment::local();
        env.disable_operator_chaining();
        let sink = VecSink::new();
        env.add_source(VecSource::new((0..50).collect::<Vec<i64>>()))
            .map(|x| x + 1)
            .filter(|x| x % 2 == 0)
            .map(|x| x * 10)
            .add_sink(sink.clone());
        env.execute("job").unwrap();
        let expected: Vec<i64> = (0..50)
            .map(|x| x + 1)
            .filter(|x| x % 2 == 0)
            .map(|x| x * 10)
            .collect();
        assert_eq!(sink.snapshot(), expected);
    }

    #[test]
    fn panic_in_operator_is_reported() {
        let env = StreamExecutionEnvironment::local();
        env.add_source(VecSource::new(vec![1, 2, 3]))
            .map(|x: i64| if x == 2 { panic!("bad element") } else { x })
            .add_sink(VecSink::new());
        let err = env.execute("job").unwrap_err();
        assert!(matches!(err, Error::TaskPanicked { .. }));
    }

    #[test]
    fn panic_downstream_of_exchange_does_not_deadlock() {
        // The source fills the exchange channel far past its capacity
        // after the downstream task died; the exchange must drop
        // elements instead of blocking forever on the dead receiver.
        let env = StreamExecutionEnvironment::local();
        env.disable_operator_chaining();
        env.add_source(VecSource::new((0..100_000).collect::<Vec<i64>>()))
            .map(|x: i64| x)
            .map(|x: i64| {
                if x == 10 {
                    panic!("downstream failure")
                } else {
                    x
                }
            })
            .add_sink(VecSink::new());
        let err = env.execute("job").unwrap_err();
        assert!(matches!(err, Error::TaskPanicked { .. }));
    }

    #[test]
    fn two_pipelines_one_job() {
        let env = StreamExecutionEnvironment::local();
        let a = VecSink::new();
        let b = VecSink::new();
        env.add_source(VecSource::new(vec![1, 2]))
            .add_sink(a.clone());
        env.add_source(VecSource::new(vec![3])).add_sink(b.clone());
        let result = env.execute("job").unwrap();
        assert_eq!(a.snapshot(), vec![1, 2]);
        assert_eq!(b.snapshot(), vec![3]);
        assert_eq!(result.total_sink_records(), 3);
        assert_eq!(
            result.sink_counts.len(),
            2,
            "duplicate sink names get distinct keys"
        );
    }
}
