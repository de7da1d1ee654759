//! STRAM — the Streaming Application Manager.
//!
//! Apex's application master (paper §II-D): it takes a validated DAG,
//! negotiates containers with YARN, deploys the operators into them, and
//! supervises execution. Here the negotiation happens against
//! [`yarnsim::ResourceManager`] and every container group becomes real
//! threads, so resource accounting and execution are both exercised.

use crate::dag::Dag;
use crate::error::{Error, Result};
use crate::stram_config::StramConfig;
use std::time::{Duration, Instant};
use yarnsim::{ApplicationId, ApplicationState, ContainerId, ResourceManager, ResourceRequest};

/// Outcome of a completed application.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub name: String,
    /// YARN application id.
    pub app_id: ApplicationId,
    /// Wall-clock runtime from container launch to last container exit.
    pub duration: Duration,
    /// Tuples emitted per operator, in DAG order.
    pub operators: Vec<(String, u64)>,
    /// Containers occupied, including the application master.
    pub containers_used: usize,
}

impl AppResult {
    /// Tuples emitted by the named operator.
    pub fn emitted_by(&self, operator: &str) -> Option<u64> {
        self.operators
            .iter()
            .find(|(n, _)| n == operator)
            .map(|(_, c)| *c)
    }
}

/// The application master: validates and launches DAGs.
#[derive(Debug, Default)]
pub struct Stram;

impl Stram {
    /// Launches `dag` on the cluster managed by `rm`, waits for every
    /// container thread to finish, releases the containers, and marks the
    /// application finished (or failed).
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDag`] or [`Error::DanglingStream`] for invalid DAGs;
    /// [`Error::Resource`] when the cluster cannot host the application;
    /// [`Error::TaskPanicked`] if any container thread panicked (the
    /// application is then marked failed).
    pub fn run(dag: &Dag, rm: &mut ResourceManager, config: &StramConfig) -> Result<AppResult> {
        let mut app_span = obs::span("apx.run");
        let (name, tasks, containers, operators) = {
            let mut core = dag.core.lock();
            if core.ops.is_empty() {
                return Err(Error::EmptyDag);
            }
            if core.open_streams != 0 {
                return Err(Error::DanglingStream(core.name.clone()));
            }
            (
                core.name.clone(),
                std::mem::take(&mut core.tasks),
                core.containers,
                core.ops.clone(),
            )
        };
        if tasks.is_empty() {
            return Err(Error::EmptyDag);
        }

        let app_id = rm.submit_application(name.clone(), config.master_resource)?;
        let requests = vec![ResourceRequest::new(config.container_resource); containers];
        let granted = match rm.allocate(app_id, &requests) {
            Ok(granted) => granted,
            Err(e) => {
                let _ = rm.finish_application(app_id, ApplicationState::Failed);
                return Err(e.into());
            }
        };
        let container_ids: Vec<ContainerId> = granted.iter().map(|c| c.id).collect();
        for id in &container_ids {
            rm.launch_container(*id)?;
        }
        rm.application_running(app_id)?;
        app_span.field("app", &name);

        let started = Instant::now();
        let threads: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                let label = format!("{name}/container-{:02}/{}", task.container, task.name);
                let handle = std::thread::Builder::new()
                    .name(label.clone())
                    .spawn(task.body)
                    .expect("spawn container thread");
                (label, handle)
            })
            .collect();

        let mut panicked: Option<String> = None;
        for (label, handle) in threads {
            if handle.join().is_err() {
                panicked.get_or_insert(label);
            }
        }
        let duration = started.elapsed();
        for container in &container_ids {
            let _ = rm.complete_container(*container);
        }
        let state = if panicked.is_some() {
            ApplicationState::Failed
        } else {
            ApplicationState::Finished
        };
        rm.finish_application(app_id, state)?;
        if let Some(task) = panicked {
            return Err(Error::TaskPanicked(task));
        }
        Ok(AppResult {
            name,
            app_id,
            duration,
            operators: operators
                .iter()
                .map(|o| {
                    (
                        o.name.clone(),
                        o.emitted.load(std::sync::atomic::Ordering::Relaxed),
                    )
                })
                .collect(),
            containers_used: container_ids.len() + 1, // + application master
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StringCodec;
    use crate::dag::Link;
    use crate::operator::{Emitter, FnOperator};
    use crate::testkit::{VecInput, VecOutput};
    use std::sync::Arc;
    use yarnsim::Resource;

    fn rm_with_capacity() -> ResourceManager {
        let mut rm = ResourceManager::new();
        rm.register_node(Resource::new(64 * 1024, 16));
        rm.register_node(Resource::new(64 * 1024, 16));
        rm
    }

    fn linear_dag(link_mid: Link<String>) -> (Dag, VecOutput<String>) {
        let dag = Dag::with_window_size("app", 3);
        let out = VecOutput::new();
        dag.add_input(
            "input",
            VecInput::new(vec!["a".to_string(), "b".to_string(), "test".to_string()]),
        )
        .unwrap()
        .add_operator::<String, _>(
            "grep",
            FnOperator::new(|t: String, e: &mut dyn Emitter<String>| {
                if t.contains("test") {
                    e.emit(t);
                }
            }),
            link_mid,
        )
        .unwrap()
        .add_output("output", out.clone(), Link::Network(Arc::new(StringCodec)))
        .unwrap();
        (dag, out)
    }

    #[test]
    fn runs_fully_networked_dag() {
        let mut rm = rm_with_capacity();
        let (dag, out) = linear_dag(Link::Network(Arc::new(StringCodec)));
        let result = Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap();
        assert_eq!(out.snapshot(), vec!["test".to_string()]);
        assert_eq!(result.emitted_by("input"), Some(3));
        assert_eq!(result.emitted_by("grep"), Some(1));
        assert_eq!(result.emitted_by("output"), Some(0));
        assert_eq!(result.containers_used, 4, "3 operator containers + AM");
        // Everything is released afterwards.
        assert_eq!(rm.metrics().live_containers, 0);
        assert_eq!(rm.metrics().active_applications, 0);
    }

    #[test]
    fn runs_fused_dag() {
        let mut rm = rm_with_capacity();
        let (dag, out) = linear_dag(Link::Thread);
        let result = Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap();
        assert_eq!(out.snapshot(), vec!["test".to_string()]);
        assert_eq!(
            result.containers_used, 3,
            "input+grep fused, output remote, + AM"
        );
    }

    #[test]
    fn empty_dag_rejected() {
        let mut rm = rm_with_capacity();
        let dag = Dag::new("empty");
        assert_eq!(
            Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap_err(),
            Error::EmptyDag
        );
    }

    #[test]
    fn dangling_dag_rejected() {
        let mut rm = rm_with_capacity();
        let dag = Dag::new("dangling");
        let _handle = dag.add_input("input", VecInput::new(vec![1i64])).unwrap();
        assert!(matches!(
            Stram::run(&dag, &mut rm, &StramConfig::default()),
            Err(Error::DanglingStream(_))
        ));
    }

    #[test]
    fn insufficient_cluster_fails_cleanly() {
        let mut rm = ResourceManager::new();
        rm.register_node(Resource::new(600, 1)); // fits only the AM
        let (dag, _out) = linear_dag(Link::Network(Arc::new(StringCodec)));
        let err = Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap_err();
        assert!(matches!(err, Error::Resource(_)));
        assert_eq!(
            rm.metrics().live_containers,
            0,
            "failed app released the AM"
        );
    }

    #[test]
    fn vcores_knob_accounts_in_yarn() {
        // AM (1 vcore) + 3 containers × 2 vcores = 7: fits a 7-vcore
        // node exactly, and 3 vcores per container no longer do.
        let seven_vcores = || {
            let mut rm = ResourceManager::new();
            rm.register_node(Resource::new(64 * 1024, 7));
            rm
        };
        let mut rm = seven_vcores();
        let (dag, _out) = linear_dag(Link::Network(Arc::new(StringCodec)));
        Stram::run(&dag, &mut rm, &StramConfig::default().vcores(2)).unwrap();
        let mut rm = seven_vcores();
        let (dag, _out) = linear_dag(Link::Network(Arc::new(StringCodec)));
        let err = Stram::run(&dag, &mut rm, &StramConfig::default().vcores(3)).unwrap_err();
        assert!(matches!(err, Error::Resource(_)));
    }

    #[test]
    fn panicking_operator_reports_failure() {
        let mut rm = rm_with_capacity();
        let dag = Dag::new("boom");
        let out = VecOutput::new();
        dag.add_input("input", VecInput::new(vec![1i64, 2, 3]))
            .unwrap()
            .add_operator::<i64, _>(
                "explode",
                FnOperator::new(|t: i64, _e: &mut dyn Emitter<i64>| {
                    if t == 2 {
                        panic!("operator failure");
                    }
                }),
                Link::Thread,
            )
            .unwrap()
            .add_output("output", out, Link::Thread)
            .unwrap();
        let err = Stram::run(&dag, &mut rm, &StramConfig::default()).unwrap_err();
        assert!(matches!(err, Error::TaskPanicked(_)));
        let app = rm.application(yarnsim::ApplicationId(0)).unwrap();
        assert_eq!(app.state, ApplicationState::Failed);
    }
}
