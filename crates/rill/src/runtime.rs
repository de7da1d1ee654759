//! The runtime: job manager, task managers, slots, and task execution.
//!
//! Mirrors the architecture of paper §II-B (Fig. 1): a client (the
//! [`StreamExecutionEnvironment`](crate::StreamExecutionEnvironment))
//! transforms a program into a dataflow graph and hands it to the
//! [`JobManager`], which schedules tasks into the slots of the configured
//! [task managers](ClusterSpec). Each parallel subtask runs in its own
//! thread; subtasks of the same job share slots (Flink's slot sharing), so
//! a job needs as many slots as its maximum operator parallelism.

use crate::error::{Error, Result};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cluster shape: how many task managers, and how many slots each offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of task manager processes.
    pub task_managers: usize,
    /// Task slots per task manager.
    pub slots_per_manager: usize,
}

impl ClusterSpec {
    /// A single local task manager with one slot per host core, but at
    /// least four: slots are a logical resource (Flink performs no CPU
    /// separation between slots, paper §II-B), so small machines still run
    /// parallel jobs.
    pub fn local() -> Self {
        let slots = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        ClusterSpec {
            task_managers: 1,
            slots_per_manager: slots.max(4),
        }
    }

    /// A local cluster guaranteed to fit a job of the given maximum
    /// operator parallelism: [`ClusterSpec::local`], widened so
    /// `total_slots() >= parallelism`. Slots are logical (no CPU
    /// separation, paper §II-B), so over-provisioning slots on a small
    /// host is exactly what a real Flink standalone config would do.
    pub fn local_for(parallelism: usize) -> Self {
        let base = Self::local();
        ClusterSpec {
            task_managers: base.task_managers,
            slots_per_manager: base
                .slots_per_manager
                .max(parallelism.div_ceil(base.task_managers)),
        }
    }

    /// Total slots.
    pub fn total_slots(&self) -> usize {
        self.task_managers * self.slots_per_manager
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::local()
    }
}

/// A schedulable task: one operator chain with its per-subtask runnables.
pub struct TaskSpec {
    /// Display name, e.g. `Source: Custom Source -> Filter`.
    pub name: String,
    /// Number of parallel subtasks.
    pub parallelism: usize,
    /// One runnable per subtask.
    pub runnables: Vec<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("parallelism", &self.parallelism)
            .finish_non_exhaustive()
    }
}

/// Placement of one subtask into a task manager slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAssignment {
    /// Task name.
    pub task: String,
    /// Subtask index within the task.
    pub subtask: usize,
    /// Task manager index.
    pub task_manager: usize,
    /// Slot index within the task manager.
    pub slot: usize,
}

/// Outcome of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// Wall-clock execution time of the whole job.
    pub duration: Duration,
    /// Records delivered to each sink, by sink name.
    pub sink_counts: HashMap<String, u64>,
    /// Where each subtask ran.
    pub assignments: Vec<SlotAssignment>,
}

impl JobResult {
    /// Total records delivered to all sinks.
    pub fn total_sink_records(&self) -> u64 {
        self.sink_counts.values().sum()
    }
}

/// Schedules tasks into slots and runs them to completion.
#[derive(Debug, Default)]
pub struct JobManager;

impl JobManager {
    /// Executes `tasks` on a cluster of shape `cluster`.
    ///
    /// Thanks to slot sharing, the job occupies `max(parallelism)` slots;
    /// subtask `i` of every task lands in shared slot `i`, which maps to
    /// task manager `i / slots_per_manager`.
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughSlots`] before anything runs;
    /// [`Error::TaskPanicked`] if any subtask thread panics (remaining
    /// tasks still run to completion first).
    pub fn execute(
        name: &str,
        cluster: ClusterSpec,
        tasks: Vec<TaskSpec>,
        sink_counters: Vec<(String, obs::Counter)>,
    ) -> Result<JobResult> {
        let mut job_span = obs::span("rill.execute");
        job_span.field("job", name);
        if tasks.is_empty() {
            return Err(Error::InvalidTopology("nothing to execute".to_string()));
        }
        let required = tasks.iter().map(|t| t.parallelism).max().unwrap_or(0);
        let available = cluster.total_slots();
        if required > available {
            return Err(Error::NotEnoughSlots {
                required,
                available,
            });
        }

        let mut assignments = Vec::new();
        for task in &tasks {
            for subtask in 0..task.parallelism {
                assignments.push(SlotAssignment {
                    task: task.name.clone(),
                    subtask,
                    task_manager: subtask / cluster.slots_per_manager,
                    slot: subtask % cluster.slots_per_manager,
                });
            }
        }

        let started = Instant::now();
        let mut handles = Vec::new();
        for task in tasks {
            let task_name = task.name;
            for (i, runnable) in task.runnables.into_iter().enumerate() {
                let label = format!("{task_name}#{i}");
                let handle = std::thread::Builder::new()
                    .name(label.clone())
                    .spawn(runnable)
                    .expect("spawn task thread");
                handles.push((label, handle));
            }
        }

        let mut failure: Option<Error> = None;
        for (label, handle) in handles {
            if let Err(payload) = handle.join() {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(std::string::ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".to_string());
                failure.get_or_insert(Error::TaskPanicked {
                    task: label,
                    message,
                });
            }
        }
        if let Some(err) = failure {
            return Err(err);
        }

        let duration = started.elapsed();
        let sink_counts = sink_counters
            .into_iter()
            .map(|(name, counter)| (name, counter.get()))
            .collect();
        Ok(JobResult {
            name: name.to_string(),
            duration,
            sink_counts,
            assignments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_task(name: &str, parallelism: usize) -> TaskSpec {
        TaskSpec {
            name: name.to_string(),
            parallelism,
            runnables: (0..parallelism)
                .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
                .collect(),
        }
    }

    #[test]
    fn cluster_spec_slots() {
        let c = ClusterSpec {
            task_managers: 2,
            slots_per_manager: 3,
        };
        assert_eq!(c.total_slots(), 6);
        assert!(ClusterSpec::local().total_slots() >= 1);
    }

    #[test]
    fn executes_and_assigns_slots() {
        let cluster = ClusterSpec {
            task_managers: 2,
            slots_per_manager: 1,
        };
        let result = JobManager::execute(
            "j",
            cluster,
            vec![noop_task("a", 2), noop_task("b", 1)],
            vec![],
        )
        .unwrap();
        assert_eq!(result.name, "j");
        assert_eq!(result.assignments.len(), 3);
        // Subtask 1 of task `a` spills onto the second task manager.
        let a1 = result
            .assignments
            .iter()
            .find(|s| s.task == "a" && s.subtask == 1)
            .unwrap();
        assert_eq!(a1.task_manager, 1);
        assert_eq!(a1.slot, 0);
    }

    #[test]
    fn slot_sharing_requires_max_parallelism() {
        let cluster = ClusterSpec {
            task_managers: 1,
            slots_per_manager: 2,
        };
        // Three tasks of parallelism 2 share 2 slots.
        let tasks = vec![noop_task("a", 2), noop_task("b", 2), noop_task("c", 2)];
        assert!(JobManager::execute("j", cluster, tasks, vec![]).is_ok());
        // But parallelism 3 does not fit.
        let tasks = vec![noop_task("a", 3)];
        assert_eq!(
            JobManager::execute("j", cluster, tasks, vec![]).unwrap_err(),
            Error::NotEnoughSlots {
                required: 3,
                available: 2
            }
        );
    }

    #[test]
    fn empty_job_is_rejected() {
        assert!(matches!(
            JobManager::execute("j", ClusterSpec::local(), vec![], vec![]),
            Err(Error::InvalidTopology(_))
        ));
    }

    #[test]
    fn panics_are_reported() {
        let task = TaskSpec {
            name: "boom".to_string(),
            parallelism: 1,
            runnables: vec![Box::new(|| panic!("exploded"))],
        };
        let err = JobManager::execute("j", ClusterSpec::local(), vec![task], vec![]).unwrap_err();
        match err {
            Error::TaskPanicked { task, message } => {
                assert_eq!(task, "boom#0");
                assert_eq!(message, "exploded");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sink_counters_reported() {
        let counter = obs::Counter::new();
        let c2 = counter.clone();
        let task = TaskSpec {
            name: "t".to_string(),
            parallelism: 1,
            runnables: vec![Box::new(move || {
                c2.add(42);
            })],
        };
        let result = JobManager::execute(
            "j",
            ClusterSpec::local(),
            vec![task],
            vec![("sink".to_string(), counter)],
        )
        .unwrap();
        assert_eq!(result.sink_counts["sink"], 42);
        assert_eq!(result.total_sink_records(), 42);
    }
}
