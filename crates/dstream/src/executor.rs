//! The executor pool: worker threads that run partition tasks.
//!
//! In Apache Spark, an application acquires long-lived executor processes
//! on worker nodes and the driver ships tasks to them (paper §II-C,
//! Fig. 2). `ExecutorPool` models those executors as persistent worker
//! threads owned by one application; the driver submits one task per RDD
//! partition and blocks for the stage result.
//!
//! Placement is per partition: task `i` of every stage runs on worker
//! `i mod n`, as Spark's `PreferConsistent` keeps a Kafka partition's
//! cached consumer on one executor. A micro-batch's records are then
//! fetched, transformed, written and dropped on one thread, batch after
//! batch, and that thread's caches stay warm.

use crossbeam::channel::{unbounded, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

/// A fixed pool of worker threads executing partition tasks.
#[derive(Debug)]
pub struct ExecutorPool {
    workers: Vec<JoinHandle<()>>,
    /// One job queue per worker; task `i` goes to `submit[i % n]`.
    submit: Vec<Sender<Job>>,
}

impl ExecutorPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let (submit, workers) = (0..workers.max(1))
            .map(|i| {
                let (submit, jobs) = unbounded::<Job>();
                let worker = std::thread::Builder::new()
                    .name(format!("executor-{i}"))
                    .spawn(move || {
                        while let Ok(job) = jobs.recv() {
                            // A panicking task must not take the executor
                            // down with it; the driver observes the failure
                            // through the missing result.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn executor thread");
                (submit, worker)
            })
            .unzip();
        ExecutorPool { workers, submit }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Runs one stage: a set of independent tasks, one per partition,
    /// task `i` on worker `i mod n`. Blocks until all tasks finish and
    /// returns their results in task order.
    ///
    /// # Panics
    ///
    /// Panics if a task panics (the stage is then poisoned, matching a
    /// Spark job failure).
    pub fn run_stage<R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let n = tasks.len();
        let (tx, rx) = unbounded::<(usize, R)>();
        for (i, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            self.submit[i % self.submit.len()]
                .send(Box::new(move || {
                    let result = task();
                    let _ = tx.send((i, result));
                }))
                .expect("executor pool accepts jobs");
        }
        drop(tx);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match rx.recv() {
                Ok((i, r)) => results[i] = Some(r),
                Err(_) => panic!("executor task panicked"),
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("all tasks reported"))
            .collect()
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        // Close the job queues and let workers drain.
        self.submit.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Shared handle to an executor pool.
pub type SharedPool = Arc<ExecutorPool>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_tasks_in_order() {
        let pool = ExecutorPool::new(4);
        let results = pool.run_stage((0..100).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_stage() {
        let pool = ExecutorPool::new(2);
        let results: Vec<i32> = pool.run_stage(Vec::<fn() -> i32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn at_least_one_worker() {
        let pool = ExecutorPool::new(0);
        assert_eq!(pool.worker_count(), 1);
        let results = pool.run_stage(vec![|| 7]);
        assert_eq!(results, vec![7]);
    }

    #[test]
    fn pool_survives_many_stages() {
        let pool = ExecutorPool::new(2);
        for stage in 0..50 {
            let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> =
                vec![Box::new(move || stage), Box::new(move || stage + 1)];
            let results = pool.run_stage(tasks);
            assert_eq!(results, vec![stage, stage + 1]);
        }
    }

    #[test]
    fn task_i_runs_on_worker_i_mod_n() {
        let pool = ExecutorPool::new(3);
        for _stage in 0..20 {
            let tasks: Vec<_> = (0..7)
                .map(|_| || std::thread::current().name().map(str::to_owned))
                .collect();
            let names = pool.run_stage(tasks);
            for (i, name) in names.into_iter().enumerate() {
                assert_eq!(
                    name.as_deref(),
                    Some(format!("executor-{}", i % 3).as_str())
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "executor task panicked")]
    fn task_panic_poisons_stage() {
        let pool = ExecutorPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom"))];
        let _ = pool.run_stage(tasks);
    }
}
