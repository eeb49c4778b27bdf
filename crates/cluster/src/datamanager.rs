//! The DataManager: the server-side task queue and result aggregator.
//!
//! "The DataManager, which resides on the server, assigns simulations to
//! client PCs and processes the returned results." This struct is exactly
//! that, and the only place the requeue logic lives: `ThreadedCluster`
//! workers share one behind a lock, the TCP server's event loop owns one.
//! It owns the queue of unassigned tasks, hands them out on request
//! (demand-driven self-scheduling), re-queues failed tasks, keeps the
//! per-worker accounts, and hands returned tallies to the task-order
//! prefix fold, [`TaskFold`]. Who holds an assigned task is the caller's
//! business: a `ThreadedCluster` worker keeps it on its stack, the TCP
//! server in its per-client lease with a deadline.

use crate::protocol::SimTask;
use lumen_core::engine::{batch_sizes, TaskFold, WorkerAccount};
use lumen_core::tally::Tally;
use std::collections::VecDeque;

/// Server state for one distributed simulation.
#[derive(Debug)]
pub struct DataManager {
    queue: VecDeque<SimTask>,
    /// Returned tallies, merged in task order as they arrive.
    fold: TaskFold,
    /// Per-worker accounting.
    stats: Vec<WorkerAccount>,
    requeues: u64,
}

impl DataManager {
    /// Create a manager for `total_photons` split into `n_tasks` batches,
    /// aggregating into a tally shaped like `template`.
    pub fn new(total_photons: u64, n_tasks: u64, template: Tally, n_workers: usize) -> Self {
        Self::with_offset(total_photons, n_tasks, 0, template, n_workers)
    }

    /// Like [`DataManager::new`], but task ids start at `task_offset`
    /// instead of zero. Workers stream RNG by task id, so an offset run
    /// draws from streams `task_offset..task_offset + n_tasks` — the
    /// continuation contract behind the service cache's incremental
    /// top-up (`Scenario::task_offset` carries the same value through
    /// the in-process backends).
    pub fn with_offset(
        total_photons: u64,
        n_tasks: u64,
        task_offset: u64,
        template: Tally,
        n_workers: usize,
    ) -> Self {
        let sizes = batch_sizes(total_photons, n_tasks);
        let queue: VecDeque<SimTask> = sizes
            .iter()
            .enumerate()
            .map(|(i, &photons)| SimTask { task_id: task_offset + i as u64, photons })
            .collect();
        Self {
            fold: TaskFold::new(template, task_offset, queue.len() as u64),
            queue,
            stats: vec![WorkerAccount::default(); n_workers],
            requeues: 0,
        }
    }

    /// Hand the next task to a requesting worker, or `None` when the queue
    /// is empty (the worker should be shut down once every assigned task
    /// has come back).
    pub fn assign(&mut self) -> Option<SimTask> {
        self.queue.pop_front()
    }

    /// Register a worker that joined after construction (the elastic TCP
    /// server admits clients for the run's whole lifetime), returning its
    /// dense id.
    pub fn register_worker(&mut self) -> usize {
        self.stats.push(WorkerAccount::default());
        self.stats.len() - 1
    }

    /// Whether `tally` has the shape of this run's template, i.e. whether
    /// [`DataManager::complete`] can merge it. A worker sharing the
    /// manager's `Simulation` always returns one that does; a tally decoded
    /// from a peer (which may have been started on another scenario) must
    /// be asked, because merging a mismatch panics.
    pub fn accepts(&self, tally: &Tally) -> bool {
        self.fold.accepts(tally)
    }

    /// Process a completed task's tally: [`TaskFold::push`] merges it if
    /// it is the next in task order and parks a copy if it arrived early.
    /// Returns `false` (without merging or accounting) if the task was
    /// already completed or its id is outside this run — a duplicate must
    /// never double-count photons, and the server's event loop must never
    /// panic over a misbehaving peer.
    pub fn complete(&mut self, worker: usize, task: SimTask, tally: &Tally) -> bool {
        if !self.fold.push(task.task_id, tally) {
            return false;
        }
        if let Some(s) = self.stats.get_mut(worker) {
            s.tasks_completed += 1;
            s.photons += task.photons;
        }
        true
    }

    /// Re-queue a failed task (front of queue: it is the oldest work).
    pub fn fail(&mut self, worker: usize, task: SimTask) {
        self.queue.push_front(task);
        self.requeues += 1;
        if let Some(s) = self.stats.get_mut(worker) {
            s.tasks_failed += 1;
        }
    }

    /// All tasks completed?
    pub fn finished(&self) -> bool {
        self.fold.finished()
    }

    /// True when no work remains to hand out (but assigned tasks may still
    /// be out).
    pub fn queue_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of times a task had to be re-queued after a failure.
    pub fn requeues(&self) -> u64 {
        self.requeues
    }

    /// Consume the manager, yielding the merged tally (the task-order fold
    /// [`DataManager::complete`] feeds), the per-worker accounts and the
    /// requeue count.
    pub fn into_results(self) -> (Tally, Vec<WorkerAccount>, u64) {
        (self.fold.into_tally(), self.stats, self.requeues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Tally {
        Tally::new(1, None, None)
    }

    fn worker_tally(launched: u64) -> Tally {
        let mut t = template();
        t.launched = launched;
        t
    }

    #[test]
    fn assigns_all_tasks_once() {
        let mut dm = DataManager::new(100, 10, template(), 2);
        let mut seen = Vec::new();
        while let Some(t) = dm.assign() {
            seen.push(t.task_id);
        }
        assert_eq!(seen.len(), 10);
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn completion_merges_and_finishes() {
        let mut dm = DataManager::new(100, 4, template(), 1);
        let mut assigned = Vec::new();
        while let Some(t) = dm.assign() {
            assigned.push(t);
        }
        for t in &assigned {
            dm.complete(0, *t, &worker_tally(t.photons));
        }
        assert!(dm.finished());
        let (tally, stats, requeues) = dm.into_results();
        assert_eq!(tally.launched, 100);
        assert_eq!(stats[0].tasks_completed, 4);
        assert_eq!(stats[0].photons, 100);
        assert_eq!(requeues, 0);
    }

    #[test]
    fn failed_tasks_are_requeued_and_retried() {
        let mut dm = DataManager::new(30, 3, template(), 2);
        let t0 = dm.assign().unwrap();
        dm.fail(1, t0);
        assert_eq!(dm.requeues(), 1);
        // The failed task comes back (front of the queue).
        let retry = dm.assign().unwrap();
        assert_eq!(retry.task_id, t0.task_id);
        // Completing everything still reaches the exact photon total.
        dm.complete(0, retry, &worker_tally(retry.photons));
        while let Some(t) = dm.assign() {
            dm.complete(0, t, &worker_tally(t.photons));
        }
        assert!(dm.finished());
        let (tally, stats, _) = dm.into_results();
        assert_eq!(tally.launched, 30);
        assert_eq!(stats[1].tasks_failed, 1);
    }

    #[test]
    #[should_panic(expected = "before all tasks completed")]
    fn into_results_requires_completion() {
        let dm = DataManager::new(10, 2, template(), 1);
        let _ = dm.into_results();
    }

    #[test]
    fn zero_photon_job_finishes_immediately() {
        let dm = DataManager::new(0, 4, template(), 1);
        assert!(dm.finished());
        assert!(dm.queue_empty());
    }

    #[test]
    fn duplicate_completion_is_ignored_not_merged() {
        let mut dm = DataManager::new(20, 2, template(), 2);
        let t = dm.assign().unwrap();
        assert!(dm.complete(0, t, &worker_tally(t.photons)));
        // A stale duplicate (e.g. a revoked lease finishing late) merges
        // nothing and corrupts no accounting.
        assert!(!dm.complete(1, t, &worker_tally(t.photons)));
        let u = dm.assign().unwrap();
        assert!(dm.complete(0, u, &worker_tally(u.photons)));
        let (tally, stats, _) = dm.into_results();
        assert_eq!(tally.launched, 20);
        assert_eq!(stats[0].tasks_completed, 2);
        assert_eq!(stats[1].tasks_completed, 0);
    }

    #[test]
    fn offset_manager_hands_out_and_completes_offset_ids() {
        let mut dm = DataManager::with_offset(40, 4, 100, template(), 1);
        let mut ids = Vec::new();
        let mut taken = Vec::new();
        while let Some(t) = dm.assign() {
            ids.push(t.task_id);
            taken.push(t);
        }
        assert_eq!(ids, vec![100, 101, 102, 103]);
        // An id outside the run (hostile or stale peer) is dropped, not a panic.
        assert!(!dm.complete(0, SimTask { task_id: 99, photons: 10 }, &worker_tally(10)));
        assert!(!dm.complete(0, SimTask { task_id: 104, photons: 10 }, &worker_tally(10)));
        for t in taken {
            assert!(dm.complete(0, t, &worker_tally(t.photons)));
        }
        let (tally, _, _) = dm.into_results();
        assert_eq!(tally.launched, 40);
    }

    #[test]
    fn registered_workers_extend_the_stats_table() {
        let mut dm = DataManager::new(10, 1, template(), 0);
        let a = dm.register_worker();
        let b = dm.register_worker();
        assert_eq!((a, b), (0, 1));
        let t = dm.assign().unwrap();
        dm.complete(b, t, &worker_tally(t.photons));
        let (_, stats, _) = dm.into_results();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[1].tasks_completed, 1);
        assert_eq!(stats[0].tasks_completed, 0);
    }

    /// Five tallies whose float sums depend on the order they are added in.
    fn float_tallies() -> Vec<Tally> {
        [1e16, 1.0, -1e16, 0.1, 3.0]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut t = worker_tally(10);
                t.detected_weight = w;
                t.specular_weight = 0.1 * (i + 1) as f64;
                t.absorbed_by_layer[0] = 1.0 / (i + 3) as f64;
                t.detected_depth_max = i as f64;
                t
            })
            .collect()
    }

    fn fold<'a>(tallies: impl IntoIterator<Item = &'a Tally>) -> Vec<u8> {
        let mut aggregate = template();
        tallies.into_iter().for_each(|t| aggregate.merge(t));
        crate::wire::encode_tally(&aggregate)
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        permutations(n - 1)
            .into_iter()
            .flat_map(|p| {
                (0..n).map(move |at| {
                    let mut q = p.clone();
                    q.insert(at, n - 1);
                    q
                })
            })
            .collect()
    }

    #[test]
    fn result_is_the_task_order_fold_whatever_order_tasks_complete_in() {
        let tallies = float_tallies();
        let expected = fold(&tallies);
        assert_ne!(expected, fold(tallies.iter().rev()), "the fold must depend on its order");
        let orders = permutations(tallies.len());
        assert_eq!(orders.len(), 120);
        for (k, order) in orders.iter().enumerate() {
            let mut dm = DataManager::with_offset(50, 5, 7, template(), 2);
            let mut tasks: Vec<SimTask> = std::iter::from_fn(|| dm.assign()).collect();
            for (step, &slot) in order.iter().enumerate() {
                if step == k % 5 {
                    // A lease lost and re-run in the middle of it all.
                    dm.fail(1, tasks[slot]);
                    tasks[slot] = dm.assign().expect("the failed task re-queues");
                    assert_eq!(tasks[slot].task_id, 7 + slot as u64);
                }
                assert!(dm.complete(0, tasks[slot], &tallies[slot]));
                // Nothing merges twice and nothing outside the run merges.
                assert!(!dm.complete(1, tasks[slot], &tallies[slot]));
                assert!(!dm.complete(1, SimTask { task_id: 6, photons: 10 }, &tallies[0]));
                assert!(!dm.complete(1, SimTask { task_id: 12, photons: 10 }, &tallies[0]));
                assert_eq!(dm.finished(), step + 1 == tallies.len());
            }
            let (tally, stats, requeues) = dm.into_results();
            assert_eq!(crate::wire::encode_tally(&tally), expected, "{order:?}");
            assert_eq!((stats[0].tasks_completed, stats[1].tasks_failed, requeues), (5, 1, 1));
        }
    }
}
