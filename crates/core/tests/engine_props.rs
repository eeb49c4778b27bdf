//! Property tests for the engine's work decomposition and the scenario
//! API: whatever the budget and task count, the batch split must preserve
//! the photon total, stay near-equal, and never emit empty batches.

use lumen_core::engine::batch_sizes;
use lumen_core::engine::{Backend, Scenario, Sequential};
use lumen_core::{Detector, Source};
use lumen_tissue::presets::semi_infinite_phantom;
use proptest::prelude::*;

proptest! {
    #[test]
    fn batch_sums_are_preserved(total in 0u64..10_000_000, tasks in 0u64..2_000) {
        let sizes = batch_sizes(total, tasks);
        prop_assert_eq!(sizes.iter().sum::<u64>(), total);
    }

    #[test]
    fn no_zero_batches(total in 0u64..10_000_000, tasks in 0u64..2_000) {
        let sizes = batch_sizes(total, tasks);
        prop_assert!(sizes.iter().all(|&n| n > 0));
        // And never more batches than photons or requested tasks.
        prop_assert!(sizes.len() as u64 <= total);
        prop_assert!(sizes.len() as u64 <= tasks.max(1));
    }

    #[test]
    fn batches_are_near_equal(total in 1u64..10_000_000, tasks in 1u64..2_000) {
        let sizes = batch_sizes(total, tasks);
        let mx = *sizes.iter().max().expect("non-empty");
        let mn = *sizes.iter().min().expect("non-empty");
        prop_assert!(mx - mn <= 1, "max {} min {}", mx, mn);
    }

    #[test]
    fn batch_count_is_monotone_in_tasks(total in 1u64..1_000_000, tasks in 1u64..1_000) {
        // Raising the task count can only split work finer: the number of
        // (non-empty) batches never decreases, and the largest batch never
        // grows.
        let coarse = batch_sizes(total, tasks);
        let fine = batch_sizes(total, tasks + 1);
        prop_assert!(fine.len() >= coarse.len());
        let coarse_max = *coarse.iter().max().expect("non-empty");
        let fine_max = *fine.iter().max().expect("non-empty");
        prop_assert!(fine_max <= coarse_max, "{} > {}", fine_max, coarse_max);
    }

    #[test]
    fn scenario_batches_match_free_function(
        total in 0u64..1_000_000, tasks in 1u64..512, seed in any::<u64>()
    ) {
        let scenario = Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(2.0, 0.5),
        )
        .with_photons(total)
        .with_tasks(tasks)
        .with_seed(seed);
        prop_assert_eq!(scenario.batches(), batch_sizes(total, tasks));
    }
}

#[test]
fn scenario_launches_exact_budget_across_task_counts() {
    // The decomposition is invisible in the launched total, whatever the
    // split — including more tasks than photons.
    let base = Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
    .with_photons(1_234)
    .with_seed(3);
    for tasks in [1u64, 2, 7, 64, 1_233, 1_234, 5_000] {
        let report = Sequential.run(&base.clone().with_tasks(tasks)).expect("valid scenario");
        assert_eq!(report.launched(), 1_234, "tasks = {tasks}");
    }
}
