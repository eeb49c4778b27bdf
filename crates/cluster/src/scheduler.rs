//! Task-scheduling policies for the cluster simulator.
//!
//! The original platform uses demand-driven *self-scheduling*: an idle
//! client asks for work, so fast machines naturally take more batches and
//! slow machines never become the bottleneck. The paper cites Page &
//! Naughton's genetic-algorithm scheduler (reference \[4\]) for the
//! heterogeneous case; we implement a faithful small GA over static
//! task→machine assignments so the two approaches can be compared
//! (experiment A1: the `ablation_scheduler` artefact).

use mcrng::{McRng, Xoshiro256PlusPlus};

/// A scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Demand-driven: the DES assigns each task to the next idle machine.
    Dynamic,
    /// Static: `plan[i]` is the machine executing task `i`.
    Static(Vec<usize>),
}

/// A policy that maps a job onto machines.
pub trait Scheduler {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;
    /// Produce a plan for `n_tasks` tasks on machines with the given
    /// Mflop/s `rates`.
    fn plan(&self, n_tasks: usize, rates: &[f64], seed: u64) -> Plan;
}

/// Demand-driven self-scheduling (the platform's native policy).
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfScheduling;

impl Scheduler for SelfScheduling {
    fn name(&self) -> &'static str {
        "self-scheduling"
    }

    fn plan(&self, _n_tasks: usize, _rates: &[f64], _seed: u64) -> Plan {
        Plan::Dynamic
    }
}

/// Naive static pre-partitioning: tasks dealt round-robin, ignoring
/// machine speed. The baseline that heterogeneity punishes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticChunking;

impl Scheduler for StaticChunking {
    fn name(&self) -> &'static str {
        "static-chunking"
    }

    fn plan(&self, n_tasks: usize, rates: &[f64], _seed: u64) -> Plan {
        let n = rates.len().max(1);
        Plan::Static((0..n_tasks).map(|i| i % n).collect())
    }
}

/// Rate-proportional static plan: machine `m` receives a share of tasks
/// proportional to its speed. The natural "informed static" baseline and
/// the GA's seeding heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct RateProportional;

impl Scheduler for RateProportional {
    fn name(&self) -> &'static str {
        "rate-proportional"
    }

    fn plan(&self, n_tasks: usize, rates: &[f64], _seed: u64) -> Plan {
        Plan::Static(rate_proportional_plan(n_tasks, rates))
    }
}

/// Largest-remaining-share assignment, deterministic.
fn rate_proportional_plan(n_tasks: usize, rates: &[f64]) -> Vec<usize> {
    let total: f64 = rates.iter().sum();
    let deficit: Vec<f64> = rates.iter().map(|r| r / total).collect();
    let mut assigned = vec![0usize; rates.len()];
    let mut plan = Vec::with_capacity(n_tasks);
    for t in 0..n_tasks {
        // Pick the machine whose assigned share lags its target most.
        let mut best = 0usize;
        let mut best_lag = f64::NEG_INFINITY;
        for (m, &target) in deficit.iter().enumerate() {
            let lag = target * (t + 1) as f64 - assigned[m] as f64;
            if lag > best_lag {
                best_lag = lag;
                best = m;
            }
        }
        assigned[best] += 1;
        plan.push(best);
    }
    plan
}

/// Genetic-algorithm scheduler after Page & Naughton (paper ref. \[4\]):
/// evolves static task→machine assignments to minimise predicted makespan.
#[derive(Debug, Clone, Copy)]
pub struct GaScheduler {
    /// Individuals per generation.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for selection.
    pub tournament: usize,
}

impl Default for GaScheduler {
    fn default() -> Self {
        Self { population: 40, generations: 120, mutation_rate: 0.02, tournament: 3 }
    }
}

impl GaScheduler {
    /// Predicted makespan of a static plan: each machine's task count
    /// divided by its rate (batches are near-uniform, so count/rate is the
    /// right load proxy).
    fn fitness(plan: &[usize], rates: &[f64]) -> f64 {
        let mut load = vec![0.0f64; rates.len()];
        for &m in plan {
            load[m] += 1.0 / rates[m];
        }
        load.iter().copied().fold(0.0, f64::max)
    }
}

impl Scheduler for GaScheduler {
    fn name(&self) -> &'static str {
        "ga-scheduler"
    }

    fn plan(&self, n_tasks: usize, rates: &[f64], seed: u64) -> Plan {
        let n_machines = rates.len();
        if n_machines <= 1 || n_tasks == 0 {
            return Plan::Static(vec![0; n_tasks]);
        }
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x6A5C_7EDD_1E5C_0DE5);
        // Population: one rate-proportional seed, the rest random.
        let mut population: Vec<Vec<usize>> = Vec::with_capacity(self.population);
        population.push(rate_proportional_plan(n_tasks, rates));
        while population.len() < self.population {
            population
                .push((0..n_tasks).map(|_| rng.next_below(n_machines as u64) as usize).collect());
        }
        let mut scores: Vec<f64> = population.iter().map(|p| Self::fitness(p, rates)).collect();

        for _ in 0..self.generations {
            let mut next: Vec<Vec<usize>> = Vec::with_capacity(self.population);
            // Elitism: carry the champion over.
            let best_idx = argmin(&scores);
            next.push(population[best_idx].clone());
            while next.len() < self.population {
                let a = self.select(&scores, &mut rng);
                let b = self.select(&scores, &mut rng);
                let mut child: Vec<usize> = population[a]
                    .iter()
                    .zip(&population[b])
                    .map(|(&ga, &gb)| if rng.next_f64() < 0.5 { ga } else { gb })
                    .collect();
                for gene in &mut child {
                    if rng.next_f64() < self.mutation_rate {
                        *gene = rng.next_below(n_machines as u64) as usize;
                    }
                }
                next.push(child);
            }
            population = next;
            scores = population.iter().map(|p| Self::fitness(p, rates)).collect();
        }

        Plan::Static(population[argmin(&scores)].clone())
    }
}

impl GaScheduler {
    fn select<R: McRng>(&self, scores: &[f64], rng: &mut R) -> usize {
        let mut best = rng.next_below(scores.len() as u64) as usize;
        for _ in 1..self.tournament {
            let c = rng.next_below(scores.len() as u64) as usize;
            if scores[c] < scores[best] {
                best = c;
            }
        }
        best
    }
}

fn argmin(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_scheduling_is_dynamic() {
        assert_eq!(SelfScheduling.plan(10, &[1.0, 2.0], 0), Plan::Dynamic);
    }

    #[test]
    fn static_chunking_round_robins() {
        match StaticChunking.plan(6, &[1.0, 1.0, 1.0], 0) {
            Plan::Static(p) => assert_eq!(p, vec![0, 1, 2, 0, 1, 2]),
            _ => panic!("expected static plan"),
        }
    }

    #[test]
    fn rate_proportional_respects_rates() {
        match RateProportional.plan(100, &[1.0, 3.0], 0) {
            Plan::Static(p) => {
                let fast = p.iter().filter(|&&m| m == 1).count();
                assert!((70..=80).contains(&fast), "fast machine got {fast}/100");
                assert_eq!(p.len(), 100);
            }
            _ => panic!("expected static plan"),
        }
    }

    #[test]
    fn ga_plan_covers_all_tasks_with_valid_machines() {
        let ga = GaScheduler::default();
        match ga.plan(50, &[1.0, 2.0, 4.0], 9) {
            Plan::Static(p) => {
                assert_eq!(p.len(), 50);
                assert!(p.iter().all(|&m| m < 3));
            }
            _ => panic!("expected static plan"),
        }
    }

    #[test]
    fn ga_beats_round_robin_on_heterogeneous_rates() {
        let rates = [10.0, 10.0, 100.0, 200.0];
        let n_tasks = 80;
        let ga = GaScheduler::default();
        let ga_plan = match ga.plan(n_tasks, &rates, 3) {
            Plan::Static(p) => p,
            _ => unreachable!(),
        };
        let rr_plan = match StaticChunking.plan(n_tasks, &rates, 3) {
            Plan::Static(p) => p,
            _ => unreachable!(),
        };
        let ga_ms = GaScheduler::fitness(&ga_plan, &rates);
        let rr_ms = GaScheduler::fitness(&rr_plan, &rates);
        assert!(ga_ms < rr_ms * 0.5, "GA should halve round-robin's makespan: {ga_ms} vs {rr_ms}");
    }

    #[test]
    fn ga_is_at_least_as_good_as_its_seed_heuristic() {
        let rates = [29.5, 209.5, 15.0, 154.0, 91.0];
        let n_tasks = 200;
        let ga_plan = match GaScheduler::default().plan(n_tasks, &rates, 1) {
            Plan::Static(p) => p,
            _ => unreachable!(),
        };
        let rp_plan = rate_proportional_plan(n_tasks, &rates);
        assert!(
            GaScheduler::fitness(&ga_plan, &rates)
                <= GaScheduler::fitness(&rp_plan, &rates) + 1e-12
        );
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let rates = [1.0, 5.0, 9.0];
        let a = GaScheduler::default().plan(30, &rates, 4);
        let b = GaScheduler::default().plan(30, &rates, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_cases() {
        // One machine: everything goes there.
        match GaScheduler::default().plan(5, &[7.0], 0) {
            Plan::Static(p) => assert_eq!(p, vec![0; 5]),
            _ => panic!(),
        }
        // Zero tasks.
        match GaScheduler::default().plan(0, &[1.0, 2.0], 0) {
            Plan::Static(p) => assert!(p.is_empty()),
            _ => panic!(),
        }
    }
}
