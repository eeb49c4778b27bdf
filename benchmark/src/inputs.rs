//! Seed → generated inputs. The program under test sees only the
//! [`Scenario`]s built here.
//!
//! What the workload seed may and may not vary. Work per photon is heavy
//! tailed: measured at the seed commit, the RNG draws of a 900-photon
//! `adult_head_default` job move ±10% (1σ) with the RNG seed, so a
//! seed-dependent RNG seed would put a ±10% input-size change on every
//! throughput number — more than any bound. The photon histories are
//! therefore pinned per workload ([`RNG_SEED`]) and the workload seed drives
//! what changes the *outputs* without changing the *work*: the detector
//! placement (trajectories never depend on the detector, tallies do) and,
//! for the daemon, the key sequence.

use lumen_core::engine::Scenario;
use lumen_core::{Detector, GridSpec, Precision, SimulationOptions, Source, Vec3};
use lumen_tissue::presets::{adult_head, homogeneous_white_matter, voxelized, AdultHeadConfig};
use mcrng::SplitMix64;

/// The pinned photon-history seed of every workload (see the module docs).
pub const RNG_SEED: u64 = 42;

/// Relative detector displacement drawn from the workload seed: ±0.5%.
fn jitter(rng: &mut SplitMix64) -> f64 {
    let unit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + (unit - 0.5) * 0.01
}

fn detector(separation: f64, radius: f64, rng: &mut SplitMix64) -> Detector {
    Detector::new(separation * jitter(rng), radius * jitter(rng))
}

/// One job of a run workload: the scenario plus its smallest sibling (one
/// photon per task) used for the `min_job_us` series.
#[derive(Debug, Clone)]
pub struct JobInputs {
    pub job: Scenario,
    pub min_job: Scenario,
}

impl JobInputs {
    fn new(job: Scenario) -> Self {
        let min_job = job.clone().with_photons(job.tasks);
        Self { job, min_job }
    }
}

/// `head_exact_seq`: the layered adult head of `lumen_bench::throughput_presets`.
pub fn head_inputs(seed: u64) -> JobInputs {
    let mut rng = SplitMix64::new(seed ^ 0x6865_6164);
    JobInputs::new(
        Scenario::new(
            adult_head(AdultHeadConfig::default()),
            Source::Delta,
            detector(20.0, 2.0, &mut rng),
        )
        .with_photons(100)
        .with_tasks(8)
        .with_seed(RNG_SEED),
    )
}

/// `voxel_fast_cluster2`: the voxelized head (1 mm pitch, 16×16×25 cells) on
/// the fast tier at a small per-task budget.
pub fn voxel_inputs(seed: u64) -> JobInputs {
    let mut rng = SplitMix64::new(seed ^ 0x766f_7865);
    let tissue = voxelized(&adult_head(AdultHeadConfig::default()), 1.0, 8.0, 25.0)
        .expect("the default head voxelizes");
    let mut job = Scenario::new(tissue, Source::Delta, detector(4.0, 1.0, &mut rng))
        .with_photons(512)
        .with_tasks(4)
        .with_seed(RNG_SEED);
    job.options.precision = Precision::Fast;
    JobInputs::new(job)
}

/// `grid_exact_tcp2`: `lumen_bench::fig3_scenario(6.0, 50)` — homogeneous
/// white matter with a 50³ path grid, so every task ships a ~1 MB tally.
pub fn grid_inputs(seed: u64) -> JobInputs {
    let mut rng = SplitMix64::new(seed ^ 0x6772_6964);
    let separation = 6.0;
    let spec = GridSpec::cubic(
        50,
        Vec3::new(-separation, -separation, 0.0),
        Vec3::new(2.0 * separation, separation, separation * 1.5),
    );
    JobInputs::new(
        Scenario::new(
            homogeneous_white_matter(),
            Source::Delta,
            detector(separation, separation * 0.15, &mut rng),
        )
        .with_options(SimulationOptions { path_grid: Some(spec), ..Default::default() })
        .with_photons(100)
        .with_tasks(4)
        .with_seed(RNG_SEED),
    )
}

/// Photons per cache chunk of the `service_mix` daemon.
pub const CHUNK_PHOTONS: u64 = 100;
/// Task split inside one chunk.
pub const CHUNK_TASKS: u64 = 4;
/// Concurrent scripted clients (one per core).
pub const CLIENTS: usize = 2;
/// Warm queries on the round's own key.
pub const WARM_PER_ROUND: usize = 200;
/// Warm queries on the shared voxel key.
pub const VOXEL_WARM_PER_ROUND: usize = 20;

/// How far back a round revisits and how much the cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePlan {
    /// A round revisits its client's key from this many rounds earlier.
    pub revisit_distance: usize,
    /// The cache holds the head entries of this many rounds (plus the voxel
    /// entry). Everything touched since a key was last used is at most the
    /// `revisit_distance + 1` rounds of new keys plus as many revisited
    /// ones, so a revisit is always a hit while older keys keep being evicted.
    pub cache_rounds: usize,
}

impl CachePlan {
    /// The `service_mix` workload.
    pub const FULL: CachePlan = CachePlan { revisit_distance: 16, cache_rounds: 40 };
    /// The same shape at a quarter of the size, for the short session the
    /// layer matrix runs.
    pub const MINI: CachePlan = CachePlan { revisit_distance: 4, cache_rounds: 10 };
}

/// The scripted traffic of `service_mix`: per client and round a fresh
/// layered-head key, plus one voxel key shared by everyone.
#[derive(Debug, Clone)]
pub struct ServiceScript {
    /// `fresh[client][round]`, at a one-chunk budget. All keys share the
    /// photon histories and differ in the detector only, so every cold query
    /// is the same work.
    pub fresh: Vec<Vec<Scenario>>,
    /// The shared voxel-head key, at a one-chunk budget.
    pub voxel: Scenario,
    pub plan: CachePlan,
}

/// What a daemon's counters must read after serving a whole script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedStats {
    pub queries: u64,
    pub cold: u64,
    pub warm: u64,
    pub topup: u64,
    pub chunks_traced: u64,
    pub evictions: u64,
}

impl ServiceScript {
    pub fn rounds(&self) -> usize {
        self.fresh[0].len()
    }

    /// The two-chunk request that tops a fresh key up.
    pub fn topped_up(s: &Scenario) -> Scenario {
        s.clone().with_photons(2 * CHUNK_PHOTONS)
    }

    /// The key `client` revisits in `round`, once there is one.
    pub fn revisit(&self, client: usize, round: usize) -> Option<&Scenario> {
        round.checked_sub(self.plan.revisit_distance).map(|r| &self.fresh[client][r])
    }

    pub fn expected_stats(&self) -> ExpectedStats {
        let (clients, rounds) = (self.fresh.len() as u64, self.rounds() as u64);
        let revisits = clients * rounds.saturating_sub(self.plan.revisit_distance as u64);
        let warm = clients * rounds * (WARM_PER_ROUND + VOXEL_WARM_PER_ROUND) as u64 + revisits;
        // One prelude cold query populates the voxel key.
        let cold = clients * rounds + 1;
        let topup = clients * rounds;
        ExpectedStats {
            queries: cold + warm + topup,
            cold,
            warm,
            topup,
            chunks_traced: cold + topup,
            evictions: (clients * rounds).saturating_sub(clients * self.plan.cache_rounds as u64),
        }
    }
}

pub fn service_script(seed: u64, rounds: usize, plan: CachePlan) -> ServiceScript {
    let mut rng = SplitMix64::new(seed ^ 0x0073_7663);
    let head = adult_head(AdultHeadConfig::default());
    // Distinct separations in [19.9, 20.1) mm: the key sequence.
    let mut offsets: Vec<u64> = Vec::with_capacity(CLIENTS * rounds);
    while offsets.len() < CLIENTS * rounds {
        let candidate = rng.next() >> 11;
        if !offsets.contains(&candidate) {
            offsets.push(candidate);
        }
    }
    let mut offsets = offsets.into_iter();
    let fresh = (0..CLIENTS)
        .map(|_| {
            (0..rounds)
                .map(|_| {
                    let unit =
                        offsets.next().expect("one offset per key") as f64 / (1u64 << 53) as f64;
                    Scenario::new(
                        head.clone(),
                        Source::Delta,
                        Detector::new(19.9 + 0.2 * unit, 2.0),
                    )
                    .with_photons(CHUNK_PHOTONS)
                    .with_seed(RNG_SEED)
                })
                .collect()
        })
        .collect();
    let mut voxel = voxel_inputs(seed).job.with_photons(CHUNK_PHOTONS);
    voxel.options.precision = Precision::Exact;
    ServiceScript { fresh, voxel, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_cluster::wire::encode_scenario;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for make in [head_inputs, voxel_inputs, grid_inputs] {
            assert_eq!(encode_scenario(&make(7).job), encode_scenario(&make(7).job));
            assert_ne!(encode_scenario(&make(7).job), encode_scenario(&make(8).job));
        }
        let script = |seed| service_script(seed, 20, CachePlan::FULL);
        let (a, b, c) = (script(7), script(7), script(8));
        assert_eq!(encode_scenario(&a.fresh[1][19]), encode_scenario(&b.fresh[1][19]));
        assert_ne!(encode_scenario(&a.fresh[1][19]), encode_scenario(&c.fresh[1][19]));
    }

    #[test]
    fn the_seed_moves_the_detector_and_nothing_that_changes_the_work() {
        let (a, b) = (head_inputs(1).job, head_inputs(2).job);
        assert_ne!(a.detector, b.detector);
        assert_eq!((a.seed, a.photons, a.tasks), (b.seed, b.photons, b.tasks));
        assert_eq!(a.tissue, b.tissue);
        assert_eq!(head_inputs(1).min_job.photons, 8);
    }

    #[test]
    fn service_keys_are_all_distinct() {
        let script = service_script(3, 120, CachePlan::FULL);
        let mut keys: Vec<[u8; 32]> = script
            .fresh
            .iter()
            .flatten()
            .chain(std::iter::once(&script.voxel))
            .map(lumen_service::scenario_key)
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n);
        assert_eq!(n, CLIENTS * 120 + 1);
    }

    /// Replays the script against a model LRU of `CLIENTS * cache_rounds`
    /// equal-sized head entries and checks the counts the daemon must report.
    #[test]
    fn script_yields_the_expected_cold_warm_topup_and_eviction_counts() {
        replay(110, CachePlan::FULL);
        replay(24, CachePlan::MINI);
    }

    fn replay(rounds: usize, plan: CachePlan) {
        let script = service_script(5, rounds, plan);
        let capacity = CLIENTS * plan.cache_rounds;
        let mut lru: Vec<(usize, usize)> = Vec::new(); // oldest first
        let (mut cold, mut warm, mut topup, mut evictions) = (1u64, 0u64, 0u64, 0u64);
        let touch = |lru: &mut Vec<(usize, usize)>, key: (usize, usize)| -> bool {
            let hit = lru.contains(&key);
            lru.retain(|k| *k != key);
            lru.push(key);
            hit
        };
        for round in 0..rounds {
            for client in 0..CLIENTS {
                assert!(!touch(&mut lru, (client, round)), "a fresh key is never cached");
                cold += 1;
                while lru.len() > capacity {
                    lru.remove(0);
                    evictions += 1;
                }
            }
            for client in 0..CLIENTS {
                assert!(touch(&mut lru, (client, round)));
                topup += 1;
                warm += (WARM_PER_ROUND + VOXEL_WARM_PER_ROUND) as u64;
            }
            for client in 0..CLIENTS {
                if script.revisit(client, round).is_some() {
                    let key = (client, round - plan.revisit_distance);
                    assert!(touch(&mut lru, key), "revisit in round {round} must hit");
                    warm += 1;
                }
            }
        }
        let want = script.expected_stats();
        assert_eq!(
            (cold, warm, topup, evictions),
            (want.cold, want.warm, want.topup, want.evictions)
        );
        assert_eq!(want.chunks_traced, cold + topup);
        assert_eq!(want.evictions, (CLIENTS * (rounds - plan.cache_rounds)) as u64);
    }
}
