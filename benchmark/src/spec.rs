//! The benchmark's contract: workloads, metric names, units, directions and
//! bounds. `BENCHMARK.json` is this file rendered (`lumen-benchmark spec`),
//! and a unit test holds the two together.

use crate::json::Json;

/// Seconds one run measures at the seed commit's speed. Work per series is a
/// fixed count sized for this; `--seconds S` scales the counts by `S / 20`,
/// so both sides of a comparison always do the same work.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "head_exact_seq",
        why: "layered head, exact tier, Sequential: kernel/scalar.rs + layered geometry + mcrng \
              do all the work, so a cluster, net or daemon change must leave it flat",
    },
    Workload {
        name: "voxel_fast_cluster2",
        why: "voxel head, fast tier, 128 photons per task on ThreadedCluster(2), workers sharing one \
              core (two-core wall beside it as a diagnostic): batch-kernel tail drain, runtime \
              overhead, tiny tallies",
    },
    Workload {
        name: "grid_exact_tcp2",
        why: "50^3 path grid over loopback serve + 2 run_client sharing one core: 1 MB tally \
              encode/decode, frames, sockets and merge are a third of the job, so wire/net changes \
              show here",
    },
    Workload {
        name: "service_mix",
        why: "in-process lumend, 2 scripted clients: concurrent cold and top-up, then 200 warm + 20 \
              voxel-key warm each, 1 revisit per round, LRU eviction running; warm must not move \
              for a kernel change",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Every workload reports every one of these (the contract has no
/// per-workload metric lists), so each is defined on all four paths and none
/// is a copy of another on any of them:
///
/// * `photons_per_s` — job photons / `fast3` job wall on the workload's
///   headline path: Sequential / cluster2 on two cores / tcp2 with server and
///   clients sharing one core / both clients' concurrent cold daemon queries.
/// * `min_job_us` — `fast3` wall of the smallest request the path takes:
///   a one-photon-per-task job, or a warm query (per-round median of 200).
/// * `peak_rss_mb` — `VmHWM` of the workload's process at exit.
/// * `setup_s` — `fast3` over 100 full set-up cycles.
///
/// No bound is above 0.10: a metric that cannot be held inside that on every
/// workload is a diagnostic, not an end-to-end metric.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "photons_per_s", unit: "photons/s", better: Better::Higher, bound: 0.1 },
    EndToEnd { name: "min_job_us", unit: "us", better: Better::Lower, bound: 0.1 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.1 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.1 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Names are `<crate>.<module>.<what>`; unit `count` marks an exact count.
pub const PER_LAYER: [PerLayer; 93] = [
    lower("mcrng.next_f64_ns", "ns"),
    lower("mcrng.stream_ns", "ns"),
    lower("photon.libm_ln_ns", "ns"),
    lower("photon.fast_ln_ns", "ns"),
    lower("photon.libm_sincos_ns", "ns"),
    lower("photon.sincos_unit_ns", "ns"),
    lower("photon.spin_ns", "ns"),
    lower("photon.sample_step_ns", "ns"),
    lower("tissue.layered.boundary_ns", "ns"),
    lower("tissue.voxel.boundary_ns", "ns"),
    lower("tissue.voxelize_ms", "ms"),
    lower("core.kernel.scalar.ns_per_photon.head", "ns"),
    lower("core.kernel.scalar.ns_per_photon.white", "ns"),
    lower("core.kernel.scalar.ns_per_photon.voxel", "ns"),
    lower("core.kernel.scalar.ns_per_photon.grid", "ns"),
    lower("core.kernel.batch.ns_per_photon.head", "ns"),
    lower("core.kernel.batch.ns_per_photon.white", "ns"),
    lower("core.kernel.batch.ns_per_photon.voxel", "ns"),
    lower("core.kernel.draws_per_photon.head", "count"),
    lower("core.kernel.draws_per_photon.white", "count"),
    lower("core.kernel.draws_per_photon.voxel", "count"),
    lower("core.kernel.scalar.ns_per_draw.head", "ns"),
    lower("core.kernel.batch.ns_per_draw.voxel", "ns"),
    lower("core.kernel.batch.tail_ratio.white", "ratio"),
    lower("core.kernel.batch.tail_ratio.voxel", "ratio"),
    lower("core.kernel.grid_deposit_share", "ratio"),
    lower("core.engine.new_tally_us.scalar", "us"),
    lower("core.engine.new_tally_us.grid", "us"),
    lower("core.engine.merge_us.scalar", "us"),
    lower("core.engine.merge_us.grid", "us"),
    lower("core.engine.seq_overhead_share", "ratio"),
    higher("core.engine.rayon2_eff", "ratio"),
    higher("core.archive.entries", "count"),
    lower("core.archive.record_share", "ratio"),
    lower("core.archive.evaluate_ns_per_entry", "ns"),
    lower("cluster.wire.scenario_bytes.layered", "count"),
    lower("cluster.wire.scenario_bytes.voxel", "count"),
    lower("cluster.wire.encode_scenario_us.layered", "us"),
    lower("cluster.wire.encode_scenario_us.voxel", "us"),
    lower("cluster.wire.decode_scenario_us.layered", "us"),
    lower("cluster.wire.decode_scenario_us.voxel", "us"),
    lower("cluster.wire.tally_bytes.scalar", "count"),
    lower("cluster.wire.tally_bytes.grid", "count"),
    lower("cluster.wire.encode_tally_us.scalar", "us"),
    lower("cluster.wire.encode_tally_us.grid", "us"),
    lower("cluster.wire.decode_tally_us.scalar", "us"),
    lower("cluster.wire.decode_tally_us.grid", "us"),
    lower("cluster.wire.archive_bytes", "count"),
    lower("cluster.wire.encode_archive_us", "us"),
    lower("cluster.wire.decode_archive_us", "us"),
    lower("cluster.datamanager.task_us.scalar", "us"),
    lower("cluster.datamanager.task_us.grid", "us"),
    lower("cluster.executor.imbalance", "ratio"),
    lower("cluster.executor.requeues", "count"),
    higher("cluster.executor.scaling_eff", "ratio"),
    lower("cluster.net.task_rtt_us", "us"),
    lower("cluster.net.bytes_per_task.scalar", "count"),
    lower("cluster.net.bytes_per_task.grid", "count"),
    lower("cluster.net.requeues", "count"),
    higher("cluster.net.clients_served", "count"),
    higher("cluster.net.scaling_eff", "ratio"),
    lower("net.frame.encode_ns.small", "ns"),
    lower("net.frame.encode_ns.large", "ns"),
    lower("net.frame.decode_ns.small", "ns"),
    lower("net.frame.decode_ns.large", "ns"),
    lower("net.loop.echo_rtt_us.c1", "us"),
    lower("net.loop.echo_rtt_us.c2", "us"),
    higher("net.loop.echo_mb_s", "MB/s"),
    lower("service.hash.scenario_key_us.layered", "us"),
    lower("service.hash.scenario_key_us.voxel", "us"),
    lower("service.cache.get_ns", "ns"),
    lower("service.cache.insert_us", "us"),
    lower("service.proto.encode_reply_us", "us"),
    lower("service.proto.decode_reply_us", "us"),
    lower("service.core.warm_query_us", "us"),
    lower("service.core.cold_overhead_share", "ratio"),
    lower("service.core.topup_overhead_share", "ratio"),
    lower("service.server.cold_ms", "ms"),
    lower("service.server.topup_ms", "ms"),
    lower("service.server.warm_us", "us"),
    lower("service.server.warm_voxel_us", "us"),
    lower("service.server.warm_p99_us", "us"),
    higher("service.server.rounds_per_s", "rounds/s"),
    higher("service.stats.cold", "count"),
    higher("service.stats.warm", "count"),
    higher("service.stats.topup", "count"),
    lower("service.stats.chunks_traced", "count"),
    lower("service.stats.evictions", "count"),
    lower("trace.unattributed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    higher("host.clean_frac", "ratio"),
    lower("host.disturbance", "ratio"),
    lower("host.steal_ticks", "count"),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> Json {
    Json::object([
        (
            "command",
            Json::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Array(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| Json::object([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::object([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::object([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn spec_output_equals_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json().pretty());
    }

    #[test]
    fn the_spec_is_inside_the_contract_limits() {
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = workload_names()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n, 64)), "a name breaks the name rule");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        // The contract allows 0.25; the issue caps every bound at 0.10.
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.10));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }
}
