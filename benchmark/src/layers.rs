//! The layer matrix: every layer a photon or a query passes through, timed
//! from outside through its public functions. It is the same in every traced
//! run, whatever the workload, so the numbers line up across result files.
//!
//! Each leg repeats one identical unit of work and reports the fast end of
//! the series, like the end-to-end metrics but with fewer, shorter samples:
//! these numbers carry no bound, they say where to look.

use crate::checks::Checks;
use crate::host::Cores;
use crate::inputs::{self, CachePlan, CHUNK_PHOTONS, CHUNK_TASKS};
use crate::jobs;
use crate::service;
use crate::stats::Series;
use crate::trace::SpanLog;
use lumen_cluster::net::{
    handshake, read_frame, write_frame, KIND_ASSIGN, KIND_COMPLETE, KIND_REQUEST,
};
use lumen_cluster::{serve_with_options, wire, DataManager, ServeOptions, ThreadedCluster};
use lumen_core::engine::{Backend, NoProgress, Rayon, Scenario};
use lumen_core::{Detector, Precision, RecordOptions, Simulation, Source, Tally, Vec3};
use lumen_net::frame::{encode_frame_into, FrameDecoder};
use lumen_net::{EventLoop, Flow, Handler, Ops, Token};
use lumen_photon::{approx, Photon};
use lumen_service::proto;
use lumen_service::{scenario_key, QueryReply, ResultCache, Served, SimulationService};
use lumen_tissue::presets::{
    adult_head, homogeneous_white_matter, semi_infinite_phantom, voxelized, AdultHeadConfig,
};
use lumen_tissue::TissueGeometry;
use mcrng::{McRng, StreamFactory};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub type Values = Vec<(&'static str, f64)>;

/// Sample counts shrink with `--seconds` but never below this.
const MIN_SAMPLES: usize = 3;
/// Samples a core keeps its turn for: the legs have 9 to 15.
const MATRIX_STINT: usize = 3;

struct Matrix {
    scale: f64,
    values: Values,
    checks: Checks,
    /// Every leg runs confined to one core, the cores taking turns from
    /// sample to sample, except the few whose point is two cores at once.
    cores: Cores,
}

impl Matrix {
    fn samples(&self, at_full_scale: usize) -> usize {
        ((at_full_scale as f64 * self.scale).round() as usize).max(MIN_SAMPLES)
    }

    /// `fast3` seconds of one call of `f`, over `samples` calls.
    fn time(&mut self, samples: usize, f: impl FnMut()) -> f64 {
        self.time_on(samples, true, f)
    }

    /// [`Matrix::time`] released on all cores, for a two-core wall.
    fn time_released(&mut self, samples: usize, f: impl FnMut()) -> f64 {
        self.time_on(samples, false, f)
    }

    fn time_on(&mut self, samples: usize, confined: bool, mut f: impl FnMut()) -> f64 {
        let mut series = Series::with_capacity(samples);
        for _ in 0..self.samples(samples) {
            if confined {
                self.cores.confine();
            } else {
                self.cores.release();
            }
            let started = Instant::now();
            f();
            series.push(started.elapsed().as_secs_f64());
        }
        series.fast3()
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

/// An RNG that counts its draws; the count is exact and repeats.
struct Counting<R> {
    inner: R,
    draws: u64,
}

impl<R: McRng> McRng for Counting<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;

fn white_scenario() -> Scenario {
    Scenario::new(homogeneous_white_matter(), Source::Delta, Detector::new(2.0, 1.0))
        .with_seed(inputs::RNG_SEED)
}

/// One stream of `photons` through `Simulation::run_stream`.
fn run_one_stream(sim: &Simulation, photons: u64) -> Tally {
    let mut rng = StreamFactory::new(inputs::RNG_SEED).stream(0);
    let mut tally = sim.new_tally();
    sim.run_stream(photons, &mut rng, &mut tally, None);
    tally
}

fn with_tier(s: &Scenario, precision: Precision) -> Simulation {
    let mut sim = s.simulation();
    sim.options.precision = precision;
    sim
}

fn mcrng_and_photon(m: &mut Matrix) {
    const N: usize = 4096;
    let mut rng = StreamFactory::new(7).stream(0);
    let per_op = |t: f64| t / N as f64 * NS;

    let t = m.time(15, || {
        let mut acc = 0.0;
        for _ in 0..N {
            acc += rng.next_f64();
        }
        black_box(acc);
    });
    m.put("mcrng.next_f64_ns", per_op(t));
    let factory = StreamFactory::new(7);
    let t = m.time(15, || {
        for i in 0..N as u64 {
            black_box(factory.stream(black_box(i)));
        }
    });
    m.put("mcrng.stream_ns", per_op(t));

    let unit: Vec<f64> = (0..N).map(|_| rng.next_f64_open()).collect();
    let mut math = |name, f: &dyn Fn(f64) -> f64| {
        let t = m.time(15, || {
            let mut acc = 0.0;
            for &u in &unit {
                acc += f(black_box(u));
            }
            black_box(acc);
        });
        m.put(name, per_op(t));
    };
    math("photon.libm_ln_ns", &|u| u.ln());
    math("photon.fast_ln_ns", &approx::fast_ln);
    math("photon.libm_sincos_ns", &|u| {
        let (s, c) = (u * std::f64::consts::TAU).sin_cos();
        s + c
    });
    math("photon.sincos_unit_ns", &|u| {
        let (s, c) = approx::sincos_unit(u);
        s + c
    });

    let mut photon = Photon::launch(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 0);
    let t = m.time(15, || {
        for _ in 0..N {
            lumen_photon::spin(&mut photon, 0.9, &mut rng);
        }
        black_box(&photon);
    });
    m.put("photon.spin_ns", per_op(t));
    let t = m.time(15, || {
        let mut acc = 0.0;
        for _ in 0..N {
            acc += lumen_photon::sample_step_mfps(&mut rng);
        }
        black_box(acc);
    });
    m.put("photon.sample_step_ns", per_op(t));
}

fn tissue(m: &mut Matrix) {
    const N: usize = 2048;
    let mut rng = StreamFactory::new(11).stream(0);
    let direction = |rng: &mut mcrng::Xoshiro256PlusPlus| {
        let (x, y, z) = mcrng::distributions::uniform_sphere(rng);
        Vec3::new(x, y, z)
    };
    let layered = adult_head(AdultHeadConfig::default());
    let rays: Vec<(Vec3, Vec3, usize)> = (0..N)
        .map(|_| {
            let pos = Vec3::new(0.0, 0.0, rng.next_f64() * 25.0);
            (pos, direction(&mut rng), layered.layer_at(pos.z).expect("inside the stack"))
        })
        .collect();
    let t = m.time(15, || {
        for &(pos, dir, region) in &rays {
            black_box(layered.boundary_hit(pos, dir, region));
        }
    });
    m.put("tissue.layered.boundary_ns", t / N as f64 * NS);

    let voxel = voxelized(&layered, 1.0, 8.0, 25.0).expect("the default head voxelizes");
    let rays: Vec<(Vec3, Vec3, usize)> = (0..N)
        .map(|_| {
            let pos = Vec3::new(
                (rng.next_f64() - 0.5) * 15.0,
                (rng.next_f64() - 0.5) * 15.0,
                rng.next_f64() * 24.0 + 0.5,
            );
            let dir = direction(&mut rng);
            let (ix, iy, iz) = voxel.voxel_of(pos, dir).expect("inside the grid");
            (pos, dir, voxel.material_at(ix, iy, iz) as usize)
        })
        .collect();
    let t = m.time(15, || {
        for &(pos, dir, region) in &rays {
            black_box(TissueGeometry::boundary_hit(&voxel, pos, dir, region));
        }
    });
    m.put("tissue.voxel.boundary_ns", t / N as f64 * NS);

    let t = m.time(15, || {
        black_box(voxelized(&layered, 1.0, 8.0, 25.0).expect("the default head voxelizes"));
    });
    m.put("tissue.voxelize_ms", t * 1e3);
}

fn kernel(m: &mut Matrix) {
    let head = inputs::head_inputs(0).job;
    let white = white_scenario();
    let voxel = inputs::voxel_inputs(0).job;
    let grid = inputs::grid_inputs(0).job;
    // Photons per sample, sized for ~25 ms at the seed commit's speed.
    let mut ns_per_photon = |name, sim: &Simulation, photons: u64| {
        let t = m.time(9, || {
            black_box(run_one_stream(sim, photons));
        });
        let ns = t / photons as f64 * NS;
        m.put(name, ns);
        ns
    };
    let scalar_head = ns_per_photon(
        "core.kernel.scalar.ns_per_photon.head",
        &with_tier(&head, Precision::Exact),
        256,
    );
    ns_per_photon(
        "core.kernel.scalar.ns_per_photon.white",
        &with_tier(&white, Precision::Exact),
        128,
    );
    ns_per_photon(
        "core.kernel.scalar.ns_per_photon.voxel",
        &with_tier(&voxel, Precision::Exact),
        256,
    );
    let with_grid = ns_per_photon(
        "core.kernel.scalar.ns_per_photon.grid",
        &with_tier(&grid, Precision::Exact),
        128,
    );
    ns_per_photon("core.kernel.batch.ns_per_photon.head", &with_tier(&head, Precision::Fast), 512);
    ns_per_photon(
        "core.kernel.batch.ns_per_photon.white",
        &with_tier(&white, Precision::Fast),
        256,
    );
    let batch_voxel = ns_per_photon(
        "core.kernel.batch.ns_per_photon.voxel",
        &with_tier(&voxel, Precision::Fast),
        512,
    );

    // The same scenario without its path grid: what recording vertices and
    // depositing detected trajectories costs.
    let mut bare = with_tier(&grid, Precision::Exact);
    bare.options.path_grid = None;
    let t = m.time(9, || {
        black_box(run_one_stream(&bare, 128));
    });
    m.put("core.kernel.grid_deposit_share", 1.0 - t / 128.0 * NS / with_grid);

    // Draws per photon: head and white on the exact tier, voxel on the fast
    // tier (the tiers the ns_per_draw legs below divide by).
    let mut draws = |name, sim: &Simulation, photons: u64| {
        let mut rng = Counting { inner: StreamFactory::new(inputs::RNG_SEED).stream(0), draws: 0 };
        let mut tally = sim.new_tally();
        sim.run_stream(photons, &mut rng, &mut tally, None);
        m.checks.check(tally.launched == photons, || format!("{name}: photons dropped"));
        let per_photon = rng.draws as f64 / photons as f64;
        m.put(name, per_photon);
        per_photon
    };
    let head_draws =
        draws("core.kernel.draws_per_photon.head", &with_tier(&head, Precision::Exact), 256);
    draws("core.kernel.draws_per_photon.white", &with_tier(&white, Precision::Exact), 128);
    let voxel_draws =
        draws("core.kernel.draws_per_photon.voxel", &with_tier(&voxel, Precision::Fast), 512);
    m.put("core.kernel.scalar.ns_per_draw.head", scalar_head / head_draws);
    m.put("core.kernel.batch.ns_per_draw.voxel", batch_voxel / voxel_draws);

    // Tail drain: the batch kernel's ns/photon on 64-photon streams over its
    // ns/photon on one 4096-photon stream.
    for (name, scenario) in [
        ("core.kernel.batch.tail_ratio.white", &white),
        ("core.kernel.batch.tail_ratio.voxel", &voxel),
    ] {
        let sim = with_tier(scenario, Precision::Fast);
        let long = m.time(3, || {
            black_box(run_one_stream(&sim, 4096));
        }) / 4096.0;
        let factory = StreamFactory::new(inputs::RNG_SEED);
        let short = m.time(5, || {
            for stream in 0..16 {
                let mut rng = factory.stream(stream);
                let mut tally = sim.new_tally();
                sim.run_stream(64, &mut rng, &mut tally, None);
                black_box(tally);
            }
        }) / (16.0 * 64.0);
        m.put(name, short / long);
    }
}

/// The two tally shapes of the workloads, filled by a short run: scalar
/// (layered head) and 50³ grid.
struct Tallies {
    head: Scenario,
    scalar: Tally,
    grid_scenario: Scenario,
    grid: Tally,
}

fn tallies(m: &mut Matrix) -> Tallies {
    let head = inputs::head_inputs(0).job.with_photons(256);
    let grid_scenario = inputs::grid_inputs(0).job.with_photons(64);
    let mut filled = |s: &Scenario| {
        let tally = m.checks.op("tally leg", jobs::sequential(s)).map(|o| o.tally);
        tally.unwrap_or_else(|| s.simulation().new_tally())
    };
    Tallies { scalar: filled(&head), grid: filled(&grid_scenario), head, grid_scenario }
}

fn engine(m: &mut Matrix, t: &Tallies) {
    let head = &t.head;
    for (new_name, merge_name, scenario, part, reps) in [
        ("core.engine.new_tally_us.scalar", "core.engine.merge_us.scalar", head, &t.scalar, 1000),
        (
            "core.engine.new_tally_us.grid",
            "core.engine.merge_us.grid",
            &t.grid_scenario,
            &t.grid,
            10,
        ),
    ] {
        let sim = scenario.simulation();
        let t = m.time(15, || {
            for _ in 0..reps {
                black_box(sim.new_tally());
            }
        });
        m.put(new_name, t / reps as f64 * US);
        let mut acc = sim.new_tally();
        let t = m.time(15, || {
            for _ in 0..reps {
                acc.merge(black_box(part));
            }
        });
        black_box(&acc);
        m.put(merge_name, t / reps as f64 * US);
    }

    // Sequential against the bare per-task kernel loop on the same streams,
    // and against the rayon pool pinned to both cores.
    let backend = m.time(9, || {
        black_box(jobs::sequential(head).map(|o| o.tally.launched).ok());
    });
    let sim = head.simulation();
    let factory = StreamFactory::new(head.seed);
    let kernel_only = m.time(9, || {
        for (i, &photons) in head.batches().iter().enumerate() {
            let mut rng = factory.stream(i as u64);
            let mut tally = sim.new_tally();
            sim.run_stream(photons, &mut rng, &mut tally, None);
            black_box(tally);
        }
    });
    m.put("core.engine.seq_overhead_share", 1.0 - kernel_only / backend);
    let rayon = m.time_released(9, || {
        black_box(Rayon::with_threads(2).run(head).map(|r| r.result.tally.launched).ok());
    });
    m.put("core.engine.rayon2_eff", backend / (2.0 * rayon));
}

fn archive(m: &mut Matrix) {
    let plain = white_scenario().with_photons(512).with_tasks(4);
    let mut recording = plain.clone();
    recording.options.archive = Some(RecordOptions { detected_only: false });
    let t_plain = m.time(7, || {
        black_box(jobs::sequential(&plain).map(|o| o.tally.launched).ok());
    });
    let t_recording = m.time(7, || {
        black_box(jobs::sequential(&recording).map(|o| o.tally.launched).ok());
    });
    m.put("core.archive.record_share", 1.0 - t_plain / t_recording);
    let archive = m
        .checks
        .op("recording run", jobs::sequential(&recording))
        .and_then(|o| o.tally.archive)
        .unwrap_or_else(|| recording.simulation().new_tally().archive.expect("archive attached"));
    m.checks.check(!archive.is_empty(), || "the recording run archived nothing".into());
    m.put("core.archive.entries", archive.len() as f64);
    let query: Vec<_> = archive
        .base
        .iter()
        .map(|o| lumen_core::OpticalProperties::new(o.mu_a * 1.1, o.mu_s * 0.95, o.g, o.n))
        .collect();
    let t = m.time(15, || {
        black_box(archive.evaluate(&query).map(|r| r.ess).ok());
    });
    m.put("core.archive.evaluate_ns_per_entry", t / archive.len().max(1) as f64 * NS);

    let bytes = wire::encode_archive(&archive);
    m.put("cluster.wire.archive_bytes", bytes.len() as f64);
    let t = m.time(15, || {
        black_box(wire::encode_archive(&archive));
    });
    m.put("cluster.wire.encode_archive_us", t * US);
    let t = m.time(15, || {
        black_box(wire::decode_archive(&bytes).is_ok());
    });
    m.put("cluster.wire.decode_archive_us", t * US);
    m.checks.check(wire::decode_archive(&bytes).is_ok_and(|a| a == archive), || {
        "archive does not survive the wire".into()
    });
}

fn wire_and_datamanager(m: &mut Matrix, scalar: &Tally, grid: &Tally) {
    let layered = inputs::head_inputs(0).job;
    let voxel = inputs::voxel_inputs(0).job;
    for (bytes_name, encode_name, decode_name, scenario) in [
        (
            "cluster.wire.scenario_bytes.layered",
            "cluster.wire.encode_scenario_us.layered",
            "cluster.wire.decode_scenario_us.layered",
            &layered,
        ),
        (
            "cluster.wire.scenario_bytes.voxel",
            "cluster.wire.encode_scenario_us.voxel",
            "cluster.wire.decode_scenario_us.voxel",
            &voxel,
        ),
    ] {
        let bytes = wire::encode_scenario(scenario);
        m.put(bytes_name, bytes.len() as f64);
        let t = m.time(15, || {
            for _ in 0..20 {
                black_box(wire::encode_scenario(black_box(scenario)));
            }
        });
        m.put(encode_name, t / 20.0 * US);
        let t = m.time(15, || {
            for _ in 0..20 {
                black_box(wire::decode_scenario(black_box(&bytes)).is_ok());
            }
        });
        m.put(decode_name, t / 20.0 * US);
        m.checks.check(wire::decode_scenario(&bytes).is_ok_and(|s| s == *scenario), || {
            format!("{bytes_name}: scenario does not survive the wire")
        });
    }

    let task_bytes =
        wire::encode_task(&lumen_cluster::protocol::SimTask { task_id: 0, photons: 1 }).len();
    for (bytes_name, encode_name, decode_name, dm_name, net_name, tally, reps) in [
        (
            "cluster.wire.tally_bytes.scalar",
            "cluster.wire.encode_tally_us.scalar",
            "cluster.wire.decode_tally_us.scalar",
            "cluster.datamanager.task_us.scalar",
            "cluster.net.bytes_per_task.scalar",
            scalar,
            200,
        ),
        (
            "cluster.wire.tally_bytes.grid",
            "cluster.wire.encode_tally_us.grid",
            "cluster.wire.decode_tally_us.grid",
            "cluster.datamanager.task_us.grid",
            "cluster.net.bytes_per_task.grid",
            grid,
            4,
        ),
    ] {
        let bytes = wire::encode_tally(tally);
        m.put(bytes_name, bytes.len() as f64);
        let t = m.time(15, || {
            for _ in 0..reps {
                black_box(wire::encode_tally(black_box(tally)));
            }
        });
        m.put(encode_name, t / reps as f64 * US);
        let t = m.time(15, || {
            for _ in 0..reps {
                black_box(wire::decode_tally(black_box(&bytes)).is_ok());
            }
        });
        m.put(decode_name, t / reps as f64 * US);
        m.checks.check(wire::decode_tally(&bytes).is_ok_and(|t| t == *tally), || {
            format!("{bytes_name}: tally does not survive the wire")
        });

        // Assign + complete for each of 8 tasks, then the task-order merge.
        let mut template = tally.clone();
        template.merge(tally); // any tally of the right shape
        let t = m.time(15, || {
            let mut dm = DataManager::new(8, 8, template.clone(), 1);
            while let Some(task) = dm.assign() {
                dm.complete(0, task, tally);
            }
            black_box(dm.into_results().0.launched);
        });
        m.put(dm_name, t / 8.0 * US);
        // Computed, not measured: REQUEST + ASSIGN + COMPLETE frames, each
        // with its 4-byte length and kind byte.
        m.put(net_name, (5 + 5 + task_bytes + 5 + bytes.len()) as f64);
    }
}

fn cluster_runtime(m: &mut Matrix) {
    let job = inputs::voxel_inputs(0).job;
    let mut imbalance = Series::default();
    let mut requeues = 0;
    m.cores.release();
    for _ in 0..m.samples(5) {
        let report = ThreadedCluster::new(jobs::WORKERS).run(&job).map_err(|e| e.to_string());
        let Some(out) = m.checks.op("cluster2 leg", report) else { continue };
        let photons: Vec<f64> = out.workers.iter().map(|w| w.photons as f64).collect();
        let mean = photons.iter().sum::<f64>() / photons.len().max(1) as f64;
        imbalance.push(photons.iter().copied().fold(0.0, f64::max) / mean);
        requeues += out.requeues;
    }
    m.put("cluster.executor.imbalance", imbalance.median());
    m.put("cluster.executor.requeues", requeues as f64);

    // Fig 2 on the two real cores: what two workers deliver of twice the
    // `Sequential` job, released on both cores. These walls need both cores
    // quiet at once, which is why they are not end-to-end metrics.
    let grid = inputs::grid_inputs(0).job;
    for (name, job, parallel) in [
        ("cluster.executor.scaling_eff", &job, jobs::cluster2 as fn(&Scenario) -> _),
        ("cluster.net.scaling_eff", &grid, jobs::tcp2),
    ] {
        let one = m.time(9, || {
            black_box(jobs::sequential(job).map(|o| o.tally.launched).ok());
        });
        let two = m.time_released(9, || {
            black_box(parallel(job).map(|o| o.tally.launched).ok());
        });
        m.put(name, one / (jobs::WORKERS as f64 * two));
    }

    // A cheap medium, so a one-photon task is all protocol: REQUEST →
    // ASSIGN → trace → COMPLETE, timed per task by a hand-rolled client.
    m.cores.confine();
    let cheap = Scenario::new(
        semi_infinite_phantom(1.0, 10.0, 0.9, 1.0),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
    .with_seed(inputs::RNG_SEED);
    let tasks = m.samples(200) as u64;
    let rtt = m.checks.op(
        "task round trips",
        task_round_trips(&cheap.clone().with_photons(tasks).with_tasks(tasks)),
    );
    m.put("cluster.net.task_rtt_us", rtt.map_or(f64::NAN, |s| s.fast3() * US));

    let served = m.checks.op("tcp2 leg", jobs::tcp2_counted(&cheap.with_photons(64).with_tasks(8)));
    let (requeues, clients) =
        served.map_or((f64::NAN, f64::NAN), |(out, n)| (out.requeues as f64, n as f64));
    m.put("cluster.net.requeues", requeues);
    m.put("cluster.net.clients_served", clients);
}

/// Serve `s` (one photon per task) to one hand-rolled client and time each
/// task's full protocol cycle.
fn task_round_trips(s: &Scenario) -> Result<Series, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let sim = s.simulation();
    std::thread::scope(|scope| {
        let client = scope.spawn(|| -> Result<Series, String> {
            let err = |e: lumen_cluster::NetError| e.to_string();
            let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            handshake(&mut stream).map_err(err)?;
            let factory = StreamFactory::new(s.seed);
            let mut cycles = Series::default();
            loop {
                let started = Instant::now();
                write_frame(&mut stream, KIND_REQUEST, &[]).map_err(err)?;
                let (kind, payload) = read_frame(&mut stream).map_err(err)?;
                if kind != KIND_ASSIGN {
                    return Ok(cycles);
                }
                let task = wire::decode_task(&payload).map_err(|e| e.to_string())?;
                let mut tally = sim.new_tally();
                sim.run_stream(task.photons, &mut factory.stream(task.task_id), &mut tally, None);
                write_frame(&mut stream, KIND_COMPLETE, &wire::encode_tally(&tally))
                    .map_err(err)?;
                cycles.push(started.elapsed().as_secs_f64());
            }
        });
        let served = serve_with_options(
            listener,
            &sim,
            s.photons,
            s.tasks,
            ServeOptions::default(),
            &NoProgress,
        );
        let cycles = client.join().map_err(|_| "task client panicked".to_string())??;
        let report = served.map_err(|e| e.to_string())?;
        if report.result.launched() == s.photons && cycles.len() as u64 == s.tasks {
            Ok(cycles)
        } else {
            Err("the one-photon tasks did not all complete once".into())
        }
    })
}

/// Echoes every frame until told to stop.
struct Echo<'a> {
    stop: &'a AtomicBool,
}

impl Handler for Echo<'_> {
    fn on_open(&mut self, _ops: &mut Ops<'_>, _token: Token) {}
    fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
        ops.send(token, kind, &payload);
    }
    fn on_close(&mut self, _ops: &mut Ops<'_>, _token: Token) {}
    fn on_tick(&mut self, _ops: &mut Ops<'_>, _now: Instant) -> Flow {
        if self.stop.load(Ordering::Relaxed) {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }
}

/// `count` echo round trips of a `size`-byte frame from each of `clients`
/// concurrent blocking clients, pooled.
fn echo_round_trips(clients: usize, size: usize, count: usize) -> Result<Series, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut events = EventLoop::new(listener).map_err(|e| e.to_string())?;
    let waker = events.waker().map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| events.run(&mut Echo { stop: &stop }));
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || -> Result<Series, String> {
                    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    let payload = vec![0x5a; size];
                    let mut rtts = Series::with_capacity(count);
                    for _ in 0..count {
                        let started = Instant::now();
                        write_frame(&mut stream, 0x42, &payload).map_err(|e| e.to_string())?;
                        let (_, back) = read_frame(&mut stream).map_err(|e| e.to_string())?;
                        rtts.push(started.elapsed().as_secs_f64());
                        if back.len() != size {
                            return Err("echo returned a different frame".into());
                        }
                    }
                    Ok(rtts)
                })
            })
            .collect();
        let per_client: Vec<Result<Series, String>> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "echo client panicked".to_string()).and_then(|r| r))
            .collect();
        stop.store(true, Ordering::Relaxed);
        waker.wake();
        server.join().map_err(|_| "echo loop panicked".to_string())?.map_err(|e| e.to_string())?;
        let mut pooled = Series::default();
        for one in per_client {
            pooled.extend(&one?);
        }
        Ok(pooled)
    })
}

fn net(m: &mut Matrix) {
    for (encode_name, decode_name, size, reps) in [
        ("net.frame.encode_ns.small", "net.frame.decode_ns.small", 64usize, 2000),
        ("net.frame.encode_ns.large", "net.frame.decode_ns.large", 1 << 20, 4),
    ] {
        let payload = vec![0x5a_u8; size];
        let mut out = Vec::with_capacity(reps * (size + 5));
        let t = m.time(15, || {
            out.clear();
            for _ in 0..reps {
                black_box(encode_frame_into(&mut out, 0x42, black_box(&payload)).is_ok());
            }
        });
        m.put(encode_name, t / reps as f64 * NS);
        let t = m.time(15, || {
            let mut decoder = FrameDecoder::new();
            decoder.extend(&out);
            let mut frames = 0;
            while let Ok(Some(frame)) = decoder.next_frame() {
                black_box(frame);
                frames += 1;
            }
            assert_eq!(frames, reps);
        });
        m.put(decode_name, t / reps as f64 * NS);
    }

    let count = m.samples(300);
    for (name, clients) in [("net.loop.echo_rtt_us.c1", 1), ("net.loop.echo_rtt_us.c2", 2)] {
        let rtts = m.checks.op(name, echo_round_trips(clients, 64, count));
        m.put(name, rtts.map_or(f64::NAN, |s| s.fast3() * US));
    }
    let size = 1 << 20;
    let rtts = m.checks.op("net.loop.echo_mb_s", echo_round_trips(1, size, m.samples(30)));
    // Bytes through the loop per second: each round trip moves the frame
    // in and out again.
    m.put("net.loop.echo_mb_s", rtts.map_or(f64::NAN, |s| 2.0 * size as f64 / s.fast3() / 1e6));
}

fn service_layers(m: &mut Matrix) {
    let layered = inputs::head_inputs(0).job;
    let voxel = inputs::voxel_inputs(0).job;
    for (name, scenario) in [
        ("service.hash.scenario_key_us.layered", &layered),
        ("service.hash.scenario_key_us.voxel", &voxel),
    ] {
        let t = m.time(15, || {
            for _ in 0..20 {
                black_box(scenario_key(black_box(scenario)));
            }
        });
        m.put(name, t / 20.0 * US);
    }

    let chunk = layered.clone().with_photons(CHUNK_PHOTONS).with_tasks(CHUNK_TASKS);
    let tally = m.checks.op("chunk run", jobs::sequential(&chunk)).map(|o| o.tally);
    let tally = tally.unwrap_or_else(|| chunk.simulation().new_tally());
    let keys: Vec<[u8; 32]> = (0..64u8).map(|i| [i; 32]).collect();
    let mut cache = ResultCache::new(usize::MAX);
    keys.iter().for_each(|k| cache.insert(*k, tally.clone(), 1, CHUNK_PHOTONS, CHUNK_TASKS));
    let t = m.time(15, || {
        for key in &keys {
            black_box(cache.get(black_box(key)).map(|e| e.chunks));
        }
    });
    m.put("service.cache.get_ns", t / keys.len() as f64 * NS);
    let t = m.time(15, || {
        for key in &keys {
            cache.insert(*key, tally.clone(), 1, CHUNK_PHOTONS, CHUNK_TASKS);
        }
    });
    m.put("service.cache.insert_us", t / keys.len() as f64 * US);

    let reply = QueryReply {
        key: scenario_key(&chunk),
        tally,
        photons_done: CHUNK_PHOTONS,
        served: Served::Warm,
    };
    let bytes = proto::encode_reply(&reply);
    let t = m.time(15, || {
        for _ in 0..100 {
            black_box(proto::encode_reply(black_box(&reply)));
        }
    });
    m.put("service.proto.encode_reply_us", t / 100.0 * US);
    let t = m.time(15, || {
        for _ in 0..100 {
            black_box(proto::decode_reply(black_box(&bytes)).is_ok());
        }
    });
    m.put("service.proto.decode_reply_us", t / 100.0 * US);

    // The in-process core: cold and top-up on fresh keys (identical work,
    // only the detector differs), each against a bare backend run of the
    // chunk it traces: chunk 0 for cold, chunk 1 (the next streams) for top-up.
    let script = inputs::service_script(0, m.samples(7), CachePlan::MINI);
    let core = SimulationService::new(service::options(&script)).map_err(|e| e.to_string());
    let Some(core) = m.checks.op("service core", core) else {
        return;
    };
    for (name, served, first_stream) in [
        ("service.core.cold_overhead_share", Served::Cold, 0),
        ("service.core.topup_overhead_share", Served::TopUp, CHUNK_TASKS),
    ] {
        let bare_chunk = chunk.clone().with_task_offset(first_stream);
        let (mut through_core, mut bare) = (Series::default(), Series::default());
        for fresh in &script.fresh[0] {
            let request = match served {
                Served::Cold => fresh.clone(),
                _ => inputs::ServiceScript::topped_up(fresh),
            };
            let started = Instant::now();
            let reply = core.query(&request).map_err(|e| e.to_string());
            through_core.push(started.elapsed().as_secs_f64());
            let reply = m.checks.op("in-process query", reply);
            m.checks.check(reply.is_some_and(|r| r.served == served), || {
                format!("in-process query was not served {}", served.as_str())
            });
            let started = Instant::now();
            black_box(jobs::sequential(&bare_chunk).map(|o| o.tally.launched).ok());
            bare.push(started.elapsed().as_secs_f64());
        }
        m.put(name, 1.0 - bare.fast3() / through_core.fast3());
    }
    let warm_key = inputs::ServiceScript::topped_up(&script.fresh[0][0]);
    let t = m.time(15, || {
        for _ in 0..100 {
            black_box(core.query(black_box(&warm_key)).map(|r| r.served).ok());
        }
    });
    m.put("service.core.warm_query_us", t / 100.0 * US);
}

/// The short daemon session: `service_mix` at a quarter of its cache plan.
fn service_session(m: &mut Matrix) {
    let rounds = CachePlan::MINI.cache_rounds + CachePlan::MINI.revisit_distance;
    let script = inputs::service_script(0, rounds, CachePlan::MINI);
    let Some(session) =
        m.checks.op("daemon session", service::run_session(&script, &SpanLog::off(), None))
    else {
        return;
    };
    let pooled = |pick: fn(&service::ClientSeries) -> &Series| session.pooled(pick);
    m.put("service.server.cold_ms", pooled(|c| &c.cold).fast3() * 1e3);
    m.put("service.server.topup_ms", pooled(|c| &c.topup).fast3() * 1e3);
    m.put("service.server.warm_us", pooled(|c| &c.warm_median).fast3() * US);
    m.put("service.server.warm_voxel_us", pooled(|c| &c.warm_voxel_median).fast3() * US);
    m.put("service.server.warm_p99_us", pooled(|c| &c.warm_all).quantile(0.99) * US);
    m.put(
        "service.server.rounds_per_s",
        inputs::CLIENTS as f64 / session.pair_wall(|c| &c.round_at).fast3(),
    );
    let stats = session.stats;
    m.put("service.stats.cold", stats.cold as f64);
    m.put("service.stats.warm", stats.warm as f64);
    m.put("service.stats.topup", stats.topup as f64);
    m.put("service.stats.chunks_traced", stats.chunks_traced as f64);
    m.put("service.stats.evictions", stats.evictions as f64);
    m.checks.absorb(session.checks);
}

/// Every per-layer metric except the `trace.*` and `host.*` ones, which
/// belong to the traced workload.
pub fn measure(scale: f64) -> (Values, Checks) {
    let mut m = Matrix {
        scale,
        values: Vec::new(),
        checks: Checks::default(),
        cores: Cores::of_this_process(MATRIX_STINT),
    };
    mcrng_and_photon(&mut m);
    tissue(&mut m);
    kernel(&mut m);
    let shapes = tallies(&mut m);
    engine(&mut m, &shapes);
    archive(&mut m);
    wire_and_datamanager(&mut m, &shapes.scalar, &shapes.grid);
    cluster_runtime(&mut m);
    net(&mut m);
    service_layers(&mut m);
    service_session(&mut m);
    m.cores.release();
    (m.values, m.checks)
}
