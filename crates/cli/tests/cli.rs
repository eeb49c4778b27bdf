//! End-to-end tests of the `lumen` binary.

use std::process::Command;

fn lumen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lumen"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = lumen().output().expect("run lumen");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn example_config_parses_back() {
    let out = lumen().arg("example-config").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tissue"));
    // The emitted example must be machine-parseable.
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("example.cfg");
    std::fs::write(&cfg_path, text.as_bytes()).unwrap();
    // A tiny photon budget keeps the round trip fast.
    let text = text.replace("photons   = 200000", "photons   = 2000");
    std::fs::write(&cfg_path, text.as_bytes()).unwrap();
    let run = lumen().arg("run").arg(&cfg_path).output().expect("run cfg");
    assert!(run.status.success(), "stderr: {}", String::from_utf8_lossy(&run.stderr));
    let report = String::from_utf8_lossy(&run.stdout);
    assert!(report.contains("== lumen run =="), "{report}");
    assert!(report.contains("energy accounted"), "{report}");
    std::fs::remove_file(&cfg_path).ok();
}

#[test]
fn hash_prints_the_pinned_cache_keys() {
    // The same two scenarios, and the same values, as
    // `lumen_service::hash`'s `key_values_are_pinned`: the shipped example
    // (layered) and its head voxelized. The budget is not key-relevant.
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let example = lumen().arg("example-config").output().expect("run");
    let layered = String::from_utf8_lossy(&example.stdout).replace("200000", "7");
    let voxel = "tissue = adult_head\ngeometry = voxelized 1 10 16\nsource = gaussian 0.5\n\
                 detector = ring 30 2\nphotons = 1000\nseed = 7\n";
    for (name, text, key) in [
        (
            "hash_layered.cfg",
            layered.as_str(),
            "d5da176f8de6fca7ddb7d22b21e4533b24d3b9639bcbc1a2399fa42deb9e5b14",
        ),
        (
            "hash_voxel.cfg",
            voxel,
            "46fbf245e3c081d5584e369458321502c977132799c72e18208d92baa4e25745",
        ),
    ] {
        let cfg_path = dir.join(name);
        std::fs::write(&cfg_path, text).unwrap();
        let out = lumen().arg("hash").arg(&cfg_path).output().expect("run hash");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), key, "{name}");
        std::fs::remove_file(&cfg_path).ok();
    }
}

#[test]
fn presets_lists_all_models() {
    let out = lumen().arg("presets").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["adult_head", "neonatal_head", "white_matter", "Scalp", "CSF"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn run_rejects_missing_file() {
    let out = lumen().arg("run").arg("/nonexistent/zzz.cfg").output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn run_reports_config_errors_with_location() {
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("broken.cfg");
    std::fs::write(&cfg_path, "tissue = white_matter\nnot a kv line\n").unwrap();
    let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
    std::fs::remove_file(&cfg_path).ok();
}

#[test]
fn invalid_values_exit_1_naming_the_field() {
    // Each value is refused by a constructor that would otherwise abort
    // the process (the numerical aperture, the phantom's optics) or by
    // `Simulation::validate` (whose cell cap keeps a huge histogram or grid
    // from aborting on allocation).
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let base = "detector = disc 3 1\nphotons = 100\n";
    for (name, extra, field) in [
        ("na_zero.cfg", "tissue = white_matter\nna = 0\n", "na"),
        ("na_nan.cfg", "tissue = white_matter\nna = nan\n", "na"),
        ("phantom_nan.cfg", "tissue = phantom nan 10 0.9 1.4\n", "mu_a"),
        ("hist_inf.cfg", "tissue = white_matter\npath_histogram = inf 10\n", "max_mm"),
        ("hist_bins.cfg", "tissue = white_matter\npath_histogram = 100 1e30\n", "path_histogram"),
        ("grid_huge.cfg", "tissue = white_matter\npath_grid = 1e7 10\n", "grid voxels"),
    ] {
        let cfg_path = dir.join(name);
        std::fs::write(&cfg_path, format!("{extra}{base}")).unwrap();
        let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
        std::fs::remove_file(&cfg_path).ok();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(field), "{name}: {err}");
        assert!(!err.contains("cannot parse"), "{name}: {err}");
    }
    // A token that does not parse, or one too many, is refused naming its
    // key: never dropped so that the run goes ahead on the rest.
    let good = [("tissue", "white_matter"), ("detector", "disc 3 1"), ("photons", "100")];
    for (key, value) in [
        ("detector", "disc 30 abc 2"),
        ("tissue", "phantom 0.01 x 10 0.9 1.4"),
        ("source", "gaussian 1 2"),
        ("geometry", "voxelized 1 x 5 4"),
        ("gate", "0 x 1000"),
        ("path_grid", "20 x 30"),
        ("path_histogram", "500 x 25"),
    ] {
        let text: String = good
            .iter()
            .filter(|(k, _)| *k != key)
            .chain([&(key, value)])
            .map(|(k, v)| format!("{k} = {v}\n"))
            .collect();
        let cfg_path = dir.join(format!("token_{key}.cfg"));
        std::fs::write(&cfg_path, text).unwrap();
        let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
        std::fs::remove_file(&cfg_path).ok();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{key} = {value}: {err}");
        assert!(err.contains(&format!("key `{key}`: cannot parse `{value}`")), "{err}");
    }
}

#[test]
fn unknown_key_is_a_named_error() {
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("typo.cfg");
    std::fs::write(
        &cfg_path,
        "tissue = white_matter\ndetector = disc 3 1\nphoton = 100\nphotons = 100\n",
    )
    .unwrap();
    let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown key `photon`"), "{err}");
    assert!(err.contains("line 3"), "{err}");
    std::fs::remove_file(&cfg_path).ok();
}

#[test]
fn backends_give_identical_physics_reports() {
    // The acceptance test end-to-end: the same config through
    // `backend = sequential`, `rayon`, and `cluster` prints identical
    // physics (only the timing line may differ).
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let base = "tissue = white_matter\ndetector = disc 3 1\nphotons = 4000\nseed = 9\ntasks = 8\n";
    let run_with = |backend: &str| {
        let cfg_path = dir.join(format!("be_{}.cfg", backend.split_whitespace().next().unwrap()));
        std::fs::write(&cfg_path, format!("{base}backend = {backend}\n")).unwrap();
        let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::remove_file(&cfg_path).ok();
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("photons/s") && !l.contains("workers:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    // The timing line (which also names the backend) and worker line are
    // filtered, so everything left is pure physics and must be identical.
    let seq = run_with("sequential");
    let rayon = run_with("rayon");
    let cluster = run_with("cluster 3");
    assert!(seq.contains("detected"), "{seq}");
    assert_eq!(seq, rayon);
    assert_eq!(seq, cluster);
}

#[test]
fn sim_backend_prints_virtual_timing() {
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("sim.cfg");
    std::fs::write(
        &cfg_path,
        "tissue = white_matter\ndetector = disc 3 1\nphotons = 1000000\nbackend = sim 60\n",
    )
    .unwrap();
    let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulated cluster"), "{text}");
    assert!(text.contains("predicted makespan"), "{text}");
    assert!(text.contains("60 simulated machine(s)"), "{text}");
    std::fs::remove_file(&cfg_path).ok();
}

#[test]
fn bad_backend_spec_is_rejected() {
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("badbe.cfg");
    std::fs::write(
        &cfg_path,
        "tissue = white_matter\ndetector = disc 3 1\nphotons = 100\nbackend = warp\n",
    )
    .unwrap();
    let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown backend"), "{err}");
    std::fs::remove_file(&cfg_path).ok();
}

#[test]
fn deterministic_across_invocations() {
    let dir = std::env::temp_dir().join("lumen_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("det.cfg");
    std::fs::write(
        &cfg_path,
        "tissue = white_matter\ndetector = disc 3 1\nphotons = 5000\nseed = 9\ntasks = 8\n",
    )
    .unwrap();
    let run = || {
        let out = lumen().arg("run").arg(&cfg_path).output().expect("run");
        assert!(out.status.success());
        // Strip the timing line, which legitimately varies.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("photons/s"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run(), run());
    std::fs::remove_file(&cfg_path).ok();
}
