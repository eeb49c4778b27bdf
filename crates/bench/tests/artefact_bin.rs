//! The `artefact` binary's surface: usage errors, a closed stdout, and the
//! bytes it prints.

use lumen_bench::artefacts::ALL;
use lumen_core::sha256;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A fresh working directory, so no `.pgm` lands in the source tree.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("artefact-bin-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn artefact(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_artefact")).args(args).output().expect("spawn artefact")
}

#[test]
fn usage_errors_exit_2_and_list_every_name() {
    let cases: [&[&str]; 4] =
        [&[], &["no_such_artefact"], &["table1_properties", "many"], &["convergence_study", "255"]];
    for args in cases {
        let out = artefact(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for a in ALL {
            assert!(stderr.contains(a.name), "{args:?}: {} missing from\n{stderr}", a.name);
        }
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn table1_stdout_is_byte_identical() {
    let out = artefact(&["table1_properties"]);
    assert!(out.status.success());
    assert_eq!(
        sha256::hex(&out.stdout),
        "822ba5ccbb762b79334c3f88bd4a9c8512771dc1c0038dea2fb65b6080763b23"
    );
}

#[test]
fn a_closed_stdout_ends_the_run_cleanly() {
    let dir = scratch_dir("pipe");
    let mut child = Command::new(env!("CARGO_BIN_EXE_artefact"))
        .args(["fig3_banana", "500"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn artefact");
    drop(child.stdout.take());
    let status = child.wait().expect("wait for artefact");
    std::fs::remove_dir_all(&dir).ok();
    // A panic on the broken pipe exits 101, or dies by SIGABRT (no exit
    // code) in a `panic = "abort"` release build.
    assert_eq!(status.code(), Some(0), "{status:?}");
}
