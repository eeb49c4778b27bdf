//! Print one of the paper's artefacts: `artefact <name> [budget]`.
//!
//! The budget is a photon count; each artefact has its own default, and
//! those that trace no photons ignore it. The two path-density figures
//! also write their full-resolution field to `<name>.pgm` in the working
//! directory. With no name, an unknown name, or a budget that is unreadable
//! or below [`MIN_BUDGET`], the names are listed on stderr and the exit
//! status is 2.
//!
//! Run: `cargo run --release -p lumen-bench --bin artefact -- fig3_banana 20000`

use lumen_analysis::write_pgm;
use lumen_bench::artefacts::{Artefact, Output, ALL, MIN_BUDGET};
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &String| ALL.iter().find(|a| a.name == name);
    let chosen = match args.as_slice() {
        [name] => find(name).map(|a| (a, a.default_budget)),
        [name, budget] => find(name).zip(budget.parse().ok().filter(|&b| b >= MIN_BUDGET)),
        _ => None,
    };
    let Some((artefact, budget)) = chosen else {
        return usage();
    };

    let Output { mut text, image } = (artefact.run)(budget);
    if let Some(field) = image {
        let file = format!("{}.pgm", artefact.name);
        match write_pgm(&field, Path::new(&file)) {
            Ok(()) => text.push_str(&format!("\nfull-resolution field written to {file}\n")),
            Err(e) => eprintln!("artefact: could not write {file}: {e}"),
        }
    }

    // One write: a reader that closes the pipe early (`| head`) ends the
    // run, it is not an error.
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("artefact: writing stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: artefact <name> [budget >= {MIN_BUDGET}]\n\n{:<26} default budget", "name");
    for Artefact { name, default_budget, .. } in ALL {
        eprintln!("{name:<26} {default_budget}");
    }
    ExitCode::from(2)
}
