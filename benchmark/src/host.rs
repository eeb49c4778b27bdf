//! What the host looked like while the numbers were taken, read from
//! `/proc`: the metadata stored beside every result and the process's own
//! peak memory.

use crate::json::Json;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| rest.trim_start().trim_start_matches(':').trim().to_string())
}

/// `VmHWM` of this process in MiB: the most memory it ever held resident.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Cumulative steal ticks of all CPUs (`/proc/stat`, 8th value of `cpu`):
/// time the hypervisor ran someone else while this guest wanted to run.
pub fn steal_ticks() -> u64 {
    proc_field("/proc/stat", "cpu ")
        .and_then(|v| v.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// The checked-out commit, when the benchmark runs inside a git work tree
/// (the driver's checkouts are not one).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or(head.clone(), |hash| hash.trim().to_string()),
        None => head,
    }
}

pub fn metadata(steal_delta: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::object([
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "load_average",
            Json::str(std::fs::read_to_string("/proc/loadavg").unwrap_or_default().trim()),
        ),
        ("steal_tick_delta", Json::Num(steal_delta as f64)),
        ("rustc", Json::str(rustc_version())),
        ("git_commit", Json::str(git_commit())),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// Turn-taking over the cores for everything that is timed on one core.
///
/// Each core of this host drops, on its own, into a slow state for up to
/// minutes at a time (see README.md), and a series that needs both cores to
/// be fast at once, or that Linux leaves on the one slow core, reports the
/// slow state. So the whole process — every thread it has, and through
/// inheritance every thread those spawn — is confined to one core at a time,
/// the cores taking turns, and `fast3` then reports the faster core. Only a
/// job whose point is the wall time on two cores runs released.
pub struct Cores {
    allowed: CpuSet,
    cpus: Vec<usize>,
    turns: usize,
    /// Consecutive turns a core keeps, so that a series pays for a migration
    /// (cold caches) in one sample out of this many.
    stint: usize,
}

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; the kernel writes at most
    // `size_of::<CpuSet>()` bytes into `set`, which is exactly that large.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Move every thread of this process onto `set`.
#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return };
    for tid in tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `set`,
        // which is exactly that large. A refusal (a restricted container, a
        // thread that has just ended) leaves the thread where it was, which
        // is the behaviour without confinement.
        let _ = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
fn get_affinity() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_set: &CpuSet) {}

impl Cores {
    /// The cores the process may run on (as the calling thread sees them),
    /// each keeping its turn for `stint` confinements.
    pub fn of_this_process(stint: usize) -> Self {
        let allowed = get_affinity().unwrap_or([0; 16]);
        let cpus = (0..allowed.len() * 64)
            .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        Self { allowed, cpus, turns: 0, stint: stint.max(1) }
    }

    /// Confine every thread of the process to the core whose turn it is.
    pub fn confine(&mut self) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[self.turns / self.stint % self.cpus.len()];
        self.turns += 1;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one);
    }

    /// Give every thread of the process all its cores back.
    pub fn release(&self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.allowed);
        }
    }
}
