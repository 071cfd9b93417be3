//! What the harness reads from the host: `/proc` counters for the
//! per-operation CPU and context-switch costs, the scratch directory and its
//! file system, and the provenance every result carries.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sums one number per thread of this process over `/proc/self/task/*`.
fn sum_over_tasks(file: &str, pick: impl Fn(&str) -> u64) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join(file)).ok())
        .map(|text| pick(&text))
        .sum()
}

/// A `/proc` counter snapshot of this process, client threads included.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnapshot {
    /// Nanoseconds on a CPU, over all live threads (`schedstat`).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches, over all live threads.
    pub ctx_switches: u64,
}

impl ProcSnapshot {
    /// Reads the counters now. Threads that have exited are not counted, so
    /// take both ends of a delta while the same threads are alive.
    pub fn now() -> ProcSnapshot {
        ProcSnapshot {
            cpu_ns: sum_over_tasks("schedstat", |text| {
                let first = text.split_whitespace().next();
                first.and_then(|v| v.parse().ok()).unwrap_or(0)
            }),
            ctx_switches: sum_over_tasks("status", |text| {
                text.lines()
                    .filter(|l| l.contains("ctxt_switches"))
                    .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                    .sum()
            }),
        }
    }
}

/// Share of the host's CPU time the hypervisor withheld from this guest
/// (`steal` of `/proc/stat`) in each of `n` back-to-back intervals starting
/// now. Blocks for `n × interval`; run it on a thread of its own beside the
/// load it is to judge.
pub fn sample_steal(interval: Duration, n: usize) -> Vec<f64> {
    // (steal, all) jiffies since boot, summed over CPUs.
    let read = || -> (u64, u64) {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
    };
    let start = Instant::now();
    let mut last = read();
    (1..=n as u32)
        .map(|k| {
            std::thread::sleep((start + interval * k).saturating_duration_since(Instant::now()));
            let now = read();
            let (steal, all) = (now.0 - last.0, now.1 - last.1);
            last = now;
            steal as f64 / all.max(1) as f64
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// File-system type of the mount that holds `path` (`/proc/self/mountinfo`,
/// longest mount point that prefixes the path).
pub fn fs_kind(path: &Path) -> String {
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in info.lines() {
        // "... <mount point> <options> [optional fields] - <fs type> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(kind)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), kind));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

/// The run's scratch directory for spill files and the WAL, removed on drop.
///
/// It sits beside the executable, that is inside the cargo target directory:
/// the benchmark contract allows no write outside the checkout, and the
/// target directory is the one place in it that git ignores already. Results
/// from scratch directories on different file systems are not comparable —
/// every acknowledged mutation is an `fdatasync` there.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<dir of the executable>/e2e-scratch-<pid>-<n>`; `n` keeps
    /// the directories of one process (parallel tests) apart.
    pub fn create() -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let parent = exe.parent().unwrap_or(Path::new("."));
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("e2e-scratch-{}-{n}", std::process::id()));
        // A previous process with this pid may have been killed mid-run.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// First line a command prints, or `unknown` when it cannot run here (the
/// driver's checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a result was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// File system of the scratch directory.
    pub scratch_fs: String,
    /// `git rev-parse HEAD`.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Provenance {
    /// Collects the provenance of this process.
    pub fn collect(scratch: &Path) -> Provenance {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            scratch_fs: fs_kind(scratch),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["-V"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_advance() {
        let before = ProcSnapshot::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::thread::yield_now();
        let after = ProcSnapshot::now();
        assert!(after.cpu_ns > before.cpu_ns);
        assert!(after.ctx_switches >= before.ctx_switches);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn scratch_is_created_named_and_removed() {
        let path = {
            let s = Scratch::create().unwrap();
            assert!(s.path().is_dir());
            assert_ne!(fs_kind(s.path()), "unknown");
            s.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
