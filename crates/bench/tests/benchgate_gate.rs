//! End-to-end tests for the `benchgate` binary's baseline handling
//! (bugfix satellite): an unseeded trajectory — missing, zero-length, or
//! naming no benchmarks — must seed itself from the candidate and exit 0
//! with an actionable message, while corruption and real regressions keep
//! failing loudly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn doc(rows: &[(&str, f64)]) -> String {
    let benches: Vec<String> = rows
        .iter()
        .map(|(name, p50)| {
            format!(
                "{{\"name\": \"{name}\", \"mean_ns\": {p50}, \"p50_ns\": {p50}, \"samples\": 50}}"
            )
        })
        .collect();
    format!(
        "{{\"schema_version\": 1, \"suite\": \"hotpath\", \"benchmarks\": [{}]}}",
        benches.join(", ")
    )
}

/// A test's scratch directory, removed when the test ends, passing or
/// panicking.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fresh scratch directory per test (parallel test threads share a tmpdir).
fn scratch(name: &str) -> Scratch {
    let d = std::env::temp_dir().join(format!("pargrid-benchgate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    Scratch(d)
}

fn run_gate(baseline: &Path, candidate: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchgate"))
        .arg(baseline)
        .arg(candidate)
        .output()
        .expect("spawn benchgate")
}

fn assert_seeded(dir: &Path, out: &Output) {
    let baseline = dir.join("baseline.json");
    let candidate = dir.join("candidate.json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "seeding must exit 0, got {:?}\nstdout: {stdout}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("seeding it from"),
        "must print the seeding notice, got: {stdout}"
    );
    assert!(
        stdout.contains("commit"),
        "message must say what to do next, got: {stdout}"
    );
    assert_eq!(
        std::fs::read_to_string(&baseline).expect("seed written"),
        std::fs::read_to_string(&candidate).unwrap(),
        "seed must be a byte copy of the candidate"
    );
}

#[test]
fn missing_baseline_seeds_from_candidate() {
    let dir = scratch("missing");
    let baseline = dir.join("baseline.json");
    let candidate = dir.join("candidate.json");
    std::fs::write(&candidate, doc(&[("dispatch/channel", 100.0)])).unwrap();
    let out = run_gate(&baseline, &candidate);
    assert_seeded(&dir, &out);

    // Second run gates against the freshly seeded file and passes.
    let out = run_gate(&baseline, &candidate);
    assert!(out.status.success(), "re-run against the seed must pass");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("within"),
        "re-run must actually gate, not re-seed"
    );
}

#[test]
fn zero_length_baseline_seeds_from_candidate() {
    let dir = scratch("empty-file");
    let baseline = dir.join("baseline.json");
    let candidate = dir.join("candidate.json");
    std::fs::write(&baseline, "").unwrap();
    std::fs::write(&candidate, doc(&[("dispatch/channel", 100.0)])).unwrap();
    assert_seeded(&dir, &run_gate(&baseline, &candidate));
}

#[test]
fn empty_benchmarks_array_seeds_from_candidate() {
    let dir = scratch("empty-array");
    let baseline = dir.join("baseline.json");
    let candidate = dir.join("candidate.json");
    std::fs::write(&baseline, doc(&[])).unwrap();
    std::fs::write(&candidate, doc(&[("dispatch/channel", 100.0)])).unwrap();
    assert_seeded(&dir, &run_gate(&baseline, &candidate));
}

#[test]
fn corrupt_baseline_is_not_overwritten() {
    let dir = scratch("corrupt");
    let baseline = dir.join("baseline.json");
    let candidate = dir.join("candidate.json");
    std::fs::write(&baseline, "{\"schema_version\": 1, truncated garba").unwrap();
    std::fs::write(&candidate, doc(&[("dispatch/channel", 100.0)])).unwrap();
    let out = run_gate(&baseline, &candidate);
    assert_eq!(out.status.code(), Some(2), "corruption must exit 2");
    assert_eq!(
        std::fs::read_to_string(&baseline).unwrap(),
        "{\"schema_version\": 1, truncated garba",
        "a corrupt baseline must never be silently replaced"
    );
}

#[test]
fn empty_candidate_never_seeds_the_baseline() {
    let dir = scratch("empty-candidate");
    let baseline = dir.join("baseline.json");
    let candidate = dir.join("candidate.json");
    std::fs::write(&candidate, doc(&[])).unwrap();
    let out = run_gate(&baseline, &candidate);
    assert_eq!(out.status.code(), Some(2), "empty candidate must exit 2");
    assert!(!baseline.exists(), "no seed may be written from nothing");
}

#[test]
fn populated_baseline_still_gates_regressions() {
    let dir = scratch("regress");
    let baseline = dir.join("baseline.json");
    let candidate = dir.join("candidate.json");
    std::fs::write(&baseline, doc(&[("dispatch/channel", 100.0)])).unwrap();
    std::fs::write(&candidate, doc(&[("dispatch/channel", 150.0)])).unwrap();
    let out = run_gate(&baseline, &candidate);
    assert_eq!(out.status.code(), Some(1), "a 50% regression must fail");
}
