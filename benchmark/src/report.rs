//! Printing a run, writing it to a file with its provenance, and comparing
//! two such files against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use pargrid_obs::json::{self, escape, Json};

use crate::run::{RunConfig, RunResult};
use crate::spec::{self, MetricDecl, Spec};

/// `client.window_spread` above which a run prints a loud warning.
const SPREAD_WARNING: f64 = 0.10;
/// Stolen-CPU share of the windows a result was read from above which a run
/// prints a loud warning.
const STEAL_WARNING: f64 = 0.05;

/// The declared metrics of the run's mode with their measured values, in
/// declaration order.
///
/// Fails when a declared metric was not measured or is not a finite number:
/// the names printed are exactly the names declared.
fn declared<'a>(
    spec: &'a Spec,
    cfg: &RunConfig,
    result: &RunResult,
) -> Result<Vec<(&'a MetricDecl, f64, u64)>, String> {
    let decls = spec.metrics(cfg.trace);
    if result.metrics.len() != decls.len() {
        return Err(format!(
            "measured {} metrics, BENCHMARK.json declares {}",
            result.metrics.len(),
            decls.len()
        ));
    }
    decls
        .iter()
        .map(|d| match result.metrics.get(d.name.as_str()) {
            Some(&(value, samples)) if value.is_finite() => Ok((d, value, samples)),
            Some(&(value, _)) => Err(format!("metric {} is {value}", d.name)),
            None => Err(format!("metric {} was not measured", d.name)),
        })
        .collect()
}

/// The one-line JSON object the benchmark contract asks for as the last line
/// of standard output.
pub fn contract_line(spec: &Spec, cfg: &RunConfig, result: &RunResult) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.failed == 0,
        result.attempted,
        result.failed
    );
    for (i, (d, value, _)) in declared(spec, cfg, result)?.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Prints the run for a reader: provenance, every metric by name with its
/// unit and sample count, failures, and the noise warning.
pub fn print_human(spec: &Spec, cfg: &RunConfig, result: &RunResult) -> Result<(), String> {
    let p = &result.provenance;
    println!(
        "# pargrid-e2e workload={} seed={} seconds={} trace={} records={}",
        cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.records
    );
    println!(
        "# host.nproc={} scratch_fs={} commit={} rustc=\"{}\"",
        p.nproc, p.scratch_fs, p.commit, p.rustc
    );
    println!("# pinned: {}", pinned_json());
    for (d, value, samples) in declared(spec, cfg, result)? {
        println!("{:<30} {:>16.4} {:<6} n={samples}", d.name, value, d.unit);
    }
    println!(
        "# attempted={} failed={} failed_frac={} torn_reads={}",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64,
        result.torn_reads
    );
    if let Some(what) = &result.first_failure {
        println!("# FIRST FAILURE: {what}");
    }
    if let Some(path) = &result.spans_path {
        println!("# spans written to {}", path.display());
    }
    let noise = &result.noise;
    println!(
        "# noise: window_spread={:.3} host.steal_frac={:.3} steal of the windows read={:.3}",
        noise.window_spread, noise.steal_frac, noise.quiet_steal
    );
    if noise.window_spread > SPREAD_WARNING {
        println!(
            "# WARNING: NOISY RUN — client.window_spread = {:.3} > {SPREAD_WARNING}: the windows disagree",
            noise.window_spread
        );
    }
    if noise.quiet_steal > STEAL_WARNING {
        println!(
            "# WARNING: DISTURBED RUN — the hypervisor withheld {:.0} % of the CPU even in the quietest \
             windows; do not compare this run",
            noise.quiet_steal * 100.0
        );
    }
    Ok(())
}

/// The pinned constants of the system under test, as a JSON object.
fn pinned_json() -> String {
    format!(
        "{{\"records\": {}, \"disks\": {}, \"clients\": {}, \"dispatchers\": {}, \"queue_capacity\": {}, \
         \"templates\": {}, \"cluster_workers\": {}, \"setups\": {}, \"windows\": {}, \
         \"quiet_windows\": {}, \
         \"method\": \"minimax/proximity\", \"pace_us_per_block\": 0}}",
        spec::RECORDS,
        spec::DISKS,
        spec::CLIENTS,
        spec::DISPATCHERS,
        spec::QUEUE_CAPACITY,
        spec::TEMPLATES,
        spec::CLUSTER_WORKERS,
        spec::SETUPS,
        spec::WINDOWS,
        spec::QUIET_WINDOWS
    )
}

/// Writes the runs of one invocation (one per workload) to `path`, with the
/// provenance `compare` needs.
pub fn write_results(
    path: &Path,
    spec: &Spec,
    runs: &[(RunConfig, RunResult)],
) -> Result<(), String> {
    let (cfg, first) = runs.first().ok_or("no runs to write")?;
    let p = &first.provenance;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"host\": {{\"nproc\": {}, \"scratch_fs\": \"{}\", \"commit\": \"{}\", \"rustc\": \"{}\"}},\n  \
         \"pinned\": {},\n  \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"records\": {},\n  \"runs\": {{",
        p.nproc,
        escape(&p.scratch_fs),
        escape(&p.commit),
        escape(&p.rustc),
        pinned_json(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.records
    );
    for (i, (cfg, result)) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"window_spread\": {}, \
             \"steal_frac\": {}, \"metrics\": {{",
            cfg.workload.name,
            result.failed == 0,
            result.attempted,
            result.failed,
            result.noise.window_spread,
            result.noise.steal_frac
        );
        for (j, (d, value, samples)) in declared(spec, cfg, result)?.into_iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n      \"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"samples\": {samples}}}",
                d.name, d.unit
            );
        }
        out.push_str("\n    }}");
    }
    out.push_str("\n  }\n}\n");
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// A results file, as far as `compare` reads it.
struct Results {
    nproc: f64,
    scratch_fs: String,
    /// workload → metric → value
    runs: BTreeMap<String, BTreeMap<String, f64>>,
}

fn read_results(path: &Path) -> Result<Results, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let malformed = || format!("{}: not a pargrid-e2e results file", path.display());
    let host = doc.get("host").ok_or_else(malformed)?;
    let Some(Json::Obj(runs)) = doc.get("runs") else {
        return Err(malformed());
    };
    let runs = runs
        .iter()
        .map(|(workload, run)| {
            let Some(Json::Obj(metrics)) = run.get("metrics") else {
                return Err(malformed());
            };
            let values = metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
                .collect();
            Ok((workload.clone(), values))
        })
        .collect::<Result<_, String>>()?;
    Ok(Results {
        nproc: host
            .get("nproc")
            .and_then(Json::as_num)
            .ok_or_else(malformed)?,
        scratch_fs: host
            .get("scratch_fs")
            .and_then(Json::as_str)
            .ok_or_else(malformed)?
            .to_string(),
        runs,
    })
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
pub fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if decl.higher_is_better {
        -change
    } else {
        change
    }
}

/// Prints one row per (workload, end-to-end metric) of two results files —
/// both values, the relative change, the bound — and returns whether every
/// row is within its bound and the hosts are comparable.
pub fn compare(spec: &Spec, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    let mut ok = true;
    if a.nproc != b.nproc || a.scratch_fs != b.scratch_fs {
        println!(
            "NOT COMPARABLE: host.nproc {} vs {}, scratch_fs {} vs {}",
            a.nproc, b.nproc, a.scratch_fs, b.scratch_fs
        );
        ok = false;
    }
    println!(
        "{:<10} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut rows = 0;
    for workload in &spec.workloads {
        let (Some(ra), Some(rb)) = (a.runs.get(workload), b.runs.get(workload)) else {
            continue;
        };
        for d in &spec.end_to_end {
            let (Some(&va), Some(&vb)) = (ra.get(&d.name), rb.get(&d.name)) else {
                continue;
            };
            let bound = d.bound.unwrap_or(0.0);
            let worse = worsening(d, va, vb);
            let within = worse <= bound;
            ok &= within;
            rows += 1;
            println!(
                "{workload:<10} {:<14} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%  {}",
                d.name,
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUTSIDE BOUND" }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        let lower = MetricDecl {
            name: "p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let higher = MetricDecl {
            higher_is_better: true,
            ..lower.clone()
        };
        assert!((worsening(&lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(&lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
    }
}
