//! Command line of `pargrid-e2e`; see `README.md` beside this package.

use std::path::PathBuf;
use std::process::ExitCode;

use pargrid_e2e::report::{compare, contract_line, print_human, write_results};
use pargrid_e2e::run::{run, RunConfig};
use pargrid_e2e::spec::{workload, Spec, Workload, QUICK_RECORDS, RECORDS, WORKLOADS};

const USAGE: &str = "\
usage: pargrid-e2e run --workload <point|scan|mixed-rw|cluster|all> [--seed N] [--seconds S]
                       [--trace 0|1] [--quick] [--out FILE] [--spans FILE]
       pargrid-e2e compare A.json B.json

run      measures one workload (or all four) and prints every metric BENCHMARK.json declares
         for the mode: end-to-end metrics with --trace 0 (default), per-layer metrics with
         --trace 1. The last line of standard output is one JSON object. Exits non-zero when
         any operation failed or any answer disagreed with the oracle.
         --seed     dataset, query and write-stream seed (default 42)
         --seconds  seconds the closed-loop windows measure (default: run_seconds)
         --quick    20k records instead of 400k (self-test size; not comparable)
         --out      also write the results, with provenance, for `compare`
         --spans    where a traced run writes its spans (default: beside the executable)
compare  prints one row per workload and end-to-end metric of two --out files and exits
         non-zero when a row is outside its bound or the hosts are not comparable";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 42,
        seconds: spec.run_seconds,
        trace: false,
        quick: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = match name.as_str() {
                    "all" => WORKLOADS.iter().collect(),
                    _ => vec![workload(name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--spans" => parsed.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    if parsed.spans.is_some() && parsed.workloads.len() > 1 {
        return Err("--spans names one file; run one workload".to_string());
    }
    Ok(parsed)
}

fn run_command(args: &[String], spec: &Spec) -> Result<bool, String> {
    let args = parse_run(args, spec)?;
    let mut runs = Vec::new();
    for w in &args.workloads {
        let cfg = RunConfig {
            workload: w,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            records: if args.quick { QUICK_RECORDS } else { RECORDS },
            spans_out: args.spans.clone(),
        };
        let result = run(&cfg)?;
        print_human(spec, &cfg, &result)?;
        println!("{}", contract_line(spec, &cfg, &result)?);
        runs.push((cfg, result));
    }
    if let Some(path) = &args.out {
        write_results(path, spec, &runs)?;
    }
    Ok(runs.iter().all(|(_, r)| r.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest, &spec),
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare(&spec, &PathBuf::from(a), &PathBuf::from(b))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(what) => {
            eprintln!("pargrid-e2e: {what}");
            ExitCode::from(2)
        }
    }
}
