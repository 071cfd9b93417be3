//! Harness self-test: a `--quick` pass (20k records, 1 s windows) of all four
//! workloads in both modes. Every operation must succeed, every metric must
//! be a finite number, and the names printed must be exactly the names
//! `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::PathBuf;

use pargrid_e2e::report::{compare, contract_line, write_results};
use pargrid_e2e::run::{run, RunConfig};
use pargrid_e2e::spec::{Spec, QUICK_RECORDS, WORKLOADS};
use pargrid_obs::json::{self, Json};

/// Names under `key` of `BENCHMARK.json`, read without going through `Spec`.
fn declared_names(key: &str) -> BTreeSet<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = doc.get(key).and_then(Json::as_arr).unwrap();
    list.iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_oracle_and_prints_every_declared_metric() {
    let spec = Spec::load();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let workload_names: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workload_names, declared_names("workloads"));

    for trace in [false, true] {
        let key = if trace { "per_layer" } else { "end_to_end" };
        let mut runs = Vec::new();
        for workload in &WORKLOADS {
            let spans = tmp.join(format!("selftest-spans-{}.json", workload.name));
            let cfg = RunConfig {
                workload,
                seed: 42,
                seconds: 3,
                trace,
                records: QUICK_RECORDS,
                spans_out: Some(spans.clone()),
            };
            let result =
                run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name));
            let context = format!(
                "{} trace={trace}: {:?}",
                workload.name, result.first_failure
            );
            assert_eq!(result.failed, 0, "{context}");
            assert!(result.attempted > 0, "{context}");
            for (name, (value, _)) in &result.metrics {
                assert!(value.is_finite(), "{context}: {name} = {value}");
            }
            let printed: BTreeSet<String> = result.metrics.keys().map(|k| k.to_string()).collect();
            assert_eq!(printed, declared_names(key), "{context}");

            // The contract line is one JSON object with exactly four keys.
            let line = contract_line(&spec, &cfg, &result).unwrap();
            let Json::Obj(obj) = json::parse(&line).unwrap() else {
                panic!("{context}: contract line is not an object");
            };
            let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(obj["correct"], Json::Bool(true));

            if trace {
                let text = std::fs::read_to_string(&spans).unwrap();
                let Json::Arr(written) = json::parse(&text).unwrap() else {
                    panic!("{context}: span file is not an array");
                };
                assert!(written.len() > 100, "{context}: {} spans", written.len());
                assert_eq!(result.spans_path.as_deref(), Some(spans.as_path()));
            } else {
                // End-to-end metrics are never zero.
                for (name, (value, _)) in &result.metrics {
                    assert!(*value > 0.0, "{context}: {name} = {value}");
                }
            }
            runs.push((cfg, result));
        }
        if !trace {
            // A results file compares clean against itself.
            let out = tmp.join("selftest-results.json");
            write_results(&out, &spec, &runs).unwrap();
            assert!(compare(&spec, &out, &out).unwrap());
        }
    }
}
