//! Hostile-environment resilience sweep: fault intensity versus response
//! time and answer completeness, replicated versus unreplicated.
//!
//! Each cell runs the same workload under a seeded chaos schedule
//! ([`pargrid_parallel::FaultPlan::chaos`]) of increasing intensity (number
//! of injected fault events: message drops/duplicates/delays/reorders,
//! block corruption, straggler disks, poisons, one fail-stop). The
//! replicated engine's full defense stack is armed — retransmits, checksum
//! scrub-repair, hedged reads, a real-time deadline — and every outcome is
//! checked against a fault-free oracle: an answer either holds exactly its
//! records (complete) or is explicitly flagged incomplete. The
//! *completeness* column is the paper-style headline: with chained
//! replication the answer stays exact under the whole schedule, while the
//! unreplicated layout can only confess what it lost.

use crate::{NamedTable, Params};
use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_parallel::merge::same_records;
use pargrid_parallel::{EngineConfig, FaultPlan, ParallelGridFile, QueryOutcome};
use pargrid_sim::plot::{LineChart, Series};
use pargrid_sim::table::{fmt2, ResultTable};
use pargrid_sim::QueryWorkload;
use std::sync::Arc;

const WORKERS: usize = 16;
const WINDOW: usize = 8;
/// Injected fault events per schedule (0 = healthy baseline; 24 is the
/// chaos soak's default intensity).
const INTENSITIES: [usize; 5] = [0, 8, 16, 24, 48];

/// Runs the fault-intensity sweep, replicated and unreplicated.
pub fn run(params: &Params) -> Vec<NamedTable> {
    let ds = pargrid_datagen::hot2d(params.seed);
    let gf = Arc::new(ds.build_grid_file());
    let input = DeclusterInput::from_grid_file(&gf);
    let method = DeclusterMethod::Minimax(EdgeWeight::Proximity);
    let workload = QueryWorkload::square(&ds.domain, 0.05, params.queries, params.seed);

    // Fault-free truth for the completeness check.
    let oracle: Vec<QueryOutcome> = {
        let a = method.assign(&input, WORKERS, params.seed);
        let engine = ParallelGridFile::build(Arc::clone(&gf), &a, EngineConfig::default());
        workload.queries.iter().map(|q| engine.query(q)).collect()
    };

    let mut table = ResultTable::new(vec![
        "layout",
        "fault events",
        "queries",
        "complete",
        "completeness %",
        "mean response (ms)",
        "retries",
        "retransmits",
        "hedges",
        "scrubbed blocks",
        "deadline expired",
        "live workers",
    ]);
    let mut completeness_chart = LineChart::new(
        "Answer completeness vs fault intensity (16 workers, hot.2d, r = 0.05)",
        "injected fault events",
        "complete-and-exact answers (%)",
    );
    let mut resp_chart = LineChart::new(
        "Response time vs fault intensity (16 workers, hot.2d, r = 0.05)",
        "injected fault events",
        "mean response time (ms)",
    );
    let mut resp_table = ResultTable::new(vec!["layout", "fault events", "mean response (ms)"]);

    for replicated in [true, false] {
        let layout = if replicated {
            "replicated"
        } else {
            "unreplicated"
        };
        let mut comp_points = Vec::new();
        let mut resp_points = Vec::new();
        for &events in &INTENSITIES {
            // Fresh engine per cell: cold caches, fresh fault schedule. The
            // short failure-detection timeout and the 2 s deadline are real
            // time; every reported response time is virtual.
            let faults = FaultPlan::chaos(
                params.seed ^ events as u64,
                WORKERS,
                params.queries as u64,
                events,
            );
            let config = EngineConfig::default()
                .resilience(|r| r.with_fail_timeout_ms(15).with_faults(faults))
                .latency(|l| l.with_deadline_us(2_000_000).with_hedging(3.0));
            let engine = if replicated {
                let ra = method.assign_replicated(&input, WORKERS, params.seed);
                ParallelGridFile::build_replicated(Arc::clone(&gf), &ra, config)
            } else {
                let a = method.assign(&input, WORKERS, params.seed);
                ParallelGridFile::build(Arc::clone(&gf), &a, config)
            };
            let (outcomes, tp) = engine.run_workload_concurrent(&workload, WINDOW);
            let complete = outcomes
                .iter()
                .zip(&oracle)
                .filter(|(o, t)| !o.incomplete && same_records(&o.records, &t.records))
                .count();
            // The safety contract behind the completeness column: an
            // answer the engine did not flag holds the oracle's records.
            // Loss is allowed only when confessed.
            let silent = outcomes
                .iter()
                .zip(&oracle)
                .filter(|(o, t)| !o.incomplete && !same_records(&o.records, &t.records))
                .count();
            assert_eq!(
                silent, 0,
                "{layout}/{events}: silent divergence under faults"
            );
            let completeness = complete as f64 * 100.0 / outcomes.len().max(1) as f64;
            let mean_resp_ms = outcomes.iter().map(|o| o.elapsed_us).sum::<u64>() as f64
                / outcomes.len().max(1) as f64
                / 1e3;
            let stats = engine.stats();
            table.push_row(vec![
                layout.to_string(),
                events.to_string(),
                tp.queries.to_string(),
                complete.to_string(),
                fmt2(completeness),
                fmt2(mean_resp_ms),
                tp.retries.to_string(),
                tp.retransmits.to_string(),
                tp.hedges.to_string(),
                tp.scrubbed.to_string(),
                stats.deadline_expired.to_string(),
                stats.live_workers().to_string(),
            ]);
            resp_table.push_row(vec![
                layout.to_string(),
                events.to_string(),
                fmt2(mean_resp_ms),
            ]);
            comp_points.push((events as f64, completeness));
            resp_points.push((events as f64, mean_resp_ms));
        }
        completeness_chart.push(Series::new(layout, comp_points));
        resp_chart.push(Series::new(layout, resp_points));
    }

    vec![
        NamedTable::new(
            "resilience",
            format!(
                "Hostile-environment resilience: fault-intensity sweep ({} queries, r = 0.05, {})",
                params.queries, ds.name
            ),
            table,
        )
        .with_chart(completeness_chart),
        NamedTable::new(
            "resilience-response",
            "Response time versus fault intensity".to_string(),
            resp_table,
        )
        .with_chart(resp_chart),
    ]
}
