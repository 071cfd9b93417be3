//! `repro frontier` — the scheme-frontier comparison.
//!
//! Scores the paper's five schemes plus the onion-curve and
//! latin-hypercube newcomers against the adversarial workload suite,
//! reporting each (scheme, workload) cell's distance from the per-query
//! optimality oracle — `response - ceil(|Q|/M)`, in blocks — instead of
//! raw response time. Three artifacts:
//!
//! * `frontier` — the full cell table, one row per scheme x workload,
//!   with mean response, mean bound, mean/p95/max gap and the fraction of
//!   queries answered provably optimally.
//! * `frontier-gap` — the ranking: schemes sorted by mean gap pooled over
//!   every query of every workload, with the per-workload means alongside.
//! * `frontier-serving` — a wall-clock leg: the drifting-hotspot workload
//!   driven through the real TCP server by the open-loop load generator,
//!   with the `pargrid_frontier_gap_blocks` histogram the server exports
//!   read back off the wire.
//!
//! Two hard checks run inside: the oracle's soundness assert (every
//! measured response >= its bound, enforced by [`LowerBound::profile`]),
//! and the frontier claim itself — at least one newcomer must beat the
//! Hilbert-curve allocation on at least one adversarial workload.
//!
//! [`LowerBound::profile`]: pargrid_frontier::LowerBound::profile

use crate::{NamedTable, Params};
use pargrid_core::DeclusterMethod;
use pargrid_frontier::Adversary;
use pargrid_net::{loadgen, LoadQuery, LoadgenConfig, Server, ServerConfig};
use pargrid_obs::names;
use pargrid_parallel::{EngineConfig, ParallelGridFile};
use pargrid_sim::plot::{LineChart, Series};
use pargrid_sim::table::{fmt2, ResultTable};
use std::sync::Arc;
use std::time::Duration;

/// Disk count for the frontier comparison.
const DISKS: usize = 16;
/// The Hilbert entry the newcomers must beat somewhere hostile.
const INCUMBENT: &str = "HCAM/D";
/// Labels of the two schemes this PR introduces.
const NEWCOMERS: [&str; 2] = ["ONION/D", "LATIN/D"];

/// Runs the frontier comparison: 7 schemes x 5 workloads at 16 disks,
/// then the TCP serving leg.
pub fn run(params: &Params) -> Vec<NamedTable> {
    let methods = DeclusterMethod::frontier_set();

    let mut cells = ResultTable::new(vec![
        "scheme",
        "workload",
        "mean_resp",
        "mean_bound",
        "mean_gap",
        "p95_gap",
        "max_gap",
        "optimal_frac",
    ]);
    // Per-scheme mean gap per workload (for the ranking and the frontier
    // claim) and the pooled gap samples across every workload's queries.
    let mut mean_gaps = vec![vec![0.0f64; Adversary::ALL.len()]; methods.len()];
    let mut pooled: Vec<Vec<u64>> = vec![Vec::new(); methods.len()];

    let workload_axis = Adversary::ALL
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{i}={}", a.label()))
        .collect::<Vec<_>>()
        .join(" ");
    let mut mean_chart = LineChart::new(
        format!("Mean additive gap to the ceil(|Q|/M) oracle ({DISKS} disks)"),
        format!("workload ({workload_axis})"),
        "mean additive gap (blocks)",
    );
    let mut p95_chart = LineChart::new(
        format!("p95 additive gap to the ceil(|Q|/M) oracle ({DISKS} disks)"),
        format!("workload ({workload_axis})"),
        "p95 additive gap (blocks)",
    );
    let mut mean_series = vec![Vec::new(); methods.len()];
    let mut p95_series = vec![Vec::new(); methods.len()];

    for (wi, adv) in Adversary::ALL.iter().enumerate() {
        let s = adv.scenario(params.queries, params.seed);
        let oracle = s.oracle(DISKS);
        for (mi, method) in methods.iter().enumerate() {
            let assign = method.assign(&s.input, DISKS, params.seed);
            // profile() hard-asserts response >= bound on every query.
            let profile = oracle.profile(&s.gf, &assign, &s.workload);
            cells.push_row(vec![
                method.label(),
                adv.label().to_string(),
                fmt2(profile.mean_response()),
                fmt2(profile.mean_bound()),
                fmt2(profile.mean_gap()),
                profile.p95_gap().to_string(),
                profile.max_gap().to_string(),
                fmt2(profile.optimal_fraction()),
            ]);
            mean_gaps[mi][wi] = profile.mean_gap();
            pooled[mi].extend(profile.gaps());
            mean_series[mi].push((wi as f64, profile.mean_gap()));
            p95_series[mi].push((wi as f64, profile.p95_gap() as f64));
        }
    }
    for (mi, method) in methods.iter().enumerate() {
        mean_chart.push(Series::new(method.label(), mean_series[mi].clone()));
        p95_chart.push(Series::new(method.label(), p95_series[mi].clone()));
    }

    assert_frontier_claim(&methods, &mean_gaps);

    // Ranking: pooled mean gap over all 5 x queries samples, ascending.
    let pooled_mean = |mi: usize| pooled[mi].iter().sum::<u64>() as f64 / pooled[mi].len() as f64;
    let pooled_p95 = |mi: usize| {
        let mut g = pooled[mi].clone();
        g.sort_unstable();
        let rank = ((0.95 * g.len() as f64).ceil() as usize).clamp(1, g.len());
        g[rank - 1]
    };
    let mut order: Vec<usize> = (0..methods.len()).collect();
    order.sort_by(|&a, &b| pooled_mean(a).total_cmp(&pooled_mean(b)));

    let mut header = vec!["rank".to_string(), "scheme".to_string()];
    header.extend(Adversary::ALL.iter().map(|a| a.label().to_string()));
    header.push("mean_gap".to_string());
    header.push("p95_gap".to_string());
    let mut ranking = ResultTable::new(header);
    for (pos, &mi) in order.iter().enumerate() {
        let mut row = vec![(pos + 1).to_string(), methods[mi].label()];
        row.extend(mean_gaps[mi].iter().map(|&g| fmt2(g)));
        row.push(fmt2(pooled_mean(mi)));
        row.push(pooled_p95(mi).to_string());
        ranking.push_row(row);
    }

    let oracle = pargrid_frontier::LowerBound::new(DISKS, 2);
    vec![
        NamedTable::new(
            "frontier",
            format!(
                "Scheme frontier: additive gap to the per-query oracle, {} schemes x {} workloads, {DISKS} disks, {} queries each",
                methods.len(),
                Adversary::ALL.len(),
                params.queries
            ),
            cells,
        )
        .with_chart(mean_chart),
        NamedTable::new(
            "frontier-gap",
            format!(
                "Scheme ranking by pooled mean additive gap ({DISKS} disks; Doerr existential floor for 2-d: {})",
                fmt2(oracle.discrepancy_floor())
            ),
            ranking,
        )
        .with_chart(p95_chart),
        serving_leg(params),
    ]
}

/// The frontier claim, hard-asserted: some newcomer strictly beats the
/// Hilbert allocation's mean gap on some adversarial workload.
fn assert_frontier_claim(methods: &[DeclusterMethod], mean_gaps: &[Vec<f64>]) {
    let idx = |label: &str| {
        methods
            .iter()
            .position(|m| m.label() == label)
            .unwrap_or_else(|| panic!("{label} missing from the frontier set"))
    };
    let hcam = idx(INCUMBENT);
    let won = NEWCOMERS.iter().any(|n| {
        let mi = idx(n);
        Adversary::ALL
            .iter()
            .enumerate()
            .any(|(wi, adv)| adv.is_adversarial() && mean_gaps[mi][wi] < mean_gaps[hcam][wi])
    });
    assert!(
        won,
        "frontier claim failed: neither {NEWCOMERS:?} beat {INCUMBENT} on any \
         adversarial workload (mean gaps: {mean_gaps:?})"
    );
}

/// Wall-clock leg: the drifting-hotspot workload through the real TCP
/// server, reading the exported gap histogram back off the wire.
fn serving_leg(params: &Params) -> NamedTable {
    /// Wall time the server charges per response block.
    const PACE_US_PER_BLOCK: u64 = 100;
    const DISPATCHERS: usize = 2;
    const CLIENTS: usize = 4;
    /// Offered load, comfortably below the knee: the leg measures layout
    /// quality (sojourn + wire gap), not admission control.
    const OFFERED_QPS: f64 = 200.0;

    let point_secs = if params.queries >= 1000 { 3.0 } else { 1.0 };
    let s = Adversary::DriftingHotspot.scenario(64, params.seed);
    let queries: Vec<LoadQuery> = s
        .workload
        .queries
        .iter()
        .map(|q| LoadQuery::Range {
            lo: q.lo().coords().to_vec(),
            hi: q.hi().coords().to_vec(),
        })
        .collect();
    let gf = Arc::new(s.gf);

    let mut table = ResultTable::new(vec![
        "scheme",
        "served qps",
        "p95 sojourn (ms)",
        "wire queries",
        "wire mean gap",
    ]);
    for name in ["hcam", "onion", "latin"] {
        let method = DeclusterMethod::parse(name).expect("registry scheme");
        let assignment = method.assign(&s.input, DISKS, params.seed);
        let engine = Arc::new(ParallelGridFile::build(
            Arc::clone(&gf),
            &assignment,
            EngineConfig::default(),
        ));
        let server = Server::start(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerConfig {
                queue_capacity: 16,
                dispatchers: DISPATCHERS,
                pace_us_per_block: PACE_US_PER_BLOCK,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let addr = server.local_addr().to_string();
        let report = loadgen::run(
            &addr,
            &LoadgenConfig {
                clients: CLIENTS,
                rate_per_client: OFFERED_QPS / CLIENTS as f64,
                duration: Duration::from_secs_f64(point_secs),
                queries: queries.clone(),
            },
        )
        .expect("load generation");
        let doc = server.shutdown();
        let count = prom_value(&doc, &format!("{}_count", names::FRONTIER_GAP_BLOCKS));
        let sum = prom_value(&doc, &format!("{}_sum", names::FRONTIER_GAP_BLOCKS));
        assert!(count > 0.0, "server exported no gap samples:\n{doc}");
        table.push_row(vec![
            method.label(),
            fmt2(report.served_qps()),
            fmt2(report.sojourn_quantile_us(0.95) as f64 / 1e3),
            (count as u64).to_string(),
            fmt2(sum / count),
        ]);
    }
    NamedTable::new(
        "frontier-serving",
        format!(
            "Drifting hotspot through the TCP serving layer ({DISPATCHERS} dispatchers, \
             {CLIENTS} clients, {DISKS} disks, {OFFERED_QPS} qps offered) with the wire-exported gap histogram"
        ),
        table,
    )
}

/// Reads the value of a bare `name value` Prometheus line.
fn prom_value(doc: &str, name: &str) -> f64 {
    doc.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("no {name} in:\n{doc}"))
}
