//! End-to-end degraded-mode acceptance tests: a 16-worker replicated engine
//! with injected worker failures must return the same answer sets as a
//! healthy unreplicated engine, without panicking any session, while the
//! engine's liveness and failover counters tell the story.

use crossbeam::channel::unbounded;
use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_datagen::hot2d;
use pargrid_gridfile::GridFile;
use pargrid_parallel::merge::same_records;
use pargrid_parallel::stats::WorkerCounters;
use pargrid_parallel::worker::WorkerState;
use pargrid_parallel::{
    EngineConfig, FaultPlan, InProcessBackend, ParallelGridFile, QueryOutcome, SlotHandle,
    ToWorker, WorkerBackend,
};
use pargrid_sim::QueryWorkload;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WORKERS: usize = 16;

fn grid() -> Arc<GridFile> {
    Arc::new(hot2d(4242).build_grid_file())
}

fn workload(gf: &GridFile) -> QueryWorkload {
    QueryWorkload::square(&gf.config().domain, 0.05, 24, 99)
}

/// Short failure-detection timeout: virtual time is unaffected, only the
/// real-time wait on a dead worker's reply.
fn cfg(faults: FaultPlan) -> EngineConfig {
    EngineConfig::default().resilience(|r| r.with_fail_timeout_ms(25).with_faults(faults))
}

fn healthy_engine(gf: &Arc<GridFile>) -> ParallelGridFile {
    let input = DeclusterInput::from_grid_file(gf);
    let a = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, WORKERS, 5);
    ParallelGridFile::build(Arc::clone(gf), &a, EngineConfig::default())
}

fn replicated_engine(gf: &Arc<GridFile>, faults: FaultPlan) -> ParallelGridFile {
    let input = DeclusterInput::from_grid_file(gf);
    let ra = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, WORKERS, 5);
    ParallelGridFile::build_replicated(Arc::clone(gf), &ra, cfg(faults))
}

fn assert_identical_answers(healthy: &[QueryOutcome], degraded: &[QueryOutcome]) {
    assert_eq!(healthy.len(), degraded.len());
    for (i, (h, d)) in healthy.iter().zip(degraded).enumerate() {
        assert!(
            same_records(&h.records, &d.records),
            "query {i}: degraded answers must hold the same records"
        );
        assert!(!d.incomplete, "query {i} reported incomplete");
    }
}

#[test]
fn one_failed_worker_of_sixteen_is_invisible_to_answers() {
    let gf = grid();
    let w = workload(&gf);
    let healthy = healthy_engine(&gf);
    let healthy_out: Vec<QueryOutcome> = w.queries.iter().map(|q| healthy.query(q)).collect();

    let degraded = replicated_engine(&gf, FaultPlan::kill_first(1));
    let degraded_out: Vec<QueryOutcome> = w.queries.iter().map(|q| degraded.query(q)).collect();

    assert_identical_answers(&healthy_out, &degraded_out);
    let stats = degraded.stats();
    assert_eq!(stats.live_workers(), WORKERS - 1);
    assert!(!stats.workers[0].alive);
    assert!(
        stats.failed_over_blocks > 0,
        "replica copies were never read"
    );
    // Once the death is known, later queries plan around it without retries.
    assert!(
        degraded_out.last().expect("queries ran").retries == 0,
        "planning should skip a known-dead worker"
    );
}

#[test]
fn two_failed_workers_of_sixteen_still_answer_exactly() {
    let gf = grid();
    let w = workload(&gf);
    let healthy = healthy_engine(&gf);
    let healthy_out: Vec<QueryOutcome> = w.queries.iter().map(|q| healthy.query(q)).collect();

    let degraded = replicated_engine(&gf, FaultPlan::kill_first(2));
    let degraded_out: Vec<QueryOutcome> = w.queries.iter().map(|q| degraded.query(q)).collect();

    // Chained declustering places worker 0's replicas on worker 1 and vice
    // versa only for *adjacent* chain positions; with both 0 and 1 dead some
    // buckets could lose both copies. The placement interleaves
    // (secondary = primary + 1 mod M preferred), so buckets primary on 0
    // replicate on 1 — killing 0 and 1 together is the worst adjacent pair.
    // The engine must still answer every query it *can* answer exactly and
    // flag any truly lost bucket rather than panic.
    for (i, (h, d)) in healthy_out.iter().zip(&degraded_out).enumerate() {
        if !d.incomplete {
            assert!(same_records(&h.records, &d.records), "query {i}");
        }
    }
    let stats = degraded.stats();
    assert_eq!(stats.live_workers(), WORKERS - 2);
}

#[test]
fn mid_run_death_fails_over_in_flight_queries() {
    // The worker dies *after* serving some blocks — queries already in
    // flight against it are stranded and must be retried transparently.
    let gf = grid();
    let w = workload(&gf);
    let healthy = healthy_engine(&gf);
    let healthy_out: Vec<QueryOutcome> = w.queries.iter().map(|q| healthy.query(q)).collect();

    let degraded = replicated_engine(&gf, FaultPlan::none().with_kill_after_blocks(3, 5));
    let degraded_out: Vec<QueryOutcome> = w.queries.iter().map(|q| degraded.query(q)).collect();

    assert_identical_answers(&healthy_out, &degraded_out);
    let stats = degraded.stats();
    assert_eq!(stats.live_workers(), WORKERS - 1);
    assert!(!stats.workers[3].alive);
    assert!(
        stats.retries > 0,
        "stranded requests must have been retried"
    );
}

#[test]
fn concurrent_run_with_failure_matches_healthy_run() {
    let gf = grid();
    let w = workload(&gf);
    let healthy = healthy_engine(&gf);
    let (healthy_out, healthy_tp) = healthy.run_workload_concurrent(&w, 8);

    let degraded = replicated_engine(&gf, FaultPlan::kill_first(1));
    let (degraded_out, degraded_tp) = degraded.run_workload_concurrent(&w, 8);

    assert_identical_answers(&healthy_out, &degraded_out);
    assert_eq!(healthy_tp.queries, degraded_tp.queries);
    assert!(degraded_tp.failed_over_blocks > 0);
    // The dead worker accrues no busy time; its load went to the survivors.
    assert_eq!(degraded_tp.worker_busy_us[0], 0);
    assert!(degraded_tp.worker_busy_us.iter().skip(1).all(|&b| b > 0));
}

/// Slot 0's service loop is gone before the first query — its receiver is
/// dropped and no dead flag is published, as after a worker thread panics.
/// Every other slot runs in process.
#[derive(Debug)]
struct SlotZeroExited;

impl WorkerBackend for SlotZeroExited {
    fn spawn(
        &self,
        mut slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<SlotHandle>, Vec<JoinHandle<()>>) {
        let rest = slots.split_off(1);
        let (tx, inbox) = unbounded::<ToWorker>();
        drop(inbox);
        let (mut senders, mut handles) = InProcessBackend.spawn(rest);
        senders.insert(0, SlotHandle::channel(tx));
        handles.insert(0, std::thread::spawn(|| {}));
        (senders, handles)
    }
}

#[test]
fn bounced_dispatch_fails_over_without_waiting_for_a_reply_timeout() {
    // A send to the exited slot bounces with its message, and the requests
    // it carried go to their replicas at once. The reply timeout is set far
    // above the bound below, so only the bounce path can meet it — for
    // sessions (one message per request) and for the concurrent runner
    // (one batch per worker) alike.
    let gf = grid();
    let w = workload(&gf);
    let healthy = healthy_engine(&gf);
    let expected: Vec<QueryOutcome> = w.queries.iter().map(|q| healthy.query(q)).collect();

    let input = DeclusterInput::from_grid_file(&gf);
    let ra = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, WORKERS, 5);
    let config = EngineConfig::default()
        .with_backend(Arc::new(SlotZeroExited))
        .resilience(|r| r.with_fail_timeout_ms(10_000));
    let build = || ParallelGridFile::build_replicated(Arc::clone(&gf), &ra, config.clone());

    let started = Instant::now();
    let sessions = build();
    let session_out: Vec<QueryOutcome> = w.queries.iter().map(|q| sessions.query(q)).collect();
    let concurrent = build();
    let (concurrent_out, _) = concurrent.run_workload_concurrent(&w, 8);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "bounced sends waited out a reply timeout: {:?}",
        started.elapsed()
    );

    assert_identical_answers(&expected, &session_out);
    assert_identical_answers(&expected, &concurrent_out);
    for engine in [&sessions, &concurrent] {
        let stats = engine.stats();
        assert!(!stats.workers[0].alive, "the bounce must mark slot 0 dead");
        assert!(
            stats.retries > 0,
            "slot 0's requests were never failed over"
        );
        assert_eq!(stats.retransmits, 0, "a bounce is not a lost message");
    }
}

#[test]
fn concurrent_sessions_survive_failure_without_panic() {
    // Several client threads hammer a replicated engine while a worker dies
    // under them; every session must complete with exact answers.
    let gf = grid();
    let w = workload(&gf);
    let healthy = healthy_engine(&gf);
    let expected: Vec<QueryOutcome> = w.queries.iter().map(|q| healthy.query(q)).collect();

    let degraded = replicated_engine(&gf, FaultPlan::none().with_kill_at_query(5, 4));
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _client in 0..4 {
            let engine = &degraded;
            let w = &w;
            joins.push(scope.spawn(move || {
                let mut session = engine.session();
                w.queries
                    .iter()
                    .map(|q| session.query(q))
                    .collect::<Vec<_>>()
            }));
        }
        for join in joins {
            let got = join.join().expect("no session may panic");
            assert_identical_answers(&expected, &got);
        }
    });
    assert_eq!(degraded.stats().live_workers(), WORKERS - 1);
}
