//! An idle worker server's accept thread sleeps in `accept` instead of
//! waking up on a timer.
//!
//! Its own test binary: it reads the scheduler counters of this process's
//! threads, which tests running beside it in one process would disturb.

#![cfg(target_os = "linux")]

use std::time::Duration;

use pargrid_cluster::{WorkerConfig, WorkerServer};

/// Voluntary context switches of the accept thread. Linux keeps the first
/// 15 bytes of a thread's name, which the accept thread shares with the
/// per-connection threads; the test opens no connection, so it is the
/// only one.
fn accept_thread_switches() -> u64 {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let status = std::fs::read_to_string(task.expect("task entry").path().join("status"))
            .unwrap_or_default();
        if !status.lines().any(|l| l == "Name:\tpargrid-worker-") {
            continue;
        }
        for line in status.lines() {
            if let Some(n) = line.strip_prefix("voluntary_ctxt_switches:") {
                found.push(n.trim().parse::<u64>().expect("switch count"));
            }
        }
    }
    assert_eq!(found.len(), 1, "exactly one worker accept thread");
    found[0]
}

#[test]
fn idle_accept_thread_does_not_poll() {
    let mut server = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("bind");
    std::thread::sleep(Duration::from_millis(50));
    let before = accept_thread_switches();
    std::thread::sleep(Duration::from_millis(300));
    let woke = accept_thread_switches() - before;
    println!("accept thread woke {woke} times in 300 ms idle");
    assert!(woke <= 2, "idle accept thread woke {woke} times in 300 ms");
    server.shutdown();
}
