//! Open-loop load generator for the serving experiment.
//!
//! Each client thread schedules arrival `k` at `start + k / rate` and
//! measures sojourn from the *scheduled* arrival time to reply receipt —
//! the wrk2 correction for coordinated omission. A blocking connection
//! that falls behind does not silently thin the offered load; the next
//! request fires immediately and its sojourn includes the time it spent
//! waiting its turn, exactly as a queueing-theory open arrival would.
//!
//! `Overloaded` replies are counted as shed (the request *was* offered and
//! the server chose to reject it) and are not retried: the generator
//! exists to map the offered-load / served-throughput curve, and retrying
//! would fold the shed traffic back into the arrival process.

use std::thread;
use std::time::{Duration, Instant};

use pargrid_obs::Histogram;

use crate::client::{Client, ClientError};

/// One query template, cycled through by the generator.
#[derive(Clone, Debug)]
pub enum LoadQuery {
    /// Range query.
    Range {
        /// Low corner.
        lo: Vec<f64>,
        /// High corner.
        hi: Vec<f64>,
    },
    /// Partial-match query.
    Partial {
        /// One entry per dimension, `None` = wildcard.
        keys: Vec<Option<f64>>,
    },
}

/// Parameters for one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Arrival rate per client, queries/second. Total offered rate is
    /// `clients × rate_per_client`.
    pub rate_per_client: f64,
    /// How long to generate load.
    pub duration: Duration,
    /// Query templates, cycled (each client starts at a different offset
    /// so the fleet does not issue identical queries in lockstep).
    pub queries: Vec<LoadQuery>,
}

/// Aggregated outcome of a run.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests actually put on the wire.
    pub offered: u64,
    /// Answered with records.
    pub served: u64,
    /// Rejected `Overloaded` by admission control.
    pub shed: u64,
    /// Connection or protocol failures.
    pub errors: u64,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Sojourn times of *served* requests, scheduled-arrival → reply,
    /// wall microseconds.
    pub sojourn_us: Histogram,
}

impl LoadgenReport {
    /// Served queries per wall second.
    pub fn served_qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.served as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of offered requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// Sojourn quantile in microseconds (0.5 / 0.95 / 0.99 are the ones
    /// the experiment reports).
    pub fn sojourn_quantile_us(&self, q: f64) -> u64 {
        self.sojourn_us.quantile(q)
    }
}

struct ThreadReport {
    offered: u64,
    served: u64,
    shed: u64,
    errors: u64,
    sojourn_us: Histogram,
}

/// Runs the generator against `addr`, blocking until `duration` elapses
/// on every client thread.
pub fn run(addr: &str, config: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    assert!(
        !config.queries.is_empty(),
        "loadgen needs at least one query"
    );
    assert!(config.rate_per_client > 0.0, "rate must be positive");
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..config.clients.max(1) {
        let addr = addr.to_string();
        let cfg = config.clone();
        handles.push(thread::spawn(move || client_thread(&addr, &cfg, c)));
    }
    let mut report = LoadgenReport::default();
    let mut connect_err = None;
    for h in handles {
        match h.join().expect("loadgen thread panicked") {
            Ok(t) => {
                report.offered += t.offered;
                report.served += t.served;
                report.shed += t.shed;
                report.errors += t.errors;
                report.sojourn_us.merge(&t.sojourn_us);
            }
            Err(e) => connect_err = Some(e),
        }
    }
    if report.offered == 0 {
        if let Some(e) = connect_err {
            return Err(e);
        }
    }
    report.elapsed = started.elapsed();
    Ok(report)
}

fn client_thread(
    addr: &str,
    cfg: &LoadgenConfig,
    client_idx: usize,
) -> std::io::Result<ThreadReport> {
    let mut client = Client::connect_retry(addr, 5, Duration::from_millis(20))?;
    let mut t = ThreadReport {
        offered: 0,
        served: 0,
        shed: 0,
        errors: 0,
        sojourn_us: Histogram::new(),
    };
    let interval = Duration::from_secs_f64(1.0 / cfg.rate_per_client);
    // Phase-stagger the fleet: client `i` leads with offset `i/clients` of
    // one interval, so the aggregate arrival process is evenly spaced at
    // `clients × rate` instead of synchronized bursts of size `clients`
    // (which would overflow any admission gate smaller than the fleet at
    // every tick, no matter how low the offered load).
    let phase = interval.mul_f64(client_idx as f64 / cfg.clients.max(1) as f64);
    let start = Instant::now();
    let mut k: u32 = 0;
    loop {
        let scheduled = phase + interval * k;
        if scheduled >= cfg.duration {
            break;
        }
        let target = start + scheduled;
        let now = Instant::now();
        if now < target {
            thread::sleep(target - now);
        }
        let q = &cfg.queries[(client_idx + k as usize) % cfg.queries.len()];
        t.offered += 1;
        let result = match q {
            LoadQuery::Range { lo, hi } => client.range_query(lo, hi),
            LoadQuery::Partial { keys } => client.partial_match(keys),
        };
        match result {
            Ok(_reply) => {
                t.served += 1;
                let sojourn = target.elapsed().as_micros().min(u64::MAX as u128) as u64;
                t.sojourn_us.record(sojourn);
            }
            Err(e) if e.retry_after_ms().is_some() => t.shed += 1,
            Err(ClientError::Server(_)) => t.errors += 1,
            Err(_) => {
                // Transport broke; one reconnect attempt, then give up.
                t.errors += 1;
                match Client::connect_retry(addr, 3, Duration::from_millis(20)) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
        k += 1;
    }
    Ok(t)
}
