//! Percentiles, medians of windows and the open-loop schedule: the small
//! arithmetic every reported number goes through.

use pargrid_obs::nearest_rank_index;

/// Nearest-rank percentile `q` of `values` (the workspace's one definition,
/// `pargrid_obs::nearest_rank_index`); 0 for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    values[nearest_rank_index(values.len(), q)]
}

/// Median with the mean of the two middle values for an even count, so that
/// the median of three windows is the middle window.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One completed operation of a load phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Completion time, nanoseconds since the phase started.
    pub end_ns: u64,
    /// Client wall latency, nanoseconds: from send (closed loop) or from the
    /// due instant (open loop) until the reply was decoded and checked.
    pub lat_ns: u64,
    /// Whether the operation was an insert or delete.
    pub write: bool,
}

/// What one window of a closed-loop phase measured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Window {
    /// Completed operations per second, reads and writes.
    pub qps: f64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile query latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
    /// Slowest query, microseconds.
    pub max_us: f64,
    /// Median write latency, microseconds (0 without writes).
    pub write_p50_us: f64,
    /// Queries completed in the window.
    pub queries: u64,
    /// Writes completed in the window.
    pub writes: u64,
}

/// Cuts a phase of `n` back-to-back windows of `window_ns` each out of the
/// clients' samples, by completion time. Samples completing after the last
/// window ends (the operation in flight at the deadline) are dropped.
pub fn windows(samples: &[Sample], n: usize, window_ns: u64) -> Vec<Window> {
    let mut reads: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut writes: Vec<Vec<f64>> = vec![Vec::new(); n];
    for s in samples {
        let w = (s.end_ns / window_ns.max(1)) as usize;
        if w < n {
            let lat_us = s.lat_ns as f64 / 1e3;
            if s.write {
                writes[w].push(lat_us);
            } else {
                reads[w].push(lat_us);
            }
        }
    }
    reads
        .iter_mut()
        .zip(writes.iter_mut())
        .map(|(r, w)| Window {
            qps: (r.len() + w.len()) as f64 / (window_ns as f64 / 1e9),
            p50_us: percentile(r, 0.50),
            p95_us: percentile(r, 0.95),
            p99_us: percentile(r, 0.99),
            max_us: percentile(r, 1.0),
            write_p50_us: percentile(w, 0.50),
            queries: r.len() as u64,
            writes: w.len() as u64,
        })
        .collect()
}

/// Stolen-CPU share below which a window counts as quiet whatever the others
/// read.
pub const QUIET_STEAL: f64 = 0.01;

/// The windows a result is read from: the `keep` windows during which the
/// hypervisor withheld the least CPU from this guest (`steal[i]` is window
/// `i`'s share), and every other window that is as quiet as the last of
/// them or quieter than [`QUIET_STEAL`]. On a host that steals nothing that
/// is every window. Returns the chosen windows and the largest steal share
/// among them.
///
/// The choice looks only at the host's counter, never at what the window
/// measured, so it does not favour fast windows of the program.
pub fn quiet_windows(windows: &[Window], steal: &[f64], keep: usize) -> (Vec<Window>, f64) {
    assert_eq!(windows.len(), steal.len(), "one steal share per window");
    let mut sorted = steal.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let Some(&kth) = sorted.get(keep.clamp(1, sorted.len().max(1)) - 1) else {
        return (Vec::new(), 0.0);
    };
    let threshold = kth.max(QUIET_STEAL);
    let chosen = windows.iter().zip(steal).filter(|(_, &s)| s <= threshold);
    let worst = chosen.clone().map(|(_, &s)| s).fold(0.0, f64::max);
    (chosen.map(|(w, _)| *w).collect(), worst)
}

/// Median over windows of one field.
pub fn median_of(windows: &[Window], field: impl Fn(&Window) -> f64) -> f64 {
    median(&mut windows.iter().map(field).collect::<Vec<f64>>())
}

/// Interquartile range over median of the windows' throughput: the noise
/// report.
pub fn window_spread(windows: &[Window]) -> f64 {
    let mut qps: Vec<f64> = windows.iter().map(|w| w.qps).collect();
    let med = median(&mut qps);
    if med <= 0.0 {
        return 0.0;
    }
    (percentile(&mut qps, 0.75) - percentile(&mut qps, 0.25)) / med
}

/// The open-loop schedule: operation `i` is due `i / rate` after the start,
/// whatever happened to the operations before it.
#[derive(Clone, Copy, Debug)]
pub struct OpenSchedule {
    interval_ns: f64,
}

impl OpenSchedule {
    /// A schedule of `rate` operations per second.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "open-loop rate must be positive");
        OpenSchedule {
            interval_ns: 1e9 / rate,
        }
    }

    /// Due time of operation `i`, nanoseconds since the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }
}

/// Accumulates what an open-loop phase did against its schedule.
#[derive(Clone, Debug, Default)]
pub struct OpenReport {
    /// Latency from the due instant to the checked reply, microseconds.
    pub lat_us: Vec<f64>,
    /// Operations sent.
    pub sent: u64,
    /// Operations sent more than `late_ns` after they were due.
    pub late: u64,
    /// Largest send lag behind the schedule, nanoseconds.
    pub max_lag_ns: u64,
}

impl OpenReport {
    /// Accounts one operation: due at `due_ns`, actually sent at `sent_ns`
    /// and completed at `done_ns` (all since the phase started). Latency is
    /// counted from the due instant, so a stall charges every operation
    /// that had to wait behind it.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64, done_ns: u64, late_ns: u64) {
        let lag = sent_ns.saturating_sub(due_ns);
        self.sent += 1;
        self.late += u64::from(lag > late_ns);
        self.max_lag_ns = self.max_lag_ns.max(lag);
        self.lat_us
            .push(done_ns.saturating_sub(due_ns) as f64 / 1e3);
    }

    /// Folds another connection's report into this one.
    pub fn merge(&mut self, other: OpenReport) {
        self.lat_us.extend(other.lat_us);
        self.sent += other.sent;
        self.late += other.late;
        self.max_lag_ns = self.max_lag_ns.max(other.max_lag_ns);
    }

    /// Share of operations sent late.
    pub fn late_frac(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.late as f64 / self.sent as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.95), 95.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.95), 7.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_takes_the_middle_window() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    fn sample(end_ms: u64, lat_us: u64, write: bool) -> Sample {
        Sample {
            end_ns: end_ms * 1_000_000,
            lat_ns: lat_us * 1_000,
            write,
        }
    }

    #[test]
    fn windows_split_by_completion_time_and_report_medians() {
        // Three 1 s windows with 2, 4 and 3 queries; one write in the second;
        // one straggler past the end that must be dropped.
        let samples = vec![
            sample(100, 10, false),
            sample(900, 30, false),
            sample(1000, 100, false),
            sample(1200, 200, false),
            sample(1500, 300, false),
            sample(1999, 400, false),
            sample(1600, 55, true),
            sample(2000, 7, false),
            sample(2500, 8, false),
            sample(2999, 9, false),
            sample(3000, 9999, false),
        ];
        let w = windows(&samples, 3, 1_000_000_000);
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].queries, w[1].queries, w[2].queries), (2, 4, 3));
        assert_eq!(w[1].writes, 1);
        assert_eq!(w[0].qps, 2.0);
        assert_eq!(w[1].qps, 5.0);
        assert_eq!(w[1].p50_us, 200.0);
        assert_eq!(w[1].write_p50_us, 55.0);
        assert_eq!(w[0].write_p50_us, 0.0);
        assert_eq!(w[2].max_us, 9.0);
        assert_eq!(median_of(&w, |w| w.qps), 3.0);
        // Quartiles by nearest rank of [2, 3, 5] are 2 and 5.
        assert_eq!(window_spread(&w), (5.0 - 2.0) / 3.0);
    }

    #[test]
    fn quiet_windows_are_chosen_by_steal_alone() {
        let w = |qps: f64| Window {
            qps,
            ..Window::default()
        };
        let all = [w(1.0), w(2.0), w(3.0), w(4.0), w(5.0)];
        // A host that steals nothing: every window counts.
        let (chosen, worst) = quiet_windows(&all, &[0.0; 5], 2);
        assert_eq!((chosen.len(), worst), (5, 0.0));
        // The two quietest, plus the one under the quiet floor; the fast but
        // disturbed windows stay out.
        let (chosen, worst) = quiet_windows(&all, &[0.30, 0.002, 0.2, 0.0, 0.009], 2);
        let qps: Vec<f64> = chosen.iter().map(|w| w.qps).collect();
        assert_eq!((qps, worst), (vec![2.0, 4.0, 5.0], 0.009));
        // All disturbed: the `keep` least disturbed, ties included.
        let (chosen, worst) = quiet_windows(&all, &[0.3, 0.1, 0.2, 0.1, 0.4], 2);
        let qps: Vec<f64> = chosen.iter().map(|w| w.qps).collect();
        assert_eq!((qps, worst), (vec![2.0, 4.0], 0.1));
    }

    #[test]
    fn schedule_is_fixed_by_the_rate_alone() {
        let s = OpenSchedule::new(1000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 1_000_000);
        assert_eq!(s.due_ns(2500), 2_500_000_000);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_instant() {
        let mut r = OpenReport::default();
        // On time: due 1 ms, sent 1 ms, done 1.3 ms.
        r.record(1_000_000, 1_000_000, 1_300_000, 1_000_000);
        // Stalled: due 2 ms, sent 5 ms (3 ms lag, late), done 5.2 ms.
        r.record(2_000_000, 5_000_000, 5_200_000, 1_000_000);
        // Exactly at the threshold is not late.
        r.record(3_000_000, 4_000_000, 4_100_000, 1_000_000);
        assert_eq!(r.sent, 3);
        assert_eq!(r.late, 1);
        assert_eq!(r.max_lag_ns, 3_000_000);
        assert_eq!(r.lat_us, vec![300.0, 3200.0, 1100.0]);
        assert!((r.late_frac() - 1.0 / 3.0).abs() < 1e-12);

        let mut other = OpenReport::default();
        other.record(0, 9_000_000, 9_500_000, 1_000_000);
        r.merge(other);
        assert_eq!((r.sent, r.late, r.max_lag_ns), (4, 2, 9_000_000));
    }
}
