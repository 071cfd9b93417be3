//! Lock-free span recorder for the parallel engine.
//!
//! A [`Recorder`] owns one [`EventRing`] for the coordinator plus one per
//! worker thread. Recording an event is a single `fetch_add` on the ring
//! cursor followed by relaxed stores into the claimed slot — no locks, no
//! allocation, wait-free. Rings do **not** wrap: once a ring is full,
//! further events bump a `dropped` counter instead of overwriting history,
//! so a snapshot is always a prefix-accurate trace and the drop counter
//! bounds what was lost.
//!
//! Timestamps are *virtual microseconds* from the engine's simulated disk /
//! network clocks, not wall time: the engine advances the recorder's clock
//! ([`Recorder::advance_clock`], a `fetch_max`) as workers publish their
//! cumulative busy time, and per-disk events carry that disk's own
//! busy-clock interval so the exported timeline matches the cost model
//! exactly.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::hist::AtomicHistogram;

/// What a recorded span or instant represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Query admitted into the in-flight window (instant, coordinator).
    Admit = 0,
    /// Query planned: buckets mapped to disks/workers (span, coordinator).
    Plan = 1,
    /// Sub-queries dispatched to workers (instant, coordinator).
    Dispatch = 2,
    /// One elevator batch serviced on one disk (span, per-disk track).
    DiskBatch = 3,
    /// Cache probes for a batch: `detail` packs hits<<32 | probes (instant).
    CacheProbe = 4,
    /// A sub-query was re-sent after a worker failure (instant).
    Retry = 5,
    /// Chained-declustering failover re-route (instant, coordinator).
    Failover = 6,
    /// Query reply completed; `dur` is the query latency (span).
    Reply = 7,
    /// A straggling primary triggered a speculative replica dispatch
    /// (instant, coordinator): `detail` carries the primary's service time.
    Hedge = 8,
    /// A corrupt block was repaired from its replica (instant, coordinator):
    /// `detail` carries the number of blocks scrubbed.
    Scrub = 9,
}

impl SpanKind {
    /// All kinds, for iteration in exporters.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Admit,
        SpanKind::Plan,
        SpanKind::Dispatch,
        SpanKind::DiskBatch,
        SpanKind::CacheProbe,
        SpanKind::Retry,
        SpanKind::Failover,
        SpanKind::Reply,
        SpanKind::Hedge,
        SpanKind::Scrub,
    ];

    /// Stable lowercase name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Admit => "admit",
            SpanKind::Plan => "plan",
            SpanKind::Dispatch => "dispatch",
            SpanKind::DiskBatch => "disk_batch",
            SpanKind::CacheProbe => "cache_probe",
            SpanKind::Retry => "retry",
            SpanKind::Failover => "failover",
            SpanKind::Reply => "reply",
            SpanKind::Hedge => "hedge",
            SpanKind::Scrub => "scrub",
        }
    }

    fn from_u8(v: u8) -> SpanKind {
        match v {
            0 => SpanKind::Admit,
            1 => SpanKind::Plan,
            2 => SpanKind::Dispatch,
            3 => SpanKind::DiskBatch,
            4 => SpanKind::CacheProbe,
            5 => SpanKind::Retry,
            6 => SpanKind::Failover,
            8 => SpanKind::Hedge,
            9 => SpanKind::Scrub,
            _ => SpanKind::Reply,
        }
    }
}

/// Sentinel for "no worker / no disk" in an [`Event`].
pub const NO_ID: u32 = 0xFFFF;

/// One recorded trace event, decoded from a ring slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual-microsecond start timestamp (track-local for disk events).
    pub ts_us: u64,
    /// Span duration in virtual microseconds (0 for instants).
    pub dur_us: u64,
    /// Query id this event belongs to (`u64::MAX` when not query-scoped).
    pub query_id: u64,
    /// Event kind.
    pub kind: SpanKind,
    /// Worker id or [`NO_ID`].
    pub worker: u32,
    /// Disk id (engine-global) or [`NO_ID`].
    pub disk: u32,
    /// Kind-specific payload (blocks serviced, hits<<32|probes, ...).
    pub detail: u64,
}

/// Event not associated with a specific query.
pub const NO_QUERY: u64 = u64::MAX;

const SLOT_WORDS: usize = 5;

/// A fixed-capacity, non-wrapping MPSC event buffer.
///
/// Writers claim a slot with one `fetch_add`; events past capacity are
/// counted in `dropped` rather than overwriting older events. Reads are
/// exact once writers are quiescent (the engine joins its workers before
/// snapshotting).
pub struct EventRing {
    slots: Vec<[AtomicU64; SLOT_WORDS]>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventRing {
    /// A ring holding up to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            slots: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records an event; counts it as dropped if the ring is full.
    pub fn push(&self, ev: &Event) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[idx];
        slot[0].store(ev.ts_us, Ordering::Relaxed);
        slot[1].store(ev.dur_us, Ordering::Relaxed);
        slot[2].store(ev.query_id, Ordering::Relaxed);
        let packed = (ev.kind as u64)
            | ((ev.worker as u64 & 0xFFFF) << 8)
            | ((ev.disk as u64 & 0xFFFF) << 24);
        slot[3].store(packed, Ordering::Relaxed);
        slot[4].store(ev.detail, Ordering::Relaxed);
    }

    /// Number of events stored (at most capacity).
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Decodes the stored events in record order.
    pub fn events(&self) -> Vec<Event> {
        (0..self.len())
            .map(|i| {
                let slot = &self.slots[i];
                let packed = slot[3].load(Ordering::Relaxed);
                let worker = ((packed >> 8) & 0xFFFF) as u32;
                let disk = ((packed >> 24) & 0xFFFF) as u32;
                Event {
                    ts_us: slot[0].load(Ordering::Relaxed),
                    dur_us: slot[1].load(Ordering::Relaxed),
                    query_id: slot[2].load(Ordering::Relaxed),
                    kind: SpanKind::from_u8((packed & 0xFF) as u8),
                    worker,
                    disk,
                    detail: slot[4].load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

/// Default per-ring capacity (events). Coordinator traffic is ~4 events per
/// query; workers see one event per elevator batch per disk.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// The engine-wide trace recorder: one coordinator ring, one ring per
/// worker, a shared virtual clock, and the standard latency histograms.
pub struct Recorder {
    coordinator: EventRing,
    workers: Vec<EventRing>,
    clock: AtomicU64,
    /// End-to-end query latency in virtual µs.
    pub query_us: AtomicHistogram,
    /// Per-query communication (network) cost in virtual µs.
    pub comm_us: AtomicHistogram,
    /// Per-batch wall service time (slowest disk + CPU), virtual µs.
    pub batch_wall_us: AtomicHistogram,
    /// Blocks returned per query.
    pub response_blocks: AtomicHistogram,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("workers", &self.workers.len())
            .field("clock_us", &self.now())
            .finish()
    }
}

impl Recorder {
    /// A recorder for `workers` worker threads with the default ring size.
    pub fn new(workers: usize) -> Self {
        Recorder::with_capacity(workers, DEFAULT_RING_CAPACITY)
    }

    /// A recorder with `capacity` events per ring.
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        Recorder {
            coordinator: EventRing::new(capacity),
            workers: (0..workers).map(|_| EventRing::new(capacity)).collect(),
            clock: AtomicU64::new(0),
            query_us: AtomicHistogram::new(),
            comm_us: AtomicHistogram::new(),
            batch_wall_us: AtomicHistogram::new(),
            response_blocks: AtomicHistogram::new(),
        }
    }

    /// Number of worker rings.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Records an event on the coordinator track.
    pub fn record(&self, ev: Event) {
        self.coordinator.push(&ev);
    }

    /// Records an event on worker `w`'s track (coordinator track if out of
    /// range, so late-configured engines never panic).
    pub fn record_worker(&self, w: usize, ev: Event) {
        match self.workers.get(w) {
            Some(ring) => ring.push(&ev),
            None => self.coordinator.push(&ev),
        }
    }

    /// Current virtual time in µs.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the virtual clock to at least `t_us` (monotone).
    pub fn advance_clock(&self, t_us: u64) {
        self.clock.fetch_max(t_us, Ordering::Relaxed);
    }

    /// Immutable, decoded view of everything recorded so far. Exact when
    /// worker threads are quiescent.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            coordinator: self.coordinator.events(),
            workers: self.workers.iter().map(EventRing::events).collect(),
            dropped: self.coordinator.dropped()
                + self.workers.iter().map(EventRing::dropped).sum::<u64>(),
            clock_us: self.now(),
        }
    }
}

/// Decoded trace: per-track event lists plus loss accounting.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// Coordinator-track events in record order.
    pub coordinator: Vec<Event>,
    /// Per-worker event tracks in record order.
    pub workers: Vec<Vec<Event>>,
    /// Total events rejected across all rings (0 ⇒ lossless trace).
    pub dropped: u64,
    /// Final virtual-clock reading in µs.
    pub clock_us: u64,
}

impl TraceSnapshot {
    /// Total events captured across all tracks.
    pub fn len(&self) -> usize {
        self.coordinator.len() + self.workers.iter().map(Vec::len).sum::<usize>()
    }

    /// True when no track holds any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All events from every track, with their track's worker index
    /// (`None` for the coordinator).
    pub fn all_events(&self) -> impl Iterator<Item = (Option<usize>, &Event)> {
        self.coordinator.iter().map(|e| (None, e)).chain(
            self.workers
                .iter()
                .enumerate()
                .flat_map(|(w, evs)| evs.iter().map(move |e| (Some(w), e))),
        )
    }

    /// Events of one kind across all tracks.
    pub fn events_of(&self, kind: SpanKind) -> Vec<Event> {
        self.all_events()
            .filter(|(_, e)| e.kind == kind)
            .map(|(_, e)| *e)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, ts: u64) -> Event {
        Event {
            ts_us: ts,
            dur_us: 3,
            query_id: 7,
            kind,
            worker: 1,
            disk: 2,
            detail: 42,
        }
    }

    #[test]
    fn roundtrip_through_ring() {
        let ring = EventRing::new(8);
        let e = ev(SpanKind::DiskBatch, 100);
        ring.push(&e);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.events()[0], e);
    }

    #[test]
    fn full_ring_counts_drops_without_overwrite() {
        let ring = EventRing::new(2);
        for i in 0..5 {
            ring.push(&ev(SpanKind::Reply, i));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let evs = ring.events();
        assert_eq!(evs[0].ts_us, 0);
        assert_eq!(evs[1].ts_us, 1);
    }

    #[test]
    fn sentinel_ids_survive_packing() {
        let ring = EventRing::new(1);
        ring.push(&Event {
            ts_us: 0,
            dur_us: 0,
            query_id: NO_QUERY,
            kind: SpanKind::Admit,
            worker: NO_ID,
            disk: NO_ID,
            detail: 0,
        });
        let e = ring.events()[0];
        assert_eq!(e.worker, NO_ID);
        assert_eq!(e.disk, NO_ID);
        assert_eq!(e.query_id, NO_QUERY);
    }

    #[test]
    fn recorder_routes_tracks_and_clock() {
        let r = Recorder::with_capacity(2, 16);
        r.record(ev(SpanKind::Admit, 0));
        r.record_worker(0, ev(SpanKind::DiskBatch, 10));
        r.record_worker(5, ev(SpanKind::DiskBatch, 20)); // out of range → coordinator
        r.advance_clock(100);
        r.advance_clock(50); // monotone: no effect
        assert_eq!(r.now(), 100);
        let snap = r.snapshot();
        assert_eq!(snap.coordinator.len(), 2);
        assert_eq!(snap.workers[0].len(), 1);
        assert_eq!(snap.workers[1].len(), 0);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events_of(SpanKind::DiskBatch).len(), 2);
    }
}
