//! Everything the load generator sends, made from `--seed` alone: query
//! templates with their expected answers, and each writing client's
//! insert/delete stream. The program under test only ever sees these inputs.

use std::collections::VecDeque;
use std::sync::Arc;

use pargrid_geom::{Point, Rect, MAX_DIM};
use pargrid_gridfile::{GridFile, Record, WalOp};
use pargrid_net::Request;
use pargrid_sim::QueryWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Workload, TEMPLATES, WRITER_FILL, WRITE_ID_BASE};

/// What identifies a set of record ids without keeping it: the answer oracle
/// compares `(count, wrapping sum, xor)` of every reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of ids.
    pub count: u64,
    /// Wrapping sum of the ids.
    pub sum: u64,
    /// Xor of the ids.
    pub xor: u64,
}

impl Fingerprint {
    /// Fingerprint of `ids`.
    pub fn of(ids: impl Iterator<Item = u64>) -> Fingerprint {
        ids.fold(Fingerprint::default(), |f, id| Fingerprint {
            count: f.count + 1,
            sum: f.sum.wrapping_add(id),
            xor: f.xor ^ id,
        })
    }

    /// Fingerprint of the base-set records (ids the load generator did not
    /// write) among `records`.
    pub fn of_base(records: &[Record]) -> Fingerprint {
        Fingerprint::of(
            records
                .iter()
                .map(|r| r.id)
                .filter(|&id| id < WRITE_ID_BASE),
        )
    }
}

/// The workload's query templates and the serial oracle's answer to each.
#[derive(Clone, Debug)]
pub struct Templates {
    /// Query rectangles.
    pub rects: Vec<Rect>,
    /// The same queries as wire requests.
    pub requests: Vec<Request>,
    /// Fingerprint of the base-set ids each query must return, computed with
    /// the serial in-memory `GridFile::range_query`.
    pub oracle: Vec<Fingerprint>,
}

impl Templates {
    /// `TEMPLATES` seeded square queries of the workload's area ratio, with
    /// their answers over `grid`.
    pub fn generate(workload: &Workload, seed: u64, grid: &GridFile) -> Templates {
        let domain = grid.config().domain;
        let rects = QueryWorkload::square(&domain, workload.ratio, TEMPLATES, seed).queries;
        let requests = rects.iter().map(range_request).collect();
        let oracle = rects
            .iter()
            .map(|q| Fingerprint::of_base(&grid.range_query(q).1))
            .collect();
        Templates {
            rects,
            requests,
            oracle,
        }
    }
}

/// The wire request for a range query over `rect`.
pub fn range_request(rect: &Rect) -> Request {
    Request::RangeQuery {
        lo: rect.lo().coords().to_vec(),
        hi: rect.hi().coords().to_vec(),
    }
}

/// Every 16th record's key, in bucket order: where the data is dense, so
/// are the writers' insert keys.
pub fn anchor_points(grid: &GridFile) -> Arc<Vec<Point>> {
    let points = grid
        .live_buckets()
        .flat_map(|(id, _, _)| grid.bucket_records(id))
        .map(|r| r.point)
        .step_by(16)
        .collect();
    Arc::new(points)
}

/// One writing client's seeded mutation stream. It owns the ids
/// `WRITE_ID_BASE | client << 32 | n`, fills to `WRITER_FILL` live records and
/// then alternates delete-oldest / insert, so the file stays the size it was
/// loaded at. Insert keys are small jitters of dataset points, so splits and
/// buddy merges happen where the data is dense.
#[derive(Clone, Debug)]
pub struct Writer {
    client: u64,
    next: u64,
    rng: StdRng,
    anchors: Arc<Vec<Point>>,
    domain: Rect,
    /// Own records the server has acknowledged and not yet deleted, oldest
    /// first.
    pub live: VecDeque<Record>,
    /// Every acknowledged mutation of this client, in order.
    pub acked: Vec<WalOp>,
}

impl Writer {
    /// The stream of `client` under `seed`.
    pub fn new(client: usize, seed: u64, anchors: Arc<Vec<Point>>, domain: Rect) -> Writer {
        assert!(!anchors.is_empty(), "no anchor points");
        Writer {
            client: client as u64,
            next: 0,
            rng: StdRng::seed_from_u64(seed ^ (0x5eed_0000 + client as u64)),
            anchors,
            domain,
            live: VecDeque::new(),
            acked: Vec::new(),
        }
    }

    /// The next mutation to send.
    pub fn next_op(&mut self) -> WalOp {
        if self.live.len() > WRITER_FILL {
            let oldest = self.live[0];
            return WalOp::Delete {
                id: oldest.id,
                point: oldest.point,
            };
        }
        let anchor = self.anchors[self.rng.random_range(0..self.anchors.len())];
        let d = self.domain.dim();
        let mut key = [0.0; MAX_DIM];
        for (k, slot) in key.iter_mut().enumerate().take(d) {
            let jitter = (self.rng.random::<f64>() - 0.5) * 0.01 * self.domain.side(k);
            *slot =
                (anchor.get(k) + jitter).clamp(self.domain.lo().get(k), self.domain.hi().get(k));
        }
        let id = WRITE_ID_BASE | self.client << 32 | self.next;
        self.next += 1;
        WalOp::Insert(Record::new(id, Point::new(&key[..d])))
    }

    /// Accounts `op` as acknowledged by the server.
    pub fn acknowledge(&mut self, op: WalOp) {
        match &op {
            WalOp::Insert(record) => self.live.push_back(*record),
            WalOp::Delete { .. } => {
                self.live.pop_front();
            }
        }
        self.acked.push(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_datagen::dsmc3d_sized;

    #[test]
    fn fingerprint_tells_sets_apart_but_not_orders() {
        let a = Fingerprint::of([3, 5, 9].into_iter());
        assert_eq!(a, Fingerprint::of([9, 3, 5].into_iter()));
        assert_ne!(a, Fingerprint::of([3, 5].into_iter()));
        assert_ne!(a, Fingerprint::of([3, 5, 10].into_iter()));
        let records = [
            Record::new(7, Point::new2(0.0, 0.0)),
            Record::new(WRITE_ID_BASE | 1, Point::new2(0.0, 0.0)),
        ];
        assert_eq!(
            Fingerprint::of_base(&records),
            Fingerprint::of([7].into_iter())
        );
    }

    #[test]
    fn same_seed_same_inputs_and_a_stationary_writer() {
        let grid = dsmc3d_sized(3, 2_000).build_grid_file();
        let w = crate::spec::workload("mixed-rw").unwrap();
        let a = Templates::generate(w, 3, &grid);
        let b = Templates::generate(w, 3, &grid);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.oracle, b.oracle);
        assert_ne!(a.requests, Templates::generate(w, 4, &grid).requests);

        let anchors = anchor_points(&grid);
        let domain = grid.config().domain;
        let mut one = Writer::new(0, 3, Arc::clone(&anchors), domain);
        let mut two = Writer::new(0, 3, anchors, domain);
        for _ in 0..3 * WRITER_FILL {
            let op = one.next_op();
            assert_eq!(op, two.next_op());
            if let WalOp::Insert(r) = &op {
                assert!(r.id >= WRITE_ID_BASE && domain.contains_closed(&r.point));
            }
            one.acknowledge(op.clone());
            two.acknowledge(op);
        }
        // Filled, then alternating: never more than one above the fill level.
        assert!((WRITER_FILL..=WRITER_FILL + 1).contains(&one.live.len()));
        assert_eq!(one.acked.len(), 3 * WRITER_FILL);
    }
}
