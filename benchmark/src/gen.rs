//! Seeded op streams. A stream is a pure function of its seed: it never
//! looks at the database, and the engine sees nothing of it but SQL text.

use crate::ch::{self, card, NewOrder, Payment, PointKey};
use crate::rng::Rng;

/// One closed-loop operation: a statement, or a multi-statement
/// transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Point(PointKey),
    /// Index into [`ch::OLAP`].
    Olap(usize),
    Fresh,
    NewOrder(NewOrder),
    Payment(Payment),
}

impl Op {
    /// The statement template the op instantiates; latencies are also
    /// reported per template.
    pub fn template(&self) -> &'static str {
        match self {
            Op::Point(k) => k.table(),
            Op::Olap(i) => ch::OLAP[*i].0,
            Op::Fresh => "freshness",
            Op::NewOrder(_) => "new_order",
            Op::Payment(_) => "payment",
        }
    }

    pub fn statements(&self) -> Vec<String> {
        match self {
            Op::Point(k) => vec![k.sql()],
            Op::Olap(i) => vec![ch::OLAP[*i].1.to_string()],
            Op::Fresh => vec![ch::freshness_sql()],
            Op::NewOrder(no) => no.statements(),
            Op::Payment(p) => p.statements(),
        }
    }

    pub fn is_transaction(&self) -> bool {
        matches!(self, Op::NewOrder(_) | Op::Payment(_))
    }

    /// An op of the same shape that can run after this one has committed:
    /// a NewOrder on fresh keys; everything else repeats as it is.
    pub fn twin(&self) -> Op {
        match self {
            Op::NewOrder(no) => Op::NewOrder(no.twin()),
            other => other.clone(),
        }
    }
}

/// What the transactional stream of a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OltpShape {
    /// Primary-key selects on customer, stock, district, in rotation.
    PointRead,
    /// Payment, NewOrder, Payment, … Two Payments to one NewOrder puts the
    /// median op inside the Payment latency mode; at CH's near-even mix it
    /// would sit on the boundary between the two modes and jump about.
    Write,
    /// `PointRead`, with every tenth op a NewOrder.
    Mixed,
}

#[derive(Debug, Clone)]
pub struct OltpStream {
    rng: Rng,
    shape: OltpShape,
    warehouses: i64,
    issued: u64,
    reads: u64,
    next_o_id: i64,
}

impl OltpStream {
    pub fn new(seed: u64, shape: OltpShape, warehouses: i64) -> OltpStream {
        OltpStream {
            rng: Rng::new(seed),
            shape,
            warehouses,
            issued: 0,
            reads: 0,
            next_o_id: ch::FIRST_NEW_O_ID,
        }
    }

    fn point(&mut self) -> Op {
        let w = self.rng.range(1, self.warehouses);
        let key = match self.reads % 3 {
            0 => PointKey::Customer(
                w,
                self.rng.range(1, card::DISTRICTS),
                self.rng.range(1, card::CUSTOMERS),
            ),
            1 => PointKey::Stock(w, self.rng.range(1, card::ITEMS)),
            _ => PointKey::District(w, self.rng.range(1, card::DISTRICTS)),
        };
        self.reads += 1;
        Op::Point(key)
    }

    fn new_order(&mut self) -> Op {
        let w = self.rng.range(1, self.warehouses);
        let d = self.rng.range(1, card::DISTRICTS);
        let c = self.rng.range(1, card::CUSTOMERS);
        let o_id = self.next_o_id;
        self.next_o_id += 1;
        let ol_cnt = self.rng.range(card::MIN_OL, card::MAX_OL) as usize;
        let mut lines: Vec<(i64, i64)> = Vec::with_capacity(ol_cnt);
        while lines.len() < ol_cnt {
            let item = self.rng.range(1, card::ITEMS);
            // Distinct items: one stock row is updated once per transaction.
            if lines.iter().all(|&(i, _)| i != item) {
                lines.push((item, self.rng.range(1, 10)));
            }
        }
        Op::NewOrder(NewOrder {
            w,
            d,
            o_id,
            c,
            lines,
        })
    }

    fn payment(&mut self) -> Op {
        Op::Payment(Payment {
            w: self.rng.range(1, self.warehouses),
            d: self.rng.range(1, card::DISTRICTS),
            c: self.rng.range(1, card::CUSTOMERS),
            amount: self.rng.range(100, 499_999) as f64 / 100.0,
        })
    }

    pub fn next_op(&mut self) -> Op {
        let n = self.issued;
        self.issued += 1;
        match self.shape {
            OltpShape::PointRead => self.point(),
            OltpShape::Write if n % 3 == 1 => self.new_order(),
            OltpShape::Write => self.payment(),
            OltpShape::Mixed if n % 10 == 9 => self.new_order(),
            OltpShape::Mixed => self.point(),
        }
    }
}

/// The analytic stream: the CH queries in a rotation whose order the seed
/// picks, optionally followed by the freshness count.
#[derive(Debug, Clone)]
pub struct OlapStream {
    order: Vec<Op>,
    issued: usize,
}

impl OlapStream {
    pub fn new(seed: u64, freshness: bool) -> OlapStream {
        let mut rng = Rng::new(seed);
        let mut order: Vec<Op> = (0..ch::OLAP.len()).map(Op::Olap).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as i64) as usize);
        }
        if freshness {
            order.push(Op::Fresh);
        }
        OlapStream { order, issued: 0 }
    }

    pub fn next_op(&mut self) -> Op {
        let op = self.order[self.issued % self.order.len()].clone();
        self.issued += 1;
        op
    }
}

#[derive(Debug, Clone)]
pub enum Stream {
    Oltp(OltpStream),
    Olap(OlapStream),
}

impl Stream {
    pub fn next_op(&mut self) -> Op {
        match self {
            Stream::Oltp(s) => s.next_op(),
            Stream::Olap(s) => s.next_op(),
        }
    }

    pub fn class(&self) -> &'static str {
        match self {
            Stream::Oltp(_) => "oltp",
            Stream::Olap(_) => "olap",
        }
    }
}

/// FNV-1a over the statement text of the first `ops` operations of every
/// stream: two runs offered the same load exactly when their hashes match.
pub fn stream_hash(mut streams: Vec<Stream>, ops: usize) -> u64 {
    let mut h = crate::oracle::Fnv::new();
    for s in &mut streams {
        for _ in 0..ops {
            for stmt in s.next_op().statements() {
                h.write(stmt.as_bytes());
                h.write(b";");
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in WORKLOADS {
            let a = stream_hash(w.streams(1), 500);
            assert_eq!(a, stream_hash(w.streams(1), 500), "{}", w.name);
            assert_ne!(a, stream_hash(w.streams(2), 500), "{}", w.name);
        }
    }

    #[test]
    fn write_stream_mix_and_order_ids() {
        let mut s = OltpStream::new(7, OltpShape::Write, 4);
        let ops: Vec<Op> = (0..9).map(|_| s.next_op()).collect();
        let templates: Vec<&str> = ops.iter().map(Op::template).collect();
        assert_eq!(&templates[..3], ["payment", "new_order", "payment"]);
        let ids: Vec<i64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::NewOrder(no) => Some(no.o_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [301, 302, 303]);
    }

    #[test]
    fn mixed_stream_has_one_new_order_in_ten() {
        let mut s = OltpStream::new(3, OltpShape::Mixed, 8);
        let n = (0..1000).filter(|_| s.next_op().is_transaction()).count();
        assert_eq!(n, 100);
    }

    #[test]
    fn olap_rotation_covers_every_query_once_per_cycle() {
        let mut s = OlapStream::new(11, true);
        let mut cycle: Vec<&str> = (0..8).map(|_| s.next_op().template()).collect();
        cycle.sort_unstable();
        let mut want: Vec<&str> = ch::OLAP.iter().map(|q| q.0).collect();
        want.push("freshness");
        want.sort_unstable();
        assert_eq!(cycle, want);
    }
}
