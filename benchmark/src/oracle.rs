//! Answer checking. Expected answers are computed in process when an
//! environment is set up; every answer that comes back is compared, and a
//! mismatch is a failed op like an error or a refusal.

use crate::ch::{self, card, NewOrder, Payment, PointKey, Population};
use crate::gen::Op;
use crate::workload::Workload;
use oltap_common::ids::TxnId;
use oltap_common::{Row, Value};
use oltap_core::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of a result set over the engine's own row codec, row order
/// included: equal checksums mean byte-for-byte equal answers.
pub fn checksum(rows: &[Row]) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        let bytes = oltap_txn::wal::encode_row(row);
        h.write(&(bytes.len() as u32).to_le_bytes());
        h.write(&bytes);
    }
    h.finish()
}

/// The identity `core` gives an anonymous snapshot reader.
pub fn snapshot_reader() -> TxnId {
    oltap_core::physical::snapshot_ctx(0).me
}

/// Checksums of the analytic queries, computed in process.
pub fn olap_checksums(db: &Arc<Database>) -> Result<Vec<u64>, String> {
    ch::OLAP
        .iter()
        .map(|(id, sql)| {
            db.query(sql)
                .map(|rows| checksum(&rows))
                .map_err(|e| format!("oracle for {id}: {e}"))
        })
        .collect()
}

/// Expected answers for a workload's read statements.
pub struct Oracle {
    /// The selected columns of every row a point read can ask for.
    point: HashMap<PointKey, Row>,
    /// One checksum per [`ch::OLAP`] query; empty when the data changes
    /// under the analytic stream, whose answers are then only checked for
    /// shape.
    olap: Vec<u64>,
}

impl Oracle {
    /// `resident_olap` carries the checksums of a resident database: the
    /// paged workload must reproduce them byte for byte.
    pub fn build(
        w: &Workload,
        db: &Arc<Database>,
        resident_olap: Option<Vec<u64>>,
    ) -> Result<Oracle, String> {
        let mut point = HashMap::new();
        if w.oltp.is_some() && !w.durable {
            let read_ts = db.txn_manager().now();
            let mut add = |key: PointKey| -> Result<(), String> {
                let row = db
                    .table(key.table())
                    .and_then(|t| t.get(&key.key_row(), read_ts, snapshot_reader()))
                    .map_err(|e| format!("oracle for {key:?}: {e}"))?
                    .ok_or_else(|| format!("oracle: {key:?} is not in the database"))?;
                point.insert(key, row.project(key.projection()));
                Ok(())
            };
            for wh in 1..=w.warehouses {
                for d in 1..=card::DISTRICTS {
                    add(PointKey::District(wh, d))?;
                    for c in 1..=card::CUSTOMERS {
                        add(PointKey::Customer(wh, d, c))?;
                    }
                }
                for i in 1..=card::ITEMS {
                    add(PointKey::Stock(wh, i))?;
                }
            }
        }
        let static_data = w.oltp.is_none();
        let olap = match (w.olap, static_data, resident_olap) {
            (Some(_), true, Some(resident)) => resident,
            (Some(_), true, None) => olap_checksums(db)?,
            _ => Vec::new(),
        };
        Ok(Oracle { point, olap })
    }
}

/// What a statement returned, over the wire or in process.
pub struct Answer {
    pub rows: Vec<Row>,
    /// Result rows of a SELECT, rows affected by DML.
    pub count: u64,
}

/// Runs one stream's ops through an executor and checks every answer. It
/// carries the state the stream itself creates: the stock rows its
/// NewOrders have changed, and the transactions it saw acknowledged.
pub struct Checker<'a> {
    oracle: &'a Oracle,
    /// Commits acknowledged to the transactional stream, shared with the
    /// analytic stream's freshness check.
    acked: &'a AtomicU64,
    stock: HashMap<(i64, i64), Row>,
    /// Acknowledged transactions, in commit order.
    pub committed: Vec<Op>,
}

impl<'a> Checker<'a> {
    pub fn new(oracle: &'a Oracle, acked: &'a AtomicU64) -> Checker<'a> {
        Checker {
            oracle,
            acked,
            stock: HashMap::new(),
            committed: Vec::new(),
        }
    }

    /// Executes `op` statement by statement through `exec`; `Err` says why
    /// the op counts as failed.
    pub fn run(
        &mut self,
        op: &Op,
        exec: &mut dyn FnMut(&str) -> oltap_common::Result<Answer>,
    ) -> Result<(), String> {
        match op {
            Op::Point(key) => {
                let answer = exec(&key.sql()).map_err(|e| e.to_string())?;
                let expected = match key {
                    PointKey::Stock(w, i) => self.stock.get(&(*w, *i)),
                    _ => None,
                }
                .or_else(|| self.oracle.point.get(key))
                .ok_or_else(|| format!("no oracle for {key:?}"))?;
                if answer.rows.as_slice() != std::slice::from_ref(expected) {
                    return Err(format!(
                        "{key:?}: expected {expected:?}, got {:?}",
                        answer.rows
                    ));
                }
                Ok(())
            }
            Op::Olap(i) => {
                let (id, sql) = ch::OLAP[*i];
                let answer = exec(sql).map_err(|e| e.to_string())?;
                match self.oracle.olap.get(*i) {
                    Some(&want) if checksum(&answer.rows) != want => {
                        Err(format!("{id}: answer differs from the resident oracle"))
                    }
                    None if answer.rows.is_empty() => Err(format!("{id}: empty answer")),
                    _ => Ok(()),
                }
            }
            Op::Fresh => {
                // Read the counter first: every commit acknowledged before
                // the statement is sent must be in its snapshot.
                let acked = self.acked.load(Ordering::SeqCst);
                let answer = exec(&ch::freshness_sql()).map_err(|e| e.to_string())?;
                let seen = answer
                    .rows
                    .first()
                    .and_then(|r| r.get(0).as_int().ok())
                    .ok_or("freshness count came back empty")?;
                if (seen as u64) < acked {
                    return Err(format!(
                        "stale snapshot: {seen} orders visible, {acked} acknowledged"
                    ));
                }
                Ok(())
            }
            Op::NewOrder(no) => {
                transaction(&no.statements(), exec)?;
                for &(item, qty) in &no.lines {
                    self.apply_stock(no.w, item, qty)?;
                }
                self.acked.fetch_add(1, Ordering::SeqCst);
                self.committed.push(op.clone());
                Ok(())
            }
            Op::Payment(p) => {
                transaction(&p.statements(), exec)?;
                self.committed.push(op.clone());
                Ok(())
            }
        }
    }

    /// Mirrors NewOrder's `UPDATE stock` on the expected row, when the
    /// stream also reads stock back.
    fn apply_stock(&mut self, w: i64, item: i64, qty: i64) -> Result<(), String> {
        let Some(base) = self.oracle.point.get(&PointKey::Stock(w, item)) else {
            return Ok(());
        };
        let row = self.stock.entry((w, item)).or_insert_with(|| base.clone());
        let int = |v: &Value| v.as_int().map_err(|e| e.to_string());
        let next = vec![
            Value::Int(int(row.get(0))? - qty),
            Value::Int(int(row.get(1))? + qty),
            Value::Int(int(row.get(2))? + 1),
        ];
        *row = Row::new(next);
        Ok(())
    }
}

/// `BEGIN … COMMIT`; each DML statement must touch exactly one row. A
/// failure part-way is rolled back so the connection is clean for the next
/// op.
fn transaction(
    statements: &[String],
    exec: &mut dyn FnMut(&str) -> oltap_common::Result<Answer>,
) -> Result<(), String> {
    for (n, stmt) in statements.iter().enumerate() {
        let is_dml = n > 0 && n + 1 < statements.len();
        let failure = match exec(stmt) {
            Ok(a) if is_dml && a.count != 1 => Some(format!("`{stmt}` touched {} rows", a.count)),
            Ok(_) => None,
            Err(e) => Some(format!("`{stmt}`: {e}")),
        };
        if let Some(why) = failure {
            if is_dml {
                let _ = exec("ROLLBACK");
            }
            return Err(why);
        }
    }
    Ok(())
}

/// After the WAL has been reopened: how many of the acknowledged
/// transactions are not fully there. A NewOrder needs its `orders` row and
/// every `order_line` row; a Payment needs its customer to carry the
/// balance, year-to-date total and payment count that all acknowledged
/// payments add up to.
pub fn verify_reopened(
    db: &Arc<Database>,
    pop: &Population,
    committed: &[Op],
) -> (u64, Vec<String>) {
    let read_ts = db.txn_manager().now();
    let get = |table: &str, key: Row| -> Option<Row> {
        db.table(table)
            .and_then(|t| t.get(&key, read_ts, snapshot_reader()))
            .ok()
            .flatten()
    };

    let mut customers: HashMap<(i64, i64, i64), (f64, f64, i64)> = HashMap::new();
    for op in committed {
        if let Op::Payment(Payment { w, d, c, amount }) = op {
            let e = customers.entry((*w, *d, *c)).or_insert_with(|| {
                let row = pop.customer(*w, *d, *c);
                (
                    row.get(5).as_float().unwrap_or(f64::NAN),
                    row.get(6).as_float().unwrap_or(f64::NAN),
                    row.get(7).as_int().unwrap_or(i64::MIN),
                )
            });
            e.0 -= amount;
            e.1 += amount;
            e.2 += 1;
        }
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let customer_ok = |key: &(i64, i64, i64), want: &(f64, f64, i64)| -> bool {
        let Some(row) = get(
            "customer",
            PointKey::Customer(key.0, key.1, key.2).key_row(),
        ) else {
            return false;
        };
        matches!(
            (row.get(5).as_float(), row.get(6).as_float(), row.get(7).as_int()),
            (Ok(bal), Ok(ytd), Ok(cnt)) if close(bal, want.0) && close(ytd, want.1) && cnt == want.2
        )
    };
    let customer_state: HashMap<(i64, i64, i64), bool> = customers
        .iter()
        .map(|(k, want)| (*k, customer_ok(k, want)))
        .collect();

    let new_order_ok = |no: &NewOrder| -> bool {
        let key = |r: &Row, n: usize| Row::new(r.values()[..n].to_vec());
        let order = no.order_row();
        get("orders", key(&order, 3)).as_ref() == Some(&order)
            && no
                .line_rows()
                .iter()
                .all(|line| get("order_line", key(line, 4)).as_ref() == Some(line))
    };

    let mut failed = 0;
    let mut examples = Vec::new();
    for op in committed {
        let ok = match op {
            Op::NewOrder(no) => new_order_ok(no),
            Op::Payment(p) => customer_state[&(p.w, p.d, p.c)],
            _ => true,
        };
        if !ok {
            failed += 1;
            if examples.len() < 5 {
                examples.push(format!("after reopen, not all of {op:?} is there"));
            }
        }
    }
    (failed, examples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_depends_on_values_and_order() {
        let a = Row::new(vec![Value::Int(1), Value::Str("x".into())]);
        let b = Row::new(vec![Value::Int(2), Value::Str("x".into())]);
        assert_eq!(
            checksum(&[a.clone(), b.clone()]),
            checksum(&[a.clone(), b.clone()])
        );
        assert_ne!(checksum(&[a.clone(), b.clone()]), checksum(&[b, a.clone()]));
        assert_ne!(checksum(&[a]), checksum(&[]));
    }
}
