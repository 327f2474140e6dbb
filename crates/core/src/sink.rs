//! The write sink every DML statement ends in.
//!
//! An `INSERT` hands it its rows. An `UPDATE` or `DELETE` hands it the
//! batches of the plan that finds its rows — the `SELECT * … WHERE` it
//! implies, planned and run as that SELECT is ([`crate::prepared`]) — and an
//! `UPDATE` evaluates its `SET` list over each batch. Nothing is written
//! until every target is known, so a statement never sees its own writes
//! and a failure in any row (a `SET` that divides by zero, a mistyped
//! value) changes no row.
//!
//! [`WriteSink::apply`] then writes in one fixed order: the delete of every
//! row whose key changes, the in-place updates, the inserts, each redo op
//! pushed as its write lands. A key is so checked against the statement's
//! end state, not row by row in scan order: `SET id = id + 1` succeeds as
//! `SET id = id - 1` does, and a key moved onto a live row the statement
//! did not move away is a `DuplicateKey` found after writing (DESIGN.md
//! item 6). The redo log replays the same order.

use crate::catalog::TableHandle;
use oltap_common::{Batch, Result, Row, Schema};
use oltap_exec::Expr;
use oltap_txn::wal::WalOp;
use oltap_txn::Transaction;

/// The writes of one DML statement, gathered before any is made.
pub(crate) struct WriteSink<'a> {
    /// The table's schema: the batches fed in are its rows, every column
    /// in order.
    schema: &'a Schema,
    /// Keys of the rows removed: deleted rows, and rows whose key changes.
    deletes: Vec<Row>,
    /// (key, new row) of the rows changed in place.
    updates: Vec<(Row, Row)>,
    /// Rows added: inserted rows, and key-changed rows at their new key.
    inserts: Vec<Row>,
    /// Target rows: what the statement reports as affected.
    rows: usize,
}

impl<'a> WriteSink<'a> {
    pub(crate) fn new(schema: &'a Schema) -> Self {
        WriteSink {
            schema,
            deletes: Vec::new(),
            updates: Vec::new(),
            inserts: Vec::new(),
            rows: 0,
        }
    }

    /// `row` is inserted.
    pub(crate) fn insert(&mut self, row: Row) {
        self.inserts.push(row);
        self.rows += 1;
    }

    /// Every row of `batch` is deleted.
    pub(crate) fn delete(&mut self, batch: &Batch) {
        self.deletes
            .extend((0..batch.len()).map(|r| self.schema.key_of(&batch.row(r))));
        self.rows += batch.len();
    }

    /// Every row of `batch` becomes itself with each `(column, value)` of
    /// `set` assigned, the values evaluated over the old rows.
    pub(crate) fn update(&mut self, set: &[(usize, Expr)], batch: &Batch) -> Result<()> {
        let values = set
            .iter()
            .map(|(_, e)| e.eval_batch(batch))
            .collect::<Result<Vec<_>>>()?;
        for r in 0..batch.len() {
            let mut row = batch.row(r);
            let key = self.schema.key_of(&row);
            for ((c, _), column) in set.iter().zip(&values) {
                let v = column.value_at(r);
                v.check_type(self.schema.field(*c).data_type)?;
                row.values_mut()[*c] = v;
            }
            let pk = self.schema.primary_key();
            if pk.iter().zip(key.values()).all(|(&c, k)| row.values()[c] == *k) {
                self.updates.push((key, row));
            } else {
                self.deletes.push(key);
                self.inserts.push(row);
            }
        }
        self.rows += batch.len();
        Ok(())
    }

    /// Makes the writes under `txn` — deletes, then updates, then inserts —
    /// pushing each one's redo op onto `ops` once it has landed, and
    /// returns the target row count. A failed statement wrote something
    /// exactly when `ops` is not empty.
    pub(crate) fn apply(
        self,
        txn: &Transaction,
        handle: &TableHandle,
        table: &str,
        ops: &mut Vec<WalOp>,
    ) -> Result<usize> {
        for key in self.deletes {
            handle.delete(txn, &key)?;
            ops.push(WalOp::Delete {
                table: table.to_string(),
                key,
            });
        }
        for (key, row) in self.updates {
            handle.update(txn, &key, row.clone())?;
            ops.push(WalOp::Update {
                table: table.to_string(),
                key,
                row,
            });
        }
        for row in self.inserts {
            handle.insert(txn, row.clone())?;
            ops.push(WalOp::Insert {
                table: table.to_string(),
                row,
            });
        }
        Ok(self.rows)
    }
}
