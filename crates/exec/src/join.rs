//! Radix-partitioned hash joins (inner and left outer) on equality keys.
//!
//! The build side is hashed into `2^PARTITION_BITS` partitions by the top
//! bits of the combined key hash; each partition is a key index of its
//! distinct keys, each key's rows chained behind it, plus packed payload
//! values — no per-key `Row` boxing, no pointer chasing through a
//! `HashMap<Row, Vec<Row>>`. Probe batches hash their key columns in place
//! and match them where they stand (`keys`: one vectorized kernel per
//! column type, `Value` equality), then walk the chain by index. A spilled
//! partition is one `keys` record a build row: its sequence number, hash,
//! key and payload.
//!
//! Determinism: build entries are tagged with a sequence number
//! `(morsel_index << 32) | row` and each partition is sorted by it before
//! the slot table is built, so builds at any worker count (any worker
//! interleaving) produce byte-identical tables, and duplicate-key fan-out
//! order is the build side's morsel order. [`JoinTableBuilder::merge`] is
//! therefore order-insensitive, like the aggregate/sort sink merges.
//!
//! Sideways information passing: a finished [`JoinTable`] exports a
//! [`JoinFilter`] (blocked Bloom filter + per-key min/max + build count)
//! that the planner attaches to the probe-side scan predicate, so storage
//! skips segments (zone-map envelope test) and rows (Bloom membership)
//! that provably have no join partner. The filter has no false negatives;
//! false positives are re-checked exactly here at probe time.

use crate::expr::Expr;
use crate::keys::{self, KeyIndex, NONE};
use crate::resources::ExecResources;
use oltap_common::bloom::BlockedBloom;
use oltap_common::schema::SchemaRef;
use oltap_common::vector::ColumnVector;
use oltap_common::{Batch, DbError, Result, Schema, Value};
use oltap_storage::predicate::JoinFilter;
use oltap_storage::spill::SpillHandle;
use std::sync::Arc;

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Emit matching pairs only.
    Inner,
    /// Emit every left row; unmatched rows pad the right side with NULLs.
    Left,
}

/// Output schema of a hash join: left fields followed by right fields
/// (nullable under LEFT since unmatched rows pad with NULLs), with
/// repeated names disambiguated mechanically.
pub fn join_output_schema(left: &Schema, right: &Schema, join_type: JoinType) -> SchemaRef {
    let mut fields = left.fields().to_vec();
    fields.extend(right.fields().iter().cloned().map(|mut f| {
        if join_type == JoinType::Left {
            f.nullable = true;
        }
        f
    }));
    for i in 0..fields.len() {
        if fields[..i].iter().any(|f| f.name == fields[i].name) {
            fields[i].name = format!("{}#{}", fields[i].name, i);
        }
    }
    Arc::new(Schema::new(fields))
}

/// log2 of the radix partition count. 16 partitions keeps each
/// partition's slot table small enough to stay cache-resident for
/// dimension-sized build sides while still spreading skewed key spaces.
pub const PARTITION_BITS: u32 = 4;
const PARTITIONS: usize = 1 << PARTITION_BITS;

/// Radix partition of a combined key hash (top bits, leaving the low bits
/// for the slot index and the middle bits for the Bloom filter).
#[inline]
fn partition_of(hash: u64) -> usize {
    (hash >> (64 - PARTITION_BITS)) as usize
}

/// One radix partition of a finished [`JoinTable`]: its distinct keys,
/// each one's entries (build rows) chained in arrival order, and the
/// packed payload values of the entries.
#[derive(Debug)]
struct JoinPartition {
    keys: KeyIndex,
    /// The first entry of each key.
    heads: Vec<u32>,
    /// Next entry with the same key (`NONE` = end of chain), preserving
    /// build arrival order so duplicate fan-out is deterministic.
    next: Vec<u32>,
    /// Packed payload (full build row) values, `build_width` per entry.
    rows: Vec<Value>,
}

/// The finished, immutable build side of a radix-partitioned hash join.
#[derive(Debug)]
pub struct JoinTable {
    partitions: Vec<JoinPartition>,
    build_width: usize,
    /// Build rows in the table (NULL-keyed rows excluded).
    build_rows: usize,
    /// Bloom filter over every entry's combined key hash.
    bloom: Arc<BlockedBloom>,
    /// Min/max per key column (None when the build side is empty).
    key_ranges: Vec<Option<(Value, Value)>>,
}

impl JoinTable {
    /// Derives the sideways scan filter. `columns` are the probe-side
    /// table ordinals of the key columns, positionally matching the build
    /// keys; the planner fills them per scan (a template with empty
    /// columns is valid and is completed at the scan site).
    pub fn filter(&self, columns: Vec<usize>) -> JoinFilter {
        JoinFilter {
            columns,
            ranges: self.key_ranges.clone(),
            bloom: Arc::clone(&self.bloom),
            build_rows: self.build_rows,
        }
    }

    /// Finds the chain head matching row `i` of the probe key columns,
    /// returning `(partition, entry)`.
    fn find(&self, hash: u64, key_cols: &[ColumnVector], i: usize) -> Option<(u32, u32)> {
        let p = partition_of(hash);
        let part = &self.partitions[p];
        let key = part.keys.find(hash, |k| keys::eq_row(key_cols, i, k)).ok()?;
        Some((p as u32, part.heads[key as usize]))
    }
}

/// One partition's accumulating build data: entries in push order, each
/// tagged with its global sequence number for the deterministic sort in
/// [`JoinTableBuilder::finish`].
#[derive(Debug, Default)]
struct PartitionSink {
    seqs: Vec<u64>,
    hashes: Vec<u64>,
    keys: Vec<Value>,
    rows: Vec<Value>,
    /// Budget-charged bytes of the in-memory entries above.
    mem_bytes: u64,
    /// Chunks of this partition previously spilled to disk; reloaded in
    /// [`JoinTableBuilder::finish`]. Chunk order is irrelevant — every
    /// entry carries its sequence number.
    spilled: Vec<SpillHandle>,
}

/// Fixed per-entry accounting overhead: sequence number + hash.
const ENTRY_OVERHEAD: u64 = 16;

/// Approximate footprint of one column value at row `i`, without
/// materializing it (strings stay borrowed).
#[inline]
fn col_value_size(col: &ColumnVector, i: usize) -> usize {
    std::mem::size_of::<Value>()
        + match col {
            ColumnVector::Utf8 { values, .. } => values[i].len(),
            _ => 0,
        }
}

/// Accumulates build-side batches into radix partitions. Each pipeline
/// worker owns one builder; [`merge`](Self::merge) concatenates them in
/// any order and [`finish`](Self::finish) restores morsel order.
///
/// Memory-bounded when built [`with_resources`](Self::with_resources):
/// every appended batch is charged to the query's budget first, and a
/// rejected reservation spills whole radix partitions (largest first) to
/// the query's scratch dir until the charge fits. Spilled entries carry
/// their sequence numbers, so [`finish`](Self::finish) reloads them and
/// restores exactly the table an unbounded build produces.
#[derive(Debug)]
pub struct JoinTableBuilder {
    key_width: usize,
    build_width: usize,
    parts: Vec<PartitionSink>,
    scratch_hashes: Vec<u64>,
    scratch_null: Vec<bool>,
    res: ExecResources,
    /// Budget bytes currently held (== Σ partition `mem_bytes`).
    reserved: u64,
}

impl JoinTableBuilder {
    /// A builder for `key_width` join keys over `build_width`-column rows,
    /// with an unlimited budget (no spilling).
    pub fn new(key_width: usize, build_width: usize) -> Self {
        Self::with_resources(key_width, build_width, ExecResources::unlimited())
    }

    /// A memory-bounded builder: appends are charged to `res.budget` and
    /// degrade into partition spills under pressure.
    pub fn with_resources(key_width: usize, build_width: usize, res: ExecResources) -> Self {
        JoinTableBuilder {
            key_width,
            build_width,
            parts: (0..PARTITIONS).map(|_| PartitionSink::default()).collect(),
            scratch_hashes: Vec::new(),
            scratch_null: Vec::new(),
            res,
            reserved: 0,
        }
    }

    /// Number of partition spill chunks written so far (tests/stats).
    pub fn spill_chunks(&self) -> usize {
        self.parts.iter().map(|p| p.spilled.len()).sum()
    }

    /// Reserves `bytes` for entries about to be appended, spilling whole
    /// partitions (largest resident first) until the reservation fits.
    /// When everything resident is already on disk, the incoming batch
    /// itself is the working-set floor and is force-accounted.
    fn charge(&mut self, bytes: u64) -> Result<()> {
        if !self.res.is_limited() || bytes == 0 {
            return Ok(());
        }
        loop {
            match self.res.budget.try_reserve(bytes) {
                Ok(()) => {
                    self.reserved += bytes;
                    return Ok(());
                }
                Err(err) => {
                    let victim = (0..PARTITIONS)
                        .filter(|&p| self.parts[p].mem_bytes > 0)
                        .max_by_key(|&p| self.parts[p].mem_bytes);
                    let Some(p) = victim else {
                        if self.res.spill.is_some() {
                            self.res.budget.reserve_forced(bytes);
                            self.reserved += bytes;
                            return Ok(());
                        }
                        return Err(err);
                    };
                    // No spill directory: the typed error is terminal.
                    self.res.spill_dir(err)?;
                    self.spill_partition(p)?;
                }
            }
        }
    }

    /// Writes partition `p`'s resident entries to one spill chunk and
    /// releases their reservation.
    fn spill_partition(&mut self, p: usize) -> Result<()> {
        let dir = Arc::clone(self.res.spill.as_ref().ok_or_else(|| {
            DbError::Execution("join spill requested without a spill dir".into())
        })?);
        self.res.budget.note_spill();
        let kw = self.key_width;
        let bw = self.build_width;
        let part = &mut self.parts[p];
        let mut w = dir.writer(&format!("join-p{p}"))?;
        for e in 0..part.seqs.len() {
            let (key, row) = (&part.keys[e * kw..][..kw], &part.rows[e * bw..][..bw]);
            keys::write_record(&mut w, part.seqs[e], part.hashes[e], &[key, row])?;
        }
        let mut spilled = std::mem::take(&mut part.spilled);
        spilled.push(w.finish()?);
        let freed = std::mem::replace(part, PartitionSink { spilled, ..PartitionSink::default() }).mem_bytes;
        self.res.budget.release(freed);
        self.reserved -= freed;
        Ok(())
    }

    /// Appends one build batch. `key_cols` are the evaluated key
    /// expressions over `batch`; `morsel_index` is the batch's position in
    /// the build source and orders entries deterministically.
    pub fn push_batch(
        &mut self,
        key_cols: &[ColumnVector],
        batch: &Batch,
        morsel_index: usize,
    ) -> Result<()> {
        debug_assert_eq!(key_cols.len(), self.key_width);
        keys::hash_rows(key_cols, 0..batch.len(), &mut self.scratch_hashes, &mut self.scratch_null);
        let metered = self.res.is_limited();
        let size = |i: usize| {
            let values = key_cols.iter().chain(batch.columns());
            ENTRY_OVERHEAD + values.map(|c| col_value_size(c, i) as u64).sum::<u64>()
        };
        if metered {
            // Pre-pass: charge the whole batch before appending anything,
            // so a failed reservation can spill without a half-added batch.
            let joining = (0..batch.len()).filter(|&i| !self.scratch_null[i]);
            let bytes = joining.map(size).sum();
            self.charge(bytes)?;
        }
        for i in 0..batch.len() {
            // SQL equality: NULL keys never join.
            if self.scratch_null[i] {
                continue;
            }
            let h = self.scratch_hashes[i];
            let part = &mut self.parts[partition_of(h)];
            part.seqs.push(((morsel_index as u64) << 32) | i as u64);
            part.hashes.push(h);
            if metered {
                part.mem_bytes += size(i);
            }
            for c in key_cols {
                part.keys.push(c.value_at(i));
            }
            for c in batch.columns() {
                part.rows.push(c.value_at(i));
            }
        }
        Ok(())
    }

    /// Merges another worker's partitions into this one. Order-insensitive:
    /// `finish` sorts each partition by sequence number. Spilled chunks
    /// and budget reservations transfer wholesale (the workers share one
    /// per-query budget, so no re-charging happens here).
    pub fn merge(&mut self, mut other: JoinTableBuilder) {
        debug_assert_eq!(self.key_width, other.key_width);
        debug_assert_eq!(self.build_width, other.build_width);
        for (mine, theirs) in self.parts.iter_mut().zip(other.parts.drain(..)) {
            mine.seqs.extend(theirs.seqs);
            mine.hashes.extend(theirs.hashes);
            mine.keys.extend(theirs.keys);
            mine.rows.extend(theirs.rows);
            mine.mem_bytes += theirs.mem_bytes;
            mine.spilled.extend(theirs.spilled);
        }
        self.reserved += std::mem::take(&mut other.reserved);
    }

    /// Freezes the builder into an immutable [`JoinTable`]: reloads any
    /// spilled partition chunks (the finished table is resident — its
    /// footprint is force-accounted, which is admission control's concern,
    /// not the build loop's), sorts each partition into morsel order,
    /// builds the open-addressing slot tables with duplicate
    /// chains, and derives the Bloom filter and key envelopes for
    /// sideways information passing.
    pub fn finish(mut self) -> Result<JoinTable> {
        let kw = self.key_width;
        let bw = self.build_width;
        // Reload spilled entries. Chunk order within a partition does not
        // matter: the sequence sort below restores morsel order.
        for part in &mut self.parts {
            for handle in std::mem::take(&mut part.spilled) {
                self.res.budget.reserve_forced(handle.bytes());
                self.reserved += handle.bytes();
                let mut r = handle.reader()?;
                while let Some(rec) = keys::read_record(&mut r, kw + bw)? {
                    part.seqs.push(rec.tag);
                    part.hashes.push(rec.hash);
                    let mut vals = rec.values.into_iter();
                    part.keys.extend(vals.by_ref().take(kw));
                    part.rows.extend(vals);
                }
            }
        }
        let total: usize = self.parts.iter().map(|p| p.seqs.len()).sum();
        let mut bloom = BlockedBloom::with_capacity(total.max(1));
        let mut key_ranges: Vec<Option<(Value, Value)>> = vec![None; kw];
        let partitions = self
            .parts
            .drain(..)
            .map(|sink| {
                let PartitionSink {
                    seqs,
                    hashes: src_hashes,
                    keys: mut src_keys,
                    rows: mut src_rows,
                    ..
                } = sink;
                let n = seqs.len();
                // Morsel order, regardless of merge order; distinct keys
                // claim a key, duplicates chain behind its last entry.
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by_key(|&i| seqs[i as usize]);
                let take = |v: &mut Value| std::mem::replace(v, Value::Null);
                let mut keys = KeyIndex::with_capacity(kw, n);
                let (mut heads, mut tails, mut next) = (Vec::new(), Vec::new(), vec![NONE; n]);
                let mut rows = Vec::with_capacity(n * bw);
                for (e, &i) in order.iter().enumerate() {
                    let (i, e) = (i as usize, e as u32);
                    let h = src_hashes[i];
                    let key = &mut src_keys[i * kw..][..kw];
                    match keys.find(h, |k| k == &key[..]) {
                        Ok(k) => {
                            next[tails[k as usize] as usize] = e;
                            tails[k as usize] = e;
                        }
                        Err(slot) => {
                            keys.insert(slot, h, key.iter_mut().map(take));
                            heads.push(e);
                            tails.push(e);
                        }
                    }
                    rows.extend(src_rows[i * bw..][..bw].iter_mut().map(take));
                }
                for k in 0..keys.len() as u32 {
                    bloom.insert(keys.hash(k));
                    for (range, v) in key_ranges.iter_mut().zip(keys.key(k)) {
                        let (lo, hi) = range.get_or_insert_with(|| (v.clone(), v.clone()));
                        if v < lo {
                            *lo = v.clone();
                        } else if v > hi {
                            *hi = v.clone();
                        }
                    }
                }
                JoinPartition {
                    keys,
                    heads,
                    next,
                    rows,
                }
            })
            .collect();
        Ok(JoinTable {
            partitions,
            build_width: bw,
            build_rows: total,
            bloom: Arc::new(bloom),
            key_ranges,
        })
    }
}

/// Reusable probe-side buffers, kept across batches so the per-batch probe
/// allocates nothing in steady state (no per-probe-key `Row`s).
#[derive(Debug, Default)]
pub struct ProbeScratch {
    hashes: Vec<u64>,
    null_key: Vec<bool>,
    /// Left-batch row index per output row.
    sel: Vec<u32>,
    /// Matched `(partition, entry)` per output row; `(NONE, NONE)` means a
    /// LEFT-join NULL pad.
    matches: Vec<(u32, u32)>,
}

impl ProbeScratch {
    /// Fresh scratch buffers.
    pub fn new() -> Self {
        ProbeScratch::default()
    }
}

/// Probes the build `table` with one batch of left rows, producing the
/// joined batch (`None` when nothing in the batch matched under an inner
/// join). This is the per-batch body of the pipeline's probe stage. Key columns
/// are hashed in place; the output is assembled column-wise (left columns
/// gathered by selection vector, right columns copied from the packed
/// build payload).
pub fn probe_batch(
    table: &JoinTable,
    keys: &[Expr],
    join_type: JoinType,
    schema: &SchemaRef,
    batch: &Batch,
    scratch: &mut ProbeScratch,
) -> Result<Option<Batch>> {
    let key_cols = Expr::eval_all(keys, batch)?;
    keys::hash_rows(&key_cols, 0..batch.len(), &mut scratch.hashes, &mut scratch.null_key);
    scratch.sel.clear();
    scratch.matches.clear();
    // Software-pipelined probe: walk the batch in small chunks, first
    // issuing a prefetch for every key's slot line, then resolving the
    // probes. By resolve time the chunk's cache misses overlap instead of
    // serializing; output order is identical to the row-at-a-time loop.
    for chunk in 0..batch.len().div_ceil(PROBE_CHUNK) {
        let start = chunk * PROBE_CHUNK;
        let end = (start + PROBE_CHUNK).min(batch.len());
        for i in start..end {
            if !scratch.null_key[i] {
                let h = scratch.hashes[i];
                table.partitions[partition_of(h)].keys.prefetch(h);
            }
        }
        for i in start..end {
            if scratch.null_key[i] {
                if join_type == JoinType::Left {
                    scratch.sel.push(i as u32);
                    scratch.matches.push((NONE, NONE));
                }
                continue;
            }
            match table.find(scratch.hashes[i], &key_cols, i) {
                Some((p, head)) => {
                    let part = &table.partitions[p as usize];
                    let mut e = head;
                    loop {
                        scratch.sel.push(i as u32);
                        scratch.matches.push((p, e));
                        e = part.next[e as usize];
                        if e == NONE {
                            break;
                        }
                    }
                }
                None if join_type == JoinType::Left => {
                    scratch.sel.push(i as u32);
                    scratch.matches.push((NONE, NONE));
                }
                None => {}
            }
        }
    }
    if scratch.sel.is_empty() {
        return Ok(None);
    }
    let mut columns = batch.take(&scratch.sel).into_columns();
    let left_width = columns.len();
    let bw = table.build_width;
    for j in 0..bw {
        let mut col = ColumnVector::new(schema.field(left_width + j).data_type);
        gather_build_column(&mut col, table, j, &scratch.matches)?;
        columns.push(col);
    }
    Ok(Some(Batch::new(columns)?))
}

/// Rows probed per software-pipelining chunk. 64 keys × one slot line each
/// comfortably fits the L1 miss queue without outrunning it.
const PROBE_CHUNK: usize = 64;

/// Copies packed build-payload column `j` into `col` for every match.
/// The typed prefix pushes dense values directly (no per-value [`Value`]
/// dispatch); the first NULL pad, NULL build value, or cross-type value
/// drops to the generic `push` tail, which handles validity promotion.
fn gather_build_column(
    col: &mut ColumnVector,
    table: &JoinTable,
    j: usize,
    matches: &[(u32, u32)],
) -> Result<()> {
    let bw = table.build_width;
    let value_of = |p: u32, e: u32| &table.partitions[p as usize].rows[e as usize * bw + j];
    let mut k = 0;
    // The typed prefix: matched values of the column's own type.
    macro_rules! prefix {
        ($values:expr, $typed:pat => $v:expr) => {{
            $values.reserve(matches.len());
            while let Some(&(p, e)) = matches.get(k).filter(|&&(_, e)| e != NONE) {
                match value_of(p, e) {
                    $typed => $values.push($v),
                    _ => break,
                }
                k += 1;
            }
        }};
    }
    match col {
        ColumnVector::Int64 { values, .. } => prefix!(values, Value::Int(x) | Value::Timestamp(x) => *x),
        ColumnVector::Float64 { values, .. } => prefix!(values, Value::Float(x) => *x),
        ColumnVector::Utf8 { values, .. } => prefix!(values, Value::Str(s) => s.clone()),
        // Bool is bit-packed; the generic push is already cheap.
        ColumnVector::Bool { .. } => {}
    }
    for &(p, e) in &matches[k..] {
        col.push(if e == NONE { &Value::Null } else { value_of(p, e) })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{ctx, rows_of};
    use crate::pipeline::{ProbeStage, StageSpec};
    use oltap_common::hash::{join_hash_combine, join_hash_int, JOIN_KEY_SEED};
    use oltap_common::row;
    use oltap_common::{DataType, Field, Row};

    /// A join input: its schema and batches.
    type Input = (SchemaRef, Vec<Batch>);

    fn input(schema: SchemaRef, rows: &[Row]) -> Input {
        let batches = if rows.is_empty() {
            Vec::new()
        } else {
            vec![Batch::from_rows(&schema, rows).unwrap()]
        };
        (schema, batches)
    }

    /// The probe key list `[#0]`.
    fn key0() -> Vec<Expr> {
        vec![Expr::col(0)]
    }

    fn orders() -> Input {
        let schema = Arc::new(Schema::new(vec![
            Field::new("oid", DataType::Int64),
            Field::new("cust", DataType::Int64),
            Field::new("amt", DataType::Int64),
        ]));
        let rows = vec![
            row![1i64, 10i64, 100i64],
            row![2i64, 20i64, 200i64],
            row![3i64, 10i64, 300i64],
            row![4i64, 99i64, 400i64], // no matching customer
            Row::new(vec![Value::Int(5), Value::Null, Value::Int(500)]),
        ];
        input(schema, &rows)
    }

    fn customers() -> Input {
        let schema = Arc::new(Schema::new(vec![
            Field::new("cid", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        let rows = vec![row![10i64, "ada"], row![20i64, "bob"], row![30i64, "cat"]];
        input(schema, &rows)
    }

    /// Hash-joins `left` to `right` on a one-worker pipeline (build sink,
    /// then a probe stage over the left batches); rows come back sorted.
    fn hash_join(
        left: Input,
        right: Input,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        join_type: JoinType,
    ) -> Vec<Row> {
        let c = ctx(1);
        let table = c
            .run_join_build(right.1, Vec::new(), right_keys, right.0.len())
            .unwrap();
        let probe = StageSpec::Probe(Arc::new(ProbeStage {
            table: Arc::new(table),
            keys: left_keys,
            join_type,
            schema: join_output_schema(&left.0, &right.0, join_type),
        }));
        let mut rows = rows_of(&c.run_collect(left.1, vec![probe]).unwrap());
        rows.sort();
        rows
    }

    #[test]
    fn inner_join_matches() {
        let rows = hash_join(
            orders(),
            customers(),
            vec![Expr::col(1)],
            vec![Expr::col(0)],
            JoinType::Inner,
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][4], Value::Str("ada".into()));
        // NULL keys never join; order 4 has no match.
        assert!(!rows.iter().any(|r| r[0] == Value::Int(4)));
        assert!(!rows.iter().any(|r| r[0] == Value::Int(5)));
    }

    #[test]
    fn left_join_pads_with_nulls() {
        let rows = hash_join(
            orders(),
            customers(),
            vec![Expr::col(1)],
            vec![Expr::col(0)],
            JoinType::Left,
        );
        assert_eq!(rows.len(), 5);
        let unmatched: Vec<&Row> = rows
            .iter()
            .filter(|r| r[0] == Value::Int(4) || r[0] == Value::Int(5))
            .collect();
        assert_eq!(unmatched.len(), 2);
        for r in unmatched {
            assert_eq!(r[3], Value::Null);
            assert_eq!(r[4], Value::Null);
        }
    }

    fn int_keys(name: &str, keys: &[i64]) -> Input {
        let schema = Arc::new(Schema::new(vec![Field::new(name, DataType::Int64)]));
        let rows: Vec<Row> = keys.iter().map(|&k| row![k]).collect();
        input(schema, &rows)
    }

    #[test]
    fn left_join_fully_unmatched_probe() {
        // No probe key appears on the build side: every row NULL-pads.
        let rows = hash_join(
            orders(),
            int_keys("cid", &[1000, 2000]),
            vec![Expr::col(1)],
            vec![Expr::col(0)],
            JoinType::Left,
        );
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[3] == Value::Null));
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        // Two customers with the same id value on the build side.
        let rows = hash_join(
            orders(),
            int_keys("cid", &[10, 10]),
            vec![Expr::col(1)],
            vec![Expr::col(0)],
            JoinType::Inner,
        );
        // Orders 1 and 3 have cust=10 → 2 × 2 = 4 output rows.
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn multi_column_keys() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]));
        let left_rows = vec![row![1i64, 1i64], row![1i64, 2i64], row![2i64, 1i64]];
        let right_rows = vec![row![1i64, 1i64], row![2i64, 1i64]];
        let rows = hash_join(
            input(Arc::clone(&schema), &left_rows),
            input(schema, &right_rows),
            vec![Expr::col(0), Expr::col(1)],
            vec![Expr::col(0), Expr::col(1)],
            JoinType::Inner,
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_sides() {
        // Empty build: inner join yields nothing, left join pads all.
        let rows = hash_join(
            int_keys("a", &[1]),
            int_keys("a", &[]),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            JoinType::Inner,
        );
        assert!(rows.is_empty());

        let rows = hash_join(
            int_keys("a", &[1]),
            int_keys("a", &[]),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            JoinType::Left,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Null);

        // Empty probe: nothing to emit under either join type.
        for join_type in [JoinType::Inner, JoinType::Left] {
            let rows = hash_join(
                int_keys("a", &[]),
                int_keys("a", &[1]),
                vec![Expr::col(0)],
                vec![Expr::col(0)],
                join_type,
            );
            assert!(rows.is_empty());
        }
    }

    #[test]
    fn schema_disambiguates_names() {
        let (schema, _) = orders();
        let s = join_output_schema(&schema, &schema, JoinType::Inner);
        let names: Vec<&str> = s.fields().iter().map(|f| f.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names not unique: {names:?}");
    }

    /// Builds a [`JoinTable`] over single-column integer keys.
    fn int_table(keys: &[i64]) -> JoinTable {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let rows: Vec<Row> = keys.iter().map(|&k| row![k]).collect();
        let batch = Batch::from_rows(&schema, &rows).unwrap();
        let mut builder = JoinTableBuilder::new(1, 1);
        let key_cols = vec![batch.column(0).clone()];
        builder.push_batch(&key_cols, &batch, 0).unwrap();
        builder.finish().unwrap()
    }

    #[test]
    fn merge_order_does_not_change_table() {
        // Two workers contribute interleaved morsels; both merge orders
        // must yield identical probe results with serial fan-out order.
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let batch_for = |keys: &[i64]| {
            Batch::from_rows(&schema, &keys.iter().map(|&k| row![k]).collect::<Vec<_>>()).unwrap()
        };
        let build = |first_has_even: bool| {
            let mut a = JoinTableBuilder::new(1, 1);
            let mut b = JoinTableBuilder::new(1, 1);
            for (idx, keys) in [[7i64, 8], [7, 9], [8, 7]].iter().enumerate() {
                let batch = batch_for(keys);
                let cols = vec![batch.column(0).clone()];
                let target = if (idx % 2 == 0) == first_has_even { &mut a } else { &mut b };
                target.push_batch(&cols, &batch, idx).unwrap();
            }
            a.merge(b);
            a.finish().unwrap()
        };
        let t1 = build(true);
        let t2 = build(false);
        let probe = Batch::from_rows(&schema, &[row![7i64], row![8i64], row![9i64]]).unwrap();
        let out_schema = join_output_schema(&schema, &schema, JoinType::Inner);
        let mut s1 = ProbeScratch::new();
        let mut s2 = ProbeScratch::new();
        let o1 = probe_batch(&t1, &key0(), JoinType::Inner, &out_schema, &probe, &mut s1)
            .unwrap()
            .unwrap();
        let o2 = probe_batch(&t2, &key0(), JoinType::Inner, &out_schema, &probe, &mut s2)
            .unwrap()
            .unwrap();
        assert_eq!(o1.to_rows(), o2.to_rows());
        // Key 7 appears three times on the build side → fan-out of 3.
        assert_eq!(o1.to_rows().iter().filter(|r| r[0] == Value::Int(7)).count(), 3);
    }

    #[test]
    fn join_filter_is_exact_semi_join_superset() {
        // The derived filter must pass every joining key (no false
        // negatives), and probe results over filter-surviving rows must
        // equal results over all rows (false positives rejected at probe).
        let build_keys: Vec<i64> = (0..50).filter(|k| k % 2 == 0).collect();
        let table = int_table(&build_keys);
        let filter = table.filter(vec![0]);
        for &k in &build_keys {
            assert!(filter.matches_row(&row![k]), "false negative for {k}");
        }
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let all: Vec<Row> = (0..60i64).map(|k| row![k]).collect();
        let surviving: Vec<Row> = all.iter().filter(|r| filter.matches_row(r)).cloned().collect();
        let out_schema = join_output_schema(&schema, &schema, JoinType::Inner);
        let probe = |rows: &[Row]| -> Vec<Row> {
            if rows.is_empty() {
                return Vec::new();
            }
            let batch = Batch::from_rows(&schema, rows).unwrap();
            let mut scratch = ProbeScratch::new();
            probe_batch(&table, &key0(), JoinType::Inner, &out_schema, &batch, &mut scratch)
                .unwrap()
                .map(|b| b.to_rows())
                .unwrap_or_default()
        };
        assert_eq!(probe(&all), probe(&surviving));
        assert_eq!(probe(&all).len(), build_keys.len());
    }

    #[test]
    fn tiny_bloom_false_positives_rejected_at_probe() {
        use oltap_storage::predicate::JoinFilter as SipFilter;

        // Force a saturated one-word Bloom filter: most non-build keys
        // pass the filter (false positives) but the probe still rejects
        // them exactly.
        let build_keys: Vec<i64> = (0..64).map(|k| k * 3).collect();
        let table = int_table(&build_keys);
        let exact = table.filter(vec![0]);
        let mut tiny = BlockedBloom::with_words(1);
        for &k in &build_keys {
            tiny.insert(join_hash_combine(JOIN_KEY_SEED, join_hash_int(k)));
        }
        let filter = SipFilter {
            columns: vec![0],
            ranges: exact.ranges.clone(),
            bloom: Arc::new(tiny),
            build_rows: exact.build_rows,
        };
        let non_build: Vec<i64> = (0..190).filter(|k| k % 3 != 0).collect();
        let fp = non_build.iter().filter(|&&k| filter.matches_row(&row![k])).count();
        assert!(fp > 0, "expected the tiny filter to admit false positives");
        // Probing the false positives yields nothing: the join re-checks keys.
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let rows: Vec<Row> = non_build
            .iter()
            .filter(|&&k| filter.matches_row(&row![k]))
            .map(|&k| row![k])
            .collect();
        let batch = Batch::from_rows(&schema, &rows).unwrap();
        let out_schema = join_output_schema(&schema, &schema, JoinType::Inner);
        let mut scratch = ProbeScratch::new();
        let out = probe_batch(&table, &key0(), JoinType::Inner, &out_schema, &batch, &mut scratch)
            .unwrap();
        assert!(out.is_none(), "false positives must not produce join rows");
    }

    #[test]
    fn spilled_build_matches_in_memory_build() {
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};
        use oltap_storage::spill::SpillDir;

        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("tag", DataType::Utf8),
        ]));
        let batch_for = |lo: i64| {
            let rows: Vec<Row> = (lo..lo + 64).map(|k| row![k % 17, format!("t{k}")]).collect();
            Batch::from_rows(&schema, &rows).unwrap()
        };
        let build = |res: ExecResources| {
            let mut b = JoinTableBuilder::with_resources(1, 2, res);
            for (idx, lo) in [0i64, 64, 128, 192].into_iter().enumerate() {
                let batch = batch_for(lo);
                let cols = vec![batch.column(0).clone()];
                b.push_batch(&cols, &batch, idx).unwrap();
            }
            (b.spill_chunks(), b.finish().unwrap())
        };
        let (_, plain) = build(ExecResources::unlimited());
        // A budget far below the build size forces partition spills.
        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let budget = gov.budget(WorkloadClass::Olap, 2048);
        let dir = Arc::new(SpillDir::create_temp().unwrap());
        let (chunks, spilled) = build(ExecResources::new(budget.clone(), Some(Arc::clone(&dir))));
        assert!(chunks > 0, "tight budget must have spilled partitions");
        assert!(budget.spill_count() > 0);
        // Probe both tables: identical output including fan-out order.
        let probe = Batch::from_rows(
            &schema,
            &(0..17i64).map(|k| row![k, "p"]).collect::<Vec<_>>(),
        )
        .unwrap();
        let out_schema = join_output_schema(&schema, &schema, JoinType::Inner);
        let run = |t: &JoinTable| {
            let mut s = ProbeScratch::new();
            probe_batch(t, &key0(), JoinType::Inner, &out_schema, &probe, &mut s)
                .unwrap()
                .unwrap()
                .to_rows()
        };
        assert_eq!(run(&plain), run(&spilled));
    }

    /// A short or truncated record in a spilled partition chunk is the
    /// build's `Corruption` when it reloads, not a panic.
    #[test]
    fn a_damaged_build_chunk_is_corruption() {
        use crate::keys::tests::cut_first_records;
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};
        use oltap_storage::spill::SpillDir;

        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("tag", DataType::Utf8),
        ]));
        let rows: Vec<Row> = (0..256i64).map(|k| row![k % 17, format!("t{k}")]).collect();
        let batch = Batch::from_rows(&schema, &rows).unwrap();
        for keep in [Some(10), None] {
            let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
            let dir = Arc::new(SpillDir::create_temp().unwrap());
            let res = ExecResources::new(gov.budget(WorkloadClass::Olap, 2048), Some(Arc::clone(&dir)));
            let mut b = JoinTableBuilder::with_resources(1, 2, res);
            for m in 0..4 {
                b.push_batch(&[batch.column(0).clone()], &batch, m).unwrap();
            }
            assert!(b.spill_chunks() > 0, "a tight budget spills partitions");
            cut_first_records(&dir, keep);
            let err = b.finish().unwrap_err();
            assert!(matches!(err, DbError::Corruption(_)), "{keep:?}: {err}");
        }
    }

    #[test]
    fn budget_without_spill_dir_is_terminal() {
        use oltap_common::mem::{MemoryGovernor, WorkloadClass};

        let gov = MemoryGovernor::new(u64::MAX, u64::MAX, u64::MAX);
        let budget = gov.budget(WorkloadClass::Olap, 256);
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let rows: Vec<Row> = (0..512i64).map(|k| row![k]).collect();
        let batch = Batch::from_rows(&schema, &rows).unwrap();
        let mut b = JoinTableBuilder::with_resources(1, 1, ExecResources::new(budget, None));
        let cols = vec![batch.column(0).clone()];
        let err = b.push_batch(&cols, &batch, 0).unwrap_err();
        assert!(
            matches!(err, DbError::ResourceExhausted { .. }),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn cross_type_keys_join() {
        // Float(10.0) on the probe side joins Int(10) on the build side:
        // Value equality is cross-type, and the hash classes agree.
        let left_schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Float64)]));
        let rows = hash_join(
            input(left_schema, &[row![10.0f64], row![10.5f64]]),
            customers(),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            JoinType::Inner,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], Value::Str("ada".into()));
    }
}
