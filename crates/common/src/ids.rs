//! Newtype identifiers used across the engine.
//!
//! Keeping these as distinct types (rather than bare `u64`s) prevents an
//! entire class of "passed the segment id where the table id was expected"
//! bugs at zero runtime cost.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// The raw numeric id.
            #[inline]
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// Identifies a table in the catalog.
    TableId,
    "t"
);
define_id!(
    /// Identifies a column within a table (ordinal position).
    ColumnId,
    "c"
);
define_id!(
    /// Identifies an immutable columnar segment within a table.
    SegmentId,
    "seg"
);
define_id!(
    /// Identifies a transaction. Also used as the "transaction timestamp"
    /// namespace in the MVCC layer.
    TxnId,
    "txn"
);
define_id!(
    /// Identifies a node in the (simulated) cluster.
    NodeId,
    "node"
);
define_id!(
    /// Identifies a horizontal partition of a table.
    PartitionId,
    "p"
);

/// A stable physical locator for a row: which segment (or delta) it lives
/// in and its ordinal position there. `segment == None` means the row is in
/// the writable delta store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId {
    /// The containing segment, or `None` for the delta store.
    pub segment: Option<SegmentId>,
    /// Ordinal position within the segment/delta.
    pub offset: u32,
}

impl RowId {
    /// A row in the writable delta store.
    pub fn in_delta(offset: u32) -> Self {
        RowId {
            segment: None,
            offset,
        }
    }

    /// A row in an immutable main segment.
    pub fn in_segment(segment: SegmentId, offset: u32) -> Self {
        RowId {
            segment: Some(segment),
            offset,
        }
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.segment {
            Some(s) => write!(f, "{s}@{}", self.offset),
            None => write!(f, "delta@{}", self.offset),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(TableId(3).to_string(), "t3");
        assert_eq!(SegmentId(7).to_string(), "seg7");
        assert_eq!(NodeId(1).to_string(), "node1");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(TxnId(1) < TxnId(2));
        let mut set = std::collections::HashSet::new();
        set.insert(PartitionId(9));
        assert!(set.contains(&PartitionId(9)));
    }

    #[test]
    fn row_id_locations() {
        let d = RowId::in_delta(4);
        assert!(d.segment.is_none());
        let s = RowId::in_segment(SegmentId(2), 10);
        assert_eq!(s.to_string(), "seg2@10");
        assert_eq!(d.to_string(), "delta@4");
    }
}
