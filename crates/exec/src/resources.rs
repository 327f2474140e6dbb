//! Per-query execution resources: the memory budget and the spill
//! directory the pipeline breakers degrade into when it runs dry.
//!
//! [`ExecResources`] is deliberately cheap and cloneable: every pipeline
//! worker's sink holds a clone sharing one underlying [`MemoryBudget`]
//! account and one scratch [`SpillDir`], so the whole query is metered as
//! a unit at any worker count.
//! The default is unlimited-and-spill-less, which keeps every existing
//! construction path working unchanged.

use oltap_common::mem::MemoryBudget;
use oltap_common::{DbError, Result};
use oltap_storage::spill::SpillDir;
use std::sync::Arc;

/// The memory/spill context a query executes under.
#[derive(Debug, Clone, Default)]
pub struct ExecResources {
    /// Shared per-query memory account.
    pub budget: MemoryBudget,
    /// Scratch directory for spill files; `None` means reservation
    /// failures are terminal ([`DbError::ResourceExhausted`]).
    pub spill: Option<Arc<SpillDir>>,
}

impl ExecResources {
    /// Unlimited budget, no spill directory — the zero-cost default.
    pub fn unlimited() -> Self {
        ExecResources::default()
    }

    /// A metered context. Operators spill into `spill` when `budget`
    /// rejects a reservation.
    pub fn new(budget: MemoryBudget, spill: Option<Arc<SpillDir>>) -> Self {
        ExecResources { budget, spill }
    }

    /// True if reservations can fail (operators skip size estimation
    /// entirely otherwise).
    pub fn is_limited(&self) -> bool {
        self.budget.is_limited()
    }

    /// The spill directory, or a typed error carrying the failed
    /// reservation if none is configured. `cause` is the
    /// [`DbError::ResourceExhausted`] from the rejected reservation.
    pub fn spill_dir(&self, cause: DbError) -> Result<&Arc<SpillDir>> {
        self.spill.as_ref().ok_or(cause)
    }
}
