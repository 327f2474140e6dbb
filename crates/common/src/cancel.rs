//! Cooperative cancellation with deadlines.
//!
//! A [`CancellationToken`] is a cheap, cloneable handle checked at **batch
//! boundaries** in the vectorized executor: a long OLAP scan observes
//! cancellation within one batch (~1k rows) rather than running to
//! completion. Tokens carry an optional deadline, so a session-level
//! statement timeout and an explicit `cancel()` flow through one
//! mechanism; the admission controller looks at the same token to shed a
//! statement still queued for an OLAP slot once it trips.

use crate::error::{DbError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Optional parent: a child token also trips when any ancestor is
    /// cancelled or past its deadline. Lets a per-connection token fan
    /// out to per-query tokens (server drain / slow-client shedding
    /// cancels the in-flight statement through the same machinery as an
    /// explicit `cancel()`).
    parent: Option<Arc<Inner>>,
}

impl Inner {
    /// Walks this token and its ancestors; the first tripped condition
    /// wins, explicit cancellation taking precedence over deadlines at
    /// each level.
    fn tripped(&self) -> Option<DbError> {
        let mut cur = Some(self);
        let mut deadline_hit = false;
        while let Some(inner) = cur {
            if inner.cancelled.load(Ordering::Acquire) {
                return Some(DbError::Cancelled("query cancelled".into()));
            }
            if inner.deadline.is_some_and(|d| Instant::now() >= d) {
                deadline_hit = true;
            }
            cur = inner.parent.as_deref();
        }
        deadline_hit.then(|| DbError::DeadlineExceeded("query deadline exceeded".into()))
    }
}

/// A cheap, cloneable cancellation handle with an optional deadline.
///
/// `Default`/[`CancellationToken::none`] yields a token that never
/// cancels, so operators can hold one unconditionally.
#[derive(Debug, Clone)]
pub struct CancellationToken {
    inner: Arc<Inner>,
}

impl Default for CancellationToken {
    fn default() -> Self {
        Self::none()
    }
}

impl CancellationToken {
    /// A token that never cancels (the executor default).
    pub fn none() -> Self {
        CancellationToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that can only be cancelled explicitly.
    pub fn new() -> Self {
        Self::none()
    }

    /// A token that expires `timeout` from now (and can also be cancelled
    /// explicitly).
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// A token that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancellationToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
                parent: None,
            }),
        }
    }

    /// A child token that trips when `self` does *or* when its own
    /// (optional) timeout expires or it is cancelled directly. Cancelling
    /// the child does not affect the parent, so one connection-lifetime
    /// token can gate many successive per-query tokens.
    pub fn child(&self, timeout: Option<Duration>) -> Self {
        CancellationToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: timeout.map(|t| Instant::now() + t),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Requests cancellation; all clones (and children) observe it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True if explicitly cancelled or past the deadline (own or any
    /// ancestor's).
    pub fn is_cancelled(&self) -> bool {
        self.inner.tripped().is_some()
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// `Err` if the token has tripped; the check every operator performs
    /// at each batch boundary. Explicit cancellation surfaces as
    /// [`DbError::Cancelled`], deadline expiry as
    /// [`DbError::DeadlineExceeded`] — the two are accounted differently
    /// by the admission layer.
    pub fn check(&self) -> Result<()> {
        match self.inner.tripped() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_cancels() {
        let t = CancellationToken::none();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn explicit_cancel_visible_to_clones() {
        let t = CancellationToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert!(matches!(c.check(), Err(DbError::Cancelled(_))));
    }

    #[test]
    fn deadline_expires() {
        let t = CancellationToken::with_timeout(Duration::from_millis(5));
        assert!(t.check().is_ok() || t.is_cancelled()); // may race on slow CI
        std::thread::sleep(Duration::from_millis(10));
        assert!(t.is_cancelled());
        // Deadline expiry is distinguishable from explicit cancellation.
        assert!(matches!(t.check(), Err(DbError::DeadlineExceeded(_))));
    }

    #[test]
    fn explicit_cancel_wins_over_deadline_classification() {
        let t = CancellationToken::with_timeout(Duration::from_secs(3600));
        t.cancel();
        assert!(matches!(t.check(), Err(DbError::Cancelled(_))));
    }

    #[test]
    fn child_trips_with_parent_but_not_vice_versa() {
        let parent = CancellationToken::new();
        let child = parent.child(None);
        assert!(child.check().is_ok());
        parent.cancel();
        assert!(matches!(child.check(), Err(DbError::Cancelled(_))));

        let parent = CancellationToken::new();
        let child = parent.child(None);
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must not leak upward");
    }

    #[test]
    fn child_combines_own_timeout_with_parent_cancel() {
        let parent = CancellationToken::new();
        let child = parent.child(Some(Duration::ZERO));
        // Own deadline expired: deadline classification.
        assert!(matches!(child.check(), Err(DbError::DeadlineExceeded(_))));
        // Explicit ancestor cancel outranks the deadline.
        parent.cancel();
        assert!(matches!(child.check(), Err(DbError::Cancelled(_))));
    }

    #[test]
    fn already_expired_deadline_trips_immediately() {
        let t = CancellationToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(DbError::DeadlineExceeded(_))));
    }
}
