//! The unified transfer interface.
//!
//! Both synchronous dual structures funnel every public operation through
//! one method, exactly as the Java 6 implementation does with its
//! `Transferer.transfer(e, timed, nanos)`: a `put` is a transfer *of*
//! an item, a `take` is a transfer *requesting* an item, and the symmetric
//! dual-structure code handles both directions.

use synq_primitives::CancelToken;

// `Deadline` lives in `synq-primitives` (the shared `WaitSlot` wait loop
// consumes it); re-exported here so `synq::Deadline` and
// `synq::transferer::Deadline` keep working.
pub use synq_primitives::Deadline;

/// Result of a [`Transferer::transfer`] call.
///
/// The `Option<T>` payload returns ownership to the caller:
/// * a successful *take* yields `Transferred(Some(v))`;
/// * a successful *put* yields `Transferred(None)`;
/// * a failed *put* hands the un-transferred item back in
///   `Timeout(Some(v))` / `Cancelled(Some(v))`.
#[derive(Debug, PartialEq, Eq)]
pub enum TransferOutcome<T> {
    /// The handoff completed.
    Transferred(Option<T>),
    /// The patience interval elapsed before a counterpart arrived.
    Timeout(Option<T>),
    /// The operation was cancelled via a [`CancelToken`].
    Cancelled(Option<T>),
}

impl<T> TransferOutcome<T> {
    /// True for `Transferred`.
    pub fn is_success(&self) -> bool {
        matches!(self, TransferOutcome::Transferred(_))
    }

    /// Extracts the payload, whatever the outcome.
    pub fn into_inner(self) -> Option<T> {
        match self {
            TransferOutcome::Transferred(v)
            | TransferOutcome::Timeout(v)
            | TransferOutcome::Cancelled(v) => v,
        }
    }
}

/// A synchronous transfer point: `Some(item)` puts, `None` takes.
///
/// Implementors: [`crate::SyncDualQueue`], [`crate::SyncDualStack`], the
/// [`crate::SynchronousQueue`] facade, `synq_transfer::TransferQueue` (whose producer side is the synchronous
/// `transfer`), `synq_exchanger::EliminationSyncStack`, and the Java SE 5.0
/// baseline in `synq-baselines`.
pub trait Transferer<T: Send> {
    /// Performs one synchronous handoff.
    ///
    /// * `item`: `Some(v)` acts as a producer, `None` as a consumer.
    /// * `deadline`: patience; [`Deadline::Now`] never waits.
    /// * `token`: optional cancellation ("interrupt") source.
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let t: TransferOutcome<u32> = TransferOutcome::Transferred(Some(5));
        assert!(t.is_success());
        assert_eq!(t.into_inner(), Some(5));
        let t: TransferOutcome<u32> = TransferOutcome::Timeout(Some(7));
        assert!(!t.is_success());
        assert_eq!(t.into_inner(), Some(7));
        let t: TransferOutcome<u32> = TransferOutcome::Cancelled(None);
        assert!(!t.is_success());
        assert_eq!(t.into_inner(), None);
    }
}
