//! Patience bounds for blocking operations.
//!
//! The shared [`crate::WaitSlot`] engine consumes a `Deadline`, so it lives
//! here at the bottom of the crate graph; `synq::Deadline` is a re-export.

use std::time::{Duration, Instant};

/// How long a blocking operation is willing to wait for a counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Wait indefinitely (`put`/`take`).
    Never,
    /// Do not wait at all (`offer`/`poll`).
    Now,
    /// Wait until the given instant (`offer`/`poll` with patience).
    At(Instant),
}

impl Deadline {
    /// Deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Deadline::At(Instant::now() + timeout)
    }

    /// True for `Now` and `At` — waits that must track time.
    #[inline]
    pub fn is_timed(&self) -> bool {
        !matches!(self, Deadline::Never)
    }

    /// True if no waiting is permitted.
    #[inline]
    pub fn is_now(&self) -> bool {
        matches!(self, Deadline::Now)
    }

    /// True once the deadline has passed (always for `Now`, never for
    /// `Never`).
    #[inline]
    pub fn expired(&self) -> bool {
        match self {
            Deadline::Never => false,
            Deadline::Now => true,
            Deadline::At(t) => Instant::now() >= *t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_now_is_expired_and_timed() {
        assert!(Deadline::Now.expired());
        assert!(Deadline::Now.is_timed());
        assert!(Deadline::Now.is_now());
    }

    #[test]
    fn deadline_never_never_expires() {
        assert!(!Deadline::Never.expired());
        assert!(!Deadline::Never.is_timed());
        assert!(!Deadline::Never.is_now());
    }

    #[test]
    fn deadline_after_expires_in_the_future() {
        let d = Deadline::after(Duration::from_millis(30));
        assert!(d.is_timed());
        assert!(!d.is_now());
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(40));
        assert!(d.expired());
    }
}
