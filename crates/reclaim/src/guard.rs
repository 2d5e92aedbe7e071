//! Pinning guards.

use crate::internal::Local;
use std::fmt;

/// A witness that the current thread is pinned.
///
/// While a `Guard` is alive, the global epoch cannot advance more than one
/// step past the epoch observed at pin time, so any [`crate::Shared`]
/// pointer loaded through it remains valid (not freed) for the guard's
/// lifetime.
///
/// Dropping the guard unpins the thread (when the last nested guard goes).
pub struct Guard {
    /// Owning participant record; null for the guard of
    /// [`crate::Reclaimer::unprotected`].
    pub(crate) local: *const Local,
}

impl Guard {
    /// Seals this thread's garbage bag and runs a collection cycle.
    /// No-op on an unprotected guard.
    pub fn flush(&self) {
        // SAFETY: local is either null or valid for the guard's lifetime.
        if let Some(local) = unsafe { self.local.as_ref() } {
            local.flush();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // SAFETY: non-null local outlives its guards.
        if let Some(local) = unsafe { self.local.as_ref() } {
            local.unpin();
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Guard { .. }")
    }
}
