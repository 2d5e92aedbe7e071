//! User-facing collector and per-thread handles.

use crate::guard::Guard;
use crate::internal::{Global, Local};
use std::fmt;
use std::sync::Arc;

/// An epoch-based garbage collector instance.
///
/// Most users share the process-wide default collector through
/// [`crate::pin`]; independent collectors are useful in tests (isolated
/// garbage accounting) and for structures with wildly different retirement
/// rates.
///
/// # Examples
///
/// ```
/// use synq_reclaim::Collector;
///
/// let collector = Collector::new();
/// let handle = collector.register();
/// let guard = handle.pin();
/// drop(guard);
/// ```
pub struct Collector {
    pub(crate) global: Arc<Global>,
}

impl Collector {
    /// Creates a fresh collector with its own epoch and garbage.
    pub fn new() -> Self {
        Collector {
            global: Arc::new(Global::new()),
        }
    }

    /// Registers the current thread, returning its participation handle.
    pub fn register(&self) -> LocalHandle {
        LocalHandle {
            local: self.global.register(),
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Collector {
    fn clone(&self) -> Self {
        Collector {
            global: Arc::clone(&self.global),
        }
    }
}

impl PartialEq for Collector {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.global, &other.global)
    }
}
impl Eq for Collector {}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Collector { .. }")
    }
}

/// A thread's registration with a [`Collector`]. Not `Send`: it belongs to
/// the registering thread.
pub struct LocalHandle {
    pub(crate) local: *const Local,
}

impl LocalHandle {
    /// Pins the thread.
    #[inline]
    pub fn pin(&self) -> Guard {
        // SAFETY: local is valid while the handle (or any of its guards)
        // lives; record recycling only happens after release.
        unsafe { (*self.local).pin() }
    }

    /// True if a guard from this handle is currently alive.
    #[inline]
    pub fn is_pinned(&self) -> bool {
        // SAFETY: as in `pin`.
        unsafe { (*self.local).is_pinned() }
    }

    /// Seals this thread's garbage and runs a collection cycle.
    pub fn flush(&self) {
        // SAFETY: as in `pin`.
        unsafe { (*self.local).flush() }
    }

    /// One slice of this thread's reclamation work; see
    /// [`crate::Reclaimer::reclaim_step`].
    pub(crate) fn reclaim_step(&self) -> bool {
        // SAFETY: as in `pin`.
        unsafe { (*self.local).reclaim_step() }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // SAFETY: balanced with registration.
        unsafe { (*self.local).release_handle() }
    }
}

impl fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("LocalHandle { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;
    use std::thread;

    #[test]
    fn pin_unpin_reentrant() {
        let c = Collector::new();
        let h = c.register();
        assert!(!h.is_pinned());
        let g1 = h.pin();
        assert!(h.is_pinned());
        let g2 = h.pin();
        drop(g1);
        assert!(h.is_pinned());
        drop(g2);
        assert!(!h.is_pinned());
    }

    #[test]
    fn deferred_runs_eventually() {
        let c = Collector::new();
        let h = c.register();
        let counter = StdArc::new(AtomicUsize::new(0));
        {
            let guard = h.pin();
            let cc = StdArc::clone(&counter);
            unsafe {
                guard.defer_unchecked(move || {
                    cc.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // Repeated pin/flush cycles must eventually advance two epochs and
        // run the deferral.
        for _ in 0..10 {
            h.flush();
            if counter.load(Ordering::SeqCst) == 1 {
                break;
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_thread_blocks_reclamation() {
        let c = Collector::new();
        let h = c.register();
        let blocker_guard = h.pin();

        let counter = StdArc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        let cc = StdArc::clone(&counter);
        thread::spawn(move || {
            let h2 = c2.register();
            let g = h2.pin();
            let cc2 = StdArc::clone(&cc);
            unsafe {
                g.defer_unchecked(move || {
                    cc2.fetch_add(1, Ordering::SeqCst);
                });
            }
            drop(g);
            // Aggressively try to reclaim; the pinned blocker must prevent
            // two epoch advances.
            for _ in 0..20 {
                h2.flush();
            }
        })
        .join()
        .unwrap();

        assert_eq!(
            counter.load(Ordering::SeqCst),
            0,
            "garbage freed while a thread that could hold references was pinned"
        );
        drop(blocker_guard);
        for _ in 0..10 {
            h.flush();
            if counter.load(Ordering::SeqCst) == 1 {
                break;
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn collector_drop_runs_leftover_garbage() {
        let counter = StdArc::new(AtomicUsize::new(0));
        {
            let c = Collector::new();
            let h = c.register();
            let guard = h.pin();
            for _ in 0..10 {
                let cc = StdArc::clone(&counter);
                unsafe {
                    guard.defer_unchecked(move || {
                        cc.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }
            drop(guard);
            drop(h);
            // c dropped here — the last reference to the Global.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn participant_record_recycled_across_threads() {
        let c = Collector::new();
        // Register/unregister from many short-lived threads; the registry
        // must recycle records rather than growing without bound. We can't
        // observe the registry length directly, so this is a smoke test for
        // the FREE/IN_USE lifecycle (would deadlock or crash on bugs).
        for _ in 0..64 {
            let c2 = c.clone();
            thread::spawn(move || {
                let h = c2.register();
                let g = h.pin();
                drop(g);
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn handle_dropped_while_guard_alive() {
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        drop(h); // must not finalize yet: the guard is still alive
        drop(g); // finalize happens here
        let h2 = c.register();
        let _g2 = h2.pin();
    }

    #[test]
    fn collectors_compare_by_identity() {
        let a = Collector::new();
        let b = Collector::new();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }
}
