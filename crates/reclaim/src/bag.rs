//! Bags of deferred closures.
//!
//! Retired garbage accumulates in a per-thread [`Bag`] of fixed capacity;
//! when full, the bag is *sealed* with the global epoch at seal time and
//! pushed onto the collector's global garbage stack. A sealed bag may be
//! executed once the global epoch has advanced at least two steps past its
//! seal epoch (three-epoch reclamation): recording the *seal*-time epoch is
//! conservative, since every item in the bag was retired at or before it.
//!
//! The storage is inline (two indices and an array), so sealing moves the
//! bag into a pooled garbage-node skeleton and allocates nothing.

use crate::deferred::Deferred;
use std::mem::MaybeUninit;

/// Maximum number of deferred items in a bag before it must be sealed.
pub(crate) const MAX_OBJECTS: usize = 64;

/// A fixed-capacity container of deferred closures, each a retirement
/// that the garbage ledger counts until it runs.
pub(crate) struct Bag {
    /// `deferreds[..len - ran]` are initialized: pushed, and not yet run.
    ran: usize,
    len: usize,
    deferreds: [MaybeUninit<Deferred>; MAX_OBJECTS],
}

impl Bag {
    pub(crate) fn new() -> Self {
        const EMPTY: MaybeUninit<Deferred> = MaybeUninit::uninit();
        Bag {
            ran: 0,
            len: 0,
            deferreds: [EMPTY; MAX_OBJECTS],
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ran == self.len
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == MAX_OBJECTS
    }

    /// Adds `deferred`. Only an open bag is pushed to, and it must not be
    /// full (the index panics if it is).
    pub(crate) fn push(&mut self, deferred: Deferred) {
        debug_assert_eq!(self.ran, 0, "pushing to a bag being run");
        self.deferreds[self.len].write(deferred);
        self.len += 1;
    }

    /// Runs the newest closure not yet run. Returns how many closures the
    /// bag held once that was its last one, so a bag run piecemeal is
    /// settled on the ledger once.
    pub(crate) fn call_one(&mut self) -> Option<usize> {
        debug_assert!(!self.is_empty(), "running an empty bag");
        self.ran += 1;
        let slot = self.len - self.ran;
        // SAFETY: the slot was initialized by `push`, and raising `ran`
        // first makes this the only read of it.
        unsafe { self.deferreds[slot].assume_init_read() }.call();
        self.is_empty().then(|| {
            self.ran = 0;
            std::mem::take(&mut self.len)
        })
    }
}

impl Drop for Bag {
    fn drop(&mut self) {
        while !self.is_empty() {
            self.call_one();
        }
    }
}

/// A bag stamped with the global epoch at which it was sealed.
pub(crate) struct SealedBag {
    pub(crate) epoch: usize,
    /// Run (its deferreds executed) when the bag expires.
    pub(crate) bag: Bag,
}

impl SealedBag {
    /// True once `global_epoch` is at least two advances past the seal.
    pub(crate) fn is_expired(&self, global_epoch: usize) -> bool {
        global_epoch.wrapping_sub(self.epoch) >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counting_deferred(c: &Arc<AtomicUsize>) -> Deferred {
        let c = Arc::clone(c);
        Deferred::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn push_until_full() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new();
        for _ in 0..MAX_OBJECTS {
            assert!(!bag.is_full());
            bag.push(counting_deferred(&c));
        }
        assert!(bag.is_full());
        assert_eq!(c.load(Ordering::SeqCst), 0);
        drop(bag);
        assert_eq!(c.load(Ordering::SeqCst), MAX_OBJECTS);
    }

    #[test]
    fn drop_runs_everything() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new();
        for _ in 0..10 {
            bag.push(counting_deferred(&c));
        }
        drop(bag);
        assert_eq!(c.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn call_one_runs_the_newest_first_and_reports_the_count_with_the_last() {
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut bag = Bag::new();
        for i in 0..3 {
            let order = Arc::clone(&order);
            bag.push(Deferred::new(move || order.lock().unwrap().push(i)));
        }
        assert_eq!(bag.call_one(), None);
        assert_eq!(bag.call_one(), None);
        assert_eq!(*order.lock().unwrap(), [2, 1]);
        assert_eq!(bag.call_one(), Some(3), "settled once, with the last");
        assert!(bag.is_empty());
        assert_eq!(*order.lock().unwrap(), [2, 1, 0]);

        // The emptied bag is open again, for a fresh count.
        bag.push(Deferred::new(|| {}));
        assert_eq!(bag.call_one(), Some(1));
    }

    #[test]
    fn expiry_uses_wrapping_distance() {
        let sealed = SealedBag {
            epoch: usize::MAX,
            bag: Bag::new(),
        };
        assert!(!sealed.is_expired(usize::MAX));
        assert!(!sealed.is_expired(0)); // one advance (wrapped)
        assert!(sealed.is_expired(1)); // two advances
    }

    #[test]
    fn empty_flag() {
        let mut bag = Bag::new();
        assert!(bag.is_empty());
        let c = Arc::new(AtomicUsize::new(0));
        bag.push(counting_deferred(&c));
        assert!(!bag.is_empty());
        bag.call_one();
        assert!(bag.is_empty());
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }
}
