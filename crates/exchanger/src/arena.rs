//! An *asymmetric* elimination arena for synchronous queues.
//!
//! Unlike the symmetric [`crate::Exchanger`], a synchronous queue must only
//! pair *complementary* operations: a producer meeting a producer must not
//! swap items. Each arena slot therefore publishes its node with the
//! node's kind (data or request) in the slot word; an arriving operation
//! takes a complementary node if present, briefly installs its own node if
//! the slot is empty, and walks away on a same-type collision (falling
//! back to the main structure). The kind is read from the word, so a
//! visitor reads no node before the slot has handed it a count on it.
//!
//! Arena visits never park — the arena is a backoff device, not a waiting
//! room. An installed node is a bare [`WaitSlot`] and waits through the
//! shared loop with the [`SpinOnly`] strategy: the budget doubles as the
//! deadline, and on exhaustion the installer gives up the way every kernel
//! node does, by its cancel CAS. A visitor that took the node's word but
//! then loses `try_claim` walks away; an installer that loses its cancel
//! to a claim rides the claim out to the match.

use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use synq::Deadline;
use synq_primitives::{CachePadded, SpinOnly, WaitOutcome, WaitSlot};

use crate::slots::Slots;

/// The asymmetric elimination arena.
pub struct EliminationArena<T> {
    /// Data nodes carry kind `true`, requests `false`.
    slots: Slots<WaitSlot<T>>,
    eliminated: CachePadded<AtomicUsize>,
}

impl<T: Send> EliminationArena<T> {
    /// Creates an arena with `n` slots (`n == 0` disables elimination —
    /// every visit fails fast, for the A3 control arm).
    pub fn new(n: usize) -> Self {
        EliminationArena {
            slots: Slots::new(n),
            eliminated: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Number of transfers completed through the arena (diagnostic).
    pub fn eliminated(&self) -> usize {
        self.eliminated.load(Ordering::Relaxed)
    }

    /// Producer-side visit: returns `Ok(())` if a waiting consumer took the
    /// item, `Err(item)` to fall back to the main structure.
    pub fn try_put(&self, item: T, spins: u32) -> Result<(), T> {
        match self.visit(Some(item), spins) {
            Ok(opt) => {
                debug_assert!(opt.is_none());
                Ok(())
            }
            Err(item) => Err(item.expect("producer visit returns its item")),
        }
    }

    /// Consumer-side visit: returns `Ok(Some(v))` on elimination,
    /// `Err(None)` to fall back.
    pub fn try_take(&self, spins: u32) -> Option<T> {
        match self.visit(None, spins) {
            Ok(v) => {
                debug_assert!(v.is_some());
                v
            }
            Err(_) => None,
        }
    }

    fn visit(&self, item: Option<T>, spins: u32) -> Result<Option<T>, Option<T>> {
        if self.slots.len() == 0 {
            return Err(item);
        }
        let is_data = item.is_some();
        let idx = rand::thread_rng().gen_range(0..self.slots.len());

        if let Some(word) = self.slots.peek(idx) {
            let partner = if word.kind() == is_data {
                None // same type: walk away
            } else {
                self.slots.take(idx, word)
            };
            // A visitor that lost the word to another, or the node to its
            // installer's cancel, walks away too.
            let Some(partner) = partner.filter(|p| p.try_claim()) else {
                synq_obs::probe!(ElimMisses);
                return Err(item);
            };
            let result = match item {
                // Give our item to the waiting consumer.
                // SAFETY: the won claim grants the item cell to us.
                Some(v) => {
                    unsafe { partner.fulfill(v) };
                    None
                }
                // Take the waiting producer's pre-filled item.
                // SAFETY: as above; data nodes are armed before publish.
                None => {
                    let v = unsafe { partner.take_item() };
                    partner.complete();
                    Some(v)
                }
            };
            self.eliminated.fetch_add(1, Ordering::Relaxed);
            synq_obs::probe!(ElimHits);
            return Ok(result);
        }

        // Empty slot: install ourselves for a brief spin.
        let node = Arc::new(match item {
            Some(v) => WaitSlot::with_item(v),
            None => WaitSlot::new(),
        });
        if self.slots.install(idx, &node, is_data) {
            // The spin budget *is* the patience here: `SpinOnly` never
            // parks, so budget exhaustion reads as expiry even with
            // `Deadline::Never`.
            if let WaitOutcome::Matched(_) =
                node.await_outcome(Deadline::Never, None, &SpinOnly(spins))
            {
                self.eliminated.fetch_add(1, Ordering::Relaxed);
                synq_obs::probe!(ElimHits);
                // SAFETY: the match publishes the producer's deposit.
                return Ok((!is_data).then(|| unsafe { node.take_item() }));
            }
            // The won cancel CAS: the slot's count is ours again unless a
            // visitor took the word (and then loses its claim).
            self.slots.clear(idx, &node, is_data);
        }
        synq_obs::probe!(ElimMisses);
        // SAFETY: never published, or given up by the won cancel: the cell
        // is ours, and a data node holds the item it was armed with.
        Err(is_data.then(|| unsafe { node.take_item() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn empty_arena_always_falls_back() {
        let a: EliminationArena<u32> = EliminationArena::new(0);
        assert_eq!(a.try_put(1, 100), Err(1));
        assert_eq!(a.try_take(100), None);
        assert_eq!(a.eliminated(), 0);
    }

    #[test]
    fn lone_visit_retracts() {
        let a: EliminationArena<u32> = EliminationArena::new(1);
        assert_eq!(a.try_put(7, 10), Err(7));
        assert_eq!(a.try_take(10), None);
        assert_eq!(a.eliminated(), 0);
    }

    #[test]
    fn complementary_ops_eliminate() {
        let a = Arc::new(EliminationArena::new(1));
        let a2 = Arc::clone(&a);
        // The consumer spins long enough for the producer to arrive.
        let consumer = thread::spawn(move || {
            for _ in 0..10_000 {
                if let Some(v) = a2.try_take(10_000) {
                    return Some(v);
                }
            }
            None
        });
        let mut item = 42u32;
        let mut produced = false;
        for _ in 0..10_000 {
            match a.try_put(item, 10_000) {
                Ok(()) => {
                    produced = true;
                    break;
                }
                Err(back) => item = back,
            }
        }
        let got = consumer.join().unwrap();
        assert!(produced, "producer never eliminated");
        assert_eq!(got, Some(42));
        assert_eq!(a.eliminated(), 2); // both sides count
    }

    #[test]
    fn same_type_ops_do_not_pair() {
        // Two producers visiting must never "exchange": one installs, the
        // other sees a same-type node and walks away.
        let a = Arc::new(EliminationArena::new(1));
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || a2.try_put(1u32, 50_000));
        let r = a.try_put(2u32, 50_000);
        let r2 = t.join().unwrap();
        assert!(r.is_err());
        assert!(r2.is_err());
        assert_eq!(a.eliminated(), 0);
    }

    #[test]
    fn values_conserved_under_stress() {
        use std::sync::atomic::AtomicUsize;
        const PRODUCERS: usize = 2;
        const PER: usize = 500;
        let a = Arc::new(EliminationArena::new(2));
        let delivered = Arc::new(AtomicUsize::new(0));
        let received = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..PRODUCERS {
            let a = Arc::clone(&a);
            let delivered = Arc::clone(&delivered);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    if a.try_put(i, 2_000).is_ok() {
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for _ in 0..2 {
            let a = Arc::clone(&a);
            let received = Arc::clone(&received);
            handles.push(thread::spawn(move || {
                for _ in 0..PER {
                    if a.try_take(2_000).is_some() {
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            received.load(Ordering::Relaxed),
            "every delivered item must be received exactly once"
        );
    }

    #[test]
    fn payloads_dropped_exactly_once_under_churn() {
        // Drop-counting payloads through install/retract/claim churn: every
        // item handed to the arena must be dropped exactly once whether it
        // eliminated, bounced back, or sat armed in a retracted node.
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        const PER: usize = 300;
        let a: Arc<EliminationArena<Counted>> = Arc::new(EliminationArena::new(1));
        let a2 = Arc::clone(&a);
        let d2 = Arc::clone(&drops);
        let producer = thread::spawn(move || {
            for _ in 0..PER {
                let _ = a2.try_put(Counted(Arc::clone(&d2)), 500);
            }
        });
        let a3 = Arc::clone(&a);
        let consumer = thread::spawn(move || {
            for _ in 0..PER {
                drop(a3.try_take(500));
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
        drop(a);
        assert_eq!(drops.load(Ordering::Relaxed), PER);
    }

    /// Visits that install, claim and give up as fast as they can on one
    /// slot, so an installer often gives up just as a visitor reads its
    /// word. Under AddressSanitizer a visitor that read a node it held no
    /// count on would show as a heap-use-after-free.
    #[test]
    fn short_visits_on_one_slot_read_only_counted_nodes() {
        const VISITS: usize = 200_000;
        let a = Arc::new(EliminationArena::new(1));
        let delivered = Arc::new(AtomicUsize::new(0));
        let received = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                let (delivered, received) = (Arc::clone(&delivered), Arc::clone(&received));
                thread::spawn(move || {
                    for i in 0..VISITS {
                        let spins = (i % 3) as u32;
                        if t % 2 == 0 {
                            if a.try_put(i, spins).is_ok() {
                                delivered.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if a.try_take(spins).is_some() {
                            received.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            received.load(Ordering::Relaxed)
        );
    }

    /// Runs `visit` on another thread and claims the node it installs in
    /// slot 0 of `a`, as a visitor would, then lets its budget run out.
    /// Retries if the installer gives up before the claim lands.
    fn claim_installed<T: Send + 'static, R: Send + 'static>(
        a: &Arc<EliminationArena<T>>,
        visit: impl Fn(&EliminationArena<T>) -> R + Send + Clone + 'static,
    ) -> (Arc<WaitSlot<T>>, thread::JoinHandle<R>) {
        loop {
            let installer = {
                let (a, visit) = (Arc::clone(a), visit.clone());
                thread::spawn(move || visit(&a))
            };
            let claimed = loop {
                if let Some(word) = a.slots.peek(0) {
                    break a.slots.take(0, word).filter(|n| n.try_claim());
                }
                if installer.is_finished() {
                    break None;
                }
                thread::yield_now();
            };
            if let Some(node) = claimed {
                thread::sleep(std::time::Duration::from_millis(5));
                return (node, installer);
            }
            drop(installer.join());
        }
    }

    /// An installer whose budget runs out while a visitor holds its node
    /// `CLAIMED` cannot cancel: it waits for the match and returns it.
    #[test]
    fn an_installer_rides_out_a_claim_past_its_budget() {
        #[derive(Debug, PartialEq)]
        struct Once(u32);
        const SPINS: u32 = 1_000;
        let a = Arc::new(EliminationArena::new(1));

        // A producer installs; the consumer's claim outlasts its budget.
        let (node, producer) = claim_installed(&a, |a| a.try_put(Once(7), SPINS).is_ok());
        let got = unsafe { node.take_item() };
        node.complete();
        assert!(producer.join().unwrap());
        assert_eq!(got, Once(7));
        assert!(!node.has_item(), "the item moved once");

        // A consumer installs; the producer's claim outlasts its budget.
        let (node, consumer) = claim_installed(&a, |a| a.try_take(SPINS));
        unsafe { node.fulfill(Once(8)) };
        assert_eq!(consumer.join().unwrap(), Some(Once(8)));
        assert!(!node.has_item(), "the item moved once");
        assert_eq!(a.eliminated(), 2, "the installers count theirs");
        assert_eq!(a.slots.peek(0), None);
    }
}
