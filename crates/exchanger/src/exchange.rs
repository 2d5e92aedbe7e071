//! A scalable elimination-based exchange channel.
//!
//! The swap analogue of a synchronous queue: two threads meet and exchange
//! values symmetrically. Rather than funneling every rendezvous through a
//! single word, threads meet in an *arena* of independent slots; collisions
//! on one slot push threads to others, spreading contention (Scherer, Lea &
//! Scott, "A Scalable Elimination-based Exchange Channel" \[18\]).
//!
//! An installed node waits and gives up as every kernel node does: the
//! partner that takes its slot word must still win the node's `try_claim`,
//! and the installer gives up only by winning its cancel CAS, so that one
//! CAS decides a timeout racing a swap. A partner that loses walks away as
//! from a collision; an installer that loses rides the claim out.

use rand::Rng;
use std::cell::UnsafeCell;
use std::sync::Arc;
use std::time::Duration;
use synq::Deadline;
use synq_primitives::{Backoff, SpinOnly, SpinPolicy, WaitOutcome, WaitSlot, WaitStrategy};

use crate::slots::Slots;

struct ExNode<T> {
    /// What the installer offers; taken by the claimer.
    give: UnsafeCell<Option<T>>,
    /// The wait protocol; the claimer deposits its value here, and the
    /// installer gives up by its cancel CAS.
    slot: WaitSlot<T>,
}

// SAFETY: access to `give` is serialized by the slot's state word: the
// claimer reads it after its won `try_claim`, the installer after its won
// `try_cancel` (or before it published the node); `slot` synchronizes
// itself.
unsafe impl<T: Send> Send for ExNode<T> {}
unsafe impl<T: Send> Sync for ExNode<T> {}

/// An elimination-based swap channel.
///
/// # Examples
///
/// ```
/// use synq_exchanger::Exchanger;
/// use std::sync::Arc;
/// use std::thread;
///
/// let x = Arc::new(Exchanger::new());
/// let x2 = Arc::clone(&x);
/// let t = thread::spawn(move || x2.exchange(1u32));
/// let got_in_main = x.exchange(2u32);
/// let got_in_thread = t.join().unwrap();
/// assert_eq!((got_in_main, got_in_thread), (1, 2));
/// ```
pub struct Exchanger<T> {
    /// Every node is of one kind, `false`.
    slots: Slots<ExNode<T>>,
    spin: SpinPolicy,
}

impl<T: Send> Default for Exchanger<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> Exchanger<T> {
    /// Arena sized to the processor count (min 1, max 32), adaptive spin.
    pub fn new() -> Self {
        Self::with_slots(synq_primitives::backoff::ncpus().clamp(1, 32))
    }

    /// Arena with an explicit number of slots and the adaptive spin policy.
    pub fn with_slots(n: usize) -> Self {
        Self::with_spin(n, SpinPolicy::adaptive())
    }

    /// Arena with explicit slot count and spin policy — `with_spin` parity
    /// with the dual structures, for uniform spin-policy sweeps.
    pub fn with_spin(n: usize, spin: SpinPolicy) -> Self {
        assert!(n >= 1, "exchanger needs at least one slot");
        Exchanger {
            slots: Slots::new(n),
            spin,
        }
    }

    /// Exchanges `mine` for a partner's value, waiting indefinitely.
    pub fn exchange(&self, mine: T) -> T {
        match self.exchange_with(mine, Deadline::Never) {
            Ok(theirs) => theirs,
            Err(_) => unreachable!("untimed exchange cannot fail"),
        }
    }

    /// Exchanges with a patience bound; returns `Err(mine)` on timeout.
    pub fn exchange_timeout(&self, mine: T, patience: Duration) -> Result<T, T> {
        self.exchange_with(mine, Deadline::after(patience))
    }

    /// The general form.
    pub fn exchange_with(&self, mine: T, deadline: Deadline) -> Result<T, T> {
        self.exchange_from(0, mine, deadline)
    }

    /// [`Self::exchange_with`], its first probe at slot `first` rather
    /// than slot 0.
    fn exchange_from(&self, first: usize, mine: T, deadline: Deadline) -> Result<T, T> {
        let mut rng = rand::thread_rng();
        // Start at slot 0 (the "main" location) and widen on collisions —
        // the tree-like backoff of the paper, flattened to random probing.
        let mut bound = 0usize;
        let mut first = Some(first);
        let backoff = Backoff::new();
        let mut mine = Some(mine);
        loop {
            let idx = first.take().unwrap_or_else(|| {
                if bound == 0 {
                    0
                } else {
                    rng.gen_range(0..=bound.min(self.slots.len() - 1))
                }
            });
            let Some(word) = self.slots.peek(idx) else {
                // Install ourselves and wait for a partner.
                let node = Arc::new(ExNode {
                    give: UnsafeCell::new(mine.take()),
                    slot: WaitSlot::new(),
                });
                if !self.slots.install(idx, &node, false) {
                    // Lost the slot: retry elsewhere.
                    mine = Some(node_take_give(&node));
                    bound = (bound + 1).min(self.slots.len() - 1);
                    backoff.snooze();
                    continue;
                }
                let outcome = if idx == 0 {
                    self.await_partner(idx, &node, deadline, &self.spin)
                } else {
                    // Outside slot 0 a node waits one spin window at most,
                    // then gives up and starts over at slot 0, as Java's
                    // `Exchanger` shrinks its arena: two exchanges installed
                    // in different slots would otherwise wait for each
                    // other forever.
                    let window = SpinOnly(self.spin.spins_for(deadline.is_timed()));
                    match self.await_partner(idx, &node, deadline, &window) {
                        Err(back) if !deadline.expired() => {
                            mine = Some(back);
                            bound = 0;
                            continue;
                        }
                        outcome => outcome,
                    }
                };
                if outcome.is_err() {
                    synq_obs::probe!(ExchangerTimeouts);
                }
                return outcome;
            };

            // Claim the waiting partner; one that gave up is walked away
            // from, as a collision.
            if let Some(partner) = self.slots.take(idx, word).filter(|p| p.slot.try_claim()) {
                let theirs = node_take_give(&partner);
                // SAFETY: the won claim grants the item cell to us.
                unsafe { partner.slot.fulfill(mine.take().expect("item still ours")) };
                synq_obs::probe!(ExchangerSwaps);
                return Ok(theirs);
            }

            // Collision: widen the arena window and retry elsewhere.
            bound = (bound + 1).min(self.slots.len() - 1);
            backoff.snooze();
            if deadline.expired() {
                synq_obs::probe!(ExchangerTimeouts);
                return Err(mine.take().expect("item still ours"));
            }
        }
    }

    /// Waits on the node installed in slot `idx` (through the shared
    /// [`WaitSlot`] loop, under `strategy`). A wait that ends by the won
    /// cancel CAS takes the node out of its slot, unless a partner took
    /// the word first and now loses its claim.
    fn await_partner(
        &self,
        idx: usize,
        node: &Arc<ExNode<T>>,
        deadline: Deadline,
        strategy: &impl WaitStrategy,
    ) -> Result<T, T> {
        if let WaitOutcome::Matched(_) = node.slot.await_outcome(deadline, None, strategy) {
            synq_obs::probe!(ExchangerSwaps);
            // SAFETY: a terminal match publishes the partner's deposit.
            return Ok(unsafe { node.slot.take_item() });
        }
        self.slots.clear(idx, node, false);
        Err(node_take_give(node))
    }
}

fn node_take_give<T>(node: &ExNode<T>) -> T {
    // SAFETY: callers hold exclusive logical access to `give` (installer
    // before publication / after its won cancel; claimer after its won
    // claim).
    unsafe { (*node.give.get()).take() }.expect("give slot already taken")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn pairwise_swap() {
        let x = Arc::new(Exchanger::new());
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || x2.exchange(10u32));
        let a = x.exchange(20u32);
        let b = t.join().unwrap();
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn timeout_returns_item() {
        let x: Exchanger<String> = Exchanger::new();
        let back = x
            .exchange_timeout("mine".into(), Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(back, "mine");
    }

    #[test]
    fn many_threads_all_pair_off() {
        // An even number of threads must all complete, each receiving a
        // value that exactly one other thread offered.
        const N: usize = 8;
        let x = Arc::new(Exchanger::with_slots(4));
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let x = Arc::clone(&x);
                thread::spawn(move || x.exchange(i))
            })
            .collect();
        let mut got: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn single_slot_arena_works() {
        let x = Arc::new(Exchanger::with_slots(1));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || x2.exchange(1u8));
        assert_eq!(x.exchange(2u8), 1);
        assert_eq!(t.join().unwrap(), 2);
    }

    /// Two untimed exchanges, one installed in slot 0 and one in slot 1:
    /// the one outside slot 0 gives its slot up after a spin window and
    /// meets the other there. (Before it did, both waited forever: the
    /// hang `exchange_stress::repeated_rounds_reuse_the_arena` hit about
    /// once in 75 runs.)
    #[test]
    fn installers_in_different_slots_still_meet() {
        use std::sync::mpsc;
        const WAKE_PATIENCE: Duration = Duration::from_secs(20);
        for round in 0..20u32 {
            let x = Arc::new(Exchanger::with_slots(2));
            let (done, results) = mpsc::channel();
            let exchange = |first: usize, mine: u32| {
                let (x, done) = (Arc::clone(&x), done.clone());
                thread::spawn(move || {
                    let theirs = x.exchange_from(first, mine, Deadline::Never);
                    done.send((mine, theirs)).unwrap();
                })
            };
            let inside = exchange(0, 2 * round);
            while x.slots.peek(0).is_none() {
                thread::yield_now();
            }
            let outside = exchange(1, 2 * round + 1);
            let mut got: Vec<_> = (0..2)
                .map(|_| {
                    results.recv_timeout(WAKE_PATIENCE).unwrap_or_else(|_| {
                        panic!("round {round}: installers in slots 0 and 1 wait for each other")
                    })
                })
                .collect();
            got.sort_unstable();
            assert_eq!(
                got,
                [
                    (2 * round, Ok(2 * round + 1)),
                    (2 * round + 1, Ok(2 * round))
                ]
            );
            inside.join().unwrap();
            outside.join().unwrap();
        }
    }

    /// An installer whose deadline passes while a partner holds its node
    /// `CLAIMED` cannot cancel: it waits for the swap and returns it.
    #[test]
    fn an_installer_rides_out_a_claim_past_its_deadline() {
        const PATIENCE: Duration = Duration::from_millis(20);
        let x = Arc::new(Exchanger::with_slots(1));
        // Retried if the installer gives up before the claim lands.
        let (node, installer) = loop {
            let installer = {
                let x = Arc::clone(&x);
                thread::spawn(move || x.exchange_timeout(String::from("a"), PATIENCE))
            };
            let claimed = loop {
                if let Some(word) = x.slots.peek(0) {
                    break x.slots.take(0, word).filter(|n| n.slot.try_claim());
                }
                if installer.is_finished() {
                    break None;
                }
                thread::yield_now();
            };
            match claimed {
                Some(node) => break (node, installer),
                None => assert_eq!(installer.join().unwrap(), Err(String::from("a"))),
            }
        };
        thread::sleep(2 * PATIENCE);
        let theirs = node_take_give(&node);
        unsafe { node.slot.fulfill(String::from("b")) };
        assert_eq!(installer.join().unwrap(), Ok(String::from("b")));
        assert_eq!(theirs, "a");
        assert!(!node.slot.has_item(), "the item moved once");
        assert_eq!(x.slots.peek(0), None);
    }

    /// A payload that counts its drops in `drops[id]`.
    #[derive(Debug)]
    struct Counted {
        id: usize,
        drops: Arc<[AtomicUsize]>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drop_counters(n: usize) -> Arc<[AtomicUsize]> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn dropped(drops: &[AtomicUsize]) -> Vec<usize> {
        drops.iter().map(|d| d.load(Ordering::Relaxed)).collect()
    }

    /// A node still published when the exchanger drops is freed with it,
    /// payload and all; a timed-out exchange leaves nothing published.
    #[test]
    fn dropped_exchanger_frees_installed_node() {
        let drops = drop_counters(2);
        let counted = |id| Counted {
            id,
            drops: Arc::clone(&drops),
        };
        let x = Exchanger::with_slots(2);

        let back = x
            .exchange_timeout(counted(0), Duration::from_millis(5))
            .unwrap_err();
        assert_eq!((x.slots.peek(0), x.slots.peek(1)), (None, None));
        assert_eq!(back.id, 0);
        drop(back);
        assert_eq!(dropped(&drops), [1, 0]);

        let node = Arc::new(ExNode {
            give: UnsafeCell::new(Some(counted(1))),
            slot: WaitSlot::new(),
        });
        assert!(x.slots.install(1, &node, false));
        drop(node);
        assert_eq!(dropped(&drops), [1, 0], "the slot's count keeps it alive");
        drop(x);
        assert_eq!(dropped(&drops), [1, 1]);
    }

    /// Exchanges that install, claim and give up as fast as they can on one
    /// slot, so an installer often gives up just as a partner reads its
    /// word. Under AddressSanitizer a partner that read a node it held no
    /// count on would show as a heap-use-after-free.
    #[test]
    fn short_waits_on_one_slot_read_only_counted_nodes() {
        const THREADS: usize = 4;
        const VISITS: usize = 200_000;
        let x = Arc::new(Exchanger::with_slots(1));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let x = Arc::clone(&x);
                thread::spawn(move || {
                    let mut swaps = Vec::new();
                    for i in 0..VISITS {
                        let mine = t * VISITS + i;
                        let patience = Duration::from_micros((i % 3) as u64);
                        match x.exchange_with(mine, Deadline::after(patience)) {
                            Ok(theirs) => swaps.push((mine, theirs)),
                            Err(back) => assert_eq!(back, mine),
                        }
                    }
                    swaps
                })
            })
            .collect();
        let swaps: std::collections::HashMap<usize, usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for (mine, theirs) in &swaps {
            assert_eq!(swaps.get(theirs), Some(mine), "{mine} got {theirs}");
        }
    }

    /// Drop-counting payloads through install, claim and give-up churn on
    /// one slot: every payload comes back as a swap or a refusal, and is
    /// dropped exactly once.
    #[test]
    fn payloads_dropped_exactly_once_under_churn() {
        const THREADS: usize = 4;
        const PER: usize = 2_000;
        let drops = drop_counters(THREADS * PER);
        let x = Arc::new(Exchanger::with_slots(1));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (x, drops) = (Arc::clone(&x), Arc::clone(&drops));
                thread::spawn(move || {
                    let mut swapped = 0;
                    for i in 0..PER {
                        let id = t * PER + i;
                        let mine = Counted {
                            id,
                            drops: Arc::clone(&drops),
                        };
                        let patience = Duration::from_micros((i % 5) as u64);
                        match x.exchange_timeout(mine, patience) {
                            Ok(theirs) => {
                                assert_ne!(theirs.id / PER, t, "swapped with itself");
                                swapped += 1;
                            }
                            Err(back) => assert_eq!(back.id, id),
                        }
                    }
                    swapped
                })
            })
            .collect();
        let swapped: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(swapped % 2, 0, "a swap completes on both sides");
        drop(x);
        assert!(dropped(&drops).iter().all(|&n| n == 1));
    }
}
