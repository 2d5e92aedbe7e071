//! Property tests for the scheduling primitives.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synq_primitives::{Parker, WaitSlot, MIN_TOKEN};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `WaitSlot` state machine vs. a reference model, under arbitrary
    /// interleavings of fulfiller visits, token fulfillments, cancels and
    /// collects, with drop-counting payloads: every CAS outcome must match
    /// the model, the observable state word must track it, the slot must
    /// never return to `WAITING` once it has left, and every payload ever
    /// created must drop exactly once.
    #[test]
    fn wait_slot_matches_state_model(
        starts_armed in any::<bool>(),
        ops in proptest::collection::vec(0u8..4, 0..60),
    ) {
        use synq_primitives::wait_slot::{CANCELLED, CLAIMED, MATCHED, WAITING};

        /// Payload that counts its own drops.
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        let mut created = 0usize;
        let mut new_payload = || {
            created += 1;
            Counted(Arc::clone(&drops))
        };

        // Reference model of the protocol.
        let mut state = WAITING;      // expected state word
        let mut filled = false;       // an initialized T was written
        let mut consumed = false;     // ...and moved back out
        let has_item = |filled: bool, consumed: bool| filled && !consumed;
        let mut left_waiting = false; // the real slot has read non-WAITING

        let slot: WaitSlot<Counted> = if starts_armed {
            filled = true;
            WaitSlot::with_item(new_payload())
        } else {
            WaitSlot::new()
        };

        for op in ops {
            match op {
                // A fulfiller visit: claim, move the item (taking a data
                // node's payload or depositing into a request node), and
                // complete. Must succeed exactly when the slot is WAITING.
                0 => {
                    let won = slot.try_claim();
                    prop_assert_eq!(won, state == WAITING);
                    if won {
                        if has_item(filled, consumed) {
                            drop(unsafe { slot.take_item() });
                            consumed = true;
                        } else if !filled {
                            unsafe { slot.put_item(new_payload()) };
                            filled = true;
                        }
                        slot.complete();
                        state = MATCHED;
                    }
                }
                // A stack-style one-shot token fulfillment.
                1 => {
                    let res = slot.try_fulfill_token(MIN_TOKEN);
                    if state == WAITING {
                        prop_assert_eq!(res, Ok(()));
                        state = MIN_TOKEN;
                    } else {
                        prop_assert_eq!(res, Err(state));
                    }
                }
                // The waiter's cancel CAS; a winner reclaims its item.
                2 => {
                    let won = slot.try_cancel();
                    prop_assert_eq!(won, state == WAITING);
                    if won {
                        state = CANCELLED;
                        if has_item(filled, consumed) {
                            drop(unsafe { slot.take_item() });
                            consumed = true;
                        }
                    }
                }
                // The waiter (or a matched party) collects the payload.
                _ => {
                    if (state == MATCHED || state >= MIN_TOKEN) && has_item(filled, consumed) {
                        drop(unsafe { slot.take_item() });
                        consumed = true;
                    }
                }
            }
            // One way only: once the slot has left WAITING it never reads
            // WAITING again.
            if left_waiting {
                prop_assert!(slot.state() != WAITING, "slot returned to WAITING");
            }
            left_waiting |= slot.state() != WAITING;
            prop_assert_eq!(slot.state(), state);
            prop_assert_eq!(slot.has_item(), has_item(filled, consumed));
            prop_assert!(state != CLAIMED, "ops above never end mid-claim");
        }

        drop(slot);
        prop_assert_eq!(
            drops.load(Ordering::Relaxed),
            created,
            "every payload must drop exactly once"
        );
    }

    /// Parker permit protocol: after any sequence of unparks (N ≥ 1
    /// banked at most one permit) a park returns immediately exactly once.
    #[test]
    fn parker_banks_at_most_one_permit(unparks in 1usize..6) {
        let p = Parker::new();
        let u = p.unparker();
        for _ in 0..unparks {
            u.unpark();
        }
        // One immediate success…
        prop_assert!(p.park_timeout(Duration::from_secs(5)));
        // …and nothing banked beyond it.
        prop_assert!(!p.park_timeout(Duration::from_millis(1)));
    }
}
