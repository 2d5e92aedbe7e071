//! A bounded MPMC ring buffer with cycle-versioned slots.
//!
//! This is the array-backed fast path in front of the rendezvous machinery
//! (DESIGN §4.11): SCQ-style sequence numbers (Nikolaev 2019, after
//! Vyukov's bounded MPMC queue) give each slot a *cycle* version so the
//! ABA problem is handled arithmetically — no epochs, no node allocation,
//! no reclamation. A slot at index `i & mask` carries a sequence word that
//! encodes both its cycle and its occupancy:
//!
//! ```text
//! seq == pos            slot free for the push at position `pos`
//! seq == pos + 1        slot holds the item pushed at position `pos`
//! seq == pos + capacity slot recycled: free for the *next* cycle's push
//! ```
//!
//! Push claims a position with one tail CAS, writes the item, then
//! publishes `seq = pos + 1`; pop claims with one head CAS, reads, then
//! releases the slot to the next cycle with `seq = pos + capacity`.
//! Because positions grow monotonically and `capacity` is a power of two,
//! a stale thread can never mistake an old cycle's slot state for the
//! current one (the classic ABA hazard of array queues).
//!
//! The batch variants reserve `k` contiguous positions with a *single*
//! head/tail CAS and then publish the `k` slots individually, amortizing
//! the contended-word update over the whole batch — the effect the
//! `ring.tail_updates` / `ring.push_items` probe ratio makes visible.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use synq_obs::probe;
use synq_primitives::CachePadded;

struct Slot<T> {
    /// Cycle/occupancy word (see the module docs).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free MPMC FIFO with per-slot cycle versioning.
///
/// Capacity is rounded up to a power of two (minimum 2). All operations
/// are non-blocking (`try_*`); [`TransferQueue`](super::TransferQueue)
/// makes whoever cannot use it wait as a linked node.
///
/// # Examples
///
/// ```
/// use synq::transfer::RingBuffer;
///
/// let r = RingBuffer::new(4);
/// assert_eq!(r.capacity(), 4);
/// assert_eq!(r.try_push(1), Ok(()));
/// assert_eq!(r.try_push(2), Ok(()));
/// assert_eq!(r.try_pop(), Some(1));
/// assert_eq!(r.try_pop(), Some(2));
/// assert_eq!(r.try_pop(), None);
/// ```
pub struct RingBuffer<T> {
    /// Next position to pop. Padded: producers never write it.
    pub(super) head: CachePadded<AtomicUsize>,
    /// Next position to push. Padded: consumers never write it.
    pub(super) tail: CachePadded<AtomicUsize>,
    mask: usize,
    slots: Box<[Slot<T>]>,
}

// SAFETY: the seq protocol hands each slot's cell to exactly one thread at
// a time (the claiming pusher, then the claiming popper), so only `T: Send`
// is required.
unsafe impl<T: Send> Send for RingBuffer<T> {}
unsafe impl<T: Send> Sync for RingBuffer<T> {}

impl<T> RingBuffer<T> {
    /// Bytes one buffered item occupies: the payload plus the one-word
    /// cycle/occupancy sequence (padded to `T`'s alignment). The slot
    /// array is the ring's only allocation, so this is also its whole
    /// per-item memory cost (DESIGN §4.11 sets it against the lower bound
    /// of "Memory Bounds for Concurrent Bounded Queues").
    pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// Creates a ring with at least `capacity` slots, rounded up to a
    /// power of two (minimum 2 — the seq scheme needs one bit of cycle
    /// distance between "pushed this cycle" and "free next cycle").
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingBuffer {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            mask: capacity - 1,
            slots,
        }
    }

    /// A ring with no slots and no allocation, for a queue that never
    /// buffers: it reads empty, a push or a pop would panic, and its
    /// capacity means nothing.
    pub(crate) fn without_slots() -> Self {
        RingBuffer {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            mask: 0,
            slots: Box::new([]),
        }
    }

    /// Number of slots (always a power of two ≥ 2).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Occupancy estimate. Exact when quiesced; racy loads otherwise, but
    /// always within `0..=capacity`.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::SeqCst);
        let head = self.head.load(Ordering::SeqCst);
        tail.wrapping_sub(head).min(self.capacity())
    }

    /// True when no item is buffered (same caveats as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every slot is occupied (same caveats as [`Self::len`]).
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }
}

impl<T: Send> RingBuffer<T> {
    /// Pushes `value` unless the ring is full, in which case it is handed
    /// back. Lock-free; one tail CAS per success.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(tail) as isize;
            if dif == 0 {
                match self.tail.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the tail CAS gave us exclusive ownership
                        // of this slot for position `tail`.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        probe!(RingTailUpdates);
                        probe!(RingPushItems);
                        return Ok(());
                    }
                    Err(current) => {
                        probe!(RingCasFails);
                        tail = current;
                    }
                }
            } else if dif < 0 {
                // The slot still holds the item from `capacity` positions
                // ago. Once the head has passed that position a popper
                // owns it and is about to release the slot: the ring only
                // looks full, so wait for the release. Otherwise it is.
                let previous = tail.wrapping_sub(self.capacity());
                if self.head.load(Ordering::SeqCst).wrapping_sub(previous) as isize > 0 {
                    std::thread::yield_now();
                    continue;
                }
                return Err(value);
            } else {
                // Another producer claimed this position; chase the tail.
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest item, or `None` when the ring is empty (or the
    /// front slot's producer has claimed but not yet published — the
    /// transient Vyukov "stalled producer" case, reported as empty).
    pub fn try_pop(&self) -> Option<T> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(head.wrapping_add(1)) as isize;
            if dif == 0 {
                match self.head.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the head CAS gave us exclusive ownership
                        // of the published item at position `head`.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(head.wrapping_add(self.capacity()), Ordering::Release);
                        probe!(RingHeadUpdates);
                        probe!(RingPopItems);
                        return Some(value);
                    }
                    Err(current) => {
                        probe!(RingCasFails);
                        head = current;
                    }
                }
            } else if dif < 0 {
                return None;
            } else {
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pushes the longest possible prefix of `items` (bounded by the
    /// contiguous free slots observed), removing pushed items from the
    /// front of the vector. Returns how many were pushed. The whole
    /// prefix is reserved with a **single** tail CAS; the per-slot
    /// sequence words are then published in order, so consumers can start
    /// draining the batch before the producer finishes writing it.
    pub fn try_push_batch(&self, items: &mut Vec<T>) -> usize {
        let want = items.len().min(self.capacity());
        if want == 0 {
            return 0;
        }
        loop {
            let tail = self.tail.load(Ordering::Relaxed);
            // Longest run of free slots at [tail, tail + want).
            let mut k = 0;
            let mut stale = false;
            while k < want {
                let pos = tail.wrapping_add(k);
                let seq = self.slots[pos & self.mask].seq.load(Ordering::Acquire);
                let dif = seq.wrapping_sub(pos) as isize;
                if dif == 0 {
                    k += 1;
                } else if dif < 0 {
                    break; // occupied: ring full past here
                } else {
                    stale = true; // another producer moved the tail
                    break;
                }
            }
            if stale {
                continue;
            }
            if k == 0 {
                return 0; // full
            }
            match self.tail.compare_exchange(
                tail,
                tail.wrapping_add(k),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // SAFETY: the k-slot reservation is exclusively ours —
                    // producers claim positions only through the tail CAS
                    // we just won, and a consumer touches a slot only once
                    // its seq says "pushed", which we publish below.
                    for (offset, value) in items.drain(..k).enumerate() {
                        let pos = tail.wrapping_add(offset);
                        let slot = &self.slots[pos & self.mask];
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                    }
                    probe!(RingTailUpdates);
                    probe!(RingPushItems, k);
                    return k;
                }
                Err(_) => {
                    probe!(RingCasFails);
                    continue;
                }
            }
        }
    }

    /// Pops up to `max` items into `out` (bounded by the contiguous
    /// published items observed), returning how many arrived. The whole
    /// run is claimed with a **single** head CAS.
    pub fn try_pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let want = max.min(self.capacity());
        if want == 0 {
            return 0;
        }
        loop {
            let head = self.head.load(Ordering::Relaxed);
            let mut k = 0;
            let mut stale = false;
            while k < want {
                let pos = head.wrapping_add(k);
                let seq = self.slots[pos & self.mask].seq.load(Ordering::Acquire);
                let dif = seq.wrapping_sub(pos.wrapping_add(1)) as isize;
                if dif == 0 {
                    k += 1;
                } else if dif < 0 {
                    break; // not yet published: empty past here
                } else {
                    stale = true; // another consumer moved the head
                    break;
                }
            }
            if stale {
                continue;
            }
            if k == 0 {
                return 0; // empty
            }
            match self.head.compare_exchange(
                head,
                head.wrapping_add(k),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    out.reserve(k);
                    for offset in 0..k {
                        let pos = head.wrapping_add(offset);
                        let slot = &self.slots[pos & self.mask];
                        // SAFETY: the head CAS claimed these k published
                        // items exclusively.
                        out.push(unsafe { (*slot.value.get()).assume_init_read() });
                        slot.seq
                            .store(pos.wrapping_add(self.capacity()), Ordering::Release);
                    }
                    probe!(RingHeadUpdates);
                    probe!(RingPopItems, k);
                    return k;
                }
                Err(_) => {
                    probe!(RingCasFails);
                    continue;
                }
            }
        }
    }
}

impl<T> Drop for RingBuffer<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the occupied positions and drop in place.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut pos = head;
        while pos != tail {
            let slot = &mut self.slots[pos & self.mask];
            if *slot.seq.get_mut() == pos.wrapping_add(1) {
                // SAFETY: seq says "pushed, not popped"; we are the only
                // thread left.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

impl<T> std::fmt::Debug for RingBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBuffer")
            .field("capacity", &(self.mask + 1))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(RingBuffer::<u8>::new(0).capacity(), 2);
        assert_eq!(RingBuffer::<u8>::new(1).capacity(), 2);
        assert_eq!(RingBuffer::<u8>::new(3).capacity(), 4);
        assert_eq!(RingBuffer::<u8>::new(64).capacity(), 64);
        assert_eq!(RingBuffer::<u8>::new(65).capacity(), 128);
    }

    #[test]
    fn fifo_and_full_empty_edges() {
        let r = RingBuffer::new(4);
        assert!(r.is_empty() && !r.is_full());
        for i in 0..4 {
            assert_eq!(r.try_push(i), Ok(()));
        }
        assert!(r.is_full());
        assert_eq!(r.try_push(99), Err(99));
        for i in 0..4 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn sequence_reuse_across_many_cycles() {
        // Capacity 2 forces a cycle rollover every other push: position
        // arithmetic must keep slot states unambiguous across reuse.
        let r = RingBuffer::new(2);
        for round in 0..1_000u64 {
            assert_eq!(r.try_push(round), Ok(()));
            assert_eq!(r.try_push(round + 1_000_000), Ok(()));
            assert_eq!(r.try_push(round), Err(round), "round {round} not full");
            assert_eq!(r.try_pop(), Some(round));
            assert_eq!(r.try_pop(), Some(round + 1_000_000));
            assert_eq!(r.try_pop(), None, "round {round} not empty");
        }
    }

    #[test]
    fn a_push_waits_for_a_pop_that_has_not_released_its_slot() {
        let r = RingBuffer::new(2);
        assert_eq!(r.try_push(1), Ok(()));
        assert_eq!(r.try_push(2), Ok(()));
        // Pop position 0 up to its head CAS, as a popper descheduled before
        // its `seq` store: the indices say one slot is free.
        r.head.store(1, Ordering::SeqCst);
        // SAFETY: the hand-made head CAS owns the item at position 0.
        assert_eq!(unsafe { (*r.slots[0].value.get()).assume_init_read() }, 1);
        assert_eq!(r.len(), 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                r.slots[0].seq.store(r.capacity(), Ordering::Release);
            });
            assert_eq!(r.try_push(3), Ok(()), "the ring was not full");
        });
        assert_eq!(r.try_push(4), Err(4), "full by the indices");
        assert_eq!(r.try_pop(), Some(2));
        assert_eq!(r.try_pop(), Some(3));
    }

    #[test]
    fn batch_push_pop_roundtrip() {
        let r = RingBuffer::new(8);
        let mut items: Vec<u32> = (0..5).collect();
        assert_eq!(r.try_push_batch(&mut items), 5);
        assert!(items.is_empty());
        // Partial: only 3 slots left.
        let mut more: Vec<u32> = (5..11).collect();
        assert_eq!(r.try_push_batch(&mut more), 3);
        assert_eq!(more, vec![8, 9, 10]);
        let mut out = Vec::new();
        assert_eq!(r.try_pop_batch(&mut out, 6), 6);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.try_pop_batch(&mut out, 100), 2);
        assert_eq!(r.try_pop_batch(&mut out, 100), 0);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn drop_releases_buffered_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let r = RingBuffer::new(4);
            // Wrap once so head/tail are mid-cycle, then leave two behind.
            for _ in 0..3 {
                r.try_push(D).ok();
            }
            drop(r.try_pop());
            drop(r.try_pop());
            r.try_push(D).ok();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn concurrent_mpmc_conserves_sum() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let iters = if cfg!(miri) { 200u64 } else { 20_000 };
        let r = Arc::new(RingBuffer::new(16));
        let sum = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..2u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..iters {
                    let mut v = p * iters + i;
                    loop {
                        match r.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        for _ in 0..2 {
            let r = Arc::clone(&r);
            let sum = Arc::clone(&sum);
            let popped = Arc::clone(&popped);
            handles.push(std::thread::spawn(move || loop {
                if popped.load(Ordering::SeqCst) >= 2 * iters {
                    break;
                }
                if let Some(v) = r.try_pop() {
                    sum.fetch_add(v, Ordering::SeqCst);
                    popped.fetch_add(1, Ordering::SeqCst);
                } else {
                    std::thread::yield_now();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expect: u64 = (0..2 * iters).sum();
        assert_eq!(sum.load(Ordering::SeqCst), expect);
    }
}
