//! The *nonsynchronous* dual queue of Scherer & Scott (DISC 2004) — the
//! direct ancestor of the paper's synchronous dual queue.
//!
//! A total FIFO queue in which early consumers insert *reservations*:
//! `dequeue_reserve` linearizes the request, and the returned ticket's
//! `followup` (paper Listing 2) later collects the value without bus or
//! memory contention — the waiter re-reads only its own node. Producers
//! never wait: `enqueue` either fulfills the oldest reservation or appends
//! a data node and returns.
//!
//! Node lifetime follows the same refcount + epoch discipline as
//! `synq::dual_queue` (see that module's docs); data nodes carry only the
//! structure's reference since no thread waits on them.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use synq_primitives::{CachePadded, Parker, WaiterCell};
use synq_reclaim::{Atomic, Epoch, Guard, Owned, Reclaimer, Shared, Shield};

const WAITING: usize = 0;
const CLAIMED: usize = 1;
const FULFILLED: usize = 2;
const CANCELLED: usize = 3;

struct Node<T> {
    state: AtomicUsize,
    item: UnsafeCell<MaybeUninit<T>>,
    consumed: AtomicBool,
    next: Atomic<Node<T>>,
    is_data: bool,
    waiter: WaiterCell,
    refs: AtomicUsize,
    unlinked: AtomicBool,
}

impl<T> Node<T> {
    fn new(is_data: bool, refs: usize) -> Owned<Node<T>> {
        Owned::new(Node {
            state: AtomicUsize::new(WAITING),
            item: UnsafeCell::new(MaybeUninit::uninit()),
            consumed: AtomicBool::new(false),
            next: Atomic::null(),
            is_data,
            waiter: WaiterCell::new(),
            refs: AtomicUsize::new(refs),
            unlinked: AtomicBool::new(false),
        })
    }

    fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Acquire) == CANCELLED
    }

    unsafe fn take_item(&self) -> T {
        let was = self.consumed.swap(true, Ordering::AcqRel);
        debug_assert!(!was, "item taken twice");
        // SAFETY: caller holds exclusive slot access.
        unsafe { (*self.item.get()).assume_init_read() }
    }

    unsafe fn release(ptr: *const Node<T>) {
        // SAFETY: caller owns one reference.
        let node = unsafe { &*ptr };
        if node.refs.fetch_sub(1, Ordering::Release) == 1 {
            std::sync::atomic::fence(Ordering::Acquire);
            // SAFETY: last reference.
            let mut owned = unsafe { Box::from_raw(ptr as *mut Node<T>) };
            let has_item = if owned.is_data {
                !*owned.consumed.get_mut()
            } else {
                *owned.state.get_mut() == FULFILLED && !*owned.consumed.get_mut()
            };
            if has_item {
                // SAFETY: slot holds a value per the state machine.
                unsafe { (*owned.item.get()).assume_init_drop() };
            }
            drop(owned);
        }
    }
}

/// Outcome-bearing ticket returned by [`DualQueue::dequeue_reserve`].
///
/// Either the value was available immediately (`Ready`), or a reservation
/// was linked and the holder polls it with
/// [`DequeueTicket::try_followup`] / waits with [`DequeueTicket::wait`] /
/// gives up with [`DequeueTicket::abort`].
pub struct DequeueTicket<'q, T: Send> {
    queue: &'q DualQueue<T>,
    state: TicketState<T>,
}

enum TicketState<T> {
    Ready(Option<T>),
    Pending(*const Node<T>),
    Finished,
}

/// The nonsynchronous dual queue.
///
/// # Examples
///
/// ```
/// use synq_classic::DualQueue;
///
/// let q = DualQueue::new();
/// // Early consumer: linearizes a reservation.
/// let mut ticket = q.dequeue_reserve();
/// assert_eq!(ticket.try_followup(), None); // not fulfilled yet
/// q.enqueue(7); // producer never waits
/// assert_eq!(ticket.wait(), 7);
/// ```
pub struct DualQueue<T> {
    /// Padded apart from `tail`: dequeue-side traffic must not invalidate
    /// enqueuers (the contention-freedom lineage of the dual structures).
    head: CachePadded<Atomic<Node<T>>>,
    tail: CachePadded<Atomic<Node<T>>>,
}

const _: () = assert!(std::mem::align_of::<DualQueue<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<DualQueue<u8>>() >= 256);

// SAFETY: same argument as synq::SyncDualQueue.
unsafe impl<T: Send> Send for DualQueue<T> {}
unsafe impl<T: Send> Sync for DualQueue<T> {}

impl<T: Send> Default for DualQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> DualQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let dummy = Node::new(false, 1);
        let guard = unsafe { Epoch::unprotected() };
        let dummy = dummy.into_shared(&guard);
        let head = Atomic::null();
        let tail = Atomic::null();
        head.store(dummy, Ordering::Relaxed);
        tail.store(dummy, Ordering::Relaxed);
        DualQueue {
            head: CachePadded::new(head),
            tail: CachePadded::new(tail),
        }
    }

    fn advance_head<'g>(
        &self,
        h: Shared<'g, Node<T>>,
        nh: Shared<'g, Node<T>>,
        guard: &'g Guard,
    ) -> bool {
        if self
            .head
            .compare_exchange(h, nh, Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            // SAFETY: unlinked by our CAS.
            let was = unsafe { h.deref() }.unlinked.swap(true, Ordering::AcqRel);
            debug_assert!(!was);
            let raw = h.as_raw() as usize;
            // SAFETY: unlinked, and retired once; freed past the grace period.
            unsafe {
                guard.defer_retire(raw, move || Node::release(raw as *const Node<T>));
            }
            true
        } else {
            false
        }
    }

    fn absorb_cancelled(&self, guard: &Guard) {
        loop {
            let h = self.head.load(Ordering::Acquire, guard);
            // SAFETY: head never null.
            let hn = unsafe { h.deref() }.next.load(Ordering::Acquire, guard);
            let Some(hn_ref) = (unsafe { hn.as_ref() }) else {
                return;
            };
            if !hn_ref.is_cancelled() {
                return;
            }
            let _ = self.advance_head(h, hn, guard);
        }
    }

    /// Total enqueue: fulfills the oldest reservation or appends data.
    /// Never waits.
    pub fn enqueue(&self, value: T) {
        let mut value = Some(value);
        let mut node: Option<Owned<Node<T>>> = None;
        loop {
            let guard = Epoch::pin();
            self.absorb_cancelled(&guard);
            let h = self.head.load(Ordering::Acquire, &guard);
            let t = self.tail.load(Ordering::Acquire, &guard);
            // SAFETY: never null.
            let t_ref = unsafe { t.deref() };

            if h.ptr_eq(&t) || t_ref.is_data {
                // Append a data node.
                let n = t_ref.next.load(Ordering::Acquire, &guard);
                if !t.ptr_eq(&self.tail.load(Ordering::Acquire, &guard)) {
                    continue;
                }
                if !n.is_null() {
                    let _ = self.tail.compare_exchange(
                        t,
                        n,
                        Ordering::Release,
                        Ordering::Relaxed,
                        &guard,
                    );
                    continue;
                }
                let owned = match node.take() {
                    Some(n) => n,
                    None => Node::new(true, 1),
                };
                // SAFETY: unpublished node.
                unsafe { (*owned.item.get()).write(value.take().expect("value present")) };
                match t_ref.next.compare_exchange(
                    Shared::null(),
                    owned,
                    Ordering::Release,
                    Ordering::Acquire,
                    &guard,
                ) {
                    Ok(published) => {
                        let _ = self.tail.compare_exchange(
                            t,
                            published,
                            Ordering::Release,
                            Ordering::Relaxed,
                            &guard,
                        );
                        return;
                    }
                    Err(e) => {
                        let owned = e.new;
                        // SAFETY: unpublished; reclaim value.
                        value = Some(unsafe { (*owned.item.get()).assume_init_read() });
                        node = Some(owned);
                        continue;
                    }
                }
            }

            // Reservations present: fulfill the oldest (Figure 1).
            // SAFETY: head never null.
            let m = unsafe { h.deref() }.next.load(Ordering::Acquire, &guard);
            if !h.ptr_eq(&self.head.load(Ordering::Acquire, &guard)) || m.is_null() {
                continue;
            }
            // SAFETY: reachable under our pin.
            let m_ref = unsafe { m.deref() };
            let fulfilled = if m_ref
                .state
                .compare_exchange(WAITING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: claim grants write access.
                unsafe { (*m_ref.item.get()).write(value.take().expect("value present")) };
                m_ref.state.store(FULFILLED, Ordering::Release);
                m_ref.waiter.wake();
                true
            } else {
                false
            };
            let _ = self.advance_head(h, m, &guard);
            if fulfilled {
                return;
            }
        }
    }

    /// Request half of the dequeue (paper Listing 2): takes a value
    /// immediately if one is present, otherwise linearizes a reservation.
    pub fn dequeue_reserve(&self) -> DequeueTicket<'_, T> {
        let mut node: Option<Owned<Node<T>>> = None;
        loop {
            let guard = Epoch::pin();
            self.absorb_cancelled(&guard);
            let h = self.head.load(Ordering::Acquire, &guard);
            let t = self.tail.load(Ordering::Acquire, &guard);
            // SAFETY: never null.
            let t_ref = unsafe { t.deref() };

            if h.ptr_eq(&t) || !t_ref.is_data {
                // Empty or reservations: append ours.
                let n = t_ref.next.load(Ordering::Acquire, &guard);
                if !t.ptr_eq(&self.tail.load(Ordering::Acquire, &guard)) {
                    continue;
                }
                if !n.is_null() {
                    let _ = self.tail.compare_exchange(
                        t,
                        n,
                        Ordering::Release,
                        Ordering::Relaxed,
                        &guard,
                    );
                    continue;
                }
                let owned = match node.take() {
                    Some(n) => n,
                    None => Node::new(false, 2),
                };
                match t_ref.next.compare_exchange(
                    Shared::null(),
                    owned,
                    Ordering::Release,
                    Ordering::Acquire,
                    &guard,
                ) {
                    Ok(published) => {
                        let _ = self.tail.compare_exchange(
                            t,
                            published,
                            Ordering::Release,
                            Ordering::Relaxed,
                            &guard,
                        );
                        return DequeueTicket {
                            queue: self,
                            state: TicketState::Pending(published.as_raw()),
                        };
                    }
                    Err(e) => {
                        node = Some(e.new);
                        continue;
                    }
                }
            }

            // Data present: take the oldest.
            // SAFETY: head never null.
            let m = unsafe { h.deref() }.next.load(Ordering::Acquire, &guard);
            if !h.ptr_eq(&self.head.load(Ordering::Acquire, &guard)) || m.is_null() {
                continue;
            }
            // SAFETY: reachable under our pin.
            let m_ref = unsafe { m.deref() };
            let mut taken = None;
            if m_ref
                .state
                .compare_exchange(WAITING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: claim grants read access.
                taken = Some(unsafe { m_ref.take_item() });
                m_ref.state.store(FULFILLED, Ordering::Release);
            }
            let _ = self.advance_head(h, m, &guard);
            if let Some(v) = taken {
                return DequeueTicket {
                    queue: self,
                    state: TicketState::Ready(Some(v)),
                };
            }
        }
    }

    /// Demand method: reserve + spin/park followups until fulfilled.
    pub fn dequeue(&self) -> T {
        self.dequeue_reserve().wait()
    }

    /// Totalized dequeue: `None` when no data is present.
    pub fn try_dequeue(&self) -> Option<T> {
        let mut ticket = self.dequeue_reserve();
        match ticket.try_followup() {
            Some(v) => Some(v),
            None => {
                let aborted = ticket.abort();
                if aborted {
                    None
                } else {
                    // Fulfilled between followup and abort.
                    ticket.try_followup()
                }
            }
        }
    }
}

impl<T: Send> DequeueTicket<'_, T> {
    /// Follow-up (paper Listing 2): returns the value if the reservation
    /// has been fulfilled. Contention-free: reads only our own node.
    pub fn try_followup(&mut self) -> Option<T> {
        match &mut self.state {
            TicketState::Ready(v) => {
                let v = v.take();
                self.state = TicketState::Finished;
                v
            }
            TicketState::Pending(raw) => {
                let raw = *raw;
                // SAFETY: the ticket holds one of the node's references.
                let node = unsafe { &*raw };
                if node.state.load(Ordering::Acquire) == FULFILLED {
                    // SAFETY: FULFILLED publishes the producer's write.
                    let v = unsafe { node.take_item() };
                    // SAFETY: the ticket's reference.
                    unsafe { Node::release(raw) };
                    self.state = TicketState::Finished;
                    Some(v)
                } else {
                    None
                }
            }
            TicketState::Finished => None,
        }
    }

    /// Abort (paper Listing 2): cancels the reservation. Returns false if
    /// it was already fulfilled (the value is then collectable via
    /// [`DequeueTicket::try_followup`]).
    pub fn abort(&mut self) -> bool {
        match &self.state {
            TicketState::Ready(_) => false,
            TicketState::Finished => false,
            TicketState::Pending(raw) => {
                let raw = *raw;
                // SAFETY: ticket reference.
                let node = unsafe { &*raw };
                loop {
                    match node.state.compare_exchange(
                        WAITING,
                        CANCELLED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            node.waiter.take();
                            let guard = Epoch::pin();
                            self.queue.absorb_cancelled(&guard);
                            drop(guard);
                            // SAFETY: ticket reference.
                            unsafe { Node::release(raw) };
                            self.state = TicketState::Finished;
                            return true;
                        }
                        Err(CLAIMED) => {
                            // A producer is mid-fulfillment; the
                            // reservation can no longer be aborted.
                            std::thread::yield_now();
                            if node.state.load(Ordering::Acquire) == FULFILLED {
                                return false;
                            }
                        }
                        Err(_) => return false, // FULFILLED
                    }
                }
            }
        }
    }

    /// Demand: spin briefly, then park until fulfilled.
    pub fn wait(mut self) -> T {
        if let Some(v) = self.try_followup() {
            return v;
        }
        let raw = match &self.state {
            TicketState::Pending(raw) => *raw,
            _ => unreachable!("followup returned None on non-pending ticket"),
        };
        // SAFETY: ticket reference.
        let node = unsafe { &*raw };
        let parker = Parker::new();
        let mut spins = 64u32;
        loop {
            if node.state.load(Ordering::Acquire) == FULFILLED {
                // SAFETY: FULFILLED publishes the write.
                let v = unsafe { node.take_item() };
                // SAFETY: ticket reference.
                unsafe { Node::release(raw) };
                self.state = TicketState::Finished;
                return v;
            }
            if spins > 0 {
                spins -= 1;
                std::hint::spin_loop();
                continue;
            }
            node.waiter.register(parker.unparker());
            if node.state.load(Ordering::Acquire) == FULFILLED {
                continue;
            }
            parker.park();
        }
    }

    /// Demand with patience; `None` on timeout (the reservation is then
    /// aborted).
    pub fn wait_timeout(mut self, patience: Duration) -> Option<T> {
        let deadline = Instant::now() + patience;
        loop {
            if let Some(v) = self.try_followup() {
                return Some(v);
            }
            if Instant::now() >= deadline {
                return if self.abort() {
                    None
                } else {
                    self.try_followup()
                };
            }
            std::thread::yield_now();
        }
    }
}

impl<T: Send> Drop for DequeueTicket<'_, T> {
    fn drop(&mut self) {
        if matches!(self.state, TicketState::Pending(_)) {
            // Abandoned ticket: cancel the reservation (or collect and drop
            // the value if fulfillment won the race).
            if !self.abort() {
                drop(self.try_followup());
            }
        }
    }
}

impl<T> Drop for DualQueue<T> {
    fn drop(&mut self) {
        let guard = unsafe { Epoch::unprotected() };
        let mut p = self.head.load(Ordering::Relaxed, &guard);
        while !p.is_null() {
            // SAFETY: exclusive access in Drop.
            let node = unsafe { p.deref() };
            let next = node.next.load(Ordering::Relaxed, &guard);
            unsafe { Node::release(p.as_raw()) };
            p = next;
        }
    }
}

impl<T> std::fmt::Debug for DualQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("DualQueue { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_buffering() {
        let q = DualQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.try_dequeue(), Some(1));
        assert_eq!(q.try_dequeue(), Some(2));
        assert_eq!(q.try_dequeue(), Some(3));
        assert_eq!(q.try_dequeue(), None);
    }

    #[test]
    fn reservation_fulfilled_later() {
        let q = DualQueue::new();
        let mut ticket = q.dequeue_reserve();
        assert_eq!(ticket.try_followup(), None);
        q.enqueue(9);
        // Contention-free followup eventually observes the fulfillment.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(v) = ticket.try_followup() {
                assert_eq!(v, 9);
                break;
            }
            assert!(Instant::now() < deadline);
        }
    }

    #[test]
    fn reservations_fulfilled_in_fifo_order() {
        let q = DualQueue::new();
        let mut t1 = q.dequeue_reserve();
        let mut t2 = q.dequeue_reserve();
        q.enqueue(10);
        q.enqueue(20);
        assert_eq!(t1.try_followup(), Some(10));
        assert_eq!(t2.try_followup(), Some(20));
    }

    #[test]
    fn abort_prevents_fulfillment() {
        let q = DualQueue::new();
        let mut ticket = q.dequeue_reserve();
        assert!(ticket.abort());
        q.enqueue(5);
        // The cancelled reservation was skipped: value still queued.
        assert_eq!(q.try_dequeue(), Some(5));
    }

    #[test]
    fn abort_after_fulfillment_fails_and_value_collectable() {
        let q = DualQueue::new();
        let mut ticket = q.dequeue_reserve();
        q.enqueue(6);
        // Ensure fulfillment landed.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(ticket.try_followup(), Some(6)) {
            assert!(Instant::now() < deadline);
            // try_followup consumed Finished state? No: returns None until
            // fulfilled, Some exactly once.
        }
        assert!(!ticket.abort());
    }

    #[test]
    fn wait_parks_until_producer() {
        let q = Arc::new(DualQueue::new());
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.dequeue());
        thread::sleep(Duration::from_millis(20));
        q.enqueue(77);
        assert_eq!(consumer.join().unwrap(), 77);
    }

    #[test]
    fn wait_timeout_aborts() {
        let q: DualQueue<u32> = DualQueue::new();
        let ticket = q.dequeue_reserve();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(20)), None);
        q.enqueue(3);
        assert_eq!(q.try_dequeue(), Some(3));
    }

    #[test]
    fn dropped_ticket_cancels_cleanly() {
        let q: DualQueue<u32> = DualQueue::new();
        drop(q.dequeue_reserve());
        q.enqueue(4);
        assert_eq!(q.try_dequeue(), Some(4));
    }

    #[test]
    fn producers_never_block() {
        let q: DualQueue<u64> = DualQueue::new();
        for i in 0..1_000 {
            q.enqueue(i); // would hang the test if enqueue could block
        }
        for i in 0..1_000 {
            assert_eq!(q.try_dequeue(), Some(i));
        }
    }

    #[test]
    fn mpmc_conservation() {
        const PRODUCERS: usize = 3;
        const PER: usize = 500;
        let q = Arc::new(DualQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.enqueue((p * PER + i) as u64);
                }
            }));
        }
        let consumers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || (0..PER).map(|_| q.dequeue()).sum::<u64>())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, (0..(PRODUCERS * PER) as u64).sum::<u64>());
    }

    #[test]
    fn drop_frees_buffered_values() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q = DualQueue::new();
            for _ in 0..6 {
                q.enqueue(D);
            }
            drop(q.try_dequeue());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }
}
