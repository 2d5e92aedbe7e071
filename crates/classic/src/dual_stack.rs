//! The *nonsynchronous* dual stack of Scherer & Scott (DISC 2004) — the
//! direct ancestor of the paper's synchronous dual stack.
//!
//! A total LIFO stack in which early poppers insert *reservations* and
//! pushers never wait. Fulfillment uses the same annihilating-fulfilling-
//! node protocol as the synchronous version (Figure 2): a pusher finding a
//! reservation on top pushes a `FULFILLING` data node above it, any thread
//! can help complete the match, and the pair pops together. The returned
//! [`PopTicket`] exposes the request/follow-up/abort interface of the
//! paper's Listing 2.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use synq_primitives::{CachePadded, Parker, WaiterCell};
use synq_reclaim::{Atomic, Epoch, Guard, Owned, Reclaimer, Shared, Shield};

const REQUEST: usize = 0;
const DATA: usize = 1;
const FULFILLING: usize = 2;

struct Node<T> {
    mode: usize,
    /// null = waiting; self = cancelled; else = the fulfilling node.
    match_: AtomicPtr<Node<T>>,
    item: UnsafeCell<MaybeUninit<T>>,
    consumed: AtomicBool,
    next: Atomic<Node<T>>,
    waiter: WaiterCell,
    refs: AtomicUsize,
    unlinked: AtomicBool,
}

impl<T> Node<T> {
    fn new(mode: usize, refs: usize) -> Owned<Node<T>> {
        Owned::new(Node {
            mode,
            match_: AtomicPtr::new(ptr::null_mut()),
            item: UnsafeCell::new(MaybeUninit::uninit()),
            consumed: AtomicBool::new(false),
            next: Atomic::null(),
            waiter: WaiterCell::new(),
            refs: AtomicUsize::new(refs),
            unlinked: AtomicBool::new(false),
        })
    }

    fn is_fulfilling(&self) -> bool {
        self.mode & FULFILLING != 0
    }

    fn is_data(&self) -> bool {
        self.mode & DATA != 0
    }

    fn is_cancelled(&self) -> bool {
        std::ptr::eq(
            self.match_.load(Ordering::Acquire),
            self as *const _ as *mut _,
        )
    }

    unsafe fn take_item(&self) -> T {
        let was = self.consumed.swap(true, Ordering::AcqRel);
        debug_assert!(!was, "item taken twice");
        // SAFETY: caller holds exclusive slot access.
        unsafe { (*self.item.get()).assume_init_read() }
    }

    unsafe fn release(ptr_: *const Node<T>) {
        // SAFETY: caller owns one reference.
        let node = unsafe { &*ptr_ };
        if node.refs.fetch_sub(1, Ordering::Release) == 1 {
            std::sync::atomic::fence(Ordering::Acquire);
            // SAFETY: last reference.
            let mut owned = unsafe { Box::from_raw(ptr_ as *mut Node<T>) };
            if owned.is_data() && !*owned.consumed.get_mut() {
                // SAFETY: data nodes hold an item until consumed.
                unsafe { (*owned.item.get()).assume_init_drop() };
            }
            drop(owned);
        }
    }
}

/// Ticket returned by [`DualStack::pop_reserve`] (paper Listing 2).
pub struct PopTicket<'s, T: Send> {
    stack: &'s DualStack<T>,
    state: TicketState<T>,
}

enum TicketState<T> {
    Ready(Option<T>),
    Pending(*const Node<T>),
    Finished,
}

/// The nonsynchronous dual stack.
///
/// # Examples
///
/// ```
/// use synq_classic::DualStack;
///
/// let s = DualStack::new();
/// s.push(1);
/// s.push(2);
/// assert_eq!(s.try_pop(), Some(2)); // LIFO
/// let mut ticket = s.pop_reserve();  // early popper reserves
/// assert_eq!(ticket.try_followup(), Some(1));
/// ```
pub struct DualStack<T> {
    /// Padded: every operation CASes `head`, so it owns its line.
    head: CachePadded<Atomic<Node<T>>>,
}

const _: () = assert!(std::mem::align_of::<DualStack<u8>>() >= 128);

// SAFETY: same argument as synq::SyncDualStack.
unsafe impl<T: Send> Send for DualStack<T> {}
unsafe impl<T: Send> Sync for DualStack<T> {}

impl<T: Send> Default for DualStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> DualStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        DualStack {
            head: CachePadded::new(Atomic::null()),
        }
    }

    fn release_structure_ref<'g>(&self, node: Shared<'g, Node<T>>, guard: &'g Guard) {
        // SAFETY: protected by the guard.
        if unsafe { node.deref() }
            .unlinked
            .swap(true, Ordering::AcqRel)
        {
            return;
        }
        let raw = node.as_raw() as usize;
        // SAFETY: unlinked, and retired once; freed past the grace period.
        unsafe {
            guard.defer_retire(raw, move || Node::release(raw as *const Node<T>));
        }
    }

    fn pop_head<'g>(
        &self,
        h: Shared<'g, Node<T>>,
        new_head: Shared<'g, Node<T>>,
        extra: Option<Shared<'g, Node<T>>>,
        guard: &'g Guard,
    ) -> bool {
        if self
            .head
            .compare_exchange(h, new_head, Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            self.release_structure_ref(h, guard);
            if let Some(m) = extra {
                self.release_structure_ref(m, guard);
            }
            true
        } else {
            false
        }
    }

    fn try_match<'g>(&self, m: Shared<'g, Node<T>>, f: Shared<'g, Node<T>>, _g: &'g Guard) -> bool {
        // SAFETY: both protected.
        let m_ref = unsafe { m.deref() };
        let f_ref = unsafe { f.deref() };
        // A reservation's ticket reads `f` through `match_` and releases
        // it; a data node has no ticket, so nobody would.
        let for_ticket = !m_ref.is_data();
        if for_ticket {
            f_ref.refs.fetch_add(1, Ordering::AcqRel);
        }
        match m_ref.match_.compare_exchange(
            ptr::null_mut(),
            f.as_raw() as *mut Node<T>,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                m_ref.waiter.wake();
                true
            }
            Err(actual) => {
                if for_ticket {
                    // SAFETY: revoke the speculative reference.
                    unsafe { Node::release(f.as_raw()) };
                }
                std::ptr::eq(actual, f.as_raw())
            }
        }
    }

    fn absorb_cancelled(&self, guard: &Guard) {
        loop {
            let h = self.head.load(Ordering::Acquire, guard);
            let Some(h_ref) = (unsafe { h.as_ref() }) else {
                return;
            };
            if !h_ref.is_cancelled() {
                return;
            }
            let next = h_ref.next.load(Ordering::Acquire, guard);
            let _ = self.pop_head(h, next, None, guard);
        }
    }

    /// Runs the annihilation protocol with `f` (our fulfilling node, just
    /// pushed at the head). Returns the matched node's item for REQUEST
    /// fulfillers, `None` for DATA fulfillers, or `Err(())` if every node
    /// beneath was cancelled (caller retries).
    fn fulfill<'g>(&self, f: Shared<'g, Node<T>>, guard: &'g Guard) -> Result<Option<T>, ()> {
        // SAFETY: protected + we hold the owner reference.
        let f_ref = unsafe { f.deref() };
        loop {
            let m = f_ref.next.load(Ordering::Acquire, guard);
            let Some(m_ref) = (unsafe { m.as_ref() }) else {
                let _ = self.pop_head(f, Shared::null(), None, guard);
                return Err(());
            };
            let mn = m_ref.next.load(Ordering::Acquire, guard);
            if self.try_match(m, f, guard) {
                let _ = self.pop_head(f, mn, Some(m), guard);
                return Ok(if f_ref.is_data() {
                    None
                } else {
                    // SAFETY: the match grants unique read access.
                    Some(unsafe { m_ref.take_item() })
                });
            }
            // m cancelled: skip it.
            if f_ref
                .next
                .compare_exchange(m, mn, Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok()
            {
                self.release_structure_ref(m, guard);
            }
        }
    }

    /// Helps the fulfilling node at the head complete its match.
    fn help<'g>(&self, h: Shared<'g, Node<T>>, guard: &'g Guard) {
        // SAFETY: protected.
        let h_ref = unsafe { h.deref() };
        let m = h_ref.next.load(Ordering::Acquire, guard);
        match unsafe { m.as_ref() } {
            None => {
                let _ = self.pop_head(h, Shared::null(), None, guard);
            }
            Some(m_ref) => {
                let mn = m_ref.next.load(Ordering::Acquire, guard);
                if self.try_match(m, h, guard) {
                    let _ = self.pop_head(h, mn, Some(m), guard);
                } else if h_ref
                    .next
                    .compare_exchange(m, mn, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok()
                {
                    self.release_structure_ref(m, guard);
                }
            }
        }
    }

    /// Total push: fulfills the youngest reservation or buffers the value.
    /// Never waits.
    pub fn push(&self, value: T) {
        let mut value = Some(value);
        let mut node: Option<Owned<Node<T>>> = None;
        loop {
            let guard = Epoch::pin();
            self.absorb_cancelled(&guard);
            let h = self.head.load(Ordering::Acquire, &guard);
            let h_ref = unsafe { h.as_ref() };

            match h_ref {
                None => {}
                Some(r) if r.is_fulfilling() => {
                    self.help(h, &guard);
                    continue;
                }
                Some(r) if !r.is_data() => {
                    // Reservation on top: push a fulfilling data node.
                    let owned = match node.take() {
                        Some(mut n) => {
                            n.mode = DATA | FULFILLING;
                            n.refs.store(2, Ordering::Relaxed);
                            n
                        }
                        None => Node::new(DATA | FULFILLING, 2),
                    };
                    // SAFETY: unpublished node.
                    unsafe {
                        (*owned.item.get()).write(value.take().expect("value present"));
                    }
                    owned.next.store(h, Ordering::Relaxed);
                    match self.head.compare_exchange(
                        h,
                        owned,
                        Ordering::Release,
                        Ordering::Acquire,
                        &guard,
                    ) {
                        Ok(f) => {
                            match self.fulfill(f, &guard) {
                                Ok(_) => {
                                    // SAFETY: owner reference.
                                    unsafe { Node::release(f.as_raw()) };
                                    return;
                                }
                                Err(()) => {
                                    // Backed out: reclaim the item; the
                                    // node was released from the structure
                                    // side, drop our owner reference.
                                    // SAFETY: no match occurred, item ours.
                                    let f_ref = unsafe { f.deref() };
                                    value = Some(unsafe { f_ref.take_item() });
                                    unsafe { Node::release(f.as_raw()) };
                                    continue;
                                }
                            }
                        }
                        Err(e) => {
                            let owned = e.new;
                            // SAFETY: unpublished.
                            value = Some(unsafe { (*owned.item.get()).assume_init_read() });
                            node = Some(owned);
                            continue;
                        }
                    }
                }
                Some(_) => {} // data on top: buffer below
            }

            // Empty or data on top: push a plain data node (refs = 1, the
            // structure's only — pushers never wait in the nonsync stack).
            let owned = match node.take() {
                Some(mut n) => {
                    // The node may have been prepared for a fulfilling
                    // attempt (refs = 2) in an earlier iteration.
                    n.mode = DATA;
                    n.refs.store(1, Ordering::Relaxed);
                    n
                }
                None => Node::new(DATA, 1),
            };
            // SAFETY: unpublished node.
            unsafe {
                (*owned.item.get()).write(value.take().expect("value present"));
            }
            owned.next.store(h, Ordering::Relaxed);
            match self
                .head
                .compare_exchange(h, owned, Ordering::Release, Ordering::Acquire, &guard)
            {
                Ok(_) => return,
                Err(e) => {
                    let owned = e.new;
                    // SAFETY: unpublished.
                    value = Some(unsafe { (*owned.item.get()).assume_init_read() });
                    node = Some(owned);
                    continue;
                }
            }
        }
    }

    /// Request half of the pop: takes the top value if data is present,
    /// otherwise linearizes a reservation.
    pub fn pop_reserve(&self) -> PopTicket<'_, T> {
        let mut node: Option<Owned<Node<T>>> = None;
        loop {
            let guard = Epoch::pin();
            self.absorb_cancelled(&guard);
            let h = self.head.load(Ordering::Acquire, &guard);
            let h_ref = unsafe { h.as_ref() };

            match h_ref {
                Some(r) if r.is_fulfilling() => {
                    self.help(h, &guard);
                    continue;
                }
                Some(r) if r.is_data() => {
                    // Data on top: claim it through a fulfilling request.
                    let owned = match node.take() {
                        Some(mut n) => {
                            n.mode = REQUEST | FULFILLING;
                            n.refs.store(2, Ordering::Relaxed);
                            n
                        }
                        None => Node::new(REQUEST | FULFILLING, 2),
                    };
                    owned.next.store(h, Ordering::Relaxed);
                    match self.head.compare_exchange(
                        h,
                        owned,
                        Ordering::Release,
                        Ordering::Acquire,
                        &guard,
                    ) {
                        Ok(f) => match self.fulfill(f, &guard) {
                            Ok(v) => {
                                // SAFETY: owner reference.
                                unsafe { Node::release(f.as_raw()) };
                                debug_assert!(v.is_some());
                                return PopTicket {
                                    stack: self,
                                    state: TicketState::Ready(v),
                                };
                            }
                            Err(()) => {
                                // SAFETY: owner reference.
                                unsafe { Node::release(f.as_raw()) };
                                continue;
                            }
                        },
                        Err(e) => {
                            node = Some(e.new);
                            continue;
                        }
                    }
                }
                _ => {
                    // Empty or reservations: link our reservation.
                    let owned = match node.take() {
                        Some(mut n) => {
                            n.mode = REQUEST;
                            n.refs.store(2, Ordering::Relaxed);
                            n
                        }
                        None => Node::new(REQUEST, 2),
                    };
                    owned.next.store(h, Ordering::Relaxed);
                    match self.head.compare_exchange(
                        h,
                        owned,
                        Ordering::Release,
                        Ordering::Acquire,
                        &guard,
                    ) {
                        Ok(published) => {
                            return PopTicket {
                                stack: self,
                                state: TicketState::Pending(published.as_raw()),
                            };
                        }
                        Err(e) => {
                            node = Some(e.new);
                            continue;
                        }
                    }
                }
            }
        }
    }

    /// Demand pop: reserve then wait.
    pub fn pop(&self) -> T {
        self.pop_reserve().wait()
    }

    /// Totalized pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut ticket = self.pop_reserve();
        match ticket.try_followup() {
            Some(v) => Some(v),
            None => {
                if ticket.abort() {
                    None
                } else {
                    ticket.try_followup()
                }
            }
        }
    }
}

impl<T: Send> PopTicket<'_, T> {
    /// Follow-up: collects the value if the reservation has been fulfilled.
    pub fn try_followup(&mut self) -> Option<T> {
        match &mut self.state {
            TicketState::Ready(v) => {
                let v = v.take();
                self.state = TicketState::Finished;
                v
            }
            TicketState::Finished => None,
            TicketState::Pending(raw) => {
                let raw = *raw;
                // SAFETY: ticket reference.
                let node = unsafe { &*raw };
                let m = node.match_.load(Ordering::Acquire);
                if m.is_null() || std::ptr::eq(m, raw) {
                    return None;
                }
                // Matched by fulfilling data node `m`; the matcher took a
                // reference on it for us.
                // SAFETY: that reference keeps `m` alive for this read.
                let m_ref = unsafe { &*m };
                debug_assert!(m_ref.is_data());
                let v = unsafe { m_ref.take_item() };
                // SAFETY: the reference taken on our behalf.
                unsafe { Node::release(m) };
                // SAFETY: the ticket's own reference.
                unsafe { Node::release(raw) };
                self.state = TicketState::Finished;
                Some(v)
            }
        }
    }

    /// Abort: cancels the reservation; false if already fulfilled.
    pub fn abort(&mut self) -> bool {
        match &self.state {
            TicketState::Ready(_) | TicketState::Finished => false,
            TicketState::Pending(raw) => {
                let raw = *raw;
                // SAFETY: ticket reference.
                let node = unsafe { &*raw };
                if node
                    .match_
                    .compare_exchange(
                        ptr::null_mut(),
                        raw as *mut Node<T>,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    node.waiter.take();
                    let guard = Epoch::pin();
                    self.stack.absorb_cancelled(&guard);
                    drop(guard);
                    // SAFETY: ticket reference.
                    unsafe { Node::release(raw) };
                    self.state = TicketState::Finished;
                    true
                } else {
                    false
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
            _ => unreachable!("followup returned None on finished ticket"),
        };
        // SAFETY: ticket reference.
        let node = unsafe { &*raw };
        let parker = Parker::new();
        let mut spins = 64u32;
        loop {
            if let Some(v) = self.try_followup() {
                return v;
            }
            if spins > 0 {
                spins -= 1;
                std::hint::spin_loop();
                continue;
            }
            node.waiter.register(parker.unparker());
            if !node.match_.load(Ordering::Acquire).is_null() {
                continue;
            }
            parker.park();
        }
    }

    /// Demand with patience.
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

impl<T: Send> Drop for PopTicket<'_, T> {
    fn drop(&mut self) {
        if matches!(self.state, TicketState::Pending(_)) && !self.abort() {
            drop(self.try_followup());
        }
    }
}

impl<T> Drop for DualStack<T> {
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

impl<T> std::fmt::Debug for DualStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("DualStack { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lifo_buffering() {
        let s = DualStack::new();
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!(s.try_pop(), Some(3));
        assert_eq!(s.try_pop(), Some(2));
        assert_eq!(s.try_pop(), Some(1));
        assert_eq!(s.try_pop(), None);
    }

    #[test]
    fn reservation_fulfilled_by_later_push() {
        let s = DualStack::new();
        let mut ticket = s.pop_reserve();
        assert_eq!(ticket.try_followup(), None);
        s.push(8);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(v) = ticket.try_followup() {
                assert_eq!(v, 8);
                break;
            }
            assert!(Instant::now() < deadline);
        }
    }

    #[test]
    fn abort_prevents_fulfillment() {
        let s = DualStack::new();
        let mut ticket = s.pop_reserve();
        assert!(ticket.abort());
        s.push(4);
        assert_eq!(s.try_pop(), Some(4));
    }

    #[test]
    fn wait_parks_until_pusher() {
        let s = Arc::new(DualStack::new());
        let s2 = Arc::clone(&s);
        let popper = thread::spawn(move || s2.pop());
        thread::sleep(Duration::from_millis(20));
        s.push(66);
        assert_eq!(popper.join().unwrap(), 66);
    }

    #[test]
    fn wait_timeout_aborts() {
        let s: DualStack<u32> = DualStack::new();
        let ticket = s.pop_reserve();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(20)), None);
        s.push(2);
        assert_eq!(s.try_pop(), Some(2));
    }

    #[test]
    fn pushers_never_block() {
        let s: DualStack<u64> = DualStack::new();
        for i in 0..1_000 {
            s.push(i);
        }
        for i in (0..1_000).rev() {
            assert_eq!(s.try_pop(), Some(i));
        }
    }

    #[test]
    fn dropped_ticket_cancels() {
        let s: DualStack<u32> = DualStack::new();
        drop(s.pop_reserve());
        s.push(1);
        assert_eq!(s.try_pop(), Some(1));
    }

    #[test]
    fn mpmc_conservation() {
        const THREADS: usize = 3;
        const PER: usize = 400;
        let s = Arc::new(DualStack::new());
        let mut handles = Vec::new();
        for p in 0..THREADS {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    s.push((p * PER + i) as u64);
                }
            }));
        }
        let poppers: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || (0..PER).map(|_| s.pop()).sum::<u64>())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = poppers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, (0..(THREADS * PER) as u64).sum::<u64>());
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
            let s = DualStack::new();
            for _ in 0..5 {
                s.push(D);
            }
            drop(s.try_pop());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
