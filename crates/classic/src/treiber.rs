//! Treiber's lock-free stack (IBM technical report RJ 5118, 1986).
//!
//! The ancestor of the paper's dual stack: a singly linked list with a
//! single CAS-updated `head` pointer. Push and pop each retry one CAS under
//! contention; exponential backoff keeps the head cache line from
//! thrashing.

use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;
use synq_primitives::{Backoff, CachePadded};
use synq_reclaim::{Atomic, Epoch, Owned, Reclaimer, Shield};

struct Node<T> {
    value: ManuallyDrop<T>,
    next: Atomic<Node<T>>,
}

/// A lock-free LIFO stack.
///
/// # Examples
///
/// ```
/// use synq_classic::TreiberStack;
///
/// let stack = TreiberStack::new();
/// stack.push(1);
/// stack.push(2);
/// assert_eq!(stack.pop(), Some(2));
/// assert_eq!(stack.pop(), Some(1));
/// assert_eq!(stack.pop(), None);
/// ```
pub struct TreiberStack<T> {
    /// Padded: the single contended word of the whole structure.
    head: CachePadded<Atomic<Node<T>>>,
}

const _: () = assert!(std::mem::align_of::<TreiberStack<u8>>() >= 128);

impl<T> Default for TreiberStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TreiberStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        TreiberStack {
            head: CachePadded::new(Atomic::null()),
        }
    }

    /// Pushes a value on top of the stack.
    pub fn push(&self, value: T) {
        let guard = Epoch::pin();
        let mut node = Owned::new(Node {
            value: ManuallyDrop::new(value),
            next: Atomic::null(),
        });
        let backoff = Backoff::new();
        let mut head = self.head.load(Ordering::Relaxed, &guard);
        loop {
            node.next.store(head, Ordering::Relaxed);
            match self.head.compare_exchange(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
                &guard,
            ) {
                Ok(_) => return,
                Err(e) => {
                    head = e.current;
                    node = e.new;
                    backoff.spin();
                }
            }
        }
    }

    /// Pops the most recently pushed value, or `None` if empty.
    pub fn pop(&self) -> Option<T> {
        let guard = Epoch::pin();
        let backoff = Backoff::new();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            let node = unsafe { head.as_ref() }?;
            let next = node.next.load(Ordering::Relaxed, &guard);
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Relaxed, &guard)
                .is_ok()
            {
                // We own the node's value now; the node itself is retired
                // (the value was moved out, so the deferred Box drop frees
                // only the skeleton).
                let value = unsafe { std::ptr::read(&*node.value) };
                let addr = head.as_raw() as usize;
                unsafe {
                    guard.defer_retire(addr, move || drop(Box::from_raw(addr as *mut Node<T>)))
                };
                return Some(value);
            }
            backoff.spin();
        }
    }

    /// True if the stack was empty at the moment of the check.
    pub fn is_empty(&self) -> bool {
        let guard = Epoch::pin();
        self.head.load(Ordering::Acquire, &guard).is_null()
    }
}

impl<T> Drop for TreiberStack<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access in Drop.
        let guard = unsafe { Epoch::unprotected() };
        let mut head = self.head.load(Ordering::Relaxed, &guard);
        while !head.is_null() {
            // SAFETY: exclusive access; nodes were allocated by push.
            let mut owned = unsafe { head.into_owned() };
            head = owned.next.load(Ordering::Relaxed, &guard);
            unsafe { ManuallyDrop::drop(&mut owned.value) };
        }
    }
}

fn _assert_send_sync() {
    fn check<X: Send + Sync>() {}
    check::<TreiberStack<usize>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lifo_order_single_thread() {
        let s = TreiberStack::new();
        for i in 0..100 {
            s.push(i);
        }
        for i in (0..100).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn pop_empty_is_none() {
        let s: TreiberStack<u8> = TreiberStack::new();
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 1_000;
        let s = Arc::new(TreiberStack::new());
        let popped = Arc::new(std::sync::Mutex::new(HashSet::new()));
        let pop_count = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in 0..PER_THREAD {
                    s.push(t * PER_THREAD + i);
                }
            }));
        }
        for _ in 0..THREADS {
            let s = Arc::clone(&s);
            let popped = Arc::clone(&popped);
            let pop_count = Arc::clone(&pop_count);
            handles.push(thread::spawn(move || {
                let mut local = Vec::new();
                while pop_count.load(Ordering::Relaxed) < THREADS * PER_THREAD {
                    if let Some(v) = s.pop() {
                        local.push(v);
                        pop_count.fetch_add(1, Ordering::Relaxed);
                    } else {
                        thread::yield_now();
                    }
                }
                popped.lock().unwrap().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let popped = popped.lock().unwrap();
        assert_eq!(popped.len(), THREADS * PER_THREAD, "duplicate or lost pops");
        assert!(s.pop().is_none());
    }

    #[test]
    fn drop_releases_remaining_values() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let s = TreiberStack::new();
            for _ in 0..10 {
                s.push(D);
            }
            drop(s.pop()); // one via pop
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }
}
