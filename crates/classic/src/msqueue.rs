//! The Michael & Scott lock-free FIFO queue (PODC 1996).
//!
//! The ancestor of the paper's dual queue: a singly linked list with
//! `head` and `tail` pointers and a permanent dummy node at the head.
//! `head` always points at the dummy; the first real element is
//! `head.next`. Lagging tails are repaired by helping (`cas_tail`), which
//! is what makes the queue lock-free rather than merely obstruction-free.

use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;
use synq_primitives::{Backoff, CachePadded};
use synq_reclaim::{Atomic, Epoch, Owned, Reclaimer, Shield};

struct Node<T> {
    /// Uninitialized in the dummy node, initialized in all others. The
    /// value is moved out by the dequeuer that advances the head past it
    /// (at which point the node *becomes* the new dummy).
    value: MaybeUninit<T>,
    next: Atomic<Node<T>>,
}

/// A lock-free FIFO queue.
///
/// # Examples
///
/// ```
/// use synq_classic::MsQueue;
///
/// let q = MsQueue::new();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.dequeue(), Some(2));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct MsQueue<T> {
    /// Dequeuers hammer `head`; padded apart from `tail` so the two
    /// ends of the queue do not false-share (M&S's key scalability trait).
    head: CachePadded<Atomic<Node<T>>>,
    /// Enqueuers hammer `tail`.
    tail: CachePadded<Atomic<Node<T>>>,
}

const _: () = assert!(std::mem::align_of::<MsQueue<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<MsQueue<u8>>() >= 256);

impl<T> Default for MsQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MsQueue<T> {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = Owned::new(Node {
            value: MaybeUninit::uninit(),
            next: Atomic::null(),
        });
        // Both head and tail point at the same dummy; we must not double
        // free it, so only `head` is treated as owning in Drop.
        let guard = unsafe { Epoch::unprotected() };
        let dummy = dummy.into_shared(&guard);
        MsQueue {
            head: CachePadded::new(Atomic::from_owned(unsafe { dummy.into_owned() })),
            tail: {
                let a = Atomic::null();
                a.store(dummy, Ordering::Relaxed);
                CachePadded::new(a)
            },
        }
    }

    /// Appends `value` at the tail.
    pub fn enqueue(&self, value: T) {
        let guard = Epoch::pin();
        let mut node = Owned::new(Node {
            value: MaybeUninit::new(value),
            next: Atomic::null(),
        });
        let backoff = Backoff::new();
        loop {
            let tail = self.tail.load(Ordering::Acquire, &guard);
            let tail_ref = unsafe { tail.deref() };
            let next = tail_ref.next.load(Ordering::Acquire, &guard);
            if !next.is_null() {
                // Tail is lagging: help advance it and retry.
                let _ = self.tail.compare_exchange(
                    tail,
                    next,
                    Ordering::Release,
                    Ordering::Relaxed,
                    &guard,
                );
                continue;
            }
            match tail_ref.next.compare_exchange(
                next,
                node,
                Ordering::Release,
                Ordering::Relaxed,
                &guard,
            ) {
                Ok(new) => {
                    // Swing the tail; failure means someone helped us.
                    let _ = self.tail.compare_exchange(
                        tail,
                        new,
                        Ordering::Release,
                        Ordering::Relaxed,
                        &guard,
                    );
                    return;
                }
                Err(e) => {
                    node = e.new;
                    backoff.spin();
                }
            }
        }
    }

    /// Removes and returns the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<T> {
        let guard = Epoch::pin();
        let backoff = Backoff::new();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            let head_ref = unsafe { head.deref() };
            let next = head_ref.next.load(Ordering::Acquire, &guard);
            let next_ref = unsafe { next.as_ref() }?;
            // Keep the tail from pointing at the node we are about to
            // retire (classic M&S consistency step).
            let tail = self.tail.load(Ordering::Acquire, &guard);
            if head.ptr_eq(&tail) {
                let _ = self.tail.compare_exchange(
                    tail,
                    next,
                    Ordering::Release,
                    Ordering::Relaxed,
                    &guard,
                );
            }
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Relaxed, &guard)
                .is_ok()
            {
                // `next` is the new dummy; its value is ours to take. The
                // retired old dummy's value was consumed when it was
                // dequeued (or never written), so the deferred Box drop
                // frees only the skeleton.
                let value = unsafe { next_ref.value.assume_init_read() };
                let addr = head.as_raw() as usize;
                unsafe {
                    guard.defer_retire(addr, move || drop(Box::from_raw(addr as *mut Node<T>)))
                };
                return Some(value);
            }
            backoff.spin();
        }
    }

    /// True if the queue was empty at the moment of the check.
    pub fn is_empty(&self) -> bool {
        let guard = Epoch::pin();
        let head = self.head.load(Ordering::Acquire, &guard);
        unsafe { head.deref() }
            .next
            .load(Ordering::Acquire, &guard)
            .is_null()
    }
}

impl<T> Drop for MsQueue<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access in Drop.
        let guard = unsafe { Epoch::unprotected() };
        // The head node is the dummy: its value is uninitialized.
        let mut node = self.head.load(Ordering::Relaxed, &guard);
        let mut first = true;
        while !node.is_null() {
            let mut owned = unsafe { node.into_owned() };
            node = owned.next.load(Ordering::Relaxed, &guard);
            if !first {
                unsafe { owned.value.assume_init_drop() };
            }
            first = false;
        }
    }
}

fn _assert_send_sync() {
    fn check<X: Send + Sync>() {}
    check::<MsQueue<usize>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let q = MsQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.enqueue(i);
        }
        assert!(!q.is_empty());
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let q = MsQueue::new();
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO linearizability implies each producer's elements come out in
        // the order that producer inserted them.
        const PRODUCERS: usize = 4;
        const PER: usize = 2_000;
        let q = Arc::new(MsQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.enqueue((p, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut last = [None; PRODUCERS];
        let mut count = 0;
        while let Some((p, i)) = q.dequeue() {
            if let Some(prev) = last[p] {
                assert!(i > prev, "producer {p} order violated: {i} after {prev}");
            }
            last[p] = Some(i);
            count += 1;
        }
        assert_eq!(count, PRODUCERS * PER);
    }

    #[test]
    fn mpmc_conserves_all_values() {
        const THREADS: usize = 4;
        const PER: usize = 2_000;
        let q = Arc::new(MsQueue::new());
        let sum = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.enqueue(t * PER + i + 1);
                }
            }));
        }
        for _ in 0..THREADS {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let taken = Arc::clone(&taken);
            handles.push(thread::spawn(move || {
                while taken.load(Ordering::Relaxed) < THREADS * PER {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::Relaxed);
                    } else {
                        thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expected: usize = (1..=THREADS * PER).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
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
            let q = MsQueue::new();
            for _ in 0..10 {
                q.enqueue(D);
            }
            drop(q.dequeue());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }
}
