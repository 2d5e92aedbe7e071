//! Baseline synchronous queues from the paper's evaluation (§3.1–§3.2).
//!
//! These are the algorithms the paper's two new structures are measured
//! against:
//!
//! * [`NaiveSQ`] — the monitor-based queue of Listing 3. One lock, one
//!   item slot, `notify_all` at every state change: a number of wake-ups
//!   *quadratic* in the number of waiting threads.
//! * [`HansonSQ`] — Hanson's queue (Listing 1): three semaphores, six
//!   scheduler synchronization events per transfer, blocking on nearly
//!   every operation. No way to support `poll`/`offer` or time-out.
//! * [`Java5SQ`] — the Java SE 5.0 `SynchronousQueue` (Listing 4): one
//!   entry lock protecting two wait lists (queues in fair mode, stacks in
//!   unfair mode), one parked waiter per node. Three synchronization
//!   events per transfer, but the single coarse-grained lock is the
//!   serialization bottleneck the paper eliminates. The fair variant uses
//!   a strictly FIFO entry lock ([`TicketLock`]), which reproduces the
//!   "pileups that block the threads that will fulfill waiting threads".
//!
//! The crate also holds the locks they are built from, which none of the
//! paper's own structures use:
//!
//! * [`Semaphore`] — a counting semaphore, the substrate of Hanson's queue.
//! * [`FastSemaphore`] — the same with a lock-free fast path (a
//!   *benaphore*), the paper's "fast-path acquire sequence", behind
//!   [`HansonFastSQ`].
//! * [`TicketLock`] — a strictly FIFO lock with queued parking and direct
//!   handoff: the Java SE 5.0 fair-mode entry lock.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod fast_semaphore;
pub mod hanson;
pub mod java5;
pub mod naive;
pub mod semaphore;
pub mod ticket_lock;

pub use fast_semaphore::FastSemaphore;
pub use hanson::{HansonFastSQ, HansonSQ};
pub use java5::Java5SQ;
pub use naive::NaiveSQ;
pub use semaphore::Semaphore;
pub use ticket_lock::{TicketLock, TicketLockGuard};
