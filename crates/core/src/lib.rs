//! # synq — scalable synchronous queues
//!
//! A from-scratch Rust implementation of the two nonblocking,
//! contention-free synchronous queues of **Scherer, Lea & Scott, "Scalable
//! Synchronous Queues", PPoPP 2006** — the algorithms adopted into Java 6's
//! `java.util.concurrent.SynchronousQueue`.
//!
//! A *synchronous* queue pairs producers and consumers with no buffering:
//! both sides wait for one another, "shake hands", and leave in pairs. The
//! two algorithms are *dual* data structures — the underlying list may hold
//! either data (waiting producers) or, symmetrically, *reservations*
//! (waiting consumers), never both at once:
//!
//! * [`SyncDualQueue`] — the **fair** variant: strict FIFO pairing, built
//!   on an M&S-queue skeleton (paper Listing 5 / Figure 1). It is the
//!   paper's §5 [`transfer::TransferQueue`] without its ring: one arrival
//!   loop serves both.
//! * [`SyncDualStack`] — the **unfair** variant: LIFO pairing on a
//!   Treiber-stack skeleton (paper Listing 6 / Figure 2), matching the
//!   waiter on top in place where the paper pushes a *fulfilling* node
//!   above it (see its module docs). Unfairness improves locality by
//!   keeping recently active threads "hot".
//!
//! Both support the full rich interface the paper calls for: blocking
//! `put`/`take`, non-blocking `offer`/`poll`, timed variants with a
//! *patience* interval, and asynchronous cancellation (Java's interrupts)
//! via [`CancelToken`]. As in Java 6, every one of these is one call,
//! [`TimedSyncChannel::transfer`], over which the [`TimedSyncChannel`]
//! methods are provided. All waiting is *local*: a waiter spins briefly on
//! its own node and then parks; unsuccessful follow-ups make no remote
//! memory accesses (the paper's contention-freedom property).
//!
//! The [`transfer`] module adds the paper's §5 extension, a queue whose
//! producers enqueue either synchronously (`transfer`) or asynchronously
//! (`put`, buffered in a ring); the `synq-transfer` crate re-exports it.
//!
//! The usual entry point is the [`SynchronousQueue`] facade, which selects
//! fair or unfair mode at construction like the Java class:
//!
//! ```
//! use synq::SynchronousQueue;
//! use std::sync::Arc;
//! use std::thread;
//!
//! let q = Arc::new(SynchronousQueue::fair());
//! let q2 = Arc::clone(&q);
//! let consumer = thread::spawn(move || q2.take());
//! q.put(42);
//! assert_eq!(consumer.join().unwrap(), 42);
//! ```
//!
//! Node reclamation uses epoch-based reclamation ([`synq_reclaim`]) plus a
//! per-node reference count so that waiters can *unpin while parked* —
//! a sleeping thread never stalls global memory reclamation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod channel;
pub mod dual_list;
pub mod dual_queue;
pub mod dual_stack;
pub mod pollable;
pub mod queue;
pub mod transfer;

pub use channel::{SyncChannel, TimedSyncChannel, TransferOutcome};
pub use dual_queue::SyncDualQueue;
pub use dual_stack::SyncDualStack;
pub use pollable::{PendingTransfer, PollTransferer, StartTransfer};
pub use queue::SynchronousQueue;
pub use synq_primitives::{CancelToken, Deadline, SpinPolicy};
