//! Scheduling and synchronization primitives for the `synq` suite.
//!
//! The synchronous queue algorithms of Scherer, Lea & Scott (PPoPP 2006) sit
//! on top of a small set of substrates that the paper's Java implementation
//! gets from `java.util.concurrent`:
//!
//! * [`Parker`]/[`Unparker`] — the analogue of
//!   `java.util.concurrent.locks.LockSupport.park/unpark`: one-permit
//!   suspension with targeted wakeup, used by every waiting strategy.
//! * [`SpinPolicy`] — the *spin-then-park* strategy from the paper's
//!   "Pragmatics" section: on multiprocessors, nodes next in line for
//!   fulfillment spin briefly (about a quarter of a context switch) before
//!   parking; on uniprocessors spinning is useless and disabled.
//! * [`Backoff`] — bounded exponential backoff for CAS retry loops.
//! * [`WaiterCell`] — a lock-free, single-slot mailbox through which a
//!   waiter publishes its `Waker` — a parked thread's
//!   ([`Parker::waker`]) or an async task's — to whichever thread
//!   fulfills it. This is the point where the blocking and poll-mode wait
//!   loops converge.
//! * [`CancelToken`] — cooperative cancellation (the paper's "asynchronous
//!   interrupt" of waiting threads): cancelling it wakes every registered
//!   `Waker`, a parked thread's or a pending task's.
//! * [`CachePadded`] — 128-byte alignment wrapper keeping independently
//!   contended hot words on separate cache lines (the layout discipline
//!   behind the paper's contention-freedom property).
//! * [`WaitSlot`] — the shared wait-node protocol engine: the
//!   `WAITING/CLAIMED/MATCHED/CANCELLED` state machine, the item cell, and
//!   the paper's `awaitFulfill` spin-then-park loop, parameterized by a
//!   [`WaitStrategy`] — plus the poll-mode counterpart (`poll_outcome`)
//!   that drives the same state machine from async tasks. Every synchronous structure in the suite resolves its
//!   handoffs through this one state machine.
//! * [`Deadline`] — patience bound consumed by the wait loop (re-exported
//!   as `synq::Deadline`).
//!
//! Everything here is built from `std` only (mutexes, condition variables,
//! atomics); no external crates.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod cache_padded;
pub mod cancel;
pub mod deadline;
pub mod parker;
pub mod spin;
pub mod wait;
pub mod wait_slot;
pub mod waiter;

pub use backoff::Backoff;
pub use cache_padded::CachePadded;
pub use cancel::CancelToken;
pub use deadline::Deadline;
pub use parker::{CondvarParker, CondvarUnparker, Parker, Unparker};
pub use spin::{SpinCalibrator, SpinPolicy};
pub use wait::{SpinOnly, WaitStrategy};
pub use wait_slot::{WaitOutcome, WaitSlot, MIN_TOKEN};
pub use waiter::WaiterCell;
