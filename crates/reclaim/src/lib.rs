//! Epoch-based memory reclamation for lock-free data structures.
//!
//! The PPoPP 2006 synchronous queue algorithms were written for the JVM,
//! whose garbage collector silently solves the hardest problem in lock-free
//! programming: a node unlinked from a structure may still be *reachable* by
//! threads that obtained a reference before the unlink, so it cannot be
//! freed immediately. This crate rebuilds that substrate for Rust as one
//! process-wide, three-epoch collector in the style of crossbeam-epoch:
//!
//! * Threads **pin** the current epoch before touching shared nodes and
//!   unpin when done ([`pin`] returns a [`Guard`]).
//! * Unlinked nodes are **retired** through the guard
//!   ([`Shield::defer_retire`]): their cleanup closures are collected into
//!   per-thread bags, sealed with the global epoch, and executed only once
//!   **two epoch advances** have occurred — by which time every thread
//!   that was pinned at unlink time has unpinned, so no references can
//!   remain. Every retirement counts in [`Reclaimer::pending`] until its
//!   closure has run.
//! * The global epoch **advances** only when every currently pinned thread
//!   has observed it, making the grace period sound.
//!
//! The pointer types ([`Atomic`], [`Owned`], [`Shared`]) are plain
//! addresses: the structures keep the paper's mode word in the node, so
//! no pointer bits are stolen.
//!
//! # Pluggable backends
//!
//! The epoch scheme above is one implementation of the [`Reclaimer`]
//! trait family ([`Reclaimer`] + [`Shield`], see [`reclaimer`]); the
//! [`Hazard`] backend trades slower protected loads for a **bounded**
//! garbage population even when a reader stalls forever mid-critical
//! section. Structures select a backend with a type parameter that
//! defaults to [`Epoch`], so `Atomic<T>` and every pre-trait caller
//! compile unchanged.
//!
//! # Example (default epoch backend)
//!
//! ```
//! use synq_reclaim::{self as epoch, Atomic, Owned, Shield};
//! use std::sync::atomic::Ordering;
//!
//! let a: Atomic<i32> = Atomic::new(1234);
//! let guard = epoch::pin();
//! let p = a.load(Ordering::Acquire, &guard);
//! assert_eq!(unsafe { p.as_ref() }, Some(&1234));
//! // Replace and retire the old value:
//! let old = a.swap(Owned::new(5678), Ordering::AcqRel, &guard);
//! let raw = old.as_raw() as usize;
//! unsafe { guard.defer_retire(raw, move || drop(Box::from_raw(raw as *mut i32))) };
//! # drop(guard);
//! # unsafe { drop(a.into_owned()) };
//! ```
//!
//! # Example (trait-generic code, hazard backend)
//!
//! ```
//! use synq_reclaim::{Atomic, Epoch, Hazard, Owned, Reclaimer, Shield};
//! use std::sync::atomic::Ordering;
//!
//! fn replace<R: Reclaimer>(a: &Atomic<i32, R>, value: i32) {
//!     let guard = R::pin();
//!     let old = a.swap(Owned::new(value), Ordering::AcqRel, &guard);
//!     // Retire through the trait: hazard keys its scan on the address.
//!     let raw = old.as_raw() as usize;
//!     unsafe { guard.defer_retire(raw, move || drop(Box::from_raw(raw as *mut i32))) };
//! }
//!
//! let a: Atomic<i32, Hazard> = Atomic::new(1);
//! replace(&a, 2);
//! let guard = Hazard::pin();
//! let p = a.load(Ordering::Acquire, &guard);
//! assert_eq!(unsafe { p.as_ref() }, Some(&2));
//! # drop(guard);
//! # unsafe { drop(a.into_owned()) };
//!
//! // The same code over the default backend, pinned by `Epoch::pin()`.
//! let b: Atomic<i32> = Atomic::new(1);
//! replace::<Epoch>(&b, 2);
//! let guard = Epoch::pin();
//! assert_eq!(unsafe { b.load(Ordering::Acquire, &guard).as_ref() }, Some(&2));
//! # drop(guard);
//! # unsafe { drop(b.into_owned()) };
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod atomic;
mod bag;
mod default;
mod deferred;
mod guard;
mod hazard;
mod internal;
pub mod reclaimer;

pub use atomic::{Atomic, CompareExchangeError, Owned, Pointer, Shared};
pub use default::pin;
pub use guard::Guard;
pub use hazard::{Hazard, HazardGuard, SCAN_THRESHOLD, SLOTS_PER_RECORD};
pub use reclaimer::{Epoch, Reclaimer, Shield, SLOT_WINDOW};
