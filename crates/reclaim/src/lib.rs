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
//! [`Epoch`] and its guard implement the [`Reclaimer`] and [`Shield`]
//! traits, the names the structures call the collector by.
//!
//! # Example
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

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod atomic;
mod bag;
mod default;
mod deferred;
mod guard;
mod internal;
pub mod reclaimer;

pub use atomic::{Atomic, CompareExchangeError, Owned, Pointer, Shared};
pub use default::pin;
pub use guard::Guard;
pub use reclaimer::{Epoch, Reclaimer, Shield};
