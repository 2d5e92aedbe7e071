//! Elimination: the paper's §5 extension path.
//!
//! > "Reducing such contention by spreading it out is the idea behind
//! > elimination … multiple locations (comprising an *arena*) are employed
//! > as potential targets of the main atomic instructions underlying these
//! > operations. If two threads meet in one of these lower-traffic areas,
//! > they cancel each other out."
//!
//! Two components:
//!
//! * [`Exchanger`] — a scalable elimination-based *exchange channel* (the
//!   structure the authors built for `java.util.concurrent.Exchanger`
//!   \[18\]): any two threads that meet swap values symmetrically.
//! * [`EliminationSyncStack`] — a synchronous dual stack with an
//!   *asymmetric* elimination arena bolted on: producers and consumers that
//!   collide on the stack head retry in an arena slot, pairing off without
//!   ever touching the head. The paper reports this is "beneficial only in
//!   cases of artificially extreme contention"; ablation A3 reproduces that
//!   finding.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod exchange;
mod slots;
pub mod stack;

pub use arena::EliminationArena;
pub use exchange::Exchanger;
pub use stack::EliminationSyncStack;
