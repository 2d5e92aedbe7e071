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
//! * [`EliminationSyncStack`] — a synchronous dual stack with a one-slot
//!   *asymmetric* elimination arena in front: a producer and a consumer
//!   that meet in the slot pair off without touching the stack head. The
//!   paper reports elimination "beneficial only in cases of artificially
//!   extreme contention"; ablation A3 found only the one slot worth
//!   keeping, and only while both sides spin in it (DESIGN §3).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod arena;
pub mod exchange;
mod slots;
pub mod stack;

pub use exchange::Exchanger;
pub use stack::EliminationSyncStack;
