//! # synq-suite
//!
//! Umbrella crate for the `synq` workspace — a from-scratch Rust
//! reproduction of **"Scalable Synchronous Queues"** (Scherer, Lea & Scott,
//! PPoPP 2006). It re-exports every member crate under one roof so the
//! examples and integration tests in this repository (and downstream
//! experiments) can depend on a single package.
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and per-experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! The individual crates:
//!
//! * [`core`] (`synq`) — the paper's contribution: the synchronous dual
//!   queue (fair) and synchronous dual stack (unfair).
//! * [`baselines`] — the comparators: naive monitor queue, Hanson's
//!   semaphore queue, Java SE 5.0-style fair/unfair queues, and the
//!   semaphores and FIFO ticket lock they are built from.
//! * [`reclaim`] — pluggable memory reclamation (the GC substitute): the
//!   `Reclaimer`/`Shield` trait family with an epoch backend (default) and
//!   a hazard-pointer backend whose stalled-thread garbage is bounded.
//! * [`primitives`] — the wait path: parker, spin policy, wait slot,
//!   cancellation, backoff.
//! * [`classic`] — Treiber stack, M&S queue, nonsynchronous dual structures.
//! * [`exchanger`] — elimination-based exchanger and a synchronous stack
//!   with a one-slot elimination arena in front.
//! * [`transfer`] — TransferQueue (sync + async enqueue): a ring of
//!   cycle-versioned slots in front of the dual list, consumers that wait
//!   as linked reservations in both modes, a `put` that overflows
//!   (`TransferQueue::new`) or waits (`TransferQueue::bounded`) when the
//!   ring is full, `BufferedChannel` and batch send/recv.
//! * [`executor`] — ThreadPoolExecutor built on a synchronous handoff.

pub use synq as core;
pub use synq_baselines as baselines;
pub use synq_classic as classic;
pub use synq_exchanger as exchanger;
pub use synq_executor as executor;
pub use synq_primitives as primitives;
pub use synq_reclaim as reclaim;
pub use synq_transfer as transfer;
