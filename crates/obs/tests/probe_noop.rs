//! Proof that the stats-off build carries zero probe overhead.
//!
//! The "asm test" here is stronger than inspecting assembly: the recording
//! entry point is evaluated in a `const` item. Rust's const evaluator
//! rejects any read or write of a `static`, atomic, or thread-local, so
//! this file *fails to compile* if `record` ever gains a runtime effect in
//! the default configuration. Combined with
//! `#[inline(always)]`, a provably effect-free empty body leaves no
//! instructions at probe sites.

#![cfg(not(feature = "stats"))]

use synq_obs::{probe, Probe, StatsSnapshot};

// Compile-time proof: no-ops are const-evaluable, hence effect-free.
const _: () = synq_obs::record(Probe::WaitSpins, 1);
const _: () = assert!(!synq_obs::ENABLED);
const _: () = assert!(synq_obs::TABLE_BYTES == 0);

#[test]
fn probes_record_nothing() {
    let before = StatsSnapshot::take();
    for _ in 0..1000 {
        probe!(QueueAppendCasFail);
        probe!(WaitSpins, 64);
    }
    let after = StatsSnapshot::take();
    assert!(before.is_zero());
    assert!(after.is_zero());
    assert!(after.delta(&before).is_zero());
    assert!(after.nonzero().is_empty());
}
