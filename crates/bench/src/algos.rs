//! The algorithm registry: one factory per curve in the paper's figures.

use std::sync::Arc;
use synq::{SpinPolicy, SyncChannel, SyncDualQueue, SyncDualStack, TimedSyncChannel};
use synq_baselines::{HansonFastSQ, HansonSQ, Java5SQ, NaiveSQ};
use synq_exchanger::EliminationSyncStack;
use synq_executor::Job;
use synq_transfer::TransferQueue;

/// The six curves of Figures 3–5 (the paper plots five; we add the naive
/// monitor queue as an extra reference point).
pub const BLOCKING_ALGOS: &[Algo] = &[
    Algo::Hanson,
    Algo::Naive,
    Algo::Java5Fair,
    Algo::Java5Unfair,
    Algo::NewFair,
    Algo::NewUnfair,
];

/// The four curves of Figure 6 (Hanson and naive cannot support the
/// executor's `offer`/timed `poll`, exactly as in the paper).
pub const TIMED_ALGOS: &[Algo] = &[
    Algo::Java5Fair,
    Algo::Java5Unfair,
    Algo::NewFair,
    Algo::NewUnfair,
];

/// Algorithm identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Hanson's three-semaphore queue (Listing 1).
    Hanson,
    /// Hanson's queue over fast-path (benaphore) semaphores (A5).
    HansonFast,
    /// The naive monitor queue (Listing 3).
    Naive,
    /// Java SE 5.0 `SynchronousQueue`, fair mode (Listing 4).
    Java5Fair,
    /// Java SE 5.0 `SynchronousQueue`, unfair mode.
    Java5Unfair,
    /// Java SE 5.0 structure with FIFO lists but a barging lock (A2).
    Java5FairListsUnfairLock,
    /// This paper: synchronous dual queue (fair).
    NewFair,
    /// This paper: synchronous dual stack (unfair).
    NewUnfair,
    /// Dual queue with a custom spin budget (A1).
    NewFairSpin(u32),
    /// Dual stack with a custom spin budget (A1).
    NewUnfairSpin(u32),
    /// Dual stack fronted by a one-slot elimination arena (A3).
    NewElim,
}

impl Algo {
    /// Column label used in tables and JSON.
    pub fn name(&self) -> String {
        match self {
            Algo::Hanson => "hanson".into(),
            Algo::HansonFast => "hanson-fast".into(),
            Algo::Naive => "naive".into(),
            Algo::Java5Fair => "java5-fair".into(),
            Algo::Java5Unfair => "java5-unfair".into(),
            Algo::Java5FairListsUnfairLock => "java5-fair-lists-unfair-lock".into(),
            Algo::NewFair => "new-fair".into(),
            Algo::NewUnfair => "new-unfair".into(),
            Algo::NewFairSpin(n) => format!("new-fair-spin{n}"),
            Algo::NewUnfairSpin(n) => format!("new-unfair-spin{n}"),
            Algo::NewElim => "new-unfair-elim".into(),
        }
    }
}

/// Builds a fresh blocking channel carrying `u64` payloads.
pub fn make_blocking(algo: Algo) -> Arc<dyn SyncChannel<u64>> {
    match algo {
        Algo::Hanson => Arc::new(HansonSQ::new()),
        Algo::HansonFast => Arc::new(HansonFastSQ::new()),
        Algo::Naive => Arc::new(NaiveSQ::new()),
        Algo::Java5Fair => Arc::new(Java5SQ::fair()),
        Algo::Java5Unfair => Arc::new(Java5SQ::unfair()),
        Algo::Java5FairListsUnfairLock => Arc::new(Java5SQ::fair_lists_unfair_lock()),
        Algo::NewFair => Arc::new(SyncDualQueue::new()),
        Algo::NewUnfair => Arc::new(SyncDualStack::new()),
        Algo::NewFairSpin(n) => Arc::new(SyncDualQueue::with_spin(SpinPolicy::fixed(n))),
        Algo::NewUnfairSpin(n) => Arc::new(SyncDualStack::with_spin(SpinPolicy::fixed(n))),
        Algo::NewElim => Arc::new(EliminationSyncStack::new()),
    }
}

/// Builds a fresh channel for the executor benchmark (Figure 6), if the
/// algorithm supports the rich interface.
pub fn make_timed_job(algo: Algo) -> Option<Arc<dyn TimedSyncChannel<Job>>> {
    Some(match algo {
        Algo::Hanson | Algo::HansonFast | Algo::Naive => return None,
        Algo::Java5Fair => Arc::new(Java5SQ::fair()),
        Algo::Java5Unfair => Arc::new(Java5SQ::unfair()),
        Algo::Java5FairListsUnfairLock => Arc::new(Java5SQ::fair_lists_unfair_lock()),
        Algo::NewFair => Arc::new(SyncDualQueue::new()),
        Algo::NewUnfair => Arc::new(SyncDualStack::new()),
        Algo::NewFairSpin(n) => Arc::new(SyncDualQueue::with_spin(SpinPolicy::fixed(n))),
        Algo::NewUnfairSpin(n) => Arc::new(SyncDualStack::with_spin(SpinPolicy::fixed(n))),
        Algo::NewElim => Arc::new(EliminationSyncStack::new()),
    })
}

/// Every structure that routes its wait loop through the shared `WaitSlot`
/// engine and therefore accepts a [`SpinPolicy`] — the sweep axis of the
/// `wait_strategy` binary.
pub const POLICY_STRUCTURES: &[Structure] = &[
    Structure::Fair,
    Structure::Unfair,
    Structure::Transfer,
    Structure::Elim,
    Structure::Java5Unfair,
];

/// A row of [`WAIT_STRATEGIES`]: strategy name plus policy factory.
pub type NamedStrategy = (&'static str, fn() -> SpinPolicy);

/// The named wait strategies swept by the `wait_strategy` binary: the
/// adaptive default, park-immediately (spin budget 0), and two fixed
/// budgets bracketing the adaptive choice.
pub const WAIT_STRATEGIES: &[NamedStrategy] = &[
    ("adaptive", SpinPolicy::adaptive),
    ("park-now", SpinPolicy::park_immediately),
    ("spin32", || SpinPolicy::fixed(32)),
    ("spin320", || SpinPolicy::fixed(320)),
];

/// A synchronous structure whose waiting behavior is parameterized by a
/// [`SpinPolicy`] (all five now share the `WaitSlot` wait loop, so one
/// policy value means the same thing to each of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Synchronous dual queue (fair).
    Fair,
    /// Synchronous dual stack (unfair).
    Unfair,
    /// The `LinkedTransferQueue`-style unbounded transfer queue.
    Transfer,
    /// Dual stack fronted by a one-slot elimination arena.
    Elim,
    /// Java SE 5.0 baseline, unfair mode (its Listing 4 default is
    /// park-immediately; other policies show what spinning buys a
    /// lock-based design).
    Java5Unfair,
}

impl Structure {
    /// Row label used in tables and JSON (`<structure>/<strategy>` when
    /// combined with a policy name).
    pub fn name(&self) -> &'static str {
        match self {
            Structure::Fair => "new-fair",
            Structure::Unfair => "new-unfair",
            Structure::Transfer => "transfer",
            Structure::Elim => "new-unfair-elim",
            Structure::Java5Unfair => "java5-unfair",
        }
    }
}

/// Builds a fresh `u64` channel for `structure` waiting per `policy`.
pub fn make_policy_channel(structure: Structure, policy: SpinPolicy) -> Arc<dyn SyncChannel<u64>> {
    match structure {
        Structure::Fair => Arc::new(SyncDualQueue::with_spin(policy)),
        Structure::Unfair => Arc::new(SyncDualStack::with_spin(policy)),
        Structure::Transfer => Arc::new(TransferQueue::with_spin(policy)),
        Structure::Elim => Arc::new(EliminationSyncStack::with_spin(policy)),
        Structure::Java5Unfair => Arc::new(Java5SQ::with_spin(false, policy)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_blocking_algo_constructs_and_transfers() {
        for &algo in BLOCKING_ALGOS {
            let ch = make_blocking(algo);
            let ch2 = Arc::clone(&ch);
            let t = std::thread::spawn(move || ch2.take());
            ch.put(1);
            assert_eq!(t.join().unwrap(), 1, "algo {}", algo.name());
        }
    }

    #[test]
    fn timed_registry_excludes_hanson_and_naive() {
        assert!(make_timed_job(Algo::Hanson).is_none());
        assert!(make_timed_job(Algo::Naive).is_none());
        for &algo in TIMED_ALGOS {
            assert!(make_timed_job(algo).is_some(), "algo {}", algo.name());
        }
    }

    #[test]
    fn every_policy_structure_transfers_under_every_strategy() {
        for &structure in POLICY_STRUCTURES {
            for &(name, policy) in WAIT_STRATEGIES {
                let ch = make_policy_channel(structure, policy());
                let ch2 = Arc::clone(&ch);
                let t = std::thread::spawn(move || ch2.take());
                ch.put(9);
                assert_eq!(
                    t.join().unwrap(),
                    9,
                    "structure {} strategy {name}",
                    structure.name()
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = BLOCKING_ALGOS.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), BLOCKING_ALGOS.len());
    }
}
