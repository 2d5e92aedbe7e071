//! The elimination-backoff synchronous stack — the extension the paper
//! sketches in §5 and leaves to future work.
//!
//! Every transfer first makes one brief visit to a one-slot elimination
//! arena; if a complementary operation is met there, the pair "cancel each
//! other out" without touching the stack head. Otherwise the operation
//! proceeds through the ordinary [`SyncDualStack`].
//!
//! The paper finds elimination "beneficial only in cases of artificially
//! extreme contention", because "the reduced contention benefits would
//! need to outweigh the delayed release (lower throughput) experienced
//! when threads do not meet in arena locations". Ablation A3 measures this
//! stack against the plain one; larger arenas lost there and are gone
//! (DESIGN §3).

use crate::arena::EliminationArena;
use synq::{
    impl_sync_channel, CancelToken, Deadline, SpinPolicy, SyncDualStack, TimedSyncChannel,
    TransferOutcome,
};

/// A synchronous dual stack with an elimination arena in front.
///
/// # Examples
///
/// ```
/// use synq_exchanger::EliminationSyncStack;
/// use synq::{SyncChannel, TimedSyncChannel};
/// use std::sync::Arc;
/// use std::thread;
///
/// let q = Arc::new(EliminationSyncStack::new());
/// let q2 = Arc::clone(&q);
/// let t = thread::spawn(move || q2.take());
/// q.put(5u32);
/// assert_eq!(t.join().unwrap(), 5);
/// ```
pub struct EliminationSyncStack<T: Send> {
    stack: SyncDualStack<T>,
    arena: EliminationArena<T>,
}

/// How long an arena visit spins for a partner before it falls back.
const ARENA_SPINS: u32 = 128;

impl<T: Send> Default for EliminationSyncStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> EliminationSyncStack<T> {
    /// Creates a stack with the adaptive spin policy.
    pub fn new() -> Self {
        Self::with_spin(SpinPolicy::adaptive())
    }

    /// Creates a stack whose waits on the stack follow `spin`.
    pub fn with_spin(spin: SpinPolicy) -> Self {
        EliminationSyncStack {
            stack: SyncDualStack::with_spin(spin),
            arena: EliminationArena::new(),
        }
    }

    /// Number of transfers that completed through the arena (both sides of
    /// each pairing count once).
    pub fn eliminated(&self) -> usize {
        self.arena.eliminated()
    }
}

impl<T: Send> TimedSyncChannel<T> for EliminationSyncStack<T> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        // One arena visit, then the main structure. (`Deadline::Now` and a
        // tripped token skip the arena: `poll`/`offer` promise not to wait,
        // a cancelled caller must not be paired, and an arena visit
        // installs-and-spins.)
        let item = if deadline.is_now() || token.is_some_and(CancelToken::is_cancelled) {
            item
        } else {
            match self.arena.visit(item, ARENA_SPINS) {
                Ok(got) => return TransferOutcome::Transferred(got),
                Err(item) => item,
            }
        };
        self.stack.transfer(item, deadline, token)
    }
}

impl_sync_channel!(EliminationSyncStack);

impl<T: Send> std::fmt::Debug for EliminationSyncStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EliminationSyncStack")
            .field("eliminated", &self.eliminated())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;
    use synq::{SyncChannel, TimedSyncChannel};

    #[test]
    fn basic_rendezvous() {
        let q = Arc::new(EliminationSyncStack::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(1u32);
        assert_eq!(t.join().unwrap(), 1);
    }

    #[test]
    fn poll_offer_fail_on_empty() {
        let q: EliminationSyncStack<u8> = EliminationSyncStack::new();
        assert_eq!(q.poll(), None);
        assert_eq!(q.offer(1), Err(1));
    }

    #[test]
    fn timed_ops_respect_patience() {
        let q: EliminationSyncStack<u8> = EliminationSyncStack::new();
        assert_eq!(q.poll_timeout(Duration::from_millis(10)), None);
        assert_eq!(q.offer_timeout(2, Duration::from_millis(10)), Err(2));
    }

    #[test]
    fn heavy_contention_eliminates_some_pairs() {
        const THREADS: usize = 4;
        const PER: usize = 2_000;
        let q = Arc::new(EliminationSyncStack::new());
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.put(i);
                }
            }));
        }
        let consumers: Vec<_> = (0..THREADS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || (0..PER).map(|_| q.take()).sum::<usize>())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, THREADS * (0..PER).sum::<usize>());
        // Under this much contention at least some pairs should meet in
        // the arena (not guaranteed on a uniprocessor, so only report).
        println!("eliminated: {}", q.eliminated());
    }

    #[test]
    fn values_conserved_with_elimination() {
        const PER: usize = 3_000;
        let q = Arc::new(EliminationSyncStack::new());
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            for i in 0..PER {
                q2.put(i);
            }
        });
        let mut seen = vec![false; PER];
        for _ in 0..PER {
            let v = q.take();
            assert!(!seen[v], "value {v} delivered twice");
            seen[v] = true;
        }
        producer.join().unwrap();
        assert!(seen.iter().all(|&b| b));
    }
}
