//! Zero-overhead-when-off instrumentation for the synq workspace.
//!
//! The paper's evaluation (§5) explains *why* the dual structures win —
//! fewer CAS retries, local spinning instead of parking, elimination hits —
//! but throughput numbers alone cannot confirm those mechanisms. This crate
//! makes the internal events countable:
//!
//! - [`probe!`] increments a named [`Probe`] counter in a cache-padded,
//!   per-thread-sharded table ([`record`]).
//! - [`trace!`] appends a `(thread, kind, timestamp, payload)` event to a
//!   fixed-capacity lock-free ring ([`trace_event`], [`trace_events`]) for
//!   post-mortem reconstruction of handoff races.
//! - [`StatsSnapshot`] sums the shards into one vector; two snapshots
//!   subtract into a per-interval delta that the bench crate embeds in its
//!   JSON reports.
//!
//! # The `stats` feature
//!
//! Everything above is gated on `--features stats`. With the feature off
//! (the default) [`record`] and [`trace_event`] are **`const fn`s with empty
//! bodies**: a `const fn` cannot touch statics, atomics, or TLS, so the
//! compiler proves at type-check time that every probe site is effect-free,
//! and `#[inline(always)]` guarantees no residual call instruction. No
//! counter table or ring buffer is even declared ([`TABLE_BYTES`] is 0).
//! `tests/probe_noop.rs` pins this down by evaluating both functions in a
//! `const` block — the test *fails to compile* if a runtime effect sneaks
//! in.
//!
//! Instrumented crates depend on `synq-obs` unconditionally and forward a
//! `stats` feature to it; because `probe!` expands to a call into *this*
//! crate, the single source of truth for on/off is `synq-obs/stats` and no
//! consumer needs `#[cfg]` at the call sites.
//!
//! # Example
//!
//! ```
//! use synq_obs::{probe, Probe, StatsSnapshot};
//!
//! let before = StatsSnapshot::take();
//! probe!(WaitSpins, 32);
//! probe!(WaitParks);
//! let delta = StatsSnapshot::take().delta(&before);
//! if synq_obs::ENABLED {
//!     assert_eq!(delta.get(Probe::WaitSpins), 32);
//!     assert_eq!(delta.get(Probe::WaitParks), 1);
//! } else {
//!     assert_eq!(delta.get(Probe::WaitSpins), 0);
//! }
//! ```

#![warn(missing_docs)]

/// Defines [`Probe`] together with its census (`COUNT`, `ALL`) and dotted
/// export names, keeping the three in lockstep.
macro_rules! probes {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// Every countable event in the workspace, one variant per probe
        /// site family. The discriminant indexes the counter table; the
        /// dotted [`Probe::name`] is the stable key used in bench JSON.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Probe {
            $($(#[$doc])* $variant,)+
        }

        impl Probe {
            /// Number of probes (the counter-table width).
            pub const COUNT: usize = [$(Probe::$variant,)+].len();

            /// All probes in discriminant order.
            pub const ALL: [Probe; Self::COUNT] = [$(Probe::$variant,)+];

            /// Stable dotted name, e.g. `"queue.append_cas_fail"`.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Probe::$variant => $name,)+
                }
            }
        }
    };
}

probes! {
    // Dual queue (paper §4.1 / Listing 4): the two lock-free install points
    // and their failure (retry) edges, plus head swings.
    /// Successful CAS appending a node to the dual queue's tail.
    QueueAppendCas => "queue.append_cas",
    /// Failed append CAS (another thread won the tail; retry).
    QueueAppendCasFail => "queue.append_cas_fail",
    /// Successful claim of the front node of a linked dual list (the dual
    /// queue's, or a `TransferQueue`'s consumer, reservation fill or
    /// ring refill).
    QueueClaimCas => "queue.claim_cas",
    /// Failed claim (front node already taken or cancelled; retry).
    QueueClaimCasFail => "queue.claim_cas_fail",
    /// Head-pointer advances (dequeues plus cancellation cleanup).
    QueueHeadAdvances => "queue.head_advances",

    // Dual stack (paper Listing 6, matched in place).
    /// Successful CAS pushing a waiting node onto the dual stack.
    StackPushCas => "stack.push_cas",
    /// Failed push CAS (lost the head race; retry).
    StackPushCasFail => "stack.push_cas_fail",
    /// Successful in-place match of the top waiting node: a producer's
    /// claim or a consumer's token CAS on its slot.
    StackMatchCas => "stack.match_cas",
    /// Failed in-place match (the top was decided by another; retry).
    StackMatchCasFail => "stack.match_cas_fail",
    /// Pops of a decided top that this thread did not decide (the helping
    /// step).
    StackHelped => "stack.helped",

    // WaitSlot protocol (DESIGN §4.7): how waiting time is actually spent.
    /// Spin-loop iterations executed across all waits.
    WaitSpins => "wait.spins",
    /// Times a waiter gave up spinning and parked its thread.
    WaitParks => "wait.parks",
    /// Waits fulfilled during the spin phase (no park needed).
    WaitDirectHandoffs => "wait.direct_handoffs",
    /// Waits fulfilled only after at least one park.
    WaitParkedHandoffs => "wait.parked_handoffs",
    /// Waits that expired: deadline passed or a spin-only budget ran out.
    WaitTimeouts => "wait.timeouts",
    /// Waits ended by a fired `CancelToken`.
    WaitCancels => "wait.cancels",
    /// Cancel attempts that lost the race to a concurrent fulfill.
    WaitCancelRaceLost => "wait.cancel_race_lost",
    /// Yields of a blocking waiter that found its slot `CLAIMED` (a
    /// fulfiller moving the item).
    WaitClaimedYields => "wait.claimed_yields",

    // Wait-node allocation (DESIGN §4.4). The names date from a
    // per-structure free list that is gone; the benchmark looks them up.
    /// Unfired: no free list serves nodes. A nonzero count means one is
    /// back (CI's `ring` leg asserts zero).
    NodeCacheHits => "node_cache.hits",
    /// Wait nodes taken from the global allocator: one per node.
    NodeCacheMisses => "node_cache.misses",

    // Epoch reclamation (synq-reclaim).
    /// Epoch pins (one per protected critical section entry).
    EpochPins => "epoch.pins",
    /// Pins satisfied by the fence-free lazy re-pin fast path.
    EpochFastRepins => "epoch.fast_repins",
    /// Garbage nodes deferred for later reclamation.
    EpochDefers => "epoch.defers",
    /// Bag-collection passes executed.
    EpochCollects => "epoch.collects",
    /// Successful global-epoch advances.
    EpochAdvances => "epoch.advances",

    // Elimination arena + exchanger (paper §4.3).
    /// Arena visits that eliminated against a waiting partner.
    ElimHits => "elim.hits",
    /// Arena visits that found no partner and fell back.
    ElimMisses => "elim.misses",
    /// Completed exchanger swaps (both directions counted once).
    ExchangerSwaps => "exchanger.swaps",
    /// Exchanger waits that timed out without a partner.
    ExchangerTimeouts => "exchanger.timeouts",

    // Baselines (paper §3): coarse events for the classic algorithms.
    /// Semaphore acquires that took a permit.
    SemAcquires => "sem.acquires",
    /// Semaphore acquires that had to block on the condvar.
    SemContended => "sem.contended",
    /// Ticket-lock acquisitions.
    TicketAcquires => "ticket.acquires",
    /// Ticket-lock acquisitions that found the lock held and queued.
    TicketQueued => "ticket.queued",
    /// Completed transfers through the Hanson three-semaphore queue.
    HansonTransfers => "hanson.transfers",
    /// Completed transfers through the Java 5 SynchronousQueue port.
    Java5Transfers => "java5.transfers",
    /// Completed transfers through the naive monitor queue.
    NaiveTransfers => "naive.transfers",

    // Async front-end (synq-async).
    /// Future polls executed by the async front-end.
    AsyncPolls => "async.polls",
    /// Polls that returned `Pending` (registered a waker and suspended).
    AsyncPendings => "async.pendings",

    // Ring-buffer fast path (DESIGN §4.11): SCQ-style cycle-versioned
    // slots in front of the TransferQueue rendezvous, bounded or unbounded.
    /// Items published into the ring (buffered fast-path puts).
    RingPushItems => "ring.push_items",
    /// Items consumed from the ring (buffered fast-path polls).
    RingPopItems => "ring.pop_items",
    /// Successful tail-advancing CASes — one per push *or per push batch*,
    /// so `push_items / tail_updates` is the producer-side amortization.
    RingTailUpdates => "ring.tail_updates",
    /// Successful head-advancing CASes — one per pop *or per pop batch*.
    RingHeadUpdates => "ring.head_updates",
    /// Failed head/tail CASes (another thread won the slot race; retry).
    RingCasFails => "ring.cas_fails",
    /// Producers that found the ring full and registered as space-waiters
    /// (the ring-full → rendezvous-machinery fallback edge).
    RingFullWaits => "ring.full_waits",
    /// Consumers that found the ring empty (and no linked transfers) and
    /// registered as item-waiters.
    RingEmptyWaits => "ring.empty_waits",
    /// Buffered puts on an *unbounded* queue that went to the linked list
    /// instead of the ring (ring full, or linked data already queued ahead
    /// of them); `overflow_puts / (overflow_puts + push_items)` is the
    /// overflow share.
    RingOverflowPuts => "ring.overflow_puts",
    /// Linked consumer reservations claimed by a producer after its ring
    /// push (the consumer is handed the ring's oldest item, or retries).
    RingReservationWakes => "ring.reservation_wakes",
    /// Nodes handed to a reclaimer backend (`Shield::defer_retire`), across
    /// every backend — the inflow side of the garbage ledger.
    ReclaimRetired => "reclaim.retired",
    /// Retire closures actually executed (a reference dropped, the node
    /// freed if it was the last) — the outflow side; `retired - freed` is
    /// the live garbage population.
    ReclaimFreed => "reclaim.freed",
    /// Hazard-pointer scans: one per pass over the slot registry when a
    /// retire list reaches its threshold (or an explicit `collect`).
    ReclaimHazardScans => "reclaim.hazard_scans",
    /// Retired nodes kept across a hazard scan because an active slot still
    /// protected them — retire-list length pressure under load.
    ReclaimHazardHeld => "reclaim.hazard_held",
    /// Scans (hazard) that freed nothing at all: every candidate was pinned
    /// by a slot. A growing count flags a stalled or wedged reader.
    ReclaimStalls => "reclaim.stalls",

    // Parker substrate (DESIGN §4.15): how permits actually move between
    // threads — banked fast paths vs real descheduling syscalls.
    /// Parks that consumed an already-banked permit without sleeping (the
    /// no-syscall fast path on both the futex and condvar backends).
    ParkFastPaths => "park.fast_paths",
    /// Futex/condvar sleep attempts: one per `FUTEX_WAIT` syscall (Linux)
    /// or condvar wait (fallback), including spurious-wake re-sleeps.
    ParkFutexWaits => "park.futex_waits",
    /// Wake syscalls issued: `unpark` found a sleeping (PARKED) peer and
    /// paid one `FUTEX_WAKE`/`notify_one`.
    ParkFutexWakes => "park.futex_wakes",
    /// Unparks that banked the permit without a syscall (peer not asleep:
    /// state was EMPTY or NOTIFIED).
    ParkWakeSkips => "park.wake_skips",
    /// Timed parks that expired without a permit (the timeout-retract
    /// path: `swap(EMPTY)` observed PARKED).
    ParkTimeouts => "park.timeouts",

    // Dispatch-server scenario (the `server` bench bin): async connections
    // dispatching jobs into the executor pool through a rendezvous channel.
    /// Requests issued by server-scenario connections (every dispatch
    /// attempt across the steady, burst, storm, and wave phases).
    ServerRequests => "server.requests",
    /// Dispatches abandoned because the patience deadline lapsed before a
    /// worker took the job (the timeout-storm signal).
    ServerTimeouts => "server.timeouts",
    /// Dispatches cancelled by a cancellation wave: the in-flight send was
    /// dropped before any worker took the job.
    ServerCancels => "server.cancels",
    /// Burst-phase `try_send`s that found no worker parked in `poll` and
    /// dropped the request instead of waiting.
    ServerBurstDrops => "server.burst_drops",
}

impl Probe {
    /// Inverse of the discriminant: `Probe::from_index(p as usize) == Some(p)`.
    pub fn from_index(index: usize) -> Option<Probe> {
        Probe::ALL.get(index).copied()
    }
}

/// Records `n` occurrences of `probe`.
///
/// Prefer the [`probe!`] macro at call sites. With `stats` off this is a
/// `const fn` no-op (see the crate docs for why const-ness is the proof).
#[macro_export]
macro_rules! probe {
    ($probe:ident) => {
        $crate::record($crate::Probe::$probe, 1)
    };
    ($probe:ident, $n:expr) => {
        $crate::record($crate::Probe::$probe, $n as u64)
    };
}

/// Appends an event to the trace ring.
///
/// `trace!(Kind)` records a zero payload; `trace!(Kind, word)` records an
/// arbitrary `u64` (a pointer bit-pattern, a ticket, a state value). With
/// `stats` off this is a `const fn` no-op.
#[macro_export]
macro_rules! trace {
    ($probe:ident) => {
        $crate::trace_event($crate::Probe::$probe, 0)
    };
    ($probe:ident, $payload:expr) => {
        $crate::trace_event($crate::Probe::$probe, $payload as u64)
    };
}

/// One decoded entry from the trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global ticket: total order of ring writes (monotone, gap-free among
    /// surviving events).
    pub ticket: u64,
    /// Small dense id of the recording thread (the per-process dense
    /// counter that also picks the counter shard).
    pub thread: u64,
    /// What happened.
    pub kind: Probe,
    /// Nanoseconds since the first instrumented event in the process.
    pub time_ns: u64,
    /// Free-form payload word supplied at the trace site.
    pub payload: u64,
}

/// An aggregated view of every probe counter at one instant.
///
/// Counters are monotone; subtract two snapshots with
/// [`StatsSnapshot::delta`] to attribute events to an interval (the bench
/// harness does this per algorithm run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    counts: [u64; Probe::COUNT],
}

impl StatsSnapshot {
    /// Sums all counter shards. All zeros when `stats` is off.
    pub fn take() -> StatsSnapshot {
        StatsSnapshot {
            counts: imp::collect_counts(),
        }
    }

    /// The count recorded for `probe`.
    pub fn get(&self, probe: Probe) -> u64 {
        self.counts[probe as usize]
    }

    /// Per-interval view: `self - earlier`, saturating at zero (counters
    /// are monotone, so saturation only masks a mismatched pair).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut counts = [0u64; Probe::COUNT];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        StatsSnapshot { counts }
    }

    /// `(name, count)` pairs for every probe with a nonzero count, in
    /// declaration order — the shape exported into bench JSON.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        Probe::ALL
            .iter()
            .filter(|&&p| self.get(p) != 0)
            .map(|&p| (p.name(), self.get(p)))
            .collect()
    }

    /// True if every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

pub use imp::{record, reset, trace_event, trace_events, ENABLED, RING_CAP, TABLE_BYTES};

#[cfg(feature = "stats")]
pub use imp::thread_id;

#[cfg(feature = "stats")]
mod imp {
    //! The real implementation: sharded counter table + seqlock ring.

    use super::Probe;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Instrumentation is compiled in.
    pub const ENABLED: bool = true;

    /// Counter shards. More shards than typical bench thread counts would
    /// waste cache; fewer would put hot counters from different threads on
    /// one line. Threads hash to shards by dense id, so up to 16 threads
    /// never collide.
    const SHARDS: usize = 16;

    /// One shard: a full row of counters, padded so two shards never share
    /// a cache line (128 covers adjacent-line prefetch pairs).
    #[repr(align(128))]
    struct Shard([AtomicU64; Probe::COUNT]);

    impl Shard {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: Shard = {
            const Z: AtomicU64 = AtomicU64::new(0);
            Shard([Z; Probe::COUNT])
        };
    }

    static TABLE: [Shard; SHARDS] = [Shard::ZERO; SHARDS];

    /// Bytes of static counter storage compiled into the binary.
    pub const TABLE_BYTES: usize = std::mem::size_of::<[Shard; SHARDS]>();

    static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

    std::thread_local! {
        static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    }

    /// Small dense id of the calling thread, assigned on first
    /// instrumented event (`std::thread::ThreadId` has no stable integer
    /// accessor). Used for both shard selection and trace attribution.
    pub fn thread_id() -> u64 {
        THREAD_ID.with(|t| *t)
    }

    /// Records `n` occurrences of `probe` in the calling thread's shard.
    ///
    /// Relaxed is enough: counters are only read by whole-table snapshot,
    /// never used for synchronization.
    #[inline(always)]
    pub fn record(probe: Probe, n: u64) {
        let shard = &TABLE[(thread_id() % SHARDS as u64) as usize];
        shard.0[probe as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Sums shards into one row. Concurrent increments may or may not be
    /// included — snapshots taken around a quiesced interval are exact.
    pub(super) fn collect_counts() -> [u64; Probe::COUNT] {
        let mut counts = [0u64; Probe::COUNT];
        for shard in &TABLE {
            for (slot, counter) in counts.iter_mut().zip(&shard.0) {
                *slot += counter.load(Ordering::Relaxed);
            }
        }
        counts
    }

    /// Zeroes every counter. Test/bench convenience; racing increments may
    /// survive, so prefer snapshot deltas for measurement.
    pub fn reset() {
        for shard in &TABLE {
            for counter in &shard.0 {
                counter.store(0, Ordering::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event ring tracer.
    //
    // A fixed array of slots, claimed by a global fetch_add ticket and
    // guarded by a per-slot sequence word in the seqlock style:
    //
    //   writer(t): seq.store(2t+1); fields.store(..); seq.store(2t+2)
    //   reader:    s1 = seq;  fields.load(..);  s2 = seq;
    //              valid iff s1 == s2 and s1 is even and nonzero
    //
    // An odd or changed sequence means a writer was mid-flight (its ticket
    // lapped the reader); the reader simply drops that slot. Fields are
    // relaxed atomics, not raw memory, so an interleaved read yields a
    // discarded stale value — never UB — and the scheme stays Miri-clean.
    // ------------------------------------------------------------------

    /// Trace ring capacity in events; older events are overwritten.
    pub const RING_CAP: usize = 1024;

    struct RingSlot {
        seq: AtomicU64,
        thread: AtomicU64,
        kind: AtomicU64,
        time_ns: AtomicU64,
        payload: AtomicU64,
    }

    impl RingSlot {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const EMPTY: RingSlot = RingSlot {
            seq: AtomicU64::new(0),
            thread: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            time_ns: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        };
    }

    static RING: [RingSlot; RING_CAP] = [RingSlot::EMPTY; RING_CAP];
    static RING_TICKET: AtomicU64 = AtomicU64::new(0);
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Appends one event to the trace ring. Lock-free: one `fetch_add` to
    /// claim a slot, then plain relaxed stores published by the sequence
    /// word.
    #[inline(always)]
    pub fn trace_event(kind: Probe, payload: u64) {
        let ticket = RING_TICKET.fetch_add(1, Ordering::Relaxed);
        let slot = &RING[(ticket % RING_CAP as u64) as usize];
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        slot.thread.store(thread_id(), Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.time_ns.store(now_ns(), Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Snapshots the ring: every fully-written, un-lapped event in ticket
    /// (write) order. Events overwritten or mid-write during the scan are
    /// omitted.
    pub fn trace_events() -> Vec<super::TraceEvent> {
        let mut events = Vec::with_capacity(RING_CAP);
        for slot in &RING {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or writer mid-flight
            }
            let thread = slot.thread.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let time_ns = slot.time_ns.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // a writer lapped us mid-read; fields are torn
            }
            let Some(kind) = Probe::from_index(kind as usize) else {
                continue;
            };
            events.push(super::TraceEvent {
                ticket: (s1 - 2) / 2,
                thread,
                kind,
                time_ns,
                payload,
            });
        }
        events.sort_by_key(|e| e.ticket);
        events
    }
}

#[cfg(not(feature = "stats"))]
mod imp {
    //! The disabled implementation: every recording entry point is a
    //! `const fn` with an empty body. Const-ness is load-bearing — a
    //! `const fn` cannot read or write statics, atomics, or TLS, so the
    //! compiler itself verifies these are pure no-ops (exercised by
    //! `tests/probe_noop.rs`), and `#[inline(always)]` leaves no call.

    use super::Probe;

    /// Instrumentation is compiled out.
    pub const ENABLED: bool = false;

    /// No counter table exists in this configuration.
    pub const TABLE_BYTES: usize = 0;

    /// Trace ring capacity the `stats` build would have (kept equal so
    /// code may size buffers against it unconditionally).
    pub const RING_CAP: usize = 1024;

    /// No-op. See the module docs: const-ness proves effect-freedom.
    #[inline(always)]
    pub const fn record(_probe: Probe, _n: u64) {}

    /// No-op. See the module docs: const-ness proves effect-freedom.
    #[inline(always)]
    pub const fn trace_event(_kind: Probe, _payload: u64) {}

    /// No-op; there are no counters to clear.
    #[inline(always)]
    pub fn reset() {}

    pub(super) fn collect_counts() -> [u64; Probe::COUNT] {
        [0; Probe::COUNT]
    }

    /// Always empty; there is no ring.
    pub fn trace_events() -> Vec<super::TraceEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<_> = Probe::ALL.iter().map(|p| p.name()).collect();
        assert!(names.iter().all(|n| n.contains('.')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Probe::COUNT);
    }

    #[test]
    fn from_index_roundtrips() {
        for (i, &p) in Probe::ALL.iter().enumerate() {
            assert_eq!(p as usize, i);
            assert_eq!(Probe::from_index(i), Some(p));
        }
        assert_eq!(Probe::from_index(Probe::COUNT), None);
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let mut a = StatsSnapshot {
            counts: [0; Probe::COUNT],
        };
        let mut b = a.clone();
        a.counts[0] = 7;
        b.counts[0] = 10;
        b.counts[1] = 3;
        let d = b.delta(&a);
        assert_eq!(d.counts[0], 3);
        assert_eq!(d.counts[1], 3);
        // Mismatched order saturates rather than wrapping.
        assert_eq!(a.delta(&b).counts[0], 0);
        assert_eq!(
            d.nonzero(),
            vec![(Probe::ALL[0].name(), 3), (Probe::ALL[1].name(), 3)]
        );
        assert!(!d.is_zero());
    }
}
