//! Flat-combining rendezvous: publish your request, let one thread pair
//! everybody (DESIGN.md §4.13).
//!
//! The dual structures ([`SyncDualQueue`](crate::SyncDualQueue)) let every
//! thread race for the list's CAS points. Delegation-style combining is the
//! other major answer to contention: every thread publishes its put/take
//! request into a per-thread **publication record** on an intrusive list,
//! and whichever thread wins a single combiner-lock CAS *sweeps* the list,
//! pairing waiting putters with takers in one pass and completing each
//! handoff directly through the record's [`WaitSlot`] claim CAS. Everyone
//! else spins-then-parks on their own cache line. One thread doing all the
//! work sounds like a scalability sin, but under oversubscription (threads
//! ≫ cores) it is exactly right: the combiner is the one thread the
//! scheduler is currently running, and a batch of N handoffs costs one lock
//! acquisition instead of N contended CAS storms against sleeping waiters.
//!
//! # Publication-record state machine
//!
//! Each record carries a request word `req` alongside its `WaitSlot`:
//!
//! ```text
//!            owner CAS                owner store (op resolved)
//!   EMPTY ──────────────▶ (seq<<2)|dir ──────────────▶ EMPTY
//!     │  combiner CAS                 │ owner store (one-shot record)
//!     ▼  (64 quiet sweeps)            ▼
//!   DEAD  (graveyard; owner re-enrolls)   RETIRED  (combiner frees)
//! ```
//!
//! Only the owner moves a pending word back to `EMPTY`/`RETIRED`; only the
//! combiner moves `EMPTY` to `DEAD` — the CAS arbitrates aging against a
//! concurrent republish, so the request word is never recycled under a
//! racing writer. The wait/handoff half is entirely the `WaitSlot` protocol
//! the rest of the workspace already uses: the combiner claims a pending
//! request (`try_claim`), reads its direction from the armed item cell,
//! pairs it, and `complete`s/`fulfill`s; leftovers are `unclaim`ed back to
//! `WAITING` so their owners keep waiting for the next sweep.
//!
//! # Combiner election and liveness
//!
//! A publisher (1) arms its slot, (2) makes its record pending with a
//! `SeqCst` CAS, (3) bumps the global `pub_seq`, and (4) attempts the
//! combiner lock **at least once** before waiting. A combiner releases by
//! storing the lock open and then *re-reading* `pub_seq`: if it moved since
//! the pre-sweep snapshot, some publisher may have failed the lock during
//! the sweep, so the combiner re-elects itself (or observes that somebody
//! else already has). In the `SeqCst` total order a publisher whose lock
//! attempt failed ordered its `pub_seq` bump before that failed attempt,
//! which sits before the holder's release and post-release re-check — so
//! every published request is observed by some sweep. Parking is therefore
//! safe with no timeout crutch.
//!
//! # Memory reclamation (or: why there is none)
//!
//! The blocking path caches one record per (thread × structure) and reuses
//! it forever — steady-state transfers are allocation-free and the record's
//! cache line stays hot in its owner's cache. Aged-out records cannot be
//! freed early under *any* deferred-reclamation scheme: a cached owner may
//! return after an arbitrary absence and dereference its pointer long after
//! any grace period, so `DEAD` records move to a lock-guarded graveyard and
//! are freed only when the structure drops (the owner observes `DEAD` and
//! re-enrolls). One-shot records (the poll/async path, where one task may
//! hold many pending permits) end in `RETIRED`, the owner's promise never
//! to touch the record again — the next sweep unlinks and frees them
//! immediately, soundly, because list surgery is serialized by the combiner
//! lock. So the combiner, unlike the dual structures, takes no reclamation
//! backend: it performs zero deferred reclamation by construction.

use crate::transferer::{Deadline, TransferOutcome};
use crate::{PendingTransfer, PollTransferer, StartTransfer};
use core::task::{Poll, Waker};
use std::cell::{RefCell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use synq_primitives::wait_slot::{CLAIMED, MATCHED, WAITING};
use synq_primitives::{CachePadded, CancelToken, SpinPolicy, WaitOutcome, WaitSlot};

/// `req`: no request published; the record may age.
const EMPTY_REQ: usize = 0;
/// `req`: aged out by a combiner; the owner must re-enroll.
const DEAD: usize = 1;
/// `req`: a one-shot record's owner is done; the next sweep frees it.
const RETIRED: usize = 2;
/// Low request-word bits: the publisher is a producer (item armed).
const DIR_PUT: usize = 1;
/// Low request-word bits: the publisher is a consumer.
const DIR_TAKE: usize = 2;
/// Quiet (request-free) sweeps before a record is aged out of the list.
const DEFAULT_AGE_LIMIT: u32 = 64;
/// Per-thread publication-record cache entries kept across all combiner
/// structures; evicted entries simply age out of their lists.
const TL_CACHE_CAP: usize = 32;

/// One thread's publication record: the request word, the combiner's aging
/// counter, the intrusive link, and the wait/handoff slot. Padded to its
/// own cache-line pair so a spinning owner never false-shares with its
/// neighbors on the list.
#[repr(align(128))]
struct Record<T> {
    /// Request word (`EMPTY_REQ`/`DEAD`/`RETIRED` or `(seq << 2) | dir`).
    /// All accesses are `SeqCst`: the word participates in the combiner
    /// election's total-order argument (module docs).
    req: AtomicUsize,
    /// Consecutive sweeps that found `req == EMPTY_REQ`. Touched only by
    /// the lock-holding combiner.
    idle: AtomicU32,
    /// Next record in the intrusive list. Written once before publication;
    /// interior rewrites only by the lock-holding combiner.
    next: AtomicPtr<Record<T>>,
    /// The wait/handoff half — the same four-state protocol every other
    /// structure uses.
    slot: WaitSlot<T>,
}

impl<T> Record<T> {
    /// A fresh record, slot armed for `item` and request word already
    /// pending (fresh records become visible atomically via the list push).
    fn boxed(item: Option<T>, word: usize) -> Box<Self> {
        let slot = match item {
            Some(v) => WaitSlot::with_item(v),
            None => WaitSlot::new(),
        };
        Box::new(Record {
            req: AtomicUsize::new(word),
            idle: AtomicU32::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            slot,
        })
    }
}

/// Lock-guarded sweep workspace, reused across sweeps to keep the combiner
/// allocation-free in steady state.
struct Scratch<T> {
    /// Claimed producer requests, `(seq, record)`.
    putters: Vec<(usize, *mut Record<T>)>,
    /// Claimed consumer requests, `(seq, record)`.
    takers: Vec<(usize, *mut Record<T>)>,
}

std::thread_local! {
    /// This thread's cached publication records: `(structure id, record)`.
    /// Records are only ever dereferenced after matching the structure id,
    /// and ids are process-unique, so entries for dropped structures are
    /// dead weight, never dangling derefs.
    static TL_RECORDS: RefCell<Vec<(u64, *mut ())>> = const { RefCell::new(Vec::new()) };
}

/// Process-unique structure ids for the thread-local record cache.
static NEXT_CORE_ID: AtomicU64 = AtomicU64::new(1);

/// The combining engine shared by [`CombinerSyncQueue`] and
/// [`CombinerSyncStack`]; `lifo` selects the pairing order inside a sweep.
struct CombinerCore<T> {
    /// The combiner lock: 0 open, 1 held. `SeqCst` both ways (election
    /// argument in the module docs).
    lock: CachePadded<AtomicUsize>,
    /// Publication counter: bumped after every publish; the release
    /// re-check compares it against the pre-sweep snapshot.
    pub_seq: CachePadded<AtomicU64>,
    /// Head of the intrusive publication list (push-only for publishers;
    /// unlinks only under the lock).
    head: CachePadded<AtomicPtr<Record<T>>>,
    /// Request sequence numbers (FIFO/LIFO order within a sweep).
    seq: AtomicU64,
    /// Sweep workspace; touched only under the lock.
    scratch: UnsafeCell<Scratch<T>>,
    /// Aged-out records, kept until `Drop` (module docs explain why they
    /// cannot be freed earlier). Touched only under the lock.
    graveyard: UnsafeCell<Vec<*mut Record<T>>>,
    /// Always-compiled sweep counter (the bench self-checks read these
    /// without `--features stats`).
    sweeps: AtomicU64,
    /// Always-compiled claimed-requests counter.
    swept_requests: AtomicU64,
    /// Process-unique id keying the thread-local record cache.
    id: u64,
    /// Pair newest-first (stack) instead of oldest-first (queue).
    lifo: bool,
    /// Wait strategy for unpaired publishers.
    spin: SpinPolicy,
}

// SAFETY: the UnsafeCells (scratch, graveyard) and all interior list links
// are accessed only while holding the combiner lock; records move between
// threads only through the WaitSlot claim protocol and the SeqCst request
// word. T: Send suffices because only ownership of T crosses threads.
unsafe impl<T: Send> Send for CombinerCore<T> {}
unsafe impl<T: Send> Sync for CombinerCore<T> {}

impl<T: Send> CombinerCore<T> {
    fn new(lifo: bool, spin: SpinPolicy) -> Self {
        CombinerCore {
            lock: CachePadded::new(AtomicUsize::new(0)),
            pub_seq: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            seq: AtomicU64::new(1),
            scratch: UnsafeCell::new(Scratch {
                putters: Vec::new(),
                takers: Vec::new(),
            }),
            graveyard: UnsafeCell::new(Vec::new()),
            sweeps: AtomicU64::new(0),
            swept_requests: AtomicU64::new(0),
            id: NEXT_CORE_ID.fetch_add(1, Ordering::Relaxed),
            lifo,
            spin,
        }
    }

    /// A fresh request word: `(seq << 2) | dir`, skipping the (wrap-only)
    /// collisions with the three control values.
    fn next_req_word(&self, is_put: bool) -> usize {
        let dir = if is_put { DIR_PUT } else { DIR_TAKE };
        loop {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) as usize;
            let word = (seq << 2) | dir;
            if word > RETIRED {
                return word;
            }
        }
    }

    fn try_lock(&self) -> bool {
        self.lock
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// This thread's cached record for this structure, if any.
    fn cached_record(&self) -> Option<*mut Record<T>> {
        TL_RECORDS.with(|c| {
            c.borrow()
                .iter()
                .find(|&&(id, _)| id == self.id)
                .map(|&(_, p)| p.cast::<Record<T>>())
        })
    }

    fn remember_cached(&self, rec: *mut Record<T>) {
        TL_RECORDS.with(|c| {
            let mut v = c.borrow_mut();
            if v.len() >= TL_CACHE_CAP {
                // Evicting merely forgets the pointer; the record ages out
                // of its structure's list on its own.
                v.remove(0);
            }
            v.push((self.id, rec.cast::<()>()));
        });
    }

    fn forget_cached(&self, rec: *mut Record<T>) {
        let erased = rec.cast::<()>();
        TL_RECORDS.with(|c| {
            c.borrow_mut()
                .retain(|&(id, p)| !(id == self.id && p == erased))
        });
    }

    /// Pushes a fresh, already-pending record at the head of the list.
    fn enroll(&self, rec: Box<Record<T>>) -> *mut Record<T> {
        let ptr = Box::into_raw(rec);
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: we still exclusively own the unpublished record. A
            // stale `head` value is fine: if the CAS succeeds the value
            // *is* the current head, whatever record now sits there.
            unsafe { (*ptr).next.store(head, Ordering::Relaxed) };
            match self
                .head
                .compare_exchange_weak(head, ptr, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        synq_obs::probe!(CombinerRecordEnrolls);
        ptr
    }

    /// Unlinks `cur` (whose predecessor in this walk is `prev`, possibly
    /// null for the head position). Returns false when `cur` was at the
    /// head but lost the CAS to a concurrent enroll — a later sweep will
    /// find it interior, with a stable predecessor. Caller holds the lock.
    fn unlink(&self, prev: *mut Record<T>, cur: *mut Record<T>, next: *mut Record<T>) -> bool {
        if prev.is_null() {
            self.head
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        } else {
            // SAFETY: interior links are rewritten only by the lock holder,
            // and `prev` is still linked (this walk retained it).
            unsafe { (*prev).next.store(next, Ordering::Release) };
            true
        }
    }

    /// One full pass over the publication list: age the quiet, free the
    /// retired, claim the pending, pair putters with takers, hand back the
    /// leftovers. Caller holds the combiner lock.
    fn sweep(&self) {
        // SAFETY: the combiner lock serializes sweeps; scratch is touched
        // only here.
        let scratch = unsafe { &mut *self.scratch.get() };
        scratch.putters.clear();
        scratch.takers.clear();

        let mut prev: *mut Record<T> = ptr::null_mut();
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: linked records stay allocated until this lock holder
            // frees them (RETIRED) or the structure drops (list+graveyard).
            let rec = unsafe { &*cur };
            let next = rec.next.load(Ordering::Acquire);
            match rec.req.load(Ordering::SeqCst) {
                EMPTY_REQ => {
                    let quiet = rec.idle.load(Ordering::Relaxed) + 1;
                    rec.idle.store(quiet, Ordering::Relaxed);
                    // The CAS arbitrates against a concurrent republish: if
                    // the owner wins, the record is pending and stays.
                    if quiet >= DEFAULT_AGE_LIMIT
                        && rec
                            .req
                            .compare_exchange(EMPTY_REQ, DEAD, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        && self.unlink(prev, cur, next)
                    {
                        synq_obs::probe!(CombinerRecordAged);
                        // SAFETY: lock held; the record is now unreachable
                        // from the list and parked in the graveyard.
                        unsafe { (*self.graveyard.get()).push(cur) };
                        cur = next;
                        continue;
                    }
                }
                DEAD => {
                    // Deferred unlink: the aging sweep lost the head CAS.
                    if self.unlink(prev, cur, next) {
                        synq_obs::probe!(CombinerRecordAged);
                        // SAFETY: as above.
                        unsafe { (*self.graveyard.get()).push(cur) };
                        cur = next;
                        continue;
                    }
                }
                RETIRED => {
                    // One-shot record whose owner is done. Freeing under the
                    // lock is sound: only lock holders traverse the list,
                    // and the RETIRED store was the owner's last access.
                    if self.unlink(prev, cur, next) {
                        drop(unsafe { Box::from_raw(cur) });
                        cur = next;
                        continue;
                    }
                }
                word => {
                    rec.idle.store(0, Ordering::Relaxed);
                    if rec.slot.try_claim() {
                        // Direction comes from the *slot*, not the request
                        // word: the owner may have cancelled and republished
                        // since we loaded `word`, and the claim's
                        // exclusivity makes the armed-item check accurate
                        // for whichever request we actually caught.
                        let entry = (word >> 2, cur);
                        if rec.slot.has_item() {
                            scratch.putters.push(entry);
                        } else {
                            scratch.takers.push(entry);
                        }
                    }
                }
            }
            prev = cur;
            cur = next;
        }

        // Pair in arrival order (queue) or newest-first (stack). The
        // sequence makes the batch FIFO/LIFO *within* a sweep; across
        // sweeps fairness is per-batch (DESIGN §4.13).
        scratch.putters.sort_unstable_by_key(|&(seq, _)| seq);
        scratch.takers.sort_unstable_by_key(|&(seq, _)| seq);
        if self.lifo {
            scratch.putters.reverse();
            scratch.takers.reverse();
        }
        let pairs = scratch.putters.len().min(scratch.takers.len());
        for i in 0..pairs {
            let p = scratch.putters[i].1;
            let t = scratch.takers[i].1;
            // SAFETY: we hold both claims; the putter's cell is filled
            // (that is what bucketed it) and the taker's is empty.
            unsafe {
                let v = (*p).slot.take_item();
                (*p).slot.complete();
                (*t).slot.fulfill(v);
            }
        }
        // Hand unpaired claims back. Their owners' mailboxes are untouched,
        // so a later sweep's `complete` still wakes a parked waiter.
        for &(_, rec) in scratch.putters[pairs..]
            .iter()
            .chain(&scratch.takers[pairs..])
        {
            // SAFETY: our claim, uncompleted, cell exactly as claimed.
            unsafe { (*rec).slot.unclaim() };
        }

        let claimed = (scratch.putters.len() + scratch.takers.len()) as u64;
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.swept_requests.fetch_add(claimed, Ordering::Relaxed);
        synq_obs::probe!(CombinerSweeps);
        if claimed > 0 {
            synq_obs::probe!(CombinerRequests, claimed);
        }
        scratch.putters.clear();
        scratch.takers.clear();
    }

    /// Sweeps and releases the lock, re-electing while publications landed
    /// mid-sweep (the liveness half of the election protocol — module
    /// docs). Caller holds the lock.
    fn combine(&self) {
        loop {
            let snap = self.pub_seq.load(Ordering::SeqCst);
            self.sweep();
            self.lock.store(0, Ordering::SeqCst);
            if self.pub_seq.load(Ordering::SeqCst) == snap {
                return;
            }
            // New publications during the sweep: their owners may have seen
            // the lock held and gone to wait. Re-elect ourselves — or leave
            // it to whoever beat us to the lock.
            if !self.try_lock() {
                return;
            }
        }
    }

    /// The resolved-handoff epilogue: a producer's item went to its taker;
    /// a consumer collects the deposited item.
    fn matched_outcome(&self, rec: &Record<T>, is_put: bool) -> TransferOutcome<T> {
        if is_put {
            TransferOutcome::Transferred(None)
        } else {
            // SAFETY: the terminal MATCHED state (Acquire-read by our
            // caller) licenses the item read; the combiner deposited it.
            TransferOutcome::Transferred(Some(unsafe { rec.slot.take_item() }))
        }
    }

    /// After *winning* the cancel CAS: no fulfiller touched the cell, so a
    /// producer's armed item is still ours to hand back.
    fn reclaim_after_cancel(&self, rec: &Record<T>, is_put: bool) -> Option<T> {
        // SAFETY: the won cancel grants cell exclusivity; producers armed
        // the cell at publish time.
        is_put.then(|| unsafe { rec.slot.take_item() })
    }

    /// The blocking transfer: publish on the cached (or a fresh) record,
    /// attempt to combine, then wait on the slot.
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        let is_put = item.is_some();
        let mut item = item;

        // Publish. The loop only repeats when a cached record turns out to
        // have been aged out (DEAD) — at most twice per call in practice.
        let rec: *mut Record<T> = loop {
            let Some(ptr) = self.cached_record() else {
                let word = self.next_req_word(is_put);
                let fresh = Record::boxed(item.take(), word);
                let ptr = self.enroll(fresh);
                self.remember_cached(ptr);
                break ptr;
            };
            // SAFETY: a cached record stays allocated while the structure
            // lives (aged records go to the graveyard, freed only at Drop)
            // and the structure is alive for the duration of `&self`.
            let rec = unsafe { &*ptr };
            if rec.req.load(Ordering::SeqCst) == DEAD {
                self.forget_cached(ptr);
                continue;
            }
            // SAFETY: we own this record between ops; its slot is terminal
            // (or fresh) and its request word is EMPTY. Arm the cell
            // *before* reopening so a claim landing the instant the slot
            // reopens sees a fully armed request.
            unsafe {
                rec.slot.recycle();
                if let Some(v) = item.take() {
                    rec.slot.put_item(v);
                }
                rec.slot.reopen();
            }
            let word = self.next_req_word(is_put);
            match rec
                .req
                .compare_exchange(EMPTY_REQ, word, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    synq_obs::probe!(CombinerRecordRecycles);
                    break ptr;
                }
                Err(_) => {
                    // Aged out between the load and the CAS. The record is
                    // DEAD and we abandon it — but a straggling sweep that
                    // loaded our *previous* request word may have claimed
                    // the reopened slot first. Sweeps are serialized and
                    // the aging sweep postdates every sweep that could
                    // still hold that stale word, so one check decides:
                    self.forget_cached(ptr);
                    if rec.slot.state() == WAITING {
                        // No straggler; take the item back and re-enroll.
                        if is_put {
                            // SAFETY: slot reopened but never published as
                            // pending; no claim can land anymore.
                            item = Some(unsafe { rec.slot.reclaim_item() });
                        }
                        continue;
                    }
                    // A straggler completed the rendezvous — report it. The
                    // record stays DEAD (graveyard-bound); don't touch req.
                    let slot_state = rec.slot.await_completion();
                    debug_assert_eq!(slot_state, MATCHED);
                    return self.matched_outcome(rec, is_put);
                }
            }
        };
        self.pub_seq.fetch_add(1, Ordering::SeqCst);

        // A publisher must attempt the lock at least once before waiting.
        let combined = if self.try_lock() {
            self.combine();
            true
        } else {
            synq_obs::probe!(CombinerLockFails);
            false
        };

        // SAFETY: pending/cached records stay allocated (see above).
        let rec = unsafe { &*rec };
        let out = if rec.slot.state() == MATCHED {
            if combined {
                synq_obs::probe!(CombinerSelfService);
            } else {
                synq_obs::probe!(CombinerDelegated);
            }
            self.matched_outcome(rec, is_put)
        } else {
            match rec.slot.await_outcome(deadline, token, &self.spin) {
                WaitOutcome::Matched(_) => {
                    synq_obs::probe!(CombinerDelegated);
                    self.matched_outcome(rec, is_put)
                }
                WaitOutcome::TimedOut => {
                    TransferOutcome::Timeout(self.reclaim_after_cancel(rec, is_put))
                }
                WaitOutcome::Cancelled => {
                    TransferOutcome::Cancelled(self.reclaim_after_cancel(rec, is_put))
                }
            }
        };
        // Hand the record back to the ageable pool. A plain store suffices:
        // while pending, only the owner writes this word.
        rec.req.store(EMPTY_REQ, Ordering::SeqCst);
        out
    }

    /// Poll-mode phase one: publish a *one-shot* record (a task may hold
    /// many pending permits, so the per-thread cache does not apply),
    /// combine once, and either complete or hand out a permit.
    fn start_poll(self: &Arc<Self>, item: Option<T>) -> StartTransfer<T, CombinerPermit<T>> {
        let is_put = item.is_some();
        let word = self.next_req_word(is_put);
        let ptr = self.enroll(Record::boxed(item, word));
        self.pub_seq.fetch_add(1, Ordering::SeqCst);
        if self.try_lock() {
            self.combine();
        } else {
            synq_obs::probe!(CombinerLockFails);
        }
        // SAFETY: a record with a pending request word is never freed
        // (sweeps free only RETIRED ones).
        let rec = unsafe { &*ptr };
        if rec.slot.state() == MATCHED {
            synq_obs::probe!(CombinerSelfService);
            let out = self.matched_outcome(rec, is_put);
            // The RETIRED store is our promise never to touch the record
            // again; the next sweep unlinks and frees it.
            rec.req.store(RETIRED, Ordering::SeqCst);
            StartTransfer::Complete(out)
        } else {
            StartTransfer::Pending(CombinerPermit {
                core: Arc::clone(self),
                rec: ptr,
                is_put,
                done: false,
            })
        }
    }

    /// Records currently linked in the publication list (waiters, idle
    /// cached records, not-yet-reaped retirees). Diagnostic only; takes the
    /// combiner lock to keep the walk sound against concurrent frees.
    fn linked_records(&self) -> usize {
        while !self.try_lock() {
            std::hint::spin_loop();
        }
        let mut n = 0usize;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            // SAFETY: lock held; linked records stay allocated.
            cur = unsafe { (*cur).next.load(Ordering::Acquire) };
        }
        // Release through the full protocol: publishers that failed the
        // lock while we held it are owed a sweep (or a pub_seq re-check).
        self.combine();
        n
    }
}

impl<T> Drop for CombinerCore<T> {
    fn drop(&mut self) {
        // Exclusive access: blocked callers borrow the structure and
        // permits hold an Arc to this core, so none can exist here. Every
        // record is owned by the list or the graveyard (never both: a
        // record enters the graveyard only as it is unlinked).
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; reading next before the free.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
        for rec in self.graveyard.get_mut().drain(..) {
            // SAFETY: graveyard records were unlinked under the lock and
            // abandoned by their owners (they observed DEAD).
            drop(unsafe { Box::from_raw(rec) });
        }
    }
}

/// A published, not-yet-resolved poll-mode transfer on a combiner
/// structure. Dropping it cancels the request and settles any in-slot item
/// exactly once (the PR 3 drop-conservation contract).
pub struct CombinerPermit<T: Send> {
    core: Arc<CombinerCore<T>>,
    rec: *mut Record<T>,
    is_put: bool,
    done: bool,
}

// SAFETY: the permit owns its one-shot record's request (records move
// between threads only via the WaitSlot protocol), and the Arc keeps the
// structure — and therefore the record's allocation — alive.
unsafe impl<T: Send> Send for CombinerPermit<T> {}

impl<T: Send> std::fmt::Debug for CombinerPermit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("CombinerPermit { .. }")
    }
}

impl<T: Send> CombinerPermit<T> {
    /// After winning the cancel CAS: a producer's armed item comes back.
    fn take_back(&self, slot: &WaitSlot<T>) -> Option<T> {
        // SAFETY: the won cancel grants cell exclusivity.
        self.is_put.then(|| unsafe { slot.take_item() })
    }
}

impl<T: Send> PendingTransfer<T> for CombinerPermit<T> {
    fn poll_transfer(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<TransferOutcome<T>> {
        assert!(!self.done, "CombinerPermit polled after completion");
        // SAFETY: the pending request word keeps the record alive until our
        // terminal RETIRED store below (or in Drop).
        let slot = unsafe { &(*self.rec).slot };
        let mut polled = slot.poll_outcome(waker, deadline, token);
        let mut helped = false;
        if polled.is_pending() {
            // Help combine: on a single-threaded executor nobody else will.
            if self.core.try_lock() {
                self.core.combine();
                helped = true;
                polled = slot.poll_outcome(waker, deadline, token);
            } else {
                synq_obs::probe!(CombinerLockFails);
            }
        }
        match polled {
            Poll::Pending => Poll::Pending,
            Poll::Ready(out) => {
                let result = match out {
                    WaitOutcome::Matched(_) => {
                        if helped {
                            synq_obs::probe!(CombinerSelfService);
                        } else {
                            synq_obs::probe!(CombinerDelegated);
                        }
                        self.core
                            .matched_outcome(unsafe { &*self.rec }, self.is_put)
                    }
                    WaitOutcome::TimedOut => TransferOutcome::Timeout(self.take_back(slot)),
                    WaitOutcome::Cancelled => TransferOutcome::Cancelled(self.take_back(slot)),
                };
                self.done = true;
                // Promise never to touch the record again; the next sweep
                // unlinks and frees it.
                unsafe { (*self.rec).req.store(RETIRED, Ordering::SeqCst) };
                Poll::Ready(result)
            }
        }
    }
}

impl<T: Send> Drop for CombinerPermit<T> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // SAFETY: pending request word keeps the record alive until the
        // RETIRED store below.
        let slot = unsafe { &(*self.rec).slot };
        loop {
            if slot.try_cancel() {
                // Cancel won: settle a producer's armed item immediately
                // (drop-conservation; nobody else will ever read the cell).
                if self.is_put {
                    // SAFETY: won cancel grants cell exclusivity.
                    drop(unsafe { slot.take_item() });
                }
                break;
            }
            match slot.state() {
                // A sweep holds the claim; completion or unclaim is
                // imminent (no user code runs inside a sweep).
                CLAIMED => std::thread::yield_now(),
                // Unclaimed again — retry the cancel.
                WAITING => std::hint::spin_loop(),
                // Matched: the handoff completed while we were dropping. A
                // producer's item went to its taker; settle a consumer's
                // deposited item here.
                _ => {
                    if !self.is_put {
                        // SAFETY: terminal MATCHED licenses the item read.
                        drop(unsafe { slot.take_item() });
                    }
                    break;
                }
            }
        }
        unsafe { (*self.rec).req.store(RETIRED, Ordering::SeqCst) };
    }
}

/// Declares one public combiner structure (queue or stack) with the shared
/// constructor family, diagnostics, and trait impls.
macro_rules! combiner_structure {
    (
        $(#[$doc:meta])*
        $name:ident, lifo: $lifo:expr, ctor_doc: $ctor:literal
    ) => {
        $(#[$doc])*
        pub struct $name<T: Send> {
            core: Arc<CombinerCore<T>>,
        }

        impl<T: Send> $name<T> {
            #[doc = concat!("A new ", $ctor, " with adaptive spinning.")]
            ///
            /// ```
            #[doc = concat!("use synq::", stringify!($name), ";")]
            /// use std::sync::Arc;
            ///
            #[doc = concat!("let q: Arc<", stringify!($name), "<u32>> = Arc::new(", stringify!($name), "::new());")]
            /// let q2 = Arc::clone(&q);
            /// let t = std::thread::spawn(move || q2.take());
            /// q.put(7);
            /// assert_eq!(t.join().unwrap(), 7);
            /// use synq::SyncChannel; // put/take come from the channel trait
            /// ```
            pub fn new() -> Self {
                Self::with_spin(SpinPolicy::adaptive())
            }

            /// As [`Self::new`] with an explicit wait strategy (ablations).
            pub fn with_spin(spin: SpinPolicy) -> Self {
                $name {
                    core: Arc::new(CombinerCore::new($lifo, spin)),
                }
            }

            /// Publication records currently linked (waiters, idle cached
            /// records, not-yet-reaped retirees). Diagnostic only; briefly
            /// takes the combiner lock.
            pub fn linked_records(&self) -> usize {
                self.core.linked_records()
            }

            /// Total combiner sweeps so far (always compiled, unlike the
            /// `combiner.*` probes).
            pub fn sweeps(&self) -> u64 {
                self.core.sweeps.load(Ordering::Relaxed)
            }

            /// Total pending requests claimed by sweeps so far;
            /// `swept_requests() / sweeps()` is the mean combining batch.
            pub fn swept_requests(&self) -> u64 {
                self.core.swept_requests.load(Ordering::Relaxed)
            }
        }

        impl<T: Send> Default for $name<T> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<T: Send> std::fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }

        impl<T: Send> crate::Transferer<T> for $name<T> {
            fn transfer(
                &self,
                item: Option<T>,
                deadline: Deadline,
                token: Option<&CancelToken>,
            ) -> TransferOutcome<T> {
                self.core.transfer(item, deadline, token)
            }
        }

        impl<T: Send> PollTransferer<T> for $name<T> {
            type Permit = CombinerPermit<T>;

            fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit> {
                this.core.start_poll(item)
            }
        }
    };
}

combiner_structure! {
    /// The **fair** flat-combining synchronous queue: requests published to
    /// per-thread records, batch-paired oldest-first by whichever thread
    /// holds the combiner lock (module docs; DESIGN.md §4.13).
    ///
    /// Strongest under oversubscription (threads ≫ cores): the running
    /// thread combines on behalf of the sleeping ones, so a batch of N
    /// handoffs costs one lock acquisition instead of N contended wakeup
    /// chains. Fairness is FIFO *within a sweep batch* — weaker than
    /// [`SyncDualQueue`](crate::SyncDualQueue)'s global FIFO.
    CombinerSyncQueue, lifo: false, ctor_doc: "combining queue (FIFO pairing within each sweep)"
}

combiner_structure! {
    /// The **unfair** flat-combining synchronous stack: as
    /// [`CombinerSyncQueue`] but pairing newest-first within each sweep,
    /// keeping recently active threads hot (the dual-stack rationale).
    CombinerSyncStack, lifo: true, ctor_doc: "combining stack (LIFO pairing within each sweep)"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{SyncChannel, TimedSyncChannel};
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn constructs_and_reports_debug_for_queue_and_stack() {
        let q: CombinerSyncQueue<u8> = CombinerSyncQueue::new();
        assert!(format!("{q:?}").starts_with("CombinerSyncQueue"));
        let s: CombinerSyncStack<u8> = CombinerSyncStack::default();
        assert!(format!("{s:?}").starts_with("CombinerSyncStack"));
    }

    #[test]
    fn offer_poll_fail_fast_on_empty() {
        let q: CombinerSyncQueue<u32> = CombinerSyncQueue::new();
        assert_eq!(q.poll(), None);
        assert_eq!(q.offer(3), Err(3));
        let s: CombinerSyncStack<u32> = CombinerSyncStack::new();
        assert_eq!(s.poll(), None);
        assert_eq!(s.offer(4), Err(4));
    }

    #[test]
    fn blocking_pair_roundtrip_queue_and_stack() {
        let q: Arc<CombinerSyncQueue<u64>> = Arc::new(CombinerSyncQueue::new());
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.take());
        q.put(41);
        assert_eq!(t.join().unwrap(), 41);

        let s: Arc<CombinerSyncStack<u64>> = Arc::new(CombinerSyncStack::new());
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.put(42));
        assert_eq!(s.take(), 42);
        t.join().unwrap();
    }

    #[test]
    fn offer_finds_a_waiting_taker() {
        let q: Arc<CombinerSyncQueue<u32>> = Arc::new(CombinerSyncQueue::new());
        let q2 = Arc::clone(&q);
        let taker = std::thread::spawn(move || q2.take());
        // Wait until the taker's record is published and parked.
        while q.linked_records() == 0 {
            std::thread::yield_now();
        }
        let mut v = 5;
        loop {
            match q.offer(v) {
                Ok(()) => break,
                Err(back) => {
                    v = back;
                    std::thread::yield_now();
                }
            }
        }
        assert_eq!(taker.join().unwrap(), 5);
    }

    #[test]
    fn timed_expiry_returns_item_and_none() {
        let q: CombinerSyncQueue<String> = CombinerSyncQueue::new();
        assert_eq!(
            q.offer_timeout("v".into(), Duration::from_millis(5)),
            Err("v".to_string())
        );
        assert_eq!(q.poll_timeout(Duration::from_millis(5)), None);
    }

    #[test]
    fn cancellation_token_interrupts_a_waiter() {
        let q: Arc<CombinerSyncQueue<u32>> = Arc::new(CombinerSyncQueue::new());
        let token = Arc::new(CancelToken::new());
        let canceller = token.canceller();
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.take_with(Deadline::Never, Some(&token)));
        std::thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(None) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn sweep_pairs_fifo_for_queue_lifo_for_stack() {
        // Two one-shot producer records published without a taker, then a
        // taker whose own sweep pairs the batch: the queue hands out the
        // oldest publication, the stack the newest — deterministically,
        // on one thread.
        let q: Arc<CombinerSyncQueue<u32>> = Arc::new(CombinerSyncQueue::new());
        let StartTransfer::Pending(_p1) = CombinerSyncQueue::start_transfer(&q, Some(1)) else {
            panic!("no taker yet: first producer must pend");
        };
        let StartTransfer::Pending(_p2) = CombinerSyncQueue::start_transfer(&q, Some(2)) else {
            panic!("no taker yet: second producer must pend");
        };
        assert_eq!(q.poll(), Some(1), "queue pairs oldest-first");
        assert_eq!(q.poll(), Some(2));

        let s: Arc<CombinerSyncStack<u32>> = Arc::new(CombinerSyncStack::new());
        let StartTransfer::Pending(_p1) = CombinerSyncStack::start_transfer(&s, Some(1)) else {
            panic!("first producer must pend");
        };
        let StartTransfer::Pending(_p2) = CombinerSyncStack::start_transfer(&s, Some(2)) else {
            panic!("second producer must pend");
        };
        assert_eq!(s.poll(), Some(2), "stack pairs newest-first");
        assert_eq!(s.poll(), Some(1));
    }

    #[test]
    fn dropping_pending_permit_cancels_and_record_is_reaped() {
        let q: Arc<CombinerSyncQueue<u32>> = Arc::new(CombinerSyncQueue::new());
        let StartTransfer::Pending(permit) = CombinerSyncQueue::start_transfer(&q, None) else {
            panic!("expected a pending reservation");
        };
        assert!(q.linked_records() >= 1);
        drop(permit);
        // The reservation is cancelled: an offer finds nobody (its own
        // sweep also unlinks and frees the retired one-shot record).
        assert_eq!(q.offer(1), Err(1));
        // Only this thread's cached blocking record can remain.
        assert!(q.linked_records() <= 1);
    }

    #[test]
    fn dropping_pending_producer_permit_settles_item() {
        let payload = Arc::new(());
        let q: Arc<CombinerSyncQueue<Arc<()>>> = Arc::new(CombinerSyncQueue::new());
        let StartTransfer::Pending(permit) =
            CombinerSyncQueue::start_transfer(&q, Some(Arc::clone(&payload)))
        else {
            panic!("expected a pending publication");
        };
        drop(permit);
        assert_eq!(
            Arc::strong_count(&payload),
            1,
            "dropping a pending send settles its item immediately"
        );
    }

    #[test]
    fn quiet_records_age_out_of_the_list() {
        let q: Arc<CombinerSyncQueue<u32>> = Arc::new(CombinerSyncQueue::new());
        // A worker leaves its cached record behind.
        {
            let q2 = Arc::clone(&q);
            std::thread::spawn(move || assert_eq!(q2.poll(), None))
                .join()
                .unwrap();
        }
        assert!(q.linked_records() >= 1);
        // Each poll sweeps; after the age limit of quiet sweeps the
        // worker's record is gone and only this thread's remains.
        for _ in 0..DEFAULT_AGE_LIMIT {
            assert_eq!(q.poll(), None);
        }
        assert_eq!(q.linked_records(), 1);
    }

    #[test]
    fn always_on_counters_track_sweeps_and_batches() {
        let q: Arc<CombinerSyncQueue<u64>> = Arc::new(CombinerSyncQueue::new());
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            for i in 0..50 {
                q2.put(i);
            }
        });
        for _ in 0..50 {
            let _ = q.take();
        }
        t.join().unwrap();
        assert!(q.sweeps() > 0, "transfers must have swept");
        assert!(
            q.swept_requests() >= q.sweeps(),
            "every completed pair implies claimed requests"
        );
    }

    #[test]
    fn stress_contended_pairs_conserve_values() {
        let q: Arc<CombinerSyncQueue<u64>> = Arc::new(CombinerSyncQueue::new());
        let pairs = 4;
        let per = 500;
        let sum = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for p in 0..pairs {
            let q2 = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q2.put((p * per + i) as u64);
                }
            }));
            let q2 = Arc::clone(&q);
            let sum2 = Arc::clone(&sum);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per {
                    sum2.fetch_add(q2.take() as usize, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let n = (pairs * per) as usize;
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn stress_mixed_blocking_and_poll_mode() {
        // Blocking putters against poll-mode (permit) takers, interleaved.
        let q: Arc<CombinerSyncQueue<u64>> = Arc::new(CombinerSyncQueue::new());
        let q2 = Arc::clone(&q);
        let n = 200u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                q2.put(i);
            }
        });
        let mut got = 0u64;
        let waker = Waker::noop();
        let mut pending: Vec<CombinerPermit<u64>> = Vec::new();
        while got < n {
            match CombinerSyncQueue::start_transfer(&q, None) {
                StartTransfer::Complete(TransferOutcome::Transferred(Some(_))) => got += 1,
                StartTransfer::Complete(other) => panic!("unexpected {other:?}"),
                StartTransfer::Pending(p) => pending.push(p),
            }
            // Drive any pending permits one poll each.
            pending.retain_mut(|p| match p.poll_transfer(waker, Deadline::Never, None) {
                Poll::Ready(TransferOutcome::Transferred(Some(_))) => {
                    got += 1;
                    false
                }
                Poll::Ready(other) => panic!("unexpected {other:?}"),
                Poll::Pending => true,
            });
        }
        producer.join().unwrap();
        assert!(pending.is_empty() || got == n);
        // Unresolved reservations (if any) cancel on drop.
    }
}
