//! Cross-thread stress tests for the epoch collector: every retired
//! destruction must run exactly once, and never while a reference could
//! still exist.
//!
//! The tests share the process-wide collector with each other, so each
//! waits for its own frees by collecting in a bounded loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use synq_reclaim::{pin, Atomic, Epoch, Guard, Owned, Reclaimer, Shared, Shield};

/// Payload whose drops are counted.
struct Tracked {
    value: u64,
    drops: Arc<AtomicUsize>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Retires `old`, unlinked by the caller's swap, to be freed once no pin
/// can reach it.
fn retire(guard: &Guard, old: Shared<'_, Tracked>) {
    let raw = old.as_raw() as usize;
    // SAFETY: unlinked by the swap that returned it, and retired once.
    unsafe { guard.defer_retire(raw, move || drop(Box::from_raw(raw as *mut Tracked))) };
}

/// Collects until `drops` reads `expected`, or gives up after about two
/// seconds; returns it. Other tests pin the same collector meanwhile.
fn collect_until(drops: &AtomicUsize, expected: usize) -> usize {
    for _ in 0..2_000 {
        if drops.load(Ordering::SeqCst) == expected {
            break;
        }
        Epoch::collect();
        thread::sleep(Duration::from_millis(1));
    }
    drops.load(Ordering::SeqCst)
}

/// Frees the slot's last occupant, which nothing retired.
fn free_survivor(slot: Atomic<Tracked>) {
    // SAFETY: every thread that could reach it has been joined.
    drop(unsafe { slot.into_owned() });
}

#[test]
fn swap_storm_drops_each_value_exactly_once() {
    const THREADS: usize = 8;
    const OPS: usize = 2_000;

    let drops = Arc::new(AtomicUsize::new(0));
    let slot: Arc<Atomic<Tracked>> = Arc::new(Atomic::new(Tracked {
        value: u64::MAX,
        drops: Arc::clone(&drops),
    }));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let slot = Arc::clone(&slot);
        let drops = Arc::clone(&drops);
        handles.push(thread::spawn(move || {
            for i in 0..OPS {
                let guard = pin();
                let new = Owned::new(Tracked {
                    value: (t * OPS + i) as u64,
                    drops: Arc::clone(&drops),
                });
                let old = slot.swap(new, Ordering::AcqRel, &guard);
                // Read through the old pointer before retiring it — this is
                // the access that epoch reclamation must keep safe.
                let v = unsafe { old.deref().value };
                assert!(v == u64::MAX || v < (THREADS * OPS) as u64);
                retire(&guard, old);
            }
            Epoch::collect();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // THREADS*OPS values were retired; the final occupant is still live.
    assert_eq!(collect_until(&drops, THREADS * OPS), THREADS * OPS);
    free_survivor(Arc::into_inner(slot).unwrap());
    assert_eq!(drops.load(Ordering::SeqCst), THREADS * OPS + 1);
}

#[test]
fn readers_never_observe_freed_memory() {
    // Writers continually replace a canary value; readers validate it.
    // A use-after-free shows up as a canary mismatch (or crash under
    // sanitizers).
    const CANARY: u64 = 0xDEAD_BEEF_CAFE_F00D;
    const READERS: usize = 4;
    const WRITERS: usize = 2;
    const OPS: usize = 3_000;

    let drops = Arc::new(AtomicUsize::new(0));
    let slot: Arc<Atomic<Tracked>> = Arc::new(Atomic::new(Tracked {
        value: CANARY,
        drops: Arc::clone(&drops),
    }));
    let stop = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for _ in 0..READERS {
        let slot = Arc::clone(&slot);
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            while stop.load(Ordering::Relaxed) == 0 {
                let guard = pin();
                let p = slot.load(Ordering::Acquire, &guard);
                let v = unsafe { p.deref().value };
                assert_eq!(v, CANARY, "reader observed freed/overwritten node");
            }
        }));
    }
    for _ in 0..WRITERS {
        let slot = Arc::clone(&slot);
        let drops = Arc::clone(&drops);
        handles.push(thread::spawn(move || {
            for _ in 0..OPS {
                let guard = pin();
                let new = Owned::new(Tracked {
                    value: CANARY,
                    drops: Arc::clone(&drops),
                });
                let old = slot.swap(new, Ordering::AcqRel, &guard);
                retire(&guard, old);
            }
        }));
    }

    // Let writers finish, then stop readers.
    for h in handles.drain(READERS..) {
        h.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(collect_until(&drops, WRITERS * OPS), WRITERS * OPS);
    free_survivor(Arc::into_inner(slot).unwrap());
}

#[test]
fn heavy_defer_volume_is_bounded_by_flushes() {
    // Retire far more objects than one bag holds; everything must be freed
    // once collections come round.
    let drops = Arc::new(AtomicUsize::new(0));
    for round in 0..100 {
        let guard = pin();
        for _ in 0..100 {
            let d = Arc::clone(&drops);
            // SAFETY: the closure owns what it touches.
            unsafe {
                guard.defer_retire(0, move || {
                    d.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        if round % 10 == 0 {
            guard.flush();
        }
    }
    assert_eq!(collect_until(&drops, 100 * 100), 100 * 100);
}
