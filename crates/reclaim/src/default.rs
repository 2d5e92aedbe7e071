//! The process-wide collector and each thread's participation in it.

use crate::guard::Guard;
use crate::internal::{Global, Local};
use std::sync::OnceLock;

/// The process-wide collector, created by the first thread that registers
/// and never dropped.
pub(crate) fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(Global::new)
}

/// A thread's registration: its record, given back when the thread exits.
struct Handle(&'static Local);

impl Handle {
    fn register() -> Self {
        Handle(global().register())
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.0.release_handle();
    }
}

thread_local! {
    static HANDLE: Handle = Handle::register();
}

/// Pins the current thread against the process-wide collector.
///
/// All `synq` data structures defer reclamation through this collector, so
/// a guard obtained here protects loads from any of them.
#[inline]
pub fn pin() -> Guard {
    HANDLE.try_with(|h| h.0.pin()).unwrap_or_else(|_| {
        // The thread-local was already destroyed (we are inside another
        // TLS destructor). Fall back to a transient registration; the
        // returned guard keeps the record until it drops.
        Handle::register().0.pin()
    })
}

/// One slice of the calling thread's reclamation work; false once it has
/// none, or once the thread is exiting.
pub(crate) fn reclaim_step() -> bool {
    HANDLE.try_with(|h| h.0.reclaim_step()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epoch, Reclaimer, Shield};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Collects until `done` holds, or gives up after about two seconds;
    /// whether it held. Other tests pin the same collector meanwhile.
    fn collect_until(done: impl Fn() -> bool) -> bool {
        for _ in 0..2_000 {
            if done() {
                return true;
            }
            Epoch::collect();
            thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    /// A retirement that counts its run on `counter`.
    fn retire_counting(guard: &Guard, counter: &Arc<AtomicUsize>) {
        let c = Arc::clone(counter);
        // SAFETY: the closure owns what it touches.
        unsafe {
            guard.defer_retire(0, move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
        };
    }

    #[test]
    fn pin_from_many_threads() {
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(thread::spawn(|| {
                for _ in 0..100 {
                    let g = pin();
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn deferred_through_default_pin_runs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let g = pin();
            retire_counting(&g, &counter);
            g.flush();
        }
        assert!(collect_until(|| counter.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn a_nested_pin_keeps_the_thread_pinned_until_the_outer_guard_drops() {
        let counter = Arc::new(AtomicUsize::new(0));
        let outer = pin();
        {
            let inner = pin();
            retire_counting(&inner, &counter);
        }
        // Any collection this thread can drive pins inside `outer`, which
        // holds the epoch within one advance of the retirement.
        for _ in 0..64 {
            Epoch::collect();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 0, "freed under a pin");
        drop(outer);
        assert!(collect_until(|| counter.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn a_pinned_thread_blocks_another_threads_reclamation() {
        let counter = Arc::new(AtomicUsize::new(0));
        let blocker = pin();
        let c = Arc::clone(&counter);
        thread::spawn(move || {
            retire_counting(&pin(), &c);
            // Try hard to reclaim; the pinned blocker must prevent the two
            // epoch advances the retirement waits for.
            for _ in 0..20 {
                Epoch::collect();
            }
            assert_eq!(c.load(Ordering::SeqCst), 0, "freed under a pin");
        })
        .join()
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 0, "freed under a pin");
        drop(blocker);
        assert!(collect_until(|| counter.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn a_threads_exit_hands_its_open_bag_to_the_global_stack() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        // One retirement in a bag nobody seals before the thread exits:
        // only the exit can put it where this thread's collections reach.
        thread::spawn(move || retire_counting(&pin(), &c))
            .join()
            .unwrap();
        assert!(collect_until(|| counter.load(Ordering::SeqCst) == 1));
    }
}
