//! The process-wide default collector and thread-local participation.

use crate::collector::{Collector, LocalHandle};
use crate::guard::Guard;
use std::sync::OnceLock;

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(Collector::new)
}

thread_local! {
    static HANDLE: LocalHandle = collector().register();
}

/// Returns the process-wide default collector.
pub fn default_collector() -> &'static Collector {
    collector()
}

/// Pins the current thread against the default collector.
///
/// All `synq` data structures defer reclamation through this collector, so
/// a guard obtained here protects loads from any of them.
#[inline]
pub fn pin() -> Guard {
    with_handle(|h| h.pin())
}

/// One slice of the calling thread's reclamation work against the default
/// collector; false once it has none, or once the thread is exiting.
pub(crate) fn reclaim_step() -> bool {
    HANDLE.try_with(LocalHandle::reclaim_step).unwrap_or(false)
}

#[inline]
fn with_handle<F, R>(f: F) -> R
where
    F: FnOnce(&LocalHandle) -> R,
{
    let mut f = Some(f);
    match HANDLE.try_with(|h| (f.take().expect("with_handle reentered"))(h)) {
        Ok(r) => r,
        Err(_) => {
            // The thread-local was already destroyed (we are inside another
            // TLS destructor). Fall back to a transient registration; a
            // returned guard keeps the record alive until it drops.
            let handle = collector().register();
            (f.take().expect("closure consumed despite TLS error"))(&handle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

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
    fn default_collector_is_singleton() {
        assert_eq!(default_collector(), default_collector());
    }

    #[test]
    fn deferred_through_default_pin_runs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let g = pin();
            let c = Arc::clone(&counter);
            unsafe {
                g.defer_unchecked(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            g.flush();
        }
        // Drive epochs forward until the deferral executes.
        for _ in 0..64 {
            let g = pin();
            g.flush();
            drop(g);
            if counter.load(Ordering::SeqCst) == 1 {
                break;
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
