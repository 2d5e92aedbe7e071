//! A dependency-free `block_on` driver.
//!
//! `synq-async` is runtime-agnostic: its futures only need *something*
//! that polls them and honours wakers. This module is that something, in
//! its smallest form — the calling thread parks between polls
//! ([`block_on`]), or round-robins a batch of futures on one thread
//! ([`block_on_all`], used by the MPMC stress tests to interleave many
//! tasks without a real executor). It exists so the crate's tests, doc
//! examples, and benchmarks need no external runtime; any executor
//! (tokio, smol, ...) works just as well.

use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use synq_primitives::{Parker, Unparker};

/// Polls `future` to completion on the calling thread, parking between
/// polls. The waker is the parker's own: a wake before the park (the
/// wake-before-pending race) is remembered by the permit, so no wakeup is
/// ever lost.
///
/// # Examples
///
/// ```
/// let out = synq_async::block_on(async { 2 + 2 });
/// assert_eq!(out, 4);
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let parker = Parker::new();
    let waker = parker.waker();
    let mut cx = Context::from_waker(&waker);
    let mut future = pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => parker.park(),
        }
    }
}

/// One scheduled future in [`block_on_all`]'s run queue.
struct Task<F: Future> {
    future: Pin<Box<F>>,
    /// Set by this task's waker; cleared just before each poll. Starts
    /// true so every task gets an initial poll.
    ready: Arc<Readiness>,
    waker: Waker,
    output: Option<F::Output>,
}

/// Shared between a task and its waker: a readiness flag plus the driving
/// thread's unparker.
struct Readiness {
    ready: AtomicBool,
    unparker: Unparker,
}

impl Wake for Readiness {
    fn wake(self: Arc<Self>) {
        self.ready.store(true, Ordering::Release);
        self.unparker.unpark();
    }
}

/// Drives all `futures` concurrently on the calling thread until every one
/// has completed, returning their outputs in input order.
///
/// This is cooperative single-thread concurrency: tasks interleave at
/// `await` points, exactly what the stress tests need to exercise
/// many-producer/many-consumer rendezvous without a multi-thread runtime.
/// (A future that blocks its thread would deadlock here — but blocking is
/// precisely what these futures never do.)
pub fn block_on_all<F: Future>(futures: Vec<F>) -> Vec<F::Output> {
    let parker = Parker::new();
    let mut tasks: Vec<Task<F>> = futures
        .into_iter()
        .map(|f| {
            let ready = Arc::new(Readiness {
                ready: AtomicBool::new(true),
                unparker: parker.unparker(),
            });
            Task {
                future: Box::pin(f),
                waker: Waker::from(Arc::clone(&ready)),
                ready,
                output: None,
            }
        })
        .collect();
    let mut remaining = tasks.len();
    while remaining > 0 {
        let mut progressed = false;
        for task in &mut tasks {
            if task.output.is_some() || !task.ready.ready.swap(false, Ordering::Acquire) {
                continue;
            }
            progressed = true;
            let mut cx = Context::from_waker(&task.waker);
            if let Poll::Ready(out) = task.future.as_mut().poll(&mut cx) {
                task.output = Some(out);
                remaining -= 1;
            }
        }
        if remaining > 0 && !progressed {
            parker.park();
        }
    }
    tasks
        .into_iter()
        .map(|t| t.output.expect("all tasks completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn block_on_pending_then_ready() {
        // A future that must be woken once from another thread.
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.0 {
                    Poll::Ready(7)
                } else {
                    self.0 = true;
                    let w = cx.waker().clone();
                    std::thread::spawn(move || w.wake());
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(YieldOnce(false)), 7);
    }

    #[test]
    fn block_on_all_preserves_order() {
        let futs: Vec<_> = (0..8).map(|i| async move { i * 10 }).collect();
        assert_eq!(
            block_on_all(futs),
            (0..8).map(|i| i * 10).collect::<Vec<_>>()
        );
    }
}
