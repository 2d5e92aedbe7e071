//! A `TransferQueue` in either mode serves as a thread pool's work
//! channel: its `TimedSyncChannel` side is the synchronous handoff the
//! pool's workers rendezvous on.

use std::sync::Arc;
use synq_transfer::TransferQueue;

#[test]
fn works_as_executor_channel() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use synq_executor::ThreadPool;
    for queue in [TransferQueue::new(), TransferQueue::bounded(4)] {
        let pool = ThreadPool::cached(Arc::new(queue));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }
}
