//! Property tests for the semaphores behind Hanson's queue.

use proptest::prelude::*;
use std::sync::Arc;
use synq_baselines::{FastSemaphore, Semaphore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequentially, a semaphore is just a counter: any interleaving of
    /// releases and try_acquires must agree with the integer model.
    #[test]
    fn semaphore_matches_counter_model(
        initial in 0i64..5,
        ops in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let sem = Semaphore::new(initial);
        let mut model = initial;
        for release in ops {
            if release {
                sem.release();
                model += 1;
            } else {
                let got = sem.try_acquire();
                prop_assert_eq!(got, model > 0);
                if got {
                    model -= 1;
                }
            }
        }
        prop_assert_eq!(sem.available(), model);
    }

    /// The fast-path semaphore must satisfy the same model.
    #[test]
    fn fast_semaphore_matches_counter_model(
        initial in 0i64..5,
        ops in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let sem = FastSemaphore::new(initial);
        let mut model = initial;
        for release in ops {
            if release {
                sem.release();
                model += 1;
            } else {
                let got = sem.try_acquire();
                prop_assert_eq!(got, model > 0);
                if got {
                    model -= 1;
                }
            }
        }
        prop_assert_eq!(sem.permits(), model);
    }
}

/// Concurrent semaphore torture: permits are conserved across arbitrary
/// acquire/release traffic (run outside proptest: threads inside generated
/// cases are slow).
#[test]
fn semaphore_conserves_permits_concurrently() {
    for make in [0, 1] {
        enum AnySem {
            Plain(Semaphore),
            Fast(FastSemaphore),
        }
        impl AnySem {
            fn acquire(&self) {
                match self {
                    AnySem::Plain(s) => s.acquire(),
                    AnySem::Fast(s) => s.acquire(),
                }
            }
            fn release(&self) {
                match self {
                    AnySem::Plain(s) => s.release(),
                    AnySem::Fast(s) => s.release(),
                }
            }
            fn permits(&self) -> i64 {
                match self {
                    AnySem::Plain(s) => s.available(),
                    AnySem::Fast(s) => s.permits(),
                }
            }
        }
        let sem = Arc::new(if make == 0 {
            AnySem::Plain(Semaphore::new(3))
        } else {
            AnySem::Fast(FastSemaphore::new(3))
        });
        let mut handles = Vec::new();
        for _ in 0..6 {
            let sem = Arc::clone(&sem);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    sem.acquire();
                    sem.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sem.permits(), 3, "variant {make}");
    }
}
