//! Atomic pointers to reclaimed nodes: [`Atomic`], [`Owned`], [`Shared`].
//!
//! The paper's authors note that "Java does not allow us to set flag bits
//! in pointers (to distinguish among the types of pointed-to nodes)" and
//! pay an extra word per node instead. The structures here keep that mode
//! word, so these pointers are plain addresses: no bits are stolen, and
//! the word an [`Atomic`] holds is exactly the address it points at.

use crate::reclaimer::{Epoch, Reclaimer, Shield};
use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Types that can be passed as the "new" operand of atomic operations.
pub trait Pointer<T> {
    /// The pointer as an address word.
    fn into_usize(self) -> usize;
    /// Rebuilds the value from an address word.
    ///
    /// # Safety
    ///
    /// `data` must have come from `into_usize` of the same impl, with
    /// ownership transferred to the caller.
    unsafe fn from_usize(data: usize) -> Self;
}

/// An owned, heap-allocated `T` — the unique-ownership stage of a node's
/// life, before it is published into a structure.
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

/// A pointer valid for the lifetime of a guard borrow.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

/// An atomic pointer to `T`, reclaimed through the backend `R`
/// (defaulted to [`Epoch`] so pre-trait code compiles unchanged).
///
/// `R` only matters for [`Atomic::load`], which routes the read through
/// [`Shield::protect`] of `R`'s guard type — a plain load for the epoch
/// backend, a publish-and-revalidate loop for hazard pointers.
pub struct Atomic<T, R = Epoch> {
    data: AtomicUsize,
    _marker: PhantomData<(*mut T, R)>,
}

/// Error type of [`Atomic::compare_exchange`]: the actual current value and
/// the not-inserted new value (so callers can retry without reallocating).
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The rejected new value, returned to the caller.
    pub new: P,
}

impl<T, P: Pointer<T>> fmt::Debug for CompareExchangeError<'_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompareExchangeError")
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------- Owned --

impl<T> Owned<T> {
    /// Heap-allocates `value`.
    pub fn new(value: T) -> Self {
        Self::from_box(Box::new(value))
    }

    /// Converts into a [`Shared`] bound to `_guard` (any backend's guard
    /// type), relinquishing unique ownership (the pointer is now managed by
    /// the caller's protocol).
    pub fn into_shared<'g, G>(self, _guard: &'g G) -> Shared<'g, T> {
        let data = self.data;
        mem::forget(self);
        Shared {
            data,
            _marker: PhantomData,
        }
    }

    /// Wraps an existing allocation.
    pub fn from_box(b: Box<T>) -> Self {
        Owned {
            data: Box::into_raw(b) as usize,
            _marker: PhantomData,
        }
    }

    /// Unwraps the allocation.
    pub fn into_box(self) -> Box<T> {
        let raw = self.data as *mut T;
        mem::forget(self);
        // SAFETY: Owned uniquely owns the Box-allocated pointer.
        unsafe { Box::from_raw(raw) }
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: unique ownership of a valid allocation.
        unsafe { &*(self.data as *const T) }
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: unique ownership of a valid allocation.
        unsafe { &mut *(self.data as *mut T) }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: unique ownership.
        drop(unsafe { Box::from_raw(self.data as *mut T) });
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_usize(self) -> usize {
        let data = self.data;
        mem::forget(self);
        data
    }
    unsafe fn from_usize(data: usize) -> Self {
        Owned {
            data,
            _marker: PhantomData,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Owned").field("value", &**self).finish()
    }
}

// --------------------------------------------------------------- Shared --

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Self {
        Shared {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// The raw pointer.
    pub fn as_raw(&self) -> *const T {
        self.data as *const T
    }

    /// True if the pointer is null.
    pub fn is_null(&self) -> bool {
        self.data == 0
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and protected (loaded under the guard
    /// whose lifetime brands this `Shared`, from a structure that defers
    /// destruction through the same collector).
    pub unsafe fn deref(&self) -> &'g T {
        // SAFETY: per caller contract.
        unsafe { &*self.as_raw() }
    }

    /// `Some(&T)` if non-null.
    ///
    /// # Safety
    ///
    /// As for [`Shared::deref`].
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: per caller contract.
        unsafe { self.as_raw().as_ref() }
    }

    /// Reclaims unique ownership.
    ///
    /// # Safety
    ///
    /// The caller must guarantee no other thread can reach the pointer
    /// (typically: it was just unlinked and the caller has exclusive
    /// access, or the structure is being dropped).
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null());
        // SAFETY: per caller contract.
        unsafe { Owned::from_usize(self.data) }
    }

    /// Pointer equality.
    pub fn ptr_eq(&self, other: &Shared<'_, T>) -> bool {
        self.data == other.data
    }

    /// Builds a `Shared` from a raw pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be protected for the chosen lifetime by the same
    /// means `load` would provide: a pin covering its reachability, or a
    /// reference count / exclusive access held by the caller.
    pub unsafe fn from_raw(raw: *const T) -> Shared<'g, T> {
        Shared {
            data: raw as usize,
            _marker: PhantomData,
        }
    }
}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_usize(self) -> usize {
        self.data
    }
    unsafe fn from_usize(data: usize) -> Self {
        Shared {
            data,
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("raw", &self.as_raw())
            .finish()
    }
}

impl<T> Default for Shared<'_, T> {
    fn default() -> Self {
        Shared::null()
    }
}

// --------------------------------------------------------------- Atomic --

impl<T, R> Atomic<T, R> {
    /// Heap-allocates `value` and points at it.
    pub fn new(value: T) -> Self {
        Self::from_owned(Owned::new(value))
    }

    /// A null atomic pointer.
    pub fn null() -> Self {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Takes ownership of an [`Owned`].
    pub fn from_owned(owned: Owned<T>) -> Self {
        Atomic {
            data: AtomicUsize::new(owned.into_usize()),
            _marker: PhantomData,
        }
    }

    /// Reclaims the pointee.
    ///
    /// # Safety
    ///
    /// Caller must have exclusive access (`&mut`-like) and the pointer must
    /// be non-null.
    pub unsafe fn into_owned(self) -> Owned<T> {
        // SAFETY: per caller contract.
        unsafe { Owned::from_usize(self.data.into_inner()) }
    }
}

impl<T, R: Reclaimer> Atomic<T, R> {
    /// Loads the pointer; the result is protected by `_guard`.
    ///
    /// Under bounded-slot backends the protection is routed through
    /// [`Shield::protect`]; see its contract for when the result may be
    /// dereferenced (structure-field sources: directly; node-field sources:
    /// only after re-validating a structure field).
    pub fn load<'g>(&self, ord: Ordering, guard: &'g R::Guard) -> Shared<'g, T> {
        // SAFETY: Shared::from_usize on a word this Atomic holds, protected
        // per the Shield contract.
        unsafe { Shared::from_usize(guard.protect(&self.data, ord)) }
    }

    /// Stores a new pointer, discarding (not freeing) the old one.
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_usize(), ord);
    }

    /// Atomically swaps the pointer, returning the previous value.
    ///
    /// The result is **not** routed through [`Shield::protect`]: under
    /// bounded-slot backends it may only be compared or retired, never
    /// dereferenced (the epoch pin covers it; a hazard slot does not).
    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g R::Guard,
    ) -> Shared<'g, T> {
        // SAFETY: previous word was held by this Atomic.
        unsafe { Shared::from_usize(self.data.swap(new.into_usize(), ord)) }
    }

    /// Atomically compares-and-exchanges the pointer. On failure the new
    /// value is handed back so callers can retry without reallocating.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g R::Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_usize();
        match self
            .data
            .compare_exchange(current.into_usize(), new_data, success, failure)
        {
            // SAFETY: words originate from this Atomic / the `new` operand.
            Ok(_) => Ok(unsafe { Shared::from_usize(new_data) }),
            Err(actual) => Err(CompareExchangeError {
                current: unsafe { Shared::from_usize(actual) },
                new: unsafe { P::from_usize(new_data) },
            }),
        }
    }

    /// Weak compare-exchange: may fail spuriously (maps to LL/SC on
    /// architectures that have it), so it must be used in a loop. On the
    /// retry-loop-heavy paths of lock-free structures this can generate
    /// better code than the strong version.
    pub fn compare_exchange_weak<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g R::Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_usize();
        match self
            .data
            .compare_exchange_weak(current.into_usize(), new_data, success, failure)
        {
            // SAFETY: words originate from this Atomic / the `new` operand.
            Ok(_) => Ok(unsafe { Shared::from_usize(new_data) }),
            Err(actual) => Err(CompareExchangeError {
                current: unsafe { Shared::from_usize(actual) },
                new: unsafe { P::from_usize(new_data) },
            }),
        }
    }
}

impl<T, R> Default for Atomic<T, R> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T, R> fmt::Debug for Atomic<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let raw = self.data.load(Ordering::Relaxed) as *const T;
        f.debug_struct("Atomic").field("raw", &raw).finish()
    }
}

// SAFETY: an Atomic hands out &T across threads (via Shared::deref), so it
// requires T: Send + Sync, matching crossbeam-epoch. `R` is a phantom
// marker and imposes nothing.
unsafe impl<T: Send + Sync, R> Send for Atomic<T, R> {}
unsafe impl<T: Send + Sync, R> Sync for Atomic<T, R> {}
unsafe impl<T: Send> Send for Owned<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn unprotected() -> <Epoch as Reclaimer>::Guard {
        // SAFETY: every test owns the atomics it touches.
        unsafe { Epoch::unprotected() }
    }

    #[test]
    fn owned_roundtrip() {
        let mut o = Owned::new(42u64);
        assert_eq!(*o, 42);
        *o += 1;
        let b = o.into_box();
        assert_eq!(*b, 43);
    }

    #[test]
    fn atomic_load_store_swap() {
        let g = unprotected();
        let a: Atomic<u64> = Atomic::new(10);
        let p = a.load(Ordering::Acquire, &g);
        assert_eq!(unsafe { *p.deref() }, 10);

        let old = a.swap(Owned::new(20u64), Ordering::AcqRel, &g);
        assert_eq!(unsafe { *old.deref() }, 10);
        unsafe { drop(old.into_owned()) };

        let p = a.load(Ordering::Acquire, &g);
        assert_eq!(unsafe { *p.deref() }, 20);
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let g = unprotected();
        let a: Atomic<u64> = Atomic::new(1);
        let cur = a.load(Ordering::Acquire, &g);

        // Failure path returns the Owned for reuse.
        let wrong = Shared::<u64>::null();
        let err = a
            .compare_exchange(
                wrong,
                Owned::new(2u64),
                Ordering::AcqRel,
                Ordering::Acquire,
                &g,
            )
            .unwrap_err();
        assert!(err.current.ptr_eq(&cur));
        let recovered = err.new;

        // Success path installs the same allocation.
        let installed = a
            .compare_exchange(cur, recovered, Ordering::AcqRel, Ordering::Acquire, &g)
            .unwrap();
        assert_eq!(unsafe { *installed.deref() }, 2);
        unsafe { drop(cur.into_owned()) };
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn shared_null() {
        let n = Shared::<u64>::null();
        assert!(n.is_null());
        assert!(n.as_raw().is_null());
        assert!(n.ptr_eq(&Shared::default()));
    }

    #[test]
    fn compare_exchange_weak_eventually_succeeds() {
        let g = unprotected();
        let a: Atomic<u64> = Atomic::new(1);
        let cur = a.load(Ordering::Acquire, &g);
        let mut new = Owned::new(2u64);
        loop {
            match a.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire, &g) {
                Ok(p) => {
                    assert_eq!(unsafe { *p.deref() }, 2);
                    break;
                }
                Err(e) => {
                    // Spurious failure: the current value must be unchanged.
                    assert!(e.current.ptr_eq(&cur));
                    new = e.new;
                }
            }
        }
        unsafe { drop(cur.into_owned()) };
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn owned_from_box_and_shared_from_raw() {
        let g = unprotected();
        let o = Owned::from_box(Box::new(9u64));
        let raw = &*o as *const u64;
        let a: Atomic<u64> = Atomic::from_owned(o);
        let s = unsafe { Shared::from_raw(raw) };
        assert!(a.load(Ordering::Acquire, &g).ptr_eq(&s));
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn default_atomic_is_null() {
        let g = unprotected();
        let a = Atomic::<u64>::default();
        assert!(a.load(Ordering::Acquire, &g).is_null());
    }
}
