//! The slot array shared by the [`Exchanger`](crate::Exchanger) and the
//! one-slot elimination arena of the
//! [`EliminationSyncStack`](crate::EliminationSyncStack).
//!
//! A slot is one word: empty (0), or the address of a node an installer
//! has published, with the node's *kind* in the low bit (the arena's
//! data-or-request; the exchanger's nodes are all of one kind). A
//! published word holds one strong count of its node, and this type is the
//! only place that turns counts into words and back:
//!
//! * [`Slots::install`] gives a count to an empty slot;
//! * [`Slots::take`] moves the count out to a visitor, by a CAS on the
//!   word the visitor read, and only then may the visitor read the node;
//! * [`Slots::clear`] lets an installer that won its node's cancel CAS
//!   take its own count back, unless a visitor took it first.
//!
//! A visitor decides from the word alone whether the node is its partner's
//! kind, so no node is ever read without a count on it. Who gets the node
//! is not decided here but by its `WaitSlot`: a visitor that took the word
//! and wins `try_claim` completes the exchange, one that loses walks away,
//! and the installer gives up only by winning `try_cancel`. A word read
//! earlier can name a node since freed and a new one at its address; the
//! `take` CAS then moves the new node's count, which is as good.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use synq_primitives::CachePadded;

/// A nonzero slot word: a node's address and its kind bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Word(usize);

impl Word {
    /// The kind the installer gave its node.
    pub(crate) fn kind(self) -> bool {
        self.0 & 1 == 1
    }
}

/// A fixed array of slots, each owning a count of the node it publishes.
pub(crate) struct Slots<N> {
    /// One slot per cache-line pair: the point of the exchanger's arena is
    /// to spread contention across slots, which padding makes literal.
    words: Box<[CachePadded<AtomicUsize>]>,
    _owns: PhantomData<Arc<N>>,
}

impl<N> Slots<N> {
    /// `n` empty slots.
    pub(crate) fn new(n: usize) -> Self {
        Slots {
            words: (0..n)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            _owns: PhantomData,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// The word in slot `i`, if a node is published there.
    pub(crate) fn peek(&self, i: usize) -> Option<Word> {
        match self.words[i].load(Ordering::Acquire) {
            0 => None,
            w => Some(Word(w)),
        }
    }

    fn word(node: &Arc<N>, kind: bool) -> usize {
        let addr = Arc::as_ptr(node) as usize;
        debug_assert_eq!(addr & 1, 0, "node address has its low bit set");
        addr | usize::from(kind)
    }

    /// Publishes `node` with `kind` in slot `i` if the slot is empty; the
    /// slot then holds a count of it.
    pub(crate) fn install(&self, i: usize, node: &Arc<N>, kind: bool) -> bool {
        // The count goes in before the word is visible: a visitor may take
        // it and drop it at once.
        let raw = Arc::into_raw(Arc::clone(node));
        let won = self.words[i]
            .compare_exchange(
                0,
                Self::word(node, kind),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if !won {
            // SAFETY: the failed CAS published nothing; the count is ours.
            drop(unsafe { Arc::from_raw(raw) });
        }
        won
    }

    /// Empties slot `i` if it still holds `word`, handing its count to the
    /// caller.
    pub(crate) fn take(&self, i: usize, word: Word) -> Option<Arc<N>> {
        self.words[i]
            .compare_exchange(word.0, 0, Ordering::AcqRel, Ordering::Acquire)
            .ok()
            // SAFETY: the CAS moved the count `install` gave the word.
            .map(|w| unsafe { Arc::from_raw((w & !1) as *const N) })
    }

    /// Empties slot `i` if it still publishes `node`, dropping the count it
    /// held; a visitor that took the word first drops that count itself.
    pub(crate) fn clear(&self, i: usize, node: &Arc<N>, kind: bool) {
        // The caller's own count keeps the address from being reused, so
        // an equal word can only be this node's.
        drop(self.take(i, Word(Self::word(node, kind))));
    }
}

impl<N> Drop for Slots<N> {
    fn drop(&mut self) {
        for i in 0..self.len() {
            if let Some(word) = self.peek(i) {
                drop(self.take(i, word));
            }
        }
    }
}
