//! A FIFO queue whose remove-all costs O(1) amortized, however long the
//! queue is.
//!
//! The kernel keeps two long lists that teardown prunes one value at a
//! time: a hart's run queue ([`RunQueue`](crate::hart::RunQueue)), which at
//! fork-stress scale holds tens of thousands of stale zombie entries, and
//! the sharers of a page in the reverse map, where every forked child
//! shares init's text and stack pages. A `VecDeque` pruned with `retain`
//! scans the whole list on every exit and reap.
//!
//! [`LazyQueue::remove_all`] does not search. Every pushed value has an
//! absolute push index; removing a value records the push index the queue
//! has reached, and every copy pushed before that stamp is *dead*. Dead
//! copies stay in place until they reach the front or a compaction drops
//! them, and no reader ever sees one: the queue behaves exactly like a
//! `VecDeque` pruned with `retain(|&x| x != v)`, duplicates, re-pushes
//! after a removal and removals of absent values included, and `Debug`
//! renders the same `[a, b, c]` list.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiply-rotate hasher for the stamp keys. Pids and virtual page
/// numbers are model state, not input an attacker can shape into
/// collisions, so the DoS-resistant default buys nothing here — and a
/// compaction hashes every slot of the queue.
#[derive(Debug, Clone, Copy, Default)]
struct StampHasher(u64);

impl StampHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for StampHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Removal stamps (no allocation until the first removal).
type Stamps<T> = HashMap<T, u64, BuildHasherDefault<StampHasher>>;

/// A FIFO queue with O(1) amortized [`remove_all`](Self::remove_all).
#[derive(Clone)]
pub struct LazyQueue<T> {
    /// Live and dead copies, in push order. The front copy, if any, is
    /// live.
    slots: VecDeque<T>,
    /// Absolute push index of `slots[0]`.
    head: u64,
    /// For each removed value, the push index the queue had reached when
    /// it was removed: copies at a lower index are dead.
    removed: Stamps<T>,
}

impl<T> Default for LazyQueue<T> {
    fn default() -> Self {
        Self {
            slots: VecDeque::new(),
            head: 0,
            removed: Stamps::default(),
        }
    }
}

impl<T: Copy + Eq + Hash> LazyQueue<T> {
    /// `true` when the copy of `v` at push index `idx` is live.
    fn is_live(&self, v: T, idx: u64) -> bool {
        self.removed.get(&v).is_none_or(|&stamp| idx >= stamp)
    }

    /// Appends `v` at the back.
    pub fn push_back(&mut self, v: T) {
        self.slots.push_back(v);
    }

    /// Removes and returns the front entry.
    pub fn pop_front(&mut self) -> Option<T> {
        let v = self.pop_slot()?;
        self.trim_front();
        Some(v)
    }

    /// Pops the front slot, dropping its value's stamp once no slot below
    /// the stamp is left.
    fn pop_slot(&mut self) -> Option<T> {
        let v = self.slots.pop_front()?;
        self.head += 1;
        if self
            .removed
            .get(&v)
            .is_some_and(|&stamp| stamp <= self.head)
        {
            self.removed.remove(&v);
        }
        Some(v)
    }

    /// `true` when no live entry is queued.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops dead copies off the front; once nothing is queued, no stamp
    /// can apply to a later push, so the stamps go too.
    fn trim_front(&mut self) {
        while let Some(&v) = self.slots.front() {
            if self.is_live(v, self.head) {
                return;
            }
            self.pop_slot();
        }
        self.removed.clear();
    }

    /// Removes every queued copy of `v`. The queue is compacted once there
    /// is more than one stamp per eight slots, which keeps the stamps small
    /// and costs each removal at most eight slot visits on average.
    pub fn remove_all(&mut self, v: T) {
        let end = self.head + self.slots.len() as u64;
        self.removed.insert(v, end);
        if self.removed.len() > 32 && 8 * self.removed.len() > self.slots.len() {
            let removed = std::mem::take(&mut self.removed);
            let mut idx = self.head;
            self.slots.retain(|&v| {
                let live = removed.get(&v).is_none_or(|&stamp| idx >= stamp);
                idx += 1;
                live
            });
            self.head = 0;
        } else {
            self.trim_front();
        }
    }

    /// The live entries, front to back.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.slots
            .iter()
            .zip(self.head..)
            .filter(|&(&v, idx)| self.is_live(v, idx))
            .map(|(&v, _)| v)
    }
}

impl<T: Copy + Eq + Hash + fmt::Debug> fmt::Debug for LazyQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
