//! Pending flow completions: an indexed binary min-heap keyed by
//! `(at, seq)`.
//!
//! Each flow slot holds at most one entry. A rate change re-keys the
//! slot's entry in place and a stall removes it, so the heap never
//! carries superseded completions: its size is bounded by the number of
//! live flows, and every entry it pops is due.

use crate::time::SimTime;

/// Position marker for a slot with no pending completion.
const ABSENT: u32 = u32::MAX;

/// One pending completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    /// When the flow's last byte lands.
    pub at: SimTime,
    /// Global schedule sequence number (FIFO tie-break at equal `at`).
    pub seq: u64,
    /// Flow slot the completion belongs to.
    pub slot: u32,
}

impl Pending {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Indexed min-heap of [`Pending`] completions, at most one per slot.
#[derive(Debug, Default)]
pub(crate) struct CompletionQueue {
    heap: Vec<Pending>,
    /// Heap index of each slot's entry, or [`ABSENT`].
    pos: Vec<u32>,
}

impl CompletionQueue {
    /// Pending completions.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The earliest pending completion.
    pub fn peek(&self) -> Option<&Pending> {
        self.heap.first()
    }

    /// True iff `slot` has a pending completion.
    pub fn contains(&self, slot: u32) -> bool {
        self.pos.get(slot as usize).is_some_and(|&i| i != ABSENT)
    }

    /// Schedules `slot`'s completion at `(at, seq)`, replacing any entry
    /// the slot already had.
    pub fn schedule(&mut self, slot: u32, at: SimTime, seq: u64) {
        let s = slot as usize;
        if s >= self.pos.len() {
            self.pos.resize(s + 1, ABSENT);
        }
        let entry = Pending { at, seq, slot };
        match self.pos[s] {
            ABSENT => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                let i = i as usize;
                let old = self.heap[i].key();
                self.heap[i] = entry;
                if entry.key() < old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Drops `slot`'s pending completion, if it has one.
    pub fn remove(&mut self, slot: u32) {
        if let Some(&i) = self.pos.get(slot as usize) {
            if i != ABSENT {
                self.take(i as usize);
            }
        }
    }

    /// Removes and returns the earliest pending completion.
    pub fn pop(&mut self) -> Option<Pending> {
        (!self.heap.is_empty()).then(|| self.take(0))
    }

    fn take(&mut self, i: usize) -> Pending {
        let out = self.heap.swap_remove(i);
        self.pos[out.slot as usize] = ABSENT;
        if i < self.heap.len() {
            // The former last entry now sits at `i`; it may belong above
            // or below.
            if self.sift_up(i) == i {
                self.sift_down(i);
            }
        }
        out
    }

    /// Moves the entry at `i` toward the root; returns its final index.
    fn sift_up(&mut self, mut i: usize) -> usize {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].slot as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
        i
    }

    /// Moves the entry at `i` toward the leaves.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].key() < self.heap[left].key() {
                right
            } else {
                left
            };
            if entry.key() <= self.heap[child].key() {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].slot as usize] = i as u32;
            i = child;
        }
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_key_order_with_fifo_ties() {
        let mut q = CompletionQueue::default();
        q.schedule(0, SimTime(30), 0);
        q.schedule(1, SimTime(10), 1);
        q.schedule(2, SimTime(10), 2);
        q.schedule(3, SimTime(20), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|p| p.slot)).collect();
        assert_eq!(order, [1, 2, 3, 0]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn rekey_replaces_and_remove_drops() {
        let mut q = CompletionQueue::default();
        q.schedule(5, SimTime(100), 0);
        q.schedule(7, SimTime(50), 1);
        // Re-keying keeps one entry per slot.
        q.schedule(5, SimTime(10), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().map(|p| p.slot), Some(5));
        q.remove(5);
        assert!(!q.contains(5));
        assert_eq!(q.len(), 1);
        // Removing an absent or never-seen slot is a no-op.
        q.remove(5);
        q.remove(99);
        assert_eq!(q.pop().map(|p| (p.slot, p.at)), Some((7, SimTime(50))));
        assert!(q.pop().is_none());
    }

    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u32, u64),
        Remove(u32),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..16, 0u64..40).prop_map(|(s, at)| Op::Schedule(s, at)),
            (0u32..16).prop_map(Op::Remove),
            Just(Op::Pop),
        ]
    }

    proptest! {
        /// Against a map model: the heap always pops the smallest
        /// `(at, seq)` among each slot's latest schedule.
        #[test]
        fn matches_a_map_model(ops in proptest::collection::vec(op(), 1..200)) {
            let mut q = CompletionQueue::default();
            let mut model: BTreeMap<u32, (SimTime, u64)> = BTreeMap::new();
            for (seq, op) in ops.into_iter().enumerate() {
                let seq = seq as u64;
                match op {
                    Op::Schedule(s, at) => {
                        q.schedule(s, SimTime(at), seq);
                        model.insert(s, (SimTime(at), seq));
                    }
                    Op::Remove(s) => {
                        q.remove(s);
                        model.remove(&s);
                    }
                    Op::Pop => {
                        let want = model
                            .iter()
                            .min_by_key(|(_, &k)| k)
                            .map(|(&s, &(at, seq))| Pending { at, seq, slot: s });
                        if let Some(p) = want {
                            model.remove(&p.slot);
                        }
                        prop_assert_eq!(q.pop(), want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                for s in 0..16 {
                    prop_assert_eq!(q.contains(s), model.contains_key(&s));
                }
            }
        }
    }
}
