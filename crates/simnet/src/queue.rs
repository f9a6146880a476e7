//! The event queue: a binary heap of small `Copy` keys over a slab of
//! payloads.
//!
//! A heap sifts its elements on every push and pop. With the payload
//! inline, each step of a sift moved a whole packet-carrying event; here
//! it moves 24 bytes, and the payload is written once into a slab slot
//! when scheduled and read once when due. Slots freed by a pop are
//! reused before the slab grows, so the slab is never longer than the
//! queue has ever been deep.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// What the heap orders. `(at, seq)` is the total order events run in —
/// `seq` counts pushes, so same-instant events run in the order they
/// were scheduled — and `slot` says where the payload sits; `seq` is
/// unique, so `slot` never decides a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() <= 24);

/// A time-ordered queue of `T`, FIFO among entries due at one instant.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Payloads of the queued keys; `None` marks a slot on the free list.
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Entries waiting.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Queues `item` to come out at `at`, after everything already
    /// queued for that instant.
    pub(crate) fn push(&mut self, at: SimTime, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("fewer than 2^32 events in flight");
                self.slots.push(Some(item));
                slot
            }
        };
        self.heap.push(Reverse(Key {
            at,
            seq: self.seq,
            slot,
        }));
        self.seq += 1;
    }

    /// Removes and returns the earliest entry if it is due by `deadline`.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if self.heap.peek()?.0.at > deadline {
            return None;
        }
        self.pop()
    }

    /// Removes and returns the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse(key) = self.heap.pop()?;
        let item = self.slots[key.slot as usize]
            .take()
            .expect("a queued key owns a filled slot");
        self.free.push(key.slot);
        Some((key.at, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The queue next to the model it must agree with: an ordered map
    /// from `(at, push number)` to the payload, which is the push number
    /// again, so a payload that came out of the wrong slot shows.
    struct Harness {
        queue: EventQueue<u64>,
        model: BTreeMap<(SimTime, u64), u64>,
        now: SimTime,
        pushed: u64,
        popped: Vec<bool>,
        depth_hwm: usize,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                queue: EventQueue::new(),
                model: BTreeMap::new(),
                now: SimTime::ZERO,
                pushed: 0,
                popped: Vec::new(),
                depth_hwm: 0,
            }
        }

        fn schedule(&mut self, delay: u64) {
            let at = self.now + SimDuration::from_micros(delay);
            self.queue.push(at, self.pushed);
            self.model.insert((at, self.pushed), self.pushed);
            self.pushed += 1;
            self.popped.push(false);
            self.depth_hwm = self.depth_hwm.max(self.model.len());
            self.check();
        }

        /// Pops one entry due by `deadline` from both, and handles it the
        /// way `Sim::handle` can: by scheduling up to `children` more at
        /// the popped instant plus 0, 1, 2… µs, before the next pop.
        fn step(&mut self, deadline: SimTime, children: u64) -> bool {
            let expected = match self.model.first_key_value() {
                Some((&(at, _), _)) if at <= deadline => {
                    self.model.pop_first().map(|((at, _), id)| (at, id))
                }
                _ => None,
            };
            assert_eq!(self.queue.pop_due(deadline), expected, "pop order");
            let Some((at, id)) = expected else {
                return false;
            };
            assert!(at >= self.now, "time runs forward");
            assert!(
                !std::mem::replace(&mut self.popped[id as usize], true),
                "entry {id} came out twice"
            );
            self.now = at;
            for delay in 0..children {
                self.schedule(delay);
            }
            self.check();
            true
        }

        fn check(&self) {
            assert_eq!(self.queue.len(), self.model.len());
            assert!(
                self.queue.slots.len() <= self.depth_hwm,
                "slab of {} for a queue never deeper than {}",
                self.queue.slots.len(),
                self.depth_hwm
            );
            assert_eq!(
                self.queue.free.len(),
                self.queue.slots.len() - self.queue.len()
            );
        }
    }

    #[test]
    fn same_instant_entries_come_out_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, "b");
        q.push(SimTime::ZERO, "a");
        q.push(t, "c");
        assert_eq!(
            q.pop_due(SimTime::from_millis(4)),
            Some((SimTime::ZERO, "a"))
        );
        assert_eq!(q.pop_due(SimTime::from_millis(4)), None);
        assert_eq!(q.pop(), Some((t, "b")));
        q.push(t, "d"); // takes b's slot, still runs after c
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(q.pop(), Some((t, "d")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.slots.len(), 3);
    }

    proptest! {
        /// Random interleavings of schedule, pop, and run-to-a-deadline
        /// with handlers that schedule more — delays of 0–3 µs, so ties
        /// and zero delays are the common case — against the ordered-map
        /// model: same pop order, every entry out exactly once, slab no
        /// longer than the depth high-water mark.
        #[test]
        fn pop_order_and_slab_match_an_ordered_map_model(
            ops in prop::collection::vec((0u8..8, 0u64..4, 0u64..3), 1..200),
        ) {
            let mut h = Harness::new();
            for (op, delay, children) in ops {
                match op {
                    0..=2 => h.schedule(delay),
                    3 => h.schedule(delay * 1_000),
                    4 | 5 => {
                        h.step(SimTime::from_micros(u64::MAX), children);
                    }
                    _ => {
                        // `Sim::run_until`: everything due, children of
                        // the due included, and then the clock moves on.
                        let deadline = h.now + SimDuration::from_micros(delay);
                        let mut budget = 50;
                        while h.step(deadline, if budget > 0 { children } else { 0 }) {
                            budget -= 1;
                        }
                        h.now = deadline;
                    }
                }
            }
            while h.step(SimTime::from_micros(u64::MAX), 0) {}
            prop_assert_eq!(h.queue.len(), 0);
            prop_assert!(h.popped.iter().all(|&out| out), "an entry was lost");
            prop_assert_eq!(h.queue.free.len(), h.queue.slots.len());
        }
    }
}
