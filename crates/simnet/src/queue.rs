//! The event queue: a binary heap of small `Copy` keys over a slab of
//! payloads, with one FIFO lane per link direction.
//!
//! A heap sifts its elements on every push and pop. With the payload
//! inline, each step of a sift moved a whole packet-carrying event; here
//! it moves 24 bytes, and the payload is written once into a slab slot
//! when scheduled and read once when due. Slots freed by a pop are
//! reused before the slab grows, so the slab is never longer than the
//! queue has ever been deep.
//!
//! Arrivals on one link direction come due in the order they were sent,
//! so a lane holds them as a list threaded through the slab, and only its
//! head sits in the heap: popping the head puts its successor in the
//! heap's top place, one sift where a pop and a push were two. An arrival
//! that comes due before its lane's tail (a shortened link delay) goes to
//! the heap on its own. The order of every entry is `(at, seq)` either
//! way.
//!
//! A key can be reserved before its entry is pushed: the TCP layer keeps
//! one entry per connection and queues it again under the key its timer
//! was last armed with, which is the key an entry pushed at arm time
//! would have had.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Where an entry runs in the total order: by `at`, and among entries
/// due at one instant by `seq`, which counts keys handed out, so
/// same-instant events run in the order they were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
}

impl EventKey {
    /// After every key a queue hands out: "no entry".
    pub(crate) const NEVER: EventKey = EventKey { at: SimTime::from_micros(u64::MAX), seq: u64::MAX };
}

/// What the heap orders: a key and the slot its payload sits in. `seq`
/// is unique, so `slot` never decides a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: EventKey,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() <= 24);

/// "No slot" and "no lane".
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<T> {
    /// The payload; `None` on the free list.
    item: Option<T>,
    /// The entry's key, which a lane entry behind the head brings to the
    /// heap when it reaches the head.
    key: EventKey,
    /// The next entry of the lane, or the next free slot.
    next: u32,
    /// The lane the entry waits in; `NIL` for an entry the heap holds.
    lane: u32,
}

/// The first and last entry of a lane, `NIL` when it is empty.
#[derive(Debug, Clone, Copy)]
struct Lane {
    head: u32,
    tail: u32,
}

/// A time-ordered queue of `T`, FIFO among entries due at one instant.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot<T>>,
    /// The free list, threaded through `Slot::next`.
    free: u32,
    lanes: Vec<Lane>,
    len: usize,
    seq: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: NIL,
            lanes: Vec::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Entries waiting.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Opens `n` more lanes, numbered on from the last.
    pub(crate) fn add_lanes(&mut self, n: usize) {
        self.lanes.extend(std::iter::repeat_n(Lane { head: NIL, tail: NIL }, n));
    }

    /// The key the next push would take for `at`, taken now: an entry
    /// pushed later under it runs where one pushed now would have.
    pub(crate) fn reserve(&mut self, at: SimTime) -> EventKey {
        let key = EventKey { at, seq: self.seq };
        self.seq += 1;
        key
    }

    /// Queues `item` to come out at `at`, after everything already
    /// queued for that instant.
    pub(crate) fn push(&mut self, at: SimTime, item: T) {
        let key = self.reserve(at);
        self.push_keyed(key, item);
    }

    /// Queues `item` under a key [`reserve`](Self::reserve) handed out and
    /// no entry holds, and no earlier than the last key popped.
    pub(crate) fn push_keyed(&mut self, key: EventKey, item: T) {
        let slot = self.fill(key, item, NIL);
        self.heap.push(Reverse(Entry { key, slot }));
    }

    /// Queues `item` at `at` behind the entries of `lane`, or on its own
    /// if it comes due before the lane's last entry.
    pub(crate) fn push_lane(&mut self, lane: usize, at: SimTime, item: T) {
        let key = self.reserve(at);
        let Lane { head, tail } = self.lanes[lane];
        if tail != NIL && self.slots[tail as usize].key.at > at {
            return self.push_keyed(key, item);
        }
        let slot = self.fill(key, item, lane as u32);
        if head == NIL {
            self.lanes[lane].head = slot;
            self.heap.push(Reverse(Entry { key, slot }));
        } else {
            self.slots[tail as usize].next = slot;
        }
        self.lanes[lane].tail = slot;
    }

    /// Writes an entry into a free slot, or a new one.
    fn fill(&mut self, key: EventKey, item: T, lane: u32) -> u32 {
        self.len += 1;
        let filled = Slot { item: Some(item), key, next: NIL, lane };
        if self.free != NIL {
            let slot = self.free;
            self.free = self.slots[slot as usize].next;
            self.slots[slot as usize] = filled;
            return slot;
        }
        let slot = u32::try_from(self.slots.len())
            .ok()
            .filter(|&s| s != NIL)
            .expect("fewer than 2^32 - 1 events in flight");
        self.slots.push(filled);
        slot
    }

    /// Removes and returns the earliest entry if it is due by `deadline`.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(EventKey, T)> {
        if self.heap.peek()?.0.key.at > deadline {
            return None;
        }
        self.pop()
    }

    /// Removes and returns the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(EventKey, T)> {
        let Reverse(Entry { key, slot }) = *self.heap.peek()?;
        let s = &mut self.slots[slot as usize];
        let item = s.item.take().expect("a queued key owns a filled slot");
        let (lane, next) = (s.lane, s.next);
        s.next = self.free;
        self.free = slot;
        self.len -= 1;
        if lane == NIL {
            self.heap.pop();
        } else if next == NIL {
            self.lanes[lane as usize] = Lane { head: NIL, tail: NIL };
            self.heap.pop();
        } else {
            self.lanes[lane as usize].head = next;
            let key = self.slots[next as usize].key;
            *self.heap.peek_mut().expect("the popped head") = Reverse(Entry { key, slot: next });
        }
        Some((key, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const LANES: usize = 3;

    /// The queue next to the model it must agree with: an ordered map
    /// from `(at, seq)` to the payload, which is the entry's number, so
    /// a payload that came out of the wrong slot shows. Keys reserved
    /// and not yet pushed wait in `reserved`.
    struct Harness {
        queue: EventQueue<u64>,
        model: BTreeMap<EventKey, u64>,
        reserved: Vec<EventKey>,
        now: SimTime,
        /// The last key popped: nothing comes out before it again.
        last: Option<EventKey>,
        entries: u64,
        popped: Vec<bool>,
        depth_hwm: usize,
        /// Lane pushes that went to the heap on their own.
        overtaking: usize,
    }

    impl Harness {
        fn new() -> Self {
            let mut queue = EventQueue::new();
            queue.add_lanes(LANES);
            Harness {
                queue,
                model: BTreeMap::new(),
                reserved: Vec::new(),
                now: SimTime::ZERO,
                last: None,
                entries: 0,
                popped: Vec::new(),
                depth_hwm: 0,
                overtaking: 0,
            }
        }

        fn entered(&mut self, key: EventKey) {
            self.model.insert(key, self.entries);
            self.entries += 1;
            self.popped.push(false);
            self.depth_hwm = self.depth_hwm.max(self.model.len());
            self.check();
        }

        fn schedule(&mut self, delay: u64) {
            let at = self.now + SimDuration::from_micros(delay);
            self.queue.push(at, self.entries);
            let key = EventKey { at, seq: self.queue.seq - 1 };
            self.entered(key);
        }

        /// A push onto `lane`: `delay` past the lane's last entry when
        /// `in_order`, which is how links deliver, and `delay` past now
        /// otherwise, which may come due before that entry.
        fn schedule_lane(&mut self, lane: usize, delay: u64, in_order: bool) {
            let Lane { tail, .. } = self.queue.lanes[lane];
            let tail_at = (tail != NIL).then(|| self.queue.slots[tail as usize].key.at);
            let from = if in_order { tail_at.unwrap_or(self.now).max(self.now) } else { self.now };
            let at = from + SimDuration::from_micros(delay);
            if tail_at.is_some_and(|t| at < t) {
                self.overtaking += 1;
            }
            let heap_before = self.queue.heap.len();
            self.queue.push_lane(lane, at, self.entries);
            let key = EventKey { at, seq: self.queue.seq - 1 };
            // Only a lane's first entry, or one that overtakes its tail,
            // is in the heap.
            let in_heap = tail_at.is_none_or(|t| at < t);
            assert_eq!(self.queue.heap.len() - heap_before, usize::from(in_heap));
            self.entered(key);
        }

        /// Takes a key now, as an armed timer does, to push it later.
        fn reserve(&mut self, delay: u64) {
            let key = self.queue.reserve(self.now + SimDuration::from_micros(delay));
            self.reserved.push(key);
        }

        /// Pushes the `pick`th reserved key, if it is not in the past.
        fn push_reserved(&mut self, pick: usize) {
            if self.reserved.is_empty() {
                return;
            }
            let key = self.reserved.swap_remove(pick % self.reserved.len());
            if self.last.is_some_and(|last| key < last) || key.at < self.now {
                return; // a timer armed for a key already passed was cancelled
            }
            self.queue.push_keyed(key, self.entries);
            self.entered(key);
        }

        /// Pops one entry due by `deadline` from both, and handles it the
        /// way `Sim::handle` can: by scheduling up to `children` more at
        /// the popped instant plus 0, 1, 2… µs, on the heap and on a
        /// lane, before the next pop.
        fn step(&mut self, deadline: SimTime, children: u64) -> bool {
            let expected = match self.model.first_key_value() {
                Some((key, _)) if key.at <= deadline => self.model.pop_first(),
                _ => None,
            };
            assert_eq!(self.queue.pop_due(deadline), expected, "pop order");
            let Some((key, id)) = expected else {
                return false;
            };
            assert!(key.at >= self.now, "time runs forward");
            assert!(self.last < Some(key), "keys come out in order");
            self.last = Some(key);
            assert!(
                !std::mem::replace(&mut self.popped[id as usize], true),
                "entry {id} came out twice"
            );
            self.now = key.at;
            for delay in 0..children {
                self.schedule(delay);
                self.schedule_lane(delay as usize % LANES, delay, true);
            }
            self.check();
            true
        }

        fn check(&self) {
            let q = &self.queue;
            assert_eq!(q.len(), self.model.len());
            assert!(
                q.slots.len() <= self.depth_hwm,
                "slab of {} for a queue never deeper than {}",
                q.slots.len(),
                self.depth_hwm
            );
            let mut free = 0;
            let mut at = q.free;
            while at != NIL {
                assert!(q.slots[at as usize].item.is_none(), "a free slot is empty");
                free += 1;
                at = q.slots[at as usize].next;
            }
            assert_eq!(free, q.slots.len() - q.len());
            // Each lane is a list of keys in order from its head to its
            // tail, and its head is in the heap.
            let mut behind_heads = 0;
            for (lane, &Lane { head, tail }) in q.lanes.iter().enumerate() {
                assert_eq!(head == NIL, tail == NIL);
                let (mut at, mut prev) = (head, None);
                while at != NIL {
                    let s = &q.slots[at as usize];
                    assert_eq!((s.lane, s.item.is_some()), (lane as u32, true));
                    assert!(prev < Some(s.key), "a lane is in key order");
                    prev = Some(s.key);
                    if at == tail {
                        assert_eq!(s.next, NIL);
                    }
                    behind_heads += usize::from(at != head);
                    at = s.next;
                }
                if head != NIL {
                    assert!(q.heap.iter().any(|e| e.0.slot == head), "lane {lane}'s head is in the heap");
                }
            }
            assert_eq!(q.heap.len() + behind_heads, q.len());
        }
    }

    #[test]
    fn same_instant_entries_come_out_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, "b");
        q.push(SimTime::ZERO, "a");
        q.push(t, "c");
        let key = |ms, seq| EventKey { at: SimTime::from_millis(ms), seq };
        assert_eq!(q.pop_due(SimTime::from_millis(4)), Some((key(0, 1), "a")));
        assert_eq!(q.pop_due(SimTime::from_millis(4)), None);
        assert_eq!(q.pop(), Some((key(5, 0), "b")));
        q.push(t, "d"); // takes b's slot, still runs after c
        assert_eq!(q.pop(), Some((key(5, 2), "c")));
        assert_eq!(q.pop(), Some((key(5, 3), "d")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.slots.len(), 3);
    }

    #[test]
    fn a_lane_holds_its_entries_behind_one_heap_entry_and_lets_an_earlier_one_pass() {
        let mut q = EventQueue::new();
        q.add_lanes(1);
        let ms = SimTime::from_millis;
        q.push_lane(0, ms(10), "first");
        q.push_lane(0, ms(10), "second"); // same instant: behind the first
        q.push_lane(0, ms(20), "third");
        assert_eq!((q.len(), q.heap.len()), (3, 1));
        q.push_lane(0, ms(15), "overtakes"); // before the tail: on its own
        let reserved = q.reserve(ms(12));
        q.push(ms(12), "later seq");
        q.push_keyed(reserved, "reserved");
        assert_eq!((q.len(), q.heap.len()), (6, 4));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, ["first", "second", "reserved", "later seq", "overtakes", "third"]);
        assert_eq!((q.lanes[0].head, q.lanes[0].tail), (NIL, NIL));
    }

    proptest! {
        /// Random interleavings of schedule, lane pushes in and out of
        /// their lane's order, reserve-then-push, pop, and
        /// run-to-a-deadline with handlers that schedule more — delays of
        /// 0–3 µs, so ties and zero delays are the common case — against
        /// the ordered-map model: same pop order, every entry out exactly
        /// once, each lane a list in key order behind its heap entry, and
        /// the slab no longer than the depth high-water mark.
        #[test]
        fn pop_order_and_slab_match_an_ordered_map_model(
            ops in prop::collection::vec((0u8..12, 0u64..4, 0u64..3), 1..200),
        ) {
            let mut h = Harness::new();
            for (op, delay, children) in ops {
                match op {
                    0 | 1 => h.schedule(delay),
                    2 => h.schedule(delay * 1_000),
                    3 | 4 => h.schedule_lane(children as usize, delay, true),
                    5 => h.schedule_lane(children as usize, delay * 1_000, false),
                    6 => h.reserve(delay * 1_000),
                    7 => h.push_reserved(delay as usize),
                    8 | 9 => {
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
            prop_assert!(h.queue.lanes.iter().all(|l| l.head == NIL && l.tail == NIL));
        }
    }
}
