//! The discrete-event queue.
//!
//! A thin, deterministic wrapper over a binary heap: events scheduled for the
//! same instant are delivered in insertion order, which keeps simulations
//! reproducible regardless of heap internals.
//!
//! Long pre-generated streams (a workload's arrival trace) do not belong in
//! the heap: they would make it O(trace) deep while the events a run really
//! schedules are O(in-flight).  [`Lanes`] keeps each such stream as a sorted
//! lane beside the heap and merges lane heads with the heap top at delivery
//! time.  Adding a lane reserves one sequence number from the queue, so the
//! whole lane orders against heap events exactly as if its items had been
//! pushed one by one at that point: by time, then by the order of `push` /
//! [`Lanes::add`] calls, then by input order within the lane.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking ties by insertion sequence for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list keyed by [`SimTime`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time: an event in
    /// the past indicates a logic error in the calling state machine.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past (now={:?}, at={:?})",
            self.now,
            at
        );
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Delivery key `(time, sequence)` of the next heap event.
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Takes the next sequence number without scheduling anything: events
    /// pushed earlier sort before it at equal times, events pushed later
    /// after it.  [`Lanes::add`] stamps a whole lane with one.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Advances the clock to `at` for an event delivered from outside the
    /// heap (a lane item).
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot deliver an event from the past (now={:?}, at={:?})",
            self.now,
            at
        );
        self.now = at;
    }

    /// Current simulation time (timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Removes every pending heap event matching `predicate` (which sees
    /// the event's scheduled time and payload) and returns them in delivery
    /// order (time, then insertion sequence), without advancing the clock.
    /// Lane items are never extracted: the cost is O(heap), not O(trace).
    /// Failure injection uses this to cancel the in-flight work of a
    /// crashed node deterministically — the extraction order is exactly the
    /// order the events would have popped in — and to discard out-of-scope
    /// events without letting them advance the clock when popped.
    pub fn extract(&mut self, mut predicate: impl FnMut(SimTime, &E) -> bool) -> Vec<(SimTime, E)> {
        let mut kept = BinaryHeap::with_capacity(self.heap.len());
        let mut extracted: Vec<Entry<E>> = Vec::new();
        for entry in self.heap.drain() {
            if predicate(entry.at, &entry.event) {
                extracted.push(entry);
            } else {
                kept.push(entry);
            }
        }
        self.heap = kept;
        extracted.sort_unstable_by_key(|e| (e.at, e.seq));
        extracted.into_iter().map(|e| (e.at, e.event)).collect()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One delivery from [`Lanes::pop`]: a lane item or a heap event.
#[derive(Debug)]
pub enum Delivery<T, E> {
    /// The head of a lane.
    Lane(T),
    /// The top of the queue's heap.
    Heap(E),
}

/// Sorted streams of items delivered beside an [`EventQueue`]'s heap.
///
/// Each [`Lanes::add`] call keeps its input as one lane, consumed through
/// the input's own vector iterator (an already sorted input is never
/// copied), and stamps it with one reserved sequence number of the queue.
/// [`Lanes::pop`] delivers whichever of the earliest lane head and the heap
/// top has the smaller `(time, sequence)` and advances the queue's clock.
pub struct Lanes<T> {
    /// Non-empty lanes only; an exhausted lane is dropped at once.
    lanes: Vec<Lane<T>>,
    at: fn(&T) -> SimTime,
}

struct Lane<T> {
    seq: u64,
    items: std::vec::IntoIter<T>,
}

impl<T> Lanes<T> {
    /// No lanes; `at` reads an item's delivery time.
    #[must_use]
    pub fn new(at: fn(&T) -> SimTime) -> Self {
        Lanes {
            lanes: Vec::new(),
            at,
        }
    }

    /// Adds `items` as one lane ordered against `queue` as if each item had
    /// been pushed now, in input order.  Unsorted input is stable-sorted by
    /// time, so same-instant items keep their input order.
    ///
    /// # Panics
    /// Panics if an item is due before the queue's current time.
    pub fn add<E>(&mut self, queue: &mut EventQueue<E>, mut items: Vec<T>) {
        let at = self.at;
        if !items.windows(2).all(|pair| at(&pair[0]) <= at(&pair[1])) {
            items.sort_by_key(at);
        }
        let Some(first) = items.first() else {
            return;
        };
        assert!(
            at(first) >= queue.now(),
            "cannot schedule a lane in the past (now={:?}, at={:?})",
            queue.now(),
            at(first)
        );
        self.lanes.push(Lane {
            seq: queue.reserve_seq(),
            items: items.into_iter(),
        });
    }

    /// Pops the next delivery across the lanes and `queue`'s heap,
    /// advancing the queue's clock to its time.
    pub fn pop<E>(&mut self, queue: &mut EventQueue<E>) -> Option<(SimTime, Delivery<T, E>)> {
        let at = self.at;
        let earliest = self
            .lanes
            .iter()
            .enumerate()
            .map(|(index, lane)| ((at(&lane.items.as_slice()[0]), lane.seq), index))
            .min();
        match earliest {
            Some((key, index)) if queue.peek_key().map_or(true, |heap| key < heap) => {
                let lane = &mut self.lanes[index];
                let item = lane.items.next().expect("lanes are never empty");
                if lane.items.as_slice().is_empty() {
                    self.lanes.swap_remove(index);
                }
                queue.advance_to(key.0);
                Some((key.0, Delivery::Lane(item)))
            }
            _ => queue.pop().map(|(at, event)| (at, Delivery::Heap(event))),
        }
    }

    /// Whether every lane item has been delivered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_millis(5), ());
        q.push(SimTime::from_millis(9), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(9));
        assert!(q.is_empty());
    }

    #[test]
    fn extract_removes_matching_events_in_delivery_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 30);
        q.push(SimTime::from_millis(10), 10);
        q.push(SimTime::from_millis(20), 21);
        q.push(SimTime::from_millis(20), 20);
        let odd = q.extract(|_, e| e % 2 == 1);
        assert_eq!(odd, vec![(SimTime::from_millis(20), 21)]);
        // The survivors still pop in order, clock untouched.
        assert_eq!(q.now(), SimTime::ZERO);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![10, 20, 30]);
        // Same-instant extractions preserve insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..6 {
            q.push(t, i);
        }
        let all = q.extract(|_, _| true);
        assert_eq!(
            all.iter().map(|(_, e)| *e).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert!(q.is_empty());
        // Time-based predicates see each event's scheduled instant.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "early");
        q.push(SimTime::from_secs(9), "late");
        let late = q.extract(|at, _| at > SimTime::from_secs(5));
        assert_eq!(late, vec![(SimTime::from_secs(9), "late")]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(5), ());
    }

    #[test]
    fn push_while_draining_interleaves_correctly() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 1u32);
        let mut seen = Vec::new();
        while let Some((t, ev)) = q.pop() {
            seen.push(ev);
            if ev < 4 {
                q.push(t + SimDuration::from_millis(1), ev + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn lanes_merge_with_the_heap_by_time_then_call_order() {
        let at = |item: &(u64, &'static str)| SimTime::from_millis(item.0);
        let mut q = EventQueue::new();
        let mut lanes = Lanes::new(at);
        q.push(SimTime::from_millis(20), "push-before");
        lanes.add(&mut q, vec![(20, "lane-a"), (10, "lane-b"), (20, "lane-c")]);
        q.push(SimTime::from_millis(20), "push-after");
        lanes.add(&mut q, vec![(5, "second-lane")]);
        let mut order = Vec::new();
        while let Some((t, delivery)) = lanes.pop(&mut q) {
            assert_eq!(q.now(), t, "every delivery advances the clock");
            order.push(match delivery {
                Delivery::Lane((_, name)) | Delivery::Heap(name) => name,
            });
        }
        assert_eq!(
            order,
            [
                "second-lane",
                "lane-b",
                "push-before",
                "lane-a",
                "lane-c",
                "push-after"
            ]
        );
        assert!(lanes.is_empty() && q.is_empty());
    }

    /// Draws the next word of a splitmix64 stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random interleavings of pushes, sorted and unsorted lanes, and
        /// deliveries, on a coarse time grid so same-instant ties are
        /// common: lane-plus-heap delivery yields exactly the `(time,
        /// payload)` sequence of a reference queue holding everything in its
        /// heap.
        #[test]
        fn lanes_deliver_like_an_all_heap_queue(ops in proptest::collection::vec(0u64..u64::MAX, 1..120)) {
            let mut reference = EventQueue::new();
            let mut queue = EventQueue::new();
            let mut lanes = Lanes::new(|item: &(SimTime, u64)| item.0);
            let mut next_payload = 0u64;
            let mut delivered = (Vec::new(), Vec::new());
            let mut deliver = |reference: &mut EventQueue<u64>,
                               queue: &mut EventQueue<u64>,
                               lanes: &mut Lanes<(SimTime, u64)>| {
                delivered.0.push(reference.pop());
                delivered.1.push(lanes.pop(queue).map(|(t, delivery)| match delivery {
                    Delivery::Lane((_, payload)) | Delivery::Heap(payload) => (t, payload),
                }));
            };
            for word in ops {
                let mut state = word;
                let now = reference.now();
                let mut offset = || SimDuration::from_millis(splitmix(&mut state) % 6);
                match word % 8 {
                    0..=2 => {
                        let t = now + offset();
                        reference.push(t, next_payload);
                        queue.push(t, next_payload);
                        next_payload += 1;
                    }
                    3 | 4 => {
                        // Up to 48 items: long enough that an unstable sort
                        // would reorder ties (short slices sort stably).
                        let len = 1 + (word >> 8) % 48;
                        let mut times: Vec<SimTime> = (0..len).map(|_| now + offset()).collect();
                        if word % 8 == 3 {
                            times.sort();
                        }
                        let mut lane = Vec::new();
                        for t in times {
                            reference.push(t, next_payload);
                            lane.push((t, next_payload));
                            next_payload += 1;
                        }
                        lanes.add(&mut queue, lane);
                    }
                    _ => deliver(&mut reference, &mut queue, &mut lanes),
                }
                prop_assert_eq!(reference.now(), queue.now());
            }
            while !reference.is_empty() {
                deliver(&mut reference, &mut queue, &mut lanes);
            }
            prop_assert!(queue.is_empty() && lanes.is_empty());
            prop_assert_eq!(delivered.0, delivered.1);
        }

        #[test]
        fn popped_timestamps_are_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }
    }
}
