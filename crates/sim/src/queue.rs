//! The future-event list: a binary heap ordered by `(time, seq)`.
//!
//! Every segment completion, network delivery and timeout passes through
//! this queue. External arrivals do not: `SystemSim` reads them from a
//! cursor beside the queue, so a run's queue holds only its in-flight
//! requests' pending events: a mean of 316 and a peak of 386 on a
//! 1024-core package at 500k rps, 1,346 at most across the cluster10
//! sweep, and at most 41 per node of a 512-node rack. A heap that size is
//! at most eleven levels deep, so the queue is a plain `BinaryHeap`.
//!
//! Delivery order is the `(time, seq)` order: time first, then scheduling
//! order. That FIFO tie-break contract is load-bearing for every
//! determinism test and committed result in the repo; the differential
//! tests in `tests/queue_model.rs` pin it against a reference model.

#![expect(
    clippy::disallowed_types,
    reason = "EventQueue is the one sanctioned heap: its (time, seq) key is the delivery contract"
)]

use crate::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// `EventQueue` is the heart of the discrete-event simulator: events are
/// scheduled at absolute times (or relative delays from "now") and popped in
/// non-decreasing time order. Two events scheduled for the same cycle are
/// delivered in scheduling order, which makes simulations reproducible
/// independent of the queue's internals.
///
/// Popping advances the queue's clock; scheduling into the past panics,
/// because causality violations are always simulator bugs.
///
/// # Examples
///
/// ```
/// use um_sim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(Cycles::new(5), 'b');
/// q.schedule_at(Cycles::new(5), 'c'); // same time: FIFO order
/// q.schedule_at(Cycles::new(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Cycles,
    /// The FIFO tie-break: the number of events scheduled so far.
    seq: u64,
}

/// One pending event, keyed by `(time, seq)`.
#[derive(Clone, Debug)]
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(time, seq)` as one integer: comparing it is branch-free, which
    /// the heap's sift loops rely on to pick a child without a mispredict.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.raw()) << 64) | u128::from(self.seq)
    }
}

// `BinaryHeap` is a max-heap: invert the key so the earliest
// `(time, seq)` sits on top. The heap's sift loops compare with `<=`, so
// that is spelled out on the key rather than derived from `cmp`.
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    #[inline]
    fn le(&self, other: &Self) -> bool {
        other.key() <= self.key()
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue that holds `capacity` pending events before
    /// it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            now: Cycles::ZERO,
            seq: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`Self::now`].
    pub fn schedule_at(&mut self, at: Cycles, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        self.insert(at, event);
    }

    /// Schedules `event` after `delay` cycles from now.
    ///
    /// # Panics
    ///
    /// Panics if `now + delay` overflows the cycle clock. A delay that far
    /// out (2⁶⁴ cycles is ~290 years at 2 GHz) is always a unit-conversion
    /// bug upstream; scheduling it "at infinity" — what the previous
    /// `saturating_add` implementation silently did — would park the event
    /// at `Cycles::MAX` and quietly distort any run that drains the queue.
    pub fn schedule(&mut self, delay: Cycles, event: E) {
        let Some(at) = self.now.checked_add(delay) else {
            #[cfg(feature = "sim-sanitizer")]
            crate::sanitizer::report(
                "schedule-overflow",
                format!(
                    "relative schedule overflows the cycle clock: now={} delay={delay}",
                    self.now
                ),
            );
            panic!(
                "scheduling delay overflows the cycle clock: now={} delay={delay}",
                self.now
            );
        };
        self.schedule_at(at, event);
    }

    /// Schedules `event` at `at` without the causality assertion.
    ///
    /// Exists only so sanitizer tests can inject an out-of-order event and
    /// assert the `event-monotonicity` checker reports it; simulation code
    /// must use [`Self::schedule_at`]. An injected past event is
    /// heap-minimal, so it drains before every in-order event.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn schedule_at_unchecked(&mut self, at: Cycles, event: E) {
        self.insert(at, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let Entry { time, event, .. } = self.heap.pop()?;
        // With the sanitizer on, a causality break becomes a structured
        // violation the caller can observe; without it, it stays the
        // debug assertion it always was.
        #[cfg(feature = "sim-sanitizer")]
        if time < self.now {
            crate::sanitizer::report(
                "event-monotonicity",
                format!(
                    "event queue produced an out-of-order event: time {} behind clock {}",
                    time, self.now
                ),
            );
        }
        #[cfg(not(feature = "sim-sanitizer"))]
        debug_assert!(time >= self.now, "queue produced out-of-order event");
        self.now = time;
        Some((time, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pushes `(at, event)` with the next tie-break number.
    fn insert(&mut self, at: Cycles, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(30), 3);
        q.schedule_at(Cycles::new(10), 1);
        q.schedule_at(Cycles::new(20), 2);
        assert_eq!(q.pop(), Some((Cycles::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycles::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycles::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Cycles::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles::new(7), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop_only() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(50), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles::new(50));
    }

    #[test]
    fn relative_schedule_uses_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(10), 'a');
        q.pop();
        q.schedule(Cycles::new(5), 'b');
        assert_eq!(q.pop(), Some((Cycles::new(15), 'b')));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(10), ());
        q.pop();
        q.schedule_at(Cycles::new(5), ());
    }

    #[test]
    #[should_panic(expected = "overflows the cycle clock")]
    fn relative_schedule_overflow_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(10), ());
        q.pop();
        // now + delay wraps past u64::MAX: the old implementation parked
        // this at Cycles::MAX silently; it must fail loudly.
        q.schedule(Cycles::MAX, ());
    }

    #[test]
    fn relative_schedule_at_exact_horizon_is_fine() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(10), 'a');
        q.pop();
        // now + delay == u64::MAX exactly: representable, not an overflow.
        q.schedule(Cycles::new(u64::MAX - 10), 'b');
        assert_eq!(q.pop(), Some((Cycles::MAX, 'b')));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(9), ());
        assert_eq!(q.peek_time(), Some(Cycles::new(9)));
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_sees_through_every_storage_tier() {
        let mut q = EventQueue::new();
        // Overflow only.
        q.schedule_at(Cycles::new(1 << 40), 1);
        assert_eq!(q.peek_time(), Some(Cycles::new(1 << 40)));
        // An upper wheel level in front of it.
        q.schedule_at(Cycles::new(5_000), 2);
        assert_eq!(q.peek_time(), Some(Cycles::new(5_000)));
        // Level 0 in front of that.
        q.schedule_at(Cycles::new(3), 3);
        assert_eq!(q.peek_time(), Some(Cycles::new(3)));
        // A partially delivered ready chain still peeks correctly.
        q.schedule_at(Cycles::new(3), 4);
        assert_eq!(q.pop(), Some((Cycles::new(3), 3)));
        assert_eq!(q.peek_time(), Some(Cycles::new(3)));
    }

    #[test]
    fn default_is_empty_fresh_queue() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.now(), Cycles::ZERO);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(1), 1u32);
        q.schedule_at(Cycles::new(100), 100);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push(e);
            if e == 1 {
                // Schedule a follow-up between the two pending times.
                q.schedule_at(t + Cycles::new(10), 11);
            }
        }
        assert_eq!(seen, vec![1, 11, 100]);
    }

    #[test]
    fn far_future_events_cross_the_overflow_level() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::MAX, 'z');
        q.schedule_at(Cycles::new(1u64 << 50), 'y');
        q.schedule_at(Cycles::new(1u64 << 40), 'x');
        q.schedule_at(Cycles::new(7), 'a');
        assert_eq!(q.pop(), Some((Cycles::new(7), 'a')));
        assert_eq!(q.pop(), Some((Cycles::new(1u64 << 40), 'x')));
        // Scheduling relative to the advanced clock interleaves correctly
        // with the remaining overflow events.
        q.schedule(Cycles::new(3), 'b');
        assert_eq!(q.pop(), Some((Cycles::new((1u64 << 40) + 3), 'b')));
        assert_eq!(q.pop(), Some((Cycles::new(1u64 << 50), 'y')));
        assert_eq!(q.pop(), Some((Cycles::MAX, 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_burst_straddling_a_cascade_keeps_fifo() {
        let mut q = EventQueue::new();
        // A burst scheduled while far from its window (lands in an upper
        // level), then more of the same cycle scheduled after the wheel
        // has advanced next to it (lands in level 0). Seq order must hold
        // across the cascade boundary.
        for i in 0..5 {
            q.schedule_at(Cycles::new(10_000), i);
        }
        q.schedule_at(Cycles::new(9_990), 100);
        assert_eq!(q.pop(), Some((Cycles::new(9_990), 100)));
        for i in 5..10 {
            q.schedule_at(Cycles::new(10_000), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((Cycles::new(10_000), i)));
        }
    }

    #[test]
    fn empty_wheel_windows_are_skipped() {
        // Events separated by huge idle gaps: popping must not degrade
        // (this is the next-event skipping path; with per-bucket stepping
        // this test would take geological time).
        let mut q = EventQueue::new();
        let mut t = 0u64;
        for i in 0..1_000u64 {
            t += 1 << 35;
            q.schedule_at(Cycles::new(t), i);
        }
        let mut n = 0;
        while let Some((_, e)) = q.pop() {
            assert_eq!(e, n);
            n += 1;
        }
        assert_eq!(n, 1_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popped timestamps are always non-decreasing, regardless of the
        /// scheduling order.
        #[test]
        fn pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule_at(Cycles::new(t), t);
            }
            let mut last = Cycles::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Every scheduled event is delivered exactly once.
        #[test]
        fn conservation(times in proptest::collection::vec(0u64..10_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(Cycles::new(t), i);
            }
            let mut delivered: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            delivered.sort_unstable();
            prop_assert_eq!(delivered, (0..times.len()).collect::<Vec<_>>());
        }

        /// Same-time events preserve scheduling order (stability).
        #[test]
        fn stable_ties(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule_at(Cycles::new(42), i);
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
    }
}
