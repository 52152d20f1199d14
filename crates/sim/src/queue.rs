//! The future-event list: an arena-pooled hierarchical calendar queue.
//!
//! The queue is the hottest structure in the simulator — every segment
//! completion, network delivery and timeout passes through it. External
//! arrivals do not: `SystemSim` reads them from a cursor beside the queue,
//! so a run's queue holds only its in-flight requests' pending events
//! (hundreds on a 1024-core package at 500k rps, tens per rack node). The
//! implementation is a hierarchical timing wheel ([`LEVELS`] levels of
//! [`SLOTS`] slots, one `u64` occupancy bitmap per level) with a sorted
//! overflow level for events beyond the wheel horizon, backed by an arena
//! of pooled event nodes so the steady-state loop allocates nothing:
//!
//! - **push** is O(1): one xor + leading-zeros picks the level, the node is
//!   appended to that bucket's intrusive FIFO chain.
//! - **pop** is O(1) amortized: delivery walks the detached chain of the
//!   current cycle's bucket; each event cascades down at most once per
//!   level over its whole lifetime.
//! - **idle gaps cost O(levels)**, not O(gap): the occupancy bitmaps find
//!   the next non-empty slot with a mask and `trailing_zeros`, so the
//!   wheel jumps straight to the next event time (next-event skipping).
//!
//! Delivery order is *exactly* the `(time, seq)` order the previous
//! `BinaryHeap` implementation produced — the FIFO tie-break contract is
//! load-bearing for every determinism test and committed result in the
//! repo, and the differential proptest in `tests/queue_model.rs` pins the
//! two implementations against each other.

use crate::Cycles;
use std::collections::BTreeMap;

/// Bits of time covered by one wheel level (64 slots).
const LEVEL_BITS: u32 = 6;
/// Slots per level; a level's occupancy fits one `u64` bitmap.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// Bits of time the whole wheel spans (events further out overflow).
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;
/// Null link in the intrusive bucket chains.
const NIL: u32 = u32::MAX;

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
    /// Arena of pooled event nodes; freed slots are recycled via `free`,
    /// so a steady-state schedule/pop loop never allocates.
    nodes: Vec<Node<E>>,
    /// Free-list of recycled arena slots (LIFO for cache warmth).
    free: Vec<u32>,
    /// Bucket FIFO chain heads, `level * SLOTS + slot`.
    heads: Vec<u32>,
    /// Bucket FIFO chain tails.
    tails: Vec<u32>,
    /// Per-level slot occupancy bitmaps (bit `s` = bucket `s` non-empty).
    occ: [u64; LEVELS],
    /// Sorted overflow level: events beyond the wheel horizon, keyed by
    /// `(time, seq)` so refills preserve delivery order.
    overflow: BTreeMap<(u64, u64), u32>,
    /// Detached chain of the bucket currently being delivered (all nodes
    /// share the current timestamp; popped front-to-front in seq order).
    ready: u32,
    /// Events behind the wheel base, as `(time, seq, node)`. Unreachable
    /// through the checked API (`schedule_at` forbids the past); only the
    /// sanitizer's unchecked injection path can populate it. Kept sorted.
    underflow: Vec<(u64, u64, u32)>,
    /// The wheel's position: start of the level-0 window being examined.
    /// Equal to `now` between operations (unless an injected causality
    /// break moved the public clock behind it).
    base: u64,
    now: Cycles,
    seq: u64,
    len: usize,
}

/// One pooled event node. `event` is `None` only while the slot sits on
/// the free list. The tie-break `seq` is deliberately *not* stored here:
/// inside the wheel, FIFO order is carried by bucket append order (and
/// preserved across cascades), while the overflow and underflow side
/// structures key on `(time, seq)` themselves — keeping the node small
/// matters, because cascades re-touch nodes across a fleet-sized arena.
#[derive(Clone, Debug)]
struct Node<E> {
    time: u64,
    next: u32,
    event: Option<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose event pool can hold `capacity` pending
    /// events before growing. Sizing the pool to the expected peak event
    /// population keeps the steady-state loop allocation-free from the
    /// first event on.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            heads: vec![NIL; LEVELS * SLOTS],
            tails: vec![NIL; LEVELS * SLOTS],
            occ: [0; LEVELS],
            overflow: BTreeMap::new(),
            ready: NIL,
            underflow: Vec::new(),
            base: 0,
            now: Cycles::ZERO,
            seq: 0,
            len: 0,
        }
    }

    /// Grows the event pool to hold at least `additional` more pending
    /// events without reallocating.
    pub fn reserve_events(&mut self, additional: usize) {
        let spare = self.free.len() + (self.nodes.capacity() - self.nodes.len());
        if additional > spare {
            self.nodes.reserve(additional - self.free.len());
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Total events scheduled since creation or the last [`Self::clear`]
    /// (the FIFO tie-break sequence counter).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Arena slots ever allocated by the event pool. A steady-state
    /// schedule/pop loop recycles slots instead of growing this.
    pub fn pool_size(&self) -> usize {
        self.nodes.len()
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
    /// must use [`Self::schedule_at`].
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn schedule_at_unchecked(&mut self, at: Cycles, event: E) {
        self.insert(at, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        // Injected causality breaks (and only those) live in `underflow`;
        // they are globally earliest, exactly as they were heap-minimal in
        // the BinaryHeap implementation.
        if !self.underflow.is_empty() {
            let (_, _, idx) = self.underflow.remove(0);
            return Some(self.deliver(idx));
        }
        loop {
            if self.ready != NIL {
                let idx = self.ready;
                self.ready = self.nodes[idx as usize].next;
                return Some(self.deliver(idx));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        if let Some(&(t, _, _)) = self.underflow.first() {
            return Some(Cycles::new(t));
        }
        if self.ready != NIL {
            let head = &self.nodes[self.ready as usize];
            return Some(Cycles::new(head.time));
        }
        if self.len == 0 {
            return None;
        }
        for level in 0..LEVELS {
            if self.occ[level] == 0 {
                continue;
            }
            let cur = ((self.base >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
            let masked = self.occ[level] & (!0u64 << cur);
            debug_assert!(masked != 0, "occupied slots behind the wheel position");
            let slot = masked.trailing_zeros() as u64;
            if level == 0 {
                return Some(Cycles::new((self.base & !(SLOTS as u64 - 1)) | slot));
            }
            // Upper-level bucket: slots are wider than one cycle, so the
            // earliest node must be scanned for. Peeking is off the hot
            // path (pop cascades instead of scanning).
            let mut n = self.heads[level * SLOTS + slot as usize];
            let mut min = u64::MAX;
            while n != NIL {
                min = min.min(self.nodes[n as usize].time);
                n = self.nodes[n as usize].next;
            }
            return Some(Cycles::new(min));
        }
        self.overflow
            .first_key_value()
            .map(|(&(t, _), _)| Cycles::new(t))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events and resets the tie-break sequence counter,
    /// keeping the clock and the pooled arena capacity. A cleared queue
    /// behaves exactly like a fresh one at the same clock: before the
    /// counter was reset here, a reused queue's internal tie-break state
    /// depended on pre-clear history.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.heads.fill(NIL);
        self.tails.fill(NIL);
        self.occ = [0; LEVELS];
        self.overflow.clear();
        self.ready = NIL;
        self.underflow.clear();
        self.base = self.now.raw();
        self.seq = 0;
        self.len = 0;
    }

    // ---- internals ----------------------------------------------------

    /// Allocates a pooled node for `(time, event)`.
    fn alloc(&mut self, time: u64, event: E) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = Node {
                    time,
                    next: NIL,
                    event: Some(event),
                };
                idx
            }
            None => {
                let idx = self.nodes.len();
                assert!(
                    idx < NIL as usize,
                    "event pool exhausted: more than u32::MAX - 1 pending events"
                );
                self.nodes.push(Node {
                    time,
                    next: NIL,
                    event: Some(event),
                });
                idx as u32
            }
        }
    }

    /// Inserts an event, routing it to the wheel, the overflow level, or
    /// (for injected causality breaks only) the underflow list.
    fn insert(&mut self, at: Cycles, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let t = at.raw();
        let idx = self.alloc(t, event);
        self.len += 1;
        if t < self.base {
            // Only reachable through the sanitizer's unchecked injection
            // path: keep the list sorted so delivery stays (time, seq).
            let pos = self
                .underflow
                .partition_point(|&(ut, useq, _)| (ut, useq) <= (t, seq));
            self.underflow.insert(pos, (t, seq, idx));
        } else if (t ^ self.base) >> WHEEL_BITS != 0 {
            self.overflow.insert((t, seq), idx);
        } else {
            self.place(idx);
        }
    }

    /// Links a node into the wheel bucket its time selects, relative to
    /// the current base. The caller guarantees the time is within the
    /// wheel horizon.
    fn place(&mut self, idx: u32) {
        let t = self.nodes[idx as usize].time;
        let x = t ^ self.base;
        debug_assert!(x >> WHEEL_BITS == 0, "placing a node beyond the wheel");
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let bucket = level * SLOTS + slot;
        self.nodes[idx as usize].next = NIL;
        if self.tails[bucket] == NIL {
            self.heads[bucket] = idx;
        } else {
            let tail = self.tails[bucket] as usize;
            self.nodes[tail].next = idx;
        }
        self.tails[bucket] = idx;
        self.occ[level] |= 1 << slot;
    }

    /// One step of next-event skipping: either detaches the earliest
    /// level-0 bucket into `ready`, cascades the earliest upper-level
    /// bucket one level down, or refills the wheel from the overflow
    /// level. The caller guarantees at least one event is pending.
    fn advance(&mut self) {
        let Some(level) = (0..LEVELS).find(|&k| self.occ[k] != 0) else {
            self.refill_from_overflow();
            return;
        };
        let shift = LEVEL_BITS * level as u32;
        let cur = ((self.base >> shift) & (SLOTS as u64 - 1)) as u32;
        let masked = self.occ[level] & (!0u64 << cur);
        debug_assert!(
            masked != 0 && self.occ[level] & !(!0u64 << cur) == 0,
            "occupied slots behind the wheel position"
        );
        let slot = masked.trailing_zeros() as usize;
        let bucket = level * SLOTS + slot;
        let mut node = self.heads[bucket];
        self.heads[bucket] = NIL;
        self.tails[bucket] = NIL;
        self.occ[level] &= !(1u64 << slot);
        if level == 0 {
            // The bucket spans exactly one cycle: its chain is already the
            // (time, seq)-ordered delivery sequence.
            self.base = (self.base & !(SLOTS as u64 - 1)) | slot as u64;
            self.ready = node;
        } else {
            // Jump the wheel to the start of the slot and re-place its
            // chain one or more levels down, preserving append order so
            // same-time events keep their seq order.
            let upper = !0u64 << (shift + LEVEL_BITS);
            self.base = (self.base & upper) | ((slot as u64) << shift);
            while node != NIL {
                let next = self.nodes[node as usize].next;
                self.place(node);
                node = next;
            }
        }
    }

    /// Moves the earliest overflow window into the (empty) wheel.
    fn refill_from_overflow(&mut self) {
        let (&(t0, _), _) = self
            .overflow
            .first_key_value()
            .expect("advance called with events pending");
        let top = t0 >> WHEEL_BITS;
        self.base = top << WHEEL_BITS;
        let batch = if top == u64::MAX >> WHEEL_BITS {
            std::mem::take(&mut self.overflow)
        } else {
            let rest = self.overflow.split_off(&((top + 1) << WHEEL_BITS, 0));
            std::mem::replace(&mut self.overflow, rest)
        };
        // BTreeMap iteration is (time, seq)-ordered, so append order in
        // the target buckets preserves the FIFO tie-break.
        for (_, idx) in batch {
            self.place(idx);
        }
    }

    /// Takes a node's event out, recycles the arena slot, and advances the
    /// public clock, checking event monotonicity.
    fn deliver(&mut self, idx: u32) -> (Cycles, E) {
        let node = &mut self.nodes[idx as usize];
        let time = Cycles::new(node.time);
        let event = node
            .event
            .take()
            .expect("linked node always holds an event");
        self.free.push(idx);
        self.len -= 1;
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
        (time, event)
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
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles::new(10), ());
        q.pop();
        q.schedule(Cycles::new(100), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), Cycles::new(10));
    }

    #[test]
    fn clear_resets_tie_break_state() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(Cycles::new(5), i);
        }
        q.pop();
        q.clear();
        // Regression: `clear` used to leave the sequence counter at its
        // pre-clear value, so a reused queue's tie-break state (and its
        // overflow keys) depended on history. A cleared queue must look
        // exactly like a fresh one at the same clock.
        assert_eq!(q.scheduled_total(), 0);
        q.schedule_at(Cycles::new(7), 100);
        q.schedule_at(Cycles::new(7), 101);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.pop(), Some((Cycles::new(7), 100)));
        assert_eq!(q.pop(), Some((Cycles::new(7), 101)));
    }

    #[test]
    fn default_is_empty_fresh_queue() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.scheduled_total(), 0);
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
    fn steady_state_loop_recycles_pooled_nodes() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_at(Cycles::new(i), i);
        }
        let peak = q.pool_size();
        // A long schedule/pop steady state: every delivery recycles its
        // arena slot, so the pool never grows past the initial population.
        for i in 0..100_000u64 {
            let (t, _) = q.pop().expect("population is constant");
            q.schedule_at(t + Cycles::new(64), i);
        }
        assert_eq!(q.pool_size(), peak, "steady-state loop must not allocate");
        assert_eq!(q.len(), 64);
    }

    #[test]
    fn reserve_pre_sizes_the_pool() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(100);
        q.reserve_events(500);
        let cap = q.nodes.capacity();
        assert!(cap >= 500);
        for i in 0..500 {
            q.schedule_at(Cycles::new(i), i);
        }
        assert_eq!(q.nodes.capacity(), cap, "reserved pool must not regrow");
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
