//! Differential test: `EventQueue` against a reference `BinaryHeap`
//! model of its delivery contract.
//!
//! The queue's `(time, seq)` FIFO delivery contract is load-bearing for
//! every determinism test and committed result in the repo, so the two
//! implementations are driven through arbitrary interleaved schedule/pop
//! sequences — same-cycle FIFO bursts, short hops, long jumps, and times
//! out to `u64::MAX` included — and must produce identical
//! `(time, seq, event)` streams at every step.

#![expect(
    clippy::disallowed_types,
    reason = "the reference model spells out EventQueue's contract on a plain heap"
)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use um_sim::{Cycles, EventQueue};

/// The reference future-event list: a `BinaryHeap` ordered by
/// `(time, seq)`, spelling out `EventQueue`'s delivery contract. It is the
/// model every test in this file checks `EventQueue` against.
#[derive(Clone, Debug)]
struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Cycles,
    seq: u64,
}

#[derive(Clone, Debug)]
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

// Min-heap by (time, seq): BinaryHeap is a max-heap, so invert.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> HeapQueue<E> {
    /// Creates an empty queue with the clock at zero.
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: Cycles::ZERO,
            seq: 0,
        }
    }

    /// The timestamp of the last popped event.
    fn now(&self) -> Cycles {
        self.now
    }

    /// Schedules `event` at the absolute time `at`.
    fn schedule_at(&mut self, at: Cycles, event: E) {
        assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<(Cycles, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the next event without popping it.
    fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[test]
fn baseline_heap_matches_basic_contract() {
    let mut q = HeapQueue::new();
    q.schedule_at(Cycles::new(5), 'b');
    q.schedule_at(Cycles::new(5), 'c');
    q.schedule_at(Cycles::new(1), 'a');
    assert_eq!(q.peek_time(), Some(Cycles::new(1)));
    assert_eq!(q.pop(), Some((Cycles::new(1), 'a')));
    assert_eq!(q.pop(), Some((Cycles::new(5), 'b')));
    assert_eq!(q.pop(), Some((Cycles::new(5), 'c')));
    assert_eq!(q.pop(), None);
    assert!(q.is_empty());
}

/// One scripted operation applied to both queues.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule one event `delta` cycles after the current clock.
    Schedule(u64),
    /// Schedule `n` events at the same cycle (`delta` out) to exercise
    /// FIFO tie-breaking.
    Burst(u64, u8),
    /// Pop one event and compare the delivery.
    Pop,
}

/// Deltas from same-cycle to far-future: short hops, mid-range jumps, a
/// band around 2^36 cycles, and the top of the clock up to `u64::MAX`.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        0u64..64,
        0u64..4_096,
        0u64..4_096,
        0u64..(1u64 << 18),
        0u64..(1u64 << 37),
        (1u64 << 36) - 64..(1u64 << 36) + 64,
        // The top 1024 times, u64::MAX itself included (the vendored
        // proptest has no inclusive ranges; shift an exclusive one up).
        (u64::MAX - 1_024..u64::MAX).prop_map(|d| d + 1),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Repeated arms stand in for weights: schedules and pops dominate so
    // sequences drain and refill the queue instead of only growing it.
    prop_oneof![
        delta_strategy().prop_map(Op::Schedule),
        delta_strategy().prop_map(Op::Schedule),
        delta_strategy().prop_map(Op::Schedule),
        // No tuple strategies in the vendored proptest: derive the burst
        // length from a hash of the delta so the two vary independently.
        delta_strategy()
            .prop_map(|d| Op::Burst(d, 1 + (d.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as u8)),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// `EventQueue` and the reference heap deliver identical
    /// `(time, event)` streams (with `event` carrying the schedule index,
    /// so seq-order divergence is visible) under arbitrary interleaved
    /// schedule/pop sequences.
    #[test]
    fn calendar_queue_matches_heap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut next_id = 0u64;
        for op in &ops {
            match *op {
                Op::Schedule(delta) => {
                    // Both clocks advance identically, so the absolute
                    // time is shared. Saturate instead of overflowing:
                    // schedule-past-MAX is the loud-panic path, tested
                    // separately.
                    let at = Cycles::new(queue.now().raw().saturating_add(delta));
                    queue.schedule_at(at, next_id);
                    heap.schedule_at(at, next_id);
                    next_id += 1;
                }
                Op::Burst(delta, n) => {
                    let at = Cycles::new(queue.now().raw().saturating_add(delta));
                    for _ in 0..n {
                        queue.schedule_at(at, next_id);
                        heap.schedule_at(at, next_id);
                        next_id += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(queue.peek_time(), heap.peek_time());
                    prop_assert_eq!(queue.pop(), heap.pop());
                    prop_assert_eq!(queue.now(), heap.now());
                }
            }
            prop_assert_eq!(queue.len(), heap.len());
            prop_assert_eq!(queue.is_empty(), heap.is_empty());
        }
        // Drain both completely: every pending event must come out in the
        // same order.
        loop {
            prop_assert_eq!(queue.peek_time(), heap.peek_time());
            let (a, b) = (queue.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// One seeded delta from same-cycle to 2^40 cycles, with the band around
/// 2^36 heavily represented so the population's times straddle it.
fn stress_delta(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..8) {
        0 | 1 => rng.gen_range(0..64),
        2 | 3 => rng.gen_range(0..1u64 << 18),
        4 => rng.gen_range(0..1u64 << 30),
        // Straddle 2^36: half a window below to half above.
        5 | 6 => (1u64 << 36) - 4_096 + rng.gen_range(0..8_192),
        _ => rng.gen_range(1u64 << 36..1u64 << 40),
    }
}

/// Million-event differential: a live population far beyond what the
/// proptest above reaches, or any simulator run holds (external arrivals
/// wait in a cursor, not the queue). Build a ~2^20-event population whose
/// times straddle 2^36 cycles, churn it through a pop/schedule cycle that
/// walks the clock forward, then drain — `EventQueue` must match the
/// reference heap at every delivery.
#[test]
fn cluster_scale_population_straddles_the_wheel_horizon() {
    const LIVE: usize = 1 << 20;
    const CHURN: usize = 200_000;
    let mut rng = SmallRng::seed_from_u64(0x36);
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(LIVE + CHURN);
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut next_id = 0u64;
    for _ in 0..LIVE {
        let at = Cycles::new(queue.now().raw().saturating_add(stress_delta(&mut rng)));
        queue.schedule_at(at, next_id);
        heap.schedule_at(at, next_id);
        next_id += 1;
    }
    assert_eq!(queue.len(), LIVE);
    // Churn at full population: every pop advances the shared clock, so
    // later schedules land relative to a moving now.
    for _ in 0..CHURN {
        assert_eq!(queue.peek_time(), heap.peek_time());
        let (a, b) = (queue.pop(), heap.pop());
        assert_eq!(a, b);
        let at = Cycles::new(queue.now().raw().saturating_add(stress_delta(&mut rng)));
        queue.schedule_at(at, next_id);
        heap.schedule_at(at, next_id);
        next_id += 1;
    }
    assert_eq!(queue.len(), LIVE);
    loop {
        assert_eq!(queue.peek_time(), heap.peek_time());
        let (a, b) = (queue.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    // The drain carried the clock past 2^36 (the far tiers of
    // `stress_delta` guarantee events out there).
    assert!(
        queue.now().raw() > 1 << 36,
        "the drain walked the clock past 2^36: now={}",
        queue.now()
    );
}

/// Events injected behind the clock (reachable only through the
/// sanitizer-facing `schedule_at_unchecked`) under a million-event live
/// population: injected causality breaks must drain first, in
/// `(time, seq)` order, before any of the million in-order events,
/// because they are heap-minimal. The reference here is a sorted-vector
/// model, since `HeapQueue` has no unchecked schedule path.
#[cfg(feature = "sim-sanitizer")]
#[test]
fn underflow_list_drains_first_under_cluster_scale_population() {
    const LIVE: usize = 1 << 20;
    const BREAKS: usize = 4_096;
    let mut rng = SmallRng::seed_from_u64(0x1197);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(LIVE + BREAKS);
    // March the clock past 2^36 so there is a deep "past" for the
    // injected breaks to land in.
    q.schedule_at(Cycles::new((1 << 36) + 12_345), u64::MAX);
    assert_eq!(q.pop(), Some((Cycles::new((1 << 36) + 12_345), u64::MAX)));
    let base = q.now().raw();
    let mut next_id = 0u64;
    // The in-order population, ahead of now.
    let mut future: Vec<(u64, u64)> = Vec::with_capacity(LIVE);
    for _ in 0..LIVE {
        let at = base + stress_delta(&mut rng);
        q.schedule_at(Cycles::new(at), next_id);
        future.push((at, next_id));
        next_id += 1;
    }
    // The causality breaks: behind the clock, duplicates included so the
    // FIFO tie-break is exercised among them too.
    let mut breaks: Vec<(u64, u64)> = Vec::with_capacity(BREAKS);
    for _ in 0..BREAKS {
        let at = rng.gen_range(0..base);
        let at = if at % 7 == 0 { base - 1 } else { at };
        q.schedule_at_unchecked(Cycles::new(at), next_id);
        breaks.push((at, next_id));
        next_id += 1;
    }
    assert_eq!(q.len(), LIVE + BREAKS);
    // Expected delivery: all breaks first (they are globally earliest),
    // then the futures; stable sort by time preserves seq FIFO order.
    breaks.sort_by_key(|&(t, _)| t);
    future.sort_by_key(|&(t, _)| t);
    for &(t, id) in breaks.iter().chain(&future) {
        assert_eq!(q.peek_time(), Some(Cycles::new(t)));
        assert_eq!(q.pop(), Some((Cycles::new(t), id)));
    }
    assert_eq!(q.pop(), None);
    assert!(q.is_empty());
}
