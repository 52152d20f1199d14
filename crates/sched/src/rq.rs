//! The hardware Request Queue (paper §4.3, Figure 13) and its RQ_Map
//! partitioned extension.

use crate::policy::DequeuePolicy;
use std::collections::{BTreeMap, VecDeque};
use um_sim::Cycles;

/// Status of one Request Queue entry (§4.3: "running, ready to run,
/// blocked on an RPC, or finished").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RqEntryStatus {
    /// Waiting for a core.
    Ready,
    /// Currently executing on a core.
    Running,
    /// Blocked on an outstanding RPC or storage access.
    Blocked,
    /// Completed; the slot is reclaimed when it reaches the head.
    Finished,
}

/// Errors from Request Queue operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RqError {
    /// The circular buffer is full; §4.3: the request is then temporarily
    /// queued in the NIC, and rejected if the NIC also runs out of space.
    Full,
    /// A slot handle refers to a reclaimed or never-issued entry.
    StaleSlot,
    /// The operation is invalid for the entry's current status.
    BadTransition {
        /// Status the entry actually had.
        found: RqEntryStatus,
    },
}

impl std::fmt::Display for RqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RqError::Full => f.write_str("request queue full"),
            RqError::StaleSlot => f.write_str("stale request queue slot"),
            RqError::BadTransition { found } => {
                write!(f, "invalid status transition from {found:?}")
            }
        }
    }
}

impl std::error::Error for RqError {}

/// Handle to a Request Queue entry: its enqueue number.
///
/// Numbers are never reused, so a handle kept past its entry's
/// reclamation is detected as [`RqError::StaleSlot`] instead of
/// corrupting an unrelated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RqSlot {
    generation: u64,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    status: RqEntryStatus,
    service: u32,
    /// When the entry last became Ready (enqueue or unblock);
    /// `dequeue_any_with_at` reports `now - ready_since` as the queue wait.
    ready_since: Cycles,
    ctx: T,
}

/// The hardware Request Queue: a circular buffer whose entries carry a
/// status, a service id, and a pointer into Request Context Memory (here:
/// the owned context value `T`).
///
/// Semantics follow §4.3:
/// - the NIC `enqueue`s at the tail;
/// - an idle core's `Dequeue` instruction atomically claims the
///   highest-priority (closest to head) *ready* entry matching its service
///   id and marks it running;
/// - `ContextSwitch` marks a running entry blocked (saving state into the
///   context memory is the caller's concern — see
///   `um-sched::ctxswitch`);
/// - the NIC's RPC-response path marks a blocked entry ready again;
/// - `Complete` marks an entry finished, and the head advances over
///   finished entries to reclaim slots.
///
/// Capacity is only a bound. Entries are written at the tail and freed
/// only at the head, so the occupied entries are always one FIFO window;
/// the model holds exactly that window, head first, and a deep RQ costs
/// memory only for the entries it holds. `Dequeue` scans the window,
/// and returns at once when a count of Ready entries is zero. Its cost
/// follows the occupancy, not the capacity.
///
/// # Examples
///
/// ```
/// use um_sched::{RequestQueue, RqEntryStatus};
///
/// let mut rq = RequestQueue::new(4);
/// let a = rq.enqueue(1, "a").unwrap();
/// let b = rq.enqueue(1, "b").unwrap();
/// assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(a)); // FCFS: a first
/// rq.block(a).unwrap();
/// assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(b));
/// rq.unblock(a).unwrap();
/// assert_eq!(rq.status(a), Some(RqEntryStatus::Ready));
/// ```
#[derive(Clone, Debug)]
pub struct RequestQueue<T> {
    /// The occupied entries, head first.
    entries: VecDeque<Entry<T>>,
    capacity: usize,
    /// Enqueue number of the head entry; the entry numbered `g` sits at
    /// `g - head_generation`.
    head_generation: u64,
    /// Entries in [`RqEntryStatus::Ready`]; a `Dequeue` with none to find
    /// returns without scanning.
    ready: usize,
}

impl<T> RequestQueue<T> {
    /// Creates an empty RQ with `capacity` entries (the paper uses 64 per
    /// village). Allocates nothing until the first enqueue.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "request queue needs nonzero capacity");
        Self {
            entries: VecDeque::new(),
            capacity,
            head_generation: 0,
            ready: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied entries (including finished ones not yet
    /// reclaimed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the RQ holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the RQ cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Enqueues a request for `service` at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`RqError::Full`] when no slot is free; the caller (the
    /// village NIC) then buffers or rejects.
    pub fn enqueue(&mut self, service: u32, ctx: T) -> Result<RqSlot, RqError> {
        self.enqueue_at(service, ctx, Cycles::ZERO)
    }

    /// Timed [`RequestQueue::enqueue`]: stamps the entry's ready time so
    /// [`RequestQueue::dequeue_any_with_at`] can attribute queue wait.
    /// Mix timed and untimed calls at your peril: untimed ops stamp time
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`RqError::Full`] when no slot is free.
    pub fn enqueue_at(&mut self, service: u32, ctx: T, now: Cycles) -> Result<RqSlot, RqError> {
        if self.is_full() {
            return Err(RqError::Full);
        }
        let slot = RqSlot {
            generation: self.enqueue_count(),
        };
        self.entries.push_back(Entry {
            status: RqEntryStatus::Ready,
            service,
            ready_since: now,
            ctx,
        });
        self.ready += 1;
        #[cfg(feature = "sim-sanitizer")]
        self.check_ready_count();
        Ok(slot)
    }

    /// Sanitizer hook for the counter `Dequeue` trusts: the cached
    /// `ready` must equal the number of Ready entries.
    #[cfg(feature = "sim-sanitizer")]
    fn check_ready_count(&self) {
        let ready = self
            .entries
            .iter()
            .filter(|e| e.status == RqEntryStatus::Ready)
            .count();
        if ready != self.ready {
            um_sim::sanitizer::report(
                "rq-occupancy",
                format!(
                    "request queue ready count {} disagrees with {ready} Ready entr(ies)",
                    self.ready
                ),
            );
        }
    }

    /// Corrupts the cached Ready-entry counter.
    ///
    /// Exists only so sanitizer tests can verify the `rq-occupancy` checker
    /// fires; never call this from simulation code.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn corrupt_ready_for_sanitizer_test(&mut self, ready: usize) {
        self.ready = ready;
    }

    /// The `Dequeue` instruction: claims the ready entry closest to the
    /// head whose service matches, marking it running (FCFS).
    pub fn dequeue(&mut self, service: u32) -> Option<(RqSlot, &T)> {
        self.dequeue_inner(Some(service), DequeuePolicy::Fcfs, |_| 0, Cycles::ZERO)
            .map(|(slot, ctx, _)| (slot, ctx))
    }

    /// Policy-parameterized dequeue across all services: FCFS takes the
    /// oldest ready entry; SRPT the one with the smallest `remaining(ctx)`.
    /// Also returns how long the claimed entry sat Ready
    /// (`now - ready_since`, clamped at zero).
    pub fn dequeue_any_with_at(
        &mut self,
        policy: DequeuePolicy,
        remaining: impl Fn(&T) -> u64,
        now: Cycles,
    ) -> Option<(RqSlot, &T, Cycles)> {
        self.dequeue_inner(None, policy, remaining, now)
    }

    fn dequeue_inner(
        &mut self,
        service: Option<u32>,
        policy: DequeuePolicy,
        remaining: impl Fn(&T) -> u64,
        now: Cycles,
    ) -> Option<(RqSlot, &T, Cycles)> {
        if self.ready == 0 {
            return None;
        }
        let idx = {
            let mut candidates = self.entries.iter().enumerate().filter(|(_, e)| {
                e.status == RqEntryStatus::Ready && service.is_none_or(|svc| e.service == svc)
            });
            match policy {
                // The walk is head-first: the first hit is the oldest.
                DequeuePolicy::Fcfs => candidates.next()?.0,
                DequeuePolicy::Srpt => {
                    candidates
                        .fold(None, |best: Option<(usize, u64)>, (idx, e)| {
                            let key = remaining(&e.ctx);
                            if best.is_none_or(|(_, k)| key < k) {
                                Some((idx, key))
                            } else {
                                best
                            }
                        })?
                        .0
                }
            }
        };
        self.entries[idx].status = RqEntryStatus::Running;
        self.ready -= 1;
        #[cfg(feature = "sim-sanitizer")]
        self.check_ready_count();
        let slot = RqSlot {
            generation: self.head_generation + idx as u64,
        };
        let entry = &self.entries[idx];
        Some((slot, &entry.ctx, now.saturating_sub(entry.ready_since)))
    }

    /// The position of the entry a handle names, if it is still held: the
    /// handle's number lies in `[head_generation, head_generation + len)`.
    fn position(&self, slot: RqSlot) -> Option<usize> {
        let offset = slot.generation.checked_sub(self.head_generation)?;
        usize::try_from(offset)
            .ok()
            .filter(|&idx| idx < self.entries.len())
    }

    fn entry(&self, slot: RqSlot) -> Option<&Entry<T>> {
        self.position(slot).map(|idx| &self.entries[idx])
    }

    fn entry_mut(&mut self, slot: RqSlot) -> Result<&mut Entry<T>, RqError> {
        let idx = self.position(slot).ok_or(RqError::StaleSlot)?;
        Ok(&mut self.entries[idx])
    }

    /// The `ContextSwitch` instruction's RQ side: running -> blocked.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] for reclaimed handles,
    /// [`RqError::BadTransition`] unless the entry is running.
    pub fn block(&mut self, slot: RqSlot) -> Result<(), RqError> {
        let e = self.entry_mut(slot)?;
        if e.status != RqEntryStatus::Running {
            return Err(RqError::BadTransition { found: e.status });
        }
        e.status = RqEntryStatus::Blocked;
        Ok(())
    }

    /// The NIC response path: blocked -> ready.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] / [`RqError::BadTransition`] as for `block`.
    pub fn unblock(&mut self, slot: RqSlot) -> Result<(), RqError> {
        self.unblock_at(slot, Cycles::ZERO)
    }

    /// Timed [`RequestQueue::unblock`]: re-stamps the entry's ready time,
    /// so the wait reported at dequeue covers only the post-unblock span.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] / [`RqError::BadTransition`] as for `block`.
    pub fn unblock_at(&mut self, slot: RqSlot, now: Cycles) -> Result<(), RqError> {
        let e = self.entry_mut(slot)?;
        if e.status != RqEntryStatus::Blocked {
            return Err(RqError::BadTransition { found: e.status });
        }
        e.status = RqEntryStatus::Ready;
        e.ready_since = now;
        self.ready += 1;
        #[cfg(feature = "sim-sanitizer")]
        self.check_ready_count();
        Ok(())
    }

    /// The `Complete` instruction: running -> finished, then advance the
    /// head over finished entries, reclaiming their slots.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] / [`RqError::BadTransition`] as for `block`.
    pub fn complete(&mut self, slot: RqSlot) -> Result<(), RqError> {
        let e = self.entry_mut(slot)?;
        if e.status != RqEntryStatus::Running {
            return Err(RqError::BadTransition { found: e.status });
        }
        e.status = RqEntryStatus::Finished;
        self.reclaim();
        Ok(())
    }

    fn reclaim(&mut self) {
        while self
            .entries
            .front()
            .is_some_and(|e| e.status == RqEntryStatus::Finished)
        {
            self.entries.pop_front();
            self.head_generation += 1;
        }
        #[cfg(feature = "sim-sanitizer")]
        self.check_ready_count();
    }

    /// Status of an entry; `None` for stale handles.
    pub fn status(&self, slot: RqSlot) -> Option<RqEntryStatus> {
        self.entry(slot).map(|e| e.status)
    }

    /// Immutable access to a request's context memory.
    pub fn ctx(&self, slot: RqSlot) -> Option<&T> {
        self.entry(slot).map(|e| &e.ctx)
    }

    /// The per-core Work flag (§4.3): whether a ready entry exists for
    /// `service`.
    pub fn has_ready(&self, service: u32) -> bool {
        self.ready > 0
            && self
                .entries
                .iter()
                .any(|e| e.status == RqEntryStatus::Ready && e.service == service)
    }

    /// Count of entries in a given status.
    pub fn count_status(&self, status: RqEntryStatus) -> usize {
        self.entries.iter().filter(|e| e.status == status).count()
    }

    /// Total accepted enqueues.
    pub fn enqueue_count(&self) -> u64 {
        self.head_generation + self.entries.len() as u64
    }
}

/// The §4.3 "more advanced design": the RQ_Map table partitions the RQ
/// among co-located services, eliminating cross-service contention for
/// entries. Implemented as one sub-queue per service with a bounded total
/// capacity; shares follow the per-service core assignment.
///
/// The paper describes but does not evaluate this design; this crate
/// implements it as an extension and the bench suite ablates it.
///
/// # Examples
///
/// ```
/// use um_sched::PartitionedRq;
///
/// let mut rq: PartitionedRq<&str> = PartitionedRq::new(64);
/// rq.set_share(1, 48);
/// rq.set_share(2, 16);
/// rq.enqueue(1, "a").unwrap();
/// assert!(rq.dequeue(1).is_some());
/// assert!(rq.dequeue(2).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct PartitionedRq<T> {
    total_capacity: usize,
    partitions: BTreeMap<u32, RequestQueue<T>>,
    default_share: usize,
}

impl<T> PartitionedRq<T> {
    /// Creates a partitioned RQ with `total_capacity` entries overall.
    ///
    /// # Panics
    ///
    /// Panics if `total_capacity` is zero.
    pub fn new(total_capacity: usize) -> Self {
        assert!(total_capacity > 0, "need nonzero capacity");
        Self {
            total_capacity,
            partitions: BTreeMap::new(),
            default_share: total_capacity,
        }
    }

    /// Total capacity across partitions.
    pub fn total_capacity(&self) -> usize {
        self.total_capacity
    }

    /// Assigns `service` a partition of `entries` slots (recorded in the
    /// RQ_Map).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds the total capacity, or if the
    /// partition still holds entries (repartitioning is applied between
    /// bursts, after the partition drains — matching how the hardware
    /// would switch RQ_Map rows).
    pub fn set_share(&mut self, service: u32, entries: usize) {
        assert!(
            entries > 0 && entries <= self.total_capacity,
            "share {entries} outside 1..={}",
            self.total_capacity
        );
        match self.partitions.get_mut(&service) {
            Some(existing) if existing.capacity() == entries => {}
            Some(existing) => {
                // Shares only change between bursts in our simulations, so
                // the partition is drained here; hardware would let it
                // drain naturally before applying the new RQ_Map row.
                assert!(
                    existing.is_empty(),
                    "online repartitioning with queued entries is not modelled"
                );
                *existing = RequestQueue::new(entries);
            }
            None => {
                self.partitions.insert(service, RequestQueue::new(entries));
            }
        }
    }

    fn partition_mut(&mut self, service: u32) -> &mut RequestQueue<T> {
        let default_share = self.default_share;
        self.partitions
            .entry(service)
            .or_insert_with(|| RequestQueue::new(default_share))
    }

    /// Enqueues into the service's partition.
    ///
    /// # Errors
    ///
    /// [`RqError::Full`] when the partition is exhausted — even if other
    /// partitions have room; that isolation is the point of RQ_Map.
    pub fn enqueue(&mut self, service: u32, ctx: T) -> Result<RqSlot, RqError> {
        self.partition_mut(service).enqueue(service, ctx)
    }

    /// Dequeues the oldest ready entry of `service` from its partition.
    pub fn dequeue(&mut self, service: u32) -> Option<(RqSlot, &T)> {
        // Only consult the service's own partition (the Dequeue instruction
        // checks the RQ_Map first, §4.3).
        self.partitions.get_mut(&service)?.dequeue(service)
    }

    /// Forwards to the partition's `block`.
    ///
    /// # Errors
    ///
    /// As [`RequestQueue::block`]; stale if the service has no partition.
    pub fn block(&mut self, service: u32, slot: RqSlot) -> Result<(), RqError> {
        self.partitions
            .get_mut(&service)
            .ok_or(RqError::StaleSlot)?
            .block(slot)
    }

    /// Forwards to the partition's `unblock`.
    ///
    /// # Errors
    ///
    /// As [`RequestQueue::unblock`].
    pub fn unblock(&mut self, service: u32, slot: RqSlot) -> Result<(), RqError> {
        self.partitions
            .get_mut(&service)
            .ok_or(RqError::StaleSlot)?
            .unblock(slot)
    }

    /// Forwards to the partition's `complete`.
    ///
    /// # Errors
    ///
    /// As [`RequestQueue::complete`].
    pub fn complete(&mut self, service: u32, slot: RqSlot) -> Result<(), RqError> {
        self.partitions
            .get_mut(&service)
            .ok_or(RqError::StaleSlot)?
            .complete(slot)
    }

    /// Whether `service` has ready work.
    pub fn has_ready(&self, service: u32) -> bool {
        self.partitions
            .get(&service)
            .is_some_and(|q| q.has_ready(service))
    }

    /// Services with a configured partition.
    pub fn services(&self) -> impl Iterator<Item = u32> + '_ {
        self.partitions.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_order_per_service() {
        let mut rq = RequestQueue::new(8);
        let a = rq.enqueue(1, "a").unwrap();
        let _b = rq.enqueue(2, "b").unwrap();
        let c = rq.enqueue(1, "c").unwrap();
        assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(a));
        assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(c));
        assert_eq!(rq.dequeue(1), None); // only service 2 left
    }

    #[test]
    fn full_queue_rejects() {
        let mut rq = RequestQueue::new(2);
        rq.enqueue(1, 0).unwrap();
        rq.enqueue(1, 1).unwrap();
        assert_eq!(rq.enqueue(1, 2), Err(RqError::Full));
    }

    #[test]
    fn complete_reclaims_head_slots() {
        let mut rq = RequestQueue::new(2);
        let a = rq.enqueue(1, 0).unwrap();
        let b = rq.enqueue(1, 1).unwrap();
        rq.dequeue(1).unwrap();
        rq.complete(a).unwrap();
        assert_eq!(rq.len(), 1);
        let c = rq.enqueue(1, 2).unwrap(); // takes a's freed place
        assert_ne!(c.generation, a.generation);
        assert_eq!(rq.status(a), None, "stale handle must not resolve");
        let _ = b;
    }

    #[test]
    fn stale_handles_do_not_resolve() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue(1, 0).unwrap();
        let b = rq.enqueue(1, 1).unwrap();
        rq.dequeue(1).unwrap();
        rq.complete(a).unwrap();
        // Behind the head after reclamation.
        assert_eq!(rq.status(a), None);
        assert_eq!(rq.ctx(a), None);
        assert_eq!(rq.block(a), Err(RqError::StaleSlot));
        assert_eq!(rq.complete(a), Err(RqError::StaleSlot));
        // Never issued: one past the newest entry.
        let unissued = RqSlot {
            generation: b.generation + 1,
        };
        assert_eq!(rq.status(unissued), None);
        assert_eq!(rq.unblock(unissued), Err(RqError::StaleSlot));
        assert_eq!(rq.status(b), Some(RqEntryStatus::Ready));
    }

    #[test]
    fn unbounded_capacity_allocates_on_demand() {
        let mut rq: RequestQueue<u64> = RequestQueue::new(usize::MAX);
        assert!(!rq.is_full());
        let a = rq.enqueue(1, 7).unwrap();
        assert_eq!(rq.dequeue(1), Some((a, &7)));
        rq.complete(a).unwrap();
        assert!(rq.is_empty());
        assert_eq!(rq.capacity(), usize::MAX);
    }

    #[test]
    fn out_of_order_completion_delays_reclaim() {
        let mut rq = RequestQueue::new(3);
        let a = rq.enqueue(1, 0).unwrap();
        let b = rq.enqueue(1, 1).unwrap();
        rq.dequeue(1).unwrap(); // a running
        rq.dequeue(1).unwrap(); // b running
        rq.complete(b).unwrap();
        // Head (a) not finished: b's slot is not yet reclaimed.
        assert_eq!(rq.len(), 2);
        rq.complete(a).unwrap();
        // Now both reclaim.
        assert_eq!(rq.len(), 0);
        assert!(rq.is_empty());
    }

    #[test]
    fn block_unblock_cycle() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue(7, "ctx").unwrap();
        rq.dequeue(7).unwrap();
        rq.block(a).unwrap();
        assert_eq!(rq.status(a), Some(RqEntryStatus::Blocked));
        assert!(!rq.has_ready(7));
        rq.unblock(a).unwrap();
        assert!(rq.has_ready(7));
        let (again, _) = rq.dequeue(7).unwrap();
        assert_eq!(again, a);
    }

    #[test]
    fn bad_transitions_rejected() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue(1, ()).unwrap();
        // Ready -> block is invalid (must be running).
        assert!(matches!(rq.block(a), Err(RqError::BadTransition { .. })));
        // Ready -> unblock is invalid.
        assert!(matches!(rq.unblock(a), Err(RqError::BadTransition { .. })));
        // Ready -> complete is invalid.
        assert!(matches!(rq.complete(a), Err(RqError::BadTransition { .. })));
    }

    #[test]
    fn blocked_requests_do_not_block_others() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue(1, "a").unwrap();
        let _b = rq.enqueue(1, "b").unwrap();
        rq.dequeue(1).unwrap();
        rq.block(a).unwrap();
        // b is still dequeueable although a (older) is blocked.
        let (slot, ctx) = rq.dequeue(1).unwrap();
        assert_eq!(*ctx, "b");
        assert_ne!(slot, a);
    }

    #[test]
    fn wraparound_preserves_fcfs() {
        let mut rq = RequestQueue::new(3);
        let mut order = Vec::new();
        // Push/complete enough to wrap several times.
        for i in 0..10 {
            let s = rq.enqueue(1, i).unwrap();
            let (got, &v) = rq.dequeue(1).unwrap();
            assert_eq!(got, s);
            order.push(v);
            rq.complete(s).unwrap();
        }
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn srpt_picks_shortest_across_services() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue(1, 900u64).unwrap();
        rq.enqueue(2, 50u64).unwrap();
        rq.enqueue(1, 300u64).unwrap();
        let (_, &v, _) = rq
            .dequeue_any_with_at(DequeuePolicy::Srpt, |&rem| rem, Cycles::ZERO)
            .unwrap();
        assert_eq!(v, 50);
        // FCFS ignores the estimator and takes the oldest.
        let (_, &v, _) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |&rem| rem, Cycles::ZERO)
            .unwrap();
        assert_eq!(v, 900);
    }

    #[test]
    fn dequeue_any_ignores_service() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue(5, "x").unwrap();
        assert!(rq.dequeue(1).is_none());
        assert!(rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::ZERO)
            .is_some());
    }

    #[test]
    fn counters() {
        let mut rq = RequestQueue::new(2);
        let a = rq.enqueue(1, ()).unwrap();
        rq.enqueue(1, ()).unwrap();
        let _ = rq.enqueue(1, ());
        assert_eq!(rq.enqueue_count(), 2);
        rq.dequeue(1).unwrap();
        assert_eq!(rq.count_status(RqEntryStatus::Running), 1);
        assert_eq!(rq.count_status(RqEntryStatus::Ready), 1);
        let _ = a;
    }

    #[test]
    fn partitioned_isolation() {
        let mut rq: PartitionedRq<u32> = PartitionedRq::new(8);
        rq.set_share(1, 2);
        rq.set_share(2, 6);
        rq.enqueue(1, 10).unwrap();
        rq.enqueue(1, 11).unwrap();
        // Service 1's partition is full even though service 2 has room.
        assert_eq!(rq.enqueue(1, 12), Err(RqError::Full));
        assert!(rq.enqueue(2, 20).is_ok());
    }

    #[test]
    fn partitioned_lifecycle() {
        let mut rq: PartitionedRq<&str> = PartitionedRq::new(8);
        rq.set_share(3, 4);
        let s = rq.enqueue(3, "req").unwrap();
        let (got, _) = rq.dequeue(3).unwrap();
        assert_eq!(got, s);
        rq.block(3, s).unwrap();
        rq.unblock(3, s).unwrap();
        rq.dequeue(3).unwrap();
        rq.complete(3, s).unwrap();
        assert!(!rq.has_ready(3));
    }

    #[test]
    fn partitioned_unknown_service_errors() {
        let mut rq: PartitionedRq<u32> = PartitionedRq::new(8);
        let fake = {
            let mut tmp: RequestQueue<u32> = RequestQueue::new(1);
            tmp.enqueue(9, 0).unwrap()
        };
        assert_eq!(rq.block(9, fake), Err(RqError::StaleSlot));
        assert!(rq.dequeue(9).is_none());
    }

    #[test]
    fn timed_dequeue_reports_ready_wait() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue_at(1, "a", Cycles::new(100)).unwrap();
        rq.enqueue_at(1, "b", Cycles::new(130)).unwrap();
        let (_, &ctx, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(150))
            .unwrap();
        assert_eq!(ctx, "a");
        assert_eq!(wait, Cycles::new(50));
        let (_, _, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(160))
            .unwrap();
        assert_eq!(wait, Cycles::new(30));
    }

    #[test]
    fn unblock_at_restarts_the_wait_clock() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue_at(1, (), Cycles::new(0)).unwrap();
        rq.dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(10))
            .unwrap();
        rq.block(a).unwrap();
        rq.unblock_at(a, Cycles::new(500)).unwrap();
        let (_, _, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(520))
            .unwrap();
        // Only the post-unblock span counts, not the blocked interval.
        assert_eq!(wait, Cycles::new(20));
    }

    #[test]
    fn timed_dequeue_racing_insertion_clamps_to_zero() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue_at(1, (), Cycles::new(100)).unwrap();
        // A core dispatching "in the past" (insertion raced the idle scan)
        // must see zero wait, not an underflow.
        let (_, _, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(40))
            .unwrap();
        assert_eq!(wait, Cycles::ZERO);
    }

    #[test]
    fn repartition_empty_queue() {
        let mut rq: PartitionedRq<u32> = PartitionedRq::new(64);
        rq.set_share(1, 16);
        rq.set_share(1, 32); // grow while empty: fine
        rq.enqueue(1, 1).unwrap();
        assert!(rq.dequeue(1).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Enqueue(u32),
        Dequeue(u32),
        BlockNewest,
        UnblockOldestBlocked,
        CompleteNewestRunning,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..3).prop_map(Op::Enqueue),
            (0u32..3).prop_map(Op::Dequeue),
            Just(Op::BlockNewest),
            Just(Op::UnblockOldestBlocked),
            Just(Op::CompleteNewestRunning),
        ]
    }

    proptest! {
        /// The RQ never exceeds capacity, never loses a request silently,
        /// and status transitions always go through legal paths.
        #[test]
        fn rq_state_machine(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut rq: RequestQueue<u64> = RequestQueue::new(8);
            let mut running: Vec<RqSlot> = Vec::new();
            let mut blocked: Vec<RqSlot> = Vec::new();
            let mut accepted = 0u64;
            let mut completed = 0u64;
            for op in ops {
                match op {
                    Op::Enqueue(svc) => {
                        if rq.enqueue(svc, 0).is_ok() {
                            accepted += 1;
                        }
                    }
                    Op::Dequeue(svc) => {
                        if let Some((slot, _)) = rq.dequeue(svc) {
                            running.push(slot);
                        }
                    }
                    Op::BlockNewest => {
                        if let Some(slot) = running.pop() {
                            rq.block(slot).expect("running slot blocks");
                            blocked.push(slot);
                        }
                    }
                    Op::UnblockOldestBlocked => {
                        if !blocked.is_empty() {
                            let slot = blocked.remove(0);
                            rq.unblock(slot).expect("blocked slot unblocks");
                        }
                    }
                    Op::CompleteNewestRunning => {
                        if let Some(slot) = running.pop() {
                            rq.complete(slot).expect("running slot completes");
                            completed += 1;
                        }
                    }
                }
                prop_assert!(rq.len() <= rq.capacity());
            }
            // Everything accepted is either still tracked or completed;
            // finished entries awaiting head reclamation are both, so
            // subtract them once.
            let live = rq.len() as u64;
            let finished_unreclaimed = rq.count_status(RqEntryStatus::Finished) as u64;
            prop_assert_eq!(accepted, completed + live - finished_unreclaimed);
        }
    }

    /// One step of the differential test. `Block`, `Unblock` and
    /// `Complete` index the entries in the status they need, oldest
    /// first, modulo their count.
    #[derive(Clone, Debug)]
    enum DiffOp {
        Enqueue {
            service: u32,
            remaining: u64,
        },
        /// The service-filtered FCFS `dequeue`.
        Dequeue(u32),
        /// `dequeue_any_with_at`, SRPT when `true`.
        DequeueAny(bool),
        Block(usize),
        Unblock(usize),
        Complete(usize),
    }

    fn diff_op_strategy() -> impl Strategy<Value = DiffOp> {
        prop_oneof![
            3 => (0u32..3, 0u64..8)
                .prop_map(|(service, remaining)| DiffOp::Enqueue { service, remaining }),
            1 => (0u32..3).prop_map(DiffOp::Dequeue),
            2 => proptest::bool::ANY.prop_map(DiffOp::DequeueAny),
            2 => (0usize..16).prop_map(DiffOp::Block),
            2 => (0usize..16).prop_map(DiffOp::Unblock),
            2 => (0usize..16).prop_map(DiffOp::Complete),
        ]
    }

    #[derive(Clone, Debug)]
    struct RefEntry {
        slot: RqSlot,
        service: u32,
        status: RqEntryStatus,
        ready_since: Cycles,
        remaining: u64,
    }

    /// The reference RQ: every live entry (Finished-but-unreclaimed
    /// included) in enqueue order, scanned in full at every dequeue. The
    /// `n`-th accepted request gets generation `n`.
    struct Reference {
        capacity: usize,
        accepted: u64,
        live: Vec<RefEntry>,
    }

    impl Reference {
        fn enqueue(
            &mut self,
            service: u32,
            remaining: u64,
            now: Cycles,
        ) -> Result<RqSlot, RqError> {
            if self.live.len() == self.capacity {
                return Err(RqError::Full);
            }
            let slot = RqSlot {
                generation: self.accepted,
            };
            self.accepted += 1;
            self.live.push(RefEntry {
                slot,
                service,
                status: RqEntryStatus::Ready,
                ready_since: now,
                remaining,
            });
            Ok(slot)
        }

        fn dequeue(
            &mut self,
            service: Option<u32>,
            policy: DequeuePolicy,
            now: Cycles,
        ) -> Option<(RqSlot, u64, Cycles)> {
            let mut ready = self.live.iter_mut().filter(|e| {
                e.status == RqEntryStatus::Ready && service.is_none_or(|svc| e.service == svc)
            });
            let e = match policy {
                DequeuePolicy::Fcfs => ready.next(),
                DequeuePolicy::Srpt => ready.reduce(|best, e| {
                    if e.remaining < best.remaining {
                        e
                    } else {
                        best
                    }
                }),
            }?;
            e.status = RqEntryStatus::Running;
            Some((e.slot, e.remaining, now.saturating_sub(e.ready_since)))
        }

        fn pick(&self, status: RqEntryStatus, k: usize) -> Option<RqSlot> {
            let matching: Vec<RqSlot> = self
                .live
                .iter()
                .filter(|e| e.status == status)
                .map(|e| e.slot)
                .collect();
            (!matching.is_empty()).then(|| matching[k % matching.len()])
        }

        fn set(&mut self, slot: RqSlot, status: RqEntryStatus, now: Cycles) {
            let e = self
                .live
                .iter_mut()
                .find(|e| e.slot == slot)
                .expect("picked entry is live");
            e.status = status;
            e.ready_since = now;
            while self
                .live
                .first()
                .is_some_and(|e| e.status == RqEntryStatus::Finished)
            {
                self.live.remove(0);
            }
        }

        fn count(&self, status: RqEntryStatus) -> usize {
            self.live.iter().filter(|e| e.status == status).count()
        }
    }

    fn capacity_strategy() -> impl Strategy<Value = usize> {
        prop_oneof![3 => 1usize..17, 1 => Just(512usize)]
    }

    proptest! {
        /// The RQ claims exactly the entry a full scan of the live entries
        /// in enqueue order would, with the same wait, and finds nothing
        /// exactly when that scan finds nothing Ready. `shift` warm-up
        /// rounds first advance the head's enqueue number, so handles are
        /// looked up at an offset; random completions leave Finished holes and
        /// random blocks park Blocked entries ahead of Ready ones.
        #[test]
        fn rq_matches_full_scan_reference(
            capacity in capacity_strategy(),
            shift in 0usize..1100,
            ops in proptest::collection::vec((diff_op_strategy(), 0u64..20), 1..400),
        ) {
            #[cfg(feature = "sim-sanitizer")]
            let _ = um_sim::sanitizer::take();
            let mut rq: RequestQueue<u64> = RequestQueue::new(capacity);
            let mut reference = Reference { capacity, accepted: 0, live: Vec::new() };
            let warm_up = [DiffOp::Enqueue { service: 0, remaining: 0 }, DiffOp::DequeueAny(false), DiffOp::Complete(0)];
            let steps = warm_up.iter().cloned().map(|op| (op, 0)).cycle().take(3 * shift).chain(ops);
            let mut now = Cycles::ZERO;
            for (op, dt) in steps {
                now += Cycles::new(dt);
                match op {
                    DiffOp::Enqueue { service, remaining } => {
                        prop_assert_eq!(
                            rq.enqueue_at(service, remaining, now),
                            reference.enqueue(service, remaining, now)
                        );
                    }
                    DiffOp::Dequeue(service) => {
                        prop_assert_eq!(
                            rq.dequeue(service).map(|(slot, &ctx)| (slot, ctx)),
                            reference
                                .dequeue(Some(service), DequeuePolicy::Fcfs, now)
                                .map(|(slot, ctx, _)| (slot, ctx))
                        );
                    }
                    DiffOp::DequeueAny(srpt) => {
                        let policy = if srpt { DequeuePolicy::Srpt } else { DequeuePolicy::Fcfs };
                        prop_assert_eq!(
                            rq.dequeue_any_with_at(policy, |&rem| rem, now)
                                .map(|(slot, &ctx, wait)| (slot, ctx, wait)),
                            reference.dequeue(None, policy, now)
                        );
                    }
                    DiffOp::Block(k) => {
                        if let Some(slot) = reference.pick(RqEntryStatus::Running, k) {
                            prop_assert_eq!(rq.block(slot), Ok(()));
                            reference.set(slot, RqEntryStatus::Blocked, now);
                        }
                    }
                    DiffOp::Unblock(k) => {
                        if let Some(slot) = reference.pick(RqEntryStatus::Blocked, k) {
                            prop_assert_eq!(rq.unblock_at(slot, now), Ok(()));
                            reference.set(slot, RqEntryStatus::Ready, now);
                        }
                    }
                    DiffOp::Complete(k) => {
                        if let Some(slot) = reference.pick(RqEntryStatus::Running, k) {
                            prop_assert_eq!(rq.complete(slot), Ok(()));
                            reference.set(slot, RqEntryStatus::Finished, now);
                        }
                    }
                }
                prop_assert_eq!(rq.len(), reference.live.len());
                for status in [
                    RqEntryStatus::Ready,
                    RqEntryStatus::Running,
                    RqEntryStatus::Blocked,
                    RqEntryStatus::Finished,
                ] {
                    prop_assert_eq!(rq.count_status(status), reference.count(status));
                }
                for service in 0..3 {
                    prop_assert_eq!(
                        rq.has_ready(service),
                        reference.live.iter().any(|e| e.status == RqEntryStatus::Ready && e.service == service)
                    );
                }
            }
            #[cfg(feature = "sim-sanitizer")]
            prop_assert_eq!(um_sim::sanitizer::violation_count(), 0);
        }
    }
}
