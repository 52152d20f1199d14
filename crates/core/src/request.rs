//! In-flight request state and the recycled slot table that holds it.

use um_sim::trace::LatencyBreakdown;
use um_sim::Cycles;
use um_workload::{RequestPlan, RpcKind, ServiceId};

/// A slot in the simulation's request table. Slots are recycled once
/// their request is done and nothing names it any more (DESIGN.md,
/// "Request table"), so a `ReqId` identifies a request only while it is
/// in flight; it is not an identity across the run.
pub type ReqId = usize;

/// Who receives a request's final response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// An external client (latency is recorded when the response leaves).
    Client {
        /// Time the client sent the request.
        sent_at: Cycles,
    },
    /// A parent request blocked on this call.
    Parent {
        /// The blocked parent request.
        req: ReqId,
        /// The parent RPC operation this child answers. A response whose
        /// generation no longer matches the parent's current operation
        /// (a late hedge, a retried call's first attempt) is an orphan:
        /// its breakdown is conservation-checked but never merged.
        gen: u32,
    },
}

/// Lifecycle phase of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Travelling to or waiting in its village's queue.
    Queued,
    /// Executing a segment on a core.
    Running,
    /// Blocked on an outstanding RPC.
    Blocked,
    /// Finished (response sent).
    Done,
}

/// One request's mutable simulation state.
#[derive(Clone, Debug)]
pub struct Request {
    /// The sampled execution plan.
    pub plan: RequestPlan,
    /// Which segment executes next (index into `plan.segments`).
    pub next_segment: usize,
    /// Current phase.
    pub phase: Phase,
    /// Where the final response goes.
    pub origin: Origin,
    /// Server the request executes on.
    pub server: usize,
    /// Village (queue) the request belongs to.
    pub village: usize,
    /// Whether the request has run on a core before (controls the
    /// migration-coherence charge and the context-restore cost).
    pub has_run: bool,
    /// Arrival time at the village queue (for queueing-delay stats).
    pub enqueued_at: Cycles,
    /// Slot in the village's hardware Request Queue, when the machine
    /// schedules in hardware and the request is admitted.
    pub rq_slot: Option<um_sched::RqSlot>,
    /// When this request's lifetime began: the client send time for roots,
    /// the parent's call-issue time for child requests. The conservation
    /// invariant compares the breakdown total against the span from here
    /// to response delivery.
    pub spawned_at: Cycles,
    /// Cycle-exact latency attribution: where every cycle of this
    /// request's lifetime went. Components sum to the end-to-end latency
    /// (checked at completion); a child's breakdown is merged into its
    /// parent's when the response arrives.
    pub breakdown: LatencyBreakdown,
    /// Whether any RPC operation of this request (or of a merged child)
    /// exhausted its attempts; gave-up requests complete immediately and
    /// are excluded from latency samples.
    pub gave_up: bool,
    /// Generation of the current (or most recent) RPC operation; bumped
    /// when an operation begins, so stale attempt events are ignored.
    pub op_gen: u32,
    /// Whether the current operation has resolved (winner delivered or
    /// given up).
    pub op_resolved: bool,
    /// Attempts issued for the current operation.
    pub op_attempts: u32,
    /// When the current operation began (the block time); the gap to the
    /// winning attempt's issue time is charged to `Resilience`.
    pub op_started_at: Cycles,
    /// The RPC the current operation performs (needed to reissue it on a
    /// retry).
    pub op_rpc: Option<RpcKind>,
    /// Village the current operation's primary call attempt targeted
    /// (hedges prefer a different one).
    pub op_village: usize,
    /// Cluster-layer correlation token for injected root requests: the
    /// load balancer's request index. `None` for requests the package's
    /// own arrival process generated; `Some` routes the completion into
    /// the node's completion outbox instead of ending at the package edge.
    pub cluster_token: Option<u64>,
    /// What still names this request's slot after it is done: pending
    /// `StorageDone`, `HedgeFire` and `RpcTimeout` events, plus live
    /// children (whose completion reads this request's village and
    /// operation state). The slot is recycled when the request is
    /// [`Phase::Done`] and this count is zero.
    pub(crate) pins: u32,
}

impl Request {
    /// Creates a freshly planned request bound to a village.
    pub fn new(plan: RequestPlan, origin: Origin, server: usize, village: usize) -> Self {
        assert!(
            !plan.segments.is_empty(),
            "a request plan needs at least one segment"
        );
        Self {
            plan,
            next_segment: 0,
            phase: Phase::Queued,
            origin,
            server,
            village,
            has_run: false,
            enqueued_at: Cycles::ZERO,
            rq_slot: None,
            spawned_at: Cycles::ZERO,
            breakdown: LatencyBreakdown::new(),
            gave_up: false,
            op_gen: 0,
            op_resolved: true,
            op_attempts: 0,
            op_started_at: Cycles::ZERO,
            op_rpc: None,
            op_village: 0,
            cluster_token: None,
            pins: 0,
        }
    }

    /// Re-initializes a recycled slot for a new request whose plan has
    /// already been sampled into `self.plan` (keeping the plan's segment
    /// buffer); every other field starts as in [`Request::new`].
    pub fn rebind(&mut self, origin: Origin, server: usize, village: usize) {
        let plan = RequestPlan {
            service: self.plan.service,
            segments: std::mem::take(&mut self.plan.segments),
        };
        *self = Request::new(plan, origin, server, village);
    }

    /// The service this request invokes.
    pub fn service(&self) -> ServiceId {
        self.plan.service
    }

    /// Whether the segment about to run is the last one.
    pub fn on_last_segment(&self) -> bool {
        self.next_segment + 1 == self.plan.segments.len()
    }

    /// Whether all segments have run.
    pub fn is_complete(&self) -> bool {
        self.next_segment >= self.plan.segments.len()
    }

    /// Whether operation `gen` is still open: the request is blocked on
    /// it and no attempt has resolved it. A delivery, hedge point or
    /// timeout for a closed operation lost its race.
    pub fn op_open(&self, gen: u32) -> bool {
        self.phase == Phase::Blocked && !self.op_resolved && self.op_gen == gen
    }
}

/// A table whose freed slots are handed out again before it grows, so its
/// size follows the peak number of live entries, not the run length.
/// Freed slots are reused last-freed first.
#[derive(Clone, Debug)]
pub(crate) struct Slots<T> {
    slots: Vec<T>,
    free: Vec<usize>,
}

impl<T> Slots<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Takes a freed slot, if any; it still holds its last occupant.
    pub(crate) fn recycle(&mut self) -> Option<usize> {
        self.free.pop()
    }

    /// Grows the table by one slot holding `value`.
    pub(crate) fn push(&mut self, value: T) -> usize {
        self.slots.push(value);
        self.slots.len() - 1
    }

    /// Stores `value` in a freed slot, or in a new one when none is free.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        match self.recycle() {
            Some(id) => {
                self.slots[id] = value;
                id
            }
            None => self.push(value),
        }
    }

    /// Returns a slot to the free list.
    pub(crate) fn release(&mut self, id: usize) {
        self.free.push(id);
    }

    /// Slots ever allocated: the table's size.
    #[cfg(any(test, feature = "sim-sanitizer"))]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The freed slots, in release order.
    #[cfg(feature = "sim-sanitizer")]
    pub(crate) fn free_list(&self) -> &[usize] {
        &self.free
    }

    /// Every slot, live or freed, by index.
    #[cfg(feature = "sim-sanitizer")]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter()
    }
}

impl<T> std::ops::Index<usize> for Slots<T> {
    type Output = T;

    fn index(&self, id: usize) -> &T {
        &self.slots[id]
    }
}

impl<T> std::ops::IndexMut<usize> for Slots<T> {
    fn index_mut(&mut self, id: usize) -> &mut T {
        &mut self.slots[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use um_workload::{RpcKind, Segment};

    fn plan(n_segments: usize) -> RequestPlan {
        RequestPlan {
            service: ServiceId::new(1),
            segments: (0..n_segments)
                .map(|i| Segment {
                    compute_us: 10.0,
                    rpc: (i + 1 < n_segments).then_some(RpcKind::Storage { bytes: 64 }),
                })
                .collect(),
        }
    }

    #[test]
    fn lifecycle_flags() {
        let mut r = Request::new(
            plan(2),
            Origin::Client {
                sent_at: Cycles::ZERO,
            },
            0,
            3,
        );
        assert_eq!(r.phase, Phase::Queued);
        assert!(!r.on_last_segment() || r.plan.segments.len() == 1);
        r.next_segment = 1;
        assert!(r.on_last_segment());
        r.next_segment = 2;
        assert!(r.is_complete());
    }

    #[test]
    fn rebind_resets_state_and_keeps_the_plan_buffer() {
        let mut r = Request::new(
            plan(3),
            Origin::Client {
                sent_at: Cycles::new(5),
            },
            1,
            2,
        );
        r.next_segment = 2;
        r.phase = Phase::Done;
        r.pins = 0;
        r.gave_up = true;
        let buffer = r.plan.segments.as_ptr();
        r.rebind(Origin::Parent { req: 7, gen: 3 }, 0, 4);
        assert_eq!(r.plan.segments.as_ptr(), buffer, "segment buffer reused");
        assert_eq!(r.plan.segments.len(), 3);
        assert_eq!(
            (r.next_segment, r.phase, r.server, r.village),
            (0, Phase::Queued, 0, 4)
        );
        assert_eq!(r.origin, Origin::Parent { req: 7, gen: 3 });
        assert!(!r.gave_up);
    }

    #[test]
    fn slots_reuse_freed_entries_last_freed_first() {
        let mut t = Slots::new();
        let a = t.insert('a');
        let b = t.insert('b');
        let c = t.insert('c');
        assert_eq!((a, b, c), (0, 1, 2));
        t.release(a);
        t.release(c);
        assert_eq!(t.insert('d'), c);
        assert_eq!(t.insert('e'), a);
        assert_eq!(t.insert('f'), 3);
        assert_eq!(t.len(), 4);
        assert_eq!((t[0], t[1], t[2], t[3]), ('e', 'b', 'd', 'f'));
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_plan_rejected() {
        let empty = RequestPlan {
            service: ServiceId::new(0),
            segments: vec![],
        };
        Request::new(
            empty,
            Origin::Client {
                sent_at: Cycles::ZERO,
            },
            0,
            0,
        );
    }
}
