//! Per-request latency provenance: where did every cycle go?
//!
//! The paper's core claims are *decompositions* of tail latency — queueing,
//! context switching, RPC processing, coherence and interconnect transit
//! (Figs 3/6/9) — so the simulator needs first-class attribution, not an
//! after-the-fact analytic estimate. This module provides the vocabulary:
//!
//! - [`Component`]: the component taxonomy — every cycle of a request's life
//!   belongs to exactly one component.
//! - [`LatencyBreakdown`]: a per-request accumulator of cycles by
//!   component, with the conservation-friendly invariant that charges are
//!   exact cycle counts (no floats, no rounding drift).
//!
//! The event loop charges each interval as it closes: a request's queue
//! wait, for instance, is charged at dispatch as the time since its
//! insert completed.
//!
//! The headline invariant, enforced by the system simulator's debug
//! assertions and the `latency_conservation` property suite: **a request's
//! breakdown components sum to its end-to-end latency, to the cycle**.
//!
//! # Examples
//!
//! ```
//! use um_sim::trace::{Component, LatencyBreakdown};
//! use um_sim::Cycles;
//!
//! let mut bd = LatencyBreakdown::new();
//! bd.charge(Component::QueueWait, Cycles::new(150) - Cycles::new(100));
//! bd.charge(Component::Compute, Cycles::new(200));
//! assert_eq!(bd.get(Component::QueueWait), Cycles::new(50));
//! assert_eq!(bd.total(), Cycles::new(250));
//! ```

use crate::time::Cycles;
use std::fmt;

/// One source of request latency. Every cycle between a request's spawn
/// and the delivery of its response is charged to exactly one component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Component {
    /// Off-package network: client/inter-server RTT shares, NIC ingress
    /// processing, external-fabric serialization and NIC queueing.
    ExternalNet,
    /// On-package interconnect transit: hop latency, link serialization
    /// and link-contention queueing for request/response messages.
    IcnTransit,
    /// Waiting for a core: ready-queue residence plus software queue-lock
    /// serialization delays.
    QueueWait,
    /// Scheduling operations on the request path: enqueue/dequeue/complete
    /// instruction costs and work-stealing overhead.
    SchedOp,
    /// Context-switch state movement on the request path (the restore
    /// half; the save half delays the *core*, not the request).
    CtxSwitch,
    /// RPC-layer processing occupying the core: transport, (de)serialization,
    /// dispatch — software stack or hardware NIC hand-off.
    RpcProcessing,
    /// The handler's own compute.
    Compute,
    /// Coherence overhead: directory traffic and migration-induced
    /// refetch of warm state.
    CoherenceStall,
    /// DRAM/memory-system stall: the segment's working-set traffic
    /// queueing on ICN links.
    MemStall,
    /// External storage tier service time.
    StorageService,
    /// Software interference hiccups (kernel preemption, interrupts,
    /// daemons — the tail-at-scale mechanism).
    Interference,
    /// Resilience machinery on the request path: time an RPC operation
    /// spent waiting on attempts that did not win (retry timeouts and
    /// backoff, hedge delay before the winning attempt was issued, and
    /// the full wait of an operation that exhausted its attempts).
    Resilience,
    /// Cluster-fabric time outside any single package: load-balancer
    /// admission-queue wait plus the LB→node request leg and the node→LB
    /// response leg of the inter-node network (NIC queueing, serialization,
    /// propagation and jitter on the rack fabric).
    ClusterHop,
}

impl Component {
    /// Number of components.
    pub const COUNT: usize = 13;

    /// All components, in display order.
    pub const ALL: [Component; Self::COUNT] = [
        Component::ExternalNet,
        Component::IcnTransit,
        Component::QueueWait,
        Component::SchedOp,
        Component::CtxSwitch,
        Component::RpcProcessing,
        Component::Compute,
        Component::CoherenceStall,
        Component::MemStall,
        Component::StorageService,
        Component::Interference,
        Component::Resilience,
        Component::ClusterHop,
    ];

    /// Stable index of this component in [`Component::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Component::ExternalNet => 0,
            Component::IcnTransit => 1,
            Component::QueueWait => 2,
            Component::SchedOp => 3,
            Component::CtxSwitch => 4,
            Component::RpcProcessing => 5,
            Component::Compute => 6,
            Component::CoherenceStall => 7,
            Component::MemStall => 8,
            Component::StorageService => 9,
            Component::Interference => 10,
            Component::Resilience => 11,
            Component::ClusterHop => 12,
        }
    }

    /// Short display name for reports and tables.
    pub const fn name(self) -> &'static str {
        match self {
            Component::ExternalNet => "external-net",
            Component::IcnTransit => "icn-transit",
            Component::QueueWait => "queue-wait",
            Component::SchedOp => "sched-op",
            Component::CtxSwitch => "ctx-switch",
            Component::RpcProcessing => "rpc-processing",
            Component::Compute => "compute",
            Component::CoherenceStall => "coherence-stall",
            Component::MemStall => "mem-stall",
            Component::StorageService => "storage-service",
            Component::Interference => "interference",
            Component::Resilience => "resilience",
            Component::ClusterHop => "cluster-hop",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cycles a request has spent in each [`Component`].
///
/// Charges saturate like [`Cycles`] addition; `merge` folds a child
/// request's breakdown into its parent's (the caller's blocked-on-call
/// interval is exactly the callee's lifetime, so downstream time lands in
/// the callee's components — never double-counted as caller queue wait).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    cycles: [Cycles; Component::COUNT],
}

impl LatencyBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to `component`.
    pub fn charge(&mut self, component: Component, amount: Cycles) {
        self.cycles[component.index()] += amount;
    }

    /// Cycles charged to `component` so far.
    pub fn get(&self, component: Component) -> Cycles {
        self.cycles[component.index()]
    }

    /// Sum over all components — equal to the request's end-to-end
    /// lifetime when the event loop charged every interval.
    pub fn total(&self) -> Cycles {
        self.cycles.iter().copied().sum()
    }

    /// Folds `other` (a finished child request) into this breakdown.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        for (mine, theirs) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *mine += *theirs;
        }
    }

    /// Iterates `(component, cycles)` pairs in [`Component::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, Cycles)> + '_ {
        Component::ALL.iter().map(|&c| (c, self.cycles[c.index()]))
    }
}

impl fmt::Display for LatencyBreakdown {
    /// Non-zero components only, e.g. `queue-wait=50cyc compute=200cyc`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (c, v) in self.iter() {
            if v == Cycles::ZERO {
                continue;
            }
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{c}={v}")?;
            first = false;
        }
        if first {
            f.write_str("(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
        }
        assert_eq!(Component::ALL.len(), Component::COUNT);
    }

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Component::COUNT);
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn charges_accumulate_and_total() {
        let mut bd = LatencyBreakdown::new();
        bd.charge(Component::Compute, Cycles::new(100));
        bd.charge(Component::Compute, Cycles::new(50));
        bd.charge(Component::QueueWait, Cycles::new(7));
        assert_eq!(bd.get(Component::Compute), Cycles::new(150));
        assert_eq!(bd.get(Component::MemStall), Cycles::ZERO);
        assert_eq!(bd.total(), Cycles::new(157));
    }

    #[test]
    fn merge_is_componentwise_addition() {
        let mut parent = LatencyBreakdown::new();
        parent.charge(Component::Compute, Cycles::new(10));
        let mut child = LatencyBreakdown::new();
        child.charge(Component::Compute, Cycles::new(5));
        child.charge(Component::IcnTransit, Cycles::new(3));
        parent.merge(&child);
        assert_eq!(parent.get(Component::Compute), Cycles::new(15));
        assert_eq!(parent.get(Component::IcnTransit), Cycles::new(3));
        assert_eq!(parent.total(), Cycles::new(18));
    }

    #[test]
    fn display_skips_zero_components() {
        let mut bd = LatencyBreakdown::new();
        assert_eq!(bd.to_string(), "(empty)");
        bd.charge(Component::Compute, Cycles::new(9));
        bd.charge(Component::QueueWait, Cycles::new(1));
        let s = bd.to_string();
        assert!(s.contains("compute=9cyc"), "{s}");
        assert!(s.contains("queue-wait=1cyc"), "{s}");
        assert!(!s.contains("mem-stall"), "{s}");
    }

    #[test]
    fn conservation_of_iter() {
        let mut bd = LatencyBreakdown::new();
        for (i, c) in Component::ALL.iter().enumerate() {
            bd.charge(*c, Cycles::new(i as u64 + 1));
        }
        let sum: Cycles = bd.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, bd.total());
    }
}
