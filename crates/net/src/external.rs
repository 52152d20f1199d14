//! Inter-server datacenter network (Table 2).
//!
//! Requests travel between the 10 servers of the evaluated cluster over a
//! lossy external network with a 1 us round trip and 200 GB/s of NIC
//! bandwidth per server. The R-NIC handles retransmission and congestion
//! control (§4.1); at the timescales simulated, its effect is the base RTT
//! plus serialization and NIC-queueing delay, which is what this model
//! charges.

use um_sim::{Cycles, Frequency};

/// Attribution of one external send from
/// [`ExternalNetwork::send_traced`]: the shares are exhaustive,
/// `arrival == depart + queued + serialization + propagation + jitter`
/// (all zero for a same-server send).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExternalSendTrace {
    /// When the message arrives at the destination server.
    pub arrival: Cycles,
    /// Cycles queued behind earlier messages at the source NIC.
    pub queued: Cycles,
    /// NIC serialization cycles for this message.
    pub serialization: Cycles,
    /// One-way propagation delay charged.
    pub propagation: Cycles,
    /// Caller-supplied per-message propagation jitter (zero for
    /// [`ExternalNetwork::send_traced`]; the cluster fabric samples it
    /// from its latency distribution and passes it to
    /// [`ExternalNetwork::send_traced_jittered`]).
    pub jitter: Cycles,
}

/// The inter-server network: per-server NIC egress queues plus a fixed
/// propagation delay.
///
/// # Examples
///
/// ```
/// use um_net::ExternalNetwork;
/// use um_sim::{Cycles, Frequency};
///
/// let f = Frequency::ghz(2.0);
/// let mut net = ExternalNetwork::paper_default(10, f);
/// let arrive = net.send(0, 1, 1024, Cycles::ZERO);
/// assert!(arrive >= Cycles::new(1000)); // >= one-way 0.5us at 2 GHz
/// ```
#[derive(Clone, Debug)]
pub struct ExternalNetwork {
    servers: usize,
    /// One-way propagation latency.
    one_way: Cycles,
    /// NIC egress bandwidth in bytes per cycle.
    bytes_per_cycle: f64,
    /// Per-server NIC egress availability.
    nic_free_at: Vec<Cycles>,
}

impl ExternalNetwork {
    /// Table 2 parameters: 1 us RTT (0.5 us one way) and 200 GB/s per NIC,
    /// expressed in cycles at the package frequency `freq`.
    pub fn paper_default(servers: usize, freq: Frequency) -> Self {
        // 200 GB/s at f GHz = 200 / f bytes per cycle.
        Self::new(
            servers,
            Cycles::from_micros(0.5, freq),
            200.0 / freq.as_ghz(),
        )
    }

    /// Creates an external network.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero or bandwidth is non-positive.
    pub fn new(servers: usize, one_way: Cycles, bytes_per_cycle: f64) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        Self {
            servers,
            one_way,
            bytes_per_cycle,
            nic_free_at: vec![Cycles::ZERO; servers],
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Sends `bytes` from `src` server to `dst` server departing at
    /// `depart`; returns the arrival time.
    ///
    /// A same-server send costs nothing extra here (it never leaves the
    /// package; the on-package network models that path).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, depart: Cycles) -> Cycles {
        self.send_traced(src, dst, bytes, depart).arrival
    }

    /// Like [`Self::send`], returning the message's full latency
    /// attribution for per-request breakdowns.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send_traced(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        depart: Cycles,
    ) -> ExternalSendTrace {
        self.send_traced_jittered(src, dst, bytes, depart, Cycles::ZERO)
    }

    /// Like [`Self::send_traced`] with an extra per-message propagation
    /// `jitter` on top of the fixed one-way delay. The rack-fabric model
    /// in the cluster layer samples jitter from its configured latency
    /// distribution and threads it through here so NIC queueing still
    /// serializes at the source; the shares stay exhaustive
    /// (`arrival == depart + queued + serialization + propagation +
    /// jitter`). Jitter delays propagation only — it does not hold the
    /// source NIC.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send_traced_jittered(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        depart: Cycles,
        jitter: Cycles,
    ) -> ExternalSendTrace {
        assert!(
            src < self.servers && dst < self.servers,
            "server out of range"
        );
        if src == dst {
            return ExternalSendTrace {
                arrival: depart,
                ..ExternalSendTrace::default()
            };
        }
        let ser = Cycles::new(((bytes as f64 / self.bytes_per_cycle).ceil() as u64).max(1));
        let start = depart.max(self.nic_free_at[src]);
        let queued = start - depart;
        self.nic_free_at[src] = start + ser;
        ExternalSendTrace {
            arrival: start + ser + self.one_way + jitter,
            queued,
            serialization: ser,
            propagation: self.one_way,
            jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq() -> Frequency {
        Frequency::ghz(2.0)
    }

    #[test]
    fn base_latency_is_half_rtt_plus_serialization() {
        let mut n = ExternalNetwork::paper_default(2, freq());
        let arr = n.send(0, 1, 100, Cycles::ZERO);
        // 0.5us at 2GHz = 1000 cycles; 100B at 100 B/cycle = 1 cycle.
        assert_eq!(arr, Cycles::new(1001));
    }

    #[test]
    fn same_server_is_free() {
        let mut n = ExternalNetwork::paper_default(4, freq());
        assert_eq!(n.send(2, 2, 1_000_000, Cycles::new(5)), Cycles::new(5));
    }

    #[test]
    fn nic_serializes_egress() {
        let mut n = ExternalNetwork::new(2, Cycles::new(100), 1.0);
        let a = n.send(0, 1, 50, Cycles::ZERO);
        let b = n.send(0, 1, 50, Cycles::ZERO);
        assert_eq!(a, Cycles::new(150));
        assert_eq!(b, Cycles::new(200)); // queued 50 behind the first
    }

    #[test]
    fn different_sources_do_not_contend() {
        let mut n = ExternalNetwork::new(3, Cycles::new(100), 1.0);
        let a = n.send(0, 2, 50, Cycles::ZERO);
        let b = n.send(1, 2, 50, Cycles::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_shares_are_exhaustive() {
        let mut n = ExternalNetwork::new(2, Cycles::new(100), 1.0);
        n.send(0, 1, 50, Cycles::ZERO);
        let tr = n.send_traced(0, 1, 30, Cycles::new(10));
        // Queues behind the first message's 50-cycle serialization.
        assert_eq!(tr.queued, Cycles::new(40));
        assert_eq!(tr.serialization, Cycles::new(30));
        assert_eq!(tr.propagation, Cycles::new(100));
        assert_eq!(
            tr.arrival,
            Cycles::new(10) + tr.queued + tr.serialization + tr.propagation
        );
    }

    #[test]
    fn traced_same_server_is_all_zero() {
        let mut n = ExternalNetwork::new(2, Cycles::new(100), 1.0);
        let tr = n.send_traced(1, 1, 999, Cycles::new(7));
        assert_eq!(tr.arrival, Cycles::new(7));
        assert_eq!(tr.queued + tr.serialization + tr.propagation, Cycles::ZERO);
    }

    #[test]
    fn jitter_extends_propagation_but_not_nic_occupancy() {
        let mut n = ExternalNetwork::new(2, Cycles::new(100), 1.0);
        let a = n.send_traced_jittered(0, 1, 50, Cycles::ZERO, Cycles::new(30));
        assert_eq!(a.jitter, Cycles::new(30));
        assert_eq!(
            a.arrival,
            a.queued + a.serialization + a.propagation + a.jitter
        );
        assert_eq!(a.arrival, Cycles::new(180));
        // The next message queues behind serialization only, not jitter.
        let b = n.send_traced_jittered(0, 1, 50, Cycles::ZERO, Cycles::ZERO);
        assert_eq!(b.queued, Cycles::new(50));
    }

    #[test]
    #[should_panic(expected = "server out of range")]
    fn out_of_range_server() {
        let mut n = ExternalNetwork::new(2, Cycles::new(10), 1.0);
        n.send(0, 5, 10, Cycles::ZERO);
    }
}
