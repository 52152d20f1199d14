//! Contention-aware message transport over a topology.
//!
//! The on-package network is lossless with back-pressure (§4.1): a message
//! waits for each link to free rather than being dropped, so contention
//! appears purely as queueing delay. `Network` models each directed link as
//! a resource that serializes messages (`bytes / width` cycles of occupancy)
//! and charges the paper's 5-cycle per-hop router+wire latency (Table 2).

use crate::topology::{LinkId, Topology};
use rand::rngs::SmallRng;
use rand::Rng;
use um_sim::fault::FaultWindow;
use um_sim::{rng, Cycles};

/// How redundant paths are chosen at ECMP branch points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouteStrategy {
    /// Always take the first alternative (degenerates the leaf-spine to a
    /// single-path tree; useful as an ablation).
    Deterministic,
    /// Uniform random choice — classic ECMP hashing.
    RandomEcmp,
    /// Pick the candidate whose first link frees earliest — an idealized
    /// adaptive router. This is the uManycore default.
    #[default]
    LeastLoaded,
}

/// Timing parameters of a [`Network`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Per-hop latency: Table 2 gives 5 cycles (4 router + 1 wire).
    pub hop_latency: Cycles,
    /// Bytes a base-width link moves per cycle.
    pub bytes_per_cycle: f64,
    /// Whether links serialize messages; `false` gives the contention-free
    /// network used as Figure 7's normalization baseline.
    pub contention: bool,
    /// Path-selection strategy at ECMP branch points.
    pub strategy: RouteStrategy,
    /// Seed for the strategy's random stream.
    pub seed: u64,
}

impl NetworkConfig {
    /// The paper's on-package network: 5 cycles/hop (4 router + 1 wire,
    /// Table 2), 8 B/cycle links (chiplet-to-chiplet SERDES-class
    /// bandwidth — the clusters, pools and hubs are separate chiplets),
    /// contention on, least-loaded adaptive routing.
    pub fn on_package() -> Self {
        Self {
            hop_latency: Cycles::new(5),
            bytes_per_cycle: 8.0,
            contention: true,
            strategy: RouteStrategy::LeastLoaded,
            seed: 0x1c4,
        }
    }

    /// Same timing with contention modelling disabled.
    pub fn contention_free() -> Self {
        Self {
            contention: false,
            ..Self::on_package()
        }
    }
}

/// Aggregate transport statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages delivered.
    pub messages: u64,
    /// Total cycles spent queueing for busy links (contention delay).
    pub queue_cycles: u64,
    /// Largest single-message queueing delay seen.
    pub max_queue_cycles: u64,
    /// Total hops traversed.
    pub hops: u64,
}

impl NetworkStats {
    /// Mean queueing delay per message, in cycles.
    pub fn mean_queue(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.queue_cycles as f64 / self.messages as f64
        }
    }
}

/// Full per-message transport attribution from [`Network::send_full`]:
/// splits the message's latency into serialization, contention queueing
/// and per-hop propagation, so callers can charge each to the right
/// latency-breakdown component.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendTrace {
    /// When the message arrives at the destination.
    pub arrival: Cycles,
    /// Cycles spent waiting for busy links (contention).
    pub queued: Cycles,
    /// Cycles spent serializing onto links (sum over hops).
    pub serialization: Cycles,
    /// Links traversed (0 for a self-send).
    pub hops: usize,
}

impl SendTrace {
    /// Propagation share of the latency given the per-hop cost:
    /// `hops * hop_latency` (one hop for a self-send).
    pub fn propagation(&self, hop_latency: Cycles) -> Cycles {
        if self.hops == 0 {
            hop_latency
        } else {
            hop_latency * self.hops as u64
        }
    }
}

/// A topology plus per-link occupancy state: the deliverable-message ICN.
///
/// # Examples
///
/// ```
/// use um_net::{Mesh2D, Network, NetworkConfig};
/// use um_sim::Cycles;
///
/// let mut net = Network::new(Mesh2D::new(4, 4), NetworkConfig::on_package());
/// let t1 = net.send(0, 15, 64, Cycles::ZERO);
/// let t2 = net.send(0, 15, 64, Cycles::ZERO); // same path: queues behind t1
/// assert!(t2 > t1);
/// ```
#[derive(Clone, Debug)]
pub struct Network<T> {
    topo: T,
    config: NetworkConfig,
    busy_until: Vec<Cycles>,
    /// Per-link fault windows (empty outer vec until the first injection).
    faults: Vec<Vec<FaultWindow>>,
    rng: SmallRng,
    stats: NetworkStats,
    /// Route buffer reused by every send, so routing never allocates once
    /// it has grown to the longest route.
    route: Vec<LinkId>,
    /// Per-hop serialization of a burst's route: its first message fills
    /// it and the rest of the burst reads it.
    serializations: Vec<Cycles>,
}

impl<T: Topology> Network<T> {
    /// Wraps `topo` with timing/contention state.
    pub fn new(topo: T, config: NetworkConfig) -> Self {
        let links = topo.num_links();
        Self {
            topo,
            config,
            busy_until: vec![Cycles::ZERO; links],
            faults: Vec::new(),
            rng: rng::stream(config.seed, "network-ecmp"),
            stats: NetworkStats::default(),
            route: Vec::new(),
            serializations: Vec::new(),
        }
    }

    /// Number of directed links (fault injection targets).
    pub fn num_links(&self) -> usize {
        self.busy_until.len()
    }

    /// Registers a fault window on `link` (applied modulo the link count).
    ///
    /// While a degradation window is active, serialization on the link is
    /// stretched by `window.slowdown`; an outage window delays any message
    /// reaching the link until the window closes. Either way the extra
    /// delay is reported in [`SendTrace::queued`], preserving the
    /// telescoping share invariant of [`Self::send_full`].
    pub fn inject_link_fault(&mut self, link: usize, window: FaultWindow) {
        let n = self.busy_until.len();
        if n == 0 {
            return;
        }
        if self.faults.is_empty() {
            self.faults = vec![Vec::new(); n];
        }
        self.faults[link % n].push(window);
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The timing configuration.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Sends `bytes` from endpoint `src` to endpoint `dst`, departing at
    /// `depart`; returns the arrival time at `dst`.
    ///
    /// A self-send (`src == dst`) is delivered after one hop latency,
    /// modelling the local hub traversal.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, depart: Cycles) -> Cycles {
        self.send_traced(src, dst, bytes, depart).0
    }

    /// Like [`Self::send`], but also returns the total queueing (link
    /// contention) delay the message experienced — the part of its latency
    /// beyond an uncontended traversal.
    pub fn send_traced(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        depart: Cycles,
    ) -> (Cycles, Cycles) {
        let trace = self.send_full(src, dst, bytes, depart);
        (trace.arrival, trace.queued)
    }

    /// Like [`Self::send`], returning the message's full latency
    /// attribution. The shares are exhaustive:
    /// `arrival == depart + serialization + queued + propagation`.
    pub fn send_full(&mut self, src: usize, dst: usize, bytes: u64, depart: Cycles) -> SendTrace {
        let mut route = std::mem::take(&mut self.route);
        self.build_route(src, dst, depart, &mut route);
        let trace = self.traverse(&route, bytes, depart, 1);
        self.route = route;
        trace
    }

    /// Sends `n` messages of `bytes` from `src` to `dst`, all departing at
    /// `depart`, and returns their summed queueing delay. Exactly
    /// equivalent to `n` back-to-back [`Self::send_traced`] calls: the same
    /// link occupancy, statistics and ECMP draws.
    ///
    /// A route whose building never consulted the chooser (every mesh and
    /// fat-tree route, every self-send) is fixed, so it is built once and
    /// the whole burst steps along it. A route through a branch point is
    /// rebuilt for each message, so an adaptive router sees the occupancy
    /// the previous one left behind.
    pub fn send_burst(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        depart: Cycles,
        n: u64,
    ) -> Cycles {
        let mut route = std::mem::take(&mut self.route);
        let mut queued = Cycles::ZERO;
        let mut left = n;
        while left > 0 {
            let fixed = self.build_route(src, dst, depart, &mut route);
            let count = if fixed { left } else { 1 };
            queued += self.traverse(&route, bytes, depart, count).queued;
            left -= count;
        }
        self.route = route;
        queued
    }

    /// Moves `count` messages, all departing at `depart`, one after the
    /// other along `route`, updating link occupancy and stats. The first
    /// message works out each link's serialization; the rest of the batch
    /// reuses it. The returned trace is the last message's, except that
    /// `queued` sums all of them.
    fn traverse(&mut self, route: &[LinkId], bytes: u64, depart: Cycles, count: u64) -> SendTrace {
        debug_assert!(count > 0, "traverse moves at least one message");
        self.stats.messages += count;
        if route.is_empty() {
            return SendTrace {
                arrival: depart + self.config.hop_latency,
                queued: Cycles::ZERO,
                serialization: Cycles::ZERO,
                hops: 0,
            };
        }
        let mut sers = std::mem::take(&mut self.serializations);
        sers.clear();
        let mut t = depart;
        let mut waited = Cycles::ZERO;
        let mut serialization = Cycles::ZERO;
        for &link in route {
            let ser = self.serialization(bytes, link);
            serialization += ser;
            if count > 1 {
                sers.push(ser);
            }
            self.hop(link, ser, &mut t, &mut waited);
        }
        self.stats.max_queue_cycles = self.stats.max_queue_cycles.max(waited.raw());
        let mut queued = waited;
        for _ in 1..count {
            t = depart;
            waited = Cycles::ZERO;
            for (&link, &ser) in route.iter().zip(&sers) {
                self.hop(link, ser, &mut t, &mut waited);
            }
            self.stats.max_queue_cycles = self.stats.max_queue_cycles.max(waited.raw());
            queued += waited;
        }
        self.serializations = sers;
        self.stats.queue_cycles += queued.raw();
        self.stats.hops += route.len() as u64 * count;
        SendTrace {
            arrival: t,
            queued,
            serialization,
            hops: route.len(),
        }
    }

    /// Moves a message that reaches `link` at `t` across it: it waits for
    /// the link to free (under contention) and for the link's fault
    /// windows, occupies it for `ser` cycles (stretched by a slowdown),
    /// and leaves `t` at its arrival at the next hop. The wait, slowdown
    /// included, is added to `waited`.
    // Forced: left to itself the compiler calls this out of line, which
    // costs a single send about a tenth of its time.
    #[inline(always)]
    fn hop(&mut self, link: LinkId, ser: Cycles, t: &mut Cycles, waited: &mut Cycles) {
        if self.config.contention {
            let free = self.busy_until[link];
            let (start, occupancy) = self.fault_adjusted(link, (*t).max(free), ser);
            *waited += (start - *t) + (occupancy - ser);
            self.busy_until[link] = start + occupancy;
            *t = start + occupancy + self.config.hop_latency;
        } else {
            let (start, occupancy) = self.fault_adjusted(link, *t, ser);
            *waited += (start - *t) + (occupancy - ser);
            *t = start + occupancy + self.config.hop_latency;
        }
    }

    /// Applies `link`'s fault windows to a transfer that would start
    /// serializing at `start` and occupy the link for `ser` cycles:
    /// outage windows push the start past their end; the worst active
    /// degradation stretches the occupancy.
    fn fault_adjusted(&self, link: LinkId, mut start: Cycles, ser: Cycles) -> (Cycles, Cycles) {
        let Some(windows) = self.faults.get(link).filter(|w| !w.is_empty()) else {
            return (start, ser);
        };
        // `start` only moves forward and each outage window can fire at
        // most once, so this settles within `windows.len()` passes.
        loop {
            let mut moved = false;
            for w in windows {
                if w.is_outage() && w.contains(start) {
                    start = w.until;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let mut slow = 1.0f64;
        for w in windows {
            if !w.is_outage() && w.contains(start) {
                slow = slow.max(w.slowdown);
            }
        }
        let occupancy = if slow > 1.0 { ser.scale(slow) } else { ser };
        (start, occupancy)
    }

    fn serialization(&self, bytes: u64, link: LinkId) -> Cycles {
        let width = self.topo.link_width(link).max(f64::EPSILON);
        Cycles::new(((bytes as f64 / (self.config.bytes_per_cycle * width)).ceil() as u64).max(1))
    }

    /// Writes the route from `src` to `dst` into `route`; returns whether
    /// it is fixed, i.e. was built without consulting the chooser.
    fn build_route(
        &mut self,
        src: usize,
        dst: usize,
        now: Cycles,
        route: &mut Vec<LinkId>,
    ) -> bool {
        let strategy = self.config.strategy;
        // Split borrows: chooser needs rng and busy_until, route needs topo.
        let busy = &self.busy_until;
        let rng = &mut self.rng;
        let mut chose = false;
        let mut choose = |candidates: &[LinkId]| -> usize {
            chose = true;
            match strategy {
                RouteStrategy::Deterministic => 0,
                RouteStrategy::RandomEcmp => rng.gen_range(0..candidates.len()),
                RouteStrategy::LeastLoaded => candidates
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &l)| busy[l].max(now))
                    .map(|(i, _)| i)
                    .expect("candidates nonempty"),
            }
        };
        self.topo.route(src, dst, &mut choose, route);
        !chose
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTree, LeafSpine, Mesh2D};

    #[test]
    fn uncontended_latency_is_hops_times_cost() {
        let mut net = Network::new(Mesh2D::new(4, 1), NetworkConfig::on_package());
        // 3 hops, 64B at 8B/cycle = 8 cycles serialization per hop + 5 hop.
        let arrive = net.send(0, 3, 64, Cycles::ZERO);
        assert_eq!(arrive, Cycles::new(3 * (8 + 5)));
    }

    #[test]
    fn contention_free_mode_ignores_occupancy() {
        let mut net = Network::new(Mesh2D::new(4, 1), NetworkConfig::contention_free());
        let a = net.send(0, 3, 4096, Cycles::ZERO);
        let b = net.send(0, 3, 4096, Cycles::ZERO);
        assert_eq!(a, b);
        assert_eq!(net.stats().queue_cycles, 0);
    }

    #[test]
    fn queueing_accumulates_on_shared_path() {
        let mut net = Network::new(Mesh2D::new(2, 1), NetworkConfig::on_package());
        let mut last = Cycles::ZERO;
        for _ in 0..10 {
            let arr = net.send(0, 1, 1024, Cycles::ZERO);
            assert!(arr > last);
            last = arr;
        }
        assert!(net.stats().queue_cycles > 0);
        assert!(net.stats().mean_queue() > 0.0);
    }

    #[test]
    fn leaf_spine_redundancy_beats_fat_tree_under_burst() {
        // The Figure 7/15 mechanism in miniature: simultaneous messages
        // between the same endpoint pair spread over the leaf-spine's
        // disjoint paths but serialize through the fat tree's root.
        let cfg = NetworkConfig::on_package();
        let mut ls = Network::new(LeafSpine::paper_default(), cfg);
        let mut ft = Network::new(FatTree::new(32), cfg);
        let mut ls_last = Cycles::ZERO;
        let mut ft_last = Cycles::ZERO;
        for _ in 0..16 {
            ls_last = ls_last.max(ls.send(0, 31, 1024, Cycles::ZERO));
            ft_last = ft_last.max(ft.send(0, 31, 1024, Cycles::ZERO));
        }
        assert!(
            ls_last < ft_last,
            "leaf-spine {ls_last} should beat fat tree {ft_last}"
        );
    }

    #[test]
    fn least_loaded_beats_deterministic_on_leaf_spine() {
        let mut adaptive = Network::new(LeafSpine::paper_default(), NetworkConfig::on_package());
        let det_cfg = NetworkConfig {
            strategy: RouteStrategy::Deterministic,
            ..NetworkConfig::on_package()
        };
        let mut det = Network::new(LeafSpine::paper_default(), det_cfg);
        let mut a_last = Cycles::ZERO;
        let mut d_last = Cycles::ZERO;
        for _ in 0..16 {
            a_last = a_last.max(adaptive.send(0, 31, 1024, Cycles::ZERO));
            d_last = d_last.max(det.send(0, 31, 1024, Cycles::ZERO));
        }
        assert!(
            a_last < d_last,
            "adaptive {a_last} vs deterministic {d_last}"
        );
    }

    #[test]
    fn self_send_costs_one_hop() {
        let mut net = Network::new(Mesh2D::new(2, 2), NetworkConfig::on_package());
        let arr = net.send(1, 1, 64, Cycles::new(100));
        assert_eq!(arr, Cycles::new(100) + net.config().hop_latency);
    }

    #[test]
    fn random_ecmp_is_deterministic_per_seed() {
        let cfg = NetworkConfig {
            strategy: RouteStrategy::RandomEcmp,
            ..NetworkConfig::on_package()
        };
        let run = |seed: u64| {
            let mut net = Network::new(LeafSpine::paper_default(), NetworkConfig { seed, ..cfg });
            (0..20)
                .map(|i| net.send(0, 31, 512, Cycles::new(i * 3)).raw())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn send_full_shares_are_exhaustive() {
        let mut net = Network::new(Mesh2D::new(4, 1), NetworkConfig::on_package());
        // Load the path, then send again: queueing appears and the shares
        // must still telescope to the arrival time.
        net.send(0, 3, 4096, Cycles::ZERO);
        let depart = Cycles::new(10);
        let tr = net.send_full(0, 3, 1024, depart);
        assert_eq!(tr.hops, 3);
        assert!(tr.queued > Cycles::ZERO);
        assert_eq!(
            tr.arrival,
            depart + tr.serialization + tr.queued + tr.propagation(net.config().hop_latency)
        );
    }

    #[test]
    fn send_full_self_send() {
        let mut net = Network::new(Mesh2D::new(2, 2), NetworkConfig::on_package());
        let tr = net.send_full(1, 1, 64, Cycles::new(100));
        assert_eq!(tr.hops, 0);
        assert_eq!(tr.serialization, Cycles::ZERO);
        assert_eq!(tr.queued, Cycles::ZERO);
        let hop = net.config().hop_latency;
        assert_eq!(tr.propagation(hop), hop);
        assert_eq!(tr.arrival, Cycles::new(100) + hop);
    }

    #[test]
    fn link_outage_delays_until_window_end_and_shares_telescope() {
        let mut net = Network::new(Mesh2D::new(2, 1), NetworkConfig::on_package());
        let healthy = net.clone().send_full(0, 1, 64, Cycles::ZERO);
        // Black out every link until cycle 500: the message must wait out
        // the outage, and the wait must surface as queueing.
        for link in 0..net.num_links() {
            net.inject_link_fault(
                link,
                FaultWindow::new(Cycles::ZERO, Cycles::new(500), f64::INFINITY),
            );
        }
        let tr = net.send_full(0, 1, 64, Cycles::ZERO);
        assert!(tr.arrival >= Cycles::new(500) + healthy.arrival);
        assert_eq!(tr.serialization, healthy.serialization);
        assert_eq!(
            tr.arrival,
            tr.serialization + tr.queued + tr.propagation(net.config().hop_latency)
        );
        // After the window, the fault is gone.
        let later = net.send_full(0, 1, 64, Cycles::new(1_000));
        assert_eq!(later.queued, Cycles::ZERO);
    }

    #[test]
    fn link_degradation_stretches_occupancy_as_queueing() {
        let mut cfg = NetworkConfig::on_package();
        cfg.strategy = RouteStrategy::Deterministic;
        let mut net = Network::new(Mesh2D::new(2, 1), cfg);
        let healthy = net.clone().send_full(0, 1, 4096, Cycles::ZERO);
        for link in 0..net.num_links() {
            net.inject_link_fault(link, FaultWindow::new(Cycles::ZERO, Cycles::MAX, 4.0));
        }
        let tr = net.send_full(0, 1, 4096, Cycles::ZERO);
        assert!(
            tr.arrival > healthy.arrival,
            "{} > {}",
            tr.arrival,
            healthy.arrival
        );
        assert_eq!(tr.serialization, healthy.serialization);
        assert_eq!(
            tr.queued,
            healthy.serialization.scale(4.0) - healthy.serialization
        );
        assert_eq!(
            tr.arrival,
            tr.serialization + tr.queued + tr.propagation(net.config().hop_latency)
        );
    }

    #[test]
    fn contention_free_mode_still_honors_faults() {
        let mut net = Network::new(Mesh2D::new(2, 1), NetworkConfig::contention_free());
        let healthy = net.send(0, 1, 64, Cycles::ZERO);
        net.inject_link_fault(
            0,
            FaultWindow::new(Cycles::ZERO, Cycles::new(300), f64::INFINITY),
        );
        net.inject_link_fault(
            1,
            FaultWindow::new(Cycles::ZERO, Cycles::new(300), f64::INFINITY),
        );
        let faulted = net.send(0, 1, 64, Cycles::ZERO);
        assert!(faulted >= Cycles::new(300));
        assert!(faulted > healthy);
    }

    #[test]
    fn fault_injection_wraps_link_index() {
        let mut net = Network::new(Mesh2D::new(2, 1), NetworkConfig::on_package());
        let n = net.num_links();
        assert!(n > 0);
        // An out-of-range index lands on `index % n` instead of panicking.
        net.inject_link_fault(
            n + 1,
            FaultWindow::new(Cycles::ZERO, Cycles::new(100), f64::INFINITY),
        );
        assert_eq!(net.faults.iter().map(Vec::len).sum::<usize>(), 1);
        assert_eq!(net.faults[1].len(), 1);
    }

    #[test]
    fn chained_outage_windows_compose() {
        let mut cfg = NetworkConfig::on_package();
        cfg.strategy = RouteStrategy::Deterministic;
        let mut net = Network::new(Mesh2D::new(2, 1), cfg);
        // Two abutting outages: escaping the first lands in the second.
        net.inject_link_fault(
            0,
            FaultWindow::new(Cycles::ZERO, Cycles::new(100), f64::INFINITY),
        );
        net.inject_link_fault(
            0,
            FaultWindow::new(Cycles::new(100), Cycles::new(250), f64::INFINITY),
        );
        let tr = net.send_full(0, 1, 64, Cycles::ZERO);
        assert!(tr.queued >= Cycles::new(250), "queued {}", tr.queued);
    }

    #[test]
    fn wider_links_serialize_faster() {
        let mut net = Network::new(FatTree::new(32), NetworkConfig::on_package());
        // Root links are 4x wide: a large message's serialization at the
        // root is a quarter of a leaf link's.
        let arrive = net.send(0, 31, 4096, Cycles::ZERO);
        // Leaf-width serialization on all 10 hops would cost
        // 10 x (512 + 5); widened inner links must beat that.
        assert!(arrive < Cycles::new(10 * 517));
    }
}
