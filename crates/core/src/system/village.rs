//! Villages: each one's queue — the hardware RQ with its NIC overflow
//! buffer (§4.3) or a software ready queue — where requests are placed
//! (village and hedge-village picking, instance boots from snapshot pools,
//! §4.1), and how idle cores claim and steal queued work.
//!
//! The hardware-or-software decision lives here: nothing outside this file
//! matches on [`VillageQueue`]'s variants.

use super::*;
use std::collections::{BTreeSet, VecDeque};
use um_arch::config::{MachineConfig, VillageCores};
use um_arch::{CoreModel, ServiceMap};
use um_mem::pool::MemoryPool;
use um_sched::{DequeuePolicy, Dispatcher, RequestQueue, RqError, RqSlot};

/// Per-village queue state.
#[derive(Clone, Debug)]
pub(super) enum VillageQueue {
    /// uManycore: hardware RQ plus the NIC overflow buffer (§4.3).
    Hardware {
        rq: RequestQueue<ReqId>,
        nic_buffer: VecDeque<ReqId>,
    },
    /// Baselines: a software FCFS ready queue.
    Software { ready: VecDeque<ReqId> },
}

impl VillageQueue {
    fn new(machine: &MachineConfig) -> Self {
        if machine.hw_scheduling {
            VillageQueue::Hardware {
                rq: RequestQueue::new(machine.rq_capacity),
                nic_buffer: VecDeque::new(),
            }
        } else {
            VillageQueue::Software {
                ready: VecDeque::new(),
            }
        }
    }

    /// Requests held here, NIC buffer included: steering's and hedging's
    /// load key.
    fn len(&self) -> usize {
        match self {
            VillageQueue::Hardware { rq, nic_buffer } => rq.len() + nic_buffer.len(),
            VillageQueue::Software { ready } => ready.len(),
        }
    }

    /// RQ occupancy alone (the ready queue's length in software): the
    /// instance-boot placement key.
    fn occupancy(&self) -> usize {
        match self {
            VillageQueue::Hardware { rq, .. } => rq.len(),
            VillageQueue::Software { ready } => ready.len(),
        }
    }

    /// Autoscaling's watermark: the RQ three-quarters full means this
    /// instance cannot absorb the burst (§4.1: "when the number of
    /// concurrent requests exceeds the capacity of the village, the system
    /// creates another instance").
    fn hot(&self) -> bool {
        matches!(self, VillageQueue::Hardware { rq, .. } if rq.len() * 4 >= rq.capacity() * 3)
    }

    /// Queues a newly arrived request, ready since `now`, and returns its
    /// RQ entry (none in a software queue). A full RQ leaves the request
    /// in the NIC buffer instead and returns the RQ's refusal.
    fn push(&mut self, service: u32, req: ReqId, now: Cycles) -> Result<Option<RqSlot>, RqError> {
        match self {
            VillageQueue::Hardware { rq, nic_buffer } => {
                let slot = rq.enqueue_at(service, req, now);
                if slot.is_err() {
                    nic_buffer.push_back(req);
                }
                slot.map(Some)
            }
            VillageQueue::Software { ready } => {
                ready.push_back(req);
                Ok(None)
            }
        }
    }

    /// Makes a blocked request ready again at `now`.
    fn unblock(&mut self, req: ReqId, slot: Option<RqSlot>, now: Cycles) {
        match self {
            VillageQueue::Hardware { rq, .. } => {
                let slot = slot.expect("blocked in RQ");
                rq.unblock_at(slot, now).expect("blocked entry unblocks");
            }
            VillageQueue::Software { ready } => ready.push_back(req),
        }
    }

    /// Marks a running request's RQ entry blocked; a software queue holds
    /// nothing for a request that left it.
    pub(super) fn block(&mut self, slot: Option<RqSlot>) {
        if let (VillageQueue::Hardware { rq, .. }, Some(slot)) = (self, slot) {
            rq.block(slot).expect("running entry blocks");
        }
    }

    /// Reclaims a finished request's RQ entry and admits NIC-buffered
    /// requests into the room it leaves (§4.3).
    pub(super) fn complete(&mut self, slot: RqSlot, requests: &mut Slots<Request>) {
        let VillageQueue::Hardware { rq, nic_buffer } = self else {
            return;
        };
        rq.complete(slot).expect("running entry completes");
        while let Some(&waiting) = nic_buffer.front() {
            let w = &mut requests[waiting];
            // The admitted request has been ready since its original
            // (NIC-buffered) arrival.
            match rq.enqueue_at(w.service().raw(), waiting, w.enqueued_at) {
                Ok(new_slot) => {
                    nic_buffer.pop_front();
                    w.rq_slot = Some(new_slot);
                }
                Err(_) => break,
            }
        }
    }

    /// Takes the next ready request in `policy` order.
    fn pop(
        &mut self,
        policy: DequeuePolicy,
        requests: &Slots<Request>,
        now: Cycles,
    ) -> Option<ReqId> {
        // Remaining handler compute of a request, the SRPT key (the
        // hardware would carry this estimate in the Request Context
        // Memory, written by the NIC from per-service profiles).
        let remaining = |&req: &ReqId| -> u64 {
            requests[req].plan.segments[requests[req].next_segment..]
                .iter()
                .map(|s| s.compute_us)
                .sum::<f64>() as u64 // um-tidy: allow(float-accumulation) -- serial fold over one request's fixed segment order
        };
        match self {
            VillageQueue::Hardware { rq, .. } => rq
                .dequeue_any_with_at(policy, remaining, now)
                .map(|(_, &req, wait)| {
                    // The RQ's own ready-wait measurement must agree with
                    // the queue-wait the breakdown will charge.
                    debug_assert_eq!(
                        wait,
                        now.saturating_sub(requests[req].enqueued_at),
                        "RQ wait disagrees with request {req} enqueue time"
                    );
                    req
                }),
            VillageQueue::Software { ready } => match policy {
                DequeuePolicy::Fcfs => ready.pop_front(),
                DequeuePolicy::Srpt => ready
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, req)| remaining(req))
                    .map(|(i, _)| i)
                    .and_then(|i| ready.remove(i)),
            },
        }
    }

    /// Whether an idle core elsewhere could steal from here: software
    /// queues with work waiting (a hardware RQ's entries stay put).
    fn stealable(&self) -> bool {
        matches!(self, VillageQueue::Software { ready } if !ready.is_empty())
    }

    /// Takes the oldest waiting request for an idle core of another
    /// village.
    fn steal(&mut self) -> Option<ReqId> {
        match self {
            VillageQueue::Software { ready } => ready.pop_front(),
            VillageQueue::Hardware { .. } => None,
        }
    }
}

#[derive(Clone, Debug)]
pub(super) struct Village {
    /// The core microarchitecture this village's cores implement (§8's
    /// heterogeneous-villages extension; homogeneous machines use the
    /// package core everywhere).
    pub(super) core: CoreModel,
    /// First cluster this village's cores live in.
    pub(super) cluster: usize,
    /// Number of consecutive clusters the village spans (a logical queue
    /// larger than one cluster — the Figure 3 override — has cores in
    /// several physical clusters).
    pub(super) cluster_span: usize,
    idle_cores: usize,
    pub(super) cores: usize,
    /// Fail-stop kills waiting for a busy core to free: the next
    /// `CoreFree` is absorbed instead of returning the core to the pool.
    kill_pending: usize,
    pub(super) queue: VillageQueue,
    /// When the queue lock (software queues, §3.2's synchronization
    /// overheads) is next free.
    lock_free_at: Cycles,
}

impl Village {
    /// Serializes one queue operation starting at `now` behind a lock
    /// held `lock` cycles per operation; returns when the operation
    /// completes.
    pub(super) fn queue_op(&mut self, now: Cycles, lock: Cycles) -> Cycles {
        if lock == Cycles::ZERO {
            return now;
        }
        let start = now.max(self.lock_free_at);
        self.lock_free_at = start + lock;
        self.lock_free_at
    }
}

#[derive(Clone, Debug)]
pub(super) struct Server {
    pub(super) villages: Vec<Village>,
    pub(super) icn: Icn,
    pub(super) dispatcher: Option<Dispatcher>,
    service_map: ServiceMap,
    pub(super) busy_cycles: u128,
    /// One snapshot memory pool per cluster (§4.1); pre-populated with
    /// every service's snapshot when the machine carries pools.
    pools: Vec<MemoryPool>,
    /// Services with an instance boot in flight (stampede guard).
    booting: BTreeSet<u32>,
}

impl Server {
    /// One package of the configured machine with `n_villages` queues.
    pub(super) fn new(cfg: &SimConfig, n_villages: usize) -> Self {
        let machine = &cfg.machine;
        let total_cores = machine.total_cores();
        let cores_per_village = total_cores / n_villages;
        let clusters = machine.shape.clusters;
        let cluster_span = (clusters / n_villages).max(1);
        let villages = (0..n_villages)
            .map(|v| Village {
                core: match machine.village_cores {
                    VillageCores::Heterogeneous {
                        big_villages,
                        big_core,
                    } if v < big_villages => big_core,
                    _ => machine.core,
                },
                cluster: v * clusters / n_villages,
                cluster_span,
                idle_cores: cores_per_village,
                cores: cores_per_village,
                kill_pending: 0,
                queue: VillageQueue::new(machine),
                lock_free_at: Cycles::ZERO,
            })
            .collect();
        let services = cfg.workload.services();
        // Snapshot pools: ~14 MB per service (paper: <16 MB), one 256 MB
        // pool per cluster, pre-populated when the machine has pools; a
        // 1-byte pool otherwise makes every boot cold.
        let pools = (0..clusters)
            .map(|_| {
                if !machine.memory_pool {
                    return MemoryPool::new(1);
                }
                let mut pool = MemoryPool::new(256 * 1024 * 1024);
                for svc in &services {
                    pool.store(svc.raw(), 14 * 1024 * 1024)
                        .expect("pool sized for all services");
                }
                pool
            })
            .collect();
        Server {
            villages,
            icn: Icn::new(cfg, clusters),
            dispatcher: Dispatcher::for_model(machine.ctx_switch, total_cores),
            service_map: place_services(cfg, n_villages, &services),
            busy_cycles: 0,
            pools,
            booting: BTreeSet::new(),
        }
    }

    /// A booted instance of `service` comes online in `village`.
    pub(super) fn instance_ready(&mut self, service: u32, village: usize) {
        self.booting.remove(&service);
        self.service_map.register(service, village);
    }
}

/// The ServiceMap: uManycore partitions services across villages;
/// baselines deploy every service everywhere and pick queues uniformly at
/// random (§3.2's experiment setup). With heterogeneous villages (§8), the
/// big-core villages are reserved for the heaviest-handler services.
fn place_services(cfg: &SimConfig, n_villages: usize, services: &[ServiceId]) -> ServiceMap {
    let mut service_map = ServiceMap::new();
    if !(cfg.machine.hw_scheduling && n_villages >= services.len()) {
        for svc in services {
            for v in 0..n_villages {
                service_map.register(svc.raw(), v);
            }
        }
        return service_map;
    }
    let mut order = services.to_vec();
    order.sort_by(|a, b| {
        cfg.workload
            .service_weight(*b)
            .total_cmp(&cfg.workload.service_weight(*a))
    });
    let big = match cfg.machine.village_cores {
        VillageCores::Heterogeneous { big_villages, .. } => {
            big_villages.min(n_villages.saturating_sub(services.len()))
        }
        VillageCores::Homogeneous => 0,
    };
    let heavy_count = (services.len() / 3).max(1);
    for v in 0..n_villages {
        let svc = if v < big {
            order[v % heavy_count]
        } else {
            order[(v - big) % services.len()]
        };
        service_map.register(svc.raw(), v);
    }
    service_map
}

impl SystemSim {
    pub(super) fn pick_village(&mut self, server: usize, service: ServiceId, now: Cycles) -> usize {
        // Straggler-aware steering only engages when a fault plan exists:
        // a healthy run must take exactly the original dispatch path
        // (same draws, same round-robin cursor movement).
        let steer = self.cfg.mitigation.steer && !self.cfg.fault_plan.is_empty();
        if self.cfg.machine.hw_scheduling {
            let primary = self.servers[server]
                .service_map
                .dispatch(service.raw())
                .expect("every workload service is registered");
            if steer && self.cfg.fault_plan.is_degraded(server, primary, now) {
                let plan = &self.cfg.fault_plan;
                let srv = &self.servers[server];
                // Least-loaded healthy village still hosting the service;
                // ties break on the lower index (deterministic).
                if let Some(&v) = srv
                    .service_map
                    .villages(service.raw())
                    .iter()
                    .filter(|&&v| !plan.is_degraded(server, v, now))
                    .min_by_key(|&&v| (srv.villages[v].queue.len(), v))
                {
                    return v;
                }
            }
            primary
        } else {
            let n = self.servers[server].villages.len();
            if steer {
                let plan = &self.cfg.fault_plan;
                let healthy: Vec<usize> = (0..n)
                    .filter(|&v| !plan.is_degraded(server, v, now))
                    .collect();
                if !healthy.is_empty() && healthy.len() < n {
                    return healthy[self.rng.gen_range(0..healthy.len())];
                }
            }
            self.rng.gen_range(0..n)
        }
    }

    /// Village for a hedge (backup) attempt: prefer a healthy,
    /// least-loaded village other than `avoid` among those hosting the
    /// service (every village, on a machine that deploys every service
    /// everywhere); fall back to `avoid` when it is the only host.
    pub(super) fn pick_hedge_village(
        &self,
        server: usize,
        service: ServiceId,
        avoid: usize,
        now: Cycles,
    ) -> usize {
        let plan = &self.cfg.fault_plan;
        let srv = &self.servers[server];
        srv.service_map
            .villages(service.raw())
            .iter()
            .copied()
            .filter(|&v| v != avoid)
            .min_by_key(|&v| {
                (
                    plan.is_degraded(server, v, now),
                    srv.villages[v].queue.len(),
                    v,
                )
            })
            .unwrap_or(avoid)
    }

    pub(super) fn on_unblock(&mut self, req: ReqId, now: Cycles) {
        if self.cfg.hold_core_while_blocked {
            debug_assert_eq!(self.requests[req].phase, Phase::Blocked);
            self.start_segment(req, now, false, true);
            return;
        }
        self.enqueue(req, now, true);
    }

    /// Puts `req` into its village's queue — a new arrival, or a blocked
    /// request whose operation resolved (`unblock`) — then lets idle cores
    /// claim it. Software queues serialize the insert through their lock;
    /// batched NIC-to-queue delivery keeps plain enqueues off the
    /// dispatcher (the baselines use state-of-the-art NIC-to-core
    /// optimizations, §5). Hardware enqueuing is done by the village NIC.
    pub(super) fn enqueue(&mut self, req: ReqId, arrived: Cycles, unblock: bool) {
        let r = &mut self.requests[req];
        let (server, village) = (r.server, r.village);
        let v = &mut self.servers[server].villages[village];
        let now = v.queue_op(arrived, self.costs.queue_lock);
        debug_assert!(!unblock || r.phase == Phase::Blocked);
        r.breakdown.charge(Component::QueueWait, now - arrived);
        r.enqueued_at = now;
        r.phase = Phase::Queued;
        if unblock {
            v.queue.unblock(req, r.rq_slot, now);
        } else {
            let service = r.service().raw();
            match v.queue.push(service, req, now) {
                Ok(slot) => r.rq_slot = slot,
                Err(_) => self.rq_overflows += 1,
            }
            if v.queue.hot() && self.cfg.autoscale {
                self.boot_instance(server, service, now);
            }
        }
        self.try_start(server, village, now);
        self.trigger_steal(server, village, now);
    }

    /// Boots another instance of `service` in the emptiest village,
    /// reading its snapshot from that village's cluster pool (or cold
    /// booting without one). The new instance serves requests once its
    /// `InstanceReady` fires.
    fn boot_instance(&mut self, server: usize, service: u32, now: Cycles) {
        let srv = &mut self.servers[server];
        if !srv.booting.insert(service) {
            return; // a boot is already in flight
        }
        // Place where the queues are least occupied and the service is not
        // already hosted.
        let hosted = srv.service_map.villages(service);
        let target = (0..srv.villages.len())
            .filter(|v| !hosted.contains(v))
            .min_by_key(|&v| srv.villages[v].queue.occupancy());
        let Some(village) = target else {
            srv.booting.remove(&service);
            return; // hosted everywhere already
        };
        let cluster = srv.villages[village].cluster;
        let boot = srv.pools[cluster].boot_latency(service, self.cfg.machine.core.frequency);
        self.instance_boots += 1;
        self.events.schedule_at(
            now + boot,
            Event::InstanceReady {
                server,
                service,
                village,
            },
        );
    }

    /// After new work lands in `village`, let an idle core elsewhere on
    /// the server steal it (the spinning-idle-core model of §3.2's
    /// work-stealing variant).
    fn trigger_steal(&mut self, server: usize, village: usize, now: Cycles) {
        if !self.cfg.work_stealing || !self.servers[server].villages[village].queue.stealable() {
            return;
        }
        let villages = &self.servers[server].villages;
        let n = villages.len();
        let idle = (1..n)
            .map(|off| (village + off) % n)
            .find(|&v| villages[v].idle_cores > 0);
        if let Some(v) = idle {
            self.try_start(server, v, now);
        }
    }

    /// Pairs idle cores in `village` with ready requests; steals from
    /// sibling queues when enabled.
    fn try_start(&mut self, server: usize, village: usize, now: Cycles) {
        loop {
            if self.servers[server].villages[village].idle_cores == 0 {
                return;
            }
            let Some((req, stolen)) = self.pop_ready(server, village, now) else {
                return;
            };
            self.servers[server].villages[village].idle_cores -= 1;
            self.start_segment(req, now, stolen, false);
        }
    }

    fn pop_ready(&mut self, server: usize, village: usize, now: Cycles) -> Option<(ReqId, bool)> {
        let srv = &mut self.servers[server];
        let policy = self.cfg.dequeue_policy;
        if let Some(req) = srv.villages[village].queue.pop(policy, &self.requests, now) {
            return Some((req, false));
        }
        if !self.cfg.work_stealing {
            return None;
        }
        let n = srv.villages.len();
        let req = (1..n)
            .map(|off| (village + off) % n)
            .find_map(|v| srv.villages[v].queue.steal())?;
        self.steals += 1;
        // The request now runs (and will resume) here.
        self.requests[req].village = village;
        Some((req, true))
    }

    /// A core of the village frees: it rejoins the pool and claims work,
    /// unless a fail-stop was waiting for it.
    pub(super) fn on_core_free(&mut self, server: usize, village: usize, now: Cycles) {
        let v = &mut self.servers[server].villages[village];
        if v.kill_pending > 0 {
            v.kill_pending -= 1;
        } else {
            v.idle_cores += 1;
            self.try_start(server, village, now);
        }
    }

    /// A scheduled fail-stop fires: one core of the village dies. A
    /// village is never taken below one core (the liveness floor) — such
    /// an event is masked, like one aimed at a nonexistent target.
    pub(super) fn on_core_fail(&mut self, server: usize, village: usize) {
        let v = &mut self.servers[server].villages[village];
        if v.cores <= 1 {
            self.faults.faults_masked += 1;
            return;
        }
        v.cores -= 1;
        if v.idle_cores > 0 {
            v.idle_cores -= 1;
        } else {
            // Every core is busy: the next one to free dies instead of
            // rejoining the pool.
            v.kill_pending += 1;
        }
        self.faults.cores_failed += 1;
        self.faults.faults_applied += 1;
    }
}
