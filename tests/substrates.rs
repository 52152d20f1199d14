//! Cross-crate integration tests of the substrates: the hardware request
//! queue driven by the ServiceMap, caches driven by workload traces, and
//! the networks driven by app-shaped traffic.

use rand::Rng;
use um_arch::ServiceMap;
use um_mem::hierarchy::{AccessKind, HierarchyConfig, MemoryHierarchy};
use um_net::{LeafSpine, Network, NetworkConfig};
use um_sched::RequestQueue;
use um_sim::{rng, Cycles};
use um_workload::apps::SocialNetwork;
use um_workload::trace::{TraceGenerator, TraceProfile};

/// Drives a village's hardware RQ through a full burst lifecycle exactly
/// as the system simulator does: NIC enqueues via ServiceMap dispatch,
/// cores dequeue, requests block and resume, slots recycle.
#[test]
fn rq_and_servicemap_burst_lifecycle() {
    let mut map = ServiceMap::new();
    // Two villages host service 7; one hosts service 9.
    map.register(7, 0);
    map.register(7, 1);
    map.register(9, 1);
    let mut rqs: Vec<RequestQueue<u64>> = (0..2).map(|_| RequestQueue::new(64)).collect();

    // A burst of 100 requests for service 7 round-robins across villages.
    let mut slots = Vec::new();
    for i in 0..100u64 {
        let village = map.dispatch(7).expect("service registered");
        let slot = rqs[village]
            .enqueue(7, i)
            .expect("capacity 64 suffices for 50");
        slots.push((village, slot));
    }
    assert_eq!(rqs[0].len() + rqs[1].len(), 100);
    assert_eq!(rqs[0].len(), 50, "round-robin splits the burst evenly");

    // Cores drain: dequeue, block, unblock, complete.
    let mut completed = 0;
    for rq in &mut rqs {
        while let Some((slot, _)) = rq.dequeue(7) {
            rq.block(slot).expect("running blocks");
            rq.unblock(slot).expect("blocked unblocks");
            let (again, _) = rq.dequeue(7).expect("ready again");
            assert_eq!(again, slot);
            rq.complete(slot).expect("running completes");
            completed += 1;
        }
    }
    assert_eq!(completed, 100);
    assert!(rqs[0].is_empty() && rqs[1].is_empty());
}

/// A full RQ pushes overflow into a NIC buffer, which drains as slots
/// free — §4.3's overflow path.
#[test]
fn rq_overflow_drains_in_order() {
    let mut rq: RequestQueue<u64> = RequestQueue::new(4);
    let mut nic_buffer = std::collections::VecDeque::new();
    for i in 0..10u64 {
        if rq.enqueue(1, i).is_err() {
            nic_buffer.push_back(i);
        }
    }
    assert_eq!(nic_buffer.len(), 6);
    let mut served = Vec::new();
    while served.len() < 10 {
        let (slot, &v) = rq.dequeue(1).expect("work available");
        served.push(v);
        rq.complete(slot).expect("completes");
        while let Some(&next) = nic_buffer.front() {
            match rq.enqueue(1, next) {
                Ok(_) => {
                    nic_buffer.pop_front();
                }
                Err(_) => break,
            }
        }
    }
    assert_eq!(
        served,
        (0..10).collect::<Vec<_>>(),
        "FCFS survives overflow"
    );
}

/// Microservice traces keep their working set L1-resident; monolith
/// traces spill — Figure 9 vs Figure 1's premise, across `um-workload`
/// and `um-mem`.
#[test]
fn trace_to_cache_locality_contrast() {
    let hit_rate = |profile: TraceProfile| {
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        let mut g = TraceGenerator::new(profile, 5);
        let mut now = Cycles::ZERO;
        for r in g.generate(150_000) {
            let kind = if r.instr {
                AccessKind::InstrFetch
            } else if r.write {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            };
            let lat = h.access(r.addr, kind, now);
            now += lat;
        }
        h.stats().l1d.hit_rate()
    };
    let micro = hit_rate(TraceProfile::microservice());
    let mono = hit_rate(TraceProfile::monolith());
    assert!(micro > mono, "microservice {micro} vs monolith {mono}");
    assert!(micro > 0.85, "microservice L1d hit rate {micro}");
}

/// App-shaped traffic over the leaf-spine: cross-pod request/response
/// pairs between random villages never exceed 4 hops and spread across
/// redundant paths.
#[test]
fn leafspine_carries_app_traffic() {
    let topo = LeafSpine::paper_default();
    let mut net = Network::new(topo, NetworkConfig::on_package());
    let graph = SocialNetwork::graph();
    let mut r = rng::stream(11, "itest-traffic");
    let mut worst_gap = Cycles::ZERO;
    for _ in 0..500 {
        let plan = graph.sample_plan(SocialNetwork::CPOST, &mut r);
        let src = r.gen_range(0..32);
        for _ in plan.callees() {
            let dst = r.gen_range(0..32);
            let depart = Cycles::new(r.gen_range(0..10_000));
            let arrive = net.send(src, dst, 512, depart);
            worst_gap = worst_gap.max(arrive - depart);
        }
    }
    let stats = net.stats();
    assert!(stats.messages > 500);
    assert!(
        stats.hops as f64 / stats.messages as f64 <= 4.0,
        "leaf-spine paths stay within 4 hops"
    );
    // Uncontended floor: 4 hops x (5 + serialization); contention adds at
    // most a modest factor at this rate.
    assert!(
        worst_gap < Cycles::new(20_000),
        "worst traversal {worst_gap} exploded"
    );
}

/// Power/area model and machine configs agree on the iso-power and
/// iso-area sizings (§5, §6.8).
#[test]
fn iso_sizing_round_trip() {
    use um_arch::power;
    let um = um_arch::MachineConfig::umanycore();
    assert_eq!(power::iso_power_server_cores(&um), 40);
    assert_eq!(power::iso_area_server_cores(&um), 128);
}
