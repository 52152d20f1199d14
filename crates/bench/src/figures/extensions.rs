//! Results beyond the paper's figures: ablations of designs the paper
//! describes but does not evaluate, autoscaling, fault-injection sweeps
//! and the rack-scale experiments.

use rand::Rng;
use um_arch::MachineConfig;
use um_mem::pool::{MemoryPool, COLD_BOOT_MS};
use um_net::{LeafSpine, Network, NetworkConfig, RouteStrategy, Topology};
use um_sched::{DequeuePolicy, PartitionedRq, RequestQueue, RqSlot};
use um_sim::{rng, Cycles, Frequency};
use um_stats::table::{f1, f2, f3, Table};
use um_stats::Samples;
use um_workload::apps::SocialNetwork;
use um_workload::synthetic::SyntheticWorkload;
use um_workload::ServiceTimeDist;
use umanycore::experiments::cluster::{cluster_autoscale_rows, cluster_tail_rows};
use umanycore::experiments::resilience::{
    degradation_sweep, fault_tail_sweep, hedging_ablation, RESILIENCE_RPS,
};
use umanycore::experiments::{parallel, sweep};
use umanycore::{ArrivalProcess, SimConfig, Workload};

use crate::{header_text, EnvScale};

/// Extension: heterogeneous villages (paper §8's future work).
///
/// "A possible enhancement is to have different hardware in different
/// villages. For example, some villages might have bigger cores." We give
/// 16 or 32 of the 128 villages IceLake-class (6-issue, 352-ROB) cores at
/// the package clock and steer the heaviest-handler services to them,
/// then measure per-app latency and the package power cost.
pub(super) fn ablation_hetero(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Extension: heterogeneous villages (§8)",
        "Per-app latency at 15K RPS with 0/16/32 big-core villages.",
    );
    let machines = [
        ("homogeneous", MachineConfig::umanycore()),
        (
            "16 big villages",
            MachineConfig::umanycore_heterogeneous(16),
        ),
        (
            "32 big villages",
            MachineConfig::umanycore_heterogeneous(32),
        ),
    ];
    let graph = SocialNetwork::graph();
    let mut t = Table::with_columns(&["app", "homogeneous p99", "16-big p99", "32-big p99"]);
    let roots = [
        SocialNetwork::CPOST,
        SocialNetwork::TEXT,
        SocialNetwork::URL_SHORT,
    ];
    let rows: Vec<SimConfig> = roots
        .iter()
        .map(|&root| scale.config(Workload::social_app(root), 15_000.0))
        .collect();
    let columns: Vec<MachineConfig> = machines.iter().map(|(_, m)| m.clone()).collect();
    for (&root, reports) in roots.iter().zip(sweep(&rows, &columns)) {
        let mut cells = vec![graph.profile(root).name.to_string()];
        cells.extend(reports.iter().map(|r| f1(r.latency.p99)));
        t.row(cells);
    }
    out.push_str(&t.render());
    out.push('\n');
    let mut p = Table::with_columns(&["configuration", "package power (W)", "area (mm2)"]);
    for (name, m) in &machines {
        p.row(vec![
            name.to_string(),
            f1(m.power_watts()),
            f1(m.area_mm2()),
        ]);
    }
    out.push_str(&p.render());
    out.push('\n');
    out.push_str(
        "Finding: at DeathStarBench-like workloads the gains are marginal —\n\
         handler compute is a small slice of end-to-end latency, which queueing\n\
         and downstream waits dominate — while 16 big villages cost ~1.7x the\n\
         package power. This answers §8's open question for this workload class:\n\
         spend the transistors on more small villages, not bigger cores.\n",
    );
    out
}

/// One leaf-spine run of the hotspot pattern: (mean, p99) message
/// latency in cycles.
fn routing_run(strategy: RouteStrategy) -> (f64, f64) {
    let mut net = Network::new(
        LeafSpine::paper_default(),
        NetworkConfig {
            strategy,
            ..NetworkConfig::on_package()
        },
    );
    let n = net.topology().endpoints();
    let mut r = rng::stream(3, "ablation-routing");
    let mut lat = Samples::new();
    // A hotspot pattern: half the traffic targets cluster 0 (a popular
    // backend), half is uniform; bursty departures.
    for i in 0..20_000u64 {
        let src = r.gen_range(0..n);
        let dst = if r.gen_bool(0.5) {
            0
        } else {
            r.gen_range(0..n)
        };
        let depart = Cycles::new(i * 12);
        let arrive = net.send(src, dst, 2048, depart);
        lat.record((arrive - depart).raw() as f64);
    }
    (lat.mean(), lat.p99())
}

/// Ablation: ECMP path-selection strategy on the leaf-spine (§4.2).
///
/// The leaf-spine's value is its redundant paths; this quantifies how
/// much of Figure 12's benefit comes from *using* them — comparing
/// deterministic single-path routing, random ECMP, and the idealized
/// least-loaded adaptive router uManycore assumes.
pub(super) fn ablation_routing(_: EnvScale) -> String {
    let mut out = header_text(
        "Ablation: leaf-spine path selection",
        "Message latency under a hotspot pattern, by ECMP strategy (cycles).",
    );
    let mut t = Table::with_columns(&["strategy", "mean", "p99"]);
    let strategies = [
        ("deterministic (single path)", RouteStrategy::Deterministic),
        ("random ECMP", RouteStrategy::RandomEcmp),
        ("least-loaded (uManycore)", RouteStrategy::LeastLoaded),
    ];
    // Each run builds its own network and RNG stream, so the three
    // strategies are independent points.
    let results = parallel::map(strategies.to_vec(), |_, (_, s)| routing_run(s));
    for ((name, _), (mean, p99)) in strategies.iter().zip(results) {
        t.row(vec![name.to_string(), f1(mean), f1(p99)]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "redundant paths only pay off when the router spreads load across them;\n\
         deterministic routing degenerates the leaf-spine into a skinny tree.\n",
    );
    out
}

/// Outcome of one co-location run for the victim (trickle) service.
struct VictimStats {
    admitted_frac: f64,
    p99_delay: f64,
}

/// A village RQ as the co-location run drives it: per-service admission
/// of an arrival tick, dequeue, and completion.
trait VillageRq {
    fn admit(&mut self, service: u32, tick: u64) -> bool;
    fn take(&mut self, service: u32) -> Option<(RqSlot, u64)>;
    fn finish(&mut self, service: u32, slot: RqSlot);
}

impl VillageRq for RequestQueue<u64> {
    fn admit(&mut self, service: u32, tick: u64) -> bool {
        self.enqueue(service, tick).is_ok()
    }
    fn take(&mut self, service: u32) -> Option<(RqSlot, u64)> {
        self.dequeue(service).map(|(slot, &t0)| (slot, t0))
    }
    fn finish(&mut self, _: u32, slot: RqSlot) {
        self.complete(slot).expect("completes");
    }
}

impl VillageRq for PartitionedRq<u64> {
    fn admit(&mut self, service: u32, tick: u64) -> bool {
        self.enqueue(service, tick).is_ok()
    }
    fn take(&mut self, service: u32) -> Option<(RqSlot, u64)> {
        self.dequeue(service).map(|(slot, &t0)| (slot, t0))
    }
    fn finish(&mut self, service: u32, slot: RqSlot) {
        self.complete(service, slot).expect("completes");
    }
}

/// Service A (0) floods in bursts of 64 with a slow server (one A
/// completion every 4 ticks); service B (1) trickles one request per 4
/// ticks with a fast dedicated core. Under a shared RQ, A's backlog
/// occupies every entry and B's requests bounce off a full queue (the NIC
/// would buffer or reject them, §4.3).
fn victim_stats(rq: &mut impl VillageRq) -> VictimStats {
    let mut b_delays = Samples::new();
    let mut b_offered = 0u64;
    let mut b_admitted = 0u64;
    let mut backlog_a: u64 = 0;
    let mut a_running = Vec::new();
    for tick in 0..10_000u64 {
        if tick % 64 == 0 {
            backlog_a += 64; // burst arrives at the NIC
        }
        while backlog_a > 0 && rq.admit(0, tick) {
            backlog_a -= 1;
        }
        if tick % 4 == 0 {
            b_offered += 1;
            if rq.admit(1, tick) {
                b_admitted += 1;
            }
            // A's cores complete one request every 4 ticks.
            if let Some(slot) = a_running.pop() {
                rq.finish(0, slot);
            }
            if let Some((slot, _)) = rq.take(0) {
                a_running.push(slot);
            }
        }
        // B's dedicated core serves immediately.
        if let Some((slot, t0)) = rq.take(1) {
            b_delays.record((tick - t0) as f64);
            rq.finish(1, slot);
        }
    }
    VictimStats {
        admitted_frac: b_admitted as f64 / b_offered as f64,
        p99_delay: b_delays.p99(),
    }
}

/// Ablation: the RQ_Map partitioned Request Queue (paper §4.3's "more
/// advanced design", described but not evaluated there).
///
/// When two services co-locate in a village, a shared RQ lets one
/// service's burst occupy every entry and starve the other (capacity
/// interference). The RQ_Map partitions entries per service. This drives
/// both designs through an adversarial burst pattern.
pub(super) fn ablation_rqmap(_: EnvScale) -> String {
    let mut out = header_text(
        "Ablation: RQ_Map partitioning",
        "A bursty co-located service vs a latency-sensitive trickle service\n\
         sharing one village RQ: admission and delay of the victim.",
    );
    let shared = victim_stats(&mut RequestQueue::new(64));
    let mut rq_map = PartitionedRq::new(64);
    rq_map.set_share(0, 48);
    rq_map.set_share(1, 16);
    let partitioned = victim_stats(&mut rq_map);
    let mut t = Table::with_columns(&["RQ design", "victim admitted", "victim p99 delay (ticks)"]);
    t.row(vec![
        "shared 64-entry RQ".into(),
        format!("{:.1}%", shared.admitted_frac * 100.0),
        f1(shared.p99_delay),
    ]);
    t.row(vec![
        "RQ_Map 48/16 partition".into(),
        format!("{:.1}%", partitioned.admitted_frac * 100.0),
        f1(partitioned.p99_delay),
    ]);
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "partitioning guarantees the victim's slots regardless of the burst\n\
         (the paper describes this design in §4.3 but does not evaluate it)\n",
    );
    out
}

/// Ablation: service snapshots in the cluster memory pool (§3.5, §4.1).
///
/// When a village fills up, the system boots another instance of the
/// service in a different village. With a snapshot resident in the
/// cluster's memory pool the boot takes ~1-2 ms; without it, a cold boot
/// takes over 300 ms — and every request that waits for the new instance
/// eats that delay. Paper anchor: boot drops from >300 ms to <10 ms with
/// <16 MB per service.
pub(super) fn ablation_snapshot(_: EnvScale) -> String {
    let mut out = header_text(
        "Ablation: snapshot memory pool",
        "Instance boot latency and burst tail with and without snapshots.",
    );
    let freq = Frequency::ghz(2.0);
    let mut with_pool = MemoryPool::new(256 * 1024 * 1024);
    for service in 0..11u32 {
        with_pool
            .store(service, 14 * 1024 * 1024) // <16 MB per service (paper)
            .expect("capacity for 11 snapshots");
    }
    let mut no_pool = MemoryPool::new(1); // nothing ever fits: always cold

    let mut t = Table::with_columns(&["configuration", "boot (ms)", "p99 burst latency (ms)"]);
    for (label, pool) in [
        ("with snapshots", &mut with_pool),
        ("cold boots", &mut no_pool),
    ] {
        let mut boots = Samples::new();
        let mut burst = Samples::new();
        // A burst of 200 requests arrives; the first must wait for the new
        // instance to boot, later ones queue behind it (1 ms service).
        for service in 0..11u32 {
            let boot = pool.boot_latency(service, freq).as_millis(freq);
            boots.record(boot);
            for k in 0..200 {
                burst.record(boot + k as f64 * 0.05);
            }
        }
        t.row(vec![label.to_string(), f2(boots.mean()), f1(burst.p99())]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "paper: boot drops from >{COLD_BOOT_MS:.0} ms to <10 ms with ~14-16 MB snapshots\n"
    ));
    out
}

/// Autoscaling under bursts: the snapshot memory pool in the request
/// path (§3.5), on a uManycore with small RQs so bursts overflow a
/// single instance.
pub(super) fn autoscale(env: EnvScale) -> String {
    let scale = env.scale();
    // (label, autoscale, snapshot pool)
    let configs = [
        ("no autoscaling", false, true),
        ("autoscale, cold boots", true, false),
        ("autoscale + snapshot pool", true, true),
    ];
    let reports = parallel::run_reports(
        configs
            .iter()
            .map(|&(_, autoscale, pool)| {
                let mut machine = MachineConfig::umanycore();
                // Small RQs so bursts overflow a single instance.
                machine.rq_capacity = 8;
                machine.memory_pool = pool;
                SimConfig {
                    machine,
                    workload: Workload::social_mix(),
                    rps_per_server: 160_000.0,
                    servers: scale.servers,
                    // The MMPP dwells ~220 ms low and ~30 ms bursting, so
                    // one scale unit (200 ms) samples roughly one burst
                    // cycle and the comparison would hinge on whether it
                    // happens to burst. Run 5x longer so every
                    // configuration sees several bursts regardless of the
                    // seed; multiplying the selected horizon keeps
                    // UM_SCALE=quick composing.
                    horizon_us: scale.horizon_us * 5.0,
                    warmup_us: scale.warmup_us,
                    seed: scale.seed,
                    arrivals: ArrivalProcess::Bursty,
                    autoscale,
                    ..SimConfig::default()
                }
            })
            .collect(),
    );
    let mut out = header_text(
        "Autoscaling with snapshot pools",
        "Bursty (MMPP) SocialNetwork traffic on uManycore; small 8-entry RQs so\n\
         bursts overflow a single instance.",
    );
    let mut t = Table::with_columns(&[
        "configuration",
        "avg (us)",
        "p99 (us)",
        "boots",
        "RQ overflows",
        "stranded",
    ]);
    for ((name, ..), r) in configs.iter().zip(&reports) {
        t.row(vec![
            name.to_string(),
            f1(r.latency.mean),
            f1(r.latency.p99),
            r.instance_boots.to_string(),
            r.rq_overflows.to_string(),
            r.stranded.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "stranded: requests admitted but not completed when the run drained;\n\
         their latency is missing from avg and p99.\n\n",
    );
    out.push_str(
        "paper: snapshots cut instance boot from >300 ms to <10 ms (§3.5), which\n\
         is what lets the system absorb the Figure 2 bursts without tail spikes.\n",
    );
    out
}

/// Ablation: FCFS vs SRPT dequeue on the hardware RQ (§4.3), per
/// workload and load. Both policies of one point share the seed, so the
/// SRPT/FCFS ratio is paired.
pub(super) fn ablation_srpt(env: EnvScale) -> String {
    let scale = env.scale();
    let heavy_tail = Workload::Synthetic(SyntheticWorkload::new(
        ServiceTimeDist::lognormal_with_mean(400.0, 9.0),
        2,
        6,
    ));
    let workloads = [
        (
            "SocialMix",
            Workload::social_mix(),
            [200_000.0, 1_200_000.0],
        ),
        ("HeavyTail", heavy_tail, [200_000.0, 1_000_000.0]),
    ];
    let mut configs = Vec::new();
    for (_, workload, loads) in &workloads {
        for &rps in loads {
            for dequeue_policy in [DequeuePolicy::Fcfs, DequeuePolicy::Srpt] {
                configs.push(SimConfig {
                    machine: MachineConfig::umanycore(),
                    workload: workload.clone(),
                    rps_per_server: rps,
                    servers: scale.servers,
                    horizon_us: scale.horizon_us,
                    warmup_us: scale.warmup_us,
                    seed: scale.seed,
                    dequeue_policy,
                    ..SimConfig::default()
                });
            }
        }
    }
    let mut tails = parallel::run_reports(configs)
        .into_iter()
        .map(|r| r.latency.p99);
    let mut out = header_text(
        "Ablation: FCFS vs SRPT",
        "Tail latency of the uManycore hardware RQ under both dequeue policies.",
    );
    let mut t = Table::with_columns(&[
        "workload",
        "load",
        "FCFS tail (us)",
        "SRPT tail (us)",
        "SRPT/FCFS",
    ]);
    for (name, _, loads) in &workloads {
        for &rps in loads {
            let fcfs = tails.next().expect("one report per policy");
            let srpt = tails.next().expect("one report per policy");
            t.row(vec![
                name.to_string(),
                format!("{:.0}K", rps / 1000.0),
                f1(fcfs),
                f1(srpt),
                format!("{:.2}", srpt / fcfs),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "paper claim (§4.3): SRPT is unlikely to improve over FCFS for\n\
         microservices. At evaluation loads the village queues stay shallow and\n\
         the policies coincide (ratio 1.00); near saturation SRPT actively\n\
         *hurts* the P99 by starving long requests. FCFS is the right choice.\n",
    );
    out
}

/// Tail vs message-loss rate, unmitigated vs timeout + exponential
/// backoff with a retry budget.
pub(super) fn fault_tail(env: EnvScale) -> String {
    let rows = fault_tail_sweep(env.scale());
    let mut out = header_text(
        "Tail vs fault rate",
        "uManycore, SocialNetwork mix at 8K RPS, per-leg message-drop probability\n\
         swept. `none` = no mitigation (lost operations abandoned at the default\n\
         RPC timeout, their requests excluded from latency); `retry` = timeout +\n\
         exponential backoff with a 10% retry budget.",
    );
    let mut t = Table::with_columns(&[
        "drop_p",
        "none p50(us)",
        "none p99(us)",
        "none gave-up",
        "retry p50(us)",
        "retry p99(us)",
        "retry gave-up",
        "retries",
    ]);
    for row in &rows {
        let (baseline, mitigated) = (&row.baseline, &row.mitigated);
        t.row(vec![
            format!("{:.3}", row.drop_p),
            f1(baseline.latency.p50),
            f1(baseline.latency.p99),
            baseline.faults.gave_up_requests.to_string(),
            f1(mitigated.latency.p50),
            f1(mitigated.latency.p99),
            mitigated.faults.gave_up_requests.to_string(),
            mitigated.faults.retries.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let worst = rows.last().expect("nonempty sweep");
    out.push_str(&format!(
        "at drop_p={:.3}: retry keeps {} of {} lost operations alive (baseline abandons {})\n",
        worst.drop_p,
        worst.mitigated.faults.retries,
        worst.mitigated.faults.drops,
        worst.baseline.faults.gave_up_requests,
    ));
    out.push_str(&format!(
        "offered load {RESILIENCE_RPS:.0} RPS/server; all runs conserve latency to the cycle (checked: {})\n",
        f2(worst.baseline.conservation.checked as f64),
    ));
    out
}

/// Graceful degradation: tail and throughput as cores fail-stop.
///
/// Random cores fail permanently at seeded times through the run (a
/// village's last core never fails — the liveness floor masks that
/// event). Straggler-aware steering routes dispatches around degraded
/// villages, so capacity bends rather than collapses.
pub(super) fn fault_degradation(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Graceful degradation under fail-stop",
        "uManycore (1024 cores), SocialNetwork mix at 8K RPS. N random cores\n\
         fail-stop at seeded times through the run; steering is enabled.",
    );
    let rows = degradation_sweep(scale);
    let mut t = Table::with_columns(&[
        "planned fail-stops",
        "cores lost",
        "masked",
        "completed",
        "p50(us)",
        "p99(us)",
        "utilization",
    ]);
    for row in &rows {
        let r = &row.report;
        t.row(vec![
            row.fail_stops.to_string(),
            r.faults.cores_failed.to_string(),
            r.faults.faults_masked.to_string(),
            r.completed.to_string(),
            f1(r.latency.p50),
            f1(r.latency.p99),
            f3(r.utilization),
        ]);
    }
    out.push_str(&t.render());
    let healthy = &rows[0].report;
    let worst = rows.last().expect("nonempty sweep");
    out.push_str(&format!(
        "losing {} cores costs {:.1}% of completions and {:.2}x the p99\n",
        worst.report.faults.cores_failed,
        100.0 * (1.0 - worst.report.completed as f64 / healthy.completed as f64),
        worst.report.latency.p99 / healthy.latency.p99,
    ));
    out
}

/// The hedging ablation: one fail-slow core in every village, p99 with
/// and without hedged backup requests.
///
/// This is the classic tail-at-scale straggler scenario: a single slow
/// core per coherence domain multiplies the service time of whatever it
/// dispatches, and at 128 villages nearly every request tree touches one.
/// Hedging issues a backup to a different village once an operation has
/// been outstanding for the healthy p90-equivalent delay; the first
/// delivery wins, the loser is discarded without double-charging latency.
pub(super) fn fault_hedging(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Hedging ablation under fail-slow stragglers",
        "uManycore, SocialNetwork mix at 8K RPS, 1 fail-slow core per village for\n\
         the whole run. Hedge fires after the p90-equivalent outstanding delay\n\
         (HedgeConfig::after_quantile(0.9, 150us)).",
    );
    let (healthy, rows) = hedging_ablation(scale);
    out.push_str(&format!(
        "healthy reference: p50 {} us, p99 {} us\n",
        f1(healthy.latency.p50),
        f1(healthy.latency.p99)
    ));
    let mut t = Table::with_columns(&[
        "slowdown",
        "degraded p99(us)",
        "hedged p99(us)",
        "p99 recovered",
        "hedges",
        "wasted",
    ]);
    for row in &rows {
        let degraded = row.degraded.latency.p99;
        let hedged = row.hedged.latency.p99;
        let inflation = degraded - healthy.latency.p99;
        let recovered = if inflation > 0.0 {
            format!("{:.0}%", 100.0 * (degraded - hedged) / inflation)
        } else {
            "-".to_string()
        };
        t.row(vec![
            f1(row.slowdown),
            f1(degraded),
            f1(hedged),
            recovered,
            row.hedged.faults.hedges.to_string(),
            row.hedged.faults.wasted_attempts.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let worst = rows.last().expect("nonempty sweep");
    out.push_str(&format!(
        "at {}x: hedging cuts p99 from {} to {} us ({}x of the healthy tail)\n",
        f1(worst.slowdown),
        f1(worst.degraded.latency.p99),
        f1(worst.hedged.latency.p99),
        f2(worst.hedged.latency.p99 / healthy.latency.p99),
    ));
    out
}

/// Offered load per full-rack node for [`cluster_autoscale`]; the small
/// racks carry the same aggregate, concentrated on a quarter of the
/// packages — bursts then push the concentrated nodes past their
/// ~125K-RPS saturation point while the full rack barely notices.
const RACK_RPS_PER_NODE: f64 = 12_000.0;

/// Rack-level autoscaling under bursty traffic, extending the
/// single-package `autoscale` result.
///
/// §3.5's claim is that snapshot-backed instance boots (~2 ms) let a
/// service absorb bursts that cold boots (>300 ms) cannot. At rack
/// scale the knob is whole standby *packages*: a small rack that takes
/// the full aggregate load, a full rack provisioned for the peak, and
/// small racks that scale out with snapshot vs cold boots when the
/// load balancer's in-flight count crosses the high-water mark.
pub(super) fn cluster_autoscale(env: EnvScale) -> String {
    let scale = env.cluster();
    let mut out = header_text(
        "Rack autoscaling with snapshot boots",
        &format!(
            "Bursty (MMPP) SocialNetwork traffic; {} packages at full provisioning,\n\
             {} to start when autoscaling; JSQ(2) routing.",
            scale.nodes,
            (scale.nodes / 4).max(1)
        ),
    );
    let rows = cluster_autoscale_rows(&scale, RACK_RPS_PER_NODE);
    let mut t = Table::with_columns(&[
        "configuration",
        "avg (us)",
        "p99 (us)",
        "boots",
        "final nodes",
        "peak LB queue",
    ]);
    for row in &rows {
        let r = &row.report;
        t.row(vec![
            row.name.to_string(),
            f1(r.latency.mean),
            f1(r.latency.p99),
            r.boots.to_string(),
            r.active_nodes.to_string(),
            r.peak_lb_queue.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "paper: snapshots cut instance boot from >300 ms to <10 ms (§3.5); at rack\n\
         scale that is the difference between absorbing a burst with standby\n\
         packages and queueing it at the load balancer for the cold boot's duration.\n",
    );
    out
}

/// Fleet tail by routing policy: a rack of package slices behind one
/// load balancer, per-node load swept up to ~0.95 utilization.
pub(super) fn cluster_tail(env: EnvScale) -> String {
    let scale = env.cluster();
    let rows = cluster_tail_rows(&scale);
    let mut out = header_text(
        "Cluster tail by routing policy",
        &format!(
            "{} uManycore package slices (8-core villages, 64 cores each) behind one\n\
             load balancer; SocialNetwork mix, 0.5 us rack fabric with lognormal\n\
             jitter; per-node offered load swept up to ~0.95 utilization.",
            scale.nodes
        ),
    );
    let mut t = Table::with_columns(&[
        "policy",
        "rps/node",
        "avg (us)",
        "p99 (us)",
        "hop avg (us)",
        "hop p99 (us)",
        "peak LB queue",
    ]);
    for row in &rows {
        let r = &row.report;
        t.row(vec![
            row.policy.to_string(),
            format!("{:.0}", row.rps_per_node),
            f1(r.latency.mean),
            f1(r.latency.p99),
            f1(r.cluster_hop.mean),
            f1(r.cluster_hop.p99),
            r.peak_lb_queue.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "At low load the package's internal parallelism absorbs routing imbalance\n\
         and every policy ties; past ~0.9 utilization JSQ(2) tracks the central\n\
         queue while random routing pays at the p99 — the uqSim/CloudNativeSim-style\n\
         cluster result, with a many-core package (not a single worker) per node.\n",
    );
    out
}
