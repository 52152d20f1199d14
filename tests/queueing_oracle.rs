//! Analytic queueing oracles for the system simulator.
//!
//! A single-core, single-service machine fed Poisson arrivals is an
//! M/G/1 queue, so the simulator's measured latencies must match the
//! closed forms: M/M/1 (exponential service) `W = E[S] / (1 - rho)` and
//! M/D/1 (deterministic service) `Wq = rho E[S] / (2 (1 - rho))`. The
//! runs execute through the full event path — NIC ingress, village
//! queue, dispatch, handler — so agreement validates the whole pipeline,
//! not a shortcut model. Each oracle is checked at `UM_THREADS = 1` and
//! `4` via the sweep runner, which must be bit-identical.
//!
//! The cluster layer has its own closed forms, checked the same way on
//! racks of single-core nodes behind the load balancer:
//!
//! - **random routing** splits the Poisson fleet stream into k
//!   independent Poisson streams, so each node is M/M/1 at the same
//!   rho and the fleet mean is the M/M/1 sojourn;
//! - **central queue + admission cap 1** holds every waiting request at
//!   the load balancer and dispatches to the first idle node: textbook
//!   M/M/k, Erlang-C delay;
//! - **JSQ(2)** must land between those two, above its mean-field
//!   (large-k) limit.

use umanycore::cluster::{ClusterConfig, ClusterNetConfig, ClusterReport, ClusterSim};
use umanycore::experiments::parallel::map_with_threads;
use umanycore::{RoutingPolicy, RunReport, SimConfig, SystemSim, Workload};

use um_arch::config::{MachineConfig, TopologyShape};
use um_workload::{ServiceGraph, ServiceId, ServiceProfile, ServiceTimeDist};

/// Mean service time of the oracle's single service, microseconds.
const MEAN_SERVICE_US: f64 = 200.0;

/// Offered load `rho = lambda * E[S]`.
const RHO: f64 = 0.7;

/// Relative tolerance for measured-vs-closed-form means. The simulator's
/// service path adds small real costs on top of the sampled handler time
/// (hardware RPC processing ~0.05 us, the scheduling instruction, ~0.5%
/// coherence overhead), and a finite run estimates means with sampling
/// error, so exact agreement is not expected — but a queueing-model bug
/// (wrong wait accounting, lost work, double service) lands far outside
/// this band.
const TOLERANCE: f64 = 0.12;

/// A workload with one service, no RPCs, and the given service-time
/// distribution: exactly the M/G/1 service process.
fn single_service(compute: ServiceTimeDist) -> Workload {
    let id = ServiceId::new(0);
    let profile = ServiceProfile {
        name: "oracle",
        id,
        compute,
        storage_calls: 0,
        extra_storage_p: 0.0,
        extra_storage_max: 0,
        downstream: Vec::new(),
        storage_bytes: 0,
    };
    Workload::Graph {
        graph: ServiceGraph::new(vec![profile], vec![id]),
        root: Some(id),
    }
}

fn oracle_config(compute: ServiceTimeDist, seed: u64) -> SimConfig {
    // One core, one village, one cluster: a single-server queue.
    let machine = MachineConfig::umanycore_shaped(TopologyShape::new(1, 1, 1));
    let lambda_per_us = RHO / MEAN_SERVICE_US;
    SimConfig {
        machine,
        workload: single_service(compute),
        rps_per_server: lambda_per_us * 1e6,
        servers: 1,
        // Queue-wait sequences are strongly autocorrelated (busy-period
        // excursions), so the mean estimator needs far more raw samples
        // than an i.i.d. calculation suggests; 4 s x 3 seeds keeps its
        // error well inside the tolerance band.
        horizon_us: 4_000_000.0,
        warmup_us: 400_000.0,
        seed,
        ..SimConfig::default()
    }
}

fn run_at_threads(cfg: &SimConfig, threads: usize) -> RunReport {
    map_with_threads(threads, vec![cfg.clone()], |_, c| SystemSim::new(c).run())
        .pop()
        .expect("one config in, one report out")
}

fn assert_close(measured: f64, oracle: f64, what: &str) {
    let rel = (measured - oracle).abs() / oracle;
    assert!(
        rel < TOLERANCE,
        "{what}: measured {measured:.1} us vs closed-form {oracle:.1} us \
         ({:.1}% off, tolerance {:.0}%)",
        rel * 100.0,
        TOLERANCE * 100.0
    );
}

/// Runs one oracle scenario as a 3-seed sweep at `UM_THREADS` 1 and 4
/// (so the 4-thread pool genuinely runs concurrently), asserts the two
/// pools produce bit-identical results, and returns the sweep's reports.
fn run_both_thread_counts(cfg: SimConfig) -> Vec<RunReport> {
    let sweep: Vec<SimConfig> = (0..3)
        .map(|i| SimConfig {
            seed: cfg.seed + i,
            ..cfg.clone()
        })
        .collect();
    let run = |_, c: SimConfig| SystemSim::new(c).run();
    let serial = map_with_threads(1, sweep.clone(), run);
    let pooled = map_with_threads(4, sweep, run);
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(
            s.latency.mean.to_bits(),
            p.latency.mean.to_bits(),
            "UM_THREADS must not change results"
        );
        assert_eq!(s.queue_wait_us.to_bits(), p.queue_wait_us.to_bits());
        assert_eq!(s.completed, p.completed);
    }
    serial
}

fn mean_over(reports: &[RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

#[test]
fn mm1_mean_latency_matches_closed_form() {
    let reports = run_both_thread_counts(oracle_config(
        ServiceTimeDist::exponential(MEAN_SERVICE_US),
        101,
    ));
    for r in &reports {
        assert!(r.recorded > 3_000, "enough samples for a stable mean");
        assert!(r.conservation.exact(), "{:?}", r.conservation);
    }

    // M/M/1: W = E[S] / (1 - rho), Wq = rho E[S] / (1 - rho).
    let w = MEAN_SERVICE_US / (1.0 - RHO);
    let wq = RHO * MEAN_SERVICE_US / (1.0 - RHO);
    assert_close(
        mean_over(&reports, |r| r.latency.mean),
        w,
        "M/M/1 mean sojourn",
    );
    assert_close(
        mean_over(&reports, |r| r.queue_wait_us),
        wq,
        "M/M/1 mean queue wait",
    );
}

#[test]
fn md1_mean_latency_matches_closed_form() {
    let reports = run_both_thread_counts(oracle_config(
        ServiceTimeDist::constant(MEAN_SERVICE_US),
        102,
    ));
    for r in &reports {
        assert!(r.recorded > 3_000, "enough samples for a stable mean");
        assert!(r.conservation.exact(), "{:?}", r.conservation);
    }

    // M/D/1: Wq = rho E[S] / (2 (1 - rho)), W = E[S] + Wq — half the
    // M/M/1 queueing, the classic variance effect.
    let wq = RHO * MEAN_SERVICE_US / (2.0 * (1.0 - RHO));
    let w = MEAN_SERVICE_US + wq;
    assert_close(
        mean_over(&reports, |r| r.latency.mean),
        w,
        "M/D/1 mean sojourn",
    );
    assert_close(
        mean_over(&reports, |r| r.queue_wait_us),
        wq,
        "M/D/1 mean queue wait",
    );
}

/// A k-node rack of single-core oracle nodes with a near-transparent
/// fabric (10 ns one-way, no jitter), so cluster latencies are the
/// queueing model's plus sub-microsecond constants.
fn cluster_oracle_config(nodes: usize, routing: RoutingPolicy, seed: u64) -> ClusterConfig {
    let lambda_per_us = RHO / MEAN_SERVICE_US;
    ClusterConfig {
        node: SimConfig {
            machine: MachineConfig::umanycore_shaped(TopologyShape::new(1, 1, 1)),
            workload: single_service(ServiceTimeDist::exponential(MEAN_SERVICE_US)),
            ..SimConfig::default()
        },
        nodes,
        rps_per_node: lambda_per_us * 1e6,
        horizon_us: 4_000_000.0,
        warmup_us: 400_000.0,
        seed,
        routing,
        net: ClusterNetConfig {
            one_way_us: 0.01,
            jitter_us: None,
            ..ClusterNetConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// Runs one cluster oracle scenario as a 3-seed sweep at `UM_THREADS`
/// 1 and 4, asserts bit-identity between the pools, and returns the
/// sweep's reports.
fn run_cluster_both_thread_counts(cfg: ClusterConfig) -> Vec<ClusterReport> {
    let sweep: Vec<ClusterConfig> = (0..3)
        .map(|i| ClusterConfig {
            seed: cfg.seed + i,
            ..cfg.clone()
        })
        .collect();
    let run = |_, c: ClusterConfig| ClusterSim::new(c).run();
    let serial = map_with_threads(1, sweep.clone(), run);
    let pooled = map_with_threads(4, sweep, run);
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(
            s.latency.mean.to_bits(),
            p.latency.mean.to_bits(),
            "UM_THREADS must not change cluster results"
        );
        assert_eq!(s.cluster_hop.mean.to_bits(), p.cluster_hop.mean.to_bits());
        assert_eq!(s.completed, p.completed);
    }
    for r in &serial {
        assert!(r.recorded > 3_000, "enough samples for a stable mean");
        assert!(r.conservation.exact(), "{:?}", r.conservation);
    }
    serial
}

fn cluster_mean(reports: &[ClusterReport]) -> f64 {
    reports.iter().map(|r| r.latency.mean).sum::<f64>() / reports.len() as f64
}

/// Erlang-C: the probability an M/M/k arrival waits, via the Erlang-B
/// recurrence `B(0) = 1, B(j) = a B(j-1) / (j + a B(j-1))`.
fn erlang_c(k: usize, a: f64) -> f64 {
    let mut b = 1.0;
    for j in 1..=k {
        b = a * b / (j as f64 + a * b);
    }
    k as f64 * b / (k as f64 - a * (1.0 - b))
}

#[test]
fn random_routing_splits_into_independent_mm1_nodes() {
    let reports =
        run_cluster_both_thread_counts(cluster_oracle_config(4, RoutingPolicy::Random, 104));
    // Thinning a Poisson stream uniformly over k nodes leaves k Poisson
    // streams at rho = 0.7 each: the fleet mean is the M/M/1 sojourn.
    let w = MEAN_SERVICE_US / (1.0 - RHO);
    assert_close(cluster_mean(&reports), w, "random-routing fleet mean");
}

#[test]
fn central_queue_with_unit_admission_is_mmk() {
    let k = 4;
    let reports = run_cluster_both_thread_counts(ClusterConfig {
        max_in_flight: Some(1),
        ..cluster_oracle_config(k, RoutingPolicy::CentralQueue, 105)
    });
    // M/M/k, a = k rho erlangs: W = E[S] + C(k, a) E[S] / (k - a).
    let a = k as f64 * RHO;
    let wq = erlang_c(k, a) * MEAN_SERVICE_US / (k as f64 - a);
    let w = MEAN_SERVICE_US + wq;
    assert_close(cluster_mean(&reports), w, "M/M/4 fleet mean");
    // The wait happens at the load balancer, so it must be charged to
    // the cluster-hop component, not hidden inside the nodes.
    let hop = reports.iter().map(|r| r.cluster_hop.mean).sum::<f64>() / reports.len() as f64;
    assert_close(hop, wq, "M/M/4 cluster-hop (LB wait) mean");
}

#[test]
fn jsq2_lands_between_the_split_and_the_shared_queue() {
    let k = 8;
    let jsq = cluster_mean(&run_cluster_both_thread_counts(cluster_oracle_config(
        k,
        RoutingPolicy::JsqD { d: 2 },
        106,
    )));
    // Mean-field JSQ(d) with exponential service: the fraction of
    // servers holding >= i jobs is rho^((d^i - 1)/(d - 1)), so the mean
    // sojourn is E[S]/rho * sum_i rho^(2^i - 1) for d = 2. The limit is
    // exact as k -> infinity and a lower bound at finite k.
    let mut jobs = 0.0;
    let mut exponent = 1.0;
    for _ in 0..40 {
        jobs += RHO.powf(exponent);
        exponent = 2.0 * exponent + 1.0;
    }
    let mean_field = MEAN_SERVICE_US / RHO * jobs;
    let mm1 = MEAN_SERVICE_US / (1.0 - RHO);
    let a = k as f64 * RHO;
    let mmk = MEAN_SERVICE_US + erlang_c(k, a) * MEAN_SERVICE_US / (k as f64 - a);
    assert!(
        jsq > mean_field * (1.0 - TOLERANCE),
        "JSQ(2) fleet mean {jsq:.1} us below its mean-field limit {mean_field:.1} us"
    );
    assert!(
        jsq < mm1 * (1.0 + TOLERANCE),
        "JSQ(2) fleet mean {jsq:.1} us above the random-split M/M/1 mean {mm1:.1} us"
    );
    assert!(
        jsq > mmk * (1.0 - TOLERANCE),
        "JSQ(2) fleet mean {jsq:.1} us below the shared-queue M/M/{k} mean {mmk:.1} us"
    );
}

#[test]
fn md1_queues_less_than_mm1() {
    // The PK formula's variance term, end to end: deterministic service
    // must queue about half as much as exponential at equal load.
    let mm1 = run_at_threads(
        &oracle_config(ServiceTimeDist::exponential(MEAN_SERVICE_US), 103),
        1,
    );
    let md1 = run_at_threads(
        &oracle_config(ServiceTimeDist::constant(MEAN_SERVICE_US), 103),
        1,
    );
    let ratio = md1.queue_wait_us / mm1.queue_wait_us;
    assert!(
        (0.35..0.7).contains(&ratio),
        "M/D/1 vs M/M/1 queue-wait ratio {ratio} (theory: 0.5)"
    );
}
