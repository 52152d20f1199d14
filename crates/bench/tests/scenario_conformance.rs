//! Conformance tests for the declarative scenario layer: the sweep
//! runner must render byte-identical text at any `UM_THREADS`, the
//! registry scenarios must keep the shapes their figures rest on, and
//! validation must refuse the cluster RQ-deadlock regime.
//!
//! Runs use reduced horizons so the suite stays fast in debug builds; the
//! properties being pinned do not depend on scale, and CI separately
//! byte-diffs full-scale regenerations of every result against the
//! committed `results/` files.

use um_bench::scenario::{self, registry, PointConfig, Scenario, ScenarioKind};
use um_bench::EnvScale;
use umanycore::experiments::cluster::{ClusterScale, POLICIES};
use umanycore::experiments::resilience::DROP_RATES;
use umanycore::experiments::{parallel, Scale};
use umanycore::{ClusterReport, ClusterSim, RunReport, SystemSim};

/// Applies `UM_SCALE=quick` semantics without touching the environment
/// (tests run in parallel; env mutation would race).
fn quick(mut s: Scenario) -> Scenario {
    EnvScale {
        quick: true,
        seed: None,
    }
    .apply(&mut s);
    s
}

/// Runs every single-node point of a scenario, in expansion order.
fn node_reports(s: &Scenario) -> Vec<RunReport> {
    let points = s.expand().expect("scenario is valid");
    parallel::map(points, |_, p| match p {
        PointConfig::Node(cfg) => SystemSim::new(*cfg).run(),
        PointConfig::Cluster(_) => panic!("{}: expected single-node points", s.name),
    })
}

/// Runs every rack point of a scenario, in expansion order.
fn cluster_reports(s: &Scenario) -> Vec<ClusterReport> {
    let points = s.expand().expect("scenario is valid");
    parallel::map(points, |_, p| match p {
        PointConfig::Cluster(cfg) => ClusterSim::new(*cfg).run(),
        PointConfig::Node(_) => panic!("{}: expected rack points", s.name),
    })
}

// -----------------------------------------------------------------
// Thread identity: byte-identical text at UM_THREADS ∈ {1, 4}
// -----------------------------------------------------------------

fn assert_thread_identical(s: &Scenario) {
    let one = scenario::run_with_threads(s, 1).expect("scenario is valid");
    let four = scenario::run_with_threads(s, 4).expect("scenario is valid");
    assert_eq!(
        one.text, four.text,
        "{}: text differs across UM_THREADS",
        s.name
    );
    assert_eq!(
        one.points, four.points,
        "{}: benchjson points differ across UM_THREADS",
        s.name
    );
}

/// Shrinks a scenario's horizons so debug-profile runs stay fast.
fn tiny(mut s: Scenario, horizon_us: f64) -> Scenario {
    s.scale.horizon_us = horizon_us;
    s.scale.warmup_us = horizon_us / 10.0;
    s
}

#[test]
fn fig7_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(registry::fig7(), 5_000.0);
    if let ScenarioKind::Fig7 { loads } = &mut s.kind {
        loads.truncate(2);
    }
    assert_thread_identical(&s);
}

#[test]
fn breakdown_text_is_bit_identical_across_thread_counts() {
    assert_thread_identical(&tiny(registry::breakdown(), 5_000.0));
}

#[test]
fn fault_tail_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(registry::fault_tail(), 5_000.0);
    if let ScenarioKind::FaultTail { drop_rates, .. } = &mut s.kind {
        *drop_rates = vec![0.0, 0.02];
    }
    assert_thread_identical(&s);
}

#[test]
fn cluster_tail_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(registry::cluster_tail(), 2_000.0);
    if let ScenarioKind::ClusterTail { loads } = &mut s.kind {
        *loads = vec![60_000.0];
    }
    s.cluster.as_mut().expect("cluster scenario").nodes = 4;
    assert_thread_identical(&s);
}

#[test]
fn cluster10_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(registry::cluster10(), 5_000.0);
    if let ScenarioKind::MachineCompare { loads, .. } = &mut s.kind {
        loads.truncate(1);
    }
    assert_thread_identical(&s);
}

#[test]
fn autoscale_text_is_bit_identical_across_thread_counts() {
    // horizon_factor 5 stretches this to 10 ms of bursty arrivals.
    assert_thread_identical(&tiny(registry::autoscale(), 2_000.0));
}

#[test]
fn ablation_srpt_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(registry::ablation_srpt(), 3_000.0);
    if let ScenarioKind::SrptAblation { workloads } = &mut s.kind {
        for w in workloads {
            w.loads.truncate(1);
        }
    }
    assert_thread_identical(&s);
}

#[test]
fn sweep_grid_is_bit_identical_across_thread_counts() {
    let mut s = tiny(registry::sweep_default(), 4_000.0);
    if let ScenarioKind::Grid(g) = &mut s.kind {
        g.loads = vec![2_000.0, 8_000.0];
        g.seeds = vec![42];
    }
    assert_thread_identical(&s);
}

// -----------------------------------------------------------------
// Figure shapes on the registry scenarios
// -----------------------------------------------------------------

#[test]
fn fault_tail_sweep_shapes() {
    let mut s = registry::fault_tail();
    s.scale = Scale {
        horizon_us: 15_000.0,
        warmup_us: 1_500.0,
        ..Scale::default()
    };
    // One (unmitigated, retried) pair per drop rate.
    let reports = node_reports(&s);
    assert_eq!(reports.len(), 2 * DROP_RATES.len());
    let pairs: Vec<&[RunReport]> = reports.chunks_exact(2).collect();
    // The zero-loss point is fault-free in both columns.
    assert_eq!(pairs[0][0].faults.drops, 0);
    assert_eq!(pairs[0][1].faults.retries, 0);
    // The heaviest-loss point drops messages and the mitigated column
    // actually retries.
    let worst = pairs.last().expect("nonempty sweep");
    assert!(worst[0].faults.drops > 0);
    assert!(worst[1].faults.retries > 0);
    for r in &reports {
        assert!(r.conservation.exact());
    }
}

#[test]
fn quick_tail_rows_cover_the_policy_grid() {
    let mut s = registry::cluster_tail();
    s.scale.horizon_us = 4_000.0;
    s.scale.warmup_us = 400.0;
    s.cluster.as_mut().expect("cluster scenario").nodes = 3;
    s.kind = ScenarioKind::ClusterTail {
        loads: vec![10_000.0],
    };
    let reports = cluster_reports(&s);
    assert_eq!(reports.len(), POLICIES.len());
    for (r, (policy, _)) in reports.iter().zip(POLICIES) {
        assert!(r.recorded > 0, "{policy}");
        assert!(r.conservation.exact(), "{policy}");
    }
}

// -----------------------------------------------------------------
// Regression: the cluster RQ-deadlock guard refuses shallow racks
// -----------------------------------------------------------------

/// A rack of default-depth (64-entry) RQs with admission control
/// disabled can deadlock: every RQ fills with requests whose handlers
/// are blocked on downstream RPCs that need the same RQ slots. The
/// workaround (DESIGN.md, "Cluster layer") is deep RQs or an admission
/// cap with `2 * cap <= rq_capacity`; `Scenario::validate` must refuse
/// the configuration rather than let the sim wedge.
#[test]
fn shallow_rq_cluster_without_admission_cap_is_refused() {
    let mut s = registry::cluster_tail();
    s.machine.rq_capacity = None; // default 64-entry RQs
    let err = s
        .validate()
        .expect_err("shallow uncapped rack must be refused");
    for needle in [
        "max_in_flight",
        "rq_capacity",
        "DESIGN.md, \"Cluster layer\"",
    ] {
        assert!(err.contains(needle), "error {err:?} missing {needle:?}");
    }

    // The documented workaround passes: cap with 2 * cap <= rq.
    s.cluster.as_mut().expect("cluster scenario").max_in_flight = Some(32);
    s.validate()
        .expect("capped shallow rack is the documented workaround");

    // One past the pigeonhole bound is refused again.
    s.cluster.as_mut().expect("cluster scenario").max_in_flight = Some(33);
    s.validate().expect_err("cap above rq/2 must be refused");
}

// -----------------------------------------------------------------
// Registry hygiene
// -----------------------------------------------------------------

#[test]
fn every_registry_scenario_expands_and_round_trips() {
    for s in registry::all() {
        let points = s.expand().expect("registry scenarios are valid");
        assert!(!points.is_empty(), "{}: empty expansion", s.name);
        let text = s.to_json_text();
        let back = Scenario::from_json_text(&text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", s.name));
        assert_eq!(back, s, "{}: JSON round-trip changed the scenario", s.name);
        assert_eq!(
            back.to_json_text(),
            text,
            "{}: serialization not byte-stable",
            s.name
        );
    }
}

#[test]
fn quick_scale_matches_the_experiment_layer_values() {
    let s = quick(registry::fig7());
    assert_eq!(s.scale, Scale::quick());
    let c = quick(registry::cluster_tail());
    let q = ClusterScale::quick();
    assert_eq!(c.scale.horizon_us, q.horizon_us);
    assert_eq!(c.scale.warmup_us, q.warmup_us);
    assert_eq!(c.cluster.expect("cluster scenario").nodes, q.nodes);
    match &c.kind {
        ScenarioKind::ClusterTail { loads } => assert_eq!(*loads, q.loads),
        other => panic!("cluster_tail registry scenario has kind {other:?}"),
    }
}
