//! Conformance tests for the declarative scenario layer: the sweep
//! runner must render byte-identical text at any `UM_THREADS`, the
//! registry must round-trip through canonical JSON, and validation must
//! refuse the cluster RQ-deadlock regime.
//!
//! Runs use reduced horizons so the suite stays fast in debug builds; the
//! properties being pinned do not depend on scale, and CI separately
//! byte-diffs full-scale regenerations of every result against the
//! committed `results/` files.

use um_bench::scenario::{self, registry, ClusterSpec, NamedRouting, Scenario, ScenarioKind};
use umanycore::RoutingPolicy;

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
fn cluster10_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(registry::cluster10(), 5_000.0);
    if let ScenarioKind::MachineCompare { loads, .. } = &mut s.kind {
        loads.truncate(1);
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
// Regression: the cluster RQ-deadlock guard refuses shallow racks
// -----------------------------------------------------------------

/// A rack grid of default-depth (64-entry) RQs with admission control
/// disabled can deadlock: every RQ fills with requests whose handlers
/// are blocked on downstream RPCs that need the same RQ slots. The
/// workaround (DESIGN.md, "Cluster layer") is deep RQs or an admission
/// cap with `2 * cap <= rq_capacity`; `Scenario::validate` must refuse
/// the configuration rather than let the sim wedge.
#[test]
fn shallow_rq_cluster_without_admission_cap_is_refused() {
    let mut s = registry::sweep_default();
    if let ScenarioKind::Grid(g) = &mut s.kind {
        g.nodes = vec![4];
    }
    // Default 64-entry RQs, no admission cap.
    s.cluster = Some(ClusterSpec {
        nodes: 4,
        routing: vec![NamedRouting {
            name: "jsq(2)".to_string(),
            policy: RoutingPolicy::JsqD { d: 2 },
        }],
        max_in_flight: None,
        jitter: None,
        steer: false,
    });
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

// -----------------------------------------------------------------
// Benchmark inputs stay canonical
// -----------------------------------------------------------------

/// The benchmark's scenario documents parse, validate and are already in
/// canonical form: re-rendering reproduces each file byte for byte.
#[test]
fn perf_scenario_documents_are_canonical() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perf/scenarios");
    for name in ["node-um", "rack-512", "serve-job"] {
        let path = dir.join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let s = Scenario::from_json_text(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            s.to_json_text().trim_end(),
            text.trim_end(),
            "{name}: not in canonical form"
        );
    }
}
