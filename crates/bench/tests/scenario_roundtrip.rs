//! Property tests for the scenario JSON codec: a randomized valid
//! [`Scenario`] must serialize → parse → serialize byte-stably, and
//! malformed documents (unknown fields, out-of-range knobs) must come
//! back as field-path errors, never panics.
//!
//! Every strategy below generates scenarios that are valid by
//! construction (validation invariants are encoded in the generators),
//! so a round-trip failure is a codec bug, not a rejected input.

use proptest::prelude::*;
use um_arch::config::IcnKind;
use um_bench::benchjson::Json;
use um_bench::scenario::{
    registry, ClusterSpec, GridSpec, JitterSpec, MachineBase, MachineSpec, MitigationSpec,
    NamedMachine, NamedPolicy, NamedRouting, RetrySpec, Scenario, ScenarioKind, WorkloadSpec,
};
use um_sim::fault::FaultRecipe;
use umanycore::experiments::Scale;
use umanycore::RoutingPolicy;

// -----------------------------------------------------------------
// Generators
// -----------------------------------------------------------------

fn name_strategy() -> impl Strategy<Value = String> {
    (0u64..(1 << 32)).prop_map(|n| format!("s{n:x}"))
}

/// Positive finite times/rates, mixing fractional values with exact
/// integers so both `benchjson` number renderings are exercised.
fn pos_f64() -> impl Strategy<Value = f64> {
    prop_oneof![0.001f64..1.0e6, (1u32..1_000_000u32).prop_map(f64::from),]
}

fn seed_strategy() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 53)
}

fn scale_strategy() -> impl Strategy<Value = Scale> {
    (pos_f64(), 0.0f64..0.99, 1usize..4, seed_strategy()).prop_map(
        |(horizon_us, warmup_frac, servers, seed)| Scale {
            horizon_us,
            warmup_us: horizon_us * warmup_frac,
            servers,
            seed,
        },
    )
}

fn icn_strategy() -> impl Strategy<Value = IcnKind> {
    prop_oneof![
        Just(IcnKind::Mesh),
        Just(IcnKind::FatTree),
        Just(IcnKind::LeafSpine),
    ]
}

fn machine_strategy() -> impl Strategy<Value = MachineSpec> {
    let base = prop_oneof![
        Just(MachineBase::Umanycore),
        Just(MachineBase::Scaleout),
        Just(MachineBase::ServerClassIsoPower),
        Just(MachineBase::ServerClassIsoArea),
    ];
    (
        base,
        proptest::option::of([1usize..8, 1usize..8, 1usize..8]),
        proptest::option::of(1usize..4096),
        proptest::option::of(0u64..20_000),
        proptest::option::of(icn_strategy()),
    )
        .prop_map(
            |(base, shape, rq_capacity, ctx_switch_cycles, icn)| MachineSpec {
                base,
                // Shape overrides are only valid on the uManycore base.
                shape: if base == MachineBase::Umanycore {
                    shape
                } else {
                    None
                },
                rq_capacity,
                ctx_switch_cycles,
                icn,
            },
        )
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        Just(WorkloadSpec::SocialMix),
        Just(WorkloadSpec::TrainMix),
        (0.1f64..100.0, 0.1f64..10.0, 0u32..4, 0u32..4).prop_map(|(mean_us, scv, a, b)| {
            WorkloadSpec::Synthetic {
                mean_us,
                scv,
                min_rpcs: a.min(b),
                max_rpcs: a.max(b),
            }
        }),
    ]
}

fn retry_strategy() -> impl Strategy<Value = RetrySpec> {
    (0.1f64..100_000.0, 1.0f64..4.0, 1u32..10, 0.0f64..1.0).prop_map(
        |(timeout_us, backoff, max_attempts, budget_fraction)| RetrySpec {
            timeout_us,
            backoff,
            max_attempts,
            budget_fraction,
        },
    )
}

fn mitigation_strategy() -> impl Strategy<Value = MitigationSpec> {
    (
        proptest::option::of(0.0f64..10_000.0),
        proptest::option::of(retry_strategy()),
        proptest::bool::ANY,
    )
        .prop_map(|(hedge_delay_us, retry, steer)| MitigationSpec {
            hedge_delay_us,
            retry,
            steer,
        })
}

/// Fault windows: a start and a positive duration, so `from < until`.
fn window_strategy() -> impl Strategy<Value = (u64, u64)> {
    (0u64..1_000_000, 1u64..1_000_000).prop_map(|(from, duration)| (from, from + duration))
}

/// Every [`FaultRecipe`] variant, valid by construction.
fn fault_strategy() -> impl Strategy<Value = FaultRecipe> {
    prop_oneof![
        (0.0f64..0.99).prop_map(|probability| FaultRecipe::MessageDrops { probability }),
        (0usize..4, 0usize..32, 0u64..1_000_000).prop_map(|(server, village, at_cycles)| {
            FaultRecipe::CoreFailStop {
                server,
                village,
                at_cycles,
            }
        }),
        (
            0usize..4,
            0usize..32,
            1u32..8,
            window_strategy(),
            1.0f64..20.0
        )
            .prop_map(
                |(server, village, cores, (from_cycles, until_cycles), slowdown)| {
                    FaultRecipe::CoreFailSlow {
                        server,
                        village,
                        cores,
                        from_cycles,
                        until_cycles,
                        slowdown,
                    }
                }
            ),
        (0usize..4, 0usize..64, window_strategy(), 1.0f64..20.0).prop_map(
            |(server, link, (from_cycles, until_cycles), slowdown)| FaultRecipe::LinkFault {
                server,
                link,
                from_cycles,
                until_cycles,
                slowdown,
            }
        ),
        (
            1usize..4,
            1usize..32,
            1u32..8,
            window_strategy(),
            1.0f64..20.0
        )
            .prop_map(
                |(servers, villages, cores, (from_cycles, until_cycles), slowdown)| {
                    FaultRecipe::FailSlowEveryVillage {
                        servers,
                        villages,
                        cores,
                        from_cycles,
                        until_cycles,
                        slowdown,
                    }
                }
            ),
        (0usize..8, 1usize..4, 1usize..32, 1u64..1_000_000).prop_map(
            |(count, servers, villages, horizon_cycles)| FaultRecipe::RandomFailStops {
                count,
                servers,
                villages,
                horizon_cycles,
            }
        ),
        (
            0usize..8,
            1usize..4,
            1usize..64,
            1u64..1_000_000,
            1u64..100_000,
            1.0f64..20.0
        )
            .prop_map(
                |(count, servers, links, horizon_cycles, mean_duration_cycles, slowdown)| {
                    FaultRecipe::RandomLinkFaults {
                        count,
                        servers,
                        links,
                        horizon_cycles,
                        mean_duration_cycles,
                        slowdown,
                    }
                }
            ),
    ]
}

fn loads_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(pos_f64(), 1..4)
}

fn routing_strategy() -> impl Strategy<Value = NamedRouting> {
    let policy = prop_oneof![
        Just(RoutingPolicy::Random),
        Just(RoutingPolicy::RoundRobin),
        (1usize..8).prop_map(|d| RoutingPolicy::JsqD { d }),
        Just(RoutingPolicy::CentralQueue),
    ];
    (name_strategy(), policy).prop_map(|(name, policy)| NamedRouting { name, policy })
}

/// Deep-RQ cluster spec: `rq_capacity >= 512` on the machine (see the
/// deadlock guard in `Scenario::validate`) keeps every generated
/// cluster scenario admissible without an admission cap.
fn cluster_strategy() -> impl Strategy<Value = ClusterSpec> {
    (
        1usize..8,
        proptest::collection::vec(routing_strategy(), 1..3),
        proptest::option::of((0.1f64..10.0, 0.1f64..10.0)),
        proptest::bool::ANY,
    )
        .prop_map(|(nodes, routing, jitter, steer)| ClusterSpec {
            nodes,
            routing,
            max_in_flight: None,
            jitter: jitter.map(|(mean_us, scv)| JitterSpec { mean_us, scv }),
            steer,
        })
}

fn policy_axis_strategy() -> impl Strategy<Value = Vec<NamedPolicy>> {
    proptest::collection::vec(
        (name_strategy(), mitigation_strategy())
            .prop_map(|(name, mitigation)| NamedPolicy { name, mitigation }),
        1..3,
    )
}

fn node_kind_strategy() -> impl Strategy<Value = ScenarioKind> {
    prop_oneof![
        (
            loads_strategy(),
            proptest::collection::vec(
                (name_strategy(), machine_strategy())
                    .prop_map(|(name, machine)| NamedMachine { name, machine }),
                2..4,
            )
        )
            .prop_map(|(loads, machines)| ScenarioKind::MachineCompare { loads, machines }),
        (
            loads_strategy(),
            proptest::collection::vec(seed_strategy(), 1..3),
            policy_axis_strategy()
        )
            .prop_map(|(loads, seeds, policies)| {
                ScenarioKind::Grid(GridSpec {
                    loads,
                    seeds,
                    nodes: vec![],
                    policies,
                })
            }),
    ]
}

/// Single-node scenarios: no cluster spec, any kind that runs per-node
/// points.
fn node_scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        name_strategy(),
        machine_strategy(),
        workload_strategy(),
        scale_strategy(),
        proptest::collection::vec(fault_strategy(), 0..3),
        mitigation_strategy(),
        node_kind_strategy(),
    )
        .prop_map(
            |(name, machine, workload, scale, faults, mitigation, kind)| Scenario {
                name,
                machine,
                workload,
                scale,
                faults,
                mitigation,
                cluster: None,
                kind,
            },
        )
}

/// Rack grids: deep RQ forced on the machine so the deadlock guard
/// admits them.
fn cluster_scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        name_strategy(),
        machine_strategy(),
        workload_strategy(),
        scale_strategy(),
        mitigation_strategy(),
        cluster_strategy(),
        512usize..2048,
        (
            loads_strategy(),
            proptest::collection::vec(seed_strategy(), 1..3),
            proptest::collection::vec(1usize..6, 1..3),
            policy_axis_strategy(),
        )
            .prop_map(|(loads, seeds, nodes, policies)| GridSpec {
                loads,
                seeds,
                nodes,
                policies,
            }),
    )
        .prop_map(
            |(name, mut machine, workload, scale, mitigation, cluster, rq, grid)| {
                machine.rq_capacity = Some(rq);
                Scenario {
                    name,
                    machine,
                    workload,
                    scale,
                    faults: vec![],
                    mitigation,
                    cluster: Some(cluster),
                    kind: ScenarioKind::Grid(grid),
                }
            },
        )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        3 => node_scenario_strategy(),
        2 => cluster_scenario_strategy(),
    ]
}

// -----------------------------------------------------------------
// Document surgery
// -----------------------------------------------------------------

/// Objects in `doc`, counted in document order.
fn count_objects(doc: &Json) -> usize {
    match doc {
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Json::Arr(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// Adds `key: 1` to the `n`-th object of `doc` (document order) and
/// returns the field path the codec reports for that object.
fn splice_nth(doc: &mut Json, path: &str, n: &mut usize, key: &str) -> Option<String> {
    match doc {
        Json::Obj(pairs) => {
            if *n == 0 {
                pairs.push((key.to_string(), Json::Num(1.0)));
                return Some(path.to_string());
            }
            *n -= 1;
            pairs
                .iter_mut()
                .find_map(|(k, v)| splice_nth(v, &format!("{path}.{k}"), n, key))
        }
        Json::Arr(items) => items
            .iter_mut()
            .enumerate()
            .find_map(|(i, v)| splice_nth(v, &format!("{path}[{i}]"), n, key)),
        _ => None,
    }
}

/// The value at a dotted path (`kind.policies.1.mitigation`); numeric
/// segments index arrays, the empty path is the document itself.
fn node<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    path.split('.')
        .filter(|seg| !seg.is_empty())
        .fold(doc, |v, seg| match v {
            Json::Obj(pairs) => {
                &mut pairs
                    .iter_mut()
                    .find(|(k, _)| k == seg)
                    .unwrap_or_else(|| panic!("no field `{seg}`"))
                    .1
            }
            Json::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
            _ => panic!("`{seg}`: not a container"),
        })
}

// -----------------------------------------------------------------
// Error-string goldens
// -----------------------------------------------------------------

/// A valid rack grid whose canonical document holds every object the
/// goldens edit: a fault, a retry policy and a `random` routing.
fn golden_base() -> Json {
    let mut s = registry::sweep_default();
    s.machine.rq_capacity = Some(512);
    if let ScenarioKind::Grid(g) = &mut s.kind {
        g.nodes = vec![2];
    }
    s.cluster = Some(ClusterSpec {
        nodes: 2,
        routing: vec![NamedRouting {
            name: "random".to_string(),
            policy: RoutingPolicy::Random,
        }],
        max_in_flight: None,
        jitter: None,
        steer: false,
    });
    s.validate().expect("golden base is valid");
    s.to_json()
}

/// One defect per document: `(object path, key, new value or None to
/// delete the key, the exact error)`. The value is JSON text.
const GOLDENS: &[(&str, &str, Option<&str>, &str)] = &[
    (
        "scale",
        "horizon_us",
        None,
        "scenario.scale: missing field `horizon_us`",
    ),
    ("", "name", Some("5"), "scenario.name: expected a string"),
    (
        "cluster",
        "steer",
        Some("\"yes\""),
        "scenario.cluster.steer: expected a boolean",
    ),
    (
        "kind",
        "loads",
        Some("7"),
        "scenario.kind.loads: expected an array",
    ),
    (
        "workload",
        "type",
        Some("\"spiky\""),
        "scenario.workload.type: unknown workload `spiky`",
    ),
    (
        "faults.0",
        "type",
        Some("\"meteor\""),
        "scenario.faults[0].type: unknown fault `meteor`",
    ),
    (
        "kind",
        "type",
        Some("\"bogus\""),
        "scenario.kind.type: unknown scenario kind `bogus`",
    ),
    (
        "machine",
        "base",
        Some("\"cray\""),
        "scenario.machine.base: unknown machine `cray`",
    ),
    (
        "machine",
        "icn",
        Some("\"torus\""),
        "scenario.machine.icn: unknown interconnect `torus`",
    ),
    (
        "scale",
        "seed",
        Some("1.5"),
        "scenario.scale.seed: expected an exact nonnegative integer",
    ),
    (
        "kind.policies.1.mitigation.retry",
        "max_attempts",
        Some("8589934592"),
        "scenario.kind.policies[1].mitigation.retry.max_attempts: value does not fit in 32 bits",
    ),
    (
        "machine",
        "shape",
        Some("[8, 2]"),
        "scenario.machine.shape: expected [cores_per_village, villages_per_cluster, clusters]",
    ),
    (
        "cluster.routing.0",
        "d",
        Some("2"),
        "scenario.cluster.routing[0].d: only valid with the `jsq` policy",
    ),
    (
        "",
        "machine",
        Some("\"umanycore\""),
        "scenario.machine: expected an object",
    ),
    (
        "workload",
        "extra",
        Some("1"),
        "scenario.workload: unknown field `extra`",
    ),
];

#[test]
fn single_defect_documents_report_their_exact_error() {
    Scenario::from_json(&golden_base()).expect("the unedited base parses");
    for &(path, key, value, expected) in GOLDENS {
        let mut doc = golden_base();
        let Json::Obj(pairs) = node(&mut doc, path) else {
            panic!("{path}: not an object");
        };
        let slot = pairs.iter().position(|(k, _)| k == key);
        match (
            value.map(|v| Json::parse(v).expect("golden value is JSON")),
            slot,
        ) {
            (Some(v), Some(i)) => pairs[i].1 = v,
            (Some(v), None) => pairs.push((key.to_string(), v)),
            (None, Some(i)) => {
                pairs.remove(i);
            }
            (None, None) => panic!("{path}.{key}: nothing to delete"),
        }
        let err = Scenario::from_json(&doc).expect_err(expected);
        assert_eq!(err, expected, "{path}.{key}");
    }
}

// -----------------------------------------------------------------
// Properties
// -----------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Generated scenarios are valid by construction; if this fires the
    /// generator and the validator disagree about an invariant.
    #[test]
    fn generated_scenarios_validate(s in scenario_strategy()) {
        prop_assert!(s.validate().is_ok(), "{}: {:?}", s.name, s.validate());
    }

    /// serialize → parse → serialize is byte-stable, and the parsed
    /// value is structurally identical to the original.
    #[test]
    fn round_trip_is_byte_stable(s in scenario_strategy()) {
        let text = s.to_json_text();
        let back = Scenario::from_json_text(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(&back, &s, "round-trip changed the scenario");
        prop_assert_eq!(back.to_json_text(), text, "serialization not byte-stable");
    }

    /// An unknown field anywhere in the top-level object is rejected
    /// with an error naming the field — never a panic, never silently
    /// ignored.
    #[test]
    fn unknown_top_level_fields_are_rejected(
        s in scenario_strategy(),
        field in (0u64..(1 << 32)).prop_map(|n| format!("f{n:x}")),
    ) {
        let text = s.to_json_text();
        // The canonical rendering opens with `{\n`; splice a field the
        // schema has never heard of right after it. Prefix it so it can
        // never collide with a real key.
        let bogus = format!("zz_{field}");
        let broken = text.replacen('{', &format!("{{\n  \"{bogus}\": 1,"), 1);
        match Scenario::from_json_text(&broken) {
            Ok(_) => return Err(TestCaseError::fail("unknown field accepted")),
            Err(e) => prop_assert!(
                e.contains(&bogus),
                "error {e:?} does not name the unknown field {bogus:?}"
            ),
        }
    }

    /// An unknown field spliced into any object of the document — the
    /// kind, a fault, a policy's mitigation, a routing, the jitter — is
    /// rejected with exactly that object's field path.
    #[test]
    fn unknown_nested_fields_name_their_exact_path(
        s in scenario_strategy(),
        pick in 0usize..1_000_000,
        field in (0u64..(1 << 32)).prop_map(|n| format!("zz_{n:x}")),
    ) {
        let mut doc = s.to_json();
        let mut n = pick % count_objects(&doc);
        let path = splice_nth(&mut doc, "scenario", &mut n, &field).expect("index in range");
        let err = Scenario::from_json(&doc).expect_err("unknown field accepted");
        prop_assert_eq!(err, format!("{path}: unknown field `{field}`"));
    }

    /// Out-of-range knobs surface as validation errors with a field
    /// path, not panics.
    #[test]
    fn out_of_range_horizon_is_a_field_error(s in scenario_strategy(), bad in -1.0e6f64..0.0) {
        let mut s = s;
        s.scale.horizon_us = bad;
        let err = s.validate().expect_err("non-positive horizon must be rejected");
        prop_assert!(err.contains("scenario.scale.horizon_us"), "bad path in {err:?}");
        // The codec applies the same validation on parse.
        let err = Scenario::from_json_text(&s.to_json_text())
            .expect_err("non-positive horizon must be rejected on parse");
        prop_assert!(err.contains("scenario.scale.horizon_us"), "bad path in {err:?}");
    }
}
