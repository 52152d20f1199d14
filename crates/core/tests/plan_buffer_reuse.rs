//! `Workload::sample_plan_into` against a fresh `Workload::sample_plan`,
//! bit for bit.
//!
//! The simulator samples each request's plan into the segment buffer its
//! recycled request slot already holds. Whatever that buffer held — a
//! longer plan, a shorter one, garbage — the result must equal a fresh
//! `sample_plan` from the same RNG state, and the RNG must end in the
//! same state (its next draw agrees). Every service of the SocialNetwork
//! and TrainTicket graphs is covered, plus synthetic workloads.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use um_workload::synthetic::SyntheticWorkload;
use um_workload::{RequestPlan, RpcKind, Segment, ServiceId, ServiceTimeDist};
use umanycore::Workload;

/// A plan as comparable bits: service, then per segment the compute
/// time's bits and the RPC as (kind, payload).
fn bits(plan: &RequestPlan) -> (u32, Vec<(u64, u8, u64)>) {
    let segments = plan
        .segments
        .iter()
        .map(|s| {
            let (kind, payload) = match s.rpc {
                None => (0, 0),
                Some(RpcKind::Storage { bytes }) => (1, bytes),
                Some(RpcKind::Call { service }) => (2, u64::from(service.raw())),
            };
            (s.compute_us.to_bits(), kind, payload)
        })
        .collect();
    (plan.service.raw(), segments)
}

/// A buffer pre-filled with arbitrary segments.
fn garbage(fill: &[(f64, u8, u32)]) -> RequestPlan {
    RequestPlan {
        service: ServiceId::new(fill.len() as u32 + 1_000),
        segments: fill
            .iter()
            .map(|&(compute_us, kind, payload)| Segment {
                compute_us,
                rpc: match kind % 3 {
                    0 => None,
                    1 => Some(RpcKind::Storage {
                        bytes: u64::from(payload),
                    }),
                    _ => Some(RpcKind::Call {
                        service: ServiceId::new(payload),
                    }),
                },
            })
            .collect(),
    }
}

/// Samples `draws` plans of `service` into one reused buffer (pre-filled
/// with `fill`) and checks each against a fresh plan from a cloned RNG.
fn check(
    w: &Workload,
    service: ServiceId,
    seed: u64,
    fill: &[(f64, u8, u32)],
    draws: usize,
) -> Result<(), TestCaseError> {
    let mut buffer = garbage(fill);
    let mut reused = SmallRng::seed_from_u64(seed);
    for draw in 0..draws {
        let mut fresh = reused.clone();
        w.sample_plan_into(service, &mut reused, &mut buffer);
        let want = w.sample_plan(service, &mut fresh);
        prop_assert_eq!(bits(&buffer), bits(&want), "{} draw {}", service, draw);
        let mut next = reused.clone();
        prop_assert_eq!(
            next.gen::<u64>(),
            fresh.gen::<u64>(),
            "{} draw {}: RNG state",
            service,
            draw
        );
    }
    Ok(())
}

/// Arbitrary segments: any compute time, any RPC kind and payload.
fn fill() -> impl Strategy<Value = Vec<(f64, u8, u32)>> {
    vec((-1e9f64..1e9, 0u8..3, 0u32..200), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_social_and_train_service_matches_a_fresh_plan(
        seed in 0u64..u64::MAX,
        fill in fill(),
        draws in 1usize..6,
    ) {
        for w in [Workload::social_mix(), Workload::train_mix()] {
            for service in w.services() {
                check(&w, service, seed, &fill, draws)?;
            }
        }
    }

    #[test]
    fn synthetic_workloads_match_a_fresh_plan(
        seed in 0u64..u64::MAX,
        fill in fill(),
        draws in 1usize..6,
        min in 0u32..4,
        extra in 0u32..6,
        mean_us in 1.0f64..500.0,
    ) {
        let mut suite: Vec<SyntheticWorkload> = SyntheticWorkload::paper_suite(mean_us)
            .into_iter()
            .map(|(_, w)| w)
            .collect();
        suite.push(SyntheticWorkload::new(
            ServiceTimeDist::exponential(mean_us),
            min,
            min + extra,
        ));
        for w in suite {
            let w = Workload::Synthetic(w);
            let service = w.services()[0];
            check(&w, service, seed, &fill, draws)?;
        }
    }
}
