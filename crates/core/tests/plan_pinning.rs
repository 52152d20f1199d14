//! Pins the application workloads' observable behaviour bit for bit.
//!
//! The simulator reads a [`Workload`] through four methods only:
//! `sample_root`, `sample_plan`, `services` and `service_weight`. For the
//! SocialNetwork and TrainTicket workloads — the uniform root mix and one
//! pinned root each — this suite hashes the first [`DRAWS`] root/plan
//! draws of several seeded streams, the service list and every service's
//! weight, and asserts FNV-1a checksums of them.
//!
//! Every SocialNetwork and TrainTicket run in `results/` draws its
//! requests through these methods, so a change that moves any constant
//! here moves simulated results.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use um_workload::apps::SocialNetwork;
use um_workload::trainticket::TrainTicket;
use um_workload::{RequestPlan, RpcKind};
use umanycore::Workload;

/// Root/plan draws hashed per seeded stream.
const DRAWS: usize = 3_000;

/// The seeded streams each workload is drawn from.
const SEEDS: [u64; 4] = [1, 42, 0x5eed, 0xdead_beef];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn plan(&mut self, plan: &RequestPlan) {
        self.add(u64::from(plan.service.raw()));
        self.add(plan.segments.len() as u64);
        for seg in &plan.segments {
            self.add(seg.compute_us.to_bits());
            match seg.rpc {
                None => self.add(0),
                Some(RpcKind::Storage { bytes }) => {
                    self.add(1);
                    self.add(bytes);
                }
                Some(RpcKind::Call { service }) => {
                    self.add(2);
                    self.add(u64::from(service.raw()));
                }
            }
        }
    }
}

/// Checksum of `DRAWS` root-then-plan draws from one seeded stream.
fn draws(w: &Workload, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sum = Fnv::new();
    for _ in 0..DRAWS {
        let root = w.sample_root(&mut rng);
        sum.add(u64::from(root.raw()));
        sum.plan(&w.sample_plan(root, &mut rng));
    }
    sum.0
}

/// Checksum of the service list and each service's weight.
fn services(w: &Workload) -> u64 {
    let mut sum = Fnv::new();
    for s in w.services() {
        sum.add(u64::from(s.raw()));
        sum.add(w.service_weight(s).to_bits());
    }
    sum.0
}

fn check(name: &str, w: Workload, want_draws: [u64; 4], want_services: u64) {
    let got: Vec<String> = SEEDS
        .iter()
        .map(|&seed| format!("{:#018x}", draws(&w, seed)))
        .collect();
    let want: Vec<String> = want_draws.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(
        format!("draws {got:?} services {:#018x}", services(&w)),
        format!("draws {want:?} services {want_services:#018x}"),
        "{name}"
    );
}

/// Services checksum of every SocialNetwork workload (11 services).
const SOCIAL_SERVICES: u64 = 0xb063_f55e_5978_3a1f;

/// Services checksum of every TrainTicket workload (12 services).
const TRAIN_SERVICES: u64 = 0x3676_2f69_6c9d_1afd;

#[test]
fn social_mix_is_pinned() {
    check(
        "social_mix",
        Workload::social_mix(),
        [
            0x8422_8fd8_1c2c_bc54,
            0xa6f6_8a4e_1f8e_47b6,
            0x6443_beba_12af_29a8,
            0x7511_a025_e8c2_200d,
        ],
        SOCIAL_SERVICES,
    );
}

#[test]
fn social_app_cpost_is_pinned() {
    check(
        "social_app(CPOST)",
        Workload::social_app(SocialNetwork::CPOST),
        [
            0x1f7b_ffac_ead3_a984,
            0x4f5a_383b_9a93_a4f7,
            0x32a3_ed60_3366_fe4e,
            0x13ac_3814_7ec5_9536,
        ],
        SOCIAL_SERVICES,
    );
}

#[test]
fn train_mix_is_pinned() {
    check(
        "train_mix",
        Workload::train_mix(),
        [
            0xb3c8_32bb_8e04_2b30,
            0xe2c5_62ba_3f47_88c8,
            0xd4ea_e848_b0ab_5b92,
            0x14d6_7962_d5ee_4981,
        ],
        TRAIN_SERVICES,
    );
}

#[test]
fn train_app_order_is_pinned() {
    check(
        "train_app(ORDER)",
        Workload::train_app(TrainTicket::ORDER),
        [
            0x5121_550a_2e27_c91c,
            0x27af_b25d_cd36_5e2f,
            0x9596_a2f6_c913_3c46,
            0x91ed_3b1c_76fe_59bc,
        ],
        TRAIN_SERVICES,
    );
}
