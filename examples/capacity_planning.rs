//! Capacity planning: how many requests per second can each machine
//! sustain for a given application without violating its QoS target?
//!
//! This is the paper's §6.5 question, driven through the public QoS API:
//! a request violates QoS when its latency exceeds 5x the contention-free
//! average. We plan capacity for the HomeTimeline read path and the
//! ComposePost write path.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use um_arch::MachineConfig;
use um_workload::apps::SocialNetwork;
use umanycore::qos::{max_qos_throughput_many, QOS_MULTIPLIER};
use umanycore::{SimConfig, Workload};

fn main() {
    let graph = SocialNetwork::graph();
    println!("QoS bound: latency within {QOS_MULTIPLIER}x the contention-free average\n");

    let roots = [SocialNetwork::HOME_T, SocialNetwork::CPOST];
    let labels = ["ServerClass-40", "ScaleOut", "uManycore"];
    let machines = || {
        [
            MachineConfig::server_class_iso_power(),
            MachineConfig::scaleout(),
            MachineConfig::umanycore(),
        ]
    };
    // All six searches (2 apps x 3 machines) run across the UM_THREADS
    // worker pool; results come back in input order.
    let bases: Vec<SimConfig> = roots
        .iter()
        .flat_map(|&root| {
            machines().map(|machine| SimConfig {
                machine,
                workload: Workload::social_app(root),
                horizon_us: 60_000.0,
                warmup_us: 6_000.0,
                seed: 11,
                ..SimConfig::default()
            })
        })
        .collect();
    let results = max_qos_throughput_many(bases, 500.0, 128_000.0);

    for (&root, chunk) in roots.iter().zip(results.chunks_exact(labels.len())) {
        let name = graph.profile(root).name;
        println!("application: {name}");
        for (label, result) in labels.iter().zip(chunk) {
            println!(
                "  {label:15} sustains {:7.1} KRPS (bound {:.0} us, contention-free avg {:.0} us)",
                result.max_rps / 1000.0,
                result.bound_us,
                result.contention_free_avg_us
            );
        }
        println!();
    }

    println!("Rule of thumb from the paper: a uManycore server replaces an order of");
    println!("magnitude of iso-power conventional servers for QoS-bound microservices.");
}
