//! Village sizing: which village/cluster shape fits your service?
//!
//! The paper's §6.6 observation: leaf services that never call out prefer
//! larger villages (more cores to absorb bursts), while fan-out-heavy
//! services prefer many small villages (shorter queues, more instances).
//! This example sweeps the shapes of Figure 19 for two contrasting
//! services through the public API.
//!
//! ```text
//! cargo run --release --example village_sizing
//! ```

use um_arch::{MachineConfig, TopologyShape};
use um_workload::apps::SocialNetwork;
use umanycore::experiments::parallel;
use umanycore::{SimConfig, Workload};

fn main() {
    let graph = SocialNetwork::graph();
    let shapes = TopologyShape::FIG19_SWEEP;

    for root in [SocialNetwork::URL_SHORT, SocialNetwork::HOME_T] {
        let name = graph.profile(root).name;
        println!("service: {name} at 15K RPS");
        // One simulation per shape, fanned out across the UM_THREADS
        // worker pool; all shapes share the seed so the comparison is
        // paired.
        let configs: Vec<SimConfig> = shapes
            .iter()
            .map(|&shape| SimConfig {
                machine: MachineConfig::umanycore_shaped(shape),
                workload: Workload::social_app(root),
                rps_per_server: 15_000.0,
                horizon_us: 100_000.0,
                warmup_us: 10_000.0,
                seed: 3,
                ..SimConfig::default()
            })
            .collect();
        let reports = parallel::run_reports(configs);
        let mut best: Option<(String, f64)> = None;
        for (shape, report) in shapes.iter().zip(&reports) {
            println!(
                "  shape {:9}  avg {:7.1} us   p99 {:8.1} us",
                shape.label(),
                report.avg_us(),
                report.tail_us()
            );
            if best.as_ref().is_none_or(|(_, t)| report.tail_us() < *t) {
                best = Some((shape.label(), report.tail_us()));
            }
        }
        let (label, tail) = best.expect("swept at least one shape");
        println!("  -> best shape for {name}: {label} (p99 {tail:.1} us)\n");
    }

    println!("Paper §6.6: all shapes within ~15%; the default 8x4x32 is the best");
    println!("compromise across the suite.");
}
