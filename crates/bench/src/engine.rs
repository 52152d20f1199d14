//! The fig7-pattern event workload the benchmark's `queue.ns_per_event`
//! layer replays (`crates/bench/um_perf/src/layers.rs`).
//!
//! The workload replays the event-queue traffic a Figure 7 run generates,
//! without the rest of the system simulator: every Poisson arrival over the
//! horizon is pre-scheduled up front (exactly as `SystemSim::new` does), and
//! each delivered event spawns a short near-future follow-up chain standing
//! in for the Enqueue → SegmentDone/Unblock → CoreFree cascade a request
//! produces. That shape — a deep backlog of far-out arrivals with hot
//! near-term chains racing through it — is what the calendar queue is
//! built for.

use um_sim::{Cycles, EventQueue, Frequency};
use um_workload::PoissonArrivals;

/// Follow-up events spawned per arrival: stands in for the per-request
/// Enqueue → per-segment SegmentDone/Unblock → CoreFree cascade (the
/// social-mix services in Figure 7 run multiple segments per request).
pub const CHAIN_DEPTH: u64 = 8;

/// One fig7-shaped event trace: the pre-computed arrival schedule for a
/// load point, in cycles at the paper's 2 GHz manycore clock.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Absolute arrival times, in schedule order: one Poisson stream per
    /// server, concatenated server-by-server (unsorted overall) — exactly
    /// the order `SystemSim::new` pre-schedules them.
    pub arrivals: Vec<u64>,
}

impl Workload {
    /// Builds the arrival schedule for one fig7 load point: `servers`
    /// independent per-server Poisson streams at `rps` over `horizon_us`,
    /// merged into one queue the way the system simulator schedules a
    /// cluster, so the pending-event backlog grows with the fleet.
    pub fn fig7(rps: f64, horizon_us: f64, servers: usize, seed: u64) -> Self {
        let freq = Frequency::ghz(2.0);
        let mut arrivals = Vec::new();
        for s in 0..servers {
            arrivals.extend(
                PoissonArrivals::new(rps, seed.wrapping_add(s as u64))
                    .within(horizon_us)
                    .into_iter()
                    .map(|t| Cycles::from_micros(t, freq).raw()),
            );
        }
        Workload { arrivals }
    }
}

/// Outcome of one replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Replay {
    /// Events delivered.
    pub events: u64,
    /// Order-sensitive digest of the `(time, event)` delivery stream, so
    /// the pop loop's work is observable.
    pub checksum: u64,
}

/// Replays the workload against `q`: pre-schedules every arrival, then runs
/// the pop loop, spawning each arrival's follow-up chain as it is delivered.
///
/// Chain hops are a deterministic hash of the event id, spanning the
/// sub-microsecond latencies the system simulator schedules (1–4096 cycles)
/// with an occasional longer timer-like hop.
pub fn replay(q: &mut EventQueue<u64>, workload: &Workload) -> Replay {
    // Event encoding: id << 8 | remaining chain depth.
    for (id, &at) in workload.arrivals.iter().enumerate() {
        q.schedule_at(Cycles::new(at), (id as u64) << 8 | CHAIN_DEPTH);
    }
    let mut events = 0u64;
    let mut checksum = 0u64;
    while let Some((now, event)) = q.pop() {
        events += 1;
        checksum = checksum
            .rotate_left(7)
            .wrapping_add(now.raw() ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let depth = event & 0xFF;
        if depth > 0 {
            let hop = splitmix(event) % 4_096 + 1;
            // Every 16th hop is a timer-scale jump that exercises the
            // upper wheel levels, like a boot or retry deadline.
            let hop = if splitmix(event ^ 0xA5A5).is_multiple_of(16) {
                hop << 9
            } else {
                hop
            };
            q.schedule_at(Cycles::new(now.raw() + hop), (event & !0xFF) | (depth - 1));
        }
    }
    Replay { events, checksum }
}

/// SplitMix64 finalizer: cheap, deterministic per-event hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_delivers_every_arrival_and_its_chain() {
        let w = Workload::fig7(10_000.0, 5_000.0, 2, 42);
        assert!(!w.arrivals.is_empty(), "horizon long enough for arrivals");
        let first = replay(&mut EventQueue::new(), &w);
        assert_eq!(first.events, w.arrivals.len() as u64 * (1 + CHAIN_DEPTH));
        assert_eq!(replay(&mut EventQueue::new(), &w), first);
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = Workload::fig7(5_000.0, 2_000.0, 1, 7);
        let b = Workload::fig7(5_000.0, 2_000.0, 1, 7);
        let c = Workload::fig7(5_000.0, 2_000.0, 1, 8);
        assert_eq!(a.arrivals, b.arrivals);
        assert_ne!(a.arrivals, c.arrivals, "seed changes the trace");
    }

    #[test]
    fn fleet_merges_per_server_streams() {
        let one = Workload::fig7(5_000.0, 2_000.0, 1, 7);
        let four = Workload::fig7(5_000.0, 2_000.0, 4, 7);
        assert_eq!(four.arrivals[..one.arrivals.len()], one.arrivals[..]);
        assert!(four.arrivals.len() > 3 * one.arrivals.len());
    }
}
