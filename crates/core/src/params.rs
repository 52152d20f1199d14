//! Calibration parameters of the system simulator.
//!
//! Every magic number the simulator needs lives here, with the paper (or
//! cited-work) justification next to it. Values suffixed `_US` are
//! microseconds; "reference-core" values scale with core speed, while
//! "wall-clock" values do not (they are dominated by fixed-latency events
//! — NIC DMA, PCIe doorbells, interrupts, kernel crossings — and therefore
//! cost the 3 GHz ServerClass core as much wall time as the 2 GHz
//! manycore core, while still *occupying* the core).

/// Software RPC-layer processing of one *incoming* request (wall-clock,
/// occupies a core): transport, header parsing, deserialization, dispatch
/// through the service framework. Production studies (Accelerometer \[72\],
/// SoftSKU \[73\], Cerebros \[62\]) attribute a large, largely
/// frequency-insensitive per-request tax to this orchestration layer; at
/// ~180 us per invocation it makes 5/10/15 K RPS land in the paper's
/// <30% / 30–60% / >60% utilization bands on the 40-core ServerClass
/// (§5).
pub const SW_RPC_PROC_US: f64 = 180.0;

/// Software cost to issue or receive one RPC (wall-clock, occupies a
/// core): serialization, socket/NIC doorbells, interrupt or poll
/// handling. Charged per blocking-call issue and per response receipt on
/// the baselines.
pub const SW_RPC_MSG_US: f64 = 30.0;

/// uManycore's village NIC performs all RPC-layer processing in hardware
/// (§4.3); the residual on-core cost is a pipeline hand-off.
pub const HW_RPC_PROC_US: f64 = 0.05;

/// Hardware per-message RPC cost on the core (doorbell write).
pub const HW_RPC_MSG_US: f64 = 0.02;

/// Mean *external* storage service time (lognormal, scv 0.25): the rare
/// disk/replication path a backend tier takes (most storage requests are
/// served by the on-package Redis/MongoDB/Memcached service tiers — see
/// `um_workload::apps`).
pub const STORAGE_MEAN_US: f64 = 100.0;

/// Request payload bytes moved through the ICN per dispatch/call.
pub const REQUEST_BYTES: u64 = 512;

/// Response payload bytes.
pub const RESPONSE_BYTES: u64 = 1024;

/// Fixed client-side round trip added to every end-to-end latency (the
/// request's journey from the client to the cluster and back; Table 2's
/// 1 us inter-server RTT).
pub const CLIENT_RTT_US: f64 = 1.0;

/// Software work-stealing cost per successful steal (cross-queue locking;
/// §3.2 notes stealing's overheads can exceed its benefit at low
/// imbalance). Wall-clock.
pub const STEAL_COST_US: f64 = 1.0;

/// Top-level NIC ingress processing (hardware on every machine).
pub const NIC_INGRESS_US: f64 = 0.1;

/// On-package memory-system traffic (cache refetch, write-backs, LLC and
/// directory messages) generated per microsecond a core is occupied, for
/// machines with *global* hardware coherence: every invocation pulls its
/// working set across the package (§3.1's remote directory/cache
/// accesses). ~2.8 KB per occupied microsecond refetches a ~1 MB
/// working set (footprint, write-backs, directory messages) per ~350 us
/// invocation — the no-locality worst case §3.5 argues conventional
/// machines pay; it drives the 2D mesh past its bisection capacity at
/// 50 K RPS (Figure 7's regime) while leaving the 5 K evaluation load
/// below the knee, as in the paper.
pub const MEM_BYTES_PER_US_GLOBAL: f64 = 2_800.0;

/// Bulk memory traffic is moved in this many pipelined chunks per
/// segment, sent as one burst (`Network::send_burst`). On the leaf-spine
/// each chunk is routed on its own and can take a different redundant
/// path (the §4.2 advantage); the mesh and fat tree have one fixed route,
/// so the burst is routed once and its chunks serialize along it.
pub const MEM_TRAFFIC_CHUNKS: u64 = 8;

/// The same traffic under village-scale coherence with per-cluster
/// memory pools: refetches stay inside the cluster (self-send through the
/// local hub), so they occupy no shared ICN links.
pub const MEM_BYTES_PER_US_VILLAGE: f64 = 350.0;

/// Software-interference "hiccups": the tail-at-scale mechanism \[16\].
/// On the baselines, each executed segment has a small probability of
/// colliding with kernel preemption, interrupt storms, timer ticks, TCP
/// retransmission work or background daemons — rare, large,
/// core-occupying delays that dominate the 99th percentile even at low
/// utilization. uManycore removes the software stack from the request
/// path and partitions villages per service ("ensures a more predictable
/// performance and minimizes any negative interference", §4.1), so it
/// does not suffer them.
///
/// Calibrated, not sourced: no cited measurement gives this rate or
/// [`SW_HICCUP_MEAN_US`]'s magnitude. Together they set the headline's
/// magnitude: with the probability at 0, fig14's tail reduction vs
/// ServerClass at 10 K RPS falls from 8.3× to 2.0× and `validate` fails.
pub const SW_HICCUP_P: f64 = 0.01;

/// Mean hiccup magnitude, microseconds (exponentially distributed).
/// Calibrated with [`SW_HICCUP_P`], not sourced.
pub const SW_HICCUP_MEAN_US: f64 = 3_000.0;

/// Cost of one software queue operation's critical section, in cycles
/// *per core sharing the queue*: cache-line ping-pong makes the atomic
/// section grow with the sharer count — §3.2's "high synchronization
/// overheads" of fully centralized queues. ~19 cycles/sharer (~10 ns of
/// coherence traffic per contending core) puts one fully shared queue past
/// the edge of lock saturation at 50 K RPS, which is where Figure 3's
/// single-queue tail blow-up comes from.
pub const SW_QUEUE_LOCK_CYCLES_PER_SHARER: f64 = 25.0;

/// Fallback RPC-attempt timeout, microseconds, used when message drops
/// are injected but no retry policy is configured: a lost leg must not
/// strand the operation forever, so it is declared lost (and the request
/// gives up) after this long. Generous against the ~100 us storage mean
/// and the few-ms tails of degraded runs.
pub const DEFAULT_RPC_TIMEOUT_US: f64 = 5_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "documents a calibration rule"
    )]
    fn software_tax_dwarfs_hardware() {
        assert!(SW_RPC_PROC_US > 100.0 * HW_RPC_PROC_US);
        assert!(SW_RPC_MSG_US > 100.0 * HW_RPC_MSG_US);
    }

    #[test]
    fn server_class_utilization_bands() {
        // ~6 invocations per root tree (um_workload::apps), each occupying
        // a ServerClass core for handler-compute/2.37 plus the wall-clock
        // software tax. §5: 5/10/15K RPS <=> <30%, 30-60%, >60%.
        let per_invocation_us = 120.0 / 2.37 + SW_RPC_PROC_US + 2.0 * SW_RPC_MSG_US;
        let tree = 6.2;
        let busy = |rps: f64| rps * tree * per_invocation_us / 1e6 / 40.0;
        assert!(busy(5_000.0) < 0.33, "5K RPS utilization {}", busy(5_000.0));
        assert!(
            (0.3..0.72).contains(&busy(10_000.0)),
            "10K RPS utilization {}",
            busy(10_000.0)
        );
        assert!(
            busy(15_000.0) > 0.6,
            "15K RPS utilization {}",
            busy(15_000.0)
        );
    }

    #[test]
    fn low_load_ratio_favors_umanycore() {
        // Per-invocation latency at idle: uManycore pays only handler
        // compute; ServerClass adds the software tax (partly offset by its
        // faster core). The paper's Figure 16a shows ~2.3x.
        let um = 120.0;
        let sc = 120.0 / 2.37 + SW_RPC_PROC_US + 2.0 * SW_RPC_MSG_US;
        let ratio = sc / um;
        assert!((1.6..3.2).contains(&ratio), "idle latency ratio {ratio}");
    }
}
