//! Multi-level cache/TLB hierarchy with Table 2 latencies.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::dram::DramModel;
use crate::tlb::{Tlb, TlbConfig};
use um_sim::Cycles;

/// What kind of memory access is being performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (uses the I-side L1 and ITLB).
    InstrFetch,
    /// Data load.
    DataRead,
    /// Data store.
    DataWrite,
}

impl AccessKind {
    fn is_write(self) -> bool {
        matches!(self, AccessKind::DataWrite)
    }

    fn is_instr(self) -> bool {
        matches!(self, AccessKind::InstrFetch)
    }
}

/// Round-trip latencies for each level, in core cycles (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelLatencies {
    /// L1 cache round trip.
    pub l1: Cycles,
    /// L2 cache round trip.
    pub l2: Cycles,
    /// L3 cache round trip (ignored when the hierarchy has no L3).
    pub l3: Cycles,
    /// L1 TLB round trip.
    pub tlb1: Cycles,
    /// L2 TLB round trip (ignored when the hierarchy has no L2 TLB).
    pub tlb2: Cycles,
    /// Page-table walk on a full TLB miss.
    pub page_walk: Cycles,
}

/// Full configuration of a machine's cache/TLB hierarchy.
///
/// Two shapes appear in the paper (Table 2):
/// [`HierarchyConfig::manycore`] — the uManycore/ScaleOut two-level
/// hierarchy — and [`HierarchyConfig::server_class`] — the three-level
/// ServerClass hierarchy with a two-level TLB.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Optional unified L3 geometry (ServerClass only).
    pub l3: Option<CacheConfig>,
    /// L1 instruction TLB geometry.
    pub itlb: TlbConfig,
    /// L1 data TLB geometry.
    pub dtlb: TlbConfig,
    /// Optional unified L2 TLB geometry (ServerClass only).
    pub tlb2: Option<TlbConfig>,
    /// Per-level latencies.
    pub latencies: LevelLatencies,
    /// Number of MSHRs bounding distinct outstanding memory misses.
    pub mshrs: usize,
    /// Next-line prefetching: on an L1 miss, the following line is filled
    /// into the L1/L2 in the background. Off by default — §2.2's point is
    /// that microservices barely benefit from prefetchers, and the
    /// `prefetch` tests here let you see why (sequential monolith streams
    /// gain, small looping working sets do not).
    pub prefetch_next_line: bool,
}

impl HierarchyConfig {
    /// The uManycore / ScaleOut hierarchy (Table 2): 64 KB 8-way L1s (2-cycle
    /// RT), 256 KB 16-way shared L2 (24-cycle RT), 128-entry 4-way single
    /// level TLB (2-cycle RT), 20 MSHRs.
    pub fn manycore() -> Self {
        Self {
            l1i: CacheConfig::new(64 * 1024, 8, 64),
            l1d: CacheConfig::new(64 * 1024, 8, 64),
            l2: CacheConfig::new(256 * 1024, 16, 64),
            l3: None,
            itlb: TlbConfig::new(128, 4, 4096),
            dtlb: TlbConfig::new(128, 4, 4096),
            tlb2: None,
            latencies: LevelLatencies {
                l1: Cycles::new(2),
                l2: Cycles::new(24),
                l3: Cycles::ZERO,
                tlb1: Cycles::new(2),
                tlb2: Cycles::ZERO,
                page_walk: Cycles::new(100),
            },
            mshrs: 20,
            prefetch_next_line: false,
        }
    }

    /// The ServerClass hierarchy (Table 2): 64 KB L1 (2-cycle RT), 2 MB
    /// 16-way L2 (16-cycle RT), 2 MB/core L3 slice (40-cycle RT), 256-entry
    /// L1 DTLB (2-cycle RT), 2048-entry 12-way L2 TLB (12-cycle RT).
    ///
    /// The L2 TLB's 12 ways do not divide 2048 into power-of-two sets with
    /// the generic model, so we use 16 ways — same capacity, marginally
    /// better associativity, no measurable effect at these hit rates.
    pub fn server_class() -> Self {
        Self {
            l1i: CacheConfig::new(64 * 1024, 8, 64),
            l1d: CacheConfig::new(64 * 1024, 8, 64),
            l2: CacheConfig::new(2 * 1024 * 1024, 16, 64),
            l3: Some(CacheConfig::new(2 * 1024 * 1024, 16, 64)),
            itlb: TlbConfig::new(256, 4, 4096),
            dtlb: TlbConfig::new(256, 4, 4096),
            tlb2: Some(TlbConfig::new(2048, 16, 4096)),
            latencies: LevelLatencies {
                l1: Cycles::new(2),
                l2: Cycles::new(16),
                l3: Cycles::new(40),
                tlb1: Cycles::new(2),
                tlb2: Cycles::new(12),
                page_walk: Cycles::new(150),
            },
            mshrs: 20,
            prefetch_next_line: false,
        }
    }
}

/// Per-level statistics snapshot of a hierarchy.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters (zero when absent).
    pub l3: CacheStats,
    /// L1 ITLB counters.
    pub itlb: CacheStats,
    /// L1 DTLB counters.
    pub dtlb: CacheStats,
    /// L2 TLB counters (zero when absent).
    pub tlb2: CacheStats,
    /// Cycles lost waiting for a free MSHR.
    pub mshr_stall_cycles: u64,
}

/// A per-core (plus shared-L2 view) cache and TLB hierarchy.
///
/// `access` returns the access latency in cycles, charging each level's
/// round-trip latency on the way down, the DRAM model on a full miss, and
/// MSHR stalls when too many misses are outstanding.
///
/// # Examples
///
/// ```
/// use um_mem::hierarchy::{AccessKind, HierarchyConfig, MemoryHierarchy};
/// use um_sim::Cycles;
///
/// let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
/// let cold = h.access(0x4000, AccessKind::DataRead, Cycles::ZERO);
/// let warm = h.access(0x4000, AccessKind::DataRead, cold);
/// assert!(warm < cold); // L1 hit after the fill
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    itlb: Tlb,
    dtlb: Tlb,
    tlb2: Option<Tlb>,
    dram: DramModel,
    /// Completion times of outstanding misses, bounded by `config.mshrs`.
    outstanding: Vec<Cycles>,
    mshr_stall_cycles: u64,
}

impl MemoryHierarchy {
    /// Creates a cold hierarchy with the default DRAM model.
    pub fn new(config: HierarchyConfig) -> Self {
        Self::with_dram(config, DramModel::ddr4_server())
    }

    /// Creates a cold hierarchy backed by a specific DRAM model.
    pub fn with_dram(config: HierarchyConfig, dram: DramModel) -> Self {
        Self {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            tlb2: config.tlb2.map(Tlb::new),
            dram,
            outstanding: Vec::new(),
            mshr_stall_cycles: 0,
            config,
        }
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs one access at simulation time `now`; returns its latency.
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: Cycles) -> Cycles {
        let latency = self.access_inner(addr, kind, now);
        #[cfg(feature = "sim-sanitizer")]
        self.check_post_access(addr, kind);
        latency
    }

    fn access_inner(&mut self, addr: u64, kind: AccessKind, now: Cycles) -> Cycles {
        let lat = self.config.latencies;
        let mut latency = Cycles::ZERO;

        // Address translation.
        let l1_tlb = if kind.is_instr() {
            &mut self.itlb
        } else {
            &mut self.dtlb
        };
        latency += lat.tlb1;
        if !l1_tlb.translate(addr) {
            match &mut self.tlb2 {
                Some(t2) => {
                    latency += lat.tlb2;
                    if !t2.translate(addr) {
                        latency += lat.page_walk;
                    }
                }
                None => latency += lat.page_walk,
            }
        }

        // Cache lookup.
        let l1 = if kind.is_instr() {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        latency += lat.l1;
        if l1.access(addr, kind.is_write()).is_hit() {
            return latency;
        }
        // Next-line prefetch rides the miss (no latency charged to the
        // demand access; the fill happens in the background).
        if self.config.prefetch_next_line {
            let next = addr + self.config.l1d.line_bytes() as u64;
            let l1 = if kind.is_instr() {
                &mut self.l1i
            } else {
                &mut self.l1d
            };
            l1.fill(next);
            self.l2.fill(next);
        }
        latency += lat.l2;
        if self.l2.access(addr, kind.is_write()).is_hit() {
            return latency;
        }
        if let Some(l3) = &mut self.l3 {
            latency += lat.l3;
            if l3.access(addr, kind.is_write()).is_hit() {
                return latency;
            }
        }

        // Full miss: check MSHR availability, then DRAM.
        let issue_at = now.saturating_add(latency);
        let stall = self.mshr_admit(issue_at);
        latency += stall;
        let dram_latency = self.dram.access(addr, issue_at + stall);
        latency += dram_latency;
        self.outstanding.push(now.saturating_add(latency));
        latency
    }

    /// Drops completed misses; if the file is still full, returns how long
    /// the new miss must wait for the earliest completion.
    fn mshr_admit(&mut self, now: Cycles) -> Cycles {
        self.outstanding.retain(|&t| t > now);
        if self.outstanding.len() < self.config.mshrs {
            return Cycles::ZERO;
        }
        let earliest = self
            .outstanding
            .iter()
            .copied()
            .min()
            .expect("full file is nonempty");
        let stall = earliest.saturating_sub(now);
        self.mshr_stall_cycles += stall.raw();
        // The stalled request takes the slot freed at `earliest`.
        let idx = self
            .outstanding
            .iter()
            .position(|&t| t == earliest)
            .expect("earliest exists");
        self.outstanding.swap_remove(idx);
        stall
    }

    /// Sanitizer hook: a demand access always ends with the line resident
    /// in its L1 (hits trivially, misses via the fill), and the outstanding
    /// miss list can never exceed the MSHR file.
    #[cfg(feature = "sim-sanitizer")]
    fn check_post_access(&self, addr: u64, kind: AccessKind) {
        let l1 = if kind.is_instr() {
            &self.l1i
        } else {
            &self.l1d
        };
        if !l1.probe(addr) {
            um_sim::sanitizer::report(
                "cache-residency",
                format!("address {addr:#x} absent from L1 after a demand access"),
            );
        }
        if self.outstanding.len() > self.config.mshrs {
            um_sim::sanitizer::report(
                "mshr-leak",
                format!(
                    "{} outstanding misses exceed the {}-entry MSHR file",
                    self.outstanding.len(),
                    self.config.mshrs
                ),
            );
        }
    }

    /// Pushes one more never-completing miss than the MSHR file holds.
    ///
    /// Exists only so sanitizer tests can verify the `mshr-leak` checker
    /// fires; never call this from simulation code.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn overfill_outstanding_for_sanitizer_test(&mut self) {
        let extra = self.config.mshrs + 1;
        self.outstanding.extend((0..extra).map(|_| Cycles::MAX));
    }

    /// Per-level counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.as_ref().map(|c| c.stats()).unwrap_or_default(),
            itlb: self.itlb.stats(),
            dtlb: self.dtlb.stats(),
            tlb2: self.tlb2.as_ref().map(|t| t.stats()).unwrap_or_default(),
            mshr_stall_cycles: self.mshr_stall_cycles,
        }
    }

    /// Clears statistics (not contents) at the end of a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
        }
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        if let Some(t2) = &mut self.tlb2 {
            t2.reset_stats();
        }
        self.mshr_stall_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_hit_is_l1_plus_tlb() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        h.access(0x1000, AccessKind::DataRead, Cycles::ZERO);
        let warm = h.access(0x1000, AccessKind::DataRead, Cycles::new(1000));
        // tlb1 (2) + l1 (2)
        assert_eq!(warm, Cycles::new(4));
    }

    #[test]
    fn cold_miss_reaches_dram() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        let cold = h.access(0x1000, AccessKind::DataRead, Cycles::ZERO);
        // Must include page walk + L1 + L2 + DRAM latency, so well above 100.
        assert!(cold > Cycles::new(100), "cold access was only {cold}");
    }

    #[test]
    fn instr_and_data_sides_are_separate() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        h.access(0x1000, AccessKind::InstrFetch, Cycles::ZERO);
        assert_eq!(h.stats().l1i.accesses, 1);
        assert_eq!(h.stats().l1d.accesses, 0);
        h.access(0x1000, AccessKind::DataRead, Cycles::ZERO);
        assert_eq!(h.stats().l1d.accesses, 1);
        // The data access still misses L1d even though L1i has the line.
        assert_eq!(h.stats().l1d.hits, 0);
    }

    #[test]
    fn server_class_has_three_levels() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::server_class());
        h.access(0x8000, AccessKind::DataRead, Cycles::ZERO);
        let s = h.stats();
        assert_eq!(s.l3.accesses, 1);
        assert_eq!(s.tlb2.accesses, 1);
    }

    #[test]
    fn l2_hit_cheaper_than_miss() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        // Fill L2 (and L1) with line A, then evict it from tiny L1 by
        // touching many conflicting lines; L2 should still hold A.
        h.access(0x0, AccessKind::DataRead, Cycles::ZERO);
        let l1_lines = 64 * 1024 / 64;
        for i in 1..=(l1_lines as u64 * 2) {
            h.access(i * 64, AccessKind::DataRead, Cycles::new(i));
        }
        let t = Cycles::new(10_000_000);
        let l2_hit = h.access(0x0, AccessKind::DataRead, t);
        let warm = h.access(0x0, AccessKind::DataRead, t + l2_hit);
        assert!(l2_hit > warm, "L2 hit {l2_hit} should exceed L1 hit {warm}");
        assert!(
            l2_hit <= Cycles::new(2 + 2 + 24 + 150),
            "unexpected DRAM trip: {l2_hit}"
        );
    }

    #[test]
    fn mshr_pressure_stalls() {
        let cfg = HierarchyConfig {
            mshrs: 1,
            ..HierarchyConfig::manycore()
        };
        let mut h = MemoryHierarchy::new(cfg);
        // Two simultaneous cold misses with one MSHR: second must stall.
        let a = h.access(0x0000, AccessKind::DataRead, Cycles::ZERO);
        let b = h.access(0x10000, AccessKind::DataRead, Cycles::ZERO);
        assert!(b > a, "second miss {b} should stall behind first {a}");
        assert!(h.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn stats_reset() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        h.access(0x0, AccessKind::DataWrite, Cycles::ZERO);
        h.reset_stats();
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 0);
        assert_eq!(s.mshr_stall_cycles, 0);
    }

    #[test]
    fn next_line_prefetch_helps_sequential_streams() {
        let run = |prefetch: bool| {
            let cfg = HierarchyConfig {
                prefetch_next_line: prefetch,
                ..HierarchyConfig::manycore()
            };
            let mut h = MemoryHierarchy::new(cfg);
            // A cold sequential stream: every line is new.
            for i in 0..4_000u64 {
                h.access(i * 8, AccessKind::DataRead, Cycles::new(i * 400));
            }
            h.stats().l1d.hit_rate()
        };
        let base = run(false);
        let pf = run(true);
        assert!(
            pf > base + 0.05,
            "prefetching should lift a streaming hit rate: {base} -> {pf}"
        );
    }

    #[test]
    fn prefetch_is_useless_for_resident_working_sets() {
        // §2.2's microservice case: the loop already fits in L1.
        let run = |prefetch: bool| {
            let cfg = HierarchyConfig {
                prefetch_next_line: prefetch,
                ..HierarchyConfig::manycore()
            };
            let mut h = MemoryHierarchy::new(cfg);
            for pass in 0..20u64 {
                for i in 0..256u64 {
                    h.access(
                        i * 64,
                        AccessKind::DataRead,
                        Cycles::new(pass * 100_000 + i),
                    );
                }
                if pass == 0 {
                    // Steady state only: prefetching trivially halves the
                    // compulsory misses of the first pass.
                    h.reset_stats();
                }
            }
            h.stats().l1d.hit_rate()
        };
        let gain = run(true) - run(false);
        assert!(
            gain.abs() < 0.01,
            "resident working set gains nothing: {gain}"
        );
    }

    #[test]
    fn small_working_set_high_hit_rate() {
        // Figure 9's premise: a 0.5 MB handler footprint mostly fits; L1
        // hit rates exceed 95% under cyclic reuse.
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        let lines: Vec<u64> = (0..512).map(|i| i * 64).collect(); // 32 KB
        for pass in 0..40 {
            for &a in &lines {
                h.access(a, AccessKind::DataRead, Cycles::new(pass * 100_000));
            }
        }
        assert!(h.stats().l1d.hit_rate() > 0.95);
    }
}
