//! Synthetic memory-address traces (paper Figure 9).
//!
//! Figure 9 reports L1/L2 TLB and cache hit rates for microservice
//! handlers. We substitute Pin-collected traces with a synthetic generator
//! that reproduces the locality structure §3.5 describes: a small handler
//! working set (~0.5 MB), strongly sequential instruction fetch with loops,
//! and data accesses mixing a hot stack, a warm shared region and cold
//! private buffers.

use crate::dist::sample_geometric;
use rand::rngs::SmallRng;
use rand::Rng;
use um_sim::rng;

/// A single memory reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address.
    pub addr: u64,
    /// Whether this is an instruction fetch (else a data access).
    pub instr: bool,
    /// Whether a data access writes (ignored for instruction fetches).
    pub write: bool,
}

/// Shape of one handler's address stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceProfile {
    /// Instruction working set in bytes (hot loops + dispatch).
    pub instr_bytes: u64,
    /// Hot data (stack, descriptors) bytes.
    pub hot_data_bytes: u64,
    /// Warm shared instance data bytes.
    pub warm_data_bytes: u64,
    /// Cold per-request buffer bytes (streamed once).
    pub cold_data_bytes: u64,
    /// Probability an instruction fetch jumps to a random code location
    /// (taken branch out of line); otherwise fetch is sequential.
    pub branch_out_p: f64,
    /// Fraction of data accesses that hit the hot region.
    pub hot_frac: f64,
    /// Fraction of data accesses that hit the warm region (the remainder
    /// streams the cold region).
    pub warm_frac: f64,
    /// Fraction of data accesses that write.
    pub write_frac: f64,
}

impl TraceProfile {
    /// A microservice handler (§3.5): ~0.5-1.5 MB total footprint with the
    /// strong skew real handlers show (stack + a few hot objects dominate),
    /// so L1 hit rates land above 95% as in Figure 9.
    pub fn microservice() -> Self {
        Self {
            instr_bytes: 96 * 1024,
            hot_data_bytes: 16 * 1024,
            warm_data_bytes: 1024 * 1024,
            cold_data_bytes: 128 * 1024,
            branch_out_p: 0.05,
            hot_frac: 0.86,
            warm_frac: 0.12,
            write_frac: 0.25,
        }
    }

    /// A monolithic application: multi-MB instruction and data footprints
    /// with weaker locality and branchier control flow — the contrast
    /// behind Figure 1.
    pub fn monolith() -> Self {
        Self {
            instr_bytes: 4 * 1024 * 1024,
            hot_data_bytes: 256 * 1024,
            warm_data_bytes: 16 * 1024 * 1024,
            cold_data_bytes: 8 * 1024 * 1024,
            branch_out_p: 0.12,
            hot_frac: 0.72,
            warm_frac: 0.22,
            write_frac: 0.30,
        }
    }
}

/// Generates an interleaved instruction/data reference stream.
///
/// # Examples
///
/// ```
/// use um_workload::trace::{TraceGenerator, TraceProfile};
///
/// let mut g = TraceGenerator::new(TraceProfile::microservice(), 17);
/// let refs = g.generate(10_000);
/// assert_eq!(refs.len(), 10_000);
/// let instr = refs.iter().filter(|r| r.instr).count();
/// assert!(instr > 5_000); // roughly 3 fetches per data access
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    profile: TraceProfile,
    rng: SmallRng,
    pc: u64,
    cold_cursor: u64,
}

/// Region bases mirror `um-mem::footprint`'s layout.
const CODE_BASE: u64 = 0;
const HOT_BASE: u64 = 0x2000_0000;
const WARM_BASE: u64 = 0x4000_0000;
const COLD_BASE: u64 = 0x8000_0000;

/// Instructions fetched per data access, approximating a load/store
/// density of ~1 in 4.
const FETCHES_PER_DATA: u32 = 3;

impl TraceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if fractions are outside `\[0, 1\]` or region sizes are zero.
    pub fn new(profile: TraceProfile, seed: u64) -> Self {
        assert!(profile.instr_bytes > 0 && profile.hot_data_bytes > 0);
        assert!(profile.warm_data_bytes > 0 && profile.cold_data_bytes > 0);
        for f in [
            profile.branch_out_p,
            profile.hot_frac,
            profile.warm_frac,
            profile.write_frac,
        ] {
            assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
        }
        assert!(
            profile.hot_frac + profile.warm_frac <= 1.0,
            "hot + warm fractions exceed 1"
        );
        Self {
            profile,
            rng: rng::stream(seed, "mem-trace"),
            pc: CODE_BASE,
            cold_cursor: 0,
        }
    }

    fn next_instr(&mut self) -> MemRef {
        let p = self.profile;
        if self.rng.gen::<f64>() < p.branch_out_p {
            // Taken branch out of the current line; biased towards nearby
            // targets (geometric over 256-byte spans).
            let span = 256u64;
            let hops = sample_geometric(&mut self.rng, 0.6, 16) as u64 + 1;
            let dir_back = self.rng.gen::<bool>();
            let delta = hops * span;
            self.pc = if dir_back {
                self.pc.saturating_sub(delta)
            } else {
                self.pc + delta
            } % p.instr_bytes;
        } else {
            self.pc = (self.pc + 4) % p.instr_bytes;
        }
        MemRef {
            addr: CODE_BASE + self.pc,
            instr: true,
            write: false,
        }
    }

    fn next_data(&mut self) -> MemRef {
        let p = self.profile;
        let r: f64 = self.rng.gen();
        let addr = if r < p.hot_frac {
            HOT_BASE + self.rng.gen_range(0..p.hot_data_bytes / 8) * 8
        } else if r < p.hot_frac + p.warm_frac {
            // Skewed (Zipf-like) warm accesses: raising a uniform draw to
            // the fourth power concentrates most references on a small
            // prefix of the region, as real heap accesses do.
            let u: f64 = self.rng.gen();
            let offset = (u.powi(4) * (p.warm_data_bytes / 8) as f64) as u64;
            WARM_BASE + offset.min(p.warm_data_bytes / 8 - 1) * 8
        } else {
            // Streaming: sequential walk through the cold buffer.
            self.cold_cursor = (self.cold_cursor + 64) % p.cold_data_bytes;
            COLD_BASE + self.cold_cursor
        };
        MemRef {
            addr,
            instr: false,
            write: self.rng.gen::<f64>() < p.write_frac,
        }
    }

    /// Generates `n` interleaved references.
    pub fn generate(&mut self, n: usize) -> Vec<MemRef> {
        let mut out = Vec::with_capacity(n);
        let mut since_data = 0;
        while out.len() < n {
            if since_data < FETCHES_PER_DATA {
                out.push(self.next_instr());
                since_data += 1;
            } else {
                out.push(self.next_data());
                since_data = 0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microservice_footprint_is_bounded() {
        let mut g = TraceGenerator::new(TraceProfile::microservice(), 3);
        let refs = g.generate(100_000);
        let p = TraceProfile::microservice();
        for r in &refs {
            if r.instr {
                assert!(r.addr < CODE_BASE + p.instr_bytes);
            }
        }
        // Distinct instruction lines fit the stated instruction footprint.
        let lines: std::collections::BTreeSet<u64> = refs
            .iter()
            .filter(|r| r.instr)
            .map(|r| r.addr / 64)
            .collect();
        assert!(lines.len() as u64 <= p.instr_bytes / 64 + 1);
    }

    #[test]
    fn monolith_touches_more_lines() {
        let count_lines = |profile, seed| {
            let mut g = TraceGenerator::new(profile, seed);
            g.generate(200_000)
                .iter()
                .map(|r| r.addr / 64)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        let micro = count_lines(TraceProfile::microservice(), 5);
        let mono = count_lines(TraceProfile::monolith(), 5);
        assert!(
            mono > 2 * micro,
            "monolith lines {mono} vs microservice {micro}"
        );
    }

    #[test]
    fn instruction_data_ratio() {
        let mut g = TraceGenerator::new(TraceProfile::microservice(), 7);
        let refs = g.generate(40_000);
        let instr = refs.iter().filter(|r| r.instr).count();
        let ratio = instr as f64 / refs.len() as f64;
        assert!((0.70..0.80).contains(&ratio), "instr ratio {ratio}");
    }

    #[test]
    fn writes_only_on_data() {
        let mut g = TraceGenerator::new(TraceProfile::microservice(), 9);
        for r in g.generate(10_000) {
            if r.instr {
                assert!(!r.write);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TraceGenerator::new(TraceProfile::microservice(), 1).generate(1000);
        let b = TraceGenerator::new(TraceProfile::microservice(), 1).generate(1000);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn bad_fractions_rejected() {
        let mut p = TraceProfile::microservice();
        p.hot_frac = 0.8;
        p.warm_frac = 0.5;
        TraceGenerator::new(p, 1);
    }
}
