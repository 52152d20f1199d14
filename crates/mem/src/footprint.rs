//! Handler memory-footprint and sharing model (paper §3.5, Figure 8).
//!
//! Two request handlers of the same service instance execute the same code
//! and read mostly the same initialization data; Figure 8 reports that
//! 78–99% of a handler's pages/lines are common with another handler or
//! with the instance's initialization. This module generates synthetic
//! handler footprints with that structure and measures overlap at page and
//! line granularity, exactly as the figure does.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// Bytes per page (4 KB, as in the paper).
pub const PAGE_BYTES: u64 = 4096;
/// Bytes per cache line (64 B, as in the paper).
pub const LINE_BYTES: u64 = 64;

/// Statistical shape of one service's memory behaviour.
///
/// Calibrated to the paper's DeathStarBench numbers: a handler footprint of
/// ~0.5 MB, most of it read-shared with sibling handlers and with the
/// instance initialization state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FootprintProfile {
    /// Total instruction bytes of the service binary + libraries it touches.
    pub instr_bytes: u64,
    /// Read-mostly instance data (config, connection state, cached tables).
    pub shared_data_bytes: u64,
    /// Per-request private data (stack, request buffers, scratch).
    pub private_data_bytes: u64,
    /// Fraction of the code a single handler actually executes (< 1.0:
    /// handlers skip error paths etc.).
    pub code_coverage: f64,
    /// Fraction of the shared data a single handler actually reads.
    pub shared_coverage: f64,
}

impl FootprintProfile {
    /// The paper's DeathStarBench-like default: ~0.5 MB handler footprint.
    pub fn deathstar_default() -> Self {
        Self {
            instr_bytes: 192 * 1024,
            shared_data_bytes: 256 * 1024,
            private_data_bytes: 48 * 1024,
            code_coverage: 0.92,
            shared_coverage: 0.90,
        }
    }
}

/// The set of addresses one execution touched, split by kind.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    /// Instruction line addresses (line-aligned).
    pub instr_lines: BTreeSet<u64>,
    /// Data line addresses (line-aligned).
    pub data_lines: BTreeSet<u64>,
}

impl Footprint {
    /// Page set derived from a line set.
    fn pages(lines: &BTreeSet<u64>) -> BTreeSet<u64> {
        lines.iter().map(|&l| l / PAGE_BYTES).collect()
    }

    /// Instruction pages touched.
    pub fn instr_pages(&self) -> BTreeSet<u64> {
        Self::pages(&self.instr_lines)
    }

    /// Data pages touched.
    pub fn data_pages(&self) -> BTreeSet<u64> {
        Self::pages(&self.data_lines)
    }

    /// Footprint size in bytes at line granularity.
    pub fn bytes(&self) -> u64 {
        (self.instr_lines.len() + self.data_lines.len()) as u64 * LINE_BYTES
    }
}

/// One Figure 8 bar group: common fraction of a handler's footprint at each
/// granularity (each in `\[0, 1\]`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SharingReport {
    /// Data pages in common.
    pub d_page: f64,
    /// Data lines in common.
    pub d_line: f64,
    /// Instruction pages in common.
    pub i_page: f64,
    /// Instruction lines in common.
    pub i_line: f64,
}

impl SharingReport {
    /// Mean of the four fractions.
    pub fn mean(&self) -> f64 {
        (self.d_page + self.d_line + self.i_page + self.i_line) / 4.0
    }
}

/// Generates handler and initialization footprints for a service and
/// measures their sharing, reproducing Figure 8.
///
/// # Examples
///
/// ```
/// use um_mem::footprint::{FootprintGenerator, FootprintProfile};
/// use rand::SeedableRng;
///
/// let mut g = FootprintGenerator::new(FootprintProfile::deathstar_default());
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let a = g.handler(&mut rng);
/// let b = g.handler(&mut rng);
/// let rep = FootprintGenerator::sharing(&a, &b);
/// assert!(rep.i_line > 0.7, "handlers share most code: {:?}", rep);
/// ```
#[derive(Clone, Debug)]
pub struct FootprintGenerator {
    profile: FootprintProfile,
    /// Base of the private-data arena; advances per handler so private
    /// regions never collide.
    next_private_base: u64,
}

/// Region layout: code at 0x0000_0000, shared data at 0x4000_0000, private
/// arenas from 0x8000_0000 upward.
const CODE_BASE: u64 = 0;
const SHARED_BASE: u64 = 0x4000_0000;
const PRIVATE_BASE: u64 = 0x8000_0000;

impl FootprintGenerator {
    /// Creates a generator for one service instance.
    ///
    /// # Panics
    ///
    /// Panics if coverages are outside `(0, 1]`.
    pub fn new(profile: FootprintProfile) -> Self {
        assert!(
            profile.code_coverage > 0.0 && profile.code_coverage <= 1.0,
            "code coverage out of range"
        );
        assert!(
            profile.shared_coverage > 0.0 && profile.shared_coverage <= 1.0,
            "shared coverage out of range"
        );
        Self {
            profile,
            next_private_base: PRIVATE_BASE,
        }
    }

    /// The profile this generator draws from.
    pub fn profile(&self) -> FootprintProfile {
        self.profile
    }

    fn sample_lines<R: Rng>(
        rng: &mut R,
        base: u64,
        region_bytes: u64,
        coverage: f64,
    ) -> BTreeSet<u64> {
        let total_lines = (region_bytes / LINE_BYTES).max(1);
        let take = ((total_lines as f64 * coverage).round() as u64).clamp(1, total_lines);
        let mut all: Vec<u64> = (0..total_lines).map(|i| base + i * LINE_BYTES).collect();
        all.shuffle(rng);
        all.truncate(take as usize);
        all.into_iter().collect()
    }

    /// Generates the footprint of one request handler.
    pub fn handler<R: Rng>(&mut self, rng: &mut R) -> Footprint {
        let p = self.profile;
        let instr_lines = Self::sample_lines(rng, CODE_BASE, p.instr_bytes, p.code_coverage);
        let mut data_lines =
            Self::sample_lines(rng, SHARED_BASE, p.shared_data_bytes, p.shared_coverage);
        // Private arena: every line, disjoint from all other handlers.
        let base = self.next_private_base;
        self.next_private_base += p.private_data_bytes.next_multiple_of(PAGE_BYTES);
        for i in 0..(p.private_data_bytes / LINE_BYTES) {
            data_lines.insert(base + i * LINE_BYTES);
        }
        Footprint {
            instr_lines,
            data_lines,
        }
    }

    /// Generates the footprint of the instance initialization process: all
    /// code and all shared data (it created them), no handler-private data.
    pub fn init(&self) -> Footprint {
        let p = self.profile;
        let instr_lines = (0..(p.instr_bytes / LINE_BYTES))
            .map(|i| CODE_BASE + i * LINE_BYTES)
            .collect();
        let data_lines = (0..(p.shared_data_bytes / LINE_BYTES))
            .map(|i| SHARED_BASE + i * LINE_BYTES)
            .collect();
        Footprint {
            instr_lines,
            data_lines,
        }
    }

    /// Fraction of `a`'s footprint common with `b`, at both granularities —
    /// one Figure 8 bar group.
    pub fn sharing(a: &Footprint, b: &Footprint) -> SharingReport {
        fn frac(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
            if a.is_empty() {
                return 0.0;
            }
            a.intersection(b).count() as f64 / a.len() as f64
        }
        SharingReport {
            d_page: frac(&a.data_pages(), &b.data_pages()),
            d_line: frac(&a.data_lines, &b.data_lines),
            i_page: frac(&a.instr_pages(), &b.instr_pages()),
            i_line: frac(&a.instr_lines, &b.instr_lines),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gen() -> (FootprintGenerator, SmallRng) {
        (
            FootprintGenerator::new(FootprintProfile::deathstar_default()),
            SmallRng::seed_from_u64(42),
        )
    }

    #[test]
    fn handler_footprint_near_half_megabyte() {
        let (mut g, mut rng) = gen();
        let f = g.handler(&mut rng);
        let bytes = f.bytes();
        // Paper: ~0.5 MB on average.
        assert!(
            (300 * 1024..700 * 1024).contains(&bytes),
            "footprint {bytes} bytes"
        );
    }

    #[test]
    fn handlers_share_most_code_and_shared_data() {
        let (mut g, mut rng) = gen();
        let a = g.handler(&mut rng);
        let b = g.handler(&mut rng);
        let rep = FootprintGenerator::sharing(&a, &b);
        // Paper Figure 8: 78-99% common.
        assert!(rep.i_line > 0.75, "i_line {rep:?}");
        assert!(rep.i_page >= rep.i_line, "page sharing >= line sharing");
        assert!(rep.d_line > 0.5, "d_line {rep:?}");
    }

    #[test]
    fn handler_private_regions_are_disjoint() {
        let (mut g, mut rng) = gen();
        let a = g.handler(&mut rng);
        let b = g.handler(&mut rng);
        let a_priv: BTreeSet<u64> = a
            .data_lines
            .iter()
            .copied()
            .filter(|&l| l >= PRIVATE_BASE)
            .collect();
        let b_priv: BTreeSet<u64> = b
            .data_lines
            .iter()
            .copied()
            .filter(|&l| l >= PRIVATE_BASE)
            .collect();
        assert!(!a_priv.is_empty());
        assert!(a_priv.is_disjoint(&b_priv));
    }

    #[test]
    fn handler_init_sharing_high() {
        let (mut g, mut rng) = gen();
        let h = g.handler(&mut rng);
        let init = g.init();
        let rep = FootprintGenerator::sharing(&h, &init);
        // All sampled code/shared lines are inside init's full regions;
        // only handler-private data is different.
        assert_eq!(rep.i_line, 1.0);
        assert!(rep.d_line > 0.5 && rep.d_line < 1.0, "{rep:?}");
    }

    #[test]
    fn sharing_with_self_is_total() {
        let (mut g, mut rng) = gen();
        let h = g.handler(&mut rng);
        let rep = FootprintGenerator::sharing(&h, &h);
        assert_eq!(rep.mean(), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut g1, mut r1) = gen();
        let (mut g2, mut r2) = gen();
        assert_eq!(g1.handler(&mut r1).bytes(), g2.handler(&mut r2).bytes());
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn zero_coverage_rejected() {
        FootprintGenerator::new(FootprintProfile {
            code_coverage: 0.0,
            ..FootprintProfile::deathstar_default()
        });
    }
}
