//! Reproducible per-component random streams.
//!
//! Every stochastic component of the simulator (arrival processes, service
//! time draws, routing tie-breaks, …) pulls from its own named stream derived
//! from a single master seed. Streams are independent of each other and of
//! the order in which components are constructed, so adding a new component
//! never perturbs existing results.
//!
//! # Examples
//!
//! ```
//! use um_sim::rng;
//! use rand::Rng;
//!
//! let mut a = rng::stream(42, "arrivals");
//! let mut b = rng::stream(42, "arrivals");
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>()); // same seed+tag => same stream
//!
//! let mut c = rng::stream(42, "service");
//! let _ = c.gen::<u64>(); // different tag => independent stream
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives a deterministic [`SmallRng`] for component `tag` from `seed`.
///
/// The derivation hashes the tag with FNV-1a and mixes it with the master
/// seed through SplitMix64 finalization, giving well-separated streams for
/// distinct tags.
pub fn stream(seed: u64, tag: &str) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed, fnv1a(tag.as_bytes())))
}

/// Derives a stream for an indexed component, e.g. one stream per core.
pub fn stream_indexed(seed: u64, tag: &str, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(mix(seed, fnv1a(tag.as_bytes())), index))
}

/// Derives a child master seed for sub-experiment `index` of a sweep.
///
/// Sweep drivers use this to give every point of a parameter sweep its
/// own independent seed, derived purely from the sweep's master seed and
/// the point's position. Because the derivation is a function of
/// `(seed, index)` alone — never of execution order — a sweep evaluated
/// across worker threads produces bit-identical results to a serial run.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    mix(mix(seed, fnv1a(b"sweep-point")), index)
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: mixes two words into a well-distributed seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_tag_same_stream() {
        let mut a = stream(1, "x");
        let mut b = stream(1, "x");
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_tags_differ() {
        let mut a = stream(1, "x");
        let mut b = stream(1, "y");
        let av: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let bv: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = stream(1, "x");
        let mut b = stream(2, "x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            let mut r = stream_indexed(7, "core", i);
            assert!(seen.insert(r.gen::<u64>()), "collision at index {i}");
        }
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1_000 {
            assert!(seen.insert(derive_seed(42, i)), "collision at index {i}");
        }
        // Stable across calls (pure function of its inputs).
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn fnv_distinguishes_prefixes() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn mix_is_not_identity() {
        assert_ne!(mix(0, 0), 0);
        assert_ne!(mix(1, 0), mix(0, 1));
    }
}
