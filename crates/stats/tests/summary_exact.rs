//! `Summary::of` against the reference path, bit for bit.
//!
//! The reference is a frozen `Samples` queried field by field: a full
//! stable `total_cmp` sort indexed by the nearest-rank rule. `Summary::of`
//! selects its percentiles instead of sorting, so inputs lean on what could
//! tell the two apart: heavy duplicates, `-0.0` beside `0.0`, infinities,
//! and lengths where the P50 and P99 ranks coincide.

use proptest::collection::vec;
use proptest::prelude::*;
use um_stats::{Samples, Summary};

/// The reference digest: frozen-set queries, one per field.
fn reference(values: &[f64]) -> Summary {
    let mut s: Samples = values.iter().copied().collect();
    s.freeze();
    Summary {
        count: s.len(),
        mean: s.mean(),
        p50: s.median(),
        p99: s.p99(),
        max: s.max(),
        tail_to_avg: s.tail_to_avg(),
    }
}

fn bits(d: &Summary) -> [u64; 6] {
    [
        d.count as u64,
        d.mean.to_bits(),
        d.p50.to_bits(),
        d.p99.to_bits(),
        d.max.to_bits(),
        d.tail_to_avg.to_bits(),
    ]
}

/// Values whose ties and signs a percentile path could mishandle.
const POOL: [f64; 9] = [
    0.0,
    -0.0,
    1.0,
    2.5,
    -7.0,
    1e300,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A value drawn mostly from [`POOL`], so duplicates are common.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => (0..POOL.len()).prop_map(|i| POOL[i]),
        1 => (0u32..50).prop_map(f64::from),
        1 => -1e6f64..1e6,
    ]
}

fn check(values: &[f64]) -> Result<(), TestCaseError> {
    let want = reference(values);
    let unfrozen: Samples = values.iter().copied().collect();
    prop_assert_eq!(bits(&Summary::of(&unfrozen)), bits(&want), "unfrozen");
    let mut frozen = unfrozen.clone();
    frozen.freeze();
    prop_assert_eq!(bits(&Summary::of(&frozen)), bits(&want), "frozen");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn tiny_sets_match_the_reference(values in vec(value(), 1..4)) {
        check(&values)?;
    }

    #[test]
    fn large_sets_match_the_reference(values in vec(value(), 1..3_000)) {
        check(&values)?;
    }

    /// Ties only: every rank lands in a run of equal values.
    #[test]
    fn all_duplicate_sets_match_the_reference(
        pool in vec(value(), 1..4),
        picks in vec(0usize..4, 1..2_000),
    ) {
        let values: Vec<f64> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
        check(&values)?;
    }
}

#[test]
fn empty_set_is_the_default_digest() {
    assert_eq!(
        bits(&Summary::of(&Samples::new())),
        bits(&Summary::default())
    );
}

#[test]
fn signed_zeros_keep_their_sort_order() {
    // `total_cmp` orders -0.0 before 0.0; nearest rank 1 of 2 is -0.0.
    let s: Samples = [0.0, -0.0].into_iter().collect();
    let d = Summary::of(&s);
    assert_eq!(d.p50.to_bits(), (-0.0f64).to_bits());
    assert_eq!(d.p99.to_bits(), 0.0f64.to_bits());
}
