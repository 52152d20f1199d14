//! `Summary::of` against the reference path, bit for bit.
//!
//! The reference is a full stable `total_cmp` sort indexed by the
//! nearest-rank rule. `Summary::of`, `Samples::median` and `Samples::p99`
//! select their percentiles instead of sorting, so inputs lean on what
//! could tell the two apart: heavy duplicates, `-0.0` beside `0.0`,
//! infinities, and lengths where the P50 and P99 ranks coincide.

use proptest::collection::vec;
use proptest::prelude::*;
use um_stats::{Samples, Summary};

/// The nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The reference digest: percentiles indexed into a stable `total_cmp`
/// sort of a copy.
fn reference(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let s: Samples = values.iter().copied().collect();
    let mean = s.mean();
    let p99 = nearest_rank(&sorted, 0.99);
    Summary {
        count: values.len(),
        mean,
        p50: nearest_rank(&sorted, 0.5),
        p99,
        max: s.max(),
        tail_to_avg: if mean == 0.0 { 0.0 } else { p99 / mean },
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
    let s: Samples = values.iter().copied().collect();
    prop_assert_eq!(bits(&Summary::of(&s)), bits(&want), "Summary::of");
    prop_assert_eq!(s.median().to_bits(), want.p50.to_bits(), "median()");
    prop_assert_eq!(s.p99().to_bits(), want.p99.to_bits(), "p99()");
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
