//! Fixture: nondeterministic float sorts.

/// `partial_cmp().unwrap()` panics on NaN: fires.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Unstable sorts reorder equal float keys run-to-run: fires.
pub fn rank(pairs: &mut [(u32, f32)]) {
    pairs.sort_unstable_by(|a, b| (a.1 as f64).total_cmp(&(b.1 as f64)));
}

/// A stable integer key sort is deterministic: must not fire.
pub fn by_id(pairs: &mut [(u32, f32)]) {
    pairs.sort_by_key(|p| p.0);
}

/// A stable total_cmp sort is the sanctioned float sort: must not fire.
pub fn sanctioned(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Selection with `partial_cmp().unwrap()` panics on NaN too: fires.
pub fn p99(mut v: Vec<f64>) -> f64 {
    let k = v.len() * 99 / 100;
    *v.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).unwrap()).1
}

/// Selecting by total_cmp yields the exact k-th value: must not fire.
pub fn p99_exact(mut v: Vec<f64>) -> f64 {
    let k = v.len() * 99 / 100;
    *v.select_nth_unstable_by(k, f64::total_cmp).1
}
