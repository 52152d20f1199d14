//! Fixture: nothing to report.
//!
//! Doc comments may mention async fn, .await and tokio freely; matching
//! is lexical but strings and comments are stripped first.

use std::collections::BTreeMap;

/// Sums the map's values ("async fn" in a string is also fine).
pub fn sum(map: &BTreeMap<u32, u64>) -> u64 {
    let _s = "tokio::spawn(x).await in a string literal";
    map.values().sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn works() {
        let total_cycles = 2u64;
        let m = std::collections::BTreeMap::from([(1u32, total_cycles)]);
        assert_eq!(super::sum(&m), 2);
        assert_eq!(total_cycles as u32, 2);
    }
}
