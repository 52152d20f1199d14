//! Deliberate-violation tests for the `sim-sanitizer` memory checkers:
//! an outstanding-miss list overfilled past the MSHR count must surface
//! on the next access, and ordinary pool and hierarchy traffic must leave
//! the registry empty.
#![cfg(feature = "sim-sanitizer")]

use um_mem::hierarchy::{AccessKind, HierarchyConfig, MemoryHierarchy};
use um_mem::pool::MemoryPool;
use um_sim::{sanitizer, Cycles, Frequency};

#[test]
fn overfilled_outstanding_misses_are_reported() {
    let _ = sanitizer::take();
    let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
    let warm = h.access(0x1000, AccessKind::DataRead, Cycles::ZERO);
    assert_eq!(sanitizer::violation_count(), 0, "a cold miss is not a leak");
    h.overfill_outstanding_for_sanitizer_test();
    // An L1 hit: the check runs after every access, not only on misses.
    h.access(0x1000, AccessKind::DataRead, warm);
    let violations = sanitizer::take();
    assert_eq!(violations.len(), 1, "one leak: {violations:?}");
    assert_eq!(violations[0].checker, "mshr-leak");
    assert!(
        violations[0].message.contains("20-entry MSHR file"),
        "message names the MSHR bound: {}",
        violations[0].message
    );
}

#[test]
fn pool_traffic_stays_clean() {
    let _ = sanitizer::take();
    const MB: u64 = 1024 * 1024;
    let mut p = MemoryPool::new(32 * MB);
    let f = Frequency::ghz(2.0);
    for service in 0..8u32 {
        p.store(service, 10 * MB).unwrap(); // forces LRU evictions
        p.boot_latency(service, f);
    }
    assert_eq!(sanitizer::violation_count(), 0);
}

#[test]
fn hierarchy_traffic_stays_clean() {
    let _ = sanitizer::take();
    let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
    for i in 0..2_000u64 {
        h.access(i * 64, AccessKind::DataRead, Cycles::new(i * 10));
    }
    assert_eq!(sanitizer::violation_count(), 0);
}
