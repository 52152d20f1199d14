//! Deliberate-violation tests for the `sim-sanitizer` checkers in this
//! crate: a corrupted RQ Ready-entry counter and an overdrawn retry
//! budget must surface as structured violations, while healthy
//! lifecycles leave the registry empty.
#![cfg(feature = "sim-sanitizer")]

use um_sched::{RequestQueue, RetryBudget};
use um_sim::sanitizer;

#[test]
fn corrupted_ready_count_is_reported() {
    let _ = sanitizer::take();
    let mut rq = RequestQueue::new(4);
    rq.enqueue(1, ()).unwrap();
    rq.corrupt_ready_for_sanitizer_test(0);
    rq.enqueue(1, ()).unwrap();
    let violations = sanitizer::take();
    assert!(
        violations
            .iter()
            .any(|v| v.checker == "rq-occupancy" && v.message.contains("ready count")),
        "ready-count drift reported: {violations:?}"
    );
}

#[test]
fn overdrawn_retry_budget_is_reported() {
    let _ = sanitizer::take();
    let mut budget = RetryBudget::new(0.1);
    budget.earn();
    assert!(!budget.try_spend(), "0.1 tokens cannot pay for a retry");
    assert_eq!(
        sanitizer::violation_count(),
        0,
        "a refusal is not a violation"
    );
    budget.force_spend_for_sanitizer_test();
    let violations = sanitizer::take();
    assert!(
        violations.iter().any(|v| v.checker == "retry-budget"),
        "overdraw reported: {violations:?}"
    );
}

#[test]
fn healthy_budget_lifecycle_stays_clean() {
    let _ = sanitizer::take();
    let mut budget = RetryBudget::new(0.5);
    for _ in 0..100 {
        budget.earn();
        let _ = budget.try_spend();
    }
    assert_eq!(sanitizer::violation_count(), 0);
}

#[test]
fn full_lifecycle_stays_clean() {
    let _ = sanitizer::take();
    let mut rq = RequestQueue::new(4);
    for round in 0..16u32 {
        let a = rq.enqueue(round % 3, round).unwrap();
        let b = rq.enqueue(round % 3, round + 100).unwrap();
        rq.dequeue(round % 3).unwrap();
        rq.block(a).unwrap();
        rq.dequeue(round % 3).unwrap();
        rq.unblock(a).unwrap();
        rq.complete(b).unwrap();
        rq.dequeue(round % 3).unwrap();
        rq.complete(a).unwrap();
    }
    assert!(rq.is_empty());
    assert_eq!(sanitizer::violation_count(), 0);
}
