//! Pins `um-tidy --json`'s contract with `um_bench::benchjson`: the lint
//! gate is zero-dependency, so it carries its own tiny JSON emitter —
//! these tests are what keep that emitter byte-compatible with the
//! benchjson document model the rest of the repo's JSON uses.

use std::path::Path;

use um_bench::benchjson::Json;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// The live tree's report must round-trip byte-exactly (benchjson's
/// parse-then-render is the identity on um-tidy's output) and be
/// internally consistent.
#[test]
fn live_report_roundtrips_through_benchjson() {
    let report = um_tidy::workspace_report(workspace_root()).expect("workspace scan");
    let rendered = um_tidy::render_json(&report);
    let doc = Json::parse(&rendered).expect("um-tidy --json must parse as benchjson");
    assert_eq!(
        doc.render(),
        rendered,
        "um-tidy's emitter drifted from benchjson's renderer"
    );
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("um-tidy"));
    assert_eq!(
        doc.get("rules").and_then(Json::as_num),
        Some(um_tidy::Rule::COUNT as f64)
    );
    let violations = doc.get("violations").and_then(Json::as_arr).expect("array");
    assert_eq!(
        doc.get("violation_count").and_then(Json::as_num),
        Some(violations.len() as f64),
        "`violation_count` disagrees with `violations`"
    );
    let debt = doc.get("debt").and_then(Json::as_obj).expect("debt object");
    assert_eq!(
        debt.len(),
        um_tidy::Rule::COUNT,
        "one `debt` entry per rule"
    );
    let ledger_total: f64 = debt.iter().filter_map(|(_, v)| v.as_num()).sum();
    assert_eq!(
        doc.get("total_debt").and_then(Json::as_num),
        Some(ledger_total),
        "`total_debt` disagrees with the per-rule `debt` entries"
    );
}

/// Same round-trip with diagnostics present, exercising the string
/// escaping path (rule messages embed quoted stream tags).
#[test]
fn violating_report_roundtrips_through_benchjson() {
    let files = vec![
        (
            "crates/net/src/a.rs".to_string(),
            "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"tab\\thop\"); }\n".to_string(),
        ),
        (
            "crates/sched/src/b.rs".to_string(),
            "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"tab\\thop\"); }\n".to_string(),
        ),
    ];
    let report = um_tidy::check_files(&files);
    assert!(
        !report.diagnostics.is_empty(),
        "fixture must produce diagnostics"
    );
    let rendered = um_tidy::render_json(&report);
    let doc = Json::parse(&rendered).expect("report with violations must parse");
    assert_eq!(doc.render(), rendered);
    let violations = doc.get("violations").and_then(Json::as_arr).expect("array");
    assert_eq!(violations.len(), report.diagnostics.len());
}
