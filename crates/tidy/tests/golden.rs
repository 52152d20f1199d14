//! Golden-file tests for the um-tidy rules.
//!
//! Each fixture under `tests/fixtures/` is checked with a *virtual*
//! workspace path (so crate-scoped rules apply as they would in the real
//! tree) and its rendered diagnostics must match `<name>.expected` byte
//! for byte. Regenerate the goldens after an intentional rule change with
//!
//! ```text
//! UM_TIDY_BLESS=1 cargo test -p um-tidy --test golden
//! ```
//!
//! Besides one case per rule, the suite pins the v2 lexer against the
//! v1 line scanner's known misreads (multi-line block comments, raw
//! strings, lifetimes-vs-char-literals) with a firing and a non-firing
//! fixture each, exercises every new rule's allow escape hatch, runs the
//! cross-file `duplicate-seed-stream` pass over a fixture workspace, and
//! asserts the live tree itself is clean.
//!
//! The last tests guard the compiler-checked half of the gate. The name
//! bans live in the root `clippy.toml`. Clippy reads the nearest
//! `clippy.toml` above a crate's manifest, so the root list covers every
//! sim-state crate, and the stop files in um-bench, um-serve and um-tidy
//! lift it there. A stray `clippy.toml` in a sim-state crate would shadow
//! the root list without a word; so would a ban dropped from it.

use std::path::{Path, PathBuf};

/// (fixture name, virtual workspace path, rule id it must trip — "" for
/// fixtures that must be completely clean)
const CASES: &[(&str, &str, &str)] = &[
    // one firing fixture per single-file rule
    (
        "cycle_trunc_cast",
        "crates/core/src/fixture.rs",
        "cycle-trunc-cast",
    ),
    (
        "cycle_float_cmp",
        "crates/stats/src/fixture.rs",
        "cycle-float-cmp",
    ),
    ("allow_syntax", "crates/net/src/fixture.rs", "allow-syntax"),
    (
        "float_accumulation",
        "crates/core/src/fixture.rs",
        "float-accumulation",
    ),
    (
        "partial_cmp_sort",
        "crates/stats/src/fixture.rs",
        "partial-cmp-sort",
    ),
    ("async_in_sim", "crates/net/src/fixture.rs", "async-in-sim"),
    // allow escape hatches: suppressed diagnostics, zero output
    ("allow_escape", "crates/net/src/fixture.rs", ""),
    (
        "float_accumulation_allowed",
        "crates/core/src/fixture.rs",
        "",
    ),
    (
        "partial_cmp_sort_allowed",
        "crates/stats/src/fixture.rs",
        "",
    ),
    ("async_in_sim_allowed", "crates/net/src/fixture.rs", ""),
    // v1 line-scanner misreads, pinned as lexer regressions
    (
        "block_comment_fires",
        "crates/core/src/fixture.rs",
        "async-in-sim",
    ),
    ("block_comment_clean", "crates/core/src/fixture.rs", ""),
    (
        "raw_string_fires",
        "crates/sim/src/fixture.rs",
        "async-in-sim",
    ),
    ("raw_string_clean", "crates/sim/src/fixture.rs", ""),
    (
        "lifetime_fires",
        "crates/mem/src/fixture.rs",
        "async-in-sim",
    ),
    ("lifetime_clean", "crates/mem/src/fixture.rs", ""),
    ("clean", "crates/arch/src/fixture.rs", ""),
];

/// The cross-file pass needs two files; `check_source` cannot cover it.
const WS_DUP_SEED: &[(&str, &str)] = &[
    ("ws_dup_seed_a", "crates/net/src/fixture_a.rs"),
    ("ws_dup_seed_b", "crates/sched/src/fixture_b.rs"),
];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_dir().join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("fixture {name}.rs: {e}"))
}

fn render(name: &str, virtual_path: &str) -> String {
    um_tidy::check_source(virtual_path, &read_fixture(name))
        .iter()
        .map(|d| format!("{d}\n"))
        .collect()
}

/// Compares rendered diagnostics against `<name>.expected`, blessing when
/// `UM_TIDY_BLESS` is set; returns a failure description otherwise.
fn match_golden(name: &str, actual: &str, bless: bool) -> Option<String> {
    let golden = fixture_dir().join(format!("{name}.expected"));
    if bless {
        std::fs::write(&golden, actual).expect("write golden");
        return None;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("golden {name}.expected: {e} (bless with UM_TIDY_BLESS=1)"));
    (actual != expected)
        .then(|| format!("== {name} ==\n-- expected --\n{expected}-- actual --\n{actual}"))
}

#[test]
fn fixtures_match_goldens() {
    let bless = std::env::var_os("UM_TIDY_BLESS").is_some();
    let mut failures = Vec::new();
    for &(name, virtual_path, _) in CASES {
        let actual = render(name, virtual_path);
        failures.extend(match_golden(name, &actual, bless));
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (UM_TIDY_BLESS=1 regenerates):\n{}",
        failures.join("\n")
    );
}

#[test]
fn violation_fixtures_trip_their_expected_rule() {
    for &(name, virtual_path, rule_id) in CASES {
        let diags = um_tidy::check_source(virtual_path, &read_fixture(name));
        if rule_id.is_empty() {
            assert!(diags.is_empty(), "{name} must be clean, got: {diags:?}");
            continue;
        }
        assert!(
            diags.iter().any(|d| d.rule.id() == rule_id),
            "{name} must trip `{rule_id}`, got: {diags:?}"
        );
    }
}

#[test]
fn every_rule_is_covered_by_a_fixture() {
    let mut covered: Vec<&str> = CASES.iter().map(|&(_, _, rule)| rule).collect();
    covered.push("duplicate-seed-stream"); // the WS_DUP_SEED workspace case
    for rule in um_tidy::Rule::ALL {
        assert!(
            covered.contains(&rule.id()),
            "no fixture covers rule `{}`",
            rule.id()
        );
    }
}

#[test]
fn workspace_dup_seed_matches_golden() {
    let files: Vec<(String, String)> = WS_DUP_SEED
        .iter()
        .map(|&(name, virtual_path)| (virtual_path.to_string(), read_fixture(name)))
        .collect();
    let report = um_tidy::check_files(&files);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.rule.id() == "duplicate-seed-stream"),
        "only the cross-file rule may fire here, got: {:?}",
        report.diagnostics
    );
    let actual: String = report
        .diagnostics
        .iter()
        .map(|d| format!("{d}\n"))
        .collect();
    let bless = std::env::var_os("UM_TIDY_BLESS").is_some();
    if let Some(failure) = match_golden("ws_dup_seed", &actual, bless) {
        panic!("golden mismatch (UM_TIDY_BLESS=1 regenerates):\n{failure}");
    }
}

#[test]
fn workspace_dup_seed_allow_suppresses_both_sides() {
    // The same justified fixture mounted at two paths: a deliberately
    // shared stream stays clean only when *every* site carries the allow,
    // and each suppressed site lands in the debt ledger.
    let src = read_fixture("ws_dup_seed_allowed");
    let files = vec![
        ("crates/net/src/fixture_a.rs".to_string(), src.clone()),
        ("crates/sched/src/fixture_b.rs".to_string(), src),
    ];
    let report = um_tidy::check_files(&files);
    assert!(
        report.diagnostics.is_empty(),
        "allowed shared stream must be clean, got: {:?}",
        report.diagnostics
    );
    let dup = um_tidy::Rule::DuplicateSeedStream;
    assert_eq!(report.debt[dup.index()], 2, "both sites count as debt");
}

#[test]
fn allowed_fixtures_register_debt() {
    for &(name, virtual_path) in &[
        ("float_accumulation_allowed", "crates/core/src/fixture.rs"),
        ("partial_cmp_sort_allowed", "crates/stats/src/fixture.rs"),
        ("async_in_sim_allowed", "crates/net/src/fixture.rs"),
    ] {
        let files = vec![(virtual_path.to_string(), read_fixture(name))];
        let report = um_tidy::check_files(&files);
        assert!(report.diagnostics.is_empty(), "{name} must be clean");
        assert!(
            report.total_debt() > 0,
            "{name} must register suppressed diagnostics as debt"
        );
    }
}

#[test]
fn fixtures_are_excluded_from_the_workspace_scan() {
    let root = workspace_root();
    let files = um_tidy::collect_rs_files(root).expect("scan workspace");
    assert!(!files.is_empty(), "the scan must find workspace sources");
    assert!(
        files
            .iter()
            .all(|f| !f.to_string_lossy().contains("fixtures")),
        "fixture files must not reach the workspace scan"
    );
}

#[test]
fn workspace_scan_order_is_sorted_and_stable() {
    let root = workspace_root();
    let files = um_tidy::collect_rs_files(root).expect("scan workspace");
    let rels: Vec<String> = files
        .iter()
        .map(|f| {
            f.strip_prefix(root)
                .expect("collected under root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    let mut sorted = rels.clone();
    sorted.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
    assert_eq!(rels, sorted, "scan order must be byte-sorted rel paths");
}

#[test]
fn live_tree_is_clean() {
    let root = workspace_root();
    let report = um_tidy::workspace_report(root).expect("scan workspace");
    assert!(
        report.diagnostics.is_empty(),
        "the live tree must pass its own lint, got:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("{d}\n"))
            .collect::<String>()
    );
}

#[test]
fn committed_debt_ledger_matches_live_tree() {
    let root = workspace_root();
    let report = um_tidy::workspace_report(root).expect("scan workspace");
    let fresh = um_tidy::render_debt(&report);
    let committed = std::fs::read_to_string(root.join("results/tidy_debt.txt"))
        .expect("results/tidy_debt.txt must be committed");
    assert_eq!(
        committed, fresh,
        "debt ledger is stale: regenerate with \
         `cargo run --release -p um-tidy -- --debt > results/tidy_debt.txt`"
    );
}

/// The banned paths, by the `clippy.toml` key that lists them.
const BANS: &[(&str, &[&str])] = &[
    (
        "disallowed-methods",
        &[
            "std::time::Instant::now",
            "std::env::var",
            "std::env::var_os",
            "std::env::vars",
            "std::env::vars_os",
        ],
    ),
    (
        "disallowed-types",
        &[
            "std::time::SystemTime",
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::collections::BinaryHeap",
        ],
    ),
];

/// The crates that time runs or read the environment by design. Clippy
/// also reads `.clippy.toml`, so the scan below looks for both names.
const STOP_FILES: &[&str] = &[
    "crates/bench/clippy.toml",
    "crates/serve/clippy.toml",
    "crates/tidy/clippy.toml",
];

/// The file's lines with `#` comments dropped.
fn config_lines(rel: &str) -> Vec<String> {
    std::fs::read_to_string(workspace_root().join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

#[test]
fn root_config_lists_every_ban_under_its_key() {
    let lines = config_lines("clippy.toml");
    for &(key, paths) in BANS {
        // The key's entries run from its line to the next top-level key.
        let start = lines
            .iter()
            .position(|l| l.starts_with(&format!("{key} =")))
            .unwrap_or_else(|| panic!("clippy.toml has no `{key}`"));
        let end = lines[start + 1..]
            .iter()
            .position(|l| l.starts_with(|c: char| c.is_ascii_alphabetic()))
            .map_or(lines.len(), |i| start + 1 + i);
        let section = lines[start..end].join("\n");
        for path in paths {
            assert!(
                section.contains(&format!("path = \"{path}\"")),
                "clippy.toml's `{key}` must list `{path}`"
            );
        }
    }
}

#[test]
fn stop_files_ban_nothing() {
    for rel in STOP_FILES {
        for line in config_lines(rel) {
            assert!(
                !line.starts_with("disallowed-"),
                "{rel} is a stop file and must not ban names: {line}"
            );
        }
    }
}

#[test]
fn no_other_clippy_config_under_crates() {
    let mut found = Vec::new();
    let mut stack: Vec<PathBuf> = vec![workspace_root().join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read crates/") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    stack.push(path);
                }
            } else if path
                .file_name()
                .is_some_and(|n| n == "clippy.toml" || n == ".clippy.toml")
            {
                let rel = path.strip_prefix(workspace_root()).expect("under root");
                found.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    found.sort();
    assert_eq!(
        found, STOP_FILES,
        "a clippy.toml under crates/ shadows the root ban list for its crate"
    );
}
