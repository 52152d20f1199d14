//! Every repository path the top-level docs cite in backticks must exist,
//! so a doc cannot keep pointing at a deleted results file, benchmark
//! document or source file.
//!
//! A token counts as a path when it starts with `results/`, `perf/`,
//! `crates/`, `vendor/` or `BENCH`. `{a,b}` alternatives are expanded and
//! a `*` component must match at least one directory entry.

use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const PREFIXES: [&str; 5] = ["results/", "perf/", "crates/", "vendor/", "BENCH"];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// Inline code spans outside fenced blocks that look like repo paths.
fn cited_paths(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|t| !t.contains(char::is_whitespace))
        .filter(|t| PREFIXES.iter().any(|p| t.starts_with(p)))
        .map(str::to_owned)
        .collect()
}

/// Expands the first `{a,b,..}` group, recursively.
fn expand_braces(token: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (token.find('{'), token.find('}')) else {
        return vec![token.to_owned()];
    };
    token[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &token[..open], &token[close + 1..])))
        .collect()
}

/// `*` matches any run of characters within one path component.
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && matches(tail, &name[i..]))
        }
    }
}

/// Whether `pattern` (relative to `root`, `*` allowed per component)
/// names at least one existing file or directory.
fn exists(root: &Path, pattern: &str) -> bool {
    let mut found = vec![root.to_path_buf()];
    for component in pattern.split('/').filter(|c| !c.is_empty()) {
        found = found
            .iter()
            .flat_map(|dir| -> Vec<PathBuf> {
                if !component.contains('*') {
                    let path = dir.join(component);
                    return if path.exists() { vec![path] } else { vec![] };
                }
                std::fs::read_dir(dir)
                    .into_iter()
                    .flatten()
                    .flatten()
                    .filter(|e| matches(component, &e.file_name().to_string_lossy()))
                    .map(|e| e.path())
                    .collect()
            })
            .collect();
    }
    !found.is_empty()
}

#[test]
fn docs_cite_only_existing_paths() {
    let root = workspace_root();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        for token in cited_paths(&text) {
            if !expand_braces(&token).iter().all(|p| exists(root, p)) {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs cite paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn path_matching_handles_braces_globs_and_deleted_files() {
    let root = workspace_root();
    assert_eq!(
        expand_braces("results/sweep_default.{txt,json}"),
        ["results/sweep_default.txt", "results/sweep_default.json"]
    );
    assert!(matches("fault_*.txt", "fault_tail.txt"));
    assert!(!matches("fault_*.txt", "fig7.txt"));
    assert!(exists(root, "results/fault_*.txt"));
    assert!(exists(root, "crates/*"));
    assert!(!exists(root, "BENCH_*.json"));
    assert_eq!(
        cited_paths("see `BENCH_engine.json` and `cargo run`\n```\n`crates/x`\n```\n"),
        ["BENCH_engine.json"]
    );
}
