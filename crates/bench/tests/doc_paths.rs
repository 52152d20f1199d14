//! Every repository path the top-level docs cite in backticks must exist,
//! and every command they cite must name a real binary or result, so a
//! doc cannot keep pointing at a deleted results file, source file or
//! figure binary.
//!
//! A token counts as a path when it starts with `results/`, `perf/`,
//! `crates/`, `vendor/` or `BENCH`. `{a,b}` alternatives are expanded and
//! a `*` component must match at least one directory entry. In code
//! (inline spans and fenced blocks), the word after `--bin` must be a
//! `[[bin]]` a manifest declares, and the word after `um-sweep` or
//! `-p um-bench --` must be an entry of the results table.
//!
//! A module citation — an inline span `um-<crate>::<module>`,
//! `um_<crate>::<module>` or `umanycore::<module>`, optionally followed by
//! more `::` segments — must name a workspace package and a module it
//! defines in `src/<module>.rs` or `src/<module>/mod.rs`. Segments that
//! start with an uppercase letter (types) are not modules and are skipped.

use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];
const PREFIXES: [&str; 5] = ["results/", "perf/", "crates/", "vendor/", "BENCH"];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// Inline code spans outside fenced blocks, without whitespace.
fn prose_spans(markdown: &str) -> Vec<String> {
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
        .map(str::to_owned)
        .collect()
}

/// Inline code spans outside fenced blocks that look like repo paths.
fn cited_paths(markdown: &str) -> Vec<String> {
    prose_spans(markdown)
        .into_iter()
        .filter(|t| PREFIXES.iter().any(|p| t.starts_with(p)))
        .collect()
}

/// `(package, module)` pairs of the module citations among the inline
/// spans, with `um_x` crate names spelled as the package `um-x`.
fn cited_modules(markdown: &str) -> Vec<(String, String)> {
    prose_spans(markdown)
        .iter()
        .filter_map(|span| {
            let mut segments = span.split("::");
            let krate = segments.next()?.replace('_', "-");
            let module = segments.next()?;
            let is_crate = krate == "umanycore" || krate.starts_with("um-");
            let is_module = module.starts_with(|c: char| c.is_ascii_lowercase())
                && module
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            (is_crate && is_module).then(|| (krate, module.to_owned()))
        })
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

/// Inline code spans and fenced-block lines: the text commands live in.
fn code_snippets(markdown: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            out.push(line);
        } else {
            out.extend(line.split('`').skip(1).step_by(2));
        }
    }
    out
}

/// `(binary, name)` pairs the snippet's commands cite: `--bin NAME` as
/// `("--bin", NAME)`, and the result a `um-sweep NAME` or
/// `cargo run -p um-bench -- NAME` invocation regenerates as
/// `("um-sweep", NAME)`. Flags and placeholders (`<name>`, `NAME`) are
/// skipped.
fn cited_commands(snippet: &str) -> Vec<(&'static str, String)> {
    let words: Vec<&str> = snippet.split_whitespace().collect();
    let mut out = Vec::new();
    let mut um_bench = false;
    for (i, pair) in words.windows(2).enumerate() {
        let (prev, word) = (pair[0], pair[1]);
        um_bench |= prev == "um-bench" && i > 0 && words[i - 1] == "-p";
        let kind = if prev == "--bin" {
            "--bin"
        } else if prev.ends_with("um-sweep") || (prev == "--" && um_bench) {
            "um-sweep"
        } else {
            continue;
        };
        if word
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
            && !word.starts_with('-')
        {
            out.push((kind, word.to_owned()));
        }
    }
    out
}

/// The directory and `Cargo.toml` text of every member under `crates/`.
fn manifests(root: &Path) -> Vec<(PathBuf, String)> {
    std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|member| {
            let text = std::fs::read_to_string(member.path().join("Cargo.toml")).ok()?;
            Some((member.path(), text))
        })
        .collect()
}

/// The `name = "..."` entries of one manifest section kind
/// (`[package]` or `[[bin]]`).
fn section_names(manifest: &str, section: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == section;
        } else if let Some(name) = line.strip_prefix("name = ").filter(|_| inside) {
            out.push(name.trim_matches('"').to_owned());
        }
    }
    out
}

/// Every `[[bin]]` name the workspace members under `crates/` declare.
fn declared_binaries(root: &Path) -> Vec<String> {
    manifests(root)
        .iter()
        .flat_map(|(_, text)| section_names(text, "[[bin]]"))
        .collect()
}

/// Whether workspace package `package` defines module `module` as
/// `src/<module>.rs` or `src/<module>/mod.rs`.
fn module_exists(root: &Path, package: &str, module: &str) -> bool {
    manifests(root).iter().any(|(dir, text)| {
        section_names(text, "[package]")
            .iter()
            .any(|n| n == package)
            && (dir.join("src").join(format!("{module}.rs")).is_file()
                || dir.join("src").join(module).join("mod.rs").is_file())
    })
}

#[test]
fn docs_cite_only_existing_modules() {
    let root = workspace_root();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        for (package, module) in cited_modules(&text) {
            if !module_exists(root, &package, &module) {
                missing.push(format!("{doc}: `{package}::{module}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs cite modules that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn docs_cite_only_real_binaries_and_results() {
    let root = workspace_root();
    let binaries = declared_binaries(root);
    let mut unknown = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        for snippet in code_snippets(&text) {
            for (kind, name) in cited_commands(snippet) {
                let known = match kind {
                    "--bin" => binaries.contains(&name),
                    _ => um_bench::figures::by_name(&name).is_some(),
                };
                if !known {
                    unknown.push(format!("{doc}: `{kind} {name}`"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs cite binaries or results that do not exist:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn command_citations_are_recognized() {
    let cite = |s: &str| cited_commands(s);
    assert_eq!(
        cite("cargo run --release -p um-bench -- fig14 > results/fig14.txt"),
        [("um-sweep", "fig14".to_owned())]
    );
    assert_eq!(
        cite("UM_SCALE=quick ./target/release/um-sweep cluster_tail"),
        [("um-sweep", "cluster_tail".to_owned())]
    );
    assert_eq!(
        cite("cargo build -p um-bench --bin um-sweep"),
        [("--bin", "um-sweep".to_owned())]
    );
    assert!(cite("um-sweep --list").is_empty());
    assert!(cite("um-sweep <name>").is_empty());
    assert!(cite("cargo run -p um-serve --bin um-serve -- --port 8080").len() == 1);
    let binaries = declared_binaries(workspace_root());
    for bin in ["um-sweep", "um-serve", "um-tidy"] {
        assert!(binaries.iter().any(|b| b == bin), "{bin}: {binaries:?}");
    }
    assert!(!binaries.iter().any(|b| b == "fig14"));
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

#[test]
fn module_citations_are_recognized_and_resolved() {
    let cite = |s: &str| cited_modules(s);
    assert_eq!(
        cite("`um-arch::config`, `um_sim::rng::derive_seed`, `umanycore::experiments`"),
        [
            ("um-arch".to_owned(), "config".to_owned()),
            ("um-sim".to_owned(), "rng".to_owned()),
            ("umanycore".to_owned(), "experiments".to_owned()),
        ]
    );
    assert!(cite("`umanycore::Workload` `um-net` `std::fs` `a::b c`").is_empty());
    let root = workspace_root();
    assert!(module_exists(root, "um-sim", "rng"));
    assert!(module_exists(root, "umanycore", "experiments"));
    assert!(!module_exists(root, "um-workload", "profiles"));
    assert!(!module_exists(root, "um-nope", "rng"));
}
