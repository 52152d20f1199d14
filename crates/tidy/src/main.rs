//! `um-tidy` command-line entry point.
//!
//! ```text
//! cargo run -p um-tidy                     # check the workspace rooted at cwd
//! cargo run -p um-tidy -- --json           # machine-readable report (benchjson-compatible)
//! cargo run -p um-tidy -- --debt           # allow-debt ledger for results/tidy_debt.txt
//! cargo run -p um-tidy -- --rule-table     # markdown rule table embedded in DESIGN.md
//! cargo run -p um-tidy -- --list-rules
//! cargo run -p um-tidy -- <root>           # check an explicit workspace root
//! ```
//!
//! Exits 0 when the tree is clean, 1 when any rule fires, 2 on usage or
//! I/O errors. `--debt`, `--rule-table` and `--list-rules` always exit 0.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use um_tidy::{render_debt, render_json, rule_table, workspace_report, Rule};

enum Mode {
    Check,
    Json,
    Debt,
}

fn usage() {
    eprintln!("usage: um-tidy [--json | --debt | --rule-table | --list-rules] [workspace-root]");
    eprintln!("checks every workspace .rs file against the determinism/invariant rules");
    eprintln!("  (no flag)     print diagnostics; exit 1 if any");
    eprintln!("  --json        full report (diagnostics + debt) as benchjson-compatible JSON");
    eprintln!("  --debt        allow-debt ledger; redirect to results/tidy_debt.txt");
    eprintln!("  --rule-table  markdown rule table; DESIGN.md embeds this verbatim");
    eprintln!("  --list-rules  rule ids with one-line summaries");
}

fn main() -> ExitCode {
    let mut mode = Mode::Check;
    let mut root: Option<PathBuf> = None;

    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list-rules" => {
                for rule in Rule::ALL {
                    println!("{:<24} {}", rule.id(), rule.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--rule-table" => {
                print!("{}", rule_table());
                return ExitCode::SUCCESS;
            }
            "--json" => mode = Mode::Json,
            "--debt" => mode = Mode::Debt,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ if !arg.starts_with('-') && root.is_none() => root = Some(PathBuf::from(arg)),
            _ => {
                usage();
                return ExitCode::from(2);
            }
        }
    }
    // Default to the workspace root: CARGO_MANIFEST_DIR/../.. when run via
    // `cargo run -p um-tidy`, else the current directory.
    let root = root.unwrap_or_else(|| {
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|m| {
                Path::new(&m)
                    .ancestors()
                    .nth(2)
                    .map(Path::to_path_buf)
                    .unwrap_or_else(|| PathBuf::from("."))
            })
            .unwrap_or_else(|_| PathBuf::from("."))
    });
    if !root.join("Cargo.toml").exists() {
        eprintln!("um-tidy: {} has no Cargo.toml", root.display());
        return ExitCode::from(2);
    }

    let report = match workspace_report(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("um-tidy: {e}");
            return ExitCode::from(2);
        }
    };

    match mode {
        Mode::Debt => {
            print!("{}", render_debt(&report));
            ExitCode::SUCCESS
        }
        Mode::Json => {
            print!("{}", render_json(&report));
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::Check => {
            if report.diagnostics.is_empty() {
                println!(
                    "um-tidy: clean ({} rules, {} files, {} lines, debt {})",
                    Rule::COUNT,
                    report.files,
                    report.lines,
                    report.total_debt()
                );
                ExitCode::SUCCESS
            } else {
                for d in &report.diagnostics {
                    println!("{d}");
                }
                println!("um-tidy: {} violation(s)", report.diagnostics.len());
                ExitCode::FAILURE
            }
        }
    }
}
