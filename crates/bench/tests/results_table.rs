//! Pins the results table to the committed `results/` directory: every
//! `results/<name>.txt` has exactly one entry, and the entries that run
//! in milliseconds regenerate byte-identically inside `cargo test` (CI
//! byte-diffs the rest through `um-sweep`).

use std::collections::BTreeSet;
use std::path::Path;

use um_bench::figures;
use um_bench::EnvScale;

fn results_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn table_names_every_committed_result_once() {
    let names: Vec<&str> = figures::ALL.iter().map(|e| e.name).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate table entries");
    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter_map(|f| f.strip_suffix(".txt").map(str::to_string))
        .filter(|n| n != "tidy_debt")
        .collect();
    let table: BTreeSet<String> = unique.into_iter().map(str::to_string).collect();
    assert_eq!(table, committed);
}

#[test]
fn fast_entries_regenerate_their_committed_files() {
    for name in [
        "table1",
        "table2",
        "fig2",
        "fig4",
        "fig5",
        "fig9",
        "ablation_rqmap",
        "ablation_snapshot",
        "ablation_routing",
    ] {
        let entry = figures::by_name(name).unwrap_or_else(|| panic!("{name}: no entry"));
        let (text, passed) = entry.run(EnvScale::default());
        assert!(passed, "{name}: self-checks failed");
        let committed = std::fs::read_to_string(results_dir().join(format!("{name}.txt")))
            .unwrap_or_else(|e| panic!("results/{name}.txt: {e}"));
        assert_eq!(text, committed, "{name}: regenerated text differs");
    }
}
