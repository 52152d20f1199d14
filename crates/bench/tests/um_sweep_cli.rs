//! The `um-sweep` binary's argument handling, driven as a subprocess.

use std::process::Command;

/// `--json`/`--csv` on a non-grid scenario is a usage error: refused up
/// front with exit 2, before any simulation runs or any file is written.
#[test]
fn points_output_on_a_non_grid_scenario_is_refused_up_front() {
    let path = std::env::temp_dir().join(format!("um-sweep-cli-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_um-sweep"))
        .args(["cluster10", "--json"])
        .arg(&path)
        .env("UM_SCALE", "quick")
        .output()
        .expect("um-sweep runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cluster10: only grid scenarios emit benchjson points"),
        "{stderr}"
    );
    assert!(!path.exists(), "{} was written", path.display());
}
