//! `um-sweep`: the one driver behind every committed result.
//!
//! `um-sweep NAME` regenerates `results/NAME.txt` from its entry in the
//! [`um_bench::figures`] table; registry-backed entries expand their
//! declarative [`um_bench::scenario::Scenario`] into a fully-specified
//! point list and evaluate it through the deterministic `UM_THREADS`
//! worker pool (results are bit-identical at any value). Grid scenarios
//! can also emit a benchjson points document, checked against
//! [`um_bench::benchjson::validate_bench`] before it is written;
//! `--json`/`--csv` on anything else is refused with exit 2 before it
//! runs.
//!
//! ```text
//! um-sweep                          # run the built-in sweep_default grid
//! um-sweep NAME                     # regenerate results/NAME.txt
//! um-sweep --scenario FILE          # run a scenario from a JSON file
//! um-sweep --json PATH              # also write the benchjson document
//! um-sweep --csv PATH               # also write the points as CSV
//! um-sweep --list                   # name every result
//! um-sweep --dump-registry DIR      # write every registry scenario to DIR
//! ```
//!
//! `UM_SCALE=quick|full` and `UM_SEED` apply to whichever result runs;
//! an unknown value is refused. A failed `validate` self-check exits 1.

use um_bench::benchjson::{obj, validate_bench, Json};
use um_bench::figures;
use um_bench::scenario::{self, ScenarioKind};
use um_bench::{sanitizer_check, EnvScale};

fn usage() -> ! {
    eprintln!(
        "usage: um-sweep [NAME] [--scenario FILE] [--json PATH] [--csv PATH] [--list] \
         [--dump-registry DIR]"
    );
    std::process::exit(2);
}

/// Prints `msg` and exits 2, the usage-error status.
fn refuse(msg: &str) -> ! {
    eprintln!("um-sweep: {msg}");
    std::process::exit(2);
}

/// One CSV cell: numbers exactly as benchjson renders them (so the CSV
/// and the JSON document agree byte-for-byte on every value), strings
/// raw — no point emits cells needing quoting, and the writer refuses
/// rather than quietly producing a misaligned file.
fn csv_cell(v: &Json) -> String {
    match v {
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{n:.0}")
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => {
            assert!(
                !s.contains([',', '"', '\n']),
                "CSV cell {s:?} would need quoting"
            );
            s.clone()
        }
        Json::Bool(b) => b.to_string(),
        other => panic!("CSV cells must be scalars, got {other:?}"),
    }
}

/// Renders the grid points as CSV: the header comes from the first
/// point's keys, and every point must carry exactly the same columns.
fn points_to_csv(points: &Json) -> String {
    let rows = points.as_arr().expect("points is an array");
    let first = rows.first().expect("grid expansion is non-empty");
    let header: Vec<&str> = first
        .as_obj()
        .expect("points are objects")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        let pairs = row.as_obj().expect("points are objects");
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, header, "every point must carry the same columns");
        let cells: Vec<String> = pairs.iter().map(|(_, v)| csv_cell(v)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_file: Option<String> = None;
    let mut name: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for e in figures::ALL {
                    println!("{}", e.name);
                }
                return;
            }
            "--dump-registry" => {
                let dir = it.next().unwrap_or_else(|| usage());
                std::fs::create_dir_all(dir).expect("create dump directory");
                for s in scenario::registry::all() {
                    let path = format!("{dir}/{}.json", s.name);
                    std::fs::write(&path, s.to_json_text()).expect("write scenario");
                    println!("wrote {path}");
                }
                return;
            }
            "--scenario" => scenario_file = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--json" => json_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--csv" => csv_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            arg if !arg.starts_with('-') && name.is_none() => name = Some(arg.to_string()),
            _ => usage(),
        }
    }
    if scenario_file.is_some() && name.is_some() {
        usage();
    }

    let wants_points = json_path.is_some() || csv_path.is_some();
    let not_grid = |name: &str| -> ! {
        refuse(&format!(
            "{name}: only grid scenarios emit benchjson points"
        ))
    };
    let env = EnvScale::from_env().unwrap_or_else(|e| refuse(&e));
    sanitizer_check();
    let mut s = match (&scenario_file, &name) {
        (Some(path), _) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            scenario::Scenario::from_json_text(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
        }
        (None, Some(name)) => {
            let entry = figures::by_name(name)
                .unwrap_or_else(|| refuse(&format!("no result named '{name}' (see --list)")));
            if !wants_points {
                let (text, passed) = entry.run(env);
                print!("{text}");
                std::process::exit(if passed { 0 } else { 1 });
            }
            scenario::registry::by_name(name).unwrap_or_else(|| not_grid(name))
        }
        (None, None) => scenario::registry::sweep_default(),
    };
    // Refuse before running: only the grid kind emits points.
    if wants_points && !matches!(s.kind, ScenarioKind::Grid(_)) {
        not_grid(&s.name);
    }
    env.apply(&mut s);
    let out = scenario::run(&s).unwrap_or_else(|e| panic!("{}: {e}", s.name));
    print!("{}", out.text);

    if wants_points {
        let points = out.points.expect("grid scenarios emit points");
        if let Some(path) = json_path {
            let doc = obj(vec![
                ("bench", Json::Str(s.name.clone())),
                ("scale", Json::Str(env.label().to_string())),
                ("points", points.clone()),
            ]);
            validate_bench(&doc).expect("sweep output satisfies the bench envelope");
            std::fs::write(&path, doc.render())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("um-sweep: wrote {path}");
        }
        if let Some(path) = csv_path {
            std::fs::write(&path, points_to_csv(&points))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("um-sweep: wrote {path}");
        }
    }
}
