//! `um_perf`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! um_perf --workload <node-um|compare10|rack-512|serve-open>
//!         [--seed N] [--seconds S] [--trace 0|1]
//!         [--out trace.json] [--layers perf/layers.json]
//!         [--serve-bin path/to/um-serve] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate run that times calls into each crate and
//! reports the per-layer split (`--out` writes its spans as a Chrome
//! trace, `--layers` merges its numbers into a layers file). Human-readable
//! numbers go to stderr; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `crates/bench/um_perf/
//! run.sh` builds everything and passes `--serve-bin`. See
//! `perf/README.md`.

mod layers;
mod metrics;
mod serve;
mod sim;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use um_bench::benchjson::{obj, Json};

use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use sim::SimWorkload;
use trace::Tracer;

const USAGE: &str = "usage: um_perf --workload <node-um|compare10|rack-512|serve-open> \
[--seed N] [--seconds S] [--trace 0|1] [--out trace.json] [--layers layers.json] \
[--serve-bin path] [--smoke]";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed (default 42, the seed the goldens pin).
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// The per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Chrome trace output (traced run).
    pub out: Option<PathBuf>,
    /// Layers file to merge this workload's numbers into (traced run).
    pub layers: Option<PathBuf>,
    /// The um-serve binary serve-open drives.
    pub serve_bin: Option<String>,
    /// Tiny horizons and an 8-node rack, for tests.
    pub smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: String::new(),
            seed: sim::GOLDEN_SEED,
            seconds: 20.0,
            trace: false,
            out: None,
            layers: None,
            serve_bin: None,
            smoke: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => o.workload = value,
            "--seed" => o.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad("expected a nonnegative number"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => o.out = Some(value.into()),
            "--layers" => o.layers = Some(value.into()),
            "--serve-bin" => o.serve_bin = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(o)
}

fn sim_workload(name: &str) -> Option<SimWorkload> {
    [
        SimWorkload::NodeUm,
        SimWorkload::Compare10,
        SimWorkload::Rack512,
    ]
    .into_iter()
    .find(|w| w.name() == name)
}

/// Runs the selected mode and returns the result line.
fn execute(opts: &Options) -> Result<String, String> {
    let mut report = Report::default();
    eprintln!(
        "um_perf: {} seed {} ({} run, {} s window, {} host threads)",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "end-to-end" },
        opts.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let w = sim_workload(&opts.workload);
    if !opts.trace {
        match w {
            Some(w) => sim::run(w, opts, &mut report)?,
            None => serve::run(opts, &mut report)?,
        }
        return Ok(report.result_line(END_TO_END));
    }
    let mut tracer = Tracer::default();
    let extras = match w {
        Some(w) => sim::trace(w, opts, &mut report, &mut tracer)?,
        None => serve::trace(opts, &mut report, &mut tracer)?,
    };
    if let Some(path) = &opts.out {
        write_creating_dirs(path, &tracer.chrome_json())?;
    }
    if let Some(path) = &opts.layers {
        merge_layers(path, opts, &report, &extras)?;
    }
    Ok(report.result_line(PER_LAYER))
}

/// Replaces this workload's entry in the layers file (creating it),
/// keeping workloads in `BENCHMARK.json` order.
fn merge_layers(
    path: &Path,
    opts: &Options,
    report: &Report,
    extras: &[(String, f64)],
) -> Result<(), String> {
    let mut entries: Vec<(String, Json)> = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let shares = PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .filter(|n| n.ends_with("share") && !n.contains("residual"));
    let (largest, largest_share) = shares
        .map(|n| (n, report.get(n).unwrap_or(0.0)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("PER_LAYER declares shares");
    let metrics: Vec<(String, Json)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = report
                .get(name)
                .expect("every per-layer metric is recorded");
            let metric = obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]);
            (name.to_string(), metric)
        })
        .collect();
    let entry = obj(vec![
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("largest_attributed_layer", Json::Str(largest.to_string())),
        ("largest_attributed_share", Json::Num(largest_share)),
        (
            "residual_share",
            Json::Num(report.get("sim.residual_share").unwrap_or(0.0)),
        ),
        ("metrics", Json::Obj(metrics)),
        (
            "extra",
            Json::Obj(
                extras
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    entries.retain(|(k, _)| *k != opts.workload);
    entries.push((opts.workload.clone(), entry));
    entries.sort_by_key(|(k, _)| WORKLOADS.iter().position(|w| w == k));
    let doc = obj(vec![
        (
            "about",
            Json::Str(
                "um_perf --trace 1 per-layer profile; regenerate with the loop in perf/README.md"
                    .to_string(),
            ),
        ),
        (
            "host_threads",
            Json::Num(std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)),
        ),
        ("workloads", Json::Obj(entries)),
    ]);
    write_creating_dirs(path, &doc.render())
}

fn write_creating_dirs(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("um_perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(&opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("um_perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn names(doc: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    fn owned(spec: &[(&str, &str)]) -> Vec<Vec<String>> {
        spec.iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect()
    }

    #[test]
    fn benchmark_json_matches_what_the_binary_emits() {
        let doc = Json::parse(&sim::read("BENCHMARK.json").expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let workloads: Vec<String> = names(&doc, "workloads", &["name"]).concat();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            names(&doc, "end_to_end", &["name", "unit"]),
            owned(END_TO_END)
        );
        assert_eq!(
            names(&doc, "per_layer", &["name", "unit"]),
            owned(PER_LAYER)
        );
    }

    fn emitted(line: &str) -> Vec<String> {
        let doc = Json::parse(line).expect("the result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
        doc.get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn smoke_scale_runs_every_sim_workload_in_both_modes_within_ten_seconds() {
        let start = Instant::now();
        for w in ["node-um", "compare10", "rack-512"] {
            for (trace, spec) in [(false, END_TO_END), (true, PER_LAYER)] {
                let opts = parse_args(&[
                    "--workload".into(),
                    w.into(),
                    "--seconds".into(),
                    "0".into(),
                    "--trace".into(),
                    if trace { "1" } else { "0" }.into(),
                    "--smoke".into(),
                ])
                .expect("valid arguments");
                let line = execute(&opts).unwrap_or_else(|e| panic!("{w}: {e}"));
                let want: Vec<String> = spec.iter().map(|(n, _)| n.to_string()).collect();
                assert_eq!(emitted(&line), want, "{w} trace={trace}");
            }
        }
        let took = start.elapsed();
        assert!(took.as_secs_f64() < 10.0, "smoke runs took {took:?}");
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload rack-512 --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 2.5, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload node-um --trace 2")).is_err());
        assert!(parse_args(&args("--workload node-um --seconds -1")).is_err());
        assert!(parse_args(&args("--workload node-um --seed")).is_err());
    }
}
