//! The benchmark's declared metrics and the statistics behind them.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the names and units
//! `BENCHMARK.json` declares; a run collects values into a [`Report`],
//! which refuses to emit a result line whose keys drift from them.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["node-um", "compare10", "rack-512", "serve-open"];

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`). Layers are
/// named after crates. Times are measured on every workload; counts and
/// shares of a layer a workload never enters read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.parse_us", "us"),
    ("scenario.expand_us", "us"),
    ("sim.setup_ms", "ms"),
    ("sim.step_ns_p50", "ns"),
    ("sim.step_ns_p99", "ns"),
    ("sim.finish_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.events_per_inv", "ratio"),
    ("sim.residual_share", "fraction"),
    ("queue.ns_per_event", "ns"),
    ("queue.share", "fraction"),
    ("icn.msgs", "count"),
    ("icn.msgs_per_inv", "ratio"),
    ("icn.ns_per_msg", "ns"),
    ("icn.share", "fraction"),
    ("fabric.ns_per_send", "ns"),
    ("fabric.share", "fraction"),
    ("rq.ns_per_inv", "ns"),
    ("rq.overflows", "count"),
    ("rq.share", "fraction"),
    ("dispatch.ctx_switches", "count"),
    ("plan.ns_per_sample", "ns"),
    ("plan.share", "fraction"),
    ("rack.events", "count"),
    ("rack.node_share", "fraction"),
    ("rack.queue_share", "fraction"),
    ("rack.fabric_share", "fraction"),
    ("rack.residual_share", "fraction"),
    ("rack.per_node_cost_ratio", "ratio"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.polls_per_job", "ratio"),
    ("serve.http_share", "fraction"),
    ("serve.queue_share", "fraction"),
    ("serve.sim_share", "fraction"),
    ("gen.late_share", "fraction"),
    ("trace.overhead", "fraction"),
];

/// One run's measurements and correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Checked operations: repetitions, jobs, comparisons.
    attempted: u64,
    /// Checks that failed.
    failed: u64,
}

impl Report {
    /// Records a metric and prints it to stderr with its unit and the
    /// number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("`{name}` is not a declared metric"));
        eprintln!("  {name:<26} {value:>14.6} {unit:<8} ({samples} samples)");
        self.values.push((name, value));
    }

    /// Counts one checked operation; prints and counts it as failed when
    /// `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("um_perf: FAILED: {}", what());
        }
    }

    /// The recorded value of a metric, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The one-line JSON result: exactly the metrics of `spec`, in order.
    ///
    /// # Panics
    ///
    /// Panics when a declared metric is missing, an undeclared one was
    /// recorded, or a value is not finite — all bugs in this benchmark.
    pub fn result_line(&self, spec: &[(&str, &str)]) -> String {
        for (name, _) in &self.values {
            assert!(
                spec.iter().any(|(n, _)| n == name),
                "`{name}` was recorded but this mode does not emit it"
            );
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was never recorded"));
            assert!(value.is_finite(), "metric `{name}` is {value}");
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// What [`calibrate`] takes on the reference host, a quiet 2-vCPU 2 GHz
/// Xeon VM, in ms.
pub const CAL_REF_MS: f64 = 80.0;

/// Times a fixed integer kernel that shares no code with the repository
/// and returns milliseconds. Shared hosts drift in speed by up to a third
/// over minutes; end-to-end timings are scaled by `CAL_REF_MS /
/// calibrate()` taken around them, which cancels the drift while any
/// change to the repository's code still shows in full.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 1;
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(x / (i | 1));
        } else {
            acc ^= x.rotate_right(11);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of a sample set (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty set.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spread printed here is the one `BENCHMARK.json`'s bounds are judged by.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n as i64 + 1;
    let mut q = [0.0; 3];
    for (k, out) in q.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Near the ends delta goes negative: Python extrapolates there.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *out = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    q
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Nearest-rank percentile `p` (0–100] of `values`.
///
/// # Panics
///
/// Panics on an empty set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of nothing");
    s[rank(s.len(), p) - 1]
}

/// The highest of the percentiles this benchmark reports (99.9, 99, 95,
/// 90, 50) that leaves at least ten samples beyond it, or `None` when even
/// the median does not.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples - rank(samples, p).min(samples) >= 10)
}

/// One-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps 99.9% of 10 000 at rank 9 990 despite 99.9
    // having no exact binary form.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set (`VmHWM`) in MB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// Peak resident set of this process (`None`) or of child `pid`, in MB.
///
/// # Errors
///
/// Fails when the status file is unreadable or carries no `VmHWM`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| format!("{path} has no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(iqr_share(&v), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
    }

    #[test]
    fn vm_hwm_parser_reads_kilobytes() {
        let status =
            "Name:\tum-serve\nVmPeak:\t  20480 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(5.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mb(None).expect("own status is readable") > 0.0);
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5, 1);
        }
        r.check(true, String::new);
        let line = r.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let doc = um_bench::benchjson::Json::parse(&line).expect("result line is JSON");
        let metrics = doc
            .get("metrics")
            .and_then(|m| m.as_obj())
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
