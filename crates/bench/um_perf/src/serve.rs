//! `serve-open`: the real `um-serve` binary, one worker, driven over
//! loopback by an open-loop seeded Poisson schedule of one-point grid
//! jobs, half of them repeats of earlier jobs (cache hits).
//!
//! One generator thread submits on schedule; one poller thread polls
//! `/jobs/<id>` and fetches results. Each holds at most one connection at
//! a time. A job's latency runs from its scheduled send time to the
//! moment its result bytes are read, so a stalled generator shows up as
//! latency, and its lateness is reported beside.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

use um_bench::benchjson::Json;
use um_bench::scenario;
use um_serve::client;
use um_serve::service::result_envelope;
use um_sim::rng;
use um_workload::PoissonArrivals;

use crate::metrics::{self, median, percentile, tail_percentile, Report, CAL_REF_MS};
use crate::sim;
use crate::trace::Tracer;
use crate::Options;

/// The two fixed offered rates, jobs per second. A job simulates for 6 ms
/// (quiet) to 12 ms (busy) on a shared 2-vCPU 2 GHz Xeon VM and half are
/// cache hits, so these load the one worker to 20–35% and 40–70%: busy or
/// not, the high rate stays below saturation and no submission fails.
pub const RATES: [(&str, f64); 2] = [("mid", 60.0), ("high", 120.0)];

/// Percent of submissions that repeat an earlier job.
const REPEAT_PERCENT: u64 = 50;

/// A repeat names a job due at least this long before it (seconds), so
/// the original has finished and the repeat is a cache hit.
const REPEAT_MIN_AGE_S: f64 = 0.25;

/// Goodput counts correct results returned within this many ms.
const GOOD_MS: f64 = 50.0;

/// How often the poller asks about an unfinished job.
const POLL_EVERY: Duration = Duration::from_millis(1);

/// Every this-many-th simulated job is re-run in-process and compared.
const REFERENCE_EVERY: usize = 10;

/// Server spawns per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// In-process runs behind `serve.sim_ms_p50` (traced run).
const SIM_SAMPLES: usize = 20;

/// Grace after a phase's last due time before missing jobs fail.
const DRAIN: Duration = Duration::from_secs(5);

/// How long um-serve may take to answer its first `/healthz`.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest seed JSON carries exactly.
const SEED_MASK: u64 = (1 << 53) - 1;

/// One planned submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Planned {
    /// Due time, seconds after the phase starts.
    pub at: f64,
    /// The job's seed; a repeat reuses an earlier job's.
    pub seed: u64,
    /// Whether this repeats an earlier submission.
    pub repeat: bool,
}

/// The seeded open-loop schedule of one phase: Poisson due times at
/// `rate` over `seconds`; each submission is a repeat with probability
/// [`REPEAT_PERCENT`] when an old enough fresh job exists.
pub fn schedule(rate: f64, seconds: f64, seed: u64) -> Vec<Planned> {
    let times = PoissonArrivals::new(rate, rng::derive_seed(seed, 0)).within(seconds * 1e6);
    let mut plan = Vec::with_capacity(times.len());
    let mut fresh: Vec<(f64, u64)> = Vec::new();
    let mut aged = 0;
    for (i, us) in times.into_iter().enumerate() {
        let at = us / 1e6;
        while aged < fresh.len() && fresh[aged].0 <= at - REPEAT_MIN_AGE_S {
            aged += 1;
        }
        let h = rng::derive_seed(seed, i as u64 + 1);
        let planned = if aged > 0 && h % 100 < REPEAT_PERCENT {
            Planned {
                at,
                seed: fresh[((h >> 8) % aged as u64) as usize].1,
                repeat: true,
            }
        } else {
            let job_seed = rng::derive_seed(h, 0) & SEED_MASK;
            fresh.push((at, job_seed));
            Planned {
                at,
                seed: job_seed,
                repeat: false,
            }
        };
        plan.push(planned);
    }
    plan
}

/// What happened to one submission.
#[derive(Clone, Debug)]
struct Job {
    plan: Planned,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    done_seen: Option<Instant>,
    received: Option<Instant>,
    cached: bool,
    polls: u32,
    body: String,
    error: Option<String>,
}

impl Job {
    fn new(plan: Planned, due: Instant) -> Self {
        Job {
            plan,
            due,
            sent: due,
            submitted: due,
            done_seen: None,
            received: None,
            cached: false,
            polls: 0,
            body: String::new(),
            error: None,
        }
    }

    /// Open-loop latency: from the scheduled send time, not the actual
    /// one, to the last result byte.
    fn latency_ms(&self) -> Option<f64> {
        self.received.map(|r| ms(r - self.due))
    }

    fn ok(&self) -> bool {
        self.error.is_none() && self.received.is_some()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One rate's jobs, in submission order.
struct Phase {
    name: &'static str,
    seconds: f64,
    jobs: Vec<Job>,
    poll_ms: Vec<f64>,
}

impl Phase {
    /// Latencies of the jobs that ran a simulation (cache misses).
    fn miss_latencies(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| !j.cached)
            .filter_map(Job::latency_ms)
            .collect()
    }
}

/// A running um-serve child; killed and reaped when dropped.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns um-serve on a free loopback port; returns it with the time
    /// from spawn to its first `200` on `/healthz`.
    fn start(bin: &Path) -> Result<(Server, Duration), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("finding a free port: {e}"))?
            .port();
        let start = Instant::now();
        let child = Command::new(bin)
            .args(["--port", &port.to_string(), "--workers", "1"])
            .env("UM_THREADS", "1")
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        };
        loop {
            if client::request(server.addr, "GET", "/healthz", None).is_ok_and(|r| r.status == 200)
            {
                return Ok((server, start.elapsed()));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("um-serve exited before serving: {status}"));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("um-serve did not answer /healthz in time".to_string());
            }
            thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The child may already be gone; either way reap it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A submission handed from the generator to the poller.
struct Submitted {
    index: usize,
    id: Option<u64>,
    job: Job,
}

fn submission_body(doc: &str, seed: u64) -> String {
    format!("{{\"scenario\": {doc}, \"seed\": {seed}}}")
}

/// Runs one phase against `addr`: the generator submits on schedule on
/// this thread while a second thread polls and fetches.
fn run_phase(
    addr: SocketAddr,
    doc: &str,
    name: &'static str,
    plan: &[Planned],
    seconds: f64,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(10);
    let deadline = start + Duration::from_secs_f64(seconds) + DRAIN;
    let (tx, rx) = mpsc::channel::<Submitted>();
    let (jobs, poll_ms) = thread::scope(|scope| {
        let poller = scope.spawn(move || poll_loop(addr, rx, plan.len(), deadline));
        for (index, p) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(p.at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            let mut job = Job::new(*p, due);
            job.sent = Instant::now();
            let reply = client::request(addr, "POST", "/jobs", Some(&submission_body(doc, p.seed)));
            job.submitted = Instant::now();
            let mut id = None;
            match reply {
                Ok(r) if r.status == 200 => match Json::parse(&r.body) {
                    Ok(doc) => {
                        id = doc.get("id").and_then(Json::as_num).map(|n| n as u64);
                        job.cached = doc.get("cached") == Some(&Json::Bool(true));
                        if id.is_none() {
                            job.error = Some(format!("submit answer has no id: {}", r.body));
                        }
                    }
                    Err(e) => job.error = Some(format!("submit answer is not JSON: {e}")),
                },
                Ok(r) => job.error = Some(format!("submit answered {}: {}", r.status, r.body)),
                Err(e) => job.error = Some(format!("submit failed: {e}")),
            }
            tx.send(Submitted { index, id, job })
                .expect("the poller outlives the generator");
        }
        drop(tx);
        poller.join().expect("the poller does not panic")
    });
    Phase {
        name,
        seconds,
        jobs,
        poll_ms,
    }
}

/// The poller: fetches cached jobs at once, polls the oldest unfinished
/// one each [`POLL_EVERY`], and gives up on whatever is left at
/// `deadline`.
fn poll_loop(
    addr: SocketAddr,
    rx: mpsc::Receiver<Submitted>,
    n: usize,
    deadline: Instant,
) -> (Vec<Job>, Vec<f64>) {
    let mut done: Vec<Option<Job>> = vec![None; n];
    let mut pending: Vec<(Submitted, Instant)> = Vec::new();
    let mut poll_ms = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        let now = Instant::now();
        if now > deadline {
            // Whatever is pending, or still being submitted, has failed.
            for s in pending.drain(..).map(|(s, _)| s).chain(rx.iter()) {
                let mut job = s.job;
                job.error
                    .get_or_insert_with(|| "no result by the deadline".to_string());
                done[s.index] = Some(job);
            }
            break;
        }
        let next = pending.first().map_or(deadline, |(_, at)| *at);
        let wait = next.saturating_duration_since(now);
        if open {
            // Wakes for a new submission or the next due poll.
            match rx.recv_timeout(wait) {
                Ok(mut s) => {
                    match (s.id, s.job.error.is_some(), s.job.cached) {
                        (Some(_), false, false) => {
                            let poll_at = s.job.submitted + POLL_EVERY;
                            pending.push((s, poll_at));
                        }
                        // Cached jobs are born done: fetch at once.
                        (Some(id), false, true) => {
                            advance(addr, id, &mut s.job, &mut poll_ms);
                            done[s.index] = Some(s.job);
                        }
                        _ => done[s.index] = Some(s.job),
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    open = false;
                    continue;
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        } else {
            thread::sleep(wait);
        }
        // One worker runs jobs in submission order, so only the oldest
        // unfinished job is polled; each time one is done the next is
        // asked at once. Polls stay near one per POLL_EVERY however long
        // the server's queue grows.
        while let Some((s, at)) = pending.first_mut() {
            if *at > Instant::now() {
                break;
            }
            let id = s.id.expect("only accepted submissions are pending");
            if !advance(addr, id, &mut s.job, &mut poll_ms) {
                *at = Instant::now() + POLL_EVERY;
                break;
            }
            let (s, _) = pending.remove(0);
            done[s.index] = Some(s.job);
            if let Some((_, next)) = pending.first_mut() {
                *next = Instant::now();
            }
        }
    }
    let jobs = done
        .into_iter()
        .map(|j| j.expect("every submission reaches the poller"))
        .collect();
    (jobs, poll_ms)
}

/// One poller step for a job: a status poll unless it is known done,
/// then the result fetch. Returns whether the job is finished.
fn advance(addr: SocketAddr, id: u64, job: &mut Job, poll_ms: &mut Vec<f64>) -> bool {
    if !job.cached {
        let asked = Instant::now();
        let reply = client::request(addr, "GET", &format!("/jobs/{id}"), None);
        poll_ms.push(ms(asked.elapsed()));
        job.polls += 1;
        let status = match reply {
            Ok(r) if r.status == 200 => Json::parse(&r.body)
                .ok()
                .and_then(|d| d.get("status").and_then(Json::as_str).map(str::to_string)),
            Ok(r) => {
                job.error = Some(format!("poll answered {}: {}", r.status, r.body));
                return true;
            }
            Err(e) => {
                job.error = Some(format!("poll failed: {e}"));
                return true;
            }
        };
        match status.as_deref() {
            Some("done") => {}
            Some("queued" | "running") => return false,
            other => {
                job.error = Some(format!("unexpected job status {other:?}"));
                return true;
            }
        }
    }
    job.done_seen = Some(Instant::now());
    match client::request(addr, "GET", &format!("/jobs/{id}/result"), None) {
        Ok(r) if r.status == 200 => {
            job.received = Some(Instant::now());
            job.body = r.body;
        }
        Ok(r) => job.error = Some(format!("fetch answered {}: {}", r.status, r.body)),
        Err(e) => job.error = Some(format!("fetch failed: {e}")),
    }
    true
}

/// The job document with `seed`, rendered the way um-serve renders it.
fn reference_envelope(doc: &str, seed: u64) -> Result<String, String> {
    let s = sim::parse(doc, seed)?;
    let out = scenario::run_with_threads(&s, 1)?;
    Ok(result_envelope(&s.name, &out).render())
}

/// Checks every job: answered, repeats byte-equal to their first fetch,
/// and every [`REFERENCE_EVERY`]-th simulated job equal to an in-process
/// run of the same document.
fn check_jobs(doc: &str, phases: &[Phase], report: &mut Report) -> Result<(), String> {
    let mut first: BTreeMap<u64, &str> = BTreeMap::new();
    let mut misses = 0;
    for phase in phases {
        for job in &phase.jobs {
            report.check(job.ok(), || {
                format!(
                    "{} job (seed {}): {}",
                    phase.name,
                    job.plan.seed,
                    job.error.as_deref().unwrap_or("no result")
                )
            });
            if !job.ok() {
                continue;
            }
            match first.get(&job.plan.seed) {
                Some(body) => report.check(*body == job.body, || {
                    format!(
                        "seed {}: a repeat's bytes differ from the first fetch",
                        job.plan.seed
                    )
                }),
                None => {
                    first.insert(job.plan.seed, &job.body);
                }
            }
            if !job.cached {
                if misses % REFERENCE_EVERY == 0 {
                    let expected = reference_envelope(doc, job.plan.seed)?;
                    report.check(expected == job.body, || {
                        format!(
                            "seed {}: served bytes differ from an in-process run",
                            job.plan.seed
                        )
                    });
                }
                misses += 1;
            }
        }
    }
    Ok(())
}

/// The load run shared by both modes: spawns the server (several times,
/// for `setup_s`), runs both rates, reads the server's peak RSS, stops it
/// and checks every result.
struct LoadRun {
    doc: String,
    setups: Vec<f64>,
    phases: Vec<Phase>,
    rss_mb: f64,
    /// Reference over measured host speed ([`metrics::calibrate`]).
    scale: f64,
}

fn load_run(opts: &Options, report: &mut Report) -> Result<LoadRun, String> {
    let bin = opts
        .serve_bin
        .as_deref()
        .ok_or("serve-open needs --serve-bin <path to um-serve>")?;
    let doc = sim::read("perf/scenarios/serve-job.json")?;
    let mut cal = vec![metrics::calibrate()];
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let (s, took) = Server::start(Path::new(bin))?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("the server started at least once");
    let seconds = opts.seconds / RATES.len() as f64;
    let mut phases = Vec::new();
    // Calibrate only while the server is idle: between phases.
    for (i, &(name, rate)) in RATES.iter().enumerate() {
        cal.push(metrics::calibrate());
        let plan = schedule(rate, seconds, rng::derive_seed(opts.seed, i as u64));
        phases.push(run_phase(server.addr, &doc, name, &plan, seconds));
    }
    cal.push(metrics::calibrate());
    let rss_mb = metrics::peak_rss_mb(Some(server.child.id()))?;
    drop(server);
    check_jobs(&doc, &phases, report)?;
    Ok(LoadRun {
        doc,
        setups,
        phases,
        rss_mb,
        scale: CAL_REF_MS / median(&cal),
    })
}

/// Prints a phase's latency digest with sample counts.
fn describe(phase: &Phase) {
    let all: Vec<f64> = phase.jobs.iter().filter_map(Job::latency_ms).collect();
    let misses = phase.miss_latencies();
    for (label, v) in [("all jobs", &all), ("simulated jobs", &misses)] {
        if v.is_empty() {
            continue;
        }
        let tail = tail_percentile(v.len())
            .map(|p| format!(", p{p} {:.3} ms", percentile(v, p)))
            .unwrap_or_default();
        eprintln!(
            "  {} ({:.0} s): {label}: p50 {:.3} ms{tail} ({} samples)",
            phase.name,
            phase.seconds,
            percentile(v, 50.0),
            v.len()
        );
    }
}

/// Correct results returned within [`GOOD_MS`] per second of the phase,
/// latencies scaled by `scale` to the reference host speed.
fn goodput(phase: &Phase, scale: f64) -> f64 {
    let good = phase
        .jobs
        .iter()
        .filter(|j| j.ok() && j.latency_ms().is_some_and(|l| l * scale <= GOOD_MS))
        .count();
    good as f64 / phase.seconds
}

fn mid(phases: &[Phase]) -> &Phase {
    phases.first().expect("both rates ran")
}

fn high(phases: &[Phase]) -> &Phase {
    phases.last().expect("both rates ran")
}

/// `--trace 0`: the end-to-end metrics — latency of simulated jobs at the
/// mid rate, goodput at the high rate — scaled to the reference host
/// speed; the raw figures go to stderr beside.
pub fn run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let load = load_run(opts, report)?;
    load.phases.iter().for_each(describe);
    let misses = mid(&load.phases).miss_latencies();
    if misses.is_empty() {
        return Err("the mid rate simulated no job".to_string());
    }
    let high = high(&load.phases);
    report.set(
        "setup_s",
        median(&load.setups) * load.scale,
        load.setups.len(),
    );
    report.set("work_per_s", goodput(high, load.scale), high.jobs.len());
    report.set(
        "job_p50_ms",
        percentile(&misses, 50.0) * load.scale,
        misses.len(),
    );
    report.set("peak_rss_mb", load.rss_mb, 1);
    eprintln!(
        "  raw: goodput {:.3} jobs/s; set-up {:.6} s; mid p50 {:.3} ms; host speed {:.3} of \
         the reference",
        goodput(high, 1.0),
        median(&load.setups),
        percentile(&misses, 50.0),
        load.scale
    );
    Ok(())
}

/// `--trace 1`: the job's simulation layers (in-process) and the service
/// layers (from the client's spans).
pub fn trace(
    opts: &Options,
    report: &mut Report,
    t: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let load = load_run(opts, report)?;
    load.phases.iter().for_each(describe);
    for phase in &load.phases {
        record_job_spans(phase, t);
    }
    let root = t.begin("serve-open");
    let mut extras = sim::trace_job(&load.doc, opts.seed, report, t)?;
    let mut sim_ms = Vec::new();
    for k in 0..SIM_SAMPLES {
        let s = sim::parse(&load.doc, rng::derive_seed(opts.seed, k as u64) & SEED_MASK)?;
        let ((), took) = t.time("serve.sim", || {
            drop(scenario::run_with_threads(&s, 1));
        });
        sim_ms.push(ms(took));
    }
    t.end(root);
    let sim_ms = median(&sim_ms);

    let high = high(&load.phases);
    let misses: Vec<&Job> = high.jobs.iter().filter(|j| j.ok() && !j.cached).collect();
    if misses.is_empty() {
        return Err("the high rate simulated no job".to_string());
    }
    let mean =
        |f: &dyn Fn(&Job) -> f64| misses.iter().map(|j| f(j)).sum::<f64>() / misses.len() as f64;
    let seen = |j: &Job| j.done_seen.expect("finished jobs were seen done");
    let received = |j: &Job| j.received.expect("ok jobs were received");
    let latency = mean(&|j| ms(received(j) - j.due));
    let late = mean(&|j| ms(j.sent - j.due));
    let http = mean(&|j| ms(j.submitted - j.sent) + ms(received(j) - seen(j)));
    report.set("gen.late_share", late / latency, misses.len());
    report.set("serve.http_share", http / latency, misses.len());
    report.set("serve.sim_share", sim_ms / latency, SIM_SAMPLES);
    report.set(
        "serve.queue_share",
        1.0 - (late + http + sim_ms) / latency,
        misses.len(),
    );

    let all: Vec<&Job> = load.phases.iter().flat_map(|p| &p.jobs).collect();
    let simulated = all.iter().filter(|j| !j.cached).count();
    let hits = all.len() - simulated;
    let polls: u32 = all.iter().map(|j| j.polls).sum();
    report.set(
        "serve.cache_hit_frac",
        hits as f64 / all.len() as f64,
        all.len(),
    );
    report.set(
        "serve.polls_per_job",
        f64::from(polls) / simulated.max(1) as f64,
        simulated,
    );

    let pick = |f: &dyn Fn(&Job) -> Option<f64>| -> Vec<f64> {
        misses.iter().filter_map(|j| f(j)).collect()
    };
    let submit = pick(&|j| Some(ms(j.submitted - j.sent)));
    let fetch = pick(&|j| Some(ms(received(j) - seen(j))));
    let wait = pick(&|j| Some(ms(seen(j) - j.submitted)));
    let lateness: Vec<f64> = all.iter().map(|j| ms(j.sent - j.due)).collect();
    extras.extend([
        ("serve.submit_ms_p50".to_string(), percentile(&submit, 50.0)),
        ("serve.fetch_ms_p50".to_string(), percentile(&fetch, 50.0)),
        (
            "serve.poll_ms_p50".to_string(),
            percentile(&high.poll_ms, 50.0),
        ),
        ("serve.sim_ms_p50".to_string(), sim_ms),
        (
            "serve.queue_ms_p50".to_string(),
            percentile(&wait, 50.0) - sim_ms,
        ),
        ("serve.goodput_jobs_per_s".to_string(), goodput(high, 1.0)),
    ]);
    for (name, v) in [("serve.submit_ms", &submit), ("gen.late_ms", &lateness)] {
        if let Some(p) = tail_percentile(v.len()) {
            extras.push((format!("{name}_p{p}"), percentile(v, p)));
        }
    }
    for phase in &load.phases {
        let v = phase.miss_latencies();
        extras.push((format!("job_p50_ms.{}", phase.name), percentile(&v, 50.0)));
        if let Some(p) = tail_percentile(v.len()) {
            extras.push((format!("job_p{p}_ms.{}", phase.name), percentile(&v, p)));
        }
    }
    Ok(extras)
}

/// Adds each job's client-side spans: the job from its due time to its
/// result, split into generator lateness, submit, wait and fetch.
fn record_job_spans(phase: &Phase, t: &mut Tracer) {
    for job in phase.jobs.iter().filter(|j| j.ok()) {
        let received = job.received.expect("ok jobs were received");
        let seen = job.done_seen.unwrap_or(job.submitted);
        let name = if job.cached {
            "serve.job.hit"
        } else {
            "serve.job"
        };
        let root = t.record(name, job.due, received, None);
        t.record("gen.late", job.due, job.sent, Some(root));
        t.record("serve.submit", job.sent, job.submitted, Some(root));
        t.record("serve.wait", job.submitted, seen, Some(root));
        t.record("serve.fetch", seen, received, Some(root));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_repeats_only_aged_fresh_jobs() {
        let a = schedule(200.0, 3.0, 7);
        assert_eq!(a, schedule(200.0, 3.0, 7));
        assert_ne!(a, schedule(200.0, 3.0, 8));
        assert!((450..750).contains(&a.len()), "{} jobs", a.len());
        let repeats = a.iter().filter(|p| p.repeat).count();
        assert!(
            (a.len() / 3..a.len() * 2 / 3).contains(&repeats),
            "{repeats}"
        );
        for p in a.iter().filter(|p| p.repeat) {
            assert!(a
                .iter()
                .any(|q| !q.repeat && q.seed == p.seed && q.at <= p.at - REPEAT_MIN_AGE_S));
        }
        assert!(a.iter().all(|p| p.seed <= SEED_MASK));
    }

    #[test]
    fn open_loop_latency_runs_from_the_scheduled_time() {
        let due = Instant::now();
        let plan = Planned {
            at: 0.0,
            seed: 1,
            repeat: false,
        };
        let mut job = Job::new(plan, due);
        job.sent = due + Duration::from_millis(5); // the generator ran late
        job.received = Some(due + Duration::from_millis(7));
        assert_eq!(job.latency_ms(), Some(7.0));
        assert!(job.ok());
        job.received = None;
        assert_eq!(job.latency_ms(), None);
    }
}
