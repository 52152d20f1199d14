//! The simulation workloads: one 1024-core package (`node-um`), the
//! headline machine comparison (`compare10`) and a 512-node rack
//! (`rack-512`). Each is a canonical `um_bench::scenario` document run
//! through the public scenario API on one worker.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use um_arch::config::CoherenceDomain;
use um_bench::benchjson::Json;
use um_bench::scenario::{self, PointConfig, Scenario, ScenarioKind, ScenarioOutput};
use um_net::ExternalNetwork;
use um_serve::service::result_envelope;
use um_sim::{rng, Cycles};
use um_workload::PoissonArrivals;
use umanycore::{ArrivalProcess, ClusterConfig, ClusterSim, RunReport, SimConfig, SystemSim};

use crate::layers;
use crate::metrics::{self, median, Report, CAL_REF_MS};
use crate::trace::Tracer;
use crate::Options;

/// The seed the committed goldens were generated with.
pub const GOLDEN_SEED: u64 = 42;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Timed repetitions per run, at least (more while `--seconds` lasts).
const MIN_REPS: usize = 3;

/// Rack nodes whose package steps are timed one by one in the traced run
/// (`sim.step_ns_*`); every node is also driven alone without step timing.
const STEP_TIMED_NODES: usize = 32;

/// The comparison rack for `rack.per_node_cost_ratio`.
const SMALL_RACK: usize = 8;

/// A simulation workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    /// One uManycore package, SocialMix at 500k rps for 200 ms.
    NodeUm,
    /// The `cluster10` registry scenario: 4 machines x 3 loads x 10 servers.
    Compare10,
    /// 512 `NODE_SHAPE` packages behind a JSQ(2) load balancer.
    Rack512,
}

impl SimWorkload {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::NodeUm => "node-um",
            SimWorkload::Compare10 => "compare10",
            SimWorkload::Rack512 => "rack-512",
        }
    }
}

/// The repository root (this package sits at `crates/bench/um_perf`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(3)
        .expect("the package sits three levels below the repository root")
        .to_path_buf()
}

/// Reads a file under the repository root.
pub fn read(rel: &str) -> Result<String, String> {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The workload's canonical scenario document. `smoke` shrinks horizons
/// (and the rack to 8 nodes) so every workload runs in well under a
/// second.
pub fn document(w: SimWorkload, smoke: bool) -> Result<String, String> {
    let text = match w {
        SimWorkload::NodeUm => read("perf/scenarios/node-um.json")?,
        SimWorkload::Rack512 => read("perf/scenarios/rack-512.json")?,
        SimWorkload::Compare10 => scenario::registry::cluster10().to_json_text(),
    };
    if !smoke {
        return Ok(text);
    }
    let mut s = Scenario::from_json_text(&text)?;
    s.scale.horizon_us = 3_000.0;
    s.scale.warmup_us = 300.0;
    if let Some(c) = &mut s.cluster {
        c.nodes = SMALL_RACK;
    }
    if let ScenarioKind::Grid(g) = &mut s.kind {
        if !g.nodes.is_empty() {
            g.nodes = vec![SMALL_RACK];
        }
    }
    Ok(s.to_json_text())
}

/// What a repetition must produce at [`GOLDEN_SEED`]: the committed
/// `um-sweep --json` document of a grid scenario, or for `compare10` the
/// committed `results/cluster10.txt`.
fn golden(w: SimWorkload) -> Result<String, String> {
    match w {
        SimWorkload::NodeUm => read("perf/expected/node-um.json"),
        SimWorkload::Rack512 => read("perf/expected/rack-512.json"),
        SimWorkload::Compare10 => read("results/cluster10.txt"),
    }
}

/// The bytes of an output the goldens pin: for a grid scenario the
/// document `um-sweep --json` writes, otherwise the text table.
fn output_bytes(s: &Scenario, out: &ScenarioOutput) -> String {
    match &out.points {
        Some(_) => result_envelope(&s.name, out).render(),
        None => out.text.clone(),
    }
}

/// Parses and validates a document, then applies the run seed.
pub fn parse(doc: &str, seed: u64) -> Result<Scenario, String> {
    let mut s = Scenario::from_json_text(doc)?;
    s.scale.seed = seed;
    s.validate()?;
    Ok(s)
}

/// One set-up: parse, validate, expand, and construct every point's
/// simulator. Returns the time without the simulators' teardown.
fn timed_setup(doc: &str, seed: u64) -> Result<(Scenario, Duration), String> {
    let start = Instant::now();
    let s = parse(doc, seed)?;
    let points = s.expand()?;
    let mut took = start.elapsed();
    for p in points {
        let built = Instant::now();
        match p {
            PointConfig::Node(cfg) => {
                let sim = SystemSim::new(*cfg);
                took += built.elapsed();
                drop(sim);
            }
            PointConfig::Cluster(cfg) => {
                let sim = ClusterSim::new(*cfg);
                took += built.elapsed();
                drop(sim);
            }
        }
    }
    Ok((s, took))
}

/// Invocations and conservation over one pass of every point.
#[derive(Debug)]
struct Census {
    invocations: u64,
    conserved: bool,
}

/// Runs every point through its report (untimed): counts the invocations
/// each repetition completes and checks latency conservation. Doubles as
/// the warm-up before the timed repetitions.
fn census(s: &Scenario) -> Result<Census, String> {
    let mut c = Census {
        invocations: 0,
        conserved: true,
    };
    for p in s.expand()? {
        let reports = match p {
            PointConfig::Node(cfg) => vec![SystemSim::new(*cfg).run()],
            PointConfig::Cluster(cfg) => {
                let r = ClusterSim::new(*cfg).run();
                c.conserved &= r.conservation.exact();
                r.node_reports
            }
        };
        for r in &reports {
            c.invocations += r.completed;
            c.conserved &= r.conservation.exact();
        }
    }
    Ok(c)
}

/// `--trace 0`: the end-to-end metrics. Timings are scaled to the
/// reference host speed measured around them ([`metrics::calibrate`]);
/// the raw figures go to stderr beside.
pub fn run(w: SimWorkload, opts: &Options, report: &mut Report) -> Result<(), String> {
    let doc = document(w, opts.smoke)?;
    let setup_cal = metrics::calibrate();
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let (parsed, took) = timed_setup(&doc, opts.seed)?;
        setups.push(took.as_secs_f64());
        s = Some(parsed);
    }
    let s = s.expect("set-up ran at least once");

    let census = census(&s)?;
    report.check(census.conserved, || {
        format!("{}: latency conservation violated", w.name())
    });

    let golden = if opts.seed == GOLDEN_SEED && !opts.smoke {
        Some(golden(w)?)
    } else {
        None
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let window = Instant::now();
    let mut cal = vec![metrics::calibrate()];
    let mut walls: Vec<f64> = Vec::new();
    let mut scaled: Vec<f64> = Vec::new();
    let mut first: Option<String> = None;
    let mut last = Duration::ZERO;
    while walls.len() < MIN_REPS || window.elapsed() + last <= budget {
        let start = Instant::now();
        let out = scenario::run_with_threads(&s, 1)?;
        last = start.elapsed();
        cal.push(metrics::calibrate());
        let bytes = output_bytes(&s, &out);
        let rep = walls.len() + 1;
        match (&first, &golden) {
            (None, Some(g)) => report.check(bytes == *g, || {
                format!("{}: output differs from the committed golden", w.name())
            }),
            (None, None) => report.check(true, String::new),
            (Some(f), _) => report.check(bytes == *f, || {
                format!("{}: repetition {rep} disagrees with the first", w.name())
            }),
        }
        first.get_or_insert(bytes);
        let around = (cal[rep - 1] + cal[rep]) / 2.0;
        walls.push(last.as_secs_f64());
        scaled.push(last.as_secs_f64() * CAL_REF_MS / around);
    }

    let setup_scale = CAL_REF_MS / setup_cal;
    report.set("setup_s", median(&setups) * setup_scale, setups.len());
    let rates: Vec<f64> = scaled
        .iter()
        .map(|secs| census.invocations as f64 / secs)
        .collect();
    report.set("work_per_s", median(&rates), rates.len());
    report.set("job_p50_ms", median(&scaled) * 1e3, scaled.len());
    report.set("peak_rss_mb", metrics::peak_rss_mb(None)?, 1);
    eprintln!(
        "  raw: repetition {:.3} ms median, IQR {:.2}%; set-up {:.6} s; host speed {:.3} \
         of the reference ({} calibrations); {} invocations per repetition",
        median(&walls) * 1e3,
        100.0 * metrics::iqr_share(&walls),
        median(&setups),
        CAL_REF_MS / median(&cal),
        cal.len(),
        census.invocations
    );
    Ok(())
}

/// Host nanoseconds of individual package steps (4 bytes each, so a
/// whole run's steps fit; percentiles are exact).
#[derive(Debug, Default)]
struct StepTimes(Vec<u32>);

impl StepTimes {
    fn record(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Nearest-rank percentile, nanoseconds.
    fn percentile(&mut self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = metrics::rank(self.0.len(), p);
        let (_, v, _) = self.0.select_nth_unstable(rank - 1);
        f64::from(*v)
    }
}

/// A layer's attributed host time: its isolated cost per operation times
/// the operations the run made, summed over points.
#[derive(Debug, Default)]
struct Attributed {
    ns: f64,
    ops: u64,
}

impl Attributed {
    fn add(&mut self, ns_per_op: f64, ops: u64) {
        self.ns += ns_per_op * ops as f64;
        self.ops += ops;
    }

    fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }
}

/// Everything one traced scenario run measured.
#[derive(Debug, Default)]
struct Traced {
    parse: Duration,
    expand: Duration,
    /// The untraced scenario run: what layer shares divide by.
    untraced: Duration,
    /// The step-timed simulator drive alone, for `trace.overhead`.
    traced: Duration,
    setup: Duration,
    finish: Duration,
    steps: StepTimes,
    events: u64,
    invocations: u64,
    icn_msgs: u64,
    rq_overflows: u64,
    ctx_switches: u64,
    queue: Attributed,
    icn: Attributed,
    fabric: Attributed,
    rq: Attributed,
    plan: Attributed,
    /// The fabric replay's cost, measured even where no rack fabric
    /// exists (then on the package's storage fabric, unattributed).
    fabric_ns_per_send: f64,
    rack: Option<Rack>,
}

/// What the rack-specific measurements found.
#[derive(Debug, Default)]
struct Rack {
    setup: Duration,
    run: Duration,
    events: u64,
    node_alone: Duration,
    alone_steps: u64,
    fleet_requests: u64,
    per_node_cost_ratio: f64,
}

/// `--trace 1`: the per-layer metrics of a simulation workload.
pub fn trace(
    w: SimWorkload,
    opts: &Options,
    report: &mut Report,
    t: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let doc = document(w, opts.smoke)?;
    let golden = if opts.seed == GOLDEN_SEED && !opts.smoke {
        Some(golden(w)?)
    } else {
        None
    };
    let root = t.begin(w.name());
    let mut traced = trace_doc(&doc, opts.seed, golden.as_deref(), report, t)?;
    t.end(root);
    let extras = record(&mut traced, report);
    no_serve(report);
    Ok(extras)
}

/// Traces a node-only scenario document (the serve-open job) and records
/// its layer metrics; the caller records the service layer.
pub fn trace_job(
    doc: &str,
    seed: u64,
    report: &mut Report,
    t: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let mut traced = trace_doc(doc, seed, None, report, t)?;
    Ok(record(&mut traced, report))
}

fn trace_doc(
    doc: &str,
    seed: u64,
    golden: Option<&str>,
    report: &mut Report,
    t: &mut Tracer,
) -> Result<Traced, String> {
    let mut tr = Traced::default();
    let (s, parse) = t.time("scenario.parse", || parse(doc, seed));
    let s = s?;
    tr.parse = parse;
    let (points, expand) = t.time("scenario.expand", || s.expand());
    let points = points?;
    tr.expand = expand;

    // Untraced reference: the first run warms the process up and is
    // checked, the second is the wall time shares divide by.
    let mut outputs = Vec::new();
    for _ in 0..2 {
        let (out, wall) = t.time("scenario.run", || scenario::run_with_threads(&s, 1));
        outputs.push(output_bytes(&s, &out?));
        tr.untraced = wall;
    }
    report.check(outputs[0] == outputs[1], || {
        "untraced repetitions disagree".to_string()
    });
    if let Some(g) = golden {
        report.check(outputs[0] == g, || {
            "output differs from the committed golden".to_string()
        });
    }

    let grid = matches!(s.kind, ScenarioKind::Grid(_));
    let mut queue_costs: BTreeMap<(u64, usize, u64), f64> = BTreeMap::new();
    for (i, p) in points.into_iter().enumerate() {
        let seed = rng::derive_seed(seed, i as u64);
        match p {
            PointConfig::Node(cfg) => {
                let (r, steps) = drive_node(*cfg.clone(), &mut tr, t);
                report.check(r.conservation.exact(), || {
                    format!("point {i}: latency conservation violated")
                });
                report.check(mentions_p99(&outputs[0], grid, r.latency.p99), || {
                    format!(
                        "point {i}: traced p99 {} is not in the output",
                        r.latency.p99
                    )
                });
                let key = (
                    cfg.rps_per_server.to_bits(),
                    cfg.servers,
                    cfg.horizon_us.to_bits(),
                );
                let queue_ns = *queue_costs.entry(key).or_insert_with(|| {
                    layers::queue_ns_per_event(
                        cfg.rps_per_server,
                        cfg.horizon_us,
                        cfg.servers,
                        seed,
                    )
                });
                tr.queue.add(queue_ns, steps);
                let invocations = r.completed;
                let roots = cfg.rps_per_server * cfg.horizon_us / 1e6 * cfg.servers as f64;
                attribute_node(&cfg, &[r], roots.round() as u64, seed, &mut tr);
                // No rack fabric here: time the package's storage fabric,
                // whose sends the simulator does not count (they stay in
                // the residual).
                let freq = cfg.machine.core.frequency;
                tr.fabric_ns_per_send = layers::fabric_ns_per_send(
                    ExternalNetwork::paper_default(cfg.servers + 1, freq),
                    cfg.servers,
                    invocations,
                    Cycles::from_micros(cfg.horizon_us, freq),
                    None,
                    seed,
                );
            }
            PointConfig::Cluster(cfg) => trace_rack(*cfg, seed, &outputs[0], &mut tr, report, t),
        }
    }
    Ok(tr)
}

/// Whether a point's p99 appears in the output as the scenario renders
/// it: two decimals in grid points, one in text tables.
fn mentions_p99(output: &str, grid: bool, p99: f64) -> bool {
    if grid {
        let value = Json::Num(um_bench::benchjson::rounded(p99, 2)).render();
        output.contains(&format!("\"p99_us\": {}", value.trim_end()))
    } else {
        output.contains(&format!("{p99:.1}"))
    }
}

/// Drives one node point step by step, timing every step; returns the
/// report and the steps taken.
fn drive_node(cfg: SimConfig, tr: &mut Traced, t: &mut Tracer) -> (RunReport, u64) {
    let (mut sim, setup) = t.time("sim.setup", || SystemSim::new(cfg));
    tr.setup += setup;
    let id = t.begin("sim.run");
    let mut steps = 0;
    loop {
        let start = Instant::now();
        if !sim.step() {
            break;
        }
        tr.steps.record(start.elapsed());
        steps += 1;
    }
    let run = t.end(id);
    tr.events += steps;
    let (r, finish) = t.time("sim.finish", || sim.finish());
    tr.finish += finish;
    tr.traced += setup + run + finish;
    (r, steps)
}

/// Adds the reports of packages built from `cfg` to the counts and
/// attributes the ICN, RQ and plan layers. `roots` is how many of their
/// invocations were root requests.
fn attribute_node(cfg: &SimConfig, reports: &[RunReport], roots: u64, seed: u64, tr: &mut Traced) {
    let freq = cfg.machine.core.frequency;
    let horizon = Cycles::from_micros(cfg.horizon_us, freq);
    let invocations: u64 = reports.iter().map(|r| r.completed).sum();
    tr.invocations += invocations;
    tr.rq_overflows += reports.iter().map(|r| r.rq_overflows).sum::<u64>();
    tr.ctx_switches += reports.iter().map(|r| r.ctx_switches).sum::<u64>();
    let msgs: u64 = reports.iter().map(|r| r.icn_messages).sum();
    tr.icn_msgs += msgs;
    // Every ICN message is either a child's response to its parent or a
    // chunk of memory traffic, which a per-cluster memory pool keeps
    // inside the cluster (as SystemSim does).
    let local_pool = cfg.machine.coherence == CoherenceDomain::Village && cfg.machine.memory_pool;
    let responses = invocations.saturating_sub(roots).min(msgs);
    let local = if local_pool && msgs > 0 {
        (msgs - responses) as f64 / msgs as f64
    } else {
        0.0
    };
    let per_package = msgs / reports.len().max(1) as u64;
    tr.icn.add(
        layers::icn_ns_per_msg(&cfg.machine, per_package.max(1), local, horizon, seed),
        msgs,
    );
    if cfg.machine.hw_scheduling {
        tr.rq.add(
            layers::rq_ns_per_inv(cfg.machine.rq_capacity, invocations),
            invocations,
        );
    }
    tr.plan.add(
        layers::plan_ns_per_sample(&cfg.workload, invocations, seed),
        invocations,
    );
}

/// The rack run plus its split: every node's package driven alone at the
/// same per-node load, and an 8-node rack for the per-node cost ratio.
fn trace_rack(
    cfg: ClusterConfig,
    seed: u64,
    output: &str,
    tr: &mut Traced,
    report: &mut Report,
    t: &mut Tracer,
) {
    let freq = cfg.node.machine.core.frequency;
    let horizon = Cycles::from_micros(cfg.horizon_us, freq);
    let mut rack = Rack::default();
    let (sim, setup) = t.time("rack.setup", || ClusterSim::new(cfg.clone()));
    rack.setup = setup;
    tr.setup += setup;
    let (r, run) = t.time("rack.run", || sim.run());
    rack.run = run;
    tr.traced += setup + run;
    rack.events = r.events;
    rack.fleet_requests = r.completed;
    tr.events += r.events;
    report.check(r.conservation.exact(), || {
        "rack: fleet latency conservation violated".to_string()
    });
    report.check(
        output.contains(&format!("\"recorded\": {}", r.recorded)),
        || {
            format!(
                "rack: traced run recorded {} requests, the output disagrees",
                r.recorded
            )
        },
    );

    let alone = t.begin("rack.node_alone");
    for node in 0..cfg.nodes {
        let (steps, finish) = drive_alone(&cfg, node, None, t);
        rack.alone_steps += steps;
        tr.finish += finish;
    }
    rack.node_alone = t.end(alone);
    let timed = t.begin("rack.node_steps");
    for node in 0..cfg.nodes.min(STEP_TIMED_NODES) {
        drive_alone(&cfg, node, Some(&mut tr.steps), t);
    }
    t.end(timed);

    let mut small = cfg.clone();
    small.nodes = SMALL_RACK;
    let mut small_runs = Vec::new();
    for _ in 0..5 {
        let sim = ClusterSim::new(small.clone());
        let ((), took) = t.time("rack.small_run", || drop(sim.run()));
        small_runs.push(took.as_secs_f64());
    }
    let per_node = rack.run.as_secs_f64() / cfg.nodes as f64;
    rack.per_node_cost_ratio = per_node / (median(&small_runs) / SMALL_RACK as f64);

    let queue_ns = layers::queue_ns_per_event(cfg.rps_per_node, cfg.horizon_us, cfg.nodes, seed);
    tr.queue.add(queue_ns, r.events);
    let mut node = cfg.node.clone();
    node.horizon_us = cfg.horizon_us;
    attribute_node(&node, &r.node_reports, r.completed, seed, tr);
    let fabric = ExternalNetwork::new(
        cfg.nodes + 1,
        Cycles::from_micros(cfg.net.one_way_us, freq),
        cfg.net.nic_gbps / freq.as_ghz(),
    );
    let sends = 2 * r.completed;
    let jitter = cfg.net.jitter_us.as_ref().map(|d| (d, freq));
    tr.fabric_ns_per_send =
        layers::fabric_ns_per_send(fabric, cfg.nodes, sends, horizon, jitter, seed);
    tr.fabric.add(tr.fabric_ns_per_send, sends);
    tr.rack = Some(rack);
}

/// Drives rack node `node`'s package alone: the config `ClusterSim`
/// builds for it, fed a Poisson stream at the per-node rate through
/// `inject_arrival`/`step`/`drain_completions`/`finish`. Returns the
/// steps taken and the finish time; times each step into `steps` when
/// given.
fn drive_alone(
    cfg: &ClusterConfig,
    node: usize,
    mut steps: Option<&mut StepTimes>,
    t: &mut Tracer,
) -> (u64, Duration) {
    let mut c = cfg.node.clone();
    c.servers = 1;
    c.arrivals = ArrivalProcess::Injected;
    c.seed = rng::derive_seed(cfg.seed, node as u64);
    c.rps_per_server = cfg.rps_per_node;
    c.horizon_us = cfg.horizon_us;
    c.warmup_us = cfg.warmup_us;
    c.fault_plan = cfg.fault_plan.for_server(node);
    c.trace = false;
    let freq = c.machine.core.frequency;
    let arrivals =
        PoissonArrivals::new(cfg.rps_per_node, rng::derive_seed(c.seed, 1)).within(cfg.horizon_us);
    let id = t.begin("rack.node");
    let mut sim = SystemSim::new(c);
    for (token, at) in arrivals.into_iter().enumerate() {
        sim.inject_arrival(Cycles::from_micros(at, freq), 0, token as u64);
    }
    let mut taken = 0;
    loop {
        let start = Instant::now();
        if !sim.step() {
            break;
        }
        if let Some(s) = steps.as_deref_mut() {
            s.record(start.elapsed());
        }
        taken += 1;
        sim.drain_completions();
    }
    let finish = Instant::now();
    drop(sim.finish());
    let finish = finish.elapsed();
    t.end(id);
    (taken, finish)
}

/// Records a traced run's layer metrics; returns the extra numbers
/// `perf/layers.json` keeps beside them.
fn record(tr: &mut Traced, report: &mut Report) -> Vec<(String, f64)> {
    let wall = tr.untraced.as_nanos() as f64;
    let share = |a: &Attributed| a.ns / wall;
    let events = tr.events.max(1) as f64;
    let inv = tr.invocations.max(1) as f64;
    let step_count = tr.steps.0.len();
    report.set("scenario.parse_us", tr.parse.as_secs_f64() * 1e6, 1);
    report.set("scenario.expand_us", tr.expand.as_secs_f64() * 1e6, 1);
    report.set("sim.setup_ms", tr.setup.as_secs_f64() * 1e3, 1);
    report.set("sim.step_ns_p50", tr.steps.percentile(50.0), step_count);
    report.set("sim.step_ns_p99", tr.steps.percentile(99.0), step_count);
    report.set("sim.finish_ms", tr.finish.as_secs_f64() * 1e3, 1);
    report.set("sim.ns_per_event", wall / events, 1);
    report.set("sim.events", tr.events as f64, 1);
    report.set("sim.events_per_inv", tr.events as f64 / inv, 1);
    report.set("queue.ns_per_event", tr.queue.ns_per_op(), 1);
    report.set("queue.share", share(&tr.queue), 1);
    report.set("icn.msgs", tr.icn_msgs as f64, 1);
    report.set("icn.msgs_per_inv", tr.icn_msgs as f64 / inv, 1);
    report.set("icn.ns_per_msg", tr.icn.ns_per_op(), 1);
    report.set("icn.share", share(&tr.icn), 1);
    report.set("fabric.ns_per_send", tr.fabric_ns_per_send, 1);
    report.set("fabric.share", share(&tr.fabric), 1);
    report.set("rq.ns_per_inv", tr.rq.ns_per_op(), 1);
    report.set("rq.overflows", tr.rq_overflows as f64, 1);
    report.set("rq.share", share(&tr.rq), 1);
    report.set("dispatch.ctx_switches", tr.ctx_switches as f64, 1);
    report.set("plan.ns_per_sample", tr.plan.ns_per_op(), 1);
    report.set("plan.share", share(&tr.plan), 1);
    let attributed = [&tr.queue, &tr.icn, &tr.fabric, &tr.rq, &tr.plan];
    let residual = 1.0 - attributed.iter().map(|a| share(a)).sum::<f64>();
    report.set("sim.residual_share", residual, 1);
    report.set(
        "trace.overhead",
        tr.traced.as_secs_f64() / tr.untraced.as_secs_f64() - 1.0,
        1,
    );

    let mut extras = vec![
        ("untraced_run_s".to_string(), tr.untraced.as_secs_f64()),
        ("traced_run_s".to_string(), tr.traced.as_secs_f64()),
        ("invocations".to_string(), tr.invocations as f64),
    ];
    match &tr.rack {
        Some(rack) => {
            let run = rack.run.as_nanos() as f64;
            let node = rack.node_alone.as_nanos() as f64 / run;
            let queue =
                tr.queue.ns_per_op() * rack.events.saturating_sub(rack.alone_steps) as f64 / run;
            let fabric = tr.fabric.ns / run;
            report.set("rack.events", rack.events as f64, 1);
            report.set("rack.node_share", node, 1);
            report.set("rack.queue_share", queue, 1);
            report.set("rack.fabric_share", fabric, 1);
            report.set("rack.residual_share", 1.0 - node - queue - fabric, 1);
            report.set("rack.per_node_cost_ratio", rack.per_node_cost_ratio, 5);
            extras.extend([
                ("rack.setup_ms".to_string(), rack.setup.as_secs_f64() * 1e3),
                ("rack.run_s".to_string(), rack.run.as_secs_f64()),
                (
                    "rack.node_alone_ms".to_string(),
                    rack.node_alone.as_secs_f64() * 1e3,
                ),
                (
                    "rack.ns_per_event".to_string(),
                    run / rack.events.max(1) as f64,
                ),
                (
                    "rack.fleet_requests".to_string(),
                    rack.fleet_requests as f64,
                ),
            ]);
        }
        None => no_rack(report),
    }
    extras
}

/// Rack layer metrics of a workload without a rack.
fn no_rack(report: &mut Report) {
    for name in [
        "rack.events",
        "rack.node_share",
        "rack.queue_share",
        "rack.fabric_share",
        "rack.residual_share",
        "rack.per_node_cost_ratio",
    ] {
        report.set(name, 0.0, 0);
    }
}

/// Service-layer metrics of a workload that bypasses um-serve.
fn no_serve(report: &mut Report) {
    for name in [
        "serve.cache_hit_frac",
        "serve.polls_per_job",
        "serve.http_share",
        "serve.queue_share",
        "serve.sim_share",
        "gen.late_share",
    ] {
        report.set(name, 0.0, 0);
    }
}
