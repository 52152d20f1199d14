//! The job service: bounded admission, a worker pool, oneshot-style
//! completion handoff and a content-addressed result cache.
//!
//! Modeled on the request-manager/queue/ticket serving shape: admission
//! happens at submit time against a bounded `mpsc` channel (full queue →
//! the caller answers `429 Retry-After`), workers pull job ids off the
//! shared receiver, and completion is handed back through the job table
//! under a condvar — a synchronous stand-in for a oneshot channel that
//! pollers and blocking waiters share.
//!
//! Jobs are canonical [`um_bench::scenario`] documents. The cache key is
//! the canonical JSON byte string with the submission seed folded into
//! `scale.seed`, so two requests describe the same simulation exactly
//! when their keys are byte-equal — and then the second is served from
//! cache without re-simulating, byte-identical to the first.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;

use um_bench::benchjson::{obj, Json};
use um_bench::scenario::{self, check_keys, Field, Scenario, ScenarioOutput};

/// Service sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads simulating jobs. `0` accepts jobs but never runs
    /// them (deterministic admission tests).
    pub workers: usize,
    /// Bounded admission queue depth; submissions beyond it answer 429.
    pub queue_depth: usize,
    /// The `Retry-After` hint returned with 429, seconds.
    pub retry_after_secs: u64,
}

impl Default for ServiceConfig {
    /// `UM_THREADS` workers (available parallelism if unset) behind a
    /// 64-entry admission queue.
    fn default() -> Self {
        Self {
            workers: default_workers(),
            queue_depth: 64,
            retry_after_secs: 1,
        }
    }
}

/// The worker-pool size: `UM_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism (1 if unknown) — the
/// same contract the sweep runner uses.
pub fn default_workers() -> usize {
    std::env::var("UM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is simulating; `done` of `total` points finished.
    Running {
        /// Completed sweep points.
        done: usize,
        /// Total sweep points.
        total: usize,
    },
    /// Finished; the result is available.
    Done {
        /// Served from the result cache without re-simulating.
        cached: bool,
    },
    /// The scenario failed validation at run time (never expected for
    /// submissions, which validate on parse — kept for honesty).
    Failed {
        /// The validation message.
        error: String,
    },
}

/// A finished job's payload: the rendered benchjson envelope and the
/// legacy text table. Both are exactly what a direct `um-sweep` run of
/// the same scenario+seed produces.
#[derive(Debug)]
pub struct JobResult {
    /// The rendered JSON envelope (`bench`/`scale`/`points` for grid
    /// scenarios, `bench`/`scale`/`text` otherwise).
    pub envelope: String,
    /// The rendered text table.
    pub text: String,
}

/// Service counters for `/healthz` and the cache tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceStats {
    /// Jobs ever created (including cache hits).
    pub jobs: u64,
    /// Scenarios actually simulated (cache hits do not count).
    pub simulations_run: u64,
    /// Submissions served straight from the cache.
    pub cache_hits: u64,
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The document failed parsing or validation; the message names the
    /// offending field path (`400`).
    Invalid(String),
    /// The admission queue is full (`429` + `Retry-After`).
    QueueFull {
        /// Seconds the client should wait before retrying.
        retry_after_secs: u64,
    },
}

/// A successful submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubmitOutcome {
    /// The job id for `/jobs/<id>`.
    pub id: u64,
    /// The job was born done, served from the result cache.
    pub cached: bool,
}

struct Job {
    scenario: Scenario,
    status: JobStatus,
    result: Option<Arc<JobResult>>,
}

struct Inner {
    jobs: Mutex<BTreeMap<u64, Job>>,
    cache: Mutex<BTreeMap<String, Arc<JobResult>>>,
    next_id: AtomicU64,
    simulations_run: AtomicU64,
    cache_hits: AtomicU64,
    // Kept here (not in a worker) so `try_send` distinguishes Full from
    // Disconnected even with zero workers.
    rx: Mutex<Receiver<u64>>,
}

/// The job frontend: submit, poll, fetch.
pub struct JobService {
    inner: Arc<Inner>,
    tx: SyncSender<u64>,
    retry_after_secs: u64,
}

impl JobService {
    /// Starts the service and its worker pool.
    ///
    /// # Panics
    ///
    /// Panics on a zero queue depth (a rendezvous channel would turn
    /// every submission into a 429).
    pub fn new(config: ServiceConfig) -> Arc<JobService> {
        assert!(config.queue_depth >= 1, "queue_depth must be at least 1");
        let (tx, rx) = sync_channel(config.queue_depth);
        let inner = Arc::new(Inner {
            jobs: Mutex::new(BTreeMap::new()),
            cache: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            simulations_run: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            rx: Mutex::new(rx),
        });
        for _ in 0..config.workers {
            let inner = Arc::clone(&inner);
            thread::spawn(move || worker_loop(&inner));
        }
        Arc::new(JobService {
            inner,
            tx,
            retry_after_secs: config.retry_after_secs,
        })
    }

    /// Parses, validates and admits a submission: either a bare
    /// canonical scenario document or `{"scenario": {...}, "seed": N}`
    /// (the seed replaces `scale.seed` before canonicalization).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] with the offending field path, or
    /// [`SubmitError::QueueFull`] when admission control refuses.
    pub fn submit(&self, body: &str) -> Result<SubmitOutcome, SubmitError> {
        let s = parse_submission(body).map_err(SubmitError::Invalid)?;
        let key = s.to_json_text();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);

        // Cache hits bypass admission entirely: the job is born done.
        let hit = self
            .inner
            .cache
            .lock()
            .expect("cache lock")
            .get(&key)
            .cloned();
        if let Some(result) = hit {
            self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
            let mut jobs = self.inner.jobs.lock().expect("jobs lock");
            jobs.insert(
                id,
                Job {
                    scenario: s,
                    status: JobStatus::Done { cached: true },
                    result: Some(result),
                },
            );
            return Ok(SubmitOutcome { id, cached: true });
        }

        self.inner.jobs.lock().expect("jobs lock").insert(
            id,
            Job {
                scenario: s,
                status: JobStatus::Queued,
                result: None,
            },
        );
        match self.tx.try_send(id) {
            Ok(()) => Ok(SubmitOutcome { id, cached: false }),
            Err(TrySendError::Full(_)) => {
                self.inner.jobs.lock().expect("jobs lock").remove(&id);
                Err(SubmitError::QueueFull {
                    retry_after_secs: self.retry_after_secs,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("the service holds the receiver for its whole lifetime")
            }
        }
    }

    /// The job's current status, if the id exists.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.inner
            .jobs
            .lock()
            .expect("jobs lock")
            .get(&id)
            .map(|j| j.status.clone())
    }

    /// The job's result, once it is done.
    pub fn result(&self, id: u64) -> Option<Arc<JobResult>> {
        self.inner
            .jobs
            .lock()
            .expect("jobs lock")
            .get(&id)
            .and_then(|j| j.result.clone())
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            jobs: self.inner.next_id.load(Ordering::Relaxed) - 1,
            simulations_run: self.inner.simulations_run.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
        }
    }
}

/// The benchjson result envelope for a finished scenario: exactly the
/// document `um-sweep --json` writes for grid scenarios; other kinds
/// carry their rendered text instead of points.
pub fn result_envelope(name: &str, out: &ScenarioOutput) -> Json {
    let mut pairs = vec![
        ("bench", Json::Str(name.to_string())),
        // The scenario document fully specifies its horizons; the label
        // records the env preset, which the service never applies.
        ("scale", Json::Str("full".to_string())),
    ];
    match &out.points {
        Some(points) => pairs.push(("points", points.clone())),
        None => pairs.push(("text", Json::Str(out.text.clone()))),
    }
    obj(pairs)
}

fn parse_submission(body: &str) -> Result<Scenario, String> {
    let doc = Json::parse(body)?;
    if doc.get("scenario").is_none() {
        return Scenario::from_json(&doc);
    }
    check_keys(&doc, "submission", &["scenario", "seed"])?;
    let mut s = Scenario::from_json(doc.get("scenario").expect("checked above"))?;
    if let Some(seed) = doc.get("seed") {
        s.scale.seed = u64::read(seed, "submission.seed")?;
        s.validate()?;
    }
    Ok(s)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        // Hold the receiver lock only while dequeuing; siblings block
        // here, not during simulation.
        let id = match inner.rx.lock().expect("receiver lock").recv() {
            Ok(id) => id,
            Err(_) => return, // service dropped
        };
        run_job(inner, id);
    }
}

fn run_job(inner: &Arc<Inner>, id: u64) {
    let scenario = {
        let mut jobs = inner.jobs.lock().expect("jobs lock");
        let job = jobs.get_mut(&id).expect("admitted job exists");
        let total = job
            .scenario
            .expand()
            .map(|points| points.len())
            .unwrap_or(0);
        job.status = JobStatus::Running { done: 0, total };
        job.scenario.clone()
    };
    let key = scenario.to_json_text();
    let on_progress = |done: usize, total_points: usize| {
        let mut jobs = inner.jobs.lock().expect("jobs lock");
        if let Some(job) = jobs.get_mut(&id) {
            // Completions race; never report progress backwards.
            let prev = match job.status {
                JobStatus::Running { done, .. } => done,
                _ => 0,
            };
            if done > prev {
                job.status = JobStatus::Running {
                    done,
                    total: total_points,
                };
            }
        }
    };
    let outcome = scenario::run_with_progress(&scenario, &on_progress);
    let mut jobs = inner.jobs.lock().expect("jobs lock");
    let job = jobs.get_mut(&id).expect("admitted job exists");
    match outcome {
        Ok(out) => {
            inner.simulations_run.fetch_add(1, Ordering::Relaxed);
            let result = Arc::new(JobResult {
                envelope: result_envelope(&scenario.name, &out).render(),
                text: out.text,
            });
            inner
                .cache
                .lock()
                .expect("cache lock")
                .insert(key, Arc::clone(&result));
            job.status = JobStatus::Done { cached: false };
            job.result = Some(result);
        }
        Err(error) => {
            job.status = JobStatus::Failed { error };
        }
    }
}
