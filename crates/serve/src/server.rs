//! The HTTP front door: accept loop, routing, and the JSON answers for
//! each endpoint. One thread per connection — connections are short
//! (`Connection: close`) and the expensive work happens in the job
//! service's worker pool, not here.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use um_bench::benchjson::{obj, Json};
use um_bench::scenario;

use crate::http::{read_request, write_response, Request, Response};
use crate::service::{JobService, JobStatus, SubmitError};

/// How long one read or write on a connection may block. A peer that
/// sends part of a request and falls silent gets a 400 once a read times
/// out, instead of pinning its connection thread forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Binds the listener and runs the accept loop forever.
///
/// # Panics
///
/// Panics if the address cannot be bound.
pub fn serve(addr: &str, service: Arc<JobService>) -> ! {
    let listener = TcpListener::bind(addr).expect("bind service address");
    run(listener, service)
}

/// Spawns the accept loop on an already-bound listener and returns the
/// local address — the test harness binds port 0 and reads the port
/// back from here.
pub fn spawn(listener: TcpListener, service: Arc<JobService>) -> SocketAddr {
    let addr = listener.local_addr().expect("listener has a local address");
    thread::spawn(move || run(listener, service));
    addr
}

fn run(listener: TcpListener, service: Arc<JobService>) -> ! {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(&service);
                thread::spawn(move || handle_connection(stream, &service));
            }
            Err(_) => continue, // transient accept failures: keep serving
        }
    }
}

fn handle_connection(mut stream: TcpStream, service: &JobService) {
    let bounded = stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)));
    if bounded.is_err() {
        return; // a connection without timeouts could hold this thread forever
    }
    let response = match read_request(&stream) {
        Ok(req) => route(&req, service),
        Err(e) => error_json(400, &e),
    };
    // The peer may have gone away; nothing useful to do about it.
    let _ = write_response(&mut stream, &response);
}

fn route(req: &Request, service: &JobService) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(service),
        ("GET", ["registry"]) => registry(),
        ("POST", ["jobs"]) => submit(req, service),
        ("GET", ["jobs", id]) => job_status(service, id),
        ("GET", ["jobs", id, "result"]) => job_result(service, id, false),
        ("GET", ["jobs", id, "result", "text"]) => job_result(service, id, true),
        ("POST" | "GET", _) => error_json(404, &format!("no route for {}", req.path)),
        _ => error_json(405, &format!("method {} not allowed", req.method)),
    }
}

fn healthz(service: &JobService) -> Response {
    let stats = service.stats();
    Response::json(
        200,
        obj(vec![
            ("status", Json::Str("ok".to_string())),
            ("jobs", Json::Num(stats.jobs as f64)),
            ("simulations_run", Json::Num(stats.simulations_run as f64)),
            ("cache_hits", Json::Num(stats.cache_hits as f64)),
        ])
        .render(),
    )
}

fn registry() -> Response {
    let scenarios: Vec<Json> = scenario::registry::all()
        .iter()
        .map(scenario::Scenario::to_json)
        .collect();
    Response::json(200, obj(vec![("scenarios", Json::Arr(scenarios))]).render())
}

fn submit(req: &Request, service: &JobService) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error_json(400, "body is not valid UTF-8"),
    };
    match service.submit(body) {
        Ok(outcome) => Response::json(
            200,
            obj(vec![
                ("id", Json::Num(outcome.id as f64)),
                ("cached", Json::Bool(outcome.cached)),
                (
                    "status",
                    Json::Str(if outcome.cached { "done" } else { "queued" }.to_string()),
                ),
            ])
            .render(),
        ),
        Err(SubmitError::Invalid(e)) => error_json(400, &e),
        Err(SubmitError::QueueFull { retry_after_secs }) => {
            let mut r = error_json(429, "admission queue is full, retry later");
            r.extra_headers
                .push(("Retry-After".to_string(), retry_after_secs.to_string()));
            r
        }
    }
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

fn job_status(service: &JobService, raw_id: &str) -> Response {
    let Some(id) = parse_id(raw_id) else {
        return error_json(400, &format!("bad job id {raw_id:?}"));
    };
    let Some(status) = service.status(id) else {
        return error_json(404, &format!("no job {id}"));
    };
    let mut pairs = vec![("id", Json::Num(id as f64))];
    match status {
        JobStatus::Queued => pairs.push(("status", Json::Str("queued".to_string()))),
        JobStatus::Running { done, total } => {
            pairs.push(("status", Json::Str("running".to_string())));
            pairs.push(("done", Json::Num(done as f64)));
            pairs.push(("total", Json::Num(total as f64)));
        }
        JobStatus::Done { cached } => {
            pairs.push(("status", Json::Str("done".to_string())));
            pairs.push(("cached", Json::Bool(cached)));
        }
        JobStatus::Failed { error } => {
            pairs.push(("status", Json::Str("failed".to_string())));
            pairs.push(("error", Json::Str(error)));
        }
    }
    Response::json(200, obj(pairs).render())
}

fn job_result(service: &JobService, raw_id: &str, as_text: bool) -> Response {
    let Some(id) = parse_id(raw_id) else {
        return error_json(400, &format!("bad job id {raw_id:?}"));
    };
    let Some(status) = service.status(id) else {
        return error_json(404, &format!("no job {id}"));
    };
    match status {
        JobStatus::Done { .. } => {
            let result = service.result(id).expect("done jobs carry a result");
            if as_text {
                Response::text(200, result.text.clone())
            } else {
                Response::json(200, result.envelope.clone())
            }
        }
        JobStatus::Failed { error } => error_json(409, &format!("job {id} failed: {error}")),
        JobStatus::Queued | JobStatus::Running { .. } => {
            error_json(409, &format!("job {id} is not done yet"))
        }
    }
}

fn error_json(status: u16, message: &str) -> Response {
    Response::json(
        status,
        obj(vec![("error", Json::Str(message.to_string()))]).render(),
    )
}
