//! The `repro-serve` daemon: campaign execution behind HTTP.
//!
//! One process owns the trace store, the telemetry manifests, and a
//! bounded pool of worker slots; clients submit experiment requests
//! over HTTP and poll (or stream) their progress. The robustness
//! contract, end to end:
//!
//! * **Bounded admission.** At most `REPRO_SERVE_QUEUE` requests wait;
//!   beyond that `POST /run` sheds with `429` + `Retry-After` instead
//!   of letting latency grow without bound.
//! * **Fairness.** Dispatch is round-robin across client identities, so
//!   one flooding client cannot starve the others.
//! * **Cooperative cancellation.** `DELETE /run/<id>`, a dropped
//!   `GET /progress` stream (with `?cancel=1`), a per-request deadline, and
//!   daemon drain all trip the same
//!   [`CancelToken`](crate::jobs::pool::CancelToken); the pool stops at
//!   the next cell boundary, logging every finished cell so a resume
//!   skips them.
//! * **Isolation.** Every request gets its own namespace
//!   `<root>/<req-id>/{journal,telemetry}` and its own telemetry
//!   session; the only shared mutable state is the trace store, which
//!   is single-writer record-on-miss.
//! * **One mechanism.** A request runs through the same driver core as
//!   the batch binaries (`jobs::cli::drive_plan`); its campaign log is the
//!   source of `GET /status`'s live view and of `GET /progress`.
//! * **Graceful drain.** SIGTERM/SIGINT stop admission, cancel queued
//!   work, let in-flight cells finish and log, flush manifests, and
//!   exit 0.

use super::http::{read_request, HttpError, Request, Response};
use super::signal;
use super::state::{unix_ms, Registry, ReqState, RequestEntry, RequestSpec, Shed};
use crate::jobs::cli::{self, CampaignPlan, LogSource};
use crate::jobs::journal::journal_path;
use crate::jobs::pool::CellTask;
use crate::jobs::{cell_id, faults, registry, RunControls, WorkerSlots};
use crate::knobs::Knobs;
use crate::runner::Scale;
use crate::telemetry;
use sim_telemetry::json::{obj, Json};
use sim_telemetry::{read_events, MetricsRegistry, ProfMode, TelemetryConfig, TelemetryMode};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the daemon is wired up: the `REPRO_SERVE_*` knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`REPRO_SERVE_ADDR`; port `0` binds ephemerally and
    /// prints the chosen port).
    pub addr: String,
    /// Bounded admission queue depth (`REPRO_SERVE_QUEUE`).
    pub queue: usize,
    /// Maximum concurrent client connections (`REPRO_SERVE_CLIENTS`);
    /// excess connections get an immediate 503.
    pub max_conns: usize,
    /// Per-request namespace root (`REPRO_SERVE_ROOT`).
    pub root: PathBuf,
    /// Socket read timeout — the slow-loris bound
    /// (`REPRO_SERVE_READ_TIMEOUT_MS`).
    pub read_timeout: Duration,
    /// Where the bound address is written once listening
    /// (`REPRO_SERVE_ADDR_FILE`): soak harnesses bind port 0 and
    /// discover the port there.
    pub addr_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7877".into(),
            queue: 16,
            max_conns: 32,
            root: PathBuf::from("results/serve"),
            read_timeout: Duration::from_millis(2000),
            addr_file: None,
        }
    }
}

/// Shared server state behind the connection and scheduler threads.
struct Server {
    knobs: Knobs,
    registry: Registry,
    metrics: MetricsRegistry,
    slots: WorkerSlots,
    started: Instant,
}

/// Runs the daemon until a shutdown signal drains it. Returns the
/// process exit code (0 on a clean drain). Besides [`Knobs::serve`], the
/// daemon takes the pool knobs (shared by every request) and the
/// trace-export format every campaign writes into its request namespace.
pub fn serve(knobs: &Knobs) -> Result<i32, String> {
    let config = &knobs.serve;
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;

    // Faults are process-global: install the plan once for the daemon's
    // lifetime so every request sees the same (deterministic) plan, and
    // per-request state can never leak through the fault layer.
    let _faults = faults::install(knobs.runner.faults.clone());
    signal::install_shutdown_handler();

    println!(
        "repro-serve listening on {local} (queue {}, clients {}, workers {}, root {})",
        config.queue,
        config.max_conns,
        knobs.runner.workers,
        config.root.display()
    );
    if let Some(path) = &config.addr_file {
        std::fs::write(path, local.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let server = Arc::new(Server {
        registry: Registry::new(config.queue),
        metrics: MetricsRegistry::new(),
        slots: WorkerSlots::new(knobs.runner.workers),
        started: Instant::now(),
        knobs: knobs.clone(),
    });

    let scheduler = {
        let server = Arc::clone(&server);
        std::thread::Builder::new()
            .name("repro-serve-sched".into())
            .spawn(move || scheduler_loop(&server))
            .map_err(|e| format!("cannot spawn scheduler: {e}"))?
    };

    let open_conns = Arc::new(AtomicUsize::new(0));
    while !signal::shutdown_requested() {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                server.metrics.counter("serve.connections").inc();
                if open_conns.load(Ordering::SeqCst) >= server.knobs.serve.max_conns {
                    server.metrics.counter("serve.shed_503").inc();
                    let _ = Response::error(503, "connection limit reached")
                        .with_header("Connection", "close")
                        .write_to(&mut stream);
                    continue;
                }
                // The accepted socket inherits nonblocking on some
                // platforms; handlers want blocking reads with a timeout.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(server.knobs.serve.read_timeout));
                open_conns.fetch_add(1, Ordering::SeqCst);
                let server = Arc::clone(&server);
                let open = Arc::clone(&open_conns);
                let spawned = std::thread::Builder::new()
                    .name("repro-serve-conn".into())
                    .spawn(move || {
                        handle_connection(&server, stream);
                        open.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    open_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }

    println!("repro-serve: shutdown signal received; draining");
    scheduler
        .join()
        .map_err(|_| "scheduler panicked".to_string())?;
    let (queued, active) = server.registry.counts();
    println!("repro-serve: drained (queued {queued}, active {active}); exiting");
    Ok(0)
}

/// Dispatch, deadline sweep, and drain. Campaigns run on their own
/// threads; the registry's active count is the drain barrier.
fn scheduler_loop(server: &Arc<Server>) {
    loop {
        if signal::shutdown_requested() && !server.registry.draining() {
            server.registry.begin_drain("server draining");
        }
        for id in server.registry.deadline_overruns(unix_ms()) {
            server.registry.cancel(&id, "deadline exceeded");
        }
        if !server.registry.draining() {
            while server.registry.counts().1 < server.slots.capacity() {
                let Some(entry) = server.registry.next_runnable() else {
                    break;
                };
                let server = Arc::clone(server);
                let spawn = std::thread::Builder::new()
                    .name(format!("repro-serve-{}", entry.id))
                    .spawn(move || run_request(&server, entry));
                if let Err(e) = spawn {
                    eprintln!("repro-serve: cannot spawn campaign thread: {e}");
                    break;
                }
            }
        }
        if server.registry.draining() && server.registry.counts() == (0, 0) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Executes one admitted request as a campaign in its own namespace,
/// through the batch binaries' driver core.
fn run_request(server: &Arc<Server>, entry: RequestEntry) {
    let started = Instant::now();
    let fail = |why: String| {
        server.metrics.counter("serve.failed").inc();
        server
            .registry
            .finish(&entry.id, ReqState::Failed, Some(why));
    };
    let Some(def) = registry::find(&entry.spec.experiment) else {
        return fail(format!("experiment {:?} vanished", entry.spec.experiment));
    };
    let scale = entry.spec.scale;
    let ns = entry.namespace.clone();

    // A private telemetry session per request: its manifest and counters
    // can never alias another request's.
    let session = telemetry::session_with_config(
        def.name,
        scale,
        TelemetryConfig {
            mode: TelemetryMode::Summary,
            prof: ProfMode::Off,
            dir: ns.join("telemetry"),
            progress_tick: Duration::from_millis(500),
            trace_export: server.knobs.telemetry.trace_export,
            traceviz_dir: ns.join("traceviz"),
        },
    );
    let ctx = session.ctx();

    let labels: Vec<&'static str> = (def.labels)()
        .into_iter()
        .filter(|l| entry.spec.benchmarks.iter().any(|b| b == l))
        .collect();
    let tasks: Vec<CellTask> = labels
        .iter()
        .map(|&label| {
            let ctx = ctx.clone();
            let cell = def.cell;
            CellTask::new(cell_id(def.name, label), move || cell(&ctx, label, scale))
        })
        .collect();
    let total = tasks.len();
    server.registry.set_cells(&entry.id, total, 0, 0);

    // Every request logs in its own namespace; a resumed one restores
    // from the prior request's log (and keeps its trace id).
    let source = match &entry.spec.resume {
        Some(prior) => match server.registry.get(prior) {
            Some(p) => LogSource::RestoreFrom(p.namespace.join("journal"), prior.clone()),
            None => return fail(format!("resume target {prior:?} vanished")),
        },
        None => LogSource::Fresh,
    };
    let plan = CampaignPlan {
        run_id: entry.id.clone(),
        source,
        controls: RunControls {
            cancel: Some(entry.cancel.clone()),
            slots: Some(server.slots.clone()),
        },
        knobs: Knobs {
            scale,
            journal_dir: ns.join("journal"),
            runner: server.knobs.runner.clone(),
            ..Knobs::default()
        },
    };
    let outcome = match cli::drive_plan(def.name, &session, tasks, plan) {
        Ok(driven) => driven.outcome,
        Err(e) => return fail(e),
    };

    let failed = outcome.failures().count();
    let done = outcome.reports.len() - failed;
    server
        .metrics
        .histogram("serve.request_wall_ms")
        .record(started.elapsed().as_millis() as u64);
    for report in &outcome.reports {
        server
            .metrics
            .histogram("serve.cell_wall_ms")
            .record(report.wall_ms);
    }
    server.registry.set_cells(&entry.id, total, done, failed);

    // Drop the session *before* the terminal state so a client that
    // sees `done` can immediately read the manifest (trace_store stats
    // included).
    drop(session);

    if outcome.cancelled {
        server.metrics.counter("serve.cancelled").inc();
        let reason = entry.cancel.reason();
        server.registry.finish(
            &entry.id,
            ReqState::Cancelled,
            Some(if reason.is_empty() {
                "cancelled".into()
            } else {
                reason
            }),
        );
    } else if failed > 0 {
        fail(format!("{failed} of {total} cells failed after retries"));
    } else {
        server.metrics.counter("serve.completed").inc();
        server.registry.finish(&entry.id, ReqState::Done, None);
    }
}

/// A request's campaign log.
fn log_path(entry: &RequestEntry) -> PathBuf {
    journal_path(&entry.namespace.join("journal"), &entry.id)
}

/// One connection: keep-alive request loop with typed error handling.
fn handle_connection(server: &Arc<Server>, mut stream: TcpStream) {
    loop {
        match read_request(&mut stream) {
            Ok(req) => {
                server.metrics.counter("serve.requests").inc();
                if req.method == "GET" && req.path.starts_with("/progress/") {
                    stream_progress(server, &req, &mut stream);
                    return;
                }
                let response = route(server, &req);
                let close = req.wants_close();
                if response.write_to(&mut stream).is_err() {
                    return;
                }
                if close {
                    return;
                }
            }
            // Idle keep-alive connections time out or close quietly.
            Err(HttpError::Closed) | Err(HttpError::Timeout { mid_request: false }) => return,
            Err(HttpError::Timeout { mid_request: true }) => {
                // Slow-loris: a request started trickling in and stalled.
                server.metrics.counter("serve.http_errors").inc();
                let _ = Response::error(408, "request timed out")
                    .with_header("Connection", "close")
                    .write_to(&mut stream);
                return;
            }
            Err(HttpError::Disconnected) | Err(HttpError::Io(_)) => {
                server.metrics.counter("serve.http_errors").inc();
                return;
            }
            Err(err @ (HttpError::Malformed(_) | HttpError::TooLarge(_))) => {
                server.metrics.counter("serve.http_errors").inc();
                let _ = Response::error(400, &err.to_string())
                    .with_header("Connection", "close")
                    .write_to(&mut stream);
                return;
            }
        }
    }
}

fn route(server: &Arc<Server>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(server),
        ("GET", "/metrics") => metrics(server),
        ("POST", "/run") => submit(server, req),
        (method, path) => {
            if let Some(id) = path.strip_prefix("/status/") {
                if method == "GET" {
                    return status(server, id);
                }
                return Response::error(405, "status supports GET");
            }
            if let Some(id) = path.strip_prefix("/run/") {
                if method == "DELETE" {
                    return cancel(server, id);
                }
                return Response::error(405, "per-request /run supports DELETE");
            }
            if path == "/run" || path == "/healthz" || path == "/metrics" {
                return Response::error(405, "method not allowed");
            }
            Response::error(404, "unknown endpoint")
        }
    }
}

fn healthz(server: &Arc<Server>) -> Response {
    let (queued, active) = server.registry.counts();
    Response::json(
        200,
        &obj([
            (
                "status",
                Json::from(if server.registry.draining() {
                    "draining"
                } else {
                    "ok"
                }),
            ),
            ("queued", Json::from(queued)),
            ("active", Json::from(active)),
        ]),
    )
}

/// `GET /metrics`: Prometheus text exposition format 0.0.4. Gauges are
/// refreshed from the registry at scrape time so the snapshot is
/// consistent with what `/healthz` would report at the same instant.
fn metrics(server: &Arc<Server>) -> Response {
    let (queued, active) = server.registry.counts();
    server.metrics.gauge("serve.queue_depth").set(queued as u64);
    server
        .metrics
        .gauge("serve.active_requests")
        .set(active as u64);
    server
        .metrics
        .gauge("serve.worker_slots")
        .set(server.slots.capacity() as u64);
    server
        .metrics
        .gauge("serve.draining")
        .set(u64::from(server.registry.draining()));
    server
        .metrics
        .gauge("serve.uptime_ms")
        .set(server.started.elapsed().as_millis() as u64);
    for (state, n) in server.registry.state_counts() {
        server
            .metrics
            .gauge(&format!("serve.requests_{state}"))
            .set(n as u64);
    }
    Response::prometheus(&server.metrics.snapshot().to_prometheus_text())
}

/// Parses and validates a `POST /run` body. Strict on principle: an
/// unknown key is a client bug the daemon refuses to guess around.
fn parse_spec(server: &Arc<Server>, req: &Request) -> Result<RequestSpec, String> {
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    let body = sim_telemetry::json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let Json::Obj(fields) = body else {
        return Err("body must be a JSON object".into());
    };

    let mut spec = RequestSpec {
        experiment: String::new(),
        benchmarks: Vec::new(),
        scale: Scale::Quick,
        client: String::new(),
        deadline_ms: None,
        resume: None,
        seed: None,
    };
    for (key, value) in &fields {
        match key.as_str() {
            "experiment" => {
                spec.experiment = value
                    .as_str()
                    .ok_or("experiment must be a string")?
                    .to_string();
            }
            "benchmarks" => match value {
                Json::Arr(items) => {
                    for item in items {
                        spec.benchmarks.push(
                            item.as_str()
                                .ok_or("benchmarks must be strings")?
                                .to_string(),
                        );
                    }
                }
                _ => return Err("benchmarks must be an array".into()),
            },
            "scale" => {
                spec.scale = Scale::parse(value.as_str().ok_or("scale must be a string")?)?;
            }
            "client" => {
                spec.client = value.as_str().ok_or("client must be a string")?.to_string();
            }
            "deadline_ms" => {
                spec.deadline_ms = Some(value.as_u64().ok_or("deadline_ms must be an integer")?);
            }
            "resume" => {
                spec.resume = Some(value.as_str().ok_or("resume must be a string")?.to_string());
            }
            "seed" => {
                spec.seed = Some(value.as_u64().ok_or("seed must be an integer")?);
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }

    if spec.experiment.is_empty() {
        return Err("missing required key \"experiment\"".into());
    }
    let def = registry::find(&spec.experiment)
        .ok_or_else(|| format!("unknown experiment {:?}", spec.experiment))?;
    let labels = (def.labels)();
    if spec.benchmarks.is_empty() {
        spec.benchmarks = labels.iter().map(|l| l.to_string()).collect();
    } else {
        for bench in &spec.benchmarks {
            if !labels.contains(&bench.as_str()) {
                return Err(format!(
                    "experiment {:?} has no benchmark {bench:?} (has: {})",
                    spec.experiment,
                    labels.join(", ")
                ));
            }
        }
    }
    if spec.client.is_empty() {
        spec.client = req.header("x-client").unwrap_or("anon").to_string();
    }
    if let Some(prior_id) = &spec.resume {
        let prior = server
            .registry
            .get(prior_id)
            .ok_or_else(|| format!("resume target {prior_id:?} is unknown"))?;
        if !prior.state.is_terminal() {
            return Err(format!(
                "resume target {prior_id:?} is still {}",
                prior.state.name()
            ));
        }
        if prior.spec.experiment != spec.experiment || prior.spec.scale != spec.scale {
            return Err(format!(
                "resume target {prior_id:?} ran {}@{}, not {}@{}",
                prior.spec.experiment,
                prior.spec.scale.name(),
                spec.experiment,
                spec.scale.name()
            ));
        }
    }
    Ok(spec)
}

fn submit(server: &Arc<Server>, req: &Request) -> Response {
    let spec = match parse_spec(server, req) {
        Ok(spec) => spec,
        Err(why) => return Response::error(400, &why),
    };
    match server.registry.submit(spec, &server.knobs.serve.root) {
        Ok(id) => {
            server.metrics.counter("serve.admitted").inc();
            Response::json(
                202,
                &obj([
                    ("id", Json::from(id.as_str())),
                    ("state", Json::from("queued")),
                    ("status", Json::from(format!("/status/{id}"))),
                    ("progress", Json::from(format!("/progress/{id}"))),
                ]),
            )
        }
        Err(Shed::QueueFull) => {
            server.metrics.counter("serve.shed_429").inc();
            Response::error(429, "admission queue full").with_header("Retry-After", "1")
        }
        Err(Shed::Draining) => {
            server.metrics.counter("serve.shed_503").inc();
            Response::error(503, "server is draining").with_header("Retry-After", "5")
        }
    }
}

fn status(server: &Arc<Server>, id: &str) -> Response {
    let Some(entry) = server.registry.get(id) else {
        return Response::error(404, &format!("unknown request {id:?}"));
    };
    let mut fields = match entry.to_json() {
        Json::Obj(fields) => fields,
        _ => unreachable!("entry view is an object"),
    };
    // Live view: fold the request's own campaign log, which also
    // carries the trace id and the resume command.
    if let Ok(log) = read_events(&log_path(&entry)) {
        let status = crate::watch::CampaignStatus::from_log(&log);
        if !status.trace_id.is_empty() {
            fields.insert("trace_id".to_string(), Json::from(status.trace_id.as_str()));
        }
        if let Some(cmd) = &status.resume_command {
            fields.insert("resume_command".to_string(), Json::from(cmd.as_str()));
        }
        fields.insert("progress".to_string(), status.to_json());
    }
    // Terminal view: the manifest carries the trace-store section that
    // proves warm requests took the read path (`"misses": 0`).
    if entry.state.is_terminal() {
        let manifest = entry
            .namespace
            .join("telemetry")
            .join(format!("{}.manifest.json", entry.spec.experiment));
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if let Ok(doc) = sim_telemetry::json::parse(&text) {
                if let Some(ts) = doc.get("trace_store") {
                    fields.insert("trace_store".to_string(), ts.clone());
                }
            }
            fields.insert(
                "manifest".to_string(),
                Json::from(manifest.display().to_string()),
            );
        }
    }
    Response::json(200, &Json::Obj(fields))
}

fn cancel(server: &Arc<Server>, id: &str) -> Response {
    let Some(before) = server.registry.get(id) else {
        return Response::error(404, &format!("unknown request {id:?}"));
    };
    if !server.registry.cancel(id, "operator DELETE") {
        return Response::json(
            409,
            &obj([
                ("error", Json::from("already terminal")),
                ("id", Json::from(id)),
                ("state", Json::from(before.state.name())),
            ]),
        );
    }
    let after = server.registry.get(id).expect("entry persists");
    if after.state == ReqState::Cancelled {
        // Cancelled while still queued: terminal immediately.
        server.metrics.counter("serve.cancelled").inc();
    }
    Response::json(
        200,
        &obj([
            ("id", Json::from(id)),
            ("state", Json::from(after.state.name())),
            ("cancelling", Json::from(after.state == ReqState::Running)),
        ]),
    )
}

/// Streams the request's campaign log until it reaches a terminal
/// state; close-delimited (`Connection: close`). A client that vanishes
/// mid-stream is detected on the next write; with `?cancel=1` that
/// dropped connection cancels the request — "watching it" becomes the
/// lease that keeps it running.
fn stream_progress(server: &Arc<Server>, req: &Request, stream: &mut TcpStream) {
    let id = req.path.strip_prefix("/progress/").unwrap_or("");
    let Some(entry) = server.registry.get(id) else {
        let _ = Response::error(404, &format!("unknown request {id:?}"))
            .with_header("Connection", "close")
            .write_to(stream);
        return;
    };
    let cancel_on_drop = req
        .query
        .as_deref()
        .is_some_and(|q| q.split('&').any(|kv| kv == "cancel=1"));
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let path = log_path(&entry);
    let mut offset: u64 = 0;
    loop {
        let chunk = read_from(&path, offset);
        if !chunk.is_empty() {
            offset += chunk.len() as u64;
            if stream.write_all(&chunk).is_err() || stream.flush().is_err() {
                if cancel_on_drop {
                    server.registry.cancel(id, "progress client disconnected");
                }
                return;
            }
        }
        let now = server.registry.get(id).expect("entry persists");
        if now.state.is_terminal() && chunk.is_empty() {
            // Drained the log past the terminal transition.
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// New bytes past `offset`, or empty when the file is missing/short.
fn read_from(path: &std::path::Path, offset: u64) -> Vec<u8> {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut file) = std::fs::File::open(path) else {
        return Vec::new();
    };
    if file.seek(SeekFrom::Start(offset)).is_err() {
        return Vec::new();
    }
    let mut buf = Vec::new();
    let _ = file.read_to_end(&mut buf);
    buf
}
