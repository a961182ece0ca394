//! End-to-end contract of the `repro-serve` daemon, exercised through
//! the real binary over real sockets.
//!
//! Covered here: the request lifecycle (admit → run → done) with the
//! resume command and trace-store stats surfaced by `GET /status`, warm
//! second requests reporting zero store misses, bounded admission
//! shedding with `429` + `Retry-After`, mid-campaign `DELETE` stopping
//! at a cell boundary with a campaign log a resume request then restores
//! from into its own log, abuse
//! resilience (malformed bodies, slow-loris, mid-body disconnects), a
//! mistyped trace-store mode refused before the daemon listens (exit 2),
//! and a clean SIGTERM drain (exit 0).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use sim_telemetry::json::{self, Json};
use sim_telemetry::{CampaignEvent, CampaignLog, CellOutcome, CellStatus};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A daemon under test: hermetic env, ephemeral port, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
    root: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The daemon command with a hermetic env rooted in `dir`, writing its
/// address to `<dir>/addr`.
fn daemon_command(dir: &Path, envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro-serve"));
    for var in [
        "REPRO_SCALE",
        "REPRO_TELEMETRY",
        "REPRO_TELEMETRY_DIR",
        "REPRO_FAULTS",
        "REPRO_RUN_ID",
        "REPRO_RESUME",
        "REPRO_JOURNAL_DIR",
        "REPRO_JOBS",
        "REPRO_RETRIES",
        "REPRO_DEADLINE_MS",
        "REPRO_BACKOFF_MS",
        "REPRO_TRACE_STORE",
        "REPRO_TRACE_STORE_DIR",
        "REPRO_SERVE_ADDR",
        "REPRO_SERVE_ADDR_FILE",
        "REPRO_SERVE_QUEUE",
        "REPRO_SERVE_CLIENTS",
        "REPRO_SERVE_ROOT",
        "REPRO_SERVE_READ_TIMEOUT_MS",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_SERVE_ADDR", "127.0.0.1:0")
        .env("REPRO_SERVE_ADDR_FILE", dir.join("addr"))
        .env("REPRO_SERVE_ROOT", dir.join("serve"))
        .env("REPRO_SERVE_READ_TIMEOUT_MS", "300")
        .env("REPRO_TRACE_STORE_DIR", dir.join("traces"))
        .env("REPRO_BACKOFF_MS", "1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd
}

fn spawn_daemon(tag: &str, envs: &[(&str, &str)]) -> Daemon {
    let dir = scratch(tag);
    let addr_file = dir.join("addr");
    let child = daemon_command(&dir, envs)
        .spawn()
        .expect("spawn repro-serve");
    let start = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if !text.trim().is_empty() {
                break text.trim().to_string();
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "daemon never wrote its address file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    Daemon {
        child,
        addr,
        root: dir,
    }
}

struct Reply {
    status: u16,
    headers: String,
    body: String,
}

/// One `Connection: close` exchange against the daemon.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let payload = body.unwrap_or("");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{payload}",
                payload.len()
            )
            .as_bytes(),
        )
        .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {:?}", text.get(..60)));
    let (headers, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    Reply {
        status,
        headers: headers.to_string(),
        body: body.to_string(),
    }
}

fn post_run(addr: &str, body: &str) -> Reply {
    http(addr, "POST", "/run", Some(body))
}

fn json_body(reply: &Reply) -> Json {
    json::parse(&reply.body)
        .unwrap_or_else(|e| panic!("response body is not JSON ({e}): {}", reply.body))
}

/// Polls `GET /status/<id>` until a terminal state; returns the final doc.
fn wait_terminal(addr: &str, id: &str) -> Json {
    let start = Instant::now();
    loop {
        let reply = http(addr, "GET", &format!("/status/{id}"), None);
        assert_eq!(reply.status, 200, "status poll: {}", reply.body);
        let doc = json_body(&reply);
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
        if matches!(state, "done" | "failed" | "cancelled") {
            return doc;
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "request {id} stuck in state {state}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn state_of(doc: &Json) -> &str {
    doc.get("state").and_then(Json::as_str).unwrap_or("?")
}

/// A request's campaign log, parsed.
fn request_log(root: &Path, id: &str) -> CampaignLog {
    let path = root
        .join("serve")
        .join(id)
        .join("journal")
        .join(format!("{id}.jsonl"));
    sim_telemetry::read_events(&path).unwrap_or_else(|e| panic!("read campaign log: {e}"))
}

/// Counts the cells a request's campaign log would restore: those whose
/// last outcome carries data.
fn journal_ok_cells(root: &Path, id: &str) -> usize {
    request_log(root, id)
        .last_outcomes()
        .values()
        .filter(|o| o.ok())
        .count()
}

#[test]
fn lifecycle_surfaces_resume_command_warm_store_and_drains_on_sigterm() {
    let daemon = spawn_daemon("lifecycle", &[("REPRO_JOBS", "2")]);
    let body = r#"{"experiment": "table2", "benchmarks": ["perl"], "scale": "quick", "seed": 1}"#;

    // Cold request: admitted, runs to done, and its status surfaces the
    // journal's resume command plus the manifest's trace_store section.
    let reply = post_run(&daemon.addr, body);
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = json_body(&reply)
        .get("id")
        .and_then(Json::as_str)
        .expect("202 carries an id")
        .to_string();
    let doc = wait_terminal(&daemon.addr, &id);
    assert_eq!(state_of(&doc), "done", "{doc:?}");
    let resume_cmd = doc
        .get("resume_command")
        .and_then(Json::as_str)
        .expect("status surfaces the journal resume command");
    assert!(
        resume_cmd.contains(&format!("REPRO_RESUME={id}")),
        "{resume_cmd}"
    );
    assert!(
        doc.get("trace_store").is_some(),
        "done status carries trace_store stats: {doc:?}"
    );
    let trace_id = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("status surfaces the correlation id");
    assert!(trace_id.starts_with("tr-"), "{trace_id}");

    // Warm request: the daemon's resident store replays every trace —
    // zero misses.
    let reply = post_run(&daemon.addr, body);
    assert_eq!(reply.status, 202);
    let id2 = json_body(&reply)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let doc = wait_terminal(&daemon.addr, &id2);
    assert_eq!(state_of(&doc), "done");
    let misses = doc
        .get("trace_store")
        .and_then(|t| t.get("misses"))
        .and_then(Json::as_u64);
    assert_eq!(misses, Some(0), "warm request must not regenerate: {doc:?}");

    // Telemetry reflects both requests, in Prometheus text exposition.
    let metrics = http(&daemon.addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .headers
            .to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "metrics must declare the exposition format version: {}",
        metrics.headers
    );
    let samples = sim_telemetry::check_prometheus_text(&metrics.body)
        .unwrap_or_else(|e| panic!("metrics fail the strict checker ({e}):\n{}", metrics.body));
    assert!(samples > 0, "metrics exposition is empty");
    assert!(
        metrics.body.lines().any(|l| l == "serve_requests_done 2"),
        "both requests must show as done:\n{}",
        metrics.body
    );
    for gauge in ["serve_queue_depth ", "serve_active_requests "] {
        assert!(
            metrics.body.lines().any(|l| l.starts_with(gauge)),
            "metrics must expose the {gauge}gauge:\n{}",
            metrics.body
        );
    }
    assert!(
        metrics
            .body
            .lines()
            .any(|l| l.starts_with("serve_request_wall_ms_bucket{le=\"")),
        "metrics must expose request-latency histogram buckets:\n{}",
        metrics.body
    );
    let health = json_body(&http(&daemon.addr, "GET", "/healthz", None));
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    // SIGTERM drains cleanly: exit 0.
    let mut daemon = daemon;
    let pid = daemon.child.id();
    assert!(Command::new("/bin/sh")
        .args(["-c", &format!("kill -TERM {pid}")])
        .status()
        .expect("send SIGTERM")
        .success());
    let start = Instant::now();
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("wait daemon") {
            break status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon ignored SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "drain must exit 0, got {status}");
}

#[test]
fn a_mistyped_trace_store_mode_stops_the_daemon_before_it_listens() {
    let dir = scratch("badstore");
    let mut child = daemon_command(&dir, &[("REPRO_TRACE_STORE", "sometimes")])
        .spawn()
        .expect("spawn repro-serve");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll repro-serve") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the daemon started despite REPRO_TRACE_STORE=sometimes");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("REPRO_TRACE_STORE"), "{stderr}");
    assert!(
        !dir.join("addr").exists(),
        "the daemon announced an address before failing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    // One worker and slow cells keep the first request running while
    // the second fills the single queue slot.
    let daemon = spawn_daemon(
        "shed",
        &[
            ("REPRO_JOBS", "1"),
            ("REPRO_SERVE_QUEUE", "1"),
            ("REPRO_FAULTS", "delay:table2/*:400"),
        ],
    );
    let body = r#"{"experiment": "table2", "benchmarks": ["perl"], "scale": "quick"}"#;

    let first = post_run(&daemon.addr, body);
    assert_eq!(first.status, 202, "{}", first.body);
    let id = json_body(&first)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    // Wait until it is dispatched so the queue slot is free again.
    let start = Instant::now();
    loop {
        let doc = json_body(&http(&daemon.addr, "GET", &format!("/status/{id}"), None));
        if state_of(&doc) != "queued" {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "never dispatched"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let second = post_run(&daemon.addr, body);
    assert_eq!(second.status, 202, "queue has room: {}", second.body);
    let third = post_run(&daemon.addr, body);
    assert_eq!(third.status, 429, "queue is full: {}", third.body);
    assert!(
        third.headers.to_ascii_lowercase().contains("retry-after:"),
        "429 must carry Retry-After: {}",
        third.headers
    );
}

#[test]
fn delete_stops_at_a_cell_boundary_and_resume_skips_journaled_cells() {
    // One worker + a per-cell delay serializes the campaign slowly
    // enough to cancel it mid-flight.
    let daemon = spawn_daemon(
        "cancel",
        &[("REPRO_JOBS", "1"), ("REPRO_FAULTS", "delay:table2/*:300")],
    );
    let body = r#"{"experiment": "table2",
                   "benchmarks": ["compress", "gcc", "go", "perl"],
                   "scale": "quick"}"#;

    let reply = post_run(&daemon.addr, body);
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = json_body(&reply)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Wait for at least one finished cell, then cancel.
    let start = Instant::now();
    loop {
        let doc = json_body(&http(&daemon.addr, "GET", &format!("/status/{id}"), None));
        let done = doc
            .get("progress")
            .and_then(|p| p.get("done"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if done >= 1 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "no cell ever finished: {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let del = http(&daemon.addr, "DELETE", &format!("/run/{id}"), None);
    assert_eq!(del.status, 200, "{}", del.body);

    let doc = wait_terminal(&daemon.addr, &id);
    assert_eq!(state_of(&doc), "cancelled", "{doc:?}");
    // Cell-boundary contract: at least one cell journaled ok, at least
    // one never ran (it would have taken 4 × 300ms to finish all four).
    let journaled = journal_ok_cells(&daemon.root, &id);
    assert!(
        (1..4).contains(&journaled),
        "expected a partial journal, got {journaled}/4 ok cells"
    );

    // Resume: a new request restores from that log and runs only the
    // rest.
    let resume_body = format!(
        r#"{{"experiment": "table2",
            "benchmarks": ["compress", "gcc", "go", "perl"],
            "scale": "quick", "resume": "{id}"}}"#
    );
    let reply = post_run(&daemon.addr, &resume_body);
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id2 = json_body(&reply)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let doc = wait_terminal(&daemon.addr, &id2);
    assert_eq!(state_of(&doc), "done", "{doc:?}");
    // The resumed request's own log holds all four cells, so it alone
    // serves status and any later resume; the prior log is untouched...
    assert_eq!(journal_ok_cells(&daemon.root, &id2), 4);
    assert_eq!(journal_ok_cells(&daemon.root, &id), journaled);
    // ...and it restored (not re-ran) the cells the prior log finished:
    // right after its start line come their `resumed` outcomes, data
    // included, under the prior request's trace id.
    let log = request_log(&daemon.root, &id2);
    let resumed: Vec<&CellOutcome> = log.entries[1..]
        .iter()
        .map_while(|e| match &e.event {
            CampaignEvent::CellFinished(o) if o.status == CellStatus::Resumed => Some(o),
            _ => None,
        })
        .collect();
    assert_eq!(resumed.len(), journaled, "{:?}", log.entries);
    assert!(resumed.iter().all(|o| o.data.is_some()));
    let trace_id = |log: &CampaignLog| match log.header() {
        Some(CampaignEvent::CampaignStarted { trace_id, .. }) => trace_id.clone(),
        other => panic!("no campaign-started: {other:?}"),
    };
    assert_eq!(trace_id(&log), trace_id(&request_log(&daemon.root, &id)));
    assert_eq!(
        doc.get("progress")
            .and_then(|p| p.get("done"))
            .and_then(Json::as_u64),
        Some(4),
        "GET /status folds the resumed request's own log: {doc:?}"
    );
}

#[test]
fn abuse_does_not_poison_the_daemon() {
    let daemon = spawn_daemon("abuse", &[("REPRO_JOBS", "2")]);

    // Operator errors are 4xx, not daemon state.
    assert_eq!(post_run(&daemon.addr, "{not json").status, 400);
    assert_eq!(
        post_run(&daemon.addr, r#"{"experiment": "no-such-table"}"#).status,
        400
    );
    assert_eq!(
        post_run(&daemon.addr, r#"{"experiment": "table2", "bogus_key": 1}"#).status,
        400
    );
    assert_eq!(
        http(&daemon.addr, "GET", "/status/req-99", None).status,
        404
    );
    assert_eq!(http(&daemon.addr, "GET", "/nonsense", None).status, 404);
    assert_eq!(
        http(&daemon.addr, "DELETE", "/status/req-1", None).status,
        405
    );

    // Slow-loris: trickle half a request line and stall. The daemon's
    // read timeout reclaims the connection (408 or a bare close).
    {
        let mut stream = TcpStream::connect(&daemon.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"POST /ru").unwrap();
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        let text = String::from_utf8_lossy(&buf);
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 408"),
            "slow-loris got: {text:?}"
        );
    }

    // Mid-body disconnect: announce a body, send a prefix, vanish.
    {
        let mut stream = TcpStream::connect(&daemon.addr).unwrap();
        stream
            .write_all(b"POST /run HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"exp")
            .unwrap();
        drop(stream);
    }
    std::thread::sleep(Duration::from_millis(100));

    // The daemon still serves real work.
    let health = json_body(&http(&daemon.addr, "GET", "/healthz", None));
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let reply = post_run(
        &daemon.addr,
        r#"{"experiment": "table2", "benchmarks": ["perl"], "scale": "quick"}"#,
    );
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = json_body(&reply)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(state_of(&wait_terminal(&daemon.addr, &id)), "done");
}
