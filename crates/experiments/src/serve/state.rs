//! Request lifecycle state for the `repro-serve` daemon.
//!
//! One [`Registry`] (a single mutex — the daemon's request rates are
//! human-scale, not hot-path) tracks every request from admission to its
//! terminal state, enforces the bounded admission queue that backs
//! 429 load-shedding, and picks the next runnable request with
//! per-client round-robin fairness so one chatty client cannot starve
//! the rest of the queue.

use crate::jobs::CancelToken;
use crate::runner::Scale;
use sim_telemetry::json::{obj, Json};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the unix epoch (0 if the clock is broken).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Where a request is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqState {
    /// Admitted, waiting for a scheduler slot.
    Queued,
    /// A campaign is executing its cells.
    Running,
    /// Every cell produced data.
    Done,
    /// The campaign finished but some cells failed, or setup failed.
    Failed,
    /// Cancelled (DELETE, dropped connection, deadline, or drain).
    Cancelled,
}

impl ReqState {
    /// The state's wire name.
    pub fn name(self) -> &'static str {
        match self {
            ReqState::Queued => "queued",
            ReqState::Running => "running",
            ReqState::Done => "done",
            ReqState::Failed => "failed",
            ReqState::Cancelled => "cancelled",
        }
    }

    /// Whether the request has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            ReqState::Done | ReqState::Failed | ReqState::Cancelled
        )
    }
}

/// What a `POST /run` body asked for, post-validation.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    /// Registry experiment name (`table2`).
    pub experiment: String,
    /// Benchmark labels to run (always non-empty; defaults to all).
    pub benchmarks: Vec<String>,
    /// Campaign scale.
    pub scale: Scale,
    /// Client identity for fair queuing (header or `"anon"`).
    pub client: String,
    /// Optional per-request wall-clock deadline.
    pub deadline_ms: Option<u64>,
    /// Prior request id whose campaign log this run restores from.
    pub resume: Option<String>,
    /// Client-supplied seed, echoed for provenance (cells themselves
    /// are deterministic; the seed tags the request, not the data).
    pub seed: Option<u64>,
}

/// One tracked request. Snapshots are cheap clones; the [`CancelToken`]
/// is shared with the running campaign, so cancelling a snapshot's
/// token cancels the real run.
#[derive(Clone, Debug)]
pub struct RequestEntry {
    /// Request id (`req-3`).
    pub id: String,
    /// What was asked for.
    pub spec: RequestSpec,
    /// Lifecycle state.
    pub state: ReqState,
    /// Terminal error detail, when `Failed`/`Cancelled`.
    pub error: Option<String>,
    /// Cooperative cancellation shared with the pool.
    pub cancel: CancelToken,
    /// Admission timestamp (unix ms).
    pub submitted_ms: u64,
    /// Dispatch timestamp (unix ms).
    pub started_ms: Option<u64>,
    /// Terminal timestamp (unix ms).
    pub finished_ms: Option<u64>,
    /// Total cells in the campaign.
    pub cells_total: usize,
    /// Cells finished ok so far / at the end.
    pub cells_ok: usize,
    /// Cells failed at the end.
    pub cells_failed: usize,
    /// This request's private results namespace.
    pub namespace: PathBuf,
}

impl RequestEntry {
    /// The status-endpoint JSON view (the campaign-log fields — live
    /// progress, trace id, resume command — are folded in by the server,
    /// which owns the log path).
    pub fn to_json(&self) -> Json {
        let mut fields = match obj([
            ("id", Json::from(self.id.as_str())),
            ("state", Json::from(self.state.name())),
            ("experiment", Json::from(self.spec.experiment.as_str())),
            (
                "benchmarks",
                Json::Arr(
                    self.spec
                        .benchmarks
                        .iter()
                        .map(|b| Json::from(b.as_str()))
                        .collect(),
                ),
            ),
            ("scale", Json::from(self.spec.scale.name())),
            ("client", Json::from(self.spec.client.as_str())),
            ("submitted_ms", Json::from(self.submitted_ms)),
            ("cells_total", Json::from(self.cells_total)),
            ("cells_ok", Json::from(self.cells_ok)),
            ("cells_failed", Json::from(self.cells_failed)),
            (
                "namespace",
                Json::from(self.namespace.display().to_string()),
            ),
        ]) {
            Json::Obj(fields) => fields,
            _ => unreachable!("obj builds an object"),
        };
        if let Some(t) = self.started_ms {
            fields.insert("started_ms".to_string(), Json::from(t));
        }
        if let Some(t) = self.finished_ms {
            fields.insert("finished_ms".to_string(), Json::from(t));
        }
        if let Some(e) = &self.error {
            fields.insert("error".to_string(), Json::from(e.as_str()));
        }
        if let Some(ms) = self.spec.deadline_ms {
            fields.insert("deadline_ms".to_string(), Json::from(ms));
        }
        if let Some(seed) = self.spec.seed {
            fields.insert("seed".to_string(), Json::from(seed));
        }
        if let Some(prior) = &self.spec.resume {
            fields.insert("resume".to_string(), Json::from(prior.as_str()));
        }
        Json::Obj(fields)
    }
}

/// Why admission refused a request.
#[derive(Debug, PartialEq, Eq)]
pub enum Shed {
    /// The daemon is draining after SIGTERM/SIGINT.
    Draining,
    /// The bounded admission queue is full (429 + `Retry-After`).
    QueueFull,
}

struct Inner {
    entries: BTreeMap<String, RequestEntry>,
    /// Admission queue per client, in client arrival order.
    queues: BTreeMap<String, VecDeque<String>>,
    /// Client round-robin order and cursor.
    clients: Vec<String>,
    cursor: usize,
    queued: usize,
    active: usize,
    draining: bool,
    seq: u64,
}

/// The daemon's request table. All methods take `&self`; one mutex
/// serializes every transition.
pub struct Registry {
    inner: Mutex<Inner>,
    queue_cap: usize,
}

impl Registry {
    /// A registry whose admission queue sheds beyond `queue_cap` queued
    /// (not yet running) requests.
    pub fn new(queue_cap: usize) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                queues: BTreeMap::new(),
                clients: Vec::new(),
                cursor: 0,
                queued: 0,
                active: 0,
                draining: false,
                seq: 0,
            }),
            queue_cap: queue_cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("serve registry lock")
    }

    /// Admits a request, or sheds it.
    pub fn submit(
        &self,
        spec: RequestSpec,
        namespace_root: &std::path::Path,
    ) -> Result<String, Shed> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(Shed::Draining);
        }
        if inner.queued >= self.queue_cap {
            return Err(Shed::QueueFull);
        }
        inner.seq += 1;
        let id = format!("req-{}", inner.seq);
        let client = spec.client.clone();
        let entry = RequestEntry {
            id: id.clone(),
            namespace: namespace_root.join(&id),
            spec,
            state: ReqState::Queued,
            error: None,
            cancel: CancelToken::new(),
            submitted_ms: unix_ms(),
            started_ms: None,
            finished_ms: None,
            cells_total: 0,
            cells_ok: 0,
            cells_failed: 0,
        };
        inner.entries.insert(id.clone(), entry);
        if !inner.clients.contains(&client) {
            inner.clients.push(client.clone());
        }
        inner
            .queues
            .entry(client)
            .or_default()
            .push_back(id.clone());
        inner.queued += 1;
        Ok(id)
    }

    /// Pops the next queued request round-robin across clients, skipping
    /// entries already cancelled while queued. Returns a snapshot and
    /// marks it `Running`.
    pub fn next_runnable(&self) -> Option<RequestEntry> {
        let mut inner = self.lock();
        let n = inner.clients.len();
        for step in 0..n {
            let idx = (inner.cursor + step) % n;
            let client = inner.clients[idx].clone();
            while let Some(id) = inner.queues.get_mut(&client).and_then(VecDeque::pop_front) {
                inner.queued -= 1;
                let entry = inner.entries.get_mut(&id).expect("queued id is tracked");
                if entry.state != ReqState::Queued {
                    // Cancelled while queued: already terminal, skip.
                    continue;
                }
                entry.state = ReqState::Running;
                entry.started_ms = Some(unix_ms());
                let snapshot = entry.clone();
                inner.active += 1;
                inner.cursor = (idx + 1) % n;
                return Some(snapshot);
            }
        }
        None
    }

    /// A snapshot of a request.
    pub fn get(&self, id: &str) -> Option<RequestEntry> {
        self.lock().entries.get(id).cloned()
    }

    /// Updates live cell counts while a campaign runs.
    pub fn set_cells(&self, id: &str, total: usize, ok: usize, failed: usize) {
        if let Some(e) = self.lock().entries.get_mut(id) {
            e.cells_total = total;
            e.cells_ok = ok;
            e.cells_failed = failed;
        }
    }

    /// Moves a running request to its terminal state.
    pub fn finish(&self, id: &str, state: ReqState, error: Option<String>) {
        debug_assert!(state.is_terminal());
        let mut inner = self.lock();
        if let Some(e) = inner.entries.get_mut(id) {
            if e.state == ReqState::Running {
                inner.active -= 1;
            }
            let e = inner.entries.get_mut(id).expect("just found");
            if e.state.is_terminal() {
                return;
            }
            e.state = state;
            e.error = error;
            e.finished_ms = Some(unix_ms());
        }
    }

    /// Cancels a request: queued requests become terminal immediately;
    /// running ones have their token tripped and become terminal when
    /// the campaign observes it. Returns false for unknown or already
    /// terminal requests.
    pub fn cancel(&self, id: &str, reason: &str) -> bool {
        let mut inner = self.lock();
        let Some(e) = inner.entries.get_mut(id) else {
            return false;
        };
        if e.state.is_terminal() {
            return false;
        }
        e.cancel.cancel(reason);
        if e.state == ReqState::Queued {
            e.state = ReqState::Cancelled;
            e.error = Some(reason.to_string());
            e.finished_ms = Some(unix_ms());
            // It stays in its client queue; next_runnable skips it.
        }
        true
    }

    /// Enters drain mode: admission refuses everything, queued requests
    /// are cancelled, running tokens are tripped so campaigns stop at
    /// the next cell boundary.
    pub fn begin_drain(&self, reason: &str) {
        let ids: Vec<String> = {
            let mut inner = self.lock();
            inner.draining = true;
            inner
                .entries
                .values()
                .filter(|e| !e.state.is_terminal())
                .map(|e| e.id.clone())
                .collect()
        };
        for id in ids {
            self.cancel(&id, reason);
        }
    }

    /// Whether drain mode has begun.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// `(queued, active)` request counts.
    pub fn counts(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.queued, inner.active)
    }

    /// Request counts per lifecycle state, for `GET /metrics`.
    pub fn state_counts(&self) -> Vec<(&'static str, usize)> {
        let inner = self.lock();
        let mut counts = [
            (ReqState::Queued, 0usize),
            (ReqState::Running, 0),
            (ReqState::Done, 0),
            (ReqState::Failed, 0),
            (ReqState::Cancelled, 0),
        ];
        for entry in inner.entries.values() {
            for (state, n) in &mut counts {
                if *state == entry.state {
                    *n += 1;
                }
            }
        }
        counts.into_iter().map(|(s, n)| (s.name(), n)).collect()
    }

    /// Ids of running requests whose per-request deadline has passed —
    /// the scheduler sweeps these and cancels them.
    pub fn deadline_overruns(&self, now_ms: u64) -> Vec<String> {
        self.lock()
            .entries
            .values()
            .filter(|e| e.state == ReqState::Running)
            .filter(|e| {
                matches!(
                    (e.spec.deadline_ms, e.started_ms),
                    (Some(limit), Some(started)) if now_ms.saturating_sub(started) > limit
                )
            })
            .map(|e| e.id.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn spec(client: &str) -> RequestSpec {
        RequestSpec {
            experiment: "table2".into(),
            benchmarks: vec!["perl".into()],
            scale: Scale::Quick,
            client: client.into(),
            deadline_ms: None,
            resume: None,
            seed: None,
        }
    }

    #[test]
    fn round_robin_interleaves_clients() {
        let reg = Registry::new(16);
        let root = Path::new("ns");
        // Client a floods; client b submits one late request.
        let a1 = reg.submit(spec("a"), root).unwrap();
        let a2 = reg.submit(spec("a"), root).unwrap();
        let a3 = reg.submit(spec("a"), root).unwrap();
        let b1 = reg.submit(spec("b"), root).unwrap();
        let order: Vec<String> = std::iter::from_fn(|| reg.next_runnable())
            .map(|e| e.id)
            .collect();
        // b1 runs second, not last: round-robin alternates clients.
        assert_eq!(order, vec![a1, b1, a2, a3]);
    }

    #[test]
    fn queue_cap_sheds_and_drain_refuses() {
        let reg = Registry::new(2);
        let root = Path::new("ns");
        reg.submit(spec("a"), root).unwrap();
        reg.submit(spec("a"), root).unwrap();
        assert_eq!(reg.submit(spec("b"), root), Err(Shed::QueueFull));
        // Dispatching one frees queue room.
        assert!(reg.next_runnable().is_some());
        reg.submit(spec("b"), root).unwrap();
        reg.begin_drain("server draining");
        assert_eq!(reg.submit(spec("b"), root), Err(Shed::Draining));
    }

    #[test]
    fn cancel_while_queued_is_terminal_and_skipped() {
        let reg = Registry::new(16);
        let root = Path::new("ns");
        let id1 = reg.submit(spec("a"), root).unwrap();
        let id2 = reg.submit(spec("a"), root).unwrap();
        assert!(reg.cancel(&id1, "operator DELETE"));
        assert!(!reg.cancel(&id1, "again"), "already terminal");
        let entry = reg.get(&id1).unwrap();
        assert_eq!(entry.state, ReqState::Cancelled);
        assert!(entry.cancel.is_cancelled());
        // The cancelled entry never dispatches.
        assert_eq!(reg.next_runnable().unwrap().id, id2);
        assert!(reg.next_runnable().is_none());
    }

    #[test]
    fn drain_cancels_queued_and_trips_running_tokens() {
        let reg = Registry::new(16);
        let root = Path::new("ns");
        let running = reg.submit(spec("a"), root).unwrap();
        let queued = reg.submit(spec("a"), root).unwrap();
        let dispatched = reg.next_runnable().unwrap();
        assert_eq!(dispatched.id, running);
        reg.begin_drain("server draining");
        assert_eq!(reg.get(&queued).unwrap().state, ReqState::Cancelled);
        // Running request is not force-terminated — its token trips and
        // the campaign stops at the next cell boundary.
        assert_eq!(reg.get(&running).unwrap().state, ReqState::Running);
        assert!(dispatched.cancel.is_cancelled());
        assert_eq!(dispatched.cancel.reason(), "server draining");
    }
}
