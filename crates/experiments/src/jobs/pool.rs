//! The fault-tolerant worker pool: panic isolation, deadlines, retry,
//! cancellation, and multi-campaign scheduling.
//!
//! [`run_campaign`] executes a list of [`CellTask`]s on `REPRO_JOBS`
//! worker threads. Every attempt runs inside `catch_unwind` on its own
//! named thread, so a panicking cell is contained and reported rather
//! than tearing the campaign down. The single-threaded scheduler tracks
//! a per-attempt deadline inline (waking on `recv_timeout`) — Rust
//! threads cannot be killed, so a timed-out attempt is *detached* (its
//! eventual result is discarded by an attempt-id staleness check) and
//! the cell is retried or failed. Failed attempts retry with jittered
//! exponential backoff up to `REPRO_RETRIES` total attempts; a cell
//! that exhausts them becomes an `Err` report, never an abort.
//!
//! The scheduler is the campaign log's only writer: every lifecycle
//! event — campaign start and end, each attempt's start and failure,
//! each cell's final outcome, and the heartbeat it writes on its own
//! tick — goes through one call path into the [`Journal`]. Final
//! outcomes are fsynced the moment they resolve, which is what makes a
//! `kill -9` resumable.
//!
//! Two optional [`RunControls`] make the pool embeddable in a resident
//! daemon ([`crate::serve`]): a [`CancelToken`] stops the campaign at
//! the next cell boundary (in-flight cells finish and are logged;
//! pending cells are logged and reported as `cancelled` errors, so a
//! resumed run re-executes exactly those), and shared [`WorkerSlots`]
//! bound the total attempts in flight across many concurrent campaigns
//! in one process.

use super::faults::FaultPlan;
use super::journal::Journal;
use super::CellData;
use crate::telemetry::TelemetryCtx;
use sim_telemetry::{CampaignEvent, CellOutcome, CellStatus, SampleRow};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// How often the scheduler wakes up even without messages, to poll the
/// cancellation token, re-try shared-slot acquisition, sweep expired
/// deadlines, and write due heartbeats. Bounds cancellation latency for
/// idle campaigns.
const SCHED_POLL: Duration = Duration::from_millis(25);

/// One schedulable unit of work: a cell id plus the computation that
/// produces its data. The closure is re-invoked on every retry attempt.
#[derive(Clone)]
pub struct CellTask {
    /// Cell id (`table4/perl`).
    pub id: String,
    work: Arc<dyn Fn() -> CellData + Send + Sync>,
}

impl CellTask {
    /// Wraps a computation as a cell task.
    pub fn new(
        id: impl Into<String>,
        work: impl Fn() -> CellData + Send + Sync + 'static,
    ) -> CellTask {
        CellTask {
            id: id.into(),
            work: Arc::new(work),
        }
    }
}

/// Pool configuration; the binaries take it from the `REPRO_*` knobs
/// ([`crate::knobs`]).
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Concurrent workers (`REPRO_JOBS`, default 1: deterministic order).
    pub workers: usize,
    /// Total attempts per cell (`REPRO_RETRIES`, default 3).
    pub attempts: u32,
    /// Per-cell deadline (`REPRO_DEADLINE_MS`, default 600000).
    pub deadline: Duration,
    /// First retry delay; doubles per retry (`REPRO_BACKOFF_MS`, default 100).
    pub backoff: Duration,
    /// Deterministic fault plan (`REPRO_FAULTS`, default none).
    pub faults: FaultPlan,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            workers: 1,
            attempts: 3,
            deadline: Duration::from_millis(600_000),
            backoff: Duration::from_millis(100),
            faults: FaultPlan::none(),
        }
    }
}

/// A cooperative cancellation flag shared between a campaign and
/// whoever may want to stop it (a `DELETE /run` handler, a drain path,
/// a deadline enforcer). Cancellation is observed at cell boundaries:
/// the scheduler stops launching attempts, lets in-flight cells finish
/// (logging their outcomes as usual), and reports every cell that never
/// resolved as a `cancelled: <reason>` error — so a resumed run
/// re-executes exactly the unfinished cells.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    reason: Mutex<String>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. The first caller's reason wins; later
    /// calls are idempotent no-ops.
    pub fn cancel(&self, reason: &str) {
        {
            let mut slot = self.inner.reason.lock().expect("cancel reason lock");
            if slot.is_empty() {
                *slot = reason.to_string();
            }
        }
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::SeqCst)
    }

    /// The reason given by the first `cancel` call (empty if none yet).
    pub fn reason(&self) -> String {
        self.inner
            .reason
            .lock()
            .expect("cancel reason lock")
            .clone()
    }
}

/// A shared budget of worker slots, bounding the number of cell
/// attempts in flight across *all* campaigns that hold a clone — the
/// daemon's global concurrency cap. Each campaign still respects its
/// own `RunnerConfig::workers`; the shared budget is the outer bound.
///
/// Acquisition is non-blocking: a scheduler that cannot get a slot
/// simply retries on its next poll tick, which is what yields
/// round-robin-ish interleaving between concurrent campaigns instead
/// of one campaign camping on the pool.
#[derive(Clone)]
pub struct WorkerSlots {
    inner: Arc<SlotsInner>,
}

struct SlotsInner {
    free: Mutex<usize>,
    capacity: usize,
}

impl WorkerSlots {
    /// A budget of `capacity` concurrent attempts (minimum 1).
    pub fn new(capacity: usize) -> WorkerSlots {
        let capacity = capacity.max(1);
        WorkerSlots {
            inner: Arc::new(SlotsInner {
                free: Mutex::new(capacity),
                capacity,
            }),
        }
    }

    /// The configured budget.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    fn try_acquire(&self) -> bool {
        let mut free = self.inner.free.lock().expect("worker slots lock");
        if *free > 0 {
            *free -= 1;
            true
        } else {
            false
        }
    }

    fn release(&self) {
        let mut free = self.inner.free.lock().expect("worker slots lock");
        *free += 1;
    }
}

/// Optional embedding hooks for [`run_campaign_with`]: a cancellation
/// token and a shared cross-campaign worker budget. `Default` (both
/// `None`) reproduces plain batch behaviour exactly.
#[derive(Clone, Default)]
pub struct RunControls {
    /// Cooperative cancellation, observed at cell boundaries.
    pub cancel: Option<CancelToken>,
    /// Shared attempt budget across concurrent campaigns.
    pub slots: Option<WorkerSlots>,
}

/// The final report for one cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Cell id.
    pub cell: String,
    /// The data, or the last failure reason.
    pub outcome: Result<CellData, String>,
    /// Attempts executed this run (0 when restored from the log).
    pub attempts: u32,
    /// Attempts killed by the deadline watchdog.
    pub deadline_kills: u32,
    /// Whether the outcome was restored from an earlier log.
    pub resumed: bool,
    /// Wall-clock ms spent across this run's attempts.
    pub wall_ms: u64,
    /// Simulated instructions processed across this run's attempts (for
    /// a resumed cell: the count its logged outcome carried).
    pub instructions: u64,
}

/// Everything a campaign produced, reports in task order.
pub struct CampaignOutcome {
    /// Per-cell reports, in the order the tasks were given.
    pub reports: Vec<CellReport>,
    /// Whether the campaign was stopped by a [`CancelToken`] before
    /// every cell resolved. Cancelled cells carry `Err` outcomes whose
    /// reason starts with `cancelled:`.
    pub cancelled: bool,
}

impl CampaignOutcome {
    /// Whether every cell succeeded.
    pub fn all_ok(&self) -> bool {
        self.reports.iter().all(|r| r.outcome.is_ok())
    }

    /// The failed cells, in task order.
    pub fn failures(&self) -> impl Iterator<Item = &CellReport> {
        self.reports.iter().filter(|r| r.outcome.is_err())
    }

    /// The report for `cell`, if it was part of the campaign.
    pub fn report(&self, cell: &str) -> Option<&CellReport> {
        self.reports.iter().find(|r| r.cell == cell)
    }
}

/// Messages worker and backoff threads send the scheduler.
enum Msg {
    /// An attempt finished (possibly a stale, deadline-detached one).
    Finished {
        task: usize,
        attempt: u32,
        result: Result<CellData, String>,
        wall_ms: u64,
        instructions: u64,
    },
    /// A backoff delay elapsed; the task may be rescheduled.
    Ready { task: usize },
}

/// Scheduler-side state for one task.
struct TaskState {
    attempts_used: u32,
    deadline_kills: u32,
    wall_ms: u64,
    instructions: u64,
    /// The attempt id currently in flight, if any — results from any
    /// other attempt (i.e. from a detached, timed-out thread) are stale
    /// and dropped.
    live_attempt: Option<u32>,
    /// When the in-flight attempt's deadline expires. Tracked by the
    /// scheduler itself (no watchdog thread: a daemon spawning one
    /// sleeping thread per attempt would leak them for the full
    /// deadline, 10 minutes by default).
    deadline_at: Option<Instant>,
    last_error: String,
    done: bool,
}

/// Runs `tasks` to completion under `config`, logging every lifecycle
/// event to `journal`. Cells whose last logged outcome has data are
/// restored and skipped (`resumed: true`); logged failures are re-run.
///
/// Telemetry flows through `ctx` (pass [`TelemetryCtx::off`] for an
/// uninstrumented run). With `heartbeat`, the scheduler logs a
/// `heartbeat` event on that tick — plus, when `ctx` carries a hub, one
/// manifest time-series row per beat; `None` writes no heartbeats.
///
/// Returns `Err` only for infrastructure faults (a log write failing,
/// or a log opened for a different number of cells); cell failures are
/// ordinary `CellReport` outcomes.
pub fn run_campaign(
    tasks: Vec<CellTask>,
    config: &RunnerConfig,
    journal: &mut Journal,
    ctx: &TelemetryCtx,
    heartbeat: Option<Duration>,
) -> Result<CampaignOutcome, String> {
    run_campaign_with(
        tasks,
        config,
        journal,
        ctx,
        heartbeat,
        &RunControls::default(),
    )
}

/// [`run_campaign`] with embedding hooks: a [`CancelToken`] observed at
/// cell boundaries and an optional shared [`WorkerSlots`] budget so
/// several concurrent campaigns (the daemon's multiplexing case) share
/// one bounded pool of attempt slots. See [`RunControls`].
pub fn run_campaign_with(
    tasks: Vec<CellTask>,
    config: &RunnerConfig,
    journal: &mut Journal,
    ctx: &TelemetryCtx,
    heartbeat: Option<Duration>,
    controls: &RunControls,
) -> Result<CampaignOutcome, String> {
    install_quiet_panic_hook();
    let total = tasks.len();
    if total != journal.cells() {
        return Err(format!(
            "campaign log {} is for {} cells, but this campaign schedules {total}; \
             start a fresh run",
            journal.path().display(),
            journal.cells()
        ));
    }
    let started = Instant::now();
    let start = journal.start_event(config.workers);
    log(journal, start)?;

    let mut reports: Vec<Option<CellReport>> = Vec::new();
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut states: Vec<TaskState> = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        let restored = journal
            .record(&task.id)
            .filter(|o| o.ok())
            .map(|o| CellReport {
                cell: task.id.clone(),
                outcome: Ok(CellData(
                    o.data.clone().expect("logged ok outcome has data"),
                )),
                attempts: 0,
                deadline_kills: 0,
                resumed: true,
                wall_ms: 0,
                instructions: o.instructions,
            });
        if restored.is_none() {
            ready.push_back(i);
        }
        reports.push(restored);
        states.push(TaskState {
            attempts_used: 0,
            deadline_kills: 0,
            wall_ms: 0,
            instructions: 0,
            live_attempt: None,
            deadline_at: None,
            last_error: String::new(),
            done: false,
        });
    }
    // Restored cells are final outcomes of this run too: announce them
    // up front, so this run's part of the log stands on its own.
    for report in reports.iter().flatten() {
        log(journal, finished(report))?;
    }

    let mut completed = reports.iter().filter(|r| r.is_some()).count();
    let mut running = 0usize;
    let (tx, rx) = mpsc::channel::<Msg>();
    let mut next_beat = heartbeat.map(|tick| started + tick);

    let mut cancelled = false;
    loop {
        if completed >= total {
            break;
        }
        cancelled = cancelled
            || controls
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled);
        if cancelled && running == 0 {
            // Every in-flight cell reached its boundary; stop here.
            break;
        }
        if !cancelled {
            while running < config.workers.max(1) {
                let Some(&i) = ready.front() else { break };
                // Under a shared budget, an unavailable slot is not an
                // error: leave the task queued and retry next poll tick.
                if let Some(slots) = &controls.slots {
                    if !slots.try_acquire() {
                        break;
                    }
                }
                ready.pop_front();
                let state = &mut states[i];
                state.attempts_used += 1;
                let attempt = state.attempts_used;
                state.live_attempt = Some(attempt);
                state.deadline_at = Some(Instant::now() + config.deadline);
                log(
                    journal,
                    CampaignEvent::AttemptStarted {
                        cell: tasks[i].id.clone(),
                        attempt,
                    },
                )?;
                spawn_attempt(&tasks[i], i, attempt, config, ctx, &tx);
                running += 1;
            }
        }

        let now = Instant::now();
        if let (Some(tick), Some(at)) = (heartbeat, next_beat) {
            if at <= now {
                log(
                    journal,
                    CampaignEvent::Heartbeat {
                        done: completed as u64,
                        active: running as u64,
                    },
                )?;
                if let Some(hub) = ctx.hub() {
                    hub.push_sample(SampleRow {
                        t_ms: started.elapsed().as_millis() as u64,
                        done: completed as u64,
                        active: running as u64,
                        counters: hub
                            .registry()
                            .snapshot()
                            .counters()
                            .map(|(k, v)| (k.to_string(), v))
                            .collect(),
                    });
                }
                next_beat = Some(now + tick);
            }
        }

        // Sleep until the next message, but no longer than the nearest
        // in-flight deadline or heartbeat (and never past the poll tick,
        // which bounds cancellation/slot-retry latency).
        let mut wait = SCHED_POLL;
        let due = states
            .iter()
            .filter(|s| s.live_attempt.is_some())
            .filter_map(|s| s.deadline_at)
            .chain(next_beat);
        for at in due {
            wait = wait.min(at.saturating_duration_since(now));
        }
        match rx.recv_timeout(wait) {
            Ok(Msg::Finished {
                task,
                attempt,
                result,
                wall_ms,
                instructions,
            }) => {
                let state = &mut states[task];
                if state.done || state.live_attempt != Some(attempt) {
                    continue; // stale result from a deadline-detached thread
                }
                state.live_attempt = None;
                state.deadline_at = None;
                state.wall_ms += wall_ms;
                state.instructions += instructions;
                running -= 1;
                if let Some(slots) = &controls.slots {
                    slots.release();
                }
                match result {
                    Ok(data) => {
                        state.done = true;
                        completed += 1;
                        let report = CellReport {
                            cell: tasks[task].id.clone(),
                            outcome: Ok(data),
                            attempts: state.attempts_used,
                            deadline_kills: state.deadline_kills,
                            resumed: false,
                            wall_ms: state.wall_ms,
                            instructions: state.instructions,
                        };
                        log(journal, finished(&report))?;
                        reports[task] = Some(report);
                    }
                    Err(reason) => {
                        log(
                            journal,
                            CampaignEvent::AttemptFailed {
                                cell: tasks[task].id.clone(),
                                attempt,
                                reason: reason.clone(),
                                killed: false,
                            },
                        )?;
                        state.last_error = reason;
                        retry_or_fail(
                            task,
                            &tasks,
                            state,
                            config,
                            journal,
                            &tx,
                            &mut reports,
                            &mut completed,
                        )?;
                    }
                }
            }
            Ok(Msg::Ready { task }) => {
                if !states[task].done {
                    ready.push_back(task);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("cell scheduler channel closed unexpectedly".to_string());
            }
        }

        // Sweep expired deadlines. Detach each overrunning thread: mark
        // its attempt stale so whatever it eventually sends is dropped.
        let now = Instant::now();
        for task in 0..states.len() {
            let state = &mut states[task];
            let Some(attempt) = state.live_attempt else {
                continue;
            };
            if state.deadline_at.is_some_and(|at| at > now) {
                continue;
            }
            state.live_attempt = None;
            state.deadline_at = None;
            state.deadline_kills += 1;
            state.wall_ms += config.deadline.as_millis() as u64;
            state.last_error = format!("deadline exceeded ({} ms)", config.deadline.as_millis());
            running -= 1;
            if let Some(slots) = &controls.slots {
                slots.release();
            }
            log(
                journal,
                CampaignEvent::AttemptFailed {
                    cell: tasks[task].id.clone(),
                    attempt,
                    reason: state.last_error.clone(),
                    killed: true,
                },
            )?;
            retry_or_fail(
                task,
                &tasks,
                state,
                config,
                journal,
                &tx,
                &mut reports,
                &mut completed,
            )?;
        }
    }

    // A cancelled campaign still reports every cell: the ones that never
    // resolved become `cancelled` errors, logged like any failure, so a
    // resumed run re-executes exactly these.
    let cancel_reason = cancelled.then(|| {
        controls
            .cancel
            .as_ref()
            .map(CancelToken::reason)
            .filter(|r| !r.is_empty())
            .unwrap_or_else(|| "no reason given".to_string())
    });
    if let Some(reason) = &cancel_reason {
        for (i, slot) in reports.iter_mut().enumerate() {
            if slot.is_none() {
                let state = &states[i];
                let report = CellReport {
                    cell: tasks[i].id.clone(),
                    outcome: Err(format!("cancelled: {reason}")),
                    attempts: state.attempts_used,
                    deadline_kills: state.deadline_kills,
                    resumed: false,
                    wall_ms: state.wall_ms,
                    instructions: state.instructions,
                };
                log(journal, finished(&report))?;
                *slot = Some(report);
            }
        }
    }

    let reports: Vec<CellReport> = reports.into_iter().map(Option::unwrap).collect();
    let failed = reports.iter().filter(|r| r.outcome.is_err()).count() as u64;
    log(
        journal,
        CampaignEvent::CampaignFinished {
            ok: total as u64 - failed,
            failed,
            cancelled: cancel_reason,
        },
    )?;
    Ok(CampaignOutcome { reports, cancelled })
}

/// The one call path from the scheduler into the campaign log.
fn log(journal: &mut Journal, event: CampaignEvent) -> Result<(), String> {
    journal.append(event).map_err(|e| {
        format!(
            "cannot write campaign log {}: {e}",
            journal.path().display()
        )
    })
}

/// The `cell-finished` event for a final report (fresh or resumed).
fn finished(report: &CellReport) -> CampaignEvent {
    let status = match (&report.outcome, report.resumed) {
        (Ok(_), true) => CellStatus::Resumed,
        (Ok(_), false) => CellStatus::Ok,
        (Err(_), _) => CellStatus::Err,
    };
    CampaignEvent::CellFinished(CellOutcome {
        cell: report.cell.clone(),
        status,
        attempts: report.attempts,
        deadline_kills: report.deadline_kills,
        wall_ms: report.wall_ms,
        instructions: report.instructions,
        reason: report.outcome.as_ref().err().cloned(),
        data: report.outcome.as_ref().ok().map(|d| d.0.clone()),
    })
}

/// Handles a failed attempt: schedules a backoff retry if attempts
/// remain, otherwise logs and reports the final failure.
#[allow(clippy::too_many_arguments)]
fn retry_or_fail(
    task: usize,
    tasks: &[CellTask],
    state: &mut TaskState,
    config: &RunnerConfig,
    journal: &mut Journal,
    tx: &mpsc::Sender<Msg>,
    reports: &mut [Option<CellReport>],
    completed: &mut usize,
) -> Result<(), String> {
    if state.attempts_used < config.attempts {
        // Exponential backoff (backoff, 2*backoff, 4*backoff, ...) with
        // ±50% decorrelation jitter: exact powers of two make every cell
        // failed by one shared fault re-collide on each retry wave. The
        // jitter is a pure function of (cell id, attempt), so chaos runs
        // stay bit-for-bit reproducible.
        let shift = (state.attempts_used - 1).min(10);
        let base = config.backoff * (1u32 << shift);
        let delay = base.mul_f64(backoff_jitter(&tasks[task].id, state.attempts_used));
        let tx = tx.clone();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            let _ = tx.send(Msg::Ready { task });
        });
        return Ok(());
    }
    state.done = true;
    *completed += 1;
    let report = CellReport {
        cell: tasks[task].id.clone(),
        outcome: Err(state.last_error.clone()),
        attempts: state.attempts_used,
        deadline_kills: state.deadline_kills,
        resumed: false,
        wall_ms: state.wall_ms,
        instructions: state.instructions,
    };
    log(journal, finished(&report))?;
    reports[task] = Some(report);
    Ok(())
}

/// Deterministic backoff jitter factor in `[0.5, 1.5)` for a retry of
/// `cell` on attempt `attempt` — the fault planner's SplitMix64 recipe
/// under a fixed salt, so the schedule is reproducible across runs.
fn backoff_jitter(cell: &str, attempt: u32) -> f64 {
    0.5 + super::faults::split_mix_unit(0x6a17_7e2d_b0ff_0ff5, cell, attempt)
}

/// Spawns one attempt. The attempt thread is named
/// `repro-cell-<id>#<attempt>` so the quiet panic hook can tell
/// isolated cell panics from real ones. Its deadline is tracked by the
/// scheduler (no per-attempt watchdog thread).
fn spawn_attempt(
    task: &CellTask,
    index: usize,
    attempt: u32,
    config: &RunnerConfig,
    ctx: &TelemetryCtx,
    tx: &mpsc::Sender<Msg>,
) {
    let id = task.id.clone();
    let work = Arc::clone(&task.work);
    let faults = config.faults.clone();
    let hub = ctx.hub().cloned();
    let tx_work = tx.clone();
    std::thread::Builder::new()
        .name(format!("repro-cell-{id}#{attempt}"))
        .spawn(move || {
            let started = Instant::now();
            // Fresh instruction account for this attempt (worker threads
            // are per-attempt, but be explicit rather than rely on that).
            let _ = crate::telemetry::take_instructions();
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Group this cell's phase spans (workload-gen, replay,
                // uarch-sim) under a per-experiment parent, so manifests
                // show e.g. `cell:table4;workload-gen`. Keyed by the
                // experiment, not the full cell id, to bound cardinality.
                let experiment = id.split('/').next().unwrap_or(&id);
                let _span = hub
                    .as_ref()
                    .map(|hub| hub.spans().span(&format!("cell:{experiment}")));
                faults.apply(&id, attempt);
                work()
            }))
            .map_err(panic_reason);
            let _ = tx_work.send(Msg::Finished {
                task: index,
                attempt,
                result,
                wall_ms: started.elapsed().as_millis() as u64,
                instructions: crate::telemetry::take_instructions(),
            });
        })
        .expect("spawn cell worker thread");
}

/// Renders a panic payload as a failure reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: (non-string payload)".to_string()
    }
}

/// Silences the default "thread panicked" stderr spew for isolated cell
/// attempts (their panics are *reported*, as ERR table slots) while
/// leaving every other thread's panics as loud as ever.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let isolated = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("repro-cell-"));
            if !isolated {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("repro-pool-{}-{name}", std::process::id()))
    }

    fn fast(faults: &str) -> RunnerConfig {
        RunnerConfig {
            workers: 1,
            attempts: 3,
            deadline: Duration::from_millis(60_000),
            backoff: Duration::from_millis(1),
            faults: FaultPlan::parse(faults).unwrap(),
        }
    }

    fn value_task(id: &str, v: f64) -> CellTask {
        CellTask::new(id, move || {
            let mut d = CellData::new();
            d.set("v", v);
            d
        })
    }

    #[test]
    fn panicking_cell_fails_alone_and_campaign_continues() {
        let dir = scratch("isolate");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 3).unwrap();
        let tasks = vec![
            value_task("t/a", 1.0),
            value_task("t/boom", 2.0),
            value_task("t/c", 3.0),
        ];
        let outcome = run_campaign(
            tasks,
            &fast("panic:t/boom"),
            &mut journal,
            &TelemetryCtx::off(),
            None,
        )
        .unwrap();

        assert_eq!(outcome.reports.len(), 3);
        assert!(!outcome.all_ok());
        assert_eq!(outcome.failures().count(), 1);
        let failed = outcome.report("t/boom").unwrap();
        assert_eq!(failed.attempts, 3, "panic cell must exhaust retries");
        assert!(failed.outcome.as_ref().unwrap_err().contains("injected"));
        assert!(outcome.report("t/a").unwrap().outcome.is_ok());
        assert!(outcome.report("t/c").unwrap().outcome.is_ok());
        // The journal captured all three final outcomes.
        assert_eq!(journal.records().count(), 3);
        assert!(!journal.record("t/boom").unwrap().ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flaky_cell_recovers_via_retry() {
        let dir = scratch("flaky");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 1).unwrap();
        let outcome = run_campaign(
            vec![value_task("t/x", 7.0)],
            &fast("flaky:t/x:2"),
            &mut journal,
            &TelemetryCtx::off(),
            None,
        )
        .unwrap();
        let report = outcome.report("t/x").unwrap();
        assert!(report.outcome.is_ok());
        assert_eq!(report.attempts, 3, "two injected failures, then success");
        assert_eq!(journal.record("t/x").unwrap().attempts, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_kills_overrunning_cell() {
        let dir = scratch("deadline");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 1).unwrap();
        let config = RunnerConfig {
            attempts: 2,
            deadline: Duration::from_millis(25),
            ..fast("delay:t/slow:60000")
        };
        let outcome = run_campaign(
            vec![value_task("t/slow", 1.0)],
            &config,
            &mut journal,
            &TelemetryCtx::off(),
            None,
        )
        .unwrap();
        let report = outcome.report("t/slow").unwrap();
        let reason = report.outcome.as_ref().unwrap_err();
        assert!(reason.contains("deadline"), "{reason}");
        assert_eq!(report.deadline_kills, 2, "both attempts timed out");
        assert_eq!(journal.record("t/slow").unwrap().deadline_kills, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_restores_ok_cells_and_reruns_failures() {
        let dir = scratch("resume");
        let _ = std::fs::remove_dir_all(&dir);

        // First run: `t/a` succeeds, `t/b` fails all attempts.
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 2).unwrap();
        let first = run_campaign(
            vec![value_task("t/a", 5.0), value_task("t/b", 6.0)],
            &fast("panic:t/b"),
            &mut journal,
            &TelemetryCtx::off(),
            None,
        )
        .unwrap();
        assert!(!first.all_ok());
        drop(journal);

        // Second run resumes: `t/a` must be restored WITHOUT executing
        // (its closure now counts invocations), `t/b` re-runs cleanly.
        let a_runs = Arc::new(AtomicU32::new(0));
        let a_counter = Arc::clone(&a_runs);
        let task_a = CellTask::new("t/a", move || {
            a_counter.fetch_add(1, Ordering::SeqCst);
            CellData::new()
        });
        let mut journal = Journal::resume(&dir, "r", "t", Scale::Quick).unwrap();
        let second = run_campaign(
            vec![task_a, value_task("t/b", 6.0)],
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            None,
        )
        .unwrap();

        assert_eq!(
            a_runs.load(Ordering::SeqCst),
            0,
            "journaled cell must not re-run"
        );
        let a = second.report("t/a").unwrap();
        assert!(a.resumed && a.outcome.is_ok());
        assert_eq!(a.outcome.as_ref().unwrap().get("v"), Some(5.0));
        let b = second.report("t/b").unwrap();
        assert!(!b.resumed && b.outcome.is_ok());
        assert!(second.all_ok());
        assert!(
            journal.record("t/b").unwrap().ok(),
            "the resume appended t/b's new outcome"
        );

        // A resume that schedules a different cell set is refused rather
        // than spliced into the log.
        let mut journal = Journal::resume(&dir, "r", "t", Scale::Quick).unwrap();
        let err = run_campaign(
            vec![value_task("t/a", 5.0)],
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            None,
        )
        .err()
        .expect("a 1-cell campaign on a 2-cell log is refused");
        assert!(
            err.contains("2 cells") && err.contains("start a fresh run"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_workers_complete_every_cell() {
        let dir = scratch("parallel");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 8).unwrap();
        let config = RunnerConfig {
            workers: 4,
            ..fast("")
        };
        let tasks: Vec<CellTask> = (0..8)
            .map(|i| {
                CellTask::new(format!("t/c{i}"), move || {
                    std::thread::sleep(Duration::from_millis(5));
                    let mut d = CellData::new();
                    d.set("i", i as f64);
                    d
                })
            })
            .collect();
        let outcome =
            run_campaign(tasks, &config, &mut journal, &TelemetryCtx::off(), None).unwrap();
        assert!(outcome.all_ok());
        assert_eq!(outcome.reports.len(), 8);
        // Reports stay in task order regardless of completion order.
        for (i, r) in outcome.reports.iter().enumerate() {
            assert_eq!(r.cell, format!("t/c{i}"));
            assert_eq!(r.outcome.as_ref().unwrap().get("i"), Some(i as f64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let mut distinct = std::collections::BTreeSet::new();
        for cell in ["t/a", "t/b", "table4/perl", "table4/gcc"] {
            for attempt in 1..=5u32 {
                let j = backoff_jitter(cell, attempt);
                assert!((0.5..1.5).contains(&j), "{cell}#{attempt}: {j}");
                assert_eq!(j, backoff_jitter(cell, attempt), "must be deterministic");
                distinct.insert((j * 1e12) as u64);
            }
        }
        assert!(
            distinct.len() > 10,
            "jitter must decorrelate cells/attempts, got {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn cancel_stops_at_cell_boundary_and_leaves_pending_cells_to_rerun() {
        let dir = scratch("cancel");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 3).unwrap();
        let token = CancelToken::new();
        // The first cell cancels the campaign from *inside* its work
        // closure, then completes normally: it must be journaled, while
        // the two cells behind it never start and are logged as errors.
        let inner = token.clone();
        let tasks = vec![
            CellTask::new("t/a", move || {
                inner.cancel("test cancel");
                let mut d = CellData::new();
                d.set("v", 1.0);
                d
            }),
            value_task("t/b", 2.0),
            value_task("t/c", 3.0),
        ];
        let controls = RunControls {
            cancel: Some(token.clone()),
            ..RunControls::default()
        };
        let outcome = run_campaign_with(
            tasks,
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            None,
            &controls,
        )
        .unwrap();
        assert!(outcome.cancelled);
        assert!(outcome.report("t/a").unwrap().outcome.is_ok());
        for cell in ["t/b", "t/c"] {
            let r = outcome.report(cell).unwrap();
            let reason = r.outcome.as_ref().unwrap_err();
            assert!(reason.starts_with("cancelled: test cancel"), "{reason}");
            assert_eq!(r.attempts, 0, "{cell} must never have started");
        }
        // Only the completed cell is restorable; a resume re-runs exactly
        // the cancelled ones.
        let restorable: Vec<&str> = journal
            .records()
            .filter(|o| o.ok())
            .map(|o| o.cell.as_str())
            .collect();
        assert_eq!(restorable, ["t/a"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_slots_bound_attempts_across_the_process() {
        use std::sync::atomic::AtomicUsize;

        let dir = scratch("slots");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 6).unwrap();
        let slots = WorkerSlots::new(1);
        assert_eq!(slots.capacity(), 1);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<CellTask> = (0..6)
            .map(|i| {
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                CellTask::new(format!("t/c{i}"), move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    live.fetch_sub(1, Ordering::SeqCst);
                    CellData::new()
                })
            })
            .collect();
        // The campaign asks for 4 workers, but the shared budget allows 1.
        let config = RunnerConfig {
            workers: 4,
            ..fast("")
        };
        let controls = RunControls {
            slots: Some(slots),
            ..RunControls::default()
        };
        let outcome = run_campaign_with(
            tasks,
            &config,
            &mut journal,
            &TelemetryCtx::off(),
            None,
            &controls,
        )
        .unwrap();
        assert!(outcome.all_ok());
        assert_eq!(peak.load(Ordering::SeqCst), 1, "budget of 1 must serialize");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One faulted, cancelled, two-worker campaign; its single log
    /// folds into every view, and each view equals what the campaign
    /// reported.
    #[test]
    fn one_log_folds_into_views_that_agree_with_the_outcome() {
        use crate::watch::{CampaignStatus, CellState};
        use sim_telemetry::{traceviz, CellRecord, ChromeTrace};

        let dir = scratch("agree");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 4).unwrap();
        let log_path = journal.path().to_path_buf();
        let token = CancelToken::new();
        // The gate cancels mid-run, once the log shows t/slow's first
        // deadline kill and t/flaky's recovery: by then retries have run
        // and t/slow still has attempts left, so the cancel catches it
        // between them.
        let gate = {
            let token = token.clone();
            CellTask::new("t/gate", move || {
                let started = Instant::now();
                while started.elapsed() < Duration::from_secs(30) {
                    let log = sim_telemetry::read_events(&log_path).unwrap();
                    let seen = |want: &dyn Fn(&CampaignEvent) -> bool| {
                        log.entries.iter().any(|e| want(&e.event))
                    };
                    let killed = seen(&|e| {
                        matches!(e, CampaignEvent::AttemptFailed { cell, killed: true, .. }
                            if cell == "t/slow")
                    });
                    let recovered = seen(&|e| {
                        matches!(e, CampaignEvent::CellFinished(o)
                            if o.cell == "t/flaky" && o.ok())
                    });
                    if killed && recovered {
                        token.cancel("test cancel");
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                CellData::new()
            })
        };
        let tasks = vec![
            value_task("t/boom", 1.0),
            value_task("t/flaky", 2.0),
            value_task("t/slow", 3.0),
            gate,
        ];
        let config = RunnerConfig {
            workers: 2,
            attempts: 3,
            deadline: Duration::from_millis(100),
            ..fast("panic:t/boom,flaky:t/flaky:1,delay:t/slow:60000")
        };
        let controls = RunControls {
            cancel: Some(token),
            ..RunControls::default()
        };
        let outcome = run_campaign_with(
            tasks,
            &config,
            &mut journal,
            &TelemetryCtx::off(),
            Some(Duration::from_millis(10)),
            &controls,
        )
        .unwrap();
        assert!(outcome.cancelled);
        let slow = outcome.report("t/slow").unwrap();
        assert!(slow.deadline_kills >= 1, "{slow:?}");
        assert!(
            slow.outcome.as_ref().unwrap_err().starts_with("cancelled:"),
            "{slow:?}"
        );
        assert_eq!(outcome.report("t/flaky").unwrap().attempts, 2);

        let log = journal.read().unwrap();
        assert!(!log.torn_tail);
        let status_of = |r: &CellReport| match (&r.outcome, r.resumed) {
            (Ok(_), true) => CellStatus::Resumed,
            (Ok(_), false) => CellStatus::Ok,
            (Err(_), _) => CellStatus::Err,
        };

        // The resume map (and a resumed journal's fold of the file).
        let last = log.last_outcomes();
        let resumed = Journal::resume(&dir, "r", "t", Scale::Quick).unwrap();
        assert_eq!(last.len(), outcome.reports.len());
        for r in &outcome.reports {
            let o = &last[&r.cell];
            assert_eq!(resumed.record(&r.cell), Some(o));
            assert_eq!(o.status, status_of(r), "{}", r.cell);
            assert_eq!(
                (o.attempts, o.deadline_kills, o.wall_ms, o.instructions),
                (r.attempts, r.deadline_kills, r.wall_ms, r.instructions),
                "{}",
                r.cell
            );
            assert_eq!(o.reason.as_ref(), r.outcome.as_ref().err(), "{}", r.cell);
            assert_eq!(o.data.as_ref(), r.outcome.as_ref().ok().map(|d| &d.0));
        }

        // The live status.
        let status = CampaignStatus::from_log(&log);
        assert!(status.finished);
        assert_eq!(status.cancelled.as_deref(), Some("test cancel"));
        assert_eq!(status.total, outcome.reports.len() as u64);
        assert_eq!(status.done(), status.total);
        assert_eq!(status.failed(), outcome.failures().count() as u64);
        for r in &outcome.reports {
            let view = status.cells.iter().find(|c| c.cell == r.cell).unwrap();
            let state = if r.outcome.is_ok() {
                CellState::Ok
            } else {
                CellState::Err
            };
            assert_eq!(view.state, state, "{}", r.cell);
            assert_eq!(view.attempts, u64::from(r.attempts), "{}", r.cell);
            assert_eq!(view.wall_ms, r.wall_ms, "{}", r.cell);
            if let Err(reason) = &r.outcome {
                assert_eq!(view.reason.as_deref(), reason.lines().next(), "{}", r.cell);
            }
        }

        // The Chrome export: one slice per attempt; one instant per retry,
        // per deadline kill, and for the cancellation.
        let summary = traceviz::validate(&ChromeTrace::from_log(&log).to_json()).unwrap();
        let attempts: u32 = outcome.reports.iter().map(|r| r.attempts).sum();
        let retries: u32 = outcome
            .reports
            .iter()
            .map(|r| r.attempts.saturating_sub(1))
            .sum();
        let kills: u32 = outcome.reports.iter().map(|r| r.deadline_kills).sum();
        assert!(retries >= 1 && kills >= 1, "{:?}", outcome.reports);
        assert_eq!(summary.complete, attempts as usize);
        assert_eq!(summary.instants, (retries + kills + 1) as usize);

        // The manifest cells.
        let mut from_outcome: Vec<CellRecord> = outcome
            .reports
            .iter()
            .map(|r| CellRecord {
                cell: r.cell.clone(),
                ok: r.outcome.is_ok(),
                attempts: r.attempts,
                deadline_kills: r.deadline_kills,
                resumed: r.resumed,
                reason: r.outcome.as_ref().err().cloned(),
                wall_ms: r.wall_ms,
                instructions: r.instructions,
            })
            .collect();
        from_outcome.sort_by(|a, b| a.cell.cmp(&b.cell));
        let from_log: Vec<CellRecord> = log
            .segment_outcomes()
            .values()
            .map(CellRecord::from)
            .collect();
        assert_eq!(from_log, from_outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
