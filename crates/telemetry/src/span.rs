//! Span-style timing scopes, now hierarchical: the phase profiler.
//!
//! A [`SpanRegistry`] accumulates wall-clock time under named spans. Call
//! [`SpanRegistry::span`] to start one; the returned [`SpanGuard`] stops
//! the clock when dropped, so a span covers exactly one lexical scope.
//! Spans opened while another span of the same registry is live **on the
//! same thread** become its children: the registry keys totals by the
//! full `parent;child` path, computes self-vs-total time per node, and
//! can dump the whole tree in the folded-stack format flamegraph tooling
//! consumes.
//!
//! ```
//! use sim_telemetry::SpanRegistry;
//!
//! let spans = SpanRegistry::new();
//! {
//!     let _outer = spans.span("uarch-sim");
//!     {
//!         let _inner = spans.span("predict");
//!         // ... hot work ...
//!     }
//! }
//! let snap = spans.snapshot();
//! assert_eq!(snap[0].path, "uarch-sim");
//! assert_eq!(snap[1].path, "uarch-sim;predict");
//! // The parent's self time excludes the child's total time.
//! assert!(snap[0].self_ns <= snap[0].total_ns);
//! ```
//!
//! Nesting is tracked per `(thread, registry)` pair, so parallel workers
//! (the `REPRO_JOBS` pool) each build their own stacks into the shared
//! registry without cross-attributing each other's phases.
//!
//! A registry can be created [disabled](SpanRegistry::disabled) — the
//! `REPRO_PROF=off` path — in which case `span()` is a single atomic
//! load and the guard records nothing.

use crate::json::{obj, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Separator between path components of nested spans (the folded-stack
/// convention, so dumps feed straight into flamegraph tooling).
pub const PATH_SEPARATOR: char = ';';

#[derive(Debug, Default, Clone, Copy)]
struct SpanTotals {
    count: u64,
    total_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    totals: Mutex<BTreeMap<String, SpanTotals>>,
    disabled: AtomicBool,
}

thread_local! {
    /// Per-thread stack of live span paths, tagged with the registry they
    /// belong to so concurrent registries (tests, nested sessions) don't
    /// adopt each other's parents.
    static ACTIVE: RefCell<Vec<(usize, String)>> = const { RefCell::new(Vec::new()) };
}

/// A registry of named, hierarchical timing spans.
#[derive(Clone, Debug, Default)]
pub struct SpanRegistry(Arc<Inner>);

impl SpanRegistry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Self {
        SpanRegistry::default()
    }

    /// Creates a registry whose spans are no-ops (`REPRO_PROF=off`): the
    /// guard is still returned so call sites need no branching, but it
    /// holds no path and records nothing on drop.
    pub fn disabled() -> Self {
        let r = SpanRegistry::default();
        r.0.disabled.store(true, Ordering::Relaxed);
        r
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        !self.0.disabled.load(Ordering::Relaxed)
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Starts a timing scope under `name`; the elapsed time is recorded
    /// when the returned guard drops. If another span of this registry is
    /// live on the calling thread, the new span becomes its child
    /// (recorded under the `parent;child` path).
    pub fn span(&self, name: &str) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard {
                registry: self.clone(),
                path: None,
                started: Instant::now(),
            };
        }
        let id = self.id();
        let path = ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.iter().rev().find(|(rid, _)| *rid == id) {
                Some((_, parent)) => format!("{parent}{PATH_SEPARATOR}{name}"),
                None => name.to_string(),
            };
            stack.push((id, path.clone()));
            path
        });
        SpanGuard {
            registry: self.clone(),
            path: Some(path),
            started: Instant::now(),
        }
    }

    fn record(&self, path: &str, elapsed_ns: u64) {
        let mut map = self.0.totals.lock().expect("span registry poisoned");
        let entry = map.entry(path.to_string()).or_default();
        entry.count += 1;
        entry.total_ns += elapsed_ns;
    }

    /// Point-in-time totals for every span path, sorted by path, with
    /// self time (total minus the totals of direct children) computed.
    pub fn snapshot(&self) -> Vec<SpanStat> {
        let map = self.0.totals.lock().expect("span registry poisoned");
        let mut stats: Vec<SpanStat> = map
            .iter()
            .map(|(path, t)| SpanStat {
                path: path.clone(),
                count: t.count,
                total_ns: t.total_ns,
                self_ns: t.total_ns,
            })
            .collect();
        // Subtract each node's direct-children totals to get self time.
        // Paths are sorted, so children follow their parent; saturate in
        // case a child is still running when the parent closed (overlap
        // noise must not underflow).
        let child_totals: BTreeMap<String, u64> = {
            let mut sums: BTreeMap<String, u64> = BTreeMap::new();
            for (path, t) in map.iter() {
                if let Some(parent) = parent_path(path) {
                    *sums.entry(parent.to_string()).or_insert(0) += t.total_ns;
                }
            }
            sums
        };
        for s in &mut stats {
            if let Some(&children) = child_totals.get(&s.path) {
                s.self_ns = s.total_ns.saturating_sub(children);
            }
        }
        stats
    }

    /// The snapshot as a JSON object: span path → `{count, total_ns,
    /// self_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.snapshot()
                .into_iter()
                .map(|s| {
                    (
                        s.path,
                        obj([
                            ("count", Json::from(s.count)),
                            ("total_ns", Json::from(s.total_ns)),
                            ("self_ns", Json::from(s.self_ns)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The tree in folded-stack format, one line per path:
    /// `root;child;leaf <self_ns>` — directly consumable by flamegraph
    /// tooling (`flamegraph.pl`, inferno), which re-derives totals by
    /// summing descendants.
    pub fn folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in self.snapshot() {
            if s.self_ns > 0 {
                let _ = writeln!(out, "{} {}", s.path, s.self_ns);
            }
        }
        out
    }
}

/// The parent of a span path (`a;b;c` → `a;b`), or `None` for roots.
pub fn parent_path(path: &str) -> Option<&str> {
    path.rfind(PATH_SEPARATOR).map(|i| &path[..i])
}

/// The leaf name of a span path (`a;b;c` → `c`).
pub fn leaf_name(path: &str) -> &str {
    path.rfind(PATH_SEPARATOR)
        .map(|i| &path[i + 1..])
        .unwrap_or(path)
}

/// Accumulated totals for one span path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// Full `parent;child` span path (just the name for root spans).
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds across all entries (children
    /// included).
    pub total_ns: u64,
    /// Nanoseconds spent in this span excluding its direct children.
    pub self_ns: u64,
}

impl SpanStat {
    /// The span's nesting depth (0 for roots).
    pub fn depth(&self) -> usize {
        self.path.matches(PATH_SEPARATOR).count()
    }

    /// The span's leaf name.
    pub fn name(&self) -> &str {
        leaf_name(&self.path)
    }
}

/// Live timing scope; records its elapsed time into the registry on drop.
#[derive(Debug)]
pub struct SpanGuard {
    registry: SpanRegistry,
    /// The full path this guard records under; `None` for a disabled
    /// registry's no-op guard.
    path: Option<String>,
    started: Instant,
}

impl SpanGuard {
    /// Nanoseconds elapsed so far (the span keeps running).
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// The full path this span records under (`None` when profiling is
    /// off).
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let elapsed = self.started.elapsed().as_nanos() as u64;
        let id = self.registry.id();
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally the last entry; search backwards to stay correct
            // if guards are dropped out of lexical order.
            if let Some(i) = stack.iter().rposition(|(rid, p)| *rid == id && *p == path) {
                stack.remove(i);
            }
        });
        self.registry.record(&path, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_count_and_time() {
        let spans = SpanRegistry::new();
        for _ in 0..3 {
            let _g = spans.span("work");
            std::hint::black_box(0u64);
        }
        {
            let _g = spans.span("other");
        }
        let snap = spans.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].path, "other"); // BTreeMap order
        assert_eq!(snap[1].path, "work");
        assert_eq!(snap[1].count, 3);
    }

    #[test]
    fn nested_spans_build_paths_and_self_time() {
        let spans = SpanRegistry::new();
        {
            let _outer = spans.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = spans.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _leaf = spans.span("leaf");
                }
            }
        }
        let snap = spans.snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["outer", "outer;inner", "outer;inner;leaf"]);
        let outer = &snap[0];
        let inner = &snap[1];
        assert_eq!(outer.depth(), 0);
        assert_eq!(inner.depth(), 1);
        assert_eq!(inner.name(), "inner");
        // total >= children's total; self = total - children.
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(
            outer.self_ns >= 1_000_000,
            "outer slept ~2ms outside inner, self {}",
            outer.self_ns
        );
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let spans = SpanRegistry::new();
        {
            let _p = spans.span("parent");
            for _ in 0..2 {
                let _a = spans.span("a");
            }
            let _b = spans.span("b");
        }
        let snap = spans.snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["parent", "parent;a", "parent;b"]);
        assert_eq!(snap[1].count, 2);
    }

    #[test]
    fn concurrent_threads_do_not_cross_nest() {
        // Two threads each open their own root + child into one shared
        // registry; neither must become a child of the other's root.
        let spans = SpanRegistry::new();
        let mut handles = Vec::new();
        for name in ["t1", "t2"] {
            let spans = spans.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _root = spans.span(name);
                    let _child = spans.span("work");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = spans.snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["t1", "t1;work", "t2", "t2;work"]);
        assert_eq!(snap[1].count, 50);
        assert_eq!(snap[3].count, 50);
    }

    #[test]
    fn two_registries_on_one_thread_keep_separate_stacks() {
        let a = SpanRegistry::new();
        let b = SpanRegistry::new();
        {
            let _ga = a.span("a-root");
            let _gb = b.span("b-root"); // must NOT nest under a-root
            let _ga2 = a.span("a-child");
        }
        assert_eq!(b.snapshot()[0].path, "b-root");
        assert_eq!(a.snapshot()[1].path, "a-root;a-child");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let spans = SpanRegistry::disabled();
        assert!(!spans.enabled());
        {
            let g = spans.span("ignored");
            assert_eq!(g.path(), None);
        }
        assert!(spans.snapshot().is_empty());
        assert!(spans.folded().is_empty());
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let spans = SpanRegistry::new();
        {
            let _outer = spans.span("run");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = spans.span("phase");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let folded = spans.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(lines[0].starts_with("run "), "{folded}");
        assert!(lines[1].starts_with("run;phase "), "{folded}");
        for line in lines {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value > 0);
        }
    }

    #[test]
    fn to_json_parses_and_carries_counts() {
        let spans = SpanRegistry::new();
        {
            let _g = spans.span("phase");
        }
        let text = spans.to_json().to_string();
        let v = crate::json::parse(&text).expect("span json parses");
        assert_eq!(
            v.get("phase").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
        assert!(v
            .get("phase")
            .unwrap()
            .get("total_ns")
            .unwrap()
            .as_u64()
            .is_some());
        assert!(v
            .get("phase")
            .unwrap()
            .get("self_ns")
            .unwrap()
            .as_u64()
            .is_some());
    }

    #[test]
    fn path_helpers() {
        assert_eq!(parent_path("a;b;c"), Some("a;b"));
        assert_eq!(parent_path("a"), None);
        assert_eq!(leaf_name("a;b;c"), "c");
        assert_eq!(leaf_name("a"), "a");
    }
}
