//! Structured events: what happened, per dynamic branch, when you need
//! more than a counter.
//!
//! The hot path records [`Event`]s into a bounded [`EventRing`]; once the
//! ring is full the *oldest* events are dropped (and counted), so a
//! misbehaving run degrades to "recent history plus a drop count" instead
//! of unbounded memory. A shared, clonable [`EventSink`] wraps the ring
//! for recording from inside simulator structures, and
//! [`write_jsonl`] renders drained events as one JSON object per line.

use crate::json::{obj, Json};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A structured telemetry event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// One mispredicted branch, with everything the front end knew.
    Mispredict {
        /// Address of the branch instruction.
        pc: u64,
        /// Branch class mnemonic (`ijmp`, `icall`, `cond`, `ret`, …).
        class: &'static str,
        /// The next-fetch address the front end predicted.
        predicted: u64,
        /// The next-fetch address the branch actually produced.
        actual: u64,
        /// The history-register value used to index the target cache
        /// (0 when no history source is configured).
        history: u64,
        /// Which predictor supplied the used prediction (see
        /// `target_cache::harness` for the vocabulary: `btb`,
        /// `target-cache`, `ras`, `cascade-btb`, `fallthrough`, …).
        source: &'static str,
    },
    /// A named phase of a run began (paired with [`Event::PhaseEnd`]).
    PhaseStart {
        /// Phase name (`workload-gen`, `harness-replay`, `uarch-sim`).
        phase: &'static str,
    },
    /// A named phase of a run finished.
    PhaseEnd {
        /// Phase name.
        phase: &'static str,
        /// Wall-clock nanoseconds the phase took.
        wall_ns: u64,
    },
}

impl Event {
    /// The event as a JSON object (one JSONL line, without the newline).
    /// `run` labels which benchmark/run produced it.
    pub fn to_json(&self, run: &str) -> Json {
        match *self {
            Event::Mispredict {
                pc,
                class,
                predicted,
                actual,
                history,
                source,
            } => obj([
                ("event", Json::from("mispredict")),
                ("run", Json::from(run)),
                ("pc", Json::from(pc)),
                ("class", Json::from(class)),
                ("predicted", Json::from(predicted)),
                ("actual", Json::from(actual)),
                ("history", Json::from(history)),
                ("source", Json::from(source)),
            ]),
            Event::PhaseStart { phase } => obj([
                ("event", Json::from("phase-start")),
                ("run", Json::from(run)),
                ("phase", Json::from(phase)),
            ]),
            Event::PhaseEnd { phase, wall_ns } => obj([
                ("event", Json::from("phase-end")),
                ("run", Json::from(run)),
                ("phase", Json::from(phase)),
                ("wall_ns", Json::from(wall_ns)),
            ]),
        }
    }
}

/// Default ring capacity: enough for every mispredict of a quick-scale
/// benchmark run with room to spare, small enough to never matter.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 17;

/// A bounded event buffer that drops its oldest entries when full.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events. It allocates on
    /// its first event, so a run that mispredicts nothing costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be nonzero");
        EventRing {
            buf: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all buffered events, oldest first. The drop
    /// count is left untouched (it describes the whole run).
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new(DEFAULT_RING_CAPACITY)
    }
}

/// A shared handle to an [`EventRing`], clonable into any structure that
/// wants to record events.
#[derive(Clone, Debug, Default)]
pub struct EventSink(Arc<Mutex<EventRing>>);

impl EventSink {
    /// Creates a sink over a fresh default-capacity ring.
    pub fn new() -> Self {
        EventSink::default()
    }

    /// Creates a sink over a ring of the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        EventSink(Arc::new(Mutex::new(EventRing::new(capacity))))
    }

    /// Records one event.
    pub fn record(&self, event: Event) {
        self.0.lock().expect("event sink poisoned").push(event);
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.0.lock().expect("event sink poisoned").drain()
    }

    /// Events evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0.lock().expect("event sink poisoned").dropped()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.0.lock().expect("event sink poisoned").len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writes events as JSONL (one `{...}` object per line) labelled with the
/// run that produced them.
pub fn write_jsonl<W: Write>(out: &mut W, run: &str, events: &[Event]) -> io::Result<()> {
    for e in events {
        writeln!(out, "{}", e.to_json(run))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn mp(pc: u64) -> Event {
        Event::Mispredict {
            pc,
            class: "ijmp",
            predicted: 0x900,
            actual: 0xA00,
            history: 0b1011,
            source: "target-cache",
        }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut ring = EventRing::new(3);
        for pc in 0..5u64 {
            ring.push(mp(pc));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(matches!(drained[0], Event::Mispredict { pc: 2, .. }));
        assert!(matches!(drained[2], Event::Mispredict { pc: 4, .. }));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drain keeps the drop count");
    }

    #[test]
    fn sink_is_shared_across_clones() {
        let sink = EventSink::new();
        let clone = sink.clone();
        clone.record(mp(1));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.drain().len(), 1);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let mut out = Vec::new();
        write_jsonl(
            &mut out,
            "perl",
            &[
                mp(0x40),
                Event::PhaseStart {
                    phase: "harness-replay",
                },
                Event::PhaseEnd {
                    phase: "harness-replay",
                    wall_ns: 12_345,
                },
            ],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = parse(lines[0]).expect("line parses");
        assert_eq!(first.get("event").unwrap().as_str(), Some("mispredict"));
        assert_eq!(first.get("run").unwrap().as_str(), Some("perl"));
        assert_eq!(first.get("pc").unwrap().as_u64(), Some(0x40));
        assert_eq!(first.get("source").unwrap().as_str(), Some("target-cache"));
        let last = parse(lines[2]).expect("line parses");
        assert_eq!(last.get("wall_ns").unwrap().as_u64(), Some(12_345));
    }
}
