//! Host-nanosecond spans recorded by the benchmark around each call into a
//! layer of the program.
//!
//! Spans are kept in memory (the first [`EVENT_CAP`] per thread; later ones
//! only feed the per-layer histograms and are counted as dropped) and are
//! written out once, at the end of the run, as Chrome/Perfetto JSON. Each
//! span names the span that caused it, so a layer's self time is its
//! duration minus its children's.

use crate::hist::Hist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Events kept per thread for the span file.
pub const EVENT_CAP: usize = 100_000;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Event {
    name: &'static str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
    id: u32,
    parent: u32,
}

/// An open span: its id and, when it is timed, its start.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Id children name as their parent.
    pub id: u32,
    start: Option<Instant>,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    next_id: u32,
    layers: BTreeMap<&'static str, Hist>,
    events: Vec<Event>,
    dropped: u64,
}

impl Spans {
    /// Recorder for thread `tid`; a disabled recorder times only what
    /// [`Self::op_begin`] opens and records nothing.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Self {
            enabled,
            epoch,
            tid,
            next_id: tid << 24,
            layers: BTreeMap::new(),
            events: if enabled {
                Vec::with_capacity(EVENT_CAP)
            } else {
                Vec::new()
            },
            dropped: 0,
        }
    }

    /// A recorder for another thread, sharing this one's clock and mode.
    pub fn child(&self, tid: u32) -> Self {
        Self::new(self.enabled, self.epoch, tid)
    }

    /// Whether layer spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a layer span: timed only when tracing.
    pub fn begin(&mut self) -> Mark {
        if self.enabled {
            self.op_begin()
        } else {
            Mark {
                id: ROOT,
                start: None,
            }
        }
    }

    /// Open an operation span: always timed, because end-to-end latency is
    /// measured with tracing off too.
    pub fn op_begin(&mut self) -> Mark {
        self.next_id += 1;
        Mark {
            id: self.next_id,
            start: Some(Instant::now()),
        }
    }

    /// Close `mark` as layer `name` under `parent`; returns its duration in
    /// ns (0 for an untimed mark).
    pub fn end(&mut self, name: &'static str, mark: Mark, parent: u32) -> u64 {
        let Some(start) = mark.start else { return 0 };
        let now = Instant::now();
        let dur_ns = now.duration_since(start).as_nanos() as u64;
        if self.enabled {
            self.layers.entry(name).or_default().record(dur_ns);
            if self.events.len() < EVENT_CAP {
                self.events.push(Event {
                    name,
                    tid: self.tid,
                    start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                    dur_ns,
                    id: mark.id,
                    parent,
                });
            } else {
                self.dropped += 1;
            }
        }
        dur_ns
    }

    /// Per-call histogram of layer `name` (empty if never recorded).
    pub fn layer(&self, name: &str) -> Hist {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// Fold another thread's recorder into this one.
    pub fn merge(&mut self, other: Spans) {
        for (name, h) in other.layers {
            self.layers.entry(name).or_default().merge(&h);
        }
        self.events.extend(other.events);
        self.dropped += other.dropped;
    }

    /// Spans kept for the span file.
    pub fn kept(&self) -> usize {
        self.events.len()
    }

    /// Spans past the per-thread cap (still counted in the histograms).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome trace-event JSON of the kept spans, loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (k, e) in self.events.iter().enumerate() {
            let sep = if k + 1 == self.events.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                e.name,
                e.tid,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.id,
                e.parent,
            );
        }
        out.push_str("]}\n");
        out
    }
}
