//! VCD (Value Change Dump) export of simulation activity.
//!
//! Hardware engineers debug dataflow designs in a waveform viewer; this
//! module renders per-cycle signal values into IEEE-1364 VCD text that
//! GTKWave & co. open directly — the missing visualisation the paper's
//! §III-C complains about ("the lack of a graphical representation of the
//! blocks in a design"). [`VcdRecorder::from_trace`] records the signals
//! from a span-journal snapshot, so a waveform is an exporter over the same
//! events Perfetto shows, not a second record of the run.

use polymem::tracing::TraceSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A recorded multi-bit signal.
#[derive(Debug, Clone)]
struct Signal {
    id: String,
    width: u32,
    /// (cycle, value) change list, strictly increasing cycles.
    changes: Vec<(u64, u64)>,
}

/// Collects signal samples and renders a VCD document.
#[derive(Debug, Clone, Default)]
pub struct VcdRecorder {
    signals: BTreeMap<String, Signal>,
    max_cycle: u64,
}

impl VcdRecorder {
    /// New empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a signal (idempotent). `width` in bits, 1..=64.
    pub fn declare(&mut self, name: &str, width: u32) {
        assert!((1..=64).contains(&width), "signal width 1..=64");
        let next_id = idcode(self.signals.len());
        self.signals.entry(name.to_string()).or_insert(Signal {
            id: next_id,
            width,
            changes: Vec::new(),
        });
    }

    /// Sample `name` at `cycle`; only changes are stored. Signals must be
    /// declared first and cycles sampled in non-decreasing order.
    pub fn sample(&mut self, name: &str, cycle: u64, value: u64) {
        let sig = self
            .signals
            .get_mut(name)
            .unwrap_or_else(|| panic!("signal {name} not declared"));
        if let Some(&(last_c, last_v)) = sig.changes.last() {
            assert!(cycle >= last_c, "samples must be time-ordered");
            if last_v == value {
                return;
            }
        }
        sig.changes.push((cycle, value));
        self.max_cycle = self.max_cycle.max(cycle);
    }

    /// Record a journal snapshot: one signal `<track>.<span name>` per
    /// track and span name, whose value at each cycle is the number of
    /// that track's spans of that name open then (begin inclusive, end
    /// exclusive). Every signal starts at 0 on cycle 0; its width fits its
    /// peak. Instants carry no duration and are left out.
    pub fn from_trace(snap: &TraceSnapshot) -> Self {
        let mut deltas: BTreeMap<String, BTreeMap<u64, i64>> = BTreeMap::new();
        for s in snap.spans() {
            let d = deltas
                .entry(format!("{}.{}", s.track, s.name).replace(char::is_whitespace, "_"))
                .or_default();
            *d.entry(s.begin).or_default() += 1;
            *d.entry(s.end).or_default() -= 1;
        }
        let mut vcd = Self::new();
        for (name, d) in deltas {
            let levels: Vec<(u64, u64)> = d
                .into_iter()
                .scan(0i64, |open, (cycle, delta)| {
                    *open += delta;
                    Some((cycle, *open as u64))
                })
                .collect();
            let peak = levels.iter().map(|&(_, v)| v).max().unwrap_or(0);
            vcd.declare(&name, (u64::BITS - peak.leading_zeros()).max(1));
            if levels.first().is_some_and(|&(cycle, _)| cycle > 0) {
                vcd.sample(&name, 0, 0);
            }
            for (cycle, v) in levels {
                vcd.sample(&name, cycle, v);
            }
        }
        vcd
    }

    /// Render the VCD document for a clock of period `period_ns`. Times
    /// are in picoseconds (`$timescale 1ps`; the standard allows only 1,
    /// 10 or 100 as a magnitude), each change at its cycle's start rounded
    /// to the nearest picosecond.
    pub fn render(&self, module: &str, period_ns: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date polymem-dfe-sim $end");
        let _ = writeln!(out, "$timescale 1ps $end");
        let _ = writeln!(out, "$scope module {module} $end");
        for (name, sig) in &self.signals {
            let _ = writeln!(out, "$var wire {} {} {} $end", sig.width, sig.id, name);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // Merge all changes into a time-ordered dump.
        let mut by_cycle: BTreeMap<u64, Vec<(&Signal, u64)>> = BTreeMap::new();
        for sig in self.signals.values() {
            for &(c, v) in &sig.changes {
                by_cycle.entry(c).or_default().push((sig, v));
            }
        }
        for (cycle, changes) in by_cycle {
            let _ = writeln!(
                out,
                "#{}",
                (cycle as f64 * period_ns * 1000.0).round() as u64
            );
            for (sig, v) in changes {
                if sig.width == 1 {
                    let _ = writeln!(out, "{}{}", v & 1, sig.id);
                } else {
                    let _ = writeln!(out, "b{:b} {}", v, sig.id);
                }
            }
        }
        out
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Last sampled cycle.
    pub fn max_cycle(&self) -> u64 {
        self.max_cycle
    }
}

/// VCD identifier codes: printable ASCII 33..=126, base-94.
fn idcode(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_changes() {
        let mut v = VcdRecorder::new();
        v.declare("write_enable", 1);
        v.declare("data", 64);
        v.sample("write_enable", 0, 0);
        v.sample("write_enable", 3, 1);
        v.sample("data", 3, 0xAB);
        let doc = v.render("polymem", 8.0);
        assert!(doc.contains("$timescale 1ps $end"));
        assert!(doc.contains("$var wire 1"));
        assert!(doc.contains("$var wire 64"));
        assert!(doc.contains("#24000\n"));
        assert!(doc.contains("b10101011"));
    }

    #[test]
    fn change_times_scale_by_the_clock_period() {
        // 120 MHz: a cycle is 8333.3 ps, so cycle 3 starts at 25 000 ps
        // (a whole-ns timescale would truncate it to 24 ns).
        let mut v = VcdRecorder::new();
        v.declare("s", 1);
        v.sample("s", 0, 0);
        v.sample("s", 3, 1);
        let doc = v.render("m", 1000.0 / 120.0);
        assert!(doc.contains("#0\n") && doc.contains("#25000\n"), "{doc}");
    }

    #[test]
    fn from_trace_counts_open_spans_per_track_and_name() {
        use polymem::tracing::{TraceEventKind, TraceEventRecord};
        let ev = |kind, cycle, track: &str, name: &str, span| TraceEventRecord {
            kind,
            cycle,
            name: name.to_string(),
            track: track.to_string(),
            span,
            parent: 0,
        };
        use TraceEventKind::{Begin, End, Instant};
        let snap = TraceSnapshot {
            events: vec![
                ev(Begin, 0, "pm", "active", 1),
                ev(End, 3, "pm", "active", 1),
                ev(Begin, 3, "pm", "idle", 2),
                ev(End, 5, "pm", "idle", 2),
                ev(Begin, 1, "pm/copy-bursts", "burst:copy", 3),
                ev(Begin, 2, "pm/copy-bursts", "burst:copy", 4),
                ev(End, 4, "pm/copy-bursts", "burst:copy", 4),
                ev(End, 6, "pm/copy-bursts", "burst:copy", 3),
                ev(Instant, 2, "pm", "note", 0),
            ],
            dropped: 0,
            torn: 0,
        };
        let v = VcdRecorder::from_trace(&snap);
        assert_eq!(v.signal_count(), 3, "instants add no signal");
        let changes = |name: &str| v.signals[name].changes.clone();
        assert_eq!(changes("pm.active"), vec![(0, 1), (3, 0)]);
        assert_eq!(changes("pm.idle"), vec![(0, 0), (3, 1), (5, 0)]);
        assert_eq!(
            changes("pm/copy-bursts.burst:copy"),
            vec![(0, 0), (1, 1), (2, 2), (4, 1), (6, 0)],
            "overlapping spans count up"
        );
        assert_eq!(v.signals["pm.active"].width, 1);
        assert_eq!(v.signals["pm/copy-bursts.burst:copy"].width, 2);
        assert_eq!(v.max_cycle(), 6);
    }

    #[test]
    fn deduplicates_unchanged_samples() {
        let mut v = VcdRecorder::new();
        v.declare("s", 1);
        v.sample("s", 0, 1);
        v.sample("s", 1, 1);
        v.sample("s", 2, 0);
        let doc = v.render("m", 10.0);
        assert!(doc.contains("#0"));
        assert!(!doc.contains("#1\n"), "unchanged sample must be dropped");
        assert!(doc.contains("#2"));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_travel() {
        let mut v = VcdRecorder::new();
        v.declare("s", 1);
        v.sample("s", 5, 1);
        v.sample("s", 3, 0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn rejects_undeclared() {
        let mut v = VcdRecorder::new();
        v.sample("ghost", 0, 1);
    }

    #[test]
    fn idcodes_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let id = idcode(n);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn declare_idempotent() {
        let mut v = VcdRecorder::new();
        v.declare("s", 8);
        v.declare("s", 8);
        assert_eq!(v.signal_count(), 1);
    }

    #[test]
    fn traces_a_real_pipeline() {
        // Record a delay line's occupancy as a waveform.
        let mut v = VcdRecorder::new();
        v.declare("in_flight", 8);
        let mut dl = crate::kernel::DelayLine::new(3);
        for c in 0..10u64 {
            if c < 4 {
                dl.push(c, c);
            }
            let _ = dl.pop_ready(c);
            v.sample("in_flight", c, dl.in_flight() as u64);
        }
        assert!(v.max_cycle() >= 6);
        let doc = v.render("pipe", 8.0);
        assert!(doc.lines().count() > 8);
    }
}
