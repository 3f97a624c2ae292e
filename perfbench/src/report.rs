//! The metric catalog and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit and
//! direction; `BENCHMARK.json` at the repository root declares the same
//! set (`tests/catalog.rs` keeps the two equal). With tracing off a run
//! prints the end-to-end metrics, with tracing on the per-layer ones.
//! Every workload prints every metric of its mode: a layer the workload
//! does not reach reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`: which way is better.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off, on every workload.
///
/// Operation latency is stated in units of a ceiling timed next to the
/// operations in the same run (a 64 KiB memcpy for region replay, an
/// empty-kernel tick for the simulator), the way the paper states STREAM
/// as a fraction of peak: on a shared host the ceiling slows down with the
/// workload, so the ratio drifts less than absolute ns. Measured between
/// runs of the same code on a shared two-vCPU host, the median ratio moved
/// by up to 20%, while every tail moved more: a neighbour's load slows a
/// varying share of operations by up to 1.75x but barely moves the
/// ceiling, so on `lib-stream`, where every round does the same work, the
/// p90 ratio of one run ranged 11.6-17.1 between its segments while the
/// median held 11.2-12.5. The tails (p99 ns and us), the throughput
/// fraction (up to 26%) and absolute ns (up to 40%) are per-layer metrics.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
    e2e("p50_vs_ceiling", "ratio", "lower", 0.25),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    // Absolute end-to-end figures, from the traced run's untraced half.
    layer("gibs", "GiB/s", "higher"),
    layer("ceiling_frac", "fraction", "higher"),
    layer("p50_us", "us", "lower"),
    layer("p99_us", "us", "lower"),
    layer("copy_gibs", "GiB/s", "higher"),
    layer("triad_gibs", "GiB/s", "higher"),
    layer("mix_ops_per_s", "1/s", "higher"),
    layer("mix_p50_us", "us", "lower"),
    layer("mix_p99_us", "us", "lower"),
    layer("sim_ns_per_cycle", "ns", "lower"),
    layer("sim_peak_frac", "fraction", "higher"),
    layer("sim_peak_frac.err_paper", "fraction", "lower"),
    layer("sim_peak_frac.err_experiments", "fraction", "lower"),
    layer("fail_frac", "fraction", "lower"),
    layer("trace_overhead_frac", "fraction", "lower"),
    // bulk: PolyMem region replay.
    layer("bulk.read_region_into.p50_ns", "ns", "lower"),
    layer("bulk.read_region_into.p99_ns", "ns", "lower"),
    layer("bulk.read_region_into.memcpy_frac", "fraction", "higher"),
    layer("bulk.write_region.p50_ns", "ns", "lower"),
    layer("bulk.write_region.p99_ns", "ns", "lower"),
    layer("bulk.write_region.memcpy_frac", "fraction", "higher"),
    layer("bulk.copy_region.p50_ns", "ns", "lower"),
    layer("bulk.copy_region.p99_ns", "ns", "lower"),
    layer("bulk.coalesced_byte_frac", "fraction", "higher"),
    layer("lib.copy.memcpy_frac", "fraction", "higher"),
    layer("lib.triad.memcpy_frac", "fraction", "higher"),
    layer("ledger.unaccounted_frac", "fraction", "lower"),
    // compute: the benchmark's own STREAM arithmetic.
    layer("compute.triad.p50_ns", "ns", "lower"),
    // region_plan: plan compile, plan cache and plan heap.
    layer("region_plan.compile.p50_ns", "ns", "lower"),
    layer("region_plan.compile.p99_ns", "ns", "lower"),
    layer("region_plan.heap_bytes", "bytes", "lower"),
    layer("region_plan.heap_per_moved_byte", "ratio", "lower"),
    layer("region_plan.hits", "count", "higher"),
    layer("region_plan.misses", "count", "lower"),
    layer("region_plan.evictions", "count", "lower"),
    layer("region_plan.hit_ratio", "fraction", "higher"),
    // concurrent: ConcurrentPolyMem.
    layer("concurrent.read_region.p50_ns", "ns", "lower"),
    layer("concurrent.read_region.p99_ns", "ns", "lower"),
    layer("concurrent.write_region.p50_ns", "ns", "lower"),
    layer("concurrent.write_region.p99_ns", "ns", "lower"),
    layer("concurrent.copy_region.p50_ns", "ns", "lower"),
    layer("concurrent.copy_region.p99_ns", "ns", "lower"),
    layer("concurrent.contended_slowdown", "ratio", "lower"),
    layer("mix.reader.ops", "count", "higher"),
    layer("mix.writer.ops", "count", "higher"),
    // stream_app: StreamApp load, pass and offload.
    layer("stream_app.run_pass.chunk_copy.p50_ns", "ns", "lower"),
    layer("stream_app.run_pass.chunk_triad.p50_ns", "ns", "lower"),
    layer("stream_app.run_pass.burst_copy.p50_ns", "ns", "lower"),
    layer("stream_app.run_pass.burst_triad.p50_ns", "ns", "lower"),
    layer("stream_app.load.ns", "ns", "lower"),
    layer("stream_app.offload.ns", "ns", "lower"),
    // sched: dfe_sim::sched, per round of four passes.
    layer("sched.ticked_cycles", "count", "lower"),
    layer("sched.jumps", "count", "lower"),
    layer("sched.skipped_cycles", "count", "higher"),
    // polymem_kernel: cycle attribution, per round of four passes.
    layer("polymem_kernel.cycles.active", "count", "higher"),
    layer("polymem_kernel.cycles.contention", "count", "lower"),
    layer("polymem_kernel.cycles.pipeline", "count", "lower"),
    layer("polymem_kernel.cycles.pcie", "count", "lower"),
    layer("polymem_kernel.cycles.idle", "count", "lower"),
    layer("polymem_kernel.residual_cycles", "count", "lower"),
    // ceiling: measured in the same run.
    layer("ceiling.memcpy.ns", "ns", "lower"),
    layer("ceiling.empty_tick.ns", "ns", "lower"),
];

/// The declared metrics of one mode.
pub fn catalog(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A run's outcome: operation counts, metric values and notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (every checked operation and final check).
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Set metric `name`, which must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A metric value already set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Add a human-readable line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold a later segment of the run into this report: its counts add
    /// up, its values and notes replace these.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.values = other.values;
        self.notes = other.notes;
    }

    /// Set every value `other` holds.
    pub fn overlay(&mut self, other: &Report) {
        self.values
            .extend(other.values.iter().map(|(k, v)| (*k, *v)));
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics printed in this mode, every one of them, in catalog
    /// order. A metric no layer of the workload reached reads 0.
    pub fn metrics(&self, trace: bool) -> Vec<(Metric, f64)> {
        catalog(trace)
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                (*m, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }

    /// Everything the run prints: notes, one line per metric, and last the
    /// one-line JSON result.
    pub fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let metrics = self.metrics(trace);
        for (m, v) in &metrics {
            let _ = writeln!(out, "{:<40} {v} {}", m.name, m.unit);
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
        out
    }
}
