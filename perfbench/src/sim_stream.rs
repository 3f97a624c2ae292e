//! `sim-stream`: Fig. 9 STREAM Copy and Triad passes simulated on
//! `StreamApp` with the event-driven scheduler, at the paper's 120 MHz and
//! 14-cycle read latency, on the 128 KB vector of EXPERIMENTS.md's Fig. 10
//! table (short enough passes that a run holds thousands of rounds).
//!
//! Passes alternate between the per-chunk controller, where `sched`,
//! kernel ticks and FIFOs carry the host time and replay moves 8 elements
//! per access, and the region-burst controller, where region replay inside
//! the kernel carries it. Set-up runs one pass of every design under the
//! ticked loop and one under the event-driven loop and requires identical
//! cycles and cycle attribution: a simulator-only change must leave every
//! simulated number unchanged.

use crate::gen::{self, Rng};
use crate::hist::Hist;
use crate::lib_stream::same;
use crate::report::Report;
use crate::trace::{Spans, ROOT};
use crate::{ceiling, plan_compile_layer, Bench, CeilingFrac, Totals, NORM_SCALE};
use dfe_sim::{SchedulerMode, SchedulerStats};
use polymem::{Region, TelemetryRegistry, TelemetrySnapshot};
use std::time::{Duration, Instant};
use stream_bench::{
    scalar_reference, vector_regions, StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ,
};

/// Elements per vector: 32 rows of 512, 128 KB.
pub const LEN: usize = 32 * 512;
/// The paper's Fig. 10 headline: 99.6% of peak.
pub const PAPER_PEAK_FRAC: f64 = 0.996;
/// EXPERIMENTS.md's Fig. 10 row for 128 KB: 97.6% of peak.
pub const EXPERIMENTS_PEAK_FRAC: f64 = 0.976;

/// Empty-kernel cycles timed before every round for its ceiling.
const TICK_BATCH: u64 = 4096;

/// The kernel's cycle-attribution states.
pub const STATES: [&str; 5] = ["active", "contention", "pipeline", "pcie", "idle"];

/// One controller x op design.
struct Design {
    /// The span each pass records.
    span: &'static str,
    /// The per-layer metric of the span's median.
    metric: &'static str,
    op: StreamOp,
    app: StreamApp,
    /// Cycles per pass, agreed by the ticked and event-driven loops.
    cycles: u64,
    /// Per-pass cycle attribution, agreed by both loops.
    attribution: [u64; 5],
    /// What the event-driven loop did in one pass.
    sched: SchedulerStats,
    registry: Option<TelemetryRegistry>,
}

/// The workload's state.
pub struct SimStream {
    designs: Vec<Design>,
    inputs: [Vec<f64>; 3],
    peak_frac: f64,
    identity_ok: bool,
    load_ns: Hist,
}

fn build(burst: bool, op: StreamOp, mode: SchedulerMode) -> StreamApp {
    let layout = StreamLayout::paper_geometry(LEN).expect("128 KB fits the paper geometry");
    let mut app = if burst {
        StreamApp::new_burst(op, layout, PAPER_STREAM_FREQ_MHZ)
    } else {
        StreamApp::new(op, layout, PAPER_STREAM_FREQ_MHZ)
    }
    .expect("valid design");
    app.set_scheduler_mode(mode);
    app
}

fn attribution(snap: &TelemetrySnapshot) -> [u64; 5] {
    STATES.map(|s| {
        snap.counter_value(
            "dfe_kernel_cycles_total",
            &[("kernel", "polymem"), ("state", s)],
        )
        .unwrap_or(0)
    })
}

fn counter(snaps: &[TelemetrySnapshot], name: &str, labels: &[(&str, &str)]) -> f64 {
    snaps
        .iter()
        .map(|s| s.counter_value(name, labels).unwrap_or(0) as f64)
        .sum()
}

impl SimStream {
    /// Build the four designs, check ticked/event-driven identity, and load
    /// the measured designs with seeded vectors.
    pub fn setup(seed: u64) -> Self {
        let inputs = [
            gen::vector(seed, 21, LEN),
            gen::vector(seed, 22, LEN),
            gen::vector(seed, 23, LEN),
        ];
        let q = 0.25 + 0.5 * Rng::new(seed, 24).unit();
        let [a, b, c] = &inputs;
        let mut load_ns = Hist::default();
        let mut identity_ok = true;
        let mut peak_frac = 0.0;
        let mut designs = Vec::new();
        // Each design's pass span and the per-layer metric of its median.
        let kinds = [
            (
                "stream_app.run_pass.chunk_copy",
                "stream_app.run_pass.chunk_copy.p50_ns",
                false,
                StreamOp::Copy,
            ),
            (
                "stream_app.run_pass.chunk_triad",
                "stream_app.run_pass.chunk_triad.p50_ns",
                false,
                StreamOp::Triad(q),
            ),
            (
                "stream_app.run_pass.burst_copy",
                "stream_app.run_pass.burst_copy.p50_ns",
                true,
                StreamOp::Copy,
            ),
            (
                "stream_app.run_pass.burst_triad",
                "stream_app.run_pass.burst_triad.p50_ns",
                true,
                StreamOp::Triad(q),
            ),
        ];
        for (span, metric, burst, op) in kinds {
            let [(ticked, t_attr, _, t_ok), (event, e_attr, sched, e_ok)] =
                [SchedulerMode::Ticked, SchedulerMode::EventDriven].map(|mode| {
                    let mut app = build(burst, op, mode);
                    let registry = TelemetryRegistry::new();
                    app.attach_telemetry(&registry);
                    app.load(a, b, c).expect("vectors fit");
                    let t = app.measure(1);
                    let ok = app.errors().is_empty();
                    let attr = attribution(&registry.snapshot());
                    (t, attr, app.scheduler_stats(), ok)
                });
            identity_ok &= t_ok
                && e_ok
                && ticked.cycles_per_run == event.cycles_per_run
                && t_attr == e_attr
                && e_attr.iter().sum::<u64>() == event.cycles_per_run;
            if !burst && op == StreamOp::Copy {
                peak_frac = event.fraction_of_peak();
            }
            let mut app = build(burst, op, SchedulerMode::EventDriven);
            let t = Instant::now();
            app.load(a, b, c).expect("vectors fit");
            load_ns.record(t.elapsed().as_nanos() as u64);
            designs.push(Design {
                span,
                metric,
                op,
                app,
                cycles: event.cycles_per_run,
                attribution: e_attr,
                sched,
                registry: None,
            });
        }
        Self {
            designs,
            inputs,
            peak_frac,
            identity_ok,
            load_ns,
        }
    }

    /// Simulated cycles of one round of the four passes.
    pub fn round_cycles(&self) -> u64 {
        self.designs.iter().map(|d| d.cycles).sum()
    }
}

impl Bench for SimStream {
    fn measure(&mut self, budget: Duration, sp: &mut Spans, rep: &mut Report) -> Totals {
        let traced = sp.enabled();
        if traced {
            for d in &mut self.designs {
                let registry = TelemetryRegistry::new();
                d.app.attach_telemetry(&registry);
                d.registry = Some(registry);
            }
        }
        let snap = |designs: &[Design]| -> Vec<TelemetrySnapshot> {
            designs
                .iter()
                .filter_map(|d| d.registry.as_ref().map(|r| r.snapshot()))
                .collect()
        };
        let before = snap(&self.designs);
        let mut lat = Hist::default();
        let mut norm = Hist::default();
        let mut ticks = Hist::default();
        let mut window = ceiling::Window::default();
        let (mut cycles, mut bytes) = (0u64, 0.0);
        let mut frac = CeilingFrac::new(16);
        let start = Instant::now();
        while start.elapsed() < budget {
            // The ceiling is timed next to every round, so both see the
            // same host conditions.
            let tick = ceiling::empty_tick_batch_ns(TICK_BATCH);
            let mut round = 0;
            for d in &mut self.designs {
                let m = sp.op_begin();
                let got = d.app.run_pass();
                round += sp.end(d.span, m, ROOT);
                rep.check(got == d.cycles && d.app.errors().is_empty());
                cycles += got;
                bytes += (d.op.bytes_per_element() * LEN) as f64;
            }
            let ceil = self.round_cycles() as f64 * window.push(tick) / TICK_BATCH as f64;
            lat.record(round);
            ticks.record(tick);
            norm.record((round as f64 / ceil * NORM_SCALE) as u64);
            frac.add(ceil, round as f64);
        }
        let tick_ns = ticks.quantile(0.5) / TICK_BATCH as f64;
        let busy_ns = lat.total() as f64;
        let ns_per_cycle = busy_ns / cycles as f64;
        rep.set("sim_ns_per_cycle", ns_per_cycle);
        rep.set("sim_peak_frac", self.peak_frac);
        rep.set(
            "sim_peak_frac.err_paper",
            (self.peak_frac - PAPER_PEAK_FRAC).abs(),
        );
        rep.set(
            "sim_peak_frac.err_experiments",
            (self.peak_frac - EXPERIMENTS_PEAK_FRAC).abs(),
        );
        rep.note(format!(
            "sim-stream: {} rounds of {} simulated cycles at {ns_per_cycle:.2} host ns/cycle beside \
             a same-run empty-kernel tick of {tick_ns:.2} ns; Copy reaches {:.2}% of peak \
             (paper 99.6%: {:+.2} pts; EXPERIMENTS.md 128 KB row 97.6%: {:+.2} pts)",
            lat.len(),
            self.round_cycles(),
            100.0 * self.peak_frac,
            100.0 * (self.peak_frac - PAPER_PEAK_FRAC),
            100.0 * (self.peak_frac - EXPERIMENTS_PEAK_FRAC),
        ));
        if traced {
            for d in &self.designs {
                rep.set(d.metric, sp.layer(d.span).quantile(0.5));
            }
            rep.set("stream_app.load.ns", self.load_ns.quantile(0.5));
            let sum = |f: &dyn Fn(&Design) -> u64| self.designs.iter().map(f).sum::<u64>() as f64;
            rep.set("sched.ticked_cycles", sum(&|d| d.sched.ticked_cycles));
            rep.set("sched.jumps", sum(&|d| d.sched.jumps));
            rep.set("sched.skipped_cycles", sum(&|d| d.sched.skipped_cycles));
            let mut attributed = 0.0;
            for (k, name) in [
                "polymem_kernel.cycles.active",
                "polymem_kernel.cycles.contention",
                "polymem_kernel.cycles.pipeline",
                "polymem_kernel.cycles.pcie",
                "polymem_kernel.cycles.idle",
            ]
            .into_iter()
            .enumerate()
            {
                let v = sum(&|d| d.attribution[k]);
                attributed += v;
                rep.set(name, v);
            }
            let residual = self.round_cycles() as f64 - attributed;
            rep.set("polymem_kernel.residual_cycles", residual);
            rep.note(format!(
                "sim-stream ledger: kernel attribution sums to {attributed} of {} cycles per round \
                 (residual {residual})",
                self.round_cycles()
            ));
            let after = snap(&self.designs);
            let delta = |name: &str, labels: &[(&str, &str)]| {
                counter(&after, name, labels) - counter(&before, name, labels)
            };
            let region = [("cache", "region")];
            let (hits, misses) = (
                delta("polymem_plan_cache_hits_total", &region),
                delta("polymem_plan_cache_misses_total", &region),
            );
            rep.set("region_plan.hits", hits);
            rep.set("region_plan.misses", misses);
            rep.set(
                "region_plan.evictions",
                delta("polymem_plan_cache_evictions_total", &region),
            );
            rep.set("region_plan.hit_ratio", hits / (hits + misses));
            let (c, s) = (
                delta("polymem_region_coalesced_bytes_total", &[]),
                delta("polymem_region_strided_bytes_total", &[]),
            );
            rep.set("bulk.coalesced_byte_frac", c / (c + s));
            // The burst controller's distinct plan keys: one Block per
            // vector, each in its own origin residue class.
            let layout = StreamLayout::paper_geometry(LEN).expect("fits");
            let p = layout.config.p;
            let keys: Vec<Region> = [(&layout.a, "A"), (&layout.b, "B"), (&layout.c, "C")]
                .into_iter()
                .flat_map(|(v, tag)| vector_regions(v, p, tag))
                .collect();
            let reps: Vec<Region> = keys.iter().cycle().take(4 * keys.len()).cloned().collect();
            plan_compile_layer(rep, &layout.config, &reps);
            let heap = rep.get("region_plan.heap_per_moved_byte").unwrap_or(0.0)
                * (keys.len() * LEN * 8) as f64;
            rep.set("region_plan.heap_bytes", heap);
            for d in &mut self.designs {
                d.registry = None;
            }
        }
        Totals {
            bytes,
            busy_ns,
            frac,
            lat,
            norm,
            unit: "round of four passes",
        }
    }

    fn verify(&mut self, rep: &mut Report) {
        rep.check(self.identity_ok);
        let [a, b, c] = &self.inputs;
        let mut offload = Hist::default();
        for d in &mut self.designs {
            let t = Instant::now();
            let (out, _) = d.app.offload();
            offload.record(t.elapsed().as_nanos() as u64);
            rep.check(same(&out, &scalar_reference(d.op, a, b, c)) && d.app.errors().is_empty());
        }
        rep.set("stream_app.offload.ns", offload.quantile(0.5));
    }
}
