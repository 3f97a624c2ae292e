//! The assembled STREAM design and its staged execution (paper §V).
//!
//! The design runs in three host-orchestrated stages, each a blocking call:
//!
//! 1. **Load** — the host streams vectors A, B, C into PolyMem's three
//!    regions over PCIe;
//! 2. **Compute** (the measured stage — "Copy" in the paper) — the
//!    Controller streams chunks through PolyMem's read port(s), applies the
//!    op, and feeds the write port from the memory's own output (the
//!    feedback loop), fully pipelined;
//! 3. **Offload** — the host retrieves the result vector.
//!
//! Stage timing follows the paper's measurement methodology: the compute
//! stage costs `cycles / f` plus the ~300 ns blocking-call overhead, and is
//! repeated (1000 runs in the paper) for resolution; the simulator verifies
//! run-to-run determinism instead of re-simulating all 1000.

use crate::burst::{burst_parts, BurstTelemetry, RegionPorts};
use crate::controller::{chunk_parts, Controller, ControllerState, StateRef};
use crate::layout::StreamLayout;
use crate::modular;
use crate::op::StreamOp;
use dfe_sim::clock::SimClock;
use dfe_sim::kernel::{stream_graph, Kernel, StreamEdge};
use dfe_sim::pcie::{Host, PcieLink};
use dfe_sim::polymem_kernel::{PolyMemKernel, PAPER_READ_LATENCY};
use dfe_sim::sched::{self, SchedTrace, SchedulerMode, SchedulerStats};
use dfe_sim::stream::stream;
use polymem::telemetry::{Counter, Histogram, TelemetryRegistry};
use polymem::tracing::TraceJournal;
use polymem::PolyMemError;
use std::cell::RefCell;
use std::rc::Rc;

/// The paper's synthesized STREAM clock: 120 MHz.
pub const PAPER_STREAM_FREQ_MHZ: f64 = 120.0;

/// Bucket bounds for per-pass cycle counts: paper-size passes land in the
/// thousands, toy geometries in the tens.
static PASS_CYCLE_BOUNDS: [u64; 8] = [64, 128, 256, 512, 1024, 4096, 16384, 65536];

/// Bucket bounds for per-pass achieved bandwidth in MB/s; the top finite
/// bucket sits just under the paper's 15 360 MB/s peak.
static PASS_BANDWIDTH_BOUNDS: [u64; 6] = [1000, 2000, 4000, 8000, 12000, 15360];

/// Per-pass app telemetry: pass-level histograms plus the simulated-cycle
/// accumulator that the exact-sum stall check reconciles against
/// `dfe_kernel_cycles_total` (the kernel ticks exactly once per simulated
/// cycle in [`StreamApp::run_pass`], so the state buckets must sum to
/// `stream_sim_cycles_total` when telemetry was attached before the first
/// pass).
struct AppTelemetry {
    pass_cycles: Histogram,
    pass_bandwidth: Histogram,
    passes: Counter,
    sim_cycles: Counter,
    /// Span-journal ring overwrites, mirrored from the journal's drop
    /// counter at each pass end (stays 0 when no journal is attached —
    /// registered unconditionally so the committed telemetry schema is
    /// satisfiable by `attach_telemetry` alone).
    trace_dropped: Counter,
}

/// Span-journal wiring for the whole design (see
/// [`StreamApp::attach_tracing`]): the PolyMem kernel instruments itself,
/// the shared scheduler step keeps the journal's clock and records
/// fast-forwards, and the app mirrors the journal's drop counter into
/// telemetry.
struct AppTracing {
    sched: SchedTrace,
    /// Drops already mirrored into `stream_trace_dropped_total`.
    synced_drops: u64,
}

/// Timing result of a measured compute stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Cycles per run (deterministic across runs).
    pub cycles_per_run: u64,
    /// Number of runs accounted.
    pub runs: usize,
    /// Wall time per run in ns, including the host-call overhead.
    pub time_per_run_ns: f64,
    /// Aggregated bandwidth in MB/s (reads + writes, STREAM counting).
    pub bandwidth_mbps: f64,
    /// The theoretical peak for this op/geometry/frequency in MB/s.
    pub peak_mbps: f64,
}

impl StageTiming {
    /// Fraction of theoretical peak achieved.
    pub fn fraction_of_peak(&self) -> f64 {
        self.bandwidth_mbps / self.peak_mbps
    }
}

/// The four Fig. 9 compute designs [`StreamApp::build`] assembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// The paper's measured design: one controller kernel issues per-chunk
    /// reads and writes on the memory's scalar ports.
    Fused,
    /// One controller kernel streams whole-region bursts on the memory's
    /// region ports (see [`crate::burst`]).
    FusedBurst,
    /// The §III-C modular design: issue, compute and write kernels, per
    /// chunk (see [`crate::modular`]).
    Modular,
    /// The modular design moving whole-region bursts.
    ModularBurst,
}

impl Design {
    /// Every design, fused first.
    pub const ALL: [Design; 4] = [
        Design::Fused,
        Design::FusedBurst,
        Design::Modular,
        Design::ModularBurst,
    ];

    /// Whether the design drives the memory's region ports.
    pub fn is_burst(self) -> bool {
        matches!(self, Design::FusedBurst | Design::ModularBurst)
    }
}

/// The assembled design: PolyMem kernel + the design's controller
/// kernel(s) + host endpoint.
pub struct StreamApp {
    op: StreamOp,
    design: Design,
    layout: StreamLayout,
    clock: SimClock,
    polymem: PolyMemKernel,
    /// The design's other kernels in tick order; the memory ticks after
    /// the first of them.
    stages: Vec<Controller>,
    state: StateRef,
    host: Host,
    mode: SchedulerMode,
    sched_stats: SchedulerStats,
    tlm: Option<AppTelemetry>,
    trc: Option<AppTracing>,
}

impl StreamApp {
    /// Build the fused per-chunk design for `op` on `layout` at `freq_mhz`
    /// with the paper's 14-cycle read latency.
    pub fn new(op: StreamOp, layout: StreamLayout, freq_mhz: f64) -> polymem::Result<Self> {
        Self::build(Design::Fused, op, layout, freq_mhz, PAPER_READ_LATENCY)
    }

    /// Build the fused **region-burst** design for `op` on `layout`: the
    /// compute stage issues whole-region bursts on the PolyMem kernel's
    /// region ports instead of per-chunk requests (see [`crate::burst`]).
    /// Cycle accounting is identical; the host-side modelling cost per
    /// pass is not.
    pub fn new_burst(op: StreamOp, layout: StreamLayout, freq_mhz: f64) -> polymem::Result<Self> {
        Self::build(Design::FusedBurst, op, layout, freq_mhz, PAPER_READ_LATENCY)
    }

    /// Build `design` for `op` on `layout` at `freq_mhz` with an explicit
    /// read latency (latency-sensitivity studies, the modular ablation).
    pub fn build(
        design: Design,
        op: StreamOp,
        layout: StreamLayout,
        freq_mhz: f64,
        read_latency: u64,
    ) -> polymem::Result<Self> {
        let ports = layout.config.read_ports;
        let rq: Vec<_> = (0..ports)
            .map(|p| stream(format!("read-req-{p}"), 8))
            .collect();
        let rs: Vec<_> = (0..ports)
            .map(|p| stream(format!("read-resp-{p}"), read_latency as usize + 8))
            .collect();
        let wq = stream("write-req", 8);
        let mut polymem = PolyMemKernel::new(
            "polymem",
            layout.config,
            read_latency,
            rq.clone(),
            rs.clone(),
            Rc::clone(&wq),
        )?;
        let state: StateRef = Rc::new(RefCell::new(ControllerState::default()));
        let stages = match design {
            Design::Fused => vec![Controller::new(op, layout, Rc::clone(&state), rq, rs, wq)],
            Design::FusedBurst => {
                let region = RegionPorts::attach(&mut polymem);
                vec![Controller::burst(op, &layout, Rc::clone(&state), &region)]
            }
            Design::Modular => {
                let parts = chunk_parts(op, &layout, &rq, &rs, wq, stream("modular-result", 8));
                modular::split("modular", op, &state, layout.a.chunks(), 1, parts)
            }
            Design::ModularBurst => {
                let region = RegionPorts::attach(&mut polymem);
                let mid = stream("modular-burst-result", 2);
                let (parts, units) = burst_parts(op, &layout, &region, mid);
                modular::split("modular-burst", op, &state, units, op.reads(), parts)
            }
        };
        Ok(Self {
            op,
            design,
            layout,
            clock: SimClock::new(freq_mhz),
            polymem,
            stages,
            state,
            host: Host::new(PcieLink::vectis()),
            mode: SchedulerMode::default(),
            sched_stats: SchedulerStats::default(),
            tlm: None,
            trc: None,
        })
    }

    /// Select the driving loop for [`Self::run_pass`]: the event-driven
    /// scheduler (default) or the legacy per-cycle ticked loop. Cycle counts
    /// are identical in both modes; only host time differs.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        self.mode = mode;
    }

    /// The active scheduling mode.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.mode
    }

    /// What the event-driven loop actually did (ticks vs fast-forward jumps),
    /// accumulated across passes.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.sched_stats
    }

    /// Wire the whole design into `registry`: the PolyMem kernel's cycle
    /// attribution and datapath counters, the burst occupancy histogram
    /// (burst designs only), and the app's own per-pass cycle and
    /// bandwidth histograms. Attach before the first [`Self::run_pass`] so
    /// the attribution buckets cover every simulated cycle.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        self.polymem.attach_telemetry(registry);
        if self.design.is_burst() {
            let t = BurstTelemetry::new(registry, self.op);
            for stage in &mut self.stages {
                stage.tlm = Some(t.clone());
            }
        }
        let labels = vec![("op", self.op.name().to_string())];
        self.tlm = Some(AppTelemetry {
            pass_cycles: registry.histogram(
                "stream_pass_cycles",
                labels.clone(),
                &PASS_CYCLE_BOUNDS,
            ),
            pass_bandwidth: registry.histogram(
                "stream_pass_bandwidth_mbps",
                labels.clone(),
                &PASS_BANDWIDTH_BOUNDS,
            ),
            passes: registry.counter("stream_passes_total", labels.clone()),
            sim_cycles: registry.counter("stream_sim_cycles_total", labels.clone()),
            trace_dropped: registry.counter("stream_trace_dropped_total", labels),
        });
    }

    /// Record the whole design into `journal`: the PolyMem kernel's
    /// cycle-attribution strip, per-kind burst tracks and memory replay
    /// spans (see [`PolyMemKernel::attach_tracing`]), plus `sched`-track
    /// fast-forward spans for every event-driven jump. Attach before the
    /// first [`Self::run_pass`]; each pass end flushes the open
    /// attribution run, so the journal's per-state span sums for the
    /// `polymem` track reconcile exactly with `dfe_kernel_cycles_total`.
    pub fn attach_tracing(&mut self, journal: &TraceJournal) {
        self.polymem.attach_tracing(journal);
        self.trc = Some(AppTracing {
            sched: SchedTrace::new(journal, self.clock.cycle()),
            synced_drops: 0,
        });
    }

    /// The op being benchmarked.
    pub fn op(&self) -> StreamOp {
        self.op
    }

    /// Every kernel of the design, in tick order.
    pub(crate) fn kernels(&self) -> impl Iterator<Item = &dyn Kernel> {
        let (first, rest) = self.stages.split_at(1);
        first
            .iter()
            .map(|k| k as &dyn Kernel)
            .chain([&self.polymem as &dyn Kernel])
            .chain(rest.iter().map(|k| k as &dyn Kernel))
    }

    /// The design's live stream wiring, joined from its kernels' endpoints
    /// (see [`dfe_sim::kernel::stream_graph`]). Computed on demand.
    pub fn stream_graph(&self) -> Vec<StreamEdge> {
        stream_graph(self.kernels())
    }

    /// The memory layout.
    pub fn layout(&self) -> &StreamLayout {
        &self.layout
    }

    /// Host-side statistics (PCIe traffic and time).
    pub fn host_stats(&self) -> dfe_sim::pcie::HostStats {
        self.host.stats()
    }

    /// **Load stage**: fill A, B and C with the given values. Returns the
    /// stage's host time in ns, or [`PolyMemError::WrongLaneCount`] — with
    /// memory untouched — unless every length equals the layout's vector
    /// length.
    pub fn load(&mut self, a: &[f64], b: &[f64], c: &[f64]) -> polymem::Result<f64> {
        let n = self.layout.a.len;
        if let Some(v) = [a, b, c].into_iter().find(|v| v.len() != n) {
            return Err(PolyMemError::WrongLaneCount {
                got: v.len(),
                expected: n,
            });
        }
        for (vals, lay) in [(a, self.layout.a), (b, self.layout.b), (c, self.layout.c)] {
            for (k, &v) in vals.iter().enumerate() {
                let (i, j) = lay.coord(k);
                self.polymem.mem().set(i, j, v.to_bits())?;
            }
        }
        Ok(self.host.send(3 * n * 8))
    }

    /// Run one compute pass to completion; returns the cycle count.
    /// Returns an error-free count only if the memory accepted every access
    /// (invalid accesses are surfaced via [`Self::errors`]).
    pub fn run_pass(&mut self) -> u64 {
        *self.state.borrow_mut() = ControllerState {
            running: true,
            ..Default::default()
        };
        let start = self.clock.cycle();
        let units = self.stages[0].units();
        // The wedge cap: a healthy pass makes at most 4 accesses per chunk
        // and, even with no overlap at all, waits out the read latency once
        // per read of each unit.
        let max = 4 * self.layout.a.chunks() as u64
            + (units * self.op.reads()) as u64 * (self.polymem.read_latency() + 1)
            + 1000;
        let (first, rest) = self.stages.split_at_mut(1);
        let mut kernels: Vec<&mut dyn Kernel> = first
            .iter_mut()
            .map(|k| k as &mut dyn Kernel)
            .chain([&mut self.polymem as &mut dyn Kernel])
            .chain(rest.iter_mut().map(|k| k as &mut dyn Kernel))
            .collect();
        // The pass ends once the last unit is written and the memory (slot
        // 1) has drained every request and pipeline.
        while self.state.borrow().running || !kernels[1].is_idle() {
            sched::step(
                self.mode,
                &mut self.clock,
                &mut kernels,
                start + max + 1,
                &mut self.sched_stats,
                self.trc.as_ref().map(|tr| &tr.sched),
            );
            if self.clock.cycle() - start > max {
                panic!(
                    "STREAM pass wedged after {} cycles ({} of {} units written)",
                    max,
                    self.state.borrow().written,
                    units
                );
            }
        }
        let cycles = self.clock.cycle() - start;
        if let Some(tr) = &mut self.trc {
            self.polymem.finish_tracing();
            if let Some(t) = &self.tlm {
                let dropped = tr.sched.journal().dropped();
                t.trace_dropped.add(dropped - tr.synced_drops);
                tr.synced_drops = dropped;
            }
        }
        if let Some(t) = &self.tlm {
            t.passes.inc();
            t.sim_cycles.add(cycles);
            t.pass_cycles.observe(cycles);
            let ns = cycles as f64 * self.clock.period_ns();
            let bytes = (self.op.bytes_per_element() * self.layout.a.len) as f64;
            t.pass_bandwidth.observe((bytes / ns * 1000.0) as u64);
        }
        cycles
    }

    /// **Compute stage**, measured as the paper does: `runs` blocking
    /// invocations. The first `verify_runs` (min(3, runs)) are actually
    /// simulated and must agree cycle-for-cycle (the design is
    /// deterministic); the rest are accounted arithmetically.
    pub fn measure(&mut self, runs: usize) -> StageTiming {
        assert!(runs > 0);
        let first = self.run_pass();
        for r in 1..runs.min(3) {
            let again = self.run_pass();
            assert_eq!(again, first, "run {r} diverged from run 0");
        }
        let overhead = self.host.link().call_overhead_ns;
        for _ in 0..runs {
            self.host.signal();
        }
        let time_per_run_ns = first as f64 * self.clock.period_ns() + overhead;
        let n = self.layout.a.len;
        let bytes_per_run = (self.op.bytes_per_element() * n) as f64;
        let bandwidth_mbps = bytes_per_run / time_per_run_ns * 1000.0;
        // Peak: every cycle moves lanes*8 bytes per active port (reads) plus
        // lanes*8 written.
        let lanes = self.layout.config.lanes() as f64;
        let streams = (self.op.reads() + 1) as f64;
        let peak_mbps = streams * lanes * 8.0 * self.clock.freq_mhz();
        StageTiming {
            cycles_per_run: first,
            runs,
            time_per_run_ns,
            bandwidth_mbps,
            peak_mbps,
        }
    }

    /// **Offload stage**: read back the op's destination vector. Returns
    /// (values, host time ns).
    pub fn offload(&mut self) -> (Vec<f64>, f64) {
        let (_, _, lay) = self.op.route(self.layout.a, self.layout.b, self.layout.c);
        let n = lay.len;
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let (i, j) = lay.coord(k);
            let bits = self.polymem.mem().get(i, j).expect("in-bounds");
            out.push(f64::from_bits(bits));
        }
        let t = self.host.receive(n * 8);
        (out, t)
    }

    /// Errors surfaced by the memory (empty in a correct design).
    pub fn errors(&self) -> &[polymem::PolyMemError] {
        self.polymem.errors()
    }
}

/// Scalar reference implementation for verification.
pub fn scalar_reference(op: StreamOp, a: &[f64], b: &[f64], c: &[f64]) -> Vec<f64> {
    match op.route(a, b, c) {
        (x, None, _) => x.iter().map(|&x| op.apply(x, 0.0)).collect(),
        (x, Some(y), _) => x.iter().zip(y).map(|(&x, &y)| op.apply(x, y)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem::AccessScheme;

    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|k| k as f64 + 0.5).collect();
        let b: Vec<f64> = (0..n).map(|k| (k as f64) * 2.0).collect();
        let c: Vec<f64> = (0..n).map(|k| 1000.0 - k as f64).collect();
        (a, b, c)
    }

    fn run(op: StreamOp, len: usize) -> (Vec<f64>, StageTiming) {
        let layout = StreamLayout::new(len, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new(op, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let (a, b, c) = vectors(len);
        app.load(&a, &b, &c).unwrap();
        let timing = app.measure(3);
        assert!(app.errors().is_empty(), "memory errors: {:?}", app.errors());
        let (out, _) = app.offload();
        let want = scalar_reference(op, &a, &b, &c);
        assert_eq!(out, want, "{} result mismatch", op.name());
        (out, timing)
    }

    #[test]
    fn copy_correct_and_pipelined() {
        let (_, t) = run(StreamOp::Copy, 512);
        // 64 chunks + ~15 pipeline cycles.
        assert!(t.cycles_per_run < 64 + 25, "cycles {}", t.cycles_per_run);
        assert!(t.fraction_of_peak() > 0.5);
    }

    #[test]
    fn scale_correct() {
        run(StreamOp::Scale(3.25), 256);
    }

    #[test]
    fn sum_correct() {
        run(StreamOp::Sum, 256);
    }

    #[test]
    fn triad_correct() {
        run(StreamOp::Triad(2.5), 512);
    }

    #[test]
    fn bandwidth_approaches_peak_for_large_vectors() {
        let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let n = StreamLayout::PAPER_MAX_LEN;
        let (a, b, c) = vectors(n);
        app.load(&a, &b, &c).unwrap();
        let t = app.measure(1000);
        // The paper's headline: >99% of the 15360 MB/s theoretical peak.
        assert!((t.peak_mbps - 15360.0).abs() < 1.0, "peak {}", t.peak_mbps);
        assert!(
            t.fraction_of_peak() > 0.99,
            "achieved {} of peak {}",
            t.bandwidth_mbps,
            t.peak_mbps
        );
        assert!(t.bandwidth_mbps > 15200.0 && t.bandwidth_mbps < 15360.0);
    }

    #[test]
    fn small_vectors_dominated_by_overhead() {
        let layout = StreamLayout::paper_geometry(512).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let t = app.measure(10);
        // 64 chunks ~ 80 cycles ~ 667 ns; +300 ns overhead -> well below peak.
        assert!(
            t.fraction_of_peak() < 0.8,
            "small run should be overhead-bound, got {}",
            t.fraction_of_peak()
        );
    }

    #[test]
    fn latency_affects_fixed_cost_not_steady_state() {
        let mk = |lat| {
            let layout = StreamLayout::new(2048, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
            let mut app =
                StreamApp::build(Design::Fused, StreamOp::Copy, layout, 120.0, lat).unwrap();
            let (a, b, c) = vectors(2048);
            app.load(&a, &b, &c).unwrap();
            app.measure(1).cycles_per_run
        };
        let fast = mk(1);
        let slow = mk(28);
        assert_eq!(slow - fast, 27, "latency is a pure pipeline-fill cost");
    }

    fn run_burst(op: StreamOp, len: usize) -> (Vec<f64>, StageTiming) {
        let layout = StreamLayout::new(len, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(op, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let (a, b, c) = vectors(len);
        app.load(&a, &b, &c).unwrap();
        let timing = app.measure(3);
        assert!(app.errors().is_empty(), "memory errors: {:?}", app.errors());
        let (out, _) = app.offload();
        let want = scalar_reference(op, &a, &b, &c);
        assert_eq!(out, want, "burst {} result mismatch", op.name());
        (out, timing)
    }

    #[test]
    fn burst_all_ops_match_scalar_reference() {
        run_burst(StreamOp::Copy, 512);
        run_burst(StreamOp::Scale(3.25), 256);
        run_burst(StreamOp::Sum, 256);
        run_burst(StreamOp::Triad(2.5), 512);
    }

    #[test]
    fn burst_copy_cycle_count_matches_per_chunk_model() {
        // The burst datapath charges the same ceil(len/lanes) access cycles
        // plus one pipeline fill, so simulated bandwidth is preserved: a
        // 512-element Copy is 64 access cycles + 14-cycle latency + a few
        // handshake cycles in either mode.
        let (_, burst) = run_burst(StreamOp::Copy, 512);
        let (_, chunked) = run(StreamOp::Copy, 512);
        assert!(burst.cycles_per_run < 64 + 25, "{}", burst.cycles_per_run);
        let delta = burst.cycles_per_run.abs_diff(chunked.cycles_per_run);
        assert!(
            delta <= 10,
            "burst {} vs per-chunk {} cycles",
            burst.cycles_per_run,
            chunked.cycles_per_run
        );
    }

    #[test]
    fn burst_bandwidth_approaches_peak_for_large_vectors() {
        let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let n = StreamLayout::PAPER_MAX_LEN;
        let (a, b, c) = vectors(n);
        app.load(&a, &b, &c).unwrap();
        let t = app.measure(1000);
        assert!(
            t.fraction_of_peak() > 0.99,
            "achieved {} of peak {}",
            t.bandwidth_mbps,
            t.peak_mbps
        );
    }

    #[test]
    fn burst_run_to_run_determinism_enforced() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Triad(1.5), layout, 120.0).unwrap();
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let c1 = app.run_pass();
        let c2 = app.run_pass();
        assert_eq!(c1, c2);
    }

    #[test]
    fn attribution_buckets_sum_to_simulated_cycles_exactly() {
        // The invariant polymem-top renders: with telemetry attached before
        // the first pass, every simulated cycle lands in exactly one
        // dfe_kernel_cycles_total state bucket.
        for burst in [false, true] {
            let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
            let mut app = if burst {
                StreamApp::new_burst(StreamOp::Triad(1.5), layout, 120.0).unwrap()
            } else {
                StreamApp::new(StreamOp::Triad(1.5), layout, 120.0).unwrap()
            };
            let reg = polymem::TelemetryRegistry::new();
            app.attach_telemetry(&reg);
            let (a, b, c) = vectors(512);
            app.load(&a, &b, &c).unwrap();
            let c1 = app.run_pass();
            let c2 = app.run_pass();
            let snap = reg.snapshot();
            let state = |s: &str| {
                snap.counter_value(
                    "dfe_kernel_cycles_total",
                    &[("kernel", "polymem"), ("state", s)],
                )
                .unwrap_or(0)
            };
            let attributed = state("active")
                + state("contention")
                + state("pipeline")
                + state("pcie")
                + state("idle");
            let sim = snap
                .counter_value("stream_sim_cycles_total", &[("op", "Triad")])
                .expect("sim cycle accumulator registered");
            assert_eq!(sim, c1 + c2, "accumulator tracks run_pass (burst={burst})");
            assert_eq!(attributed, sim, "exact-sum attribution (burst={burst})");
            assert_eq!(
                snap.counter_value("stream_passes_total", &[("op", "Triad")]),
                Some(2)
            );
        }
    }

    #[test]
    fn pass_histograms_record_each_pass() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let reg = polymem::TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        app.measure(3);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("stream_pass_cycles"), "{prom}");
        assert!(prom.contains("stream_pass_bandwidth_mbps"), "{prom}");
    }

    #[test]
    fn ticked_and_event_modes_agree_cycle_for_cycle() {
        // The tentpole invariant: the event scheduler is a host-time
        // optimisation, never a semantic change. Both driver flavours must
        // produce identical per-pass cycle counts in both modes.
        for burst in [false, true] {
            let mk = |mode| {
                let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
                let mut app = if burst {
                    StreamApp::new_burst(StreamOp::Triad(1.5), layout, 120.0).unwrap()
                } else {
                    StreamApp::new(StreamOp::Triad(1.5), layout, 120.0).unwrap()
                };
                app.set_scheduler_mode(mode);
                let (a, b, c) = vectors(512);
                app.load(&a, &b, &c).unwrap();
                let cycles = app.run_pass();
                let (out, _) = app.offload();
                (cycles, out, app.scheduler_stats())
            };
            let (ticked_cycles, ticked_out, ticked_stats) = mk(SchedulerMode::Ticked);
            let (event_cycles, event_out, event_stats) = mk(SchedulerMode::EventDriven);
            assert_eq!(ticked_cycles, event_cycles, "cycle parity (burst={burst})");
            assert_eq!(ticked_out, event_out, "result parity (burst={burst})");
            assert_eq!(
                ticked_stats,
                SchedulerStats::default(),
                "ticked loop bypasses sched"
            );
            assert_eq!(
                event_stats.total_cycles(),
                event_cycles,
                "scheduler accounts every simulated cycle (burst={burst})"
            );
            if burst {
                // Burst mode has real quiescent spans (engine-busy windows)
                // for the scheduler to fast-forward.
                assert!(
                    event_stats.jumps > 0 && event_stats.skipped_cycles > 0,
                    "burst pass should fast-forward, stats {event_stats:?}"
                );
            }
        }
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn traced_burst_copy_pass_reconciles_spans_with_telemetry() {
        use polymem::tracing::{TraceJournal, TraceSnapshot};
        // The acceptance-criteria scenario: a traced STREAM-Copy burst
        // pass. The journal's per-state span sums on the kernel's track
        // must equal the dfe_kernel_cycles_total buckets EXACTLY, and the
        // Chrome export must round-trip.
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let reg = polymem::TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let journal = TraceJournal::new(1 << 14);
        app.attach_tracing(&journal);
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let cycles = app.run_pass();

        let snap = journal.snapshot();
        assert_eq!(snap.dropped, 0, "journal sized for the pass");
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.validate_spans(), Vec::<String>::new());
        let by_state = snap.span_cycles_by_name("polymem");
        let reg_snap = reg.snapshot();
        for state in ["active", "contention", "pipeline", "pcie", "idle"] {
            let counted = reg_snap
                .counter_value(
                    "dfe_kernel_cycles_total",
                    &[("kernel", "polymem"), ("state", state)],
                )
                .unwrap_or(0);
            assert_eq!(
                by_state.get(state).copied().unwrap_or(0),
                counted,
                "span sum vs counter for state {state}"
            );
        }
        let total: u64 = by_state.values().sum();
        assert_eq!(total, cycles, "the attribution strip covers every cycle");
        // The copy bursts themselves appear on their own track, and the
        // scheduler's fast-forwards are collapsed spans on `sched`.
        let spans = snap.spans();
        assert!(spans.iter().any(|s| s.track == "polymem/copy-bursts"));
        assert!(spans
            .iter()
            .any(|s| s.track == "sched" && s.name == "fast-forward"));
        // Perfetto loadability proxy: the Chrome export parses back to the
        // identical event set. (The exporter stably sorts by timestamp;
        // retroactively flushed spans make journal order differ from
        // timestamp order, so compare in timestamp order.)
        let round = TraceSnapshot::from_chrome_json(&snap.to_chrome_json()).unwrap();
        let mut want = snap.events.clone();
        want.sort_by_key(|e| e.cycle);
        assert_eq!(round.events, want);
        assert_eq!((round.dropped, round.torn), (snap.dropped, snap.torn));
        // No drops -> the telemetry mirror stays 0.
        assert_eq!(
            reg_snap.counter_value("stream_trace_dropped_total", &[("op", "Copy")]),
            Some(0)
        );
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn journal_overflow_surfaces_in_trace_dropped_counter() {
        use polymem::tracing::TraceJournal;
        // A deliberately tiny journal: the pass overflows the ring and the
        // loss must surface in stream_trace_dropped_total instead of
        // silently truncating the timeline.
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let reg = polymem::TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let journal = TraceJournal::new(8);
        app.attach_tracing(&journal);
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        app.run_pass();
        let dropped = journal.dropped();
        assert!(dropped > 0, "an 8-slot ring must overflow");
        assert_eq!(
            reg.snapshot()
                .counter_value("stream_trace_dropped_total", &[("op", "Copy")]),
            Some(dropped)
        );
        assert_eq!(journal.snapshot().dropped, dropped);
    }

    /// Cycles each signal of a rendered VCD document spends non-zero, by
    /// signal name, reading change times back through the clock period.
    #[cfg(not(feature = "tracing-off"))]
    fn vcd_high_cycles(doc: &str, period_ns: f64) -> std::collections::BTreeMap<String, u64> {
        use std::collections::{BTreeMap, HashMap};
        let mut names = HashMap::new();
        let mut since: HashMap<&str, u64> = HashMap::new();
        let mut high = BTreeMap::new();
        let mut now = 0;
        for line in doc.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let (id, value) = match f.as_slice() {
                ["$var", "wire", _, id, name, "$end"] => {
                    names.insert(*id, name.to_string());
                    continue;
                }
                [t] if t.starts_with('#') => {
                    let ps: f64 = t[1..].parse().unwrap();
                    now = (ps / (period_ns * 1000.0)).round() as u64;
                    continue;
                }
                [bits, id] if bits.starts_with('b') => {
                    (*id, u64::from_str_radix(&bits[1..], 2).unwrap())
                }
                [bit_id] if bit_id.starts_with(['0', '1']) => {
                    (&bit_id[1..], u64::from(bit_id.starts_with('1')))
                }
                _ => continue,
            };
            let name = &names[id];
            if let Some(from) = since.remove(id) {
                *high.entry(name.clone()).or_default() += now - from;
            }
            if value > 0 {
                since.insert(id, now);
            }
        }
        assert!(since.is_empty(), "every signal ends low: {since:?}");
        high
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn traced_copy_pass_renders_attribution_vcd() {
        use dfe_sim::VcdRecorder;
        use polymem::tracing::TraceJournal;
        // The Fig. 9 Copy design, traced: the waveform recorded from the
        // journal holds one `polymem.<state>` signal per attribution state,
        // high on exactly the cycles dfe_kernel_cycles_total counts.
        let layout = StreamLayout::new(1024, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let reg = polymem::TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let journal = TraceJournal::new(1 << 14);
        app.attach_tracing(&journal);
        let (a, b, c) = vectors(1024);
        app.load(&a, &b, &c).unwrap();
        let cycles = app.run_pass();
        let snap = journal.snapshot();
        assert_eq!(snap.dropped, 0, "journal sized for the pass");
        let period_ns = 1000.0 / PAPER_STREAM_FREQ_MHZ;
        let doc = VcdRecorder::from_trace(&snap).render("stream_copy", period_ns);
        let high = vcd_high_cycles(&doc, period_ns);
        let reg_snap = reg.snapshot();
        let mut total = 0;
        for state in ["active", "contention", "pipeline", "pcie", "idle"] {
            let counted = reg_snap
                .counter_value(
                    "dfe_kernel_cycles_total",
                    &[("kernel", "polymem"), ("state", state)],
                )
                .unwrap_or(0);
            let signal = high.get(&format!("polymem.{state}")).copied().unwrap_or(0);
            assert_eq!(signal, counted, "high cycles of polymem.{state}");
            total += signal;
        }
        assert_eq!(total, cycles, "the attribution signals cover the pass");
        assert_eq!(app.offload().0, a, "the traced pass still copies");
    }

    /// One verified pass of `design` x `op` on `layout` under `mode`.
    fn pass_cycles(design: Design, op: StreamOp, layout: StreamLayout, mode: SchedulerMode) -> u64 {
        let mut app = StreamApp::build(design, op, layout, 120.0, PAPER_READ_LATENCY).unwrap();
        app.set_scheduler_mode(mode);
        let (a, b, c) = vectors(layout.a.len);
        app.load(&a, &b, &c).unwrap();
        let cycles = app.run_pass();
        assert!(app.errors().is_empty(), "memory errors: {:?}", app.errors());
        assert_eq!(app.offload().0, scalar_reference(op, &a, &b, &c));
        cycles
    }

    #[test]
    fn every_design_pins_its_cycles() {
        // Cycles per pass of the four designs as separately assembled
        // before they shared this builder; `Design::ALL` order, for the
        // 1-read ops (Copy, Scale) and the 2-read ops (Sum, Triad).
        let pins = [
            (
                StreamLayout::paper_geometry(32 * 512).unwrap(),
                [2063, 2064, 2064, 2065],
                [2063, 4126, 2064, 4127],
            ),
            (
                StreamLayout::new(1024, 64, 2, 4, AccessScheme::RoCo, 2).unwrap(),
                [143, 144, 144, 145],
                [143, 286, 144, 287],
            ),
        ];
        let ops = [
            StreamOp::Copy,
            StreamOp::Scale(3.0),
            StreamOp::Sum,
            StreamOp::Triad(2.5),
        ];
        for (layout, one_read, two_read) in pins {
            for (d, design) in Design::ALL.into_iter().enumerate() {
                for op in ops {
                    let want = if op.reads() == 1 {
                        one_read[d]
                    } else {
                        two_read[d]
                    };
                    for mode in [SchedulerMode::Ticked, SchedulerMode::EventDriven] {
                        assert_eq!(
                            pass_cycles(design, op, layout, mode),
                            want,
                            "{design:?} {} {mode:?} at {} elements",
                            op.name(),
                            layout.a.len
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_reports_its_streams() {
        let layout = StreamLayout::new(1024, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        for design in Design::ALL {
            for op in [StreamOp::Copy, StreamOp::Triad(2.0)] {
                let app = StreamApp::build(design, op, layout, 120.0, 14).unwrap();
                let names: Vec<&str> = app.kernels().map(|k| k.name()).collect();
                assert_eq!(names[1], "polymem", "{design:?}: memory ticks second");
                for k in app.kernels().filter(|k| k.name() != "polymem") {
                    assert!(
                        !k.endpoints().is_empty(),
                        "{design:?}: kernel {} reports no endpoints",
                        k.name()
                    );
                }
                let graph = app.stream_graph();
                assert!(graph.len() >= 2, "{design:?} {}: {graph:?}", op.name());
                for e in &graph {
                    assert!(names.contains(&e.producer.as_str()));
                    assert!(names.contains(&e.consumer.as_str()));
                    assert_ne!(e.producer, e.consumer);
                    assert_eq!(e.registered, e.producer == "polymem", "{e:?}");
                }
            }
        }
    }

    #[test]
    fn per_chunk_graph_matches_builder_wiring() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let app = StreamApp::new(StreamOp::Triad(2.0), layout, 120.0).unwrap();
        let g = app.stream_graph();
        assert_eq!(g.len(), 5, "2 req + 2 resp + write: {g:?}");
        assert!(g.iter().any(|e| e.stream == "read-req-1" && !e.registered));
        assert!(g.iter().any(|e| e.stream == "read-resp-0" && e.registered));
        assert!(g
            .iter()
            .all(|e| e.producer != e.consumer && !e.stream.is_empty()));
        // Copy reads one port: the second port's streams have one end each
        // and add no edge.
        let copy = StreamApp::new(StreamOp::Copy, layout, 120.0).unwrap();
        assert_eq!(copy.stream_graph().len(), 3);
    }

    #[test]
    fn burst_graph_registers_every_response() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let g: Vec<_> = [StreamOp::Copy, StreamOp::Triad(2.0)]
            .into_iter()
            .flat_map(|op| {
                StreamApp::new_burst(op, layout, 120.0)
                    .unwrap()
                    .stream_graph()
            })
            .collect();
        assert_eq!(g.len(), 5, "copy req/resp + region req/resp/write: {g:?}");
        for e in &g {
            assert_eq!(e.registered, e.stream.ends_with("-resp"));
            assert!([e.producer.as_str(), e.consumer.as_str()].contains(&"stream-burst-controller"));
        }
    }

    #[test]
    fn run_to_run_determinism_enforced() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, 120.0).unwrap();
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let c1 = app.run_pass();
        let c2 = app.run_pass();
        assert_eq!(c1, c2);
    }
}
