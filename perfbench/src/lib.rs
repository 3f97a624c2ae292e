//! The repository benchmark.
//!
//! One command runs one of three seeded workloads against the public API
//! of `polymem`, `dfe-sim` and `stream-bench`, checks every output, and
//! prints each metric by name with its unit:
//!
//! * `lib-stream` ([`lib_stream`]): STREAM through `PolyMem` region replay;
//! * `region-mix` ([`region_mix`]): two clients sharing one
//!   `ConcurrentPolyMem` over skewed regions of every shape the scheme
//!   serves;
//! * `sim-stream` ([`sim_stream`]): the simulated Fig. 9 STREAM design.
//!
//! With tracing off a run measures the end-to-end metrics. With tracing on
//! it measures half its time untraced and half traced, wraps every call
//! into a layer in a host-ns span, reads the program's own counters, and
//! reports the per-layer metrics plus the tracing overhead between the
//! halves. See [`report`] for the catalog.

pub mod ceiling;
pub mod gen;
pub mod hist;
pub mod lib_stream;
pub mod region_mix;
pub mod report;
pub mod sim_stream;
pub mod trace;

use hist::Hist;
use polymem::{
    AddressingFunction, Agu, ModuleAssignment, PlanCache, PolyMemConfig, Region, RegionPlan,
    RegionPlanCacheStats, TelemetrySnapshot,
};
use report::Report;
use std::time::{Duration, Instant};
use trace::Spans;

/// Set-ups per untraced run, each followed by an equal share of the
/// measurement; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// STREAM through `PolyMem`.
    LibStream,
    /// Two clients on one `ConcurrentPolyMem`.
    RegionMix,
    /// Simulated Fig. 9 STREAM on `StreamApp`.
    SimStream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Self::LibStream, Self::RegionMix, Self::SimStream];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Self::LibStream => "lib-stream",
            Self::RegionMix => "region-mix",
            Self::SimStream => "sim-stream",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One set-up from `seed`.
    pub fn setup(self, seed: u64) -> Box<dyn Bench> {
        match self {
            Self::LibStream => Box::new(lib_stream::LibStream::setup(seed)),
            Self::RegionMix => Box::new(region_mix::RegionMix::setup(seed)),
            Self::SimStream => Box::new(sim_stream::SimStream::setup(seed)),
        }
    }
}

/// Scale of the ratios kept in [`Totals::norm`] (the histogram holds
/// integers).
pub const NORM_SCALE: f64 = 1e9;

/// What one measurement phase of a workload adds up to.
#[derive(Debug, Default)]
pub struct Totals {
    /// Host ns per operation (what an operation is depends on the workload).
    pub lat: Hist,
    /// Each operation's host ns over the ceiling timed next to it, times
    /// [`NORM_SCALE`].
    pub norm: Hist,
    /// Ceiling time of the operations' work over their host time.
    pub frac: CeilingFrac,
    /// STREAM-counted bytes moved (simulated bytes on `sim-stream`).
    pub bytes: f64,
    /// Host ns the bytes took.
    pub busy_ns: f64,
    /// What one latency sample is.
    pub unit: &'static str,
}

impl Totals {
    /// GiB moved per host second.
    pub fn gibs(&self) -> f64 {
        gibs(self.bytes, self.busy_ns)
    }

    /// Fold another phase into this one.
    pub fn merge(&mut self, other: Totals) {
        self.lat.merge(&other.lat);
        self.norm.merge(&other.norm);
        self.frac.merge(&other.frac);
        self.bytes += other.bytes;
        self.busy_ns += other.busy_ns;
        self.unit = other.unit;
    }
}

/// Throughput against the ceiling, taken per window of consecutive
/// operations and reported as the median window: a slow stretch of a
/// shared host, or one preempted operation, moves a few windows rather
/// than the result.
#[derive(Debug, Clone, Default)]
pub struct CeilingFrac {
    size: u32,
    ceil_ns: f64,
    op_ns: f64,
    n: u32,
    windows: Hist,
}

impl CeilingFrac {
    /// Windows of `size` operations.
    pub fn new(size: u32) -> Self {
        Self {
            size,
            ..Self::default()
        }
    }

    /// Add one operation that took `op_ns` against `ceil_ns` of ceiling.
    pub fn add(&mut self, ceil_ns: f64, op_ns: f64) {
        self.ceil_ns += ceil_ns;
        self.op_ns += op_ns;
        self.n += 1;
        if self.n == self.size {
            self.windows
                .record((self.ceil_ns / self.op_ns * NORM_SCALE) as u64);
            (self.ceil_ns, self.op_ns, self.n) = (0.0, 0.0, 0);
        }
    }

    /// Fold another client's windows into these.
    pub fn merge(&mut self, other: &CeilingFrac) {
        self.windows.merge(&other.windows);
    }

    /// The median window (the open window when none has closed).
    pub fn median(&self) -> f64 {
        if self.windows.is_empty() {
            self.ceil_ns / self.op_ns
        } else {
            self.windows.quantile(0.5) / NORM_SCALE
        }
    }
}

/// GiB per second of `bytes` moved in `ns`.
pub fn gibs(bytes: f64, ns: f64) -> f64 {
    bytes / ns * 1e9 / (1u64 << 30) as f64
}

/// A set-up workload.
pub trait Bench {
    /// Run the workload for `budget`, checking every operation into `rep`.
    /// With `sp` enabled, also set the per-layer metrics.
    fn measure(&mut self, budget: Duration, sp: &mut Spans, rep: &mut Report) -> Totals;

    /// The end-of-run checks of the program's final state.
    fn verify(&mut self, rep: &mut Report);
}

/// Run `workload` from `seed` for `budget`. Returns the report and, for a
/// traced run, the span file's contents.
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> (Report, Option<String>) {
    let epoch = Instant::now();
    let mut rep = Report::default();
    if !trace {
        // The run is split into segments, each on a fresh set-up, so the
        // set-ups are timed across the whole run rather than in one burst.
        let mut setups = Hist::default();
        let mut t = Totals::default();
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let mut bench = workload.setup(seed);
            setups.record(start.elapsed().as_nanos() as u64);
            let mut seg = Report::default();
            let mut sp = Spans::new(false, epoch, 0);
            t.merge(bench.measure(budget / SETUP_REPS as u32, &mut sp, &mut seg));
            bench.verify(&mut seg);
            rep.absorb(seg);
        }
        rep.set("setup_s", setups.quantile(0.5) / 1e9);
        rep.set("peak_rss_mb", peak_rss_mb());
        rep.set("p50_vs_ceiling", t.norm.quantile(0.5) / NORM_SCALE);
        rep.note(format!(
            "{}: {:.3} GiB/s, {} samples of one {} each (p50 {:.1} us, p90 {:.1} us, \
             p99 {:.1} us with {} samples beyond it)",
            workload.name(),
            t.gibs(),
            t.lat.len(),
            t.unit,
            t.lat.quantile(0.5) / 1e3,
            t.lat.quantile(0.9) / 1e3,
            t.lat.quantile(0.99) / 1e3,
            (t.lat.len() as f64 * 0.01) as u64
        ));
        if !t.lat.has_tail(0.99) {
            rep.note("p99 has fewer than ten samples beyond it");
        }
        return (rep, None);
    }
    let mut bench = workload.setup(seed);
    let mut plain = Report::default();
    let untraced = bench.measure(budget / 2, &mut Spans::new(false, epoch, 0), &mut plain);
    plain.set("gibs", untraced.gibs());
    plain.set("ceiling_frac", untraced.frac.median());
    plain.set("p50_us", untraced.lat.quantile(0.5) / 1e3);
    plain.set("p99_us", untraced.lat.quantile(0.99) / 1e3);
    let mut sp = Spans::new(true, epoch, 0);
    let traced = bench.measure(budget / 2, &mut sp, &mut rep);
    bench.verify(&mut rep);
    // The absolute figures come from the untraced half.
    rep.overlay(&plain);
    rep.attempted += plain.attempted;
    rep.failed += plain.failed;
    rep.set("fail_frac", rep.failed as f64 / rep.attempted.max(1) as f64);
    // Compared through the ceiling ratio, which host-speed drift between
    // the halves leaves alone.
    let (u, t) = (untraced.frac.median(), traced.frac.median());
    rep.set("trace_overhead_frac", u / t - 1.0);
    rep.set(
        "ceiling.memcpy.ns",
        ceiling::memcpy_median_ns(lib_stream::LEN, 2001),
    );
    rep.set("ceiling.empty_tick.ns", ceiling::empty_tick_ns(100_000, 21));
    rep.note(format!(
        "{}: traced half at {t:.4} of its ceiling vs untraced {u:.4}; {} spans kept, {} past the cap",
        workload.name(),
        sp.kept(),
        sp.dropped()
    ));
    (rep, Some(sp.to_chrome_json()))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// `bulk.coalesced_byte_frac` from the `<prefix>_region_coalesced_bytes_total`
/// and `<prefix>_region_strided_bytes_total` counters.
pub fn coalesced_frac(rep: &mut Report, snap: &TelemetrySnapshot, prefix: &str) {
    let get = |kind: &str| {
        snap.counter_value(&format!("{prefix}_region_{kind}_bytes_total"), &[])
            .unwrap_or(0) as f64
    };
    let (c, s) = (get("coalesced"), get("strided"));
    rep.set("bulk.coalesced_byte_frac", c / (c + s));
}

/// The `region_plan` cache metrics over one phase, from the stats before
/// and after it.
pub fn plan_cache_layer(
    rep: &mut Report,
    before: RegionPlanCacheStats,
    after: RegionPlanCacheStats,
) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    rep.set("region_plan.hits", hits);
    rep.set("region_plan.misses", misses);
    rep.set(
        "region_plan.evictions",
        (after.evictions - before.evictions) as f64,
    );
    rep.set("region_plan.hit_ratio", hits / (hits + misses));
    rep.set("region_plan.heap_bytes", after.bytes as f64);
}

/// Time `RegionPlan::compile` once per region of `regions` (the
/// workload's distinct plan keys, repeated as wanted) and set the compile
/// percentiles and the plan heap per byte the regions move.
pub fn plan_compile_layer(rep: &mut Report, cfg: &PolyMemConfig, regions: &[Region]) {
    let agu = Agu::new(cfg.p, cfg.q, cfg.rows, cfg.cols);
    let maf = ModuleAssignment::new(cfg.scheme, cfg.p, cfg.q);
    let afn = AddressingFunction::new(cfg.p, cfg.q, cfg.rows, cfg.cols);
    let mut cache = PlanCache::with_layout(cfg.lanes(), cfg.bank_depth(), cfg.layout);
    let mut h = Hist::default();
    let (mut heap, mut moved) = (0usize, 0usize);
    for r in regions {
        let t = Instant::now();
        let plan = RegionPlan::compile(r, cfg.scheme, &agu, &maf, &afn, &mut cache)
            .expect("workload regions compile");
        h.record(t.elapsed().as_nanos() as u64);
        heap += plan.heap_bytes();
        moved += plan.len() * cfg.element_bytes;
    }
    rep.set("region_plan.compile.p50_ns", h.quantile(0.5));
    rep.set("region_plan.compile.p99_ns", h.quantile(0.99));
    rep.set(
        "region_plan.heap_per_moved_byte",
        heap as f64 / moved as f64,
    );
}
