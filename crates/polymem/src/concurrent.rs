//! Thread-parallel multi-port PolyMem.
//!
//! Hardware PolyMem serves all read ports and the write port in the *same
//! clock cycle* because each port has its own crossbar and the banks are
//! replicated per read port. The software analogue maps each port to a
//! thread. Conflict-freedom is what makes this cheap: within one parallel
//! access every lane touches a *different* bank, so per-bank reader-writer
//! locks are never contended by lanes of the same access — contention can
//! only occur between ports, and read ports never block each other.
//!
//! The compiled-plan cache is sharded per access pattern (one
//! `RwLock<PlanCache>` per [`AccessPattern`]): ports replaying different
//! patterns never touch the same lock, so a cold compile of one pattern
//! cannot stall the hot path of another — the single-`RwLock` bottleneck
//! the roadmap flagged.
//!
//! Region operations ([`ConcurrentPolyMem::read_region`] /
//! [`ConcurrentPolyMem::write_region`]) check the region's extents first,
//! then replay a compiled [`RegionPlan`] bank by bank: its segments are
//! grouped by bank, so every lock acquisition drains that bank's affine
//! segments — `copy_from_slice` block moves when both strides are 1, the
//! fixed-width chunked strided loop otherwise — instead of one element
//! per guard deref. Reads are two-phase: port threads shard the *banks*
//! and gather each bank's share under one read lock into a disjoint stage
//! slice, then a lock-free pass spreads the stage into canonical order.
//! [`ConcurrentPolyMem::copy_region`] fuses gather and scatter into one
//! burst: when source and destination share a plan (same residue class,
//! disjoint) each bank's segments move internally with `copy_within`
//! under a single guard; otherwise the staged gather feeds one merged
//! write per destination bank — the spawned bank writers are the *one*
//! sanctioned place a spawned thread takes a bank write lock (via
//! [`scatter_range`](ConcurrentPolyMem), each writer owns exactly one
//! bank, so writers never contend and never alias a read port's bank
//! view mid-access). Overlapping and cross-shape copies run the
//! per-access loop, so results match [`crate::PolyMem::copy_region`].
//!
//! Note: this façade keeps its per-bank `Vec` storage regardless of
//! [`crate::BankLayout`] — the layout knob shapes the *flat* backing of
//! [`crate::PolyMem`]; here every bank is already its own allocation.
//!
//! Granularity note: each element access locks its bank individually, so a
//! concurrent reader may observe a simultaneous write partially applied
//! (element-level atomicity, not access-level). Cycle-accurate port
//! semantics — where a read in the same cycle as a write observes the old
//! state — are provided by the `dfe-sim` crate; this type is the
//! high-throughput CPU data structure.

use crate::addressing::AddressingFunction;
use crate::agu::Agu;
use crate::bulk::copy_shape_mismatch;
use crate::config::PolyMemConfig;
use crate::error::{PolyMemError, Result};
use crate::maf::ModuleAssignment;
use crate::plan::{AccessPlan, PlanCache, PlanCacheStats};
use crate::region::Region;
use crate::region_plan::{
    copy_strided, RegionPlan, RegionPlanCache, RegionPlanCacheStats, Segment,
};
use crate::scheme::{AccessPattern, ParallelAccess};
use crate::sync::{AtomicBool, Ordering, RwLock};
use crate::telemetry::{Counter, TelemetryRegistry};
use crate::tracing::{NameId, SpanId, TraceJournal, TraceWriter};
use std::sync::Arc;

/// Below this many elements a region read is gathered serially: spawning
/// port threads costs more than the gather itself.
const PARALLEL_REGION_MIN: usize = 256;

/// Telemetry handles for a [`ConcurrentPolyMem`] (attached via
/// [`ConcurrentPolyMem::attach_telemetry`]).
///
/// Counters are [`Counter`]s — plain `Relaxed` atomics — so any port
/// thread may bump them through `&self`, including the spawned bank
/// writers of a region burst while they hold their bank's write guard
/// (an atomic add can never interact with the lock order). Per-bank
/// element counts exploit the conflict-freedom theorem exactly like
/// [`crate::mem::PolyMem`]'s: a single parallel access touches every
/// bank once, so singles bump one shared `uniform` base that the
/// registry folds into every bank's exported sample; only region bursts
/// add per-bank extras (one add per bank per region, not per element).
#[derive(Debug)]
struct ConcTelemetry {
    reads: Counter,
    writes: Counter,
    elements_read: Counter,
    elements_written: Counter,
    conflicts_avoided: Counter,
    uniform: Counter,
    bank_elems: Vec<Counter>,
    region_coalesced_bytes: Counter,
    region_strided_bytes: Counter,
}

impl ConcTelemetry {
    /// One conflict-free parallel read of `lanes` elements.
    #[inline]
    fn single_read(&self, lanes: usize) {
        self.reads.inc();
        self.elements_read.add(lanes as u64);
        self.uniform.inc();
        self.conflicts_avoided.add(lanes as u64 - 1);
    }

    /// One conflict-free parallel write of `lanes` elements.
    #[inline]
    fn single_write(&self, lanes: usize) {
        self.writes.inc();
        self.elements_written.add(lanes as u64);
        self.uniform.inc();
        self.conflicts_avoided.add(lanes as u64 - 1);
    }

    /// A region gather of `len` elements in `accesses` conflict-free
    /// accesses. Each bank owns exactly `accesses` of the region's
    /// elements (rectangular cover), so the per-bank adds are uniform.
    fn region_read(&self, accesses: usize, len: usize) {
        self.reads.add(accesses as u64);
        self.elements_read.add(len as u64);
        self.conflicts_avoided.add((len - accesses) as u64);
        for bank in &self.bank_elems {
            bank.add(accesses as u64);
        }
    }

    /// Aggregate counters of a region scatter. Per-bank element counts are
    /// *not* added here — the bank-guard scopes that actually drain each
    /// bank call [`Self::bank_batch`].
    fn region_write(&self, accesses: usize, len: usize) {
        self.writes.add(accesses as u64);
        self.elements_written.add(len as u64);
        self.conflicts_avoided.add((len - accesses) as u64);
    }

    /// Count `n` elements drained into bank `b`. Called while the bank's
    /// write guard is held: a single `Relaxed` atomic add, lock-free and
    /// panic-free by construction (verified statically by polymem-verify).
    #[inline]
    fn bank_batch(&self, b: usize, n: u64) {
        self.bank_elems[b].add(n);
    }

    /// Attribute one region replay's bytes to the coalesced vs strided
    /// buckets ([`RegionPlan::byte_split`]).
    #[inline]
    fn region_bytes(&self, coalesced: u64, strided: u64) {
        self.region_coalesced_bytes.add(coalesced);
        self.region_strided_bytes.add(strided);
    }
}

/// Trace-journal handles for a [`ConcurrentPolyMem`] (attached via
/// [`ConcurrentPolyMem::attach_tracing`]). The writer and every name are
/// resolved at attach time, so recording is a handful of `Relaxed`/
/// `Release` stores — safe from any port thread through `&self`.
///
/// **Guard discipline:** journal writes are *never* issued while a bank
/// guard is held. Phase spans begin before the first bank lock of a phase
/// is taken and end after the last one is released, and the per-bank
/// `bank-acquire` instants fire immediately *before* each guard
/// acquisition. `polymem-verify`'s telemetry pass enforces this textually
/// (no tracing site inside a held bank-guard scope).
#[derive(Debug)]
struct ConcTracing {
    writer: TraceWriter,
    /// Span: banded gather phase of `read_region` / `copy_region`.
    gather: NameId,
    /// Span: lock-free spread-to-canonical phase.
    spread: NameId,
    /// Span: banded scatter phase of `write_region` / `copy_region`.
    scatter: NameId,
    /// Span: same-residue-class `copy_within` fast path.
    copy_runs: NameId,
    /// Span: the per-access loop of overlapping and cross-shape copies.
    copy_inter: NameId,
    /// Instant: region-plan cache hit.
    hit: NameId,
    /// Instant: region-plan cache miss (shard + region compile).
    miss: NameId,
    /// Instant: a port/bank guard is about to be acquired.
    acquire: NameId,
}

/// Bank-major flat offsets are `b * depth + delta`: the flat offset that
/// lands on intra-bank address `base` of bank `b` is `base - b * depth`.
#[inline]
fn bank_origin(base: isize, b: usize, depth: usize) -> isize {
    base - (b * depth) as isize
}

/// Start address and stride of segment `s` inside the bank whose
/// [`bank_origin`] is `origin`.
#[inline]
fn in_bank(s: &Segment, origin: isize) -> (isize, isize) {
    (origin + s.flat0, s.f_stride as isize)
}

/// A PolyMem whose ports can be driven from multiple threads through `&self`.
#[derive(Debug)]
pub struct ConcurrentPolyMem<T> {
    config: PolyMemConfig,
    maf: ModuleAssignment,
    afn: AddressingFunction,
    agu: Agu,
    banks: Vec<RwLock<Vec<T>>>,
    /// Per-pattern shards of the compiled-plan cache (indexed by
    /// [`AccessPattern::index`]). Ports take a shard's read lock on the hot
    /// path and its write lock only to install a newly compiled class.
    plans: [RwLock<PlanCache>; AccessPattern::COUNT],
    /// Compiled whole-region transfers. Lock order: a pattern shard is
    /// always taken *before* this lock (region compilation feeds per-access
    /// plans through the pattern shard).
    region_plans: RwLock<RegionPlanCache>,
    planning: AtomicBool,
    /// Telemetry handles, when attached. `None` costs one branch per
    /// operation and nothing else.
    tlm: Option<ConcTelemetry>,
    /// Trace-journal handles, when attached (same cost model as `tlm`).
    trc: Option<ConcTracing>,
}

impl<T: Copy + Default + Send + Sync> ConcurrentPolyMem<T> {
    /// Build from a validated configuration.
    pub fn new(config: PolyMemConfig) -> Result<Self> {
        config.validate()?;
        let depth = config.bank_depth();
        let banks = (0..config.lanes())
            .map(|_| RwLock::new(vec![T::default(); depth]))
            .collect();
        Ok(Self {
            config,
            maf: ModuleAssignment::new(config.scheme, config.p, config.q),
            afn: AddressingFunction::new(config.p, config.q, config.rows, config.cols),
            agu: Agu::new(config.p, config.q, config.rows, config.cols),
            banks,
            plans: std::array::from_fn(|_| RwLock::new(PlanCache::new(config.lanes(), depth))),
            region_plans: RwLock::new(RegionPlanCache::new(config.lanes())),
            planning: AtomicBool::new(true),
            tlm: None,
            trc: None,
        })
    }

    /// Register this memory's datapath counters with `registry` and start
    /// counting. Exported metrics are prefixed `polymem_conc_` (aggregate
    /// reads/writes/elements/conflicts-avoided, per-bank element counts)
    /// plus the plan-cache counters of every pattern shard
    /// (`cache="conc-<pattern>"`) and the region-plan cache
    /// (`cache="conc-region"`). Takes `&mut self`, so attachment happens
    /// while no port threads are running; counting itself is `&self` and
    /// thread-safe.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        let lanes = self.config.lanes();
        let uniform = registry.counter("polymem_conc_uniform_accesses_total", Vec::new());
        let bank_elems = (0..lanes)
            .map(|b| {
                registry.counter_with_base(
                    "polymem_conc_bank_elements_total",
                    vec![("bank", b.to_string())],
                    &uniform,
                )
            })
            .collect();
        self.tlm = Some(ConcTelemetry {
            reads: registry.counter("polymem_conc_reads_total", Vec::new()),
            writes: registry.counter("polymem_conc_writes_total", Vec::new()),
            elements_read: registry.counter("polymem_conc_elements_read_total", Vec::new()),
            elements_written: registry.counter("polymem_conc_elements_written_total", Vec::new()),
            conflicts_avoided: registry.counter("polymem_conc_conflicts_avoided_total", Vec::new()),
            uniform,
            bank_elems,
            region_coalesced_bytes: registry
                .counter("polymem_conc_region_coalesced_bytes_total", Vec::new()),
            region_strided_bytes: registry
                .counter("polymem_conc_region_strided_bytes_total", Vec::new()),
        });
        for (i, shard) in self.plans.iter_mut().enumerate() {
            let label = vec![("cache", format!("conc-{}", AccessPattern::ALL[i].name()))];
            shard.get_mut().register_telemetry(registry, label);
        }
        self.region_plans
            .get_mut()
            .register_telemetry(registry, vec![("cache", "conc-region".to_string())]);
    }

    /// Stop counting into a previously attached registry (already exported
    /// values stay visible there).
    pub fn detach_telemetry(&mut self) {
        self.tlm = None;
    }

    /// Start recording causal spans into `journal` on the named track:
    /// region-plan hit/miss instants, `bank-acquire` instants before every
    /// port-guard acquisition, and phase spans for the two-phase banded
    /// read (`gather-phase` → `spread-phase`), the banded write
    /// (`scatter-phase`) and the three `copy_region` replay strategies.
    /// Takes `&mut self` (attach while no port threads run); recording
    /// itself is `&self` and thread-safe. Journal writes never happen
    /// under a held bank guard — see [`ConcTracing`].
    pub fn attach_tracing(&mut self, journal: &TraceJournal, track: &str) {
        self.trc = Some(ConcTracing {
            writer: journal.writer(track),
            gather: journal.intern("gather-phase"),
            spread: journal.intern("spread-phase"),
            scatter: journal.intern("scatter-phase"),
            copy_runs: journal.intern("copy-bank-runs"),
            copy_inter: journal.intern("copy-interleaved"),
            hit: journal.intern("region-plan-hit"),
            miss: journal.intern("region-plan-miss"),
            acquire: journal.intern("bank-acquire"),
        });
    }

    /// Stop recording spans (already-recorded journal events remain).
    pub fn detach_tracing(&mut self) {
        self.trc = None;
    }

    /// The configuration.
    pub fn config(&self) -> &PolyMemConfig {
        &self.config
    }

    /// Enable or disable the compiled-plan fast path (enabled by default).
    /// Callable from any thread; in-flight accesses finish on the path they
    /// started on.
    pub fn set_planning(&self, enabled: bool) {
        self.planning.store(enabled, Ordering::Relaxed);
    }

    /// Whether accesses go through compiled plans.
    #[inline]
    pub fn planning(&self) -> bool {
        self.planning.load(Ordering::Relaxed)
    }

    /// Aggregated activity counters across all per-pattern cache shards.
    pub fn plan_stats(&self) -> PlanCacheStats {
        let mut total = PlanCacheStats::default();
        for shard in &self.plans {
            let s = shard.read().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
        }
        total
    }

    /// Activity counters of the region-plan cache.
    pub fn region_plan_stats(&self) -> RegionPlanCacheStats {
        self.region_plans.read().stats()
    }

    /// The compiled plan for `access`'s residue class: read-lock lookup on
    /// the pattern's shard first, write-lock compile on miss. Callers
    /// bounds-check separately.
    fn plan_for(&self, access: ParallelAccess) -> Result<Arc<AccessPlan>> {
        let shard = &self.plans[access.pattern.index()];
        if let Some(plan) = shard.read().lookup(access) {
            return Ok(plan);
        }
        shard
            .write()
            .get_or_compile(access, &self.agu, &self.maf, &self.afn)
            .map(Arc::clone)
    }

    /// The compiled region plan for `region`'s residue class. A region's
    /// shape maps to exactly one access pattern, so a cold compile
    /// write-locks one pattern shard plus the region cache (in that order).
    fn region_plan_for(&self, region: &Region) -> Result<Arc<RegionPlan>> {
        if let Some(plan) = self.region_plans.read().lookup(region) {
            return Ok(plan);
        }
        let shard = &self.plans[region.shape.pattern().index()];
        let mut acc_cache = shard.write();
        let mut regions = self.region_plans.write();
        regions.get_or_compile(
            region,
            self.config.scheme,
            &self.agu,
            &self.maf,
            &self.afn,
            &mut acc_cache,
        )
    }

    /// The region cache's cumulative miss count. The read guard is a
    /// statement temporary, released before this returns.
    fn region_cache_misses(&self) -> u64 {
        self.region_plans.read().stats().misses
    }

    /// [`Self::region_plan_for`] plus cache observability: emits a
    /// `region-plan-hit` / `region-plan-miss` instant when tracing is
    /// attached. Classification reads the cache's own miss counter (after
    /// the lock guards are back down), so it stays exact under racing
    /// compilers of *different* classes and never records under a lock.
    fn region_plan_traced(&self, region: &Region) -> Result<Arc<RegionPlan>> {
        let Some(tr) = &self.trc else {
            return self.region_plan_for(region);
        };
        let misses = self.region_cache_misses();
        let plan = self.region_plan_for(region)?;
        if self.region_cache_misses() > misses {
            tr.writer.instant(tr.miss);
        } else {
            tr.writer.instant(tr.hit);
        }
        Ok(plan)
    }

    fn check_access(&self, access: ParallelAccess) -> Result<()> {
        self.config
            .scheme
            .check_access(access, self.config.p, self.config.q)
    }

    /// Parallel read through any read port; callable concurrently from many
    /// threads.
    pub fn read(&self, access: ParallelAccess) -> Result<Vec<T>> {
        let mut out = vec![T::default(); self.config.lanes()];
        self.read_into(access, &mut out)?;
        Ok(out)
    }

    /// [`Self::read`] into a caller buffer of exactly `lanes` elements.
    fn read_into(&self, access: ParallelAccess, out: &mut [T]) -> Result<()> {
        self.check_access(access)?;
        if self.planning() {
            self.agu.check_bounds(access)?;
            let plan = self.plan_for(access)?;
            let base = self.afn.address(access.i, access.j) as isize;
            for (o, (&bank, &delta)) in out.iter_mut().zip(plan.banks.iter().zip(&plan.deltas)) {
                *o = self.banks[bank as usize].read()[(base + delta) as usize];
            }
        } else {
            for (o, (i, j)) in out.iter_mut().zip(self.agu.expand(access)?) {
                let bank = self.maf.assign_linear(i, j);
                *o = self.banks[bank].read()[self.afn.address(i, j)];
            }
        }
        if let Some(t) = &self.tlm {
            t.single_read(out.len());
        }
        Ok(())
    }

    /// Parallel write through the write port; callable concurrently with
    /// readers (element-level atomicity, see module docs).
    pub fn write(&self, access: ParallelAccess, data: &[T]) -> Result<()> {
        let lanes = self.config.lanes();
        if data.len() != lanes {
            return Err(PolyMemError::WrongLaneCount {
                got: data.len(),
                expected: lanes,
            });
        }
        self.check_access(access)?;
        if self.planning() {
            self.agu.check_bounds(access)?;
            let plan = self.plan_for(access)?;
            let base = self.afn.address(access.i, access.j) as isize;
            for ((&bank, &delta), &v) in plan.banks.iter().zip(&plan.deltas).zip(data) {
                self.banks[bank as usize].write()[(base + delta) as usize] = v;
            }
            if let Some(t) = &self.tlm {
                t.single_write(lanes);
            }
            return Ok(());
        }
        let coords = self.agu.expand(access)?;
        for ((i, j), &v) in coords.into_iter().zip(data) {
            let bank = self.maf.assign_linear(i, j);
            let addr = self.afn.address(i, j);
            self.banks[bank].write()[addr] = v;
        }
        if let Some(t) = &self.tlm {
            t.single_write(lanes);
        }
        Ok(())
    }

    /// Read a whole region in canonical element order. Two-phase
    /// segment replay: port threads shard the *banks* (each port drains a
    /// contiguous band of banks, one read lock per bank, moving that
    /// bank's segments into a disjoint slice of a bank-major stage), then
    /// a lock-free pass spreads the stage into canonical order through the
    /// same segments. Small regions run both phases inline — thread
    /// launch would dominate.
    pub fn read_region(&self, region: &Region) -> Result<Vec<T>> {
        region.check_bounds(self.config.rows, self.config.cols)?;
        let plan = self.region_plan_traced(region)?;
        if let Some(t) = &self.tlm {
            t.region_read(plan.accesses, plan.len());
            let (c, s) = plan.byte_split(size_of::<T>());
            t.region_bytes(c, s);
        }
        let base = self.afn.address(region.i, region.j) as isize;
        let len = plan.len();
        let mut out = vec![T::default(); len];
        if len == 0 {
            return Ok(out);
        }
        let accesses = plan.accesses;
        let mut stage = vec![T::default(); len];
        let ports = self.config.read_ports.max(1);
        let span = self
            .trc
            .as_ref()
            .map(|tr| tr.writer.begin(tr.gather, SpanId::NONE));
        if ports == 1 || len < PARALLEL_REGION_MIN {
            for (b, chunk) in stage.chunks_mut(accesses).enumerate() {
                self.gather_range(&plan, base, b, chunk);
            }
        } else {
            let banks_per_port = plan.lanes.div_ceil(ports);
            let plan_ref = &plan;
            crossbeam::scope(|s| {
                for (ci, band) in stage.chunks_mut(banks_per_port * accesses).enumerate() {
                    s.spawn(move |_| {
                        for (k, chunk) in band.chunks_mut(accesses).enumerate() {
                            self.gather_range(plan_ref, base, ci * banks_per_port + k, chunk);
                        }
                    });
                }
            })
            .expect("region port thread panicked");
        }
        // All bank guards are released here: end the gather-phase span and
        // open the lock-free spread phase.
        let span = self.trc.as_ref().map(|tr| {
            if let Some(s) = span {
                tr.writer.end(tr.gather, s);
            }
            tr.writer.begin(tr.spread, SpanId::NONE)
        });
        for b in 0..plan.lanes {
            self.spread_range(&plan, b, &stage[b * accesses..(b + 1) * accesses], &mut out);
        }
        if let (Some(tr), Some(s)) = (&self.trc, span) {
            tr.writer.end(tr.spread, s);
        }
        Ok(out)
    }

    /// Gather bank `b`'s share of a region (in segment order) into `out`
    /// under a single bank read lock.
    fn gather_range(&self, plan: &RegionPlan, base: isize, b: usize, out: &mut [T]) {
        if let Some(tr) = &self.trc {
            // Recorded *before* the guard acquisition, never under it.
            tr.writer.instant(tr.acquire);
        }
        let guard = self.banks[b].read();
        let bank = guard.as_slice();
        let origin = bank_origin(base, b, bank.len());
        let mut pos = 0isize;
        for s in plan.bank_segments(b) {
            copy_strided(bank, in_bank(s, origin), out, (pos, 1), s.len as usize);
            pos += s.len as isize;
        }
    }

    /// Spread bank `b`'s staged elements (gathered in segment order) into
    /// their canonical positions of `out`. Pure memory traffic — no lock
    /// is held or taken.
    fn spread_range(&self, plan: &RegionPlan, b: usize, stage: &[T], out: &mut [T]) {
        let mut pos = 0isize;
        for s in plan.bank_segments(b) {
            let canonical = (s.c0 as isize, s.c_stride as isize);
            copy_strided(stage, (pos, 1), out, canonical, s.len as usize);
            pos += s.len as isize;
        }
    }

    /// Write a whole region (values in canonical order), taking each bank
    /// lock exactly once and draining that bank's segments in a batch —
    /// `p*q` lock acquisitions per region instead of one per element, and
    /// block moves instead of element stores wherever a segment is
    /// unit-stride on both sides.
    pub fn write_region(&self, region: &Region, values: &[T]) -> Result<()> {
        region.check_bounds(self.config.rows, self.config.cols)?;
        if values.len() != region.len() {
            return Err(PolyMemError::WrongLaneCount {
                got: values.len(),
                expected: region.len(),
            });
        }
        let plan = self.region_plan_traced(region)?;
        if let Some(t) = &self.tlm {
            t.region_write(plan.accesses, plan.len());
            let (c, s) = plan.byte_split(size_of::<T>());
            t.region_bytes(c, s);
        }
        let base = self.afn.address(region.i, region.j) as isize;
        let span = self
            .trc
            .as_ref()
            .map(|tr| tr.writer.begin(tr.scatter, SpanId::NONE));
        for b in 0..plan.lanes {
            self.scatter_range(&plan, base, b, values);
        }
        if let (Some(tr), Some(s)) = (&self.trc, span) {
            tr.writer.end(tr.scatter, s);
        }
        Ok(())
    }

    /// Copy `src` into `dst` as a single burst (allocating variant of
    /// [`Self::copy_region_with`]).
    pub fn copy_region(&self, src: &Region, dst: &Region) -> Result<()> {
        let mut scratch = Vec::new();
        self.copy_region_with(src, dst, &mut scratch)
    }

    /// Copy `src` into `dst` as one fused operation. Disjoint regions that
    /// share a plan (same residue class) never leave their banks: each
    /// bank's segments move internally with `copy_within` under a single
    /// write guard. Other disjoint same-shape copies stage a port-sharded
    /// segment gather, spread it to canonical order, then issue one merged
    /// write per destination bank. `scratch` is reused across calls so
    /// steady-state bursts are allocation-free. Overlapping and
    /// cross-shape copies run the per-access loop, which is the
    /// sequential [`crate::PolyMem::copy_region`]'s semantics element for
    /// element.
    pub fn copy_region_with(&self, src: &Region, dst: &Region, scratch: &mut Vec<T>) -> Result<()> {
        src.check_bounds(self.config.rows, self.config.cols)?;
        dst.check_bounds(self.config.rows, self.config.cols)?;
        if src.shape != dst.shape || src.overlaps(dst) {
            let span = self
                .trc
                .as_ref()
                .map(|tr| tr.writer.begin(tr.copy_inter, SpanId::NONE));
            let res = self.copy_per_access(src, dst, scratch);
            if let (Some(tr), Some(s)) = (&self.trc, span) {
                tr.writer.end(tr.copy_inter, s);
            }
            return res;
        }
        let sp = self.region_plan_traced(src)?;
        let dp = self.region_plan_traced(dst)?;
        let sbase = self.afn.address(src.i, src.j) as isize;
        let dbase = self.afn.address(dst.i, dst.j) as isize;
        if let Some(t) = &self.tlm {
            t.region_read(sp.accesses, sp.len());
            t.region_write(dp.accesses, dp.len());
        }
        let len = sp.len();
        if len == 0 {
            return Ok(());
        }
        if Arc::ptr_eq(&sp, &dp) {
            if let Some(t) = &self.tlm {
                let (c, s) = sp.byte_split(size_of::<T>());
                t.region_bytes(2 * c, 2 * s);
            }
            let span = self
                .trc
                .as_ref()
                .map(|tr| tr.writer.begin(tr.copy_runs, SpanId::NONE));
            self.copy_bank_runs(&sp, sbase, dbase);
            if let (Some(tr), Some(s)) = (&self.trc, span) {
                tr.writer.end(tr.copy_runs, s);
            }
            return Ok(());
        }
        if let Some(t) = &self.tlm {
            let (sc, ss) = sp.byte_split(size_of::<T>());
            let (dc, ds) = dp.byte_split(size_of::<T>());
            t.region_bytes(sc + dc, ss + ds);
        }
        let accesses = sp.accesses;
        scratch.clear();
        scratch.resize(2 * len, T::default());
        let (stage, canonical) = scratch.split_at_mut(len);
        let ports = self.config.read_ports.max(1);
        let span = self
            .trc
            .as_ref()
            .map(|tr| tr.writer.begin(tr.gather, SpanId::NONE));
        if ports == 1 || len < PARALLEL_REGION_MIN {
            for (b, chunk) in stage.chunks_mut(accesses).enumerate() {
                self.gather_range(&sp, sbase, b, chunk);
            }
        } else {
            let banks_per_port = sp.lanes.div_ceil(ports);
            let plan_ref = &sp;
            crossbeam::scope(|s| {
                for (ci, band) in stage.chunks_mut(banks_per_port * accesses).enumerate() {
                    s.spawn(move |_| {
                        for (k, chunk) in band.chunks_mut(accesses).enumerate() {
                            self.gather_range(plan_ref, sbase, ci * banks_per_port + k, chunk);
                        }
                    });
                }
            })
            .expect("region port thread panicked");
        }
        // Source bank guards released: gather phase over, spread begins.
        let span = self.trc.as_ref().map(|tr| {
            if let Some(s) = span {
                tr.writer.end(tr.gather, s);
            }
            tr.writer.begin(tr.spread, SpanId::NONE)
        });
        for b in 0..sp.lanes {
            self.spread_range(&sp, b, &stage[b * accesses..(b + 1) * accesses], canonical);
        }
        let span = self.trc.as_ref().map(|tr| {
            if let Some(s) = span {
                tr.writer.end(tr.spread, s);
            }
            tr.writer.begin(tr.scatter, SpanId::NONE)
        });
        let values: &[T] = canonical;
        if ports == 1 || len < PARALLEL_REGION_MIN {
            for b in 0..dp.lanes {
                self.scatter_range(&dp, dbase, b, values);
            }
            if let (Some(tr), Some(s)) = (&self.trc, span) {
                tr.writer.end(tr.scatter, s);
            }
            return Ok(());
        }
        let dplan = &dp;
        crossbeam::scope(|s| {
            for b in 0..dplan.lanes {
                s.spawn(move |_| {
                    self.scatter_range(dplan, dbase, b, values);
                });
            }
        })
        .expect("bank writer thread panicked");
        if let (Some(tr), Some(s)) = (&self.trc, span) {
            tr.writer.end(tr.scatter, s);
        }
        Ok(())
    }

    /// Write bank `b`'s share of a region in one batch: a single bank
    /// write-lock acquisition draining the bank's segments out of `values`
    /// (canonical order). Each spawned burst writer owns exactly one bank,
    /// so writers are mutually disjoint by construction.
    fn scatter_range(&self, plan: &RegionPlan, base: isize, b: usize, values: &[T]) {
        let mut drained = 0u64;
        if let Some(tr) = &self.trc {
            // Recorded *before* the guard acquisition, never under it.
            tr.writer.instant(tr.acquire);
        }
        let mut guard = self.banks[b].write();
        let bank = guard.as_mut_slice();
        let origin = bank_origin(base, b, bank.len());
        for s in plan.bank_segments(b) {
            let canonical = (s.c0 as isize, s.c_stride as isize);
            copy_strided(values, canonical, bank, in_bank(s, origin), s.len as usize);
            drained += s.len as u64;
        }
        if let Some(t) = &self.tlm {
            t.bank_batch(b, drained);
        }
    }

    /// Same-plan disjoint copy: per bank, one write guard, then every
    /// segment moves *within* the bank — `copy_within` when the intra-bank
    /// stride is 1, a strided self-copy otherwise (source and destination
    /// address sets are disjoint, so iteration order cannot alias). Serial
    /// by design: the spawned-writer pattern stays confined to
    /// [`Self::scatter_range`].
    fn copy_bank_runs(&self, plan: &RegionPlan, sbase: isize, dbase: isize) {
        for b in 0..plan.lanes {
            let mut drained = 0u64;
            let mut guard = self.banks[b].write();
            let bank = guard.as_mut_slice();
            let (sorigin, dorigin) = (
                bank_origin(sbase, b, bank.len()),
                bank_origin(dbase, b, bank.len()),
            );
            for seg in plan.bank_segments(b) {
                let len = seg.len as usize;
                let (s0, stride) = in_bank(seg, sorigin);
                let (d0, _) = in_bank(seg, dorigin);
                if stride == 1 {
                    bank.copy_within(s0 as usize..s0 as usize + len, d0 as usize);
                } else {
                    for t in 0..len as isize {
                        bank[(d0 + t * stride) as usize] = bank[(s0 + t * stride) as usize];
                    }
                }
                drained += seg.len as u64;
            }
            if let Some(t) = &self.tlm {
                t.bank_batch(b, drained);
            }
        }
    }

    /// The per-access copy loop: read source access `t`, write it to
    /// destination access `t`, in access order — lane `k` lands in lane
    /// `k`, exactly like the sequential per-access path.
    fn copy_per_access(&self, src: &Region, dst: &Region, scratch: &mut Vec<T>) -> Result<()> {
        let (p, q) = (self.config.p, self.config.q);
        let src_acc = src.plan_accesses(p, q)?;
        let dst_acc = dst.plan_accesses(p, q)?;
        if src_acc.len() != dst_acc.len() {
            return Err(copy_shape_mismatch(src, src_acc.len(), dst, dst_acc.len()));
        }
        scratch.clear();
        scratch.resize(self.config.lanes(), T::default());
        for (s, d) in src_acc.iter().zip(&dst_acc) {
            self.read_into(*s, scratch)?;
            self.write(*d, scratch)?;
        }
        Ok(())
    }

    /// Issue one access per read port concurrently (one thread per port, as
    /// the hardware issues one access per port per cycle) and collect the
    /// results in port order.
    pub fn read_ports(&self, accesses: &[ParallelAccess]) -> Vec<Result<Vec<T>>> {
        if accesses.len() > self.config.read_ports {
            return vec![
                Err(PolyMemError::InvalidPort {
                    port: accesses.len() - 1,
                    ports: self.config.read_ports,
                });
                accesses.len()
            ];
        }
        crossbeam::scope(|s| {
            let handles: Vec<_> = accesses
                .iter()
                .map(|&a| s.spawn(move |_| self.read(a)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .expect("port thread panicked")
    }

    /// Host-side scalar write.
    pub fn set(&self, i: usize, j: usize, value: T) -> Result<()> {
        if i >= self.config.rows || j >= self.config.cols {
            return Err(PolyMemError::OutOfBounds {
                i: i as i64,
                j: j as i64,
                rows: self.config.rows,
                cols: self.config.cols,
            });
        }
        let bank = self.maf.assign_linear(i, j);
        self.banks[bank].write()[self.afn.address(i, j)] = value;
        Ok(())
    }

    /// Host-side scalar read.
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        if i >= self.config.rows || j >= self.config.cols {
            return Err(PolyMemError::OutOfBounds {
                i: i as i64,
                j: j as i64,
                rows: self.config.rows,
                cols: self.config.cols,
            });
        }
        let bank = self.maf.assign_linear(i, j);
        Ok(self.banks[bank].read()[self.afn.address(i, j)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionShape;
    use crate::scheme::{AccessScheme, ParallelAccess as PA};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn mem() -> ConcurrentPolyMem<u64> {
        ConcurrentPolyMem::new(PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 4).unwrap())
            .unwrap()
    }

    fn fill(m: &ConcurrentPolyMem<u64>) {
        for r in 0..16usize {
            for c in 0..16usize {
                m.set(r, c, (r * 16 + c) as u64).unwrap();
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let m = mem();
        let data: Vec<u64> = (10..18).collect();
        m.write(PA::row(3, 0), &data).unwrap();
        assert_eq!(m.read(PA::row(3, 0)).unwrap(), data);
    }

    #[cfg(not(feature = "tracing-off"))]
    #[test]
    fn region_ops_emit_phase_spans_outside_guards() {
        use crate::tracing::{TraceEventKind, TraceJournal};
        let journal = TraceJournal::new(4096);
        let mut m = mem();
        m.attach_tracing(&journal, "conc");
        fill(&m);
        let r = Region::new("b", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let vals = m.read_region(&r).unwrap();
        m.write_region(&r, &vals).unwrap();
        let dst = Region::new("b2", 8, 8, RegionShape::Block { rows: 4, cols: 8 });
        m.copy_region(&r, &dst).unwrap();
        let s = journal.snapshot();
        assert!(s.validate_spans().is_empty(), "{:?}", s.validate_spans());
        let spans = s.spans();
        let count = |name: &str| spans.iter().filter(|sp| sp.name == name).count();
        // read_region: gather + spread; copy (same residue class, disjoint
        // at the same column offset modulo the period) replays one of the
        // three strategies as exactly one span.
        assert!(count("gather-phase") >= 1);
        assert!(count("spread-phase") >= 1);
        assert!(count("scatter-phase") >= 1);
        assert!(count("copy-bank-runs") + count("copy-interleaved") + count("gather-phase") >= 2);
        let instants = |name: &str| {
            s.events
                .iter()
                .filter(|e| e.kind == TraceEventKind::Instant && e.name == name)
                .count()
        };
        // Every banded phase announces each guard acquisition up front.
        assert!(instants("bank-acquire") >= 2 * m.config().lanes());
        assert!(instants("region-plan-miss") >= 1);
        assert!(instants("region-plan-hit") >= 1);
        m.detach_tracing();
        m.read_region(&r).unwrap();
        assert_eq!(journal.snapshot().events.len(), s.events.len());
    }

    #[test]
    fn four_ports_concurrently() {
        let m = mem();
        for r in 0..4usize {
            let data: Vec<u64> = (0..8).map(|k| (r * 100 + k) as u64).collect();
            m.write(PA::row(r, 0), &data).unwrap();
        }
        let results = m.read_ports(&[PA::row(0, 0), PA::row(1, 0), PA::row(2, 0), PA::row(3, 0)]);
        for (r, res) in results.into_iter().enumerate() {
            let got = res.unwrap();
            assert_eq!(got[0], (r * 100) as u64);
            assert_eq!(got[7], (r * 100 + 7) as u64);
        }
    }

    #[test]
    fn too_many_port_accesses_rejected() {
        let m = mem();
        let a = [PA::row(0, 0); 5];
        let results = m.read_ports(&a);
        assert!(results.iter().all(|r| r.is_err()));
    }

    #[test]
    fn concurrent_reader_writer_element_atomicity() {
        // Readers racing a writer must always see per-element values that are
        // either the old or the new value, never garbage.
        let m = std::sync::Arc::new(mem());
        let old: Vec<u64> = vec![7; 8];
        let new: Vec<u64> = vec![13; 8];
        m.write(PA::row(0, 0), &old).unwrap();
        let bad = AtomicU64::new(0);
        crossbeam::scope(|s| {
            let mr = &m;
            let badr = &bad;
            let newr = &new;
            s.spawn(move |_| {
                for _ in 0..500 {
                    let got = mr.read(PA::row(0, 0)).unwrap();
                    for &v in &got {
                        if v != 7 && v != 13 {
                            badr.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
            s.spawn(move |_| {
                for k in 0..500 {
                    let d = if k % 2 == 0 { newr.clone() } else { vec![7; 8] };
                    mr.write(PA::row(0, 0), &d).unwrap();
                }
            });
        })
        .unwrap();
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn planned_path_matches_interpreted() {
        let m = mem();
        fill(&m);
        let accesses = [
            PA::row(3, 8),
            PA::col(5, 9),
            PA::rect(2, 8),
            PA::rect(14, 8),
        ];
        for a in accesses {
            let planned = m.read(a).unwrap();
            m.set_planning(false);
            let interpreted = m.read(a).unwrap();
            m.set_planning(true);
            assert_eq!(planned, interpreted, "{:?}", a.pattern);
        }
        let stats = m.plan_stats();
        assert!(
            stats.misses >= 3,
            "each residue class compiles once: {stats:?}"
        );
        // Planned writes land where interpreted reads expect them.
        let vals: Vec<u64> = (900..908).collect();
        m.write(PA::row(7, 0), &vals).unwrap();
        m.set_planning(false);
        assert_eq!(m.read(PA::row(7, 0)).unwrap(), vals);
        m.set_planning(true);
    }

    #[test]
    fn pattern_shards_isolate_cache_traffic() {
        let m = mem();
        fill(&m);
        let _ = m.read(PA::row(0, 0)).unwrap();
        let _ = m.read(PA::row(0, 0)).unwrap();
        let _ = m.read(PA::col(0, 0)).unwrap();
        // One miss per pattern class, one hit on the repeated row.
        let s = m.plan_stats();
        assert_eq!(s.misses, 2, "{s:?}");
        assert_eq!(s.hits, 1, "{s:?}");
        assert_eq!(s.entries, 2, "{s:?}");
    }

    #[test]
    fn region_read_matches_per_access_reads() {
        let m = mem();
        fill(&m);
        let r = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = r
            .coords_iter()
            .unwrap()
            .map(|(i, j)| (i * 16 + j) as u64)
            .collect();
        assert_eq!(got, want);
        let s = m.region_plan_stats();
        assert_eq!(s.misses, 1);
        // Repeat: pure cache hit.
        assert_eq!(m.read_region(&r).unwrap(), want);
        assert_eq!(m.region_plan_stats().hits, 1);
    }

    #[test]
    fn region_write_lands_like_element_writes() {
        let m = mem();
        let r = Region::new("col", 0, 5, RegionShape::Col { len: 16 });
        let vals: Vec<u64> = (500..516).collect();
        m.write_region(&r, &vals).unwrap();
        for (k, &v) in vals.iter().enumerate() {
            assert_eq!(m.get(k, 5).unwrap(), v);
        }
        // Neighbours untouched.
        assert_eq!(m.get(0, 4).unwrap(), 0);
        // Length is checked.
        assert!(m.write_region(&r, &vals[..3]).is_err());
    }

    #[test]
    fn region_read_bounds_and_shape_errors() {
        let m = mem();
        let oob = Region::new("b", 14, 0, RegionShape::Block { rows: 4, cols: 8 });
        assert!(matches!(
            m.read_region(&oob),
            Err(PolyMemError::OutOfBounds { .. })
        ));
        // RoCo cannot serve diagonals.
        let diag = Region::new("d", 0, 0, RegionShape::MainDiag { len: 8 });
        assert!(matches!(
            m.read_region(&diag),
            Err(PolyMemError::UnsupportedPattern { .. })
        ));
    }

    #[test]
    fn large_region_read_shards_across_ports() {
        // 64x64 -> a 64x64 block region of 4096 elements, well above the
        // serial threshold, so the crossbeam sharding path runs.
        let m = ConcurrentPolyMem::<u64>::new(
            PolyMemConfig::new(64, 64, 2, 4, AccessScheme::RoCo, 4).unwrap(),
        )
        .unwrap();
        for r in 0..64usize {
            for c in 0..64usize {
                m.set(r, c, (r * 64 + c) as u64).unwrap();
            }
        }
        let r = Region::new("all", 0, 0, RegionShape::Block { rows: 64, cols: 64 });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = (0..64 * 64).collect();
        assert_eq!(got, want);
    }

    fn rero(rows: usize, cols: usize) -> ConcurrentPolyMem<u64> {
        let m = ConcurrentPolyMem::<u64>::new(
            PolyMemConfig::new(rows, cols, 2, 4, AccessScheme::ReRo, 4).unwrap(),
        )
        .unwrap();
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, (r * cols + c) as u64).unwrap();
            }
        }
        m
    }

    #[test]
    fn secondary_diag_region_reaching_column_zero() {
        // A secondary diagonal of length L at origin (i, j) walks left to
        // column j - (L - 1); j = L - 1 is the tightest in-bounds origin
        // and its last element sits on column 0.
        let m = rero(16, 16);
        let r = Region::new("sd", 0, 7, RegionShape::SecondaryDiag { len: 8 });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = (0..8).map(|k| (k * 16 + (7 - k)) as u64).collect();
        assert_eq!(got, want);
        // Full anti-diagonal of the array: (15, 0) is the corner element.
        let full = Region::new("sd16", 0, 15, RegionShape::SecondaryDiag { len: 16 });
        let got = m.read_region(&full).unwrap();
        assert_eq!(got[15], 15 * 16);
    }

    #[test]
    fn secondary_diag_region_write_at_boundary_roundtrips() {
        let m = rero(16, 16);
        let r = Region::new("sd", 8, 7, RegionShape::SecondaryDiag { len: 8 });
        let vals: Vec<u64> = (700..708).collect();
        m.write_region(&r, &vals).unwrap();
        assert_eq!(m.read_region(&r).unwrap(), vals);
        for (k, &v) in vals.iter().enumerate() {
            assert_eq!(m.get(8 + k, 7 - k).unwrap(), v);
        }
        // The column-0 neighbour of the last element is untouched.
        assert_eq!(m.get(14, 0).unwrap(), 14 * 16);
    }

    #[test]
    fn secondary_diag_region_past_column_zero_is_out_of_bounds() {
        // One column short of the boundary origin must fail cleanly (the
        // leftward walk would need column -1), with no panic and no
        // poisoned cache state for subsequent valid reads.
        let m = rero(16, 16);
        for j in [0usize, 3, 6] {
            let r = Region::new("oob", 0, j, RegionShape::SecondaryDiag { len: 8 });
            assert!(
                matches!(m.read_region(&r), Err(PolyMemError::OutOfBounds { .. })),
                "origin column {j}"
            );
        }
        let ok = Region::new("ok", 0, 7, RegionShape::SecondaryDiag { len: 8 });
        assert!(m.read_region(&ok).is_ok());
    }

    #[test]
    fn large_secondary_diag_region_shards_across_ports_at_boundary() {
        // len 256 >= PARALLEL_REGION_MIN, so the crossbeam sharding path
        // replays the plan right up to the (255, 0) corner.
        let n = 256usize;
        let m = rero(n, n);
        let r = Region::new("sd", 0, n - 1, RegionShape::SecondaryDiag { len: n });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = (0..n).map(|k| (k * n + (n - 1 - k)) as u64).collect();
        assert_eq!(got, want);
        let vals: Vec<u64> = (0..n as u64).map(|v| v + 9000).collect();
        m.write_region(&r, &vals).unwrap();
        assert_eq!(m.read_region(&r).unwrap(), vals);
    }

    #[test]
    fn scalar_access_and_bounds() {
        let m = mem();
        m.set(5, 5, 42).unwrap();
        assert_eq!(m.get(5, 5).unwrap(), 42);
        assert!(m.get(16, 0).is_err());
        assert!(m.set(0, 16, 1).is_err());
    }

    #[test]
    fn scheme_checks_apply() {
        let m = mem(); // RoCo
        assert!(m
            .read(PA::new(0, 0, crate::scheme::AccessPattern::MainDiagonal))
            .is_err());
        assert!(m.read(PA::rect(1, 1)).is_err()); // misaligned RoCo rect
        assert!(m.read(PA::rect(2, 4)).is_ok());
    }

    /// copy_region parity under racing writers: a writer hammers a third
    /// disjoint region while bursts copy src into a same-class destination
    /// (the `copy_within` bank-run path) and a cross-class one (the staged
    /// gather + spawned per-bank scatter path). Afterwards both
    /// destinations hold exactly src's content, src is untouched, and the
    /// hammered region holds the writer's final values.
    #[test]
    fn copy_region_parity_under_racing_writers() {
        let cfg = PolyMemConfig::new(32, 64, 2, 4, AccessScheme::RoCo, 4).unwrap();
        let m = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
        for i in 0..32usize {
            for j in 0..64usize {
                m.set(i, j, (i * 64 + j) as u64).unwrap();
            }
        }
        let shape = RegionShape::Block { rows: 8, cols: 32 };
        let src = Region::new("s", 0, 0, shape);
        let hot = Region::new("w", 8, 0, shape);
        // (16, 0) is congruent to (0, 0) mod the period 8: same plan Arc.
        let dst_same = Region::new("d0", 16, 0, shape);
        // (24, 4) is a different residue class: staged gather + scatter.
        let dst_cross = Region::new("d1", 24, 4, shape);
        let stop = AtomicBool::new(false);
        let writer_vals: Vec<u64> = (0..hot.len() as u64).map(|k| 0xdead_0000 + k).collect();
        crossbeam::scope(|s| {
            s.spawn(|_| {
                while !stop.load(Ordering::Relaxed) {
                    m.write_region(&hot, &writer_vals).unwrap();
                }
            });
            for _ in 0..50 {
                m.copy_region(&src, &dst_same).unwrap();
                m.copy_region(&src, &dst_cross).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
        for i in 0..8usize {
            for j in 0..32usize {
                let want = (i * 64 + j) as u64;
                assert_eq!(m.get(i, j).unwrap(), want, "src ({i},{j})");
                assert_eq!(m.get(16 + i, j).unwrap(), want, "dst_same ({i},{j})");
                assert_eq!(m.get(24 + i, 4 + j).unwrap(), want, "dst_cross ({i},{j})");
                assert_eq!(
                    m.get(8 + i, j).unwrap(),
                    0xdead_0000 + (i * 32 + j) as u64,
                    "hot ({i},{j})"
                );
            }
        }
    }
}
