//! Compiled region plans: whole-region transfers as one affine segment list.
//!
//! [`crate::plan`] made single parallel accesses cheap (per-residue-class
//! routing compiled once). Real workloads move [`Region`]s — many accesses
//! plus a canonical-order permutation. A [`RegionPlan`] compiles all of
//! that once per *(region shape, origin residue class)*:
//!
//! * the access decomposition ([`Region::plan_accesses`]) is shape+residue
//!   periodic: access origins sit at fixed offsets from the region origin
//!   that are multiples of `p`/`q`/`p*q`, so each access's aligned-tile
//!   address `A(acc) - A(origin)` telescopes exactly (the same argument as
//!   the single-access plan, lifted to whole regions);
//! * each access's per-lane routing comes from the existing
//!   [`PlanCache`] (crossbar-verified at compile);
//! * every lane lands on its canonical element `c` through the closed-form
//!   [`Region::canonical_index`], at a flat-storage offset relative to
//!   `A(origin)`.
//!
//! Those `(c, flat)` pairs are put in the layout's native order — `(bank,
//! c)` under [`BankLayout::BankMajor`], `c` under
//! [`BankLayout::AddrInterleaved`] — and cut greedily into maximal affine
//! [`Segment`]s. The segment list is the plan's only per-element
//! structure: every gather, scatter and copy of [`crate::PolyMem`] and
//! [`crate::ConcurrentPolyMem`] walks it, and the per-element view
//! ([`RegionPlan::elements`]) is derived from it. Under `BankMajor` each
//! segment lies in one bank, and a `lanes + 1`-entry index hands each bank
//! its segment range for per-bank-locked replay. [`RegionPlanCache`]
//! memoises plans with hit/miss/bytes counters, mirroring [`PlanCache`].

use crate::addressing::AddressingFunction;
use crate::agu::Agu;
use crate::banks::BankLayout;
use crate::error::{PolyMemError, Result};
use crate::maf::ModuleAssignment;
use crate::plan::{PlanCache, PlanKeyHasher};
use crate::region::{Region, RegionShape};
use crate::scheme::AccessScheme;
use crate::sync::{AtomicU64, Ordering};
use crate::telemetry::{Histogram, Label, StatCounter, TelemetryRegistry};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Fixed width of the strided-replay inner loop. Segments that are not
/// unit-stride on both sides are replayed in chunks of this many elements
/// with a fully unrolled body of independent loads/stores — a shape LLVM's
/// autovectorizer turns into gather/scatter vector code on every release
/// target we build. The `chunk_shape` golden test pins the decomposition
/// so the loop shape cannot silently drift back to one-element-at-a-time.
pub const STRIDE_CHUNK: usize = 4;

/// How a strided segment of `len` elements decomposes into the fixed-width
/// replay loop: `(full_chunks, tail_elems)`.
#[inline]
pub const fn chunk_shape(len: usize) -> (usize, usize) {
    (len / STRIDE_CHUNK, len % STRIDE_CHUNK)
}

/// Strided gather inner loop: `out[t] = src[s0 + t * ss]`, executed as
/// [`STRIDE_CHUNK`]-wide chunks with an unrolled body of independent loads
/// (the autovectorizable shape) plus a scalar tail.
#[inline(always)]
fn gather_strided<T: Copy>(src: &[T], s0: isize, ss: isize, out: &mut [T]) {
    let (chunks, _tail) = chunk_shape(out.len());
    let mut s = s0;
    for chunk in out.chunks_exact_mut(STRIDE_CHUNK) {
        chunk[0] = src[s as usize];
        chunk[1] = src[(s + ss) as usize];
        chunk[2] = src[(s + 2 * ss) as usize];
        chunk[3] = src[(s + 3 * ss) as usize];
        s += STRIDE_CHUNK as isize * ss;
    }
    for (t, o) in out[chunks * STRIDE_CHUNK..].iter_mut().enumerate() {
        *o = src[(s + t as isize * ss) as usize];
    }
}

/// Strided scatter inner loop: the write mirror of [`gather_strided`].
#[inline(always)]
fn scatter_strided<T: Copy>(dst: &mut [T], d0: isize, ds: isize, values: &[T]) {
    let (chunks, _tail) = chunk_shape(values.len());
    let mut d = d0;
    for chunk in values.chunks_exact(STRIDE_CHUNK) {
        dst[d as usize] = chunk[0];
        dst[(d + ds) as usize] = chunk[1];
        dst[(d + 2 * ds) as usize] = chunk[2];
        dst[(d + 3 * ds) as usize] = chunk[3];
        d += STRIDE_CHUNK as isize * ds;
    }
    for (t, &v) in values[chunks * STRIDE_CHUNK..].iter().enumerate() {
        dst[(d + t as isize * ds) as usize] = v;
    }
}

/// The one replay kernel: `dst[d0 + t * ds] = src[s0 + t * ss]` for
/// `t < len`. Unit strides on both sides are a single block move; a unit
/// stride on one side runs the chunked loop over that side's contiguous
/// slice; two strided sides run a plain element loop.
///
/// This and both chunked loops are forced inline: replays call them once
/// per segment, and segments are often short (a 64-element column under
/// `AddrInterleaved` is 32 two-element segments), so a call per segment
/// would cost more than the move.
#[inline(always)]
pub(crate) fn copy_strided<T: Copy>(
    src: &[T],
    (s0, ss): (isize, isize),
    dst: &mut [T],
    (d0, ds): (isize, isize),
    len: usize,
) {
    if ds == 1 {
        let out = &mut dst[d0 as usize..d0 as usize + len];
        if ss == 1 {
            out.copy_from_slice(&src[s0 as usize..s0 as usize + len]);
        } else {
            gather_strided(src, s0, ss, out);
        }
    } else if ss == 1 {
        scatter_strided(dst, d0, ds, &src[s0 as usize..s0 as usize + len]);
    } else {
        for t in 0..len as isize {
            dst[(d0 + t * ds) as usize] = src[(s0 + t * ss) as usize];
        }
    }
}

/// One maximal affine segment of a region plan: for `t < len`, canonical
/// element `c0 + t * c_stride` lives at flat offset `flat0 + t * f_stride`
/// from the scaled region origin. A lone element is the degenerate
/// `len == 1` segment with both strides 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Flat offset of the first element, relative to the scaled origin.
    pub flat0: isize,
    /// First canonical element.
    pub c0: u32,
    /// Elements covered (>= 1).
    pub len: u32,
    /// Canonical-index distance between consecutive elements (segments
    /// follow ascending canonical order, so this is positive).
    pub c_stride: u32,
    /// Flat-slot distance between consecutive elements. Steps that do not
    /// fit an `i32` end the segment.
    pub f_stride: i32,
}

impl Segment {
    /// The segment's `(c, flat)` pairs in replay order.
    #[inline]
    pub fn elements(self) -> impl Iterator<Item = (usize, isize)> {
        (0..self.len as usize).map(move |t| {
            (
                self.c0 as usize + t * self.c_stride as usize,
                self.flat0 + t as isize * self.f_stride as isize,
            )
        })
    }
}

/// One maximal unit-stride interval of the *sorted* storage image: the
/// region touches exactly the flat slots `offset .. offset + len`
/// (relative to the base), with no other interval adjacent to it. A
/// same-plan `copy_region` is a pure `copy_within` per interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRun {
    /// First flat offset (relative to the base) of the interval.
    pub offset: isize,
    /// Contiguous flat slots covered (>= 1).
    pub len: u32,
}

/// One cached plan plus its recency stamp. The stamp is atomic so shared
/// `&self` lookups can refresh it without a write lock on the map.
#[derive(Debug)]
struct CacheSlot {
    plan: Arc<RegionPlan>,
    last_used: AtomicU64,
}

impl Clone for CacheSlot {
    fn clone(&self) -> Self {
        Self {
            plan: Arc::clone(&self.plan),
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
        }
    }
}

type RegionPlanMap = HashMap<RegionPlanKey, CacheSlot, BuildHasherDefault<PlanKeyHasher>>;

/// Identity of one residue class of regions: same shape (including sizes)
/// and origins congruent mod `p*q` in both coordinates share identical
/// decomposition and routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionPlanKey {
    /// The region shape, sizes included.
    pub shape: RegionShape,
    /// `i0 mod (p*q)`.
    pub ri: u32,
    /// `j0 mod (p*q)`.
    pub rj: u32,
}

impl RegionPlanKey {
    /// The residue class of `region` for a memory with `period = p*q`.
    #[inline]
    pub fn of(region: &Region, period: usize) -> Self {
        Self {
            shape: region.shape,
            ri: (region.i % period) as u32,
            rj: (region.j % period) as u32,
        }
    }
}

/// A compiled region transfer: the segment list every
/// `read_region`/`write_region`/`copy_region` replays.
///
/// All flat offsets are relative to `A(i0, j0) * layout.base_scale` of the
/// *region origin*; a replay computes that one address and walks
/// [`Self::segments`]. Callers bounds-check the concrete region
/// ([`Region::check_bounds`]) before looking the plan up.
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// The shape this plan serves (for diagnostics).
    pub shape: RegionShape,
    /// The flat backing layout the segments were compiled against; it
    /// also fixes their order (bank-major or canonical).
    pub layout: BankLayout,
    /// Maximal affine segments tiling the canonical range exactly (proven
    /// by [`Self::validate`]): under `BankMajor` grouped by bank and
    /// ascending in `c` within each bank, under `AddrInterleaved` ascending
    /// in `c`.
    pub segments: Vec<Segment>,
    /// Maximal unit-stride intervals of the sorted storage image (the
    /// flat slots the region touches, merged). Same-plan copies replay
    /// these as pure block moves.
    pub store_runs: Vec<StoreRun>,
    /// Under `BankMajor`, `lanes + 1` entries: bank `b` owns
    /// `segments[bank_index[b] .. bank_index[b + 1]]`. Empty under
    /// `AddrInterleaved`, whose segments cross banks.
    pub bank_index: Vec<u32>,
    /// Elements in storage-contiguous segments (`f_stride == 1`): the
    /// coalesced share behind both façades' byte telemetry.
    pub coalesced_elems: usize,
    /// Number of parallel accesses the region decomposes into.
    pub accesses: usize,
    /// Lanes per access (`p * q`).
    pub lanes: usize,
}

/// Greedy maximal affine segmentation of one group of canonical indices
/// (`order`, ascending) whose flat offsets are `flat[c]`: a segment grows
/// while both steps repeat and fit their fields.
fn push_segments(order: &[u32], flat: &[isize], out: &mut Vec<Segment>) {
    let step = |a: u32, b: u32| {
        let fs = i32::try_from(flat[b as usize] - flat[a as usize]).ok()?;
        Some((b - a, fs))
    };
    let mut t = 0usize;
    while t < order.len() {
        let c0 = order[t];
        let mut seg = Segment {
            flat0: flat[c0 as usize],
            c0,
            len: 1,
            c_stride: 1,
            f_stride: 1,
        };
        if let Some((cs, fs)) = order.get(t + 1).and_then(|&c1| step(c0, c1)) {
            (seg.c_stride, seg.f_stride) = (cs, fs);
            let mut last = t + 1;
            while last + 1 < order.len() && step(order[last], order[last + 1]) == Some((cs, fs)) {
                last += 1;
            }
            seg.len = (last - t + 1) as u32;
        }
        t += seg.len as usize;
        out.push(seg);
    }
}

/// Elements in storage-contiguous (`f_stride == 1`) segments.
fn coalesced(segments: &[Segment]) -> usize {
    segments
        .iter()
        .filter(|s| s.f_stride == 1)
        .map(|s| s.len as usize)
        .sum()
}

/// Merge the sorted storage image into maximal unit-stride intervals.
fn build_store_runs(sorted: &[isize]) -> Vec<StoreRun> {
    let mut runs = Vec::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let mut last = i;
        while last + 1 < sorted.len() && sorted[last + 1] == sorted[last] + 1 {
            last += 1;
        }
        runs.push(StoreRun {
            offset: sorted[i],
            len: (last - i + 1) as u32,
        });
        i = last + 1;
    }
    runs
}

impl RegionPlan {
    /// Compile the plan for `region`'s residue class.
    ///
    /// Runs the full checked pipeline once per access — scheme/alignment
    /// check, AGU bounds check, per-access plan compile through `cache`
    /// (crossbar-verified) — then splices every lane into canonical order
    /// and segments the result. Errors surface in the same order the naive
    /// per-access loop would hit them. Failed compiles are not cached.
    pub fn compile(
        region: &Region,
        scheme: AccessScheme,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
        cache: &mut PlanCache,
    ) -> Result<Self> {
        let (p, q) = (agu.p(), agu.q());
        let accesses = region.plan_accesses(p, q)?;
        let lanes = agu.lanes();
        let len = region.len();
        if u32::try_from(len).is_err() {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "region {}: {len} elements exceed a plan's u32 index",
                    region.name
                ),
            });
        }
        let base0 = afn.address(region.i, region.j) as isize;
        let layout = cache.layout();
        // Under an interleaved layout one intra-bank address step moves
        // `lanes` flat slots, so access-base offsets scale before folding.
        let scale = layout.base_scale(lanes);

        let mut flat = vec![0isize; len];
        let mut bank = vec![0u32; len];
        let mut seen = vec![false; len];
        for (a, &acc) in accesses.iter().enumerate() {
            scheme.check_access(acc, p, q)?;
            agu.check_bounds(acc)?;
            let abase = afn.address(acc.i, acc.j) as isize - base0;
            // Borrow the plan out of the cache, then expand coordinates
            // (compile-time only; replays never expand).
            let plan = cache.get_or_compile(acc, agu, maf, afn)?.clone();
            for (k, (i, j)) in agu.expand(acc)?.into_iter().enumerate() {
                let c =
                    region
                        .canonical_index(i, j)
                        .ok_or_else(|| PolyMemError::InvalidGeometry {
                            reason: format!(
                                "region {}: access {a} lane {k} at ({i}, {j}) falls \
                             outside the region",
                                region.name
                            ),
                        })?;
                if seen[c] {
                    return Err(PolyMemError::InvalidGeometry {
                        reason: format!(
                            "region {}: canonical element {c} covered twice",
                            region.name
                        ),
                    });
                }
                seen[c] = true;
                flat[c] = plan.fold[k] + abase * scale;
                bank[c] = plan.banks[k];
            }
        }
        if let Some(c) = seen.iter().position(|&s| !s) {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "region {}: canonical element {c} not covered by any access",
                    region.name
                ),
            });
        }

        // Replay order: canonical within each bank (a stable counting sort)
        // under BankMajor, plain canonical order otherwise.
        let banked = layout == BankLayout::BankMajor;
        let (order, bounds): (Vec<u32>, Vec<u32>) = if banked {
            let mut bounds = vec![0u32; lanes + 1];
            for &b in &bank {
                bounds[b as usize + 1] += 1;
            }
            for b in 0..lanes {
                bounds[b + 1] += bounds[b];
            }
            let mut fill = bounds.clone();
            let mut order = vec![0u32; len];
            for (c, &b) in bank.iter().enumerate() {
                order[fill[b as usize] as usize] = c as u32;
                fill[b as usize] += 1;
            }
            (order, bounds)
        } else {
            ((0..len as u32).collect(), vec![0, len as u32])
        };
        let mut segments = Vec::new();
        let mut bank_index = vec![0u32];
        for group in bounds.windows(2) {
            push_segments(
                &order[group[0] as usize..group[1] as usize],
                &flat,
                &mut segments,
            );
            bank_index.push(segments.len() as u32);
        }
        if !banked {
            bank_index.clear();
        }
        segments.shrink_to_fit();
        let coalesced_elems = coalesced(&segments);
        flat.sort_unstable();
        let mut store_runs = build_store_runs(&flat);
        store_runs.shrink_to_fit();

        Ok(Self {
            shape: region.shape,
            layout,
            segments,
            store_runs,
            bank_index,
            coalesced_elems,
            accesses: accesses.len(),
            lanes,
        })
    }

    /// Elements the plan moves (the region length): every access fills
    /// all of its lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.accesses * self.lanes
    }

    /// Whether the plan moves nothing (zero-sized region).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.accesses == 0
    }

    /// Bank `b`'s segments (bank-major plans only).
    #[inline]
    pub fn bank_segments(&self, b: usize) -> &[Segment] {
        &self.segments[self.bank_index[b] as usize..self.bank_index[b + 1] as usize]
    }

    /// The per-element view derived from the segments: `(c, flat)` for
    /// every element, in replay order. For validation, the verifier and
    /// tests; replays walk [`Self::segments`] directly.
    pub fn elements(&self) -> impl Iterator<Item = (usize, isize)> + '_ {
        self.segments.iter().flat_map(|s| s.elements())
    }

    /// Bytes one replay moves through storage-contiguous segments vs the
    /// strided loop, for elements of `elem` bytes: the one definition
    /// behind both façades' coalesced/strided telemetry.
    #[inline]
    pub fn byte_split(&self, elem: usize) -> (u64, u64) {
        let unit = self.coalesced_elems;
        ((unit * elem) as u64, ((self.len() - unit) * elem) as u64)
    }

    /// Flat slot of logical base address `base` under this plan's layout —
    /// the origin every segment and `store_runs` offset is relative to.
    #[inline]
    pub fn flat_base(&self, base: isize) -> isize {
        base * self.layout.base_scale(self.lanes)
    }

    /// Segment gather: replay the whole region out of `flat` (at logical
    /// base address `base`) into `out` in canonical order. Equivalent to
    /// `out[c] = flat[flat_base + f]` over [`Self::elements`], element for
    /// element. Not inlined into callers, so the segment loop compiles to
    /// the same code whichever façade or benchmark calls it.
    #[inline(never)]
    pub fn gather_into<T: Copy>(&self, flat: &[T], base: isize, out: &mut [T]) {
        let fbase = self.flat_base(base);
        for s in &self.segments {
            copy_strided(
                flat,
                (fbase + s.flat0, s.f_stride as isize),
                out,
                (s.c0 as isize, s.c_stride as isize),
                s.len as usize,
            );
        }
    }

    /// Segment scatter: the write mirror of [`Self::gather_into`].
    #[inline(never)]
    pub fn scatter_from<T: Copy>(&self, flat: &mut [T], base: isize, values: &[T]) {
        let fbase = self.flat_base(base);
        for s in &self.segments {
            copy_strided(
                values,
                (s.c0 as isize, s.c_stride as isize),
                flat,
                (fbase + s.flat0, s.f_stride as isize),
                s.len as usize,
            );
        }
    }

    /// Same-plan region copy as pure block moves: for a source replay at
    /// logical base `sbase` and a destination replay of the *same plan* at
    /// `dbase`, every touched flat slot shifts by the same amount, so the
    /// copy is one `copy_within` per merged storage interval. Only valid
    /// when the two replays do not overlap (callers check; overlapping
    /// copies take the per-access loop for its ordering semantics).
    #[inline]
    pub fn copy_store_runs_within<T: Copy>(&self, flat: &mut [T], sbase: isize, dbase: isize) {
        let sflat = self.flat_base(sbase);
        let dflat = self.flat_base(dbase);
        for run in &self.store_runs {
            let s = (sflat + run.offset) as usize;
            let d = (dflat + run.offset) as usize;
            flat.copy_within(s..s + run.len as usize, d);
        }
    }

    /// Structural soundness check: prove this plan is a true permutation of
    /// the region for a replay at flat base address `base` (`A(origin)`)
    /// into banks of `depth` elements.
    ///
    /// Verifies, without touching any memory:
    /// * the segments exactly tile the canonical range `0..len` — no
    ///   empty segment, no element twice, none missing;
    /// * every element's flat slot is in bounds, and the slots are
    ///   pairwise distinct (a scatter can never lose a write);
    /// * every bank serves exactly `accesses` elements — each
    ///   conflict-free access touches each of the `lanes` banks once;
    /// * under `BankMajor`, the bank index is a `lanes + 1`-entry CSR and
    ///   every segment listed under bank `b` stays inside bank `b`; under
    ///   `AddrInterleaved`, the index is empty;
    /// * `store_runs` exactly tiles the sorted storage image (maximal
    ///   intervals: adjacent intervals never merge);
    /// * `coalesced_elems` counts the `f_stride == 1` segments' elements.
    ///
    /// Compiled plans satisfy this by construction; the `polymem-verify`
    /// static analyzer re-proves it per cached class (and cross-checks
    /// [`Self::elements`] against the MAF + addressing model) and trips it
    /// on deliberately corrupted plans in `--inject` mode.
    pub fn validate(&self, base: isize, depth: usize) -> Result<()> {
        let len = self.len();
        let err = |what: String| PolyMemError::InvalidGeometry {
            reason: format!("region plan for {:?}: {what}", self.shape),
        };
        let banked = self.layout == BankLayout::BankMajor;
        let nseg = self.segments.len();
        if banked {
            let idx = &self.bank_index;
            if idx.len() != self.lanes + 1
                || idx[0] != 0
                || idx[self.lanes] as usize != nseg
                || idx.windows(2).any(|w| w[0] > w[1])
            {
                return Err(err("bank index is not a CSR over the banks".into()));
            }
        } else if !self.bank_index.is_empty() {
            return Err(err("interleaved plan carries a bank index".into()));
        }
        let total = (self.lanes * depth) as isize;
        let fbase = self.flat_base(base);
        let mut covered = vec![false; len];
        let mut per_bank = vec![0usize; self.lanes];
        let mut slots = Vec::with_capacity(len);
        let mut owner = 0usize;
        for (k, seg) in self.segments.iter().enumerate() {
            if seg.len == 0 {
                return Err(err(format!("segment {k} is empty")));
            }
            if banked {
                while self.bank_index[owner + 1] as usize <= k {
                    owner += 1;
                }
            }
            for (c, f) in seg.elements() {
                if c >= len || covered[c] {
                    return Err(err(format!(
                        "segment {k} repeats or overruns canonical element {c} \
                         (mis-tiled segment list)"
                    )));
                }
                covered[c] = true;
                let abs = fbase + f;
                if abs < 0 || abs >= total {
                    return Err(err(format!(
                        "element {c} gathers from flat slot {abs} outside storage of {total}"
                    )));
                }
                let bank = self.layout.bank_of(abs as usize, self.lanes, depth);
                if banked && bank != owner {
                    return Err(err(format!(
                        "segment {k} is listed under bank {owner} but element {c} \
                         lives in bank {bank}"
                    )));
                }
                per_bank[bank] += 1;
                slots.push(f);
            }
        }
        if slots.len() != len {
            return Err(err(format!(
                "segments cover {} of {len} elements (mis-tiled segment list)",
                slots.len()
            )));
        }
        if let Some(b) = per_bank.iter().position(|&n| n != self.accesses) {
            return Err(err(format!(
                "bank {b} serves {} elements, but {} conflict-free accesses give \
                 every bank exactly one each",
                per_bank[b], self.accesses
            )));
        }
        slots.sort_unstable();
        if slots.windows(2).any(|w| w[0] == w[1]) {
            return Err(err("two elements gather from the same flat slot".into()));
        }
        // store_runs tile the sorted storage image exactly, as maximal
        // (non-mergeable) intervals.
        let mut expanded = 0usize;
        for (r, run) in self.store_runs.iter().enumerate() {
            if run.len == 0 {
                return Err(err(format!("storage interval {r} is empty")));
            }
            if r > 0 {
                let prev = self.store_runs[r - 1];
                if run.offset <= prev.offset + prev.len as isize {
                    return Err(err(format!(
                        "storage intervals {} and {r} overlap or fail to merge",
                        r - 1
                    )));
                }
            }
            for t in 0..run.len as usize {
                let slot = run.offset + t as isize;
                if expanded + t >= len || slots[expanded + t] != slot {
                    return Err(err(format!(
                        "storage interval {r} claims flat offset {slot} the region does \
                         not gather from"
                    )));
                }
            }
            expanded += run.len as usize;
        }
        if expanded != len {
            return Err(err(format!(
                "storage intervals cover {expanded} of {len} touched slots"
            )));
        }
        if self.coalesced_elems != coalesced(&self.segments) {
            return Err(err(
                "coalesced element count disagrees with the segments".into()
            ));
        }
        Ok(())
    }

    /// Heap footprint of the plan's tables, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.segments.len() * size_of::<Segment>()
            + self.store_runs.len() * size_of::<StoreRun>()
            + self.bank_index.len() * size_of::<u32>()
    }
}

/// Snapshot of a [`RegionPlanCache`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionPlanCacheStats {
    /// Region operations served by an already-compiled plan.
    pub hits: u64,
    /// Region operations that triggered a compilation.
    pub misses: u64,
    /// Plans evicted to stay under the capacity cap.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum number of plans the cache will hold.
    pub capacity: usize,
    /// Total heap bytes held by cached plans' index arrays.
    pub bytes: u64,
}

/// Lazy cache of [`RegionPlan`]s, keyed per (shape, origin-residue) class.
///
/// Unlike [`PlanCache`] the key space is unbounded (shapes carry sizes), so
/// the cache is capacity-bounded: once `capacity` classes are resident, the
/// least-recently-used plan is evicted to make room (applications use a
/// small fixed set of region shapes, so the default cap of
/// [`Self::DEFAULT_CAPACITY`] is effectively "never evict" — the cap exists
/// so adversarially varied shapes cannot grow the cache without bound).
/// Counters and recency stamps are atomic so shared-`&self` users can count
/// and touch lookups.
#[derive(Debug)]
pub struct RegionPlanCache {
    period: usize,
    capacity: usize,
    map: RegionPlanMap,
    tick: AtomicU64,
    hits: StatCounter,
    misses: StatCounter,
    evictions: StatCounter,
    bytes: AtomicU64,
    /// When telemetry is attached: the length of every segment a plan
    /// holds, observed once per compilation (plans are immutable, so
    /// compile time is the one place segment shapes are decided).
    run_hist: Option<Histogram>,
}

impl RegionPlanCache {
    /// Default capacity cap: far above any realistic working set of region
    /// shape classes, but finite.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Histogram bucket bounds for segment lengths (powers of two up to a
    /// full STREAM-sized row; the overflow bucket catches the rest).
    pub const RUN_LENGTH_BOUNDS: &'static [u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

    /// Empty cache for a memory with `p*q == period` lanes, holding at most
    /// [`Self::DEFAULT_CAPACITY`] plans.
    pub fn new(period: usize) -> Self {
        Self::with_capacity(period, Self::DEFAULT_CAPACITY)
    }

    /// Empty cache bounded to `capacity` plans (minimum 1: the current plan
    /// must be resident to replay).
    pub fn with_capacity(period: usize, capacity: usize) -> Self {
        Self {
            period,
            capacity: capacity.max(1),
            map: RegionPlanMap::default(),
            tick: AtomicU64::new(0),
            hits: StatCounter::new(),
            misses: StatCounter::new(),
            evictions: StatCounter::new(),
            bytes: AtomicU64::new(0),
            run_hist: None,
        }
    }

    /// Record a freshly compiled plan's segment lengths, if telemetry is
    /// on.
    fn observe_runs(&self, plan: &RegionPlan) {
        if let Some(h) = &self.run_hist {
            observe_segments(h, plan);
        }
    }

    /// The residue period (`p*q`).
    #[inline]
    pub fn period(&self) -> usize {
        self.period
    }

    /// Maximum number of plans the cache will hold before evicting.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Next recency stamp (monotonic; shared lookups may interleave, which
    /// only perturbs LRU order between concurrent touches — harmless).
    #[inline]
    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up the plan for `region`'s residue class without compiling.
    /// Counts a hit and refreshes recency when present (misses are counted
    /// by the compile path).
    pub fn lookup(&self, region: &Region) -> Option<Arc<RegionPlan>> {
        let found = self.map.get(&RegionPlanKey::of(region, self.period));
        if let Some(slot) = found {
            slot.last_used.store(self.stamp(), Ordering::Relaxed);
            self.hits.inc();
        }
        found.map(|slot| Arc::clone(&slot.plan))
    }

    /// Evict least-recently-used plans until an insert fits under the cap.
    fn make_room(&mut self) {
        while self.map.len() >= self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| *key)
            else {
                return;
            };
            if let Some(slot) = self.map.remove(&oldest) {
                self.bytes
                    .fetch_sub(slot.plan.heap_bytes() as u64, Ordering::Relaxed);
                self.evictions.inc();
            }
        }
    }

    /// The plan for `region`'s residue class, compiling through `cache` on
    /// first use (evicting the least-recently-used plan when full). The
    /// caller bounds-checks the concrete region via
    /// [`Region::check_bounds`] first (compilation checks the
    /// representative; cache hits do not).
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_compile(
        &mut self,
        region: &Region,
        scheme: AccessScheme,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
        cache: &mut PlanCache,
    ) -> Result<Arc<RegionPlan>> {
        let key = RegionPlanKey::of(region, self.period);
        if let Some(slot) = self.map.get(&key) {
            slot.last_used.store(self.stamp(), Ordering::Relaxed);
            self.hits.inc();
            return Ok(Arc::clone(&slot.plan));
        }
        self.misses.inc();
        let plan = Arc::new(RegionPlan::compile(region, scheme, agu, maf, afn, cache)?);
        self.observe_runs(&plan);
        self.make_room();
        self.bytes
            .fetch_add(plan.heap_bytes() as u64, Ordering::Relaxed);
        self.map.insert(
            key,
            CacheSlot {
                plan: Arc::clone(&plan),
                last_used: AtomicU64::new(self.stamp()),
            },
        );
        Ok(plan)
    }

    /// Insert a pre-compiled plan (used by shared-cache wrappers that
    /// compile outside the map borrow), evicting the least-recently-used
    /// plan when full.
    pub fn insert(&mut self, key: RegionPlanKey, plan: Arc<RegionPlan>) {
        self.misses.inc();
        self.observe_runs(&plan);
        self.make_room();
        self.bytes
            .fetch_add(plan.heap_bytes() as u64, Ordering::Relaxed);
        let slot = CacheSlot {
            plan,
            last_used: AtomicU64::new(self.stamp()),
        };
        if let Some(old) = self.map.insert(key, slot) {
            // Re-insert over an existing class: the old plan leaves.
            self.bytes
                .fetch_sub(old.plan.heap_bytes() as u64, Ordering::Relaxed);
        }
    }

    /// Drop every cached plan (counters keep running, bytes resets).
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// Activity counters, current size/capacity, and heap footprint.
    pub fn stats(&self) -> RegionPlanCacheStats {
        RegionPlanCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries: self.map.len(),
            capacity: self.capacity,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Export the hit/miss/eviction counters through `registry` as
    /// `polymem_plan_cache_{hits,misses,evictions}_total` with the given
    /// labels, and start recording plan segment lengths into
    /// `polymem_region_run_length`. The registry holds live handles to
    /// the same atomics [`Self::stats`] reads, so exported values track
    /// lookups with no extra work on the lookup path; the histogram costs
    /// one observation per segment per *compilation* (never per replay).
    pub fn register_telemetry(&mut self, registry: &TelemetryRegistry, labels: Vec<Label>) {
        registry.register_stat("polymem_plan_cache_hits_total", labels.clone(), &self.hits);
        registry.register_stat(
            "polymem_plan_cache_misses_total",
            labels.clone(),
            &self.misses,
        );
        registry.register_stat(
            "polymem_plan_cache_evictions_total",
            labels.clone(),
            &self.evictions,
        );
        let hist = registry.histogram("polymem_region_run_length", labels, Self::RUN_LENGTH_BOUNDS);
        // Plans compiled before attachment are already resident; record
        // them so the histogram reflects the cache, not just future
        // compiles.
        for slot in self.map.values() {
            observe_segments(&hist, &slot.plan);
        }
        self.run_hist = Some(hist);
    }
}

/// One `polymem_region_run_length` observation per segment of `plan`.
fn observe_segments(h: &Histogram, plan: &RegionPlan) {
    for s in &plan.segments {
        h.observe(s.len as u64);
    }
}

impl Clone for RegionPlanCache {
    fn clone(&self) -> Self {
        // Counters copy by value: the clone starts with the same counts but
        // its own atomics (a registry watching the original keeps watching
        // only the original).
        Self {
            period: self.period,
            capacity: self.capacity,
            map: self.map.clone(),
            tick: AtomicU64::new(self.tick.load(Ordering::Relaxed)),
            hits: StatCounter::from_value(self.hits.get()),
            misses: StatCounter::from_value(self.misses.get()),
            evictions: StatCounter::from_value(self.evictions.get()),
            bytes: AtomicU64::new(self.bytes.load(Ordering::Relaxed)),
            // Histogram handles are registry-owned; the clone re-attaches
            // if it wants its own recording (same policy as PolyMem).
            run_hist: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::AccessScheme;

    fn blocks(
        scheme: AccessScheme,
        p: usize,
        q: usize,
        rows: usize,
        cols: usize,
    ) -> (Agu, ModuleAssignment, AddressingFunction, PlanCache) {
        (
            Agu::new(p, q, rows, cols),
            ModuleAssignment::new(scheme, p, q),
            AddressingFunction::new(p, q, rows, cols),
            PlanCache::new(p * q, (rows / p) * (cols / q)),
        )
    }

    /// The derived per-element view as a canonical-order gather map.
    fn fold_of(plan: &RegionPlan) -> Vec<isize> {
        let mut fold = vec![0isize; plan.len()];
        for (c, f) in plan.elements() {
            fold[c] = f;
        }
        fold
    }

    #[test]
    fn block_plan_matches_interpreted_addressing() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        let depth = (16 / 2) * (16 / 4);
        let r = Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReO, &agu, &maf, &afn, &mut cache).unwrap();
        assert_eq!(plan.len(), 32);
        assert_eq!(plan.accesses, 4);
        let base0 = afn.address(2, 4) as isize;
        let fold = fold_of(&plan);
        for (c, (i, j)) in r.coords_iter().unwrap().enumerate() {
            let bank = maf.assign_linear(i, j);
            let addr = afn.address(i, j) as isize;
            assert_eq!(fold[c], bank as isize * depth as isize + addr - base0);
        }
    }

    #[test]
    fn plan_is_invariant_across_residue_class() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 64, 64);
        let a = Region::new("a", 3, 8, RegionShape::Row { len: 16 });
        let b = Region::new("b", 3 + 8, 8 + 16, RegionShape::Row { len: 16 });
        let pa = RegionPlan::compile(&a, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        let pb = RegionPlan::compile(&b, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        assert_eq!(pa.segments, pb.segments);
        assert_eq!(pa.store_runs, pb.store_runs);
        assert_eq!(pa.bank_index, pb.bank_index);
    }

    #[test]
    fn bank_elems_is_a_rectangular_cover() {
        // Every bank's segment range covers exactly `accesses` elements,
        // all living in that bank, and the banks together cover each
        // canonical element once.
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::RoCo, 2, 4, 16, 16);
        let depth = (16 / 2) * (16 / 4);
        let r = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::RoCo, &agu, &maf, &afn, &mut cache).unwrap();
        assert_eq!(plan.bank_index.len(), plan.lanes + 1);
        let base = afn.address(r.i, r.j) as isize;
        let mut all = Vec::new();
        for b in 0..plan.lanes {
            let segs = plan.bank_segments(b);
            let elems: Vec<(usize, isize)> = segs.iter().flat_map(|s| s.elements()).collect();
            assert_eq!(elems.len(), plan.accesses, "bank {b}");
            for &(c, f) in &elems {
                assert_eq!((base + f) as usize / depth, b, "element {c}");
                all.push(c);
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..plan.len()).collect::<Vec<_>>());
    }

    #[test]
    fn check_bounds_replays_origin() {
        // A plan serves its whole residue class, so each concrete origin is
        // bounds-checked on its own before the lookup.
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 16, 16);
        let r = Region::new("row", 0, 0, RegionShape::Row { len: 16 });
        RegionPlan::compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        assert!(Region::new("x", 15, 0, r.shape)
            .check_bounds(16, 16)
            .is_ok());
        assert!(Region::new("x", 16, 0, r.shape)
            .check_bounds(16, 16)
            .is_err());
        assert!(Region::new("x", 0, 8, r.shape)
            .check_bounds(16, 16)
            .is_err());
    }

    #[test]
    fn secondary_diag_left_reach_checked() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let r = Region::new("d", 0, 15, RegionShape::SecondaryDiag { len: 16 });
        RegionPlan::compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        assert!(r.check_bounds(32, 32).is_ok());
        // Same residue class mod 8 (15 vs 23), still in bounds.
        let shifted = Region::new("d", 8, 15 + 8, RegionShape::SecondaryDiag { len: 16 });
        assert!(shifted.check_bounds(32, 32).is_ok());
        let tight = Region::new("d", 0, 7, RegionShape::SecondaryDiag { len: 16 });
        assert!(matches!(
            tight.check_bounds(32, 32),
            Err(PolyMemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn cache_counts_and_bytes() {
        let (agu, maf, afn, mut acc_cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let mut cache = RegionPlanCache::new(8);
        let r = Region::new("r", 0, 0, RegionShape::Row { len: 16 });
        cache
            .get_or_compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut acc_cache)
            .unwrap();
        // Same class: hit.
        let r2 = Region::new("r2", 8, 16, RegionShape::Row { len: 16 });
        cache
            .get_or_compile(&r2, AccessScheme::ReRo, &agu, &maf, &afn, &mut acc_cache)
            .unwrap();
        // Different size: new class.
        let r3 = Region::new("r3", 0, 0, RegionShape::Row { len: 8 });
        cache
            .get_or_compile(&r3, AccessScheme::ReRo, &agu, &maf, &afn, &mut acc_cache)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes > 0);
        assert!(cache.lookup(&r).is_some());
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn failed_compile_not_cached() {
        let (agu, maf, afn, mut acc_cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        let mut cache = RegionPlanCache::new(8);
        // ReO serves rectangles only; a Row region cannot compile.
        let r = Region::new("r", 0, 0, RegionShape::Row { len: 16 });
        assert!(cache
            .get_or_compile(&r, AccessScheme::ReO, &agu, &maf, &afn, &mut acc_cache)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup(&r).is_none());
    }

    #[test]
    fn validate_accepts_compiled_plans_and_catches_corruption() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let depth = (32 / 2) * (32 / 4);
        let r = Region::new("d", 2, 15, RegionShape::SecondaryDiag { len: 16 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        let base = afn.address(r.i, r.j) as isize;
        plan.validate(base, depth).unwrap();

        // Two segments gathering from one slot.
        let mut dup = plan.clone();
        dup.segments[1].flat0 = dup.segments[0].flat0;
        assert!(dup.validate(base, depth).is_err());

        // A segment moved into another bank's slab.
        let mut skew = plan.clone();
        skew.segments[3].flat0 += depth as isize;
        assert!(skew.validate(base, depth).is_err());

        // Bank ranges reshuffled: a segment listed under the wrong bank.
        let mut bad_index = plan.clone();
        bad_index.bank_index[1] += 1;
        assert!(bad_index.validate(base, depth).is_err());

        // A gather slot outside storage.
        let mut oob = plan.clone();
        oob.segments[0].flat0 = -base - 1;
        assert!(oob.validate(base, depth).is_err());
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let (agu, maf, afn, mut acc_cache) = blocks(AccessScheme::ReRo, 2, 4, 64, 64);
        let mut cache = RegionPlanCache::with_capacity(8, 2);
        let row = |len: usize| Region::new("r", 0, 0, RegionShape::Row { len });
        cache
            .get_or_compile(
                &row(8),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        cache
            .get_or_compile(
                &row(16),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        // Touch len-8 so len-16 becomes the LRU victim.
        assert!(cache.lookup(&row(8)).is_some());
        cache
            .get_or_compile(
                &row(24),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.capacity, 2);
        assert_eq!(s.evictions, 1);
        assert!(cache.lookup(&row(8)).is_some(), "recently used plan kept");
        assert!(cache.lookup(&row(16)).is_none(), "LRU plan evicted");
        // Evicted classes recompile transparently.
        cache
            .get_or_compile(
                &row(16),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        assert_eq!(cache.stats().evictions, 2);
        // Bytes accounting survives eviction churn: clear and it zeroes.
        cache.clear();
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn empty_region_compiles_to_empty_plan() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        let r = Region::new("e", 3, 3, RegionShape::Block { rows: 0, cols: 4 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReO, &agu, &maf, &afn, &mut cache).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.accesses, 0);
        assert!(plan.segments.is_empty());
        assert!(plan.store_runs.is_empty());
        assert_eq!(plan.bank_index, vec![0u32; plan.lanes + 1]);
        plan.validate(0, 32).unwrap();
        // An empty region is in bounds anywhere (no access is issued).
        assert!(Region::new("e", 999, 999, r.shape)
            .check_bounds(16, 16)
            .is_ok());
    }

    #[test]
    fn strided_chunk_shape_golden() {
        // The vectorization contract: strided segments replay as 4-wide
        // chunks with an unrolled body plus a scalar tail. Changing the
        // width or the decomposition breaks this golden on purpose.
        assert_eq!(STRIDE_CHUNK, 4);
        assert_eq!(chunk_shape(0), (0, 0));
        assert_eq!(chunk_shape(1), (0, 1));
        assert_eq!(chunk_shape(3), (0, 3));
        assert_eq!(chunk_shape(4), (1, 0));
        assert_eq!(chunk_shape(7), (1, 3));
        assert_eq!(chunk_shape(64), (16, 0));
        assert_eq!(chunk_shape(1023), (255, 3));
    }

    fn compile_on(
        scheme: AccessScheme,
        layout: BankLayout,
        region: &Region,
    ) -> (RegionPlan, isize, usize) {
        let (rows, cols, p, q) = (32usize, 32usize, 2usize, 4usize);
        let agu = Agu::new(p, q, rows, cols);
        let maf = ModuleAssignment::new(scheme, p, q);
        let afn = AddressingFunction::new(p, q, rows, cols);
        let depth = (rows / p) * (cols / q);
        let mut cache = PlanCache::with_layout(p * q, depth, layout);
        let plan = RegionPlan::compile(region, scheme, &agu, &maf, &afn, &mut cache).unwrap();
        (plan, afn.address(region.i, region.j) as isize, depth)
    }

    #[test]
    fn runs_tile_fold_and_coalesced_replay_matches_oracle() {
        for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
            for (scheme, region) in [
                (
                    AccessScheme::RoCo,
                    Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 }),
                ),
                (
                    AccessScheme::ReRo,
                    Region::new("r", 3, 8, RegionShape::Row { len: 16 }),
                ),
                (
                    AccessScheme::ReRo,
                    Region::new("d", 2, 15, RegionShape::SecondaryDiag { len: 16 }),
                ),
            ] {
                let (plan, base, depth) = compile_on(scheme, layout, &region);
                plan.validate(base, depth).unwrap();
                // Segments follow the layout's order: ascending c within
                // each bank (bank-major) or overall (interleaved).
                let mut prev: Option<usize> = None;
                for (k, s) in plan.segments.iter().enumerate() {
                    let starts_bank =
                        layout == BankLayout::BankMajor && plan.bank_index.contains(&(k as u32));
                    if let (Some(p), false) = (prev, starts_bank) {
                        assert!(s.c0 as usize > p, "{scheme} {layout:?} segment {k}");
                    }
                    prev = Some(s.c0 as usize + (s.len as usize - 1) * s.c_stride as usize);
                }
                // Segment gather == per-element oracle.
                let total = plan.lanes * depth;
                let flat: Vec<u64> = (0..total as u64).map(|x| x * 7 + 3).collect();
                let mut out = vec![0u64; plan.len()];
                plan.gather_into(&flat, base, &mut out);
                let fbase = plan.flat_base(base);
                let oracle: Vec<u64> = fold_of(&plan)
                    .iter()
                    .map(|&f| flat[(fbase + f) as usize])
                    .collect();
                assert_eq!(out, oracle, "{scheme} {layout:?}");
                // Segment scatter == per-element oracle.
                let values: Vec<u64> = (0..plan.len() as u64).map(|x| x + 1000).collect();
                let mut flat_a = flat.clone();
                plan.scatter_from(&mut flat_a, base, &values);
                let mut flat_b = flat;
                for (c, f) in plan.elements() {
                    flat_b[(fbase + f) as usize] = values[c];
                }
                assert_eq!(flat_a, flat_b, "{scheme} {layout:?}");
            }
        }
    }

    #[test]
    fn same_plan_copy_store_runs_matches_element_copy() {
        // Two origins in the same residue class: the store-run copy must
        // equal the per-element dst[f] = src[f] oracle.
        let region = Region::new("b", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let shifted = Region::new("b2", 16, 8, region.shape);
        for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
            let (plan, sbase, depth) = compile_on(AccessScheme::RoCo, layout, &region);
            let (_, dbase, _) = compile_on(AccessScheme::RoCo, layout, &shifted);
            let total = plan.lanes * depth;
            let mut flat_a: Vec<u64> = (0..total as u64).map(|x| x * 13 + 1).collect();
            let mut flat_b = flat_a.clone();
            plan.copy_store_runs_within(&mut flat_a, sbase, dbase);
            let (sf, df) = (plan.flat_base(sbase), plan.flat_base(dbase));
            for (_, f) in plan.elements() {
                flat_b[(df + f) as usize] = flat_b[(sf + f) as usize];
            }
            assert_eq!(flat_a, flat_b, "{layout:?}");
        }
    }

    #[test]
    fn interleaved_layout_lengthens_unit_stride_runs() {
        // The point of the knob: under RoCo block decomposition the
        // interleaved layout turns the canonical walk into long block
        // moves (both strides 1), which bank-major segments — one bank
        // each — cannot offer.
        let region = Region::new("b", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let (bm, base_bm, depth_bm) =
            compile_on(AccessScheme::RoCo, BankLayout::BankMajor, &region);
        let (il, base_il, depth_il) =
            compile_on(AccessScheme::RoCo, BankLayout::AddrInterleaved, &region);
        bm.validate(base_bm, depth_bm).unwrap();
        il.validate(base_il, depth_il).unwrap();
        let block_moves = |p: &RegionPlan| -> Vec<u32> {
            p.segments
                .iter()
                .filter(|s| s.c_stride == 1 && s.f_stride == 1)
                .map(|s| s.len)
                .collect()
        };
        let moved = |p: &RegionPlan| block_moves(p).iter().sum::<u32>() as usize;
        let longest = |p: &RegionPlan| block_moves(p).into_iter().max().unwrap_or(0);
        // The majority of the block coalesces (the `i/p` rotation in RoCo's
        // `h` component keeps some rows strided), and the longest block
        // move grows well past anything bank-major can offer.
        assert!(
            moved(&il) * 2 > il.len(),
            "interleaved coalesces a majority: {} of {}",
            moved(&il),
            il.len()
        );
        assert!(moved(&il) > moved(&bm));
        assert!(
            longest(&il) >= 4 * longest(&bm).max(1),
            "interleaved longest {} vs bank-major {}",
            longest(&il),
            longest(&bm)
        );
    }

    #[test]
    fn validate_catches_mistiled_run_tables() {
        let region = Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 });
        let (plan, base, depth) = compile_on(AccessScheme::RoCo, BankLayout::BankMajor, &region);
        plan.validate(base, depth).unwrap();

        // A segment that starts one element early (overlaps a neighbour).
        let mut overlap = plan.clone();
        let second = overlap.segments[1];
        overlap.segments[0].c0 = second.c0;
        assert!(overlap.validate(base, depth).is_err());

        // A segment whose canonical stride is stretched.
        let mut skew = plan.clone();
        let long = skew.segments.iter().position(|s| s.len >= 2).unwrap();
        skew.segments[long].c_stride += 1;
        assert!(skew.validate(base, depth).is_err());

        // A segment whose flat stride is stretched.
        let mut fskew = plan.clone();
        fskew.segments[long].f_stride += 1;
        assert!(fskew.validate(base, depth).is_err());

        // A dropped segment (gap: the list covers too few elements).
        let mut gap = plan.clone();
        gap.segments.pop();
        *gap.bank_index.last_mut().unwrap() -= 1;
        assert!(gap.validate(base, depth).is_err());

        // A storage interval claiming a slot the region never touches.
        let mut ghost = plan.clone();
        ghost.store_runs[0].offset -= 1;
        assert!(ghost.validate(base, depth).is_err());

        // Mergeable (non-maximal) storage intervals.
        let mut split = plan.clone();
        let first = split.store_runs[0];
        assert!(first.len >= 2, "block plan has a real interval");
        split.store_runs[0].len = 1;
        split.store_runs.insert(
            1,
            StoreRun {
                offset: first.offset + 1,
                len: first.len - 1,
            },
        );
        assert!(split.validate(base, depth).is_err());

        // A broken CSR index over the banks.
        let mut bad_index = plan.clone();
        bad_index.bank_index[1] = bad_index.bank_index[plan.lanes];
        assert!(bad_index.validate(base, depth).is_err());

        // A coalesced count that disagrees with the segments.
        let mut miscount = plan.clone();
        miscount.coalesced_elems += 1;
        assert!(miscount.validate(base, depth).is_err());
    }

    #[test]
    fn stream_vector_plan_is_128_segments_and_small() {
        // The paper's STREAM vector: a 16x512 Block of a 48x512 RoCo
        // memory on 2x4 banks, bank-major. Each bank's 1,024 elements are
        // 16 segments of 64 (canonical stride 8, flat stride 2), and the
        // whole plan costs at most 1/16 of the 64 KiB of f64 it moves.
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::RoCo, 2, 4, 48, 512);
        let depth = (48 / 2) * (512 / 4);
        for i in [0, 16, 32] {
            let r = Region::new(
                "v",
                i,
                0,
                RegionShape::Block {
                    rows: 16,
                    cols: 512,
                },
            );
            let plan =
                RegionPlan::compile(&r, AccessScheme::RoCo, &agu, &maf, &afn, &mut cache).unwrap();
            plan.validate(afn.address(r.i, r.j) as isize, depth)
                .unwrap();
            assert_eq!(plan.segments.len(), 128);
            assert!(plan
                .segments
                .iter()
                .all(|s| (s.len, s.c_stride, s.f_stride) == (64, 8, 2)));
            let moved = plan.len() * size_of::<f64>();
            assert_eq!(moved, 65_536);
            assert!(
                plan.heap_bytes() <= moved / 16,
                "plan heap {} B for {moved} B moved",
                plan.heap_bytes()
            );
        }
    }
}
