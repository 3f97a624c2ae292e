//! `lib-stream`: STREAM Copy, Scale, Sum and Triad through `PolyMem` on the
//! paper's vector layout (16x512 f64 per vector, RoCo p=2 q=4, two read
//! ports, `BankMajor`), one thread.
//!
//! Copy is one `copy_region`; the other kernels are `read_region_into`,
//! the benchmark's own arithmetic, then `write_region`. After the warm-up
//! round every region-plan lookup hits, so `bulk` replay does nearly all
//! the work and `region_plan` compile none.

use crate::gen::{self, Rng};
use crate::hist::Hist;
use crate::report::Report;
use crate::trace::{Spans, ROOT};
use crate::{ceiling, gibs, plan_compile_layer, Bench, CeilingFrac, Totals, NORM_SCALE};
use polymem::{AccessScheme, PolyMem, Region, TelemetryRegistry};
use std::time::{Duration, Instant};
use stream_bench::{scalar_reference, vector_regions, StreamLayout, StreamOp};

/// Elements per vector: 16 rows of 512.
pub const LEN: usize = 16 * 512;

/// STREAM bytes per element of one round (Copy 16 + Scale 16 + Sum 24 +
/// Triad 24).
const ROUND_BYTES_PER_ELEM: usize = 80;

/// A memcpy of one vector moves 16 bytes per element, so a round's bytes
/// are five memcpys' worth: its ceiling.
const ROUND_MEMCPYS: f64 = (ROUND_BYTES_PER_ELEM / 16) as f64;

const A: usize = 0;
const B: usize = 1;
const C: usize = 2;

/// The workload's state: the memory, its three vector regions and a
/// host-side shadow of what each vector must hold.
pub struct LibStream {
    mem: PolyMem<f64>,
    regions: [Region; 3],
    shadow: [Vec<f64>; 3],
    q: f64,
    x: Vec<f64>,
    y: Vec<f64>,
    out: Vec<f64>,
    readback: Vec<f64>,
    memcpy: ceiling::Memcpy,
}

/// Host time of one round, split by kernel, for the ledger.
#[derive(Default)]
struct Ledger {
    triad_ns: u64,
    triad_children_ns: u64,
}

impl LibStream {
    /// Build the memory, load seeded vectors and run one warm-up round.
    pub fn setup(seed: u64) -> Self {
        let layout = StreamLayout::new(LEN, 512, 2, 4, AccessScheme::RoCo, 2)
            .expect("the paper's vector layout is valid");
        let p = layout.config.p;
        let one = |v, tag| {
            let mut r = vector_regions(v, p, tag);
            assert_eq!(r.len(), 1, "16 rows tile p=2: one Block per vector");
            r.remove(0)
        };
        let regions = [
            one(&layout.a, "A"),
            one(&layout.b, "B"),
            one(&layout.c, "C"),
        ];
        let shadow = [
            gen::vector(seed, 1, LEN),
            gen::vector(seed, 2, LEN),
            gen::vector(seed, 3, LEN),
        ];
        // q < 1 keeps repeated rounds bounded: C converges to B / (1 - q).
        let q = 0.25 + 0.5 * Rng::new(seed, 4).unit();
        let mut mem = PolyMem::new(layout.config).expect("valid config");
        for (r, v) in regions.iter().zip(&shadow) {
            mem.write_region(r, v).expect("vector region in bounds");
        }
        let mut s = Self {
            mem,
            regions,
            shadow,
            q,
            x: vec![0.0; LEN],
            y: vec![0.0; LEN],
            out: vec![0.0; LEN],
            readback: vec![0.0; LEN],
            memcpy: ceiling::Memcpy::new(LEN),
        };
        let mut warm = Spans::new(false, Instant::now(), 0);
        let mut rep = Report::default();
        s.round(&mut warm, &mut rep, &mut Ledger::default(), &mut [0; 4]);
        assert!(rep.correct(), "warm-up round failed its checks");
        s
    }

    /// Overwrite one element of vector A, the output of Scale, Sum and
    /// Triad, with a wrong value: the next Copy carries it into C, whose
    /// read-back must then fail.
    pub fn corrupt_a(&mut self) {
        let (i, j) = self.regions[A]
            .coords_iter()
            .expect("valid region")
            .next()
            .expect("non-empty");
        let v = self.mem.get(i, j).expect("in bounds");
        self.mem.set(i, j, v + 1.0).expect("in bounds");
    }

    /// Read vector `v` back and compare it element-exactly with its shadow.
    fn readback_ok(&mut self, v: usize) -> bool {
        self.mem
            .read_region_into(0, &self.regions[v], &mut self.readback)
            .is_ok()
            && same(&self.readback, &self.shadow[v])
    }

    /// Copy: `c = a` as one `copy_region`.
    fn copy(&mut self, sp: &mut Spans, rep: &mut Report) -> u64 {
        let op = sp.op_begin();
        let res = self.mem.copy_region(0, &self.regions[A], &self.regions[C]);
        let ns = sp.end("bulk.copy_region", op, ROOT);
        self.shadow[C] = scalar_reference(StreamOp::Copy, &self.shadow[A], &[], &[]);
        let ok = res.is_ok() && self.readback_ok(C);
        rep.check(ok);
        ns
    }

    /// Scale, Sum or Triad: read the operands, compute, write `a`.
    fn kernel(
        &mut self,
        op: StreamOp,
        sp: &mut Spans,
        rep: &mut Report,
        ledger: &mut Ledger,
    ) -> u64 {
        let (name, compute) = match op {
            StreamOp::Scale(_) => ("lib.scale", "compute.scale"),
            StreamOp::Sum => ("lib.sum", "compute.sum"),
            _ => ("lib.triad", "compute.triad"),
        };
        let q = self.q;
        let total = sp.op_begin();
        let mut children = 0;
        let m = sp.begin();
        let mut ok = self
            .mem
            .read_region_into(0, &self.regions[B], &mut self.x)
            .is_ok();
        children += sp.end("bulk.read_region_into", m, total.id);
        if op.reads() == 2 {
            let m = sp.begin();
            ok &= self
                .mem
                .read_region_into(1, &self.regions[C], &mut self.y)
                .is_ok();
            children += sp.end("bulk.read_region_into", m, total.id);
        }
        let m = sp.begin();
        match op {
            StreamOp::Scale(_) => {
                for (o, &x) in self.out.iter_mut().zip(&self.x) {
                    *o = q * x;
                }
            }
            StreamOp::Sum => {
                for ((o, &x), &y) in self.out.iter_mut().zip(&self.x).zip(&self.y) {
                    *o = x + y;
                }
            }
            _ => {
                for ((o, &x), &y) in self.out.iter_mut().zip(&self.x).zip(&self.y) {
                    *o = x + q * y;
                }
            }
        }
        children += sp.end(compute, m, total.id);
        let m = sp.begin();
        ok &= self.mem.write_region(&self.regions[A], &self.out).is_ok();
        children += sp.end("bulk.write_region", m, total.id);
        let ns = sp.end(name, total, ROOT);
        if matches!(op, StreamOp::Triad(_)) {
            ledger.triad_ns += ns;
            ledger.triad_children_ns += children;
        }
        // Operands must read back as the shadow holds them, and the result
        // must match the scalar reference element for element.
        ok &= same(&self.x, &self.shadow[B]);
        if op.reads() == 2 {
            ok &= same(&self.y, &self.shadow[C]);
        }
        let [a, b, c] = &self.shadow;
        self.shadow[A] = scalar_reference(op, a, b, c);
        ok &= self.readback_ok(A);
        rep.check(ok);
        ns
    }

    /// One round of the four kernels; returns its host ns and adds each
    /// kernel's ns to `per_op` (Copy, Scale, Sum, Triad).
    fn round(
        &mut self,
        sp: &mut Spans,
        rep: &mut Report,
        ledger: &mut Ledger,
        per_op: &mut [u64; 4],
    ) -> u64 {
        let q = self.q;
        let ns = [
            self.copy(sp, rep),
            self.kernel(StreamOp::Scale(q), sp, rep, ledger),
            self.kernel(StreamOp::Sum, sp, rep, ledger),
            self.kernel(StreamOp::Triad(q), sp, rep, ledger),
        ];
        for (acc, n) in per_op.iter_mut().zip(ns) {
            *acc += n;
        }
        ns.iter().sum()
    }
}

impl Bench for LibStream {
    fn measure(&mut self, budget: Duration, sp: &mut Spans, rep: &mut Report) -> Totals {
        let traced = sp.enabled();
        let registry = TelemetryRegistry::new();
        if traced {
            self.mem.attach_telemetry(&registry);
        }
        let stats0 = self.mem.region_plan_stats();
        let mut lat = Hist::default();
        let mut norm = Hist::default();
        let mut memcpy = Hist::default();
        let mut frac = CeilingFrac::new(64);
        let mut window = ceiling::Window::default();
        let mut ledger = Ledger::default();
        let mut per_op = [0u64; 4];
        let start = Instant::now();
        while start.elapsed() < budget {
            // The ceiling is timed next to every round, so both see the
            // same host conditions.
            let m = self.memcpy.time();
            let ns = self.round(sp, rep, &mut ledger, &mut per_op);
            let ceil = ROUND_MEMCPYS * window.push(m);
            lat.record(ns);
            memcpy.record(m);
            norm.record((ns as f64 / ceil * NORM_SCALE) as u64);
            frac.add(ceil, ns as f64);
        }
        let rounds = lat.len() as f64;
        let memcpy_ns = memcpy.quantile(0.5);
        rep.set(
            "copy_gibs",
            gibs(16.0 * LEN as f64 * rounds, per_op[0] as f64),
        );
        rep.set(
            "triad_gibs",
            gibs(24.0 * LEN as f64 * rounds, per_op[3] as f64),
        );
        if traced {
            self.mem.detach_telemetry();
            let read = sp.layer("bulk.read_region_into");
            let write = sp.layer("bulk.write_region");
            let copy = sp.layer("bulk.copy_region");
            let triad = sp.layer("lib.triad");
            rep.set("bulk.read_region_into.p50_ns", read.quantile(0.5));
            rep.set("bulk.read_region_into.p99_ns", read.quantile(0.99));
            rep.set(
                "bulk.read_region_into.memcpy_frac",
                memcpy_ns / read.quantile(0.5),
            );
            rep.set("bulk.write_region.p50_ns", write.quantile(0.5));
            rep.set("bulk.write_region.p99_ns", write.quantile(0.99));
            rep.set(
                "bulk.write_region.memcpy_frac",
                memcpy_ns / write.quantile(0.5),
            );
            rep.set("bulk.copy_region.p50_ns", copy.quantile(0.5));
            rep.set("bulk.copy_region.p99_ns", copy.quantile(0.99));
            rep.set("lib.copy.memcpy_frac", memcpy_ns / copy.quantile(0.5));
            // Triad moves three vectors, a memcpy two: 1.5 memcpys of bytes.
            rep.set(
                "lib.triad.memcpy_frac",
                1.5 * memcpy_ns / triad.quantile(0.5),
            );
            rep.set(
                "compute.triad.p50_ns",
                sp.layer("compute.triad").quantile(0.5),
            );
            rep.set(
                "ledger.unaccounted_frac",
                (ledger.triad_ns - ledger.triad_children_ns) as f64 / ledger.triad_ns as f64,
            );
            crate::coalesced_frac(rep, &registry.snapshot(), "polymem");
            crate::plan_cache_layer(rep, stats0, self.mem.region_plan_stats());
            let cfg = *self.mem.config();
            let reps: Vec<Region> = std::iter::repeat_n(self.regions[A].clone(), 32).collect();
            plan_compile_layer(rep, &cfg, &reps);
            rep.note(format!(
                "lib-stream ledger: Triad {:.0} ns/call = reads + compute + write + {:.2}% unaccounted",
                triad.mean(),
                100.0 * rep.get("ledger.unaccounted_frac").unwrap_or(0.0)
            ));
        }
        let busy_ns = lat.total() as f64;
        rep.note(format!(
            "lib-stream: copy {:.2} GiB/s, triad {:.2} GiB/s beside a same-run memcpy ceiling \
             of {:.2} GiB/s ({memcpy_ns:.0} ns per 64 KiB)",
            rep.get("copy_gibs").unwrap_or(0.0),
            rep.get("triad_gibs").unwrap_or(0.0),
            gibs(16.0 * LEN as f64, memcpy_ns),
        ));
        Totals {
            bytes: (ROUND_BYTES_PER_ELEM * LEN) as f64 * rounds,
            busy_ns,
            frac,
            lat,
            norm,
            unit: "round",
        }
    }

    fn verify(&mut self, rep: &mut Report) {
        for v in [A, B, C] {
            let ok = self.readback_ok(v);
            rep.check(ok);
        }
    }
}

/// Element-exact (bitwise) equality.
pub fn same(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}
