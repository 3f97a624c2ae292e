//! `region-mix`: two closed-loop clients share one `ConcurrentPolyMem`
//! configured 1R+1W like the paper's Fig. 9 STREAM design (`read_ports =
//! 1`, so the library spawns no port threads of its own).
//!
//! The reader issues `read_region` on the read-only half of the memory; the
//! writer issues `write_region` and `copy_region`, three to one, on the
//! other half. Bank locks cover whole banks, so the halves still contend.
//! Regions are drawn from a seeded Zipf distribution over (shape, origin
//! residue) plan keys: every shape the ReRo scheme serves, several sizes
//! each. No PRF scheme serves rows, columns and both diagonals at once
//! (Table I), so `Col` regions are left out; ReRo still gives four of the
//! five shapes, diagonals included. The key space (6144) exceeds
//! `RegionPlanCache::DEFAULT_CAPACITY` (4096), so plans are missed,
//! compiled and evicted in steady state and misses pay compile in the tail.

use crate::gen::{mix, shuffle, Rng, Zipf};
use crate::hist::Hist;
use crate::report::Report;
use crate::trace::{Spans, ROOT};
use crate::{
    ceiling, coalesced_frac, lib_stream, plan_cache_layer, plan_compile_layer, Bench, CeilingFrac,
    Totals, NORM_SCALE,
};
use polymem::{
    AccessScheme, ConcurrentPolyMem, PolyMem, PolyMemConfig, Region, RegionPlanCache, RegionShape,
    TelemetryRegistry,
};
use std::time::{Duration, Instant};

/// Logical rows; the read-only half is rows `0..HALF`, the writer's
/// `HALF..ROWS`.
pub const ROWS: usize = 192;
/// Logical columns.
pub const COLS: usize = 256;
const HALF: usize = ROWS / 2;
/// Residue period of the plan keys (`p * q`).
const PERIOD: usize = 8;
/// Zipf exponent of the key distribution.
const ZIPF_S: f64 = 1.0;
/// Reads issued during set-up to bring the plan cache to steady state.
const WARM_OPS: usize = 4096;
/// Share of the budget each client runs alone, before both run together.
const SOLO_SHARE: f64 = 0.1;

const READER: u64 = 10;
const WRITER: u64 = 11;

/// The op kinds, indexing per-kind statistics.
const READ: usize = 0;
const WRITE: usize = 1;
const COPY: usize = 2;
const SPAN: [&str; 3] = [
    "concurrent.read_region",
    "concurrent.write_region",
    "concurrent.copy_region",
];

/// The memory geometry: RoCo's STREAM sibling ReRo, 2x4 banks, one read
/// port and the write port.
pub fn config() -> PolyMemConfig {
    PolyMemConfig::new(ROWS, COLS, 2, 4, AccessScheme::ReRo, 1).expect("valid config")
}

/// Every region shape of the mix: blocks, rows and both diagonals in
/// several sizes.
pub fn shapes() -> Vec<RegionShape> {
    let mut v = Vec::new();
    for rows in (2..=16).step_by(2) {
        for cols in (4..=32).step_by(4) {
            v.push(RegionShape::Block { rows, cols });
        }
    }
    v.extend((8..=128).step_by(8).map(|len| RegionShape::Row { len }));
    v.extend((8..=64).step_by(8).map(|len| RegionShape::MainDiag { len }));
    v.extend(
        (8..=64)
            .step_by(8)
            .map(|len| RegionShape::SecondaryDiag { len }),
    );
    v
}

/// One plan key: a shape and an origin residue.
#[derive(Debug, Clone, Copy)]
struct Key {
    shape: RegionShape,
    ri: usize,
    rj: usize,
}

/// A writer operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WriterOp {
    /// Write `len` values derived from the seed word.
    Write(Region, u64),
    /// Copy the first region into the second.
    Copy(Region, Region),
}

/// Initial contents of cell `(i, j)`.
pub fn fill(seed: u64, i: usize, j: usize) -> u64 {
    mix(seed ^ mix((i * COLS + j) as u64))
}

/// The values a `Write` with seed word `w` stores.
pub fn values(w: u64, len: usize) -> Vec<u64> {
    (0..len as u64).map(|k| mix(w.wrapping_add(k))).collect()
}

/// The seeded operation generator shared by both clients and the replay.
#[derive(Debug, Clone)]
pub struct Mix {
    keys: Vec<Key>,
    zipf: Zipf,
}

impl Mix {
    /// The key space and its hot-key ranking for `seed`. Ranks cycle
    /// through the shapes in a fixed order, so every seed draws the same
    /// mix of shapes and sizes; the seed picks which origin residues are
    /// hot for each shape.
    pub fn new(seed: u64) -> Self {
        let mut shapes = shapes();
        shuffle(&mut shapes, &mut Rng::new(0, 15));
        let mut rng = Rng::new(seed, 12);
        let residues: Vec<Vec<usize>> = shapes
            .iter()
            .map(|_| {
                let mut r: Vec<usize> = (0..PERIOD * PERIOD).collect();
                shuffle(&mut r, &mut rng);
                r
            })
            .collect();
        let mut keys = Vec::new();
        for k in 0..PERIOD * PERIOD {
            for (shape, res) in shapes.iter().zip(&residues) {
                let (ri, rj) = (res[k] / PERIOD, res[k] % PERIOD);
                keys.push(Key {
                    shape: *shape,
                    ri,
                    rj,
                });
            }
        }
        let zipf = Zipf::new((0..keys.len()).collect(), ZIPF_S);
        Self { keys, zipf }
    }

    /// Distinct plan keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Place a region of `shape` with origin residue `(ri, rj)` uniformly
    /// in the half starting at row `base`.
    fn place(shape: RegionShape, ri: usize, rj: usize, base: usize, rng: &mut Rng) -> Region {
        let (down, right, left) = Region::new("", 0, 0, shape).extents();
        let i_slots = (HALF - 1 - down - ri) / PERIOD + 1;
        let i = base + ri + PERIOD * rng.below(i_slots);
        let k_min = left.saturating_sub(rj).div_ceil(PERIOD);
        let k_max = (COLS - 1 - right - rj) / PERIOD;
        let j = rj + PERIOD * (k_min + rng.below(k_max - k_min + 1));
        Region::new("mix", i, j, shape)
    }

    fn draw(&self, base: usize, rng: &mut Rng) -> Region {
        let k = self.keys[self.zipf.sample(rng)];
        Self::place(k.shape, k.ri, k.rj, base, rng)
    }

    /// The reader's next region, in the read-only half.
    pub fn read(&self, rng: &mut Rng) -> Region {
        self.draw(0, rng)
    }

    /// The writer's next operation, in the writer half.
    pub fn write(&self, rng: &mut Rng) -> WriterOp {
        let src = self.draw(HALF, rng);
        if rng.below(4) == 0 {
            let dst = Self::place(src.shape, rng.below(PERIOD), rng.below(PERIOD), HALF, rng);
            WriterOp::Copy(src, dst)
        } else {
            WriterOp::Write(src, rng.next_u64())
        }
    }

    /// One region for each of the `n` hottest keys (every shape several
    /// times over), for compile timing.
    pub fn key_sample(&self, n: usize) -> Vec<Region> {
        let mut rng = Rng::new(0, 13);
        self.keys
            .iter()
            .take(n)
            .map(|k| Self::place(k.shape, k.ri, k.rj, 0, &mut rng))
            .collect()
    }
}

/// Whether a read of `region` returned the read-only half's contents.
pub fn read_ok(seed: u64, region: &Region, got: &[u64]) -> bool {
    let coords = region.coords_iter().expect("generated regions are valid");
    got.len() == region.len() && coords.zip(got).all(|((i, j), &v)| v == fill(seed, i, j))
}

/// Operations between two timings of the client's memcpy ceiling.
const CEILING_EVERY: u32 = 16;

/// One client's statistics over one phase.
#[derive(Debug, Default)]
struct Client {
    lat: Hist,
    norm: Hist,
    kind: [Hist; 3],
    bytes: f64,
    busy_ns: f64,
    frac: CeilingFrac,
    attempted: u64,
    failed: u64,
    /// The client's 64 KiB memcpy time, the ceiling unit.
    unit_ns: f64,
    since_unit: u32,
    memcpy: Option<ceiling::Memcpy>,
    window: ceiling::Window,
}

impl Client {
    fn new() -> Self {
        Self {
            memcpy: Some(ceiling::Memcpy::new(lib_stream::LEN)),
            frac: CeilingFrac::new(256),
            ..Self::default()
        }
    }

    /// Re-time the ceiling every [`CEILING_EVERY`] operations, on this
    /// client's thread, so it sees the host conditions the operations do.
    fn refresh_ceiling(&mut self) {
        if self.since_unit == 0 {
            let m = self.memcpy.as_mut().expect("a measuring client").time();
            self.unit_ns = self.window.push(m);
            self.since_unit = CEILING_EVERY;
        }
        self.since_unit -= 1;
    }

    /// Record one operation of `bytes` STREAM-counted bytes.
    fn record(&mut self, kind: usize, ns: u64, bytes: usize, ok: bool) {
        self.lat.record(ns);
        self.norm
            .record((ns as f64 / self.unit_ns * NORM_SCALE) as u64);
        self.kind[kind].record(ns);
        self.bytes += bytes as f64;
        self.busy_ns += ns as f64;
        // A 64 KiB memcpy moves 16 STREAM bytes per element.
        let ceil = bytes as f64 / (16 * lib_stream::LEN) as f64 * self.unit_ns;
        self.frac.add(ceil, ns as f64);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn absorb(&mut self, other: &Client) {
        self.lat.merge(&other.lat);
        self.norm.merge(&other.norm);
        for (k, h) in self.kind.iter_mut().zip(&other.kind) {
            k.merge(h);
        }
        self.bytes += other.bytes;
        self.busy_ns += other.busy_ns;
        self.frac.merge(&other.frac);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Operations per second of busy time.
    fn rate(&self) -> f64 {
        self.lat.len() as f64 / self.busy_ns * 1e9
    }
}

/// The workload's state.
pub struct RegionMix {
    seed: u64,
    mem: ConcurrentPolyMem<u64>,
    mix: Mix,
    reader: Rng,
    writer: Rng,
    /// Writer operations issued so far, for the end-of-run replay.
    writer_ops: u64,
}

fn reader_loop(
    seed: u64,
    mem: &ConcurrentPolyMem<u64>,
    mix: &Mix,
    rng: &mut Rng,
    until: Instant,
    sp: &mut Spans,
) -> Client {
    let mut c = Client::new();
    while Instant::now() < until {
        c.refresh_ceiling();
        let r = mix.read(rng);
        let m = sp.op_begin();
        let res = mem.read_region(&r);
        let ns = sp.end(SPAN[READ], m, ROOT);
        let ok = res.is_ok_and(|v| read_ok(seed, &r, &v));
        c.record(READ, ns, 8 * r.len(), ok);
    }
    c
}

fn writer_loop(
    mem: &ConcurrentPolyMem<u64>,
    mix: &Mix,
    rng: &mut Rng,
    ops: &mut u64,
    until: Instant,
    sp: &mut Spans,
) -> Client {
    let mut c = Client::new();
    let mut scratch = Vec::new();
    while Instant::now() < until {
        c.refresh_ceiling();
        let op = mix.write(rng);
        *ops += 1;
        match op {
            WriterOp::Write(r, w) => {
                let vals = values(w, r.len());
                let m = sp.op_begin();
                let res = mem.write_region(&r, &vals);
                let ns = sp.end(SPAN[WRITE], m, ROOT);
                c.record(WRITE, ns, 8 * r.len(), res.is_ok());
            }
            WriterOp::Copy(s, d) => {
                let m = sp.op_begin();
                let res = mem.copy_region_with(&s, &d, &mut scratch);
                let ns = sp.end(SPAN[COPY], m, ROOT);
                c.record(COPY, ns, 16 * s.len(), res.is_ok());
            }
        }
    }
    c
}

impl RegionMix {
    /// Build and fill the memory, then warm the plan cache with reads.
    pub fn setup(seed: u64) -> Self {
        let mem = ConcurrentPolyMem::new(config()).expect("valid config");
        for i in 0..ROWS {
            let row: Vec<u64> = (0..COLS).map(|j| fill(seed, i, j)).collect();
            mem.write_region(
                &Region::new("fill", i, 0, RegionShape::Row { len: COLS }),
                &row,
            )
            .expect("row in bounds");
        }
        let mix = Mix::new(seed);
        let mut warm = Rng::new(seed, 14);
        for _ in 0..WARM_OPS {
            let r = mix.read(&mut warm);
            let v = mem.read_region(&r).expect("warm-up read");
            assert!(read_ok(seed, &r, &v), "warm-up read returned wrong data");
        }
        Self {
            seed,
            mem,
            mix,
            reader: Rng::new(seed, READER),
            writer: Rng::new(seed, WRITER),
            writer_ops: 0,
        }
    }

    /// Overwrite cell `(i, j)` with a wrong value: in the read-only half a
    /// later read of it fails its check, in the writer half the end-of-run
    /// replay does.
    pub fn corrupt(&mut self, i: usize, j: usize) {
        let v = self.mem.get(i, j).expect("in bounds");
        self.mem.set(i, j, !v).expect("in bounds");
    }

    /// Run the reader alone, the writer alone, then both, each phase for
    /// its share of `budget`. Returns (reader solo, writer solo, reader
    /// contended, writer contended).
    fn phases(&mut self, budget: Duration, sp: &mut Spans) -> [Client; 4] {
        let seed = self.seed;
        let solo = budget.mul_f64(SOLO_SHARE);
        let Self {
            mem,
            mix,
            reader,
            writer,
            writer_ops,
            ..
        } = self;
        let (mem, mix) = (&*mem, &*mix);
        let mut rs = sp.child(1);
        let r_solo = reader_loop(seed, mem, mix, reader, Instant::now() + solo, &mut rs);
        let mut ws = sp.child(2);
        let w_solo = writer_loop(mem, mix, writer, writer_ops, Instant::now() + solo, &mut ws);
        let until = Instant::now() + budget.saturating_sub(2 * solo);
        let (r_both, w_both) = std::thread::scope(|s| {
            let r = s.spawn(|| reader_loop(seed, mem, mix, reader, until, &mut rs));
            let w = writer_loop(mem, mix, writer, writer_ops, until, &mut ws);
            (r.join().expect("reader thread panicked"), w)
        });
        sp.merge(rs);
        sp.merge(ws);
        [r_solo, w_solo, r_both, w_both]
    }
}

impl Bench for RegionMix {
    fn measure(&mut self, budget: Duration, sp: &mut Spans, rep: &mut Report) -> Totals {
        let traced = sp.enabled();
        let registry = TelemetryRegistry::new();
        if traced {
            self.mem.attach_telemetry(&registry);
        }
        let stats0 = self.mem.region_plan_stats();
        let [r_solo, w_solo, r_both, w_both] = self.phases(budget, sp);
        for c in [&r_solo, &w_solo, &r_both, &w_both] {
            rep.attempted += c.attempted;
            rep.failed += c.failed;
        }
        let mut both = Client::default();
        both.absorb(&r_both);
        both.absorb(&w_both);
        // Concurrent throughput: the sum of each client's rate over its
        // own busy time (time spent checking results is not counted).
        let ops_per_s = r_both.rate() + w_both.rate();
        let bytes_per_ns = r_both.bytes / r_both.busy_ns + w_both.bytes / w_both.busy_ns;
        rep.set("mix_ops_per_s", ops_per_s);
        rep.set("mix_p50_us", both.lat.quantile(0.5) / 1e3);
        rep.set("mix_p99_us", both.lat.quantile(0.99) / 1e3);
        if traced {
            self.mem.detach_telemetry();
            for (k, name) in SPAN.iter().enumerate() {
                let h = sp.layer(name);
                let (p50, p99) = match k {
                    READ => (
                        "concurrent.read_region.p50_ns",
                        "concurrent.read_region.p99_ns",
                    ),
                    WRITE => (
                        "concurrent.write_region.p50_ns",
                        "concurrent.write_region.p99_ns",
                    ),
                    _ => (
                        "concurrent.copy_region.p50_ns",
                        "concurrent.copy_region.p99_ns",
                    ),
                };
                rep.set(p50, h.quantile(0.5));
                rep.set(p99, h.quantile(0.99));
            }
            // The wait on bank locks: the contended op mix at contended
            // latencies over the same mix at one-client latencies.
            let solo_kind = [&r_solo.kind[READ], &w_solo.kind[WRITE], &w_solo.kind[COPY]];
            let (mut contended, mut alone) = (0.0, 0.0);
            for (k, solo) in solo_kind.into_iter().enumerate() {
                let h = &both.kind[k];
                contended += h.len() as f64 * h.mean();
                alone += h.len() as f64 * solo.mean();
            }
            rep.set("concurrent.contended_slowdown", contended / alone);
            rep.set("mix.reader.ops", r_both.lat.len() as f64);
            rep.set("mix.writer.ops", w_both.lat.len() as f64);
            coalesced_frac(rep, &registry.snapshot(), "polymem_conc");
            plan_cache_layer(rep, stats0, self.mem.region_plan_stats());
            plan_compile_layer(rep, &config(), &self.mix.key_sample(512));
        }
        let s = self.mem.region_plan_stats();
        rep.note(format!(
            "region-mix: {} plan keys over a {}-plan cache; {} reads + {} writer ops contended, \
             {:.0} ops/s; plan cache {} hits / {} misses / {} evictions so far",
            self.mix.key_count(),
            RegionPlanCache::DEFAULT_CAPACITY,
            r_both.lat.len(),
            w_both.lat.len(),
            ops_per_s,
            s.hits,
            s.misses,
            s.evictions
        ));
        // Both clients' rates add up: one second of busy time per client.
        Totals {
            bytes: bytes_per_ns * 1e9,
            busy_ns: 1e9,
            frac: both.frac,
            lat: both.lat,
            norm: both.norm,
            unit: "region op",
        }
    }

    fn verify(&mut self, rep: &mut Report) {
        // Replay the writer's operation sequence single-threaded on a
        // `PolyMem`; the shared memory must match it cell for cell.
        let mut oracle = PolyMem::<u64>::new(config()).expect("valid config");
        let image: Vec<u64> = (0..ROWS * COLS)
            .map(|k| fill(self.seed, k / COLS, k % COLS))
            .collect();
        oracle.load_row_major(&image).expect("full image");
        let mut rng = Rng::new(self.seed, WRITER);
        for _ in 0..self.writer_ops {
            // An op the shared memory refused was already counted failed;
            // the oracle refuses it the same way.
            let _ = match self.mix.write(&mut rng) {
                WriterOp::Write(r, w) => oracle.write_region(&r, &values(w, r.len())),
                WriterOp::Copy(s, d) => oracle.copy_region(0, &s, &d),
            };
        }
        let ok =
            (0..ROWS).all(|i| (0..COLS).all(|j| self.mem.get(i, j).ok() == oracle.get(i, j).ok()));
        rep.check(ok);
    }
}
