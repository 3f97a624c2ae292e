//! Ceilings measured on the same host in the same run: a memcpy of equal
//! bytes for region replay, an empty-kernel tick for the simulator.

use crate::hist::Hist;
use dfe_sim::sched::{self, SchedulerStats};
use dfe_sim::{Kernel, SimClock};
use std::hint::black_box;
use std::time::Instant;

/// A memcpy of `elems` f64 between two slices of one allocation, at a
/// fixed 64-byte-aligned placement, so the ceiling does not depend on
/// where the allocator put its buffers.
#[derive(Debug, Clone)]
pub struct Memcpy {
    buf: Vec<f64>,
    src: usize,
    elems: usize,
}

impl Memcpy {
    /// A memcpy of `elems` f64.
    pub fn new(elems: usize) -> Self {
        let buf: Vec<f64> = (0..2 * elems + 16).map(|k| k as f64).collect();
        let misalign = (buf.as_ptr() as usize / 8) % 8;
        Self {
            src: (8 - misalign) % 8,
            buf,
            elems,
        }
    }

    /// Time one copy, in ns.
    pub fn time(&mut self) -> u64 {
        let (src, dst) = self.buf[self.src..].split_at_mut(self.elems);
        let dst = &mut dst[8..8 + self.elems];
        let t = Instant::now();
        dst.copy_from_slice(black_box(src));
        black_box(dst);
        t.elapsed().as_nanos() as u64
    }
}

/// Median memcpy time of `elems` f64 over `reps` repetitions.
pub fn memcpy_median_ns(elems: usize, reps: usize) -> f64 {
    let mut m = Memcpy::new(elems);
    let mut h = Hist::default();
    for _ in 0..reps {
        h.record(m.time());
    }
    h.quantile(0.5)
}

/// Timings kept by a [`Window`].
const WINDOW: usize = 9;

/// A ceiling timed next to the workload, read as the median of its last
/// few timings: it follows the host's speed as the workload sees it
/// without inheriting the noise of any one short timing.
#[derive(Debug, Clone, Default)]
pub struct Window {
    last: [u64; WINDOW],
    n: usize,
}

impl Window {
    /// Add a timing; returns the median of the kept ones.
    pub fn push(&mut self, ns: u64) -> f64 {
        self.last[self.n % WINDOW] = ns;
        self.n += 1;
        let mut kept = self.last;
        let kept = &mut kept[..self.n.min(WINDOW)];
        kept.sort_unstable();
        kept[kept.len() / 2] as f64
    }
}

/// A kernel with nothing to do that still asks to be ticked every cycle.
struct Empty;

impl Kernel for Empty {
    fn name(&self) -> &str {
        "empty"
    }

    fn tick(&mut self, _cycle: u64) {}
}

/// Host ns of one empty kernel advanced `cycles` cycles through
/// [`sched::advance`]: the floor under every simulated cycle.
pub fn empty_tick_batch_ns(cycles: u64) -> u64 {
    let mut clock = SimClock::new(stream_bench::PAPER_STREAM_FREQ_MHZ);
    let mut kernel = Empty;
    let mut kernels: [&mut dyn Kernel; 1] = [&mut kernel];
    let mut stats = SchedulerStats::default();
    let t = Instant::now();
    for _ in 0..cycles {
        black_box(sched::advance(
            &mut clock,
            &mut kernels,
            u64::MAX,
            &mut stats,
        ));
    }
    let ns = t.elapsed().as_nanos() as u64;
    assert_eq!(
        stats.ticked_cycles, cycles,
        "an empty kernel ticks every cycle"
    );
    ns
}

/// Median host ns per empty-kernel cycle over `reps` batches of `cycles`.
pub fn empty_tick_ns(cycles: u64, reps: usize) -> f64 {
    let mut h = Hist::default();
    for _ in 0..reps {
        h.record(empty_tick_batch_ns(cycles));
    }
    h.quantile(0.5) / cycles as f64
}
