//! The event-driven scheduling engine: O(1) idle fast-forward.
//!
//! The ticked loop pays one host iteration per simulated cycle per kernel,
//! so sparse workloads (PCIe-paced loads, long pipeline latencies, burst
//! access windows) are host-bound on cycles where *nothing happens*. This
//! module replaces that loop with an event-queue scheduler built on the
//! [`Kernel::next_event`] contract:
//!
//! 1. Poll every kernel for its next-interesting cycle.
//! 2. If any kernel can act **now**, tick all kernels this cycle in
//!    registration order — exactly the ticked loop's semantics. Per-cycle
//!    ticking whenever anyone is active keeps cross-kernel FIFO
//!    interactions bit-identical.
//! 3. Otherwise, if some kernel self-scheduled a future wake, jump the
//!    [`SimClock`] straight to the earliest wake: each kernel's
//!    [`Kernel::skip_to`] bulk-accounts the skipped span (stall
//!    attribution, pacing flags), then the clock advances in one step.
//! 4. If no kernel can ever act again (all report `None` yet some still
//!    hold work), the design is stuck: the scheduler records the stall
//!    cycle and burns the remaining budget in one jump — the same cycle
//!    count the ticked loop would have reached at its bound.
//!
//! The correctness oracle is the telemetry layer's exact-sum
//! stall-attribution invariant: every simulated cycle lands in exactly one
//! of active/contention/pipeline/pcie/idle, whether it was ticked or
//! fast-forwarded. `tests/parity.rs` drives random kernel graphs through
//! both schedulers and asserts identical cycle counts, attribution buckets,
//! and memory end-state.
//!
//! [`step`] is the one loop body every driver uses ([`crate::Manager`] and
//! `StreamApp`): it runs a step of either [`SchedulerMode`] and, given a
//! [`SchedTrace`], keeps the span journal's clock in step with the
//! simulation clock.

use crate::clock::SimClock;
use crate::kernel::Kernel;
use polymem::tracing::{NameId, TraceJournal, TraceWriter};
use std::borrow::BorrowMut;

/// Which driving loop a [`crate::Manager`] (or `StreamApp`) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Legacy loop: tick every kernel every cycle.
    Ticked,
    /// Event-queue loop: tick only active cycles, fast-forward idle spans.
    #[default]
    EventDriven,
}

/// Host-side accounting of what the event-driven loop actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Cycles executed by ticking every kernel.
    pub ticked_cycles: u64,
    /// Fast-forward jumps taken.
    pub jumps: u64,
    /// Cycles covered by jumps instead of ticks.
    pub skipped_cycles: u64,
}

impl SchedulerStats {
    /// Total simulated cycles this scheduler advanced.
    pub fn total_cycles(&self) -> u64 {
        self.ticked_cycles + self.skipped_cycles
    }

    /// Fold another scheduler's counters into this one. Sweeps that run many
    /// independent simulations use this to report aggregate tick/jump
    /// behaviour across the whole campaign.
    pub fn merge(&mut self, other: &SchedulerStats) {
        self.ticked_cycles += other.ticked_cycles;
        self.jumps += other.jumps;
        self.skipped_cycles += other.skipped_cycles;
    }
}

/// What one scheduler step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// All kernels ticked one cycle (someone could act).
    Ticked,
    /// Fast-forwarded this many cycles to the earliest self-scheduled wake.
    Jumped(u64),
    /// No kernel can ever act again; the remaining budget (this many
    /// cycles) was skipped in one jump. The design stalled at the cycle the
    /// clock held *before* this step.
    Stuck(u64),
}

/// Advance the design by at least one cycle, never past `bound` (an
/// absolute cycle number, `bound > clock.cycle()`). Works over anything
/// that dereferences to a kernel so [`crate::Manager`] (boxed kernels) and
/// `StreamApp` (borrowed concrete kernels) share one engine.
pub fn advance<'k, K>(
    clock: &mut SimClock,
    kernels: &mut [K],
    bound: u64,
    stats: &mut SchedulerStats,
) -> Step
where
    K: BorrowMut<dyn Kernel + 'k>,
{
    let now = clock.cycle();
    debug_assert!(bound > now, "scheduler advanced past its bound");
    let mut wake: Option<u64> = None;
    let mut active = false;
    for k in kernels.iter() {
        match k.borrow().next_event() {
            Some(c) if c <= now => {
                active = true;
                break;
            }
            Some(c) => wake = Some(wake.map_or(c, |w: u64| w.min(c))),
            None => {}
        }
    }
    if active {
        for k in kernels.iter_mut() {
            k.borrow_mut().tick(now);
        }
        clock.tick();
        stats.ticked_cycles += 1;
        return Step::Ticked;
    }
    let (target, stuck) = match wake {
        Some(w) => (w.min(bound), false),
        None => (bound, true),
    };
    for k in kernels.iter_mut() {
        k.borrow_mut().skip_to(now, target);
    }
    clock.advance(target - now);
    stats.jumps += 1;
    stats.skipped_cycles += target - now;
    if stuck {
        Step::Stuck(target - now)
    } else {
        Step::Jumped(target - now)
    }
}

/// A scheduler's span-journal wiring: [`step`] stamps the journal with the
/// simulation clock and records every fast-forward as one `fast-forward`
/// span on the `sched` track — a skipped quiescent span appears in
/// Perfetto as one collapsed box covering exactly the cycles never ticked.
#[derive(Debug)]
pub struct SchedTrace {
    journal: TraceJournal,
    writer: TraceWriter,
    fast_forward: NameId,
}

impl SchedTrace {
    /// Wire `journal`, setting its clock to `cycle` (the driver's current
    /// simulation cycle).
    pub fn new(journal: &TraceJournal, cycle: u64) -> Self {
        journal.set_cycle(cycle);
        Self {
            journal: journal.clone(),
            writer: journal.writer("sched"),
            fast_forward: journal.intern("fast-forward"),
        }
    }

    /// The wired journal.
    pub fn journal(&self) -> &TraceJournal {
        &self.journal
    }
}

/// One step of `mode`'s loop, never past `bound` (see [`advance`]).
/// [`SchedulerMode::Ticked`] ticks every kernel once and leaves `stats`
/// untouched; [`SchedulerMode::EventDriven`] runs [`advance`]. With a
/// `trace`, kernels tick with the journal's clock at the current cycle, a
/// jump is recorded as a `sched` span, and the journal's clock ends the
/// step equal to the simulation clock.
#[inline]
pub fn step<'k, K>(
    mode: SchedulerMode,
    clock: &mut SimClock,
    kernels: &mut [K],
    bound: u64,
    stats: &mut SchedulerStats,
    trace: Option<&SchedTrace>,
) -> Step
where
    K: BorrowMut<dyn Kernel + 'k>,
{
    let before = clock.cycle();
    if let Some(tr) = trace {
        tr.journal.set_cycle(before);
    }
    let step = match mode {
        SchedulerMode::Ticked => {
            for k in kernels.iter_mut() {
                k.borrow_mut().tick(before);
            }
            clock.tick();
            Step::Ticked
        }
        SchedulerMode::EventDriven => advance(clock, kernels, bound, stats),
    };
    if let Some(tr) = trace {
        if let Step::Jumped(span) | Step::Stuck(span) = step {
            tr.writer.span_at(before, before + span, tr.fast_forward);
        }
        tr.journal.set_cycle(clock.cycle());
    }
    step
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel that acts only on multiples of `period`, recording every
    /// tick and every skipped span it observes.
    struct Periodic {
        period: u64,
        until: u64,
        ticks: Vec<u64>,
        accounted: u64,
    }

    impl Kernel for Periodic {
        fn name(&self) -> &str {
            "periodic"
        }

        fn tick(&mut self, cycle: u64) {
            self.accounted += 1;
            if cycle.is_multiple_of(self.period) && cycle < self.until {
                self.ticks.push(cycle);
            }
        }

        fn is_idle(&self) -> bool {
            false
        }

        fn next_event(&self) -> Option<u64> {
            None // wake computed from the last tick is not modelled; rely on skip_to accounting
        }

        fn skip_to(&mut self, from: u64, to: u64) {
            self.accounted += to - from;
        }
    }

    #[test]
    fn active_kernel_forces_per_cycle_ticks() {
        struct Always(u64);
        impl Kernel for Always {
            fn name(&self) -> &str {
                "always"
            }
            fn tick(&mut self, _c: u64) {
                self.0 += 1;
            }
        }
        let mut clock = SimClock::new(100.0);
        let mut kernels: Vec<Box<dyn Kernel>> = vec![Box::new(Always(0))];
        let mut stats = SchedulerStats::default();
        for _ in 0..5 {
            let step = advance(&mut clock, &mut kernels, 100, &mut stats);
            assert_eq!(step, Step::Ticked);
        }
        assert_eq!(clock.cycle(), 5);
        assert_eq!(stats.ticked_cycles, 5);
        assert_eq!(stats.jumps, 0);
    }

    #[test]
    fn future_wake_jumps_in_one_step() {
        struct WakesAt(u64);
        impl Kernel for WakesAt {
            fn name(&self) -> &str {
                "wakes-at"
            }
            fn tick(&mut self, _c: u64) {}
            fn next_event(&self) -> Option<u64> {
                Some(self.0)
            }
        }
        let mut clock = SimClock::new(100.0);
        let mut kernels: Vec<Box<dyn Kernel>> = vec![Box::new(WakesAt(40)), Box::new(WakesAt(70))];
        let mut stats = SchedulerStats::default();
        let step = advance(&mut clock, &mut kernels, 1000, &mut stats);
        assert_eq!(step, Step::Jumped(40), "jumps to the earliest wake");
        assert_eq!(clock.cycle(), 40);
        assert_eq!(stats.skipped_cycles, 40);
        assert_eq!(stats.jumps, 1);
    }

    #[test]
    fn jump_respects_bound() {
        struct WakesAt(u64);
        impl Kernel for WakesAt {
            fn name(&self) -> &str {
                "wakes-at"
            }
            fn tick(&mut self, _c: u64) {}
            fn next_event(&self) -> Option<u64> {
                Some(self.0)
            }
        }
        let mut clock = SimClock::new(100.0);
        let mut kernels: Vec<Box<dyn Kernel>> = vec![Box::new(WakesAt(500))];
        let mut stats = SchedulerStats::default();
        let step = advance(&mut clock, &mut kernels, 100, &mut stats);
        assert_eq!(step, Step::Jumped(100));
        assert_eq!(clock.cycle(), 100);
    }

    #[test]
    fn stuck_design_skips_to_bound_and_accounts_span() {
        let mut clock = SimClock::new(100.0);
        let mut kernels: Vec<Box<dyn Kernel>> = vec![Box::new(Periodic {
            period: 1,
            until: 0,
            ticks: Vec::new(),
            accounted: 0,
        })];
        let mut stats = SchedulerStats::default();
        let step = advance(&mut clock, &mut kernels, 64, &mut stats);
        assert_eq!(step, Step::Stuck(64));
        assert_eq!(clock.cycle(), 64);
        assert_eq!(stats.total_cycles(), 64);
    }

    /// A kernel that never acts on its own: [`advance`] jumps it to the
    /// bound.
    struct Quiet;

    impl Kernel for Quiet {
        fn name(&self) -> &str {
            "quiet"
        }
        fn tick(&mut self, _c: u64) {}
        fn next_event(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn ticked_step_ticks_once_and_leaves_stats_untouched() {
        let mut clock = SimClock::new(100.0);
        let mut kernels: Vec<Box<dyn Kernel>> = vec![Box::new(Quiet)];
        let mut stats = SchedulerStats::default();
        for _ in 0..3 {
            let s = step(
                SchedulerMode::Ticked,
                &mut clock,
                &mut kernels,
                100,
                &mut stats,
                None,
            );
            assert_eq!(s, Step::Ticked);
        }
        assert_eq!(clock.cycle(), 3);
        assert_eq!(stats, SchedulerStats::default());
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn traced_step_keeps_the_journal_clock_and_records_jumps() {
        let journal = TraceJournal::new(64);
        let mut clock = SimClock::new(100.0);
        clock.advance(5);
        let trace = SchedTrace::new(&journal, clock.cycle());
        assert_eq!(journal.cycle(), 5);
        let mut kernels: Vec<Box<dyn Kernel>> = vec![Box::new(Quiet)];
        let mut stats = SchedulerStats::default();
        for mode in [SchedulerMode::Ticked, SchedulerMode::EventDriven] {
            step(mode, &mut clock, &mut kernels, 40, &mut stats, Some(&trace));
            assert_eq!(journal.cycle(), clock.cycle(), "{mode:?}");
        }
        let spans = journal.snapshot().spans();
        assert_eq!(spans.len(), 1, "only the jump is a span: {spans:?}");
        let ff = &spans[0];
        assert_eq!(
            (ff.track.as_str(), ff.name.as_str()),
            ("sched", "fast-forward")
        );
        assert_eq!((ff.begin, ff.end), (6, 40));
        assert_eq!(ff.cycles(), stats.skipped_cycles);
    }

    #[test]
    fn stats_sum_ticked_plus_skipped() {
        let s = SchedulerStats {
            ticked_cycles: 3,
            jumps: 2,
            skipped_cycles: 97,
        };
        assert_eq!(s.total_cycles(), 100);
    }
}
