//! The kernel abstraction: a node of the dataflow graph.
//!
//! A [`Kernel`] is ticked once per clock cycle by the [`crate::manager`].
//! Within a tick it may pop from input streams, compute, and push to output
//! streams, honouring FIFO backpressure. This mirrors MaxJ's model where a
//! kernel advances when its inputs are available and outputs have room.
//!
//! Each kernel also reports the streams it holds ([`Kernel::endpoints`]);
//! [`stream_graph`] joins those reports into the design's live wiring, so
//! checks read the topology from the kernels that run.

use crate::stream::StreamRef;

/// A dataflow kernel.
pub trait Kernel {
    /// Kernel name (diagnostics).
    fn name(&self) -> &str;

    /// Advance one clock cycle. `cycle` is the global cycle number.
    fn tick(&mut self, cycle: u64);

    /// Whether this kernel has outstanding work (used by the manager's
    /// run-to-quiescence loop). Default: never idle (pure pipeline stages).
    fn is_idle(&self) -> bool {
        false
    }

    /// One-line detail of why the kernel is not idle, for stall diagnosis
    /// ([`crate::manager::Manager::diagnose_stall`]). Default: no detail.
    fn busy_reason(&self) -> Option<String> {
        None
    }

    /// The next cycle at which ticking this kernel could change state —
    /// the event-driven scheduler's fast-forward contract
    /// ([`crate::sched`]).
    ///
    /// * `Some(c)` with `c` less than or equal to the current cycle means
    ///   "tick me now" (the kernel can act this cycle).
    /// * `Some(c)` in the future is a **self-scheduled wake-up**: absent any
    ///   external input, ticking this kernel before cycle `c` is a no-op
    ///   (no state change). Reporting a wake *earlier* than necessary is
    ///   always safe (it degenerates toward per-cycle ticking); reporting
    ///   one *later* than the first cycle the kernel would act is a
    ///   correctness bug.
    /// * `None` means the kernel has no self-scheduled wake: it is either
    ///   idle or waiting purely on external input (another kernel pushing
    ///   to / popping from a shared stream). Since the scheduler only
    ///   fast-forwards when **no** kernel can act, nothing changes during a
    ///   skipped span, so `None` is safe for externally-blocked kernels.
    ///
    /// The default is maximally conservative — always "tick me now" — so
    /// any kernel that does not opt in keeps bit-identical per-cycle
    /// semantics under the event-driven scheduler.
    fn next_event(&self) -> Option<u64> {
        Some(0)
    }

    /// Observe a fast-forwarded span: the scheduler skipped cycles
    /// `from..to` (exclusive of `to`) because no kernel could act. Kernels
    /// that account per-cycle state (stall-attribution counters, pacing
    /// flags read by downstream kernels) reproduce here, in bulk, exactly
    /// what `to - from` no-op ticks would have recorded. Called in
    /// registration order, so upstream kernels (e.g. paced loaders setting
    /// a PCIe-wait flag) run before downstream ones that read their flags.
    /// Default: nothing to account.
    fn skip_to(&mut self, from: u64, to: u64) {
        let _ = (from, to);
    }

    /// The streams this kernel pops from and pushes to, built from the
    /// stream handles it holds. Default: none (the kernel adds nothing to
    /// [`stream_graph`]).
    fn endpoints(&self) -> Vec<Endpoint> {
        Vec::new()
    }
}

/// One end of a stream, as seen by the kernel holding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// The FIFO's identity: the address of its shared cell.
    pub fifo: usize,
    /// The FIFO's name ([`crate::stream::Fifo::name`]).
    pub stream: String,
    /// Whether the kernel pushes (`true`) or pops (`false`).
    pub output: bool,
    /// For outputs: whether a pipeline register sits between the kernel's
    /// computation and the push, so a consumer waiting on this stream is
    /// never waiting on work it must itself unblock this cycle.
    pub registered: bool,
}

impl Endpoint {
    fn of<T>(s: &StreamRef<T>, output: bool, registered: bool) -> Self {
        Self {
            fifo: std::rc::Rc::as_ptr(s) as *const () as usize,
            stream: s.borrow().name().to_string(),
            output,
            registered,
        }
    }

    /// A stream the kernel pops from.
    pub fn input<T>(s: &StreamRef<T>) -> Self {
        Self::of(s, false, false)
    }

    /// A stream the kernel pushes to straight from this tick's work.
    pub fn output<T>(s: &StreamRef<T>) -> Self {
        Self::of(s, true, false)
    }

    /// A stream the kernel pushes to from a pipeline register.
    pub fn registered_output<T>(s: &StreamRef<T>) -> Self {
        Self::of(s, true, true)
    }
}

/// One producer→consumer stream of a live design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEdge {
    /// The FIFO's identity (see [`Endpoint::fifo`]); two edges with the
    /// same `fifo` share one queue.
    pub fifo: usize,
    /// Stream name.
    pub stream: String,
    /// Kernel that pushes into the stream.
    pub producer: String,
    /// Kernel that pops from the stream.
    pub consumer: String,
    /// Whether the producer pushes from a pipeline register, breaking any
    /// combinational wait-cycle through this edge.
    pub registered: bool,
}

/// Join the kernels' [`Kernel::endpoints`] by FIFO identity: one edge per
/// (producer, consumer) pair of each FIFO, in first-seen order. A FIFO seen
/// from only one side (an unused port) adds no edge.
pub fn stream_graph<'k>(kernels: impl IntoIterator<Item = &'k dyn Kernel>) -> Vec<StreamEdge> {
    let ends: Vec<(String, Endpoint)> = kernels
        .into_iter()
        .flat_map(|k| {
            let name = k.name().to_string();
            k.endpoints().into_iter().map(move |e| (name.clone(), e))
        })
        .collect();
    let mut edges = Vec::new();
    for (n, (_, first)) in ends.iter().enumerate() {
        if ends[..n].iter().any(|(_, e)| e.fifo == first.fifo) {
            continue;
        }
        let same = || ends.iter().filter(|(_, e)| e.fifo == first.fifo);
        for (producer, out) in same().filter(|(_, e)| e.output) {
            for (consumer, _) in same().filter(|(_, e)| !e.output) {
                edges.push(StreamEdge {
                    fifo: first.fifo,
                    stream: first.stream.clone(),
                    producer: producer.clone(),
                    consumer: consumer.clone(),
                    registered: out.registered,
                });
            }
        }
    }
    edges
}

/// A simple function-backed kernel, convenient for tests and small designs.
pub struct FnKernel<F: FnMut(u64)> {
    name: String,
    f: F,
}

impl<F: FnMut(u64)> FnKernel<F> {
    /// Wrap a closure as a kernel.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            f,
        }
    }
}

impl<F: FnMut(u64)> Kernel for FnKernel<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64) {
        (self.f)(cycle);
    }
}

/// A fixed-latency pipeline register chain: values pushed in emerge exactly
/// `latency` ticks later. This is the building block used to model the
/// paper's 14-cycle PolyMem read latency.
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    latency: u64,
    /// (ready_cycle, value) in insertion order; ready cycles are monotone.
    slots: std::collections::VecDeque<(u64, T)>,
}

impl<T> DelayLine<T> {
    /// A delay line of `latency` cycles.
    pub fn new(latency: u64) -> Self {
        Self {
            latency,
            slots: std::collections::VecDeque::new(),
        }
    }

    /// The configured latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Insert a value at `cycle`; it becomes available at `cycle + latency`.
    pub fn push(&mut self, cycle: u64, value: T) {
        self.slots.push_back((cycle + self.latency, value));
    }

    /// Pop the next value if it is ready at `cycle`.
    pub fn pop_ready(&mut self, cycle: u64) -> Option<T> {
        if let Some(&(ready, _)) = self.slots.front() {
            if ready <= cycle {
                return self.slots.pop_front().map(|(_, v)| v);
            }
        }
        None
    }

    /// Values currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// The cycle at which the oldest in-flight value becomes ready — the
    /// delay line's contribution to [`Kernel::next_event`]. `None` when
    /// drained.
    pub fn next_ready(&self) -> Option<u64> {
        self.slots.front().map(|&(ready, _)| ready)
    }

    /// Whether the pipeline is drained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_kernel_ticks() {
        let mut count = 0u64;
        {
            let mut k = FnKernel::new("counter", |_| count += 1);
            assert_eq!(k.name(), "counter");
            for c in 0..5 {
                k.tick(c);
            }
            assert!(!k.is_idle());
        }
        assert_eq!(count, 5);
    }

    struct Ends(&'static str, Vec<Endpoint>);

    impl Kernel for Ends {
        fn name(&self) -> &str {
            self.0
        }
        fn tick(&mut self, _cycle: u64) {}
        fn endpoints(&self) -> Vec<Endpoint> {
            self.1.clone()
        }
    }

    #[test]
    fn stream_graph_joins_endpoints_by_fifo_identity() {
        let req = crate::stream::stream::<u64>("req", 4);
        let resp = crate::stream::stream::<u64>("resp", 4);
        let unused = crate::stream::stream::<u64>("req", 4);
        let ctrl = Ends("ctrl", vec![Endpoint::output(&req), Endpoint::input(&resp)]);
        let mem = Ends(
            "mem",
            vec![
                Endpoint::input(&req),
                Endpoint::registered_output(&resp),
                Endpoint::input(&unused),
            ],
        );
        let g = stream_graph([&ctrl as &dyn Kernel, &mem]);
        assert_eq!(g.len(), 2, "the one-sided FIFO adds no edge: {g:?}");
        assert_eq!(
            (
                g[0].stream.as_str(),
                g[0].producer.as_str(),
                g[0].consumer.as_str()
            ),
            ("req", "ctrl", "mem")
        );
        assert!(!g[0].registered);
        assert_eq!((g[1].producer.as_str(), g[1].registered), ("mem", true));
        assert_ne!(g[0].fifo, g[1].fifo);
    }

    #[test]
    fn delay_line_exact_latency() {
        let mut d = DelayLine::new(14);
        d.push(0, "a");
        for c in 0..14 {
            assert!(d.pop_ready(c).is_none(), "cycle {c}");
        }
        assert_eq!(d.pop_ready(14), Some("a"));
    }

    #[test]
    fn delay_line_pipelining() {
        // One value per cycle in -> one per cycle out, shifted by latency.
        let mut d = DelayLine::new(3);
        let mut out = Vec::new();
        for c in 0..10u64 {
            if c < 5 {
                d.push(c, c);
            }
            if let Some(v) = d.pop_ready(c) {
                out.push((c, v));
            }
        }
        assert_eq!(out, vec![(3, 0), (4, 1), (5, 2), (6, 3), (7, 4)]);
        assert!(d.is_empty());
    }

    #[test]
    fn zero_latency_is_same_cycle() {
        let mut d = DelayLine::new(0);
        d.push(7, 99);
        assert_eq!(d.pop_ready(7), Some(99));
    }

    #[test]
    fn next_ready_tracks_oldest_slot() {
        let mut d = DelayLine::new(14);
        assert_eq!(d.next_ready(), None);
        d.push(3, "a");
        d.push(5, "b");
        assert_eq!(d.next_ready(), Some(17));
        let _ = d.pop_ready(17);
        assert_eq!(d.next_ready(), Some(19));
    }

    #[test]
    fn in_flight_count() {
        let mut d = DelayLine::new(5);
        d.push(0, 1);
        d.push(1, 2);
        assert_eq!(d.in_flight(), 2);
        let _ = d.pop_ready(5);
        assert_eq!(d.in_flight(), 1);
    }
}
