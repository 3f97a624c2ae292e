//! The region-burst streaming controller (the "just stream the burst" mode).
//!
//! The per-chunk [`crate::controller::Controller`] re-derives one parallel
//! access per cycle — a faithful model of Fig. 9, but on the CPU every chunk
//! pays a plan lookup, a bounds check and a FIFO round-trip. The hardware
//! controller does none of that in steady state: once the AGU is programmed
//! it *streams the burst*. The burst controller is that mode on the
//! simulator: each vector is covered by a handful of [`Region`]s (usually
//! one `Block`, see [`crate::region_copy::vector_regions`]), and the
//! controller issues whole-region bursts on the PolyMem kernel's region
//! ports:
//!
//! * **Copy** becomes fused `(src, dst)` copy bursts on the
//!   [region-copy port](dfe_sim::polymem_kernel::PolyMemKernel::attach_region_copy_port) —
//!   the data never crosses back into the controller at all;
//! * **Scale / Sum / Triad** read operand regions through the
//!   [region port](dfe_sim::polymem_kernel::PolyMemKernel::attach_region_port),
//!   apply the op to the whole burst, and issue one region-write burst.
//!
//! Cycle accounting is unchanged — a burst of `len` elements still occupies
//! the datapath for `ceil(len / lanes)` cycles plus the pipeline latency —
//! so the *simulated* bandwidth matches the per-chunk design; what the
//! burst mode removes is the per-chunk modelling overhead on the host,
//! which is exactly the gap `BENCH_stream_region.json` measures.

use crate::controller::{Compute, Controller, ControllerState, Issue, Part, StateRef, Write};
use crate::layout::{StreamLayout, VectorLayout};
use crate::op::StreamOp;
use crate::region_copy::vector_regions;
use dfe_sim::kernel::Endpoint;
use dfe_sim::polymem_kernel::{
    PolyMemKernel, RegionCopyRequest, RegionCopyResponse, RegionRequest, RegionResponse,
    RegionWriteRequest,
};
use dfe_sim::stream::{stream, StreamRef};
use polymem::telemetry::{Counter, Histogram, TelemetryRegistry};
use polymem::Region;
use std::rc::Rc;

/// Bucket bounds for the in-flight-burst occupancy histogram: real covers
/// are a handful of regions, so small powers of two resolve the whole range.
static OUTSTANDING_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Per-event burst telemetry: how many bursts are in flight each time one
/// is issued or retired, plus the issue count itself. Observations happen
/// on *events* (issue / completion), not every tick, so an idle controller
/// costs nothing. One instance is shared by every kernel of a design.
#[derive(Clone)]
pub(crate) struct BurstTelemetry {
    outstanding: Histogram,
    issued: Counter,
}

impl BurstTelemetry {
    /// Register `stream_burst_outstanding{op=...}` and
    /// `stream_bursts_issued_total{op=...}` with `registry`.
    pub(crate) fn new(registry: &TelemetryRegistry, op: StreamOp) -> Self {
        let labels = vec![("op", op.name().to_string())];
        Self {
            outstanding: registry.histogram(
                "stream_burst_outstanding",
                labels.clone(),
                &OUTSTANDING_BOUNDS,
            ),
            issued: registry.counter("stream_bursts_issued_total", labels),
        }
    }

    /// Observe one part's step: a burst issued (its first request went out)
    /// or a burst retired. `per_unit` is the requests per burst.
    pub(crate) fn record(
        &self,
        before: &ControllerState,
        after: &ControllerState,
        per_unit: usize,
    ) {
        let issued = after.issued.div_ceil(per_unit);
        if issued > before.issued.div_ceil(per_unit) {
            self.issued.inc();
        } else if after.written == before.written {
            return;
        }
        self.outstanding
            .observe(issued.saturating_sub(after.written) as u64);
    }
}

/// The PolyMem kernel's region read, region-write and fused-copy port
/// streams, as a burst design drives them.
pub(crate) struct RegionPorts {
    pub(crate) region_req: StreamRef<RegionRequest>,
    pub(crate) region_resp: StreamRef<RegionResponse>,
    pub(crate) write_req: StreamRef<RegionWriteRequest>,
    pub(crate) copy_req: StreamRef<RegionCopyRequest>,
    pub(crate) copy_resp: StreamRef<RegionCopyResponse>,
}

impl RegionPorts {
    /// Fresh streams, attached to `polymem`'s region ports.
    pub(crate) fn attach(polymem: &mut PolyMemKernel) -> Self {
        let ports = Self {
            region_req: stream("region-req", 4),
            region_resp: stream("region-resp", 2),
            write_req: stream("region-write-req", 2),
            copy_req: stream("copy-req", 4),
            copy_resp: stream("copy-resp", 2),
        };
        polymem.attach_region_port(Rc::clone(&ports.region_req), Rc::clone(&ports.region_resp));
        polymem.attach_region_copy_port(Rc::clone(&ports.copy_req), Rc::clone(&ports.copy_resp));
        polymem.attach_region_write_port(Rc::clone(&ports.write_req));
        ports
    }
}

/// Completion: the copy engine's tokens, one per retired copy burst.
struct Complete {
    resp: StreamRef<RegionCopyResponse>,
    units: usize,
}

impl Part for Complete {
    fn step(&mut self, st: &mut ControllerState) {
        if self.resp.borrow_mut().pop().is_some() {
            st.retire(self.units);
        }
    }

    fn can_act(&self, _st: &ControllerState) -> bool {
        !self.resp.borrow().is_empty()
    }

    fn endpoints(&self, ends: &mut Vec<Endpoint>) {
        ends.push(Endpoint::input(&self.resp));
    }
}

/// Region covers of `op`'s first operand, second operand and destination,
/// in vector order.
fn covers(op: StreamOp, layout: &StreamLayout) -> (Vec<Region>, Option<Vec<Region>>, Vec<Region>) {
    let p = layout.config.p;
    let cover = |(tag, v): (&str, VectorLayout)| vector_regions(&v, p, tag);
    let (x, y, dst) = op.route(("A", layout.a), ("B", layout.b), ("C", layout.c));
    (cover(x), y.map(cover), cover(dst))
}

/// The region-path parts of `op`: operand region reads in order (x[r],
/// then y[r] for the 2-read ops) on the one region port, which serves them
/// back in order; compute into `mid`; one region-write burst per result.
/// Returns the parts and the bursts per pass.
pub(crate) fn burst_parts(
    op: StreamOp,
    layout: &StreamLayout,
    ports: &RegionPorts,
    mid: StreamRef<Vec<u64>>,
) -> (Vec<Box<dyn Part>>, usize) {
    let (x, y, dst) = covers(op, layout);
    debug_assert_eq!(x.len(), dst.len(), "operand and result share a cover");
    let reads: Vec<Region> = match y {
        Some(y) => x.into_iter().zip(y).flat_map(|(x, y)| [x, y]).collect(),
        None => x,
    };
    let units = dst.len();
    let parts: Vec<Box<dyn Part>> = vec![
        Box::new(Issue::new(vec![(Rc::clone(&ports.region_req), reads)])),
        Box::new(Compute::new(
            op,
            vec![Rc::clone(&ports.region_resp)],
            Rc::clone(&mid),
        )),
        Box::new(Write::new(mid, Rc::clone(&ports.write_req), dst)),
    ];
    (parts, units)
}

impl Controller {
    /// The fused burst controller for `op` over `layout`: Copy streams
    /// fused copy bursts and counts their completion tokens; the compute
    /// ops take the region path of [`burst_parts`].
    pub(crate) fn burst(
        op: StreamOp,
        layout: &StreamLayout,
        state: StateRef,
        ports: &RegionPorts,
    ) -> Self {
        const NAME: &str = "stream-burst-controller";
        if op == StreamOp::Copy {
            let (src, _, dst) = covers(op, layout);
            let units = dst.len();
            let parts: Vec<Box<dyn Part>> = vec![
                Box::new(Issue::new(vec![(
                    Rc::clone(&ports.copy_req),
                    src.into_iter().zip(dst).collect::<Vec<_>>(),
                )])),
                Box::new(Complete {
                    resp: Rc::clone(&ports.copy_resp),
                    units,
                }),
            ];
            return Self::assemble(NAME, op, state, units, 1, parts);
        }
        let (parts, units) = burst_parts(op, layout, ports, stream(format!("{NAME}/result"), 1));
        Self::assemble(NAME, op, state, units, op.reads(), parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_sim::kernel::Kernel;
    use polymem::AccessScheme;
    use std::cell::RefCell;

    fn tiny_layout() -> StreamLayout {
        StreamLayout::new(16, 8, 2, 4, AccessScheme::RoCo, 2).unwrap()
    }

    struct Rig {
        ctrl: Controller,
        copy_req: StreamRef<RegionCopyRequest>,
        copy_resp: StreamRef<RegionCopyResponse>,
        region_req: StreamRef<RegionRequest>,
        region_resp: StreamRef<RegionResponse>,
        write_req: StreamRef<RegionWriteRequest>,
        state: StateRef,
    }

    fn ports(write_req: StreamRef<RegionWriteRequest>) -> RegionPorts {
        RegionPorts {
            region_req: dfe_sim::stream("rq", 4),
            region_resp: dfe_sim::stream("rr", 4),
            write_req,
            copy_req: dfe_sim::stream("cq", 4),
            copy_resp: dfe_sim::stream("cr", 4),
        }
    }

    fn armed() -> StateRef {
        Rc::new(RefCell::new(ControllerState {
            running: true,
            ..Default::default()
        }))
    }

    fn make(op: StreamOp) -> Rig {
        let ports = ports(dfe_sim::stream("wq", 4));
        let state = armed();
        let ctrl = Controller::burst(op, &tiny_layout(), Rc::clone(&state), &ports);
        let RegionPorts {
            region_req,
            region_resp,
            write_req,
            copy_req,
            copy_resp,
        } = ports;
        Rig {
            ctrl,
            copy_req,
            copy_resp,
            region_req,
            region_resp,
            write_req,
            state,
        }
    }

    #[test]
    fn copy_issues_fused_bursts_and_counts_tokens() {
        let mut rig = make(StreamOp::Copy);
        assert_eq!(rig.ctrl.units(), 1, "16 elems over 2 rows is one Block");
        rig.ctrl.tick(0);
        let (src, dst) = rig.copy_req.borrow_mut().pop().expect("one fused burst");
        assert_eq!(src.name, "A");
        assert_eq!(dst.name, "C");
        assert_eq!(src.len(), 16);
        assert!(!rig.ctrl.pass_done());
        rig.copy_resp.borrow_mut().push(16);
        rig.ctrl.tick(1);
        assert!(rig.ctrl.pass_done());
        assert!(!rig.state.borrow().running);
    }

    #[test]
    fn scale_reads_b_and_writes_scaled_burst_to_a() {
        let mut rig = make(StreamOp::Scale(2.0));
        rig.ctrl.tick(0);
        let req = rig.region_req.borrow_mut().pop().expect("B read burst");
        assert_eq!(req.name, "B");
        let data: Vec<u64> = (0..16).map(|k| (k as f64).to_bits()).collect();
        rig.region_resp.borrow_mut().push(data);
        rig.ctrl.tick(1);
        let (dst, burst) = rig.write_req.borrow_mut().pop().expect("write burst");
        assert_eq!(dst.name, "A");
        assert_eq!(f64::from_bits(burst[5]), 10.0, "2.0 * 5.0");
        assert!(rig.ctrl.pass_done());
    }

    #[test]
    fn sum_pairs_two_operand_bursts_in_order() {
        let mut rig = make(StreamOp::Sum);
        rig.ctrl.tick(0);
        rig.ctrl.tick(1);
        let first = rig.region_req.borrow_mut().pop().unwrap();
        let second = rig.region_req.borrow_mut().pop().unwrap();
        assert_eq!((first.name.as_str(), second.name.as_str()), ("B", "C"));
        let b: Vec<u64> = (0..16).map(|k| (k as f64).to_bits()).collect();
        let c: Vec<u64> = (0..16).map(|k| (100.0 - k as f64).to_bits()).collect();
        rig.region_resp.borrow_mut().push(b);
        rig.ctrl.tick(2); // stashes B
        assert!(rig.write_req.borrow().is_empty());
        rig.region_resp.borrow_mut().push(c);
        rig.ctrl.tick(3); // combines and writes
        let (dst, burst) = rig.write_req.borrow_mut().pop().expect("write burst");
        assert_eq!(dst.name, "A");
        assert!(burst.iter().all(|&v| f64::from_bits(v) == 100.0));
        assert!(rig.ctrl.pass_done());
    }

    #[test]
    fn write_backpressure_holds_the_burst() {
        let write_req: StreamRef<RegionWriteRequest> = dfe_sim::stream("wq-tight", 1);
        // Pre-fill the capacity-1 write FIFO so the controller must hold.
        write_req.borrow_mut().push((
            Region::new("X", 0, 0, polymem::RegionShape::Row { len: 8 }),
            vec![0; 8],
        ));
        let ports = ports(Rc::clone(&write_req));
        let mut ctrl = Controller::burst(StreamOp::Scale(3.0), &tiny_layout(), armed(), &ports);
        ports
            .region_resp
            .borrow_mut()
            .push((0..16).map(|k| (k as f64).to_bits()).collect());
        ctrl.tick(0);
        ctrl.tick(1);
        assert!(!ctrl.pass_done(), "burst held under backpressure");
        write_req.borrow_mut().pop();
        ctrl.tick(2);
        assert!(ctrl.pass_done(), "burst drains once the FIFO has room");
    }

    #[test]
    fn telemetry_counts_issues_and_occupancy_events() {
        let mut rig = make(StreamOp::Copy);
        let reg = TelemetryRegistry::new();
        rig.ctrl.tlm = Some(BurstTelemetry::new(&reg, StreamOp::Copy));
        rig.ctrl.tick(0); // issue event: outstanding = 1
        rig.copy_resp.borrow_mut().push(16);
        rig.ctrl.tick(1); // completion event: outstanding = 0
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_value("stream_bursts_issued_total", &[("op", "Copy")]),
            Some(1)
        );
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("stream_burst_outstanding"),
            "histogram exported: {prom}"
        );
    }

    #[test]
    fn idle_when_not_running() {
        let mut rig = make(StreamOp::Copy);
        rig.state.borrow_mut().running = false;
        assert!(rig.ctrl.is_idle());
        assert!(rig.ctrl.busy_reason().is_none());
        rig.ctrl.tick(0);
        assert!(rig.copy_req.borrow().is_empty(), "no issue when idle");
    }
}
