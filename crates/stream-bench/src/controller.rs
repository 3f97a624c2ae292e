//! The STREAM Controller kernel (paper Fig. 9).
//!
//! The Controller drives MAX-PolyMem: it generates the read signals
//! (`Ri, Rj, Rshape`) and write signals (`Wi, Wj, Wshape`), selects the
//! write-port input via the MUXes (here: computing the output chunk from
//! the read responses — the "feedback loop from the output port of
//! PolyMem") and sequences one chunk per cycle. The read latency is
//! absorbed naturally: writes are issued only when the corresponding read
//! data emerges from the memory's pipeline, which is the paper's
//! "delay ... applied on the output data ... 14 clock cycles" alignment.
//!
//! A pass has three parts: **issue** (read requests, one unit per cycle),
//! **compute** (apply the op once a full operand set has arrived) and
//! **write** (pair each result with its destination and push it). A fused
//! design ticks all three inside one [`Controller`], handing the result
//! from compute to write within the tick; the modular §III-C designs
//! ([`crate::modular`]) give each part its own `Controller`. Per-chunk
//! designs drive the memory's scalar ports (this module), burst designs
//! its region ports ([`crate::burst`]).

use crate::burst::BurstTelemetry;
use crate::layout::{StreamLayout, VectorLayout};
use crate::op::StreamOp;
use dfe_sim::kernel::{Endpoint, Kernel};
use dfe_sim::polymem_kernel::{ReadRequest, ReadResponse, WriteRequest};
use dfe_sim::stream::{stream, StreamRef};
use polymem::ParallelAccess;
use std::cell::RefCell;
use std::rc::Rc;

/// Controller progress, shared with the host so stages can be restarted
/// (the `Mode` signal of Fig. 9), and shared by every kernel of a modular
/// design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerState {
    /// Requests issued: chunks on the per-chunk ports, region requests
    /// (operand regions or copy bursts) in burst designs.
    pub issued: usize,
    /// Units (chunks or bursts) written.
    pub written: usize,
    /// Whether the stage is armed (Mode == compute).
    pub running: bool,
}

impl ControllerState {
    /// Count one written unit; the pass ends with the last of `units`.
    pub(crate) fn retire(&mut self, units: usize) {
        self.written += 1;
        if self.written >= units {
            self.running = false;
        }
    }
}

/// Shared handle to controller state.
pub type StateRef = Rc<RefCell<ControllerState>>;

/// One part of a pass (issue, compute or write).
pub(crate) trait Part {
    /// Act for one cycle; a no-op exactly when [`Part::can_act`] is false.
    fn step(&mut self, st: &mut ControllerState);
    /// Whether `step` would change anything now.
    fn can_act(&self, st: &ControllerState) -> bool;
    /// The streams this part pops from and pushes to.
    fn endpoints(&self, ends: &mut Vec<Endpoint>);
}

/// Where unit `k`'s request or result goes.
pub(crate) trait Targets {
    type Item;
    fn count(&self) -> usize;
    fn at(&self, k: usize) -> Self::Item;
}

/// A vector's chunks, one row access each.
impl Targets for VectorLayout {
    type Item = ParallelAccess;
    fn count(&self) -> usize {
        self.chunks()
    }
    fn at(&self, k: usize) -> ParallelAccess {
        self.access(k)
    }
}

/// A precomputed list (region covers, copy pairs).
impl<T: Clone> Targets for Vec<T> {
    type Item = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn at(&self, k: usize) -> T {
        self[k].clone()
    }
}

/// Issue: request `issued` on every port at once (lockstep ports), one
/// per cycle, while all request FIFOs have room.
pub(crate) struct Issue<T: Targets> {
    ports: Vec<(StreamRef<T::Item>, T)>,
    /// Requests per port per pass (cached: `count` may divide).
    len: usize,
}

impl<T: Targets> Issue<T> {
    pub(crate) fn new(ports: Vec<(StreamRef<T::Item>, T)>) -> Self {
        let len = ports[0].1.count();
        Self { ports, len }
    }
}

impl<T: Targets> Part for Issue<T> {
    fn step(&mut self, st: &mut ControllerState) {
        if self.can_act(st) {
            for (port, targets) in &self.ports {
                port.borrow_mut().push(targets.at(st.issued));
            }
            st.issued += 1;
        }
    }

    fn can_act(&self, st: &ControllerState) -> bool {
        st.issued < self.len && self.ports.iter().all(|(p, _)| p.borrow().can_push())
    }

    fn endpoints(&self, ends: &mut Vec<Endpoint>) {
        ends.extend(self.ports.iter().map(|(p, _)| Endpoint::output(p)));
    }
}

/// Compute: take one token from every input while all have one; once the
/// op's operands are all held, combine them and push the result. Per-chunk
/// designs read each operand on its own port; burst designs read both on
/// the one region port, in order.
pub(crate) struct Compute {
    op: StreamOp,
    inputs: Vec<StreamRef<Vec<u64>>>,
    held: Vec<Vec<u64>>,
    out: StreamRef<Vec<u64>>,
}

impl Compute {
    pub(crate) fn new(
        op: StreamOp,
        inputs: Vec<StreamRef<Vec<u64>>>,
        out: StreamRef<Vec<u64>>,
    ) -> Self {
        Self {
            op,
            inputs,
            held: Vec::with_capacity(2),
            out,
        }
    }
}

impl Part for Compute {
    fn step(&mut self, st: &mut ControllerState) {
        if !self.can_act(st) {
            return;
        }
        for input in &self.inputs {
            self.held.push(input.borrow_mut().pop().expect("checked"));
        }
        if self.held.len() < self.op.reads() {
            return;
        }
        let y = if self.op.reads() > 1 {
            self.held.pop()
        } else {
            None
        };
        let mut x = self.held.pop().expect("full operand set");
        self.op.combine(&mut x, y.as_deref());
        self.out.borrow_mut().push(x);
    }

    fn can_act(&self, _st: &ControllerState) -> bool {
        self.out.borrow().can_push() && self.inputs.iter().all(|s| !s.borrow().is_empty())
    }

    fn endpoints(&self, ends: &mut Vec<Endpoint>) {
        ends.extend(self.inputs.iter().map(Endpoint::input));
        ends.push(Endpoint::output(&self.out));
    }
}

/// Write: pair the next result with unit `written`'s destination and push
/// it while the write FIFO has room.
pub(crate) struct Write<T: Targets> {
    input: StreamRef<Vec<u64>>,
    port: StreamRef<(T::Item, Vec<u64>)>,
    dst: T,
    /// Units per pass (cached: `count` may divide).
    units: usize,
}

impl<T: Targets> Write<T> {
    pub(crate) fn new(
        input: StreamRef<Vec<u64>>,
        port: StreamRef<(T::Item, Vec<u64>)>,
        dst: T,
    ) -> Self {
        let units = dst.count();
        Self {
            input,
            port,
            dst,
            units,
        }
    }
}

impl<T: Targets> Part for Write<T> {
    fn step(&mut self, st: &mut ControllerState) {
        if self.can_act(st) {
            let data = self.input.borrow_mut().pop().expect("checked");
            self.port.borrow_mut().push((self.dst.at(st.written), data));
            st.retire(self.units);
        }
    }

    fn can_act(&self, _st: &ControllerState) -> bool {
        self.port.borrow().can_push() && !self.input.borrow().is_empty()
    }

    fn endpoints(&self, ends: &mut Vec<Endpoint>) {
        ends.push(Endpoint::input(&self.input));
        ends.push(Endpoint::output(&self.port));
    }
}

/// The per-chunk parts of `op`: lockstep reads on the first
/// [`StreamOp::reads`] ports, compute into `mid`, chunk writes.
pub(crate) fn chunk_parts(
    op: StreamOp,
    layout: &StreamLayout,
    read_req: &[StreamRef<ReadRequest>],
    read_resp: &[StreamRef<ReadResponse>],
    write_req: StreamRef<WriteRequest>,
    mid: StreamRef<Vec<u64>>,
) -> Vec<Box<dyn Part>> {
    assert!(
        read_req.len() >= op.reads(),
        "{} needs {} read ports",
        op.name(),
        op.reads()
    );
    let (x, y, dst) = op.route(layout.a, layout.b, layout.c);
    let ports = read_req.iter().cloned().zip([x].into_iter().chain(y));
    vec![
        Box::new(Issue::new(ports.collect())),
        Box::new(Compute::new(
            op,
            read_resp[..op.reads()].to_vec(),
            Rc::clone(&mid),
        )),
        Box::new(Write::new(mid, write_req, dst)),
    ]
}

/// A STREAM controller kernel: one or more parts of a pass, ticked in
/// order against the shared [`ControllerState`].
pub struct Controller {
    name: String,
    op: StreamOp,
    /// Units (chunks or bursts) per pass.
    units: usize,
    /// Requests per unit: 2 when a burst design reads both operands on the
    /// one region port, else 1.
    per_unit: usize,
    state: StateRef,
    parts: Vec<Box<dyn Part>>,
    /// Burst occupancy/issue telemetry, when attached.
    pub(crate) tlm: Option<BurstTelemetry>,
}

impl Controller {
    pub(crate) fn assemble(
        name: impl Into<String>,
        op: StreamOp,
        state: StateRef,
        units: usize,
        per_unit: usize,
        parts: Vec<Box<dyn Part>>,
    ) -> Self {
        Self {
            name: name.into(),
            op,
            units,
            per_unit,
            state,
            parts,
            tlm: None,
        }
    }

    /// The fused per-chunk controller for `op` over `layout`.
    ///
    /// `read_req`/`read_resp` are the PolyMem kernel's port streams; the
    /// controller uses the first [`StreamOp::reads`] ports.
    pub fn new(
        op: StreamOp,
        layout: StreamLayout,
        state: StateRef,
        read_req: Vec<StreamRef<ReadRequest>>,
        read_resp: Vec<StreamRef<ReadResponse>>,
        write_req: StreamRef<WriteRequest>,
    ) -> Self {
        let hand_off = stream("stream-controller/result", 1);
        let parts = chunk_parts(op, &layout, &read_req, &read_resp, write_req, hand_off);
        Self::assemble("stream-controller", op, state, layout.a.chunks(), 1, parts)
    }

    /// Units (chunks or bursts) per pass.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Whether the current pass is finished (all units written).
    pub fn pass_done(&self) -> bool {
        let s = self.state.borrow();
        !s.running || s.written >= self.units
    }
}

impl Kernel for Controller {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64) {
        let mut st = self.state.borrow_mut();
        if !st.running {
            return;
        }
        for part in &mut self.parts {
            let before = *st;
            part.step(&mut st);
            if let Some(t) = &self.tlm {
                t.record(&before, &st, self.per_unit);
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.pass_done()
    }

    fn next_event(&self) -> Option<u64> {
        // Mirror `tick` exactly: the controller wakes only on external
        // input (a response, a completion or a freed FIFO slot), and every
        // such change is bounded by the PolyMem kernel's own `next_event`,
        // so `None` lets the scheduler fast-forward without perturbing
        // cycle counts.
        let st = self.state.borrow();
        (st.running && self.parts.iter().any(|p| p.can_act(&st))).then_some(0)
    }

    fn busy_reason(&self) -> Option<String> {
        let s = self.state.borrow();
        (s.running && s.written < self.units).then(|| {
            format!(
                "{}: unit {} of {} outstanding",
                self.op.name(),
                s.written + 1,
                self.units
            )
        })
    }

    fn endpoints(&self) -> Vec<Endpoint> {
        let mut ends = Vec::new();
        for part in &self.parts {
            part.endpoints(&mut ends);
        }
        // A FIFO with both ends in this kernel is a fused design's
        // compute→write hand-off, drained within the tick: internal, not a
        // stream of the design.
        let internal: Vec<usize> = ends
            .iter()
            .filter(|e| {
                ends.iter()
                    .any(|f| f.fifo == e.fifo && f.output != e.output)
            })
            .map(|e| e.fifo)
            .collect();
        ends.retain(|e| !internal.contains(&e.fifo));
        ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem::AccessScheme;

    fn tiny_layout() -> StreamLayout {
        StreamLayout::new(16, 8, 2, 4, AccessScheme::RoCo, 2).unwrap()
    }

    #[allow(clippy::type_complexity)]
    fn make(
        op: StreamOp,
    ) -> (
        Controller,
        Vec<StreamRef<ReadRequest>>,
        Vec<StreamRef<ReadResponse>>,
        StreamRef<WriteRequest>,
        StateRef,
    ) {
        let layout = tiny_layout();
        let rq: Vec<StreamRef<ReadRequest>> = (0..2)
            .map(|p| dfe_sim::stream(format!("rq{p}"), 16))
            .collect();
        let rs: Vec<StreamRef<ReadResponse>> = (0..2)
            .map(|p| dfe_sim::stream(format!("rs{p}"), 16))
            .collect();
        let wq = dfe_sim::stream("wq", 16);
        let state: StateRef = Rc::new(RefCell::new(ControllerState {
            running: true,
            ..Default::default()
        }));
        let c = Controller::new(
            op,
            layout,
            Rc::clone(&state),
            rq.clone(),
            rs.clone(),
            Rc::clone(&wq),
        );
        (c, rq, rs, wq, state)
    }

    #[test]
    fn issues_one_chunk_per_cycle() {
        let (mut c, rq, _rs, _wq, state) = make(StreamOp::Copy);
        for cyc in 0..2 {
            c.tick(cyc);
        }
        assert_eq!(state.borrow().issued, 2);
        assert_eq!(rq[0].borrow().len(), 2);
        assert!(rq[1].borrow().is_empty(), "Copy uses one port");
    }

    #[test]
    fn sum_issues_on_both_ports() {
        let (mut c, rq, _rs, _wq, _state) = make(StreamOp::Sum);
        c.tick(0);
        assert_eq!(rq[0].borrow().len(), 1);
        assert_eq!(rq[1].borrow().len(), 1);
        let b_req = rq[0].borrow_mut().pop().unwrap();
        let c_req = rq[1].borrow_mut().pop().unwrap();
        assert_ne!(b_req.i, c_req.i, "B and C live in different regions");
    }

    #[test]
    fn writes_after_responses() {
        let (mut c, _rq, rs, wq, state) = make(StreamOp::Scale(2.0));
        c.tick(0); // issue chunk 0
        assert_eq!(state.borrow().written, 0);
        // Hand it a response as the memory would.
        let resp: Vec<u64> = (0..8).map(|k| (k as f64).to_bits()).collect();
        rs[0].borrow_mut().push(resp);
        c.tick(1);
        assert_eq!(state.borrow().written, 1);
        let (access, data) = wq.borrow_mut().pop().unwrap();
        assert_eq!(access.i, tiny_layout().a.base_row, "Scale writes into A");
        assert_eq!(f64::from_bits(data[3]), 6.0, "2.0 * 3.0");
    }

    #[test]
    fn pass_completes_and_stops() {
        let (mut c, _rq, rs, _wq, state) = make(StreamOp::Copy);
        let chunks = c.units();
        for cyc in 0..(chunks as u64) {
            c.tick(cyc);
            rs[0].borrow_mut().push(vec![0u64; 8]);
        }
        for cyc in 0..(chunks as u64 + 4) {
            c.tick(1000 + cyc);
        }
        assert!(c.pass_done());
        assert!(!state.borrow().running);
        assert_eq!(state.borrow().written, chunks);
    }

    #[test]
    fn idle_when_not_running() {
        let (mut c, rq, _rs, _wq, state) = make(StreamOp::Copy);
        state.borrow_mut().running = false;
        assert!(c.is_idle());
        c.tick(0);
        assert!(rq[0].borrow().is_empty(), "no issue when Mode is idle");
    }
}
