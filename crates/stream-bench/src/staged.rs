//! Streamed Load and Offload stages (the full Fig. 9 data path).
//!
//! [`crate::app::StreamApp`] fills and drains PolyMem through the host
//! debug port, which is fine for measuring the Copy stage (the paper times
//! stages in isolation). This module implements the Load and Offload
//! stages as *real kernels*: host data enters through PolyMem's write port
//! chunk by chunk (throttled to the PCIe rate), and leaves through a read
//! port, so the complete benchmark runs on the simulated data path.

use crate::layout::VectorLayout;
use crate::region_copy::vector_regions;
use dfe_sim::kernel::{Endpoint, Kernel};
use dfe_sim::pcie::PcieLink;
use dfe_sim::polymem_kernel::{
    ReadRequest, ReadResponse, RegionRequest, RegionResponse, RegionWriteRequest, WriteRequest,
};
use dfe_sim::stream::StreamRef;
use polymem::Region;
use std::cell::Cell;
use std::rc::Rc;

/// Cycles between host chunks at the PCIe bulk rate: one `lanes * 8`-byte
/// chunk every `ceil(chunk_bytes / (link_Bns * period_ns))` cycles.
pub fn pcie_chunk_interval(link: &PcieLink, lanes: usize, freq_mhz: f64) -> u64 {
    link.chunk_interval_cycles(lanes * 8, freq_mhz)
}

/// Streams one vector from the host into PolyMem through the write port,
/// paced at the PCIe rate.
pub struct LoadKernel {
    name: String,
    layout: VectorLayout,
    data: Vec<u64>,
    next_chunk: usize,
    interval: u64,
    last_issue: Option<u64>,
    write_req: StreamRef<WriteRequest>,
    pacing: Option<Rc<Cell<bool>>>,
}

impl LoadKernel {
    /// Build a loader for `data` into `layout`, pacing one chunk per
    /// `interval` cycles.
    pub fn new(
        name: impl Into<String>,
        layout: VectorLayout,
        data: Vec<u64>,
        interval: u64,
        write_req: StreamRef<WriteRequest>,
    ) -> Self {
        assert_eq!(data.len(), layout.len, "vector length mismatch");
        Self {
            name: name.into(),
            layout,
            data,
            next_chunk: 0,
            interval: interval.max(1),
            last_issue: None,
            write_req,
            pacing: None,
        }
    }

    /// Chunks still to send.
    pub fn remaining(&self) -> usize {
        self.layout.chunks() - self.next_chunk
    }

    /// Share a pacing flag with the downstream PolyMem kernel (see
    /// [`dfe_sim::polymem_kernel::PolyMemKernel::set_pcie_flag`]): the
    /// loader raises it while it is withholding a chunk for PCIe arrival
    /// timing, so the memory attributes those stalls to `pcie`, not `idle`.
    pub fn set_pacing_flag(&mut self, flag: Rc<Cell<bool>>) {
        self.pacing = Some(flag);
    }

    fn set_pacing(&self, on: bool) {
        if let Some(f) = &self.pacing {
            f.set(on);
        }
    }
}

impl Kernel for LoadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64) {
        if self.next_chunk >= self.layout.chunks() {
            self.set_pacing(false);
            return;
        }
        if let Some(last) = self.last_issue {
            if cycle < last + self.interval {
                self.set_pacing(true);
                return;
            }
        }
        self.set_pacing(false);
        if !self.write_req.borrow().can_push() {
            return;
        }
        let lanes = self.layout.lanes;
        let base = self.next_chunk * lanes;
        let chunk = self.data[base..base + lanes].to_vec();
        self.write_req
            .borrow_mut()
            .push((self.layout.access(self.next_chunk), chunk));
        self.last_issue = Some(cycle);
        self.next_chunk += 1;
    }

    fn is_idle(&self) -> bool {
        self.remaining() == 0
    }

    fn next_event(&self) -> Option<u64> {
        if self.next_chunk >= self.layout.chunks() {
            return None;
        }
        // The next issue cycle is self-scheduled by the PCIe pacing; a wake
        // in the past (pacing satisfied, possibly blocked on a full write
        // FIFO) keeps the design on per-cycle ticks, as the ticked loop would.
        match self.last_issue {
            Some(last) => Some(last + self.interval),
            None => Some(0),
        }
    }

    fn skip_to(&mut self, _from: u64, _to: u64) {
        // A quiescent span can only fall inside this loader's own pacing
        // window (its wake bounds the jump), where the ticked loop holds the
        // PCIe flag high on every cycle; once the vector is sent, it holds
        // it low. Runs before the downstream PolyMem kernel's `skip_to` in
        // registration order, so the bulk attribution sees the right flag.
        self.set_pacing(self.next_chunk < self.layout.chunks());
    }

    fn endpoints(&self) -> Vec<Endpoint> {
        vec![Endpoint::output(&self.write_req)]
    }
}

/// Streams one vector out of PolyMem through a read port into a host
/// buffer (the DEMUX target of Fig. 9).
pub struct OffloadKernel {
    name: String,
    layout: VectorLayout,
    issued: usize,
    collected: Vec<u64>,
    read_req: StreamRef<ReadRequest>,
    read_resp: StreamRef<ReadResponse>,
}

impl OffloadKernel {
    /// Build an offloader for `layout` on the given port streams.
    pub fn new(
        name: impl Into<String>,
        layout: VectorLayout,
        read_req: StreamRef<ReadRequest>,
        read_resp: StreamRef<ReadResponse>,
    ) -> Self {
        Self {
            name: name.into(),
            layout,
            issued: 0,
            collected: Vec::with_capacity(layout.len),
            read_req,
            read_resp,
        }
    }

    /// Elements received so far.
    pub fn collected(&self) -> &[u64] {
        &self.collected
    }

    /// Take the full vector once complete.
    pub fn take(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.collected)
    }

    /// Whether the whole vector has been received.
    pub fn done(&self) -> bool {
        self.collected.len() >= self.layout.len
    }
}

impl Kernel for OffloadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64) {
        if self.issued < self.layout.chunks() && self.read_req.borrow().can_push() {
            self.read_req
                .borrow_mut()
                .push(self.layout.access(self.issued));
            self.issued += 1;
        }
        if let Some(chunk) = self.read_resp.borrow_mut().pop() {
            self.collected.extend_from_slice(&chunk);
        }
    }

    fn is_idle(&self) -> bool {
        self.done()
    }

    fn next_event(&self) -> Option<u64> {
        // Wakes only on external input: room to issue or a response to
        // collect. The memory's pipeline wake bounds every in-flight span.
        let can_issue = self.issued < self.layout.chunks() && self.read_req.borrow().can_push();
        if can_issue || !self.read_resp.borrow().is_empty() {
            Some(0)
        } else {
            None
        }
    }

    fn endpoints(&self) -> Vec<Endpoint> {
        vec![
            Endpoint::output(&self.read_req),
            Endpoint::input(&self.read_resp),
        ]
    }
}

/// Streams one vector from the host into PolyMem as **region-write
/// bursts**, still paced at the PCIe rate: a burst is released only once
/// all of its chunks have arrived over the link (store-and-forward at
/// region granularity), so the load stage stays PCIe-bound while issuing
/// a handful of bursts instead of one request per chunk.
pub struct BurstLoadKernel {
    name: String,
    regions: Vec<Region>,
    /// Per-region data slices, in vector order.
    data: Vec<Vec<u64>>,
    next: usize,
    /// Cycle at which each region's last PCIe chunk has arrived.
    arrival: Vec<u64>,
    write_req: StreamRef<RegionWriteRequest>,
    pacing: Option<Rc<Cell<bool>>>,
}

impl BurstLoadKernel {
    /// Build a burst loader for `data` into `layout` on a `p`-row bank
    /// grid, with one PCIe chunk (`lanes` elements) arriving every
    /// `interval` cycles.
    pub fn new(
        name: impl Into<String>,
        layout: VectorLayout,
        p: usize,
        data: Vec<u64>,
        interval: u64,
        write_req: StreamRef<RegionWriteRequest>,
    ) -> Self {
        assert_eq!(data.len(), layout.len, "vector length mismatch");
        let name = name.into();
        let regions = vector_regions(&layout, p, &name);
        let interval = interval.max(1);
        let mut slices = Vec::with_capacity(regions.len());
        let mut arrival = Vec::with_capacity(regions.len());
        let mut offset = 0usize;
        let mut chunks_seen = 0u64;
        for r in &regions {
            let len = r.len();
            slices.push(data[offset..offset + len].to_vec());
            offset += len;
            chunks_seen += (len / layout.lanes) as u64;
            arrival.push(chunks_seen * interval);
        }
        Self {
            name,
            regions,
            data: slices,
            next: 0,
            arrival,
            write_req,
            pacing: None,
        }
    }

    /// Bursts still to send.
    pub fn remaining(&self) -> usize {
        self.regions.len() - self.next
    }

    /// Share a pacing flag with the downstream PolyMem kernel (see
    /// [`dfe_sim::polymem_kernel::PolyMemKernel::set_pcie_flag`]): raised
    /// while the next burst's tail chunk is still on the PCIe wire.
    pub fn set_pacing_flag(&mut self, flag: Rc<Cell<bool>>) {
        self.pacing = Some(flag);
    }

    fn set_pacing(&self, on: bool) {
        if let Some(f) = &self.pacing {
            f.set(on);
        }
    }
}

impl Kernel for BurstLoadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64) {
        if self.next >= self.regions.len() {
            self.set_pacing(false);
            return;
        }
        if cycle < self.arrival[self.next] {
            self.set_pacing(true);
            return; // the burst's tail chunk is still on the wire
        }
        self.set_pacing(false);
        if !self.write_req.borrow().can_push() {
            return;
        }
        let region = self.regions[self.next].clone();
        let values = std::mem::take(&mut self.data[self.next]);
        self.write_req.borrow_mut().push((region, values));
        self.next += 1;
    }

    fn is_idle(&self) -> bool {
        self.remaining() == 0
    }

    fn next_event(&self) -> Option<u64> {
        if self.next >= self.regions.len() {
            return None;
        }
        // Store-and-forward: the next burst is releasable exactly when its
        // tail chunk lands, a cycle known at construction time. An arrival
        // in the past (burst ready, blocked on FIFO room) degenerates to
        // per-cycle ticking.
        Some(self.arrival[self.next])
    }

    fn skip_to(&mut self, _from: u64, _to: u64) {
        // A skipped span sits strictly before the next burst's arrival
        // cycle — the ticked loop would have flagged PCIe pacing throughout.
        self.set_pacing(self.next < self.regions.len());
    }

    fn busy_reason(&self) -> Option<String> {
        if self.is_idle() {
            None
        } else {
            Some(format!("{} load bursts unsent", self.remaining()))
        }
    }

    fn endpoints(&self) -> Vec<Endpoint> {
        vec![Endpoint::output(&self.write_req)]
    }
}

/// Streams one vector out of PolyMem as **region read bursts** through the
/// kernel's region port, collecting the canonical-order elements.
pub struct BurstOffloadKernel {
    name: String,
    regions: Vec<Region>,
    expected: usize,
    issued: usize,
    collected: Vec<u64>,
    region_req: StreamRef<RegionRequest>,
    region_resp: StreamRef<RegionResponse>,
}

impl BurstOffloadKernel {
    /// Build a burst offloader for `layout` on a `p`-row bank grid, using
    /// the kernel's region port streams.
    pub fn new(
        name: impl Into<String>,
        layout: VectorLayout,
        p: usize,
        region_req: StreamRef<RegionRequest>,
        region_resp: StreamRef<RegionResponse>,
    ) -> Self {
        let name = name.into();
        let regions = vector_regions(&layout, p, &name);
        Self {
            name,
            regions,
            expected: layout.len,
            issued: 0,
            collected: Vec::with_capacity(layout.len),
            region_req,
            region_resp,
        }
    }

    /// Elements received so far.
    pub fn collected(&self) -> &[u64] {
        &self.collected
    }

    /// Take the full vector once complete.
    pub fn take(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.collected)
    }

    /// Whether the whole vector has been received.
    pub fn done(&self) -> bool {
        self.collected.len() >= self.expected
    }
}

impl Kernel for BurstOffloadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64) {
        if self.issued < self.regions.len() && self.region_req.borrow().can_push() {
            self.region_req
                .borrow_mut()
                .push(self.regions[self.issued].clone());
            self.issued += 1;
        }
        if let Some(burst) = self.region_resp.borrow_mut().pop() {
            self.collected.extend_from_slice(&burst);
        }
    }

    fn is_idle(&self) -> bool {
        self.done()
    }

    fn next_event(&self) -> Option<u64> {
        let can_issue = self.issued < self.regions.len() && self.region_req.borrow().can_push();
        if can_issue || !self.region_resp.borrow().is_empty() {
            Some(0)
        } else {
            None
        }
    }

    fn endpoints(&self) -> Vec<Endpoint> {
        vec![
            Endpoint::output(&self.region_req),
            Endpoint::input(&self.region_resp),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StreamLayout;
    use dfe_sim::manager::Manager;
    use dfe_sim::polymem_kernel::PolyMemKernel;
    use dfe_sim::stream::stream;
    use polymem::AccessScheme;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    fn build(
        n: usize,
    ) -> (
        StreamLayout,
        Vec<StreamRef<ReadRequest>>,
        Vec<StreamRef<ReadResponse>>,
        StreamRef<WriteRequest>,
        PolyMemKernel,
    ) {
        let layout = StreamLayout::new(n, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let rq: Vec<_> = (0..2).map(|p| stream(format!("rq{p}"), 8)).collect();
        let rs: Vec<_> = (0..2).map(|p| stream(format!("rs{p}"), 32)).collect();
        let wq = stream("wq", 8);
        let pm = PolyMemKernel::new(
            "pm",
            layout.config,
            14,
            rq.clone(),
            rs.clone(),
            Rc::clone(&wq),
        )
        .unwrap();
        (layout, rq, rs, wq, pm)
    }

    #[test]
    fn pcie_interval_math() {
        let link = PcieLink::vectis();
        // 64 B chunks at 120 MHz: 2 B/ns * 8.33 ns = 16.7 B/cycle -> 4 cycles.
        assert_eq!(pcie_chunk_interval(&link, 8, 120.0), 4);
        // Faster clock -> fewer bytes per cycle -> longer interval.
        assert!(pcie_chunk_interval(&link, 8, 240.0) >= 8);
    }

    #[test]
    fn load_streams_vector_through_write_port() {
        let n = 4 * 64;
        let (layout, _rq, _rs, wq, pm) = build(n);
        let data: Vec<u64> = (0..n as u64).map(|x| x * 7).collect();
        let mut mgr = Manager::new(120.0);
        mgr.add_kernel(Box::new(LoadKernel::new(
            "load-a",
            layout.a,
            data.clone(),
            4,
            Rc::clone(&wq),
        )));
        mgr.add_kernel(Box::new(pm));
        let cycles = mgr.run_until_idle(10_000);
        // PCIe-paced: 32 chunks at 1 per 4 cycles.
        assert!(
            cycles >= 4 * (n as u64 / 8 - 1),
            "load must be PCIe-bound, took {cycles}"
        );
        let _ = cycles;
    }

    #[test]
    fn load_then_offload_roundtrip() {
        let n = 4 * 64;
        let (layout, rq, rs, wq, mut pm) = build(n);
        let data: Vec<u64> = (0..n as u64).map(|x| x * 13 + 1).collect();
        // Load stage: tick loader + memory manually to keep ownership of pm.
        {
            let mut loader = LoadKernel::new("load-b", layout.b, data.clone(), 4, Rc::clone(&wq));
            let mut cycle = 0u64;
            while !(loader.is_idle() && pm.pipelines_empty()) {
                loader.tick(cycle);
                pm.tick(cycle);
                cycle += 1;
                assert!(cycle < 20_000);
            }
        }
        // Offload stage through port 1.
        let mut off = OffloadKernel::new("off-b", layout.b, Rc::clone(&rq[1]), Rc::clone(&rs[1]));
        let mut cycle = 100_000u64;
        while !off.done() {
            off.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 200_000);
        }
        assert_eq!(off.take(), data);
    }

    #[test]
    fn burst_load_is_pcie_paced_and_lands() {
        let n = 4 * 64;
        let (layout, _rq, _rs, _wq, mut pm) = build(n);
        let bwq = stream("bwq", 4);
        pm.attach_region_write_port(Rc::clone(&bwq));
        let data: Vec<u64> = (0..n as u64).map(|x| x * 3 + 2).collect();
        let mut loader = BurstLoadKernel::new("A", layout.a, layout.config.p, data.clone(), 4, bwq);
        assert_eq!(loader.remaining(), 1, "4 rows over p=2 is one Block burst");
        assert!(loader.busy_reason().is_some());
        let mut cycle = 0u64;
        while !(loader.is_idle() && pm.pipelines_empty()) {
            loader.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 20_000);
        }
        // Store-and-forward: the single burst waits for all 32 chunks at
        // one per 4 cycles.
        assert!(cycle >= 32 * 4, "load must stay PCIe-bound, took {cycle}");
        for (k, &want) in data.iter().enumerate() {
            let (i, j) = layout.a.coord(k);
            assert_eq!(pm.mem().get(i, j).unwrap(), want);
        }
        assert_eq!(pm.region_writes_served(), 1);
    }

    #[test]
    fn burst_load_then_burst_offload_roundtrip_ragged() {
        // 3 rows with p = 2 -> a Row cover: three bursts, each paced.
        let n = 3 * 64;
        let (layout, _rq, _rs, _wq, mut pm) = build(n);
        let bwq = stream("bwq", 4);
        let rreq = stream("rreq", 4);
        let rresp = stream("rresp", 2);
        pm.attach_region_write_port(Rc::clone(&bwq));
        pm.attach_region_port(Rc::clone(&rreq), Rc::clone(&rresp));
        let data: Vec<u64> = (0..n as u64).map(|x| x * 13 + 1).collect();
        let mut loader = BurstLoadKernel::new("B", layout.b, layout.config.p, data.clone(), 4, bwq);
        assert_eq!(loader.remaining(), 3);
        let mut cycle = 0u64;
        while !(loader.is_idle() && pm.pipelines_empty()) {
            loader.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 20_000);
        }
        let mut off = BurstOffloadKernel::new("B", layout.b, layout.config.p, rreq, rresp);
        let mut cycle = 100_000u64;
        while !off.done() {
            off.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 200_000);
        }
        assert_eq!(off.take(), data);
        assert_eq!(pm.region_reads_served(), 3);
    }

    #[test]
    fn pcie_pacing_attributed_to_pcie_not_idle() {
        let n = 4 * 64;
        let (layout, _rq, _rs, _wq, mut pm) = build(n);
        let bwq = stream("bwq", 4);
        pm.attach_region_write_port(Rc::clone(&bwq));
        let reg = polymem::TelemetryRegistry::new();
        pm.attach_telemetry(&reg);
        let pacing = Rc::new(Cell::new(false));
        pm.set_pcie_flag(Rc::clone(&pacing));
        let data: Vec<u64> = (0..n as u64).collect();
        let mut loader = BurstLoadKernel::new("A", layout.a, layout.config.p, data, 4, bwq);
        loader.set_pacing_flag(Rc::clone(&pacing));
        let mut cycle = 0u64;
        while !(loader.is_idle() && pm.pipelines_empty()) {
            loader.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 20_000);
        }
        let snap = reg.snapshot();
        let state = |s: &str| {
            snap.counter_value("dfe_kernel_cycles_total", &[("kernel", "pm"), ("state", s)])
                .unwrap_or(0)
        };
        // Store-and-forward: most of the load is spent waiting on the link.
        assert!(state("pcie") > 0, "pacing stalls must land in pcie");
        assert!(
            state("pcie") > state("idle"),
            "PCIe-bound load: pcie {} vs idle {}",
            state("pcie"),
            state("idle")
        );
        let total = state("active")
            + state("contention")
            + state("pipeline")
            + state("pcie")
            + state("idle");
        assert_eq!(total, cycle, "every tick lands in exactly one bucket");
    }

    #[test]
    fn offload_preserves_chunk_order() {
        let n = 2 * 64;
        let (layout, rq, rs, wq, mut pm) = build(n);
        // Fill via host port for speed.
        for k in 0..n {
            let (i, j) = layout.c.coord(k);
            pm.mem().set(i, j, k as u64).unwrap();
        }
        let _ = wq;
        let mut off = OffloadKernel::new("off-c", layout.c, Rc::clone(&rq[0]), Rc::clone(&rs[0]));
        let mut cycle = 0u64;
        while !off.done() {
            off.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 10_000);
        }
        assert_eq!(off.collected(), (0..n as u64).collect::<Vec<_>>());
    }
}
