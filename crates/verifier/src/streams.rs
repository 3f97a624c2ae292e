//! Static stream-graph deadlock-freedom pass over the live STREAM wiring.
//!
//! Every STREAM design is assembled and its stream graph read off the
//! kernels that would run it ([`StreamApp::stream_graph`],
//! [`Manager::stream_graph`]): each kernel reports the streams it holds and
//! whether it pushes from a pipeline register, and
//! [`dfe_sim::kernel::stream_graph`] joins the reports by FIFO identity into
//! producer→consumer edges. A kernel blocked popping an empty stream is
//! waiting on the stream's producer, so each *unregistered* edge
//! contributes a consumer→producer wait edge; a cycle in that wait graph
//! is a design that can wedge with every queue empty and every kernel
//! waiting — the event scheduler's `Stuck` fast-path, forever. Registered
//! edges (PolyMem's read delay lines and burst engines) are excluded
//! because the register drains on its own: whatever is already in flight
//! arrives without the waiting kernel doing anything.
//!
//! Checked: the four Fig. 9 compute designs at the paper geometry, each
//! built for a 1-read (Copy) and a 2-read (Triad) op so every port a design
//! can drive appears, and the staged Load → PolyMem → Offload chain in both
//! flavours.
//!
//! The pass is the same shape as the lock-order analysis
//! ([`crate::locks`]): build a small adjacency matrix, close it with
//! Floyd–Warshall, and read deadlocks off the diagonal. It hard-fails
//! (`scanner-blind`) if a live graph is empty, so kernels that stop
//! reporting their endpoints cannot silently pass.

use crate::findings::{Finding, Severity};
use dfe_sim::kernel::{Kernel, StreamEdge};
use dfe_sim::manager::Manager;
use dfe_sim::pcie::PcieLink;
use dfe_sim::polymem_kernel::{PolyMemKernel, PAPER_READ_LATENCY};
use dfe_sim::stream::stream;
use std::rc::Rc;
use stream_bench::staged::{
    pcie_chunk_interval, BurstLoadKernel, BurstOffloadKernel, LoadKernel, OffloadKernel,
};
use stream_bench::{Design, StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

/// Per-design summary for the report.
#[derive(Debug, Clone)]
pub struct GraphReport {
    /// Which design flavour was checked.
    pub label: &'static str,
    /// Distinct kernels in the graph.
    pub kernels: usize,
    /// Producer→consumer stream edges.
    pub streams: usize,
    /// Streams whose path crosses a pipeline register.
    pub registered: usize,
    /// Whether a wait-cycle was found.
    pub cyclic: bool,
}

/// Check one live graph for wait-cycles and wiring drift.
pub fn check_graph(
    label: &'static str,
    edges: &[StreamEdge],
    findings: &mut Vec<Finding>,
) -> GraphReport {
    if edges.is_empty() {
        findings.push(Finding::new(
            "streams",
            Severity::Error,
            "scanner-blind",
            label,
            "live stream graph is empty — the design's kernels report no endpoints and \
             the deadlock pass is proving nothing",
        ));
        return GraphReport {
            label,
            kernels: 0,
            streams: 0,
            registered: 0,
            cyclic: false,
        };
    }

    // Wiring drift checks: a FIFO with two producers or two consumers
    // interleaves two kernels' traffic in one queue, and a response path
    // that lost its register is exactly how a real cycle sneaks in.
    for (n, e) in edges.iter().enumerate() {
        if edges[..n].iter().any(|prev| prev.fifo == e.fifo) {
            findings.push(Finding::new(
                "streams",
                Severity::Warning,
                "stream-aliasing",
                label,
                format!(
                    "stream `{}` has more than one producer or consumer",
                    e.stream
                ),
            ));
        }
        if e.stream.contains("-resp") && !e.registered {
            findings.push(Finding::new(
                "streams",
                Severity::Warning,
                "unregistered-response",
                label,
                format!(
                    "response stream `{}` is unregistered — PolyMem response paths \
                     cross its read delay line",
                    e.stream
                ),
            ));
        }
    }

    // Index the kernels and build the wait adjacency (consumer waits on
    // producer) over unregistered edges only.
    let mut kernels: Vec<&str> = Vec::new();
    for e in edges {
        for k in [e.producer.as_str(), e.consumer.as_str()] {
            if !kernels.contains(&k) {
                kernels.push(k);
            }
        }
    }
    let n = kernels.len();
    let idx = |name: &str| kernels.iter().position(|k| *k == name).unwrap();
    let mut reach = vec![vec![false; n]; n];
    for e in edges.iter().filter(|e| !e.registered) {
        reach[idx(&e.consumer)][idx(&e.producer)] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
            }
        }
    }

    let looped: Vec<&str> = (0..n)
        .filter(|&i| reach[i][i])
        .map(|i| kernels[i])
        .collect();
    let cyclic = !looped.is_empty();
    if cyclic {
        let culprits: Vec<&str> = edges
            .iter()
            .filter(|e| {
                !e.registered
                    && looped.contains(&e.producer.as_str())
                    && looped.contains(&e.consumer.as_str())
            })
            .map(|e| e.stream.as_str())
            .collect();
        findings.push(Finding::new(
            "streams",
            Severity::Error,
            "cyclic-wait",
            label,
            format!(
                "kernels {{{}}} can each wait on themselves through unregistered streams \
                 {{{}}}: with every queue empty nothing ever unblocks (static deadlock)",
                looped.join(", "),
                culprits.join(", "),
            ),
        ));
    }

    GraphReport {
        label,
        kernels: n,
        streams: edges.len(),
        registered: edges.iter().filter(|e| e.registered).count(),
        cyclic,
    }
}

/// Check every STREAM design's live graph: the four compute designs at
/// the paper geometry and both staged chains.
pub fn check_all(findings: &mut Vec<Finding>) -> Vec<GraphReport> {
    let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN);
    let designs = [
        (Design::Fused, "fused per-chunk STREAM design"),
        (Design::FusedBurst, "fused region-burst STREAM design"),
        (Design::Modular, "modular per-chunk STREAM design"),
        (Design::ModularBurst, "modular region-burst STREAM design"),
    ];
    let mut reports: Vec<GraphReport> = designs
        .into_iter()
        .map(|(design, label)| {
            // Both apps stay alive while their graphs are joined: FIFO
            // identity is an address, unique only among live streams.
            let apps: Vec<StreamApp> = [StreamOp::Copy, StreamOp::Triad(2.0)]
                .into_iter()
                .filter_map(|op| {
                    let l = layout.clone().ok()?;
                    StreamApp::build(design, op, l, PAPER_STREAM_FREQ_MHZ, PAPER_READ_LATENCY).ok()
                })
                .collect();
            let graph: Vec<StreamEdge> = apps.iter().flat_map(StreamApp::stream_graph).collect();
            check_graph(label, &graph, findings)
        })
        .collect();
    for (burst, label) in [
        (false, "staged load/offload chain"),
        (true, "staged burst load/offload chain"),
    ] {
        let graph = layout
            .clone()
            .and_then(|l| staged_chain(&l, burst))
            .map(|m| m.stream_graph())
            .unwrap_or_default();
        reports.push(check_graph(label, &graph, findings));
    }
    reports
}

/// The staged Fig. 9 data path under a [`Manager`]: a PCIe-paced loader
/// fills vector A through the memory's write port (region-write port for
/// `burst`), and an offloader drains it through read port 1 (the region
/// port).
fn staged_chain(layout: &StreamLayout, burst: bool) -> polymem::Result<Manager> {
    let rq: Vec<_> = (0..layout.config.read_ports)
        .map(|p| stream(format!("read-req-{p}"), 8))
        .collect();
    let rs: Vec<_> = (0..layout.config.read_ports)
        .map(|p| stream(format!("read-resp-{p}"), 32))
        .collect();
    let wq = stream("write-req", 8);
    let mut pm = PolyMemKernel::new(
        "polymem",
        layout.config,
        PAPER_READ_LATENCY,
        rq.clone(),
        rs.clone(),
        Rc::clone(&wq),
    )?;
    let (p, data) = (layout.config.p, vec![0; layout.a.len]);
    let interval = pcie_chunk_interval(
        &PcieLink::vectis(),
        layout.config.lanes(),
        PAPER_STREAM_FREQ_MHZ,
    );
    let (load, offload): (Box<dyn Kernel>, Box<dyn Kernel>) = if burst {
        let (write, req, resp) = (
            stream("region-write-req", 2),
            stream("region-req", 4),
            stream("region-resp", 2),
        );
        pm.attach_region_write_port(Rc::clone(&write));
        pm.attach_region_port(Rc::clone(&req), Rc::clone(&resp));
        (
            Box::new(BurstLoadKernel::new(
                "load-A", layout.a, p, data, interval, write,
            )),
            Box::new(BurstOffloadKernel::new("offload-A", layout.a, p, req, resp)),
        )
    } else {
        (
            Box::new(LoadKernel::new("load-A", layout.a, data, interval, wq)),
            Box::new(OffloadKernel::new(
                "offload-A",
                layout.a,
                Rc::clone(&rq[1]),
                Rc::clone(&rs[1]),
            )),
        )
    };
    let mut manager = Manager::new(PAPER_STREAM_FREQ_MHZ);
    manager.add_kernel(load);
    manager.add_kernel(Box::new(pm));
    manager.add_kernel(offload);
    Ok(manager)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTROLLER: &str = "stream-controller";
    const POLYMEM: &str = "polymem";

    fn edge(fifo: usize, stream: &str, producer: &str, consumer: &str, reg: bool) -> StreamEdge {
        StreamEdge {
            fifo,
            stream: stream.to_string(),
            producer: producer.to_string(),
            consumer: consumer.to_string(),
            registered: reg,
        }
    }

    #[test]
    fn declared_designs_are_deadlock_free() {
        let mut findings = Vec::new();
        let reports = check_all(&mut findings);
        assert_eq!(reports.len(), 6);
        assert!(findings.is_empty(), "{findings:#?}");
        for r in &reports {
            assert!(!r.cyclic);
            assert!(r.registered > 0, "{}: no registered feedback path", r.label);
        }
    }

    #[test]
    fn unregistered_feedback_is_a_cycle() {
        // Strip the register off the response path: controller waits on
        // polymem for the response, polymem waits on the controller for
        // the request — a wedge.
        let g = vec![
            edge(1, "req", CONTROLLER, POLYMEM, false),
            edge(2, "resp", POLYMEM, CONTROLLER, false),
        ];
        let mut findings = Vec::new();
        let r = check_graph("injected", &g, &mut findings);
        assert!(r.cyclic);
        assert!(findings.iter().any(|f| f.code == "cyclic-wait"));
    }

    #[test]
    fn registered_feedback_is_not_a_cycle() {
        let g = vec![
            edge(1, "req", CONTROLLER, POLYMEM, false),
            edge(2, "resp", POLYMEM, CONTROLLER, true),
        ];
        let mut findings = Vec::new();
        let r = check_graph("ok", &g, &mut findings);
        assert!(!r.cyclic);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn empty_graph_is_scanner_blind() {
        let mut findings = Vec::new();
        check_graph("empty", &[], &mut findings);
        assert!(findings.iter().any(|f| f.code == "scanner-blind"));
    }

    #[test]
    fn drift_warnings_fire() {
        let g = vec![
            // One FIFO, two consumers.
            edge(7, "x-resp", POLYMEM, CONTROLLER, false),
            edge(7, "x-resp", POLYMEM, "other", true),
        ];
        let mut findings = Vec::new();
        check_graph("drift", &g, &mut findings);
        assert!(findings.iter().any(|f| f.code == "stream-aliasing"));
        assert!(findings.iter().any(|f| f.code == "unregistered-response"));
    }
}
