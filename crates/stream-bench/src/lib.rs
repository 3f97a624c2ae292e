//! # polymem-stream-bench — the STREAM benchmark on MAX-PolyMem
//!
//! A faithful model of the paper's Fig. 9 design: a host-orchestrated
//! STREAM benchmark whose vectors live in PolyMem's three regions and whose
//! compute stage streams one 8-element chunk per cycle through the memory's
//! read port(s), feeding the write port from the memory's own output.
//!
//! * [`layout`] — vector placement (the paper's exact 170 x 512 x 8 B
//!   geometry is [`StreamLayout::paper_geometry`](layout::StreamLayout::paper_geometry));
//! * [`op`] — Copy (measured in the paper), Scale, Sum, Triad (the paper's
//!   future work, implemented as the extension);
//! * [`controller`] — the Fig. 9 Controller as a simulator kernel, built
//!   from a pass's issue, compute and write parts;
//! * [`burst`] — the region-burst parts: whole-region bursts on the
//!   PolyMem kernel's region/copy/write ports instead of per-chunk
//!   requests, with identical cycle accounting;
//! * [`modular`] — the §III-C modular designs: one kernel per part;
//! * [`region_copy`] — STREAM-Copy as whole-vector region copies (compiled
//!   region plans vs the per-access baseline);
//! * [`probe`] — a headless one-call burst-Copy harness for design-space
//!   sweeps (measured cycles per configuration, any scheme);
//! * [`app`] — one assembly for all four compute designs (fused or
//!   modular, per chunk or burst) with Load / Compute / Offload staging,
//!   the paper's measurement methodology (1000 blocking runs, ~300 ns
//!   host-call overhead, 14-cycle read latency) and the design's live
//!   stream graph, derived from the kernels that run;
//! * [`staged`] — Load and Offload as simulated kernels on the memory's
//!   ports;
//! * [`report`] — STREAM-standard output and the Fig. 10 series.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod burst;
pub mod controller;
pub mod layout;
pub mod modular;
pub mod op;
pub mod probe;
pub mod region_copy;
pub mod report;
pub mod staged;

pub use app::{scalar_reference, Design, StageTiming, StreamApp, PAPER_STREAM_FREQ_MHZ};
pub use controller::{Controller, ControllerState};
pub use layout::{StreamLayout, VectorLayout};
pub use op::StreamOp;
pub use probe::{probe_burst_copy, ProbeResult};
pub use region_copy::{vector_regions, RegionCopy};
pub use report::{fig10_default_sizes, fig10_series, fig10_series_burst, Fig10Point, StreamRow};
pub use staged::{
    pcie_chunk_interval, BurstLoadKernel, BurstOffloadKernel, LoadKernel, OffloadKernel,
};
