//! The *modular* multi-kernel designs (paper §III-C).
//!
//! During development the authors first built PolyMem as separate kernels
//! "using a custom manager to connect the different modules", then fused it
//! when the modular version proved to cost ~2x the resources. This module
//! rebuilds that modular organisation on the simulator: the controller's
//! issue, compute and write parts (see [`crate::controller`]) each become
//! their own kernel, linked by streams — functionally identical to the
//! fused design, but with the extra inter-kernel FIFO hop the paper paid
//! area for (and, observable here, an extra pipeline cycle).
//! [`StreamApp::build`](crate::app::StreamApp::build) assembles both
//! modular designs ([`Design::Modular`](crate::app::Design::Modular),
//! per chunk, and [`Design::ModularBurst`](crate::app::Design::ModularBurst),
//! whole-region bursts) with the same load, measure, offload, telemetry,
//! tracing and scheduler as the fused ones. The resource side of the
//! comparison lives in `fpga_model::resources::DesignStyle`.

use crate::controller::{Controller, Part, StateRef};
use crate::op::StreamOp;
use std::rc::Rc;

/// One kernel per part of `parts` (issue, compute, write), returned in the
/// modular tick order: issue (ticked before the memory), then write, then
/// compute. That order registers the compute→write stream: a result
/// computed at cycle `c` is written at `c + 1`, modelling Maxeler's
/// registered inter-kernel links — the extra pipeline depth the modular
/// organisation pays.
pub(crate) fn split(
    prefix: &str,
    op: StreamOp,
    state: &StateRef,
    units: usize,
    per_unit: usize,
    parts: Vec<Box<dyn Part>>,
) -> Vec<Controller> {
    let Ok([issue, compute, write]) = <[_; 3]>::try_from(parts) else {
        unreachable!("a modular design splits issue, compute and write parts")
    };
    [("issue", issue), ("write", write), ("compute", compute)]
        .into_iter()
        .map(|(role, part)| {
            let name = format!("{prefix}-{role}");
            Controller::assemble(name, op, Rc::clone(state), units, per_unit, vec![part])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::app::{scalar_reference, Design, StreamApp, PAPER_STREAM_FREQ_MHZ};
    use crate::layout::StreamLayout;
    use crate::op::StreamOp;
    use dfe_sim::polymem_kernel::PAPER_READ_LATENCY;
    use polymem::AccessScheme;

    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|k| k as f64 * 0.75).collect();
        let b: Vec<f64> = (0..n).map(|k| ((k * 3) % 41) as f64).collect();
        let c: Vec<f64> = (0..n).map(|k| ((k * 11) % 29) as f64 - 5.0).collect();
        (a, b, c)
    }

    /// Load, run one pass of `design` and read back: (result, cycles).
    fn run(design: Design, op: StreamOp, n: usize) -> (Vec<f64>, u64) {
        let layout = StreamLayout::new(n, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::build(
            design,
            op,
            layout,
            PAPER_STREAM_FREQ_MHZ,
            PAPER_READ_LATENCY,
        )
        .unwrap();
        let (a, b, c) = vectors(n);
        app.load(&a, &b, &c).unwrap();
        let cycles = app.run_pass();
        assert!(app.errors().is_empty(), "memory errors: {:?}", app.errors());
        let (out, _) = app.offload();
        assert_eq!(
            out,
            scalar_reference(op, &a, &b, &c),
            "{design:?} {}",
            op.name()
        );
        (out, cycles)
    }

    const OPS: [StreamOp; 4] = [
        StreamOp::Copy,
        StreamOp::Scale(1.5),
        StreamOp::Sum,
        StreamOp::Triad(-0.5),
    ];

    #[test]
    fn modular_copy_matches_scalar_reference() {
        let n = 8 * 64;
        let (_, cycles) = run(Design::Modular, StreamOp::Copy, n);
        assert!(cycles as usize >= n / 8);
    }

    #[test]
    fn modular_all_ops_verified() {
        for op in OPS {
            run(Design::Modular, op, 4 * 64);
        }
    }

    #[test]
    fn modular_burst_all_ops_verified() {
        for op in OPS {
            run(Design::ModularBurst, op, 4 * 64);
        }
    }

    #[test]
    fn modular_burst_keeps_the_cycle_model() {
        // The burst variant pays the same ceil(len/lanes) access cycles per
        // burst plus a constant number of inter-kernel hops: within a small
        // constant of the per-chunk modular chain.
        let (_, chunked) = run(Design::Modular, StreamOp::Copy, 16 * 64);
        let (_, burst) = run(Design::ModularBurst, StreamOp::Copy, 16 * 64);
        assert!(
            burst.abs_diff(chunked) <= 25,
            "burst {burst} vs per-chunk {chunked} modular cycles"
        );
    }

    #[test]
    fn modular_costs_more_cycles_than_fused() {
        // The fused controller computes and writes in the same kernel; the
        // modular chain adds an inter-kernel FIFO hop (the cycle-side
        // analogue of the paper's 2x resource observation).
        let (_, fused) = run(Design::Fused, StreamOp::Copy, 16 * 64);
        let (_, modular) = run(Design::Modular, StreamOp::Copy, 16 * 64);
        assert!(
            modular > fused,
            "modular {modular} should exceed fused {fused}"
        );
        // But the overhead is a constant pipeline depth, not a throughput
        // loss: within a few cycles plus the same chunk count.
        assert!(modular < fused + 20);
    }
}
