//! Failure-injection tests: every defended failure mode across the crates
//! must be *detected and reported*, never silently corrupting data — the
//! property that separates a memory you can trust from one you can only
//! hope about.

use polymem::{
    AccessPattern, AccessScheme, ConcurrentPolyMem, Crossbar, ParallelAccess, PolyMem,
    PolyMemConfig, PolyMemError, Region, RegionShape,
};

#[test]
fn corrupted_shuffle_route_is_detected() {
    // A broken MAF (two lanes steered to one bank) must surface as
    // BankConflict from the crossbar, the hardware bus-fight analogue.
    let mut xb = Crossbar::new(8);
    let mut route: Vec<usize> = (0..8).collect();
    route[5] = route[2]; // the fault
    let mut out = vec![0u64; 8];
    let err = xb.scatter(&[0; 8], &route, &mut out).unwrap_err();
    match err {
        PolyMemError::BankConflict {
            bank,
            lane_a,
            lane_b,
        } => {
            assert_eq!(bank, 2);
            assert_eq!((lane_a, lane_b), (2, 5));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn unsupported_patterns_rejected_not_corrupted() {
    // Issuing a conflicting pattern must fail cleanly and leave memory
    // contents intact.
    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::ReO, 1).unwrap();
    let mut mem = PolyMem::<u64>::new(cfg).unwrap();
    let data: Vec<u64> = (0..256).collect();
    mem.load_row_major(&data).unwrap();
    let before = mem.dump_row_major();
    assert!(mem.write(ParallelAccess::row(0, 0), &[9; 8]).is_err());
    assert!(mem
        .write(
            ParallelAccess::new(0, 0, AccessPattern::MainDiagonal),
            &[9; 8]
        )
        .is_err());
    assert_eq!(
        mem.dump_row_major(),
        before,
        "failed writes must not commit"
    );
}

#[test]
fn out_of_bounds_access_reports_offender() {
    let cfg = PolyMemConfig::new(8, 16, 2, 4, AccessScheme::ReRo, 1).unwrap();
    let mut mem = PolyMem::<u64>::new(cfg).unwrap();
    match mem.read(0, ParallelAccess::row(7, 10)).unwrap_err() {
        PolyMemError::OutOfBounds { i, j, rows, cols } => {
            assert_eq!((i, j), (7, 17));
            assert_eq!((rows, cols), (8, 16));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn oversize_regions_are_out_of_bounds_not_aborts() {
    // Region extents are checked against the logical space before any
    // plan is compiled or any buffer is sized by the region, so shapes
    // far larger than the memory — or origins near usize::MAX — fail with
    // OutOfBounds instead of overflowing or exhausting the allocator.
    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::ReRo, 1).unwrap();
    let mut seq = PolyMem::<u64>::new(cfg).unwrap();
    let conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    let data: Vec<u64> = (0..256).collect();
    seq.load_row_major(&data).unwrap();
    let shapes = [
        RegionShape::Row { len: 1 << 40 },
        RegionShape::Block {
            rows: 1 << 16,
            cols: 1 << 16,
        },
        RegionShape::Row { len: 8 },
        RegionShape::SecondaryDiag { len: 8 },
    ];
    let origins = [
        (0, 0),
        (usize::MAX - 3, 0),
        (0, usize::MAX - 3),
        (usize::MAX, usize::MAX),
    ];
    let ok = Region::new("ok", 0, 8, RegionShape::Row { len: 8 });
    let oob = |r: polymem::Result<()>| matches!(r, Err(PolyMemError::OutOfBounds { .. }));
    for shape in shapes {
        for (i, j) in origins {
            let bad = Region::new("bad", i, j, shape);
            if (shape, i, j) == (RegionShape::Row { len: 8 }, 0, 0) {
                // The sweep's one legal placement. The secondary diagonal
                // at the origin reaches left of column 0, so it stays in.
                continue;
            }
            let ctx = format!("{shape:?} at ({i}, {j})");
            assert!(oob(seq.read_region(0, &bad).map(|_| ())), "seq read {ctx}");
            assert!(oob(seq.write_region(&bad, &[7; 8])), "seq write {ctx}");
            assert!(oob(seq.copy_region(0, &bad, &ok)), "seq copy from {ctx}");
            assert!(oob(seq.copy_region(0, &ok, &bad)), "seq copy to {ctx}");
            assert!(oob(conc.read_region(&bad).map(|_| ())), "conc read {ctx}");
            assert!(oob(conc.write_region(&bad, &[7; 8])), "conc write {ctx}");
            assert!(oob(conc.copy_region(&bad, &ok)), "conc copy from {ctx}");
            assert!(oob(conc.copy_region(&ok, &bad)), "conc copy to {ctx}");
        }
    }
    assert_eq!(
        seq.dump_row_major(),
        data,
        "failed region ops must not commit"
    );
    assert_eq!(
        seq.region_plan_stats().misses,
        1,
        "only the load compiled a plan"
    );
    assert_eq!(
        conc.region_plan_stats().misses,
        0,
        "no plan compiled for a bad region"
    );
}

#[test]
fn sim_kernel_surfaces_invalid_requests_and_keeps_running() {
    // A bad request in the stream must not wedge the pipeline: later valid
    // requests still complete, and the error is recorded.
    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
    let rq = vec![dfe_sim::stream("rq", 16)];
    let rs = vec![dfe_sim::stream("rs", 16)];
    let wq = dfe_sim::stream("wq", 16);
    let mut kernel = dfe_sim::PolyMemKernel::new(
        "pm",
        cfg,
        2,
        rq.clone(),
        rs.clone(),
        std::rc::Rc::clone(&wq),
    )
    .unwrap();
    for i in 0..16 {
        for j in 0..16 {
            kernel.mem().set(i, j, (i + j) as u64).unwrap();
        }
    }
    rq[0].borrow_mut().push(ParallelAccess::rect(1, 1)); // misaligned RoCo rect
    rq[0].borrow_mut().push(ParallelAccess::row(3, 0)); // valid
    let mut mgr = dfe_sim::Manager::new(100.0);
    mgr.add_kernel(Box::new(kernel));
    mgr.run_until_idle(100);
    assert_eq!(rs[0].borrow().len(), 1, "valid request must still complete");
}

#[test]
fn fifo_overflow_is_backpressure_not_loss() {
    let s = dfe_sim::stream::<u64>("s", 2);
    assert!(s.borrow_mut().push(1));
    assert!(s.borrow_mut().push(2));
    assert!(!s.borrow_mut().push(3), "overflow rejected");
    let stats = dfe_sim::stream_stats(&s);
    assert_eq!(stats.stalls, 1);
    assert_eq!(stats.pushed, 2, "no phantom element");
    assert_eq!(s.borrow_mut().pop(), Some(1));
    assert_eq!(s.borrow_mut().pop(), Some(2));
    assert_eq!(s.borrow_mut().pop(), None);
}

#[test]
fn concurrent_memory_rejects_same_faults_as_sequential() {
    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let conc = polymem::ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    let mut seq = PolyMem::<u64>::new(cfg).unwrap();
    let bad = [
        ParallelAccess::rect(1, 1),
        ParallelAccess::new(0, 0, AccessPattern::MainDiagonal),
        ParallelAccess::row(15, 12),
    ];
    for access in bad {
        let a = conc.read(access).err();
        let b = seq.read(0, access).err();
        assert_eq!(a, b, "error parity for {access:?}");
    }
}

#[test]
fn scheduler_reports_uncoverable_traces() {
    use scheduler::{solve_exact, solve_greedy, AccessTrace, CoverInstance};
    // An element outside the memory's logical space cannot be covered.
    let trace = AccessTrace::from_coords([(0, 0), (50, 50)]);
    let inst = CoverInstance::build(trace, AccessScheme::ReO, 2, 4, 8, 8);
    assert!(!solve_greedy(&inst).complete);
    let exact = solve_exact(&inst, 10_000);
    assert!(!exact.schedule.complete);
    assert_eq!(scheduler::lower_bound(&inst), usize::MAX);
}

#[test]
fn stream_app_panics_on_wedged_pipeline_with_diagnostics() {
    // Force a wedge: an app whose controller is never armed cannot wedge
    // (pass_done is immediately true), but a latency larger than the
    // response FIFO would deadlock a naive design. Our response FIFO is
    // sized latency + 8, so a huge latency still drains — and the wedge
    // cap grows with the latency instead of mistaking a long fill for a
    // wedge; verify both, in every design.
    use stream_bench::{Design, StreamApp, StreamLayout, StreamOp};
    let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let a: Vec<f64> = (0..512).map(|k| k as f64).collect();
    let z = vec![0.0; 512];
    for (design, latency) in [(Design::Fused, 300)]
        .into_iter()
        .chain(Design::ALL.map(|d| (d, 2000)))
    {
        let mut app = StreamApp::build(design, StreamOp::Copy, layout, 120.0, latency).unwrap();
        app.load(&a, &z, &z).unwrap();
        let t = app.measure(1);
        assert!(
            t.cycles_per_run > latency,
            "{design:?}: latency dominates a short run"
        );
        let (out, _) = app.offload();
        assert_eq!(out, a, "{design:?} at latency {latency}");
    }
}

#[test]
fn stream_app_load_rejects_wrong_lengths_without_writing() {
    // Hostile vector lengths must come back as the same error a
    // wrong-length region write gets, with memory untouched — even when
    // the bad vector comes after a good one.
    use stream_bench::{StreamApp, StreamLayout, StreamOp};
    let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let mut app = StreamApp::new(StreamOp::Copy, layout, 120.0).unwrap();
    let good = vec![1.5; 512];
    let zeros = vec![0.0; 512];
    app.load(&zeros, &zeros, &zeros).unwrap();
    for (a, b, c) in [
        (&good[..], &good[..], &good[..100]),
        (&good[..], &good[..0], &good[..]),
        (&[0.0; 513][..], &good[..], &good[..]),
    ] {
        let bad = [a, b, c].iter().find(|v| v.len() != 512).unwrap().len();
        assert!(matches!(
            app.load(a, b, c),
            Err(PolyMemError::WrongLaneCount { got, expected: 512 }) if got == bad
        ));
    }
    assert_eq!(app.offload().0, zeros, "C untouched");
    app.run_pass();
    assert_eq!(app.offload().0, zeros, "A untouched (Copy moved it into C)");
}

#[test]
fn synthesis_flags_impossible_configs_instead_of_lying() {
    use fpga_model::calibration::config_for;
    let r = fpga_model::synthesize_vectis(&config_for(4096, 16, 4, AccessScheme::ReO));
    assert!(!r.feasible);
    assert!(r.utilization.bram_pct > 100.0, "the report shows *why*");
}
