//! Parity and race tests for `ConcurrentPolyMem::copy_region`.
//!
//! The concurrent burst copy (port-sharded gather + per-bank merged
//! writes, or the per-access loop for overlap and cross-shape) must be
//! observationally identical to the sequential `PolyMem::copy_region`
//! for every scheme and every supported region pair — including the
//! error cases — and must never expose torn values to racing readers.

use polymem::{
    AccessScheme, ConcurrentPolyMem, PolyMem, PolyMemConfig, Region, RegionShape, TelemetryRegistry,
};

const ROWS: usize = 16;
const COLS: usize = 16;

fn filled_pair(scheme: AccessScheme) -> (PolyMem<u64>, ConcurrentPolyMem<u64>) {
    let cfg = PolyMemConfig::new(ROWS, COLS, 2, 4, scheme, 4).unwrap();
    let mut seq = PolyMem::new(cfg).unwrap();
    let conc = ConcurrentPolyMem::new(cfg).unwrap();
    for r in 0..ROWS {
        for c in 0..COLS {
            seq.set(r, c, (r * COLS + c) as u64).unwrap();
            conc.set(r, c, (r * COLS + c) as u64).unwrap();
        }
    }
    (seq, conc)
}

fn candidate_pairs() -> Vec<(Region, Region)> {
    let b =
        |name: &str, i, j, rows, cols| Region::new(name, i, j, RegionShape::Block { rows, cols });
    vec![
        // Disjoint same-shape pairs, one per shape.
        (
            Region::new("s", 1, 0, RegionShape::Row { len: 8 }),
            Region::new("d", 9, 8, RegionShape::Row { len: 8 }),
        ),
        (
            Region::new("s", 0, 2, RegionShape::Col { len: 16 }),
            Region::new("d", 0, 11, RegionShape::Col { len: 16 }),
        ),
        (b("s", 2, 0, 4, 8), b("d", 10, 8, 4, 8)),
        (
            Region::new("s", 0, 0, RegionShape::MainDiag { len: 8 }),
            Region::new("d", 8, 8, RegionShape::MainDiag { len: 8 }),
        ),
        (
            Region::new("s", 0, 7, RegionShape::SecondaryDiag { len: 8 }),
            Region::new("d", 8, 15, RegionShape::SecondaryDiag { len: 8 }),
        ),
        // Overlapping blocks: interleaved fallback must match the
        // sequential per-access order exactly.
        (b("s", 2, 0, 4, 8), b("d", 4, 0, 4, 8)),
        (b("s", 4, 0, 4, 8), b("d", 2, 0, 4, 8)),
        // Adjacent (touching, non-overlapping) blocks.
        (b("s", 0, 0, 4, 8), b("d", 4, 0, 4, 8)),
        (b("s", 0, 0, 4, 8), b("d", 0, 8, 4, 8)),
        // Cross-shape: row strip into column strip (positional pairing).
        (
            Region::new("s", 1, 0, RegionShape::Row { len: 8 }),
            Region::new("d", 0, 11, RegionShape::Col { len: 8 }),
        ),
        // Self-copy: degenerate full overlap must be an identity.
        (b("s", 2, 4, 4, 8), b("d", 2, 4, 4, 8)),
    ]
}

/// For every scheme and every candidate pair, the concurrent burst copy
/// agrees with the sequential planned copy — on success *and* on error.
#[test]
fn parity_with_sequential_copy_region_across_schemes() {
    let mut successes = 0usize;
    for scheme in AccessScheme::ALL {
        for (src, dst) in candidate_pairs() {
            let (mut seq, conc) = filled_pair(scheme);
            let seq_res = seq.copy_region(0, &src, &dst);
            let conc_res = conc.copy_region(&src, &dst);
            match seq_res {
                Ok(()) => {
                    assert!(
                        conc_res.is_ok(),
                        "{scheme:?} {src:?}->{dst:?}: sequential ok, concurrent {conc_res:?}"
                    );
                    for r in 0..ROWS {
                        for c in 0..COLS {
                            assert_eq!(
                                seq.get(r, c).unwrap(),
                                conc.get(r, c).unwrap(),
                                "{scheme:?} {src:?}->{dst:?} at ({r},{c})"
                            );
                        }
                    }
                    successes += 1;
                }
                Err(_) => assert!(
                    conc_res.is_err(),
                    "{scheme:?} {src:?}->{dst:?}: sequential err, concurrent ok"
                ),
            }
        }
    }
    assert!(
        successes >= 20,
        "too few supported pairs actually exercised: {successes}"
    );
}

/// A shape-count mismatch is rejected identically to the sequential path.
#[test]
fn shape_mismatch_rejected() {
    let (_, conc) = filled_pair(AccessScheme::RoCo);
    let src = Region::new("s", 0, 0, RegionShape::Row { len: 16 });
    let dst = Region::new("d", 0, 0, RegionShape::Col { len: 8 });
    let err = conc.copy_region(&src, &dst).unwrap_err();
    assert!(
        format!("{err}").contains("decomposes into"),
        "unexpected error: {err}"
    );
}

/// A region big enough to take the port-sharded gather and the spawned
/// per-bank scatter path still matches the sequential copy.
#[test]
fn large_copy_takes_sharded_path_and_matches() {
    let n = 64usize;
    let cfg = PolyMemConfig::new(n, n, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let mut seq = PolyMem::<u64>::new(cfg).unwrap();
    let conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    for r in 0..n {
        for c in 0..n {
            seq.set(r, c, (r * n + c) as u64).unwrap();
            conc.set(r, c, (r * n + c) as u64).unwrap();
        }
    }
    let src = Region::new("s", 0, 0, RegionShape::Block { rows: 32, cols: 64 });
    let dst = Region::new("d", 32, 0, RegionShape::Block { rows: 32, cols: 64 });
    seq.copy_region(0, &src, &dst).unwrap();
    // Reuse one scratch buffer across two bursts: steady state allocates
    // nothing beyond the first call.
    let mut scratch = Vec::new();
    conc.copy_region_with(&src, &dst, &mut scratch).unwrap();
    conc.copy_region_with(&src, &dst, &mut scratch).unwrap();
    for r in 0..n {
        for c in 0..n {
            assert_eq!(seq.get(r, c).unwrap(), conc.get(r, c).unwrap(), "({r},{c})");
        }
    }
}

/// Readers racing a burst copy must only ever observe whole element
/// values — the pre-copy value or one of the two source fills, never a
/// torn mix.
#[test]
fn racing_reader_sees_no_torn_writes() {
    let cfg = PolyMemConfig::new(ROWS, COLS, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    let src1 = Region::new("s1", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
    let src2 = Region::new("s2", 0, 8, RegionShape::Block { rows: 4, cols: 8 });
    let dst = Region::new("d", 8, 0, RegionShape::Block { rows: 4, cols: 8 });
    for r in 0..4 {
        for c in 0..8 {
            conc.set(r, c, 7).unwrap();
            conc.set(r, 8 + c, 13).unwrap();
        }
    }
    let bad = std::sync::atomic::AtomicU64::new(0);
    crossbeam::scope(|s| {
        let m = &conc;
        let badr = &bad;
        let dref = &dst;
        s.spawn(move |_| {
            for k in 0..300 {
                let from = if k % 2 == 0 { &src1 } else { &src2 };
                m.copy_region(from, dref).unwrap();
            }
        });
        s.spawn(move |_| {
            for _ in 0..300 {
                for v in m.read_region(dref).unwrap() {
                    if v != 0 && v != 7 && v != 13 {
                        badr.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
        });
    })
    .unwrap();
    assert_eq!(bad.load(std::sync::atomic::Ordering::Relaxed), 0);
    // The writer finished last on an alternating fill: dst is uniform.
    let last = conc.read_region(&dst).unwrap();
    assert!(last.iter().all(|&v| v == last[0]), "{last:?}");
}

/// Telemetry counters are exact under concurrency: two threads hammering
/// disjoint burst copies must land *every* increment (the counters are
/// real read-modify-write atomics, unlike the sequential memory's
/// single-writer fast path), and the per-bank samples must come out
/// uniform — the conflict-freedom theorem made observable.
#[test]
#[cfg(not(feature = "telemetry-off"))]
fn concurrent_copies_produce_exact_deterministic_counts() {
    let cfg = PolyMemConfig::new(ROWS, COLS, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let mut conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    let registry = TelemetryRegistry::new();
    conc.attach_telemetry(&registry);
    let src = Region::new("s", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d1 = Region::new("d1", 8, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d2 = Region::new("d2", 12, 8, RegionShape::Block { rows: 4, cols: 8 });
    const ITERS: u64 = 50;
    crossbeam::scope(|s| {
        let m = &conc;
        let (sr, d1r, d2r) = (&src, &d1, &d2);
        s.spawn(move |_| {
            for _ in 0..ITERS {
                m.copy_region(sr, d1r).unwrap();
            }
        });
        s.spawn(move |_| {
            for _ in 0..ITERS {
                m.copy_region(sr, d2r).unwrap();
            }
        });
    })
    .unwrap();
    let snap = registry.snapshot();
    let count = |name: &str| snap.counter_value(name, &[]).unwrap();
    // Each copy moves a 32-element region in 4 conflict-free accesses
    // (p*q = 8 lanes), read side and write side both.
    let copies = 2 * ITERS;
    let (len, accesses) = (32, 4);
    assert_eq!(count("polymem_conc_elements_read_total"), copies * len);
    assert_eq!(count("polymem_conc_elements_written_total"), copies * len);
    assert_eq!(count("polymem_conc_reads_total"), copies * accesses);
    assert_eq!(count("polymem_conc_writes_total"), copies * accesses);
    assert_eq!(
        count("polymem_conc_conflicts_avoided_total"),
        copies * 2 * (len - accesses)
    );
    // Per-bank: every bank saw exactly `accesses` elements per direction
    // per copy — identical across banks, or the cover was not uniform.
    for b in 0..8u32 {
        let v = snap
            .counter_value(
                "polymem_conc_bank_elements_total",
                &[("bank", &b.to_string())],
            )
            .unwrap();
        assert_eq!(v, copies * 2 * accesses, "bank {b}");
    }
}

/// Two burst copies into disjoint destinations running concurrently end
/// in the same state as running them sequentially.
#[test]
fn concurrent_disjoint_copies_match_sequential() {
    let (mut seq, conc) = filled_pair(AccessScheme::RoCo);
    let src = Region::new("s", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d1 = Region::new("d1", 8, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d2 = Region::new("d2", 12, 8, RegionShape::Block { rows: 4, cols: 8 });
    seq.copy_region(0, &src, &d1).unwrap();
    seq.copy_region(0, &src, &d2).unwrap();
    crossbeam::scope(|s| {
        let m = &conc;
        let (sr, d1r, d2r) = (&src, &d1, &d2);
        s.spawn(move |_| m.copy_region(sr, d1r).unwrap());
        s.spawn(move |_| m.copy_region(sr, d2r).unwrap());
    })
    .unwrap();
    for r in 0..ROWS {
        for c in 0..COLS {
            assert_eq!(seq.get(r, c).unwrap(), conc.get(r, c).unwrap(), "({r},{c})");
        }
    }
}
