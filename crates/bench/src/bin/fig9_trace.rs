//! **Debugging workflow demo** — run the Fig. 9 Copy design with its span
//! journal attached and export the recorded run as a VCD waveform (the
//! visualisation §III-C wished MaxJ had): one signal per journal track and
//! span name, such as `polymem.active` for the PolyMem kernel's per-cycle
//! attribution state (a fully pipelined Copy keeps the kernel active on
//! every cycle of the pass).

use dfe_sim::VcdRecorder;
use polymem::tracing::TraceJournal;
use polymem::AccessScheme;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

fn main() {
    let n = 4 * 64;
    let layout = StreamLayout::new(n, 64, 2, 4, AccessScheme::RoCo, 2).expect("valid layout");
    let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).expect("valid");
    let journal = TraceJournal::new(1 << 14);
    app.attach_tracing(&journal);
    let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
    let z = vec![0.0; n];
    app.load(&a, &z, &z).expect("load");

    let t = app.measure(1);
    let snap = journal.snapshot();
    assert_eq!(snap.dropped, 0, "journal sized for the pass");
    // The attribution strip covers every cycle of the pass exactly once.
    let strip: u64 = snap.span_cycles_by_name("polymem").values().sum();
    assert_eq!(strip, t.cycles_per_run, "attribution spans cover the pass");

    let vcd = VcdRecorder::from_trace(&snap);
    let doc = vcd.render("stream_copy", 1000.0 / PAPER_STREAM_FREQ_MHZ);
    let path = std::env::temp_dir().join("polymem_stream_copy.vcd");
    std::fs::write(&path, &doc).expect("write VCD");
    println!(
        "Copy pass: {} cycles for {} chunks at {} MHz ({:.0} MB/s, {:.1}% of peak)",
        t.cycles_per_run,
        layout.a.chunks(),
        PAPER_STREAM_FREQ_MHZ,
        t.bandwidth_mbps,
        100.0 * t.fraction_of_peak()
    );
    println!(
        "VCD waveform recorded from {} journal events: {} signals, {} lines -> {} (open with GTKWave)",
        snap.events.len(),
        vcd.signal_count(),
        doc.lines().count(),
        path.display()
    );
    let (out, _) = app.offload();
    assert_eq!(out, a, "copy verified");
    println!("copy verified element-exact after the traced run");
}
