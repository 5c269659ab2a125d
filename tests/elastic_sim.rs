//! Pins the Ed-Gaze 2D-In elastic simulation report bit for bit.
//!
//! Almost every cycle of this simulation is replayed by the engine's
//! leap path (closed-form per-binade accumulation), so these bit
//! patterns catch any drift between the leap and per-cycle stepping
//! on the workload that dominates exploration.

use camj::digital::memory::MemoryKind;
use camj::digital::sim::SimReport;
use camj::workloads::configs::SensorVariant;
use camj::workloads::edgaze::{self, EdGazeConfig};
use camj_tech::node::ProcessNode;

/// One line per stage (`name active stalled`) and per buffer (`name`
/// and the `to_bits` of written, read and peak), after the cycle count.
fn bit_table(report: &SimReport) -> String {
    let mut out = format!("cycles {}\n", report.total_cycles);
    for s in &report.stages {
        out += &format!(
            "stage {} {} {}\n",
            s.name, s.active_cycles, s.stalled_cycles
        );
    }
    for b in &report.buffers {
        out += &format!(
            "buffer {} {:#018x} {:#018x} {:#018x}\n",
            b.name,
            b.pixels_written.to_bits(),
            b.pixels_read.to_bits(),
            b.peak_occupancy.to_bits()
        );
    }
    out
}

fn edgaze_report(frame_buffer: MemoryKind) -> SimReport {
    let config = EdGazeConfig::new(SensorVariant::TwoDIn, ProcessNode::N65)
        .with_frame_buffer_kind(frame_buffer);
    let validated = edgaze::model_with(config)
        .expect("the Ed-Gaze model builds")
        .into_validated();
    let sim = validated.simulate().expect("the elastic simulation passes");
    let report = sim.report.as_ref().expect("Ed-Gaze has a digital pipeline");
    SimReport::clone(report)
}

#[test]
fn edgaze_elastic_reports_are_pinned() {
    // The frame buffer never holds more than one pixel, so its capacity
    // (the only thing the topology changes) does not bind: both
    // topologies give the same report.
    for kind in [MemoryKind::DoubleBuffer, MemoryKind::LineBuffer] {
        let table = bit_table(&edgaze_report(kind));
        assert_eq!(table, REPORT, "{kind:?} frame buffer:\n{table}");
    }
}

const REPORT: &str = "\
cycles 264708
stage Downsample 64001 0
stage FrameSub 64001 1
stage RoiDnn 264706 2
stage src:Input 64000 0
buffer LineBuffer 0x410f400000000000 0x410f400000000000 0x4010000000000000
buffer FrameBuffer 0x40ef400000000000 0x40ff400000000000 0x3ff0000000000000
buffer DnnBuffer 0x40ef400000000000 0x410e460000000000 0x40e7b1cf116cec43
";
