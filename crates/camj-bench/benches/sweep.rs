//! The two acceptance bars that need a clock. Each is a ratio of two
//! timings taken in the same run, so host speed cancels out:
//!
//! * a 16-seed Monte-Carlo frame batch costs less than
//!   [`MC16_FRAME_BUDGET`] single-seed frames, and
//! * the disabled observability facade costs less than
//!   [`TRACE_OVERHEAD_BUDGET`] of the incremental 256-point sweep.
//!
//! Every deterministic bar of the sweep engine (cold == incremental,
//! pruned == post-filtered frontier, kernel-skip fraction, search
//! recall) is a tier-1 test, and `perfbench/` times each layer.
//!
//! ```text
//! cargo bench -p camj-bench --bench sweep
//! ```

use std::hint::black_box;
use std::time::Instant;

use camj_core::energy::{CamJ, ValidatedModel};
use camj_core::functional::Stimulus;
use camj_explore::{DesignPoint, EstimateCache, Explorer, MemoryKind, PointError, Sweep};
use camj_tech::node::ProcessNode;
use camj_workloads::configs::SensorVariant;
use camj_workloads::edgaze;

/// Timed runs per measurement; each gate reads their median.
const SAMPLES: usize = 5;

/// The acceptance bar for the Monte-Carlo frame path, relative to a
/// single-seed frame: both run the same per-seed routine, but a 16-seed
/// batch builds the frame plan (clean render, noise std lanes, DAG
/// reference pass) once, so it must cost clearly less than 16
/// single-seed frames.
const MC16_FRAME_BUDGET: f64 = 14.0;

/// Seeds in the benchmarked Monte-Carlo batch.
const MC_SEEDS: u64 = 16;

/// Acceptance bar: with no recording session, the observability
/// instrumentation's worst-case cost must stay under this fraction of
/// the incremental 4-axis sweep's median.
const TRACE_OVERHEAD_BUDGET: f64 = 0.03;

/// Median wall time of `f` over [`SAMPLES`] runs, in seconds.
fn median_secs(f: impl Fn()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times one single-seed frame and a 16-seed batch of the same model
/// (Ed-Gaze 2D-In at 65 nm) and stimulus, and fails unless the batch
/// stays under [`MC16_FRAME_BUDGET`] frames.
fn mc16_gate() {
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .expect("builds")
        .into_validated();
    let stimulus = Stimulus::uniform(0.5);
    let frame_s = median_secs(|| {
        black_box(model.simulate_frame(0, &stimulus).expect("simulates"));
    });
    let seeds: Vec<u64> = (0..MC_SEEDS).collect();
    let mc16_s = median_secs(|| {
        black_box(model.simulate_frames(&seeds, &stimulus).expect("simulates"));
    });
    let ratio = mc16_s / frame_s;
    println!(
        "frame sim (edgaze 2D-In @ 65nm, uniform 0.5), median of {SAMPLES}: \
         frame {:.2} ms, mc{MC_SEEDS} {:.2} ms -> {ratio:.2}x (budget {MC16_FRAME_BUDGET}x)",
        frame_s * 1e3,
        mc16_s * 1e3
    );
    assert!(
        ratio < MC16_FRAME_BUDGET,
        "a {MC_SEEDS}-seed Monte-Carlo batch must stay under {MC16_FRAME_BUDGET}x one \
         single-seed frame, got {ratio:.2}x ({:.2} ms vs {:.2} ms)",
        mc16_s * 1e3,
        frame_s * 1e3
    );
}

/// The 256-point Ed-Gaze 2D-In grid: 8 frame rates × 4 ADC bit widths
/// × 4 CIS nodes × 2 frame-buffer structures.
fn four_axis_sweep() -> Sweep {
    Sweep::new()
        .fps_targets((0..8).map(|i| 10.0 + 2.0 * f64::from(i)))
        .bit_widths(8..12)
        .tech_nodes([
            ProcessNode::N130,
            ProcessNode::N110,
            ProcessNode::N90,
            ProcessNode::N65,
        ])
        .memory_kinds([MemoryKind::DoubleBuffer, MemoryKind::LineBuffer])
}

/// Builds the Ed-Gaze model a 4-axis grid point describes.
fn build_point(point: &DesignPoint) -> Result<ValidatedModel, PointError> {
    let config = edgaze::EdGazeConfig::new(SensorVariant::TwoDIn, point.node("tech_node"))
        .with_adc_bits(point.u32("bit_width"))
        .with_frame_buffer_kind(point.memory("memory"));
    edgaze::model_with(config)
        .map(CamJ::into_validated)
        .map_err(PointError::new)
}

/// One serial incremental sweep of `sweep` on a fresh cache.
fn incremental_sweep(sweep: &Sweep) -> usize {
    let cache = EstimateCache::shared();
    Explorer::serial()
        .sweep_incremental(sweep, &cache, build_point)
        .ok_count()
}

/// Bounds the disabled-recorder overhead of the incremental sweep.
///
/// The instrumentation is always compiled in, so there is no
/// "uninstrumented" binary to difference against; instead the bound is
/// built from its two factors: a traced run counts how many events the
/// sweep's sites emit (an upper bound on the number of disabled
/// `enabled()` checks — a span is two events but only one guarded
/// open), and a microbench prices one disabled site. Their product over
/// the sweep's measured median is the overhead fraction.
fn trace_overhead_gate() {
    let sweep = four_axis_sweep();
    let sweep_ms = median_secs(|| {
        black_box(incremental_sweep(&sweep));
    }) * 1e3;

    let session = camj_obs::ObsSession::begin();
    black_box(incremental_sweep(&sweep));
    let events = session.finish().event_count();

    // Price one disabled site: the recorder is installed but the
    // session above has ended, so this loop walks the exact path every
    // instrumented call takes during an untraced sweep.
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for i in 0..ITERS {
        let _g = obs_core::span(black_box("bench.disabled.span"));
        obs_core::counter(black_box("bench.disabled.counter"), black_box(i), 1);
    }
    let site_ns = start.elapsed().as_secs_f64() * 1e9 / (2 * ITERS) as f64;

    let fraction = events as f64 * site_ns / (sweep_ms * 1e6);
    println!(
        "trace overhead (disabled recorder, {} points): {events} events x {site_ns:.2} ns/site \
         over {sweep_ms:.1} ms -> {:.4}% (budget {:.0}%)",
        sweep.len(),
        fraction * 100.0,
        TRACE_OVERHEAD_BUDGET * 100.0
    );
    assert!(
        fraction < TRACE_OVERHEAD_BUDGET,
        "disabled-recorder overhead must stay under {:.0}% of the incremental sweep median, \
         got {:.3}%",
        TRACE_OVERHEAD_BUDGET * 100.0,
        fraction * 100.0
    );
}

fn main() {
    mc16_gate();
    trace_overhead_gate();
}
