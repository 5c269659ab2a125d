//! Integration tests of the `camj-explore` sweep machinery over real
//! workload models: parallel/serial determinism, the one-model
//! frame-rate sweep, and per-point failure isolation.

use proptest::prelude::*;

use camj::explore::{DesignPoint, EstimateCache, Explorer, PointError, Sweep, SweepResults};
use camj::tech::node::ProcessNode;
use camj::workloads::configs::SensorVariant;
use camj::workloads::{edgaze, quickstart};
use camj::{EstimateReport, ValidatedModel};

/// A parallel sweep must return byte-identical `EstimateReport`s to the
/// same sweep run serially — same grid order, same contents.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let sweep = Sweep::new()
        .tech_nodes([ProcessNode::N130, ProcessNode::N65])
        .labels(
            "variant",
            [SensorVariant::TwoDIn, SensorVariant::ThreeDIn]
                .iter()
                .map(|v| v.label()),
        );
    let eval = |point: &DesignPoint| {
        let variant = SensorVariant::from_label(point.text("variant")).expect("known label");
        let model = edgaze::model(variant, point.node("tech_node")).map_err(PointError::new)?;
        model.estimate().map_err(PointError::from)
    };
    let serial = Explorer::serial().run(&sweep, eval);
    let parallel = Explorer::parallel().run(&sweep, eval);

    assert_eq!(serial.len(), 4);
    assert_eq!(serial.error_count(), 0);
    // Structural equality first (clearer failures), then the literal
    // byte-identity claim over the full debug rendering.
    assert_eq!(serial, parallel);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// Sweeps one validated model across `targets`: a one-axis incremental
/// sweep whose every point shares the model's checks, routes, and
/// latency simulation.
fn fps_sweep(
    explorer: &Explorer,
    model: &ValidatedModel,
    targets: impl IntoIterator<Item = f64>,
) -> SweepResults<EstimateReport> {
    let sweep = Sweep::new().fps_targets(targets);
    explorer.sweep_incremental(&sweep, &EstimateCache::shared(), |_| Ok(model.clone()))
}

/// The one-model FPS sweep (cached checks/routes/latency sim) must
/// produce byte-identical reports to building and estimating each
/// point from scratch.
#[test]
fn fps_fast_path_matches_scratch_estimates() {
    let model = quickstart::model(30.0).expect("builds").into_validated();
    let targets = [15.0, 30.0, 45.0, 90.0, 240.0];
    let swept = fps_sweep(&Explorer::parallel(), &model, targets);
    assert_eq!(swept.error_count(), 0);
    for (point, fast) in swept.successes() {
        let fps = point.fps("fps");
        let scratch = quickstart::model(fps)
            .expect("builds")
            .estimate()
            .expect("estimates");
        assert_eq!(*fast, scratch, "divergence at {fps} FPS");
        assert_eq!(format!("{fast:?}"), format!("{scratch:?}"));
    }
}

/// One infeasible design point surfaces as an error entry; its
/// neighbours estimate normally and order is preserved.
#[test]
fn failing_point_does_not_poison_neighbours() {
    let model = quickstart::model(30.0).expect("builds").into_validated();
    // 10 MFPS leaves less frame time than the digital latency alone.
    let results = fps_sweep(&Explorer::parallel(), &model, [30.0, 10_000_000.0, 60.0]);
    assert_eq!(results.len(), 3);
    assert_eq!(results.ok_count(), 2);
    assert_eq!(results.error_count(), 1);
    let outcomes = results.outcomes();
    assert!(outcomes[0].result.is_ok());
    assert!(outcomes[2].result.is_ok());
    let err = outcomes[1].result.as_ref().unwrap_err();
    assert!(
        err.message().contains("frame time") || err.message().contains("stall"),
        "unexpected error: {err}"
    );
}

/// Sweeps with *several* failing points must also be identical across
/// serial and parallel runs — including the error diagnoses, which must
/// each describe their own point (stall verdicts are only cache-served
/// on the passing side).
#[test]
fn multiple_failures_stay_deterministic() {
    let model = quickstart::model(30.0).expect("builds").into_validated();
    let targets = [30.0, 2_000_000.0, 60.0, 10_000_000.0, 5_000_000.0];
    let serial = fps_sweep(&Explorer::serial(), &model, targets);
    let parallel = fps_sweep(&Explorer::parallel(), &model, targets);
    assert_eq!(serial, parallel);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    assert_eq!(serial.ok_count(), 2);
    assert_eq!(serial.error_count(), 3);
}

/// The 64-point frame-rate grids of the quickstart chip (10–73 FPS)
/// and of the Ed-Gaze 2D-In sensor at 65 nm (10–25.75 FPS, bounded by
/// its 57.6M-MAC DNN) are feasible at every point.
#[test]
fn sixty_four_point_fps_grids_are_fully_feasible() {
    let quickstart = quickstart::model(30.0).expect("builds");
    let edgaze = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65).expect("builds");
    for (model, step) in [(quickstart, 1.0), (edgaze, 0.25)] {
        let targets = (0..64).map(|i| 10.0 + step * f64::from(i));
        let results = fps_sweep(&Explorer::parallel(), &model.into_validated(), targets);
        assert_eq!(results.ok_count(), 64, "{:?}", results.failures().next());
    }
}

proptest! {
    /// Random grid shapes: serial and parallel evaluation agree exactly
    /// (values, errors, and order) for any deterministic evaluator.
    #[test]
    fn random_grids_evaluate_identically(
        axis_a in 1usize..6,
        axis_b in 1usize..5,
        fail_every in 2usize..5,
    ) {
        let sweep = Sweep::new()
            .axis("a", (0..axis_a as u32).collect::<Vec<_>>())
            .axis("b", (0..axis_b as u32).collect::<Vec<_>>());
        let eval = |p: &DesignPoint| {
            if p.index % fail_every == 1 {
                Err(PointError::new(format!("synthetic failure at {}", p.index)))
            } else {
                Ok((p.u32("a") as u64) << 32 | p.u32("b") as u64)
            }
        };
        let serial = Explorer::serial().run(&sweep, eval);
        let parallel = Explorer::parallel().run(&sweep, eval);
        prop_assert!(serial == parallel);
        prop_assert_eq!(serial.len(), axis_a * axis_b);
    }
}
