//! End-to-end tests of multi-objective Pareto exploration (ISSUE 4
//! acceptance criteria):
//!
//! * the pruned incremental path returns a frontier **bit-identical**
//!   to post-filtering an unconstrained incremental sweep of the same
//!   grid (surviving points are never perturbed by pruning), serial
//!   and parallel,
//! * constraint pruning really skips kernel work and reports sound
//!   provenance,
//! * `ParetoFront` is insert-order invariant (property test), and
//! * the `camj pareto` CLI frontier export is byte-stable against the
//!   committed `descriptions/edgaze.pareto.json` golden.

use std::fs;
use std::path::Path;
use std::process::Command;

use proptest::prelude::*;

use camj::explore::{
    Constraint, EstimateCache, Explorer, MemoryKind, MetricVector, Objective, ParetoFront,
    ParetoQuery, PruneStats, Sweep,
};
use camj::serve::resolve::load_design;
use camj::tech::node::ProcessNode;
use camj::workloads::configs::SensorVariant;
use camj::workloads::edgaze;

mod common;
use common::{edgaze_point, grid256};

/// A 24-point slice of the Ed-Gaze 4-axis acceptance grid.
fn four_axis_sweep() -> Sweep {
    Sweep::new()
        .fps_targets([10.0, 16.0, 24.0])
        .bit_widths([8, 10])
        .tech_nodes([ProcessNode::N130, ProcessNode::N65])
        .memory_kinds([MemoryKind::DoubleBuffer, MemoryKind::LineBuffer])
}

/// The power-density budget of the 24-point slice, in mW/mm².
const DENSITY_BUDGET: f64 = 0.55;

fn query(budget: f64) -> ParetoQuery {
    ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity])
        .constrain(Constraint::MaxPowerDensity(budget))
}

#[test]
fn pruned_frontier_is_bit_identical_to_cold_postfilter() {
    assert_pruned_frontier_matches_postfilter(&four_axis_sweep(), DENSITY_BUDGET);
    // On the full grid a 0.4 mW/mm² budget cuts most points after the
    // digital-memory kernel or earlier, skipping over a fifth of all
    // energy-kernel work.
    let stats = assert_pruned_frontier_matches_postfilter(&grid256(), 0.4);
    assert!(
        stats.skip_fraction() >= 0.20,
        "pruning must skip >= 20% of energy-kernel work: {stats}"
    );
}

/// Asserts that the pruned frontier of `sweep` under a `budget`
/// power-density constraint is bit-identical to post-filtering a cold
/// unconstrained sweep, serial and parallel, and returns the prune
/// statistics (the same in both modes).
fn assert_pruned_frontier_matches_postfilter(sweep: &Sweep, budget: f64) -> PruneStats {
    // Cold reference: unconstrained incremental sweep (itself proven
    // bit-identical to per-point staged estimation in
    // tests/incremental.rs), post-filtered through the same constraint
    // and dominance filter.
    let cache = EstimateCache::shared();
    let full = Explorer::serial().sweep_incremental(sweep, &cache, edgaze_point);
    assert_eq!(full.error_count(), 0, "grid must be fully feasible");
    let q = query(budget);
    let mut reference = ParetoFront::new(q.objectives().to_vec());
    let mut feasible = 0usize;
    for (point, report) in full.successes() {
        if report.peak_power_density_mw_per_mm2().unwrap_or(0.0) <= budget {
            feasible += 1;
            let model = edgaze_point(point).unwrap();
            let metrics =
                MetricVector::measure(q.objectives(), report, &model, point.fps("fps")).unwrap();
            reference.insert(point.clone(), metrics);
        }
    }
    assert!(
        feasible > 0 && feasible < full.len(),
        "the budget must be active but not empty (feasible: {feasible}/{})",
        full.len()
    );

    let mut stats = PruneStats::default();
    for explorer in [Explorer::serial(), Explorer::parallel()] {
        let cache = EstimateCache::shared();
        let results = explorer.pareto(sweep, &cache, &q, edgaze_point);
        assert_eq!(
            results.frontier().len(),
            reference.frontier().len(),
            "frontier sizes must match"
        );
        for (pruned, cold) in results.frontier().iter().zip(reference.frontier()) {
            assert_eq!(pruned.point, cold.point);
            assert!(
                pruned.metrics.same_as(&cold.metrics),
                "frontier metrics must be bit-identical at [{}]: {:?} vs {:?}",
                pruned.point,
                pruned.metrics.values(),
                cold.metrics.values()
            );
        }
        // Every grid point is accounted for exactly once.
        assert_eq!(results.total_points(), sweep.len());
        // The pruned points are exactly the budget violators.
        assert_eq!(results.pruned().len(), sweep.len() - feasible);
        // Pruning skipped real kernel work on this grid.
        assert!(
            results.stats().kernels_skipped > 0,
            "an active budget must skip kernels: {}",
            results.stats()
        );
        stats = *results.stats();
    }
    stats
}

#[test]
fn serial_and_parallel_pareto_agree_exactly() {
    let sweep = four_axis_sweep();
    let q = query(DENSITY_BUDGET);
    let serial = {
        let cache = EstimateCache::shared();
        Explorer::serial().pareto(&sweep, &cache, &q, edgaze_point)
    };
    let parallel = {
        let cache = EstimateCache::shared();
        Explorer::parallel().pareto(&sweep, &cache, &q, edgaze_point)
    };
    assert_eq!(serial, parallel);
}

#[test]
fn delay_budget_prunes_before_any_kernel() {
    // Ed-Gaze 2D-In's digital latency is ~1.3 ms; an impossible 0.1 ms
    // budget cuts every point right after the delay solve.
    let sweep = Sweep::new().fps_targets([10.0, 20.0]);
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .unwrap()
        .into_validated();
    let q = ParetoQuery::new(vec![Objective::TotalEnergy])
        .constrain(Constraint::MaxDigitalLatency(0.1));
    let cache = EstimateCache::shared();
    let results =
        Explorer::serial().pareto(&sweep, &cache, &q, |p| Ok(model.with_fps(p.fps("fps"))));
    assert!(results.frontier().is_empty());
    assert_eq!(results.pruned().len(), 2);
    for pruned in results.pruned() {
        assert_eq!(pruned.kernels_done, 0, "delay prunes skip all kernels");
        assert!(matches!(
            pruned.constraint,
            Constraint::MaxDigitalLatency(_)
        ));
    }
    assert_eq!(results.stats().kernels_skipped, 8);
    assert!((results.stats().skip_fraction() - 1.0).abs() < 1e-12);
}

#[test]
fn unconstrained_pareto_matches_plain_sweep_totals() {
    // Without constraints, every point completes and the frontier is a
    // pure dominance filter over the full sweep.
    let sweep = Sweep::new().fps_targets([10.0, 16.0, 24.0]);
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .unwrap()
        .into_validated();
    let q = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
    let cache = EstimateCache::shared();
    let results =
        Explorer::serial().pareto(&sweep, &cache, &q, |p| Ok(model.with_fps(p.fps("fps"))));
    // Energy falls and density rises with FPS, so every point trades
    // off: the whole grid is the frontier.
    assert_eq!(results.frontier().len(), 3);
    assert_eq!(results.stats().kernels_skipped, 0);
    let plain = Explorer::serial()
        .sweep_incremental(&sweep, &EstimateCache::shared(), |_| Ok(model.clone()));
    for (entry, (_, report)) in results.frontier().iter().zip(plain.successes()) {
        assert_eq!(
            entry.metrics.values()[0].to_bits(),
            report.total().picojoules().to_bits(),
            "pareto metrics must equal the plain sweep's totals bit-for-bit"
        );
    }
}

#[test]
fn desc_objective_validation_tracks_the_explore_grammar() {
    // The objective grammar is implemented twice on purpose — in
    // `camj_explore::Objective::from_str` (runtime) and in
    // `camj-desc`'s validator (load time, which additionally checks
    // stage existence). This test pins the two copies together: every
    // string one side accepts must be accepted by the other, so
    // extending the grammar in one place without the other fails here.
    use camj::desc::ir::SweepIr;
    use camj::EnergyCategory;

    let base = camj::workloads::describe::export("quickstart").unwrap();
    let declared_stage = base.sw.stages[0].name.clone();
    let validate_with = |objective: &str| {
        let mut desc = base.clone();
        desc.sweep = Some(SweepIr {
            fps: vec![30.0],
            objectives: Some(vec![objective.to_owned()]),
            constraints: None,
            search: None,
        });
        desc.validate().is_ok()
    };

    let mut accepted = vec![
        "total_energy".to_owned(),
        "delay".to_owned(),
        "power_density".to_owned(),
        format!("stage:{declared_stage}"),
        "mc_snr:1".to_owned(),
        "mc_snr:16".to_owned(),
        "mc_snr:1024".to_owned(),
    ];
    accepted.extend(
        EnergyCategory::ALL
            .iter()
            .map(|c| format!("category:{}", c.label())),
    );
    for objective in &accepted {
        assert!(
            objective.parse::<Objective>().is_ok(),
            "explore grammar rejects '{objective}'"
        );
        assert!(
            validate_with(objective),
            "desc validation rejects '{objective}'"
        );
    }
    for objective in [
        "energy",
        "category:BOGUS",
        "stage:",
        "TOTAL_ENERGY",
        "mc_snr:",
        "mc_snr:0",
        "mc_snr:1025",
        "mc_snr:4.5",
    ] {
        assert!(
            objective.parse::<Objective>().is_err(),
            "explore grammar accepts '{objective}'"
        );
        assert!(
            !validate_with(objective),
            "desc validation accepts '{objective}'"
        );
    }
    // The one deliberate asymmetry: the description validator also
    // checks the stage exists; the runtime parser cannot.
    assert!("stage:NoSuchStage".parse::<Objective>().is_ok());
    assert!(!validate_with("stage:NoSuchStage"));
}

#[test]
fn cli_pareto_matches_committed_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args([
            "pareto",
            "--design",
            "descriptions/edgaze.json",
            "--format",
            "json",
        ])
        .output()
        .expect("camj binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = fs::read_to_string("descriptions/edgaze.pareto.json").unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).replace("\r\n", "\n"),
        format!("{}\n", expected.trim_end_matches('\n')),
        "CLI pareto output drifted from descriptions/edgaze.pareto.json; \
         regenerate it if the change is intentional"
    );
}

#[test]
fn cli_pareto_accuracy_matches_committed_golden() {
    // Task accuracy as a frontier axis: the centroid-error objective
    // runs the full functional pipeline (image stimulus → analog chain
    // → digital DAG) per design point, and must still produce a
    // byte-identical frontier regardless of thread count.
    let run = |threads: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_camj"));
        cmd.args([
            "pareto",
            "--design",
            "descriptions/edgaze.json",
            "--objectives",
            "total_energy,accuracy:centroid",
            "--format",
            "json",
        ]);
        if let Some(n) = threads {
            cmd.env("RAYON_NUM_THREADS", n);
        }
        let out = cmd.output().expect("camj binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap().replace("\r\n", "\n")
    };
    let expected = fs::read_to_string("descriptions/edgaze.pareto-accuracy.json").unwrap();
    let first = run(None);
    assert_eq!(
        first,
        format!("{}\n", expected.trim_end_matches('\n')),
        "CLI accuracy-pareto output drifted from \
         descriptions/edgaze.pareto-accuracy.json; \
         regenerate it if the change is intentional"
    );
    assert_eq!(run(Some("1")), first);
    assert_eq!(run(Some("8")), first);

    // Each frontier row is measured at its own frame rate: its centroid
    // error is the description's model, re-targeted to the row's fps,
    // judged by the functional pipeline.
    let text = fs::read_to_string("descriptions/edgaze.json").unwrap();
    let (_, model) = load_design(&text, Some(Path::new("descriptions"))).unwrap();
    let output: serde_json::Value = serde_json::from_str(&first).unwrap();
    let rows = output.as_object().unwrap().get("frontier").unwrap();
    for row in rows.as_array().unwrap() {
        let row = row.as_object().unwrap();
        let fps = row.get("fps").and_then(serde_json::Value::as_f64).unwrap();
        let centroid = row
            .get("accuracy_centroid")
            .and_then(serde_json::Value::as_f64)
            .unwrap();
        let expected = model.with_fps(fps).task_metrics(&[0]).unwrap();
        assert_eq!(
            centroid.to_bits(),
            expected.centroid_err.to_bits(),
            "centroid error at {fps} fps"
        );
    }
}

proptest! {
    /// The frontier set never depends on insert order: any permutation
    /// of the same point set produces the same frontier indices.
    #[test]
    fn pareto_front_is_insert_order_invariant(seed in 0u64..500) {
        let mut rng = proptest::TestRng::deterministic(&format!("pareto-{seed}"));
        let n = 2 + (proptest::Strategy::sample(&(0u32..11), &mut rng) as usize);
        // Small coordinate alphabet so duplicates and ties are common.
        let coord = |rng: &mut proptest::TestRng| {
            f64::from(proptest::Strategy::sample(&(0u32..5), rng))
        };
        let vectors: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![coord(&mut rng), coord(&mut rng)])
            .collect();
        let labels: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        let points = Sweep::new()
            .labels("design", labels.iter().map(String::as_str))
            .points();

        let front_of = |order: &[usize]| -> Vec<usize> {
            let mut front =
                ParetoFront::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
            for &i in order {
                front.insert(points[i].clone(), MetricVector::from_values(vectors[i].clone()));
            }
            let indices: Vec<usize> =
                front.frontier().iter().map(|e| e.point.index).collect();
            // Provenance invariant: every witness sits on the final
            // frontier, whatever the insert order did to it meanwhile.
            for entry in front.dominated() {
                assert!(
                    indices.contains(&entry.dominated_by),
                    "witness {} not on final frontier",
                    entry.dominated_by
                );
            }
            indices
        };

        let forward: Vec<usize> = (0..n).collect();
        let reference = front_of(&forward);
        // Reversed order and a deterministic shuffle.
        let reversed: Vec<usize> = (0..n).rev().collect();
        prop_assert_eq!(&front_of(&reversed), &reference);
        let mut shuffled = forward.clone();
        for i in (1..n).rev() {
            let j = proptest::Strategy::sample(&(0u32..(i as u32 + 1)), &mut rng) as usize;
            shuffled.swap(i, j);
        }
        prop_assert_eq!(&front_of(&shuffled), &reference);
    }
}
