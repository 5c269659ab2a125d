//! Integration tests of the adaptive frontier search (ISSUE 8): the
//! exhaustive-fallback exactness oracle as a property over small grids,
//! seed-determinism of the adaptive path byte-for-byte across thread
//! counts (via the CLI, like the simulate snapshot), the committed
//! `descriptions/edgaze.search.json` golden, the `sweep.search` IR
//! validation diagnostics, and the `--threads` flag contract.

use std::fs;
use std::process::Command;

use proptest::prelude::*;

use camj::core::energy::ValidatedModel;
use camj::explore::{
    Constraint, DesignPoint, EstimateCache, ExecutionMode, Objective, ParetoQuery, PointError,
    SearchSpec,
};
use camj::workloads::quickstart;
use camj::{Explorer, Sweep};

mod common;
use common::{edgaze_point, grid256};

/// Builds the quickstart model once and sweeps its fps axis; the grid
/// the cheap property tests explore.
fn quickstart_sweep(fps_points: usize) -> (Sweep, camj::core::energy::ValidatedModel) {
    let model = quickstart::model(30.0).expect("builds").into_validated();
    let sweep = Sweep::new().fps_targets((0..fps_points).map(|i| 20.0 + 0.5 * i as f64));
    (sweep, model)
}

/// Below the exhaustive threshold, `Explorer::search` returns exactly
/// `Explorer::pareto`'s result — frontier, dominated provenance, prune
/// ledger, errors and stats — serially and in parallel. Serial runs
/// also match on cache counters; with several workers, which group
/// first simulates a shared stall family depends on scheduling, so the
/// hit/miss split may not.
fn assert_search_is_pareto<F>(sweep: &Sweep, query: &ParetoQuery, spec: &SearchSpec, build: F)
where
    F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
{
    for explorer in [Explorer::serial(), Explorer::parallel()] {
        let pareto_cache = EstimateCache::shared();
        let exhaustive = explorer.pareto(sweep, &pareto_cache, query, &build);
        let search_cache = EstimateCache::shared();
        let searched = explorer.search(sweep, &search_cache, query, spec, &build);
        assert!(searched.exhaustive());
        assert_eq!(searched.evaluations(), sweep.len());
        assert_eq!(searched.pareto(), &exhaustive, "{:?}", explorer.mode());
        if explorer.mode() == ExecutionMode::Serial {
            assert_eq!(search_cache.stats(), pareto_cache.stats());
        }
    }
}

proptest! {
    /// On grids at or below the exhaustive-fallback threshold (the
    /// default 256), `Explorer::search` takes the exact cartesian path,
    /// so its whole result must equal `Explorer::pareto`'s. Any seed,
    /// population, or generation cap must give the same answer.
    #[test]
    fn small_grid_search_frontier_is_exact(
        fps_points in 1usize..48,
        seed in 0u64..1000,
        population in 1usize..12,
    ) {
        let (sweep, model) = quickstart_sweep(fps_points);
        let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
        let spec = SearchSpec::new().seed(seed).population(population);
        assert_search_is_pareto(&sweep, &query, &spec, |point| {
            Ok(model.with_fps(point.fps("fps")))
        });
    }

    /// The adaptive path (forced via `exhaustive_below(0)`) is
    /// deterministic for a seed: two runs produce identical frontiers,
    /// evaluation counts, and trajectories — and every frontier point
    /// it reports is non-dominated within the points it evaluated
    /// (its frontier is a subset of the exhaustive frontier whenever
    /// the budget covers the whole grid).
    #[test]
    fn adaptive_search_is_seed_deterministic(
        fps_points in 8usize..32,
        seed in 0u64..1000,
    ) {
        let (sweep, model) = quickstart_sweep(fps_points);
        let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
        let spec = SearchSpec::new()
            .seed(seed)
            .population(4)
            .generations(6)
            .exhaustive_below(0);

        let run = || {
            let cache = EstimateCache::shared();
            Explorer::new().search(&sweep, &cache, &query, &spec, |point| {
                Ok(model.with_fps(point.fps("fps")))
            })
        };
        let first = run();
        let second = run();
        prop_assert!(!first.exhaustive());
        prop_assert_eq!(&first, &second);
    }
}

/// The exhaustive search equals `pareto` on the 256-point Ed-Gaze grid
/// under a power-density budget that prunes part of it, so the prune
/// ledger is compared too.
#[test]
fn edgaze_grid_search_under_a_power_budget_is_pareto() {
    let sweep = grid256();
    let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity])
        .constrain(Constraint::MaxPowerDensity(0.4));
    let exhaustive =
        Explorer::serial().pareto(&sweep, &EstimateCache::shared(), &query, edgaze_point);
    assert!(!exhaustive.pruned().is_empty());
    assert_search_is_pareto(&sweep, &query, &SearchSpec::new(), edgaze_point);
}

/// The committed `descriptions/edgaze.search.json` golden: `camj search`
/// on the bundled Ed-Gaze description must reproduce it byte-for-byte —
/// on repeat runs and across `RAYON_NUM_THREADS`, the ISSUE 8
/// determinism acceptance bar.
#[test]
fn cli_search_matches_committed_snapshot() {
    let run = |extra_env: Option<(&str, &str)>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_camj"));
        cmd.args([
            "search",
            "--design",
            "descriptions/edgaze.json",
            "--format",
            "json",
        ]);
        if let Some((key, value)) = extra_env {
            cmd.env(key, value);
        }
        let out = cmd.output().expect("camj binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let expected = fs::read_to_string("descriptions/edgaze.search.json").unwrap();
    let first = run(None);
    assert_eq!(
        first, expected,
        "CLI search output drifted from descriptions/edgaze.search.json; \
         regenerate it if the change is intentional"
    );
    assert_eq!(run(None), first);
    assert_eq!(run(Some(("RAYON_NUM_THREADS", "8"))), first);
    assert_eq!(run(Some(("RAYON_NUM_THREADS", "1"))), first);
}

/// Byte-identity across thread counts on the *adaptive* path too: a
/// 24-point fps grid with a budget below the grid size skips the
/// exhaustive fallback, so this exercises the seeded evolutionary loop
/// end to end through the CLI.
#[test]
fn cli_adaptive_search_is_byte_identical_across_thread_counts() {
    let fps: String = (0..24)
        .map(|i| format!("{}", 20.0 + 0.5 * f64::from(i)))
        .collect::<Vec<_>>()
        .join(",");
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_camj"))
            .args([
                "search",
                "--design",
                "descriptions/quickstart.json",
                "--fps",
                &fps,
                "--population",
                "4",
                "--budget",
                "12",
                "--seed",
                "7",
                "--format",
                "json",
            ])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("camj binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let serial = run("1");
    assert!(
        serial.contains("\"exhaustive\": false"),
        "a budget below the grid size must force the adaptive path: {serial}"
    );
    assert_eq!(run("8"), serial);
    assert_eq!(run("3"), serial);
}

/// `sweep.search` knobs are validated with path-qualified diagnostics:
/// a zero population (or generations, or budget) names the exact field.
#[test]
fn search_ir_validation_names_the_zero_field() {
    let golden = fs::read_to_string("descriptions/edgaze.json").unwrap();
    for (field, committed) in [("population", 64u64), ("generations", 24)] {
        let broken = golden.replace(
            &format!("\"{field}\": {committed}"),
            &format!("\"{field}\": 0"),
        );
        assert_ne!(broken, golden, "golden must bundle {field} = {committed}");
        let desc = camj::desc::DesignDesc::from_json(&broken).expect("parses");
        let err = desc
            .validate()
            .expect_err("a zero search knob must be rejected");
        let message = err.to_string();
        assert!(
            message.contains(&format!("sweep.search.{field}")),
            "diagnostic must name sweep.search.{field}: {message}"
        );
    }
}

/// `--threads 0` is rejected with a clear usage error on all three
/// grid-walking subcommands; a positive count is accepted.
#[test]
fn cli_rejects_zero_threads() {
    for subcommand in ["sweep", "pareto", "search"] {
        let out = Command::new(env!("CARGO_BIN_EXE_camj"))
            .args([
                subcommand,
                "--design",
                "descriptions/edgaze.json",
                "--threads",
                "0",
            ])
            .output()
            .expect("camj binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{subcommand} --threads 0 must exit with the usage code"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--threads must be at least 1"),
            "{subcommand}: {stderr}"
        );
    }
    let ok = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args([
            "search",
            "--design",
            "descriptions/edgaze.json",
            "--threads",
            "2",
        ])
        .output()
        .expect("camj binary runs");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}
