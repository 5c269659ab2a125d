//! Determinism suite for the content-addressed incremental estimation
//! engine: cached (incremental) sweeps must be bit-identical to cold
//! full-pipeline sweeps, serial must equal parallel (under
//! `RAYON_NUM_THREADS=8`), across the quickstart, Ed-Gaze, and Rhythmic
//! workloads.

use camj::core::energy::{CacheStats, EstimateReport};
use camj::explore::{
    Constraint, DesignPoint, EstimateCache, Explorer, MemoryKind, Objective, ParetoQuery,
    PointError, ProcessNode, SearchSpec, Sweep, SweepResults,
};
use camj::workloads::configs::SensorVariant;
use camj::workloads::{edgaze, quickstart, rhythmic};

mod common;
use common::{edgaze_grid, edgaze_point, grid256};

/// Forces the threaded rayon path. Every test sets the same value, so
/// concurrent setting is benign.
fn force_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
}

/// Evaluates `sweep` three ways — cold full-pipeline (build + estimate
/// per point, no shared cache), incremental serial, and incremental
/// parallel — and asserts all three produce identical results. Returns
/// the incremental-serial cache for hit-rate assertions.
fn assert_three_way_identical<B>(
    sweep: &Sweep,
    build: B,
) -> (SweepResults<EstimateReport>, camj::core::energy::CacheStats)
where
    B: Fn(&DesignPoint) -> Result<camj::core::energy::ValidatedModel, PointError> + Sync,
{
    force_threads();
    // Cold path: every point pays validate → route → simulate → energy.
    let cold = Explorer::serial().run(sweep, |point| {
        let model = build(point)?;
        match point.get("fps").and_then(camj::explore::AxisValue::as_f64) {
            Some(fps) => model.estimate_at_fps(fps),
            None => model.estimate(),
        }
        .map_err(PointError::from)
    });

    let serial_cache = EstimateCache::shared();
    let serial = Explorer::serial().sweep_incremental(sweep, &serial_cache, &build);

    let parallel_cache = EstimateCache::shared();
    let parallel = Explorer::parallel().sweep_incremental(sweep, &parallel_cache, &build);

    assert_eq!(
        cold, serial,
        "incremental serial sweep diverged from the cold full-pipeline sweep"
    );
    assert_eq!(
        serial, parallel,
        "parallel incremental sweep diverged from serial"
    );
    let stats = serial_cache.stats();
    (serial, stats)
}

#[test]
fn quickstart_fps_sweep_is_deterministic_and_cached() {
    let sweep = Sweep::new().fps_targets([10.0, 20.0, 30.0, 60.0]);
    let (results, stats) = assert_three_way_identical(&sweep, |point| {
        quickstart::model(point.fps("fps"))
            .map(camj::core::energy::CamJ::into_validated)
            .map_err(PointError::new)
    });
    assert_eq!(results.error_count(), 0);
    // One group, one simulation; the remaining points replay it.
    assert!(stats.hits > 0, "expected cache hits, got {stats}");
}

#[test]
fn edgaze_four_axis_sweep_is_deterministic_and_cached() {
    let sweep16 = Sweep::new()
        .fps_targets([15.0, 20.0])
        .bit_widths([8, 10])
        .tech_nodes([ProcessNode::N130, ProcessNode::N65])
        .memory_kinds([MemoryKind::DoubleBuffer, MemoryKind::LineBuffer]);
    for (sweep, points) in [(sweep16, 16), (grid256(), 256)] {
        assert_eq!(sweep.len(), points);
        let (results, stats) = assert_three_way_identical(&sweep, edgaze_point);
        assert_eq!(results.error_count(), 0, "{:?}", results.failures().next());
        // bit_width and tech_node axes cannot invalidate the elastic
        // simulation, so at most one simulation per memory kind runs
        // and the hit rate must be substantial.
        assert!(
            stats.hits > stats.misses,
            "expected a cache-dominated {points}-point sweep, got {stats}"
        );
    }
}

#[test]
fn rhythmic_variant_sweep_is_deterministic_and_cached() {
    let sweep = Sweep::new()
        .fps_targets([15.0, 30.0])
        .tech_nodes([ProcessNode::N130, ProcessNode::N65])
        .labels(
            "variant",
            [SensorVariant::TwoDIn, SensorVariant::TwoDOff]
                .iter()
                .map(|v| v.label()),
        );
    let (results, stats) = assert_three_way_identical(&sweep, |point| {
        let variant =
            SensorVariant::from_label(point.text("variant")).expect("axis built from labels");
        rhythmic::model(variant, point.node("tech_node"))
            .map(camj::core::energy::CamJ::into_validated)
            .map_err(PointError::new)
    });
    assert_eq!(results.error_count(), 0, "{:?}", results.failures().next());
    assert!(stats.hits > 0, "expected cache hits, got {stats}");
}

#[test]
fn infeasible_points_fail_identically_on_every_path() {
    // 10 MFPS is infeasible for Ed-Gaze; the failure must surface as the
    // same per-point error on cold, serial, and parallel paths.
    let sweep = Sweep::new().fps_targets([15.0, 10_000_000.0]);
    let (results, _) = assert_three_way_identical(&sweep, |point| {
        edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
            .map(|m| camj::core::energy::CamJ::into_validated(m).with_fps(point.fps("fps")))
            .map_err(PointError::new)
    });
    assert_eq!(results.ok_count(), 1);
    assert_eq!(results.error_count(), 1);
}

/// The 4096-point grid: 64 frame rates × 8 ADC bit widths × 4 × 2.
fn grid4096() -> Sweep {
    edgaze_grid((0..64).map(|i| 10.0 + 0.25 * f64::from(i)), 8..16)
}

/// Renders the three committed Ed-Gaze 4-axis queries with `explorer`,
/// a fresh cache each: the 256-point sweep, the 256-point pareto under
/// a 0.4 mW/mm² budget, and the exhaustive 4096-point pareto. Each
/// query's JSON carries the cache stats `report(name, stats)` returns.
fn edgaze_queries(
    explorer: &Explorer,
    report: impl Fn(&str, CacheStats) -> CacheStats,
) -> Vec<(&'static str, String)> {
    let g256 = grid256();
    let g4096 = grid4096();
    let objectives = || vec![Objective::TotalEnergy, Objective::PowerDensity];
    let mut out = Vec::new();

    let cache = EstimateCache::shared();
    let results = explorer.sweep_incremental(&g256, &cache, edgaze_point);
    let stats = report("sweep256", cache.stats());
    out.push(("sweep256", results.to_json(Some(&stats))));

    let cache = EstimateCache::shared();
    let query = ParetoQuery::new(objectives()).constrain(Constraint::MaxPowerDensity(0.4));
    let results = explorer.pareto(&g256, &cache, &query, edgaze_point);
    let stats = report("pareto256", cache.stats());
    out.push(("pareto256", results.to_json(Some(&stats))));

    let cache = EstimateCache::shared();
    let query = ParetoQuery::new(objectives());
    let results = explorer.pareto(&g4096, &cache, &query, edgaze_point);
    let stats = report("pareto4096", cache.stats());
    out.push(("pareto4096", results.to_json(Some(&stats))));
    out
}

/// The committed golden of one Ed-Gaze 4-axis query.
fn golden(name: &str) -> String {
    let path = format!(
        "{}/tests/golden/edgaze-4axis.{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// One top-level field of the committed golden of query `name`.
fn golden_field(name: &str, field: &str) -> serde_json::Value {
    let golden: serde_json::Value = serde_json::from_str(&golden(name)).expect("golden parses");
    golden
        .as_object()
        .and_then(|fields| fields.get(field))
        .cloned()
        .unwrap_or_else(|| panic!("golden {name} has no {field} field"))
}

/// The Ed-Gaze 4-axis sweep and paretos match goldens captured before
/// the per-model kernel plan existed, byte for byte: points, frontier,
/// prune counts, and the cache's hits, misses, entries, and bytes.
///
/// Serial runs match exactly. Under real threads, two groups sharing a
/// topology can race to the same stall verdict, so the stall family's
/// hit/miss split depends on scheduling (as its trace counters do).
/// Parallel runs therefore report the golden's hit and miss counts and
/// must match everything else, entries and bytes included.
#[test]
fn edgaze_four_axis_queries_match_the_committed_goldens() {
    force_threads();
    for (name, json) in edgaze_queries(&Explorer::serial(), |_, stats| stats) {
        assert!(
            format!("{json}\n") == golden(name),
            "serial {name} diverged from tests/golden/edgaze-4axis.{name}.json"
        );
    }
    let golden_split = |name: &str, stats: CacheStats| {
        let serial: CacheStats =
            serde_json::from_value(&golden_field(name, "cache")).expect("golden cache stats");
        CacheStats {
            hits: serial.hits,
            misses: serial.misses,
            ..stats
        }
    };
    for (name, json) in edgaze_queries(&Explorer::parallel(), golden_split) {
        assert!(
            format!("{json}\n") == golden(name),
            "parallel {name} diverged from tests/golden/edgaze-4axis.{name}.json"
        );
    }
}

/// The adaptive-search acceptance bar: a seeded search over the
/// 4096-point grid takes the adaptive path, evaluates at most 15 % of
/// the grid, and recovers at least 95 % of the exhaustive frontier
/// committed in `tests/golden/edgaze-4axis.pareto4096.json`.
#[test]
fn seeded_search_recovers_the_4096_point_frontier() {
    let grid = grid4096();
    let budget = grid.len() * 15 / 100;
    // Population 32 buys ~18 sequential generations inside the budget;
    // the default 64 spends too much per generation to walk the whole
    // frontier ridge before the budget runs out.
    let spec = SearchSpec::new().seed(0).budget(budget).population(32);
    let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
    let cache = EstimateCache::shared();
    let searched = Explorer::parallel().search(&grid, &cache, &query, &spec, edgaze_point);
    assert!(
        !searched.exhaustive(),
        "a 4096-point grid takes the adaptive path"
    );
    assert!(
        searched.evaluations() <= budget,
        "search evaluated {} of {} points, over its {budget}-point budget",
        searched.evaluations(),
        grid.len()
    );

    let frontier = golden_field("pareto4096", "frontier");
    let oracle = frontier.as_array().expect("a frontier is an array");
    let found = searched
        .pareto()
        .to_json_rows()
        .iter()
        .filter(|row| oracle.contains(row))
        .count();
    assert!(
        found as f64 >= 0.95 * oracle.len() as f64,
        "search recovered {found} of {} exhaustive frontier points",
        oracle.len()
    );
}

#[test]
fn group_build_panics_carry_axis_coordinates() {
    force_threads();
    let sweep = Sweep::new().fps_targets([30.0]).bit_widths([4, 8]);
    let cache = EstimateCache::shared();
    let results = Explorer::parallel().sweep_incremental(&sweep, &cache, |point| {
        assert!(point.u32("bit_width") != 8, "unsupported precision");
        quickstart::model(point.fps("fps"))
            .map(camj::core::energy::CamJ::into_validated)
            .map_err(PointError::new)
    });
    assert_eq!(results.ok_count(), 1);
    let (point, error) = results.failures().next().expect("one failing point");
    assert_eq!(point.u32("bit_width"), 8);
    assert!(
        error.message().contains("bit_width=8"),
        "panic message must name the failing point: {error}"
    );
    assert!(error.message().contains("unsupported precision"), "{error}");
}
