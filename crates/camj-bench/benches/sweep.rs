//! Criterion benches of the `camj-explore` sweep paths: the cost of a
//! 64-point frame-rate sweep under the four execution strategies —
//! naive rebuild-per-point vs the staged pipeline's cached artifacts,
//! each serial and parallel.
//!
//! The staged rows reuse one `ValidatedModel`: checks, routing, and the
//! elastic latency simulation run once for the whole sweep instead of
//! once per point. The parallel rows additionally fan points across
//! cores (a no-op on single-core hosts).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use camj_core::energy::{CacheStats, CamJ, EstimateReport, ValidatedModel};
use camj_core::functional::Stimulus;
use camj_explore::{
    Constraint, DesignPoint, EstimateCache, Explorer, MemoryKind, MetricVector, Objective,
    ParetoFront, ParetoQuery, PointError, PruneStats, SearchSpec, Sweep, SweepResults,
};
use camj_tech::node::ProcessNode;
use camj_workloads::configs::SensorVariant;
use camj_workloads::{edgaze, quickstart};

/// 64 frame-rate targets, all feasible for the Fig. 5 quickstart chip.
fn fps_targets() -> Vec<f64> {
    (0..64).map(|i| 10.0 + i as f64).collect()
}

/// 64 frame-rate targets feasible for the Ed-Gaze 2D-In sensor (its
/// 57.6M-MAC DNN leaves a much smaller frame budget than quickstart's).
fn edgaze_fps_targets() -> Vec<f64> {
    (0..64).map(|i| 10.0 + 0.25 * i as f64).collect()
}

fn naive_edgaze_sweep(explorer: &Explorer, targets: &[f64]) -> usize {
    // From-scratch per point: rebuild the model (checks + routes) and
    // run both simulations again.
    let sweep = Sweep::new().fps_targets(targets.iter().copied());
    let results = explorer.run(&sweep, |point| {
        let model =
            edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65).map_err(PointError::new)?;
        model
            .into_validated()
            .estimate_at_fps(point.fps("fps"))
            .map_err(PointError::from)
    });
    assert_eq!(results.error_count(), 0);
    results.ok_count()
}

fn naive_sweep(explorer: &Explorer, targets: &[f64]) -> usize {
    // The pre-explorer flow: every point re-validates, re-routes, and
    // re-simulates from scratch.
    let sweep = Sweep::new().fps_targets(targets.iter().copied());
    let results = explorer.run(&sweep, |point| {
        let model = quickstart::model(point.fps("fps")).map_err(PointError::new)?;
        model.estimate().map_err(PointError::from)
    });
    assert_eq!(results.error_count(), 0);
    results.ok_count()
}

fn staged_sweep(explorer: &Explorer, model: &ValidatedModel, targets: &[f64]) -> usize {
    let results = explorer.sweep_fps(model, targets.iter().copied());
    assert_eq!(results.error_count(), 0);
    results.ok_count()
}

fn bench_sweep_paths(c: &mut Criterion) {
    let targets = fps_targets();
    let model = quickstart::model(30.0).expect("builds").into_validated();

    let mut g = c.benchmark_group("sweep64");
    g.sample_size(10);
    g.bench_function("naive_serial", |b| {
        b.iter(|| black_box(naive_sweep(&Explorer::serial(), &targets)))
    });
    g.bench_function("naive_parallel", |b| {
        b.iter(|| black_box(naive_sweep(&Explorer::parallel(), &targets)))
    });
    g.bench_function("staged_serial", |b| {
        b.iter(|| black_box(staged_sweep(&Explorer::serial(), &model, &targets)))
    });
    g.bench_function("staged_parallel", |b| {
        b.iter(|| black_box(staged_sweep(&Explorer::parallel(), &model, &targets)))
    });
    g.finish();

    let edgaze_targets = edgaze_fps_targets();
    let edgaze_model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .expect("builds")
        .into_validated();
    let mut g = c.benchmark_group("sweep64_edgaze");
    g.sample_size(10);
    g.bench_function("naive_serial", |b| {
        b.iter(|| black_box(naive_edgaze_sweep(&Explorer::serial(), &edgaze_targets)))
    });
    g.bench_function("staged_parallel", |b| {
        b.iter(|| {
            black_box(staged_sweep(
                &Explorer::parallel(),
                &edgaze_model,
                &edgaze_targets,
            ))
        })
    });
    g.finish();
}

/// One-shot speedup summary over medians of repeated runs, for the PR
/// record: staged (cached artifacts) and parallel speedups vs the
/// naive serial path.
fn speedup_summary(_c: &mut Criterion) {
    let targets = fps_targets();
    let model = quickstart::model(30.0).expect("builds").into_validated();
    let time = |f: &dyn Fn() -> usize| {
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let naive_serial = time(&|| naive_sweep(&Explorer::serial(), &targets));
    let staged_serial = time(&|| staged_sweep(&Explorer::serial(), &model, &targets));
    let staged_parallel = time(&|| staged_sweep(&Explorer::parallel(), &model, &targets));
    println!();
    println!("sweep64 (quickstart) speedups vs naive serial (median of 5):");
    println!(
        "  staged serial:   {:6.2}x  ({:.1} ms -> {:.1} ms)",
        naive_serial / staged_serial,
        naive_serial * 1e3,
        staged_serial * 1e3
    );
    println!(
        "  staged parallel: {:6.2}x  ({:.1} ms -> {:.1} ms, {} worker thread(s))",
        naive_serial / staged_parallel,
        naive_serial * 1e3,
        staged_parallel * 1e3,
        rayon_threads()
    );

    let targets = edgaze_fps_targets();
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .expect("builds")
        .into_validated();
    let naive_serial = time(&|| naive_edgaze_sweep(&Explorer::serial(), &targets));
    let staged_serial = time(&|| staged_sweep(&Explorer::serial(), &model, &targets));
    let staged_parallel = time(&|| staged_sweep(&Explorer::parallel(), &model, &targets));
    println!();
    println!("sweep64 (edgaze 2D-In @65nm) speedups vs naive serial (median of 5):");
    println!(
        "  staged serial:   {:6.2}x  ({:.1} ms -> {:.1} ms)",
        naive_serial / staged_serial,
        naive_serial * 1e3,
        staged_serial * 1e3
    );
    println!(
        "  staged parallel: {:6.2}x  ({:.1} ms -> {:.1} ms, {} worker thread(s))",
        naive_serial / staged_parallel,
        naive_serial * 1e3,
        staged_parallel * 1e3,
        rayon_threads()
    );
}

fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

// ---------------------------------------------------------------------
// 4-axis incremental sweep: fps × bit width × tech node × memory kind
// ---------------------------------------------------------------------

/// The 256-point Ed-Gaze 2D-In grid of the incremental-engine
/// acceptance benchmark: 8 frame rates × 4 ADC bit widths × 4 CIS
/// nodes × 2 frame-buffer structures.
fn four_axis_sweep() -> Sweep {
    Sweep::new()
        .fps_targets((0..8).map(|i| 10.0 + 2.0 * f64::from(i)))
        .bit_widths([8, 9, 10, 11])
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

/// The PR 1 staged path on a multi-axis grid: every point rebuilds the
/// model from the closure and re-runs validate → route → simulate →
/// energy; the per-model caches never help because each model lives for
/// exactly one point.
fn staged_baseline(sweep: &Sweep) -> SweepResults<EstimateReport> {
    Explorer::serial().run(sweep, |point| {
        build_point(point)?
            .estimate_at_fps(point.fps("fps"))
            .map_err(PointError::from)
    })
}

/// The incremental path: delta-planned grid, one model per rebuild
/// group, one shared content-addressed cache across all points.
fn incremental(explorer: &Explorer, sweep: &Sweep) -> (SweepResults<EstimateReport>, CacheStats) {
    let cache = EstimateCache::shared();
    let results = explorer.sweep_incremental(sweep, &cache, build_point);
    let stats = cache.stats();
    (results, stats)
}

/// Timed samples per mode: `CAMJ_BENCH_SAMPLES` (CI smoke sets 1),
/// default 5.
fn bench_samples() -> usize {
    std::env::var("CAMJ_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

fn median_secs(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Where the bench record lives: the workspace root, committed so the
/// CI smoke job can diff new medians against the recorded baselines.
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");

/// How much a hot-loop median may exceed its committed baseline before
/// the bench fails (the CI regression gate).
const REGRESSION_FACTOR: f64 = 1.5;

/// The acceptance bar for the Monte-Carlo frame path, relative to a
/// single-seed frame measured in the same run: both run the same
/// per-seed routine, but a 16-seed batch builds the frame plan (clean
/// render, noise std lanes, DAG reference pass) once, so it must cost
/// clearly less than 16 single-seed frames. The measured ratio is
/// recorded in `frame_sim.mc16_over_frame`, and absolute regressions
/// are gated by the committed `frame_sim.mc16_ms` baseline.
const MC16_FRAME_BUDGET: f64 = 14.0;

/// Seeds in the benchmarked Monte-Carlo batch.
const MC_SEEDS: u64 = 16;

/// Median wall time of `f` over `samples` runs, in seconds.
fn time_median(samples: usize, f: &dyn Fn()) -> f64 {
    let mut t: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median_secs(&mut t)
}

// ---------------------------------------------------------------------
// Hot loops: arena-backed elastic simulation + Monte-Carlo frame sim
// ---------------------------------------------------------------------

/// Medians of the two per-point hot loops on the Ed-Gaze 2D-In sensor:
/// the cold-miss elastic simulation (model build + arena-backed cycle
/// sim, what every cache miss in a sweep pays) and the functional frame
/// paths (one single-seed frame, a 16-seed Monte-Carlo batch).
fn hot_loop_records(samples: usize) -> (ElasticRecord, FrameRecord) {
    let cold_sim_s = time_median(samples, &|| {
        let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
            .expect("builds")
            .into_validated();
        black_box(model.simulate().expect("simulates"));
    });

    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .expect("builds")
        .into_validated();
    let stimulus = Stimulus::uniform(0.5);
    let frame_s = time_median(samples, &|| {
        black_box(model.simulate_frame(0, &stimulus).expect("simulates"));
    });
    let seeds: Vec<u64> = (0..MC_SEEDS).collect();
    let mc16_s = time_median(samples, &|| {
        black_box(model.simulate_frames(&seeds, &stimulus).expect("simulates"));
    });

    println!();
    println!("hot loops (edgaze 2D-In @ 65nm), median of {samples}:");
    println!(
        "  elastic cold-miss (build + sim): {:8.2} ms",
        cold_sim_s * 1e3
    );
    println!(
        "  frame (single seed):             {:8.2} ms",
        frame_s * 1e3
    );
    println!(
        "  frame mc{MC_SEEDS} (batch):                {:8.2} ms  ({:.2}x single seed)",
        mc16_s * 1e3,
        mc16_s / frame_s
    );

    (
        ElasticRecord {
            workload: "edgaze 2D-In @ 65nm".to_owned(),
            samples,
            cold_sim_ms: cold_sim_s * 1e3,
        },
        FrameRecord {
            workload: "edgaze 2D-In @ 65nm".to_owned(),
            stimulus: "uniform(0.5)".to_owned(),
            samples,
            frame_ms: frame_s * 1e3,
            mc16_seeds: MC_SEEDS as usize,
            mc16_ms: mc16_s * 1e3,
            mc16_over_frame: mc16_s / frame_s,
        },
    )
}

/// Loads the committed bench record's hot-loop baselines, if any: the
/// regression gates. Read out of the value tree by hand — a strict
/// derive against a subset struct would reject the record's extra
/// descriptive fields (the shim serde rejects unknown keys) and
/// silently disable every gate. A missing file, section, or field
/// disables only that gate.
fn committed_baselines() -> CommittedBench {
    let tree = std::fs::read_to_string(BENCH_PATH)
        .ok()
        .and_then(|json| serde_json::from_str::<serde_json::Value>(&json).ok());
    let num = |section: &str, field: &str| -> Option<f64> {
        tree.as_ref()?
            .as_object()?
            .get(section)?
            .as_object()?
            .get(field)?
            .as_f64()
    };
    CommittedBench {
        cold_sim_ms: num("elastic_sim", "cold_sim_ms"),
        frame_ms: num("frame_sim", "frame_ms"),
        mc16_ms: num("frame_sim", "mc16_ms"),
        full_dag_frame_ms: num("functional", "full_dag_frame_ms"),
        accuracy_pareto_ms: num("functional", "accuracy_pareto_ms"),
    }
}

// ---------------------------------------------------------------------
// Functional pipeline: full-DAG frame throughput + accuracy pareto
// ---------------------------------------------------------------------

/// The committed Ed-Gaze eye image the edgaze description bundles —
/// the same stimulus the CLI goldens run.
const EYE_STIMULUS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../descriptions/edgaze_eye.pgm"
);

/// The edgaze description's bundled fps grid (`sweep.fps`), so the
/// recorded accuracy-pareto wall-clock matches what the CLI golden
/// command (`camj pareto --objectives total_energy,accuracy:centroid`)
/// pays.
const ACCURACY_FPS_GRID: [f64; 7] = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0];

/// Medians of the end-to-end functional pipeline on Ed-Gaze 2D-In:
/// one full-DAG frame (image render + noisy analog chain + digital DAG
/// + task metrics) and a cold accuracy pareto over the bundled grid.
fn functional_record(samples: usize) -> FunctionalRecord {
    let stimulus =
        Stimulus::image_from_path(EYE_STIMULUS_PATH).expect("committed eye image decodes");
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .expect("builds")
        .into_validated()
        .with_stimulus(stimulus.clone());

    let frame_s = time_median(samples, &|| {
        black_box(model.simulate_frame(0, &stimulus).expect("simulates"));
    });

    let sweep = Sweep::new().fps_targets(ACCURACY_FPS_GRID);
    let query = ParetoQuery::new(vec![
        "total_energy".parse::<Objective>().expect("grammar"),
        "accuracy:centroid".parse::<Objective>().expect("grammar"),
    ]);
    let build = |_point: &DesignPoint| {
        edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
            .map(CamJ::into_validated)
            .map(|m| m.with_stimulus(stimulus.clone()))
            .map_err(PointError::new)
    };
    let pareto_s = time_median(samples, &|| {
        let cache = EstimateCache::shared();
        black_box(
            Explorer::serial()
                .pareto(&sweep, &cache, &query, build)
                .frontier()
                .len(),
        );
    });
    let cache = EstimateCache::shared();
    let results = Explorer::serial().pareto(&sweep, &cache, &query, build);
    assert_eq!(
        results.errors().len(),
        0,
        "the accuracy grid must be fully feasible"
    );

    println!();
    println!("functional pipeline (edgaze 2D-In @ 65nm, eye image), median of {samples}:");
    println!(
        "  full-DAG frame:           {:8.2} ms  ({:.1} frames/s)",
        frame_s * 1e3,
        1.0 / frame_s
    );
    println!(
        "  accuracy pareto (cold, {} points): {:8.1} ms, frontier {}",
        sweep.len(),
        pareto_s * 1e3,
        results.frontier().len()
    );

    FunctionalRecord {
        workload: "edgaze 2D-In @ 65nm".to_owned(),
        stimulus: "image(descriptions/edgaze_eye.pgm)".to_owned(),
        samples,
        full_dag_frame_ms: frame_s * 1e3,
        frames_per_sec: 1.0 / frame_s,
        accuracy_objectives: query.objectives().iter().map(Objective::key).collect(),
        accuracy_grid_points: sweep.len(),
        accuracy_pareto_ms: pareto_s * 1e3,
        accuracy_frontier_points: results.frontier().len(),
    }
}

/// Fails the bench (and with it the CI smoke job) when a freshly
/// measured hot-loop median regresses more than [`REGRESSION_FACTOR`]
/// over its committed baseline.
fn assert_no_regression(elastic: &ElasticRecord, frame: &FrameRecord, func: &FunctionalRecord) {
    // CAMJ_BENCH_ACCEPT=1 skips the committed-baseline gates for one
    // run, so an *intentional* hot-loop cost change can regenerate
    // BENCH_sweep.json (the bench gates before it rewrites the file).
    // Absolute acceptance bars below still apply.
    if std::env::var_os("CAMJ_BENCH_ACCEPT").is_some_and(|v| v == "1") {
        println!("  CAMJ_BENCH_ACCEPT=1: skipping committed-baseline regression gates");
    } else {
        check_committed_gates(elastic, frame, func);
    }
    assert!(
        frame.mc16_ms < MC16_FRAME_BUDGET * frame.frame_ms,
        "a {MC_SEEDS}-seed Monte-Carlo batch must stay under {MC16_FRAME_BUDGET}x one \
         single-seed frame, got {:.2}x ({:.2} ms vs {:.2} ms)",
        frame.mc16_over_frame,
        frame.mc16_ms,
        frame.frame_ms
    );
}

/// The committed-baseline half of [`assert_no_regression`].
fn check_committed_gates(elastic: &ElasticRecord, frame: &FrameRecord, func: &FunctionalRecord) {
    let committed = committed_baselines();
    let gate = |label: &str, now_ms: f64, committed_ms: f64| {
        assert!(
            now_ms <= committed_ms * REGRESSION_FACTOR,
            "{label} regressed: {now_ms:.2} ms vs committed {committed_ms:.2} ms \
             (budget {REGRESSION_FACTOR}x)"
        );
    };
    for (label, now_ms, committed_ms) in [
        (
            "elastic_sim.cold_sim_ms",
            elastic.cold_sim_ms,
            committed.cold_sim_ms,
        ),
        ("frame_sim.frame_ms", frame.frame_ms, committed.frame_ms),
        ("frame_sim.mc16_ms", frame.mc16_ms, committed.mc16_ms),
        (
            "functional.full_dag_frame_ms",
            func.full_dag_frame_ms,
            committed.full_dag_frame_ms,
        ),
        (
            "functional.accuracy_pareto_ms",
            func.accuracy_pareto_ms,
            committed.accuracy_pareto_ms,
        ),
    ] {
        if let Some(committed_ms) = committed_ms {
            gate(label, now_ms, committed_ms);
        }
    }
}

// ---------------------------------------------------------------------
// Trace overhead: the cost of the disabled observability facade
// ---------------------------------------------------------------------

/// Acceptance bar: with no recording session, the observability
/// instrumentation's worst-case cost must stay under this fraction of
/// the incremental 4-axis sweep's median.
const TRACE_OVERHEAD_BUDGET: f64 = 0.03;

/// Bounds the disabled-recorder overhead of the incremental sweep.
///
/// The instrumentation is always compiled in, so there is no
/// "uninstrumented" binary to difference against; instead the bound is
/// built from its two factors: a traced run counts how many events the
/// sweep's sites emit (an upper bound on the number of disabled
/// `enabled()` checks — a span is two events but only one guarded
/// open), and a microbench prices one disabled site. Their product over
/// the sweep's measured median is the reported overhead fraction.
fn trace_overhead_record(sweep: &Sweep, sweep_median_ms: f64) -> TraceOverheadRecord {
    let session = camj_obs::ObsSession::begin();
    let _ = incremental(&Explorer::serial(), sweep);
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
    let disabled_site_ns = start.elapsed().as_secs_f64() * 1e9 / (2 * ITERS) as f64;

    let overhead_fraction = events as f64 * disabled_site_ns / (sweep_median_ms * 1e6);
    println!();
    println!(
        "trace overhead (disabled recorder): {events} events x {disabled_site_ns:.2} ns/site \
         over {sweep_median_ms:.1} ms -> {:.4}%",
        overhead_fraction * 100.0
    );
    assert!(
        overhead_fraction < TRACE_OVERHEAD_BUDGET,
        "disabled-recorder overhead must stay under {:.0}% of the incremental sweep median, \
         got {:.3}%",
        TRACE_OVERHEAD_BUDGET * 100.0,
        overhead_fraction * 100.0
    );
    TraceOverheadRecord {
        events,
        disabled_site_ns,
        sweep_median_ms,
        overhead_fraction,
        budget_fraction: TRACE_OVERHEAD_BUDGET,
    }
}

// ---------------------------------------------------------------------
// Adaptive frontier search: 4096-point grid, recall vs exhaustive
// ---------------------------------------------------------------------

/// The 4096-point Ed-Gaze 2D-In grid of the adaptive-search acceptance
/// benchmark: 64 frame rates × 8 ADC bit widths × 4 CIS nodes × 2
/// frame-buffer structures — 16x the incremental grid, the scale where
/// enumerating the cartesian product stops being free.
fn search_axis_sweep() -> Sweep {
    Sweep::new()
        .fps_targets((0..64).map(|i| 10.0 + 0.25 * f64::from(i)))
        .bit_widths([8, 9, 10, 11, 12, 13, 14, 15])
        .tech_nodes([
            ProcessNode::N130,
            ProcessNode::N110,
            ProcessNode::N90,
            ProcessNode::N65,
        ])
        .memory_kinds([MemoryKind::DoubleBuffer, MemoryKind::LineBuffer])
}

/// Acceptance bars for the adaptive search on the 4096-point grid: the
/// seeded run must recover at least this fraction of the exhaustive
/// frontier…
const SEARCH_RECALL_FLOOR: f64 = 0.95;
/// …while evaluating at most this fraction of the grid's points.
const SEARCH_EVAL_CEILING: f64 = 0.15;

/// The adaptive-search acceptance benchmark: exact exhaustive frontier
/// first (the oracle), then the seeded adaptive run, gated on recall
/// and evaluation count, with wall-clock medians for both paths.
fn search_summary(sweep: &Sweep, samples: usize) -> SearchRecord {
    let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
    let budget = (sweep.len() as f64 * SEARCH_EVAL_CEILING).floor() as usize;
    // Population 32 buys ~18 sequential generations inside the budget;
    // the default 64 spends too much per generation to walk the whole
    // frontier ridge before the budget runs out.
    let spec = SearchSpec::new().seed(0).budget(budget).population(32);

    let exhaustive = {
        let cache = EstimateCache::shared();
        Explorer::parallel().pareto(sweep, &cache, &query, build_point)
    };
    let searched = {
        let cache = EstimateCache::shared();
        Explorer::parallel().search(sweep, &cache, &query, &spec, build_point)
    };
    assert!(
        !searched.exhaustive(),
        "a {}-point grid must take the adaptive path",
        sweep.len()
    );
    assert!(
        searched.evaluations() <= budget,
        "acceptance bar: search must evaluate at most {:.0}% of the grid \
         ({budget} of {} points), used {}",
        SEARCH_EVAL_CEILING * 100.0,
        sweep.len(),
        searched.evaluations()
    );
    let oracle: std::collections::BTreeSet<usize> = exhaustive
        .frontier()
        .iter()
        .map(|e| e.point.index)
        .collect();
    let found = searched
        .frontier()
        .iter()
        .filter(|e| oracle.contains(&e.point.index))
        .count();
    let recall = if oracle.is_empty() {
        1.0
    } else {
        found as f64 / oracle.len() as f64
    };
    assert!(
        recall >= SEARCH_RECALL_FLOOR,
        "acceptance bar: search must recover >= {:.0}% of the exhaustive frontier, \
         got {found} of {} ({:.1}%)",
        SEARCH_RECALL_FLOOR * 100.0,
        oracle.len(),
        recall * 100.0
    );

    let exhaustive_s = time_median(samples, &|| {
        let cache = EstimateCache::shared();
        black_box(
            Explorer::parallel()
                .pareto(sweep, &cache, &query, build_point)
                .frontier()
                .len(),
        );
    });
    let search_s = time_median(samples, &|| {
        let cache = EstimateCache::shared();
        black_box(
            Explorer::parallel()
                .search(sweep, &cache, &query, &spec, build_point)
                .frontier()
                .len(),
        );
    });

    println!();
    println!(
        "search4096 (edgaze 2D-In, {} points: fps x bit_width x tech_node x memory), \
         median of {samples}:",
        sweep.len()
    );
    println!("  exhaustive pareto:  {:8.1} ms", exhaustive_s * 1e3);
    println!(
        "  adaptive search:    {:8.1} ms  ({:5.2}x, {} of {} points, {} generation(s){})",
        search_s * 1e3,
        exhaustive_s / search_s,
        searched.evaluations(),
        sweep.len(),
        searched.generations_run(),
        if searched.converged() {
            ", converged"
        } else {
            ""
        }
    );
    println!(
        "  frontier recall:    {found} of {} exhaustive frontier point(s) ({:.1}%)",
        oracle.len(),
        recall * 100.0
    );

    SearchRecord {
        workload: "edgaze 2D-In".to_owned(),
        grid: "fps(64) x bit_width(8) x tech_node(4) x memory(2)".to_owned(),
        points: sweep.len(),
        samples,
        objectives: query.objectives().iter().map(Objective::key).collect(),
        seed: 0,
        budget,
        evaluations: searched.evaluations(),
        evaluation_fraction: searched.evaluation_fraction(),
        generations: searched.generations_run(),
        converged: searched.converged(),
        frontier_points: searched.frontier().len(),
        exhaustive_frontier_points: oracle.len(),
        frontier_recall: recall,
        recall_floor: SEARCH_RECALL_FLOOR,
        eval_ceiling: SEARCH_EVAL_CEILING,
        exhaustive_ms: exhaustive_s * 1e3,
        search_ms: search_s * 1e3,
        speedup: exhaustive_s / search_s,
    }
}

/// The thermal budget of the Pareto-pruning acceptance benchmark, in
/// mW/mm². Deliberately **active** on the 4-axis grid: most points'
/// final peak density exceeds it, so the constraint gate cuts them
/// after the digital-memory kernel (or earlier) and their remaining
/// energy kernels never run.
const PRUNING_BUDGET_MW_PER_MM2: f64 = 0.4;

/// The Pareto query of the acceptance benchmark: minimise (total
/// energy, peak power density) under the active thermal budget.
fn pareto_query() -> ParetoQuery {
    ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity])
        .constrain(Constraint::MaxPowerDensity(PRUNING_BUDGET_MW_PER_MM2))
}

/// The cold reference frontier: run the full unconstrained staged sweep
/// (every kernel on every point), then post-filter the completed
/// reports through the same constraint and dominance filter.
fn cold_postfilter_front(reference: &SweepResults<EstimateReport>) -> ParetoFront {
    let query = pareto_query();
    let mut front = ParetoFront::new(query.objectives().to_vec());
    for (point, report) in reference.successes() {
        let density = report.peak_power_density_mw_per_mm2().unwrap_or(0.0);
        if density <= PRUNING_BUDGET_MW_PER_MM2 {
            front.insert(
                point.clone(),
                MetricVector::measure(query.objectives(), report),
            );
        }
    }
    front
}

/// The acceptance benchmark: medians of the staged (PR 1) vs
/// incremental paths on the 256-point grid, a bit-identity check
/// between them, and a `BENCH_sweep.json` record at the workspace root.
fn four_axis_summary(_c: &mut Criterion) {
    let sweep = four_axis_sweep();
    let samples = bench_samples();

    // Correctness first: the incremental sweep must be bit-identical to
    // the staged full-rebuild sweep, serial and parallel.
    let reference = staged_baseline(&sweep);
    assert_eq!(reference.error_count(), 0, "grid must be fully feasible");
    let (serial_results, stats) = incremental(&Explorer::serial(), &sweep);
    assert_eq!(
        reference, serial_results,
        "incremental serial sweep must be bit-identical to the staged baseline"
    );
    let (parallel_results, _) = incremental(&Explorer::parallel(), &sweep);
    assert_eq!(
        reference, parallel_results,
        "incremental parallel sweep must be bit-identical to the staged baseline"
    );

    let time = |f: &dyn Fn()| {
        let mut t: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect();
        median_secs(&mut t)
    };
    let baseline_s = time(&|| {
        black_box(staged_baseline(&sweep).ok_count());
    });
    let incremental_serial_s = time(&|| {
        black_box(incremental(&Explorer::serial(), &sweep).0.ok_count());
    });
    let incremental_parallel_s = time(&|| {
        black_box(incremental(&Explorer::parallel(), &sweep).0.ok_count());
    });

    println!();
    println!(
        "sweep4axis (edgaze 2D-In, {} points: fps x bit_width x tech_node x memory), \
         median of {samples}:",
        sweep.len()
    );
    println!("  staged per-point (PR 1):  {:8.1} ms", baseline_s * 1e3);
    println!(
        "  incremental serial:       {:8.1} ms  ({:5.2}x)",
        incremental_serial_s * 1e3,
        baseline_s / incremental_serial_s
    );
    println!(
        "  incremental parallel:     {:8.1} ms  ({:5.2}x, {} worker thread(s))",
        incremental_parallel_s * 1e3,
        baseline_s / incremental_parallel_s,
        rayon_threads()
    );
    println!("  cache: {stats}");

    // -----------------------------------------------------------------
    // Pareto pruning: same grid, (energy, density) objectives, active
    // power-density budget. Correctness first — the pruned incremental
    // frontier must be bit-identical to post-filtering the cold full
    // sweep — then the ≥20 % kernel-skip acceptance bar, then timing.
    // -----------------------------------------------------------------
    let query = pareto_query();
    let cold_front = cold_postfilter_front(&reference);
    let pareto_serial = {
        let cache = EstimateCache::shared();
        Explorer::serial().pareto(&sweep, &cache, &query, build_point)
    };
    let pareto_parallel = {
        let cache = EstimateCache::shared();
        Explorer::parallel().pareto(&sweep, &cache, &query, build_point)
    };
    for (mode, results) in [("serial", &pareto_serial), ("parallel", &pareto_parallel)] {
        assert_eq!(
            results.frontier().len(),
            cold_front.frontier().len(),
            "{mode}: pruned frontier size must match the cold post-filter"
        );
        for (pruned, cold) in results.frontier().iter().zip(cold_front.frontier()) {
            assert_eq!(pruned.point, cold.point, "{mode}: frontier points differ");
            assert!(
                pruned.metrics.same_as(&cold.metrics),
                "{mode}: frontier metrics must be bit-identical at [{}]",
                pruned.point
            );
        }
    }
    let prune_stats = *pareto_serial.stats();
    assert!(
        prune_stats.points_pruned > 0,
        "the power-density budget must be active on this grid"
    );
    assert!(
        prune_stats.skip_fraction() >= 0.20,
        "acceptance bar: pruning must skip >= 20% of energy-kernel work, got {:.1}%",
        prune_stats.skip_fraction() * 100.0
    );

    let pareto_serial_s = time(&|| {
        let cache = EstimateCache::shared();
        black_box(
            Explorer::serial()
                .pareto(&sweep, &cache, &query, build_point)
                .frontier()
                .len(),
        );
    });
    let pareto_postfilter_s = time(&|| {
        let cache = EstimateCache::shared();
        let results = Explorer::serial().sweep_incremental(&sweep, &cache, build_point);
        black_box(cold_postfilter_front(&results).frontier().len());
    });
    println!();
    println!(
        "pareto4axis (edgaze 2D-In, {} points, density <= {PRUNING_BUDGET_MW_PER_MM2} mW/mm2), \
         median of {samples}:",
        sweep.len()
    );
    println!(
        "  incremental + post-filter: {:8.1} ms",
        pareto_postfilter_s * 1e3
    );
    println!(
        "  pruned incremental:        {:8.1} ms  ({:5.2}x)",
        pareto_serial_s * 1e3,
        pareto_postfilter_s / pareto_serial_s
    );
    println!(
        "  frontier {} / dominated {} / pruned {}; {}",
        pareto_serial.frontier().len(),
        pareto_serial.dominated_count(),
        pareto_serial.pruned().len(),
        prune_stats
    );

    // Hot-loop medians last (quiet caches), gated against the committed
    // baselines *before* the file is rewritten below.
    let (elastic_record, frame_record) = hot_loop_records(samples);
    let functional = functional_record(samples);
    assert_no_regression(&elastic_record, &frame_record, &functional);

    let trace_overhead = trace_overhead_record(&sweep, incremental_serial_s * 1e3);

    let search = search_summary(&search_axis_sweep(), samples);

    let record = BenchFile {
        incremental: BenchRecord {
            workload: "edgaze 2D-In".to_owned(),
            grid: "fps(8) x bit_width(4) x tech_node(4) x memory(2)".to_owned(),
            points: sweep.len(),
            samples,
            staged_baseline_ms: baseline_s * 1e3,
            incremental_serial_ms: incremental_serial_s * 1e3,
            incremental_parallel_ms: incremental_parallel_s * 1e3,
            speedup_serial: baseline_s / incremental_serial_s,
            speedup_parallel: baseline_s / incremental_parallel_s,
            bit_identical: true,
            worker_threads: rayon_threads(),
            cache: stats,
        },
        pareto_pruning: ParetoRecord {
            objectives: query.objectives().iter().map(Objective::key).collect(),
            constraint: format!("power density <= {PRUNING_BUDGET_MW_PER_MM2} mW/mm2"),
            points: sweep.len(),
            samples,
            frontier_points: pareto_serial.frontier().len(),
            dominated: pareto_serial.dominated_count(),
            pruned_points: pareto_serial.pruned().len(),
            prune: prune_stats,
            skip_fraction: prune_stats.skip_fraction(),
            frontier_bit_identical_to_cold_postfilter: true,
            postfilter_ms: pareto_postfilter_s * 1e3,
            pruned_incremental_ms: pareto_serial_s * 1e3,
        },
        elastic_sim: elastic_record,
        frame_sim: frame_record,
        functional,
        trace_overhead,
        search,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if let Err(e) = std::fs::write(BENCH_PATH, json + "\n") {
                eprintln!("[warn: could not write {BENCH_PATH}: {e}]");
            } else {
                println!("  wrote {BENCH_PATH}");
            }
        }
        Err(e) => eprintln!("[warn: could not serialise the bench record: {e}]"),
    }
}

/// The committed `BENCH_sweep.json` schema: the PR 3 incremental-engine
/// record, the PR 4 Pareto-pruning record, and the PR 6 hot-loop
/// records (arena-backed elastic sim + Monte-Carlo frame sim).
#[derive(serde::Serialize)]
struct BenchFile {
    incremental: BenchRecord,
    pareto_pruning: ParetoRecord,
    elastic_sim: ElasticRecord,
    frame_sim: FrameRecord,
    functional: FunctionalRecord,
    trace_overhead: TraceOverheadRecord,
    search: SearchRecord,
}

/// The functional-pipeline record: a full-DAG frame (image stimulus →
/// noisy analog chain → digital DAG → task metrics) and the cold
/// wall-clock of the accuracy-objective pareto the CLI golden runs.
#[derive(serde::Serialize)]
struct FunctionalRecord {
    workload: String,
    stimulus: String,
    samples: usize,
    full_dag_frame_ms: f64,
    frames_per_sec: f64,
    accuracy_objectives: Vec<String>,
    accuracy_grid_points: usize,
    accuracy_pareto_ms: f64,
    accuracy_frontier_points: usize,
}

/// The adaptive-search acceptance record (PR 8): seeded search on the
/// 4096-point grid must recover at least [`SEARCH_RECALL_FLOOR`] of the
/// exhaustive frontier while evaluating at most [`SEARCH_EVAL_CEILING`]
/// of the grid's points.
#[derive(serde::Serialize)]
struct SearchRecord {
    workload: String,
    grid: String,
    points: usize,
    samples: usize,
    objectives: Vec<String>,
    seed: u64,
    budget: usize,
    evaluations: usize,
    evaluation_fraction: f64,
    generations: usize,
    converged: bool,
    frontier_points: usize,
    exhaustive_frontier_points: usize,
    frontier_recall: f64,
    recall_floor: f64,
    eval_ceiling: f64,
    exhaustive_ms: f64,
    search_ms: f64,
    speedup: f64,
}

/// The disabled-recorder overhead bound (PR 7): instrumentation event
/// volume x per-site disabled cost, as a fraction of the incremental
/// sweep median, gated at [`TRACE_OVERHEAD_BUDGET`].
#[derive(serde::Serialize)]
struct TraceOverheadRecord {
    events: usize,
    disabled_site_ns: f64,
    sweep_median_ms: f64,
    overhead_fraction: f64,
    budget_fraction: f64,
}

/// The elastic-simulation hot-loop record (PR 6): what one cache miss
/// pays to build and cycle-simulate the model on arena-backed state.
#[derive(serde::Serialize)]
struct ElasticRecord {
    workload: String,
    samples: usize,
    cold_sim_ms: f64,
}

/// The frame-simulation hot-loop record: `frame` is one single-seed
/// frame, `mc16` a 16-seed Monte-Carlo batch of the same per-seed
/// routine, whose acceptance bar is [`MC16_FRAME_BUDGET`] single-seed
/// frames.
#[derive(serde::Serialize)]
struct FrameRecord {
    workload: String,
    stimulus: String,
    samples: usize,
    frame_ms: f64,
    mc16_seeds: usize,
    mc16_ms: f64,
    mc16_over_frame: f64,
}

/// The subset of the committed `BENCH_sweep.json` the regression gate
/// reads back. Every field is optional so a first run (or a record
/// written by an older bench) disables the gate instead of failing it.
#[derive(Default)]
struct CommittedBench {
    cold_sim_ms: Option<f64>,
    frame_ms: Option<f64>,
    mc16_ms: Option<f64>,
    full_dag_frame_ms: Option<f64>,
    accuracy_pareto_ms: Option<f64>,
}

/// The incremental-engine acceptance record (PR 3).
#[derive(serde::Serialize)]
struct BenchRecord {
    workload: String,
    grid: String,
    points: usize,
    samples: usize,
    staged_baseline_ms: f64,
    incremental_serial_ms: f64,
    incremental_parallel_ms: f64,
    speedup_serial: f64,
    speedup_parallel: f64,
    bit_identical: bool,
    worker_threads: usize,
    cache: CacheStats,
}

/// The Pareto constraint-pruning acceptance record (PR 4): the frontier
/// must be bit-identical to a cold post-filter, and pruning must skip
/// at least 20 % of energy-kernel invocations under the active
/// power-density budget.
#[derive(serde::Serialize)]
struct ParetoRecord {
    objectives: Vec<String>,
    constraint: String,
    points: usize,
    samples: usize,
    frontier_points: usize,
    dominated: usize,
    pruned_points: usize,
    prune: PruneStats,
    skip_fraction: f64,
    frontier_bit_identical_to_cold_postfilter: bool,
    postfilter_ms: f64,
    pruned_incremental_ms: f64,
}

criterion_group!(
    benches,
    bench_sweep_paths,
    speedup_summary,
    four_axis_summary
);
criterion_main!(benches);
