//! ISSUE 5 acceptance suite: the noise-aware functional simulation and
//! the un-poisoned estimate cache.
//!
//! * a sweep containing one panicking point still returns correct
//!   results and honest `CacheStats` for every other point (serial and
//!   parallel),
//! * `simulate_frame` with a fixed seed is bit-identical across repeat
//!   runs and thread counts (proptest over seeds),
//! * the `snr` objective works end-to-end through `Explorer::pareto`,
//! * noise round-trips losslessly through the description format.

use proptest::prelude::*;

use camj::core::energy::{EstimateCache, EstimateReport};
use camj::core::functional::Stimulus;
use camj::explore::{Explorer, Objective, ParetoQuery, PointError, Sweep};
use camj::workloads::configs::SensorVariant;
use camj::workloads::edgaze::EdGazeConfig;
use camj::workloads::{describe, edgaze, quickstart};
use camj_tech::node::ProcessNode;

/// Forces the threaded rayon path (shared convention with
/// `tests/incremental.rs`: every test sets the same value).
fn force_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
}

// ---------------------------------------------------------------------
// Cache-poison regression (ISSUE 5 satellite)
// ---------------------------------------------------------------------

/// One injected panic must not corrupt neighbouring points: before the
/// fix, the panicking point poisoned its cache shard and unrelated
/// points (and the final `stats()` call) died with a fake
/// `"cache shard lock"` panic.
#[test]
fn sweep_with_one_panicking_point_keeps_neighbours_and_stats_honest() {
    force_threads();
    // fps 10 is the planner's group representative, so the injected
    // panic hits the shared-model build path, forces the per-point
    // fallback, and recurs at its own point — the worst case for a
    // shared cache, since every healthy neighbour then computes
    // through it while the panic unwinds.
    let sweep = Sweep::new().fps_targets([10.0, 20.0, 30.0, 40.0, 60.0, 120.0]);
    let build = |point: &camj::explore::DesignPoint| {
        let fps = point.fps("fps");
        assert!(
            (fps - 10.0).abs() > 1e-9,
            "injected panic at the 10 FPS point"
        );
        quickstart::model(fps)
            .map(camj::core::energy::CamJ::into_validated)
            .map_err(PointError::new)
    };

    let serial_cache = EstimateCache::shared();
    let serial = Explorer::serial().sweep_incremental(&sweep, &serial_cache, build);
    let parallel_cache = EstimateCache::shared();
    let parallel = Explorer::parallel().sweep_incremental(&sweep, &parallel_cache, build);

    for results in [&serial, &parallel] {
        assert_eq!(results.len(), 6);
        assert_eq!(results.ok_count(), 5, "only the injected point fails");
        let (point, err) = results.failures().next().unwrap();
        assert_eq!(point.fps("fps"), 10.0);
        assert!(err.message().contains("injected panic"), "{err}");
        assert!(
            !err.message().contains("cache shard lock"),
            "neighbours must never die of a poisoned shard: {err}"
        );
    }
    assert_eq!(serial, parallel, "serial and parallel agree bit-for-bit");

    // The healthy points are byte-identical to a clean sweep of them.
    let clean_cache = EstimateCache::shared();
    let clean = Explorer::serial().sweep_incremental(
        &Sweep::new().fps_targets([20.0, 30.0, 40.0, 60.0, 120.0]),
        &clean_cache,
        |point| {
            quickstart::model(point.fps("fps"))
                .map(camj::core::energy::CamJ::into_validated)
                .map_err(PointError::new)
        },
    );
    let poisoned_ok: Vec<&EstimateReport> = serial.successes().map(|(_, r)| r).collect();
    let clean_ok: Vec<&EstimateReport> = clean.successes().map(|(_, r)| r).collect();
    assert_eq!(poisoned_ok, clean_ok);

    // And the stats snapshot (what the CLI prints last) still works.
    let stats = serial_cache.stats();
    assert!(stats.hits + stats.misses > 0);
    assert!(stats.entries > 0);
}

// ---------------------------------------------------------------------
// Functional-simulation determinism
// ---------------------------------------------------------------------

proptest! {
    /// `simulate_frame` is a pure function of (model, seed, stimulus):
    /// bit-identical across repeat runs, and different seeds actually
    /// produce different frames.
    #[test]
    fn simulate_frame_is_seed_deterministic(seed in 0u64..1_000_000, level in 1u32..10) {
        force_threads();
        let stimulus = Stimulus::uniform(f64::from(level) / 10.0);
        let model = quickstart::model(30.0).unwrap().into_validated();
        let a = model.simulate_frame(seed, &stimulus).unwrap();
        let b = model.simulate_frame(seed, &stimulus).unwrap();
        prop_assert_eq!(&a, &b, "repeat runs must be bit-identical");
        let c = model.simulate_frame(seed ^ 0xDEAD_BEEF, &stimulus).unwrap();
        prop_assert!(a.digest != c.digest, "a different seed reshuffles the noise");
    }
}

/// The same frame simulated at every point of a serial and a parallel
/// sweep: grid-ordered, byte-identical results regardless of the
/// worker pool (`RAYON_NUM_THREADS=8`).
#[test]
fn simulate_frame_is_identical_across_thread_counts() {
    force_threads();
    let sweep = Sweep::new().fps_targets([15.0, 30.0, 60.0]);
    let eval = |point: &camj::explore::DesignPoint| {
        let model = quickstart::model(point.fps("fps"))
            .map_err(PointError::new)?
            .into_validated();
        model
            .simulate_frame(42, &Stimulus::default())
            .map_err(PointError::from)
    };
    let serial = Explorer::serial().run(&sweep, eval);
    let parallel = Explorer::parallel().run(&sweep, eval);
    assert_eq!(serial, parallel);
    assert_eq!(serial.error_count(), 0);
}

/// The per-stage noise chain is what the paper's signal model implies:
/// the pixel injects shot/dark/read noise, the ADC adds quantization
/// implicitly, and the measured SNR sits near the analytic budget.
#[test]
fn quickstart_chain_and_snr_are_physical() {
    let model = quickstart::model(30.0).unwrap().into_validated();
    let frame = model.simulate_frame(42, &Stimulus::uniform(0.5)).unwrap();
    let units: Vec<&str> = frame.stages.iter().map(|s| s.unit.as_str()).collect();
    assert_eq!(units, ["PixelArray", "ADCArray"]);

    let report = model.estimate().unwrap();
    let noise = report.noise.as_ref().expect("quickstart declares noise");
    assert_eq!(noise.stages.len(), 2);
    let adc = noise.stage("ADCArray").unwrap();
    assert!(
        adc.added_noise_rms > 0.0,
        "the 10-bit ADC quantizes implicitly"
    );
    // Measured vs analytic SNR agree within a dB at the same stimulus.
    let measured = frame.output.snr_db.unwrap();
    assert!(
        (measured - noise.output_snr_db).abs() < 1.0,
        "measured {measured} dB vs analytic {} dB",
        noise.output_snr_db
    );
}

/// Monte-Carlo convergence: over many seeds on uniform stimuli, the
/// measured mean output SNR sits within a fraction of a dB of the
/// analytic [`NoiseReport`] budget — the MC estimator and the closed
/// form describe the same chain.
#[test]
fn mc_snr_converges_to_analytic_budget_on_uniform_stimuli() {
    force_threads();
    let model = quickstart::model(30.0).unwrap().into_validated();
    let analytic = {
        let report = model.estimate().unwrap();
        report.noise.as_ref().unwrap().output_snr_db
    };
    let seeds: Vec<u64> = (0..64).collect();
    for level in [0.25, 0.5, 0.75] {
        let mc = model
            .simulate_frames(&seeds, &Stimulus::uniform(level))
            .unwrap();
        let measured = mc.output.snr_db_mean.expect("uniform stimuli have SNR");
        let std = mc.output.snr_db_std.expect("64 seeds give a spread");
        // The analytic budget is quoted at mid-scale signal. Moving
        // the level shifts SNR by 20·log10(l/0.5) if fixed noise
        // (read/quantization) dominates, or 10·log10(l/0.5) if shot
        // noise dominates; the real chain sits between the two laws.
        let fixed_law = 20.0 * (level / 0.5_f64).log10();
        let shot_law = 10.0 * (level / 0.5_f64).log10();
        let lo = fixed_law.min(shot_law) - 1.0;
        let hi = fixed_law.max(shot_law) + 1.0;
        let shift = measured - analytic;
        assert!(
            (lo..=hi).contains(&shift),
            "level {level}: MC {measured} dB (±{std}) shifted {shift} dB \
             from analytic {analytic} dB, outside [{lo}, {hi}]"
        );
        assert!(std < 1.0, "level {level}: seed spread {std} dB too wide");
    }
}

/// More converter bits ⇒ strictly less output noise (the quantization
/// term shrinks, everything else stays put) — the accuracy side of the
/// precision axis the energy model already sweeps.
#[test]
fn adc_resolution_trades_noise_monotonically() {
    let noise_at = |bits: u32| {
        let model = edgaze::model_with(
            EdGazeConfig::new(SensorVariant::TwoDIn, ProcessNode::N65).with_adc_bits(bits),
        )
        .unwrap()
        .into_validated();
        let report = model.estimate().unwrap();
        report.noise.as_ref().unwrap().output_noise_rms
    };
    let coarse = noise_at(6);
    let baseline = noise_at(10);
    let fine = noise_at(12);
    assert!(coarse > baseline, "{coarse} vs {baseline}");
    assert!(baseline > fine, "{baseline} vs {fine}");
}

/// The mixed-signal variant pays kT/C twice (analog frame buffer +
/// switched-capacitor PE) and digitises at 8 instead of 10 bits, so
/// its signal quality is strictly below the digital chain's — the
/// Finding 3 accuracy caveat, now visible in the model (the pixel's
/// shot noise dominates both chains, so the gap is real but modest).
#[test]
fn mixed_signal_variant_pays_in_snr() {
    let snr = |variant| {
        let model = edgaze::model(variant, ProcessNode::N65)
            .unwrap()
            .into_validated();
        model
            .estimate()
            .unwrap()
            .noise
            .as_ref()
            .unwrap()
            .output_snr_db
    };
    let digital = snr(SensorVariant::TwoDIn);
    let mixed = snr(SensorVariant::TwoDInMixed);
    assert!(
        mixed < digital,
        "mixed {mixed} dB should trail digital {digital} dB"
    );
    // The mixed chain's extra sources are attributable: two kT/C hits
    // plus the coarser digitisation.
    let model = edgaze::model(SensorVariant::TwoDInMixed, ProcessNode::N65)
        .unwrap()
        .into_validated();
    let report = model.estimate().unwrap();
    let noise = report.noise.as_ref().unwrap();
    let units: Vec<&str> = noise.stages.iter().map(|s| s.unit.as_str()).collect();
    assert_eq!(units, ["PixelArray", "AnalogFrameBuffer", "AnalogPEArray"]);
    assert!(noise.stage("AnalogFrameBuffer").unwrap().added_noise_rms > 0.0);
    assert!(noise.stage("AnalogPEArray").unwrap().added_noise_rms > 0.0);
}

// ---------------------------------------------------------------------
// The `snr` objective end-to-end
// ---------------------------------------------------------------------

/// `Explorer::pareto` with an `snr` objective: the frontier matches a
/// post-filtered plain sweep bit-for-bit, serial or parallel.
#[test]
fn pareto_with_snr_objective_matches_post_filter() {
    force_threads();
    let sweep = Sweep::new().fps_targets([10.0, 20.0, 30.0, 40.0, 60.0]);
    let query = ParetoQuery::new(vec![
        "total_energy".parse::<Objective>().unwrap(),
        "snr".parse::<Objective>().unwrap(),
        "noise:PixelArray".parse::<Objective>().unwrap(),
    ]);
    let build = |point: &camj::explore::DesignPoint| {
        quickstart::model(point.fps("fps"))
            .map(camj::core::energy::CamJ::into_validated)
            .map_err(PointError::new)
    };

    let serial_cache = EstimateCache::shared();
    let serial = Explorer::serial().pareto(&sweep, &serial_cache, &query, build);
    let parallel_cache = EstimateCache::shared();
    let parallel = Explorer::parallel().pareto(&sweep, &parallel_cache, &query, build);
    assert_eq!(serial.to_json(None), parallel.to_json(None));

    // Reference: evaluate everything, then filter through a fresh front.
    let full_cache = EstimateCache::shared();
    let full = Explorer::serial().sweep_incremental(&sweep, &full_cache, build);
    let mut front = camj::explore::ParetoFront::new(query.objectives().to_vec());
    for (point, report) in full.successes() {
        let model = build(point).unwrap();
        let metrics = camj::explore::MetricVector::measure(
            query.objectives(),
            report,
            &model,
            point.fps("fps"),
        )
        .unwrap();
        front.insert(point.clone(), metrics);
    }
    assert_eq!(serial.frontier().len(), front.frontier().len());
    for (a, b) in serial.frontier().iter().zip(front.frontier()) {
        assert_eq!(a.point.index, b.point.index);
        assert!(a.metrics.same_as(&b.metrics), "frontier metrics bit-equal");
    }
    // Every frontier row actually carries the snr coordinates.
    for entry in serial.frontier() {
        assert_eq!(entry.metrics.len(), 3);
        assert!(entry.metrics.values()[1] > 0.0, "output noise is positive");
    }
}

// ---------------------------------------------------------------------
// Description round-trip
// ---------------------------------------------------------------------

/// Noise blocks survive export → JSON → load bit-exactly: the reloaded
/// model's analytic budget *and* simulated frames are byte-identical
/// to the Rust-built original's.
#[test]
fn noise_round_trips_through_descriptions() {
    for name in ["quickstart", "edgaze"] {
        let desc = describe::export(name).unwrap();
        let json = desc.to_json_pretty().unwrap();
        let reloaded = camj::desc::DesignDesc::from_json(&json)
            .unwrap()
            .build()
            .unwrap();
        let original = desc.build().unwrap();
        let a = original.estimate().unwrap();
        let b = reloaded.estimate().unwrap();
        assert_eq!(a.noise, b.noise, "{name}: analytic budgets must match");
        let fa = original.simulate_frame(42, &Stimulus::default()).unwrap();
        let fb = reloaded.simulate_frame(42, &Stimulus::default()).unwrap();
        assert_eq!(fa, fb, "{name}: simulated frames must be bit-identical");
    }
}

/// Zero-amplitude sources are legal (validation allows `read: 0` and
/// `electrons_per_sec: 0`) and must flow through estimation without
/// panicking: the stage books zero added noise and the chain's SNR
/// comes from whatever genuinely-noisy stages remain.
#[test]
fn zero_amplitude_noise_sources_estimate_cleanly() {
    let desc = describe::export("quickstart").unwrap();
    let json = desc
        .to_json_pretty()
        .unwrap()
        .replace("\"rms_fraction\": 0.001", "\"rms_fraction\": 0")
        .replace("\"electrons_per_sec\": 50", "\"electrons_per_sec\": 0")
        .replace(
            "\"full_well_electrons\": 10000",
            "\"full_well_electrons\": 1e300",
        );
    let desc = camj::desc::DesignDesc::from_json(&json).unwrap();
    desc.validate().expect("zero amplitudes are legal");
    let model = desc.build().unwrap();
    let report = model.estimate().expect("estimation must not panic");
    let noise = report.noise.as_ref().expect("the ADC still quantizes");
    let pixel = noise.stage("PixelArray").unwrap();
    assert!(
        pixel.added_noise_rms < 1e-140,
        "zeroed sources book (almost) nothing: {}",
        pixel.added_noise_rms
    );
    assert!(noise.output_noise_rms > 0.0);
    let frame = model.simulate_frame(42, &Stimulus::default()).unwrap();
    assert!(frame.output.noise_rms > 0.0, "quantization still applies");
}

/// A malformed noise block fails validation with the exact JSON path.
#[test]
fn bad_noise_blocks_name_their_path() {
    let mut desc = describe::export("quickstart").unwrap();
    let json = desc.to_json_pretty().unwrap().replace(
        "\"full_well_electrons\": 10000",
        "\"full_well_electrons\": -1",
    );
    desc = camj::desc::DesignDesc::from_json(&json).unwrap();
    let err = desc.validate().unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("noise[0].photon_shot.full_well_electrons"),
        "diagnostic must name the exact field: {text}"
    );
}
