//! Frame-simulation acceptance suite: a single-seed frame is exactly
//! the one-seed case of a Monte-Carlo batch, and the Monte-Carlo
//! aggregation (`simulate_frames`, the `mc_snr:<samples>` objective)
//! is deterministic across thread counts and execution modes. The
//! per-pixel scalar oracle lives with the simulator, in camj-core.

use proptest::prelude::*;

use camj::analog::array::AnalogArray;
use camj::analog::components::{aps_4t, column_adc, ApsParams};
use camj::analog::noise::NoiseSource;
use camj::core::energy::{CamJ, EstimateCache, ValidatedModel};
use camj::core::functional::Stimulus;
use camj::core::hw::{AnalogCategory, AnalogUnitDesc, HardwareDesc, Layer};
use camj::core::mapping::Mapping;
use camj::core::sw::{AlgorithmGraph, Stage};
use camj::explore::{Explorer, Objective, ParetoQuery, PointError, Sweep};
use camj::workloads::configs::{self, SensorVariant};
use camj::workloads::{edgaze, quickstart};
use camj_tech::node::ProcessNode;

/// Forces the threaded rayon path (shared convention with
/// `tests/incremental.rs`: every test sets the same value).
fn force_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
}

/// A minimal two-stage analog chain (noisy pixel front end + ADC) at an
/// arbitrary sensor resolution, so properties can sweep frame sizes the
/// fixed workload models never exercise — including sizes straddling
/// the simulator's internal span length.
fn toy_model(width: u32, height: u32, noisy_pixel: bool, fps: f64) -> ValidatedModel {
    let mut algo = AlgorithmGraph::new();
    algo.add_stage(Stage::input("Input", [width, height, 1]));
    algo.add_stage(Stage::element_wise("Gain", [width, height, 1], 1));
    algo.connect("Input", "Gain").unwrap();

    let mut hw = HardwareDesc::new(200e6);
    let mut pixel = aps_4t(ApsParams::default());
    if noisy_pixel {
        pixel = pixel
            .with_noise_source(NoiseSource::photon_shot(configs::FULL_WELL_ELECTRONS))
            .with_noise_source(NoiseSource::dark_current(
                configs::DARK_CURRENT_E_PER_S,
                configs::FULL_WELL_ELECTRONS,
            ))
            .with_noise_source(NoiseSource::read(configs::READ_NOISE_FRACTION));
    }
    hw.add_analog(
        AnalogUnitDesc::new(
            "PixelArray",
            AnalogArray::new(pixel, height, width),
            Layer::Sensor,
            AnalogCategory::Sensing,
        )
        .with_pixel_pitch_um(3.0),
    );
    hw.add_analog(AnalogUnitDesc::new(
        "ADCArray",
        AnalogArray::new(column_adc(10), 1, width),
        Layer::Sensor,
        AnalogCategory::Sensing,
    ));
    hw.connect("PixelArray", "ADCArray");

    let mapping = Mapping::new()
        .map("Input", "PixelArray")
        .map("Gain", "ADCArray");

    CamJ::new(algo, hw, mapping, fps).unwrap().into_validated()
}

proptest! {
    /// `simulate_frame(s)` is member `s` of `simulate_frames(&[s])`:
    /// same frame digest, same DAG digest, same per-stage RMS bits, for
    /// arbitrary seeds, stimuli, and resolutions, under the forced
    /// 8-worker rayon pool.
    #[test]
    fn single_seed_frame_is_its_one_seed_batch(
        seed in 0u64..u64::MAX / 2,
        width in 1u32..80,
        height in 1u32..80,
        level in 0u32..11,
        gradient in 0u32..2,
        noisy_pixel in 0u32..2,
    ) {
        force_threads();
        let stimulus = if gradient == 1 {
            Stimulus::gradient(f64::from(level) / 20.0, f64::from(level) / 10.0)
        } else {
            Stimulus::uniform(f64::from(level) / 10.0)
        };
        let model = toy_model(width, height, noisy_pixel == 1, 30.0);
        let frame = model.simulate_frame(seed, &stimulus).unwrap();
        let batch = model.simulate_frames(&[seed], &stimulus).unwrap();
        prop_assert_eq!(&frame.digest, &batch.digests[0], "{width}x{height} seed {seed}");
        let (dag, batch_dag) = (frame.dag.unwrap(), batch.dag.unwrap());
        prop_assert_eq!(&dag.digest, &batch_dag.digests[0]);
        prop_assert_eq!(frame.stages.len(), batch.stages.len());
        for (one, many) in frame.stages.iter().zip(&batch.stages) {
            prop_assert_eq!(one.noise_rms.to_bits(), many.noise_rms_mean.to_bits());
        }
        prop_assert_eq!(frame.output.noise_rms.to_bits(), batch.output.noise_rms_mean.to_bits());
    }

    /// `simulate_frames` is deterministic: the same seed list produces
    /// a byte-identical report on every call (the ziggurat streams are
    /// derived per seed × stage, never shared), whatever the thread
    /// count, and the batch decomposes seed-by-seed — each seed's
    /// digest is independent of which other seeds ride along.
    #[test]
    fn monte_carlo_batches_are_deterministic(base in 0u64..1_000_000, count in 1usize..7) {
        force_threads();
        let model = quickstart::model(30.0).unwrap().into_validated();
        let stimulus = Stimulus::default();
        let seeds: Vec<u64> = (0..count as u64).map(|i| base + i).collect();
        let mc = model.simulate_frames(&seeds, &stimulus).unwrap();
        prop_assert_eq!(mc.seeds.as_slice(), seeds.as_slice());
        prop_assert_eq!(mc.digests.len(), count);
        let again = model.simulate_frames(&seeds, &stimulus).unwrap();
        prop_assert_eq!(&mc, &again, "replay must be byte-identical");
        for (i, &seed) in seeds.iter().enumerate() {
            let alone = model.simulate_frames(&[seed], &stimulus).unwrap();
            prop_assert_eq!(&mc.digests[i], &alone.digests[0], "seed {seed}");
        }
        // A single seed aggregates to exactly that frame's numbers.
        if count == 1 {
            prop_assert_eq!(mc.output.noise_rms_std, 0.0);
            prop_assert_eq!(mc.stages[0].noise_rms_mean, mc.stages[0].noise_rms_mean.abs());
        }
    }
}

/// Monte-Carlo statistics behave like statistics: the spread is small
/// against the mean, the mean sits near the single-seed value, and the
/// mean SNR is present for a noisy chain.
#[test]
fn monte_carlo_aggregates_are_sane() {
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .unwrap()
        .into_validated();
    let seeds: Vec<u64> = (0..16).collect();
    let mc = model
        .simulate_frames(&seeds, &Stimulus::uniform(0.5))
        .unwrap();
    assert!(mc.output.noise_rms_mean > 0.0);
    assert!(mc.output.noise_rms_std > 0.0, "16 seeds must show spread");
    assert!(
        mc.output.noise_rms_std < mc.output.noise_rms_mean / 2.0,
        "spread {} vs mean {}",
        mc.output.noise_rms_std,
        mc.output.noise_rms_mean
    );
    let snr = mc.output.snr_db_mean.expect("noisy chain has an SNR");
    let single = model
        .simulate_frame(0, &Stimulus::uniform(0.5))
        .unwrap()
        .output
        .snr_db
        .unwrap();
    assert!(
        (snr - single).abs() < 3.0,
        "mc {snr} dB vs seed-0 {single} dB"
    );
    for stage in &mc.stages {
        assert!(stage.noise_rms_mean >= 0.0);
        assert!(stage.noise_rms_std >= 0.0);
    }
}

/// The `mc_snr:<samples>` objective end-to-end: `Explorer::pareto`
/// accepts it, evaluates it deterministically, and serial and parallel
/// runs produce byte-identical frontiers.
#[test]
fn mc_snr_objective_is_deterministic_across_modes() {
    force_threads();
    let sweep = Sweep::new()
        .fps_targets([15.0, 30.0])
        .bit_widths([8, 10, 12]);
    let query = ParetoQuery::new(vec![
        Objective::TotalEnergy,
        "mc_snr:4".parse::<Objective>().unwrap(),
    ]);
    let build = |point: &camj::explore::DesignPoint| {
        edgaze::model_with(
            edgaze::EdGazeConfig::new(SensorVariant::TwoDIn, ProcessNode::N65)
                .with_adc_bits(point.u32("bit_width")),
        )
        .map(CamJ::into_validated)
        .map_err(PointError::new)
    };
    let serial_cache = EstimateCache::shared();
    let serial = Explorer::serial().pareto(&sweep, &serial_cache, &query, build);
    let parallel_cache = EstimateCache::shared();
    let parallel = Explorer::parallel().pareto(&sweep, &parallel_cache, &query, build);

    assert!(!serial.frontier().is_empty(), "some design must survive");
    assert_eq!(serial.frontier().len(), parallel.frontier().len());
    for (a, b) in serial.frontier().iter().zip(parallel.frontier().iter()) {
        assert_eq!(a.point, b.point);
        assert!(a.metrics.same_as(&b.metrics), "bitwise-equal frontiers");
    }
    // Fewer converter bits ⇒ more measured noise: the MC coordinate
    // orders designs the same way the physics does.
    let noise_at = |bits: u32| {
        serial
            .frontier()
            .iter()
            .find(|e| e.point.u32("bit_width") == bits)
            .map(|e| e.metrics.values()[1])
    };
    if let (Some(coarse), Some(fine)) = (noise_at(8), noise_at(12)) {
        assert!(coarse > fine, "8-bit {coarse} vs 12-bit {fine}");
    }
}

/// The objective grammar: round-trips, bounds-checks the sample count,
/// and rejects garbage.
#[test]
fn mc_snr_objective_grammar() {
    let o: Objective = "mc_snr:16".parse().unwrap();
    assert_eq!(o.to_string(), "mc_snr:16");
    assert_eq!(o.key(), "mc16_noise_rms");
    assert!("mc_snr:".parse::<Objective>().is_err());
    assert!("mc_snr:0".parse::<Objective>().is_err());
    assert!("mc_snr:100000".parse::<Objective>().is_err());
    assert!("mc_snr:x".parse::<Objective>().is_err());
}
