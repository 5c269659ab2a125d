//! Adaptive search builds each rebuild combination's model once per run
//! however many batches revisit it. Over the Ed-Gaze 4-axis grid the
//! result — frontier, trajectory, prune ledger and cache block — is the
//! committed golden at every worker count. With a Monte-Carlo objective
//! the same one-build memo holds, every frontier coordinate is measured
//! at the point's own frame rate, and the result matches its golden too.
//!
//! This file is its own test binary because it pins the rayon worker
//! count process-wide.

use std::collections::HashMap;
use std::sync::Mutex;

use camj::analog::array::AnalogArray;
use camj::analog::components::{aps_4t, column_adc, ApsParams};
use camj::analog::noise::NoiseSource;
use camj::core::energy::{CacheStats, CamJ, ValidatedModel};
use camj::core::functional::Stimulus;
use camj::core::hw::{AnalogCategory, AnalogUnitDesc, HardwareDesc, Layer};
use camj::core::mapping::Mapping;
use camj::core::sw::{AlgorithmGraph, Stage};
use camj::core::DEFAULT_SIGNAL_FRACTION;
use camj::explore::{
    Constraint, DesignPoint, EstimateCache, Explorer, Objective, ParetoQuery, PointError,
    SearchResults, SearchSpec, Sweep,
};
use camj::workloads::configs;

mod common;
use common::{edgaze_point, grid256};

/// The point's model-rebuilding coordinates (everything but fps).
fn rebuild_combination(point: &DesignPoint) -> String {
    point
        .coords()
        .filter(|(axis, _)| *axis != "fps")
        .map(|(axis, value)| format!("{axis}={value}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// One seeded adaptive search under the 0.4 mW/mm² budget: its result,
/// its cache stats, and the builds per rebuild combination.
fn search(explorer: &Explorer) -> (SearchResults, CacheStats, HashMap<String, usize>) {
    let builds: Mutex<HashMap<String, usize>> = Mutex::default();
    let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity])
        .constrain(Constraint::MaxPowerDensity(0.4));
    let spec = SearchSpec::new()
        .seed(5)
        .population(16)
        .budget(96)
        .exhaustive_below(0);
    let cache = EstimateCache::shared();
    let results = explorer.search(&grid256(), &cache, &query, &spec, |point| {
        *builds
            .lock()
            .unwrap()
            .entry(rebuild_combination(point))
            .or_default() += 1;
        edgaze_point(point)
    });
    assert!(!results.exhaustive());
    assert!(
        results.generations_run() >= 2,
        "the memo needs several batches to matter: {} generations",
        results.generations_run()
    );
    (results, cache.stats(), builds.into_inner().unwrap())
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The committed golden was captured before search memoised its
/// models, so matching it shows the memo changes no byte.
///
/// Serial and one-worker runs match it exactly, cache block included.
/// With several workers, two groups sharing a simulated topology can
/// race to the same stall verdict, so the stall family's hit/miss
/// split depends on scheduling (as in `tests/incremental.rs`): those
/// runs must report the golden's entries and bytes and match
/// everything else once their hit and miss counts are replaced by the
/// serial ones.
#[test]
fn adaptive_search_builds_each_combination_once_at_every_worker_count() {
    let (serial, serial_stats, serial_builds) = search(&Explorer::serial());
    let serial_json = serial.to_json(Some(&serial_stats));
    assert_eq!(
        format!("{serial_json}\n"),
        golden("edgaze-4axis.search256.json")
    );
    assert!(serial_builds.len() > 1);
    assert!(
        serial_builds.values().all(|&count| count == 1),
        "{serial_builds:?}"
    );
    for threads in [1, 2, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .unwrap();
        let (results, stats, builds) = search(&Explorer::parallel());
        for (combination, count) in &builds {
            assert_eq!(
                *count, 1,
                "{combination} built {count} times ({threads} workers)"
            );
        }
        assert_eq!(builds, serial_builds, "{threads} workers");
        if threads == 1 {
            assert_eq!(stats, serial_stats);
        }
        let unraced = CacheStats {
            hits: serial_stats.hits,
            misses: serial_stats.misses,
            ..stats
        };
        assert_eq!(
            results.to_json(Some(&unraced)),
            serial_json,
            "{threads} workers"
        );
    }
}

/// A 16×16 noisy pixel array read out by a column ADC of `bits` bits,
/// built at the point's own frame rate: its dark-current noise grows
/// with the exposure a lower frame rate allows, so the Monte-Carlo
/// noise of a model depends on the fps it was built at.
fn small_sensor(point: &DesignPoint) -> Result<ValidatedModel, PointError> {
    let bits = point.u32("bit_width");
    let mut algo = AlgorithmGraph::new();
    algo.add_stage(Stage::input("Input", [16, 16, 1]));
    algo.add_stage(Stage::element_wise("Gain", [16, 16, 1], 1));
    algo.connect("Input", "Gain").map_err(PointError::new)?;
    let pixel = aps_4t(ApsParams::default())
        .with_noise_source(NoiseSource::photon_shot(configs::FULL_WELL_ELECTRONS))
        .with_noise_source(NoiseSource::dark_current(
            configs::DARK_CURRENT_E_PER_S,
            configs::FULL_WELL_ELECTRONS,
        ))
        .with_noise_source(NoiseSource::read(configs::READ_NOISE_FRACTION));
    let mut hw = HardwareDesc::new(200e6);
    hw.add_analog(
        AnalogUnitDesc::new(
            "PixelArray",
            AnalogArray::new(pixel, 16, 16),
            Layer::Sensor,
            AnalogCategory::Sensing,
        )
        .with_pixel_pitch_um(3.0),
    );
    hw.add_analog(AnalogUnitDesc::new(
        "ADCArray",
        AnalogArray::new(column_adc(bits), 1, 16),
        Layer::Sensor,
        AnalogCategory::Sensing,
    ));
    hw.connect("PixelArray", "ADCArray");
    let mapping = Mapping::new()
        .map("Input", "PixelArray")
        .map("Gain", "ADCArray");
    CamJ::new(algo, hw, mapping, point.f64("fps"))
        .map(CamJ::into_validated)
        .map_err(PointError::new)
}

/// `mc_snr` measures each point at its own frame rate, on the memoised
/// model of its rebuild combination re-targeted to that rate: each
/// combination is built once per run, and every frontier coordinate is
/// the noise of a model built at the point's own fps.
#[test]
fn adaptive_search_with_a_monte_carlo_objective_measures_each_point_at_its_fps() {
    let sweep = Sweep::new()
        .fps_targets((0..8).map(|i| 1.0 + 4.0 * f64::from(i)))
        .bit_widths([6, 8, 10, 12]);
    let query = ParetoQuery::new(vec![
        Objective::TotalEnergy,
        "mc_snr:2".parse::<Objective>().unwrap(),
    ]);
    let spec = SearchSpec::new()
        .seed(3)
        .population(6)
        .budget(24)
        .exhaustive_below(0);
    let builds: Mutex<HashMap<String, usize>> = Mutex::default();
    let cache = EstimateCache::shared();
    let results = Explorer::serial().search(&sweep, &cache, &query, &spec, |point| {
        *builds
            .lock()
            .unwrap()
            .entry(rebuild_combination(point))
            .or_default() += 1;
        small_sensor(point)
    });
    assert!(!results.exhaustive());
    assert!(results.generations_run() >= 2);
    let builds = builds.into_inner().unwrap();
    assert!(builds.len() > 1);
    assert!(builds.values().all(|&count| count == 1), "{builds:?}");
    let stimulus = Stimulus::uniform(DEFAULT_SIGNAL_FRACTION);
    for entry in results.frontier() {
        let own = small_sensor(&entry.point)
            .unwrap()
            .simulate_frames(&[0, 1], &stimulus)
            .unwrap()
            .output
            .noise_rms_mean;
        assert_eq!(
            entry.metrics.values()[1].to_bits(),
            own.to_bits(),
            "mc2 noise at [{}]",
            entry.point
        );
    }
    assert_eq!(
        format!("{}\n", results.to_json(Some(&cache.stats()))),
        golden("small-sensor.search-mc.json")
    );
}
