//! The functional layer's rows in the traced run: Ed-Gaze 2D-In @ 65 nm
//! with the committed eye image, loaded as the CLI loads it
//! (`descriptions/edgaze.json` parsed, built, and its stimulus block,
//! `edgaze_eye.pgm`, decoded and attached), timed in-process on a full-DAG
//! frame, a 16-seed batch, and a cold 7-point
//! `total_energy,accuracy:centroid` pareto. That pareto is the committed
//! golden's exact query, so it must reproduce
//! `descriptions/edgaze.pareto-accuracy.json` byte for byte.
//!
//! This layer is not a timed workload of its own: frame simulation
//! allocates and touches large frame buffers, and on a shared host its
//! timings moved by up to 40 % between runs minutes apart (run-to-run
//! spread 0.18–0.20), too wide to bound. The `serve` workload still
//! drives it end to end through its `simulate` and accuracy-pareto
//! requests.

use std::path::Path;

use camj_core::energy::ValidatedModel;
use camj_core::functional::Stimulus;
use camj_desc::DesignDesc;
use camj_explore::{Constraint, EstimateCache, Explorer, Objective, ParetoQuery, Sweep};

use crate::stats::{self, Metrics, Tally};

pub const DESIGN: &str = "descriptions/edgaze.json";
pub const EYE_IMAGE: &str = "descriptions/edgaze_eye.pgm";
pub const ACCURACY_GOLDEN: &str = "descriptions/edgaze.pareto-accuracy.json";

/// Seeds per Monte-Carlo batch.
pub const MC_SEEDS: u64 = 16;

/// The model, its stimulus, and the description's pareto query.
pub struct Setup {
    desc: DesignDesc,
    pub model: ValidatedModel,
    pub stimulus: Stimulus,
    fps: Vec<f64>,
    max_density: f64,
}

/// Parses and builds the description, decodes its eye image, and
/// attaches it.
pub fn setup(root: &Path) -> Result<Setup, String> {
    let path = root.join(DESIGN);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{DESIGN}: {e}"))?;
    let desc = DesignDesc::from_json(&text).map_err(|e| format!("{DESIGN}: {e}"))?;
    let stimulus = desc
        .stimulus
        .as_ref()
        .ok_or(format!("{DESIGN} has no stimulus block"))?
        .resolve(path.parent())
        .map_err(|e| format!("{DESIGN}: {e}"))?;
    let model = desc
        .build()
        .map_err(|e| format!("{DESIGN}: {e}"))?
        .with_stimulus(stimulus.clone());
    let sweep = desc
        .sweep
        .clone()
        .ok_or(format!("{DESIGN} has no sweep block"))?;
    let max_density = sweep
        .constraints
        .as_ref()
        .and_then(|c| c.max_power_density_mw_per_mm2)
        .ok_or(format!("{DESIGN} has no power-density budget"))?;
    Ok(Setup {
        desc,
        model,
        stimulus,
        fps: sweep.fps,
        max_density,
    })
}

/// The golden accuracy pareto, cold: a freshly built model (a model
/// keeps its own stall verdicts, which would skip cache lookups), a
/// fresh cache, the CLI's explorer, and the CLI's rendering (`to_json`
/// with cache stats, plus a newline).
pub fn accuracy_pareto(s: &Setup) -> String {
    let model = s
        .desc
        .build()
        .expect("the description built once already")
        .with_stimulus(s.stimulus.clone());
    let sweep = Sweep::new().fps_targets(s.fps.iter().copied());
    let query = ParetoQuery::new(vec![
        Objective::TotalEnergy,
        "accuracy:centroid"
            .parse::<Objective>()
            .expect("a valid objective"),
    ])
    .constrain(Constraint::MaxPowerDensity(s.max_density));
    let cache = EstimateCache::shared();
    let results = Explorer::new().pareto(&sweep, &cache, &query, |point| {
        Ok(model.with_fps(point.fps("fps")))
    });
    results.to_json(Some(&cache.stats())) + "\n"
}

pub fn mc_seeds(base: u64) -> Vec<u64> {
    (0..MC_SEEDS).map(|i| base.wrapping_add(i)).collect()
}

/// Layer rows: image decode, one frame, one batch, one accuracy pareto
/// (medians of `reps`). Returns the pareto's golden check.
pub fn layer_rows(m: &mut Metrics, root: &Path, reps: usize) -> Result<Tally, String> {
    let image = root.join(EYE_IMAGE);
    let decode = stats::time_median_ms(reps, || {
        std::hint::black_box(Stimulus::image_from_path(&image).expect("the eye image decodes"));
    });
    m.put("functional.image_decode_ms", decode, "ms");
    let s = setup(root)?;
    let mut seed = 0;
    let frame = stats::time_median_ms(reps, || {
        seed += 1;
        std::hint::black_box(
            s.model
                .simulate_frame(seed, &s.stimulus)
                .expect("simulates"),
        );
    });
    m.put("functional.frame_ms", frame, "ms");
    let mc = stats::time_median_ms(reps.div_ceil(2), || {
        seed += MC_SEEDS;
        std::hint::black_box(
            s.model
                .simulate_frames(&mc_seeds(seed), &s.stimulus)
                .expect("simulates"),
        );
    });
    m.put("functional.mc16_ms", mc, "ms");
    let golden = std::fs::read_to_string(root.join(ACCURACY_GOLDEN))
        .map_err(|e| format!("{ACCURACY_GOLDEN}: {e}"))?;
    let mut tally = Tally::default();
    let pareto = stats::time_median_ms(reps, || {
        tally.check(if accuracy_pareto(&s) == golden {
            Ok(())
        } else {
            Err(format!("accuracy pareto differs from {ACCURACY_GOLDEN}"))
        });
    });
    m.put("functional.accuracy_pareto_ms", pareto, "ms");
    Ok(tally)
}
