//! Objectives and metric vectors: what multi-objective exploration
//! minimises.
//!
//! The paper's findings come from comparing designs along several axes
//! at once — per-frame energy, where that energy goes (Fig. 9's
//! category bars, Fig. 13's per-stage split), the digital latency a
//! design needs, and the per-layer power density that decides thermal
//! feasibility (Table 3). An [`Objective`] names one such quantity;
//! [`MetricVector::measure`] evaluates a fixed objective list at one
//! grid point — its [`EstimateReport`], and for the functional
//! objectives its model at its frame rate — producing the coordinates
//! the [`ParetoFront`](crate::ParetoFront) dominance filter compares.
//!
//! Every objective is **minimised**; all measured values are finite
//! and non-negative by construction of the estimator.

use std::fmt;
use std::str::FromStr;

use camj_core::energy::{EnergyCategory, EstimateReport, ValidatedModel};
use camj_core::error::CamjError;
use camj_core::functional::{Stimulus, TaskMetrics};
use camj_core::DEFAULT_SIGNAL_FRACTION;

/// Upper bound on `mc_snr:<samples>`: past ~1k seeds the standard
/// error of the mean shrinks slower than the exploration can afford.
pub const MAX_MC_SAMPLES: u32 = 1024;

/// One task-level accuracy figure of the functional pipeline, measured
/// at the mapped DAG's sink against the noise-free reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccuracyMetric {
    /// Mean squared error over the sink tensor.
    Mse,
    /// Root-mean-square error over the sink tensor.
    Rmse,
    /// Distance between intensity-weighted centroids, normalized to
    /// the frame diagonal — the gaze-estimation proxy for Ed-Gaze.
    Centroid,
}

impl AccuracyMetric {
    /// The grammar token after `accuracy:`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AccuracyMetric::Mse => "mse",
            AccuracyMetric::Rmse => "rmse",
            AccuracyMetric::Centroid => "centroid",
        }
    }

    /// Reads this figure out of a measured [`TaskMetrics`].
    #[must_use]
    pub fn of(self, metrics: &TaskMetrics) -> f64 {
        match self {
            AccuracyMetric::Mse => metrics.mse,
            AccuracyMetric::Rmse => metrics.rmse,
            AccuracyMetric::Centroid => metrics.centroid_err,
        }
    }
}

/// One quantity a multi-objective exploration minimises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Objective {
    /// Total per-frame energy in pJ (Eq. 1).
    TotalEnergy,
    /// Per-frame energy of one breakdown category in pJ — the
    /// per-category split of Fig. 9 (e.g. `MEM-D` for digital memory).
    CategoryEnergy(EnergyCategory),
    /// Per-frame energy attributed to one algorithm stage in pJ — the
    /// per-stage split of Fig. 13. Items without a stage attribution
    /// (readout, communication) are not counted.
    StageEnergy(String),
    /// Digital-domain latency `T_D` in ms — the delay a design *needs*
    /// out of its frame budget. Lower latency leaves more time for the
    /// analog pipeline (Sec. 4.1).
    Delay,
    /// Worst per-layer power density in mW/mm² (Sec. 6.2, Table 3).
    /// Designs with no defined layer area report 0 (no thermal
    /// concern to minimise).
    PowerDensity,
    /// Signal quality: the analytic output noise RMS of the analog
    /// chain, as a fraction of full scale (from the noise budget every
    /// estimate carries). Minimising it maximises SNR — every point of
    /// one exploration is quoted at the same stimulus level, so the
    /// ordering is exactly the SNR ordering reversed. Noise-free
    /// designs report 0.
    Snr,
    /// Signal quality of one chain stage: the noise RMS a named analog
    /// unit *adds* (its sources plus any ADC quantization), fraction
    /// of full scale. Units absent from the chain report 0.
    StageNoise(String),
    /// Monte-Carlo signal quality: mean output noise RMS (fraction of
    /// full scale) over the given number of seeded frame simulations
    /// (`mc_snr:<samples>`, 1..=1024 seeds `0..samples`, quoted at the
    /// same mid-scale stimulus as the analytic `snr`). Unlike `snr`,
    /// which reads one closed-form estimate, this measures the chain —
    /// quantization, clipping, and all. Minimising it maximises the
    /// measured SNR. It is measured on the point's model at the point's
    /// own frame rate: the frame budget sets the exposure, so the noise
    /// moves with fps (see [`MetricVector::measure`]).
    McSnr(u32),
    /// Task-level accuracy: one figure of the functional pipeline's
    /// [`TaskMetrics`] (`accuracy:mse`, `accuracy:rmse`,
    /// `accuracy:centroid`), measured by pushing the model's attached
    /// stimulus — typically a real image from the description's
    /// `stimulus` block — through the analog chain, the ADC, and the
    /// mapped digital DAG, then comparing the sink tensor against the
    /// noise-free reference (seed 0). Like `mc_snr`, it is measured on
    /// the point's model at the point's own frame rate, and so at the
    /// point's own exposure.
    Accuracy(AccuracyMetric),
}

impl Objective {
    /// The column key this objective uses in JSON and CSV exports.
    #[must_use]
    pub fn key(&self) -> String {
        match self {
            Objective::TotalEnergy => "total_pj".to_owned(),
            Objective::CategoryEnergy(c) => {
                format!("{}_pj", c.label().to_ascii_lowercase().replace('-', "_"))
            }
            Objective::StageEnergy(stage) => format!("stage_{stage}_pj"),
            Objective::Delay => "digital_latency_ms".to_owned(),
            Objective::PowerDensity => "peak_density_mw_per_mm2".to_owned(),
            Objective::Snr => "output_noise_rms".to_owned(),
            Objective::StageNoise(unit) => format!("noise_{unit}_rms"),
            Objective::McSnr(samples) => format!("mc{samples}_noise_rms"),
            Objective::Accuracy(metric) => format!("accuracy_{}", metric.label()),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::TotalEnergy => f.write_str("total_energy"),
            Objective::CategoryEnergy(c) => write!(f, "category:{}", c.label()),
            Objective::StageEnergy(stage) => write!(f, "stage:{stage}"),
            Objective::Delay => f.write_str("delay"),
            Objective::PowerDensity => f.write_str("power_density"),
            Objective::Snr => f.write_str("snr"),
            Objective::StageNoise(unit) => write!(f, "noise:{unit}"),
            Objective::McSnr(samples) => write!(f, "mc_snr:{samples}"),
            Objective::Accuracy(metric) => write!(f, "accuracy:{}", metric.label()),
        }
    }
}

impl FromStr for Objective {
    type Err = String;

    /// Parses the objective grammar shared by `camj pareto
    /// --objectives` and the description format's `sweep.objectives`
    /// list: `total_energy`, `delay`, `power_density`, `snr`,
    /// `category:<LABEL>` (a Fig. 9 category label such as `MEM-D`,
    /// case-insensitive), `stage:<name>` (an algorithm stage,
    /// case-sensitive), `noise:<unit>` (an analog hardware unit,
    /// case-sensitive), `mc_snr:<samples>` (a Monte-Carlo sample
    /// count in `1..=1024`), or `accuracy:<metric>` (a task-level
    /// figure of the functional pipeline: `mse`, `rmse`, or
    /// `centroid`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "total_energy" => return Ok(Objective::TotalEnergy),
            "delay" => return Ok(Objective::Delay),
            "power_density" => return Ok(Objective::PowerDensity),
            "snr" => return Ok(Objective::Snr),
            _ => {}
        }
        if let Some(label) = s.strip_prefix("category:") {
            return EnergyCategory::ALL
                .iter()
                .find(|c| c.label().eq_ignore_ascii_case(label))
                .map(|c| Objective::CategoryEnergy(*c))
                .ok_or_else(|| {
                    format!(
                        "unknown energy category '{label}' (expected one of {})",
                        EnergyCategory::ALL.map(|c| c.label()).join(", ")
                    )
                });
        }
        if let Some(stage) = s.strip_prefix("stage:") {
            if stage.is_empty() {
                return Err("stage objective needs a stage name after 'stage:'".to_owned());
            }
            return Ok(Objective::StageEnergy(stage.to_owned()));
        }
        if let Some(unit) = s.strip_prefix("noise:") {
            if unit.is_empty() {
                return Err("noise objective needs a unit name after 'noise:'".to_owned());
            }
            return Ok(Objective::StageNoise(unit.to_owned()));
        }
        if let Some(samples) = s.strip_prefix("mc_snr:") {
            let samples: u32 = samples.parse().map_err(|_| {
                format!("mc_snr needs an unsigned sample count after 'mc_snr:', got '{samples}'")
            })?;
            if !(1..=MAX_MC_SAMPLES).contains(&samples) {
                return Err(format!(
                    "mc_snr sample count must be in 1..={MAX_MC_SAMPLES}, got {samples}"
                ));
            }
            return Ok(Objective::McSnr(samples));
        }
        if let Some(metric) = s.strip_prefix("accuracy:") {
            return [
                AccuracyMetric::Mse,
                AccuracyMetric::Rmse,
                AccuracyMetric::Centroid,
            ]
            .into_iter()
            .find(|m| m.label() == metric)
            .map(Objective::Accuracy)
            .ok_or_else(|| {
                format!(
                    "unknown accuracy metric '{metric}' (expected accuracy:mse, \
                     accuracy:rmse, or accuracy:centroid)"
                )
            });
        }
        Err(format!(
            "unknown objective '{s}' (expected total_energy, delay, power_density, snr, \
             category:<LABEL>, stage:<name>, noise:<unit>, mc_snr:<samples>, or \
             accuracy:<metric>)"
        ))
    }
}

/// The coordinates of one design point in objective space: one value
/// per objective, in the query's objective order. All values are
/// minimised. A functional coordinate (`mc_snr`, `accuracy`) is
/// measured at the point's own frame rate.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVector {
    values: Vec<f64>,
}

impl MetricVector {
    /// Measures one completed grid point's coordinates, in objective
    /// order. Report-backed objectives read `report`. `mc_snr:<n>` runs
    /// a seed-fixed (`0..n`) Monte-Carlo frame simulation, quoted at the
    /// same mid-scale stimulus as the analytic `snr` so the two
    /// orderings are comparable; `accuracy:<metric>` pushes the model's
    /// attached stimulus through the functional pipeline (seed 0),
    /// cached across points by the functional fingerprint. Both run on
    /// `model` re-targeted to `fps`, the point's frame rate, because
    /// the frame budget sets the exposure and so the noise. That model
    /// is built once, and only when a functional objective asks for it;
    /// repeated `mc_snr` counts share one simulation and every
    /// `accuracy` figure shares one [`TaskMetrics`].
    ///
    /// # Errors
    ///
    /// Propagates the frame-simulation errors of a functional
    /// objective.
    ///
    /// # Panics
    ///
    /// Panics if a functional objective is present and `fps` is not a
    /// positive finite number (see [`ValidatedModel::with_fps`]); a
    /// point whose estimate completed always has a valid one.
    pub fn measure(
        objectives: &[Objective],
        report: &EstimateReport,
        model: &ValidatedModel,
        fps: f64,
    ) -> Result<Self, CamjError> {
        let mut at_fps: Option<ValidatedModel> = None;
        let mut mc: Vec<(u32, f64)> = Vec::new();
        let mut accuracy: Option<TaskMetrics> = None;
        let mut values = Vec::with_capacity(objectives.len());
        for objective in objectives {
            let value = match objective {
                Objective::TotalEnergy => report.total().picojoules(),
                Objective::CategoryEnergy(c) => report.breakdown.category_total(*c).picojoules(),
                Objective::StageEnergy(stage) => report
                    .breakdown
                    .items()
                    .filter(|i| i.stage.as_deref() == Some(stage.as_str()))
                    .map(|i| i.energy.picojoules())
                    .sum(),
                Objective::Delay => report.digital_latency().millis(),
                Objective::PowerDensity => report.peak_power_density_mw_per_mm2().unwrap_or(0.0),
                Objective::Snr => report
                    .noise
                    .as_ref()
                    .map_or(0.0, |noise| noise.output_noise_rms),
                Objective::StageNoise(unit) => report
                    .noise
                    .as_ref()
                    .and_then(|noise| noise.stage(unit))
                    .map_or(0.0, |stage| stage.added_noise_rms),
                Objective::McSnr(samples) => match mc.iter().find(|(n, _)| n == samples) {
                    Some(&(_, noise)) => noise,
                    None => {
                        let seeds: Vec<u64> = (0..u64::from(*samples)).collect();
                        let stimulus = Stimulus::uniform(DEFAULT_SIGNAL_FRACTION);
                        let noise = at_fps
                            .get_or_insert_with(|| model.with_fps(fps))
                            .simulate_frames(&seeds, &stimulus)?
                            .output
                            .noise_rms_mean;
                        mc.push((*samples, noise));
                        noise
                    }
                },
                Objective::Accuracy(metric) => {
                    let metrics = match accuracy.take() {
                        Some(metrics) => metrics,
                        None => at_fps
                            .get_or_insert_with(|| model.with_fps(fps))
                            .task_metrics(&[0])?,
                    };
                    let value = metric.of(&metrics);
                    accuracy = Some(metrics);
                    value
                }
            };
            values.push(value);
        }
        Ok(Self { values })
    }

    /// A vector from raw values (for synthetic fronts and tests); must
    /// match the owning front's objective count and contain no NaN.
    #[must_use]
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "metric values must not be NaN"
        );
        Self { values }
    }

    /// The coordinate values, in objective order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of coordinates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has no coordinates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Pareto dominance for minimisation: `self` dominates `other` iff
    /// it is no worse on every coordinate and strictly better on at
    /// least one. Equal vectors do not dominate each other.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths (they belong to
    /// different objective sets).
    #[must_use]
    pub fn dominates(&self, other: &MetricVector) -> bool {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "metric vectors must share one objective set"
        );
        let mut strictly_better = false;
        for (a, b) in self.values.iter().zip(&other.values) {
            if a > b {
                return false;
            }
            if a < b {
                strictly_better = true;
            }
        }
        strictly_better
    }

    /// Exact coordinate-wise equality (bitwise on each value).
    #[must_use]
    pub fn same_as(&self, other: &MetricVector) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_grammar_round_trips() {
        for text in [
            "total_energy",
            "delay",
            "power_density",
            "snr",
            "category:MEM-D",
            "stage:RoiDnn",
            "noise:PixelArray",
            "mc_snr:16",
            "accuracy:mse",
            "accuracy:rmse",
            "accuracy:centroid",
        ] {
            let objective: Objective = text.parse().unwrap();
            assert_eq!(objective.to_string(), text);
            assert_eq!(
                objective.to_string().parse::<Objective>().unwrap(),
                objective
            );
        }
    }

    #[test]
    fn category_labels_parse_case_insensitively() {
        assert_eq!(
            "category:mem-d".parse::<Objective>().unwrap(),
            Objective::CategoryEnergy(EnergyCategory::DigitalMemory)
        );
    }

    #[test]
    fn bad_objectives_are_reported() {
        assert!("category:BOGUS".parse::<Objective>().is_err());
        assert!("stage:".parse::<Objective>().is_err());
        assert!("noise:".parse::<Objective>().is_err());
        assert!("energy".parse::<Objective>().is_err());
        assert!("mc_snr:".parse::<Objective>().is_err());
        assert!("mc_snr:0".parse::<Objective>().is_err());
        assert!("mc_snr:1025".parse::<Objective>().is_err());
        assert!("mc_snr:-4".parse::<Objective>().is_err());
        assert!("accuracy:".parse::<Objective>().is_err());
        assert!("accuracy:psnr".parse::<Objective>().is_err());
        let message = "accuracy:MSE".parse::<Objective>().unwrap_err();
        assert!(message.contains("accuracy:centroid"), "{message}");
    }

    #[test]
    fn accuracy_metrics_read_task_metrics() {
        let metrics = TaskMetrics {
            mse: 0.04,
            rmse: 0.2,
            psnr_db: Some(13.979_400_086_720_377),
            centroid_err: 0.01,
        };
        assert!((AccuracyMetric::Mse.of(&metrics) - 0.04).abs() < 1e-15);
        assert!((AccuracyMetric::Rmse.of(&metrics) - 0.2).abs() < 1e-15);
        assert!((AccuracyMetric::Centroid.of(&metrics) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn keys_are_column_safe() {
        assert_eq!(Objective::TotalEnergy.key(), "total_pj");
        assert_eq!(
            Objective::CategoryEnergy(EnergyCategory::DigitalMemory).key(),
            "mem_d_pj"
        );
        assert_eq!(
            Objective::StageEnergy("RoiDnn".into()).key(),
            "stage_RoiDnn_pj"
        );
        assert_eq!(Objective::Delay.key(), "digital_latency_ms");
        assert_eq!(Objective::PowerDensity.key(), "peak_density_mw_per_mm2");
        assert_eq!(Objective::Snr.key(), "output_noise_rms");
        assert_eq!(
            Objective::StageNoise("ADCArray".into()).key(),
            "noise_ADCArray_rms"
        );
        assert_eq!(
            Objective::Accuracy(AccuracyMetric::Centroid).key(),
            "accuracy_centroid"
        );
    }

    #[test]
    fn dominance_is_strict_somewhere_and_weak_everywhere() {
        let a = MetricVector::from_values(vec![1.0, 2.0]);
        let b = MetricVector::from_values(vec![1.0, 3.0]);
        let c = MetricVector::from_values(vec![0.5, 4.0]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c), "trade-off points do not dominate");
        assert!(!c.dominates(&a));
        assert!(!a.dominates(&a), "equal vectors never dominate");
        assert!(a.same_as(&a));
        assert!(!a.same_as(&b));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_metrics_are_rejected() {
        let _ = MetricVector::from_values(vec![f64::NAN]);
    }
}
