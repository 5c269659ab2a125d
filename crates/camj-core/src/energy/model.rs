//! The CamJ estimator facade: assembles the three descriptions and the
//! FPS target, then drives the staged pipeline in
//! [`pipeline`](super::pipeline) (paper Eq. 1: `E_frame = E_a + E_d +
//! E_c`).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use camj_digital::sim::SimReport;
use camj_tech::units::Energy;

use crate::delay::DelayEstimate;
use crate::error::CamjError;
use crate::functional::NoiseReport;
use crate::hw::HardwareDesc;
use crate::mapping::Mapping;
use crate::power_density::LayerPower;
use crate::sw::AlgorithmGraph;

use super::breakdown::EnergyBreakdown;
use super::pipeline::ValidatedModel;

/// The assembled CamJ model: algorithm + hardware + mapping + FPS target.
///
/// Construction runs the **validate** and **route** stages of the
/// pipeline; [`CamJ::estimate`] runs the rest. For sweep-style repeated
/// estimation, [`CamJ::validated`] exposes the underlying
/// [`ValidatedModel`] whose cached artifacts (routes, elastic
/// simulation) are reused across frame-rate targets.
///
/// # Examples
///
/// See the crate-level documentation for a complete Fig. 5 walkthrough.
#[derive(Debug, Clone)]
pub struct CamJ {
    model: ValidatedModel,
}

/// The estimator's full output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateReport {
    /// Component-level per-frame energy breakdown.
    pub breakdown: EnergyBreakdown,
    /// Frame timing split (Sec. 4.1).
    pub delay: DelayEstimate,
    /// Cycle-level simulation statistics (absent for all-analog
    /// designs), shared with the elastic simulation they came from.
    pub sim: Option<Arc<SimReport>>,
    /// Per-layer power and density (Sec. 6.2).
    pub layers: Vec<LayerPower>,
    /// Pixel count of the sensor's input stage(s), for per-pixel metrics.
    pub input_pixels: u64,
    /// The analytic noise budget of the analog chain at this frame
    /// rate (quoted at the default mid-scale signal level); absent for
    /// designs whose chain contributes no noise.
    #[serde(default)]
    pub noise: Option<NoiseReport>,
}

impl EstimateReport {
    /// Total per-frame energy (Eq. 1).
    #[must_use]
    pub fn total(&self) -> Energy {
        self.breakdown.total()
    }

    /// Energy per input pixel — the paper's Fig. 7 validation metric.
    #[must_use]
    pub fn energy_per_pixel(&self) -> Energy {
        self.breakdown.per_pixel(self.input_pixels.max(1))
    }

    /// Digital-domain latency `T_D` measured by the cycle-level
    /// simulation — the delay a design *needs*, as opposed to the
    /// frame time it was *given*.
    #[must_use]
    pub fn digital_latency(&self) -> camj_tech::units::Time {
        self.delay.digital_latency
    }

    /// The worst per-layer power density in mW/mm² (Sec. 6.2) — the
    /// single number Table 3 reports per design, and the thermal
    /// feasibility metric of multi-objective exploration. `None` when
    /// no in-sensor layer has a defined area.
    #[must_use]
    pub fn peak_power_density_mw_per_mm2(&self) -> Option<f64> {
        crate::power_density::peak_density_mw_per_mm2(&self.layers)
    }
}

impl CamJ {
    /// Assembles a model: runs all static pre-simulation checks and
    /// resolves the physical routes.
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`CamjError`].
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    pub fn new(
        algo: AlgorithmGraph,
        hw: HardwareDesc,
        mapping: Mapping,
        fps: f64,
    ) -> Result<Self, CamjError> {
        Ok(Self {
            model: ValidatedModel::new(algo, hw, mapping, fps)?,
        })
    }

    /// The algorithm description.
    #[must_use]
    pub fn algorithm(&self) -> &AlgorithmGraph {
        self.model.algorithm()
    }

    /// The hardware description.
    #[must_use]
    pub fn hardware(&self) -> &HardwareDesc {
        self.model.hardware()
    }

    /// The stage-to-unit mapping.
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        self.model.mapping()
    }

    /// The target frame rate.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.model.fps()
    }

    /// The underlying validated model: the staged pipeline's cached
    /// artifacts, reusable across sweep points.
    #[must_use]
    pub fn validated(&self) -> &ValidatedModel {
        &self.model
    }

    /// Unwraps into the underlying validated model.
    #[must_use]
    pub fn into_validated(self) -> ValidatedModel {
        self.model
    }

    /// A copy of this model targeting a different frame rate, sharing
    /// every already-computed pipeline artifact.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    #[must_use]
    pub fn at_fps(&self, fps: f64) -> Self {
        Self {
            model: self.model.with_fps(fps),
        }
    }

    /// Runs the full estimation flow: cycle-level simulation, delay
    /// solving, stall checking, and the three energy domains. (Checks
    /// and routing already ran in [`CamJ::new`].)
    ///
    /// # Errors
    ///
    /// * [`CamjError::FrameRateInfeasible`] — digital latency exceeds the
    ///   frame budget,
    /// * [`CamjError::StallDetected`] — the digital pipeline cannot keep
    ///   pace with the pixel readout at the target FPS,
    /// * [`CamjError::Sim`] — the simulation itself failed.
    pub fn estimate(&self) -> Result<EstimateReport, CamjError> {
        self.model.estimate()
    }
}
