//! Noise-aware functional simulation: the signal-quality half of the
//! accuracy-vs-energy design space.
//!
//! The energy pipeline answers "what does a frame cost?"; this module
//! answers "what does a frame *look like*?". Both read the same model:
//! the analog units the routes traverse, the delay split the frame
//! budget solves, and the per-component [`NoiseSource`] descriptors
//! plus the implicit ADC quantization of digitising components
//! (`camj_digital::quantize`).
//!
//! Two complementary views exist:
//!
//! * the **analytic** [`NoiseReport`]
//!   ([`EstimateReport::noise`]) accumulates noise variance stage by
//!   stage for a mean signal level — closed-form, no RNG, cheap enough
//!   to attach to every [`EstimateReport`] and to drive the explorer's
//!   `snr` objective deterministically, and
//! * the **sampled** [`FrameSimReport`]
//!   ([`ValidatedModel::simulate_frame`]) renders a [`Stimulus`] into
//!   a full-resolution frame and pushes it through the chain with a
//!   seeded Gaussian sampler, measuring the per-stage SNR empirically.
//!
//! Determinism rules (the same contract the energy side honours):
//! a simulated frame is a pure function of `(model, seed, stimulus)`.
//! The per-stage RNG streams are derived by fingerprint-mixing the
//! seed with the stage's position and unit name, so results are
//! byte-identical across runs, across serial/parallel sweeps, and
//! across `RAYON_NUM_THREADS` settings.
//!
//! [`EstimateReport`]: crate::energy::EstimateReport
//! [`EstimateReport::noise`]: crate::energy::EstimateReport::noise
//! [`ValidatedModel::simulate_frame`]: crate::energy::ValidatedModel::simulate_frame

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use camj_analog::noise::NoiseSource;
use camj_digital::functional::Resample;
use camj_tech::fingerprint::FpHasher;
use camj_tech::units::Time;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The mean signal level (fraction of full scale) the analytic noise
/// report attached to every estimate assumes: a mid-scale scene, the
/// conventional operating point for SNR comparisons.
pub const DEFAULT_SIGNAL_FRACTION: f64 = 0.5;

/// An input scene for the frame simulator, normalised to full scale
/// (`0.0` = dark, `1.0` = full well): synthetic (`uniform`,
/// `gradient`) or decoded from a real PGM/PPM image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Stimulus {
    /// Every pixel at the same level.
    Uniform {
        /// Signal level, fraction of full scale in `[0, 1]`.
        level: f64,
    },
    /// A horizontal ramp from `low` (left edge) to `high` (right edge).
    Gradient {
        /// Level at the left edge, in `[0, 1]`.
        low: f64,
        /// Level at the right edge, in `[0, 1]`; at least `low`.
        high: f64,
    },
    /// A real image, decoded to a normalised luminance plane. Pixel
    /// data is carried inline so a parsed stimulus stays a pure value:
    /// the file is read exactly once, at parse/load time.
    Image {
        /// The path the image was loaded from (diagnostics and
        /// round-trip display only — the pixels below are the truth).
        path: String,
        /// Source image width in pixels.
        width: u32,
        /// Source image height in pixels.
        height: u32,
        /// Row-major luminance samples in `[0, 1]` (RGB sources are
        /// averaged to one plane), `width * height` values.
        pixels: Vec<f64>,
    },
}

impl Stimulus {
    /// A flat field at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, 1]`.
    #[must_use]
    pub fn uniform(level: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&level),
            "stimulus level must be in [0, 1], got {level}"
        );
        Stimulus::Uniform { level }
    }

    /// A horizontal ramp from `low` to `high`.
    ///
    /// # Panics
    ///
    /// Panics if either bound is outside `[0, 1]` or `low > high`.
    #[must_use]
    pub fn gradient(low: f64, high: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high),
            "stimulus levels must be in [0, 1], got {low}..{high}"
        );
        assert!(low <= high, "gradient must not descend: {low}..{high}");
        Stimulus::Gradient { low, high }
    }

    /// Loads a PGM/PPM image into an `image:` stimulus: samples are
    /// normalised by the file's `maxval`, RGB is averaged to one
    /// luminance plane.
    ///
    /// # Errors
    ///
    /// Returns the codec's diagnostic (I/O failure, or a malformed
    /// file with its byte offset), prefixed with the path.
    pub fn image_from_path(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let img = image::load(path)?;
        let scale = 1.0 / (f64::from(img.maxval) * f64::from(img.channels));
        let mut pixels = Vec::with_capacity(img.width as usize * img.height as usize);
        for y in 0..img.height {
            for x in 0..img.width {
                let sum: f64 = (0..img.channels)
                    .map(|c| f64::from(img.sample(x, y, c)))
                    .sum();
                pixels.push(sum * scale);
            }
        }
        Ok(Stimulus::Image {
            path: path.display().to_string(),
            width: img.width,
            height: img.height,
            pixels,
        })
    }

    /// The scene's mean level — the operating point analytic SNR is
    /// quoted at.
    #[must_use]
    pub fn mean_fraction(&self) -> f64 {
        match self {
            Stimulus::Uniform { level } => *level,
            Stimulus::Gradient { low, high } => (low + high) / 2.0,
            Stimulus::Image { pixels, .. } => {
                if pixels.is_empty() {
                    0.0
                } else {
                    pixels.iter().sum::<f64>() / pixels.len() as f64
                }
            }
        }
    }

    /// The clean value of pixel `(x, y)` on a `width` × `height`
    /// frame, one pixel at a time: the definition [`Self::render`] is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn value_at(&self, x: u32, y: u32, width: u32, height: u32) -> f64 {
        match self {
            Stimulus::Uniform { level } => *level,
            Stimulus::Gradient { low, high } => {
                if width <= 1 {
                    *low
                } else {
                    low + (high - low) * f64::from(x) / f64::from(width - 1)
                }
            }
            Stimulus::Image {
                width: iw,
                height: ih,
                pixels,
                ..
            } => {
                let sx = (u64::from(x) * u64::from(*iw) / u64::from(width.max(1))) as u32;
                let sy = (u64::from(y) * u64::from(*ih) / u64::from(height.max(1))) as u32;
                let (sx, sy) = (sx.min(iw - 1), sy.min(ih - 1));
                pixels[sy as usize * *iw as usize + sx as usize]
            }
        }
    }

    /// The per-pixel frame [`Self::render`] is tested against:
    /// [`Self::value_at`] for every pixel, repeated per channel.
    #[cfg(test)]
    pub(crate) fn render_per_pixel(&self, width: u32, height: u32, channels: u32) -> Vec<f64> {
        let mut clean = Vec::with_capacity(width as usize * height as usize * channels as usize);
        for y in 0..height {
            for x in 0..width {
                let value = self.value_at(x, y, width, height);
                for _c in 0..channels {
                    clean.push(value);
                }
            }
        }
        clean
    }

    /// Renders the clean frame: `width * height * channels` values in
    /// the simulator's canonical order (rows, then columns, channels
    /// interleaved). Every channel of a pixel carries the same value.
    pub(crate) fn render(&self, width: u32, height: u32, channels: u32) -> Vec<f64> {
        let mut frame = Vec::new();
        self.render_with(width, height, channels, |level| level, &mut frame);
        frame
    }

    /// [`Self::render`] of an element-wise function of the clean level,
    /// into `out` (its old contents are dropped, its capacity reused):
    /// bit for bit, `value` applied to every element of the clean
    /// frame. Each source level is mapped once — the one level of a
    /// flat field, each column of a ramp, each pixel of an image — and
    /// then laid out as the clean frame lays out levels, since mapping
    /// commutes with moving values.
    ///
    /// A ramp depends on the column only, so one row is rendered and
    /// repeated. Images resample nearest-neighbour through a planned
    /// [`Resample`] (per-axis index maps, no per-pixel division) — pure
    /// integer index arithmetic, so rendering is exact and
    /// thread-independent.
    pub(crate) fn render_with(
        &self,
        width: u32,
        height: u32,
        channels: u32,
        value: impl Fn(f64) -> f64,
        out: &mut Vec<f64>,
    ) {
        let len = width as usize * height as usize * channels as usize;
        out.clear();
        match self {
            Stimulus::Uniform { level } => out.resize(len, value(*level)),
            Stimulus::Gradient { low, high } => {
                let row: Vec<f64> = (0..width)
                    .flat_map(|x| {
                        let level = if width <= 1 {
                            *low
                        } else {
                            low + (high - low) * f64::from(x) / f64::from(width - 1)
                        };
                        std::iter::repeat(value(level)).take(channels as usize)
                    })
                    .collect();
                for _ in 0..height {
                    out.extend_from_slice(&row);
                }
            }
            Stimulus::Image {
                width: iw,
                height: ih,
                pixels,
                ..
            } => {
                if len > 0 {
                    let mapped: Vec<f64> = pixels.iter().map(|&level| value(level)).collect();
                    Resample::new((*iw, *ih, 1), (width, height, channels)).run(&mapped, None, out);
                }
            }
        }
    }
}

impl Default for Stimulus {
    /// The CLI default: a `0.1..0.9` ramp, exercising the
    /// signal-dependent sources across most of the dynamic range.
    fn default() -> Self {
        Stimulus::Gradient {
            low: 0.1,
            high: 0.9,
        }
    }
}

impl fmt::Display for Stimulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stimulus::Uniform { level } => write!(f, "uniform:{level}"),
            Stimulus::Gradient { low, high } => write!(f, "gradient:{low},{high}"),
            Stimulus::Image { path, .. } => write!(f, "image:{path}"),
        }
    }
}

impl FromStr for Stimulus {
    type Err = String;

    /// Parses the CLI grammar: `uniform:<level>`,
    /// `gradient:<low>,<high>` (levels in `[0, 1]`), or
    /// `image:<path>` — the image variant reads and decodes the file
    /// immediately, so the parsed value is self-contained.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parse_level = |text: &str| -> Result<f64, String> {
            let v = text
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("invalid stimulus level '{text}'"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("stimulus level must be in [0, 1], got '{text}'"));
            }
            Ok(v)
        };
        if let Some(level) = s.strip_prefix("uniform:") {
            return Ok(Stimulus::Uniform {
                level: parse_level(level)?,
            });
        }
        if let Some(bounds) = s.strip_prefix("gradient:") {
            let Some((low, high)) = bounds.split_once(',') else {
                return Err(format!(
                    "gradient stimulus needs two levels 'gradient:<low>,<high>', got '{s}'"
                ));
            };
            let (low, high) = (parse_level(low)?, parse_level(high)?);
            if low > high {
                return Err(format!("gradient must not descend: '{s}'"));
            }
            return Ok(Stimulus::Gradient { low, high });
        }
        if let Some(path) = s.strip_prefix("image:") {
            if path.trim().is_empty() {
                return Err(format!(
                    "image stimulus needs a path 'image:<path>', got '{s}'"
                ));
            }
            return Stimulus::image_from_path(path.trim());
        }
        Err(format!(
            "unknown stimulus '{s}' (expected uniform:<level>, gradient:<low>,<high>, or image:<path>)"
        ))
    }
}

/// One stage of the resolved noise chain: an analog unit, the noise
/// sources its component declares, and the implicit quantization of a
/// digitising back end.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NoiseStage {
    /// The analog unit's name.
    pub(crate) unit: String,
    /// The component's declared noise sources.
    pub(crate) sources: Vec<NoiseSource>,
    /// Converter resolution when the component digitises its output.
    pub(crate) quant_bits: Option<u32>,
}

impl NoiseStage {
    /// Whether the stage contributes any noise at all.
    pub(crate) fn is_noisy(&self) -> bool {
        !self.sources.is_empty() || self.quant_bits.is_some()
    }

    /// The stage's added noise variance (fraction² of full scale) at a
    /// mean signal of `signal_fraction`, integrating over `exposure`.
    pub(crate) fn variance(&self, signal_fraction: f64, exposure: Time, temperature_k: f64) -> f64 {
        let mut var: f64 = self
            .sources
            .iter()
            .map(|s| {
                let rms = s.rms_fraction(signal_fraction, exposure, temperature_k);
                rms * rms
            })
            .sum();
        if let Some(bits) = self.quant_bits {
            let q = camj_digital::quantize::quantization_noise_rms(bits);
            var += q * q;
        }
        var
    }
}

/// The analytic per-stage noise budget of a design at one frame rate —
/// attached to every [`EstimateReport`](crate::energy::EstimateReport)
/// whose analog chain declares (or implies) any noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseReport {
    /// The mean signal level (fraction of full scale) the budget is
    /// quoted at.
    pub signal_fraction: f64,
    /// Per-stage accounting, in signal-flow order.
    pub stages: Vec<StageNoise>,
    /// Total RMS noise at the chain's output, fraction of full scale.
    pub output_noise_rms: f64,
    /// End-to-end SNR in dB: `20·log10(signal / output_noise_rms)`.
    pub output_snr_db: f64,
}

impl NoiseReport {
    /// The accounting row of one named stage, if present.
    #[must_use]
    pub fn stage(&self, unit: &str) -> Option<&StageNoise> {
        self.stages.iter().find(|s| s.unit == unit)
    }
}

/// One analytic accounting row: what a stage adds and where the
/// cumulative budget stands after it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageNoise {
    /// The analog unit's name.
    pub unit: String,
    /// RMS noise this stage adds (all its sources plus quantization),
    /// fraction of full scale.
    pub added_noise_rms: f64,
    /// Cumulative RMS noise after this stage, fraction of full scale.
    pub cumulative_noise_rms: f64,
    /// Cumulative SNR in dB after this stage; absent while the chain
    /// is still noise-free.
    pub snr_db: Option<f64>,
}

/// The result of one seeded functional frame simulation
/// ([`ValidatedModel::simulate_frame`]): per-stage measured SNR and a
/// digest that pins the output frame bit-for-bit.
///
/// [`ValidatedModel::simulate_frame`]: crate::energy::ValidatedModel::simulate_frame
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameSimReport {
    /// The RNG seed the frame was simulated with.
    pub seed: u64,
    /// The stimulus, in its CLI grammar (`uniform:0.5`, …).
    pub stimulus: String,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Channel count.
    pub channels: u32,
    /// Per-stage measurements, in signal-flow order.
    pub stages: Vec<StageSim>,
    /// Summary statistics of the final simulated frame.
    pub output: OutputStats,
    /// A 128-bit fingerprint of the final frame's raw `f64` bits,
    /// hex-encoded — byte-identical runs produce identical digests.
    pub digest: String,
    /// The digital-DAG functional pass: what the mapped algorithm
    /// actually computed from the (noisy, quantized) sensor frame.
    /// Absent when the algorithm has no non-input stages.
    pub dag: Option<DagSim>,
}

/// One measured stage of a simulated frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSim {
    /// The analog unit's name.
    pub unit: String,
    /// RMS deviation from the clean frame after this stage, fraction
    /// of full scale.
    pub noise_rms: f64,
    /// Measured SNR in dB after this stage
    /// (`20·log10(signal_rms / noise_rms)`); absent while the frame is
    /// still bit-exact.
    pub snr_db: Option<f64>,
}

/// Summary statistics of a simulated output frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputStats {
    /// Mean pixel value, fraction of full scale.
    pub mean: f64,
    /// Smallest pixel value.
    pub min: f64,
    /// Largest pixel value.
    pub max: f64,
    /// RMS deviation from the clean frame, fraction of full scale.
    pub noise_rms: f64,
    /// Measured end-to-end SNR in dB; absent for a noise-free chain.
    pub snr_db: Option<f64>,
}

/// The result of a Monte-Carlo functional simulation
/// ([`ValidatedModel::simulate_frames`]): per-stage noise statistics
/// aggregated over several independently seeded frames.
///
/// One frame samples one noise realisation; the analytic
/// [`NoiseReport`] and the explorer's `snr` objective rest on a single
/// closed-form estimate. Averaging seeded frames recovers an empirical
/// SNR with a quantified spread (`…_std`), which is what the
/// `mc_snr:<samples>` pareto objective minimises (as mean output noise
/// RMS).
///
/// [`ValidatedModel::simulate_frames`]: crate::energy::ValidatedModel::simulate_frames
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McFrameSimReport {
    /// The stimulus, in its CLI grammar (`uniform:0.5`, …).
    pub stimulus: String,
    /// The seeds simulated, in input order.
    pub seeds: Vec<u64>,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Channel count.
    pub channels: u32,
    /// Per-stage aggregates, in signal-flow order.
    pub stages: Vec<StageMcSim>,
    /// Aggregate statistics of the final simulated frames.
    pub output: McOutputStats,
    /// The per-seed frame digests, in seed order — pins every
    /// underlying frame bit-for-bit, so serial and parallel evaluations
    /// of the same seed list are byte-comparable.
    pub digests: Vec<String>,
    /// Monte-Carlo aggregate of the digital-DAG functional pass.
    /// Absent when the algorithm has no non-input stages.
    pub dag: Option<McDagSim>,
}

/// One stage's Monte-Carlo aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMcSim {
    /// The analog unit's name.
    pub unit: String,
    /// Mean over seeds of the stage's measured noise RMS.
    pub noise_rms_mean: f64,
    /// Sample standard deviation (n−1) of the noise RMS; `0` for a
    /// single seed.
    pub noise_rms_std: f64,
    /// Mean measured SNR in dB; absent while the frame is bit-exact.
    pub snr_db_mean: Option<f64>,
    /// Sample standard deviation of the SNR in dB.
    pub snr_db_std: Option<f64>,
}

/// Monte-Carlo aggregate of the output-frame statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McOutputStats {
    /// Mean over seeds of the output frame's mean pixel value.
    pub mean: f64,
    /// Mean over seeds of the end-to-end noise RMS.
    pub noise_rms_mean: f64,
    /// Sample standard deviation (n−1) of the noise RMS.
    pub noise_rms_std: f64,
    /// Mean end-to-end SNR in dB; absent for a noise-free chain.
    pub snr_db_mean: Option<f64>,
    /// Sample standard deviation of the SNR in dB.
    pub snr_db_std: Option<f64>,
}

/// The digital-DAG half of one simulated frame: each non-input stage
/// executed functionally (window means, element-wise combination,
/// shape adaptation) on the noisy sensor frame, requantized to the
/// stage's declared bit width, and compared against the same DAG run
/// on the clean frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagSim {
    /// Per-stage measurements, in topological order.
    pub stages: Vec<DagStageSim>,
    /// The sink stage whose output the task metrics judge.
    pub sink: String,
    /// Task-level quality of the sink output versus the clean-frame
    /// reference output.
    pub metrics: TaskMetrics,
    /// A 128-bit fingerprint of the sink tensor's raw `f64` bits,
    /// hex-encoded — pins the full-DAG output bit-for-bit.
    pub digest: String,
}

/// One functionally executed DAG stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagStageSim {
    /// The algorithm stage's name.
    pub stage: String,
    /// RMS deviation of the stage's output from the clean-frame
    /// reference output, fraction of full scale.
    pub error_rms: f64,
    /// SNR in dB of the stage output against its reference
    /// (`20·log10(reference_rms / error_rms)`); absent while the
    /// tensors are still bit-exact.
    pub snr_db: Option<f64>,
}

/// Task-level quality metrics of a DAG sink output against its
/// clean-frame reference: full-reference error (MSE/RMSE/PSNR) for
/// reconstruction-style pipelines, and the normalised gaze-centroid
/// error that judges detection-style pipelines like Ed-Gaze.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskMetrics {
    /// Mean squared error, fraction² of full scale.
    pub mse: f64,
    /// Root of `mse`, fraction of full scale.
    pub rmse: f64,
    /// Peak SNR in dB (`10·log10(1 / mse)`); absent when the output is
    /// bit-exact (PSNR would be infinite).
    pub psnr_db: Option<f64>,
    /// Distance between the intensity-weighted centroids of the output
    /// and reference tensors, normalised so `1.0` is the frame
    /// diagonal — a gaze-error proxy for eye-tracking workloads.
    pub centroid_err: f64,
}

/// Monte-Carlo aggregate of the digital-DAG pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McDagSim {
    /// Per-stage aggregates, in topological order.
    pub stages: Vec<McDagStageSim>,
    /// The sink stage whose output the task metrics judge.
    pub sink: String,
    /// Aggregated task metrics over the seeds.
    pub metrics: McTaskMetrics,
    /// Per-seed sink digests, in seed order.
    pub digests: Vec<String>,
}

/// One DAG stage's Monte-Carlo aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McDagStageSim {
    /// The algorithm stage's name.
    pub stage: String,
    /// Mean over seeds of the stage's error RMS.
    pub error_rms_mean: f64,
    /// Sample standard deviation (n−1) of the error RMS.
    pub error_rms_std: f64,
    /// Mean SNR in dB; absent while the tensors are bit-exact.
    pub snr_db_mean: Option<f64>,
    /// Sample standard deviation of the SNR in dB.
    pub snr_db_std: Option<f64>,
}

/// Monte-Carlo aggregate of the task metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McTaskMetrics {
    /// Mean over seeds of the MSE.
    pub mse_mean: f64,
    /// Sample standard deviation (n−1) of the MSE.
    pub mse_std: f64,
    /// Mean over seeds of the RMSE.
    pub rmse_mean: f64,
    /// Sample standard deviation of the RMSE.
    pub rmse_std: f64,
    /// Mean PSNR in dB; absent when any seed was bit-exact.
    pub psnr_db_mean: Option<f64>,
    /// Sample standard deviation of the PSNR.
    pub psnr_db_std: Option<f64>,
    /// Mean normalised centroid error.
    pub centroid_err_mean: f64,
    /// Sample standard deviation of the centroid error.
    pub centroid_err_std: f64,
}

impl TaskMetrics {
    /// Measures `output` against `reference` on a `width` × `height`
    /// × `channels` tensor. Pure arithmetic in index order, so the
    /// result is deterministic across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if the tensors disagree in length.
    #[must_use]
    pub fn measure(output: &[f64], reference: &[f64], width: u32, height: u32) -> Self {
        Self::against(
            output,
            reference,
            centroid(reference, width, height),
            width,
            height,
        )
    }

    /// [`Self::measure`] with the reference tensor's [`centroid`]
    /// already resolved — a frame plan resolves it once for all seeds.
    pub(crate) fn against(
        output: &[f64],
        reference: &[f64],
        (rx, ry): (f64, f64),
        width: u32,
        height: u32,
    ) -> Self {
        assert_eq!(output.len(), reference.len(), "tensor shapes must match");
        let n = output.len().max(1) as f64;
        let mse = output
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n;
        let psnr_db = if mse > 0.0 {
            Some(10.0 * (1.0 / mse).log10())
        } else {
            None
        };
        let (ox, oy) = centroid(output, width, height);
        let (dx, dy) = (ox - rx, oy - ry);
        Self {
            mse,
            rmse: mse.sqrt(),
            psnr_db,
            centroid_err: (dx * dx + dy * dy).sqrt() / std::f64::consts::SQRT_2,
        }
    }
}

/// The intensity-weighted centroid of a tensor (channels summed per
/// pixel), in coordinates normalised to `[0, 1]` per axis. A zero
/// total weight (an all-black frame) centres the centroid.
pub(crate) fn centroid(tensor: &[f64], width: u32, height: u32) -> (f64, f64) {
    let channels = tensor.len() / (width as usize * height as usize).max(1);
    let (mut wx, mut wy, mut total) = (0.0, 0.0, 0.0);
    let mut idx = 0;
    for y in 0..height {
        for x in 0..width {
            let mut w = 0.0;
            for _ in 0..channels {
                w += tensor[idx];
                idx += 1;
            }
            wx += w * f64::from(x);
            wy += w * f64::from(y);
            total += w;
        }
    }
    if total <= 0.0 {
        return (0.5, 0.5);
    }
    let nx = if width > 1 {
        wx / total / f64::from(width - 1)
    } else {
        0.5
    };
    let ny = if height > 1 {
        wy / total / f64::from(height - 1)
    } else {
        0.5
    };
    (nx, ny)
}

/// A per-seed quantity a Monte-Carlo batch reduces to its mean and
/// sample standard deviation across seeds.
pub(crate) trait SeedStat: Sized {
    /// `(mean, std)` of `values`, taken in slice order.
    fn mean_std(values: &[Self]) -> (Self, Self);
}

/// Plain values: sample standard deviation with the n−1 denominator,
/// `0` when there are fewer than two values.
impl SeedStat for f64 {
    fn mean_std(values: &[f64]) -> (f64, f64) {
        if values.is_empty() {
            return (0.0, 0.0);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        if values.len() < 2 {
            return (mean, 0.0);
        }
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean, var.sqrt())
    }
}

/// Optional values (an SNR): statistics are reported only when every
/// seed produced one (a noise realisation never changes whether a chain
/// is noisy, so mixed presence would be a bug upstream).
impl SeedStat for Option<f64> {
    fn mean_std(values: &[Option<f64>]) -> (Option<f64>, Option<f64>) {
        let present: Vec<f64> = values.iter().copied().flatten().collect();
        if present.len() != values.len() || present.is_empty() {
            return (None, None);
        }
        let (mean, std) = f64::mean_std(&present);
        (Some(mean), Some(std))
    }
}

/// `20·log10(signal / noise)`, or `None` when there is no noise to
/// compare against (SNR would be infinite, which JSON cannot carry).
pub(crate) fn snr_db(signal_rms: f64, noise_rms: f64) -> Option<f64> {
    if noise_rms > 0.0 && signal_rms > 0.0 {
        Some(20.0 * (signal_rms / noise_rms).log10())
    } else {
        None
    }
}

/// Derives the RNG stream of one noise stage: a pure mix of the frame
/// seed, the stage's position, and the unit name, so streams never
/// depend on evaluation order or thread count.
pub(crate) fn stage_rng(seed: u64, stage_index: usize, unit: &str) -> StdRng {
    let mut h = FpHasher::new();
    h.write_str("camj.frame-sim/v1");
    h.write_u64(seed);
    h.write_usize(stage_index);
    h.write_str(unit);
    let (hi, lo) = h.finish().parts();
    StdRng::seed_from_u64(hi ^ lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stimulus_grammar_round_trips() {
        for text in ["uniform:0.5", "gradient:0.1,0.9", "uniform:1", "uniform:0"] {
            let s: Stimulus = text.parse().unwrap();
            assert_eq!(s.to_string().parse::<Stimulus>().unwrap(), s, "{text}");
        }
        assert_eq!(
            Stimulus::default().to_string().parse::<Stimulus>().unwrap(),
            Stimulus::default()
        );
    }

    #[test]
    fn bad_stimuli_are_reported() {
        for text in [
            "uniform:1.5",
            "uniform:x",
            "gradient:0.9,0.1",
            "gradient:0.5",
            "noise",
        ] {
            assert!(text.parse::<Stimulus>().is_err(), "{text}");
        }
    }

    #[test]
    fn gradient_spans_its_bounds() {
        let s = Stimulus::gradient(0.2, 0.8);
        assert_eq!(s.value_at(0, 0, 100, 1), 0.2);
        assert_eq!(s.value_at(99, 0, 100, 1), 0.8);
        assert!((s.mean_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(Stimulus::gradient(0.3, 0.7).value_at(0, 0, 1, 1), 0.3);
    }

    #[test]
    fn image_stimulus_loads_resamples_and_round_trips() {
        let dir = std::env::temp_dir().join("camj-image-stimulus-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ramp.pgm");
        // 4x2 ramp: values 0..8 scaled by maxval/8.
        let img = image::Pnm::new(4, 2, 1, 200, vec![0, 25, 50, 75, 100, 125, 150, 175]).unwrap();
        image::save(&path, &img).unwrap();

        let spec = format!("image:{}", path.display());
        let s: Stimulus = spec.parse().unwrap();
        let Stimulus::Image {
            width,
            height,
            ref pixels,
            ..
        } = s
        else {
            panic!("expected an image stimulus");
        };
        assert_eq!((width, height), (4, 2));
        assert_eq!(pixels[0], 0.0);
        assert!((pixels[7] - 0.875).abs() < 1e-12);
        // Identity-size render reproduces the pixels exactly.
        assert_eq!(s.render(4, 2, 1), *pixels);
        // Nearest-neighbour upsample only repeats existing values.
        for v in s.render(8, 4, 1) {
            assert!(pixels.contains(&v), "{v}");
        }
        // Display/parse round-trips through the path.
        assert_eq!(s.to_string().parse::<Stimulus>().unwrap(), s);

        assert!("image:".parse::<Stimulus>().is_err());
        assert!("image:/nonexistent/x.pgm".parse::<Stimulus>().is_err());
    }

    proptest::proptest! {
        /// The planned render is bit-identical to the per-pixel one for
        /// every stimulus kind, image size, and frame shape (up- and
        /// down-sampling on each axis, 1–3 channels).
        #[test]
        fn planned_render_matches_per_pixel_oracle(
            width in 1u32..40,
            height in 1u32..40,
            channels in 1u32..4,
            iw in 1u32..40,
            ih in 1u32..40,
            low in 0u32..101,
            span in 0u32..101,
            pixel_seed in 0u64..1 << 20,
        ) {
            let low = f64::from(low) / 100.0;
            let high = (low + f64::from(span) / 100.0).min(1.0);
            let mut rng = StdRng::seed_from_u64(pixel_seed);
            let image = Stimulus::Image {
                path: "oracle.pgm".to_owned(),
                width: iw,
                height: ih,
                pixels: (0..iw * ih).map(|_| rng.random_range(0.0..1.0)).collect(),
            };
            for stimulus in [Stimulus::uniform(low), Stimulus::gradient(low, high), image] {
                let planned = stimulus.render(width, height, channels);
                let oracle = stimulus.render_per_pixel(width, height, channels);
                proptest::prop_assert_eq!(
                    planned.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} at {}x{}x{}", stimulus, width, height, channels
                );
            }
        }
    }

    #[test]
    fn stage_rng_streams_are_independent_and_stable() {
        let mut a = stage_rng(42, 0, "PixelArray");
        let mut a2 = stage_rng(42, 0, "PixelArray");
        let mut b = stage_rng(42, 1, "ADCArray");
        assert_eq!(a.next_u64(), a2.next_u64(), "same stage ⇒ same stream");
        let mut a = stage_rng(42, 0, "PixelArray");
        assert_ne!(a.next_u64(), b.next_u64(), "stages get distinct streams");
    }

    #[test]
    fn task_metrics_on_identical_tensors_are_zero() {
        let t = [0.1, 0.5, 0.9, 0.2];
        let m = TaskMetrics::measure(&t, &t, 2, 2);
        assert_eq!(m.mse, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.psnr_db, None);
        assert_eq!(m.centroid_err, 0.0);
    }

    #[test]
    fn centroid_error_tracks_mass_shift() {
        // All mass at the left edge vs all mass at the right edge of a
        // 4x1 strip: centroids land at nx = 0 and nx = 1.
        let reference = [1.0, 0.0, 0.0, 0.0];
        let output = [0.0, 0.0, 0.0, 1.0];
        let m = TaskMetrics::measure(&output, &reference, 4, 1);
        let expected = 1.0 / std::f64::consts::SQRT_2;
        assert!((m.centroid_err - expected).abs() < 1e-12, "{m:?}");
        assert!((m.mse - 0.5).abs() < 1e-12);
        // An all-black output centres its centroid rather than diverging.
        let black = [0.0; 4];
        let m = TaskMetrics::measure(&black, &reference, 4, 1);
        assert!(m.centroid_err.is_finite());
    }

    #[test]
    fn snr_handles_the_noise_free_edge() {
        assert_eq!(snr_db(0.5, 0.0), None);
        let db = snr_db(0.5, 0.005).unwrap();
        assert!((db - 40.0).abs() < 1e-9, "{db}");
    }
}
