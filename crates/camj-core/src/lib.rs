//! # camj-core — the CamJ energy modeling framework
//!
//! A Rust reproduction of CamJ (ISCA'23): component-level energy
//! estimation for computational CMOS image sensors under a target frame
//! rate. Users provide three declarative descriptions —
//!
//! 1. the **algorithm** ([`sw`]): a DAG of stencil/element-wise/DNN
//!    stages with image dimensions only, no arithmetic details,
//! 2. the **hardware** ([`hw`]): analog functional arrays, digital
//!    compute units, and memory structures placed on physical layers and
//!    physically connected,
//! 3. the **mapping** ([`mapping`]): which stage runs on which unit —
//!
//! and CamJ infers everything else: access counts from the stencil
//! shapes, digital latency and memory traffic from a cycle-level
//! simulation ([`camj_digital::sim`]), analog delays from the frame-rate
//! budget ([`delay`]), and finally a component-level energy breakdown
//! ([`energy`]) with per-layer power densities ([`power_density`]).
//!
//! # Examples
//!
//! The paper's Fig. 5 running example — a 32×32 sensor that bins 2×2 in
//! the pixel array and edge-detects digitally before shipping results
//! over MIPI:
//!
//! ```
//! use camj_analog::array::AnalogArray;
//! use camj_analog::components::{aps_4t, column_adc, ApsParams};
//! use camj_core::energy::CamJ;
//! use camj_core::hw::{
//!     AnalogCategory, AnalogUnitDesc, DigitalUnitDesc, HardwareDesc, Layer, MemoryDesc,
//! };
//! use camj_core::mapping::Mapping;
//! use camj_core::sw::{AlgorithmGraph, Stage};
//! use camj_digital::compute::ComputeUnit;
//! use camj_digital::memory::{MemoryEnergy, MemoryStructure};
//! use camj_tech::units::Energy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Algorithm: input → 2×2 binning → 3×3 edge detection.
//! let mut algo = AlgorithmGraph::new();
//! algo.add_stage(Stage::input("Input", [32, 32, 1]));
//! algo.add_stage(Stage::stencil("Binning", [32, 32, 1], [16, 16, 1], [2, 2, 1], [2, 2, 1]));
//! algo.add_stage(Stage::stencil("EdgeDetection", [16, 16, 1], [16, 16, 1], [3, 3, 1], [1, 1, 1]));
//! algo.connect("Input", "Binning")?;
//! algo.connect("Binning", "EdgeDetection")?;
//!
//! // Hardware: binning pixel array → column ADCs → line buffer → edge unit.
//! let mut hw = HardwareDesc::new(200e6);
//! hw.add_analog(
//!     AnalogUnitDesc::new(
//!         "PixelArray",
//!         AnalogArray::new(aps_4t(ApsParams::default().with_shared_pixels(4)), 16, 16),
//!         Layer::Sensor,
//!         AnalogCategory::Sensing,
//!     )
//!     .with_pixel_pitch_um(3.0),
//! );
//! hw.add_analog(AnalogUnitDesc::new(
//!     "ADCArray",
//!     AnalogArray::new(column_adc(10), 1, 16),
//!     Layer::Sensor,
//!     AnalogCategory::Sensing,
//! ));
//! hw.add_memory(MemoryDesc::new(
//!     MemoryStructure::line_buffer("LineBuffer", 3, 16)
//!         .with_energy(MemoryEnergy::from_pj_per_word(0.3, 0.3, 0.0))
//!         .with_ports(3, 1),
//!     Layer::Sensor,
//!     0.0,
//! ));
//! hw.add_digital(DigitalUnitDesc::pipelined(
//!     ComputeUnit::new("EdgeUnit", [1, 3, 1], [1, 1, 1], 2)
//!         .with_energy_per_cycle(Energy::from_picojoules(3.0)),
//!     Layer::Sensor,
//! ));
//! hw.connect("PixelArray", "ADCArray");
//! hw.connect("ADCArray", "LineBuffer");
//! hw.connect("LineBuffer", "EdgeUnit");
//!
//! // Mapping, exactly as in the paper's camj_mapping().
//! let mapping = Mapping::new()
//!     .map("Input", "PixelArray")
//!     .map("Binning", "PixelArray")
//!     .map("EdgeDetection", "EdgeUnit");
//!
//! let model = CamJ::new(algo, hw, mapping, 30.0)?;
//! let report = model.estimate()?;
//! assert!(report.total().picojoules() > 0.0);
//! println!("{:.1} pJ/px", report.energy_per_pixel().picojoules());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod check;
pub mod delay;
pub mod energy;
pub mod error;
pub mod fingerprint;
pub mod functional;
pub mod hw;
pub mod mapping;
pub mod power_density;
pub mod route;
pub mod sw;

pub use delay::DelayEstimate;
pub use energy::{
    CacheStats, CamJ, ElasticSim, EnergyBreakdown, EnergyCategory, EnergyItem, EstimateCache,
    EstimateReport, GateContext, GatedEstimate, KernelKind, ValidatedModel, ENERGY_KERNEL_COUNT,
};
pub use error::CamjError;
pub use functional::{
    FrameSimReport, McFrameSimReport, McOutputStats, NoiseReport, OutputStats, StageMcSim,
    StageNoise, StageSim, Stimulus, DEFAULT_SIGNAL_FRACTION,
};
pub use hw::{
    AnalogCategory, AnalogUnitDesc, DigitalUnitDesc, DigitalUnitKind, HardwareDesc, Layer,
    MemoryDesc,
};
pub use mapping::Mapping;
pub use power_density::{layer_powers, peak_density_mw_per_mm2, LayerPower};
pub use sw::{AlgorithmGraph, ImageSize, Stage, StageKind};
