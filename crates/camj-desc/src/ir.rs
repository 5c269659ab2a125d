//! The description IR: plain serde-backed data mirroring CamJ's full
//! modeling surface.
//!
//! Every numeric field stores the **same unit the core types store
//! internally** (joules, farads, watts, hertz, micrometres for pixel
//! pitch) — suffixed into the field name — so exporting a Rust-built
//! model and loading the JSON back is a bit-exact `f64` identity, and
//! the reloaded model's energy estimates are byte-identical to the
//! original's. Human-scale convenience conversions belong in tooling,
//! not in the stored format.
//!
//! The serialized shape is stable: objects keep field-declaration
//! order, enums are externally tagged with `snake_case` names, and
//! `Option` fields are simply absent when `None`.

use serde::{Deserialize, Serialize};

/// The current description format version (the `version` field).
pub const FORMAT_VERSION: u32 = 1;

/// A complete design description: hardware + algorithm + mapping + the
/// frame-rate target, with an optional sweep specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignDesc {
    /// Format version; must equal [`FORMAT_VERSION`].
    pub version: u32,
    /// Human-readable design name.
    pub name: String,
    /// Target frame rate in frames per second.
    pub fps: f64,
    /// The hardware description.
    pub hw: HardwareIr,
    /// The algorithm DAG.
    pub sw: AlgorithmIr,
    /// Stage-to-unit bindings.
    pub mapping: Vec<BindingIr>,
    /// Optional design-space sweep specification consumed by
    /// `camj sweep` (absent fields fall back to CLI flags).
    pub sweep: Option<SweepIr>,
    /// Optional stimulus for the functional pipeline: what `camj
    /// simulate` pushes through the analog chain and the mapped digital
    /// DAG, and what `accuracy:<metric>` objectives judge. Absent ⇒
    /// the default mid-scale uniform stimulus; a `--stimulus` CLI flag
    /// overrides a present block.
    pub stimulus: Option<StimulusIr>,
}

/// The stimulus block: which frame content the functional simulation
/// exposes the design to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StimulusIr {
    /// Every pixel at the same fraction of full scale.
    Uniform {
        /// Signal level, fraction of full scale in `[0, 1]`.
        level: f64,
    },
    /// A horizontal ramp from `low` to `high` across the frame.
    Gradient {
        /// Left-edge level, fraction of full scale in `[0, 1]`.
        low: f64,
        /// Right-edge level, fraction of full scale in `[0, 1]`.
        high: f64,
    },
    /// A real image in netpbm format (PGM/PPM, ascii or binary),
    /// resampled to the sensor resolution. A relative path is resolved
    /// against the description file's directory.
    Image {
        /// Path to the `.pgm`/`.ppm` file.
        path: String,
    },
}

/// One stage → unit binding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BindingIr {
    /// Algorithm stage name.
    pub stage: String,
    /// Hardware unit name.
    pub unit: String,
}

/// A sweep specification: the axes `camj sweep` expands, plus the
/// optional multi-objective block `camj pareto` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepIr {
    /// Frame-rate targets to sweep.
    pub fps: Vec<f64>,
    /// Objectives for `camj pareto`, in the shared objective grammar:
    /// `total_energy`, `delay`, `power_density`, `category:<LABEL>`
    /// (a Fig. 9 category label such as `MEM-D`, case-insensitive), or
    /// `stage:<name>` (an algorithm stage name). Absent ⇒ the CLI's
    /// defaults apply.
    pub objectives: Option<Vec<String>>,
    /// Feasibility budgets for `camj pareto`. Absent ⇒ unconstrained.
    pub constraints: Option<SweepConstraintsIr>,
    /// Adaptive-search defaults for `camj search`. Absent ⇒ the CLI's
    /// built-in defaults apply.
    pub search: Option<SearchIr>,
}

/// Adaptive frontier-search defaults (`camj search`). Every field is
/// optional; CLI flags override present fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchIr {
    /// Candidates evaluated per generation (warm-up samples twice as
    /// many). Must be ≥ 1 when present.
    pub population: Option<u64>,
    /// Maximum breeding generations after warm-up. Must be ≥ 1 when
    /// present.
    pub generations: Option<u64>,
    /// RNG seed; the same seed reproduces the run byte-identically.
    pub seed: Option<u64>,
    /// Cap on distinct grid points evaluated (at any fidelity). Must be
    /// ≥ 1 when present; absent ⇒ bounded by generations × population.
    pub budget: Option<u64>,
}

/// Feasibility budgets of a sweep's multi-objective block. Every field
/// is optional; present fields must be positive and finite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepConstraintsIr {
    /// Thermal budget: the worst per-layer power density must not
    /// exceed this many mW/mm² (paper Sec. 6.2, Table 3).
    pub max_power_density_mw_per_mm2: Option<f64>,
    /// Latency budget: the digital latency `T_D` must not exceed this
    /// many ms.
    pub max_digital_latency_ms: Option<f64>,
    /// Energy budget: total per-frame energy must not exceed this many
    /// pJ.
    pub max_total_energy_pj: Option<f64>,
}

// ---------------------------------------------------------------------
// Hardware
// ---------------------------------------------------------------------

/// The hardware half of a description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareIr {
    /// System digital clock in hertz.
    pub digital_clock_hz: f64,
    /// Analog functional arrays.
    pub analog: Vec<AnalogUnitIr>,
    /// Digital compute units.
    pub digital: Vec<DigitalUnitIr>,
    /// Digital memory structures.
    pub memories: Vec<MemoryIr>,
    /// Physical unit-to-unit connections.
    pub connections: Vec<ConnectionIr>,
}

/// One physical connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectionIr {
    /// Producing unit.
    pub from: String,
    /// Consuming unit.
    pub to: String,
}

/// Physical placement layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum LayerIr {
    /// The pixel/sensor die.
    Sensor,
    /// A stacked compute die.
    Compute,
    /// The host SoC outside the package.
    OffChip,
}

/// Analog energy-breakdown category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AnalogCategoryIr {
    /// Pixels and ADCs.
    Sensing,
    /// Analog processing elements.
    Compute,
    /// Analog buffers / sample-and-hold memories.
    Memory,
}

/// Signal domain at an analog component boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DomainIr {
    /// Photons at a photodiode.
    Optical,
    /// Charge packets.
    Charge,
    /// Voltages.
    Voltage,
    /// Currents.
    Current,
    /// Pulse-width/time-encoded signals.
    Time,
    /// Digital bits.
    Digital,
}

/// An analog functional array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalogUnitIr {
    /// Unit name (unique across all hardware units).
    pub name: String,
    /// Placement layer.
    pub layer: LayerIr,
    /// Breakdown category.
    pub category: AnalogCategoryIr,
    /// Array rows.
    pub rows: u32,
    /// Array columns.
    pub cols: u32,
    /// Component accesses per mapped-stage output pixel.
    pub ops_per_output: f64,
    /// Pixel pitch in micrometres, for pixel arrays (drives the area
    /// model); absent for non-pixel units.
    pub pixel_pitch_um: Option<f64>,
    /// The replicated A-Component.
    pub component: ComponentIr,
}

/// An analog component: ordered cells plus I/O domains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentIr {
    /// Component name (e.g. `"4T-APS"`).
    pub name: String,
    /// Input signal domain.
    pub input_domain: DomainIr,
    /// Output signal domain.
    pub output_domain: DomainIr,
    /// Analog supply voltage in volts.
    pub vdda_v: f64,
    /// Physical noise sources the component injects into the signal
    /// chain (functional simulation only — noise never changes an
    /// energy estimate). Absent ⇒ no declared sources; ADC
    /// quantization is always implicit in non-linear converter cells.
    pub noise: Option<Vec<NoiseSourceIr>>,
    /// Cells in critical-path order.
    pub cells: Vec<CellIr>,
}

/// One noise source of a component's `noise` block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum NoiseSourceIr {
    /// Photon shot noise on a full well of `full_well_electrons`.
    PhotonShot {
        /// Full-well capacity in electrons.
        full_well_electrons: f64,
    },
    /// Dark-current shot noise integrated over the exposure.
    DarkCurrent {
        /// Dark-current generation rate in electrons per second.
        electrons_per_sec: f64,
        /// Full-well capacity in electrons.
        full_well_electrons: f64,
    },
    /// Fixed read noise as an RMS fraction of full scale.
    Read {
        /// RMS amplitude, fraction of full scale.
        rms_fraction: f64,
    },
    /// `kT/C` sampling noise of a switched capacitor.
    KtcSampling {
        /// Sampling capacitance in farads.
        capacitance_f: f64,
        /// Signal swing the noise is referred to, in volts.
        v_swing_v: f64,
    },
}

/// One cell inside a component, with spatial/temporal access counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellIr {
    /// Breakdown label (e.g. `"SF"`, `"CDAC"`).
    pub label: String,
    /// Copies of the cell in the component.
    pub spatial: u32,
    /// Firings per copy per component access.
    pub temporal: u32,
    /// The cell's energy model.
    pub cell: CellKindIr,
}

/// The three A-Cell energy classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CellKindIr {
    /// Switched-capacitor dynamic cell.
    Dynamic {
        /// Capacitance nodes charged per operation.
        nodes: Vec<CapNodeIr>,
    },
    /// Static-biased amplifier cell.
    StaticBiased {
        /// Load capacitance in farads.
        load_capacitance_f: f64,
        /// Output voltage swing in volts.
        voltage_swing_v: f64,
        /// Bias-current estimation mode.
        bias: BiasIr,
    },
    /// Non-linear converter cell (ADC / comparator).
    NonLinear {
        /// Converter resolution in bits (1 for a comparator).
        bits: u32,
        /// Expert Walden FoM override in joules per conversion-step;
        /// absent means the survey median.
        fom_j_per_step: Option<f64>,
    },
}

/// One capacitance node of a dynamic cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapNodeIr {
    /// Nodal capacitance in farads.
    pub capacitance_f: f64,
    /// Voltage swing in volts.
    pub voltage_swing_v: f64,
}

/// Bias-current estimation mode of a static-biased cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BiasIr {
    /// Direct drive: the bias current charges the load within the cell
    /// delay.
    DirectDrive,
    /// The gm/Id method.
    GmId {
        /// Closed-loop gain demanded of the amplifier.
        gain: f64,
        /// Technology-insensitive gm/Id factor.
        gm_over_id: f64,
    },
}

/// A digital compute unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigitalUnitIr {
    /// Unit name (unique across all hardware units).
    pub name: String,
    /// Placement layer.
    pub layer: LayerIr,
    /// The compute flavor.
    pub unit: DigitalKindIr,
}

/// The digital compute flavors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DigitalKindIr {
    /// A generic pipelined accelerator.
    Pipelined {
        /// Pixels consumed per cycle, `[w, h, c]`.
        input_per_cycle: [u32; 3],
        /// Pixels produced per cycle, `[w, h, c]`.
        output_per_cycle: [u32; 3],
        /// Pipeline depth in stages.
        pipeline_stages: u32,
        /// Per-cycle energy in joules (from synthesis).
        energy_per_cycle_j: f64,
    },
    /// A systolic MAC array.
    Systolic {
        /// PE grid rows.
        rows: u32,
        /// PE grid columns.
        cols: u32,
        /// Fabrication node in nanometres.
        node_nm: f64,
        /// Per-MAC energy in joules.
        mac_energy_j: f64,
        /// Utilization factor in `(0, 1]`.
        utilization: f64,
    },
}

/// A digital memory structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryIr {
    /// Memory name (unique across all hardware units).
    pub name: String,
    /// Placement layer.
    pub layer: LayerIr,
    /// Structure kind.
    pub kind: MemoryKindIr,
    /// Total capacity in pixels (both banks for a double buffer).
    pub capacity_pixels: u64,
    /// Per-access energy parameters, flattened into this object.
    #[serde(flatten)]
    pub energy: MemoryEnergyIr,
    /// Pixels packed into one physical word.
    pub pixels_per_word: u32,
    /// Read ports.
    pub read_ports: u32,
    /// Write ports.
    pub write_ports: u32,
    /// Powered fraction of the frame time (`α`), in `[0, 1]`.
    pub active_fraction: f64,
    /// Macro area in mm² for the conservative area model.
    pub area_mm2: f64,
}

/// The supported memory structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MemoryKindIr {
    /// First-in-first-out queue.
    Fifo,
    /// Sliding-window line buffer.
    LineBuffer,
    /// Double-buffered SRAM.
    DoubleBuffer,
}

/// Per-word energy parameters (flattened into [`MemoryIr`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryEnergyIr {
    /// Energy per word read, joules.
    pub read_j_per_word: f64,
    /// Energy per word written, joules.
    pub write_j_per_word: f64,
    /// Leakage power while powered, watts.
    pub leakage_w: f64,
}

// ---------------------------------------------------------------------
// Algorithm
// ---------------------------------------------------------------------

/// The algorithm half of a description: a DAG of stages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmIr {
    /// Stages in declaration order.
    pub stages: Vec<StageIr>,
    /// Producer → consumer dependency edges.
    pub edges: Vec<EdgeIr>,
}

/// One dependency edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeIr {
    /// Producer stage.
    pub from: String,
    /// Consumer stage.
    pub to: String,
}

/// One algorithm stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageIr {
    /// Stage name (unique).
    pub name: String,
    /// Input image size `[w, h, c]`.
    pub input_size: [u32; 3],
    /// Output image size `[w, h, c]`.
    pub output_size: [u32; 3],
    /// Data resolution in bits.
    pub bits: u32,
    /// What the stage computes.
    pub kind: StageKindIr,
}

/// The stage kinds of the declarative algorithm interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StageKindIr {
    /// Raw pixel production by the pixel array.
    Input,
    /// A stencil operation.
    Stencil {
        /// Stencil window `[w, h, c]`.
        kernel: [u32; 3],
        /// Stride `[w, h, c]`.
        stride: [u32; 3],
    },
    /// A per-pixel operation over aligned inputs.
    ElementWise {
        /// Input operands consumed per output pixel.
        operands: u32,
    },
    /// A DNN inference stage.
    Dnn {
        /// Multiply-accumulates per frame.
        macs: u64,
        /// Weight parameter count.
        weights: u64,
    },
    /// A stage characterised by published totals.
    Custom {
        /// Operations per frame.
        ops: u64,
        /// Input pixels read per output pixel.
        reads_per_output: f64,
    },
}
