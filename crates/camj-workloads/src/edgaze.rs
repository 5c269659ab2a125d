//! Ed-Gaze \[17\] — the paper's second case-study workload (Fig. 8b,
//! Fig. 9b, Fig. 10–13, Table 3).
//!
//! A 640×400 eye-tracking sensor: 2×2 downsampling (S1), frame
//! subtraction against the previous frame (S2), and an ROI-generating
//! DNN of ~5.76 × 10⁷ MACs (S3). The frame buffer can never be
//! power-gated (S2 needs the previous frame), which makes Ed-Gaze the
//! paper's showcase for leakage-driven findings: 2D in-sensor computing
//! *loses* (Finding 1), 3D stacking and STT-RAM win (Finding 2), and
//! moving S1/S2 into the analog domain wins mostly through memory
//! energy (Finding 3).

use camj_analog::array::AnalogArray;
use camj_analog::component::AnalogComponentSpec;
use camj_analog::components::{
    abs_diff_digitizing, active_sample_hold_with_cap, aps_4t, column_adc_with_fom,
};
use camj_analog::noise::NoiseSource;
use camj_core::energy::CamJ;
use camj_core::hw::{
    AnalogCategory, AnalogUnitDesc, DigitalUnitDesc, HardwareDesc, Layer, MemoryDesc,
};
use camj_core::mapping::Mapping;
use camj_core::sw::{AlgorithmGraph, Stage};
use camj_digital::compute::{ComputeUnit, SystolicArray};
use camj_digital::memory::{MemoryKind, MemoryStructure};
use camj_tech::node::ProcessNode;

use crate::configs::{
    scaled_op_energy, sram_parameters, sttram_parameters, workload_pixel, SensorVariant,
    WorkloadError, COLUMN_ADC_BITS, COLUMN_ADC_FOM, DARK_CURRENT_E_PER_S, DIGITAL_CLOCK_HZ,
    FULL_WELL_ELECTRONS, PIXEL_PITCH_UM, READ_NOISE_FRACTION, WORKLOAD_FPS,
};

/// Sensor width in pixels.
pub const WIDTH: u32 = 640;
/// Sensor height in pixels.
pub const HEIGHT: u32 = 400;
/// Downsampled width.
pub const DS_WIDTH: u32 = WIDTH / 2;
/// Downsampled height.
pub const DS_HEIGHT: u32 = HEIGHT / 2;
/// DNN multiply-accumulates per frame (from the original paper).
pub const DNN_MACS: u64 = 57_600_000;
/// DNN weight parameter count (fits the 64 KiB weight buffer).
pub const DNN_WEIGHTS: u64 = 60_000;
/// The ROI reduces the transmitted image volume by 25 %.
pub const ROI_FRACTION: f64 = 0.75;
/// Stage-1 (downsample) PE count.
pub const PE1_COUNT: u32 = 16;
/// Stage-2 (frame subtraction) PE count.
pub const PE2_COUNT: u32 = 32;
/// Per-operation energy of the S1/S2 datapaths at 65 nm, pJ (8-bit
/// average / subtract units from synthesis).
pub const OP_ENERGY_65NM_PJ: f64 = 0.1;
/// Conservative capacitor sizing of the mixed-signal design: the paper
/// fixes every analog capacitor to 100 fF for fair area accounting.
pub const MIXED_CAP_F: f64 = 100e-15;
/// Fraction of the frame the DNN buffer stays powered (it is power-gated
/// outside the DNN's execution window; the frame buffer is not).
pub const DNN_BUFFER_ACTIVE_FRACTION: f64 = 0.1;

/// ROI output height such that `WIDTH × height ≈ ROI_FRACTION` of the
/// full frame.
const ROI_HEIGHT: u32 = (HEIGHT as f64 * ROI_FRACTION) as u32;

/// The Ed-Gaze algorithm DAG: S1 downsample → S2 frame-sub → S3 DNN.
#[must_use]
pub fn algorithm() -> AlgorithmGraph {
    let mut algo = AlgorithmGraph::new();
    algo.add_stage(Stage::input("Input", [WIDTH, HEIGHT, 1]));
    algo.add_stage(Stage::stencil(
        "Downsample",
        [WIDTH, HEIGHT, 1],
        [DS_WIDTH, DS_HEIGHT, 1],
        [2, 2, 1],
        [2, 2, 1],
    ));
    algo.add_stage(Stage::element_wise("FrameSub", [DS_WIDTH, DS_HEIGHT, 1], 2));
    algo.add_stage(Stage::dnn(
        "RoiDnn",
        [DS_WIDTH, DS_HEIGHT, 1],
        [WIDTH, ROI_HEIGHT, 1],
        DNN_MACS,
        DNN_WEIGHTS,
    ));
    algo.connect("Input", "Downsample").expect("stage exists");
    algo.connect("Downsample", "FrameSub")
        .expect("stage exists");
    algo.connect("FrameSub", "RoiDnn").expect("stage exists");
    algo
}

/// A configurable Ed-Gaze build: the paper's variant/node axes plus
/// the precision and memory-structure axes a 4-axis design-space sweep
/// explores (bit width × tech node × memory kind × frame rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdGazeConfig {
    /// Architecture variant (2D-In, 3D-In, …).
    pub variant: SensorVariant,
    /// CIS (pixel-layer) process node.
    pub cis_node: ProcessNode,
    /// Column-ADC resolution in bits.
    pub adc_bits: u32,
    /// Structure kind of the frame buffer (the workload's dominant,
    /// never-power-gated memory).
    pub frame_buffer_kind: MemoryKind,
}

impl EdGazeConfig {
    /// The paper's baseline configuration for `variant` at `cis_node`:
    /// a 10-bit column ADC and a double-buffered frame buffer.
    #[must_use]
    pub fn new(variant: SensorVariant, cis_node: ProcessNode) -> Self {
        Self {
            variant,
            cis_node,
            adc_bits: COLUMN_ADC_BITS,
            frame_buffer_kind: MemoryKind::DoubleBuffer,
        }
    }

    /// Overrides the column-ADC resolution (builder-style).
    #[must_use]
    pub fn with_adc_bits(mut self, bits: u32) -> Self {
        self.adc_bits = bits;
        self
    }

    /// Overrides the frame-buffer structure kind (builder-style).
    #[must_use]
    pub fn with_frame_buffer_kind(mut self, kind: MemoryKind) -> Self {
        self.frame_buffer_kind = kind;
        self
    }
}

/// Builds the full CamJ model for one architecture variant, at the
/// paper's baseline precision and memory structure.
///
/// # Errors
///
/// See [`model_with`].
pub fn model(variant: SensorVariant, cis_node: ProcessNode) -> Result<CamJ, WorkloadError> {
    model_with(EdGazeConfig::new(variant, cis_node))
}

/// Builds the full CamJ model for one [`EdGazeConfig`].
///
/// # Errors
///
/// Returns [`WorkloadError::Camj`] if the assembled model fails a
/// pre-simulation check, or [`WorkloadError::Unsupported`] if the
/// STT-RAM model rejects a memory geometry.
pub fn model_with(config: EdGazeConfig) -> Result<CamJ, WorkloadError> {
    let EdGazeConfig {
        variant, cis_node, ..
    } = config;
    if variant == SensorVariant::TwoDInMixed {
        // The mixed-signal design has no column ADC bank and no digital
        // frame buffer, so the precision/memory axes do not apply —
        // reject overrides instead of silently ignoring them (a sweep
        // would otherwise report those axes as having zero effect).
        if config != EdGazeConfig::new(variant, cis_node) {
            return Err(WorkloadError::Unsupported {
                reason: format!(
                    "the 2D-In-Mixed variant digitises via per-column comparators and \
                     holds frames in an analog S&H array; adc_bits={} / \
                     frame_buffer_kind={:?} overrides do not apply",
                    config.adc_bits, config.frame_buffer_kind
                ),
            });
        }
        return mixed_model(cis_node);
    }
    let digital_layer = variant.digital_layer();
    let digital_node = variant.digital_node(cis_node);

    let mut hw = HardwareDesc::new(DIGITAL_CLOCK_HZ);
    hw.add_analog(
        AnalogUnitDesc::new(
            "PixelArray",
            AnalogArray::new(noisy_pixel(aps_4t(workload_pixel())), HEIGHT, WIDTH),
            Layer::Sensor,
            AnalogCategory::Sensing,
        )
        .with_pixel_pitch_um(PIXEL_PITCH_UM),
    );
    hw.add_analog(AnalogUnitDesc::new(
        "ADCArray",
        AnalogArray::new(
            column_adc_with_fom(config.adc_bits, COLUMN_ADC_FOM),
            1,
            WIDTH,
        ),
        Layer::Sensor,
        AnalogCategory::Sensing,
    ));

    let mem_parameters = |bytes: u64, word_bits: u32| -> Result<_, WorkloadError> {
        if variant.uses_stt_ram() {
            sttram_parameters(bytes, word_bits, digital_node)
        } else {
            Ok(sram_parameters(bytes, word_bits, digital_node))
        }
    };

    // Line buffer: 2 rows of 640 (small — always SRAM, even in the STT
    // variant, mirroring the paper's compute-memory-only replacement).
    let lb_pixels = 2 * u64::from(WIDTH);
    let (lb_energy, lb_area) = sram_parameters(lb_pixels, 32, digital_node);
    hw.add_memory(MemoryDesc::new(
        MemoryStructure::line_buffer("LineBuffer", 2, WIDTH)
            .with_energy(lb_energy)
            .with_pixels_per_word(4)
            .with_ports(2, 2),
        digital_layer,
        lb_area,
    ));

    // Frame buffer: one downsampled frame, never power-gated. The
    // structure kind is a sweep axis: double-buffered (the paper's
    // baseline, two banks so producer and consumer never collide), or a
    // single-bank line buffer / FIFO trading capacity for port pressure.
    let fb_pixels = u64::from(DS_WIDTH) * u64::from(DS_HEIGHT);
    let (fb_energy, fb_area) = mem_parameters(fb_pixels, 64)?;
    let frame_buffer = match config.frame_buffer_kind {
        MemoryKind::DoubleBuffer => MemoryStructure::double_buffer("FrameBuffer", fb_pixels),
        MemoryKind::LineBuffer => MemoryStructure::line_buffer("FrameBuffer", DS_HEIGHT, DS_WIDTH),
        MemoryKind::Fifo => MemoryStructure::fifo("FrameBuffer", fb_pixels),
    };
    hw.add_memory(MemoryDesc::new(
        frame_buffer
            .with_energy(fb_energy)
            .with_pixels_per_word(8)
            .with_ports(2, 2),
        digital_layer,
        fb_area,
    ));

    // DNN input/weight buffer: 64 KiB, power-gated outside the DNN window.
    let dnn_bytes = 64 * 1024;
    let (dnn_energy, dnn_area) = mem_parameters(dnn_bytes, 64)?;
    hw.add_memory(MemoryDesc::new(
        MemoryStructure::double_buffer("DnnBuffer", dnn_bytes)
            .with_energy(dnn_energy)
            .with_pixels_per_word(8)
            .with_ports(2, 2)
            .with_active_fraction(DNN_BUFFER_ACTIVE_FRACTION),
        digital_layer,
        dnn_area,
    ));

    let op = |pj: f64| scaled_op_energy(pj, digital_node);
    hw.add_digital(DigitalUnitDesc::pipelined(
        ComputeUnit::new("DownsamplePE", [2, 2, 1], [1, 1, 1], 2)
            .with_energy_per_cycle(op(OP_ENERGY_65NM_PJ) * f64::from(PE1_COUNT)),
        digital_layer,
    ));
    hw.add_digital(DigitalUnitDesc::pipelined(
        ComputeUnit::new("FrameSubPE", [2, 1, 1], [1, 1, 1], 2)
            .with_energy_per_cycle(op(OP_ENERGY_65NM_PJ) * f64::from(PE2_COUNT)),
        digital_layer,
    ));
    hw.add_digital(DigitalUnitDesc::systolic(
        SystolicArray::new("DnnArray", 16, 16, digital_node),
        digital_layer,
    ));

    hw.connect("PixelArray", "ADCArray");
    hw.connect("ADCArray", "LineBuffer");
    hw.connect("LineBuffer", "DownsamplePE");
    hw.connect("DownsamplePE", "FrameBuffer");
    hw.connect("FrameBuffer", "FrameSubPE");
    hw.connect("FrameSubPE", "DnnBuffer");
    hw.connect("DnnBuffer", "DnnArray");

    let mapping = Mapping::new()
        .map("Input", "PixelArray")
        .map("Downsample", "DownsamplePE")
        .map("FrameSub", "FrameSubPE")
        .map("RoiDnn", "DnnArray");

    CamJ::new(algorithm(), hw, mapping, WORKLOAD_FPS).map_err(WorkloadError::from)
}

/// The Ed-Gaze pixel with its physical noise sources attached (photon
/// shot, dark current, read noise). Noise is energy-inert: it feeds
/// the functional simulation and the explorer's `snr` objective only.
fn noisy_pixel(component: AnalogComponentSpec) -> AnalogComponentSpec {
    component
        .with_noise_source(NoiseSource::photon_shot(FULL_WELL_ELECTRONS))
        .with_noise_source(NoiseSource::dark_current(
            DARK_CURRENT_E_PER_S,
            FULL_WELL_ELECTRONS,
        ))
        .with_noise_source(NoiseSource::read(READ_NOISE_FRACTION))
}

/// The mixed-signal design of Fig. 10: binning inside the pixel array
/// (S1), an analog frame buffer, and switched-capacitor frame
/// subtraction with comparator digitisation (S2); only the DNN (S3)
/// stays digital.
fn mixed_model(cis_node: ProcessNode) -> Result<CamJ, WorkloadError> {
    let mut hw = HardwareDesc::new(DIGITAL_CLOCK_HZ);
    // 2×2 binning happens in the pixel array: four photodiodes share one
    // readout chain, so the array reads out at downsampled resolution.
    hw.add_analog(
        AnalogUnitDesc::new(
            "PixelArray",
            AnalogArray::new(
                noisy_pixel(aps_4t(workload_pixel().with_shared_pixels(4))),
                DS_HEIGHT,
                DS_WIDTH,
            ),
            Layer::Sensor,
            AnalogCategory::Sensing,
        )
        // Same die: a binned "pixel" covers a 2×2 tile of the base pitch.
        .with_pixel_pitch_um(2.0 * PIXEL_PITCH_UM),
    );
    // The analog S&H frame buffer and the switched-capacitor PE both
    // resample the signal on their 100 fF caps, each paying one kT/C
    // hit — the accuracy cost behind Finding 3's caveat.
    hw.add_analog(AnalogUnitDesc::new(
        "AnalogFrameBuffer",
        AnalogArray::new(
            active_sample_hold_with_cap(MIXED_CAP_F, 1.0)
                .with_noise_source(NoiseSource::ktc(MIXED_CAP_F, 1.0)),
            DS_HEIGHT,
            DS_WIDTH,
        ),
        Layer::Sensor,
        AnalogCategory::Memory,
    ));
    hw.add_analog(AnalogUnitDesc::new(
        "AnalogPEArray",
        AnalogArray::new(
            abs_diff_digitizing(MIXED_CAP_F, 1.0)
                .with_noise_source(NoiseSource::ktc(MIXED_CAP_F, 1.0)),
            1,
            DS_WIDTH,
        ),
        Layer::Sensor,
        AnalogCategory::Compute,
    ));

    let dnn_bytes = 64 * 1024;
    let (dnn_energy, dnn_area) = sram_parameters(dnn_bytes, 64, cis_node);
    hw.add_memory(MemoryDesc::new(
        MemoryStructure::double_buffer("DnnBuffer", dnn_bytes)
            .with_energy(dnn_energy)
            .with_pixels_per_word(8)
            .with_ports(2, 2)
            .with_active_fraction(DNN_BUFFER_ACTIVE_FRACTION),
        Layer::Sensor,
        dnn_area,
    ));
    hw.add_digital(DigitalUnitDesc::systolic(
        SystolicArray::new("DnnArray", 16, 16, cis_node),
        Layer::Sensor,
    ));

    hw.connect("PixelArray", "AnalogFrameBuffer");
    hw.connect("AnalogFrameBuffer", "AnalogPEArray");
    hw.connect("AnalogPEArray", "DnnBuffer");
    hw.connect("DnnBuffer", "DnnArray");

    let mapping = Mapping::new()
        .map("Input", "PixelArray")
        .map("Downsample", "PixelArray")
        .map("FrameSub", "AnalogPEArray")
        .map("RoiDnn", "DnnArray");

    CamJ::new(algorithm(), hw, mapping, WORKLOAD_FPS).map_err(WorkloadError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camj_core::energy::EnergyCategory;

    fn total(variant: SensorVariant, node: ProcessNode) -> f64 {
        model(variant, node)
            .unwrap()
            .estimate()
            .unwrap()
            .total()
            .microjoules()
    }

    #[test]
    fn dnn_macs_match_paper() {
        let algo = algorithm();
        assert_eq!(algo.stage("RoiDnn").unwrap().ops_per_frame(), DNN_MACS);
    }

    #[test]
    fn in_sensor_loses_for_edgaze() {
        // Finding 1: Ed-Gaze is compute/memory-dominant, so 2D-In loses.
        for node in [ProcessNode::N130, ProcessNode::N65] {
            assert!(
                total(SensorVariant::TwoDIn, node) > total(SensorVariant::TwoDOff, node),
                "2D-In should lose at {node}"
            );
        }
    }

    #[test]
    fn leakage_makes_65nm_worse_than_130nm_in_sensor() {
        // The paper's leakage twist: 65 nm 2D-In beats 130 nm on dynamic
        // energy but loses overall because the frame buffer leaks.
        assert!(
            total(SensorVariant::TwoDIn, ProcessNode::N65)
                > total(SensorVariant::TwoDIn, ProcessNode::N130)
        );
    }

    #[test]
    fn three_d_stacking_recovers_the_loss() {
        for node in [ProcessNode::N130, ProcessNode::N65] {
            assert!(total(SensorVariant::ThreeDIn, node) < total(SensorVariant::TwoDIn, node));
        }
    }

    #[test]
    fn stt_ram_cuts_three_d_energy_further() {
        for node in [ProcessNode::N130, ProcessNode::N65] {
            let stt = total(SensorVariant::ThreeDInStt, node);
            let sram = total(SensorVariant::ThreeDIn, node);
            assert!(
                stt < 0.6 * sram,
                "STT should cut ≥40 % at {node}: {stt} vs {sram} µJ"
            );
        }
    }

    #[test]
    fn memory_dominates_two_d_in() {
        // "memory energy contributes to 71.3% of the total energy in 2D-In"
        let report = model(SensorVariant::TwoDIn, ProcessNode::N65)
            .unwrap()
            .estimate()
            .unwrap();
        let mem = report
            .breakdown
            .category_total(EnergyCategory::DigitalMemory);
        let frac = mem / report.total();
        assert!(frac > 0.6, "memory fraction {frac}");
    }

    #[test]
    fn mixed_signal_beats_digital_in_sensor() {
        // Finding 3: moving S1/S2 to analog cuts 2D-In energy deeply,
        // more at the leakier 65 nm node.
        let saving = |node| {
            1.0 - total(SensorVariant::TwoDInMixed, node) / total(SensorVariant::TwoDIn, node)
        };
        let at_130 = saving(ProcessNode::N130);
        let at_65 = saving(ProcessNode::N65);
        assert!(at_130 > 0.2, "saving at 130 nm: {at_130}");
        assert!(
            at_65 > at_130,
            "65 nm should save more: {at_65} vs {at_130}"
        );
    }

    #[test]
    fn mixed_signal_raises_compute_but_cuts_memory() {
        // Fig. 13: COMP goes up, MEM collapses, for the first two stages.
        let digital = model(SensorVariant::TwoDIn, ProcessNode::N65)
            .unwrap()
            .estimate()
            .unwrap();
        let mixed = model(SensorVariant::TwoDInMixed, ProcessNode::N65)
            .unwrap()
            .estimate()
            .unwrap();
        let comp_a = mixed
            .breakdown
            .category_total(EnergyCategory::AnalogCompute);
        // Digital S1+S2 compute: everything DigitalCompute except the DNN.
        let comp_d_s12: camj_tech::units::Energy = digital
            .breakdown
            .items()
            .filter(|i| {
                i.category == EnergyCategory::DigitalCompute && i.stage.as_deref() != Some("RoiDnn")
            })
            .map(|i| i.energy)
            .sum();
        assert!(
            comp_a > comp_d_s12,
            "analog S1/S2 compute ({} µJ) should exceed digital ({} µJ)",
            comp_a.microjoules(),
            comp_d_s12.microjoules()
        );
        // Memory: analog S&H replaces the leaky frame buffer.
        let mem_a = mixed.breakdown.category_total(EnergyCategory::AnalogMemory);
        let fb_digital = digital
            .breakdown
            .items()
            .find(|i| i.unit == "FrameBuffer")
            .map(|i| i.energy)
            .expect("frame buffer present");
        assert!(mem_a.joules() < 0.1 * fb_digital.joules());
    }

    #[test]
    fn all_variants_estimate_cleanly() {
        for variant in SensorVariant::ALL {
            for node in [ProcessNode::N130, ProcessNode::N65] {
                let m = model(variant, node).unwrap();
                let report = m.estimate().unwrap();
                assert!(report.total().joules() > 0.0, "{variant} at {node}");
            }
        }
    }
}
