//! The Ed-Gaze 2D-In 4-axis design grids shared by the sweep, pareto,
//! and search suites: frame rate × ADC bit width × CIS node ×
//! frame-buffer structure.

use camj::core::energy::{CamJ, ValidatedModel};
use camj::explore::{DesignPoint, MemoryKind, PointError, ProcessNode, Sweep};
use camj::workloads::configs::SensorVariant;
use camj::workloads::edgaze;

/// Builds the Ed-Gaze 2D-In model a 4-axis grid point describes.
pub fn edgaze_point(point: &DesignPoint) -> Result<ValidatedModel, PointError> {
    let config = edgaze::EdGazeConfig::new(SensorVariant::TwoDIn, point.node("tech_node"))
        .with_adc_bits(point.u32("bit_width"))
        .with_frame_buffer_kind(point.memory("memory"));
    edgaze::model_with(config)
        .map(CamJ::into_validated)
        .map_err(PointError::new)
}

/// The Ed-Gaze 4-axis grid over `fps` and `bits`: × four CIS nodes ×
/// both frame-buffer kinds.
pub fn edgaze_grid(
    fps: impl IntoIterator<Item = f64>,
    bits: impl IntoIterator<Item = u32>,
) -> Sweep {
    Sweep::new()
        .fps_targets(fps)
        .bit_widths(bits)
        .tech_nodes([
            ProcessNode::N130,
            ProcessNode::N110,
            ProcessNode::N90,
            ProcessNode::N65,
        ])
        .memory_kinds([MemoryKind::DoubleBuffer, MemoryKind::LineBuffer])
}

/// The 256-point grid: 8 frame rates × 4 ADC bit widths × 4 × 2, in 32
/// rebuild combinations.
pub fn grid256() -> Sweep {
    edgaze_grid((0..8).map(|i| 10.0 + 2.0 * f64::from(i)), 8..12)
}
