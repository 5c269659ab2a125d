//! Sweep declaration and cartesian design-grid generation.

use std::fmt;

use camj_digital::memory::MemoryKind;
use camj_tech::node::ProcessNode;

use crate::axis::{Axis, AxisValue};

/// A declarative sweep: an ordered set of parameter axes whose
/// cartesian product is the design grid.
///
/// Axis order matters only for enumeration order: the **last** axis
/// varies fastest (row-major), and [`DesignPoint::index`] records each
/// point's position, so results are always reported in a stable,
/// reproducible order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    axes: Vec<Axis>,
}

impl Sweep {
    /// An empty sweep (add axes with the builder methods).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a generic axis.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `name` duplicates an existing
    /// axis.
    #[must_use]
    pub fn axis<N, V, I>(mut self, name: N, values: I) -> Self
    where
        N: Into<String>,
        V: Into<AxisValue>,
        I: IntoIterator<Item = V>,
    {
        let axis = Axis::new(name, values);
        assert!(
            self.axes.iter().all(|a| a.name() != axis.name()),
            "duplicate axis '{}'",
            axis.name()
        );
        self.axes.push(axis);
        self
    }

    /// Adds a `bit_width` axis (analog/digital precision).
    #[must_use]
    pub fn bit_widths(self, values: impl IntoIterator<Item = u32>) -> Self {
        self.axis("bit_width", values)
    }

    /// Adds a `tech_node` axis (fabrication process).
    #[must_use]
    pub fn tech_nodes(self, values: impl IntoIterator<Item = ProcessNode>) -> Self {
        self.axis("tech_node", values)
    }

    /// Adds a `memory` axis (digital memory structure kind).
    #[must_use]
    pub fn memory_kinds(self, values: impl IntoIterator<Item = MemoryKind>) -> Self {
        self.axis("memory", values)
    }

    /// Adds an `fps` axis (frame-rate target).
    #[must_use]
    pub fn fps_targets(self, values: impl IntoIterator<Item = f64>) -> Self {
        self.axis("fps", values)
    }

    /// Adds a free-form label axis under `name` (sensor variants,
    /// workload names, …).
    #[must_use]
    pub fn labels<'a>(self, name: &str, values: impl IntoIterator<Item = &'a str>) -> Self {
        self.axis(name, values)
    }

    /// The declared axes.
    #[must_use]
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of points in the design grid (product of axis lengths;
    /// zero for a sweep with no axes).
    #[must_use]
    pub fn len(&self) -> usize {
        if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(Axis::len).product()
        }
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generates the full cartesian design grid in row-major order
    /// (last axis fastest).
    #[must_use]
    pub fn points(&self) -> Vec<DesignPoint> {
        (0..self.len()).map(|index| self.point_at(index)).collect()
    }

    /// Materializes the single design point at `index` of the row-major
    /// enumeration, without generating the rest of the grid — the
    /// primitive adaptive search builds candidates from, where
    /// materializing a 10^6-point grid up front would defeat the point
    /// of sampling it.
    ///
    /// `sweep.points()[i]` and `sweep.point_at(i)` are identical.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn point_at(&self, index: usize) -> DesignPoint {
        assert!(
            index < self.len(),
            "point index {index} out of range for a {}-point grid",
            self.len()
        );
        // Decompose the flat index into per-axis indices, last axis
        // fastest: an axis's stride is the product of the lengths after
        // it.
        let mut stride = self.len();
        let coords = self
            .axes
            .iter()
            .map(|axis| {
                stride /= axis.len();
                let i = index / stride % axis.len();
                (axis.name().to_owned(), axis.values()[i].clone())
            })
            .collect();
        DesignPoint { index, coords }
    }
}

/// One point of the design grid: a named value per axis.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Position in the sweep's row-major enumeration order.
    pub index: usize,
    coords: Vec<(String, AxisValue)>,
}

impl DesignPoint {
    /// The coordinate on `axis`, if the axis exists.
    #[must_use]
    pub fn get(&self, axis: &str) -> Option<&AxisValue> {
        self.coords
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, v)| v)
    }

    /// All coordinates in axis declaration order.
    #[must_use]
    pub fn coords(&self) -> &[(String, AxisValue)] {
        &self.coords
    }

    fn expect(&self, axis: &str) -> &AxisValue {
        self.get(axis)
            .unwrap_or_else(|| panic!("design point has no axis '{axis}' (point: {self})"))
    }

    /// The `u32` coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not a [`AxisValue::U32`].
    #[must_use]
    pub fn u32(&self, axis: &str) -> u32 {
        self.expect(axis)
            .as_u32()
            .unwrap_or_else(|| panic!("axis '{axis}' is not a u32 (point: {self})"))
    }

    /// The `f64` coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not a [`AxisValue::F64`].
    #[must_use]
    pub fn f64(&self, axis: &str) -> f64 {
        self.expect(axis)
            .as_f64()
            .unwrap_or_else(|| panic!("axis '{axis}' is not an f64 (point: {self})"))
    }

    /// The frame-rate coordinate on `axis` (alias of [`Self::f64`],
    /// named for the common case).
    ///
    /// # Panics
    ///
    /// See [`Self::f64`].
    #[must_use]
    pub fn fps(&self, axis: &str) -> f64 {
        self.f64(axis)
    }

    /// The process-node coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not a [`AxisValue::Node`].
    #[must_use]
    pub fn node(&self, axis: &str) -> ProcessNode {
        self.expect(axis)
            .as_node()
            .unwrap_or_else(|| panic!("axis '{axis}' is not a process node (point: {self})"))
    }

    /// The memory-kind coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not a [`AxisValue::Memory`].
    #[must_use]
    pub fn memory(&self, axis: &str) -> MemoryKind {
        self.expect(axis)
            .as_memory()
            .unwrap_or_else(|| panic!("axis '{axis}' is not a memory kind (point: {self})"))
    }

    /// The label coordinate on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not a [`AxisValue::Text`].
    #[must_use]
    pub fn text(&self, axis: &str) -> &str {
        self.expect(axis)
            .as_text()
            .unwrap_or_else(|| panic!("axis '{axis}' is not a label (point: {self})"))
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.coords.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_row_major_with_last_axis_fastest() {
        let sweep = Sweep::new()
            .bit_widths([4, 8])
            .fps_targets([15.0, 30.0, 60.0]);
        assert_eq!(sweep.len(), 6);
        let points = sweep.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].u32("bit_width"), 4);
        assert_eq!(points[0].fps("fps"), 15.0);
        assert_eq!(points[1].fps("fps"), 30.0);
        assert_eq!(points[2].fps("fps"), 60.0);
        assert_eq!(points[3].u32("bit_width"), 8);
        assert_eq!(points[3].fps("fps"), 15.0);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn point_at_matches_the_materialized_grid() {
        let sweep = Sweep::new()
            .bit_widths([4, 8, 12])
            .fps_targets([15.0, 30.0]);
        let points = sweep.points();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(&sweep.point_at(i), p);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_at_rejects_out_of_range_indices() {
        let _ = Sweep::new().fps_targets([30.0]).point_at(1);
    }

    #[test]
    fn empty_sweep_has_no_points() {
        let sweep = Sweep::new();
        assert!(sweep.is_empty());
        assert!(sweep.points().is_empty());
    }

    #[test]
    fn display_names_every_axis() {
        let sweep = Sweep::new()
            .tech_nodes([ProcessNode::N65])
            .labels("variant", ["2D-In"]);
        let p = &sweep.points()[0];
        let s = p.to_string();
        assert!(s.contains("tech_node="), "{s}");
        assert!(s.contains("variant=2D-In"), "{s}");
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_rejected() {
        let _ = Sweep::new().fps_targets([30.0]).fps_targets([60.0]);
    }

    #[test]
    #[should_panic(expected = "not a u32")]
    fn typed_accessor_checks_kind() {
        let sweep = Sweep::new().fps_targets([30.0]);
        let _ = sweep.points()[0].u32("fps");
    }
}
