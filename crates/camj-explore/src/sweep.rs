//! Sweep declaration, cartesian design-grid generation, and the grid's
//! mixed-radix index codec.

use std::fmt;
use std::sync::Arc;

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
    /// Shared with every [`DesignPoint`] of the grid, which resolves
    /// its coordinates from them on demand.
    axes: Arc<Vec<Axis>>,
}

/// One axis's digit in the mixed-radix grid index: its value index
/// advances by one every `stride` grid indices and wraps after `len`
/// values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digit {
    stride: usize,
    len: usize,
}

impl Digit {
    /// The axis's value index at grid index `index`.
    pub(crate) fn of(self, index: usize) -> usize {
        index / self.stride % self.len
    }

    /// Number of values on the axis.
    pub(crate) fn len(self) -> usize {
        self.len
    }
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
        Arc::make_mut(&mut self.axes).push(axis);
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

    /// The single design point at `index` of the row-major enumeration,
    /// without generating the rest of the grid — the primitive adaptive
    /// search builds candidates from, where materializing a
    /// 10^6-point grid up front would defeat the point of sampling it.
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
        DesignPoint {
            index,
            sweep: self.clone(),
        }
    }

    /// The grid's row-major layout on axis `axis` (last axis fastest):
    /// its stride is the product of the lengths of the axes after it.
    /// With [`Self::grid_index`], the one definition of the mixed-radix
    /// codec between grid indices and per-axis value indices.
    pub(crate) fn digit(&self, axis: usize) -> Digit {
        Digit {
            stride: self.axes[axis + 1..].iter().map(Axis::len).product(),
            len: self.axes[axis].len(),
        }
    }

    /// The grid index of a per-axis value-index tuple (one entry per
    /// axis, in declaration order) — the inverse of [`Digit::of`].
    pub(crate) fn grid_index(&self, value_indices: &[usize]) -> usize {
        value_indices
            .iter()
            .enumerate()
            .map(|(axis, &value)| value * self.digit(axis).stride)
            .sum()
    }
}

/// One point of the design grid: its grid index, with a named value per
/// axis resolved on demand from the sweep it came from.
#[derive(Clone)]
pub struct DesignPoint {
    /// Position in the sweep's row-major enumeration order.
    pub index: usize,
    sweep: Sweep,
}

impl DesignPoint {
    /// The value of `axis` (by position) at this point.
    fn value(&self, axis: usize) -> &AxisValue {
        &self.sweep.axes[axis].values()[self.sweep.digit(axis).of(self.index)]
    }

    /// The coordinate on `axis`, if the axis exists.
    #[must_use]
    pub fn get(&self, axis: &str) -> Option<&AxisValue> {
        let position = self.sweep.axes.iter().position(|a| a.name() == axis)?;
        Some(self.value(position))
    }

    /// All coordinates, as `(axis name, value)` in axis declaration
    /// order.
    pub fn coords(&self) -> impl Iterator<Item = (&str, &AxisValue)> {
        self.sweep
            .axes
            .iter()
            .enumerate()
            .map(|(position, axis)| (axis.name(), self.value(position)))
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

impl PartialEq for DesignPoint {
    /// Equal grid index and equal coordinates (so points of two sweeps
    /// with the same axes compare equal).
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.coords().eq(other.coords())
    }
}

impl fmt::Debug for DesignPoint {
    /// The text a derived `Debug` over `index` and a coordinate list
    /// would print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DesignPoint")
            .field("index", &self.index)
            .field("coords", &self.coords().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.coords().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

/// Random sweeps shared by the crate's property tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::Sweep;
    use camj_digital::memory::MemoryKind;
    use camj_tech::node::ProcessNode;

    /// SplitMix64 — a test's own draw stream from one proptest seed.
    pub(crate) struct Draw(pub(crate) u64);

    impl Draw {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// `len` picks from `pool` (small pools make duplicates likely).
        fn picks<T: Clone>(&mut self, pool: &[T], len: usize) -> Vec<T> {
            (0..len)
                .map(|_| pool[self.below(pool.len())].clone())
                .collect()
        }
    }

    /// A random sweep of 1–4 axes, 1–5 values each, drawn from small
    /// value pools: duplicates on every axis kind, NaN and signed-zero
    /// frame rates, and an unknown (rebuild-everything) label axis.
    pub(crate) fn random_sweep(draw: &mut Draw) -> Sweep {
        let mut names = vec!["fps", "bit_width", "tech_node", "memory", "variant"];
        let mut sweep = Sweep::new();
        for _ in 0..=draw.below(4) {
            let name = names.remove(draw.below(names.len()));
            let len = 1 + draw.below(5);
            sweep = match name {
                "fps" => sweep.fps_targets(draw.picks(&[10.0, 30.0, f64::NAN, 0.0, -0.0], len)),
                "bit_width" => sweep.bit_widths(draw.picks(&[8, 10, 12], len)),
                "tech_node" => sweep.tech_nodes(draw.picks(
                    &[ProcessNode::N65, ProcessNode::N130, ProcessNode::N22],
                    len,
                )),
                "memory" => sweep.memory_kinds(
                    draw.picks(&[MemoryKind::DoubleBuffer, MemoryKind::LineBuffer], len),
                ),
                _ => sweep.labels(name, draw.picks(&["a", "b", "c"], len)),
            };
        }
        sweep
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{random_sweep, Draw};
    use super::*;
    use proptest::prelude::*;

    /// Coordinate identity that compares reals by bit pattern, so NaN
    /// and signed-zero frame rates are checked exactly.
    fn same_value(a: &AxisValue, b: &AxisValue) -> bool {
        match (a, b) {
            (AxisValue::F64(x), AxisValue::F64(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    /// The cartesian grid by nested loops, with no index arithmetic:
    /// each point as its per-axis value indices, last axis fastest.
    fn nested_loop_grid(sweep: &Sweep) -> Vec<Vec<usize>> {
        if sweep.axes().is_empty() {
            return Vec::new();
        }
        let mut grid: Vec<Vec<usize>> = vec![Vec::new()];
        for axis in sweep.axes() {
            let mut next = Vec::with_capacity(grid.len() * axis.len());
            for prefix in &grid {
                for value in 0..axis.len() {
                    let mut tuple = prefix.clone();
                    tuple.push(value);
                    next.push(tuple);
                }
            }
            grid = next;
        }
        grid
    }

    proptest! {
        /// Every point's coordinates, lookups, typed accessors and
        /// display resolve to the value a nested-loop enumeration puts
        /// there, and the codec maps each grid index to that loop's
        /// value indices and back.
        #[test]
        fn points_resolve_the_nested_loop_coordinates(seed in 0u64..u64::MAX) {
            let sweep = random_sweep(&mut Draw(seed));
            let grid = nested_loop_grid(&sweep);
            prop_assert_eq!(sweep.len(), grid.len());
            let points = sweep.points();
            prop_assert_eq!(points.len(), grid.len());
            for (index, tuple) in grid.iter().enumerate() {
                let point = &points[index];
                prop_assert_eq!(point.index, index);
                prop_assert_eq!(sweep.grid_index(tuple), index);
                let expected: Vec<(&str, &AxisValue)> = sweep
                    .axes()
                    .iter()
                    .zip(tuple)
                    .map(|(axis, &value)| (axis.name(), &axis.values()[value]))
                    .collect();
                let coords: Vec<(&str, &AxisValue)> = point.coords().collect();
                prop_assert_eq!(coords.len(), expected.len());
                for (slot, ((name, value), (want_name, want))) in
                    coords.iter().zip(&expected).enumerate()
                {
                    prop_assert_eq!(sweep.digit(slot).of(index), tuple[slot]);
                    prop_assert_eq!(name, want_name);
                    prop_assert!(same_value(value, want), "{} at {}", name, index);
                    let got = point.get(want_name).expect("every axis resolves");
                    prop_assert!(same_value(got, want), "get({}) at {}", name, index);
                    let typed = match want {
                        AxisValue::U32(v) => point.u32(want_name) == *v,
                        AxisValue::F64(v) => point.f64(want_name).to_bits() == v.to_bits(),
                        AxisValue::Node(n) => point.node(want_name) == *n,
                        AxisValue::Memory(m) => point.memory(want_name) == *m,
                        AxisValue::Text(t) => point.text(want_name) == t,
                    };
                    prop_assert!(typed, "typed accessor for {} at {}", name, index);
                }
                let display = expected
                    .iter()
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                prop_assert_eq!(point.to_string(), display);
                prop_assert!(point.get("no-such-axis").is_none());
            }
        }
    }

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
    fn debug_prints_the_owned_coordinate_layout() {
        /// The shape `Debug` reproduces: a derived impl over the index
        /// and an owned coordinate list.
        #[derive(Debug)]
        #[allow(dead_code)]
        struct DesignPoint {
            index: usize,
            coords: Vec<(String, AxisValue)>,
        }
        let sweep = Sweep::new()
            .bit_widths([4, 8])
            .labels("variant", ["2D \"In\""])
            .fps_targets([f64::NAN, -0.0]);
        for point in sweep.points() {
            let owned = DesignPoint {
                index: point.index,
                coords: point
                    .coords()
                    .map(|(name, value)| (name.to_owned(), value.clone()))
                    .collect(),
            };
            assert_eq!(format!("{point:?}"), format!("{owned:?}"));
            assert_eq!(format!("{point:#?}"), format!("{owned:#?}"));
        }
    }

    #[test]
    fn equality_compares_index_and_coordinates() {
        let a = Sweep::new().bit_widths([4, 8]).fps_targets([15.0, 30.0]);
        let b = Sweep::new().bit_widths([4, 8]).fps_targets([15.0, 60.0]);
        assert_eq!(a.point_at(2), b.point_at(2));
        assert_ne!(a.point_at(1), b.point_at(1));
        assert_ne!(a.point_at(0), a.point_at(2));
        // A NaN coordinate is unequal to itself, as an owned value is.
        let nan = Sweep::new().fps_targets([f64::NAN]);
        assert_ne!(nan.point_at(0), nan.point_at(0));
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
