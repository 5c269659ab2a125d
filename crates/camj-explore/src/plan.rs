//! The delta-sweep planner: which estimation artifacts each sweep axis
//! invalidates, and a grid ordering that maximises cross-point reuse.
//!
//! The staged pipeline's artifacts form a dependency ladder — model
//! (validate + route), elastic simulation, delay/stall verdicts, and
//! the four energy kernels. Each axis of a [`Sweep`] can only
//! invalidate some rungs: a frame-rate axis never touches the model or
//! the simulation; a bit-width axis touches analog energy but not the
//! digital dataflow; a technology-node axis rescales energies but not
//! the simulated topology. [`axis_impact`] encodes that knowledge as a
//! [`KernelSet`], and [`SweepPlan`] uses it to:
//!
//! 1. **order the grid** so the most-invalidating axes vary slowest —
//!    consecutive points then share the longest possible prefix of
//!    still-valid artifacts, and
//! 2. **group points** that share every model-rebuilding coordinate, so
//!    the explorer builds one [`ValidatedModel`] per group and runs
//!    only the FPS-dependent tail per point.
//!
//! Reordering is an evaluation-side concern only: every
//! [`DesignPoint`] keeps its original grid index, and the explorer
//! re-sorts outcomes before returning, so results remain byte-identical
//! to an unplanned sweep.
//!
//! [`ValidatedModel`]: camj_core::energy::ValidatedModel

use std::fmt;

use crate::axis::AxisValue;
use crate::sweep::{DesignPoint, Sweep};

/// A set of estimation artifacts (pipeline rungs + energy kernels) that
/// a sweep axis can invalidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSet(u16);

impl KernelSet {
    /// Nothing invalidated.
    pub const NONE: KernelSet = KernelSet(0);
    /// The validated model itself (checks + routes): changing this axis
    /// requires rebuilding the model at each coordinate.
    pub const MODEL: KernelSet = KernelSet(1 << 0);
    /// The elastic cycle-level simulation (dataflow topology).
    pub const ELASTIC_SIM: KernelSet = KernelSet(1 << 1);
    /// The frame-budget solve and the stall verdict.
    pub const DELAY: KernelSet = KernelSet(1 << 2);
    /// The analog energy kernel.
    pub const ANALOG: KernelSet = KernelSet(1 << 3);
    /// The digital compute energy kernel.
    pub const DIGITAL_COMPUTE: KernelSet = KernelSet(1 << 4);
    /// The digital memory energy kernel.
    pub const DIGITAL_MEMORY: KernelSet = KernelSet(1 << 5);
    /// The interface (communication) energy kernel.
    pub const INTERFACE: KernelSet = KernelSet(1 << 6);
    /// Everything — the safe assumption for unknown axes.
    pub const ALL: KernelSet = KernelSet(0x7f);

    /// Set union.
    #[must_use]
    pub fn union(self, other: KernelSet) -> KernelSet {
        KernelSet(self.0 | other.0)
    }

    /// Whether every artifact in `other` is in this set.
    #[must_use]
    pub fn contains(self, other: KernelSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Number of artifacts in the set — the axis's "invalidation
    /// weight"; heavier axes are placed slower in the planned order.
    #[must_use]
    pub fn weight(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for KernelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(KernelSet, &str); 7] = [
            (KernelSet::MODEL, "model"),
            (KernelSet::ELASTIC_SIM, "elastic-sim"),
            (KernelSet::DELAY, "delay"),
            (KernelSet::ANALOG, "analog"),
            (KernelSet::DIGITAL_COMPUTE, "digital-compute"),
            (KernelSet::DIGITAL_MEMORY, "digital-memory"),
            (KernelSet::INTERFACE, "interface"),
        ];
        let mut first = true;
        for (set, name) in NAMES {
            if self.contains(set) {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// The artifacts an axis with this name can invalidate.
///
/// The well-known axis names are the ones [`Sweep`]'s builder methods
/// produce; anything else conservatively invalidates everything.
///
/// * `"fps"` — only the frame-budget solve, the stall verdict, and the
///   energy kernels whose inputs carry the delay split (analog delay
///   budgets, memory leakage over the frame time). The model and the
///   elastic simulation survive — this is why frame-rate sweeps are the
///   cheapest axis.
/// * `"bit_width"` — converter/precision parameters: the model is
///   rebuilt and analog + communication energies change, but the
///   digital dataflow (and so the expensive simulation) survives.
/// * `"tech_node"` — energy/leakage rescaling: everything *except* the
///   simulated topology and the byte volumes changes.
/// * `"memory"` — memory structure geometry: changes the dataflow, so
///   (almost) everything goes.
#[must_use]
pub fn axis_impact(axis_name: &str) -> KernelSet {
    match axis_name {
        "fps" => KernelSet::DELAY
            .union(KernelSet::ANALOG)
            .union(KernelSet::DIGITAL_MEMORY),
        "bit_width" => KernelSet::MODEL
            .union(KernelSet::ANALOG)
            .union(KernelSet::INTERFACE),
        "tech_node" => KernelSet::MODEL
            .union(KernelSet::ANALOG)
            .union(KernelSet::DIGITAL_COMPUTE)
            .union(KernelSet::DIGITAL_MEMORY),
        "memory" => KernelSet::MODEL
            .union(KernelSet::ELASTIC_SIM)
            .union(KernelSet::DELAY)
            .union(KernelSet::ANALOG)
            .union(KernelSet::DIGITAL_COMPUTE)
            .union(KernelSet::DIGITAL_MEMORY),
        _ => KernelSet::ALL,
    }
}

/// Whether an axis forces a model rebuild at each of its coordinates.
#[must_use]
pub fn axis_requires_rebuild(axis_name: &str) -> bool {
    axis_impact(axis_name).contains(KernelSet::MODEL)
}

/// Coordinate identity for plan keying: like `PartialEq`, but compares
/// real values by bit pattern so a NaN coordinate (pathological but
/// constructible through the programmatic `Axis` API) still matches the
/// axis value it was generated from instead of panicking the planner.
fn coord_eq(a: &AxisValue, b: &AxisValue) -> bool {
    match (a, b) {
        (AxisValue::F64(x), AxisValue::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// An evaluation plan for a sweep: the grid re-ordered for maximal
/// artifact reuse and partitioned into model-sharing groups.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Axis names in evaluation order, slowest-varying first.
    axis_order: Vec<String>,
    /// Number of leading axes in `axis_order` that rebuild the model.
    rebuild_axes: usize,
    /// Contiguous groups of points sharing all rebuild-axis
    /// coordinates, in evaluation order. Points keep their original
    /// grid indices.
    groups: Vec<Vec<DesignPoint>>,
}

/// The planned axis ordering of `sweep`: axis indices sorted by
/// descending invalidation weight (model-rebuilding axes first, ties
/// broken by declaration order), plus the count of leading axes that
/// rebuild the model.
fn planned_order(sweep: &Sweep) -> (Vec<usize>, usize) {
    let axes = sweep.axes();
    let mut order: Vec<usize> = (0..axes.len()).collect();
    // Stable sort: rebuild axes before tail axes, heavier impact
    // first, declaration order last.
    order.sort_by_key(|&i| {
        let impact = axis_impact(axes[i].name());
        (
            std::cmp::Reverse(u8::from(impact.contains(KernelSet::MODEL))),
            std::cmp::Reverse(impact.weight()),
        )
    });
    let rebuild_axes = order
        .iter()
        .take_while(|&&i| axis_requires_rebuild(axes[i].name()))
        .count();
    (order, rebuild_axes)
}

/// Keys `points` by their value indices along `order`, sorts into
/// evaluation order, and partitions into groups sharing every
/// rebuild-axis coordinate. The grouping engine behind [`SweepPlan`]
/// and [`group_points`].
fn group_by_rebuild_prefix(
    sweep: &Sweep,
    order: &[usize],
    rebuild_axes: usize,
    points: Vec<DesignPoint>,
) -> Vec<Vec<DesignPoint>> {
    let axes = sweep.axes();
    let mut keyed: Vec<(Vec<usize>, DesignPoint)> = points
        .into_iter()
        .map(|point| {
            let key = order
                .iter()
                .map(|&i| {
                    let axis = &axes[i];
                    let value = point
                        .get(axis.name())
                        .expect("grid points carry every axis");
                    axis.values()
                        .iter()
                        .position(|v| coord_eq(v, value))
                        .expect("coordinate comes from the axis value list")
                })
                .collect::<Vec<usize>>();
            (key, point)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));

    let mut groups: Vec<Vec<DesignPoint>> = Vec::new();
    let mut current_prefix: Option<Vec<usize>> = None;
    for (key, point) in keyed {
        let prefix = key[..rebuild_axes].to_vec();
        if current_prefix.as_ref() != Some(&prefix) {
            groups.push(Vec::new());
            current_prefix = Some(prefix);
        }
        groups.last_mut().expect("group pushed above").push(point);
    }
    groups
}

/// Groups an arbitrary subset of `sweep`'s grid exactly the way
/// [`SweepPlan::new`] groups the full grid: evaluation order along the
/// planned axis ordering, one group per distinct combination of
/// model-rebuilding coordinates. Adaptive search uses this to batch a
/// candidate generation so each batch builds one model per rebuild
/// combination instead of one per point.
pub(crate) fn group_points(sweep: &Sweep, points: Vec<DesignPoint>) -> Vec<Vec<DesignPoint>> {
    let _span = obs_core::span("explore.plan");
    let (order, rebuild_axes) = planned_order(sweep);
    group_by_rebuild_prefix(sweep, &order, rebuild_axes, points)
}

impl SweepPlan {
    /// Plans `sweep`: orders axes by descending invalidation weight
    /// (model-rebuilding axes first, ties broken by declaration order)
    /// and groups points sharing every rebuild coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the sweep contains a point whose coordinate is missing
    /// from its axis — impossible for grids built by [`Sweep::points`].
    #[must_use]
    pub fn new(sweep: &Sweep) -> Self {
        let _span = obs_core::span("explore.plan");
        let (order, rebuild_axes) = planned_order(sweep);
        let groups = group_by_rebuild_prefix(sweep, &order, rebuild_axes, sweep.points());
        let axes = sweep.axes();
        Self {
            axis_order: order.iter().map(|&i| axes[i].name().to_owned()).collect(),
            rebuild_axes,
            groups,
        }
    }

    /// Axis names in evaluation order, slowest-varying first.
    #[must_use]
    pub fn axis_order(&self) -> &[String] {
        &self.axis_order
    }

    /// Number of leading axes in [`Self::axis_order`] whose coordinates
    /// force a model rebuild.
    #[must_use]
    pub fn rebuild_axes(&self) -> usize {
        self.rebuild_axes
    }

    /// The model-sharing point groups, in evaluation order.
    #[must_use]
    pub fn groups(&self) -> &[Vec<DesignPoint>] {
        &self.groups
    }

    /// Consumes the plan into its groups.
    #[must_use]
    pub fn into_groups(self) -> Vec<Vec<DesignPoint>> {
        self.groups
    }

    /// Total number of planned points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camj_tech::node::ProcessNode;

    #[test]
    fn fps_is_the_only_builtin_tail_axis() {
        assert!(!axis_requires_rebuild("fps"));
        for axis in ["bit_width", "tech_node", "memory", "anything-else"] {
            assert!(axis_requires_rebuild(axis), "{axis}");
        }
    }

    #[test]
    fn fps_never_invalidates_the_simulation() {
        let impact = axis_impact("fps");
        assert!(!impact.contains(KernelSet::ELASTIC_SIM));
        assert!(!impact.contains(KernelSet::MODEL));
        assert!(impact.contains(KernelSet::DELAY));
    }

    #[test]
    fn tech_node_keeps_the_simulated_topology() {
        assert!(!axis_impact("tech_node").contains(KernelSet::ELASTIC_SIM));
        assert!(axis_impact("memory").contains(KernelSet::ELASTIC_SIM));
    }

    #[test]
    fn groups_share_rebuild_coordinates_and_cover_the_grid() {
        let sweep = Sweep::new()
            .fps_targets([15.0, 30.0])
            .bit_widths([4, 8])
            .tech_nodes([ProcessNode::N65, ProcessNode::N22]);
        let plan = SweepPlan::new(&sweep);
        // fps is a tail axis: 4 rebuild combos × 2 fps points each.
        assert_eq!(plan.groups().len(), 4);
        assert_eq!(plan.len(), sweep.len());
        for group in plan.groups() {
            assert_eq!(group.len(), 2);
            let first = &group[0];
            for point in group {
                assert_eq!(point.get("bit_width"), first.get("bit_width"));
                assert_eq!(point.get("tech_node"), first.get("tech_node"));
            }
        }
        // Every original index appears exactly once.
        let mut seen: Vec<usize> = plan.groups().iter().flatten().map(|p| p.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..sweep.len()).collect::<Vec<_>>());
    }

    #[test]
    fn subset_grouping_matches_the_full_plan() {
        let sweep = Sweep::new()
            .fps_targets([15.0, 30.0])
            .bit_widths([4, 8])
            .tech_nodes([ProcessNode::N65, ProcessNode::N22]);
        // The full grid through group_points reproduces the plan.
        let plan = SweepPlan::new(&sweep);
        assert_eq!(group_points(&sweep, sweep.points()), plan.groups());
        // A subset groups by the same rebuild coordinates.
        let subset: Vec<DesignPoint> = sweep
            .points()
            .into_iter()
            .filter(|p| p.index % 3 != 0)
            .collect();
        let total: usize = subset.len();
        let groups = group_points(&sweep, subset);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), total);
        for group in &groups {
            let first = &group[0];
            for point in group {
                assert_eq!(point.get("bit_width"), first.get("bit_width"));
                assert_eq!(point.get("tech_node"), first.get("tech_node"));
            }
        }
    }

    #[test]
    fn heavier_axes_vary_slower() {
        let sweep = Sweep::new()
            .fps_targets([15.0, 30.0])
            .memory_kinds([
                crate::MemoryKind::DoubleBuffer,
                crate::MemoryKind::LineBuffer,
            ])
            .bit_widths([4, 8]);
        let plan = SweepPlan::new(&sweep);
        // memory invalidates more than bit_width; fps is the tail.
        assert_eq!(plan.axis_order(), ["memory", "bit_width", "fps"]);
        assert_eq!(plan.rebuild_axes(), 2);
    }

    #[test]
    fn pure_fps_sweep_is_one_group() {
        let sweep = Sweep::new().fps_targets([10.0, 20.0, 30.0]);
        let plan = SweepPlan::new(&sweep);
        assert_eq!(plan.groups().len(), 1);
        assert_eq!(plan.groups()[0].len(), 3);
    }

    #[test]
    fn kernel_set_display_lists_members() {
        let set = KernelSet::MODEL.union(KernelSet::ANALOG);
        assert_eq!(set.to_string(), "model+analog");
        assert_eq!(KernelSet::NONE.to_string(), "none");
        assert!(KernelSet::NONE.is_empty());
    }
}
