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
//! [`KernelSet`], and the planner ([`group_points`]) uses it to:
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

use std::collections::HashMap;
use std::fmt;

use camj_digital::memory::MemoryKind;

use crate::axis::AxisValue;
use crate::sweep::{DesignPoint, Digit, Sweep};

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

/// A hashable projection of a coordinate: coordinates equal under
/// [`coord_eq`] project equally (the converse is checked separately).
#[derive(PartialEq, Eq, Hash)]
enum CoordBucket<'a> {
    U32(u32),
    F64(u64),
    Node(u64),
    Memory(MemoryKind),
    Text(&'a str),
}

impl<'a> CoordBucket<'a> {
    fn of(value: &'a AxisValue) -> Self {
        match value {
            AxisValue::U32(v) => Self::U32(*v),
            AxisValue::F64(v) => Self::F64(v.to_bits()),
            // `+ 0.0` folds -0 into +0, which `ProcessNode`'s
            // `PartialEq` treats as equal.
            AxisValue::Node(n) => Self::Node((n.nanometers() + 0.0).to_bits()),
            AxisValue::Memory(m) => Self::Memory(*m),
            AxisValue::Text(t) => Self::Text(t),
        }
    }
}

/// For each value of an axis, the index of the first value identical to
/// it under [`coord_eq`] — linear in the axis length.
fn canonical_indices(values: &[AxisValue]) -> Vec<usize> {
    let mut seen: HashMap<CoordBucket<'_>, Vec<usize>> = HashMap::with_capacity(values.len());
    values
        .iter()
        .enumerate()
        .map(|(j, value)| {
            let bucket = seen.entry(CoordBucket::of(value)).or_default();
            match bucket.iter().find(|&&k| coord_eq(&values[k], value)) {
                Some(&k) => k,
                None => {
                    bucket.push(j);
                    j
                }
            }
        })
        .collect()
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

/// The planner's index arithmetic: maps a grid index straight to its
/// evaluation key, with no coordinate lookups.
///
/// A point's key is its per-axis value indices read in planned axis
/// order, packed as one mixed-radix number (so numeric order is the
/// lexicographic order of the index tuple). A value index is first
/// replaced by the index of the first identical value on its axis, so
/// points whose coordinates coincide key identically even when an axis
/// lists a value twice.
#[derive(Debug)]
pub(crate) struct GridKeys {
    /// One digit per axis, in planned order.
    digits: Vec<KeyDigit>,
    /// Product of the tail (non-rebuild) axis lengths: a key divided by
    /// it is the point's rebuild-prefix key.
    tail_span: usize,
}

/// One axis's place in the packed key.
#[derive(Debug)]
struct KeyDigit {
    /// The axis's digit in the grid index.
    digit: Digit,
    /// Value index → index of the first identical value.
    canonical: Vec<usize>,
}

impl GridKeys {
    /// Keys for the planned ordering of `sweep` (see [`planned_order`]).
    pub(crate) fn for_sweep(sweep: &Sweep) -> Self {
        let (order, rebuild_axes) = planned_order(sweep);
        let axes = sweep.axes();
        let digits = order
            .iter()
            .map(|&i| KeyDigit {
                digit: sweep.digit(i),
                canonical: canonical_indices(axes[i].values()),
            })
            .collect();
        let tail_span = order[rebuild_axes..]
            .iter()
            .map(|&i| axes[i].len())
            .product();
        Self { digits, tail_span }
    }

    /// The evaluation key of grid index `index`.
    fn key(&self, index: usize) -> usize {
        self.digits.iter().fold(0, |key, d| {
            key * d.digit.len() + d.canonical[d.digit.of(index)]
        })
    }

    /// The rebuild-prefix key of grid index `index`: equal exactly for
    /// points sharing every model-rebuilding coordinate.
    pub(crate) fn rebuild_key(&self, index: usize) -> usize {
        self.key(index) / self.tail_span
    }
}

/// Plans `points` of `keys`' sweep: sorts them into evaluation order
/// along the planned axis ordering (axes by descending invalidation
/// weight, model-rebuilding axes first, ties broken by declaration
/// order; stable, so identically keyed points keep their input order)
/// and partitions them into one group per distinct combination of
/// model-rebuilding coordinates. The explorer's incremental paths group
/// the full grid this way; adaptive search groups each candidate batch,
/// so it builds one model per rebuild combination instead of one per
/// point. Points are keyed by their [`DesignPoint::index`].
pub(crate) fn group_points(keys: &GridKeys, points: Vec<DesignPoint>) -> Vec<Vec<DesignPoint>> {
    let _span = obs_core::span("explore.plan");
    let mut keyed: Vec<(usize, DesignPoint)> = points
        .into_iter()
        .map(|point| (keys.key(point.index), point))
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    let mut groups: Vec<Vec<DesignPoint>> = Vec::new();
    let mut current = None;
    for (key, point) in keyed {
        let prefix = key / keys.tail_span;
        if current != Some(prefix) {
            groups.push(Vec::new());
            current = Some(prefix);
        }
        groups.last_mut().expect("group pushed above").push(point);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::testing::{random_sweep, Draw};
    use camj_tech::node::ProcessNode;
    use proptest::prelude::*;

    /// The planner as it keyed points before index arithmetic: each
    /// coordinate looked up by name and located on its axis with a
    /// linear `position` scan, then a stable sort and a prefix split.
    fn oracle_groups(sweep: &Sweep, points: Vec<DesignPoint>) -> Vec<Vec<DesignPoint>> {
        let (order, rebuild_axes) = planned_order(sweep);
        let axes = sweep.axes();
        let mut keyed: Vec<(Vec<usize>, DesignPoint)> = points
            .into_iter()
            .map(|point| {
                let key = order
                    .iter()
                    .map(|&i| {
                        let axis = &axes[i];
                        let value = point.get(axis.name()).expect("every axis");
                        axis.values()
                            .iter()
                            .position(|v| coord_eq(v, value))
                            .expect("coordinate on its axis")
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

    /// Groups as grid indices (`DesignPoint` equality fails on NaN
    /// coordinates, which the planner must still group).
    fn indices(groups: &[Vec<DesignPoint>]) -> Vec<Vec<usize>> {
        groups
            .iter()
            .map(|g| g.iter().map(|p| p.index).collect())
            .collect()
    }

    proptest! {
        /// Index-arithmetic planning reproduces the coordinate-scanning
        /// planner exactly — group membership, group order, and the
        /// order within each group — for the full grid and for shuffled
        /// subsets.
        #[test]
        fn planner_matches_the_position_scan_oracle(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let sweep = random_sweep(&mut draw);
            let keys = GridKeys::for_sweep(&sweep);
            let plan = group_points(&keys, sweep.points());
            prop_assert_eq!(
                indices(&plan),
                indices(&oracle_groups(&sweep, sweep.points()))
            );
            let mut subset: Vec<DesignPoint> = sweep
                .points()
                .into_iter()
                .filter(|_| draw.below(3) != 0)
                .collect();
            for i in (1..subset.len()).rev() {
                subset.swap(i, draw.below(i + 1));
            }
            prop_assert_eq!(
                indices(&group_points(&keys, subset.clone())),
                indices(&oracle_groups(&sweep, subset))
            );
            for index in 0..sweep.len() {
                let group = plan
                    .iter()
                    .position(|g| g.iter().any(|p| p.index == index))
                    .expect("every point is planned");
                let head = plan[group][0].index;
                prop_assert_eq!(keys.rebuild_key(index), keys.rebuild_key(head));
            }
        }
    }

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
        let keys = GridKeys::for_sweep(&sweep);
        let plan = group_points(&keys, sweep.points());
        // fps is a tail axis: 4 rebuild combos × 2 fps points each.
        assert_eq!(plan.len(), 4);
        for group in &plan {
            assert_eq!(group.len(), 2);
            let first = &group[0];
            for point in group {
                assert_eq!(point.get("bit_width"), first.get("bit_width"));
                assert_eq!(point.get("tech_node"), first.get("tech_node"));
            }
        }
        // Every original index appears exactly once.
        let mut seen: Vec<usize> = plan.iter().flatten().map(|p| p.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..sweep.len()).collect::<Vec<_>>());
        // A subset groups by the same rebuild coordinates.
        let subset: Vec<DesignPoint> = sweep
            .points()
            .into_iter()
            .filter(|p| p.index % 3 != 0)
            .collect();
        let total: usize = subset.len();
        let groups = group_points(&keys, subset);
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
        // memory invalidates more than bit_width; fps is the tail.
        assert_eq!(planned_order(&sweep), (vec![1, 2, 0], 2));
    }

    #[test]
    fn pure_fps_sweep_is_one_group() {
        let sweep = Sweep::new().fps_targets([10.0, 20.0, 30.0]);
        let plan = group_points(&GridKeys::for_sweep(&sweep), sweep.points());
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].len(), 3);
    }

    #[test]
    fn kernel_set_display_lists_members() {
        let set = KernelSet::MODEL.union(KernelSet::ANALOG);
        assert_eq!(set.to_string(), "model+analog");
        assert_eq!(KernelSet::NONE.to_string(), "none");
        assert!(KernelSet::NONE.is_empty());
    }
}
