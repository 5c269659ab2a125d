//! # camj-explore — design-space exploration for CamJ-rs
//!
//! CamJ's headline use case (ISCA'23 Sec. 5–6) is *architectural
//! exploration*: re-estimating a sensor design dozens-to-hundreds of
//! times while sweeping analog precision, technology node, memory
//! technology, and the frame-rate target. This crate turns that loop
//! into a declarative, parallel pipeline over the staged estimator in
//! [`camj_core::energy::ValidatedModel`]:
//!
//! 1. **Declare axes** with [`Sweep`]: each axis is a named list of
//!    [`AxisValue`]s (bit-widths, [`ProcessNode`]s, [`MemoryKind`]s,
//!    FPS targets, free-form labels …).
//! 2. **Generate the grid**: [`Sweep::points`] takes the cartesian
//!    product, producing one [`DesignPoint`] per combination in a
//!    stable row-major order. A point is its grid index plus a shared
//!    handle to the sweep's axes; its coordinates resolve on demand.
//! 3. **Evaluate in parallel** with [`Explorer::run`]: your closure
//!    builds and estimates a model per point; the explorer fans the
//!    grid out across cores (rayon), captures each point's
//!    [`Result`] individually — one infeasible design surfaces as an
//!    error entry without poisoning its neighbours — and returns
//!    [`SweepResults`] in grid order regardless of completion order,
//!    so a parallel sweep is bit-identical to a serial one.
//!
//! Rather than building a model per point, the **incremental engine**
//! ([`Explorer::sweep_incremental`]) reuses what points share. A
//! frame-rate sweep of one design is its one-axis case — build closure
//! `|_| Ok(model.clone())` — where checks, routing, and the elastic
//! cycle-level simulation run **once** and only the FPS-dependent
//! stages (delay solve, stall check, energy) re-run per point. In
//! general, it plans the grid — each axis declares which pipeline
//! artifacts it can invalidate ([`axis_impact`]), the most-invalidating
//! axes vary slowest, and points sharing every model-rebuilding
//! coordinate build **one** model — then threads a content-addressed [`EstimateCache`] through
//! every point, so elastic simulations, stall verdicts, and energy
//! kernels are computed once per distinct fingerprint instead of once
//! per point. Results stay byte-identical to a cold sweep, in grid
//! order, serial or parallel; `cache.stats()` reports the
//! [`CacheStats`] (hits/misses/bytes). Machine-readable output comes
//! from the [`SweepResults`] serializers
//! ([`SweepResults::to_json`] / [`SweepResults::to_csv`]).
//!
//! On top of the incremental engine sits **multi-objective Pareto
//! exploration** ([`Explorer::pareto`]): a [`ParetoQuery`] names the
//! [`Objective`]s to minimise (total energy, a per-category or
//! per-stage energy split, digital latency, peak power density, or
//! signal quality — output/per-stage noise from the analytic noise
//! budget, so energy can be traded against SNR) and
//! the feasibility [`Constraint`]s to enforce (a thermal power-density
//! budget, a latency budget, an energy budget). Constraints prune
//! *during* estimation — a point whose partial energy already blows a
//! budget skips its remaining energy kernels entirely, without
//! changing a single bit of any surviving point — and completed points
//! stream through the [`ParetoFront`] dominance filter into
//! [`ParetoResults`]: the frontier, dominated-point provenance, pruned
//! points with the constraint that cut them, and [`PruneStats`]
//! kernel-skip accounting. The `camj pareto` CLI subcommand and the
//! frontier serializers ([`ParetoResults::to_json`] /
//! [`ParetoResults::to_csv`]) expose the same machinery declaratively.
//!
//! **Adaptive frontier search** ([`Explorer::search`]) approximates the
//! same frontier with a fraction of the gated evaluations (on the
//! 4096-point Ed-Gaze grid: recall ≥ 0.95 at ≤ 15% of them): a
//! successive-halving warm-up ranks a random sample on truncated
//! (half-kernel) partial-energy lower bounds, promotes the best to full
//! evaluation, and an NSGA-II-style loop then breeds candidate batches
//! from the frontier by axis-coordinate crossover/mutation until a
//! generation budget, an evaluation [`SearchSpec::budget`], or frontier
//! convergence stops it. Seeded runs are byte-identical across repeat
//! runs and thread counts, and grids at or below
//! [`SearchSpec::exhaustive_below`] fall back to exact cartesian
//! evaluation, so the cartesian path stays the exactness oracle. The
//! `camj search` subcommand and [`SearchResults`] serializers expose
//! it declaratively.
//!
//! # Example
//!
//! ```
//! use camj_explore::{Explorer, PointError, Sweep};
//! use camj_workloads::quickstart;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Axes: frame-rate target × (here) a single-variant placeholder.
//! let sweep = Sweep::new()
//!     .fps_targets([15.0, 30.0, 60.0])
//!     .labels("sensor", ["fig5"]);
//! assert_eq!(sweep.len(), 3);
//!
//! let results = Explorer::parallel().run(&sweep, |point| {
//!     let model = quickstart::model(point.fps("fps")).map_err(PointError::new)?;
//!     model.estimate().map_err(PointError::from)
//! });
//!
//! assert_eq!(results.len(), 3);
//! assert_eq!(results.error_count(), 0);
//! for (point, report) in results.successes() {
//!     println!("{point}: {:.1} nJ", report.total().nanojoules());
//! }
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod axis;
mod explorer;
mod format;
mod objective;
mod pareto;
mod plan;
mod prune;
mod search;
mod sweep;

pub use axis::{canonical_f64, Axis, AxisValue};
pub use explorer::{ExecutionMode, Explorer, PointError, PointOutcome, SweepResults};
pub use format::SweepFormat;
pub use objective::{MetricVector, Objective};
pub use pareto::{
    DominatedEntry, ParetoEntry, ParetoFront, ParetoQuery, ParetoResults, PrunedPoint,
};
pub use plan::{axis_impact, axis_requires_rebuild, KernelSet};
pub use prune::{Constraint, ConstraintSet, PruneStats};
pub use search::{SearchResults, SearchSpec};
pub use sweep::{DesignPoint, Sweep};

// Re-exported for axis construction without extra imports downstream.
pub use camj_digital::memory::MemoryKind;
pub use camj_tech::node::ProcessNode;

// Re-exported so sweep drivers can create and inspect the cross-point
// cache without importing camj-core directly.
pub use camj_core::energy::{CacheStats, EstimateCache};
