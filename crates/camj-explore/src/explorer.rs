//! The sweep evaluator: serial or parallel, with per-point error
//! capture and deterministic, grid-ordered results.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rayon::prelude::*;

use camj_core::energy::{
    EstimateCache, EstimateReport, GatedEstimate, ValidatedModel, ENERGY_KERNEL_COUNT,
};
use camj_core::error::CamjError;

use crate::axis::AxisValue;
use crate::objective::{MetricVector, Objective};
use crate::pareto::{ParetoFront, ParetoQuery, ParetoResults, PrunedPoint};
use crate::plan::{group_points, GridKeys};
use crate::prune::{Constraint, ConstraintSet, PruneStats};
use crate::sweep::{DesignPoint, Sweep};

/// How a sweep's points are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One point after another on the calling thread. Useful for
    /// debugging and as the reference for determinism tests.
    Serial,
    /// Points fanned out across the rayon worker pool.
    #[default]
    Parallel,
}

/// Evaluation failure at one design point.
///
/// Sweeps explore aggressively — many grid points are *supposed* to be
/// infeasible (frame rate too high, memory too small, variant
/// unsupported). A failing point therefore becomes data, not an abort:
/// it is recorded here and its neighbours complete normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointError {
    message: String,
    panicked: bool,
}

impl PointError {
    /// Wraps any displayable error.
    pub fn new(error: impl fmt::Display) -> Self {
        Self {
            message: error.to_string(),
            panicked: false,
        }
    }

    /// Wraps a panic payload captured at a point. Unlike an ordinary
    /// infeasibility, a panic is a *bug* — drivers distinguish the two
    /// through [`PointError::is_panic`] (the CLI exits non-zero when
    /// any point panicked, even though the sweep itself completed).
    pub fn panicked_at_point(point: &DesignPoint, message: impl fmt::Display) -> Self {
        Self {
            message: format!("at point [{point}]: {message}"),
            panicked: true,
        }
    }

    /// The error description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Whether this error records a captured panic rather than an
    /// ordinary infeasible/failed evaluation.
    #[must_use]
    pub fn is_panic(&self) -> bool {
        self.panicked
    }
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PointError {}

impl From<CamjError> for PointError {
    fn from(e: CamjError) -> Self {
        Self::new(e)
    }
}

/// One evaluated grid point: the point and what happened there.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome<R> {
    /// The design point.
    pub point: DesignPoint,
    /// The evaluation result.
    pub result: Result<R, PointError>,
}

/// The outcome of a sweep, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults<R> {
    outcomes: Vec<PointOutcome<R>>,
}

impl<R> SweepResults<R> {
    /// All outcomes, ordered by [`DesignPoint::index`].
    #[must_use]
    pub fn outcomes(&self) -> &[PointOutcome<R>] {
        &self.outcomes
    }

    /// Consumes into the ordered outcome list.
    #[must_use]
    pub fn into_outcomes(self) -> Vec<PointOutcome<R>> {
        self.outcomes
    }

    /// Number of evaluated points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the sweep had no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Number of points that evaluated successfully.
    #[must_use]
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of points that failed.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.len() - self.ok_count()
    }

    /// Successful points, in grid order.
    pub fn successes(&self) -> impl Iterator<Item = (&DesignPoint, &R)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|r| (&o.point, r)))
    }

    /// Failed points, in grid order.
    pub fn failures(&self) -> impl Iterator<Item = (&DesignPoint, &PointError)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err().map(|e| (&o.point, e)))
    }
}

impl SweepResults<EstimateReport> {
    /// The successful point with the lowest total per-frame energy —
    /// the usual "winner" question a sweep answers. Ties resolve to
    /// the lowest grid index explicitly, not by iteration order, so
    /// the winner is stable even over hand-built or re-ordered point
    /// lists (`Iterator::min_by` would keep the *last* minimum).
    #[must_use]
    pub fn min_energy(&self) -> Option<(&DesignPoint, &EstimateReport)> {
        let mut best: Option<(&DesignPoint, &EstimateReport)> = None;
        for (point, report) in self.successes() {
            let better = match best {
                None => true,
                Some((best_point, best_report)) => {
                    let a = report.total().joules();
                    let b = best_report.total().joules();
                    a < b || (a == b && point.index < best_point.index)
                }
            };
            if better {
                best = Some((point, report));
            }
        }
        best
    }
}

/// Evaluates sweeps over a design grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Explorer {
    mode: ExecutionMode,
}

impl Explorer {
    /// An explorer with the default (parallel) execution mode.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A serial explorer.
    #[must_use]
    pub fn serial() -> Self {
        Self {
            mode: ExecutionMode::Serial,
        }
    }

    /// A parallel explorer.
    #[must_use]
    pub fn parallel() -> Self {
        Self {
            mode: ExecutionMode::Parallel,
        }
    }

    /// The configured execution mode.
    #[must_use]
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Evaluates `eval` at every point of `sweep`'s grid.
    ///
    /// Guarantees, regardless of mode:
    ///
    /// * results come back in grid order ([`DesignPoint::index`]),
    /// * a failing point (error **or** panic) is captured as its own
    ///   [`PointOutcome`] and does not affect any other point,
    /// * parallel and serial runs of a deterministic `eval` produce
    ///   identical [`SweepResults`].
    pub fn run<R, F>(&self, sweep: &Sweep, eval: F) -> SweepResults<R>
    where
        R: Send,
        F: Fn(&DesignPoint) -> Result<R, PointError> + Sync,
    {
        let evaluate = |point: DesignPoint| -> PointOutcome<R> {
            let result =
                catch_unwind(AssertUnwindSafe(|| eval(&point))).unwrap_or_else(|payload| {
                    Err(PointError::panicked_at_point(
                        &point,
                        panic_message(payload.as_ref()),
                    ))
                });
            PointOutcome { point, result }
        };
        let outcomes: Vec<PointOutcome<R>> = match self.mode {
            ExecutionMode::Serial => sweep.points().into_iter().map(evaluate).collect(),
            ExecutionMode::Parallel => sweep.points().into_par_iter().map(evaluate).collect(),
        };
        SweepResults { outcomes }
    }

    /// The cross-point incremental sweep: plans the grid (heaviest axes
    /// slowest, points grouped by their model-rebuilding coordinates;
    /// see [`axis_impact`](crate::axis_impact)), builds **one** [`ValidatedModel`]
    /// per group via `build`, attaches the shared [`EstimateCache`] to
    /// every model, and runs only the FPS-dependent pipeline tail per
    /// point.
    ///
    /// Content-addressing does the rest: groups whose digital dataflow
    /// coincides share one elastic simulation and one stall verdict,
    /// and energy kernels whose fingerprinted inputs repeat replay
    /// cached items — on a typical 4-axis grid (fps × bit width × tech
    /// node × memory kind) the expensive simulation runs a handful of
    /// times instead of once per point.
    ///
    /// Guarantees (inherited from [`Self::run`] semantics):
    ///
    /// * results come back in original grid order, byte-identical to a
    ///   cold, unplanned sweep of the same `build` + estimate closure,
    /// * serial and parallel modes produce identical results,
    /// * a failing or panicking point is captured as its own outcome
    ///   (with its axis coordinates in the message) without poisoning
    ///   neighbours; if a group's representative build fails, every
    ///   point of the group falls back to an individual build so
    ///   per-point diagnoses stay exact.
    ///
    /// Read `cache.stats()` afterwards for the [`CacheStats`] report.
    ///
    /// # Examples
    ///
    /// A 2-axis (frame rate × precision) grid over the Fig. 5
    /// quickstart chip, one shared cache across all six points:
    ///
    /// ```rust
    /// use camj_explore::{EstimateCache, Explorer, PointError, Sweep};
    /// use camj_workloads::quickstart;
    ///
    /// let sweep = Sweep::new().fps_targets([15.0, 30.0, 60.0]);
    /// let cache = EstimateCache::shared();
    /// let results = Explorer::parallel().sweep_incremental(&sweep, &cache, |point| {
    ///     quickstart::model(point.fps("fps"))
    ///         .map(camj_core::energy::CamJ::into_validated)
    ///         .map_err(PointError::new)
    /// });
    /// assert_eq!(results.ok_count(), 3);
    /// // fps is a tail axis: all three points share one group, one
    /// // model, one elastic simulation — and the fps-independent
    /// // energy kernels replay from the shared cache.
    /// assert!(cache.stats().hits > 0);
    /// ```
    ///
    /// [`CacheStats`]: camj_core::energy::CacheStats
    pub fn sweep_incremental<F>(
        &self,
        sweep: &Sweep,
        cache: &Arc<EstimateCache>,
        build: F,
    ) -> SweepResults<EstimateReport>
    where
        F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
    {
        self.run_groups(
            group_points(&GridKeys::for_sweep(sweep), sweep.points()),
            cache,
            &build,
            &build,
            &ConstraintSet::new(),
            |model, point| {
                model
                    .estimate_at_fps(point_fps(model, point))
                    .map_err(PointError::from)
            },
        )
    }

    /// Multi-objective Pareto exploration over a design grid: evaluates
    /// the grid through the same planned, cache-shared incremental path
    /// as [`Self::sweep_incremental`], but
    ///
    /// * each point runs the **gated** pipeline
    ///   ([`ValidatedModel::estimate_at_fps_gated`]): the query's
    ///   [`Constraint`]s are checked after the delay solve and after
    ///   every energy kernel, so an infeasible point skips the kernels
    ///   it no longer needs (sound pruning — partial aggregates are
    ///   lower bounds, so only genuinely-violating points are cut, and
    ///   surviving points stay byte-identical to an unconstrained
    ///   sweep), and
    /// * completed points stream into a [`ParetoFront`] in grid order,
    ///   so the frontier, its dominated-point provenance, and the
    ///   pruned/error lists are fully deterministic — identical between
    ///   serial and parallel modes, and identical to filtering a cold
    ///   full sweep through the same constraints and front.
    ///
    /// Read `cache.stats()` for cache effectiveness and
    /// [`ParetoResults::stats`] for how much kernel work the pruning
    /// skipped.
    ///
    /// [`ValidatedModel::estimate_at_fps_gated`]: camj_core::energy::ValidatedModel::estimate_at_fps_gated
    pub fn pareto<F>(
        &self,
        sweep: &Sweep,
        cache: &Arc<EstimateCache>,
        query: &ParetoQuery,
        build: F,
    ) -> ParetoResults
    where
        F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
    {
        let results = self.run_groups(
            group_points(&GridKeys::for_sweep(sweep), sweep.points()),
            cache,
            &build,
            &build,
            query.constraints(),
            |model, point| gated_point_eval(model, point, query),
        );
        // The fold runs serially in grid order, so every prune counter
        // below is fully deterministic across thread counts.
        let _span = obs_core::span("pareto.fold");
        let mut acc = ParetoAccumulator::new(query.objectives().to_vec());
        acc.fold(results.into_outcomes());
        acc.finish()
    }

    /// The shared engine of [`Self::sweep_incremental`],
    /// [`Self::pareto`] and adaptive search: over model-sharing groups
    /// (see [`crate::plan::group_points`]), builds one cache-attached
    /// model per group with `model_for` from its representative point
    /// (a plain build, or adaptive search's memo), falling back to
    /// per-point `build`s when that fails; pre-warms each healthy
    /// group's stall verdict at the fastest frame rate `constraints`
    /// admit, evaluates `eval` per point with panic capture, and
    /// returns outcomes in grid order.
    pub(crate) fn run_groups<R, M, F, E>(
        &self,
        groups: Vec<Vec<DesignPoint>>,
        cache: &Arc<EstimateCache>,
        model_for: M,
        build: F,
        constraints: &ConstraintSet,
        eval: E,
    ) -> SweepResults<R>
    where
        R: Send,
        M: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
        F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
        E: Fn(&ValidatedModel, &DesignPoint) -> Result<R, PointError> + Sync,
    {
        let eval_on = |model: &ValidatedModel, point: &DesignPoint| {
            let _span = obs_core::span("explore.point");
            catch_unwind(AssertUnwindSafe(|| eval(model, point))).unwrap_or_else(|payload| {
                Err(PointError::panicked_at_point(
                    point,
                    panic_message(payload.as_ref()),
                ))
            })
        };
        let eval_group = |points: Vec<DesignPoint>| -> Vec<PointOutcome<R>> {
            // One span per rebuild group: covers the representative
            // build, the warm-up, and every point of the group.
            let _span = obs_core::span("explore.group");
            let representative = &points[0];
            let built = catch_unwind(AssertUnwindSafe(|| model_for(representative)));
            match built {
                Ok(Ok(model)) => {
                    let model = model.with_cache(Arc::clone(cache));
                    warm_stall(&model, &points, constraints);
                    points
                        .into_iter()
                        .map(|point| {
                            let result = eval_on(&model, &point);
                            PointOutcome { point, result }
                        })
                        .collect()
                }
                _ => {
                    // The representative build failed (error or panic).
                    // Fall back to per-point builds so every point gets
                    // the exact outcome a naive sweep would give it.
                    points
                        .into_iter()
                        .map(|point| {
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                build(&point).map(|m| m.with_cache(Arc::clone(cache)))
                            }))
                            .unwrap_or_else(|payload| {
                                Err(PointError::panicked_at_point(
                                    &point,
                                    panic_message(payload.as_ref()),
                                ))
                            })
                            .and_then(|model| eval_on(&model, &point));
                            PointOutcome { point, result }
                        })
                        .collect()
                }
            }
        };
        let mut outcomes: Vec<PointOutcome<R>> = match self.mode {
            ExecutionMode::Serial => groups.into_iter().flat_map(eval_group).collect(),
            ExecutionMode::Parallel => {
                let per_group: Vec<Vec<PointOutcome<R>>> =
                    groups.into_par_iter().map(eval_group).collect();
                per_group.into_iter().flatten().collect()
            }
        };
        outcomes.sort_by_key(|o| o.point.index);
        SweepResults { outcomes }
    }
}

/// A gated point evaluation: completed (already measured into its
/// objective coordinates), or pruned by a constraint after
/// `kernels_done` kernels.
pub(crate) enum PointEval {
    Complete(MetricVector),
    Pruned {
        constraint: Constraint,
        kernels_done: usize,
    },
}

/// Evaluates one point through the constraint-gated pipeline and
/// measures a completed estimate into its objective coordinates — the
/// per-point worker body shared by [`Explorer::pareto`] and adaptive
/// search ([`Explorer::search`](crate::Explorer::search)).
///
/// Metrics are measured here, in the worker, because `mc_snr` and
/// `accuracy` objectives run seeded frame simulations — work that
/// should share the sweep's parallelism, not serialise in the reduce
/// loop. Seeds are fixed per objective, so the coordinates are
/// byte-identical in serial and parallel modes.
pub(crate) fn gated_point_eval(
    model: &ValidatedModel,
    point: &DesignPoint,
    query: &ParetoQuery,
) -> Result<PointEval, PointError> {
    let fps = point_fps(model, point);
    match run_gated(model, fps, query.constraints(), usize::MAX)? {
        (GatedEstimate::Complete(report), _) => Ok(PointEval::Complete(MetricVector::measure(
            query.objectives(),
            &report,
            model,
            fps,
        )?)),
        (GatedEstimate::Pruned { kernels_done, .. }, fired) => Ok(PointEval::Pruned {
            constraint: fired.expect("the gate only stops on a violation"),
            kernels_done,
        }),
    }
}

/// A point's frame rate: its `fps` coordinate, else the model's own.
pub(crate) fn point_fps(model: &ValidatedModel, point: &DesignPoint) -> f64 {
    point
        .get("fps")
        .and_then(AxisValue::as_f64)
        .unwrap_or_else(|| model.fps())
}

/// Runs the constraint-gated pipeline at `fps`, stopping at the first
/// violated constraint — returned alongside the outcome — or once
/// `kernel_cap` energy kernels have run.
pub(crate) fn run_gated(
    model: &ValidatedModel,
    fps: f64,
    constraints: &ConstraintSet,
    kernel_cap: usize,
) -> Result<(GatedEstimate, Option<Constraint>), PointError> {
    let mut fired = None;
    let outcome =
        model.estimate_at_fps_gated(fps, |ctx| match constraints.first_violated(model, ctx) {
            Some(c) => {
                fired = Some(c);
                false
            }
            None => ctx.kernels_done < kernel_cap,
        });
    Ok((outcome.map_err(PointError::from)?, fired))
}

/// A serial accumulator folding gated point outcomes into a
/// [`ParetoFront`] with deterministic prune accounting. Shared by
/// [`Explorer::pareto`] (one fold over the whole grid) and adaptive
/// search (one fold per generation, into the same persistent front).
pub(crate) struct ParetoAccumulator {
    front: ParetoFront,
    stats: PruneStats,
    pruned: Vec<PrunedPoint>,
    errors: Vec<(DesignPoint, PointError)>,
}

impl ParetoAccumulator {
    /// An empty accumulator over `objectives`.
    pub(crate) fn new(objectives: Vec<Objective>) -> Self {
        Self {
            front: ParetoFront::new(objectives),
            stats: PruneStats::default(),
            pruned: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Folds a batch of outcomes, in the order given (callers pass
    /// grid-ordered batches, so every prune counter and frontier
    /// insertion below is fully deterministic across thread counts).
    pub(crate) fn fold(&mut self, outcomes: Vec<PointOutcome<PointEval>>) {
        for outcome in outcomes {
            match outcome.result {
                Ok(PointEval::Complete(metrics)) => {
                    self.stats.record_complete();
                    obs_core::count("prune.complete");
                    self.front.insert(outcome.point, metrics);
                }
                Ok(PointEval::Pruned {
                    constraint,
                    kernels_done,
                }) => {
                    self.stats.record_pruned(kernels_done);
                    // Keyed by the stopping constraint, valued with the
                    // kernels the prune saved.
                    obs_core::counter("prune.pruned", constraint.trace_key(), 1);
                    obs_core::counter(
                        "prune.kernels_skipped",
                        constraint.trace_key(),
                        (ENERGY_KERNEL_COUNT - kernels_done) as u64,
                    );
                    self.pruned.push(PrunedPoint {
                        point: outcome.point,
                        constraint,
                        kernels_done,
                    });
                }
                Err(error) => {
                    self.stats.record_error();
                    obs_core::count("prune.error");
                    self.errors.push((outcome.point, error));
                }
            }
        }
    }

    /// The current frontier (for convergence checks between folds).
    pub(crate) fn front(&self) -> &ParetoFront {
        &self.front
    }

    /// Finishes into the assembled results.
    pub(crate) fn finish(self) -> ParetoResults {
        ParetoResults::assemble(self.front, self.pruned, self.errors, self.stats)
    }
}

/// Pre-warms a group's stall verdict at its fastest frame rate whose
/// delay split `constraints` admit: stall freedom is monotone in the
/// readout time, so one simulation settles every slower point (and,
/// through the shared cache, every other group with the same
/// topology). A delay-pruned point never runs the stall check, so
/// warming past the budget would do work the gated path skips.
fn warm_stall(model: &ValidatedModel, points: &[DesignPoint], constraints: &ConstraintSet) {
    let _span = obs_core::span("explore.warm");
    let fastest = points
        .iter()
        .filter_map(|p| p.get("fps").and_then(AxisValue::as_f64))
        .filter(|&fps| {
            fps.is_finite()
                && fps > 0.0
                && model
                    .estimate_delay_at(fps)
                    .is_ok_and(|delay| constraints.admits_delay(&delay))
        })
        .fold(f64::NEG_INFINITY, f64::max);
    if fastest.is_finite() && fastest > 0.0 {
        let _ = model
            .estimate_delay_at(fastest)
            .and_then(|delay| model.check_stall(&delay));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: <non-string payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sweep;

    fn grid() -> Sweep {
        Sweep::new().bit_widths([4, 6, 8]).fps_targets([15.0, 30.0])
    }

    #[test]
    fn results_come_back_in_grid_order() {
        for explorer in [Explorer::serial(), Explorer::parallel()] {
            let results = explorer.run(&grid(), |p| {
                Ok::<_, PointError>(p.u32("bit_width") as f64 * p.fps("fps"))
            });
            assert_eq!(results.len(), 6);
            let values: Vec<f64> = results.successes().map(|(_, v)| *v).collect();
            assert_eq!(values, vec![60.0, 120.0, 90.0, 180.0, 120.0, 240.0]);
            for (i, o) in results.outcomes().iter().enumerate() {
                assert_eq!(o.point.index, i);
            }
        }
    }

    #[test]
    fn one_failure_does_not_poison_neighbours() {
        let results = Explorer::parallel().run(&grid(), |p| {
            if p.u32("bit_width") == 6 {
                Err(PointError::new("infeasible by construction"))
            } else {
                Ok(p.index)
            }
        });
        assert_eq!(results.ok_count(), 4);
        assert_eq!(results.error_count(), 2);
        for (point, err) in results.failures() {
            assert_eq!(point.u32("bit_width"), 6);
            assert!(err.message().contains("infeasible"));
        }
    }

    #[test]
    fn panics_are_captured_per_point() {
        let results = Explorer::parallel().run(&grid(), |p| {
            assert!(p.index != 3, "boom at point 3");
            Ok::<_, PointError>(())
        });
        assert_eq!(results.error_count(), 1);
        let (point, err) = results.failures().next().unwrap();
        assert_eq!(point.index, 3);
        assert!(err.message().contains("boom"), "{err}");
    }

    #[test]
    fn min_energy_ties_break_to_the_lowest_grid_index() {
        // Duplicate fps values produce byte-identical reports at two
        // different grid indices; the winner must be the lower index
        // even though `min_by` alone would keep the later one.
        let model = camj_workloads::quickstart::model(30.0)
            .map(camj_core::energy::CamJ::into_validated)
            .expect("quickstart builds");
        let sweep = Sweep::new().fps_targets([30.0, 30.0]);
        let cache = EstimateCache::shared();
        let results = Explorer::serial().sweep_incremental(&sweep, &cache, |_| Ok(model.clone()));
        assert_eq!(results.ok_count(), 2);
        let (winner, _) = results.min_energy().expect("two successes");
        assert_eq!(winner.index, 0);
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let eval = |p: &DesignPoint| {
            if p.index % 4 == 2 {
                Err(PointError::new(format!("bad point {}", p.index)))
            } else {
                Ok(format!("{p}"))
            }
        };
        let serial = Explorer::serial().run(&grid(), eval);
        let parallel = Explorer::parallel().run(&grid(), eval);
        assert_eq!(serial, parallel);
    }
}
