//! Adaptive frontier search: an NSGA-II-style evolutionary loop with a
//! successive-halving warm-up over the gated incremental evaluator.
//!
//! The cartesian path ([`Explorer::pareto`]) evaluates every grid
//! point. [`Explorer::search`] instead spends [`estimate_at_fps_gated`]
//! calls only near the Pareto frontier:
//!
//! 1. **Warm-up (successive halving):** sample `2 × population`
//!    distinct points from the grid and run each through a *truncated*
//!    gate that stops after half the energy kernels. Partial aggregates
//!    are sound lower bounds, so ranking candidates by partial total
//!    energy (ties by grid index) is a cheap, deterministic fidelity
//!    filter; the best `population` are promoted to full evaluation —
//!    the shared [`EstimateCache`] replays the kernels that already ran
//!    — and the rest are discarded. Points a *constraint* cut during
//!    warm-up are genuinely decided and fold into the prune ledger.
//! 2. **Generations:** breed the next candidate batch from the current
//!    frontier by per-axis coordinate crossover plus mutation (a ±1
//!    neighbour step or a uniform redraw per axis), skip anything
//!    already evaluated, evaluate the batch through the same grouped,
//!    cache-shared gated path as [`Explorer::pareto`], and fold the
//!    outcomes — in grid order — into the persistent front.
//! 3. **Termination:** stop on the generation budget, on the
//!    evaluation budget, or on convergence (the frontier index set
//!    unchanged for three consecutive generations).
//!
//! # What is measured
//!
//! On the 4096-point Ed-Gaze 4-axis grid, a seeded search recovers at
//! least 95% of the exact frontier within at most 15% of the grid's
//! gated evaluations (`seeded_search_recovers_the_4096_point_frontier`
//! in `tests/incremental.rs`). Larger grids have not been measured.
//!
//! # Determinism
//!
//! The contract of the cartesian path carries over unchanged: a seeded
//! run is **byte-identical across repeat runs and thread counts**.
//! Every random draw and every selection decision happens serially in
//! the orchestrator (the seeded [`rand::rngs::StdRng`] stream never
//! sees worker scheduling); only evaluation fans out, and batch
//! outcomes are folded in grid order. Metric ties on the front break
//! by lowest grid index, exactly as in [`Explorer::pareto`].
//!
//! # Exactness oracle
//!
//! Small grids stay exact: when the grid has at most
//! [`SearchSpec::exhaustive_below`] points and the budget covers it,
//! search returns [`Explorer::pareto`]'s result itself. Sampling only
//! kicks in where enumeration is genuinely intractable.
//!
//! [`estimate_at_fps_gated`]: camj_core::energy::ValidatedModel::estimate_at_fps_gated
//! [`EstimateCache`]: camj_core::energy::EstimateCache

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use camj_core::energy::{EstimateCache, ValidatedModel, ENERGY_KERNEL_COUNT};

use crate::explorer::{
    gated_point_eval, point_fps, run_gated, ParetoAccumulator, PointError, PointEval, PointOutcome,
};
use crate::pareto::{ParetoQuery, ParetoResults};
use crate::plan::{group_points, GridKeys};
use crate::sweep::{DesignPoint, Sweep};
use crate::Explorer;

/// Energy kernels the warm-up fidelity gate lets run before stopping
/// (half of [`ENERGY_KERNEL_COUNT`], rounded down).
const WARMUP_KERNELS: usize = ENERGY_KERNEL_COUNT / 2;

/// Consecutive generations the frontier must stay unchanged before the
/// loop declares convergence.
const CONVERGENCE_PATIENCE: usize = 3;

/// Per-axis probability that a bred child's coordinate mutates.
const MUTATION_RATE: f64 = 0.35;

/// Attempts at breeding a not-yet-evaluated child before falling back
/// to a deterministic scan for any unevaluated grid index.
const MAX_CHILD_ATTEMPTS: usize = 12;

/// Configuration of one adaptive search run.
///
/// The camj-desc `sweep.search` block and the `camj search` CLI flags
/// map onto the same fields. The measured operating point is the
/// 4096-point Ed-Gaze grid at population 32 (recall ≥ 0.95 of the
/// exact frontier at ≤ 15% of its evaluations); the defaults are not
/// tuned beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    population: usize,
    generations: usize,
    seed: u64,
    budget: Option<usize>,
    exhaustive_below: usize,
}

impl Default for SearchSpec {
    fn default() -> Self {
        Self {
            population: 64,
            generations: 24,
            seed: 0,
            budget: None,
            exhaustive_below: 256,
        }
    }
}

impl SearchSpec {
    /// The default spec (population 64, 24 generations, seed 0, no
    /// evaluation budget, exhaustive fallback below 256 points).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-generation candidate count (warm-up samples twice
    /// this many).
    ///
    /// # Panics
    ///
    /// Panics if `population` is zero.
    #[must_use]
    pub fn population(mut self, population: usize) -> Self {
        assert!(population >= 1, "search population must be at least 1");
        self.population = population;
        self
    }

    /// Sets the maximum number of breeding generations after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `generations` is zero.
    #[must_use]
    pub fn generations(mut self, generations: usize) -> Self {
        assert!(generations >= 1, "search generations must be at least 1");
        self.generations = generations;
        self
    }

    /// Sets the RNG seed. Two runs with the same seed (and the same
    /// sweep, query, and spec) produce byte-identical results.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of **distinct grid points** that may enter the
    /// gated pipeline (at any fidelity). Unset means the loop is
    /// bounded only by `generations × population` and the grid itself.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    #[must_use]
    pub fn budget(mut self, budget: usize) -> Self {
        assert!(budget >= 1, "search budget must be at least 1");
        self.budget = Some(budget);
        self
    }

    /// Sets the grid size at or below which search evaluates the full
    /// cartesian product instead of sampling (the exactness oracle;
    /// requires the budget, if any, to cover the grid).
    #[must_use]
    pub fn exhaustive_below(mut self, points: usize) -> Self {
        self.exhaustive_below = points;
        self
    }
}

/// The outcome of [`Explorer::search`]: the frontier (with the full
/// dominance/prune/error provenance of a [`ParetoResults`]) plus the
/// search trajectory — how many of the grid's points were actually
/// evaluated, how many generations ran, and how the loop terminated.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResults {
    pareto: ParetoResults,
    grid_points: usize,
    evaluations: usize,
    generations_run: usize,
    converged: bool,
    exhaustive: bool,
    warmup_discarded: usize,
}

impl SearchResults {
    /// The frontier and its provenance (dominated, pruned, errored
    /// points), exactly as [`Explorer::pareto`] reports them.
    #[must_use]
    pub fn pareto(&self) -> &ParetoResults {
        &self.pareto
    }

    /// The frontier entries, sorted by grid index.
    #[must_use]
    pub fn frontier(&self) -> &[crate::pareto::ParetoEntry] {
        self.pareto.frontier()
    }

    /// Total points in the design grid.
    #[must_use]
    pub fn grid_points(&self) -> usize {
        self.grid_points
    }

    /// Distinct grid points that entered the gated pipeline (at any
    /// fidelity) — the denominator of the search's saving is
    /// [`Self::grid_points`].
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Fraction of the grid evaluated (zero for an empty grid).
    #[must_use]
    pub fn evaluation_fraction(&self) -> f64 {
        if self.grid_points == 0 {
            0.0
        } else {
            self.evaluations as f64 / self.grid_points as f64
        }
    }

    /// Breeding generations that ran after warm-up.
    #[must_use]
    pub fn generations_run(&self) -> usize {
        self.generations_run
    }

    /// Whether the loop stopped because the frontier stabilised (rather
    /// than exhausting a budget).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Whether the run took the exhaustive cartesian path (small grid)
    /// — in which case the frontier is exact, not approximate.
    #[must_use]
    pub fn exhaustive(&self) -> bool {
        self.exhaustive
    }

    /// Warm-up survivors that ranked below the promotion cut and were
    /// discarded without a full evaluation (not decided: they are
    /// neither on the frontier nor in the prune/error ledgers).
    #[must_use]
    pub fn warmup_discarded(&self) -> usize {
        self.warmup_discarded
    }
}

impl Explorer {
    /// Adaptive multi-objective search over `sweep`'s grid: finds an
    /// approximation of the Pareto frontier [`Explorer::pareto`] would
    /// return, spending gated evaluations only near the frontier
    /// instead of everywhere (the module-level docs in `search.rs`
    /// describe the algorithm and its determinism contract).
    ///
    /// Grids of at most [`SearchSpec::exhaustive_below`] points (with a
    /// budget covering them) are evaluated exhaustively — the result
    /// then *is* the exact frontier.
    ///
    /// # Examples
    ///
    /// ```rust
    /// use camj_explore::{
    ///     EstimateCache, Explorer, Objective, ParetoQuery, PointError, SearchSpec, Sweep,
    /// };
    /// use camj_workloads::quickstart;
    ///
    /// let sweep = Sweep::new().fps_targets([15.0, 30.0, 60.0]);
    /// let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
    /// let cache = EstimateCache::shared();
    /// let results = Explorer::parallel().search(
    ///     &sweep,
    ///     &cache,
    ///     &query,
    ///     &SearchSpec::new().seed(7),
    ///     |point| {
    ///         quickstart::model(point.fps("fps"))
    ///             .map(camj_core::energy::CamJ::into_validated)
    ///             .map_err(PointError::new)
    ///     },
    /// );
    /// // Three points sit below the exhaustive threshold: the search
    /// // fell back to the exact cartesian path.
    /// assert!(results.exhaustive());
    /// assert_eq!(results.evaluations(), 3);
    /// assert!(!results.frontier().is_empty());
    /// ```
    pub fn search<F>(
        &self,
        sweep: &Sweep,
        cache: &Arc<EstimateCache>,
        query: &ParetoQuery,
        spec: &SearchSpec,
        build: F,
    ) -> SearchResults
    where
        F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
    {
        let grid = sweep.len();
        let budget_covers_grid = spec.budget.map_or(true, |b| b >= grid);
        if grid <= spec.exhaustive_below && budget_covers_grid {
            // The exactness oracle: the cartesian pareto path itself.
            obs_core::count("search.exhaustive");
            obs_core::counter("search.evals", 0, grid as u64);
            return SearchResults {
                pareto: self.pareto(sweep, cache, query, build),
                grid_points: grid,
                evaluations: grid,
                generations_run: 0,
                converged: false,
                exhaustive: true,
                warmup_discarded: 0,
            };
        }
        self.search_adaptive(sweep, cache, query, spec, &build)
    }

    /// The evolutionary loop proper: warm-up, breed, evaluate, fold,
    /// until a budget runs out or the frontier stabilises.
    fn search_adaptive<F>(
        &self,
        sweep: &Sweep,
        cache: &Arc<EstimateCache>,
        query: &ParetoQuery,
        spec: &SearchSpec,
        build: &F,
    ) -> SearchResults
    where
        F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
    {
        let grid = sweep.len();
        let cap = spec.budget.unwrap_or(grid).min(grid);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut evaluated: BTreeSet<usize> = BTreeSet::new();
        let mut acc = ParetoAccumulator::new(query.objectives().to_vec());
        let models = ModelMemo::new(sweep, build);
        let full =
            |model: &ValidatedModel, point: &DesignPoint| gated_point_eval(model, point, query);

        // --- Phase 1: successive-halving warm-up. ---
        let warmup_discarded = {
            let _span = obs_core::span("search.warmup");
            let want = (2 * spec.population).min(cap);
            let batch = sample_distinct(&mut rng, grid, &evaluated, want);
            evaluated.extend(batch.iter().copied());
            obs_core::counter("search.evals", 0, batch.len() as u64);
            let outcomes = self.gated_batch(&models, cache, query, batch, |model, point| {
                let fps = point_fps(model, point);
                let (gated, fired) = run_gated(model, fps, query.constraints(), WARMUP_KERNELS)?;
                Ok(match fired {
                    Some(constraint) => WarmupEval::Decided(PointEval::Pruned {
                        constraint,
                        kernels_done: gated.kernels_done(),
                    }),
                    // No constraint fired: the fidelity cut (or, if
                    // WARMUP_KERNELS covers every kernel, nothing)
                    // stopped the run; the partial total is the sound
                    // lower bound the halving ranks by.
                    None => WarmupEval::Survivor {
                        partial_pj: gated.partial_total().picojoules(),
                    },
                })
            });
            // Split the truncated-fidelity outcomes: constraint prunes
            // and errors are decided; survivors compete for promotion
            // on their partial-energy lower bound.
            let mut decided: Vec<PointOutcome<PointEval>> = Vec::new();
            let mut survivors: Vec<(f64, DesignPoint)> = Vec::new();
            for outcome in outcomes {
                match outcome.result {
                    Ok(WarmupEval::Survivor { partial_pj }) => {
                        survivors.push((partial_pj, outcome.point));
                    }
                    Ok(WarmupEval::Decided(eval)) => decided.push(PointOutcome {
                        point: outcome.point,
                        result: Ok(eval),
                    }),
                    Err(error) => decided.push(PointOutcome {
                        point: outcome.point,
                        result: Err(error),
                    }),
                }
            }
            acc.fold(decided);
            survivors
                .sort_by(|(a_pj, a), (b_pj, b)| a_pj.total_cmp(b_pj).then(a.index.cmp(&b.index)));
            let discarded = survivors.len().saturating_sub(spec.population);
            obs_core::counter("search.warmup_discarded", 0, discarded as u64);
            let promoted = survivors
                .into_iter()
                .take(spec.population)
                .map(|(_, point)| point.index);
            // Promotion re-runs the promoted points at full fidelity;
            // the shared cache replays the kernels warm-up already paid
            // for, so only the truncated tail is new work.
            let outcomes = self.gated_batch(&models, cache, query, promoted, full);
            acc.fold(outcomes);
            discarded
        };

        // --- Phase 2: breed → evaluate → fold, generation by generation. ---
        let mut prev_frontier = frontier_indices(&acc);
        let mut stable_generations = 0;
        let mut generations_run = 0;
        let mut converged = false;
        for _ in 0..spec.generations {
            let remaining = cap - evaluated.len();
            if remaining == 0 {
                break;
            }
            let _span = obs_core::span("search.generation");
            obs_core::count("search.generations");
            let want = spec.population.min(remaining);
            let parents: Vec<Vec<usize>> = prev_frontier
                .iter()
                .map(|&index| genome(sweep, index))
                .collect();
            let batch = breed(&mut rng, sweep, &parents, &evaluated, want);
            if batch.is_empty() {
                break;
            }
            evaluated.extend(batch.iter().copied());
            obs_core::counter("search.evals", 0, batch.len() as u64);
            let outcomes = self.gated_batch(&models, cache, query, batch, full);
            acc.fold(outcomes);
            generations_run += 1;
            let frontier_now = frontier_indices(&acc);
            if frontier_now == prev_frontier {
                stable_generations += 1;
                if stable_generations >= CONVERGENCE_PATIENCE {
                    converged = true;
                    break;
                }
            } else {
                stable_generations = 0;
                prev_frontier = frontier_now;
            }
        }
        if converged {
            obs_core::count("search.converged");
        }

        SearchResults {
            pareto: acc.finish(),
            grid_points: grid,
            evaluations: evaluated.len(),
            generations_run,
            converged,
            exhaustive: false,
            warmup_discarded,
        }
    }

    /// Evaluates the batch of grid points `indices` through the
    /// grouped, cache-shared gated path: one memoised model per rebuild
    /// combination, stall pre-warmed at the fastest frame rate the
    /// constraints admit, then `eval` per point (a full-fidelity
    /// [`gated_point_eval`] or the warm-up's truncated gate). Returns
    /// outcomes in grid order.
    fn gated_batch<F, R, E>(
        &self,
        models: &ModelMemo<'_, F>,
        cache: &Arc<EstimateCache>,
        query: &ParetoQuery,
        indices: impl IntoIterator<Item = usize>,
        eval: E,
    ) -> Vec<PointOutcome<R>>
    where
        F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
        R: Send,
        E: Fn(&ValidatedModel, &DesignPoint) -> Result<R, PointError> + Sync,
    {
        let points: Vec<DesignPoint> = indices
            .into_iter()
            .map(|index| models.sweep.point_at(index))
            .collect();
        if points.is_empty() {
            return Vec::new();
        }
        self.run_groups(
            group_points(&models.keys, points),
            cache,
            |representative| models.model_for(representative),
            models.build,
            query.constraints(),
            |model, point| {
                let _span = obs_core::span("search.eval");
                eval(model, point)
            },
        )
        .into_outcomes()
    }
}

/// The models one search run has built, one per rebuild combination,
/// so a combination that recurs in later batches is built once per run
/// instead of once per batch.
///
/// Only a successful representative build is kept (as built: no cache
/// attached, nothing simulated), and every hit hands out a clone of it.
/// A clone shares the model's kernel plan but starts with empty
/// per-model simulation and stall memos, exactly like a fresh build, so
/// it consults the shared cache in the same places a rebuild would and
/// the cache counters are unchanged. A failed representative is not
/// kept: the next batch tries it again, and its points fall back to
/// per-point builds as before. Every point is estimated and measured
/// at its own frame rate, never the memoised model's, so one memo rule
/// serves every objective.
struct ModelMemo<'a, F> {
    sweep: &'a Sweep,
    keys: GridKeys,
    build: &'a F,
    models: Mutex<HashMap<usize, ValidatedModel>>,
}

impl<'a, F> ModelMemo<'a, F>
where
    F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
{
    /// An empty memo over `sweep`'s rebuild combinations.
    fn new(sweep: &'a Sweep, build: &'a F) -> Self {
        Self {
            sweep,
            keys: GridKeys::for_sweep(sweep),
            build,
            models: Mutex::default(),
        }
    }

    /// The model for the group `representative` heads: the memoised
    /// build of its rebuild combination, or a fresh one (memoised when
    /// it succeeds).
    fn model_for(&self, representative: &DesignPoint) -> Result<ValidatedModel, PointError> {
        let key = self.keys.rebuild_key(representative.index);
        let lock = || self.models.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(model) = lock().get(&key) {
            return Ok(model.clone());
        }
        let model = (self.build)(representative)?;
        // The simulation fingerprint is a pure function of the design:
        // resolve it once here so every clone carries it.
        let _ = model.sim_fingerprint();
        lock().insert(key, model.clone());
        Ok(model)
    }
}

/// One warm-up outcome: a survivor carrying its partial-energy rank
/// key, or a point the constraints already decided.
enum WarmupEval {
    Survivor { partial_pj: f64 },
    Decided(PointEval),
}

/// The current frontier as a grid-index set (sorted — the frontier is
/// kept sorted by index), for convergence comparison between folds.
fn frontier_indices(acc: &ParetoAccumulator) -> Vec<usize> {
    acc.front()
        .frontier()
        .iter()
        .map(|entry| entry.point.index)
        .collect()
}

/// The per-axis value indices of grid index `index` — the genome
/// adaptive search breeds on.
fn genome(sweep: &Sweep, index: usize) -> Vec<usize> {
    (0..sweep.axes().len())
        .map(|axis| sweep.digit(axis).of(index))
        .collect()
}

/// Samples up to `want` distinct grid indices not in `taken`, by
/// rejection with a deterministic wrap-around scan fallback (so the
/// sampler terminates even when nearly the whole grid is taken).
fn sample_distinct(
    rng: &mut StdRng,
    grid: usize,
    taken: &BTreeSet<usize>,
    want: usize,
) -> BTreeSet<usize> {
    let mut batch = BTreeSet::new();
    while batch.len() < want {
        match next_unseen(rng, grid, taken, &batch) {
            Some(index) => {
                batch.insert(index);
            }
            None => break,
        }
    }
    batch
}

/// One grid index outside `taken ∪ batch`: a few rejection draws, then
/// a deterministic wrap-around scan from a random start. `None` when
/// the grid is exhausted.
fn next_unseen(
    rng: &mut StdRng,
    grid: usize,
    taken: &BTreeSet<usize>,
    batch: &BTreeSet<usize>,
) -> Option<usize> {
    let fresh = |index: usize| !taken.contains(&index) && !batch.contains(&index);
    for _ in 0..MAX_CHILD_ATTEMPTS {
        let index = rng.random_range(0..grid);
        if fresh(index) {
            return Some(index);
        }
    }
    let start = rng.random_range(0..grid);
    (0..grid)
        .map(|offset| (start + offset) % grid)
        .find(|&index| fresh(index))
}

/// Breeds up to `want` distinct, not-yet-evaluated candidate indices
/// from `parents` (frontier genomes): per-axis crossover between two
/// uniformly drawn parents, then per-axis mutation (±1 neighbour step
/// or uniform redraw). Children colliding with evaluated points retry
/// a few times, then fall back to the deterministic unseen scan so a
/// shrinking unexplored region never stalls the loop.
fn breed(
    rng: &mut StdRng,
    sweep: &Sweep,
    parents: &[Vec<usize>],
    evaluated: &BTreeSet<usize>,
    want: usize,
) -> BTreeSet<usize> {
    let grid = sweep.len();
    let fresh = |index: usize, batch: &BTreeSet<usize>| {
        !evaluated.contains(&index) && !batch.contains(&index)
    };
    let mut batch = BTreeSet::new();
    while batch.len() < want {
        let mut bred = None;
        for _ in 0..MAX_CHILD_ATTEMPTS {
            let child = make_child(rng, sweep, parents);
            let index = sweep.grid_index(&child);
            if fresh(index, &batch) {
                bred = Some(index);
                break;
            }
        }
        match bred.or_else(|| next_unseen(rng, grid, evaluated, &batch)) {
            Some(index) => {
                batch.insert(index);
            }
            None => break,
        }
    }
    batch
}

/// One child genome: crossover of two uniformly drawn parents (or a
/// clone of the single parent, or a uniform random genome when the
/// frontier is empty), then per-axis mutation.
fn make_child(rng: &mut StdRng, sweep: &Sweep, parents: &[Vec<usize>]) -> Vec<usize> {
    let axes = sweep.axes();
    let mut child: Vec<usize> = match parents.len() {
        0 => axes
            .iter()
            .map(|axis| rng.random_range(0..axis.len()))
            .collect(),
        1 => parents[0].clone(),
        n => {
            let a = &parents[rng.random_range(0..n)];
            let b = &parents[rng.random_range(0..n)];
            (0..axes.len())
                .map(|slot| {
                    if rng.random_bool(0.5) {
                        a[slot]
                    } else {
                        b[slot]
                    }
                })
                .collect()
        }
    };
    for (slot, axis) in axes.iter().enumerate() {
        if axis.len() > 1 && rng.random_bool(MUTATION_RATE) {
            if rng.random_bool(0.5) {
                // Neighbour step: ±1 along the axis, clamped.
                child[slot] = if rng.random_bool(0.5) {
                    (child[slot] + 1).min(axis.len() - 1)
                } else {
                    child[slot].saturating_sub(1)
                };
            } else {
                child[slot] = rng.random_range(0..axis.len());
            }
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;

    fn sweep3() -> Sweep {
        Sweep::new()
            .bit_widths([4, 6, 8, 10])
            .fps_targets([15.0, 30.0, 60.0])
    }

    #[test]
    fn sampling_is_distinct_and_exhausts_the_grid() {
        let sweep = sweep3();
        let grid = sweep.len();
        let mut rng = StdRng::seed_from_u64(1);
        let taken = BTreeSet::new();
        let batch = sample_distinct(&mut rng, grid, &taken, grid + 10);
        // Asking for more than the grid holds returns exactly the grid.
        assert_eq!(batch.len(), grid);
        let mut rng = StdRng::seed_from_u64(2);
        let small = sample_distinct(&mut rng, grid, &taken, 5);
        assert_eq!(small.len(), 5);
    }

    #[test]
    fn breeding_never_returns_an_evaluated_point() {
        let sweep = sweep3();
        let mut evaluated: BTreeSet<usize> = (0..6).collect();
        let parents = vec![genome(&sweep, 0), genome(&sweep, 7)];
        let mut rng = StdRng::seed_from_u64(3);
        let batch = breed(&mut rng, &sweep, &parents, &evaluated, 4);
        assert_eq!(batch.len(), 4);
        for index in &batch {
            assert!(!evaluated.contains(index));
        }
        // Exhausting the rest of the grid terminates cleanly.
        evaluated.extend(0..sweep.len());
        let mut rng = StdRng::seed_from_u64(4);
        assert!(breed(&mut rng, &sweep, &parents, &evaluated, 4).is_empty());
    }

    #[test]
    fn spec_builders_validate() {
        let spec = SearchSpec::new()
            .population(8)
            .generations(5)
            .seed(42)
            .budget(100)
            .exhaustive_below(16);
        assert_eq!(spec.population, 8);
        assert_eq!(spec.generations, 5);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.budget, Some(100));
        assert_eq!(spec.exhaustive_below, 16);
    }

    #[test]
    #[should_panic(expected = "population must be at least 1")]
    fn zero_population_rejected() {
        let _ = SearchSpec::new().population(0);
    }

    #[test]
    #[should_panic(expected = "budget must be at least 1")]
    fn zero_budget_rejected() {
        let _ = SearchSpec::new().budget(0);
    }

    #[test]
    fn small_grids_take_the_exhaustive_path() {
        let sweep = Sweep::new().fps_targets([15.0, 30.0, 60.0]);
        let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
        let cache = EstimateCache::shared();
        let results =
            Explorer::serial().search(&sweep, &cache, &query, &SearchSpec::new(), |point| {
                camj_workloads::quickstart::model(point.fps("fps"))
                    .map(camj_core::energy::CamJ::into_validated)
                    .map_err(PointError::new)
            });
        assert!(results.exhaustive());
        assert_eq!(results.evaluations(), 3);
        assert_eq!(results.grid_points(), 3);
        // The exhaustive search IS the cartesian pareto result.
        let exact = Explorer::serial().pareto(&sweep, &EstimateCache::shared(), &query, |point| {
            camj_workloads::quickstart::model(point.fps("fps"))
                .map(camj_core::energy::CamJ::into_validated)
                .map_err(PointError::new)
        });
        assert_eq!(results.pareto().frontier(), exact.frontier());
    }

    #[test]
    fn empty_grid_yields_an_empty_result() {
        let sweep = Sweep::new();
        let query = ParetoQuery::new(vec![Objective::TotalEnergy]);
        let cache = EstimateCache::shared();
        let results =
            Explorer::serial().search(&sweep, &cache, &query, &SearchSpec::new(), |_point| {
                unreachable!("an empty grid evaluates nothing")
            });
        assert!(results.exhaustive());
        assert_eq!(results.evaluations(), 0);
        assert!(results.frontier().is_empty());
    }

    #[test]
    fn seeded_adaptive_runs_are_identical_serial_and_parallel() {
        // A grid just above the exhaustive threshold forces the
        // evolutionary path; serial and parallel runs with the same
        // seed must agree exactly.
        let sweep = Sweep::new()
            .bit_widths([4, 6, 8, 10])
            .fps_targets([10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
        let spec = SearchSpec::new()
            .population(4)
            .generations(3)
            .seed(11)
            .exhaustive_below(8);
        let build = |point: &DesignPoint| {
            camj_workloads::quickstart::model(point.fps("fps"))
                .map(camj_core::energy::CamJ::into_validated)
                .map_err(PointError::new)
        };
        let serial =
            Explorer::serial().search(&sweep, &EstimateCache::shared(), &query, &spec, build);
        let parallel =
            Explorer::parallel().search(&sweep, &EstimateCache::shared(), &query, &spec, build);
        assert_eq!(serial, parallel);
        assert!(!serial.exhaustive());
        assert!(serial.evaluations() <= sweep.len());
        assert!(serial.evaluations() > 0);
    }

    #[test]
    fn budget_caps_distinct_evaluations() {
        let sweep = Sweep::new()
            .bit_widths([4, 6, 8, 10])
            .fps_targets([10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
        let spec = SearchSpec::new()
            .population(4)
            .generations(10)
            .seed(0)
            .budget(10)
            .exhaustive_below(0);
        let results = Explorer::serial().search(
            &sweep,
            &EstimateCache::shared(),
            &query,
            &spec,
            |point: &DesignPoint| {
                camj_workloads::quickstart::model(point.fps("fps"))
                    .map(camj_core::energy::CamJ::into_validated)
                    .map_err(PointError::new)
            },
        );
        assert!(results.evaluations() <= 10, "{}", results.evaluations());
    }
}
