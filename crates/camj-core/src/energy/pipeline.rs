//! The staged estimation pipeline.
//!
//! [`CamJ::estimate`](super::CamJ::estimate) used to be one monolithic
//! pass. It is now five explicit, independently-invokable stages over a
//! [`ValidatedModel`]:
//!
//! ```text
//! validate ─→ route ─→ simulate ─→ estimate_delay ─→ energy
//! (new)       (new)    (cached)     (per FPS)         (kernels)
//! ```
//!
//! * **validate + route** run once, in [`ValidatedModel::new`]: the
//!   static checks (paper Sec. 3.2) and the physical routes are
//!   intrinsic to the design, not to the frame-rate target.
//! * **simulate** ([`ValidatedModel::simulate`]) runs the elastic
//!   cycle-level simulation that measures digital latency `T_D`. It is
//!   FPS-independent, so the result is memoised per model — and, when a
//!   cross-point [`EstimateCache`] is attached, shared across *models*
//!   keyed by [`ValidatedModel::sim_fingerprint`]: a hash of the
//!   dataflow topology only, independent of analog parameters and
//!   energy numbers, so sweeping bit widths or technology nodes pays
//!   for one simulation, not one per point.
//! * **estimate_delay** ([`ValidatedModel::estimate_delay`]) solves the
//!   frame budget `N_A·T_A + T_D = 1/FPS` (Sec. 4.1).
//! * **energy** books the three energy domains of Eq. 1 plus
//!   communication through the four energy kernels, one function per
//!   [`KernelKind`](super::KernelKind). Everything about them that no
//!   frame rate can change — access counts, simulated traffic, compute
//!   rows, hop lists, and a digest of each — is resolved once per model
//!   into a shared kernel plan (together with `N_A`, the stall-verdict
//!   key, and the noise chain); per point, each kernel is keyed by its
//!   plan digest plus its one per-point input and replayed from the
//!   shared cache on a hit.
//!
//! The FPS-dependent stages form one tail — delay solve, stall check,
//! the four kernels, report — written once and run by both entry
//! points: [`ValidatedModel::estimate_at_fps_gated`] consults a budget
//! gate between its steps, and [`ValidatedModel::estimate_at_fps`] runs
//! it under a gate that admits everything. Every report carries the
//! analytic noise budget at its delay split in
//! [`EstimateReport::noise`]. [`ValidatedModel::estimate`] is the
//! one-call flow at the model's own frame rate. The `camj-explore`
//! crate drives these entry points across design grids in parallel,
//! threading one shared cache through every point via
//! [`ValidatedModel::with_cache`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use camj_digital::functional::{BoxStencil, Resample, Shape};
use camj_digital::memory::MemoryStructure;
use camj_digital::quantize::Quantizer;
use camj_digital::sim::{NodeId, PipelineSimBuilder, SimError, SimReport, SourceMode};
use camj_tech::fingerprint::{Fingerprint, FpHasher};
use camj_tech::units::{Energy, Time};

use crate::check;
use crate::delay::DelayEstimate;
use crate::error::CamjError;
use crate::functional::{
    self, DagSim, DagStageSim, FrameSimReport, McDagSim, McDagStageSim, McFrameSimReport,
    McOutputStats, McTaskMetrics, NoiseReport, NoiseStage, OutputStats, SeedStat, StageMcSim,
    StageNoise, StageSim, Stimulus, TaskMetrics, DEFAULT_SIGNAL_FRACTION,
};
use crate::hw::{AnalogUnitDesc, DigitalUnitKind, HardwareDesc, UnitKind};
use crate::mapping::Mapping;
use crate::power_density::layer_powers;
use crate::route::{routes, Route};
use crate::sw::{AlgorithmGraph, Stage, StageKind};

use super::breakdown::EnergyBreakdown;
use super::cache::EstimateCache;
use super::kernel::{KernelKind, KernelPlan};
use super::model::EstimateReport;

/// Safety bound for the cycle-level simulation.
const MAX_SIM_CYCLES: u64 = 200_000_000;

/// Number of energy kernels the **energy** stage runs per estimate
/// (analog, digital compute, digital memory, interface — in that
/// order). Gated estimation reports progress against this total.
pub const ENERGY_KERNEL_COUNT: usize = 4;

/// The partial estimation state an energy gate inspects between
/// pipeline steps (see [`ValidatedModel::estimate_at_fps_gated`]).
///
/// Every component energy is non-negative, so any aggregate over
/// [`GateContext::partial`] — a total, a category split, a per-layer
/// power density — is a **lower bound** of the value the completed
/// breakdown would report. That makes "abort when a partial aggregate
/// already exceeds a budget" a sound pruning rule: it can only reject
/// points the finished estimate would also reject.
#[derive(Debug)]
pub struct GateContext<'a> {
    /// The solved frame-timing split for this point.
    pub delay: &'a DelayEstimate,
    /// Energy items booked so far (empty before the first kernel).
    pub partial: &'a EnergyBreakdown,
    /// Kernels that have already contributed to `partial`, in
    /// `0..=ENERGY_KERNEL_COUNT`. Zero means the gate runs right after
    /// the delay solve, before the stall check and every kernel.
    pub kernels_done: usize,
}

/// Outcome of [`ValidatedModel::estimate_at_fps_gated`].
#[derive(Debug, Clone, PartialEq)]
pub enum GatedEstimate {
    /// The gate admitted every step; the report is byte-identical to
    /// what [`ValidatedModel::estimate_at_fps`] returns for the same
    /// frame rate.
    Complete(Box<EstimateReport>),
    /// The gate stopped the pass. `kernels_done` counts the energy
    /// kernels that ran before the stop (the remaining
    /// `ENERGY_KERNEL_COUNT - kernels_done` were skipped entirely);
    /// `partial` retains their bookings for reporting.
    Pruned {
        /// The solved frame-timing split (always available: pruning
        /// happens after the delay solve).
        delay: DelayEstimate,
        /// The partial breakdown at the moment the gate said stop.
        partial: EnergyBreakdown,
        /// Number of energy kernels that ran (`0..=ENERGY_KERNEL_COUNT`).
        kernels_done: usize,
    },
}

impl GatedEstimate {
    /// Energy kernels that contributed to this outcome:
    /// [`ENERGY_KERNEL_COUNT`] when complete, the gate's stopping point
    /// when pruned.
    #[must_use]
    pub fn kernels_done(&self) -> usize {
        match self {
            GatedEstimate::Complete(_) => ENERGY_KERNEL_COUNT,
            GatedEstimate::Pruned { kernels_done, .. } => *kernels_done,
        }
    }

    /// The energy booked so far: the full per-frame total when
    /// complete, the partial aggregate when pruned. Because kernels
    /// only ever *add* energy, a pruned outcome's value is a sound
    /// lower bound on the point's true total — the property adaptive
    /// search's successive-halving warm-up ranks candidates by.
    #[must_use]
    pub fn partial_total(&self) -> Energy {
        match self {
            GatedEstimate::Complete(report) => report.total(),
            GatedEstimate::Pruned { partial, .. } => partial.total(),
        }
    }
}

/// A pass the gate stopped, as the FPS tail hands it back: the fields
/// of [`GatedEstimate::Pruned`]. The tail returns its report unboxed;
/// only the gated entry point boxes one.
#[derive(Debug)]
struct Pruned {
    delay: DelayEstimate,
    partial: EnergyBreakdown,
    kernels_done: usize,
}

/// Domain tag of the elastic-simulation fingerprint; bump when the
/// simulator's semantics change so stale cache keys cannot alias.
const SIM_FINGERPRINT_DOMAIN: &str = "camj.sim/v1";

/// Domain tag of the functional (task-metrics) fingerprint; bump when
/// the frame pipeline or DAG semantics change so stale cache keys
/// cannot alias.
const FUNCTIONAL_FINGERPRINT_DOMAIN: &str = "camj.functional/v1";

/// Domain tag of the frame-base fingerprint (the exposure-free half of
/// a frame plan); bump when the clean render or the DAG plan changes.
const FRAME_BASE_DOMAIN: &str = "camj.frame-base/v1";

/// The FPS-independent result of the **simulate** stage: the elastic
/// cycle-level simulation and the digital latency derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSim {
    /// Simulation statistics (`None` for all-analog designs, which have
    /// nothing to simulate), shared with every report estimated from
    /// this simulation.
    pub report: Option<Arc<SimReport>>,
    /// Digital latency `T_D` at the hardware's digital clock.
    pub digital_latency: Time,
}

/// Per-digital-stage simulation parameters.
pub(crate) struct StagePlan<'a> {
    pub(crate) stage: &'a Stage,
    pub(crate) firings: u64,
    pub(crate) out_rate: f64,
    pub(crate) pipeline_depth: u32,
    /// Physical buffer reads per fresh input pixel.
    pub(crate) reads_per_fresh: f64,
}

/// Memoised stall-check verdict, exploiting monotonicity in the
/// readout time: a pipeline that keeps pace with a readout of `T_A`
/// seconds per stage also keeps pace with any slower readout. Sweeping
/// the frame-rate axis therefore needs one stall simulation at its
/// fastest passing point instead of one per point. Only passes are
/// cached: failures re-simulate so each failing point reports a
/// diagnosis exact for its own readout.
///
/// This is the per-model L1; with an [`EstimateCache`] attached the
/// verdict is also shared cross-model, keyed by the simulation
/// fingerprint plus the analog stage count.
#[derive(Debug, Clone, Default)]
struct StallCache {
    /// Fastest (smallest) per-stage readout time known to pass.
    pass_min: Option<f64>,
}

/// The observability span name of one energy kernel; a static table so
/// recording never formats (see `obs_core`'s static-name rule).
fn kernel_span_name(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Analog => "kernel.analog",
        KernelKind::DigitalCompute => "kernel.digital_compute",
        KernelKind::DigitalMemory => "kernel.digital_memory",
        KernelKind::Interface => "kernel.interface",
    }
}

/// Locks the per-model stall cache, recovering from poisoning: the
/// guarded scalar is only ever overwritten whole, so the cache stays
/// consistent even if a panicking thread died while holding the lock
/// (per-point panics are caught by sweep drivers and must not corrupt
/// neighbouring evaluations).
fn lock_stall(stall: &Mutex<StallCache>) -> std::sync::MutexGuard<'_, StallCache> {
    stall
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A design that has passed the **validate** and **route** stages, with
/// the routes and (lazily) the elastic simulation and kernel plan
/// cached for reuse.
///
/// The caches are what make sweeps cheap: clones made through
/// [`ValidatedModel::with_fps`] share the already-resolved routes,
/// simulation, and kernel plan, [`ValidatedModel::estimate_at_fps`]
/// re-runs only the FPS-dependent stages, and a cross-point
/// [`EstimateCache`] attached via [`ValidatedModel::with_cache`] shares
/// simulations, stall verdicts, and energy-kernel outputs *between*
/// models whose fingerprinted inputs coincide.
#[derive(Debug)]
pub struct ValidatedModel {
    // The validated design is immutable once built: every clone shares
    // one copy, so a clone costs reference counts, not a deep copy.
    algo: Arc<AlgorithmGraph>,
    hw: Arc<HardwareDesc>,
    mapping: Arc<Mapping>,
    fps: f64,
    stimulus: Arc<Stimulus>,
    routes: Arc<Vec<Route>>,
    elastic: OnceLock<Arc<Result<ElasticSim, CamjError>>>,
    sim_fp: OnceLock<Fingerprint>,
    /// The FPS-invariant energy-stage state, resolved once the elastic
    /// simulation has succeeded. Behind an `Arc` so every clone — a
    /// [`Self::with_fps`] copy included — shares one plan, whichever
    /// of them resolves it first.
    plan: Arc<OnceLock<KernelPlan>>,
    stall: Mutex<StallCache>,
    cache: Option<Arc<EstimateCache>>,
}

impl Clone for ValidatedModel {
    fn clone(&self) -> Self {
        Self {
            algo: Arc::clone(&self.algo),
            hw: Arc::clone(&self.hw),
            mapping: Arc::clone(&self.mapping),
            fps: self.fps,
            stimulus: Arc::clone(&self.stimulus),
            routes: Arc::clone(&self.routes),
            elastic: self.elastic.clone(),
            sim_fp: self.sim_fp.clone(),
            plan: Arc::clone(&self.plan),
            stall: Mutex::new(lock_stall(&self.stall).clone()),
            cache: self.cache.clone(),
        }
    }
}

impl ValidatedModel {
    /// The **validate** and **route** stages: runs all static checks
    /// (paper Sec. 3.2) and resolves every physical route.
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`CamjError`].
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    pub fn new(
        algo: AlgorithmGraph,
        hw: HardwareDesc,
        mapping: Mapping,
        fps: f64,
    ) -> Result<Self, CamjError> {
        assert!(
            fps.is_finite() && fps > 0.0,
            "FPS must be positive, got {fps}"
        );
        {
            let _span = obs_core::span("pipeline.validate");
            check::validate(&algo, &hw, &mapping)?;
        }
        let routes = {
            let _span = obs_core::span("pipeline.route");
            routes(&algo, &hw, &mapping)?
        };
        Ok(Self {
            algo: Arc::new(algo),
            hw: Arc::new(hw),
            mapping: Arc::new(mapping),
            fps,
            stimulus: Arc::default(),
            routes: Arc::new(routes),
            elastic: OnceLock::new(),
            sim_fp: OnceLock::new(),
            plan: Arc::default(),
            stall: Mutex::new(StallCache::default()),
            cache: None,
        })
    }

    /// The algorithm description.
    #[must_use]
    pub fn algorithm(&self) -> &AlgorithmGraph {
        &self.algo
    }

    /// The hardware description.
    #[must_use]
    pub fn hardware(&self) -> &HardwareDesc {
        &self.hw
    }

    /// The stage-to-unit mapping.
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The target frame rate.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The resolved physical routes (the **route** stage's artifact).
    #[must_use]
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Attaches a cross-point estimate cache (builder-style). All
    /// models of one sweep should share one cache: simulations, stall
    /// verdicts, and energy-kernel outputs are then computed once per
    /// distinct fingerprint instead of once per model.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// A copy of this model targeting a different frame rate, sharing
    /// the cached routes, elastic simulation, and kernel plan. Checks
    /// do not re-run: FPS feasibility is established by the delay/stall
    /// stages, not by the static checks.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    #[must_use]
    pub fn with_fps(&self, fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps > 0.0,
            "FPS must be positive, got {fps}"
        );
        let mut clone = self.clone();
        clone.fps = fps;
        clone
    }

    /// Attaches the scene the functional pipeline simulates
    /// (builder-style). This is the stimulus `accuracy:<metric>`
    /// objectives and [`Self::task_metrics`] evaluate under; explicit
    /// `stimulus` arguments to [`Self::simulate_frame`] /
    /// [`Self::simulate_frames`] are unaffected.
    #[must_use]
    pub fn with_stimulus(mut self, stimulus: Stimulus) -> Self {
        self.stimulus = Arc::new(stimulus);
        self
    }

    /// The attached scene (defaults to [`Stimulus::default`]).
    #[must_use]
    pub fn stimulus(&self) -> &Stimulus {
        &self.stimulus
    }

    /// The content address of this model's elastic simulation: a hash
    /// of the dataflow topology the cycle-level simulator reads —
    /// stage firing plans, producer/consumer edges, buffer geometry,
    /// and the digital clock. Deliberately independent of analog
    /// parameters and of every energy number, so designs differing
    /// only along those axes share one cached simulation.
    #[must_use]
    pub fn sim_fingerprint(&self) -> Fingerprint {
        *self
            .sim_fp
            .get_or_init(|| self.compute_sim_fingerprint(&self.stage_plans()))
    }

    fn compute_sim_fingerprint(&self, plans: &[StagePlan<'_>]) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_str(SIM_FINGERPRINT_DOMAIN);
        h.write_f64(self.hw.digital_clock_hz());
        h.write_usize(plans.len());
        for plan in plans {
            h.write_str(plan.stage.name());
            h.write_u64(plan.firings);
            h.write_f64(plan.out_rate);
            h.write_u32(plan.pipeline_depth);
            h.write_f64(plan.reads_per_fresh);
            let producers = self.algo.producers_of(plan.stage.name());
            h.write_usize(producers.len());
            for producer_name in producers {
                h.write_str(producer_name);
                let producer_stage = self.algo.stage(producer_name).expect("producer exists");
                h.write_u64(producer_stage.output_size().count());
                // Digital producers connect stage-to-stage; analog
                // producers become readout sources.
                let is_digital = plans.iter().any(|p| p.stage.name() == producer_name);
                h.write_bool(is_digital);
                self.buffer_between(producer_name, plan.stage.name())
                    .feed_sim_view(&mut h);
            }
        }
        h.finish()
    }

    /// The cross-model stall-verdict key: the simulation topology plus
    /// the analog stage count (which converts a readout time into the
    /// frame budget the stall simulation runs under).
    pub(crate) fn stall_fingerprint(&self, analog_stage_count: usize) -> Fingerprint {
        let (hi, lo) = self.sim_fingerprint().parts();
        let mut h = FpHasher::new();
        h.write_u64(hi);
        h.write_u64(lo);
        h.write_str("stall");
        h.write_usize(analog_stage_count);
        h.finish()
    }

    /// The **simulate** stage: the elastic cycle-level simulation
    /// measuring digital latency `T_D` (Sec. 4.1). FPS-independent and
    /// memoised — repeated calls (and calls on [`Self::with_fps`]
    /// clones made *after* the first call) return the cached artifact.
    /// With an attached [`EstimateCache`], the artifact is shared
    /// across every model whose [`Self::sim_fingerprint`] matches.
    ///
    /// # Errors
    ///
    /// Returns [`CamjError::Sim`] when the simulation fails.
    pub fn simulate(&self) -> Result<&ElasticSim, CamjError> {
        self.elastic
            .get_or_init(|| match &self.cache {
                Some(cache) => cache.elastic_or(self.sim_fingerprint(), || self.run_elastic()),
                None => Arc::new(self.run_elastic()),
            })
            .as_ref()
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The elastic simulation and the kernel plan resolved from it —
    /// the plan on first call, shared by every clone afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CamjError::Sim`] when the simulation fails.
    pub(crate) fn kernel_plan(&self) -> Result<(&ElasticSim, &KernelPlan), CamjError> {
        let elastic = self.simulate()?;
        let plan = self
            .plan
            .get_or_init(|| KernelPlan::new(self, elastic.report.as_deref()));
        Ok((elastic, plan))
    }

    fn run_elastic(&self) -> Result<ElasticSim, CamjError> {
        // Inside the cache's compute closure, so the span count is one
        // per *unique* topology — deterministic across thread counts.
        let _span = obs_core::span("pipeline.simulate");
        let plans = self.stage_plans();
        if plans.is_empty() {
            return Ok(ElasticSim {
                report: None,
                digital_latency: Time::ZERO,
            });
        }
        let sim = self.build_sim(&plans, None)?;
        let report = sim.run(MAX_SIM_CYCLES)?;
        let digital_latency = report.digital_latency(self.hw.digital_clock_hz());
        Ok(ElasticSim {
            report: Some(Arc::new(report)),
            digital_latency,
        })
    }

    /// The **estimate_delay** stage at this model's frame rate.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; returns
    /// [`CamjError::FrameRateInfeasible`] when `T_D` exceeds the frame
    /// budget.
    pub fn estimate_delay(&self) -> Result<DelayEstimate, CamjError> {
        self.estimate_delay_at(self.fps)
    }

    /// The **estimate_delay** stage at an explicit frame rate.
    ///
    /// # Errors
    ///
    /// See [`Self::estimate_delay`].
    pub fn estimate_delay_at(&self, fps: f64) -> Result<DelayEstimate, CamjError> {
        let (elastic, plan) = self.kernel_plan()?;
        DelayEstimate::solve(fps, elastic.digital_latency, plan.analog_stage_count)
    }

    /// Whether the stall check for readout `t_a` is already answered by
    /// a cached pass — the per-model L1 first, then the cross-model
    /// cache under the plan's stall key.
    fn stall_settled(&self, plan: &KernelPlan, t_a: f64) -> bool {
        if lock_stall(&self.stall)
            .pass_min
            .is_some_and(|pass| t_a >= pass)
        {
            return true;
        }
        match &self.cache {
            Some(cache) => cache.stall_settled(plan.stall_fp, t_a),
            None => false,
        }
    }

    /// Records a stall pass in the per-model L1 and the cross-model
    /// cache.
    fn record_stall_pass(&self, plan: &KernelPlan, t_a: f64) {
        let mut local = lock_stall(&self.stall);
        local.pass_min = Some(local.pass_min.map_or(t_a, |p| p.min(t_a)));
        drop(local);
        if let Some(cache) = &self.cache {
            cache.record_stall_pass(plan.stall_fp, t_a);
        }
    }

    /// The stall check (Sec. 4.1): re-simulates with the source pinned
    /// to the constant readout rate the delay estimate implies.
    ///
    /// Passing verdicts are memoised by readout time (stall freedom is
    /// monotone in it: a slower readout only relaxes the source rate),
    /// so a frame-rate sweep pays for one stall simulation at its
    /// fastest passing point plus one per failing point. Failures are
    /// never answered from cache — each re-simulates so the overflow
    /// diagnosis is exact for that readout and results stay identical
    /// across serial and parallel sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`CamjError::StallDetected`] when the digital pipeline
    /// cannot keep pace with the pixel readout, and propagates
    /// simulation failures of [`Self::simulate`].
    pub fn check_stall(&self, delay: &DelayEstimate) -> Result<(), CamjError> {
        let (_, plan) = self.kernel_plan()?;
        self.check_stall_in(plan, delay)
    }

    /// The stall check against an already-resolved plan: settled from
    /// the caches when possible, simulated otherwise.
    fn check_stall_in(&self, plan: &KernelPlan, delay: &DelayEstimate) -> Result<(), CamjError> {
        if self.stall_settled(plan, delay.analog_unit_time.secs()) {
            return Ok(());
        }
        let plans = self.stage_plans();
        if plans.is_empty() {
            return Ok(());
        }
        // How many checks reach this point depends on which sibling
        // settled the monotone stall verdict first — the span count is
        // inherently racy across thread counts (see `camj-obs`).
        let _span = obs_core::span("pipeline.stall_check");
        let t_a = delay.analog_unit_time.secs();
        let readout = delay.analog_unit_time;
        let sim = self.build_sim(&plans, Some(readout))?;
        let budget =
            (delay.frame_time.secs() * self.hw.digital_clock_hz() * 2.0) as u64 + 1_000_000;
        // Verdict-only: a passing stall check discards the report, so
        // the simulator may stop once the readout periods provably
        // recur; a failing one stops on the cycle a full run does, so
        // the diagnosis below matches it byte for byte.
        match sim.run_check(budget.min(MAX_SIM_CYCLES)) {
            Ok(()) => {
                self.record_stall_pass(plan, t_a);
                Ok(())
            }
            Err(e @ SimError::SourceOverflow { .. }) => Err(CamjError::StallDetected { cause: e }),
            Err(e) => Err(e.into()),
        }
    }

    /// Runs the full staged flow at this model's frame rate.
    ///
    /// # Errors
    ///
    /// See [`super::CamJ::estimate`].
    pub fn estimate(&self) -> Result<EstimateReport, CamjError> {
        self.estimate_at_fps(self.fps)
    }

    /// Runs the FPS-dependent stages (delay → stall check → energy) at
    /// an explicit frame rate, reusing the cached routes and elastic
    /// simulation. This is the sweep fast path: across N frame-rate
    /// targets the checks, routing, and latency simulation run once
    /// instead of N times.
    ///
    /// # Errors
    ///
    /// See [`super::CamJ::estimate`].
    pub fn estimate_at_fps(&self, fps: f64) -> Result<EstimateReport, CamjError> {
        self.fps_tail(fps, |_| true)?
            .map_err(|_| unreachable!("an admit-all gate never prunes"))
    }

    /// The budget-gated variant of [`Self::estimate_at_fps`]: runs the
    /// same FPS-dependent stages, but consults `gate` right after the
    /// delay solve (with `kernels_done == 0`, before the stall check)
    /// and again after each energy kernel. The first `false` stops the
    /// pass and returns [`GatedEstimate::Pruned`], skipping every
    /// remaining kernel.
    ///
    /// This is the engine behind constraint-based sweep pruning
    /// (`camj-explore`'s Pareto path): a point whose partial energy
    /// already blows a power-density or total-energy budget — or whose
    /// digital latency blows a delay budget — never pays for the
    /// kernels it no longer needs. Both entry points run one tail (the
    /// ungated one under an admit-all gate), so admitted passes stay
    /// cache-compatible and byte-identical to the ungated path: kernels
    /// run in the same order with the same fingerprints, and surviving
    /// points replay and populate a shared [`EstimateCache`] exactly as
    /// a plain sweep would.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Self::estimate_at_fps`]; a gate stop is
    /// not an error but a [`GatedEstimate::Pruned`] outcome. Note that
    /// a point pruned at `kernels_done == 0` skips the stall check, so
    /// a design that would *also* stall reports as pruned, not stalled.
    pub fn estimate_at_fps_gated<G>(&self, fps: f64, gate: G) -> Result<GatedEstimate, CamjError>
    where
        G: FnMut(&GateContext<'_>) -> bool,
    {
        Ok(match self.fps_tail(fps, gate)? {
            Ok(report) => GatedEstimate::Complete(Box::new(report)),
            Err(Pruned {
                delay,
                partial,
                kernels_done,
            }) => GatedEstimate::Pruned {
                delay,
                partial,
                kernels_done,
            },
        })
    }

    /// The FPS tail both estimate entry points run: delay solve →
    /// `gate` at `kernels_done == 0` → stall check → the four energy
    /// kernels in order, `gate` after each → report. A kernel is keyed
    /// from the plan and only runs when it has to: on a cache miss, or
    /// without a cache. Returns the report, or the state at the first
    /// `false` of `gate`.
    fn fps_tail(
        &self,
        fps: f64,
        mut gate: impl FnMut(&GateContext<'_>) -> bool,
    ) -> Result<Result<EstimateReport, Pruned>, CamjError> {
        let (elastic, plan) = self.kernel_plan()?;
        let delay = {
            let _span = obs_core::span("pipeline.delay");
            DelayEstimate::solve(fps, elastic.digital_latency, plan.analog_stage_count)?
        };
        let mut breakdown = EnergyBreakdown::new();
        let mut stops = |partial: &EnergyBreakdown, kernels_done| {
            !gate(&GateContext {
                delay: &delay,
                partial,
                kernels_done,
            })
        };
        if stops(&breakdown, 0) {
            return Ok(Err(Pruned {
                delay,
                partial: breakdown,
                kernels_done: 0,
            }));
        }
        self.check_stall_in(plan, &delay)?;
        for (ran, kind) in KernelKind::ALL.into_iter().enumerate() {
            // The span/invocation counter sits inside the compute path,
            // so cached replays cost nothing and the invocation count
            // is one per unique kernel key.
            let instrumented = || {
                let _span = obs_core::span(kernel_span_name(kind));
                obs_core::counter("kernel.invocations", ran as u64, 1);
                plan.compute(kind, self, &delay)
            };
            match &self.cache {
                Some(cache) => {
                    breakdown.push_shared(cache.energy_or(plan.key(kind, &delay), instrumented));
                }
                None => {
                    for item in instrumented() {
                        breakdown.push(item);
                    }
                }
            }
            if stops(&breakdown, ran + 1) {
                return Ok(Err(Pruned {
                    delay,
                    partial: breakdown,
                    kernels_done: ran + 1,
                }));
            }
        }
        Ok(Ok(self.assemble_report(plan, breakdown, delay, elastic)))
    }

    /// Bundles a completed breakdown into the full [`EstimateReport`]
    /// (per-layer power densities, input pixel count, simulation
    /// statistics). Shared by the gated and ungated estimate paths.
    fn assemble_report(
        &self,
        plan: &KernelPlan,
        breakdown: EnergyBreakdown,
        delay: DelayEstimate,
        elastic: &ElasticSim,
    ) -> EstimateReport {
        let layers = layer_powers(&breakdown, &self.hw, delay.frame_time);
        let input_pixels = self
            .algo
            .stages()
            .iter()
            .filter(|s| matches!(s.kind(), StageKind::Input))
            .map(|s| s.output_size().count())
            .sum();
        let noise = noise_report(&plan.noise_chain, &delay, DEFAULT_SIGNAL_FRACTION);
        EstimateReport {
            breakdown,
            delay,
            sim: elastic.report.clone(),
            layers,
            input_pixels,
            noise,
        }
    }

    /// Builds per-digital-stage simulation parameters.
    pub(crate) fn stage_plans(&self) -> Vec<StagePlan<'_>> {
        let mut plans = Vec::new();
        for stage in self.algo.stages() {
            let Some(unit_name) = self.mapping.unit_for(stage.name()) else {
                continue;
            };
            let Some(unit) = self.hw.digital(unit_name) else {
                continue;
            };
            let outputs = stage.output_size().count();
            let fresh_total: f64 = self
                .algo
                .producers_of(stage.name())
                .iter()
                .map(|p| {
                    self.algo
                        .stage(p)
                        .expect("producer exists")
                        .output_size()
                        .count() as f64
                })
                .sum();
            let (firings, out_rate, depth, reads_total) = match unit.kind() {
                DigitalUnitKind::Pipelined(cu) => {
                    // The unit fires until BOTH its output quota and its
                    // input stream are through — a reducing stage (many
                    // inputs per output) is input-throughput-limited.
                    let out_limited = outputs.div_ceil(cu.output_pixels_per_cycle());
                    let in_limited =
                        (fresh_total / cu.input_pixels_per_cycle() as f64).ceil() as u64;
                    let firings = out_limited.max(in_limited).max(1);
                    let reads = stage.reads_per_output() * outputs as f64;
                    (
                        firings,
                        outputs as f64 / firings as f64,
                        cu.num_stages(),
                        reads,
                    )
                }
                DigitalUnitKind::Systolic(sa) => {
                    let (macs, weights) = match stage.kind() {
                        StageKind::Dnn { macs, weights } => (macs, weights),
                        _ => (stage.ops_per_frame(), 0),
                    };
                    let firings = sa.cycles_for_macs(macs).max(1);
                    // Tiled weight-stationary dataflow with on-array
                    // register reuse: each activation and each weight is
                    // fetched from SRAM a small constant number of times
                    // across tiles (2 on average), not once per MAC.
                    const SRAM_FETCH_PASSES: f64 = 2.0;
                    let reads = SRAM_FETCH_PASSES * (fresh_total + weights as f64);
                    (firings, outputs as f64 / firings as f64, sa.rows(), reads)
                }
            };
            let reads_per_fresh = if fresh_total > 0.0 {
                reads_total / fresh_total
            } else {
                0.0
            };
            plans.push(StagePlan {
                stage,
                firings,
                out_rate,
                pipeline_depth: depth,
                reads_per_fresh,
            });
        }
        plans
    }

    /// Builds the pipeline simulation. `readout_time` selects the source
    /// mode: `None` ⇒ elastic (latency measurement), `Some(T_A)` ⇒
    /// continuous at the physical readout rate (stall check).
    fn build_sim(
        &self,
        plans: &[StagePlan<'_>],
        readout_time: Option<Time>,
    ) -> Result<camj_digital::sim::PipelineSim, CamjError> {
        let mut b = PipelineSimBuilder::new();
        let mut nodes: BTreeMap<&str, NodeId> = BTreeMap::new();
        for plan in plans {
            let id = b.add_stage(plan.stage.name(), plan.pipeline_depth);
            nodes.insert(plan.stage.name(), id);
        }
        for plan in plans {
            let consumer = nodes[plan.stage.name()];
            for producer_name in self.algo.producers_of(plan.stage.name()) {
                let producer_stage = self.algo.stage(producer_name).expect("producer exists");
                let edge_pixels = producer_stage.output_size().count() as f64;
                let fresh_rate = (edge_pixels / plan.firings as f64).max(f64::MIN_POSITIVE);
                let buffer = self.buffer_between(producer_name, plan.stage.name());
                let (from, producer_rate) = match nodes.get(producer_name) {
                    Some(&id) => {
                        let producer_plan = plans
                            .iter()
                            .find(|p| p.stage.name() == producer_name)
                            .expect("digital producer has a plan");
                        (id, producer_plan.out_rate)
                    }
                    None => {
                        // Analog producer: a readout source.
                        let (mode, rate) = match readout_time {
                            None => (SourceMode::Elastic, fresh_rate),
                            Some(t_a) => {
                                let cycles = t_a.secs() * self.hw.digital_clock_hz();
                                (SourceMode::Continuous, edge_pixels / cycles.max(1.0))
                            }
                        };
                        let id = b.add_source(format!("src:{producer_name}"), mode);
                        (id, rate)
                    }
                };
                b.connect_with_reuse(
                    from,
                    consumer,
                    &buffer,
                    producer_rate,
                    fresh_rate,
                    edge_pixels,
                    plan.reads_per_fresh,
                );
            }
        }
        b.build().map_err(CamjError::from)
    }

    /// The physical buffer a consumer reads its input from: the last
    /// memory on the route, or a synthetic free wire when the units are
    /// directly connected (or fused on one unit).
    pub(crate) fn buffer_between(&self, producer: &str, consumer: &str) -> MemoryStructure {
        let route = self
            .routes
            .iter()
            .find(|r| r.from_stage == producer && r.to_stage.as_deref() == Some(consumer));
        if let Some(route) = route {
            let mem = route
                .intermediates()
                .iter()
                .rev()
                .find(|hop| self.hw.kind_of(hop) == Some(UnitKind::Memory));
            if let Some(name) = mem {
                return self
                    .hw
                    .memory(name)
                    .expect("kind said memory")
                    .structure()
                    .clone();
            }
        }
        // Fused or directly-wired: a generous free conduit.
        MemoryStructure::fifo(format!("wire:{producer}->{consumer}"), 1 << 20)
            .with_pixels_per_word(64)
            .with_ports(64, 64)
    }

    /// Analog pipeline stage count `N_A`, including exposure.
    pub(crate) fn analog_stage_count(&self) -> usize {
        let mut units: Vec<String> = Vec::new();
        let mapped = self
            .mapping
            .iter()
            .filter(|(stage, _)| self.algo.stage(stage).is_some())
            .map(|(_, unit)| unit);
        let routed = self
            .routes
            .iter()
            .flat_map(|r| r.path.iter().map(String::as_str));
        for name in mapped.chain(routed) {
            if self.hw.analog(name).is_some() && !units.iter().any(|u| u == name) {
                units.push(name.to_owned());
            }
        }
        units.len() + 1 // + exposure
    }

    // -----------------------------------------------------------------
    // Noise-aware functional simulation
    // -----------------------------------------------------------------

    /// The analog units of the signal chain in signal-flow order:
    /// the units Input stages map onto first (the pixel array leads),
    /// then every analog unit the routes traverse in route order, then
    /// any remaining mapped analog unit.
    fn analog_signal_chain(&self) -> Vec<&AnalogUnitDesc> {
        fn push<'a>(hw: &'a HardwareDesc, name: &str, units: &mut Vec<&'a AnalogUnitDesc>) {
            if let Some(unit) = hw.analog(name) {
                if !units.iter().any(|u| u.name() == name) {
                    units.push(unit);
                }
            }
        }
        let mut units: Vec<&AnalogUnitDesc> = Vec::new();
        for stage in self.algo.stages() {
            if matches!(stage.kind(), StageKind::Input) {
                if let Some(unit) = self.mapping.unit_for(stage.name()) {
                    push(&self.hw, unit, &mut units);
                }
            }
        }
        for route in self.routes.iter() {
            for hop in &route.path {
                push(&self.hw, hop, &mut units);
            }
        }
        for (stage, unit) in self.mapping.iter() {
            if self.algo.stage(stage).is_some() {
                push(&self.hw, unit, &mut units);
            }
        }
        units
    }

    /// Resolves the noise chain: one [`NoiseStage`] per analog unit,
    /// carrying the component's declared [`NoiseSource`]s and the
    /// implicit quantization of a digitising back end.
    ///
    /// [`NoiseSource`]: camj_analog::noise::NoiseSource
    pub(crate) fn noise_chain(&self) -> Vec<NoiseStage> {
        self.analog_signal_chain()
            .into_iter()
            .map(|unit| {
                let component = unit.array().component();
                NoiseStage {
                    unit: unit.name().to_owned(),
                    sources: component.noise_sources().to_vec(),
                    quant_bits: component.conversion_bits(),
                }
            })
            .collect()
    }

    /// Simulates one frame functionally: renders `stimulus` at the
    /// input stage's resolution, pushes it through the analog signal
    /// chain injecting each stage's noise with a seeded ziggurat
    /// sampler (and applying real mid-tread quantization at digitising
    /// stages), measures per-stage SNR against the clean frame, then
    /// runs the mapped digital DAG on the result.
    ///
    /// This is the one-seed case of [`Self::simulate_frames`]: both
    /// run the same per-seed routine, so `simulate_frame(s, …)` is
    /// bit-for-bit member `s` of any Monte-Carlo batch that contains
    /// it (frame digest, DAG digest, and every stage statistic). Both
    /// share the exposure-free half of the plan through the attached
    /// [`EstimateCache`], as [`Self::simulate_frames`] describes.
    ///
    /// Determinism contract: the result is a pure function of
    /// `(model, seed, stimulus)` — per-stage RNG streams are derived
    /// by fingerprint-mixing, never shared, so repeated runs and any
    /// `RAYON_NUM_THREADS` setting produce byte-identical reports
    /// (pinned by [`FrameSimReport::digest`]).
    ///
    /// # Errors
    ///
    /// * [`CamjError::CheckDag`] when the algorithm has no input stage
    ///   to render the stimulus at,
    /// * the delay-solve errors of [`Self::estimate_delay`] (exposure
    ///   time comes from the frame budget).
    pub fn simulate_frame(
        &self,
        seed: u64,
        stimulus: &Stimulus,
    ) -> Result<FrameSimReport, CamjError> {
        let mut reports = self.frame_plan(stimulus)?.simulate_seeds(&[seed]);
        Ok(reports.pop().expect("one seed, one report"))
    }

    /// Simulates the same stimulus under several independent seeds and
    /// aggregates the per-stage noise statistics — the Monte-Carlo SNR
    /// estimate behind the explorer's `mc_snr:<samples>` objective and
    /// `camj simulate --samples N`.
    ///
    /// The frame plan is resolved once and shared: its exposure-free
    /// base (clean frame, signal level, DAG reference pass) comes from
    /// the attached [`EstimateCache`] when the same DAG and stimulus
    /// content was simulated before — by any seed, frame rate, or noise
    /// chain — and only the per-pixel noise std lanes are rendered at
    /// this model's exposure. Every seed then runs exactly what
    /// [`Self::simulate_frame`] runs, in parallel when more than one
    /// worker is available, and the per-seed reports reduce to means
    /// and sample standard deviations. Because every seed's RNG
    /// streams are derived by fingerprint-mixing (never shared), each
    /// per-seed frame — and therefore the whole report — is
    /// byte-identical whatever `RAYON_NUM_THREADS` says.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::simulate_frame`].
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty (there is nothing to aggregate).
    pub fn simulate_frames(
        &self,
        seeds: &[u64],
        stimulus: &Stimulus,
    ) -> Result<McFrameSimReport, CamjError> {
        assert!(!seeds.is_empty(), "simulate_frames needs at least one seed");
        let _span = obs_core::span("frame.simulate_mc");
        obs_core::counter("frame.seeds", 0, seeds.len() as u64);
        let reports = self.frame_plan(stimulus)?.simulate_seeds(seeds);
        let stages = reports[0]
            .stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                let (noise_rms_mean, noise_rms_std) = across(&reports, |r| r.stages[i].noise_rms);
                let (snr_db_mean, snr_db_std) = across(&reports, |r| r.stages[i].snr_db);
                StageMcSim {
                    unit: stage.unit.clone(),
                    noise_rms_mean,
                    noise_rms_std,
                    snr_db_mean,
                    snr_db_std,
                }
            })
            .collect();
        let (noise_rms_mean, noise_rms_std) = across(&reports, |r| r.output.noise_rms);
        let (snr_db_mean, snr_db_std) = across(&reports, |r| r.output.snr_db);
        let dag = reports[0].dag.as_ref().map(|first| {
            // Every report shares the plan, so dag presence and stage
            // lists agree across seeds.
            let per_seed: Vec<&DagSim> = reports
                .iter()
                .map(|r| r.dag.as_ref().expect("shared plan"))
                .collect();
            let stages = first
                .stages
                .iter()
                .enumerate()
                .map(|(i, stage)| {
                    let (error_rms_mean, error_rms_std) =
                        across(&per_seed, |d| d.stages[i].error_rms);
                    let (snr_db_mean, snr_db_std) = across(&per_seed, |d| d.stages[i].snr_db);
                    McDagStageSim {
                        stage: stage.stage.clone(),
                        error_rms_mean,
                        error_rms_std,
                        snr_db_mean,
                        snr_db_std,
                    }
                })
                .collect();
            let (mse_mean, mse_std) = across(&per_seed, |d| d.metrics.mse);
            let (rmse_mean, rmse_std) = across(&per_seed, |d| d.metrics.rmse);
            let (psnr_db_mean, psnr_db_std) = across(&per_seed, |d| d.metrics.psnr_db);
            let (centroid_err_mean, centroid_err_std) =
                across(&per_seed, |d| d.metrics.centroid_err);
            McDagSim {
                stages,
                sink: first.sink.clone(),
                metrics: McTaskMetrics {
                    mse_mean,
                    mse_std,
                    rmse_mean,
                    rmse_std,
                    psnr_db_mean,
                    psnr_db_std,
                    centroid_err_mean,
                    centroid_err_std,
                },
                digests: per_seed.iter().map(|d| d.digest.clone()).collect(),
            }
        });
        Ok(McFrameSimReport {
            stimulus: stimulus.to_string(),
            seeds: seeds.to_vec(),
            width: reports[0].width,
            height: reports[0].height,
            channels: reports[0].channels,
            stages,
            output: McOutputStats {
                mean: across(&reports, |r| r.output.mean).0,
                noise_rms_mean,
                noise_rms_std,
                snr_db_mean,
                snr_db_std,
            },
            digests: reports.into_iter().map(|r| r.digest).collect(),
            dag,
        })
    }

    /// Task-level accuracy of the **attached** stimulus
    /// ([`Self::with_stimulus`]) pushed through the full functional
    /// pipeline — analog chain, ADC quantization, then the mapped
    /// digital DAG — averaged over `seeds` Monte-Carlo noise
    /// realisations. This is the quantity `accuracy:<metric>`
    /// objectives minimise.
    ///
    /// With an [`EstimateCache`] attached, the result is shared across
    /// models keyed by [`Self::functional_fingerprint`], the same
    /// machinery the energy kernels use: repeated evaluations of a
    /// point (or of fingerprint-identical points) replay instead of
    /// re-simulating.
    ///
    /// # Errors
    ///
    /// * [`CamjError::CheckDag`] when the algorithm has no non-input
    ///   stage (there is no task output to judge),
    /// * the conditions of [`Self::simulate_frames`].
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn task_metrics(&self, seeds: &[u64]) -> Result<TaskMetrics, CamjError> {
        assert!(!seeds.is_empty(), "task_metrics needs at least one seed");
        let compute = || -> Result<TaskMetrics, CamjError> {
            let report = self.simulate_frames(seeds, &self.stimulus)?;
            match report.dag {
                Some(dag) => Ok(TaskMetrics {
                    mse: dag.metrics.mse_mean,
                    rmse: dag.metrics.rmse_mean,
                    psnr_db: dag.metrics.psnr_db_mean,
                    centroid_err: dag.metrics.centroid_err_mean,
                }),
                None => Err(CamjError::CheckDag {
                    reason: "accuracy metrics need at least one non-input algorithm stage to judge"
                        .to_owned(),
                }),
            }
        };
        match &self.cache {
            Some(cache) => {
                let fp = self.functional_fingerprint(seeds)?;
                cache.functional_or(fp, compute).as_ref().clone()
            }
            None => compute(),
        }
    }

    /// The content address of one functional (task-metrics) evaluation:
    /// everything [`Self::task_metrics`] reads — the exposure time from
    /// the delay solve, the resolved noise chain, the stimulus content
    /// (pixel data included, path excluded), the algorithm DAG with its
    /// bit widths, and the seed list. Models agreeing on all of that
    /// produce byte-identical metrics, so they may share one cache
    /// entry.
    ///
    /// # Errors
    ///
    /// Propagates the delay-solve errors of [`Self::estimate_delay`].
    pub fn functional_fingerprint(&self, seeds: &[u64]) -> Result<Fingerprint, CamjError> {
        let delay = self.estimate_delay()?;
        let (_, plan) = self.kernel_plan()?;
        let mut h = FpHasher::new();
        h.write_str(FUNCTIONAL_FINGERPRINT_DOMAIN);
        h.write_f64(delay.analog_unit_time.secs());
        let chain = &plan.noise_chain;
        h.write_usize(chain.len());
        for stage in chain {
            h.write_str(&stage.unit);
            // The source list is tiny; its JSON encoding (shortest
            // round-trip floats) is an exact, stable content key.
            h.write_str(&serde_json::to_string(&stage.sources).unwrap_or_default());
            match stage.quant_bits {
                Some(bits) => {
                    h.write_bool(true);
                    h.write_u32(bits);
                }
                None => h.write_bool(false),
            }
        }
        feed_frame_content(&mut h, &self.algo, &self.stimulus);
        h.write_usize(seeds.len());
        for seed in seeds {
            h.write_u64(*seed);
        }
        Ok(h.finish())
    }

    /// Resolves everything about a frame simulation that does not
    /// depend on the seed, in two halves:
    ///
    /// * the [`FrameBase`] — the rendered clean frame, the signal level,
    ///   and the digital-DAG plan with its reference pass. No frame
    ///   rate, exposure, or noise source reaches it, so with an
    ///   [`EstimateCache`] attached it is shared, keyed by
    ///   [`frame_base_fingerprint`], by every seed, every grid point,
    ///   and every later request over the same DAG and stimulus
    ///   content; without a cache it is built per call;
    /// * the noise lanes — every noisy stage's per-pixel noise standard
    ///   deviation at this model's exposure — and the quantizers,
    ///   resolved per call into the base's reusable buffers.
    ///
    /// One plan serves every seed of a Monte-Carlo run.
    fn frame_plan(&self, stimulus: &Stimulus) -> Result<FramePlan, CamjError> {
        let _span = obs_core::span("frame.plan");
        let delay = self.estimate_delay()?;
        let input = self
            .algo
            .stages()
            .iter()
            .find(|s| matches!(s.kind(), StageKind::Input))
            .ok_or_else(|| CamjError::CheckDag {
                reason: "functional simulation needs an input stage to render the stimulus at"
                    .to_owned(),
            })?;
        let size = input.output_size();
        let (width, height, channels) = (size.width, size.height, size.channels);
        let build = || FrameBase::build(&self.algo, (width, height, channels), stimulus);
        let base = match &self.cache {
            Some(cache) => cache.frame_base_or(frame_base_fingerprint(&self.algo, stimulus), build),
            None => Arc::new(build()),
        };

        let exposure = delay.analog_unit_time;
        let temperature_k = camj_tech::constants::DEFAULT_TEMPERATURE_K;
        let (_, plan) = self.kernel_plan()?;
        let FrameScratch { mut lanes, seed } = base.take_scratch();
        let stages = plan
            .noise_chain
            .iter()
            .map(|stage| PlanStage {
                // A stage without sources injects no noise and draws
                // no samples.
                std: (!stage.sources.is_empty()).then(|| {
                    let noise = PixelNoise::new(&stage.sources, exposure, temperature_k);
                    let mut lane = lanes.pop().unwrap_or_default();
                    stimulus.render_with(
                        width,
                        height,
                        channels,
                        |level| noise.std(level),
                        &mut lane,
                    );
                    lane
                }),
                unit: stage.unit.clone(),
                quantizer: stage.quant_bits.map(Quantizer::new),
            })
            .collect();
        Ok(FramePlan {
            stimulus: stimulus.to_string(),
            stages,
            spare_seeds: Mutex::new(vec![seed]),
            base,
        })
    }
}

/// Feeds the functional *content* a frame simulation reads besides its
/// noise: the stimulus (pixel data included, path excluded) and the
/// algorithm DAG — every stage with its shapes and bit width, and every
/// edge. Both functional content addresses hash it through here.
fn feed_frame_content(h: &mut FpHasher, algo: &AlgorithmGraph, stimulus: &Stimulus) {
    use camj_tech::fingerprint::Fingerprintable;
    match stimulus {
        Stimulus::Uniform { level } => {
            h.write_tag(1);
            h.write_f64(*level);
        }
        Stimulus::Gradient { low, high } => {
            h.write_tag(2);
            h.write_f64(*low);
            h.write_f64(*high);
        }
        Stimulus::Image {
            width,
            height,
            pixels,
            ..
        } => {
            h.write_tag(3);
            h.write_u32(*width);
            h.write_u32(*height);
            h.write_f64_slice_bulk(pixels);
        }
    }
    let stages = algo.stages();
    h.write_usize(stages.len());
    for stage in stages {
        stage.feed(h);
    }
    let edges = algo.edge_names();
    h.write_usize(edges.len());
    for (from, to) in edges {
        h.write_str(from);
        h.write_str(to);
    }
}

/// The content address of a [`FrameBase`]: the algorithm DAG and the
/// stimulus content, nothing else — the base reads no frame rate, no
/// exposure, and no noise source.
fn frame_base_fingerprint(algo: &AlgorithmGraph, stimulus: &Stimulus) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_str(FRAME_BASE_DOMAIN);
    feed_frame_content(&mut h, algo, stimulus);
    h.finish()
}

/// The analytic noise budget of a resolved noise chain for an
/// already-solved delay split: per-stage variance accumulation at
/// `signal_fraction` of full scale. `None` when the chain contributes
/// no noise at all — no descriptors and no digitising component, or
/// only zero-amplitude sources (a `read` of 0, a dark current of
/// 0 e⁻/s), which validation deliberately allows.
fn noise_report(
    chain: &[NoiseStage],
    delay: &DelayEstimate,
    signal_fraction: f64,
) -> Option<NoiseReport> {
    assert!(
        signal_fraction > 0.0 && signal_fraction <= 1.0,
        "signal fraction must be in (0, 1], got {signal_fraction}"
    );
    if !chain.iter().any(NoiseStage::is_noisy) {
        return None;
    }
    let exposure = delay.analog_unit_time;
    let mut cumulative_var = 0.0;
    let stages: Vec<StageNoise> = chain
        .iter()
        .map(|stage| {
            let added_var = stage.variance(
                signal_fraction,
                exposure,
                camj_tech::constants::DEFAULT_TEMPERATURE_K,
            );
            cumulative_var += added_var;
            let cumulative = cumulative_var.sqrt();
            StageNoise {
                unit: stage.unit.clone(),
                added_noise_rms: added_var.sqrt(),
                cumulative_noise_rms: cumulative,
                snr_db: functional::snr_db(signal_fraction, cumulative),
            }
        })
        .collect();
    let output_noise_rms = cumulative_var.sqrt();
    // Declared sources can all be zero-amplitude; such a chain is
    // effectively noise-free, not an error.
    let output_snr_db = functional::snr_db(signal_fraction, output_noise_rms)?;
    Some(NoiseReport {
        signal_fraction,
        stages,
        output_noise_rms,
        output_snr_db,
    })
}

/// One stage's per-pixel noise standard deviation as a function of the
/// pixel's clean level. The frame plan renders it like the clean frame
/// ([`Stimulus::render_with`]), so each distinct stimulus level is
/// evaluated once.
///
/// Only photon shot noise depends on the level — it reads the *clean*
/// pixel, so it is deterministic and unbiased by upstream noise
/// realisations. Every other source's variance is constant across the
/// frame, so it is evaluated once per source, here.
struct PixelNoise {
    terms: Vec<NoiseTerm>,
}

/// One source's variance term.
enum NoiseTerm {
    Shot { full_well_electrons: f64 },
    Constant(f64),
}

impl PixelNoise {
    fn new(
        sources: &[camj_analog::noise::NoiseSource],
        exposure: Time,
        temperature_k: f64,
    ) -> Self {
        let terms = sources
            .iter()
            .map(|source| match *source {
                camj_analog::noise::NoiseSource::PhotonShot {
                    full_well_electrons,
                } => NoiseTerm::Shot {
                    full_well_electrons,
                },
                _ => {
                    let rms = source.rms_fraction(0.0, exposure, temperature_k);
                    NoiseTerm::Constant(rms * rms)
                }
            })
            .collect();
        PixelNoise { terms }
    }

    /// The standard deviation at clean level `reference`: variances add
    /// source by source, in declaration order, under one square root; a
    /// level without variance gets an exact zero.
    fn std(&self, reference: f64) -> f64 {
        let mut var = 0.0;
        for term in &self.terms {
            var += match *term {
                NoiseTerm::Shot {
                    full_well_electrons,
                } => {
                    let rms = (reference / full_well_electrons).sqrt();
                    rms * rms
                }
                NoiseTerm::Constant(c) => c,
            };
        }
        if var > 0.0 {
            var.sqrt()
        } else {
            0.0
        }
    }
}

/// One stage of a frame plan: the unit name (cold path — report rows
/// only), its per-pixel noise standard deviation, and the back-end
/// quantization.
struct PlanStage {
    unit: String,
    /// `None` when the stage declares no noise sources.
    std: Option<Vec<f64>>,
    quantizer: Option<Quantizer>,
}

/// The half of a frame simulation that depends on neither the seed nor
/// the exposure: the clean frame, its signal level, and the digital-DAG
/// plan with its reference pass. A function of the algorithm DAG and
/// the stimulus content alone ([`frame_base_fingerprint`]), so one
/// immutable base serves every model, frame rate, noise chain, and seed
/// over that content.
///
/// It also lends one set of per-frame buffers ([`FrameScratch`]) to one
/// simulation at a time, so a cached base keeps its multi-megabyte
/// frames resident instead of allocating (and page-faulting) them on
/// every call. A concurrent simulation finds the set lent out and
/// allocates its own. Every buffer is overwritten before it is read, so
/// what a borrower left behind never reaches a result.
pub(crate) struct FrameBase {
    width: u32,
    height: u32,
    channels: u32,
    clean: Vec<f64>,
    signal_rms: f64,
    /// The digital-DAG functional pass (clean reference tensors
    /// included); `None` when the algorithm has no non-input stages.
    dag: Option<DagPlan>,
    scratch: Mutex<Option<FrameScratch>>,
}

/// The reusable buffers of one frame plan: the noise lanes, and one
/// seed's frame and DAG tensors.
#[derive(Default)]
struct FrameScratch {
    lanes: Vec<Vec<f64>>,
    seed: SeedScratch,
}

/// The buffers one seed's simulation writes: the noisy frame and the
/// DAG pass's tensors.
#[derive(Default)]
struct SeedScratch {
    noisy: Vec<f64>,
    dag: DagScratch,
}

impl FrameBase {
    fn build(algo: &AlgorithmGraph, shape: Shape, stimulus: &Stimulus) -> FrameBase {
        let _span = obs_core::span("frame.base");
        let (width, height, channels) = shape;
        let clean = {
            let _span = obs_core::span("frame.render");
            stimulus.render(width, height, channels)
        };
        let signal_rms =
            (clean.iter().map(|v| v * v).sum::<f64>() / clean.len().max(1) as f64).sqrt();
        let dag = DagPlan::build(algo, shape, &clean);
        FrameBase {
            width,
            height,
            channels,
            clean,
            signal_rms,
            dag,
            scratch: Mutex::new(None),
        }
    }

    /// Approximate resident size once a simulation has used the base:
    /// the clean frame and the DAG references, plus the lent buffers —
    /// a noisy frame, the DAG outputs, and two noise lanes (a pixel
    /// front end and a converter, the common noisy chain).
    pub(crate) fn approx_bytes(&self) -> u64 {
        let frame = self.clean.len() as u64;
        let references = self.dag.as_ref().map_or(0, |dag| {
            dag.references.iter().map(|t| t.len() as u64).sum::<u64>()
        });
        8 * (frame * 4 + references * 2) + 256
    }

    /// Borrows the buffer set, or a fresh one while it is lent out.
    fn take_scratch(&self) -> FrameScratch {
        lock_scratch(&self.scratch).take().unwrap_or_default()
    }

    /// Returns a buffer set for the next simulation (dropped when the
    /// base already holds one).
    fn put_scratch(&self, scratch: FrameScratch) {
        lock_scratch(&self.scratch).get_or_insert(scratch);
    }
}

/// Locks a base's buffer slot, recovering from poisoning: the slot
/// holds whole buffer sets, which no panic can leave half-written in a
/// way a later reader would see (every buffer is overwritten first).
fn lock_scratch(slot: &Mutex<Option<FrameScratch>>) -> MutexGuard<'_, Option<FrameScratch>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything about one frame simulation that is independent of the
/// seed: the shared [`FrameBase`] plus this call's noise lanes. Seeds
/// simulate concurrently against one plan, each in a borrowed
/// [`SeedScratch`]; dropping the plan hands its buffers back to the
/// base.
struct FramePlan {
    base: Arc<FrameBase>,
    /// The stimulus as the report labels it (the path of an image
    /// included, unlike the base's key).
    stimulus: String,
    stages: Vec<PlanStage>,
    /// Seed buffers no seed is using right now.
    spare_seeds: Mutex<Vec<SeedScratch>>,
}

impl Drop for FramePlan {
    fn drop(&mut self) {
        let lanes = self
            .stages
            .iter_mut()
            .filter_map(|stage| stage.std.take())
            .collect();
        let seeds = self
            .spare_seeds
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(seed) = seeds.pop() {
            self.base.put_scratch(FrameScratch { lanes, seed });
        }
    }
}

/// Pixels processed per span: the normal scratch buffer stays
/// L1-resident at this size, and the noise stream is drawn one span
/// at a time.
const FRAME_CHUNK: usize = 1024;

impl FramePlan {
    /// Every seed's frame, in seed order: in parallel when more than
    /// one worker is available and there is more than one seed, each
    /// seed in a seed buffer set no other seed is using.
    fn simulate_seeds(&self, seeds: &[u64]) -> Vec<FrameSimReport> {
        use rayon::prelude::*;
        seeds
            .par_iter()
            .map(|&seed| {
                let spare = || {
                    self.spare_seeds
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                };
                let mut scratch = spare().pop().unwrap_or_default();
                let report = self.simulate(seed, &mut scratch);
                spare().push(scratch);
                report
            })
            .collect()
    }

    /// Pushes one seeded noise realisation through the planned chain,
    /// writing the frame and the DAG tensors into `scratch`.
    ///
    /// Noise is drawn with the ziggurat sampler
    /// ([`rand::normal::fill_standard_normal_fast`]) — exactly N(0, 1)
    /// and deterministic for the seed — and applied from the plan's
    /// precomputed std lanes, so the per-seed loop touches no variance
    /// term, no division, and no square root.
    ///
    /// The frame is walked once, one [`FRAME_CHUNK`] span at a time,
    /// while each span is L1-resident: the span runs through every
    /// stage (noise, clamp, quantization, and the stage's squared error
    /// in one loop), and the last stage's loop also feeds the output
    /// statistics and the digest. Every stage owns its
    /// RNG stream and draws one span of it per span, so the draws match
    /// a stage-by-stage walk of the whole frame; each accumulator sums
    /// in pixel order, as a whole-frame pass would.
    fn simulate(&self, seed: u64, scratch: &mut SeedScratch) -> FrameSimReport {
        // One coarse span per frame; the chunked loops below are never
        // probed individually.
        let _span = obs_core::span("frame.simulate");
        let base = &*self.base;
        obs_core::counter("frame.pixels", 0, base.clean.len() as u64);
        obs_core::counter(
            "frame.chunks",
            0,
            (base.clean.len().div_ceil(FRAME_CHUNK) * self.stages.len()) as u64,
        );
        let mut rngs: Vec<_> = self
            .stages
            .iter()
            .enumerate()
            .map(|(index, stage)| functional::stage_rng(seed, index, &stage.unit))
            .collect();
        // Squared error of each stage's output against the clean frame.
        let mut sq = vec![0.0_f64; self.stages.len()];
        let mut normals = [0.0_f64; FRAME_CHUNK];
        let noisy = &mut scratch.noisy;
        noisy.clear();
        noisy.reserve(base.clean.len());
        let mut sum = 0.0;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut h = FpHasher::new();
        h.write_str("camj.frame-digest-mc/v1");
        // The output statistics and the digest, fed each final value as
        // the last stage produces it, so every dependency chain of the
        // frame's tail runs in one loop. Word-by-word feeding yields the
        // stream one whole-frame bulk write would.
        let mut tally = |v: f64| {
            sum += v;
            min = min.min(v);
            max = max.max(v);
            h.write_f64_slice_bulk(std::slice::from_ref(&v));
        };
        let last = self.stages.len().checked_sub(1);
        for clean_span in base.clean.chunks(FRAME_CHUNK) {
            let start = noisy.len();
            noisy.extend_from_slice(clean_span);
            let span = &mut noisy[start..];
            for (index, ((stage, rng), sq)) in
                self.stages.iter().zip(&mut rngs).zip(&mut sq).enumerate()
            {
                let noise = stage.std.as_ref().map(|std| {
                    // One draw per pixel, zero-std lanes included: the
                    // add of `n · 0.0` is exact, and the branch-free
                    // span keeps the loop superscalar. (Zero-std
                    // pixels are rare — they need a shot-only stage
                    // over black pixels.)
                    let normals = &mut normals[..span.len()];
                    rand::normal::fill_standard_normal_fast(rng, normals);
                    (&std[start..start + span.len()], &normals[..])
                });
                if Some(index) == last {
                    stage_pass(span, clean_span, noise, stage.quantizer, sq, &mut tally);
                } else {
                    stage_pass(span, clean_span, noise, stage.quantizer, sq, |_| {});
                }
            }
            if last.is_none() {
                span.iter().for_each(|&v| tally(v));
            }
        }
        let len = noisy.len().max(1) as f64;
        let stages: Vec<StageSim> = self
            .stages
            .iter()
            .zip(&sq)
            .map(|(stage, sq)| {
                let noise_rms = (sq / len).sqrt();
                StageSim {
                    unit: stage.unit.clone(),
                    noise_rms,
                    snr_db: functional::snr_db(base.signal_rms, noise_rms),
                }
            })
            .collect();
        // The last stage already measured the final frame against the
        // clean frame; with no stage at all the frame is the clean one.
        let noise_rms = stages.last().map_or(0.0, |s| s.noise_rms);
        let (hi, lo) = h.finish().parts();
        FrameSimReport {
            seed,
            stimulus: self.stimulus.clone(),
            width: base.width,
            height: base.height,
            channels: base.channels,
            stages,
            output: OutputStats {
                mean: sum / len,
                min,
                max,
                noise_rms,
                snr_db: functional::snr_db(base.signal_rms, noise_rms),
            },
            digest: format!("{hi:016x}{lo:016x}"),
            // The DAG pass runs on the finished frame and adds no
            // randomness.
            dag: base
                .dag
                .as_ref()
                .map(|dag| dag.run(&scratch.noisy, &mut scratch.dag)),
        }
    }
}

/// Runs one noise stage over one span: the noise (`(std, normals)`
/// lanes, when the stage has sources) and the rail clamp, the
/// quantization, and the squared error against `clean`, accumulated into
/// `sq` in pixel order, all in one loop. Each value the stage leaves
/// goes on to `tally`.
#[inline]
fn stage_pass(
    span: &mut [f64],
    clean: &[f64],
    noise: Option<(&[f64], &[f64])>,
    quantizer: Option<Quantizer>,
    sq: &mut f64,
    mut tally: impl FnMut(f64),
) {
    let mut acc = *sq;
    let mut finish = |value: &mut f64, v: f64, c: f64| {
        let v = quantizer.map_or(v, |q| q.apply(v));
        *value = v;
        let d = v - c;
        acc += d * d;
        tally(v);
    };
    match noise {
        Some((std, normals)) => {
            for (((value, s), n), c) in span.iter_mut().zip(std).zip(normals).zip(clean) {
                // The physical rails clip: charge saturates at the full
                // well, swings at the supplies.
                finish(value, (*value + n * s).clamp(0.0, 1.0), *c);
            }
        }
        None => {
            for (value, c) in span.iter_mut().zip(clean) {
                finish(value, *value, *c);
            }
        }
    }
    *sq = acc;
}

/// The Monte-Carlo reducer: mean and sample standard deviation of one
/// per-seed quantity, taken in seed order.
fn across<T, V: SeedStat>(per_seed: &[T], value: impl Fn(&T) -> V) -> (V, V) {
    V::mean_std(&per_seed.iter().map(value).collect::<Vec<V>>())
}

/// One operand of a planned DAG stage: the tensor slot it reads (`0`
/// is the sensor frame, `i + 1` is plan stage `i`'s output) and, when
/// that tensor's shape differs from the stage's declared input, the
/// resample that adapts it. A same-shape operand is borrowed as is.
struct DagOperand {
    slot: usize,
    adapt: Option<Resample>,
}

/// The planned pass of one DAG stage.
enum DagStep {
    /// The stage's pass is the identity, so its output *is* plan stage
    /// `index`'s output: one operand, no shape change, and a
    /// requantization onto a grid no finer than the one that tensor is
    /// already on (a fixed point, bit for bit).
    Alias(usize),
    /// Combine the operands (their mean, skipped for one operand — it is
    /// the identity), run the kernel, and requantize in the kernel's
    /// pass (`None` when the kernel only moves values that already lie
    /// on a grid no finer than the stage's).
    Run {
        operands: Vec<DagOperand>,
        kernel: DagKernel,
        requantize: Option<Quantizer>,
    },
}

/// The tensor transform of a planned stage.
enum DagKernel {
    /// Window means of a stencil stage.
    Stencil(BoxStencil),
    /// The shape adapter of element-wise, DNN, and custom stages
    /// (identity shapes copy).
    Resample(Resample),
}

/// One functionally executable stage of a [`DagPlan`].
struct DagPlanStage {
    name: String,
    out_shape: Shape,
    step: DagStep,
}

/// The buffers of one DAG pass: each plan stage's output tensor, and
/// the adapted-operand and combined-operand buffers.
#[derive(Default)]
struct DagScratch {
    outputs: Vec<Vec<f64>>,
    adapted: Vec<Vec<f64>>,
    combined: Vec<f64>,
}

/// The resolved digital-DAG functional pass: every non-input stage of
/// the algorithm in topological order, with its geometry planned, plus
/// the clean-frame reference tensors the noisy pass is judged against.
///
/// Execution semantics per stage kind live in
/// [`camj_digital::functional`]; each stage output is requantized to
/// the stage's declared bit width (`camj_digital::quantize`), applied
/// identically to the clean reference run so the metrics isolate what
/// the *noise* cost the task. Everything here is pure slice
/// arithmetic in index order — a DAG pass is a deterministic function
/// of its input tensor alone, byte-identical across thread counts.
struct DagPlan {
    stages: Vec<DagPlanStage>,
    /// The judged output: index of the last stage in topological order.
    sink: usize,
    /// Per-stage clean-frame reference outputs (empty for an alias).
    references: Vec<Vec<f64>>,
    /// RMS of each reference tensor (the signal level stage SNR is
    /// quoted against).
    reference_rms: Vec<f64>,
    /// The sink reference's centroid, for the task metrics.
    reference_centroid: (f64, f64),
}

impl DagPlan {
    /// Resolves the plan and runs the clean reference pass. `None`
    /// when the algorithm has no non-input stages (nothing digital to
    /// execute).
    fn build(algo: &AlgorithmGraph, frame_shape: Shape, clean: &[f64]) -> Option<DagPlan> {
        let topo = algo.topo_order().ok()?;
        // Per tensor slot (`0` the sensor frame, `i + 1` plan stage
        // `i`): its shape, and the bit width of the quantization grid
        // its values are known to lie on (the clean sensor frame lies
        // on none).
        let mut slots: Vec<(Shape, Option<u32>)> = vec![(frame_shape, None)];
        // The slot holding each stage's output: an alias reads through
        // to the stage it aliases.
        let mut slot_of: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let mut stages: Vec<DagPlanStage> = Vec::new();
        for name in topo {
            let stage = algo.stage(name).expect("topo-ordered stages exist");
            if matches!(stage.kind(), StageKind::Input) {
                slot_of.insert(name, 0);
                continue;
            }
            let (i, o) = (stage.input_size(), stage.output_size());
            let (in_shape, out_shape) = (
                (i.width, i.height, i.channels),
                (o.width, o.height, o.channels),
            );
            let bits = stage.bits();
            let quantizer = Quantizer::new(bits);
            let operands: Vec<DagOperand> = algo
                .producers_of(name)
                .iter()
                .map(|p| {
                    let slot = slot_of[p];
                    let shape = slots[slot].0;
                    DagOperand {
                        slot,
                        adapt: (shape != in_shape).then(|| Resample::new(shape, in_shape)),
                    }
                })
                .collect();
            let kernel = match stage.kind() {
                StageKind::Stencil { kernel, stride } => {
                    DagKernel::Stencil(BoxStencil::new(in_shape, kernel, stride, out_shape))
                }
                // Element-wise stages combine their operands; DNN and
                // custom stages carry no declarative arithmetic, so
                // they act as shape adapters preserving signal content.
                StageKind::Input
                | StageKind::ElementWise { .. }
                | StageKind::Dnn { .. }
                | StageKind::Custom { .. } => {
                    DagKernel::Resample(Resample::new(in_shape, out_shape))
                }
            };
            // A single operand that the kernel only moves keeps the grid
            // it lies on; requantizing onto an equal or finer grid would
            // leave every value as it is.
            let kept_grid = match (&operands[..], &kernel) {
                ([only], DagKernel::Resample(_)) => slots[only.slot].1.filter(|&g| g <= bits),
                _ => None,
            };
            let identity = operands.iter().all(|o| o.adapt.is_none())
                && matches!(&kernel, DagKernel::Resample(r) if r.is_identity());
            let step = match (kept_grid, identity) {
                (Some(_), true) => {
                    // Only stage outputs lie on a grid, so the aliased
                    // slot is a running stage's.
                    let aliased = operands[0].slot;
                    slot_of.insert(name, aliased);
                    slots.push(slots[aliased]);
                    DagStep::Alias(aliased - 1)
                }
                _ => {
                    slots.push((out_shape, kept_grid.or(Some(bits))));
                    slot_of.insert(name, slots.len() - 1);
                    DagStep::Run {
                        operands,
                        kernel,
                        requantize: kept_grid.is_none().then_some(quantizer),
                    }
                }
            };
            stages.push(DagPlanStage {
                name: name.to_owned(),
                out_shape,
                step,
            });
        }
        if stages.is_empty() {
            return None;
        }
        let sink = stages.len() - 1;
        let mut plan = DagPlan {
            stages,
            sink,
            references: Vec::new(),
            reference_rms: Vec::new(),
            reference_centroid: (0.0, 0.0),
        };
        let references = {
            let _span = obs_core::span("functional.reference");
            let mut scratch = DagScratch::default();
            plan.execute(clean, &mut scratch);
            scratch.outputs
        };
        for (i, stage) in plan.stages.iter().enumerate() {
            let rms = match stage.step {
                DagStep::Alias(aliased) => plan.reference_rms[aliased],
                DagStep::Run { .. } => {
                    let t = &references[i];
                    (t.iter().map(|v| v * v).sum::<f64>() / t.len().max(1) as f64).sqrt()
                }
            };
            plan.reference_rms.push(rms);
        }
        let (sw, sh, _) = plan.stages[sink].out_shape;
        plan.reference_centroid = functional::centroid(plan.output(&references, sink), sw, sh);
        plan.references = references;
        Some(plan)
    }

    /// Plan stage `index`'s tensor among one pass's `outputs`.
    fn output<'a>(&self, outputs: &'a [Vec<f64>], index: usize) -> &'a [f64] {
        match self.stages[index].step {
            DagStep::Alias(aliased) => &outputs[aliased],
            DagStep::Run { .. } => &outputs[index],
        }
    }

    /// Pushes one source frame through every stage into
    /// `scratch.outputs`: the per-stage output tensors in plan order (an
    /// alias stage's entry is empty; read stage outputs through
    /// [`Self::output`]). Every buffer of `scratch` is overwritten
    /// before it is read, so one scratch serves pass after pass; the
    /// adapted-operand and combined-operand buffers are reused across
    /// stages as well.
    fn execute(&self, source: &[f64], scratch: &mut DagScratch) {
        let DagScratch {
            outputs,
            adapted,
            combined,
        } = scratch;
        outputs.resize_with(self.stages.len(), Vec::new);
        for (index, stage) in self.stages.iter().enumerate() {
            let (done, rest) = outputs.split_at_mut(index);
            // Every kernel clears its output first; an alias's entry is
            // never written.
            let out = &mut rest[0];
            if let DagStep::Run {
                operands,
                kernel,
                requantize,
            } = &stage.step
            {
                let tensor = |slot: usize| -> &[f64] {
                    if slot == 0 {
                        source
                    } else {
                        &done[slot - 1]
                    }
                };
                if adapted.len() < operands.len() {
                    adapted.resize_with(operands.len(), Vec::new);
                }
                for (operand, buffer) in operands.iter().zip(adapted.iter_mut()) {
                    if let Some(adapt) = &operand.adapt {
                        adapt.run(tensor(operand.slot), None, buffer);
                    }
                }
                let inputs: Vec<&[f64]> = operands
                    .iter()
                    .zip(adapted.iter())
                    .map(|(operand, buffer)| match operand.adapt {
                        Some(_) => buffer.as_slice(),
                        None => tensor(operand.slot),
                    })
                    .collect();
                match (&inputs[..], kernel) {
                    // Multiple producers (and temporal element-wise
                    // operands at steady state) combine as their mean,
                    // which keeps the signal in [0, 1]; without a shape
                    // change it is the whole pass.
                    (_, DagKernel::Resample(resample))
                        if inputs.len() > 1 && resample.is_identity() =>
                    {
                        camj_digital::functional::elementwise_mean(&inputs, *requantize, out);
                    }
                    (inputs, kernel) => {
                        let input = if let [only] = inputs {
                            only
                        } else {
                            camj_digital::functional::elementwise_mean(inputs, None, combined);
                            combined.as_slice()
                        };
                        match kernel {
                            DagKernel::Stencil(stencil) => stencil.run(input, *requantize, out),
                            DagKernel::Resample(resample) => resample.run(input, *requantize, out),
                        }
                    }
                }
            }
        }
    }

    /// Runs the noisy pass and measures every stage against its clean
    /// reference, judging the sink at the task level.
    fn run(&self, noisy: &[f64], scratch: &mut DagScratch) -> DagSim {
        let _span = obs_core::span("functional.dag");
        obs_core::counter("functional.stages", 0, self.stages.len() as u64);
        self.execute(noisy, scratch);
        let outputs = &scratch.outputs;
        let sink_out = self.output(outputs, self.sink);
        let (sw, sh, _) = self.stages[self.sink].out_shape;
        let metrics = TaskMetrics::against(
            sink_out,
            self.output(&self.references, self.sink),
            self.reference_centroid,
            sw,
            sh,
        );
        let mut errors: Vec<f64> = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let out = self.output(outputs, i);
            errors.push(match stage.step {
                // An alias measures its stage's tensors again.
                DagStep::Alias(aliased) => errors[aliased],
                // The sink's error RMS is the metrics' RMSE: the same
                // sum over the same tensors (an empty tensor aside).
                DagStep::Run { .. } if i == self.sink && !out.is_empty() => metrics.rmse,
                DagStep::Run { .. } => rms_error(out, self.output(&self.references, i)),
            });
        }
        let stages: Vec<DagStageSim> = self
            .stages
            .iter()
            .zip(errors)
            .enumerate()
            .map(|(i, (stage, error_rms))| DagStageSim {
                stage: stage.name.clone(),
                error_rms,
                snr_db: functional::snr_db(self.reference_rms[i], error_rms),
            })
            .collect();
        let mut h = FpHasher::new();
        h.write_str("camj.dag-digest/v1");
        for span in sink_out.chunks(FRAME_CHUNK) {
            h.write_f64_slice_bulk(span);
        }
        let (hi, lo) = h.finish().parts();
        DagSim {
            stages,
            sink: self.stages[self.sink].name.clone(),
            metrics,
            digest: format!("{hi:016x}{lo:016x}"),
        }
    }
}

/// RMS deviation of `noisy` from `clean`, fraction of full scale.
fn rms_error(noisy: &[f64], clean: &[f64]) -> f64 {
    if noisy.is_empty() {
        return 0.0;
    }
    (noisy
        .iter()
        .zip(clean)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / noisy.len() as f64)
        .sqrt()
}

/// The per-pixel allocating stage kernels the planned ones replaced,
/// shared with `camj_digital::functional`'s own tests.
#[cfg(test)]
#[path = "../../../camj-digital/src/functional/oracle.rs"]
mod kernel_oracle;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use camj_analog::array::AnalogArray;
    use camj_analog::components::{aps_4t, column_adc, ApsParams};
    use camj_analog::noise::NoiseSource;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::energy::CamJ;
    use crate::hw::{AnalogCategory, Layer};
    use crate::sw::Stage;

    /// A two-stage analog chain (pixel front end + column ADC) at an
    /// arbitrary resolution. `noise` picks the pixel's sources: 0 none,
    /// 1 shot only (black pixels then get zero-std lanes), 2 shot +
    /// dark current + read.
    fn toy_model(width: u32, height: u32, noise: u32) -> ValidatedModel {
        const FULL_WELL: f64 = 10_000.0;
        let mut algo = AlgorithmGraph::new();
        algo.add_stage(Stage::input("Input", [width, height, 1]));
        algo.add_stage(Stage::element_wise("Gain", [width, height, 1], 1));
        algo.connect("Input", "Gain").unwrap();

        let mut pixel = aps_4t(ApsParams::default());
        if noise >= 1 {
            pixel = pixel.with_noise_source(NoiseSource::photon_shot(FULL_WELL));
        }
        if noise >= 2 {
            pixel = pixel
                .with_noise_source(NoiseSource::dark_current(50.0, FULL_WELL))
                .with_noise_source(NoiseSource::read(0.001));
        }
        let mut hw = HardwareDesc::new(200e6);
        hw.add_analog(
            AnalogUnitDesc::new(
                "PixelArray",
                AnalogArray::new(pixel, height, width),
                Layer::Sensor,
                AnalogCategory::Sensing,
            )
            .with_pixel_pitch_um(3.0),
        );
        hw.add_analog(AnalogUnitDesc::new(
            "ADCArray",
            AnalogArray::new(column_adc(10), 1, width),
            Layer::Sensor,
            AnalogCategory::Sensing,
        ));
        hw.connect("PixelArray", "ADCArray");
        let mapping = Mapping::new()
            .map("Input", "PixelArray")
            .map("Gain", "ADCArray");
        CamJ::new(algo, hw, mapping, 30.0).unwrap().into_validated()
    }

    /// The per-stage DAG pass the plan replaced, kept as its oracle:
    /// every stage resamples each producer to its declared input shape
    /// (a copy when the shapes agree), averages the operands (one
    /// operand included), runs its kernel, and requantizes the result
    /// in a separate pass, allocating at every step. Returns each
    /// non-input stage's name, output shape, and tensor, in topological
    /// order.
    fn oracle_dag(
        algo: &AlgorithmGraph,
        frame_shape: Shape,
        source: &[f64],
    ) -> Vec<(String, Shape, Vec<f64>)> {
        use super::kernel_oracle::{box_stencil, elementwise_mean, resample_nearest};
        let mut slot_of = std::collections::HashMap::new();
        let mut outputs: Vec<(String, Shape, Vec<f64>)> = Vec::new();
        for name in algo.topo_order().unwrap() {
            let stage = algo.stage(name).unwrap();
            if matches!(stage.kind(), StageKind::Input) {
                slot_of.insert(name, 0);
                continue;
            }
            let (i, o) = (stage.input_size(), stage.output_size());
            let in_shape = (i.width, i.height, i.channels);
            let out_shape = (o.width, o.height, o.channels);
            let adapted: Vec<Vec<f64>> = algo
                .producers_of(name)
                .iter()
                .map(|p| {
                    let slot: usize = slot_of[p];
                    let (tensor, shape) = if slot == 0 {
                        (source, frame_shape)
                    } else {
                        (outputs[slot - 1].2.as_slice(), outputs[slot - 1].1)
                    };
                    resample_nearest(tensor, shape, in_shape)
                })
                .collect();
            let operands: Vec<&[f64]> = adapted.iter().map(Vec::as_slice).collect();
            let combined = elementwise_mean(&operands);
            let mut out = match stage.kind() {
                StageKind::Stencil { kernel, stride } => {
                    box_stencil(&combined, in_shape, kernel, stride, out_shape)
                }
                _ => resample_nearest(&combined, in_shape, out_shape),
            };
            for value in &mut out {
                *value = camj_digital::quantize::quantize(*value, stage.bits());
            }
            slot_of.insert(name, outputs.len() + 1);
            outputs.push((name.to_owned(), out_shape, out));
        }
        outputs
    }

    /// The DAG report the plan replaced: each stage's RMS error against
    /// its clean reference, task metrics and the digest of the sink.
    fn oracle_dag_sim(
        algo: &AlgorithmGraph,
        frame_shape: Shape,
        clean: &[f64],
        noisy: &[f64],
    ) -> Option<DagSim> {
        let references = oracle_dag(algo, frame_shape, clean);
        let outputs = oracle_dag(algo, frame_shape, noisy);
        let ((sink, (sw, sh, _), sink_out), (_, _, sink_ref)) =
            (outputs.last()?, references.last()?);
        let stages = outputs
            .iter()
            .zip(&references)
            .map(|((stage, _, out), (_, _, reference))| {
                let error_rms = rms_error(out, reference);
                let reference_rms = (reference.iter().map(|v| v * v).sum::<f64>()
                    / reference.len().max(1) as f64)
                    .sqrt();
                DagStageSim {
                    stage: stage.clone(),
                    error_rms,
                    snr_db: functional::snr_db(reference_rms, error_rms),
                }
            })
            .collect();
        let mut h = FpHasher::new();
        h.write_str("camj.dag-digest/v1");
        for span in sink_out.chunks(FRAME_CHUNK) {
            h.write_f64_slice_bulk(span);
        }
        let (hi, lo) = h.finish().parts();
        Some(DagSim {
            stages,
            sink: sink.clone(),
            metrics: TaskMetrics::measure(sink_out, sink_ref, *sw, *sh),
            digest: format!("{hi:016x}{lo:016x}"),
        })
    }

    /// Per-pixel scalar evaluation of one seeded frame, the oracle for
    /// [`FramePlan::simulate`]: the clean frame is rendered pixel by
    /// pixel, normals are drawn per [`FRAME_CHUNK`] span (the sampler's
    /// stream contract) one stage after another over the whole frame,
    /// then each pixel sums its source variances, takes the noise,
    /// clamps, quantizes, and is measured one at a time. The output
    /// statistics, the frame digest, and the DAG pass
    /// ([`oracle_dag_sim`]) are computed from the result as the
    /// unplanned simulator did.
    fn scalar_frame(model: &ValidatedModel, seed: u64, stimulus: &Stimulus) -> FrameSimReport {
        let input = model
            .algorithm()
            .stages()
            .iter()
            .find(|s| matches!(s.kind(), StageKind::Input))
            .unwrap()
            .output_size();
        let (width, height, channels) = (input.width, input.height, input.channels);
        let clean = stimulus.render_per_pixel(width, height, channels);
        let signal_rms =
            (clean.iter().map(|v| v * v).sum::<f64>() / clean.len().max(1) as f64).sqrt();
        let exposure = model.estimate_delay().unwrap().analog_unit_time;
        let temperature_k = camj_tech::constants::DEFAULT_TEMPERATURE_K;
        let mut noisy = clean.clone();
        let mut stages = Vec::new();
        for (index, stage) in model
            .kernel_plan()
            .unwrap()
            .1
            .noise_chain
            .iter()
            .enumerate()
        {
            let mut rng = functional::stage_rng(seed, index, &stage.unit);
            if !stage.sources.is_empty() {
                let mut normals = [0.0; FRAME_CHUNK];
                for (pixel, value) in noisy.iter_mut().enumerate() {
                    let k = pixel % FRAME_CHUNK;
                    if k == 0 {
                        let span = (clean.len() - pixel).min(FRAME_CHUNK);
                        rand::normal::fill_standard_normal_fast(&mut rng, &mut normals[..span]);
                    }
                    let mut var = 0.0;
                    for source in &stage.sources {
                        let rms = match *source {
                            NoiseSource::PhotonShot {
                                full_well_electrons,
                            } => (clean[pixel] / full_well_electrons).sqrt(),
                            _ => source.rms_fraction(0.0, exposure, temperature_k),
                        };
                        var += rms * rms;
                    }
                    let std = if var > 0.0 { var.sqrt() } else { 0.0 };
                    *value = (*value + normals[k] * std).clamp(0.0, 1.0);
                }
            }
            if let Some(bits) = stage.quant_bits {
                for value in &mut noisy {
                    *value = camj_digital::quantize::quantize(*value, bits);
                }
            }
            let noise_rms = rms_error(&noisy, &clean);
            stages.push(StageSim {
                unit: stage.unit.clone(),
                noise_rms,
                snr_db: functional::snr_db(signal_rms, noise_rms),
            });
        }
        let noise_rms = stages
            .last()
            .map_or_else(|| rms_error(&noisy, &clean), |s| s.noise_rms);
        let mut h = FpHasher::new();
        h.write_str("camj.frame-digest-mc/v1");
        h.write_f64_slice_bulk(&noisy);
        let (hi, lo) = h.finish().parts();
        FrameSimReport {
            seed,
            stimulus: stimulus.to_string(),
            width,
            height,
            channels,
            stages,
            output: OutputStats {
                mean: noisy.iter().sum::<f64>() / noisy.len().max(1) as f64,
                min: noisy.iter().copied().fold(f64::INFINITY, f64::min),
                max: noisy.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                noise_rms,
                snr_db: functional::snr_db(signal_rms, noise_rms),
            },
            digest: format!("{hi:016x}{lo:016x}"),
            dag: oracle_dag_sim(model.algorithm(), (width, height, channels), &clean, &noisy),
        }
    }

    proptest! {
        /// The planned frame simulation is bit-identical to the scalar
        /// oracle for arbitrary seeds, stimuli (flat, ramp, and images
        /// resampled up or down), noise chains, and resolutions (up to
        /// 6400 pixels, straddling the span length).
        #[test]
        fn planned_frame_matches_scalar_oracle(
            seed in 0u64..u64::MAX / 2,
            width in 1u32..80,
            height in 1u32..80,
            level in 0u32..11,
            kind in 0u32..3,
            noise in 0u32..3,
            image_w in 1u32..40,
            image_h in 1u32..40,
        ) {
            let stimulus = match kind {
                0 => Stimulus::uniform(f64::from(level) / 10.0),
                1 => Stimulus::gradient(f64::from(level) / 20.0, f64::from(level) / 10.0),
                _ => {
                    // Few distinct levels, black included (zero-std
                    // lanes under shot-only noise).
                    let mut rng = StdRng::seed_from_u64(seed);
                    Stimulus::Image {
                        path: "oracle.pgm".to_owned(),
                        width: image_w,
                        height: image_h,
                        pixels: (0..image_w * image_h)
                            .map(|_| f64::from(rng.random_range(0..=level)) / 10.0)
                            .collect(),
                    }
                }
            };
            let model = toy_model(width, height, noise);
            let planned = model.simulate_frame(seed, &stimulus).unwrap();
            let oracle = scalar_frame(&model, seed, &stimulus);
            prop_assert_eq!(&planned, &oracle, "{width}x{height} seed {seed} noise {noise}");
        }

        /// The planned DAG pass is bit-identical to the per-stage oracle
        /// on random graphs: 1–6 stages of every kind over 1–3
        /// producers each (mismatched producer shapes exercise the
        /// adapters), stencils whose kernel differs from the stride and
        /// whose windows clamp at the edges, up- and down-resampling
        /// shape adapters on every axis, 1–3 channels, and 1–16-bit
        /// stages (coarse-to-fine chains exercise the skipped
        /// requantizations and aliases). Every stage tensor, every
        /// reference tensor, and the whole report (stage errors, task
        /// metrics, DAG digest) must agree.
        #[test]
        fn planned_dag_matches_per_stage_oracle(
            frame_w in 1u32..10,
            frame_h in 1u32..10,
            frame_c in 1u32..4,
            stage_count in 1usize..7,
            graph_seed in 0u64..u64::MAX / 2,
        ) {
            let mut rng = StdRng::seed_from_u64(graph_seed);
            let dim = |rng: &mut StdRng, max: u32| rng.random_range(1..max + 1);
            let mut algo = AlgorithmGraph::new();
            let frame_shape = (frame_w, frame_h, frame_c);
            algo.add_stage(Stage::input("In", [frame_w, frame_h, frame_c]));
            let mut names = vec!["In".to_owned()];
            let mut shapes = vec![[frame_w, frame_h, frame_c]];
            for s in 0..stage_count {
                let name = format!("S{s}");
                // 1–3 distinct producers among the earlier stages.
                let producers = dim(&mut rng, 3).min(names.len() as u32);
                let mut picked: Vec<usize> = Vec::new();
                while picked.len() < producers as usize {
                    let p = rng.random_range(0..names.len());
                    if !picked.contains(&p) {
                        picked.push(p);
                    }
                }
                let shape = |rng: &mut StdRng, max: u32| {
                    [dim(rng, max), dim(rng, max), dim(rng, 3)]
                };
                // Half the stages take their first producer's shape (no
                // adapter), and half of those keep it (an identity
                // pass, which can alias its producer).
                let in_shape = if rng.random_range(0..2u32) == 0 {
                    shapes[picked[0]]
                } else {
                    shape(&mut rng, 9)
                };
                let out_shape = if rng.random_range(0..2u32) == 0 {
                    in_shape
                } else {
                    shape(&mut rng, 12)
                };
                let stage = match rng.random_range(0..5u32) {
                    0 | 1 => {
                        let kernel = [dim(&mut rng, 3), dim(&mut rng, 3), dim(&mut rng, 3)];
                        let stride = [dim(&mut rng, 3), dim(&mut rng, 3), dim(&mut rng, 2)];
                        Stage::stencil(&name, in_shape, out_shape, kernel, stride)
                    }
                    2 => Stage::element_wise(&name, in_shape, 2),
                    3 => Stage::dnn(&name, in_shape, out_shape, 1, 1),
                    _ => Stage::custom(&name, in_shape, out_shape, 1, 1.0),
                };
                shapes.push({
                    let o = stage.output_size();
                    [o.width, o.height, o.channels]
                });
                algo.add_stage(stage.with_bits(dim(&mut rng, 16)));
                for p in picked {
                    algo.connect(&names[p], &name).unwrap();
                }
                names.push(name);
            }
            // Tensors mix continuous values with grid points and the
            // rails, signed zero included.
            let tensor = |rng: &mut StdRng| -> Vec<f64> {
                (0..frame_w * frame_h * frame_c)
                    .map(|_| match rng.random_range(0..8u32) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1.0,
                        3 => f64::from(rng.random_range(0..257u32)) / 256.0,
                        _ => rng.random_range(0.0..1.0),
                    })
                    .collect()
            };
            let clean = tensor(&mut rng);
            let noisy = tensor(&mut rng);
            let plan = DagPlan::build(&algo, frame_shape, &clean).unwrap();
            let mut scratch = DagScratch::default();
            plan.execute(&noisy, &mut scratch);
            let outputs = scratch.outputs;
            let oracle_outputs = oracle_dag(&algo, frame_shape, &noisy);
            let oracle_references = oracle_dag(&algo, frame_shape, &clean);
            let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            for (i, ((name, _, out), (_, _, reference))) in
                oracle_outputs.iter().zip(&oracle_references).enumerate()
            {
                prop_assert_eq!(&plan.stages[i].name, name);
                prop_assert_eq!(bits(plan.output(&outputs, i)), bits(out), "stage {}", name);
                prop_assert_eq!(
                    bits(plan.output(&plan.references, i)),
                    bits(reference),
                    "reference {}", name
                );
            }
            let oracle = oracle_dag_sim(&algo, frame_shape, &clean, &noisy).unwrap();
            prop_assert_eq!(plan.run(&noisy, &mut DagScratch::default()), oracle);
        }
    }

    /// The base a model's frame plan for `stimulus` runs on.
    fn base_of(model: &ValidatedModel, stimulus: &Stimulus) -> Arc<FrameBase> {
        Arc::clone(&model.frame_plan(stimulus).unwrap().base)
    }

    /// The frame base is keyed by content alone: models that differ only
    /// in frame rate or in noise sources share one base, and each
    /// simulates exactly what it simulates without a cache — also on
    /// buffers an earlier simulation of another model left behind.
    #[test]
    fn frame_bases_are_shared_across_fps_and_noise_sources() {
        let cache = EstimateCache::shared();
        let stimulus = Stimulus::gradient(0.1, 0.9);
        let quiet = toy_model(12, 8, 0);
        let models = [
            quiet.with_fps(60.0),
            toy_model(12, 8, 2),
            quiet.clone(),
            toy_model(12, 8, 1).with_fps(15.0),
        ];
        let base = base_of(&quiet.clone().with_cache(Arc::clone(&cache)), &stimulus);
        for (i, model) in models.iter().enumerate() {
            let cached = model.clone().with_cache(Arc::clone(&cache));
            assert!(
                Arc::ptr_eq(&base, &base_of(&cached, &stimulus)),
                "model {i}"
            );
            let seeds = [3, 7 + i as u64];
            assert_eq!(
                cached.simulate_frames(&seeds, &stimulus).unwrap(),
                model.simulate_frames(&seeds, &stimulus).unwrap(),
                "model {i}"
            );
            assert_eq!(
                cached.simulate_frame(5, &stimulus).unwrap(),
                model.simulate_frame(5, &stimulus).unwrap(),
                "model {i}"
            );
        }
        // No `CacheStats` line moves: the store counts apart.
        assert_eq!(cache.stats().entries, 1, "only the elastic simulation");
    }

    /// Any change to what the base reads changes its key: image pixels,
    /// the input shape, a stage's bit width, an edge. The image's path
    /// is a label, not content.
    #[test]
    fn frame_base_keys_cover_pixels_shape_bits_and_edges() {
        let image = |path: &str, corner: f64| Stimulus::Image {
            path: path.to_owned(),
            width: 2,
            height: 2,
            pixels: vec![corner, 0.25, 0.5, 0.75],
        };
        let graph = |height: u32, bits: u32, chained: bool| {
            let mut algo = AlgorithmGraph::new();
            algo.add_stage(Stage::input("Input", [8, height, 1]));
            algo.add_stage(Stage::element_wise("A", [8, height, 1], 1).with_bits(bits));
            algo.add_stage(Stage::element_wise("B", [8, height, 1], 1));
            algo.connect("Input", "A").unwrap();
            algo.connect(if chained { "A" } else { "Input" }, "B")
                .unwrap();
            algo
        };
        let key = frame_base_fingerprint;
        let (algo, stimulus) = (graph(6, 8, true), image("eye.pgm", 0.0));
        let reference = key(&algo, &stimulus);
        assert_eq!(
            reference,
            key(&graph(6, 8, true), &image("elsewhere/eye.pgm", 0.0))
        );
        for (what, other) in [
            ("pixels", key(&algo, &image("eye.pgm", 1.0 / 256.0))),
            ("input shape", key(&graph(5, 8, true), &stimulus)),
            ("stage bits", key(&graph(6, 10, true), &stimulus)),
            ("edges", key(&graph(6, 8, false), &stimulus)),
            ("stimulus kind", key(&algo, &Stimulus::uniform(0.0))),
        ] {
            assert_ne!(reference, other, "{what}");
        }
    }

    /// The store keeps what fits its byte budget, evicting the least
    /// recently used base first; a base over the whole budget is built
    /// per call. Rebuilt bases simulate byte-identically.
    #[test]
    fn frame_bases_over_the_budget_are_rebuilt_identically() {
        let model = toy_model(12, 8, 2);
        let stimulus = |level: f64| Stimulus::uniform(level);
        let one = base_of(&model, &stimulus(0.5)).approx_bytes();
        let seeds = [1, 2, 3];
        let expected = model.simulate_frames(&seeds, &stimulus(0.5)).unwrap();

        let tiny = Arc::new(EstimateCache::with_frame_budget(one - 1));
        let over = model.clone().with_cache(tiny);
        assert!(!Arc::ptr_eq(
            &base_of(&over, &stimulus(0.5)),
            &base_of(&over, &stimulus(0.5))
        ));
        assert_eq!(
            over.simulate_frames(&seeds, &stimulus(0.5)).unwrap(),
            expected
        );

        let pair = Arc::new(EstimateCache::with_frame_budget(2 * one));
        let two = model.clone().with_cache(pair);
        let (a, b) = (
            base_of(&two, &stimulus(0.5)),
            base_of(&two, &stimulus(0.25)),
        );
        assert!(
            Arc::ptr_eq(&a, &base_of(&two, &stimulus(0.5))),
            "a is now fresher"
        );
        let _c = base_of(&two, &stimulus(0.75));
        assert!(Arc::ptr_eq(&a, &base_of(&two, &stimulus(0.5))), "a stays");
        assert!(
            !Arc::ptr_eq(&b, &base_of(&two, &stimulus(0.25))),
            "b was evicted"
        );
        assert_eq!(
            two.simulate_frames(&seeds, &stimulus(0.5)).unwrap(),
            expected
        );
    }

    /// Every gate stop keeps a prefix of the complete pass. On the
    /// quickstart chip and Ed-Gaze, with and without a cache, a gate
    /// that stops once `kernels_done == k` prunes at `k` with exactly
    /// the first `k` kernels' items, in kernel order, and a total no
    /// larger than the complete one; an always-true gate completes with
    /// the ungated report.
    #[test]
    fn gate_stops_keep_a_prefix_of_the_complete_pass() {
        use camj_tech::node::ProcessNode;
        use camj_workloads::configs::SensorVariant;
        use camj_workloads::{edgaze, quickstart};

        use crate::energy::kernel::tests::cross;
        use crate::energy::EnergyItem;

        let designs = [
            cross!(quickstart::model(30.0).expect("quickstart builds")),
            cross!(edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65).expect("Ed-Gaze builds")),
        ];
        for design in designs {
            for cache in [None, Some(EstimateCache::shared())] {
                let model = match &cache {
                    Some(cache) => design.clone().with_cache(Arc::clone(cache)),
                    None => design.clone(),
                };
                let fps = model.fps();
                let complete = model
                    .estimate_at_fps(fps)
                    .expect("workload models estimate");
                let items: Vec<EnergyItem> = complete.breakdown.items().cloned().collect();
                let (_, plan) = model.kernel_plan().unwrap();
                let mut booked = 0;
                for k in 0..=ENERGY_KERNEL_COUNT {
                    if k > 0 {
                        booked += plan
                            .compute(KernelKind::ALL[k - 1], &model, &complete.delay)
                            .len();
                    }
                    let outcome = model
                        .estimate_at_fps_gated(fps, |ctx| ctx.kernels_done < k)
                        .unwrap();
                    assert!(outcome.partial_total() <= complete.total(), "k = {k}");
                    let GatedEstimate::Pruned {
                        delay,
                        partial,
                        kernels_done,
                    } = outcome
                    else {
                        panic!("a gate stopping at {k} must prune");
                    };
                    assert_eq!(kernels_done, k);
                    assert_eq!(delay, complete.delay);
                    let partial: Vec<EnergyItem> = partial.items().cloned().collect();
                    assert_eq!(partial, items[..booked], "k = {k}");
                }
                assert_eq!(booked, items.len());
                assert_eq!(
                    model.estimate_at_fps_gated(fps, |_| true).unwrap(),
                    GatedEstimate::Complete(Box::new(complete))
                );
            }
        }
    }

    /// Ed-Gaze's DAG — a 2×2 binning stencil, a one-operand element-wise
    /// stage, and an upsampling DNN, all 8-bit — plans the element-wise
    /// stage as an alias of the stencil's output and runs the DNN as a
    /// pure gather: its operand already lies on the 8-bit grid. A pooling
    /// stage after the DNN reads the DNN's tensor, not the alias's.
    #[test]
    fn edgaze_dag_aliases_and_skips_requantization() {
        let mut algo = AlgorithmGraph::new();
        algo.add_stage(Stage::input("Input", [16, 10, 1]));
        let (down, pool) = ([2, 2, 1], [3, 3, 1]);
        algo.add_stage(Stage::stencil("Down", [16, 10, 1], [8, 5, 1], down, down));
        algo.add_stage(Stage::element_wise("Sub", [8, 5, 1], 2));
        algo.add_stage(Stage::dnn("Roi", [8, 5, 1], [16, 8, 1], 1, 1));
        algo.add_stage(Stage::stencil("Pool", [16, 8, 1], [6, 3, 1], pool, pool));
        for (from, to) in [
            ("Input", "Down"),
            ("Down", "Sub"),
            ("Sub", "Roi"),
            ("Roi", "Pool"),
        ] {
            algo.connect(from, to).unwrap();
        }
        let clean: Vec<f64> = (0..160).map(|i| f64::from(i) / 160.0).collect();
        let noisy: Vec<f64> = clean.iter().map(|v| (v * 1.07).min(1.0)).collect();
        let plan = DagPlan::build(&algo, (16, 10, 1), &clean).unwrap();
        assert!(matches!(plan.stages[1].step, DagStep::Alias(0)));
        assert!(matches!(
            plan.stages[2].step,
            DagStep::Run {
                requantize: None,
                ..
            }
        ));
        let oracle = oracle_dag_sim(&algo, (16, 10, 1), &clean, &noisy).unwrap();
        assert_eq!(plan.run(&noisy, &mut DagScratch::default()), oracle);
    }
}
