//! Request resolution: the one place that turns a [`Request`] into
//! work, shared by `camj <cmd>` (whose flags parse into a `Request`)
//! and the daemon's [`handler`](crate::handler).
//!
//! Three steps, each front end calling all three:
//!
//! 1. [`load_design`] — description text (plus the directory relative
//!    stimulus paths resolve against) → `(DesignDesc, ValidatedModel)`
//!    with the description's own stimulus attached;
//! 2. [`plan`] — applies the precedence policy: **a request field (or
//!    the CLI flag it was parsed from) beats the description's `sweep`
//!    block, which beats the built-in default**. The result is a
//!    [`Plan`]: fully resolved frame rates, objectives, constraints and
//!    search knobs;
//! 3. [`execute`] — runs a plan against the model and an
//!    [`EstimateCache`], returning the typed [`Outcome`] each front end
//!    renders its own way (human/JSON/CSV text, or wire frames).
//!
//! Every failure is a path-qualified [`Reject`]. Paths under
//! `request.design` blame the description (the CLI exits 1); any other
//! path blames a request field (the CLI reports a usage error).

use std::path::Path;
use std::sync::Arc;

use camj_core::energy::{EstimateCache, EstimateReport, ValidatedModel};
use camj_core::functional::{FrameSimReport, McFrameSimReport, Stimulus};
use camj_desc::ir::SweepConstraintsIr;
use camj_desc::DesignDesc;
use camj_explore::{
    Constraint, DesignPoint, Explorer, Objective, ParetoQuery, ParetoResults, PointError,
    SearchResults, SearchSpec, Sweep, SweepResults,
};

use crate::protocol::{Reject, Request, RequestKind};

/// The seed `simulate` uses when the request names none.
const DEFAULT_SIMULATE_SEED: u64 = 42;

/// The largest Monte-Carlo batch one `simulate` request may ask for.
const MAX_SAMPLES: u32 = 1024;

/// Parses, validates, and builds a description. A `stimulus` block is
/// resolved against `base` (the description file's directory; `None`
/// resolves relative paths against the working directory) and attached
/// to the model, so simulation and `accuracy:<metric>` objectives see
/// the design's own stimulus.
///
/// # Errors
///
/// A [`Reject`] at `request.design` (parse, validation, or model
/// build failure) or `request.design.stimulus` (unreadable stimulus).
pub fn load_design(
    text: &str,
    base: Option<&Path>,
) -> Result<(DesignDesc, ValidatedModel), Reject> {
    let design_error = |e: camj_desc::DescError| Reject::at("request.design", e.to_string());
    let desc = DesignDesc::from_json(text).map_err(design_error)?;
    let mut model = desc.build().map_err(design_error)?;
    if let Some(ir) = &desc.stimulus {
        let stimulus = ir
            .resolve(base)
            .map_err(|e| Reject::at("request.design.stimulus", e.to_string()))?;
        model = model.with_stimulus(stimulus);
    }
    Ok((desc, model))
}

/// What a resolved request runs.
#[derive(Debug, PartialEq)]
pub enum Plan {
    /// Parse and validate only.
    Validate,
    /// One energy estimate at `fps`.
    Estimate {
        /// The frame rate: the request's, else the description's.
        fps: f64,
    },
    /// Functional simulation: one frame per seed (a Monte-Carlo batch
    /// when there is more than one).
    Simulate {
        /// The frame rate: the request's, else the description's.
        fps: f64,
        /// `seed..seed + samples`, wrapping.
        seeds: Vec<u64>,
        /// The request's stimulus; `None` keeps the one the model
        /// carries (the description's block, else the default).
        stimulus: Option<Stimulus>,
    },
    /// A frame-rate sweep through the incremental engine.
    Sweep(Sweep),
    /// A Pareto exploration over the sweep.
    Pareto(Sweep, ParetoQuery),
    /// An adaptive frontier search over the sweep.
    Search(Sweep, ParetoQuery, SearchSpec),
}

/// Resolves `request` against the description it names.
///
/// # Errors
///
/// A [`Reject`] at the offending request field: `request.fps`,
/// `request.samples`, `request.stimulus`, `request.objectives`,
/// `request.constraints.<budget>`, `request.population`,
/// `request.generations`, `request.budget`, or `request.kind` for the
/// daemon-only kinds.
pub fn plan(request: &Request, desc: &DesignDesc) -> Result<Plan, Reject> {
    let kind = request.kind;
    match kind {
        RequestKind::Validate => Ok(Plan::Validate),
        RequestKind::Estimate => Ok(Plan::Estimate {
            fps: single_fps(request, desc)?,
        }),
        RequestKind::Simulate => {
            let fps = single_fps(request, desc)?;
            let samples = request.samples.unwrap_or(1);
            if !(1..=MAX_SAMPLES).contains(&samples) {
                return Err(Reject::at(
                    "request.samples",
                    format!("samples must be in 1..={MAX_SAMPLES}, got {samples}"),
                ));
            }
            let seed = request.seed.unwrap_or(DEFAULT_SIMULATE_SEED);
            let seeds = (0..u64::from(samples))
                .map(|i| seed.wrapping_add(i))
                .collect();
            let stimulus = match request.stimulus.as_deref() {
                None => None,
                Some(text) => Some(
                    text.parse::<Stimulus>()
                        .map_err(|e| Reject::at("request.stimulus", e))?,
                ),
            };
            Ok(Plan::Simulate {
                fps,
                seeds,
                stimulus,
            })
        }
        RequestKind::Sweep => Ok(Plan::Sweep(sweep(request, desc)?)),
        RequestKind::Pareto => Ok(Plan::Pareto(sweep(request, desc)?, query(request, desc)?)),
        RequestKind::Search => Ok(Plan::Search(
            sweep(request, desc)?,
            query(request, desc)?,
            search_spec(request, desc)?,
        )),
        RequestKind::Stats | RequestKind::Shutdown => Err(Reject::at(
            "request.kind",
            format!("'{}' is answered by the daemon itself", kind.as_str()),
        )),
    }
}

/// `estimate`/`simulate` take at most one frame-rate target; absent,
/// the description's own rate applies.
fn single_fps(request: &Request, desc: &DesignDesc) -> Result<f64, Reject> {
    match request.fps.as_deref() {
        None | Some([]) => Ok(desc.fps),
        Some([fps]) => positive_fps(*fps),
        Some(more) => Err(Reject::at(
            "request.fps",
            format!(
                "'{}' takes a single fps target, got {}",
                request.kind.as_str(),
                more.len()
            ),
        )),
    }
}

fn positive_fps(fps: f64) -> Result<f64, Reject> {
    if fps.is_finite() && fps > 0.0 {
        Ok(fps)
    } else {
        Err(Reject::at(
            "request.fps",
            format!("fps targets must be positive and finite, got {fps}"),
        ))
    }
}

/// Sweep targets: the request's list, else the description's
/// `sweep.fps`.
fn sweep(request: &Request, desc: &DesignDesc) -> Result<Sweep, Reject> {
    let targets = match (&request.fps, &desc.sweep) {
        (Some(list), _) if !list.is_empty() => list.clone(),
        (_, Some(sweep)) if !sweep.fps.is_empty() => sweep.fps.clone(),
        _ => {
            return Err(Reject::at(
                "request.fps",
                format!(
                    "'{}' needs frame-rate targets: pass --fps A,B,C (request.fps) or add \
                     a `sweep.fps` list to the description",
                    request.kind.as_str()
                ),
            ))
        }
    };
    for fps in &targets {
        positive_fps(*fps)?;
    }
    Ok(Sweep::new().fps_targets(targets))
}

/// Objectives (request > `sweep.objectives` > total energy and power
/// density) plus constraints (a request block replaces the whole
/// `sweep.constraints` block; the two never mix).
fn query(request: &Request, desc: &DesignDesc) -> Result<ParetoQuery, Reject> {
    let spec = desc.sweep.as_ref();
    let names = request
        .objectives
        .as_ref()
        .or_else(|| spec.and_then(|s| s.objectives.as_ref()));
    let objectives = match names {
        Some(names) => names
            .iter()
            .map(|name| name.parse::<Objective>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| Reject::at("request.objectives", e))?,
        None => vec![Objective::TotalEnergy, Objective::PowerDensity],
    };
    if objectives.is_empty() {
        return Err(Reject::at(
            "request.objectives",
            "at least one objective is required",
        ));
    }
    let mut query = ParetoQuery::new(objectives);
    let budgets = match &request.constraints {
        Some(c) if *c != SweepConstraintsIr::default() => Some(c),
        _ => spec.and_then(|s| s.constraints.as_ref()),
    };
    let Some(budgets) = budgets else {
        return Ok(query);
    };
    let rows = [
        (
            budgets.max_power_density_mw_per_mm2,
            "max_power_density_mw_per_mm2",
            Constraint::MaxPowerDensity as fn(f64) -> Constraint,
        ),
        (
            budgets.max_digital_latency_ms,
            "max_digital_latency_ms",
            Constraint::MaxDigitalLatency,
        ),
        (
            budgets.max_total_energy_pj,
            "max_total_energy_pj",
            Constraint::MaxTotalEnergy,
        ),
    ];
    for (value, field, make) in rows {
        let Some(budget) = value else { continue };
        // Description budgets were validated when the model was built,
        // so only a request block can fail here.
        if !(budget.is_finite() && budget > 0.0) {
            return Err(Reject::at(
                &format!("request.constraints.{field}"),
                format!("{field} must be a positive, finite budget, got {budget}"),
            ));
        }
        query = query.constrain(make(budget));
    }
    Ok(query)
}

/// Search knobs: request > `sweep.search` > [`SearchSpec`] defaults,
/// and the request's `seed` overrides `sweep.search.seed`. Zero
/// description knobs were rejected when the model was built.
fn search_spec(request: &Request, desc: &DesignDesc) -> Result<SearchSpec, Reject> {
    let ir = desc.sweep.as_ref().and_then(|s| s.search);
    let knob = |requested: Option<u64>, field: &str, described: Option<u64>| match requested {
        Some(0) => Err(Reject::at(
            &format!("request.{field}"),
            format!("{field} must be a positive integer, got 0"),
        )),
        requested => Ok(requested.or(described).map(clamp_to_usize)),
    };
    let population = knob(
        request.population,
        "population",
        ir.and_then(|s| s.population),
    )?;
    let generations = knob(
        request.generations,
        "generations",
        ir.and_then(|s| s.generations),
    )?;
    let budget = knob(request.budget, "budget", ir.and_then(|s| s.budget))?;
    let mut spec = SearchSpec::new();
    if let Some(n) = population {
        spec = spec.population(n);
    }
    if let Some(n) = generations {
        spec = spec.generations(n);
    }
    if let Some(seed) = request.seed.or(ir.and_then(|s| s.seed)) {
        spec = spec.seed(seed);
    }
    if let Some(n) = budget {
        spec = spec.budget(n);
    }
    Ok(spec)
}

/// Converts a u64 knob to `usize`, saturating on 32-bit hosts (the
/// explorer caps everything by the grid size anyway).
fn clamp_to_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// What running a [`Plan`] produced.
#[derive(Debug)]
pub enum Outcome {
    /// The description loaded and validated.
    Validated,
    /// One energy estimate.
    Estimate(EstimateReport),
    /// One simulated frame.
    Frame(FrameSimReport),
    /// A Monte-Carlo batch of frames.
    Frames(McFrameSimReport),
    /// Sweep rows in grid order.
    Sweep(SweepResults<EstimateReport>),
    /// A Pareto frontier.
    Pareto(ParetoResults),
    /// An adaptive-search frontier.
    Search(SearchResults),
}

/// Runs `plan` against `model` (as [`load_design`] built it), sharing
/// `cache` across every estimate. `build` makes the model of one grid
/// point — normally `model.with_fps(point.fps("fps"))`; callers wrap it
/// to inject per-point faults.
///
/// # Errors
///
/// A [`Reject`] at `request.design` when a single estimate or
/// simulation fails. Per-point sweep failures are rows of the result,
/// not errors.
pub fn execute<F>(
    plan: &Plan,
    model: &ValidatedModel,
    cache: &Arc<EstimateCache>,
    build: F,
) -> Result<Outcome, Reject>
where
    F: Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync,
{
    let explorer = Explorer::new();
    let at = |fps: f64| model.with_fps(fps).with_cache(Arc::clone(cache));
    Ok(match plan {
        Plan::Validate => Outcome::Validated,
        Plan::Estimate { fps } => Outcome::Estimate(
            at(*fps)
                .estimate()
                .map_err(|e| Reject::at("request.design", format!("estimation failed: {e}")))?,
        ),
        Plan::Simulate {
            fps,
            seeds,
            stimulus,
        } => {
            let model = at(*fps);
            let stimulus = stimulus.as_ref().unwrap_or_else(|| model.stimulus());
            let failed = |e| {
                Reject::at(
                    "request.design",
                    format!("functional simulation failed: {e}"),
                )
            };
            match seeds.as_slice() {
                [seed] => Outcome::Frame(model.simulate_frame(*seed, stimulus).map_err(failed)?),
                _ => Outcome::Frames(model.simulate_frames(seeds, stimulus).map_err(failed)?),
            }
        }
        Plan::Sweep(sweep) => Outcome::Sweep(explorer.sweep_incremental(sweep, cache, build)),
        Plan::Pareto(sweep, query) => Outcome::Pareto(explorer.pareto(sweep, cache, query, build)),
        Plan::Search(sweep, query, spec) => {
            Outcome::Search(explorer.search(sweep, cache, query, spec, build))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGAZE: &str = include_str!("../../../descriptions/edgaze.json");
    const QUICKSTART: &str = include_str!("../../../descriptions/quickstart.json");

    fn desc(text: &str) -> DesignDesc {
        DesignDesc::from_json(text).expect("bundled descriptions parse")
    }

    fn request(kind: RequestKind) -> Request {
        Request::new(kind)
    }

    fn rejected_at(request: &Request, desc: &DesignDesc) -> String {
        plan(request, desc).expect_err("must be rejected").path
    }

    fn pareto_parts(plan: Plan) -> (Sweep, ParetoQuery) {
        match plan {
            Plan::Pareto(sweep, query) | Plan::Search(sweep, query, _) => (sweep, query),
            other => panic!("not a pareto plan: {other:?}"),
        }
    }

    #[test]
    fn fps_targets_request_beats_description() {
        let edgaze = desc(EDGAZE);
        let from_desc = plan(&request(RequestKind::Sweep), &edgaze).unwrap();
        assert_eq!(
            from_desc,
            Plan::Sweep(Sweep::new().fps_targets([5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]))
        );
        let mut req = request(RequestKind::Sweep);
        req.fps = Some(vec![15.0, 45.0]);
        assert_eq!(
            plan(&req, &edgaze).unwrap(),
            Plan::Sweep(Sweep::new().fps_targets([15.0, 45.0]))
        );
        // No request list and no `sweep` block: nothing to sweep.
        assert_eq!(
            rejected_at(&request(RequestKind::Pareto), &desc(QUICKSTART)),
            "request.fps"
        );
        // A single estimate runs at the description's rate unless asked.
        let mut req = request(RequestKind::Estimate);
        assert_eq!(plan(&req, &edgaze).unwrap(), Plan::Estimate { fps: 30.0 });
        req.fps = Some(vec![60.0]);
        assert_eq!(plan(&req, &edgaze).unwrap(), Plan::Estimate { fps: 60.0 });
    }

    #[test]
    fn objectives_request_beats_description_beats_default() {
        let mut edgaze = desc(EDGAZE);
        edgaze.sweep.as_mut().unwrap().objectives = Some(vec!["delay".into()]);
        let mut req = request(RequestKind::Pareto);
        let (_, query) = pareto_parts(plan(&req, &edgaze).unwrap());
        assert_eq!(query.objectives(), [Objective::Delay]);
        req.objectives = Some(vec!["total_energy".into(), "category:MEM-D".into()]);
        let (_, query) = pareto_parts(plan(&req, &edgaze).unwrap());
        assert_eq!(
            query.objectives(),
            [
                Objective::TotalEnergy,
                "category:MEM-D".parse::<Objective>().unwrap()
            ]
        );
        edgaze.sweep.as_mut().unwrap().objectives = None;
        let (_, query) = pareto_parts(plan(&request(RequestKind::Search), &edgaze).unwrap());
        assert_eq!(
            query.objectives(),
            [Objective::TotalEnergy, Objective::PowerDensity]
        );
    }

    #[test]
    fn request_constraints_replace_the_whole_description_block() {
        let edgaze = desc(EDGAZE);
        let mut req = request(RequestKind::Pareto);
        let (_, query) = pareto_parts(plan(&req, &edgaze).unwrap());
        assert_eq!(
            query.constraints().constraints(),
            [Constraint::MaxPowerDensity(1.6)]
        );
        req.constraints = Some(SweepConstraintsIr {
            max_total_energy_pj: Some(5e5),
            ..SweepConstraintsIr::default()
        });
        let (_, query) = pareto_parts(plan(&req, &edgaze).unwrap());
        assert_eq!(
            query.constraints().constraints(),
            [Constraint::MaxTotalEnergy(5e5)]
        );
        // An empty request block names no budget, so the description's
        // block still applies.
        req.constraints = Some(SweepConstraintsIr::default());
        let (_, query) = pareto_parts(plan(&req, &edgaze).unwrap());
        assert_eq!(
            query.constraints().constraints(),
            [Constraint::MaxPowerDensity(1.6)]
        );
        req.constraints = Some(SweepConstraintsIr {
            max_digital_latency_ms: Some(-1.0),
            ..SweepConstraintsIr::default()
        });
        assert_eq!(
            rejected_at(&req, &edgaze),
            "request.constraints.max_digital_latency_ms"
        );
    }

    #[test]
    fn search_knobs_request_beats_description() {
        let edgaze = desc(EDGAZE);
        let spec = |req: &Request| match plan(req, &edgaze).unwrap() {
            Plan::Search(_, _, spec) => spec,
            other => panic!("not a search plan: {other:?}"),
        };
        let mut req = request(RequestKind::Search);
        // The description pins population 64, generations 24, seed 0.
        assert_eq!(
            spec(&req),
            SearchSpec::new().population(64).generations(24).seed(0)
        );
        req.population = Some(8);
        req.budget = Some(24);
        req.seed = Some(7);
        assert_eq!(
            spec(&req),
            SearchSpec::new()
                .population(8)
                .generations(24)
                .seed(7)
                .budget(24)
        );
    }

    #[test]
    fn simulate_resolves_seeds_and_stimulus() {
        let quickstart = desc(QUICKSTART);
        let mut req = request(RequestKind::Simulate);
        assert_eq!(
            plan(&req, &quickstart).unwrap(),
            Plan::Simulate {
                fps: 30.0,
                seeds: vec![DEFAULT_SIMULATE_SEED],
                stimulus: None
            }
        );
        req.seed = Some(u64::MAX);
        req.samples = Some(2);
        req.stimulus = Some("uniform:0.5".into());
        assert_eq!(
            plan(&req, &quickstart).unwrap(),
            Plan::Simulate {
                fps: 30.0,
                seeds: vec![u64::MAX, 0],
                stimulus: Some(Stimulus::Uniform { level: 0.5 })
            }
        );
    }

    #[test]
    fn invalid_fields_reject_at_their_path() {
        let edgaze = desc(EDGAZE);
        for kind in [RequestKind::Estimate, RequestKind::Simulate] {
            let mut req = request(kind);
            req.fps = Some(vec![30.0, 60.0]);
            let reject = plan(&req, &edgaze).unwrap_err();
            assert_eq!(reject.path, "request.fps");
            assert!(reject.message.contains("takes a single fps target"));
        }
        let mut req = request(RequestKind::Sweep);
        req.fps = Some(vec![30.0, f64::NAN]);
        assert_eq!(rejected_at(&req, &edgaze), "request.fps");

        for samples in [0, MAX_SAMPLES + 1] {
            let mut req = request(RequestKind::Simulate);
            req.samples = Some(samples);
            assert_eq!(rejected_at(&req, &edgaze), "request.samples");
        }
        let mut req = request(RequestKind::Simulate);
        req.stimulus = Some("uniform:2".into());
        assert_eq!(rejected_at(&req, &edgaze), "request.stimulus");

        for objectives in [vec![], vec!["no_such_objective".to_owned()]] {
            let mut req = request(RequestKind::Pareto);
            req.objectives = Some(objectives);
            assert_eq!(rejected_at(&req, &edgaze), "request.objectives");
        }

        let mut req = request(RequestKind::Search);
        req.population = Some(0);
        assert_eq!(rejected_at(&req, &edgaze), "request.population");
        assert_eq!(
            rejected_at(&request(RequestKind::Stats), &edgaze),
            "request.kind"
        );
    }

    #[test]
    fn load_design_rejects_at_the_design() {
        assert_eq!(load_design("{", None).unwrap_err().path, "request.design");
        let missing = EDGAZE.replace("edgaze_eye.pgm", "no_such_image.pgm");
        let reject = load_design(&missing, None).unwrap_err();
        assert_eq!(reject.path, "request.design.stimulus");
        let (desc, model) = load_design(QUICKSTART, None).unwrap();
        assert_eq!(model.fps(), desc.fps);
    }
}
