//! The traced run (`--trace 1`): the per-layer rows.
//!
//! Two sources, kept apart on purpose:
//!
//! * **Layer probes** time public calls of each layer on fixed inputs
//!   (medians of repeated calls, tracing off), plus a short traced
//!   daemon pass for the serving and tier rows. They are identical in
//!   every workload's traced run, so a probe row moves only when its
//!   layer's code moves.
//! * **Span rows** (`span.<name>.self_ms` / `.count`) come from the
//!   workload's own traffic under tracing: an in-process
//!   `camj_obs::ObsSession` over one op cycle for `explore`, the traced
//!   daemon's `--metrics json` report for `serve`. A span the workload
//!   never reaches reports 0.

use std::time::Instant;

use serde_json::Value;

use camj_core::energy::{CamJ, EstimateCache};
use camj_explore::{Explorer, Sweep};
use camj_serve::protocol::{parse_request, serialize_frame, Frame};
use camj_serve::SharedState;
use camj_tech::node::ProcessNode;
use camj_workloads::configs::SensorVariant;
use camj_workloads::edgaze;

use crate::serve::{Design, Designs, Fps, Req};
use crate::stats::{self, Metrics, Tally};
use crate::{explore, functional, serve, tier, Ctx, Workload};

/// The spans whose self time and count are reported, in row order.
pub const SPANS: [&str; 22] = [
    "pipeline.validate",
    "pipeline.route",
    "pipeline.simulate",
    "pipeline.stall_check",
    "pipeline.delay",
    "kernel.analog",
    "kernel.digital_compute",
    "kernel.digital_memory",
    "kernel.interface",
    "explore.point",
    "explore.group",
    "explore.warm",
    "pareto.fold",
    "search.warmup",
    "search.generation",
    "search.eval",
    "frame.plan",
    "frame.simulate",
    "frame.simulate_mc",
    "functional.dag",
    "serve.request",
    "serve.queue_wait",
];

/// Calls per median in the probes.
const REPS: usize = 9;

/// The disabled facade may cost at most this share of a sweep.
const DISABLED_OVERHEAD_BUDGET: f64 = 0.03;

/// Seconds of traced daemon load for the serve rows.
const SERVE_TRACE_S: f64 = 2.0;

pub fn traced(ctx: &Ctx) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    desc_rows(ctx, &mut m)?;
    core_rows(&mut m);
    explore::layer_rows(&mut m, REPS);
    tally.absorb(functional::layer_rows(&mut m, &ctx.root, REPS)?);
    let validate_respond_ms = respond_rows(ctx, &mut m)?;
    protocol_rows(ctx, &mut m)?;
    obs_rows(&mut m)?;

    let (t, serve_report, validate_rtt_ms) = serve::layer_rows(ctx, &mut m, SERVE_TRACE_S)?;
    tally.absorb(t);
    m.put("serve.wire_ms", validate_rtt_ms - validate_respond_ms, "ms");
    tally.absorb(tier::layer_rows(ctx, &mut m)?);

    // Span rows from the workload's own traffic.
    let spans: Vec<(String, u64, f64)> = match ctx.workload {
        Workload::Explore => in_process_spans(explore::traced_ops(ctx), &mut tally),
        Workload::Serve => report_spans(&serve_report),
    };
    for name in SPANS {
        let (count, self_ms) = spans
            .iter()
            .filter(|(n, _, _)| n == name)
            .fold((0, 0.0), |(c, s), (_, n, ms)| (c + n, s + ms));
        m.put(format!("span.{name}.self_ms"), self_ms, "ms");
        m.put(format!("span.{name}.count"), count as f64, "count");
    }
    Ok((m, tally))
}

/// Runs `work` under an exclusive recording session; returns its spans.
fn in_process_spans(work: impl FnOnce() -> Tally, tally: &mut Tally) -> Vec<(String, u64, f64)> {
    let session = camj_obs::ObsSession::begin();
    let t = work();
    let report = session.finish().metrics();
    tally.absorb(t);
    report
        .spans
        .iter()
        .map(|s| (s.name.to_owned(), s.count, s.self_ms))
        .collect()
}

/// The spans of a daemon's `camj-metrics-v1` report.
fn report_spans(report: &Value) -> Vec<(String, u64, f64)> {
    serve::report_spans(report)
        .filter_map(|s| {
            let name = s.as_object()?.get("name")?.as_str()?;
            Some((
                name.to_owned(),
                serve::num_at(s, "count") as u64,
                serve::num_at(s, "self_ms"),
            ))
        })
        .collect()
}

/// camj-desc: parsing and building both inline designs the serve
/// workload sends (sum of the two medians).
fn desc_rows(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let mut parse = 0.0;
    let mut build = 0.0;
    for name in ["quickstart.json", "edgaze.json"] {
        let path = ctx.root.join("descriptions").join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse += stats::time_median_ms(REPS, || {
            std::hint::black_box(camj_desc::DesignDesc::from_json(&text).expect("parses"));
        });
        let desc = camj_desc::DesignDesc::from_json(&text).map_err(|e| e.to_string())?;
        build += stats::time_median_ms(REPS, || {
            std::hint::black_box(desc.build().expect("builds"));
        });
    }
    m.put("desc.from_json_ms", parse, "ms");
    m.put("desc.build_ms", build, "ms");
    Ok(())
}

fn edgaze_camj() -> CamJ {
    edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65).expect("the Ed-Gaze model builds")
}

/// camj-core pipeline on Ed-Gaze 2D-In @ 65 nm: checks + routing, a
/// cold elastic simulation, and a cold and a warm estimate.
fn core_rows(m: &mut Metrics) {
    let mut validated = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let model = edgaze_camj();
        let t = Instant::now();
        let v = model.into_validated();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        validated.push(v);
    }
    m.put("core.into_validated_ms", stats::median(&samples), "ms");
    let sim: Vec<f64> = validated
        .iter()
        .map(|v| {
            let t = Instant::now();
            std::hint::black_box(v.simulate().expect("simulates"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("core.elastic_sim_ms", stats::median(&sim), "ms");
    let cold: Vec<f64> = (0..REPS)
        .map(|_| {
            let v = edgaze_camj()
                .into_validated()
                .with_cache(EstimateCache::shared());
            let t = Instant::now();
            std::hint::black_box(v.estimate().expect("estimates"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("core.estimate_cold_ms", stats::median(&cold), "ms");
    let warm_model = edgaze_camj()
        .into_validated()
        .with_cache(EstimateCache::shared());
    warm_model.estimate().expect("estimates");
    let warm = stats::time_median_ms(REPS, || {
        std::hint::black_box(warm_model.estimate().expect("estimates"));
    });
    m.put("core.estimate_warm_ms", warm, "ms");
}

/// camj-serve handler, no wire: `SharedState::respond` per request
/// kind on a warm state, each call a request the state has not
/// answered before (so no dedup replay). Returns the validate median.
fn respond_rows(ctx: &Ctx, m: &mut Metrics) -> Result<f64, String> {
    let designs = Designs::load(&ctx.root)?;
    let state = SharedState::new(None, false).map_err(|e| e.to_string())?;
    // Fresh frame rates: every request gets ones no earlier call used.
    let mut next = 1000u32;
    let mut fresh = |k: u32| -> Vec<Fps> {
        next += k;
        (next - k..next).map(Fps::hundredths).collect()
    };
    let mut validate_ms = 0.0;
    for kind in [
        "validate", "estimate", "sweep", "pareto", "search", "simulate", "stats",
    ] {
        let mut samples = Vec::new();
        for i in 0..=REPS {
            let design = if i % 2 == 0 {
                Design::Quickstart
            } else {
                Design::Edgaze
            };
            let req = match kind {
                "validate" => Req::Validate(design),
                "estimate" => Req::Estimate(design, fresh(1)[0]),
                "sweep" => Req::Sweep(design, fresh(16)),
                "pareto" => Req::Pareto(design, fresh(8)),
                "search" => Req::Search(design, fresh(8), i as u64),
                "simulate" => Req::Simulate(design, 1_000 + i as u64),
                _ => Req::Stats,
            };
            let request = parse_request(&designs.render(&req, 1)).map_err(|e| e.message)?;
            let t = Instant::now();
            let (lines, _) = state.respond(&request);
            let dt = t.elapsed().as_secs_f64() * 1e3;
            if lines.iter().any(|l| l.contains("\"frame\":\"error\"")) {
                return Err(format!("respond {kind}: error frame {:.200}", lines[0]));
            }
            // The first call warms the state's caches.
            if i > 0 {
                samples.push(dt);
            }
        }
        let med = stats::median(&samples);
        if kind == "validate" {
            validate_ms = med;
        }
        m.put(format!("serve.respond_ms.{kind}"), med, "ms");
    }
    Ok(validate_ms)
}

/// The wire codec: parsing an Ed-Gaze estimate request line and
/// serializing its result frame, microseconds per call.
fn protocol_rows(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    const CALLS: u32 = 20;
    let designs = Designs::load(&ctx.root)?;
    let line = designs.render(&Req::Estimate(Design::Edgaze, Fps::hundredths(2000)), 1);
    let parse = stats::time_median_ms(REPS, || {
        for _ in 0..CALLS {
            std::hint::black_box(parse_request(std::hint::black_box(&line)).expect("parses"));
        }
    });
    m.put(
        "protocol.parse_request_us",
        parse * 1e3 / f64::from(CALLS),
        "us",
    );
    let report = edgaze_camj()
        .into_validated()
        .estimate()
        .map_err(|e| e.to_string())?;
    let frame = Frame::result(serde_json::to_value(&report)).with_id(1);
    let ser = stats::time_median_ms(REPS, || {
        for _ in 0..CALLS {
            std::hint::black_box(serialize_frame(std::hint::black_box(&frame)));
        }
    });
    m.put(
        "protocol.serialize_frame_us",
        ser * 1e3 / f64::from(CALLS),
        "us",
    );
    Ok(())
}

/// camj-obs: the disabled facade's cost bound over a 256-point sweep
/// (gated under 3 %, as the repository's sweep bench gates it), and
/// the measured cost of recording the same sweep.
fn obs_rows(m: &mut Metrics) -> Result<(), String> {
    let grids = explore::Grids::new();
    let sweep: &Sweep = &grids.g256;
    let run = || {
        let cache = EstimateCache::shared();
        std::hint::black_box(
            Explorer::serial()
                .sweep_incremental(sweep, &cache, explore::build_point)
                .ok_count(),
        );
    };
    run();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut events = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        run();
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        let session = camj_obs::ObsSession::begin();
        let t = Instant::now();
        run();
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        events = session.finish().event_count();
    }
    let plain_ms = stats::median(&plain);
    m.put(
        "obs.traced_overhead_fraction",
        stats::median(&traced) / plain_ms - 1.0,
        "ratio",
    );

    // Price one disabled site: the recorder is installed but no session
    // is live, so this walks the path every untraced call takes.
    const ITERS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..ITERS {
        let _g = obs_core::span(std::hint::black_box("bench.disabled.span"));
        obs_core::counter(
            std::hint::black_box("bench.disabled.counter"),
            std::hint::black_box(i),
            1,
        );
    }
    let site_ns = t.elapsed().as_secs_f64() * 1e9 / (2 * ITERS) as f64;
    let fraction = events as f64 * site_ns / (plain_ms * 1e6);
    if fraction >= DISABLED_OVERHEAD_BUDGET {
        return Err(format!(
            "disabled observability facade costs {:.2}% of a sweep (budget {:.0}%)",
            fraction * 100.0,
            DISABLED_OVERHEAD_BUDGET * 100.0
        ));
    }
    m.put("obs.disabled_overhead_fraction", fraction, "ratio");
    Ok(())
}
