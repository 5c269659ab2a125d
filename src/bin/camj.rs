//! `camj` — estimate, sweep, validate, and export sensor designs from
//! declarative JSON descriptions, without recompiling.
//!
//! ```text
//! camj list
//! camj export <workload> [--out FILE]
//! camj validate <file>...
//! camj estimate --design FILE [--fps N] [--json] [--stats]
//! camj simulate --design FILE [--seed N] [--samples N] [--fps N] [--stimulus SPEC] [--json] [--stats]
//! camj sweep --design FILE [--fps A,B,C] [--format json|csv] [--no-cache]
//! camj pareto --design FILE [--fps A,B,C] [--objectives O,O,...]
//!             [--max-density X] [--max-latency-ms X] [--max-energy-pj X]
//!             [--format json|csv]
//! camj search --design FILE [--fps A,B,C] [--population N] [--generations N]
//!             [--budget N] [--seed N] [--format json|csv]
//! camj serve [--listen ADDR | --stdio] [--cache-dir DIR]
//!            [--workers N] [--queue N]
//! ```
//!
//! `estimate`, `simulate`, `sweep`, `pareto`, and `search` additionally accept
//! `--trace FILE` (Chrome trace-event JSON; the `CAMJ_TRACE`
//! environment variable sets a default path) and `--metrics text|json`
//! (an aggregated per-stage timing report, printed to stderr) — and
//! `--connect ADDR`, which sends the request to a running `camj serve`
//! daemon (sharing its warm estimate cache) instead of estimating
//! locally.
//!
//! Exit codes: 0 success, 1 validation/model failure (including any
//! captured per-point panic in sweep/pareto/search results), 2 usage
//! or I/O error. All output is deterministic — CI diffs `camj
//! estimate` against a committed snapshot. Tracing never changes
//! stdout: the recording drains to the side channels above.

use std::fs;
use std::process::ExitCode;
use std::sync::Arc;

use camj_core::energy::{EstimateReport, ValidatedModel};
use camj_core::functional::Stimulus;
use camj_desc::DesignDesc;
use camj_explore::{
    Constraint, EstimateCache, Explorer, Objective, ParetoQuery, SearchSpec, Sweep, SweepFormat,
};
use camj_obs::ObsSession;
use camj_serve::protocol::{ConstraintsReq, FrameKind, Request, RequestKind};
use camj_serve::ServeConfig;

const USAGE: &str = "\
camj — declarative energy estimation for in-sensor visual computing

USAGE:
    camj list
        List the built-in workloads available to `export`.
    camj export <workload> [--out FILE]
        Write a built-in workload's design description (JSON) to stdout
        or FILE.
    camj validate <file>...
        Parse, validate, and type-check one or more descriptions.
    camj estimate --design FILE [--fps N] [--json] [--stats]
        Estimate per-frame energy for a description (optionally
        overriding its frame rate). --stats runs the estimate through a
        fresh estimate cache and reports its hit/miss line.
    camj simulate --design FILE [--seed N] [--samples N] [--fps N] [--stimulus SPEC] [--json] [--stats]
        Noise-aware functional simulation of one frame: renders the
        stimulus (uniform:<level>, gradient:<low>,<high>, or
        image:<path> for a PGM/PPM file; default: the description's
        `stimulus` block, else gradient:0.1,0.9) at the input stage's
        resolution, injects each analog stage's noise sources with the
        seeded deterministic RNG (default seed 42), applies ADC
        quantization, executes the mapped digital DAG on the frame, and
        reports per-stage SNR, task-level metrics (MSE/RMSE/PSNR and
        centroid error at the DAG sink), plus digests pinning the
        analog output and the DAG sink bit-for-bit. Identical across
        runs and thread counts. --samples N (default 1, max 1024) runs
        a Monte-Carlo batch over seeds seed..seed+N and reports
        per-stage mean ± σ instead.
    camj sweep --design FILE [--fps A,B,C] [--format json|csv] [--no-cache]
        Sweep frame-rate targets (from --fps, or the description's
        `sweep.fps` list) through the incremental estimation engine.
        --format selects machine-readable output (--json is shorthand
        for --format json); --no-cache opts out of the cross-point
        estimate cache and runs the plain staged pipeline instead.
    camj pareto --design FILE [--fps A,B,C] [--objectives O,O,...]
                [--max-density X] [--max-latency-ms X] [--max-energy-pj X]
                [--format json|csv]
        Multi-objective Pareto exploration over the frame-rate grid.
        Objectives (minimised): total_energy, delay, power_density,
        snr, category:<LABEL>, stage:<name>, noise:<unit>,
        mc_snr:<samples> (Monte-Carlo mean output noise RMS),
        accuracy:<mse|rmse|centroid> (task-level error of the design's
        stimulus pushed through the full functional pipeline); defaults
        come from the description's `sweep.objectives` (falling back
        to total_energy,power_density). Constraint flags override the
        description's `sweep.constraints`; violating points are pruned
        mid-estimate, skipping their remaining energy kernels.
    camj search --design FILE [--fps A,B,C] [--objectives O,O,...]
                [--population N] [--generations N] [--budget N] [--seed N]
                [--max-density X] [--max-latency-ms X] [--max-energy-pj X]
                [--format json|csv]
        Adaptive frontier search: approximates the pareto frontier on
        grids too large to enumerate, spending gated evaluations only
        near the frontier (successive-halving warm-up + evolutionary
        crossover/mutation over the axis grid). Defaults come from the
        description's `sweep.search` block; a fixed --seed reproduces
        the run byte-identically across repeat runs and thread counts.
        Small grids fall back to exact cartesian evaluation.

    camj serve [--listen ADDR | --stdio] [--cache-dir DIR]
               [--workers N] [--queue N]
        Run the estimation daemon: newline-delimited JSON requests
        (validate/estimate/simulate/sweep/pareto/search/stats/
        shutdown) over TCP (default 127.0.0.1:0; the bound address is
        printed to stderr) or stdin/stdout with --stdio. All requests
        share one warm estimate cache; --cache-dir adds a persistent
        on-disk tier that survives restarts. --workers (default 4)
        sizes the execution pool, --queue (default 64) bounds the job
        queue (full queue = backpressure on readers). --trace and
        --metrics record the whole daemon run.

    sweep, pareto, and search accept --threads N to pin the worker
    count (equivalent to RAYON_NUM_THREADS=N; N must be positive).

    estimate, simulate, sweep, pareto, and search accept
    --connect ADDR to run against a `camj serve` daemon instead of
    estimating locally: the design file is sent inline, the daemon's
    shared cache does the work, and the result JSON prints to stdout.

OBSERVABILITY (estimate, simulate, sweep, pareto, search, serve):
    --trace FILE
        Record the command as Chrome trace-event JSON, loadable in
        Perfetto or chrome://tracing. The CAMJ_TRACE environment
        variable supplies a default path when the flag is absent.
    --metrics text|json
        Print an aggregated report (per-stage wall time, cache and
        kernel counters) to stderr after the command, so stdout stays
        exactly the command's own output.
    --stats
        estimate/simulate only: attach an estimate cache and print its
        hit/miss line (sweep and pareto always report cache stats).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "list" => cmd_list(),
        "export" => cmd_export(rest),
        "validate" => cmd_validate(rest),
        "estimate" => cmd_estimate(rest),
        "simulate" => cmd_simulate(rest),
        "sweep" => cmd_sweep(rest),
        "pareto" => cmd_pareto(rest),
        "search" => cmd_search(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown subcommand '{other}'\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------

/// Parsed `--flag value` / `--switch` arguments plus positionals.
#[derive(Default)]
struct Flags {
    design: Option<String>,
    fps: Option<String>,
    out: Option<String>,
    format: Option<String>,
    seed: Option<String>,
    samples: Option<String>,
    stimulus: Option<String>,
    objectives: Option<String>,
    max_density: Option<String>,
    max_latency_ms: Option<String>,
    max_energy_pj: Option<String>,
    threads: Option<String>,
    population: Option<String>,
    generations: Option<String>,
    budget: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    listen: Option<String>,
    cache_dir: Option<String>,
    workers: Option<String>,
    queue: Option<String>,
    connect: Option<String>,
    json: bool,
    no_cache: bool,
    stats: bool,
    stdio: bool,
    fault_injection: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    let value_of = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--design" => flags.design = Some(value_of("--design", &mut it)?),
            "--fps" => flags.fps = Some(value_of("--fps", &mut it)?),
            "--out" => flags.out = Some(value_of("--out", &mut it)?),
            "--format" => flags.format = Some(value_of("--format", &mut it)?),
            "--seed" => flags.seed = Some(value_of("--seed", &mut it)?),
            "--samples" => flags.samples = Some(value_of("--samples", &mut it)?),
            "--stimulus" => flags.stimulus = Some(value_of("--stimulus", &mut it)?),
            "--objectives" => flags.objectives = Some(value_of("--objectives", &mut it)?),
            "--max-density" => flags.max_density = Some(value_of("--max-density", &mut it)?),
            "--max-latency-ms" => {
                flags.max_latency_ms = Some(value_of("--max-latency-ms", &mut it)?);
            }
            "--max-energy-pj" => {
                flags.max_energy_pj = Some(value_of("--max-energy-pj", &mut it)?);
            }
            "--threads" => flags.threads = Some(value_of("--threads", &mut it)?),
            "--population" => flags.population = Some(value_of("--population", &mut it)?),
            "--generations" => flags.generations = Some(value_of("--generations", &mut it)?),
            "--budget" => flags.budget = Some(value_of("--budget", &mut it)?),
            "--trace" => flags.trace = Some(value_of("--trace", &mut it)?),
            "--metrics" => flags.metrics = Some(value_of("--metrics", &mut it)?),
            "--listen" => flags.listen = Some(value_of("--listen", &mut it)?),
            "--cache-dir" => flags.cache_dir = Some(value_of("--cache-dir", &mut it)?),
            "--workers" => flags.workers = Some(value_of("--workers", &mut it)?),
            "--queue" => flags.queue = Some(value_of("--queue", &mut it)?),
            "--connect" => flags.connect = Some(value_of("--connect", &mut it)?),
            "--json" => flags.json = true,
            "--no-cache" => flags.no_cache = true,
            "--stats" => flags.stats = true,
            "--stdio" => flags.stdio = true,
            "--fault-injection" => flags.fault_injection = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'"));
            }
            positional => flags.positional.push(positional.to_owned()),
        }
    }
    Ok(flags)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

// ---------------------------------------------------------------------
// Observability wiring
// ---------------------------------------------------------------------

/// How `--metrics` renders the aggregated report.
#[derive(Clone, Copy)]
enum MetricsFormat {
    Text,
    Json,
}

/// One command's recording session (if any) plus its export targets.
struct Obs {
    session: Option<ObsSession>,
    trace_path: Option<String>,
    metrics: Option<MetricsFormat>,
}

/// Starts a recording session when `--trace`, `CAMJ_TRACE`, or
/// `--metrics` asks for one. Otherwise the facade stays disabled and
/// every instrumentation site costs a single atomic load.
fn obs_begin(flags: &Flags) -> Result<Obs, String> {
    let trace_path = flags
        .trace
        .clone()
        .or_else(|| std::env::var("CAMJ_TRACE").ok().filter(|p| !p.is_empty()));
    let metrics = match flags.metrics.as_deref() {
        None => None,
        Some("text") => Some(MetricsFormat::Text),
        Some("json") => Some(MetricsFormat::Json),
        Some(other) => return Err(format!("--metrics needs 'text' or 'json', got '{other}'")),
    };
    let session = (trace_path.is_some() || metrics.is_some()).then(ObsSession::begin);
    Ok(Obs {
        session,
        trace_path,
        metrics,
    })
}

/// Finishes the session (if one ran): writes the Chrome trace file and
/// prints the metrics report to stderr, leaving stdout exactly what the
/// command printed. Returns `code` unless an export failed.
fn obs_finish(obs: Obs, code: ExitCode) -> ExitCode {
    let Some(session) = obs.session else {
        return code;
    };
    let recording = session.finish();
    if let Some(path) = &obs.trace_path {
        if let Err(e) = fs::write(path, recording.chrome_trace_json()) {
            eprintln!("error: could not write trace {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("trace: wrote {path} ({} events)", recording.event_count());
    }
    match obs.metrics {
        None => {}
        Some(MetricsFormat::Text) => eprint!("{}", recording.metrics().to_text()),
        Some(MetricsFormat::Json) => eprintln!("{}", recording.metrics().to_json()),
    }
    code
}

// ---------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------

fn cmd_list() -> ExitCode {
    println!("built-in workloads (usable with `camj export <name>`):");
    for b in camj_workloads::describe::builtins() {
        println!("  {:<12} {}", b.name, b.summary);
    }
    ExitCode::SUCCESS
}

fn cmd_export(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let [name] = flags.positional.as_slice() else {
        return usage_error("export takes exactly one workload name");
    };
    let desc = match camj_workloads::describe::export(name) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = match desc.to_json_pretty() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &flags.out {
        None => print!("{json}"),
        Some(path) => {
            if let Err(e) = fs::write(path, &json) {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    if flags.positional.is_empty() {
        return usage_error("validate needs at least one description file");
    }
    let mut failures = 0usize;
    for path in &flags.positional {
        match load_design(path, None) {
            Ok((desc, _model)) => {
                println!("{path}: OK ({}, fps {})", desc.name, desc.fps);
            }
            Err(message) => {
                failures += 1;
                println!("{path}: FAILED");
                for line in message.lines() {
                    println!("    {line}");
                }
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{failures} of {} description(s) failed",
            flags.positional.len()
        );
        ExitCode::FAILURE
    }
}

fn cmd_estimate(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span("cli.estimate");
        run_estimate(&flags)
    };
    obs_finish(obs, code)
}

fn run_estimate(flags: &Flags) -> ExitCode {
    if flags.connect.is_some() {
        return run_connected(flags, RequestKind::Estimate);
    }
    let Some(path) = &flags.design else {
        return usage_error("estimate needs --design FILE");
    };
    let fps_override = match flags.fps.as_deref().map(parse_fps_single) {
        None => None,
        Some(Ok(v)) => Some(v),
        Some(Err(e)) => return usage_error(&e),
    };
    let (desc, model) = match load_design(path, fps_override) {
        Ok(x) => x,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    // --stats: run the estimate through a fresh cross-point cache so
    // the hit/miss line sweep prints is available for one-shot runs
    // too (all misses on a cold cache — the line names the shard
    // population and lookup counts).
    let cache = flags.stats.then(EstimateCache::shared);
    let model = match &cache {
        Some(cache) => model.with_cache(Arc::clone(cache)),
        None => model,
    };
    let report = match model.estimate() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: estimation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: could not serialize the report: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print_report(&desc, model.fps(), &report);
    }
    print_cache_line(cache.as_ref(), flags.json);
    ExitCode::SUCCESS
}

/// The `--stats` cache line: stdout for human output, stderr under
/// `--json` so machine-readable stdout stays pure JSON.
fn print_cache_line(cache: Option<&Arc<EstimateCache>>, json: bool) {
    if let Some(cache) = cache {
        if json {
            eprintln!("cache: {}", cache.stats());
        } else {
            println!("cache: {}", cache.stats());
        }
    }
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span("cli.simulate");
        run_simulate(&flags)
    };
    obs_finish(obs, code)
}

fn run_simulate(flags: &Flags) -> ExitCode {
    if flags.connect.is_some() {
        return run_connected(flags, RequestKind::Simulate);
    }
    let Some(path) = &flags.design else {
        return usage_error("simulate needs --design FILE");
    };
    if let [stray, ..] = flags.positional.as_slice() {
        return usage_error(&format!("simulate takes no positional argument '{stray}'"));
    }
    if flags.out.is_some() {
        return usage_error("simulate prints to stdout; redirect instead of passing --out");
    }
    if flags.format.is_some() {
        return usage_error("simulate has no --format; use --json for machine-readable output");
    }
    if flags.no_cache
        || flags.objectives.is_some()
        || flags.max_density.is_some()
        || flags.max_latency_ms.is_some()
        || flags.max_energy_pj.is_some()
    {
        return usage_error(
            "simulate takes none of --no-cache/--objectives/--max-*; those are sweep/pareto flags",
        );
    }
    let seed: u64 = match flags.seed.as_deref() {
        None => 42,
        Some(text) => match text.parse() {
            Ok(v) => v,
            Err(_) => {
                return usage_error(&format!("--seed needs an unsigned integer, got '{text}'"))
            }
        },
    };
    let samples: u32 = match flags.samples.as_deref() {
        None => 1,
        Some(text) => match text.parse() {
            Ok(v) if (1..=1024).contains(&v) => v,
            _ => {
                return usage_error(&format!(
                    "--samples needs an integer in 1..=1024, got '{text}'"
                ))
            }
        },
    };
    let flag_stimulus = match flags.stimulus.as_deref() {
        None => None,
        Some(text) => match text.parse::<Stimulus>() {
            Ok(s) => Some(s),
            Err(e) => return usage_error(&e),
        },
    };
    let fps_override = match flags.fps.as_deref().map(parse_fps_single) {
        None => None,
        Some(Ok(v)) => Some(v),
        Some(Err(e)) => return usage_error(&e),
    };
    let (desc, model) = match load_design(path, fps_override) {
        Ok(x) => x,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    // --stimulus overrides the description's own stimulus block, which
    // load_design already attached to the model.
    let stimulus = flag_stimulus.unwrap_or_else(|| model.stimulus().clone());
    // --stats: the frame plan's delay solve goes through the estimate
    // cache when one is attached, so the line reports the elastic
    // lookups this simulation actually made.
    let cache = flags.stats.then(EstimateCache::shared);
    let model = match &cache {
        Some(cache) => model.with_cache(Arc::clone(cache)),
        None => model,
    };
    if samples > 1 {
        // Monte-Carlo batch: seeds seed..seed+N through one shared
        // frame plan, aggregated per stage. --samples 1 prints the
        // single-frame report below (the same frame, unaggregated).
        let seeds: Vec<u64> = (0..u64::from(samples))
            .map(|i| seed.wrapping_add(i))
            .collect();
        let mc = match model.simulate_frames(&seeds, &stimulus) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: functional simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if flags.json {
            match serde_json::to_string_pretty(&mc) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("error: could not serialize the report: {e}");
                    return ExitCode::FAILURE;
                }
            }
            print_cache_line(cache.as_ref(), true);
            return ExitCode::SUCCESS;
        }
        println!(
            "== simulate: {} @ {} FPS ({} seeds {}.., stimulus {}) ==",
            desc.name,
            model.fps(),
            samples,
            seed,
            mc.stimulus
        );
        println!("frame: {}x{}x{} pixels", mc.width, mc.height, mc.channels);
        if mc.stages.is_empty() {
            println!("analog chain: no stages (nothing to simulate)");
        } else {
            println!("{:<24} {:>22} {:>18}", "stage", "noise rms (FS)", "SNR dB");
            for stage in &mc.stages {
                println!(
                    "{:<24} {:>14.6} ±{:.1e} {:>18}",
                    stage.unit,
                    stage.noise_rms_mean,
                    stage.noise_rms_std,
                    stage.snr_db_mean.map_or_else(
                        || "-".to_owned(),
                        |db| format!("{db:.2} ±{:.2}", stage.snr_db_std.unwrap_or(0.0))
                    ),
                );
            }
        }
        println!(
            "output: mean {:.6}, noise rms {:.6} ±{:.1e}{}",
            mc.output.mean,
            mc.output.noise_rms_mean,
            mc.output.noise_rms_std,
            mc.output.snr_db_mean.map_or_else(String::new, |db| format!(
                ", SNR {db:.2} ±{:.2} dB",
                mc.output.snr_db_std.unwrap_or(0.0)
            )),
        );
        if let Some(dag) = &mc.dag {
            println!(
                "digital DAG (sink {}): {:<12} {:>20} {:>18}",
                dag.sink, "stage", "error rms (FS)", "SNR dB"
            );
            for stage in &dag.stages {
                println!(
                    "  {:<36} {:>12.6} ±{:.1e} {:>18}",
                    stage.stage,
                    stage.error_rms_mean,
                    stage.error_rms_std,
                    stage.snr_db_mean.map_or_else(
                        || "-".to_owned(),
                        |db| format!("{db:.2} ±{:.2}", stage.snr_db_std.unwrap_or(0.0))
                    ),
                );
            }
            println!(
                "task: mse {:.6e} ±{:.1e}, rmse {:.6} ±{:.1e}, psnr {}, centroid err {:.6} ±{:.1e}",
                dag.metrics.mse_mean,
                dag.metrics.mse_std,
                dag.metrics.rmse_mean,
                dag.metrics.rmse_std,
                dag.metrics.psnr_db_mean.map_or_else(
                    || "-".to_owned(),
                    |db| format!("{db:.2} ±{:.2} dB", dag.metrics.psnr_db_std.unwrap_or(0.0))
                ),
                dag.metrics.centroid_err_mean,
                dag.metrics.centroid_err_std,
            );
            println!("dag digest: {}", dag.digests[0]);
        }
        println!("digest: {}", mc.digests[0]);
        print_cache_line(cache.as_ref(), false);
        return ExitCode::SUCCESS;
    }
    let report = match model.simulate_frame(seed, &stimulus) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: functional simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: could not serialize the report: {e}");
                return ExitCode::FAILURE;
            }
        }
        print_cache_line(cache.as_ref(), true);
        return ExitCode::SUCCESS;
    }
    println!(
        "== simulate: {} @ {} FPS (seed {}, stimulus {}) ==",
        desc.name,
        model.fps(),
        report.seed,
        report.stimulus
    );
    println!(
        "frame: {}x{}x{} pixels",
        report.width, report.height, report.channels
    );
    if report.stages.is_empty() {
        println!("analog chain: no stages (nothing to simulate)");
    } else {
        println!("{:<24} {:>16} {:>12}", "stage", "noise rms (FS)", "SNR dB");
        for stage in &report.stages {
            println!(
                "{:<24} {:>16.6} {:>12}",
                stage.unit,
                stage.noise_rms,
                stage
                    .snr_db
                    .map_or_else(|| "-".to_owned(), |db| format!("{db:.2}")),
            );
        }
    }
    println!(
        "output: mean {:.6}, range [{:.6}, {:.6}], noise rms {:.6}{}",
        report.output.mean,
        report.output.min,
        report.output.max,
        report.output.noise_rms,
        report
            .output
            .snr_db
            .map_or_else(String::new, |db| format!(", SNR {db:.2} dB")),
    );
    if let Some(dag) = &report.dag {
        println!(
            "digital DAG (sink {}): {:<12} {:>16} {:>12}",
            dag.sink, "stage", "error rms (FS)", "SNR dB"
        );
        for stage in &dag.stages {
            println!(
                "  {:<36} {:>16.6} {:>12}",
                stage.stage,
                stage.error_rms,
                stage
                    .snr_db
                    .map_or_else(|| "-".to_owned(), |db| format!("{db:.2}")),
            );
        }
        println!(
            "task: mse {:.6e}, rmse {:.6}, psnr {}, centroid err {:.6}",
            dag.metrics.mse,
            dag.metrics.rmse,
            dag.metrics
                .psnr_db
                .map_or_else(|| "-".to_owned(), |db| format!("{db:.2} dB")),
            dag.metrics.centroid_err,
        );
        println!("dag digest: {}", dag.digest);
    }
    println!("digest: {}", report.digest);
    print_cache_line(cache.as_ref(), false);
    ExitCode::SUCCESS
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span("cli.sweep");
        run_sweep(&flags)
    };
    obs_finish(obs, code)
}

fn run_sweep(flags: &Flags) -> ExitCode {
    if flags.connect.is_some() {
        return run_connected(flags, RequestKind::Sweep);
    }
    if flags.stats {
        return usage_error(
            "--stats is an estimate/simulate flag; sweep and pareto always report cache stats",
        );
    }
    let Some(path) = &flags.design else {
        return usage_error("sweep needs --design FILE");
    };
    if let Err(e) = apply_threads(flags) {
        return usage_error(&e);
    }
    let (desc, model) = match load_design(path, None) {
        Ok(x) => x,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let targets: Vec<f64> = match (&flags.fps, &desc.sweep) {
        (Some(list), _) => match list.split(',').map(parse_fps_single).collect() {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        },
        (None, Some(sweep)) => sweep.fps.clone(),
        (None, None) => {
            return usage_error(
                "sweep needs frame-rate targets: pass --fps A,B,C or add a `sweep.fps` \
                 list to the description",
            )
        }
    };
    let format = match (&flags.format, flags.json) {
        (Some(text), _) => match text.parse::<SweepFormat>() {
            Ok(f) => f,
            Err(e) => return usage_error(&e),
        },
        (None, true) => SweepFormat::Json,
        (None, false) => SweepFormat::Human,
    };
    // Default path: the incremental engine — one shared cross-point
    // cache, models built once per planned group, kernels replayed on
    // fingerprint hits. `--no-cache` falls back to the plain staged
    // pipeline (still model-cached within the sweep, as in PR 1).
    let fault_fps = injected_fault_fps();
    let (results, cache_stats) = if flags.no_cache {
        (Explorer::new().sweep_fps(&model, targets), None)
    } else {
        let sweep = Sweep::new().fps_targets(targets);
        let cache = EstimateCache::shared();
        let results = Explorer::new().sweep_incremental(&sweep, &cache, |point| {
            let fps = point.fps("fps");
            fault_check(fault_fps, fps);
            Ok(model.with_fps(fps))
        });
        (results, Some(cache.stats()))
    };
    match format {
        SweepFormat::Json => println!("{}", results.to_json(cache_stats.as_ref())),
        SweepFormat::Csv => print!("{}", results.to_csv()),
        SweepFormat::Human => {
            println!("== sweep: {} ({} points) ==", desc.name, results.len());
            println!(
                "{:>10}  {:>16}  {:>14}",
                "fps", "total pJ/frame", "pJ/pixel"
            );
            for o in results.outcomes() {
                let fps = o.point.fps("fps");
                match &o.result {
                    Ok(r) => println!(
                        "{:>10}  {:>16.3}  {:>14.4}",
                        fps,
                        r.total().picojoules(),
                        r.energy_per_pixel().picojoules()
                    ),
                    Err(e) => println!("{fps:>10}  infeasible: {}", e.message()),
                }
            }
            if let Some((point, best)) = results.min_energy() {
                println!(
                    "minimum: {:.3} pJ/frame at {point}",
                    best.total().picojoules()
                );
            }
            if let Some(stats) = cache_stats {
                println!("cache: {stats}");
            }
        }
    }
    let panicked = results
        .outcomes()
        .iter()
        .filter(|o| matches!(&o.result, Err(e) if e.is_panic()))
        .count();
    finish_with_panic_check(panicked, "sweep")
}

fn cmd_pareto(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span("cli.pareto");
        run_pareto(&flags)
    };
    obs_finish(obs, code)
}

fn run_pareto(flags: &Flags) -> ExitCode {
    if flags.connect.is_some() {
        return run_connected(flags, RequestKind::Pareto);
    }
    if flags.stats {
        return usage_error(
            "--stats is an estimate/simulate flag; sweep and pareto always report cache stats",
        );
    }
    let Some(path) = &flags.design else {
        return usage_error("pareto needs --design FILE");
    };
    if let [stray, ..] = flags.positional.as_slice() {
        return usage_error(&format!("pareto takes no positional argument '{stray}'"));
    }
    if flags.no_cache {
        return usage_error(
            "--no-cache is not supported by pareto (pruning requires the shared \
             estimate cache); use `camj sweep --no-cache` for uncached sweeps",
        );
    }
    if flags.out.is_some() {
        return usage_error("pareto prints to stdout; redirect instead of passing --out");
    }
    if let Err(e) = apply_threads(flags) {
        return usage_error(&e);
    }
    let (desc, model) = match load_design(path, None) {
        Ok(x) => x,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let spec = desc.sweep.as_ref();
    let targets: Vec<f64> = match (&flags.fps, spec) {
        (Some(list), _) => match list.split(',').map(parse_fps_single).collect() {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        },
        (None, Some(sweep)) if !sweep.fps.is_empty() => sweep.fps.clone(),
        _ => {
            return usage_error(
                "pareto needs frame-rate targets: pass --fps A,B,C or add a `sweep.fps` \
                 list to the description",
            )
        }
    };
    // Objectives: --objectives beats the description's sweep.objectives
    // beats the (total_energy, power_density) default.
    let objective_names: Vec<String> = match (&flags.objectives, spec) {
        (Some(list), _) => list.split(',').map(|s| s.trim().to_owned()).collect(),
        (None, Some(sweep)) => sweep
            .objectives
            .clone()
            .unwrap_or_else(default_objective_names),
        (None, None) => default_objective_names(),
    };
    let objectives: Vec<Objective> = {
        let mut parsed = Vec::with_capacity(objective_names.len());
        for name in &objective_names {
            match name.parse::<Objective>() {
                Ok(o) => parsed.push(o),
                Err(e) => return usage_error(&e),
            }
        }
        parsed
    };
    if objectives.is_empty() {
        return usage_error("pareto needs at least one objective");
    }
    let mut query = ParetoQuery::new(objectives);
    // Constraints: any constraint flag overrides the description's
    // whole `sweep.constraints` block (flags and block do not mix).
    let flagged = [
        &flags.max_density,
        &flags.max_latency_ms,
        &flags.max_energy_pj,
    ]
    .iter()
    .any(|f| f.is_some());
    if flagged {
        let budgets = [
            (&flags.max_density, "--max-density"),
            (&flags.max_latency_ms, "--max-latency-ms"),
            (&flags.max_energy_pj, "--max-energy-pj"),
        ];
        for (value, flag) in budgets {
            let Some(text) = value else { continue };
            let budget = match text.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => v,
                _ => return usage_error(&format!("{flag} needs a positive number, got '{text}'")),
            };
            query = query.constrain(match flag {
                "--max-density" => Constraint::MaxPowerDensity(budget),
                "--max-latency-ms" => Constraint::MaxDigitalLatency(budget),
                _ => Constraint::MaxTotalEnergy(budget),
            });
        }
    } else if let Some(constraints) = spec.and_then(|s| s.constraints.as_ref()) {
        if let Some(v) = constraints.max_power_density_mw_per_mm2 {
            query = query.constrain(Constraint::MaxPowerDensity(v));
        }
        if let Some(v) = constraints.max_digital_latency_ms {
            query = query.constrain(Constraint::MaxDigitalLatency(v));
        }
        if let Some(v) = constraints.max_total_energy_pj {
            query = query.constrain(Constraint::MaxTotalEnergy(v));
        }
    }
    let format = match (&flags.format, flags.json) {
        (Some(text), _) => match text.parse::<SweepFormat>() {
            Ok(f) => f,
            Err(e) => return usage_error(&e),
        },
        (None, true) => SweepFormat::Json,
        (None, false) => SweepFormat::Human,
    };
    let sweep = Sweep::new().fps_targets(targets);
    let cache = EstimateCache::shared();
    let fault_fps = injected_fault_fps();
    let results = Explorer::new().pareto(&sweep, &cache, &query, |point| {
        let fps = point.fps("fps");
        fault_check(fault_fps, fps);
        Ok(model.with_fps(fps))
    });
    match format {
        SweepFormat::Json => println!("{}", results.to_json(Some(&cache.stats()))),
        SweepFormat::Csv => print!("{}", results.to_csv()),
        SweepFormat::Human => {
            println!(
                "== pareto: {} ({} points, {} objectives) ==",
                desc.name,
                results.total_points(),
                query.objectives().len()
            );
            for constraint in query.constraints().constraints() {
                println!("constraint: {constraint}");
            }
            let keys: Vec<String> = query.objectives().iter().map(Objective::key).collect();
            print!("{:>10}", "fps");
            for key in &keys {
                print!("  {key:>24}");
            }
            println!();
            for entry in results.frontier() {
                print!("{:>10}", entry.point.fps("fps"));
                for value in entry.metrics.values() {
                    print!("  {value:>24.4}");
                }
                println!();
            }
            println!(
                "frontier: {} point(s); dominated: {}; pruned: {}; errors: {}",
                results.frontier().len(),
                results.dominated_count(),
                results.pruned().len(),
                results.errors().len()
            );
            for pruned in results.pruned() {
                println!(
                    "  pruned [{}]: violates {} after {} kernel(s)",
                    pruned.point, pruned.constraint, pruned.kernels_done
                );
            }
            for (point, error) in results.errors() {
                println!("  error [{point}]: {}", error.message());
            }
            println!("prune: {}", results.stats());
            println!("cache: {}", cache.stats());
        }
    }
    let panicked = results
        .errors()
        .iter()
        .filter(|(_, e)| e.is_panic())
        .count();
    finish_with_panic_check(panicked, "pareto")
}

fn cmd_search(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span("cli.search");
        run_search(&flags)
    };
    obs_finish(obs, code)
}

fn run_search(flags: &Flags) -> ExitCode {
    if flags.connect.is_some() {
        return run_connected(flags, RequestKind::Search);
    }
    if flags.stats {
        return usage_error(
            "--stats is an estimate/simulate flag; sweep and pareto always report cache stats",
        );
    }
    let Some(path) = &flags.design else {
        return usage_error("search needs --design FILE");
    };
    if let [stray, ..] = flags.positional.as_slice() {
        return usage_error(&format!("search takes no positional argument '{stray}'"));
    }
    if flags.no_cache {
        return usage_error(
            "--no-cache is not supported by search (warm-up promotion requires the \
             shared estimate cache); use `camj sweep --no-cache` for uncached sweeps",
        );
    }
    if flags.out.is_some() {
        return usage_error("search prints to stdout; redirect instead of passing --out");
    }
    if let Err(e) = apply_threads(flags) {
        return usage_error(&e);
    }
    let (desc, model) = match load_design(path, None) {
        Ok(x) => x,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let spec = desc.sweep.as_ref();
    let targets: Vec<f64> = match (&flags.fps, spec) {
        (Some(list), _) => match list.split(',').map(parse_fps_single).collect() {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        },
        (None, Some(sweep)) if !sweep.fps.is_empty() => sweep.fps.clone(),
        _ => {
            return usage_error(
                "search needs frame-rate targets: pass --fps A,B,C or add a `sweep.fps` \
                 list to the description",
            )
        }
    };
    let objective_names: Vec<String> = match (&flags.objectives, spec) {
        (Some(list), _) => list.split(',').map(|s| s.trim().to_owned()).collect(),
        (None, Some(sweep)) => sweep
            .objectives
            .clone()
            .unwrap_or_else(default_objective_names),
        (None, None) => default_objective_names(),
    };
    let objectives: Vec<Objective> = {
        let mut parsed = Vec::with_capacity(objective_names.len());
        for name in &objective_names {
            match name.parse::<Objective>() {
                Ok(o) => parsed.push(o),
                Err(e) => return usage_error(&e),
            }
        }
        parsed
    };
    if objectives.is_empty() {
        return usage_error("search needs at least one objective");
    }
    let mut query = ParetoQuery::new(objectives);
    let flagged = [
        &flags.max_density,
        &flags.max_latency_ms,
        &flags.max_energy_pj,
    ]
    .iter()
    .any(|f| f.is_some());
    if flagged {
        let budgets = [
            (&flags.max_density, "--max-density"),
            (&flags.max_latency_ms, "--max-latency-ms"),
            (&flags.max_energy_pj, "--max-energy-pj"),
        ];
        for (value, flag) in budgets {
            let Some(text) = value else { continue };
            let budget = match text.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => v,
                _ => return usage_error(&format!("{flag} needs a positive number, got '{text}'")),
            };
            query = query.constrain(match flag {
                "--max-density" => Constraint::MaxPowerDensity(budget),
                "--max-latency-ms" => Constraint::MaxDigitalLatency(budget),
                _ => Constraint::MaxTotalEnergy(budget),
            });
        }
    } else if let Some(constraints) = spec.and_then(|s| s.constraints.as_ref()) {
        if let Some(v) = constraints.max_power_density_mw_per_mm2 {
            query = query.constrain(Constraint::MaxPowerDensity(v));
        }
        if let Some(v) = constraints.max_digital_latency_ms {
            query = query.constrain(Constraint::MaxDigitalLatency(v));
        }
        if let Some(v) = constraints.max_total_energy_pj {
            query = query.constrain(Constraint::MaxTotalEnergy(v));
        }
    }
    let format = match (&flags.format, flags.json) {
        (Some(text), _) => match text.parse::<SweepFormat>() {
            Ok(f) => f,
            Err(e) => return usage_error(&e),
        },
        (None, true) => SweepFormat::Json,
        (None, false) => SweepFormat::Human,
    };
    // Search knobs: description `sweep.search` defaults, flags override.
    // Description-side zeros were already rejected by validation, and
    // the counts below are pre-checked, so the builder asserts can't
    // fire from user input.
    let mut search_spec = SearchSpec::new();
    if let Some(ir) = spec.and_then(|s| s.search.as_ref()) {
        if let Some(n) = ir.population {
            search_spec = search_spec.population(clamp_to_usize(n));
        }
        if let Some(n) = ir.generations {
            search_spec = search_spec.generations(clamp_to_usize(n));
        }
        if let Some(n) = ir.seed {
            search_spec = search_spec.seed(n);
        }
        if let Some(n) = ir.budget {
            search_spec = search_spec.budget(clamp_to_usize(n));
        }
    }
    let knobs = [
        (&flags.population, "--population"),
        (&flags.generations, "--generations"),
        (&flags.budget, "--budget"),
    ];
    for (value, flag) in knobs {
        let Some(text) = value else { continue };
        let count = match text.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return usage_error(&format!("{flag} needs a positive integer, got '{text}'")),
        };
        search_spec = match flag {
            "--population" => search_spec.population(count),
            "--generations" => search_spec.generations(count),
            _ => search_spec.budget(count),
        };
    }
    if let Some(text) = flags.seed.as_deref() {
        match text.parse::<u64>() {
            Ok(n) => search_spec = search_spec.seed(n),
            Err(_) => {
                return usage_error(&format!("--seed needs an unsigned integer, got '{text}'"))
            }
        }
    }
    let sweep = Sweep::new().fps_targets(targets);
    let cache = EstimateCache::shared();
    let fault_fps = injected_fault_fps();
    let results = Explorer::new().search(&sweep, &cache, &query, &search_spec, |point| {
        let fps = point.fps("fps");
        fault_check(fault_fps, fps);
        Ok(model.with_fps(fps))
    });
    match format {
        SweepFormat::Json => println!("{}", results.to_json(Some(&cache.stats()))),
        SweepFormat::Csv => print!("{}", results.to_csv()),
        SweepFormat::Human => {
            println!(
                "== search: {} ({} grid points, {} objectives) ==",
                desc.name,
                results.grid_points(),
                query.objectives().len()
            );
            for constraint in query.constraints().constraints() {
                println!("constraint: {constraint}");
            }
            let keys: Vec<String> = query.objectives().iter().map(Objective::key).collect();
            print!("{:>10}", "fps");
            for key in &keys {
                print!("  {key:>24}");
            }
            println!();
            for entry in results.frontier() {
                print!("{:>10}", entry.point.fps("fps"));
                for value in entry.metrics.values() {
                    print!("  {value:>24.4}");
                }
                println!();
            }
            let pareto = results.pareto();
            println!(
                "frontier: {} point(s); dominated: {}; pruned: {}; errors: {}",
                results.frontier().len(),
                pareto.dominated_count(),
                pareto.pruned().len(),
                pareto.errors().len()
            );
            let termination = if results.exhaustive() {
                "exact cartesian (grid below the exhaustive threshold)".to_owned()
            } else if results.converged() {
                format!(
                    "converged after {} generation(s)",
                    results.generations_run()
                )
            } else {
                format!(
                    "stopped at the {} generation/budget cap",
                    results.generations_run()
                )
            };
            println!(
                "search: {} of {} grid points evaluated ({:.1}%); {termination}",
                results.evaluations(),
                results.grid_points(),
                results.evaluation_fraction() * 100.0
            );
            println!("prune: {}", pareto.stats());
            println!("cache: {}", cache.stats());
        }
    }
    let panicked = results
        .pareto()
        .errors()
        .iter()
        .filter(|(_, e)| e.is_panic())
        .count();
    finish_with_panic_check(panicked, "search")
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span("cli.serve");
        run_serve(&flags)
    };
    obs_finish(obs, code)
}

fn run_serve(flags: &Flags) -> ExitCode {
    if let [stray, ..] = flags.positional.as_slice() {
        return usage_error(&format!("serve takes no positional argument '{stray}'"));
    }
    if flags.stdio && flags.listen.is_some() {
        return usage_error("--stdio and --listen are mutually exclusive");
    }
    let workers = match flags.workers.as_deref() {
        None => 4,
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return usage_error(&format!("--workers needs a positive integer, got '{text}'")),
        },
    };
    let queue_capacity = match flags.queue.as_deref() {
        None => 64,
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return usage_error(&format!("--queue needs a positive integer, got '{text}'")),
        },
    };
    let config = ServeConfig {
        cache_dir: flags.cache_dir.clone().map(std::path::PathBuf::from),
        workers,
        queue_capacity,
        fault_injection: flags.fault_injection,
    };
    let served = if flags.stdio {
        camj_serve::serve_stdio(&config)
    } else {
        let addr = flags.listen.as_deref().unwrap_or("127.0.0.1:0");
        match std::net::TcpListener::bind(addr) {
            Ok(listener) => camj_serve::serve_tcp(listener, &config),
            Err(e) => {
                eprintln!("error: could not bind {addr}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// --connect: run a subcommand against a `camj serve` daemon
// ---------------------------------------------------------------------

/// Builds the protocol request a subcommand's flags describe, with the
/// design file inlined.
fn connect_request(flags: &Flags, kind: RequestKind) -> Result<Request, String> {
    if flags.stats {
        return Err(
            "--stats is local-only; the daemon's `stats` request reports cache state".into(),
        );
    }
    if flags.no_cache {
        return Err("--no-cache is local-only; the daemon always shares its cache".into());
    }
    if flags.threads.is_some() {
        return Err("--threads is local-only; worker count is the daemon's --workers".into());
    }
    if flags.format.as_deref() == Some("csv") {
        return Err("--connect prints the daemon's JSON result; --format csv is local-only".into());
    }
    let Some(path) = &flags.design else {
        return Err(format!("{} needs --design FILE", kind.as_str()));
    };
    let text = fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let design: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("could not parse {path}: {e}"))?;
    let mut request = Request::new(kind);
    request.id = 1;
    request.design = Some(design);
    if let Some(list) = &flags.fps {
        request.fps = Some(
            list.split(',')
                .map(parse_fps_single)
                .collect::<Result<Vec<f64>, String>>()?,
        );
    }
    if let Some(text) = flags.seed.as_deref() {
        request.seed = Some(
            text.parse::<u64>()
                .map_err(|_| format!("--seed needs an unsigned integer, got '{text}'"))?,
        );
    }
    if let Some(text) = flags.samples.as_deref() {
        request.samples = Some(
            text.parse::<u32>()
                .map_err(|_| format!("--samples needs an integer, got '{text}'"))?,
        );
    }
    request.stimulus = flags.stimulus.clone();
    if let Some(list) = &flags.objectives {
        request.objectives = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
    }
    let mut constraints = ConstraintsReq::default();
    let budgets = [
        (&flags.max_density, "--max-density"),
        (&flags.max_latency_ms, "--max-latency-ms"),
        (&flags.max_energy_pj, "--max-energy-pj"),
    ];
    for (value, flag) in budgets {
        let Some(text) = value else { continue };
        let budget = text
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("{flag} needs a positive number, got '{text}'"))?;
        match flag {
            "--max-density" => constraints.max_power_density_mw_per_mm2 = Some(budget),
            "--max-latency-ms" => constraints.max_digital_latency_ms = Some(budget),
            _ => constraints.max_total_energy_pj = Some(budget),
        }
    }
    if constraints.any() {
        request.constraints = Some(constraints);
    }
    let knobs = [
        (&flags.population, "--population"),
        (&flags.generations, "--generations"),
        (&flags.budget, "--budget"),
    ];
    for (value, flag) in knobs {
        let Some(text) = value else { continue };
        let count = text
            .parse::<u64>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("{flag} needs a positive integer, got '{text}'"))?;
        match flag {
            "--population" => request.population = Some(count),
            "--generations" => request.generations = Some(count),
            _ => request.budget = Some(count),
        }
    }
    Ok(request)
}

/// Sends the request to the daemon and renders its response: result
/// bodies pretty-printed to stdout, errors path-qualified to stderr.
fn run_connected(flags: &Flags, kind: RequestKind) -> ExitCode {
    let addr = flags.connect.as_deref().unwrap_or_default();
    let request = match connect_request(flags, kind) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    let frames = match camj_serve::roundtrip(addr, &request) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: could not reach the daemon at {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for frame in &frames {
        match frame.frame {
            FrameKind::Error => {
                failed = true;
                eprintln!(
                    "error[{}]: {}",
                    frame.path.as_deref().unwrap_or("request"),
                    frame.message.as_deref().unwrap_or("unspecified failure"),
                );
            }
            FrameKind::Result => {
                if let Some(body) = &frame.body {
                    match serde_json::to_string_pretty(body) {
                        Ok(json) => println!("{json}"),
                        Err(e) => {
                            eprintln!("error: could not render the result: {e}");
                            failed = true;
                        }
                    }
                }
            }
            FrameKind::Point | FrameKind::Done => {}
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------
// Per-point panic accounting (sweep/pareto/search exit codes)
// ---------------------------------------------------------------------

/// Test hook: `CAMJ_FAULT_PANIC_FPS=<fps>` makes the sweep/pareto/
/// search model-build closure panic at that frame-rate target, so the
/// captured-panic exit path can be exercised end-to-end.
fn injected_fault_fps() -> Option<f64> {
    std::env::var("CAMJ_FAULT_PANIC_FPS").ok()?.parse().ok()
}

/// Panics iff the fault-injection hook targets this frame rate.
fn fault_check(fault_fps: Option<f64>, fps: f64) {
    if fault_fps == Some(fps) {
        panic!("injected fault: fps {fps}");
    }
}

/// The shared epilogue of sweep/pareto/search: results were printed,
/// but any *captured panic* among them is a bug, not an infeasible
/// point — exit 1 with a one-line stderr summary so scripted callers
/// notice without parsing the JSON.
fn finish_with_panic_check(panicked: usize, command: &str) -> ExitCode {
    if panicked == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "error: {panicked} point(s) panicked during {command}; their result rows carry the panic message"
    );
    ExitCode::FAILURE
}

/// The objectives `camj pareto` minimises when neither `--objectives`
/// nor the description's `sweep.objectives` names any.
fn default_objective_names() -> Vec<String> {
    vec!["total_energy".to_owned(), "power_density".to_owned()]
}

/// Converts a description-file u64 knob to `usize`, saturating on
/// 32-bit hosts (the explorer caps everything by the grid size anyway).
fn clamp_to_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Applies `--threads N`: pins the worker count before any parallel
/// evaluation starts (same effect as `RAYON_NUM_THREADS=N`, but
/// programmatic). Zero is rejected rather than passed through, because
/// rayon reads zero as "derive from the environment" and the flag
/// would be silently ignored.
fn apply_threads(flags: &Flags) -> Result<(), String> {
    let Some(text) = &flags.threads else {
        return Ok(());
    };
    let n = match text.parse::<usize>() {
        Ok(n) => n,
        Err(_) => return Err(format!("--threads needs a positive integer, got '{text}'")),
    };
    if n == 0 {
        return Err(
            "--threads must be at least 1; omit the flag to derive the worker count \
             from the environment"
                .to_owned(),
        );
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| format!("could not pin the worker count: {e}"))
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

fn parse_fps_single(s: &str) -> Result<f64, String> {
    let fps = s
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("invalid FPS value '{s}'"))?;
    if !(fps.is_finite() && fps > 0.0) {
        return Err(format!("FPS must be positive and finite, got '{s}'"));
    }
    Ok(fps)
}

/// Reads, parses, validates, and builds a description file, optionally
/// overriding its frame rate. A `stimulus` block is resolved against
/// the file's directory and attached to the model, so functional
/// simulation and `accuracy:<metric>` objectives see the design's own
/// stimulus without extra flags.
fn load_design(path: &str, fps: Option<f64>) -> Result<(DesignDesc, ValidatedModel), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let mut desc = DesignDesc::from_json(&text).map_err(|e| e.to_string())?;
    if let Some(fps) = fps {
        if !(fps.is_finite() && fps > 0.0) {
            return Err(format!(
                "fps override must be positive and finite, got {fps}"
            ));
        }
        desc.fps = fps;
    }
    let mut model = desc.build().map_err(|e| e.to_string())?;
    if let Some(ir) = &desc.stimulus {
        let base = std::path::Path::new(path).parent();
        let stimulus = ir.resolve(base).map_err(|e| e.to_string())?;
        model = model.with_stimulus(stimulus);
    }
    Ok((desc, model))
}

fn print_report(desc: &DesignDesc, fps: f64, report: &EstimateReport) {
    println!("== {} @ {} FPS ==", desc.name, fps);
    println!(
        "total: {:.4} pJ/frame  ({:.4} pJ/pixel over {} input pixels)",
        report.total().picojoules(),
        report.energy_per_pixel().picojoules(),
        report.input_pixels
    );
    println!(
        "frame time: {:.4} ms = {} analog stages x {:.4} ms + {:.4} ms digital",
        report.delay.frame_time.millis(),
        report.delay.analog_stage_count,
        report.delay.analog_unit_time.millis(),
        report.delay.digital_latency.millis()
    );
    println!("breakdown by category:");
    for (category, energy) in report.breakdown.by_category() {
        if energy.joules() > 0.0 {
            println!("  {:<7} {:>14.4} pJ", category.label(), energy.picojoules());
        }
    }
    println!("breakdown by unit:");
    for item in report.breakdown.items() {
        let stage = item.stage.as_deref().unwrap_or("-");
        println!(
            "  {:<24} {:<7} stage={:<16} {:>14.4} pJ",
            item.unit,
            item.category.label(),
            stage,
            item.energy.picojoules()
        );
    }
    for layer in &report.layers {
        println!(
            "layer {:?}: {:.4} mW over {:.4} mm2{}",
            layer.layer,
            layer.power.milliwatts(),
            layer.area_mm2,
            layer
                .density_mw_per_mm2
                .map_or(String::new(), |d| format!(" -> {d:.4} mW/mm2")),
        );
    }
}
