//! `camj` — estimate, sweep, validate, and export sensor designs from
//! declarative JSON descriptions, without recompiling.
//!
//! ```text
//! camj list
//! camj export <workload> [--out FILE]
//! camj validate <file>...
//! camj estimate --design FILE [--fps N] [--json] [--stats]
//! camj simulate --design FILE [--seed N] [--samples N] [--fps N] [--stimulus SPEC] [--json] [--stats]
//! camj sweep --design FILE [--fps A,B,C] [--format json|csv]
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
//! The design subcommands parse their flags into a
//! [`camj_serve::Request`] — the daemon's wire request — and run it
//! through [`camj_serve::resolve`], the resolution path the daemon
//! itself uses; `--connect` sends that same request over the wire. This
//! file only parses flags and renders results. A flag the subcommand
//! does not read is a usage error.
//!
//! Exit codes: 0 success, 1 validation/model failure (including any
//! captured per-point panic in sweep/pareto/search results), 2 usage
//! or I/O error. All output is deterministic — CI diffs `camj
//! estimate` against a committed snapshot. Tracing never changes
//! stdout: the recording drains to the side channels above.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use camj_core::energy::{EstimateReport, ValidatedModel};
use camj_core::functional::{FrameSimReport, McFrameSimReport};
use camj_desc::ir::SweepConstraintsIr;
use camj_desc::DesignDesc;
use camj_explore::{CacheStats, EstimateCache, Objective, ParetoQuery, ParetoResults, SweepFormat};
use camj_obs::ObsSession;
use camj_serve::protocol::{FrameKind, Reject, Request, RequestKind};
use camj_serve::resolve::{self, Outcome, Plan};
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
        overriding its frame rate). --stats reports the hit/miss line
        of the fresh estimate cache the estimate runs through.
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
    camj sweep --design FILE [--fps A,B,C] [--format json|csv]
        Sweep frame-rate targets (from --fps, or the description's
        `sweep.fps` list) through the incremental estimation engine.
        --format selects machine-readable output (--json is shorthand
        for --format json).
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

    A flag the subcommand does not read is a usage error (exit 2).

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
        estimate/simulate only: print the hit/miss line of the estimate
        cache the command ran through (sweep, pareto, and search always
        report cache stats).
";

/// Set once the reader closes stdout (`camj … | head`).
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes formatted output to stdout; every command prints through
/// [`out!`] and [`outln!`], which call this, so one writer decides
/// what a failed write means. A reader that closes the pipe early ends
/// the output: later writes are dropped and the command finishes
/// quietly with its own exit code. Any other write error is fatal
/// (exit 2).
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: could not write to stdout: {e}");
            std::process::exit(2);
        }
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        out!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(&(name, takes_positionals, accepted)) =
        SUBCOMMANDS.iter().find(|(name, ..)| name == cmd)
    else {
        eprintln!("unknown subcommand '{cmd}'\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    if let Some(flag) = flags
        .given
        .iter()
        .find(|f| !accepted.split_whitespace().any(|a| a == f.as_str()))
    {
        return usage_error(&format!("`camj {name}` does not take {flag}"));
    }
    if let (false, [stray, ..]) = (takes_positionals, flags.positional.as_slice()) {
        return usage_error(&format!(
            "`camj {name}` takes no positional argument '{stray}'"
        ));
    }
    let design = |kind, span| observed(&flags, span, |f| run_request(f, kind));
    match name {
        "list" => cmd_list(),
        "export" => cmd_export(&flags),
        "validate" => cmd_validate(&flags),
        "estimate" => design(RequestKind::Estimate, "cli.estimate"),
        "simulate" => design(RequestKind::Simulate, "cli.simulate"),
        "sweep" => design(RequestKind::Sweep, "cli.sweep"),
        "pareto" => design(RequestKind::Pareto, "cli.pareto"),
        "search" => design(RequestKind::Search, "cli.search"),
        _ => observed(&flags, "cli.serve", run_serve),
    }
}

// ---------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------

/// Per subcommand: whether it takes positional arguments, and every
/// flag it reads. Anything else on its command line is a usage error,
/// never silently ignored.
const SUBCOMMANDS: &[(&str, bool, &str)] = &[
    ("list", false, ""),
    ("export", true, "--out"),
    ("validate", true, ""),
    (
        "estimate",
        false,
        "--design --fps --connect --trace --metrics --json --stats",
    ),
    (
        "simulate",
        false,
        "--design --fps --connect --trace --metrics --json --stats --seed --samples --stimulus",
    ),
    (
        "sweep",
        false,
        "--design --fps --connect --trace --metrics --json --format --threads",
    ),
    (
        "pareto",
        false,
        "--design --fps --connect --trace --metrics --json --format --threads --objectives \
         --max-density --max-latency-ms --max-energy-pj",
    ),
    (
        "search",
        false,
        "--design --fps --connect --trace --metrics --json --format --threads --objectives \
         --max-density --max-latency-ms --max-energy-pj --population --generations --budget --seed",
    ),
    (
        "serve",
        false,
        "--listen --stdio --cache-dir --workers --queue --fault-injection --trace --metrics",
    ),
];

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
    stats: bool,
    stdio: bool,
    fault_injection: bool,
    positional: Vec<String>,
    /// Every flag on the command line, for the [`SUBCOMMANDS`] check.
    given: Vec<String>,
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
        if arg.starts_with("--") {
            flags.given.push(arg.clone());
        }
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

/// Parses one flag value, naming the flag and what it needs on failure.
fn parse_value<T: std::str::FromStr>(text: &str, flag: &str, what: &str) -> Result<T, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("{flag} needs {what}, got '{text}'"))
}

/// [`parse_value`] for an optional flag.
fn parse_opt<T: std::str::FromStr>(
    value: &Option<String>,
    flag: &str,
    what: &str,
) -> Result<Option<T>, String> {
    value
        .as_deref()
        .map(|text| parse_value(text, flag, what))
        .transpose()
}

/// The protocol request a design subcommand's flags describe — the
/// same request whether it runs locally or goes to a daemon with
/// `--connect`. Only syntax is checked here; what the values mean (and
/// whether they are in range) is decided by [`resolve::plan`].
fn request_from_flags(flags: &Flags, kind: RequestKind) -> Result<Request, String> {
    let mut request = Request::new(kind);
    request.fps = flags
        .fps
        .as_ref()
        .map(|list| {
            list.split(',')
                .map(|fps| parse_value(fps, "--fps", "comma-separated frame rates"))
                .collect()
        })
        .transpose()?;
    request.seed = parse_opt(&flags.seed, "--seed", "an unsigned integer")?;
    request.samples = parse_opt(&flags.samples, "--samples", "an integer in 1..=1024")?;
    request.stimulus = flags.stimulus.clone();
    request.objectives = flags
        .objectives
        .as_ref()
        .map(|list| list.split(',').map(|s| s.trim().to_owned()).collect());
    let constraints = SweepConstraintsIr {
        max_power_density_mw_per_mm2: parse_opt(&flags.max_density, "--max-density", "a number")?,
        max_digital_latency_ms: parse_opt(&flags.max_latency_ms, "--max-latency-ms", "a number")?,
        max_total_energy_pj: parse_opt(&flags.max_energy_pj, "--max-energy-pj", "a number")?,
    };
    if constraints != SweepConstraintsIr::default() {
        request.constraints = Some(constraints);
    }
    let count = "a positive integer";
    request.population = parse_opt(&flags.population, "--population", count)?;
    request.generations = parse_opt(&flags.generations, "--generations", count)?;
    request.budget = parse_opt(&flags.budget, "--budget", count)?;
    Ok(request)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// A resolver rejection: a fault of the description (`request.design…`)
/// exits 1 like any model error; a bad flag value is a usage error.
fn rejected(reject: &Reject) -> ExitCode {
    if reject.path.starts_with("request.design") {
        eprintln!("error: {}", reject.message);
        ExitCode::FAILURE
    } else {
        usage_error(&reject.message)
    }
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

/// Runs one subcommand inside its observability session and span.
fn observed(flags: &Flags, span: &'static str, run: impl FnOnce(&Flags) -> ExitCode) -> ExitCode {
    let obs = match obs_begin(flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span(span);
        run(flags)
    };
    obs_finish(obs, code)
}

fn cmd_list() -> ExitCode {
    outln!("built-in workloads (usable with `camj export <name>`):");
    for b in camj_workloads::describe::builtins() {
        outln!("  {:<12} {}", b.name, b.summary);
    }
    ExitCode::SUCCESS
}

fn cmd_export(flags: &Flags) -> ExitCode {
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
        None => out!("{json}"),
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

fn cmd_validate(flags: &Flags) -> ExitCode {
    if flags.positional.is_empty() {
        return usage_error("validate needs at least one description file");
    }
    let mut failures = 0usize;
    for path in &flags.positional {
        match load_file(path) {
            Ok((desc, _model)) => {
                outln!("{path}: OK ({}, fps {})", desc.name, desc.fps);
            }
            Err(reject) => {
                failures += 1;
                outln!("{path}: FAILED");
                for line in reject.message.lines() {
                    outln!("    {line}");
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

/// Reads a description file and loads it; a relative stimulus path
/// resolves against the file's directory.
fn load_file(path: &str) -> Result<(DesignDesc, ValidatedModel), Reject> {
    let text = fs::read_to_string(path)
        .map_err(|e| Reject::at("request.design", format!("could not read {path}: {e}")))?;
    resolve::load_design(&text, Path::new(path).parent())
}

/// estimate/simulate/sweep/pareto/search: flags → [`Request`], then
/// either the daemon (`--connect`) or the local resolve → plan →
/// execute path, then render.
fn run_request(flags: &Flags, kind: RequestKind) -> ExitCode {
    let Some(path) = &flags.design else {
        return usage_error(&format!("{} needs --design FILE", kind.as_str()));
    };
    let request = match request_from_flags(flags, kind) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    if let Some(addr) = &flags.connect {
        return run_connected(flags, addr, path, request);
    }
    if let Err(e) = apply_threads(flags) {
        return usage_error(&e);
    }
    let format = match (&flags.format, flags.json) {
        (Some(text), _) => match text.parse::<SweepFormat>() {
            Ok(f) => f,
            Err(e) => return usage_error(&e),
        },
        (None, true) => SweepFormat::Json,
        (None, false) => SweepFormat::Human,
    };
    let (desc, model, plan) = match load_file(path).and_then(|(desc, model)| {
        let plan = resolve::plan(&request, &desc)?;
        Ok((desc, model, plan))
    }) {
        Ok(x) => x,
        Err(reject) => return rejected(&reject),
    };
    // Test hook: `CAMJ_FAULT_PANIC_FPS=<fps>` makes the per-point
    // model build panic at that frame rate, so the captured-panic exit
    // path can be exercised end to end.
    let fault_fps: Option<f64> = std::env::var("CAMJ_FAULT_PANIC_FPS")
        .ok()
        .and_then(|v| v.parse().ok());
    let cache = EstimateCache::shared();
    let outcome = resolve::execute(&plan, &model, &cache, |point| {
        let fps = point.fps("fps");
        if fault_fps == Some(fps) {
            panic!("injected fault: fps {fps}");
        }
        Ok(model.with_fps(fps))
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(reject) => return rejected(&reject),
    };
    let json = format == SweepFormat::Json;
    // One span for rendering and writing the result, whatever the
    // command.
    let _span = obs_core::span(match format {
        SweepFormat::Human => "format.human",
        SweepFormat::Json => "format.json",
        SweepFormat::Csv => "format.csv",
    });
    let printed = match (&plan, &outcome) {
        (Plan::Estimate { fps }, Outcome::Estimate(report)) => {
            print_one(json, report, || print_report(&desc, *fps, report))
        }
        (Plan::Simulate { fps, .. }, Outcome::Frame(report)) => {
            print_one(json, report, || print_frame(&desc, *fps, report))
        }
        (Plan::Simulate { fps, .. }, Outcome::Frames(mc)) => {
            print_one(json, mc, || print_frames(&desc, *fps, mc))
        }
        _ => return print_exploration(&desc, &plan, &outcome, &cache.stats(), format),
    };
    if !printed {
        return ExitCode::FAILURE;
    }
    // --stats: the line is stdout for human output, stderr under
    // --json so machine-readable stdout stays pure JSON.
    if flags.stats {
        if json {
            eprintln!("cache: {}", cache.stats());
        } else {
            outln!("cache: {}", cache.stats());
        }
    }
    ExitCode::SUCCESS
}

/// Prints one estimate/simulate report: pretty JSON, or the `human`
/// rendering. `false` (after an error line) when the JSON fails to
/// serialize.
fn print_one<T: serde::Serialize>(json: bool, report: &T, human: impl FnOnce()) -> bool {
    if !json {
        human();
        return true;
    }
    match serde_json::to_string_pretty(report) {
        Ok(json) => {
            outln!("{json}");
            true
        }
        Err(e) => {
            eprintln!("error: could not serialize the report: {e}");
            false
        }
    }
}

/// Renders a sweep/pareto/search outcome. Results always print, but
/// any *captured panic* among them is a bug, not an infeasible point —
/// exit 1 with a one-line stderr summary so scripted callers notice
/// without parsing the output.
fn print_exploration(
    desc: &DesignDesc,
    plan: &Plan,
    outcome: &Outcome,
    cache: &CacheStats,
    format: SweepFormat,
) -> ExitCode {
    let (command, panicked) = match (outcome, plan) {
        (Outcome::Sweep(results), Plan::Sweep(_)) => {
            match format {
                SweepFormat::Json => outln!("{}", results.to_json(Some(cache))),
                SweepFormat::Csv => out!("{}", results.to_csv()),
                SweepFormat::Human => print_sweep(desc, results, cache),
            }
            let panicked = results
                .outcomes()
                .iter()
                .filter(|o| matches!(&o.result, Err(e) if e.is_panic()))
                .count();
            ("sweep", panicked)
        }
        (Outcome::Pareto(results), Plan::Pareto(_, query)) => {
            match format {
                SweepFormat::Json => outln!("{}", results.to_json(Some(cache))),
                SweepFormat::Csv => out!("{}", results.to_csv()),
                SweepFormat::Human => {
                    let mut notes = String::new();
                    for pruned in results.pruned() {
                        let _ = writeln!(
                            notes,
                            "  pruned [{}]: violates {} after {} kernel(s)",
                            pruned.point, pruned.constraint, pruned.kernels_done
                        );
                    }
                    for (point, error) in results.errors() {
                        let _ = writeln!(notes, "  error [{point}]: {}", error.message());
                    }
                    let title = format!(
                        "== pareto: {} ({} points, {} objectives) ==",
                        desc.name,
                        results.total_points(),
                        query.objectives().len()
                    );
                    print_frontier(&title, query, results, &notes, cache);
                }
            }
            ("pareto", panicked_points(results))
        }
        (Outcome::Search(results), Plan::Search(_, query, _)) => {
            match format {
                SweepFormat::Json => outln!("{}", results.to_json(Some(cache))),
                SweepFormat::Csv => out!("{}", results.to_csv()),
                SweepFormat::Human => {
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
                    let notes = format!(
                        "search: {} of {} grid points evaluated ({:.1}%); {termination}\n",
                        results.evaluations(),
                        results.grid_points(),
                        results.evaluation_fraction() * 100.0
                    );
                    let title = format!(
                        "== search: {} ({} grid points, {} objectives) ==",
                        desc.name,
                        results.grid_points(),
                        query.objectives().len()
                    );
                    print_frontier(&title, query, results.pareto(), &notes, cache);
                }
            }
            ("search", panicked_points(results.pareto()))
        }
        _ => unreachable!("execute answers each plan with its own outcome kind"),
    };
    if panicked == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "error: {panicked} point(s) panicked during {command}; their result rows carry the panic message"
    );
    ExitCode::FAILURE
}

fn panicked_points(results: &ParetoResults) -> usize {
    results
        .errors()
        .iter()
        .filter(|(_, e)| e.is_panic())
        .count()
}

fn print_sweep(
    desc: &DesignDesc,
    results: &camj_explore::SweepResults<EstimateReport>,
    cache: &CacheStats,
) {
    outln!("== sweep: {} ({} points) ==", desc.name, results.len());
    outln!(
        "{:>10}  {:>16}  {:>14}",
        "fps",
        "total pJ/frame",
        "pJ/pixel"
    );
    for o in results.outcomes() {
        let fps = o.point.fps("fps");
        match &o.result {
            Ok(r) => outln!(
                "{:>10}  {:>16.3}  {:>14.4}",
                fps,
                r.total().picojoules(),
                r.energy_per_pixel().picojoules()
            ),
            Err(e) => outln!("{fps:>10}  infeasible: {}", e.message()),
        }
    }
    if let Some((point, best)) = results.min_energy() {
        outln!(
            "minimum: {:.3} pJ/frame at {point}",
            best.total().picojoules()
        );
    }
    outln!("cache: {cache}");
}

/// The human frontier table `pareto` and `search` share: title,
/// constraints, one row per frontier point, the frontier summary, the
/// command's own `notes` lines, then pruning and cache stats.
fn print_frontier(
    title: &str,
    query: &ParetoQuery,
    results: &ParetoResults,
    notes: &str,
    cache: &CacheStats,
) {
    outln!("{title}");
    for constraint in query.constraints().constraints() {
        outln!("constraint: {constraint}");
    }
    out!("{:>10}", "fps");
    for key in query.objectives().iter().map(Objective::key) {
        out!("  {key:>24}");
    }
    outln!();
    for entry in results.frontier() {
        out!("{:>10}", entry.point.fps("fps"));
        for value in entry.metrics.values() {
            out!("  {value:>24.4}");
        }
        outln!();
    }
    outln!(
        "frontier: {} point(s); dominated: {}; pruned: {}; errors: {}",
        results.frontier().len(),
        results.dominated_count(),
        results.pruned().len(),
        results.errors().len()
    );
    out!("{notes}");
    outln!("prune: {}", results.stats());
    outln!("cache: {cache}");
}

fn run_serve(flags: &Flags) -> ExitCode {
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

/// Sends the request, with the design file inlined, to the daemon and
/// renders its response: result bodies pretty-printed to stdout, errors
/// path-qualified to stderr.
fn run_connected(flags: &Flags, addr: &str, path: &str, mut request: Request) -> ExitCode {
    if flags.stats {
        return usage_error(
            "--stats is local-only; the daemon's `stats` request reports cache state",
        );
    }
    if flags.threads.is_some() {
        return usage_error("--threads is local-only; worker count is the daemon's --workers");
    }
    if flags.format.as_deref() == Some("csv") {
        return usage_error(
            "--connect prints the daemon's JSON result; --format csv is local-only",
        );
    }
    let design = fs::read_to_string(path)
        .map_err(|e| format!("could not read {path}: {e}"))
        .and_then(|text| {
            serde_json::from_str::<serde_json::Value>(&text)
                .map_err(|e| format!("could not parse {path}: {e}"))
        });
    match design {
        Ok(design) => request.design = Some(design),
        Err(e) => return usage_error(&e),
    }
    request.id = 1;
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
                        Ok(json) => outln!("{json}"),
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
// Human renderers
// ---------------------------------------------------------------------

fn print_report(desc: &DesignDesc, fps: f64, report: &EstimateReport) {
    outln!("== {} @ {} FPS ==", desc.name, fps);
    outln!(
        "total: {:.4} pJ/frame  ({:.4} pJ/pixel over {} input pixels)",
        report.total().picojoules(),
        report.energy_per_pixel().picojoules(),
        report.input_pixels
    );
    outln!(
        "frame time: {:.4} ms = {} analog stages x {:.4} ms + {:.4} ms digital",
        report.delay.frame_time.millis(),
        report.delay.analog_stage_count,
        report.delay.analog_unit_time.millis(),
        report.delay.digital_latency.millis()
    );
    outln!("breakdown by category:");
    for (category, energy) in report.breakdown.by_category() {
        if energy.joules() > 0.0 {
            outln!("  {:<7} {:>14.4} pJ", category.label(), energy.picojoules());
        }
    }
    outln!("breakdown by unit:");
    for item in report.breakdown.items() {
        let stage = item.stage.as_deref().unwrap_or("-");
        outln!(
            "  {:<24} {:<7} stage={:<16} {:>14.4} pJ",
            item.unit,
            item.category.label(),
            stage,
            item.energy.picojoules()
        );
    }
    for layer in &report.layers {
        outln!(
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

/// The human `simulate --samples N` report (N > 1).
fn print_frames(desc: &DesignDesc, fps: f64, mc: &McFrameSimReport) {
    outln!(
        "== simulate: {} @ {} FPS ({} seeds {}.., stimulus {}) ==",
        desc.name,
        fps,
        mc.seeds.len(),
        mc.seeds[0],
        mc.stimulus
    );
    outln!("frame: {}x{}x{} pixels", mc.width, mc.height, mc.channels);
    if mc.stages.is_empty() {
        outln!("analog chain: no stages (nothing to simulate)");
    } else {
        outln!("{:<24} {:>22} {:>18}", "stage", "noise rms (FS)", "SNR dB");
        for stage in &mc.stages {
            outln!(
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
    outln!(
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
        outln!(
            "digital DAG (sink {}): {:<12} {:>20} {:>18}",
            dag.sink,
            "stage",
            "error rms (FS)",
            "SNR dB"
        );
        for stage in &dag.stages {
            outln!(
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
        outln!(
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
        outln!("dag digest: {}", dag.digests[0]);
    }
    outln!("digest: {}", mc.digests[0]);
}

/// The human one-frame `simulate` report.
fn print_frame(desc: &DesignDesc, fps: f64, report: &FrameSimReport) {
    outln!(
        "== simulate: {} @ {} FPS (seed {}, stimulus {}) ==",
        desc.name,
        fps,
        report.seed,
        report.stimulus
    );
    outln!(
        "frame: {}x{}x{} pixels",
        report.width,
        report.height,
        report.channels
    );
    if report.stages.is_empty() {
        outln!("analog chain: no stages (nothing to simulate)");
    } else {
        outln!("{:<24} {:>16} {:>12}", "stage", "noise rms (FS)", "SNR dB");
        for stage in &report.stages {
            outln!(
                "{:<24} {:>16.6} {:>12}",
                stage.unit,
                stage.noise_rms,
                stage
                    .snr_db
                    .map_or_else(|| "-".to_owned(), |db| format!("{db:.2}")),
            );
        }
    }
    outln!(
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
        outln!(
            "digital DAG (sink {}): {:<12} {:>16} {:>12}",
            dag.sink,
            "stage",
            "error rms (FS)",
            "SNR dB"
        );
        for stage in &dag.stages {
            outln!(
                "  {:<36} {:>16.6} {:>12}",
                stage.stage,
                stage.error_rms,
                stage
                    .snr_db
                    .map_or_else(|| "-".to_owned(), |db| format!("{db:.2}")),
            );
        }
        outln!(
            "task: mse {:.6e}, rmse {:.6}, psnr {}, centroid err {:.6}",
            dag.metrics.mse,
            dag.metrics.rmse,
            dag.metrics
                .psnr_db
                .map_or_else(|| "-".to_owned(), |db| format!("{db:.2} dB")),
            dag.metrics.centroid_err,
        );
        outln!("dag digest: {}", dag.digest);
    }
    outln!("digest: {}", report.digest);
}
