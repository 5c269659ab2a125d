//! `camj-perfbench`: the repository benchmark.
//!
//! ```text
//! camj-perfbench --workload <explore|serve> --seed N
//!                --seconds S --trace <0|1> --camj PATH
//! ```
//!
//! Run from the repository root (`perfbench/run.sh` builds both
//! binaries and calls this). With `--trace 0` one timed run prints the
//! end-to-end metrics; with `--trace 1` a separate traced run prints the
//! per-layer rows (see `layers.rs`). Either way a metric table goes to
//! stderr and the last line of stdout is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//!
//! Every input a workload sends is a pure function of `--seed`; every
//! op's output is checked, and a wrong answer counts as failed.

mod daemon;
mod explore;
mod functional;
mod layers;
mod rng;
mod serve;
mod stats;
mod tier;

use std::path::PathBuf;

use stats::{Metrics, Tally};

/// Where the traced run keeps the disk tier's cache directory, under the
/// checkout root. Each run removes its own directory, and the last one
/// out removes this.
pub const SCRATCH_DIR: &str = ".perfbench-tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "explore" => Ok(Workload::Explore),
            "serve" => Ok(Workload::Serve),
            other => Err(format!("unknown workload {other:?} (explore, serve)")),
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// The repository root (the working directory).
    pub root: PathBuf,
    /// The release `camj` binary the daemons run.
    pub camj: PathBuf,
    /// Cores available to the run: the open loop may use no more
    /// threads or connections than this.
    pub nproc: usize,
}

const USAGE: &str = "usage: camj-perfbench --workload <explore|serve> \
                     --seed N --seconds S --trace <0|1> --camj PATH";

fn parse_args(args: &[String]) -> Result<(Ctx, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut camj = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--camj" => camj = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let camj = camj.ok_or_else(|| missing("--camj"))?;
    let camj = if camj.is_absolute() {
        camj
    } else {
        root.join(camj)
    };
    let ctx = Ctx {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        camj,
        root,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    Ok((ctx, trace.ok_or_else(|| missing("--trace"))?))
}

/// The model-quality rows every workload reports: the Fig. 7 MAPE over
/// the nine chips, and the recall of the seed's 4096-point searches
/// (the searches `explore` runs). Computed after the timed loop, so they
/// move neither its clock nor an in-process peak RSS.
pub fn put_quality(m: &mut Metrics, ctx: &Ctx) -> Result<(), String> {
    m.put("model_mape_pct", explore::model_mape_pct()?, "%");
    let refs = explore::References::compute(&explore::Grids::new(), ctx.seed);
    m.put("search_recall", refs.search_recall(), "ratio");
    Ok(())
}

fn run(ctx: &Ctx, traced: bool) -> Result<(Metrics, Tally), String> {
    // Inline designs resolve a relative stimulus path (Ed-Gaze's
    // `edgaze_eye.pgm`) against the working directory of whoever parses
    // them, as `camj --connect` leaves it to the daemon. The benchmark and
    // the daemons it starts therefore both work in `descriptions/`; every
    // path the benchmark itself opens is absolute, under `ctx.root`.
    let descriptions = ctx.root.join("descriptions");
    std::env::set_current_dir(&descriptions)
        .map_err(|e| format!("{}: {e}", descriptions.display()))?;
    // In-process work runs on one core. On a small shared host the
    // explorer's fan-out over every core makes runs far noisier
    // (run-to-run spread about twice as wide) for little gain; daemons
    // are separate processes and keep their defaults.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .map_err(|e| e.to_string())?;
    if traced {
        return layers::traced(ctx);
    }
    match ctx.workload {
        Workload::Explore => explore::timed(ctx),
        Workload::Serve => serve::timed(ctx),
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":…}`.
/// Metric names and units are plain identifiers, and values are finite,
/// so the line needs no escaping; `{:?}` prints each value with every
/// digit it has.
fn result_line(metrics: &Metrics, tally: &Tally) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        rows.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|(ctx, traced)| {
        let (metrics, tally) = run(&ctx, traced)?;
        if tally.attempted == 0 {
            return Err("no op completed".to_owned());
        }
        if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} is not finite"));
        }
        Ok((metrics, tally))
    });
    match outcome {
        Ok((metrics, tally)) => {
            for (name, value, unit) in metrics.iter() {
                eprintln!("{name:<40} {value:>14.6} {unit}");
            }
            for reason in &tally.reasons {
                eprintln!("check failed: {reason}");
            }
            println!("{}", result_line(&metrics, &tally));
        }
        Err(e) => {
            eprintln!("camj-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
