//! The `explore` workload: one closed-loop client calling camj-explore
//! in-process on the Ed-Gaze 2D-In 4-axis grids (fps × ADC bits × CIS
//! node × frame-buffer kind), a fresh `EstimateCache` per query.
//!
//! Four queries rotate in shuffled cycles of 20 ops: 8 × 256-point
//! `sweep_incremental`, 6 × 256-point `pareto` under the active
//! 0.4 mW/mm² budget, 2 × 4096-point seeded `search`, and 4 × 4096-point
//! exhaustive `pareto`, in rising order of cost. The shares put p50 in
//! the middle of the sweep band and p90 in the middle of the 4096-point
//! pareto band, so no percentile sits on the edge between two query
//! kinds, where a small shift in either would move it.
//!
//! Every result is compared byte for byte with a serial-explorer
//! reference computed (untimed) before the clock starts; each search's
//! frontier is scored against the exhaustive 4096-point frontier.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use camj_core::energy::{CacheStats, CamJ, ValidatedModel};
use camj_explore::{
    Constraint, DesignPoint, EstimateCache, Explorer, MemoryKind, Objective, ParetoQuery,
    PointError, PruneStats, SearchSpec, Sweep,
};
use camj_tech::node::ProcessNode;
use camj_workloads::configs::SensorVariant;
use camj_workloads::edgaze;

use crate::rng::{shuffled_cycles, Rng};
use crate::stats::{self, Metrics, OpTime, Tally};
use crate::Ctx;

/// The four exploration queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    Sweep256,
    Pareto256,
    Pareto4096,
    Search4096,
}

impl Query {
    pub const ALL: [Query; 4] = [
        Query::Sweep256,
        Query::Pareto256,
        Query::Pareto4096,
        Query::Search4096,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Query::Sweep256 => "sweep256",
            Query::Pareto256 => "pareto256",
            Query::Pareto4096 => "pareto4096",
            Query::Search4096 => "search4096",
        }
    }
}

/// One op: a query, plus its search seed (0 for the other queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    pub query: Query,
    pub search_seed: u64,
}

/// The op mix per cycle of 20.
const CYCLE: [(Query, usize); 4] = [
    (Query::Sweep256, 8),
    (Query::Pareto256, 6),
    (Query::Pareto4096, 4),
    (Query::Search4096, 2),
];

/// Distinct search seeds per run, each checked against its own
/// reference.
const SEARCH_SEEDS: usize = 16;

/// The active thermal budget of the 256-point pareto, mW/mm².
pub const PRUNING_BUDGET_MW_PER_MM2: f64 = 0.4;

/// The search seeds a workload seed draws from.
pub fn search_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::stream(seed, "explore.search_seeds");
    (0..SEARCH_SEEDS).map(|_| rng.below(1 << 32)).collect()
}

/// The first `cycles` cycles of the op sequence for `seed`.
pub fn ops(seed: u64, cycles: usize) -> Vec<Op> {
    let pool = search_seeds(seed);
    let mut rng = Rng::stream(seed, "explore.ops");
    let queries = shuffled_cycles(&mut rng, &CYCLE, cycles);
    queries
        .into_iter()
        .map(|query| Op {
            query,
            search_seed: if query == Query::Search4096 {
                pool[rng.below(pool.len() as u64) as usize]
            } else {
                0
            },
        })
        .collect()
}

/// The two grids: 8 fps × 4 bits × 4 nodes × 2 memories, and 64 fps ×
/// 8 bits × 4 nodes × 2 memories.
pub struct Grids {
    pub g256: Sweep,
    pub g4096: Sweep,
}

impl Grids {
    pub fn new() -> Grids {
        let nodes = [
            ProcessNode::N130,
            ProcessNode::N110,
            ProcessNode::N90,
            ProcessNode::N65,
        ];
        let memories = [MemoryKind::DoubleBuffer, MemoryKind::LineBuffer];
        Grids {
            g256: Sweep::new()
                .fps_targets((0..8).map(|i| 10.0 + 2.0 * f64::from(i)))
                .bit_widths([8, 9, 10, 11])
                .tech_nodes(nodes)
                .memory_kinds(memories),
            g4096: Sweep::new()
                .fps_targets((0..64).map(|i| 10.0 + 0.25 * f64::from(i)))
                .bit_widths([8, 9, 10, 11, 12, 13, 14, 15])
                .tech_nodes(nodes)
                .memory_kinds(memories),
        }
    }
}

/// Builds the Ed-Gaze model a grid point describes.
pub fn build_point(point: &DesignPoint) -> Result<ValidatedModel, PointError> {
    let config = edgaze::EdGazeConfig::new(SensorVariant::TwoDIn, point.node("tech_node"))
        .with_adc_bits(point.u32("bit_width"))
        .with_frame_buffer_kind(point.memory("memory"));
    edgaze::model_with(config)
        .map(CamJ::into_validated)
        .map_err(PointError::new)
}

fn energy_density() -> Vec<Objective> {
    vec![Objective::TotalEnergy, Objective::PowerDensity]
}

/// Search knobs: population 32 within a 15 % evaluation budget, the
/// setting the repository's own search acceptance bar uses.
fn search_spec(seed: u64, grid: usize) -> SearchSpec {
    SearchSpec::new()
        .seed(seed)
        .budget(grid * 15 / 100)
        .population(32)
}

/// What one query returned, beyond its rendered result.
pub struct Outcome {
    /// The result as `to_json(None)` renders it.
    pub json: String,
    pub cache: CacheStats,
    pub prune: Option<PruneStats>,
    /// (evaluations, generations) of a search.
    pub search: Option<(usize, usize)>,
    /// Grid indices on the frontier (4096-point queries).
    pub frontier: Vec<usize>,
}

/// Runs one query with a fresh cache.
pub fn run(explorer: &Explorer, grids: &Grids, op: Op) -> Outcome {
    let cache = EstimateCache::shared();
    let indices = |entries: &[camj_explore::ParetoEntry]| -> Vec<usize> {
        entries.iter().map(|e| e.point.index).collect()
    };
    let (json, prune, search, frontier) = match op.query {
        Query::Sweep256 => {
            let results = explorer.sweep_incremental(&grids.g256, &cache, build_point);
            (results.to_json(None), None, None, Vec::new())
        }
        Query::Pareto256 => {
            let query = ParetoQuery::new(energy_density())
                .constrain(Constraint::MaxPowerDensity(PRUNING_BUDGET_MW_PER_MM2));
            let results = explorer.pareto(&grids.g256, &cache, &query, build_point);
            (
                results.to_json(None),
                Some(*results.stats()),
                None,
                Vec::new(),
            )
        }
        Query::Pareto4096 => {
            let query = ParetoQuery::new(energy_density());
            let results = explorer.pareto(&grids.g4096, &cache, &query, build_point);
            let frontier = indices(results.frontier());
            (
                results.to_json(None),
                Some(*results.stats()),
                None,
                frontier,
            )
        }
        Query::Search4096 => {
            let query = ParetoQuery::new(energy_density());
            let spec = search_spec(op.search_seed, grids.g4096.len());
            let results = explorer.search(&grids.g4096, &cache, &query, &spec, build_point);
            let frontier = indices(results.frontier());
            let counts = (results.evaluations(), results.generations_run());
            (results.to_json(None), None, Some(counts), frontier)
        }
    };
    Outcome {
        json,
        cache: cache.stats(),
        prune,
        search,
        frontier,
    }
}

/// Serial-explorer references for every distinct op of a run, plus
/// the exhaustive 4096-point frontier the searches are scored against.
pub struct References {
    json: HashMap<Op, String>,
    oracle: BTreeSet<usize>,
    /// Recall of each search seed of the pool.
    pool_recalls: Vec<f64>,
}

impl References {
    pub fn compute(grids: &Grids, seed: u64) -> References {
        let serial = Explorer::serial();
        let mut json = HashMap::new();
        let mut oracle = BTreeSet::new();
        let mut search_frontiers = Vec::new();
        let plain = Query::ALL.into_iter().filter(|q| *q != Query::Search4096);
        let searches = search_seeds(seed).into_iter().map(|s| Op {
            query: Query::Search4096,
            search_seed: s,
        });
        for op in plain
            .map(|query| Op {
                query,
                search_seed: 0,
            })
            .chain(searches)
        {
            let out = run(&serial, grids, op);
            match op.query {
                Query::Pareto4096 => oracle = out.frontier.iter().copied().collect(),
                Query::Search4096 => search_frontiers.push(out.frontier),
                _ => {}
            }
            json.insert(op, out.json);
        }
        let mut refs = References {
            json,
            oracle,
            pool_recalls: Vec::new(),
        };
        refs.pool_recalls = search_frontiers.iter().map(|f| refs.recall(f)).collect();
        refs
    }

    /// `search_recall`: the mean share of the exhaustive 4096-point
    /// frontier that the seed's searches recover.
    pub fn search_recall(&self) -> f64 {
        self.pool_recalls.iter().sum::<f64>() / self.pool_recalls.len().max(1) as f64
    }

    pub fn check(&self, op: Op, out: &Outcome) -> Result<(), String> {
        match self.json.get(&op) {
            Some(reference) if *reference == out.json => Ok(()),
            Some(_) => Err(format!("{op:?}: result differs from the serial reference")),
            None => Err(format!("{op:?}: no reference")),
        }
    }

    /// Share of the exhaustive frontier a search recovered.
    fn recall(&self, frontier: &[usize]) -> f64 {
        if self.oracle.is_empty() {
            return 0.0;
        }
        let found = frontier.iter().filter(|i| self.oracle.contains(i)).count();
        found as f64 / self.oracle.len() as f64
    }
}

/// The work `setup_s` covers: both grids and the base Ed-Gaze model,
/// built and validated.
fn setup() -> Grids {
    let grids = Grids::new();
    let base = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .expect("the Ed-Gaze 2D-In model builds")
        .into_validated();
    std::hint::black_box(base);
    grids
}

/// Fig. 7 validation: MAPE over the nine chips, percent.
pub fn model_mape_pct() -> Result<f64, String> {
    let results = camj_workloads::validation::validate_all().map_err(|e| e.to_string())?;
    Ok(camj_workloads::validation::mape(&results))
}

/// The latency limit behind `slo_ratio`, ms: a 4096-point pareto on one
/// core takes about 40 ms.
const SLO_MS: f64 = 100.0;

/// Times one set-up into `samples`. The loop sets up once before its
/// first op and once more after each op, off the op clock: `setup_s`,
/// their median, then samples the whole run instead of its first
/// millisecond, which on a shared host lands in whatever speed state the
/// host is in at that moment.
fn sample_setup<T>(samples: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = std::time::Instant::now();
    let out = setup();
    samples.push(t.elapsed().as_secs_f64());
    out
}

/// The timed run: end-to-end metrics.
pub fn timed(ctx: &Ctx) -> Result<(Metrics, Tally), String> {
    let mut setups = Vec::new();
    let grids = sample_setup(&mut setups, setup);
    let refs = References::compute(&grids, ctx.seed);

    let explorer = Explorer::new();
    let sequence = ops(ctx.seed, 1000);
    let mut tally = Tally::default();
    let mut times = Vec::new();
    let start = Instant::now();
    for &op in sequence.iter().cycle() {
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let t = Instant::now();
        let out = run(&explorer, &grids, op);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = refs.check(op, &out);
        times.push(OpTime {
            ms,
            ok: outcome.is_ok(),
        });
        tally.check(outcome);
        std::hint::black_box(sample_setup(&mut setups, setup));
    }

    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setups), "s");
    // Ops per second of op time: the set-ups and checks between ops are
    // the benchmark's, not the explorer's.
    let busy_s = times.iter().map(|t| t.ms).sum::<f64>() / 1e3;
    m.put("ops_per_s", times.len() as f64 / busy_s, "1/s");
    stats::put_latency(&mut m, &times, tally.attempted, SLO_MS);
    m.put("ok_ratio", tally.ok_ratio(), "ratio");
    // Read before the quality rows below compute their own references.
    m.put(
        "peak_rss_mib",
        crate::daemon::peak_rss_mib("/proc/self/status"),
        "MiB",
    );
    crate::put_quality(&mut m, ctx)?;
    Ok((m, tally))
}

/// The traced slice: one full cycle of the op sequence.
pub fn traced_ops(ctx: &Ctx) -> impl FnOnce() -> Tally {
    let seed = ctx.seed;
    move || {
        let grids = Grids::new();
        let explorer = Explorer::new();
        let mut tally = Tally::default();
        for op in ops(seed, 1) {
            let out = run(&explorer, &grids, op);
            tally.check(if out.json.is_empty() {
                Err(format!("{op:?}: empty result"))
            } else {
                Ok(())
            });
        }
        tally
    }
}

/// Per-query layer rows: wall time (median of `reps` cold runs with a
/// fresh cache), and the cache, prune, and search counters of one run.
pub fn layer_rows(m: &mut Metrics, reps: usize) {
    let grids = Grids::new();
    let explorer = Explorer::new();
    for query in Query::ALL {
        let op = Op {
            query,
            search_seed: 0,
        };
        let ms = stats::time_median_ms(reps, || {
            std::hint::black_box(run(&explorer, &grids, op).json.len());
        });
        m.put(format!("explore.{}_ms", query.name()), ms, "ms");
        let out = run(&Explorer::serial(), &grids, op);
        let q = query.name();
        m.put(
            format!("cache.hit_ratio.{q}"),
            out.cache.hit_rate(),
            "ratio",
        );
        m.put(
            format!("cache.misses.{q}"),
            out.cache.misses as f64,
            "count",
        );
        m.put(
            format!("cache.entries.{q}"),
            out.cache.entries as f64,
            "count",
        );
        m.put(format!("cache.bytes.{q}"), out.cache.bytes as f64, "bytes");
        if query == Query::Pareto256 {
            let prune = out.prune.expect("a pareto reports prune stats");
            m.put("prune.skip_fraction", prune.skip_fraction(), "ratio");
            m.put("prune.kernels_run", prune.kernels_run as f64, "count");
        }
        if let Some((evals, gens)) = out.search {
            m.put("search.evaluations", evals as f64, "count");
            m.put("search.generations", gens as f64, "count");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_is_a_pinned_function_of_the_seed() {
        let a = ops(7, 3);
        assert_eq!(a, ops(7, 3));
        assert_ne!(a, ops(8, 3));
        assert_eq!(a.len(), 60);
        for cycle in a.chunks(20) {
            for (query, share) in CYCLE {
                assert_eq!(cycle.iter().filter(|o| o.query == query).count(), share);
            }
        }
        let pool = search_seeds(7);
        assert!(a
            .iter()
            .filter(|o| o.query == Query::Search4096)
            .all(|o| pool.contains(&o.search_seed)));
        let text = format!("{a:?}");
        assert_eq!(crate::rng::digest(&text), PINNED_EXPLORE_DIGEST, "{text}");
    }

    /// Digest of `format!("{:?}", ops(7, 3))`. Changing it changes every
    /// explore input, which invalidates comparisons with earlier runs.
    const PINNED_EXPLORE_DIGEST: u64 = 15427484169578954919;
}
