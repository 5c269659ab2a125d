//! The disk cache tier's layer rows, from one round in the traced run.
//!
//! A daemon on a fresh `--cache-dir` answers a fixed set of
//! [`ROUND_REQUESTS`] distinct requests on one connection, closed loop
//! (the *write pass*: every request uses frame rates no earlier request
//! used, so every compute writes its entries through to disk). The
//! daemon then shuts down, a new one starts on the same directory, and
//! the set is replayed (the *read pass*: dedup and the memory cache
//! start empty, so every entry comes from disk, and each answer must
//! match the write pass byte for byte).
//!
//! Every fourth request is an 8-point quickstart sweep and the others
//! single Ed-Gaze estimates; frame rates are thousandths of an fps in
//! [10, 60), drawn without replacement.
//!
//! This layer is not a timed workload of its own: fsync latency on a
//! shared disk spreads too widely from run to run to bound.

use std::time::Instant;

use crate::daemon::{check_response, strip_id, Conn, Daemon, ScratchDir};
use crate::rng::Rng;
use crate::serve::{num_at, Design, Designs, Fps, Req};
use crate::stats::{self, Metrics, Tally};
use crate::Ctx;

/// Distinct frame rates available, in thousandths of an fps from 10.
const FPS_POOL: u32 = 50_000;
const SWEEP_POINTS: usize = 8;

/// The distinct request sequence for `seed`: a pure function of it.
pub fn requests(seed: u64) -> impl Iterator<Item = Req> {
    let mut rng = Rng::stream(seed, "tier.requests");
    let mut pool: Vec<u32> = (0..FPS_POOL).collect();
    rng.shuffle(&mut pool);
    let mut fps = pool.into_iter().map(|u| Fps {
        units: 10_000 + u,
        scale: 1000,
    });
    (0..).map_while(move |i: u64| {
        if i % 4 == 0 {
            let mut list: Vec<Fps> = fps.by_ref().take(SWEEP_POINTS).collect();
            list.sort_by_key(|f| f.units);
            (list.len() == SWEEP_POINTS).then_some(Req::Sweep(Design::Quickstart, list))
        } else {
            fps.next().map(|f| Req::Estimate(Design::Edgaze, f))
        }
    })
}

/// Distinct requests in the round.
pub const ROUND_REQUESTS: usize = 400;

/// One closed-loop pass over `lines` on one connection: each op's
/// latency in ms and the id-less answers.
fn pass(
    daemon: &Daemon,
    lines: &[String],
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<String>), String> {
    let mut conn = Conn::open(daemon.addr).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    let mut answers = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let t = Instant::now();
        conn.send(line).map_err(|e| e.to_string())?;
        let frames = conn.read_response().map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        tally.check(check_response(i as u64 + 1, &frames));
        answers.push(frames.iter().map(|l| strip_id(l) + "\n").collect());
    }
    Ok((times, answers))
}

/// Runs the round and puts the tier rows: entries written, read-pass
/// hits and misses, bytes on disk, and read-pass latency after the
/// restart. Returns the round's checks.
pub fn layer_rows(ctx: &Ctx, m: &mut Metrics) -> Result<Tally, String> {
    let designs = Designs::load(&ctx.root)?;
    let lines: Vec<String> = requests(ctx.seed)
        .take(ROUND_REQUESTS)
        .enumerate()
        .map(|(i, req)| designs.render(&req, i as u64 + 1))
        .collect();
    let dir = ScratchDir::new(&ctx.root.join(crate::SCRATCH_DIR), "tier")?;
    let dir_arg = dir.0.to_str().ok_or("non-UTF-8 scratch path")?;
    let flags = ["--cache-dir", dir_arg];
    let mut tally = Tally::default();

    let writer = Daemon::start(&ctx.camj, &flags)?;
    let (_, written) = pass(&writer, &lines, &mut tally)?;
    let stats_write = crate::serve::daemon_stats(writer.addr)?;
    writer.shutdown()?;
    m.put(
        "tier.disk_bytes",
        crate::daemon::dir_bytes(&dir.0) as f64,
        "bytes",
    );

    let reader = Daemon::start(&ctx.camj, &flags)?;
    let (read_ms, replayed) = pass(&reader, &lines, &mut tally)?;
    let stats_read = crate::serve::daemon_stats(reader.addr)?;
    reader.shutdown()?;
    for (i, (w, r)) in written.iter().zip(&replayed).enumerate() {
        tally.check(if w == r {
            Ok(())
        } else {
            Err(format!(
                "tier request {}: read pass differs from write pass",
                i + 1
            ))
        });
    }

    m.put("tier.writes", num_at(&stats_write, "tier.writes"), "count");
    m.put("tier.hits", num_at(&stats_read, "tier.hits"), "count");
    m.put("tier.misses", num_at(&stats_read, "tier.misses"), "count");
    m.put(
        "tier.restart_p50_ms",
        stats::percentile(&read_ms, 50.0),
        "ms",
    );
    m.put(
        "tier.restart_p90_ms",
        stats::percentile(&read_ms, 90.0),
        "ms",
    );
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_distinct_and_pinned() {
        let a: Vec<Req> = requests(7).take(40).collect();
        let b: Vec<Req> = requests(7).take(40).collect();
        assert_eq!(a, b);
        assert_ne!(a, requests(8).take(40).collect::<Vec<_>>());
        let mut seen = std::collections::HashSet::new();
        for r in &a {
            let fps: Vec<Fps> = match r {
                Req::Sweep(_, list) => list.clone(),
                Req::Estimate(_, f) => vec![*f],
                other => panic!("unexpected tier request {other:?}"),
            };
            for f in fps {
                assert!(seen.insert(f.units), "fps {f:?} reused");
            }
        }
        let text = format!("{a:?}");
        assert_eq!(crate::rng::digest(&text), PINNED_TIER_DIGEST, "{text:.300}");
    }

    /// Digest of `format!("{:?}", requests(7).take(40))`.
    const PINNED_TIER_DIGEST: u64 = 16218094239280894645;
}
