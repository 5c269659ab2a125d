//! The `serve` workload: an open loop against a child
//! `camj serve --listen 127.0.0.1:0` (default config, memory-only
//! cache), from one generator process with two threads and at most two
//! connections.
//!
//! * The **session** client (main thread) pipelines requests on one
//!   persistent connection: it sends each request when it falls due and
//!   reads answers in between, matching them by id.
//! * The **one-shot** client (second thread) opens a fresh connection
//!   per request and waits for the answer, as `camj --connect` does.
//!
//! Each client sends on its own schedule at a fixed mean rate
//! ([`SESSION_PER_S`], [`ONESHOT_PER_S`]), with gaps jittered uniformly
//! between half and one and a half of the mean. Request kinds come in
//! shuffled cycles ([`SESSION_CYCLE`], [`ONESHOT_CYCLE`]), so every
//! cycle holds each kind exactly its share of times. Every latency is
//! timed from the request's due time, so a stall also charges the
//! requests queued behind it. Each kind alternates quickstart and
//! Ed-Gaze designs, and hot and fresh requests: of the deduplicable
//! requests (all but validate and stats), every other one of a kind
//! comes from a small hot set and repeats exactly (a dedup replay); the
//! rest draw fps lists and seeds from large discrete sets, so they share
//! cache entries but not responses.
//!
//! Checks: every response ends in `done` with no `error` frame; a
//! repeated request must replay byte for byte; the Ed-Gaze requests
//! that match a committed golden (`edgaze.pareto.json`,
//! `edgaze.search.json`, `edgaze.pareto-accuracy.json`) must reproduce
//! it, apart from the `cache` field, which the daemon leaves `null`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::daemon::{self, check_response, frame_id, frame_kind, strip_id, Conn, Daemon};
use crate::rng::{digest, shuffled_cycles, Rng};
use crate::stats::{self, percentile, Metrics, OpTime, Tally};
use crate::Ctx;

// The rates and mixes set where each latency percentile falls. About
// three quarters of all requests are fast session requests (p50); a
// fifth are one-shots, whose wait in the daemon's accept loop spreads
// evenly over its 20 ms poll (p90 falls in their middle); fresh Ed-Gaze
// simulations, the slowest requests, are the top 2.4 % (p99). Keeping
// each percentile inside one band keeps it steady from run to run.

/// Offered session load, requests per second.
pub const SESSION_PER_S: f64 = 150.0;
/// Offered one-shot load, requests per second.
pub const ONESHOT_PER_S: f64 = 40.0;
/// The latency limit behind `slo_ratio`, ms from the due time.
pub const SLO_MS: f64 = 100.0;
/// The longest the session client blocks between checks of its
/// deadline, s.
const MAX_WAIT_S: f64 = 0.05;
/// The open loop is invalid when the session generator sends this late
/// (p99, ms)…
pub const LAG_LIMIT_MS: f64 = 20.0;
/// …or this many requests are ever due but unanswered.
pub const BACKLOG_LIMIT: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    Quickstart,
    Edgaze,
}

/// The committed goldens some Ed-Gaze requests must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Golden {
    Pareto,
    Search,
    AccuracyPareto,
}

impl Golden {
    pub const ALL: [Golden; 3] = [Golden::Pareto, Golden::Search, Golden::AccuracyPareto];

    pub fn path(self) -> &'static str {
        match self {
            Golden::Pareto => "descriptions/edgaze.pareto.json",
            Golden::Search => "descriptions/edgaze.search.json",
            Golden::AccuracyPareto => "descriptions/edgaze.pareto-accuracy.json",
        }
    }
}

/// One request, before rendering. fps values are hundredths (or, for
/// the tier round, thousandths) of a frame per second, kept integral so
/// requests compare and hash exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Validate(Design),
    Estimate(Design, Fps),
    Sweep(Design, Vec<Fps>),
    Pareto(Design, Vec<Fps>),
    GoldenPareto(Golden),
    Search(Design, Vec<Fps>, u64),
    Simulate(Design, u64),
    Stats,
}

/// A frame rate as an integer count of `1/scale` fps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fps {
    pub units: u32,
    pub scale: u32,
}

impl Fps {
    pub fn hundredths(units: u32) -> Fps {
        Fps { units, scale: 100 }
    }

    pub fn value(self) -> f64 {
        f64::from(self.units) / f64::from(self.scale)
    }
}

impl Req {
    /// The request kind's wire name.
    pub fn kind(&self) -> &'static str {
        match self {
            Req::Validate(_) => "validate",
            Req::Estimate(..) => "estimate",
            Req::Sweep(..) => "sweep",
            Req::Pareto(..) | Req::GoldenPareto(Golden::Pareto | Golden::AccuracyPareto) => {
                "pareto"
            }
            Req::Search(..) | Req::GoldenPareto(Golden::Search) => "search",
            Req::Simulate(..) => "simulate",
            Req::Stats => "stats",
        }
    }

    /// Whether a repeat must answer byte for byte the same (everything
    /// but the volatile `stats`).
    pub fn deterministic(&self) -> bool {
        !matches!(self, Req::Stats)
    }
}

/// The inline designs, as compact JSON text.
pub struct Designs {
    quickstart: String,
    edgaze: String,
}

impl Designs {
    pub fn load(root: &Path) -> Result<Designs, String> {
        let read = |name: &str| -> Result<String, String> {
            let path = root.join("descriptions").join(name);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let value: Value = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
            serde_json::to_string(&value).map_err(|e| format!("{name}: {e}"))
        };
        Ok(Designs {
            quickstart: read("quickstart.json")?,
            edgaze: read("edgaze.json")?,
        })
    }

    fn text(&self, design: Design) -> &str {
        match design {
            Design::Quickstart => &self.quickstart,
            Design::Edgaze => &self.edgaze,
        }
    }

    /// The request as one protocol line.
    pub fn render(&self, req: &Req, id: u64) -> String {
        let mut s = format!("{{\"id\":{id},\"kind\":\"{}\"", req.kind());
        let fps_list = |s: &mut String, list: &[Fps]| {
            s.push_str(",\"fps\":[");
            for (i, f) in list.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}", f.value());
            }
            s.push(']');
        };
        let design = |s: &mut String, d: Design| {
            s.push_str(",\"design\":");
            s.push_str(self.text(d));
        };
        match req {
            Req::Validate(d) => design(&mut s, *d),
            Req::Estimate(d, fps) => {
                design(&mut s, *d);
                fps_list(&mut s, &[*fps]);
            }
            Req::Sweep(d, list) | Req::Pareto(d, list) => {
                design(&mut s, *d);
                fps_list(&mut s, list);
            }
            Req::GoldenPareto(golden) => {
                design(&mut s, Design::Edgaze);
                if *golden == Golden::AccuracyPareto {
                    s.push_str(",\"objectives\":[\"total_energy\",\"accuracy:centroid\"]");
                }
            }
            Req::Search(d, list, seed) => {
                design(&mut s, *d);
                fps_list(&mut s, list);
                let _ = write!(s, ",\"seed\":{seed}");
            }
            Req::Simulate(d, seed) => {
                design(&mut s, *d);
                let _ = write!(s, ",\"seed\":{seed}");
            }
            Req::Stats => {}
        }
        s.push('}');
        s
    }
}

/// Which connection a request goes out on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Client {
    Session,
    Oneshot,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Seconds after the loop starts.
    pub due_s: f64,
    pub client: Client,
    pub req: Req,
}

/// The session mix: requests of each kind per cycle of 50.
pub const SESSION_CYCLE: [(&str, usize); 7] = [
    ("validate", 6),
    ("estimate", 17),
    ("sweep", 8),
    ("pareto", 6),
    ("search", 3),
    ("simulate", 6),
    ("stats", 4),
];

/// The one-shot mix: requests of each kind per cycle of 10.
pub const ONESHOT_CYCLE: [(&str, usize); 3] = [("validate", 3), ("estimate", 5), ("sweep", 2)];

/// Hot-set fps lists (hundredths) for sweeps and quick paretos.
const HOT_LISTS: [[u32; 4]; 4] = [
    [1000, 2000, 3000, 4000],
    [1500, 2500, 3500, 4500],
    [1200, 2400, 3600, 4800],
    [1100, 2200, 3300, 5500],
];

/// A fresh frame rate: hundredths in [10, 30) fps, feasible for both
/// designs.
fn fresh_fps(rng: &mut Rng) -> Fps {
    Fps::hundredths(1000 + rng.below(2000) as u32)
}

fn fresh_list(rng: &mut Rng, n: usize) -> Vec<Fps> {
    let mut list: Vec<Fps> = (0..n).map(|_| fresh_fps(rng)).collect();
    list.sort_by_key(|f| f.units);
    list.dedup();
    list
}

fn hot_list(rng: &mut Rng) -> Vec<Fps> {
    HOT_LISTS[rng.below(HOT_LISTS.len() as u64) as usize]
        .iter()
        .map(|&u| Fps::hundredths(u))
        .collect()
}

/// Draws the `n`-th request of `kind`. Occurrences cycle through four
/// variants so every share is exact: (hot, quickstart), (fresh,
/// quickstart), (hot, Ed-Gaze), (fresh, Ed-Gaze). Hot requests come
/// from a small set and repeat exactly; fresh ones draw fps lists and
/// seeds from large sets.
fn draw(rng: &mut Rng, kind: &str, n: usize) -> Req {
    let hot = n % 2 == 0;
    let d = if n % 4 < 2 {
        Design::Quickstart
    } else {
        Design::Edgaze
    };
    match (kind, hot) {
        ("validate", _) => Req::Validate(d),
        ("estimate", true) => Req::Estimate(d, Fps::hundredths(1500 * (1 + rng.below(2) as u32))),
        ("estimate", false) => Req::Estimate(d, fresh_fps(rng)),
        ("sweep", true) => Req::Sweep(d, hot_list(rng)),
        ("sweep", false) => Req::Sweep(d, fresh_list(rng, 16)),
        // The hot Ed-Gaze paretos and searches are the committed goldens'
        // own requests.
        ("pareto", true) => match d {
            Design::Quickstart => Req::Pareto(d, hot_list(rng)),
            Design::Edgaze if rng.below(2) == 0 => Req::GoldenPareto(Golden::Pareto),
            Design::Edgaze => Req::GoldenPareto(Golden::AccuracyPareto),
        },
        ("pareto", false) => Req::Pareto(d, fresh_list(rng, 8)),
        ("search", true) => match d {
            Design::Quickstart => Req::Search(d, hot_list(rng), 1 + rng.below(4)),
            Design::Edgaze => Req::GoldenPareto(Golden::Search),
        },
        ("search", false) => Req::Search(d, fresh_list(rng, 8), rng.below(1 << 20)),
        ("simulate", true) => Req::Simulate(d, 1 + rng.below(4)),
        ("simulate", false) => Req::Simulate(d, rng.below(1 << 40)),
        _ => Req::Stats,
    }
}

/// The request schedule for `seconds` of load: a pure function of the
/// seed and the duration, and a longer schedule extends a shorter one.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut out = Vec::new();
    for (client, rate, cycle, tag) in [
        (
            Client::Session,
            SESSION_PER_S,
            &SESSION_CYCLE[..],
            "serve.session",
        ),
        (
            Client::Oneshot,
            ONESHOT_PER_S,
            &ONESHOT_CYCLE[..],
            "serve.oneshot",
        ),
    ] {
        let mut rng = Rng::stream(seed, tag);
        let mut kinds = Vec::new();
        let mut seen: HashMap<&str, usize> = HashMap::new();
        let mut t = (0.5 + rng.unit()) / rate;
        while t < seconds {
            if kinds.is_empty() {
                kinds = shuffled_cycles(&mut rng, cycle, 1);
                kinds.reverse();
            }
            let kind = kinds.pop().expect("refilled above");
            let n = seen.entry(kind).or_default();
            let req = draw(&mut rng, kind, *n);
            *n += 1;
            out.push(Planned {
                due_s: t,
                client,
                req,
            });
            t += (0.5 + rng.unit()) / rate;
        }
    }
    out.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    out
}

/// Expected result bodies of the golden requests: the committed file
/// with its `cache` field nulled, as the daemon renders it.
pub fn goldens(root: &Path) -> Result<HashMap<Golden, String>, String> {
    let mut out = HashMap::new();
    for golden in Golden::ALL {
        let path = root.join(golden.path());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", golden.path()))?;
        let Value::Object(map) = value else {
            return Err(format!("{}: not an object", golden.path()));
        };
        let mut body = serde_json::Map::new();
        for (k, v) in map.iter() {
            body.insert(k, if k == "cache" { Value::Null } else { v.clone() });
        }
        out.insert(
            golden,
            serde_json::to_string(&Value::Object(body)).map_err(|e| e.to_string())?,
        );
    }
    Ok(out)
}

/// The body of a response's `result` frame, re-rendered compactly.
fn result_body(lines: &[String]) -> Option<String> {
    let line = lines.iter().find(|l| frame_kind(l) == Some("result"))?;
    let value: Value = serde_json::from_str(line).ok()?;
    serde_json::to_string(value.as_object()?.get("body")?).ok()
}

/// Correctness state shared by both clients' completions.
#[derive(Default)]
struct Checker {
    /// Request text → digest of its first id-less response.
    first: HashMap<u64, u64>,
    goldens: HashMap<Golden, String>,
}

impl Checker {
    fn check(
        &mut self,
        req: &Req,
        key_line: &str,
        id: u64,
        lines: &[String],
    ) -> Result<(), String> {
        check_response(id, lines)?;
        if !req.deterministic() {
            return Ok(());
        }
        let mut stripped = String::new();
        for l in lines {
            stripped.push_str(&strip_id(l));
            stripped.push('\n');
        }
        let d = digest(&stripped);
        match self.first.get(&digest(key_line)) {
            Some(&first) if first != d => {
                return Err(format!(
                    "{} request {id}: replay differs from the first answer",
                    req.kind()
                ))
            }
            Some(_) => return Ok(()),
            None => {
                self.first.insert(digest(key_line), d);
            }
        }
        if let Req::GoldenPareto(golden) = req {
            let expected = &self.goldens[golden];
            if result_body(lines).as_deref() != Some(expected.as_str()) {
                return Err(format!(
                    "request {id}: result differs from {}",
                    golden.path()
                ));
            }
        }
        Ok(())
    }
}

/// What one open-loop pass measured.
#[derive(Default)]
pub struct LoadResult {
    /// Kind and latency (from its due time) of each session request.
    pub session: Vec<(&'static str, OpTime)>,
    pub oneshot: Vec<OpTime>,
    /// Session send lateness, ms.
    pub lags_ms: Vec<f64>,
    pub backlog_max: usize,
    pub max_threads: usize,
    pub max_connections: usize,
    pub tally: Tally,
    /// Wall time of the pass, s.
    pub wall_s: f64,
}

impl LoadResult {
    pub fn all_ops(&self) -> Vec<OpTime> {
        self.session
            .iter()
            .map(|(_, t)| *t)
            .chain(self.oneshot.iter().copied())
            .collect()
    }

    /// Fails loudly when the open loop did not hold its schedule or
    /// used more threads or connections than the host has cores.
    pub fn validate(&self, nproc: usize) -> Result<(), String> {
        let lag = percentile(&self.lags_ms, 99.0);
        if lag > LAG_LIMIT_MS {
            return Err(format!(
                "open loop invalid: session generator p99 lag {lag:.2} ms > {LAG_LIMIT_MS} ms \
                 (p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms over {} sends)",
                percentile(&self.lags_ms, 50.0),
                percentile(&self.lags_ms, 90.0),
                percentile(&self.lags_ms, 100.0),
                self.lags_ms.len()
            ));
        }
        if self.backlog_max > BACKLOG_LIMIT {
            return Err(format!(
                "open loop invalid: backlog reached {} > {BACKLOG_LIMIT}",
                self.backlog_max
            ));
        }
        if self.max_threads > nproc || self.max_connections > nproc {
            return Err(format!(
                "open loop invalid: {} threads / {} connections on {nproc} cores",
                self.max_threads, self.max_connections
            ));
        }
        Ok(())
    }
}

/// Drives the schedule against the daemon at `addr`.
pub fn drive(
    addr: SocketAddr,
    designs: &Designs,
    goldens: &HashMap<Golden, String>,
    plan: &[Planned],
) -> Result<LoadResult, String> {
    let checker = std::sync::Mutex::new(Checker {
        goldens: goldens.clone(),
        ..Checker::default()
    });
    let connections = AtomicUsize::new(1);
    let max_connections = AtomicUsize::new(1);
    let oneshots: Vec<&Planned> = plan
        .iter()
        .filter(|p| p.client == Client::Oneshot)
        .collect();
    let sessions: Vec<&Planned> = plan
        .iter()
        .filter(|p| p.client == Client::Session)
        .collect();
    let mut conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let start = Instant::now();
    let mut result = std::thread::scope(|scope| {
        let oneshot = scope.spawn(|| {
            let mut lat = Vec::new();
            let mut tally = Tally::default();
            let mut backlog = 0usize;
            for (i, p) in oneshots.iter().enumerate() {
                let now = start.elapsed().as_secs_f64();
                if now < p.due_s {
                    std::thread::sleep(Duration::from_secs_f64(p.due_s - now));
                }
                let now = start.elapsed().as_secs_f64();
                // Requests already due but not yet started, plus this one.
                let due = oneshots[i..].iter().take_while(|q| q.due_s <= now).count();
                backlog = backlog.max(due);
                let id = 1_000_000 + i as u64;
                let line = designs.render(&p.req, id);
                let open = connections.fetch_add(1, Ordering::SeqCst) + 1;
                max_connections.fetch_max(open, Ordering::SeqCst);
                let answer = daemon::request_once(addr, &line);
                connections.fetch_sub(1, Ordering::SeqCst);
                let ms = (start.elapsed().as_secs_f64() - p.due_s) * 1e3;
                let outcome = answer
                    .map_err(|e| format!("one-shot {id}: {e}"))
                    .and_then(|lines| {
                        let key = designs.render(&p.req, 0);
                        checker
                            .lock()
                            .expect("checker lock")
                            .check(&p.req, &key, id, &lines)
                    });
                lat.push(OpTime {
                    ms,
                    ok: outcome.is_ok(),
                });
                tally.check(outcome);
            }
            (lat, tally, backlog)
        });
        let session = run_session(&mut conn, designs, &sessions, start, &checker);
        let (lat, tally, backlog) = oneshot.join().expect("the one-shot client does not panic");
        session.map(|mut r| {
            r.oneshot = lat;
            r.tally.absorb(tally);
            r.backlog_max += backlog;
            r
        })
    })?;
    result.wall_s = start.elapsed().as_secs_f64();
    result.max_connections = max_connections.load(Ordering::SeqCst);
    Ok(result)
}

/// The session client: send on schedule, read between sends.
fn run_session(
    conn: &mut Conn,
    designs: &Designs,
    plan: &[&Planned],
    start: Instant,
    checker: &std::sync::Mutex<Checker>,
) -> Result<LoadResult, String> {
    let mut r = LoadResult::default();
    // Reads never block: the client waits in `Conn::wait_readable`,
    // which wakes on an answer or at the next due time.
    conn.set_nonblocking(true)
        .map_err(|e| format!("session connection: {e}"))?;
    // id → (plan index, partial frames)
    let mut inflight: HashMap<u64, (usize, Vec<String>)> = HashMap::new();
    let mut buf = Vec::new();
    let mut next = 0;
    let mut last_thread_probe = 0.0;
    let io = |e: std::io::Error| format!("session connection: {e}");
    let deadline = plan.last().map_or(0.0, |p| p.due_s) + 60.0;
    while next < plan.len() || !inflight.is_empty() {
        let now = start.elapsed().as_secs_f64();
        if now > deadline {
            return Err(format!(
                "session: {} requests unanswered after 60 s",
                inflight.len()
            ));
        }
        if now - last_thread_probe > 0.25 {
            last_thread_probe = now;
            r.max_threads = r.max_threads.max(daemon::own_threads());
        }
        if next < plan.len() && plan[next].due_s <= now {
            let p = plan[next];
            let id = next as u64 + 1;
            conn.send(&designs.render(&p.req, id)).map_err(io)?;
            r.lags_ms
                .push((start.elapsed().as_secs_f64() - p.due_s) * 1e3);
            inflight.insert(id, (next, Vec::new()));
            let due = plan[next + 1..]
                .iter()
                .take_while(|q| q.due_s <= now)
                .count();
            r.backlog_max = r.backlog_max.max(inflight.len() + due);
            next += 1;
            continue;
        }
        if !conn.read_line_into(&mut buf).map_err(io)? {
            // Nothing to read: wait for an answer or the next due send.
            let until_due = plan.get(next).map_or(MAX_WAIT_S, |p| p.due_s - now);
            conn.wait_readable(Duration::from_secs_f64(until_due.clamp(0.0, MAX_WAIT_S)))
                .map_err(io)?;
            continue;
        }
        let line = String::from_utf8(std::mem::take(&mut buf)).map_err(|e| e.to_string())?;
        let Some(id) = frame_id(&line) else {
            r.tally
                .fail(format!("session: unparseable frame {line:.120}"));
            continue;
        };
        let done = frame_kind(&line) == Some("done");
        let Some(entry) = inflight.get_mut(&id) else {
            r.tally.fail(format!("session: frame for unknown id {id}"));
            continue;
        };
        entry.1.push(line);
        if done {
            let (index, lines) = inflight.remove(&id).expect("present");
            let p = plan[index];
            let ms = (start.elapsed().as_secs_f64() - p.due_s) * 1e3;
            let key = designs.render(&p.req, 0);
            let outcome = checker
                .lock()
                .expect("checker lock")
                .check(&p.req, &key, id, &lines);
            r.session.push((
                p.req.kind(),
                OpTime {
                    ms,
                    ok: outcome.is_ok(),
                },
            ));
            r.tally.check(outcome);
        }
    }
    Ok(r)
}

/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// Starts a daemon [`SETUP_REPS`] times; returns the median
/// start-to-listening time and the last daemon. Each earlier daemon is
/// shut down off the clock.
fn start_timed(ctx: &Ctx) -> Result<(f64, Daemon), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(Daemon::start(&ctx.camj, &[])?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), last.expect("SETUP_REPS > 0")))
}

/// The daemon's `stats` body.
pub fn daemon_stats(addr: SocketAddr) -> Result<Value, String> {
    let lines =
        daemon::request_once(addr, r#"{"id":7,"kind":"stats"}"#).map_err(|e| e.to_string())?;
    check_response(7, &lines)?;
    let line = lines
        .iter()
        .find(|l| frame_kind(l) == Some("result"))
        .ok_or("no stats result")?;
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    value
        .as_object()
        .and_then(|o| o.get("body"))
        .cloned()
        .ok_or_else(|| "stats without body".to_owned())
}

/// A number at `path` (dot-separated) inside a JSON value.
pub fn num_at(value: &Value, path: &str) -> f64 {
    path.split('.')
        .try_fold(value, |v, key| v.as_object()?.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

pub fn timed(ctx: &Ctx) -> Result<(Metrics, Tally), String> {
    let designs = Designs::load(&ctx.root)?;
    let goldens = goldens(&ctx.root)?;
    let plan = schedule(ctx.seed, ctx.seconds);
    let (setup_s, d) = start_timed(ctx)?;
    let load = drive(d.addr, &designs, &goldens, &plan)?;
    let rss = d.peak_rss_mib();
    d.shutdown()?;
    load.validate(ctx.nproc)?;

    let mut m = Metrics::default();
    let ops = load.all_ops();
    m.put("setup_s", setup_s, "s");
    m.put("ops_per_s", ops.len() as f64 / load.wall_s, "1/s");
    stats::put_latency(&mut m, &ops, load.tally.attempted, SLO_MS);
    m.put("ok_ratio", load.tally.ok_ratio(), "ratio");
    m.put("peak_rss_mib", rss, "MiB");
    crate::put_quality(&mut m, ctx)?;
    Ok((m, load.tally))
}

/// A short traced open-loop pass (`--metrics json`) for the per-layer
/// rows: session/one-shot medians, generator lag, backlog, the daemon's
/// dedup and cache counters, and its span table.
pub fn layer_rows(ctx: &Ctx, m: &mut Metrics, seconds: f64) -> Result<(Tally, Value, f64), String> {
    let designs = Designs::load(&ctx.root)?;
    let goldens = goldens(&ctx.root)?;
    let plan = schedule(ctx.seed, seconds);
    let d = Daemon::start(&ctx.camj, &["--metrics", "json"])?;
    let load = drive(d.addr, &designs, &goldens, &plan)?;
    let st = daemon_stats(d.addr)?;
    let report = d.shutdown()?;
    load.validate(ctx.nproc)?;

    let session: Vec<f64> = load.session.iter().map(|(_, t)| t.ms).collect();
    let oneshot: Vec<f64> = load.oneshot.iter().map(|t| t.ms).collect();
    m.put("serve.session_p50_ms", stats::median(&session), "ms");
    m.put("serve.oneshot_p50_ms", stats::median(&oneshot), "ms");
    m.put(
        "serve.generator_lag_p99_ms",
        percentile(&load.lags_ms, 99.0),
        "ms",
    );
    m.put("serve.backlog_max", load.backlog_max as f64, "count");
    let requests = num_at(&st, "requests");
    m.put(
        "serve.dedup_hit_ratio",
        num_at(&st, "dedup_hits") / requests.max(1.0),
        "ratio",
    );
    m.put("serve.cache_entries", num_at(&st, "cache.entries"), "count");
    m.put("serve.cache_bytes", num_at(&st, "cache.bytes"), "bytes");
    let validate: Vec<f64> = load
        .session
        .iter()
        .filter(|(k, _)| *k == "validate")
        .map(|(_, t)| t.ms)
        .collect();
    let report = metrics_report(&report)?;
    // How loaded the open loop kept the daemon: request time over the
    // core time the pass had.
    let request_ms: f64 = report_spans(&report)
        .filter(|s| {
            s.as_object()
                .and_then(|o| o.get("name"))
                .and_then(Value::as_str)
                == Some("serve.request")
        })
        .map(|s| num_at(s, "total_ms"))
        .sum();
    m.put(
        "serve.busy_fraction",
        request_ms / (load.wall_s * 1e3 * ctx.nproc as f64),
        "ratio",
    );
    Ok((load.tally, report, stats::median(&validate)))
}

/// The span entries of a `camj-metrics-v1` report.
pub fn report_spans(report: &Value) -> impl Iterator<Item = &Value> {
    report
        .as_object()
        .and_then(|o| o.get("spans"))
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
}

/// The `camj-metrics-v1` report a `--metrics json` daemon printed.
pub fn metrics_report(stderr: &str) -> Result<Value, String> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("{\"schema\":\"camj-metrics-v1\""))
        .ok_or("the daemon printed no metrics report")?;
    serde_json::from_str(line).map_err(|e| format!("metrics report: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pinned_function_of_the_seed() {
        let a = schedule(7, 2.0);
        assert_eq!(a, schedule(7, 2.0));
        assert_ne!(a, schedule(8, 2.0));
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        // A longer schedule extends a shorter one.
        let longer = schedule(7, 4.0);
        let prefix: Vec<_> = longer.iter().filter(|p| p.due_s < 2.0).cloned().collect();
        assert_eq!(prefix, a);
        let text = format!("{a:?}");
        assert_eq!(digest(&text), PINNED_SERVE_DIGEST, "{text:.400}");
    }

    /// Digest of `format!("{:?}", schedule(7, 2.0))`.
    const PINNED_SERVE_DIGEST: u64 = 12785343043541794650;

    #[test]
    fn schedule_meets_its_rates_and_shares() {
        let plan = schedule(11, 60.0);
        for (client, rate, cycle) in [
            (Client::Session, SESSION_PER_S, &SESSION_CYCLE[..]),
            (Client::Oneshot, ONESHOT_PER_S, &ONESHOT_CYCLE[..]),
        ] {
            let sent: Vec<_> = plan.iter().filter(|p| p.client == client).collect();
            let expected = rate * 60.0;
            assert!(
                (sent.len() as f64 - expected).abs() < 0.02 * expected,
                "{}",
                sent.len()
            );
            let per_cycle: usize = cycle.iter().map(|(_, n)| n).sum();
            for chunk in sent.chunks_exact(per_cycle) {
                for (kind, n) in cycle {
                    assert_eq!(chunk.iter().filter(|p| p.req.kind() == *kind).count(), *n);
                }
            }
            // Gaps stay within half and one and a half of the mean.
            for w in sent.windows(2) {
                let gap = (w[1].due_s - w[0].due_s) * rate;
                assert!((0.5..1.5).contains(&gap), "{gap}");
            }
        }
    }

    #[test]
    fn requests_render_as_protocol_lines() {
        let designs = Designs {
            quickstart: "{\"q\":1}".into(),
            edgaze: "{\"e\":1}".into(),
        };
        let line = designs.render(&Req::Estimate(Design::Edgaze, Fps::hundredths(1525)), 9);
        assert_eq!(
            line,
            r#"{"id":9,"kind":"estimate","design":{"e":1},"fps":[15.25]}"#
        );
        let parsed = camj_serve::protocol::parse_request(&line).expect("parses");
        assert_eq!(parsed.id, 9);
        assert_eq!(parsed.fps.as_deref(), Some(&[15.25][..]));
        let line = designs.render(&Req::GoldenPareto(Golden::AccuracyPareto), 0);
        let parsed = camj_serve::protocol::parse_request(&line).expect("parses");
        assert_eq!(parsed.kind.as_str(), "pareto");
        assert_eq!(parsed.objectives.map(|o| o.len()), Some(2));
        assert_eq!(designs.render(&Req::Stats, 3), r#"{"id":3,"kind":"stats"}"#);
    }

    #[test]
    fn open_loop_validity_fails_loudly() {
        let mut r = LoadResult {
            lags_ms: vec![0.1; 100],
            max_threads: 2,
            max_connections: 2,
            ..LoadResult::default()
        };
        assert!(r.validate(2).is_ok());
        r.lags_ms[99] = 50.0;
        r.lags_ms[98] = 50.0;
        assert!(r.validate(2).is_err());
        r.lags_ms = vec![0.1; 100];
        r.backlog_max = BACKLOG_LIMIT + 1;
        assert!(r.validate(2).is_err());
        r.backlog_max = 0;
        r.max_threads = 3;
        assert!(r.validate(2).is_err());
    }
}
