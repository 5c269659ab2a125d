//! Request execution against the daemon's shared state: one
//! process-wide [`EstimateCache`] (optionally disk-backed) and a
//! request dedup map. What a request means is decided by [`resolve`],
//! the same path `camj <cmd>` runs locally; this module only
//! deduplicates and renders wire frames.
//!
//! ## Dedup / in-flight contract
//!
//! Deterministic request kinds (`estimate`, `simulate`, `sweep`,
//! `pareto`, `search`) are keyed by [`Request::fingerprint`] — the
//! request with its correlation id zeroed — into a map of per-request
//! `OnceLock` slots, the same shape the estimate cache uses per entry:
//!
//! * two clients submitting the same fingerprint **join the same
//!   in-flight slot** — the computation runs once, late arrivals block
//!   on the slot and replay the finished frames under their own id;
//! * completed slots stay resident, so a repeat of any earlier request
//!   is answered from memory without touching the estimation stack
//!   (this is what makes a warm repeat orders of magnitude faster);
//! * a handler panic propagates out of `get_or_init` leaving the slot
//!   **uninitialized** — the panicking request gets a structured
//!   `error` frame from the worker's `catch_unwind`, and the next
//!   identical request recomputes cleanly instead of replaying a
//!   half-built response.
//!
//! `validate` is cheap and side-effect-free, and `stats`/`shutdown`
//! are volatile by design; none of them deduplicate. A request
//! carrying a `fault` directive never enters the map either, so
//! injected failures can't poison real traffic.
//!
//! Result bodies are **deterministic**: they exclude cache statistics
//! and any other warmth-dependent value (the `stats` request exposes
//! those separately), so a cold daemon, a tier-warmed daemon, and a
//! dedup replay all produce byte-identical frames for the same
//! request.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use serde_json::Value;

use camj_core::energy::EstimateCache;
use camj_tech::fingerprint::Fingerprint;

use crate::protocol::{serialize_frame, Frame, Reject, Request, RequestKind};
use crate::resolve::{self, Outcome};
use crate::tier::DiskTier;

/// A finished response: the id-less wire lines of one request's frames.
type Rendered = Arc<Vec<String>>;

/// One in-flight/completed dedup slot (same shape as a cache entry).
type DedupSlot = Arc<OnceLock<Rendered>>;

/// The daemon's process-wide shared state.
#[derive(Debug)]
pub struct SharedState {
    cache: Arc<EstimateCache>,
    tier: Option<Arc<DiskTier>>,
    fault_injection: bool,
    requests: AtomicU64,
    dedup_hits: AtomicU64,
    dedup: Mutex<HashMap<Fingerprint, DedupSlot>>,
}

impl SharedState {
    /// Builds the daemon state: a fresh estimate cache, disk-backed
    /// when `cache_dir` is given. `fault_injection` arms the request
    /// `fault` directive (tests only).
    pub fn new(cache_dir: Option<&Path>, fault_injection: bool) -> std::io::Result<Self> {
        let tier = match cache_dir {
            Some(dir) => Some(Arc::new(DiskTier::open(dir)?)),
            None => None,
        };
        let cache = match &tier {
            Some(tier) => EstimateCache::shared_with_tier(Arc::clone(tier) as _),
            None => EstimateCache::shared(),
        };
        Ok(Self {
            cache,
            tier,
            fault_injection,
            requests: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup: Mutex::new(HashMap::new()),
        })
    }

    /// The shared estimate cache (tests inspect its stats).
    #[must_use]
    pub fn cache(&self) -> &Arc<EstimateCache> {
        &self.cache
    }

    /// Answers one request: the response frames, pre-rendered as
    /// id-less protocol lines (the caller stamps the client's id with
    /// [`crate::protocol::stamp_line`]) and whether the daemon should
    /// stop afterwards. Rendering once at compute time is what makes a
    /// dedup replay nearly free: late arrivals splice their id into
    /// finished strings instead of re-serializing frame bodies.
    ///
    /// May panic (a handler bug, or an armed `fault` directive); the
    /// worker loop catches that and renders a structured error frame,
    /// keeping the daemon up.
    pub fn respond(&self, request: &Request) -> (Rendered, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let _span = obs_core::span("serve.request");
        match request.kind {
            RequestKind::Shutdown => {
                let mut body = serde_json::Map::new();
                body.insert("stopping", Value::Bool(true));
                (
                    Arc::new(render(&[Frame::result(Value::Object(body))])),
                    true,
                )
            }
            RequestKind::Stats | RequestKind::Validate => {
                (Arc::new(render(&self.execute(request))), false)
            }
            _ if request.fault.is_some() => (Arc::new(render(&self.execute(request))), false),
            _ => (self.deduped(request), false),
        }
    }

    /// The dedup replay fast path: answers a request line that is the
    /// canonical serialization of a request whose response is already
    /// rendered, without parsing the line (see
    /// [`crate::protocol::canonical_line_key`]). Returns the line's id
    /// and the rendered response, booked exactly like a replay through
    /// [`Self::respond`]; `None` means "parse it and call `respond`" —
    /// for every other line, and for a slot still being computed.
    pub fn replay(&self, line: &str) -> Option<(u64, Rendered)> {
        let (id, fp) = crate::protocol::canonical_line_key(line)?;
        let rendered = {
            let map = self.dedup.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.get(&fp)?.get()?)
        };
        self.requests.fetch_add(1, Ordering::Relaxed);
        let _span = obs_core::span("serve.request");
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        obs_core::counter("serve.dedup.hit", 0, 1);
        Some((id, rendered))
    }

    /// The dedup path: join or create the in-flight slot for this
    /// request's fingerprint, computing at most once process-wide.
    fn deduped(&self, request: &Request) -> Rendered {
        let fp = request.fingerprint();
        let slot = {
            let mut map = self.dedup.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&fp) {
                Some(slot) => {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    obs_core::counter("serve.dedup.hit", 0, 1);
                    Arc::clone(slot)
                }
                None => {
                    let slot = Arc::new(OnceLock::new());
                    map.insert(fp, Arc::clone(&slot));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(render(&self.execute(request)))))
    }

    /// Executes a request unconditionally (no dedup), returning the
    /// id-less response frames.
    fn execute(&self, request: &Request) -> Vec<Frame> {
        if self.fault_injection && request.fault.as_deref() == Some("panic") {
            panic!("injected fault: request asked the handler to panic");
        }
        match request.kind {
            RequestKind::Stats => self.run_stats(),
            // Handled in respond(); unreachable through the public path.
            RequestKind::Shutdown => vec![],
            _ => self
                .run(request)
                .unwrap_or_else(|reject| vec![reject.frame()]),
        }
    }

    /// Loads the inline design, resolves the request against it, runs
    /// the plan on the shared cache, and renders the outcome.
    fn run(&self, request: &Request) -> Result<Vec<Frame>, Reject> {
        let Some(design) = &request.design else {
            return Err(Reject::at(
                "request.design",
                format!(
                    "the '{}' request needs an inline design description",
                    request.kind.as_str()
                ),
            ));
        };
        // Round-trip through text so camj-desc's own loader — with its
        // path-qualified diagnostics — is the single validation
        // authority. An inline design has no file directory, so a
        // relative image stimulus resolves against the daemon's working
        // directory.
        let text = serde_json::to_string(design)
            .map_err(|e| Reject::at("request.design", e.to_string()))?;
        let (desc, model) = resolve::load_design(&text, None)?;
        let plan = resolve::plan(request, &desc)?;
        let outcome = resolve::execute(&plan, &model, &self.cache, |point| {
            Ok(model.with_fps(point.fps("fps")))
        })?;
        Ok(match outcome {
            Outcome::Validated => {
                let mut body = serde_json::Map::new();
                body.insert("ok", Value::Bool(true));
                body.insert("name", Value::String(desc.name.clone()));
                body.insert("fps", Value::Number(serde_json::Number::from_f64(desc.fps)));
                vec![Frame::result(Value::Object(body))]
            }
            Outcome::Estimate(report) => vec![Frame::result(serde_json::to_value(&report))],
            Outcome::Frame(report) => vec![Frame::result(serde_json::to_value(&report))],
            Outcome::Frames(mc) => vec![Frame::result(serde_json::to_value(&mc))],
            Outcome::Sweep(results) => {
                // Stream one `point` frame per row, then the full
                // deterministic body (rows + `"cache": null`, matching
                // `to_json(None)`).
                let rows = results.to_json_rows();
                let mut frames: Vec<Frame> = rows
                    .iter()
                    .enumerate()
                    .map(|(seq, row)| Frame::point(seq as u64, row.clone()))
                    .collect();
                let mut body = serde_json::Map::new();
                body.insert("points", Value::Array(rows));
                body.insert("cache", Value::Null);
                frames.push(Frame::result(Value::Object(body)));
                frames
            }
            Outcome::Pareto(results) => vec![Frame::result(reparse(&results.to_json(None)))],
            Outcome::Search(results) => vec![Frame::result(reparse(&results.to_json(None)))],
        })
    }

    fn run_stats(&self) -> Vec<Frame> {
        let mut body = serde_json::Map::new();
        body.insert(
            "requests",
            Value::Number(serde_json::Number::from_u64(
                self.requests.load(Ordering::Relaxed),
            )),
        );
        body.insert(
            "dedup_hits",
            Value::Number(serde_json::Number::from_u64(
                self.dedup_hits.load(Ordering::Relaxed),
            )),
        );
        body.insert("cache", serde_json::to_value(&self.cache.stats()));
        body.insert(
            "tier",
            match &self.tier {
                Some(tier) => tier.stats().to_value(),
                None => Value::Null,
            },
        );
        vec![Frame::result(Value::Object(body))]
    }
}

/// Renders frames into their wire lines (id-less: every frame here
/// carries id 0, which [`crate::protocol::stamp_line`] rewrites).
fn render(frames: &[Frame]) -> Vec<String> {
    frames.iter().map(serialize_frame).collect()
}

/// Re-parses a serializer's JSON string into a `Value` body. The
/// serializers print shortest-round-trip floats, so this is exact.
fn reparse(json: &str) -> Value {
    serde_json::from_str(json).unwrap_or(Value::Null)
}
