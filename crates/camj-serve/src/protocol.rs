//! The wire protocol: newline-delimited JSON frames.
//!
//! Every message — request or response — is one JSON object on one
//! line, terminated by `\n`. A client sends [`Request`] lines; the
//! server answers each with zero or more [`Frame`] lines and exactly
//! one terminal `done` frame, all carrying the request's `id` so a
//! pipelining client can match responses even when the daemon
//! interleaves them.
//!
//! The frame layout is **flat** — a `frame` discriminant plus optional
//! per-kind fields — rather than an internally-tagged enum, so the
//! encoding stays a plain struct round trip (`Option` fields are
//! simply absent) and a frame never needs two-pass parsing:
//!
//! ```text
//! {"id":7,"frame":"point","seq":0,"body":{...}}        streamed row
//! {"id":7,"frame":"result","body":{...}}               final payload
//! {"id":7,"frame":"error","path":"request.kind","message":"..."}
//! {"id":7,"frame":"done","frames":3}                   terminator
//! ```
//!
//! Malformed input never disconnects: a line that fails to parse (bad
//! JSON, unknown kind, oversized line) produces an `error` frame whose
//! `path` names the offending field — `request`, `request.kind`,
//! `request.design`, … — followed by `done`, and the connection keeps
//! reading.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use camj_desc::ir::SweepConstraintsIr;
use camj_tech::fingerprint::{Fingerprint, FpHasher};

/// Hard cap on one protocol line, in bytes. Inline designs are tens of
/// kilobytes; anything past this is a client bug (or garbage on the
/// port) and is rejected with an `error` frame, not read into memory.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Protocol version, stamped into request fingerprints (and the disk
/// tier's entry headers) so incompatible encodings never alias.
pub const PROTOCOL_VERSION: u32 = 1;

/// What a request asks the daemon to do. Mirrors the CLI subcommands
/// one-to-one, plus daemon-only `stats` and `shutdown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RequestKind {
    /// Parse + validate the inline design; no estimation.
    Validate,
    /// One energy estimate (optionally at an overridden frame rate).
    Estimate,
    /// Noise-aware functional simulation of one frame (or a
    /// Monte-Carlo batch when `samples > 1`).
    Simulate,
    /// Frame-rate sweep through the incremental engine; streams one
    /// `point` frame per row before the final `result`.
    Sweep,
    /// Multi-objective Pareto exploration over the frame-rate grid.
    Pareto,
    /// Adaptive frontier search.
    Search,
    /// Volatile daemon statistics: request/dedup counters, in-memory
    /// cache stats, disk-tier stats. Never deduplicated, never part of
    /// a deterministic result body.
    Stats,
    /// Stop the daemon after answering.
    Shutdown,
}

impl RequestKind {
    /// The wire spelling of every kind, for error messages.
    pub const ALL: [&'static str; 8] = [
        "validate", "estimate", "simulate", "sweep", "pareto", "search", "stats", "shutdown",
    ];

    /// The wire spelling of this kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Validate => "validate",
            RequestKind::Estimate => "estimate",
            RequestKind::Simulate => "simulate",
            RequestKind::Sweep => "sweep",
            RequestKind::Pareto => "pareto",
            RequestKind::Search => "search",
            RequestKind::Stats => "stats",
            RequestKind::Shutdown => "shutdown",
        }
    }
}

/// One client request. Fields beyond `kind` are per-kind knobs with
/// the same defaults as the CLI flags they mirror; absent fields fall
/// back to the inline design's `sweep` block where one exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every response frame.
    /// Keep it at or below 2^53: JSON interop treats numbers as IEEE
    /// doubles, so larger ids lose precision in transit.
    #[serde(default)]
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// The inline camj-desc design description (the same JSON a
    /// description file holds). Required by every kind except `stats`
    /// and `shutdown`.
    pub design: Option<Value>,
    /// Frame-rate targets. `estimate`/`simulate` take at most one;
    /// sweeps take the full list (default: the design's `sweep.fps`).
    pub fps: Option<Vec<f64>>,
    /// RNG seed (`simulate`, `search`).
    pub seed: Option<u64>,
    /// Monte-Carlo sample count (`simulate`; 1..=1024).
    pub samples: Option<u32>,
    /// Stimulus spec (`simulate`; `uniform:<level>` or
    /// `gradient:<low>,<high>`).
    pub stimulus: Option<String>,
    /// Objective names (`pareto`, `search`).
    pub objectives: Option<Vec<String>>,
    /// Feasibility budgets (`pareto`, `search`), in the description's
    /// `sweep.constraints` shape. A block naming any budget replaces
    /// the design's whole block.
    pub constraints: Option<SweepConstraintsIr>,
    /// Search population (`search`).
    pub population: Option<u64>,
    /// Search generation cap (`search`).
    pub generations: Option<u64>,
    /// Search evaluation budget (`search`).
    pub budget: Option<u64>,
    /// Fault-injection directive, honored only when the daemon runs
    /// with `--fault-injection` (tests): `"panic"` makes the handler
    /// panic mid-request to exercise panic isolation.
    pub fault: Option<String>,
}

impl Request {
    /// A bare request of the given kind; every knob unset.
    #[must_use]
    pub fn new(kind: RequestKind) -> Self {
        Self {
            id: 0,
            kind,
            design: None,
            fps: None,
            seed: None,
            samples: None,
            stimulus: None,
            objectives: None,
            constraints: None,
            population: None,
            generations: None,
            budget: None,
            fault: None,
        }
    }

    /// Content fingerprint of everything the execution reads — the
    /// request with its `id` zeroed — used as the dedup key: two
    /// clients submitting the same work join the same in-flight slot
    /// regardless of their correlation ids.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        let mut canonical = self.clone();
        canonical.id = 0;
        let json = serde_json::to_string(&canonical).unwrap_or_default();
        canonical_fingerprint(&json, "")
    }
}

/// The fingerprint of canonical request JSON `head` + `tail` (the
/// request's [`serialize_request`] form with `id` zeroed).
fn canonical_fingerprint(head: &str, tail: &str) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_str("camj-serve.request");
    h.write_u32(PROTOCOL_VERSION);
    // `write_str` of the concatenation, without building it.
    h.write_usize(head.len() + tail.len());
    h.write_bytes(head.as_bytes());
    h.write_bytes(tail.as_bytes());
    h.finish()
}

/// The id and [`Request::fingerprint`] a request line has *if* it is
/// the canonical serialization of a request ([`serialize_request`]
/// output, as `camj --connect` sends), computed from the raw text
/// without parsing it. `None` when the line does not open with a
/// canonical `{"id":N,` member (N a plain integer of at most 15
/// digits, so exactly representable).
///
/// A line that is not canonical still gets a key here, but one no
/// parsed request has, so it can only miss: the daemon uses this to
/// answer dedup replays before parsing, and parses on a miss.
#[must_use]
pub fn canonical_line_key(line: &str) -> Option<(u64, Fingerprint)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let (id, body) = rest.split_at(digits);
    let body = body.strip_prefix(',')?;
    if id.is_empty() || id.len() > 15 || (id.len() > 1 && id.starts_with('0')) {
        return None;
    }
    Some((
        id.parse().ok()?,
        canonical_fingerprint(ID_ZERO_PREFIX, body),
    ))
}

/// Response frame discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FrameKind {
    /// One streamed per-point row of a sweep (`seq`, `body`).
    Point,
    /// The request's final payload (`body`).
    Result,
    /// A failure, path-qualified (`path`, `message`). Non-terminal:
    /// `done` still follows.
    Error,
    /// Terminator: always the last frame of a response (`frames` =
    /// how many frames preceded it).
    Done,
}

/// One response frame. See the module docs for the wire layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// The originating request's `id` (0 when the request was too
    /// malformed to carry one).
    #[serde(default)]
    pub id: u64,
    /// Frame discriminant.
    pub frame: FrameKind,
    /// Row index, dense from 0 in grid order (`point` frames).
    pub seq: Option<u64>,
    /// Payload (`point` and `result` frames).
    pub body: Option<Value>,
    /// Dotted path to the offending field (`error` frames), e.g.
    /// `request.kind` or `request.design`.
    pub path: Option<String>,
    /// Human-readable failure description (`error` frames).
    pub message: Option<String>,
    /// Number of frames that preceded this terminator (`done` frames).
    pub frames: Option<u64>,
}

impl Frame {
    fn bare(frame: FrameKind) -> Self {
        Self {
            id: 0,
            frame,
            seq: None,
            body: None,
            path: None,
            message: None,
            frames: None,
        }
    }

    /// A streamed sweep row.
    #[must_use]
    pub fn point(seq: u64, body: Value) -> Self {
        Self {
            seq: Some(seq),
            body: Some(body),
            ..Self::bare(FrameKind::Point)
        }
    }

    /// The final payload.
    #[must_use]
    pub fn result(body: Value) -> Self {
        Self {
            body: Some(body),
            ..Self::bare(FrameKind::Result)
        }
    }

    /// A path-qualified failure.
    #[must_use]
    pub fn error(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            path: Some(path.into()),
            message: Some(message.into()),
            ..Self::bare(FrameKind::Error)
        }
    }

    /// The terminator.
    #[must_use]
    pub fn done(frames: u64) -> Self {
        Self {
            frames: Some(frames),
            ..Self::bare(FrameKind::Done)
        }
    }

    /// The same frame re-stamped with a request id.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }
}

/// A parse/validation failure, qualified by the dotted path of the
/// offending field. Converts 1:1 into an `error` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Dotted field path, rooted at `request`.
    pub path: String,
    /// What went wrong.
    pub message: String,
    /// The request's `id`, when the line parsed far enough to read it.
    pub id: u64,
}

impl Reject {
    /// A rejection at `path`.
    #[must_use]
    pub fn at(path: &str, message: impl Into<String>) -> Self {
        Self {
            path: path.to_owned(),
            message: message.into(),
            id: 0,
        }
    }

    /// The `error` frame this rejection renders as.
    #[must_use]
    pub fn frame(&self) -> Frame {
        Frame::error(self.path.clone(), self.message.clone()).with_id(self.id)
    }
}

/// Parses one request line. Never panics; every failure is a
/// path-qualified [`Reject`] carrying the request id when the line
/// parsed far enough to have one.
pub fn parse_request(line: &str) -> Result<Request, Reject> {
    if line.len() > MAX_LINE_BYTES {
        return Err(Reject::at(
            "request",
            format!(
                "line of {} bytes exceeds the {} byte limit",
                line.len(),
                MAX_LINE_BYTES
            ),
        ));
    }
    let value: Value = serde_json::from_str(line)
        .map_err(|e| Reject::at("request", format!("invalid JSON: {e}")))?;
    let Some(object) = value.as_object() else {
        return Err(Reject::at(
            "request",
            format!("a request must be a JSON object, got {}", value.kind()),
        ));
    };
    // Best-effort id extraction so even a rejected line's error frame
    // correlates back to the client's request.
    let id = object
        .get("id")
        .and_then(Value::as_f64)
        .filter(|v| v.fract() == 0.0 && *v >= 0.0)
        .map_or(0, |v| v as u64);
    let qualify = |mut reject: Reject| {
        reject.id = id;
        reject
    };
    // Pre-check the discriminant by hand so an unknown kind reports at
    // `request.kind`, not as an opaque whole-struct decode failure.
    match object.get("kind") {
        None => return Err(qualify(Reject::at("request.kind", "missing request kind"))),
        Some(Value::String(kind)) if !RequestKind::ALL.contains(&kind.as_str()) => {
            return Err(qualify(Reject::at(
                "request.kind",
                format!(
                    "unknown request kind '{kind}' (expected one of: {})",
                    RequestKind::ALL.join(", ")
                ),
            )));
        }
        Some(Value::String(_)) => {}
        Some(other) => {
            return Err(qualify(Reject::at(
                "request.kind",
                format!("request kind must be a string, got {}", other.kind()),
            )));
        }
    }
    serde_json::from_value::<Request>(&value)
        .map_err(|e| qualify(Reject::at("request", format!("malformed request: {e}"))))
}

/// Serializes a request as one protocol line (no trailing newline).
#[must_use]
pub fn serialize_request(request: &Request) -> String {
    serde_json::to_string(request).unwrap_or_default()
}

/// Parses one response frame line (the client side of the protocol).
pub fn parse_frame(line: &str) -> Result<Frame, Reject> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| Reject::at("frame", format!("invalid JSON: {e}")))?;
    serde_json::from_value::<Frame>(&value)
        .map_err(|e| Reject::at("frame", format!("malformed frame: {e}")))
}

/// Serializes a frame as one protocol line (no trailing newline).
#[must_use]
pub fn serialize_frame(frame: &Frame) -> String {
    serde_json::to_string(frame).unwrap_or_default()
}

/// The prefix every id-less rendered frame line, and every canonical
/// request line with its id zeroed, starts with: `id` is the first
/// declared field of [`Frame`] and of [`Request`], and the serializer
/// emits fields in declaration order. [`stamp_line`] and
/// [`canonical_line_key`] rely on this; unit tests pin it.
const ID_ZERO_PREFIX: &str = "{\"id\":0,";

/// Rewrites an id-less rendered frame line (as produced by the
/// handler) to carry `id` — the replay fast path: dedup slots store
/// finished strings, and a late arrival splices its correlation id in
/// instead of deep-cloning and re-serializing frame bodies.
#[must_use]
pub fn stamp_line(line: &str, id: u64) -> String {
    let mut out = String::with_capacity(line.len() + 20);
    push_stamped(&mut out, line, &id_prefix(id));
    out
}

/// Appends id-less rendered frame lines to `out`, each stamped with
/// `id` as [`stamp_line`] does and terminated by `\n` — how the daemon
/// assembles a response's one write payload, formatting the id once.
pub fn stamp_lines_into<'a>(out: &mut String, lines: impl IntoIterator<Item = &'a str>, id: u64) {
    let prefix = id_prefix(id);
    for line in lines {
        push_stamped(out, line, &prefix);
        out.push('\n');
    }
}

/// `{"id":<id>,` — what replaces [`ID_ZERO_PREFIX`].
fn id_prefix(id: u64) -> String {
    format!("{{\"id\":{id},")
}

fn push_stamped(out: &mut String, line: &str, prefix: &str) {
    debug_assert!(
        line.starts_with(ID_ZERO_PREFIX),
        "rendered frames must be id-less: {line}"
    );
    match line.strip_prefix(ID_ZERO_PREFIX) {
        Some(rest) => {
            out.push_str(prefix);
            out.push_str(rest);
        }
        None => out.push_str(line),
    }
}
