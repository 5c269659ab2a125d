//! Recording sessions for the [`obs_core`] facade: thread-aware event
//! collection plus two exporters — Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and an aggregated metrics report.
//!
//! # Architecture
//!
//! Instrumented crates (`camj-core`, `camj-digital`, `camj-explore`,
//! the CLI) talk only to `obs_core`'s free functions; this crate owns
//! the single process-wide [`obs_core::Recorder`] — a dispatcher that
//! forwards events to the *current* [`ObsSession`], if any:
//!
//! ```text
//! span()/counter() ──▶ obs_core (1 atomic load when disabled)
//!                        │ enabled
//!                        ▼
//!                    Dispatcher ──▶ per-thread Vec<Event> buffers
//!                                     (registered with the session)
//! ```
//!
//! Each OS thread appends to its own buffer behind an uncontended
//! mutex, found through a thread-local cache keyed by a global session
//! epoch — so the steady-state enabled path is: one atomic load, one
//! epoch compare, one `Instant` read, one `Vec::push`. No event ever
//! formats a string (names are `&'static str`) and buffers only grow
//! while a session is recording.
//!
//! Sessions are exclusive: [`ObsSession::begin`] holds a process-wide
//! lock until [`ObsSession::finish`], which disables the facade,
//! detaches every thread buffer, and returns an immutable
//! [`Recording`] for export (see [`Recording::chrome_trace_json`],
//! [`Recording::metrics`], [`Recording::determinism_digest`]).

#![deny(missing_docs)]

mod export;

pub use export::{CounterStat, MetricsReport, SpanStat};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What one recorded event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened on this thread.
    Begin,
    /// The most recent open span of this name on this thread closed.
    End,
    /// A counter increment.
    Counter,
}

/// One recorded event: kind + static name + attribution key + value,
/// stamped with nanoseconds since the session started.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Static span/counter name.
    pub name: &'static str,
    /// Caller-chosen attribution key (cache shard, kernel index, …);
    /// zero for spans.
    pub key: u64,
    /// Counter delta; zero for spans.
    pub value: u64,
    /// Nanoseconds since [`ObsSession::begin`].
    pub ts_nanos: u64,
}

/// One thread's append-only event buffer. Only its owning thread
/// pushes; the session drains it (under the same mutex) at finish.
#[derive(Debug)]
struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<Event>>,
}

/// Shared state of the recording session: the clock origin and the
/// registry of every thread buffer opened during the session.
#[derive(Debug)]
struct SessionInner {
    start: Instant,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    next_tid: AtomicU64,
}

impl SessionInner {
    fn register_thread(&self) -> Arc<ThreadBuf> {
        let buf = Arc::new(ThreadBuf {
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        lock(&self.threads).push(Arc::clone(&buf));
        buf
    }
}

/// Recovers from mutex poisoning: buffers are append-only event rows,
/// so a panicking holder cannot leave them structurally inconsistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bumped whenever the current session changes; thread-local caches
/// re-resolve their buffer when their stored epoch falls behind.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// The session events are currently routed to (if any).
static CURRENT: Mutex<Option<Arc<SessionInner>>> = Mutex::new(None);
/// Serialises sessions process-wide: tests and CLI commands can never
/// interleave their recordings.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

struct LocalCache {
    epoch: u64,
    route: Option<(Arc<SessionInner>, Arc<ThreadBuf>)>,
}

thread_local! {
    static LOCAL: RefCell<LocalCache> = const {
        RefCell::new(LocalCache { epoch: 0, route: None })
    };
}

/// The process-wide recorder: resolves the calling thread's buffer for
/// the current session (through the epoch-checked thread-local cache)
/// and appends one event. Events arriving with no session in place —
/// e.g. a straddling span end after `finish` — are dropped.
struct Dispatcher;

impl Dispatcher {
    fn record(&self, kind: EventKind, name: &'static str, key: u64, value: u64) {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let epoch = EPOCH.load(Ordering::Acquire);
            if local.epoch != epoch {
                local.epoch = epoch;
                local.route = lock(&CURRENT)
                    .as_ref()
                    .map(|s| (Arc::clone(s), s.register_thread()));
            }
            if let Some((session, buf)) = &local.route {
                let ts_nanos = session.start.elapsed().as_nanos() as u64;
                lock(&buf.events).push(Event {
                    kind,
                    name,
                    key,
                    value,
                    ts_nanos,
                });
            }
        });
    }
}

impl obs_core::Recorder for Dispatcher {
    fn span_begin(&self, name: &'static str) {
        self.record(EventKind::Begin, name, 0, 0);
    }
    fn span_end(&self, name: &'static str) {
        self.record(EventKind::End, name, 0, 0);
    }
    fn counter(&self, name: &'static str, key: u64, delta: u64) {
        self.record(EventKind::Counter, name, key, delta);
    }
}

static DISPATCHER: Dispatcher = Dispatcher;

/// An exclusive recording session. While alive, every `obs_core` span
/// and counter in the process lands in this session's buffers.
///
/// ```
/// let session = camj_obs::ObsSession::begin();
/// {
///     let _work = obs_core::span("demo.work");
///     obs_core::counter("demo.items", 0, 3);
/// }
/// let recording = session.finish();
/// assert_eq!(recording.metrics().spans.len(), 1);
/// ```
#[derive(Debug)]
pub struct ObsSession {
    inner: Option<Arc<SessionInner>>,
    /// Held for the whole session so sessions are serialised.
    _exclusive: MutexGuard<'static, ()>,
}

impl ObsSession {
    /// Starts recording: installs the dispatcher (first time only),
    /// publishes a fresh session, and enables the facade. Blocks until
    /// any other live session finishes.
    #[must_use]
    pub fn begin() -> Self {
        obs_core::install(&DISPATCHER);
        let exclusive = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = Arc::new(SessionInner {
            start: Instant::now(),
            threads: Mutex::new(Vec::new()),
            next_tid: AtomicU64::new(0),
        });
        *lock(&CURRENT) = Some(Arc::clone(&inner));
        EPOCH.fetch_add(1, Ordering::Release);
        obs_core::set_enabled(true);
        ObsSession {
            inner: Some(inner),
            _exclusive: exclusive,
        }
    }

    /// Stops recording and returns everything captured. Call after the
    /// traced work fully completes (all span guards dropped) so every
    /// span is balanced; a still-open span is closed at the recording's
    /// end by the exporters.
    #[must_use]
    pub fn finish(mut self) -> Recording {
        let inner = self.inner.take().expect("finish consumes the session");
        Self::retire();
        let wall_nanos = inner.start.elapsed().as_nanos() as u64;
        let threads = lock(&inner.threads)
            .drain(..)
            .map(|buf| {
                let events = std::mem::take(&mut *lock(&buf.events));
                (buf.tid, events)
            })
            .collect();
        Recording {
            wall_nanos,
            threads,
        }
    }

    /// Disables the facade and unpublishes the current session.
    fn retire() {
        obs_core::set_enabled(false);
        *lock(&CURRENT) = None;
        EPOCH.fetch_add(1, Ordering::Release);
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        // An unfinished session (early return / panic path) must still
        // stop routing events before releasing the exclusive lock.
        if self.inner.is_some() {
            Self::retire();
        }
    }
}

/// The immutable result of a finished session: per-thread event logs in
/// capture order, plus the session's wall-clock extent.
#[derive(Debug)]
pub struct Recording {
    wall_nanos: u64,
    /// `(tid, events)` per registered thread, events in record order
    /// (timestamps are monotone within a thread).
    threads: Vec<(u64, Vec<Event>)>,
}

impl Recording {
    /// Session wall-clock extent in nanoseconds.
    #[must_use]
    pub fn wall_nanos(&self) -> u64 {
        self.wall_nanos
    }

    /// Total number of captured events across all threads.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|(_, e)| e.len()).sum()
    }

    /// Per-thread event logs: `(tid, events)` in registration order.
    #[must_use]
    pub fn threads(&self) -> &[(u64, Vec<Event>)] {
        &self.threads
    }
}

/// Whether a counter/span name is *inherently racy* — its value (or
/// count) legitimately varies with thread interleaving even though the
/// computed estimates do not:
///
/// * `*.hit` / `*.wait` cache counters: the first requester of a
///   fingerprint is the miss; whether a concurrent second requester
///   becomes an in-flight wait or a post-completion hit is a race.
/// * `cache.stall.*` and the `pipeline.stall_check` span: stall
///   verdicts settle monotonically across points, so how many checks
///   short-circuit depends on evaluation interleaving.
/// * `sim.*` engine spans/counters: engine runs are demand-driven
///   under the caches above, so how many actually execute follows the
///   same races.
/// * `cache.tier.*` disk-tier counters: which concurrent requester
///   reads an entry from disk versus finds it already decoded in
///   memory is an interleaving race, exactly like `*.hit`.
/// * `cache.frame.*` frame-base store counters: which bases a byte
///   budget evicts, and so which later lookups miss again, follows the
///   order concurrent requests touched them in.
/// * `serve.*` daemon spans/counters: accepts, queue waits, and dedup
///   joins depend on client arrival order and worker scheduling, never
///   on the estimates themselves.
///
/// Everything else — lookups, misses (one per unique fingerprint),
/// kernel invocations, prune decisions, frame/chunk counts, span
/// counts, and the `functional.*` DAG-pass span/counters (pure frame
/// transforms) — must be byte-identical across runs and thread counts;
/// [`Recording::determinism_digest`] covers exactly the non-racy set.
#[must_use]
pub fn is_racy(name: &str) -> bool {
    name.ends_with(".hit")
        || name.ends_with(".wait")
        || name.starts_with("cache.stall.")
        || name.starts_with("cache.tier.")
        || name.starts_with("cache.frame.")
        || name.starts_with("sim.")
        || name.starts_with("serve.")
        || name == "pipeline.stall_check"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held for the whole body of every test that records or probes the
    /// facade. `SESSION_LOCK` only serialises sessions, but a facade
    /// event emitted between sessions (the `"orphan"` and `"late"`
    /// probes below) lands in whichever other test's session is live —
    /// as an extra thread of that recording.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn session_captures_and_isolates() {
        let _serial = lock(&TEST_LOCK);
        // Outside a session the facade is disabled.
        obs_core::counter("orphan", 0, 1);

        let session = ObsSession::begin();
        {
            let _a = obs_core::span("t.outer");
            obs_core::counter("t.count", 2, 5);
            let _b = obs_core::span("t.inner");
        }
        let rec = session.finish();

        // Events after finish are dropped, not attributed to the old
        // recording.
        obs_core::counter("late", 0, 1);

        assert_eq!(rec.event_count(), 5);
        let events = &rec.threads()[0].1;
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["t.outer", "t.count", "t.inner", "t.inner", "t.outer"]
        );
        assert!(events.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }

    #[test]
    fn threads_get_separate_buffers() {
        let _serial = lock(&TEST_LOCK);
        let session = ObsSession::begin();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = obs_core::span("t.worker");
                    obs_core::count("t.jobs");
                });
            }
        });
        let rec = session.finish();
        assert_eq!(rec.threads().len(), 4);
        let mut tids: Vec<_> = rec.threads().iter().map(|(tid, _)| *tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, [0, 1, 2, 3]);
        for (_, events) in rec.threads() {
            assert_eq!(events.len(), 3);
        }
    }

    #[test]
    fn dropped_session_stops_recording() {
        let _serial = lock(&TEST_LOCK);
        let session = ObsSession::begin();
        assert!(obs_core::enabled());
        drop(session);
        assert!(!obs_core::enabled());
        // And a fresh session starts clean.
        let session = ObsSession::begin();
        obs_core::count("fresh");
        let rec = session.finish();
        assert_eq!(rec.event_count(), 1);
    }

    #[test]
    fn racy_name_classification() {
        assert!(is_racy("cache.energy.hit"));
        assert!(is_racy("cache.elastic.wait"));
        assert!(is_racy("cache.stall.lookup"));
        assert!(is_racy("cache.frame.evict"));
        assert!(is_racy("pipeline.stall_check"));
        assert!(is_racy("sim.run"));
        assert!(is_racy("sim.cycles"));
        // The serving layer is interleaving-dependent end to end:
        // accepts, queue waits, dedup joins, and disk-tier outcomes all
        // follow client arrival order, never the estimates.
        assert!(is_racy("serve.accept"));
        assert!(is_racy("serve.request"));
        assert!(is_racy("serve.queue_wait"));
        assert!(is_racy("serve.dedup.hit"));
        assert!(is_racy("cache.tier.miss"));
        assert!(is_racy("cache.tier.store"));
        assert!(is_racy("cache.tier.decode_drop"));
        assert!(!is_racy("cache.energy.miss"));
        assert!(!is_racy("cache.energy.lookup"));
        assert!(!is_racy("kernel.invocations"));
        assert!(!is_racy("explore.point"));
        // The adaptive-search orchestrator is serial and seeded: its
        // spans and counters are part of the determinism digest.
        assert!(!is_racy("search.warmup"));
        assert!(!is_racy("search.generation"));
        assert!(!is_racy("search.evals"));
        assert!(!is_racy("search.warmup_discarded"));
        assert!(!is_racy("search.converged"));
        // The functional DAG pass is a pure frame transform — its span
        // and stage counter are deterministic; only the shared cache's
        // hit/wait counters around it race, via the suffix rule.
        assert!(!is_racy("functional.dag"));
        assert!(!is_racy("functional.stages"));
        assert!(!is_racy("cache.functional.lookup"));
        assert!(!is_racy("cache.functional.miss"));
        assert!(is_racy("cache.functional.hit"));
        assert!(is_racy("cache.functional.wait"));
    }
}
