//! # camj-serve — the CamJ estimation daemon
//!
//! Promotes the one-shot `camj` CLI into a long-lived service: every
//! `estimate`/`sweep`/`pareto`/`search` request from every client hits
//! one process-wide, warm, content-addressed
//! [`EstimateCache`](camj_core::energy::EstimateCache) instead of
//! rebuilding state per invocation — the "millions of users" traffic
//! shape where the second requester of any design point pays
//! milliseconds, not minutes.
//!
//! The pieces, bottom-up:
//!
//! * [`protocol`] — newline-delimited JSON frames: [`Request`] in,
//!   `point`/`result`/`error`/`done` [`Frame`]s out, all id-tagged,
//!   with path-qualified rejection of malformed lines (never a
//!   disconnect, never a panic);
//! * [`tier`] — the on-disk cache tier under `--cache-dir`:
//!   content-addressed, version-stamped, digest-verified entries,
//!   written through on every compute (`fsync` + atomic rename), so
//!   warm starts survive daemon restarts and corruption degrades to a
//!   recompute, never a wrong answer;
//! * [`resolve`] — the one request model: loads a design, applies the
//!   "request beats the description's `sweep` block beats the default"
//!   policy to produce a [`Plan`](resolve::Plan), and runs it. `camj
//!   <cmd>` parses its flags into the same [`Request`] and calls the
//!   same three functions, so the CLI and the daemon cannot drift;
//! * [`handler`] — request dedup around [`resolve`]: identical
//!   in-flight requests join one computation slot and completed
//!   responses replay from memory as pre-rendered frames;
//! * [`server`] — blocking I/O: a thread-per-connection accept loop
//!   (TCP, or `--stdio` for tests/CI) feeding a bounded job queue with
//!   backpressure into a fixed worker pool, each job wrapped in
//!   `catch_unwind` so a panicking request answers with an `error`
//!   frame while the daemon stays up. Accept and reads block in the
//!   kernel with no timeout; `shutdown` wakes them with a loopback
//!   connect and `Shutdown::Read`, then drains the queue;
//! * [`client`] — the `camj --connect` side: one request, collect
//!   frames until `done`.
//!
//! Observability rides the `obs_core` facade: `serve.request` spans,
//! `serve.accept` counters/spans, `serve.queue_wait` backpressure
//! spans, `serve.dedup.hit` counters, and the estimate cache's
//! `cache.tier.*` hit/miss/store counters, all visible through the
//! daemon-level `--trace`/`--metrics` flags.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod handler;
pub mod protocol;
pub mod resolve;
pub mod server;
pub mod tier;

pub use client::roundtrip;
pub use handler::SharedState;
pub use protocol::{Frame, FrameKind, Request, RequestKind};
pub use server::{serve_stdio, serve_tcp, ServeConfig};
pub use tier::{DiskTier, TierStats};
