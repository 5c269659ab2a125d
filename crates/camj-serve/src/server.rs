//! The daemon: blocking I/O, a thread-per-connection accept loop, and
//! a bounded job queue feeding a fixed worker pool.
//!
//! No async runtime — connection readers block on their sockets, push
//! parsed lines into the queue (blocking when it is full, which is the
//! backpressure: a flooding client stalls in `write` instead of
//! growing daemon memory), and workers pop jobs, execute them against
//! the [`SharedState`], and write response frames under the owning
//! connection's writer lock so frames never interleave mid-line.
//!
//! Nothing polls: every thread blocks in `accept`, `read`, or on the
//! queue's condvars until it has work, and shutdown wakes each blocking
//! point explicitly (see [`serve_tcp`]).
//!
//! Panic isolation: each job runs inside `catch_unwind`. A panicking
//! request — a handler bug, or an armed fault injection — produces an
//! `error` frame (`"panicked: …"`) plus the `done` terminator on its
//! own connection; the worker, the connection, and the daemon all stay
//! up.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};

use crate::handler::SharedState;
use crate::protocol::{
    parse_request, serialize_frame, stamp_lines_into, Frame, Reject, MAX_LINE_BYTES,
};

/// Daemon configuration (the `camj serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the on-disk cache tier; `None` keeps the cache
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded job-queue capacity; pushes beyond it block (the
    /// protocol's backpressure).
    pub queue_capacity: usize,
    /// Arms the request `fault` directive (tests only).
    pub fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_dir: None,
            workers: 4,
            queue_capacity: 64,
            fault_injection: false,
        }
    }
}

/// A connection's outgoing half: one lock per connection, held per
/// frame line, so concurrent workers never interleave mid-line.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes through a TCP connection's one socket handle, which its
/// reader and the live-connection registry share: one descriptor per
/// connection.
struct SocketWriter(Arc<TcpStream>);

impl Write for SocketWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&*self.0).flush()
    }
}

/// One unit of work: a raw line (or an oversize rejection) plus where
/// the answer goes.
struct Job {
    line: Result<String, usize>,
    writer: SharedWriter,
}

/// The bounded MPMC job queue: a mutex-guarded ring with two condvars.
struct JobQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: std::collections::VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while the queue is full (backpressure), then enqueues.
    /// Returns `false` if the queue closed before the job fit.
    fn push(&self, job: Job) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while inner.jobs.len() >= self.capacity && !inner.closed {
            let _wait = obs_core::span("serve.queue_wait");
            inner = self
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if inner.closed {
            return false;
        }
        inner.jobs.push_back(job);
        self.not_empty.notify_one();
        true
    }

    /// Blocks until a job is available; `None` once closed **and**
    /// drained, so no accepted request is ever dropped.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed
    }
}

/// A running daemon core: state + queue + workers. The transports
/// ([`serve_stdio`], [`serve_tcp`]) feed it lines and shut it down.
struct Core {
    queue: Arc<JobQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Core {
    /// Starts the worker pool. The worker that answers a `shutdown`
    /// request closes the queue, then calls `wake` to unblock whatever
    /// the transport is waiting in.
    fn start(
        config: &ServeConfig,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let state = Arc::new(SharedState::new(
            config.cache_dir.as_deref(),
            config.fault_injection,
        )?);
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let wake = Arc::new(wake);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                let wake = Arc::clone(&wake);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        if process_job(&state, &job) {
                            queue.close();
                            wake();
                        }
                    }
                })
            })
            .collect();
        Ok(Self { queue, workers })
    }

    /// Waits for the workers, which exit once the queue is closed and
    /// drained.
    fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Executes one job and writes its response frames. Returns whether a
/// shutdown was requested.
fn process_job(state: &SharedState, job: &Job) -> bool {
    let (payload, shutdown) = respond_to_line(state, &job.line);
    let mut writer = job.writer.lock().unwrap_or_else(PoisonError::into_inner);
    // On error the client went away; its response is undeliverable but
    // the daemon (and any dedup slot just warmed) lives on.
    let _ = writer
        .write_all(payload.as_bytes())
        .and_then(|()| writer.flush());
    shutdown
}

/// Parses and answers one raw line, with panic isolation. Returns the
/// whole response as one wire payload — every frame line
/// `\n`-terminated, always ending with a `done` frame — and whether a
/// shutdown was requested.
///
/// One payload, one write: the handler finishes every frame before the
/// first byte leaves anyway, and a single syscall (one immediate packet
/// train under `TCP_NODELAY`) is what keeps a dedup replay at
/// microseconds — per-line writes cost a syscall each, and split writes
/// stall ~40ms on Nagle + delayed ACKs. Rendered lines are stamped with
/// the request id straight into the payload, so a large replay copies
/// each line once; a replay of a canonical request line
/// ([`SharedState::replay`]) is answered before parsing it.
fn respond_to_line(state: &SharedState, line: &Result<String, usize>) -> (String, bool) {
    let mut payload = String::new();
    let push_frame = |payload: &mut String, frame: &Frame| {
        payload.push_str(&serialize_frame(frame));
        payload.push('\n');
    };
    let (count, id, shutdown) = match line {
        Err(oversize) => {
            let reject = Reject::at(
                "request",
                format!("line of {oversize} bytes exceeds the {MAX_LINE_BYTES} byte limit"),
            );
            push_frame(&mut payload, &reject.frame());
            (1, 0, false)
        }
        // A dedup replay of a canonical line: nothing to parse.
        Ok(text) => match state.replay(text) {
            Some((id, rendered)) => {
                stamp_response(&mut payload, &rendered, id);
                (rendered.len(), id, false)
            }
            None => match parse_request(text) {
                Err(reject) => {
                    push_frame(&mut payload, &reject.frame());
                    (1, reject.id, false)
                }
                Ok(request) => match catch_unwind(AssertUnwindSafe(|| state.respond(&request))) {
                    Ok((rendered, shutdown)) => {
                        stamp_response(&mut payload, &rendered, request.id);
                        (rendered.len(), request.id, shutdown)
                    }
                    Err(panic) => {
                        let frame = Frame::error(
                            "request",
                            format!("panicked: {}", panic_message(panic.as_ref())),
                        );
                        push_frame(&mut payload, &frame.with_id(request.id));
                        (1, request.id, false)
                    }
                },
            },
        },
    };
    push_frame(&mut payload, &Frame::done(count as u64).with_id(id));
    (payload, shutdown)
}

/// Appends a response's rendered id-less lines to `payload`, each
/// stamped with the request's correlation id. The handler renders once;
/// every response — fresh or replayed — splices in its own id here.
fn stamp_response(payload: &mut String, rendered: &[String], id: u64) {
    // Room for the lines, an id of up to 20 digits each, and the
    // `done` frame.
    payload.reserve(rendered.iter().map(|l| l.len() + 21).sum::<usize>() + 64);
    stamp_lines_into(payload, rendered.iter().map(String::as_str), id);
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes, blocking
/// until it is complete or the input ends. Oversized lines are drained
/// to their newline and reported as `Err(total bytes)`, so one bad line
/// costs an error frame, not the connection.
fn read_bounded_line(
    reader: &mut impl BufRead,
    max: usize,
) -> std::io::Result<Option<Result<String, usize>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropped = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A final unterminated line still counts.
            if dropped > 0 {
                return Ok(Some(Err(dropped + buf.len())));
            }
            if buf.is_empty() {
                return Ok(None);
            }
            let line = String::from_utf8_lossy(&buf).into_owned();
            return Ok(Some(Ok(line)));
        }
        let newline = chunk.iter().position(|b| *b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if dropped > 0 || buf.len() + take > max + 1 {
            // Already oversized (or just became so): drain, don't buffer.
            dropped += buf.len() + take;
            buf.clear();
            reader.consume(take);
            if newline.is_some() {
                return Ok(Some(Err(dropped)));
            }
            continue;
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            if buf.last() == Some(&b'\n') {
                buf.pop();
            }
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            let line = String::from_utf8_lossy(&buf).into_owned();
            return Ok(Some(Ok(line)));
        }
    }
}

/// Feeds one input's lines into the queue until the input ends or the
/// queue closes.
fn feed(mut reader: impl BufRead, queue: &JobQueue, writer: &SharedWriter) -> std::io::Result<()> {
    loop {
        match read_bounded_line(&mut reader, MAX_LINE_BYTES)? {
            None => return Ok(()),
            Some(Ok(line)) if line.trim().is_empty() => {}
            Some(line) => {
                if !queue.push(Job {
                    line,
                    writer: Arc::clone(writer),
                }) {
                    return Ok(());
                }
            }
        }
    }
}

/// Runs the daemon over stdin/stdout: the single-connection transport
/// CI and tests drive. Returns when stdin reaches EOF or a `shutdown`
/// request lands, after every queued request has been answered.
pub fn serve_stdio(config: &ServeConfig) -> std::io::Result<()> {
    let core = Core::start(config, || {})?;
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    eprintln!("serve: ready on stdio ({} workers)", config.workers.max(1));
    // Nothing can wake a read blocked on stdin, so the reader runs on a
    // thread of its own that `shutdown` does not wait for: the workers
    // exit once the queue closes — on `shutdown`, or here at EOF — and
    // the process exit ends the reader.
    let (failed, read_error) = mpsc::channel();
    let queue = Arc::clone(&core.queue);
    std::thread::spawn(move || {
        if let Err(e) = feed(std::io::stdin().lock(), &queue, &writer) {
            let _ = failed.send(e);
        }
        queue.close();
    });
    core.join();
    read_error.try_recv().map_or(Ok(()), Err)
}

/// Runs the daemon on a TCP listener: one reader thread per accepted
/// connection, all feeding the shared queue. Prints
/// `serve: listening on <addr>` to stderr once ready (tests parse it).
/// Returns after a `shutdown` request drains the queue.
///
/// Every thread blocks in the kernel — the loop in `accept`, readers in
/// `read` — and shutdown wakes each one: the worker answering
/// `shutdown` connects once to the listener, and the loop, seeing the
/// queue closed, shuts the read half of every live connection so its
/// reader sees EOF. Write halves stay open until the workers have
/// drained the queue.
pub fn serve_tcp(listener: TcpListener, config: &ServeConfig) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let wake = wake_addr(local);
    let core = Core::start(config, move || {
        // Without the wake-up the loop leaves `accept` only when the
        // next client connects; say why the daemon lingers.
        if let Err(e) = TcpStream::connect(wake) {
            eprintln!("serve: shutdown could not wake the accept loop at {wake}: {e}");
        }
    })?;
    eprintln!(
        "serve: listening on {local} ({} workers)",
        config.workers.max(1)
    );
    // The sockets of live connections, so shutdown can end their reads.
    // Each entry is the connection's one socket handle, shared with its
    // reader and writer; a reader removes its entry as its last step.
    let live: Arc<Mutex<HashMap<u64, Arc<TcpStream>>>> = Arc::default();
    let mut readers: Vec<(u64, std::thread::JoinHandle<()>)> = Vec::new();
    let mut next_key = 0u64;
    let accepted = loop {
        match listener.accept() {
            Ok(_) if core.queue.is_closed() => break Ok(()),
            Ok((stream, _peer)) => {
                obs_core::counter("serve.accept", 0, 1);
                // Join readers whose connection already closed, so the
                // daemon holds one thread (its stack and malloc arena)
                // per live connection, not per connection ever accepted.
                // Each has left `live` and is only returning.
                let (finished, running): (Vec<_>, Vec<_>) = {
                    let live = live.lock().unwrap_or_else(PoisonError::into_inner);
                    std::mem::take(&mut readers)
                        .into_iter()
                        .partition(|(key, _)| !live.contains_key(key))
                };
                readers = running;
                for (_, reader) in finished {
                    let _ = reader.join();
                }
                let stream = Arc::new(stream);
                next_key += 1;
                let key = next_key;
                live.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key, Arc::clone(&stream));
                let queue = Arc::clone(&core.queue);
                let live = Arc::clone(&live);
                let reader = std::thread::spawn(move || {
                    let _ = serve_connection(stream, &queue);
                    live.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&key);
                });
                readers.push((key, reader));
            }
            // A client that reset before `accept` took it costs only
            // that connection.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                ) => {}
            Err(e) => break Err(e),
        }
    };
    // Close the queue first, so readers blocked on a full queue give up,
    // then end every blocked read. Only the read halves shut: queued
    // jobs still write their responses while the workers drain.
    core.queue.close();
    for socket in live.lock().unwrap_or_else(PoisonError::into_inner).values() {
        let _ = socket.shutdown(Shutdown::Read);
    }
    for (_, reader) in readers {
        let _ = reader.join();
    }
    core.join();
    accepted
}

/// Where the shutdown wake-up connects: the listener's own address, an
/// unspecified IP (`0.0.0.0`, `::`) mapped to loopback of its family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// One connection's read loop: parse lines and enqueue jobs until the
/// client closes, the daemon shuts the read half, or the queue closes.
fn serve_connection(stream: Arc<TcpStream>, queue: &JobQueue) -> std::io::Result<()> {
    let _span = obs_core::span("serve.accept");
    // Frames are written whole (see `process_job`); Nagle only adds
    // delayed-ACK stalls between pipelined requests.
    stream.set_nodelay(true)?;
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(SocketWriter(Arc::clone(&stream)))));
    feed(BufReader::new(&*stream), queue, &writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback_of_their_family() {
        let cases = [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("127.0.0.1:7878", "127.0.0.1:7878"),
            ("10.1.2.3:80", "10.1.2.3:80"),
            ("[::1]:80", "[::1]:80"),
        ];
        for (bound, woken) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), woken.parse().unwrap(), "{bound}");
        }
    }

    #[test]
    fn bounded_lines_split_drain_oversize_and_keep_a_final_fragment() {
        let input = "short\r\n".to_owned() + &"x".repeat(20) + "\nok\ntail";
        let mut reader = BufReader::with_capacity(4, input.as_bytes());
        let mut next = || read_bounded_line(&mut reader, 8).unwrap();
        assert_eq!(next(), Some(Ok("short".to_owned())));
        assert_eq!(next(), Some(Err(21)));
        assert_eq!(next(), Some(Ok("ok".to_owned())));
        assert_eq!(next(), Some(Ok("tail".to_owned())));
        assert_eq!(next(), None);
    }
}
