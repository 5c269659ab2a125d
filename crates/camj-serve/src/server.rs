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
//! Panic isolation: each job runs inside `catch_unwind`. A panicking
//! request — a handler bug, or an armed fault injection — produces an
//! `error` frame (`"panicked: …"`) plus the `done` terminator on its
//! own connection; the worker, the connection, and the daemon all stay
//! up.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::handler::SharedState;
use crate::protocol::{parse_request, serialize_frame, stamp_line, Frame, Reject, MAX_LINE_BYTES};

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
}

/// A running daemon core: state + queue + workers. The transports
/// ([`serve_stdio`], [`serve_tcp`]) feed it lines and shut it down.
struct Core {
    queue: Arc<JobQueue>,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Core {
    fn start(config: &ServeConfig) -> std::io::Result<Self> {
        let state = Arc::new(SharedState::new(
            config.cache_dir.as_deref(),
            config.fault_injection,
        )?);
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        let shutdown = process_job(&state, &job);
                        if shutdown {
                            stop.store(true, Ordering::SeqCst);
                            queue.close();
                        }
                    }
                })
            })
            .collect();
        Ok(Self {
            queue,
            stop,
            workers,
        })
    }

    fn finish(self) {
        self.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Executes one job and writes its response frames. Returns whether a
/// shutdown was requested.
fn process_job(state: &SharedState, job: &Job) -> bool {
    let (lines, shutdown) = respond_to_line(state, &job.line);
    // One write for the whole response: the handler finishes every
    // frame before the first byte leaves anyway, and a single syscall
    // (one immediate packet train under `TCP_NODELAY`) is what keeps a
    // dedup replay at microseconds — per-line writes cost a syscall
    // each, and split writes stall ~40ms on Nagle + delayed ACKs.
    let mut payload = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in &lines {
        payload.push_str(line);
        payload.push('\n');
    }
    let mut writer = job.writer.lock().unwrap_or_else(PoisonError::into_inner);
    // On error the client went away; its response is undeliverable but
    // the daemon (and any dedup slot just warmed) lives on.
    let _ = writer
        .write_all(payload.as_bytes())
        .and_then(|()| writer.flush());
    shutdown
}

/// Parses and answers one raw line, with panic isolation. Returns the
/// response as finished wire lines, always ending with a `done` frame.
fn respond_to_line(state: &SharedState, line: &Result<String, usize>) -> (Vec<String>, bool) {
    let (mut lines, id, shutdown) = match line {
        Err(oversize) => {
            let reject = Reject::at(
                "request",
                format!("line of {oversize} bytes exceeds the {MAX_LINE_BYTES} byte limit"),
            );
            (vec![serialize_frame(&reject.frame())], 0, false)
        }
        Ok(text) => match parse_request(text) {
            Err(reject) => {
                let id = reject.id;
                (vec![serialize_frame(&reject.frame())], id, false)
            }
            Ok(request) => {
                match catch_unwind(AssertUnwindSafe(|| state.respond(&request))) {
                    // The handler renders id-less lines once; here each
                    // response — fresh or replayed — splices in its own
                    // correlation id.
                    Ok((rendered, shutdown)) => (
                        rendered.iter().map(|l| stamp_line(l, request.id)).collect(),
                        request.id,
                        shutdown,
                    ),
                    Err(payload) => (
                        vec![serialize_frame(
                            &Frame::error(
                                "request",
                                format!("panicked: {}", panic_message(payload.as_ref())),
                            )
                            .with_id(request.id),
                        )],
                        request.id,
                        false,
                    ),
                }
            }
        },
    };
    let count = lines.len() as u64;
    lines.push(serialize_frame(&Frame::done(count).with_id(id)));
    (lines, shutdown)
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

/// Reads one `\n`-terminated line of at most `max` bytes. Oversized
/// lines are drained to their newline and reported as `Err(total
/// bytes)`, so one bad line costs an error frame, not the connection.
///
/// Read timeouts (`WouldBlock`/`TimedOut`) retry **inside** this loop
/// — any partially-read line stays buffered — and only bail out (as a
/// clean `None`) once `interrupted` says the daemon is stopping.
fn read_bounded_line(
    reader: &mut impl BufRead,
    max: usize,
    interrupted: impl Fn() -> bool,
) -> std::io::Result<Option<Result<String, usize>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropped = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if interrupted() {
                    return Ok(None);
                }
                continue;
            }
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

/// Runs the daemon over stdin/stdout: the single-connection transport
/// CI and tests drive. Returns when stdin reaches EOF or a `shutdown`
/// request lands, after every queued request has been answered.
pub fn serve_stdio(config: &ServeConfig) -> std::io::Result<()> {
    let core = Core::start(config)?;
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let stdin = std::io::stdin();
    let mut reader = BufReader::new(stdin.lock());
    eprintln!("serve: ready on stdio ({} workers)", config.workers.max(1));
    let stop = Arc::clone(&core.stop);
    while !core.stop.load(Ordering::SeqCst) {
        match read_bounded_line(&mut reader, MAX_LINE_BYTES, || stop.load(Ordering::SeqCst))? {
            None => break,
            Some(Ok(line)) if line.trim().is_empty() => continue,
            Some(line) => {
                if !core.queue.push(Job {
                    line,
                    writer: Arc::clone(&writer),
                }) {
                    break;
                }
            }
        }
    }
    core.finish();
    Ok(())
}

/// Runs the daemon on a TCP listener: one reader thread per accepted
/// connection, all feeding the shared queue. Prints
/// `serve: listening on <addr>` to stderr once ready (tests parse it).
/// Returns after a `shutdown` request drains the queue.
pub fn serve_tcp(listener: TcpListener, config: &ServeConfig) -> std::io::Result<()> {
    let core = Core::start(config)?;
    listener.set_nonblocking(true)?;
    eprintln!(
        "serve: listening on {} ({} workers)",
        listener.local_addr()?,
        config.workers.max(1)
    );
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !core.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                obs_core::counter("serve.accept", 0, 1);
                // Join readers whose connection already closed, so the
                // daemon holds one handle (and one thread stack) per
                // live connection, not per connection ever accepted.
                let (finished, live) = std::mem::take(&mut readers)
                    .into_iter()
                    .partition(|reader| reader.is_finished());
                readers = live;
                for reader in finished {
                    let _ = reader.join();
                }
                let queue = Arc::clone(&core.queue);
                let stop = Arc::clone(&core.stop);
                readers.push(std::thread::spawn(move || {
                    let _ = serve_connection(stream, &queue, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                core.finish();
                return Err(e);
            }
        }
    }
    core.finish();
    for reader in readers {
        let _ = reader.join();
    }
    Ok(())
}

/// One connection's read loop: parse lines, enqueue jobs, poll the
/// stop flag between reads via a socket timeout.
fn serve_connection(stream: TcpStream, queue: &JobQueue, stop: &AtomicBool) -> std::io::Result<()> {
    let _span = obs_core::span("serve.accept");
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    // Frames are written whole (see `process_job`); Nagle only adds
    // delayed-ACK stalls between pipelined requests.
    stream.set_nodelay(true)?;
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(stream.try_clone()?)));
    let mut reader = BufReader::new(stream);
    loop {
        match read_bounded_line(&mut reader, MAX_LINE_BYTES, || stop.load(Ordering::SeqCst)) {
            Ok(None) => break,
            Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
            Ok(Some(line)) => {
                if !queue.push(Job {
                    line,
                    writer: Arc::clone(&writer),
                }) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Ok(())
}
