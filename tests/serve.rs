//! End-to-end tests for the `camj serve` daemon: the stdio transport,
//! concurrent-client dedup determinism, disk-tier warm starts and
//! corruption recovery, panic isolation, the warm-repeat speedup the
//! serving layer exists for, the sweep/pareto/search captured-panic
//! exit codes, and the connection lifecycle (prompt accepts, shutdown
//! with idle and half-sent connections open).

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Barrier, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use camj_serve::protocol::{
    parse_frame, serialize_request, Frame, FrameKind, Request, RequestKind,
};
use serde_json::Value;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Tests that time the daemon run alone: they hold this lock
/// exclusively and every other test holds it shared, so no other daemon
/// or CLI run competes for the CPU while a latency is measured.
static CPU: RwLock<()> = RwLock::new(());

/// The lock every test that does not time the daemon holds.
fn shared_cpu() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(PoisonError::into_inner)
}

/// The lock a timing test holds for its whole run.
fn exclusive_cpu() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(PoisonError::into_inner)
}

/// A `camj serve` child on a fresh TCP port, killed on drop.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Spawns `camj serve --listen 127.0.0.1:0 <extra>` with the given
    /// environment and parses the bound address off the stderr banner.
    fn spawn(extra: &[&str], env: &[(&str, &str)]) -> Self {
        Self::spawn_in(".", extra, env)
    }

    /// [`Daemon::spawn`] with working directory `dir`, against which
    /// inline designs resolve relative stimulus paths.
    fn spawn_in(dir: &str, extra: &[&str], env: &[(&str, &str)]) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_camj"));
        cmd.current_dir(dir)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, value) in env {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().expect("camj serve spawns");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let banner = lines
            .next()
            .expect("daemon prints a banner")
            .expect("banner is utf-8");
        let addr = banner
            .strip_prefix("serve: listening on ")
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_owned();
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Self {
            child: Some(child),
            addr,
        }
    }

    /// Sends `shutdown` and waits for a clean exit within [`EXIT_LIMIT`].
    fn shutdown(mut self) {
        let mut request = Request::new(RequestKind::Shutdown);
        request.id = 999;
        let frames = camj_serve::roundtrip(&self.addr, &request).expect("shutdown answers");
        assert!(frames.iter().any(|f| f.frame == FrameKind::Result));
        let mut child = self.child.take().expect("daemon still running");
        let status = wait_within(&mut child, EXIT_LIMIT);
        assert!(
            status.is_some_and(|s| s.success()),
            "daemon exit status: {status:?}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// How long a daemon may take to exit once `shutdown` is answered.
const EXIT_LIMIT: Duration = Duration::from_secs(5);

/// Waits up to `limit` for `child` to exit; past it, kills the child
/// and returns `None`.
fn wait_within(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("child status is readable") {
            return Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A scratch directory under the system temp root, cleared up-front.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camj-serve-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The quickstart design, inlined as a JSON value.
fn quickstart() -> Value {
    let text = fs::read_to_string("descriptions/quickstart.json").unwrap();
    serde_json::from_str(&text).unwrap()
}

/// An estimate request for the quickstart design at one target.
fn estimate_request(id: u64) -> Request {
    let mut request = Request::new(RequestKind::Estimate);
    request.id = id;
    request.design = Some(quickstart());
    request.fps = Some(vec![30.0]);
    request
}

/// A sweep request over `points` frame-rate targets.
fn sweep_request(id: u64, points: usize) -> Request {
    let mut request = Request::new(RequestKind::Sweep);
    request.id = id;
    request.design = Some(quickstart());
    request.fps = Some((1..=points).map(|i| 24.0 + i as f64).collect());
    request
}

/// An 8192-point sweep of the committed Ed-Gaze design (every point
/// feasible), so per-point estimation dominates the response transport
/// in both build profiles. The design's image stimulus is dropped: a
/// sweep never reads it, and its relative path would not resolve
/// inline. A replay still parses the inline design (about 1 ms in a
/// debug build) and writes one line per point; cold, each point also
/// pays its delay solve, two kernel misses, and report assembly. In
/// five debug runs of the warm-repeat test on a 2-vCPU host, single
/// pair ratios spanned 13–20x and each run's median 14.6–16.0x, clear
/// of the 10x the test asserts.
///
/// `seed` is the request id and also shifts every frame rate by
/// `seed` µHz, so requests with distinct seeds share no dedup key and
/// no per-point cache entry: each is cold on first sight.
fn heavy_sweep_request(seed: u64) -> Request {
    let design: Value =
        serde_json::from_str(&fs::read_to_string("descriptions/edgaze.json").unwrap()).unwrap();
    let mut stripped = serde_json::Map::new();
    for (key, value) in design.as_object().expect("a design is an object").iter() {
        if key != "stimulus" {
            stripped.insert(key, value.clone());
        }
    }
    let mut request = Request::new(RequestKind::Sweep);
    request.id = seed;
    request.design = Some(Value::Object(stripped));
    request.fps = Some(
        (1..=8192)
            .map(|i| 10.0 + 0.0025 * i as f64 + 1e-6 * seed as f64)
            .collect(),
    );
    request
}

/// Sends one raw request line and returns the daemon's response for
/// `id` as raw lines (byte-comparable), up to and including `done`.
fn raw_roundtrip(addr: &str, request: &Request) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connects to daemon");
    stream.set_nodelay(true).unwrap();
    let mut line = serialize_request(request);
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    stream.flush().unwrap();
    read_response(&mut BufReader::new(stream), request.id)
}

/// Reads the response for `id` off a connection as raw lines, up to and
/// including its `done` frame, skipping frames for other ids.
fn read_response(reader: &mut impl BufRead, id: u64) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut next = String::new();
        assert_ne!(
            reader.read_line(&mut next).expect("reads a frame line"),
            0,
            "connection closed before the done frame"
        );
        let text = next.trim_end().to_owned();
        let frame = parse_frame(&text).expect("daemon emits valid frames");
        if frame.id != id {
            continue;
        }
        let done = frame.frame == FrameKind::Done;
        lines.push(text);
        if done {
            return lines;
        }
    }
}

/// Fetches the daemon's `stats` body.
fn stats(addr: &str) -> Value {
    let mut request = Request::new(RequestKind::Stats);
    request.id = 777;
    let frames = camj_serve::roundtrip(addr, &request).expect("stats answers");
    let result = frames
        .iter()
        .find(|f| f.frame == FrameKind::Result)
        .expect("stats has a result frame");
    result.body.clone().expect("stats result has a body")
}

/// Reads a numeric counter out of a stats body by dotted path.
fn counter(body: &Value, path: &str) -> u64 {
    let mut cursor = body.clone();
    for step in path.split('.') {
        cursor = cursor
            .as_object()
            .and_then(|m| m.get(step))
            .unwrap_or_else(|| panic!("stats body missing {path}"))
            .clone();
    }
    cursor
        .as_f64()
        .unwrap_or_else(|| panic!("{path} is not numeric"))
        .round() as u64
}

// ---------------------------------------------------------------------
// stdio transport
// ---------------------------------------------------------------------

#[test]
fn stdio_smoke_full_protocol_session() {
    let _cpu = shared_cpu();
    let mut child = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args(["serve", "--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("camj serve --stdio spawns");
    {
        let stdin = child.stdin.as_mut().unwrap();
        let mut validate = Request::new(RequestKind::Validate);
        validate.id = 1;
        validate.design = Some(quickstart());
        writeln!(stdin, "{}", serialize_request(&validate)).unwrap();
        writeln!(stdin, "{}", serialize_request(&estimate_request(2))).unwrap();
        writeln!(stdin, "this is not json").unwrap();
        writeln!(stdin, "{{\"id\":4,\"kind\":\"transmogrify\"}}").unwrap();
        let mut shutdown = Request::new(RequestKind::Shutdown);
        shutdown.id = 5;
        writeln!(stdin, "{}", serialize_request(&shutdown)).unwrap();
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "exit status {:?}", out.status);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("serve: ready on stdio"),
        "missing stdio banner"
    );

    let frames: Vec<Frame> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_frame(l).expect("daemon emits valid frames"))
        .collect();
    // Five requests, each answered and each terminated by `done`.
    assert_eq!(
        frames.iter().filter(|f| f.frame == FrameKind::Done).count(),
        5
    );
    let validate = frames.iter().find(|f| f.id == 1).unwrap();
    let body = validate.body.as_ref().unwrap().as_object().unwrap();
    assert_eq!(body.get("ok"), Some(&Value::Bool(true)));
    let estimate = frames
        .iter()
        .find(|f| f.id == 2 && f.frame == FrameKind::Result)
        .expect("estimate answered");
    assert!(estimate.body.as_ref().unwrap().as_object().is_some());
    let garbage = frames
        .iter()
        .find(|f| f.id == 0 && f.frame == FrameKind::Error)
        .expect("garbage line answered with an error frame");
    assert_eq!(garbage.path.as_deref(), Some("request"));
    let unknown = frames
        .iter()
        .find(|f| f.id == 4 && f.frame == FrameKind::Error)
        .expect("unknown kind answered with an error frame");
    assert_eq!(unknown.path.as_deref(), Some("request.kind"));
    let stopping = frames
        .iter()
        .find(|f| f.id == 5 && f.frame == FrameKind::Result)
        .expect("shutdown acknowledged");
    let body = stopping.body.as_ref().unwrap().as_object().unwrap();
    assert_eq!(body.get("stopping"), Some(&Value::Bool(true)));
}

#[test]
fn stdio_shutdown_returns_while_stdin_stays_open() {
    let _cpu = shared_cpu();
    let mut child = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args(["serve", "--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("camj serve --stdio spawns");
    let mut stdin = child.stdin.take().unwrap();
    let mut shutdown = Request::new(RequestKind::Shutdown);
    shutdown.id = 1;
    writeln!(stdin, "{}", serialize_request(&shutdown)).unwrap();
    stdin.flush().unwrap();
    // `stdin` stays open: the daemon must return on `shutdown` alone.
    let status = wait_within(&mut child, EXIT_LIMIT);
    drop(stdin);
    assert!(
        status.is_some_and(|s| s.success()),
        "daemon did not exit cleanly within {EXIT_LIMIT:?} of shutdown: {status:?}"
    );
}

// ---------------------------------------------------------------------
// Concurrency: dedup determinism (satellite 2)
// ---------------------------------------------------------------------

#[test]
fn concurrent_identical_sweeps_dedup_to_one_execution() {
    let _cpu = shared_cpu();
    const CLIENTS: usize = 4;
    let mut streams_by_rayon: Vec<Vec<String>> = Vec::new();
    for rayon_threads in ["1", "2", "8"] {
        // Baseline: a lone client on a cold daemon.
        let lone = Daemon::spawn(&["--workers", "4"], &[("RAYON_NUM_THREADS", rayon_threads)]);
        let baseline_stream = raw_roundtrip(&lone.addr, &sweep_request(7, 8));
        let baseline_misses = counter(&stats(&lone.addr), "cache.misses");
        assert!(baseline_misses > 0, "a cold sweep must miss the cache");
        lone.shutdown();

        // The same sweep from CLIENTS simultaneous connections.
        let daemon = Daemon::spawn(&["--workers", "4"], &[("RAYON_NUM_THREADS", rayon_threads)]);
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let addr = daemon.addr.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                raw_roundtrip(&addr, &sweep_request(7, 8))
            }));
        }
        let streams: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for stream in &streams[1..] {
            assert_eq!(
                stream, &streams[0],
                "concurrent clients must see byte-identical streams"
            );
        }
        assert_eq!(
            streams[0], baseline_stream,
            "a deduped response must match a lone cold run byte for byte"
        );

        let body = stats(&daemon.addr);
        assert_eq!(counter(&body, "requests"), CLIENTS as u64 + 1); // + the stats call
        assert_eq!(
            counter(&body, "dedup_hits"),
            CLIENTS as u64 - 1,
            "all but the first client must join the in-flight slot"
        );
        assert_eq!(
            counter(&body, "cache.misses"),
            baseline_misses,
            "energy kernels must have run exactly once despite {CLIENTS} clients"
        );
        daemon.shutdown();
        streams_by_rayon.push(streams.into_iter().next().unwrap());
    }
    // And the rows themselves don't depend on the rayon pool size.
    assert_eq!(streams_by_rayon[0], streams_by_rayon[1]);
    assert_eq!(streams_by_rayon[0], streams_by_rayon[2]);
}

// ---------------------------------------------------------------------
// Disk tier: warm starts, corruption recovery (satellite 3)
// ---------------------------------------------------------------------

#[test]
fn disk_tier_survives_restart_and_heals_damage() {
    let _cpu = shared_cpu();
    let cache_dir = temp_dir("tier");
    let dir_flag = cache_dir.to_str().unwrap();

    // Cold run: populate the tier.
    let daemon = Daemon::spawn(&["--workers", "2", "--cache-dir", dir_flag], &[]);
    let cold = raw_roundtrip(&daemon.addr, &estimate_request(11));
    let body = stats(&daemon.addr);
    assert!(
        counter(&body, "tier.writes") > 0,
        "cold run must write entries"
    );
    assert_eq!(counter(&body, "tier.hits"), 0);
    daemon.shutdown();

    // Kill-and-restart warm start: the tier answers, bit-identically.
    let daemon = Daemon::spawn(&["--workers", "2", "--cache-dir", dir_flag], &[]);
    let warm = raw_roundtrip(&daemon.addr, &estimate_request(11));
    assert_eq!(warm, cold, "a tier-warmed response must match the cold run");
    let body = stats(&daemon.addr);
    assert!(
        counter(&body, "tier.hits") > 0,
        "warm restart must have a non-zero tier hit rate"
    );
    daemon.shutdown();

    // Damage the tier three ways: bit-flip, truncate, version-bump.
    let mut entries: Vec<PathBuf> = Vec::new();
    for family in ["energy", "stall"] {
        let family_dir = cache_dir.join(family);
        if let Ok(dir) = fs::read_dir(&family_dir) {
            for entry in dir.flatten() {
                entries.push(entry.path());
            }
        }
    }
    entries.sort();
    assert!(
        entries.len() >= 3,
        "expected at least 3 tier entries, found {}",
        entries.len()
    );
    let mut bytes = fs::read(&entries[0]).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    fs::write(&entries[0], &bytes).unwrap();
    let bytes = fs::read(&entries[1]).unwrap();
    fs::write(&entries[1], &bytes[..bytes.len() / 2]).unwrap();
    let text = String::from_utf8(fs::read(&entries[2]).unwrap()).unwrap();
    fs::write(
        &entries[2],
        text.replacen("camj-tier v1", "camj-tier v0", 1),
    )
    .unwrap();

    // The damaged daemon detects, recomputes, answers identically, and
    // rewrites the bad entries.
    let daemon = Daemon::spawn(&["--workers", "2", "--cache-dir", dir_flag], &[]);
    let healed = raw_roundtrip(&daemon.addr, &estimate_request(11));
    assert_eq!(
        healed, cold,
        "recovery from a damaged tier must be bit-identical to the cold run"
    );
    let body = stats(&daemon.addr);
    assert!(
        counter(&body, "tier.corrupt") >= 1,
        "bit flip must be detected"
    );
    assert!(
        counter(&body, "tier.stale") >= 1,
        "version bump must be detected"
    );
    assert!(
        counter(&body, "tier.writes") >= 1,
        "damaged entries must be rewritten"
    );
    daemon.shutdown();

    // After healing, a fresh daemon sees only intact entries again.
    let daemon = Daemon::spawn(&["--workers", "2", "--cache-dir", dir_flag], &[]);
    let again = raw_roundtrip(&daemon.addr, &estimate_request(11));
    assert_eq!(again, cold);
    let body = stats(&daemon.addr);
    assert!(counter(&body, "tier.hits") > 0);
    assert_eq!(
        counter(&body, "tier.corrupt"),
        0,
        "healed entries must verify"
    );
    assert_eq!(counter(&body, "tier.stale"), 0);
    daemon.shutdown();

    let _ = fs::remove_dir_all(&cache_dir);
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

#[test]
fn injected_panic_yields_error_frame_and_daemon_survives() {
    let _cpu = shared_cpu();
    // Reference: a clean daemon's cold estimate.
    let clean = Daemon::spawn(&["--workers", "2"], &[]);
    let reference = raw_roundtrip(&clean.addr, &estimate_request(21));
    clean.shutdown();

    let daemon = Daemon::spawn(&["--workers", "2", "--fault-injection"], &[]);
    let mut faulted = estimate_request(21);
    faulted.fault = Some("panic".to_owned());
    let frames = camj_serve::roundtrip(&daemon.addr, &faulted).expect("daemon answers the fault");
    let error = frames
        .iter()
        .find(|f| f.frame == FrameKind::Error)
        .expect("a panicking request gets an error frame");
    assert!(
        error
            .message
            .as_deref()
            .unwrap_or_default()
            .contains("panicked"),
        "error message: {:?}",
        error.message
    );
    assert_eq!(frames.last().unwrap().frame, FrameKind::Done);

    // The daemon is still up and still correct, byte for byte.
    let after = raw_roundtrip(&daemon.addr, &estimate_request(21));
    assert_eq!(
        after, reference,
        "post-panic responses must match a clean cold run"
    );
    daemon.shutdown();
}

// ---------------------------------------------------------------------
// Warm-repeat speedup (acceptance criterion)
// ---------------------------------------------------------------------

/// Cold/warm pairs timed by the warm-repeat test; odd, so the median is
/// one measured ratio.
const WARM_REPEAT_PAIRS: u64 = 5;

#[test]
fn warm_repeat_of_a_cold_sweep_is_ten_times_faster() {
    let _cpu = exclusive_cpu();
    let daemon = Daemon::spawn(&["--workers", "2"], &[]);

    // Time the raw exchange on one persistent connection, without
    // client-side JSON parsing, so the measurement is the daemon's
    // latency — not connection setup or test-harness decoding.
    let stream = TcpStream::connect(&daemon.addr).expect("connects");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream);
    let mut timed = |request: &Request| {
        let mut line = serialize_request(request);
        line.push('\n');
        let started = Instant::now();
        reader.get_mut().write_all(line.as_bytes()).unwrap();
        let mut lines = Vec::new();
        loop {
            let mut next = String::new();
            assert_ne!(reader.read_line(&mut next).unwrap(), 0, "eof before done");
            let done = next.contains("\"frame\":\"done\"");
            lines.push(next);
            if done {
                return (lines, started.elapsed());
            }
        }
    };

    // One sample decides nothing on a shared host: take interleaved
    // cold/warm pairs, each on its own fresh request, and hold the
    // median ratio to the bar.
    let mut ratios: Vec<f64> = (31..31 + WARM_REPEAT_PAIRS)
        .map(|seed| {
            let request = heavy_sweep_request(seed);
            let (cold, cold_elapsed) = timed(&request);
            let (warm, warm_elapsed) = timed(&request);
            assert_eq!(warm, cold, "the warm repeat must replay identical frames");
            cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64()
        })
        .collect();

    assert_eq!(
        counter(&stats(&daemon.addr), "dedup_hits"),
        WARM_REPEAT_PAIRS
    );
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median >= 10.0,
        "expected a >=10x median warm speedup, got cold/warm ratios {ratios:?}"
    );
    daemon.shutdown();
}

// ---------------------------------------------------------------------
// Captured-panic exit codes (satellite 4)
// ---------------------------------------------------------------------

#[test]
fn sweep_pareto_search_exit_one_on_captured_panics() {
    let _cpu = shared_cpu();
    let variants: [(&str, &[&str]); 3] = [
        ("sweep", &["--json"]),
        ("pareto", &[]),
        (
            "search",
            &["--population", "4", "--generations", "2", "--budget", "16"],
        ),
    ];
    for (command, extra) in variants {
        // Clean run: exit 0.
        let ok = Command::new(env!("CARGO_BIN_EXE_camj"))
            .args([
                command,
                "--design",
                "descriptions/quickstart.json",
                "--fps",
                "30,60",
            ])
            .args(extra)
            .output()
            .expect("camj runs");
        assert!(
            ok.status.success(),
            "{command} without faults should pass: {}",
            String::from_utf8_lossy(&ok.stderr)
        );

        // Fault the first target: the panic is captured per-point, the
        // results still print, and the exit code flips to 1.
        let out = Command::new(env!("CARGO_BIN_EXE_camj"))
            .args([
                command,
                "--design",
                "descriptions/quickstart.json",
                "--fps",
                "30,60",
            ])
            .args(extra)
            .env("CAMJ_FAULT_PANIC_FPS", "30")
            .output()
            .expect("camj runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{command} with a captured panic must exit 1 (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("panicked during {command}")),
            "{command} stderr must carry the one-line summary, got: {stderr}"
        );
        assert!(
            !out.stdout.is_empty(),
            "{command} must still print its results alongside the failure"
        );
    }
}

// ---------------------------------------------------------------------
// camj --connect
// ---------------------------------------------------------------------

#[test]
fn connect_flag_runs_subcommands_against_the_daemon() {
    let _cpu = shared_cpu();
    let daemon = Daemon::spawn(&["--workers", "2"], &[]);

    let run = || {
        Command::new(env!("CARGO_BIN_EXE_camj"))
            .args([
                "estimate",
                "--design",
                "descriptions/quickstart.json",
                "--fps",
                "30",
                "--connect",
                &daemon.addr,
            ])
            .output()
            .expect("camj runs")
    };
    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let body: Value = serde_json::from_str(String::from_utf8_lossy(&first.stdout).trim()).unwrap();
    assert!(
        body.as_object().is_some(),
        "--connect prints the JSON result"
    );
    let second = run();
    assert_eq!(
        second.stdout, first.stdout,
        "repeat responses must be identical"
    );

    // Daemon-side validation errors surface as path-qualified stderr
    // lines and a failing exit code.
    let bad = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args([
            "estimate",
            "--design",
            "descriptions/quickstart.json",
            "--fps",
            "30,60",
            "--connect",
            &daemon.addr,
        ])
        .output()
        .expect("camj runs");
    assert_eq!(bad.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("error[request.fps]"),
        "stderr: {}",
        String::from_utf8_lossy(&bad.stderr)
    );
    daemon.shutdown();

    // Locally the same request fails in the same resolver, as a usage
    // error (exit 2) rather than a model error.
    let local = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args([
            "estimate",
            "--design",
            "descriptions/quickstart.json",
            "--fps",
            "30,60",
        ])
        .output()
        .expect("camj runs");
    assert_eq!(local.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&local.stderr)
            .contains("'estimate' takes a single fps target, got 2"),
        "stderr: {}",
        String::from_utf8_lossy(&local.stderr)
    );
}

/// CLI↔daemon parity: `camj pareto --connect` answers with the
/// committed local frontier, minus the warmth-dependent cache stats —
/// for the energy objectives and for a task-accuracy objective, whose
/// functional simulations the daemon runs too.
#[test]
fn connected_pareto_matches_the_local_golden() {
    let _cpu = shared_cpu();
    // The daemon resolves the inline design's relative stimulus path
    // against its own working directory.
    let daemon = Daemon::spawn_in("descriptions", &["--workers", "1"], &[]);
    for (objectives, golden) in [
        (None, "descriptions/edgaze.pareto.json"),
        (
            Some("total_energy,accuracy:centroid"),
            "descriptions/edgaze.pareto-accuracy.json",
        ),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_camj"));
        cmd.args(["pareto", "--design", "descriptions/edgaze.json"]);
        if let Some(objectives) = objectives {
            cmd.args(["--objectives", objectives, "--format", "json"]);
        }
        let out = cmd
            .args(["--connect", &daemon.addr])
            .output()
            .expect("camj runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = fs::read_to_string(golden).unwrap();
        let Value::Object(golden) = serde_json::from_str::<Value>(&text).unwrap() else {
            panic!("the pareto golden is a JSON object");
        };
        let mut expected = serde_json::Map::new();
        for (key, value) in golden.iter() {
            expected.insert(
                key,
                if key == "cache" {
                    Value::Null
                } else {
                    value.clone()
                },
            );
        }
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!(
                "{}\n",
                serde_json::to_string_pretty(&Value::Object(expected)).unwrap()
            ),
            "{objectives:?}"
        );
    }
    daemon.shutdown();
}

/// `camj simulate --json` answers byte for byte the same over
/// `--connect` as locally: the bundled Ed-Gaze image stimulus with the
/// digital DAG, for one seed and for a 4-seed Monte-Carlo batch. Both
/// sides label the image by the path the description writes, although
/// the CLI loads it from the description's directory and the daemon
/// from its working directory.
///
/// The daemon keeps each simulation's exposure-free frame base and its
/// frame buffers for the next request over the same content, so the
/// requests run on one daemon in an order that reuses them: another
/// seed first, then another design, an accuracy frontier over the same
/// base at five exposures, and the first requests again. Stale data in
/// a reused buffer, or a base key too coarse to tell the designs apart,
/// shows up as a diff.
#[test]
fn connected_simulate_matches_the_local_run() {
    let _cpu = shared_cpu();
    // The daemon resolves the inline design's relative stimulus path
    // against its own working directory.
    let daemon = Daemon::spawn_in("descriptions", &["--workers", "1"], &[]);
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_camj"))
            .args(args)
            .output()
            .expect("camj runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let edgaze = "descriptions/edgaze.json";
    let simulate = |design, seed| vec!["simulate", "--design", design, "--json", "--seed", seed];
    let first = [
        simulate(edgaze, "42"),
        [simulate(edgaze, "42"), vec!["--samples", "4"]].concat(),
    ];
    let between = [
        simulate(edgaze, "7"),
        simulate("descriptions/quickstart.json", "42"),
        vec![
            "pareto",
            "--design",
            edgaze,
            "--objectives",
            "total_energy,accuracy:centroid",
            "--format",
            "json",
        ],
    ];
    for args in first.iter().chain(&between).chain(&first) {
        let mut local = run(args);
        let connected = run(&[&args[..], &["--connect", &daemon.addr][..]].concat());
        if args[0] == "pareto" {
            // The daemon leaves the warmth-dependent cache stats out.
            let Value::Object(mut body) = serde_json::from_str::<Value>(&local).unwrap() else {
                panic!("a pareto answer is a JSON object");
            };
            body.insert("cache", Value::Null);
            local = format!(
                "{}\n",
                serde_json::to_string_pretty(&Value::Object(body)).unwrap()
            );
        } else if args.contains(&edgaze) {
            assert_eq!(
                local
                    .matches("\"stimulus\": \"image:edgaze_eye.pgm\",\n")
                    .count(),
                1
            );
        }
        assert_eq!(connected, local, "{args:?}");
    }
    daemon.shutdown();
}

// ---------------------------------------------------------------------
// Connection lifecycle
// ---------------------------------------------------------------------

/// The daemon's virtual memory size in KiB, when the platform exposes
/// it (`/proc/<pid>/status`).
fn vm_size_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmSize:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn hundreds_of_sequential_connections_leave_no_reader_threads_behind() {
    let _cpu = shared_cpu();
    // One malloc arena: glibc otherwise maps a 64 MiB arena for each
    // reader that allocates while an earlier one still holds its own,
    // which the bound below would mistake for readers left behind.
    let daemon = Daemon::spawn(&["--workers", "1"], &[("MALLOC_ARENA_MAX", "1")]);
    let pid = daemon.child.as_ref().expect("daemon running").id();
    let one_shot = |id: u64| {
        let lines = raw_roundtrip(&daemon.addr, &estimate_request(id));
        assert!(lines.last().is_some_and(|l| l.contains("\"done\"")));
    };
    // Warm up the caches and the thread-stack allocator first.
    for id in 0..20 {
        one_shot(id);
    }
    let before = vm_size_kib(pid);
    for id in 20..320 {
        one_shot(id);
    }
    // Every reader thread holds a 2 MiB stack until it is joined: 300
    // connections would add ~600 MiB if finished readers piled up.
    if let (Some(before), Some(after)) = (before, vm_size_kib(pid)) {
        assert!(
            after < before + 64 * 1024,
            "daemon address space grew from {before} KiB to {after} KiB over 300 connections"
        );
    }
    daemon.shutdown();
}

#[test]
fn idle_daemon_accepts_new_connections_promptly() {
    let _cpu = exclusive_cpu();
    const REQUESTS: usize = 21;
    let daemon = Daemon::spawn(&["--workers", "1"], &[]);
    let mut request = Request::new(RequestKind::Stats);
    request.id = 5;
    let mut elapsed: Vec<Duration> = (0..REQUESTS)
        .map(|_| {
            // Let the daemon go idle before every one-shot request.
            std::thread::sleep(Duration::from_millis(25));
            let started = Instant::now();
            let lines = raw_roundtrip(&daemon.addr, &request);
            assert!(lines.last().is_some_and(|l| l.contains("\"done\"")));
            started.elapsed()
        })
        .collect();
    elapsed.sort();
    let median = elapsed[REQUESTS / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-done time on an idle daemon is {median:?} (all: {elapsed:?})"
    );
    daemon.shutdown();
}

#[test]
fn shutdown_wakes_open_connections_and_drains_queued_requests() {
    let _cpu = shared_cpu();
    let daemon = Daemon::spawn(&["--workers", "2"], &[]);
    let reference = raw_roundtrip(&daemon.addr, &estimate_request(61));

    // One connection that never sends, one stuck mid-line.
    let _idle = TcpStream::connect(&daemon.addr).expect("connects");
    let mut half = TcpStream::connect(&daemon.addr).expect("connects");
    half.write_all(b"{\"id\":70,\"kind\":").unwrap();

    // A third connection pipelines a heavy cold sweep, a repeat of the
    // reference request and a probe. The queue pops in push order, so
    // once the probe is answered a worker holds the sweep, and its
    // response is owed however `shutdown` races it.
    let mut queued = TcpStream::connect(&daemon.addr).expect("connects");
    queued.set_nodelay(true).unwrap();
    let mut probe = Request::new(RequestKind::Stats);
    probe.id = 60;
    let batch: String = [heavy_sweep_request(62), estimate_request(61), probe]
        .iter()
        .map(|request| serialize_request(request) + "\n")
        .collect();
    queued.write_all(batch.as_bytes()).unwrap();
    let mut queued = BufReader::new(queued);
    let mut lines: Vec<String> = Vec::new();
    loop {
        let mut next = String::new();
        assert_ne!(
            queued.read_line(&mut next).unwrap(),
            0,
            "eof before the probe"
        );
        let frame = parse_frame(next.trim_end()).expect("daemon emits valid frames");
        lines.push(next.trim_end().to_owned());
        if frame.id == 60 && frame.frame == FrameKind::Done {
            break;
        }
    }

    // The rest of the connection is read while the daemon shuts down:
    // the sweep's response need not fit in the socket buffers.
    let rest = std::thread::spawn(move || {
        let mut rest = String::new();
        queued.read_to_string(&mut rest).map(|_| rest)
    });
    // `shutdown` from a fourth connection; the daemon must still exit
    // cleanly and promptly with the other three open.
    daemon.shutdown();
    let rest = rest.join().unwrap().expect("reads until the daemon closes");
    lines.extend(rest.lines().map(str::to_owned));

    let response = |id: u64| -> Vec<String> {
        lines
            .iter()
            .filter(|l| parse_frame(l).unwrap().id == id)
            .cloned()
            .collect()
    };
    let sweep = response(62);
    assert!(
        sweep
            .last()
            .is_some_and(|l| parse_frame(l).unwrap().frame == FrameKind::Done),
        "the sweep must still get its done frame: {sweep:?}"
    );
    assert!(
        sweep
            .iter()
            .all(|l| parse_frame(l).unwrap().frame != FrameKind::Error),
        "the sweep must succeed: {sweep:?}"
    );
    assert_eq!(
        response(61),
        reference,
        "a request answered around shutdown must match its earlier response"
    );
}
