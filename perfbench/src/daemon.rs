//! A `camj serve` child process and the client connections the
//! benchmark drives it with.
//!
//! Hygiene: [`Daemon`] always ends its child. [`Daemon::shutdown`]
//! sends the protocol's `shutdown` request and reaps the process; if a
//! run panics or returns early, `Drop` does the same and kills the child
//! when it does not exit in time. [`ScratchDir`] removes its directory
//! on drop. Back-to-back runs therefore leave no stray process, port, or
//! file.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to print its `listening` line.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a daemon may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a one-shot request may wait for its answer.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Daemon {
    child: Option<Child>,
    stderr: Option<BufReader<ChildStderr>>,
    pub addr: SocketAddr,
    pid: u32,
}

impl Daemon {
    /// Starts `<camj> serve --listen 127.0.0.1:0` plus `extra` flags in
    /// the current directory and waits for its `serve: listening on
    /// <addr>` line.
    pub fn start(camj: &Path, extra: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(camj)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("could not start {}: {e}", camj.display()))?;
        let pid = child.id();
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let deadline = Instant::now() + START_TIMEOUT;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stderr.read_line(&mut line);
            if matches!(read, Ok(0) | Err(_)) || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon exited before listening: {line}"));
            }
            if let Some(rest) = line.trim().strip_prefix("serve: listening on ") {
                let text = rest.split_whitespace().next().unwrap_or("");
                match text.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("bad listening line {line:?}: {e}"));
                    }
                }
            }
        };
        Ok(Daemon {
            child: Some(child),
            stderr: Some(stderr),
            addr,
            pid,
        })
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&format!("/proc/{}/status", self.pid))
    }

    /// Sends `shutdown`, waits for the child to exit, and returns what
    /// it printed to stderr after the `listening` line (the metrics
    /// report under `--metrics json`).
    pub fn shutdown(mut self) -> Result<String, String> {
        let sent = request_once(self.addr, r#"{"id":1,"kind":"shutdown"}"#);
        let mut rest = String::new();
        if let Some(mut stderr) = self.stderr.take() {
            let _ = stderr.read_to_string(&mut rest);
        }
        let status = self.reap();
        sent.map_err(|e| format!("shutdown request failed: {e}"))?;
        match status {
            Some(s) if s.success() => Ok(rest),
            other => Err(format!("daemon did not exit cleanly: {other:?}\n{rest}")),
        }
    }

    /// Waits up to [`EXIT_TIMEOUT`] for the child, then kills it.
    fn reap(&mut self) -> Option<std::process::ExitStatus> {
        let mut child = self.child.take()?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    return child.wait().ok();
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.is_some() {
            let _ = request_once(self.addr, r#"{"id":1,"kind":"shutdown"}"#);
            // Dropping the stderr pipe first lets a chatty child finish.
            self.stderr = None;
            let _ = self.reap();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn peak_rss_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of this process, from `/proc/self/status`.
pub fn own_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// A directory under the checkout that is removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, name: &str) -> Result<ScratchDir, String> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("could not create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once the last run left it empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// One request on a fresh connection, as `camj --connect` does it:
/// connect, send one line, read frames until `done`, close.
pub fn request_once(addr: SocketAddr, line: &str) -> std::io::Result<Vec<String>> {
    let mut conn = Conn::open(addr)?;
    conn.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    conn.send(line)?;
    conn.read_response()
}

/// A persistent client connection speaking the newline-delimited
/// protocol.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line. On a non-blocking connection a full
    /// socket buffer is waited out rather than reported.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut rest = &buf[..];
        while !rest.is_empty() {
            match self.writer.write(rest) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Bounds how long one read may block (`None`: forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Makes reads (and writes) return at once instead of blocking.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.reader.get_ref().set_nonblocking(nonblocking)
    }

    /// Blocks until the socket has bytes to read or `timeout` passes.
    /// Unlike a socket read timeout, which ticks in scheduler jiffies
    /// (up to 4 ms), `ppoll` wakes within microseconds of either. Call it
    /// only once [`Conn::read_line_into`] found no complete line, so
    /// nothing is left waiting in the read buffer.
    pub fn wait_readable(&self, timeout: Duration) -> std::io::Result<()> {
        use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
        use std::os::unix::io::AsRawFd;
        #[repr(C)]
        struct PollFd {
            fd: c_int,
            events: c_short,
            revents: c_short,
        }
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        extern "C" {
            fn ppoll(
                fds: *mut PollFd,
                nfds: c_ulong,
                timeout: *const Timespec,
                sigmask: *const c_void,
            ) -> c_int;
        }
        const POLLIN: c_short = 0x1;
        let mut fd = PollFd {
            fd: self.reader.get_ref().as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are initialised locals that outlive the
        // call, `nfds` is 1 to match the single `PollFd`, and a null
        // `sigmask` leaves the signal mask unchanged.
        let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if rc < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Reads one line into `buf` (without its newline). Returns
    /// `Ok(false)` when no complete line is available yet (a read timeout
    /// expired, or a non-blocking read found nothing); a partial line
    /// stays in `buf` and the next call completes it.
    pub fn read_line_into(&mut self, buf: &mut Vec<u8>) -> std::io::Result<bool> {
        match self.reader.read_until(b'\n', buf) {
            Ok(0) => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(_) if buf.last() == Some(&b'\n') => {
                buf.pop();
                Ok(true)
            }
            Ok(_) => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads the frames of one response, through its `done` frame. An
    /// expired read timeout is an error here.
    pub fn read_response(&mut self) -> std::io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            let mut buf = Vec::new();
            if !self.read_line_into(&mut buf)? {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let line = String::from_utf8(buf)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            let done = frame_kind(&line) == Some("done");
            lines.push(line);
            if done {
                return Ok(lines);
            }
        }
    }
}

/// The `id` of a response frame line (`{"id":N,"frame":...`).
pub fn frame_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(',')?;
    rest[..end].parse().ok()
}

/// The `frame` kind of a response frame line.
pub fn frame_kind(line: &str) -> Option<&str> {
    let start = line.find("\"frame\":\"")? + "\"frame\":\"".len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The line with its id replaced by 0, so responses to the same request
/// under different ids compare byte for byte.
pub fn strip_id(line: &str) -> String {
    match (line.strip_prefix("{\"id\":"), line.find(',')) {
        (Some(_), Some(comma)) => format!("{{\"id\":0{}", &line[comma..]),
        _ => line.to_owned(),
    }
}

/// Checks one complete response: every frame carries `id`, none is an
/// `error`, and it ends in a `done` frame that counts the frames before
/// it.
pub fn check_response(id: u64, lines: &[String]) -> Result<(), String> {
    let Some((done, body)) = lines.split_last() else {
        return Err(format!("request {id}: empty response"));
    };
    for line in lines {
        if frame_id(line) != Some(id) {
            return Err(format!("request {id}: frame for another id: {line:.120}"));
        }
    }
    if let Some(err) = body.iter().find(|l| frame_kind(l) == Some("error")) {
        return Err(format!("request {id}: error frame: {err:.200}"));
    }
    let expected = format!("\"frames\":{}}}", body.len());
    if frame_kind(done) != Some("done") || !done.ends_with(&expected) {
        return Err(format!("request {id}: bad terminator: {done:.120}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_lines_parse_by_prefix() {
        let line = r#"{"id":42,"frame":"result","body":{"ok":true}}"#;
        assert_eq!(frame_id(line), Some(42));
        assert_eq!(frame_kind(line), Some("result"));
        assert_eq!(
            strip_id(line),
            r#"{"id":0,"frame":"result","body":{"ok":true}}"#
        );
    }

    #[test]
    fn responses_must_end_in_a_counting_done() {
        let ok = vec![
            r#"{"id":3,"frame":"result","body":{}}"#.to_owned(),
            r#"{"id":3,"frame":"done","frames":1}"#.to_owned(),
        ];
        assert!(check_response(3, &ok).is_ok());
        assert!(check_response(4, &ok).is_err());
        let error = vec![
            r#"{"id":3,"frame":"error","path":"request","message":"x"}"#.to_owned(),
            r#"{"id":3,"frame":"done","frames":1}"#.to_owned(),
        ];
        assert!(check_response(3, &error).is_err());
        let miscounted = vec![r#"{"id":3,"frame":"done","frames":2}"#.to_owned()];
        assert!(check_response(3, &miscounted).is_err());
    }

    #[test]
    fn vmhwm_parses_from_proc() {
        assert!(peak_rss_mib("/proc/self/status") > 0.0);
        assert_eq!(peak_rss_mib("/nonexistent"), 0.0);
        assert!(own_threads() >= 1);
    }
}
