//! `camj` command-line surface: every subcommand rejects the flags it
//! does not read (exit 2) instead of silently ignoring them.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn camj(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_camj"))
        .args(args)
        .output()
        .expect("camj binary runs")
}

#[test]
fn subcommands_reject_flags_they_do_not_read() {
    let quickstart = "descriptions/quickstart.json";
    let cases: [(&[&str], &str); 9] = [
        (&["list", "--json"], "--json"),
        (
            &["export", "quickstart", "--design", quickstart],
            "--design",
        ),
        (&["validate", quickstart, "--fps", "30"], "--fps"),
        (
            &["estimate", "--design", quickstart, "--seed", "5"],
            "--seed",
        ),
        (
            &["simulate", "--design", quickstart, "--format", "json"],
            "--format",
        ),
        (
            &["sweep", "--design", quickstart, "--objectives", "delay"],
            "--objectives",
        ),
        (
            &["pareto", "--design", quickstart, "--population", "3"],
            "--population",
        ),
        (&["search", "--design", quickstart, "--stats"], "--stats"),
        (&["serve", "--stdio", "--design", quickstart], "--design"),
    ];
    for (args, flag) in cases {
        let out = camj(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`camj {}` does not take {flag}", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn stray_positionals_and_removed_flags_are_usage_errors() {
    let quickstart = "descriptions/quickstart.json";
    let stray = camj(&["estimate", "--design", quickstart, "extra"]);
    assert_eq!(stray.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&stray.stderr).contains("takes no positional argument 'extra'"));

    // Several flags a sweep does not read, all on one line.
    let sweep = camj(&[
        "sweep",
        "--design",
        quickstart,
        "--fps",
        "15,30",
        "--seed",
        "5",
        "--objectives",
        "delay",
        "--max-density",
        "1",
        "--population",
        "3",
    ]);
    assert_eq!(sweep.status.code(), Some(2));

    // `--no-cache` is gone: sweeps always run through the shared cache.
    let no_cache = camj(&["sweep", "--design", quickstart, "--fps", "15", "--no-cache"]);
    assert_eq!(no_cache.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&no_cache.stderr).contains("unknown flag '--no-cache'"));
}

/// A reader that stops early (`camj … | head`) ends the output: the
/// command exits 0 and prints no panic. The sweep's CSV outgrows the
/// pipe buffer, so the child is still writing when two lines have been
/// read and the pipe closes; the simulation has not written anything
/// yet when its pipe closes.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let fps = (10..3010)
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let quickstart = "descriptions/quickstart.json";
    let sweep = [
        "sweep", "--design", quickstart, "--fps", &fps, "--format", "csv",
    ];
    let simulate = ["simulate", "--design", "descriptions/edgaze.json", "--json"];
    for (args, lines) in [(&sweep[..], 2), (&simulate[..], 0)] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_camj"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("camj binary runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        for _ in 0..lines {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("stdout reads");
            assert!(!line.is_empty(), "{args:?}: output ended early");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("camj finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{}: {stderr}", args[0]);
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "{}: {stderr}",
            args[0]
        );
    }
}
