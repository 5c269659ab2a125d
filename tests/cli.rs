//! `camj` command-line surface: every subcommand rejects the flags it
//! does not read (exit 2) instead of silently ignoring them.

use std::process::Command;

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
