//! Golden-file tests for the `camj-desc` subsystem and the `camj` CLI
//! (ISSUE 2 acceptance criteria):
//!
//! * every committed description under `descriptions/` is byte-identical
//!   to a fresh export of its workload (no drift),
//! * loading a golden file produces a model whose energy estimates are
//!   **byte-identical** to the Rust-built equivalent,
//! * the CLI's `estimate` output matches the committed snapshot, and
//!   `export` reproduces the committed JSON byte-for-byte.

use std::fs;
use std::process::Command;

use camj::desc::DesignDesc;
use camj::workloads::describe;

/// The bundled golden workloads (name, committed file).
const GOLDEN: [(&str, &str); 4] = [
    ("quickstart", "descriptions/quickstart.json"),
    ("edgaze", "descriptions/edgaze.json"),
    ("rhythmic", "descriptions/rhythmic.json"),
    ("isscc17", "descriptions/isscc17.json"),
];

#[test]
fn golden_files_match_fresh_exports_byte_for_byte() {
    for (name, path) in GOLDEN {
        let committed = fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let fresh = describe::export(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .to_json_pretty()
            .unwrap();
        assert_eq!(
            fresh, committed,
            "{path} drifted from the Rust-built {name} workload; \
             regenerate with `cargo run --bin camj -- export {name} --out {path}`"
        );
    }
}

#[test]
fn golden_files_load_to_byte_identical_estimates() {
    for (name, path) in GOLDEN {
        let text = fs::read_to_string(path).unwrap();
        let desc = DesignDesc::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let loaded = desc.build().unwrap_or_else(|e| panic!("{path}: {e}"));
        let fresh = describe::export(name).unwrap();
        let original = fresh.build().unwrap();
        let a = loaded.estimate().unwrap();
        let b = original.estimate().unwrap();
        assert_eq!(a, b, "{name}: estimate reports must be identical");
        assert_eq!(
            a.total().joules().to_bits(),
            b.total().joules().to_bits(),
            "{name}: totals must be bit-exact"
        );
        for (x, y) in a.breakdown.items().zip(b.breakdown.items()) {
            assert_eq!(
                x.energy.joules().to_bits(),
                y.energy.joules().to_bits(),
                "{name}: breakdown item {} must be bit-exact",
                x.unit
            );
        }
    }
}

#[test]
fn golden_files_round_trip_through_export_load_export() {
    for (_, path) in GOLDEN {
        let text = fs::read_to_string(path).unwrap();
        let desc = DesignDesc::from_json(&text).unwrap();
        let again = DesignDesc::from_json(&desc.to_json_pretty().unwrap()).unwrap();
        assert_eq!(again, desc, "{path}");
        assert_eq!(
            again.to_json_pretty().unwrap(),
            desc.to_json_pretty().unwrap(),
            "{path}: serialization must be a fixed point"
        );
    }
}

#[test]
fn custom_chip_description_loads_and_estimates() {
    let text = fs::read_to_string("descriptions/custom_chip.json").unwrap();
    let desc = DesignDesc::from_json(&text).unwrap();
    let model = desc.build().unwrap();
    let report = model.estimate().unwrap();
    assert!(report.total().microjoules() > 0.1);
    let sweep = desc.sweep.expect("custom chip bundles a sweep spec");
    assert!(!sweep.fps.is_empty());
}

#[test]
fn cli_estimate_matches_committed_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args([
            "estimate",
            "--design",
            "descriptions/quickstart.json",
            "--fps",
            "30",
        ])
        .output()
        .expect("camj binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = fs::read_to_string("descriptions/quickstart.estimate.txt").unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "CLI estimate output drifted from descriptions/quickstart.estimate.txt; \
         regenerate it if the change is intentional"
    );
}

/// Runs `camj simulate` with `args`, optionally pinning the rayon
/// worker count.
fn simulate_cli(args: &[&str], threads: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_camj"));
    cmd.arg("simulate").args(args);
    if let Some(threads) = threads {
        cmd.env("RAYON_NUM_THREADS", threads);
    }
    let out = cmd.output().expect("camj binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// `camj simulate args` matches the committed `golden` and, since a
/// simulated frame is a pure function of (model, seed, stimulus), is
/// byte-identical across repeat runs and thread counts.
fn assert_simulate_golden(args: &[&str], golden: &str) {
    let expected = fs::read_to_string(golden).unwrap();
    let first = simulate_cli(args, None);
    assert_eq!(
        first, expected,
        "CLI simulate output drifted from {golden}; regenerate it if the change is intentional"
    );
    assert_eq!(simulate_cli(args, None), first);
    for threads in ["1", "2", "8"] {
        assert_eq!(
            simulate_cli(args, Some(threads)),
            first,
            "RAYON_NUM_THREADS={threads}"
        );
    }
}

#[test]
fn cli_simulate_matches_committed_snapshot() {
    assert_simulate_golden(
        &["--design", "descriptions/quickstart.json", "--seed", "42"],
        "descriptions/quickstart.simulate.txt",
    );
}

#[test]
fn cli_simulate_full_dag_matches_committed_snapshot() {
    // The edgaze description bundles a real-image stimulus
    // (descriptions/edgaze_eye.pgm) and a three-stage digital DAG, so
    // this snapshot covers the whole functional pipeline: codec →
    // analog chain → DAG execution → task metrics → digests.
    assert_simulate_golden(
        &["--design", "descriptions/edgaze.json", "--seed", "42"],
        "descriptions/edgaze.simulate.txt",
    );
}

#[test]
fn cli_simulate_monte_carlo_matches_committed_snapshot() {
    // A 16-seed Monte-Carlo batch over the same pipeline: per-stage
    // means and spreads, task-metric aggregates, and the first seed's
    // digests.
    assert_simulate_golden(
        &[
            "--design",
            "descriptions/edgaze.json",
            "--seed",
            "42",
            "--samples",
            "16",
        ],
        "descriptions/edgaze.simulate-mc16.txt",
    );
}

#[test]
fn cli_export_reproduces_golden_bytes() {
    for (name, path) in GOLDEN {
        let out = Command::new(env!("CARGO_BIN_EXE_camj"))
            .args(["export", name])
            .output()
            .expect("camj binary runs");
        assert!(out.status.success(), "{name}");
        let committed = fs::read(path).unwrap();
        assert_eq!(
            out.stdout, committed,
            "{name}: `camj export` must reproduce {path} byte-for-byte"
        );
    }
}

#[test]
fn cli_validate_accepts_goldens_and_rejects_malformed_input() {
    let mut args = vec!["validate".to_owned()];
    args.extend(GOLDEN.iter().map(|(_, p)| (*p).to_owned()));
    let ok = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args(&args)
        .output()
        .expect("camj binary runs");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // A malformed file: the failure must name the exact field.
    let broken = fs::read_to_string("descriptions/quickstart.json")
        .unwrap()
        .replace("\"bits\": 10", "\"bits\": \"ten\"");
    let dir = std::env::temp_dir().join("camj-desc-test");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.json");
    fs::write(&path, broken).unwrap();
    let bad = Command::new(env!("CARGO_BIN_EXE_camj"))
        .args(["validate", path.to_str().unwrap()])
        .output()
        .expect("camj binary runs");
    assert!(!bad.status.success());
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("non_linear.bits"),
        "validate must name the exact field: {stdout}"
    );
    assert!(stdout.contains("\"ten\""), "{stdout}");
}
