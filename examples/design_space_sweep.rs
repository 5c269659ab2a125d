//! Design-space sweeps on the `camj-explore` API.
//!
//! Part 1 — analog compute precision vs energy (the ablation behind the
//! paper's Finding 3 caveat): thermal noise dictates
//! `C > kT·(6·2^bits / V_swing)²` (Eq. 6), so every extra bit of analog
//! precision quadruples the capacitors and the OpAmp bias currents
//! behind them. The sweep rebuilds the Ed-Gaze mixed-signal
//! frame-subtraction PE at 4–12 bits and shows when analog computing
//! stops beating its digital equivalent.
//!
//! Part 2 — a frame-rate sweep of the Fig. 5 quickstart chip through
//! the incremental sweep engine: one model serves every point, so
//! checks, routing, and the elastic cycle-level simulation run once,
//! and only the FPS-dependent stages run per point, in parallel, with
//! infeasible points captured as error entries instead of aborting the
//! sweep.
//!
//! ```text
//! cargo run --example design_space_sweep
//! ```

use camj::analog::components::{abs_diff, switched_cap_mac};
use camj::analog::noise::min_capacitance_for_resolution;
use camj::explore::{EstimateCache, Explorer, PointError, Sweep};
use camj::tech::units::Time;
use camj::workloads::quickstart;

/// One row of the precision sweep.
struct PrecisionRow {
    bits: u32,
    min_c_ff: f64,
    abs_diff_pj: f64,
    mac_pj: f64,
}

fn precision_sweep() {
    let delay = Time::from_micros(10.0);
    // An 8-bit digital subtract at 65 nm costs ~0.1 pJ; a MAC ~0.55 pJ.
    let digital_sub_pj = 0.1;
    let digital_mac_pj = 0.55;

    // Axis: analog precision. The grid is trivially 1-D here; the same
    // code scales to precision × swing × node grids.
    let sweep = Sweep::new().bit_widths(4..=12);
    let results = Explorer::parallel().run(&sweep, |point| {
        let bits = point.u32("bit_width");
        Ok::<_, PointError>(PrecisionRow {
            bits,
            min_c_ff: min_capacitance_for_resolution(bits, 1.0) * 1e15,
            abs_diff_pj: abs_diff(bits, 1.0).energy_per_access(delay).picojoules(),
            mac_pj: switched_cap_mac(bits, 1.0)
                .energy_per_access(delay)
                .picojoules(),
        })
    });

    println!("Analog precision sweep (per-op energy at a 10 µs op budget)");
    println!();
    println!(
        "{:>5} {:>12} {:>14} {:>14} {:>10}",
        "bits", "min C (fF)", "abs-diff (pJ)", "SC-MAC (pJ)", "winner"
    );
    for (_, row) in results.successes() {
        let winner = if row.mac_pj < digital_mac_pj {
            "analog"
        } else {
            "digital"
        };
        println!(
            "{:>5} {:>12.1} {:>14.3} {:>14.3} {winner:>10}",
            row.bits, row.min_c_ff, row.abs_diff_pj, row.mac_pj
        );
    }
    println!();
    println!(
        "digital references at 65 nm: subtract ≈ {digital_sub_pj} pJ, MAC ≈ {digital_mac_pj} pJ"
    );
    println!();
    println!("Above ~8 bits the noise-sized capacitors make analog *compute*");
    println!("pricier than digital — the paper's Fig. 13 effect. Analog still");
    println!("wins on *memory* (no ADC, no SRAM leakage), which is Finding 3.");
}

fn frame_rate_sweep() -> Result<(), Box<dyn std::error::Error>> {
    // Validate + route + simulate once; sweep the FPS axis over the
    // cached artifacts. The 10M FPS point is impossible on purpose —
    // it surfaces as an error entry without poisoning its neighbours.
    let model = quickstart::model(30.0)?.into_validated();
    let targets = [15.0, 30.0, 60.0, 120.0, 480.0, 1920.0, 10_000_000.0];
    let sweep = Sweep::new().fps_targets(targets);
    let results = Explorer::parallel()
        .sweep_incremental(&sweep, &EstimateCache::shared(), |_| Ok(model.clone()));

    println!();
    println!("Fig. 5 quickstart chip across frame-rate targets (staged pipeline,");
    println!(
        "checks/routing/latency-sim shared across all {} points):",
        targets.len()
    );
    println!();
    println!(
        "{:>10} {:>14} {:>16}",
        "FPS", "nJ/frame", "sensing µs/stage"
    );
    for outcome in results.outcomes() {
        let fps = outcome.point.fps("fps");
        match &outcome.result {
            Ok(report) => println!(
                "{fps:>10.0} {:>14.2} {:>16.2}",
                report.total().nanojoules(),
                report.delay.analog_unit_time.micros()
            ),
            Err(e) => println!("{fps:>10.0}   infeasible: {e}"),
        }
    }
    println!();
    if let Some((point, best)) = results.min_energy() {
        println!(
            "lowest energy point: {point} at {:.2} nJ/frame ({} of {} feasible)",
            best.total().nanojoules(),
            results.ok_count(),
            results.len()
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    precision_sweep();
    frame_rate_sweep()
}
