//! A custom computational CIS loaded **from a declarative JSON
//! description** — no Rust edits or recompiles needed to explore it.
//!
//! The design (see `descriptions/custom_chip.json`): a QVGA always-on
//! motion sensor. Pixels difference against an analog memory in-sensor
//! (a custom cell-by-cell "MotionPE": sample cap → diff OpAmp →
//! threshold comparator); only motion tiles are digitised, and a small
//! digital unit on a stacked 22 nm die compresses them before MIPI.
//!
//! Everything the old Rust-built version of this example expressed —
//! custom analog components, an expert ADC FoM, a 3D-stacked floorplan
//! — now lives in the JSON file. Edit the file (say, change
//! `MotionPE`'s comparator bits or move the compressor to the sensor
//! layer) and re-run; the same description also drives the `camj` CLI:
//!
//! ```text
//! cargo run --example custom_chip
//! camj estimate --design descriptions/custom_chip.json
//! camj sweep --design descriptions/custom_chip.json
//! ```

use camj::desc::DesignDesc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = "descriptions/custom_chip.json";
    let desc = DesignDesc::from_json(&std::fs::read_to_string(path)?)?;
    let model = desc.build()?;
    let report = model.estimate()?;

    println!("{} @ {} FPS (loaded from {path})", desc.name, desc.fps);
    println!("----------------------------------------------------");
    println!(
        "total: {:.2} µJ/frame  ({:.1} pJ/px)",
        report.total().microjoules(),
        report.energy_per_pixel().picojoules()
    );
    for (category, energy) in report.breakdown.by_category() {
        if energy.joules() > 0.0 {
            println!("  {:<7} {:>8.2} µJ", category.label(), energy.microjoules());
        }
    }
    println!();
    for layer in &report.layers {
        println!(
            "  layer {:?}: {:.2} mW over {:.2} mm² {}",
            layer.layer,
            layer.power.milliwatts(),
            layer.area_mm2,
            layer
                .density_mw_per_mm2
                .map_or(String::new(), |d| format!("→ {d:.3} mW/mm²")),
        );
    }

    // The description carries its own sweep spec (`sweep.fps`); drive
    // the incremental sweep engine across it, exactly like `camj sweep`.
    if let Some(sweep) = &desc.sweep {
        let grid = camj::Sweep::new().fps_targets(sweep.fps.iter().copied());
        let cache = camj::explore::EstimateCache::shared();
        let results = camj::Explorer::new().sweep_incremental(&grid, &cache, |_| Ok(model.clone()));
        println!();
        println!("  frame-rate sweep (from the description's sweep.fps):");
        for (point, r) in results.successes() {
            println!(
                "    {:>5} FPS: {:>8.2} µJ/frame",
                point.fps("fps"),
                r.total().microjoules()
            );
        }
    }
    Ok(())
}
