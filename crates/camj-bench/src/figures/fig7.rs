//! Fig. 7 + Table 2: validation against the nine silicon chips.
//!
//! Regenerates (a) the reported-vs-estimated correlation with Pearson
//! coefficient and MAPE, (b) the per-chip component breakdowns, and the
//! Table 2 architecture summary.

use camj_core::energy::EnergyCategory;
use camj_workloads::validation::{all_chips, mape, pearson, validate_all, ChipResult};

use crate::output;

/// Runs the validation experiment, printing Fig. 7a (correlation), the
/// per-chip breakdowns (Fig. 7b–j), and Table 2.
///
/// # Panics
///
/// Panics if any chip model fails its checks — all nine are expected to
/// build and estimate cleanly.
#[must_use]
pub fn run() -> Vec<ChipResult> {
    output::header("Table 2: validation chip summary");
    output::table(
        &["Chip", "Architecture"],
        &all_chips()
            .iter()
            .map(|c| vec![c.id.to_owned(), c.summary.to_owned()])
            .collect::<Vec<_>>(),
    );

    let results = validate_all().expect("all validation chips estimate");

    output::header("Fig. 7a: reported vs estimated energy per pixel");
    output::table(
        &["Chip", "Reported pJ/px", "Estimated pJ/px", "Error %"],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.id.clone(),
                    format!("{:.1}", r.reported_pj_per_px),
                    format!("{:.1}", r.estimated_pj_per_px),
                    format!("{:+.1}", r.error_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let r = pearson(&results);
    let m = mape(&results);
    println!();
    println!("  Pearson correlation: {r:.4}   (paper: 0.9999)");
    println!("  MAPE:                {m:.1} %  (paper: 7.5 %)");

    output::header("Fig. 7b-j: per-chip component breakdown (pJ/px)");
    let mut rows = Vec::new();
    for chip in all_chips() {
        let report = (chip.build)()
            .and_then(|model| model.estimate())
            .expect("chip estimates");
        let px = report.input_pixels.max(1) as f64;
        // A category with no entries sums to -0.0; adding +0.0 makes it
        // print as zero (the saved JSON is `results`, not these rows).
        let per_px =
            |cat: EnergyCategory| report.breakdown.category_total(cat).picojoules() / px + 0.0;
        rows.push(vec![
            chip.id.to_owned(),
            format!("{:.1}", per_px(EnergyCategory::Sensing)),
            format!("{:.2}", per_px(EnergyCategory::AnalogCompute)),
            format!("{:.2}", per_px(EnergyCategory::AnalogMemory)),
            format!("{:.1}", per_px(EnergyCategory::DigitalCompute)),
            format!("{:.1}", per_px(EnergyCategory::DigitalMemory)),
            format!("{:.1}", per_px(EnergyCategory::Mipi)),
            format!("{:.2}", per_px(EnergyCategory::MicroTsv)),
        ]);
    }
    output::table(
        &[
            "Chip", "SEN", "COMP-A", "MEM-A", "COMP-D", "MEM-D", "MIPI", "uTSV",
        ],
        &rows,
    );

    output::save_json("fig7_validation", &results);
    results
}
