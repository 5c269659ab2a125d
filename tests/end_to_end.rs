//! Integration tests: full pipelines across all workspace crates,
//! asserting the paper's three findings as invariants.

use camj::workloads::configs::SensorVariant;
use camj::workloads::{edgaze, quickstart, rhythmic};
use camj::EnergyCategory;
use camj_tech::node::ProcessNode;

fn total_uj(build: impl Fn() -> Result<camj::CamJ, camj::workloads::WorkloadError>) -> f64 {
    build()
        .expect("model builds")
        .estimate()
        .expect("model estimates")
        .total()
        .microjoules()
}

#[test]
fn quickstart_full_flow() {
    let report = quickstart::model(30.0).unwrap().estimate().unwrap();
    // Fig. 6 structure: 3 analog stages share the frame budget.
    assert_eq!(report.delay.analog_stage_count, 3);
    let reconstructed = report.delay.analog_unit_time * 3.0 + report.delay.digital_latency;
    assert!((reconstructed.secs() - report.delay.frame_time.secs()).abs() < 1e-12);
    // All three energy domains are present (Eq. 1).
    assert!(
        report
            .breakdown
            .category_total(EnergyCategory::Sensing)
            .joules()
            > 0.0
    );
    assert!(
        report
            .breakdown
            .category_total(EnergyCategory::DigitalCompute)
            .joules()
            > 0.0
    );
    assert!(
        report
            .breakdown
            .category_total(EnergyCategory::Mipi)
            .joules()
            > 0.0
    );
}

#[test]
fn finding_1_communication_dominant_workloads_benefit_from_in_sensor() {
    // Rhythmic (communication-dominant): in-CIS wins.
    for node in [ProcessNode::N130, ProcessNode::N65] {
        let on = total_uj(|| rhythmic::model(SensorVariant::TwoDIn, node));
        let off = total_uj(|| rhythmic::model(SensorVariant::TwoDOff, node));
        assert!(
            on < off,
            "Rhythmic 2D-In should win at {node}: {on} vs {off}"
        );
    }
    // Ed-Gaze (compute-dominant): in-CIS loses.
    for node in [ProcessNode::N130, ProcessNode::N65] {
        let on = total_uj(|| edgaze::model(SensorVariant::TwoDIn, node));
        let off = total_uj(|| edgaze::model(SensorVariant::TwoDOff, node));
        assert!(
            on > off,
            "Ed-Gaze 2D-In should lose at {node}: {on} vs {off}"
        );
    }
}

#[test]
fn finding_2_stacking_saves_energy_but_concentrates_power() {
    for node in [ProcessNode::N130, ProcessNode::N65] {
        let two_d = total_uj(|| edgaze::model(SensorVariant::TwoDIn, node));
        let three_d = total_uj(|| edgaze::model(SensorVariant::ThreeDIn, node));
        assert!(three_d < two_d, "3D-In should save energy at {node}");
    }
    // STT-RAM removes the leakage floor on top of stacking.
    let stt = total_uj(|| edgaze::model(SensorVariant::ThreeDInStt, ProcessNode::N65));
    let sram = total_uj(|| edgaze::model(SensorVariant::ThreeDIn, ProcessNode::N65));
    assert!(stt < 0.6 * sram);
}

#[test]
fn finding_3_analog_processing_wins_through_memory() {
    for node in [ProcessNode::N130, ProcessNode::N65] {
        let digital = edgaze::model(SensorVariant::TwoDIn, node)
            .unwrap()
            .estimate()
            .unwrap();
        let mixed = edgaze::model(SensorVariant::TwoDInMixed, node)
            .unwrap()
            .estimate()
            .unwrap();
        assert!(
            mixed.total() < digital.total(),
            "mixed-signal should win at {node}"
        );
        // The saving comes from memory (and removed ADCs), not compute.
        let mem_digital = digital
            .breakdown
            .category_total(EnergyCategory::DigitalMemory);
        let mem_mixed = mixed
            .breakdown
            .category_total(EnergyCategory::DigitalMemory)
            + mixed.breakdown.category_total(EnergyCategory::AnalogMemory);
        assert!(mem_mixed.joules() < 0.5 * mem_digital.joules());
        // Analog compute is NOT cheaper than the digital S1/S2 datapaths.
        let comp_a = mixed
            .breakdown
            .category_total(EnergyCategory::AnalogCompute);
        let comp_d_s12: camj_tech::units::Energy = digital
            .breakdown
            .items()
            .filter(|i| {
                i.category == EnergyCategory::DigitalCompute && i.stage.as_deref() != Some("RoiDnn")
            })
            .map(|i| i.energy)
            .sum();
        assert!(comp_a >= comp_d_s12);
    }
}

#[test]
fn leakage_inversion_at_65nm() {
    // The paper's counter-intuitive result: a 65 nm in-sensor Ed-Gaze
    // burns MORE than 130 nm because the frame buffer leaks.
    let at_130 = total_uj(|| edgaze::model(SensorVariant::TwoDIn, ProcessNode::N130));
    let at_65 = total_uj(|| edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65));
    assert!(at_65 > at_130);
    // Off-sensor (22 nm SoC) the CIS node is irrelevant: totals match.
    let off_130 = total_uj(|| edgaze::model(SensorVariant::TwoDOff, ProcessNode::N130));
    let off_65 = total_uj(|| edgaze::model(SensorVariant::TwoDOff, ProcessNode::N65));
    assert!((off_130 - off_65).abs() < 1e-6);
}

#[test]
fn breakdown_is_additive_and_layer_consistent() {
    let report = edgaze::model(SensorVariant::ThreeDIn, ProcessNode::N65)
        .unwrap()
        .estimate()
        .unwrap();
    let by_cat: f64 = report
        .breakdown
        .by_category()
        .iter()
        .map(|(_, e)| e.joules())
        .sum();
    assert!((by_cat - report.total().joules()).abs() < 1e-18);
    let by_layer: f64 = [
        camj::core::hw::Layer::Sensor,
        camj::core::hw::Layer::Compute,
        camj::core::hw::Layer::OffChip,
    ]
    .iter()
    .map(|&l| report.breakdown.layer_total(l).joules())
    .sum();
    assert!((by_layer - report.total().joules()).abs() < 1e-18);
}

#[test]
fn infeasible_frame_rate_is_rejected() {
    // Ed-Gaze's DNN takes ~1.3 ms; at 2 kHz the frame budget is 0.5 ms.
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65).unwrap();
    let fast = camj::CamJ::new(
        model.algorithm().clone(),
        model.hardware().clone(),
        model.mapping().clone(),
        2_000.0,
    )
    .unwrap();
    let err = fast.estimate().unwrap_err();
    assert!(
        matches!(err, camj::CamjError::FrameRateInfeasible { .. }),
        "{err}"
    );
}

#[test]
fn sim_statistics_are_exposed() {
    let report = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .unwrap()
        .estimate()
        .unwrap();
    let sim = report.sim.as_ref().expect("digital pipeline simulated");
    // The DNN dominates the digital latency: ~264 706 cycles at 85 %
    // utilization of the 16×16 array.
    assert!(sim.total_cycles > 260_000 && sim.total_cycles < 300_000);
    let dnn = sim.stage("RoiDnn").expect("DNN stage simulated");
    assert!(dnn.active_cycles >= 264_000);
    // Frame-buffer traffic: 64 000 written, 128 000 read (2 operands).
    let fb = sim.buffer("FrameBuffer").expect("frame buffer simulated");
    assert!((fb.pixels_written - 64_000.0).abs() < 1.0);
    assert!((fb.pixels_read - 128_000.0).abs() < 1.0);
}
