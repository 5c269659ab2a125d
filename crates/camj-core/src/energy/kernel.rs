//! Per-domain energy kernels: the four independent passes of the
//! **energy** stage, each a plain function of its plan inputs and
//! per-point input, and the per-model kernel plan that resolves those
//! inputs once.
//!
//! A kernel splits into two parts. Its **FPS-invariant inputs** —
//! analog access counts and stage attribution, digital-compute rows,
//! simulated memory traffic, interface hop lists — depend only on the
//! model (and its FPS-independent elastic simulation), so a
//! [`ValidatedModel`] resolves them once, together with a digest of
//! each, into one `KernelPlan` shared by every frame-rate point and
//! every clone of the model. Its **per-point input** is the one number
//! the delay solve changes: the analog unit time `T_A` for the analog
//! kernel, the frame time for digital memory; digital compute and the
//! interfaces have none.
//!
//! That split is the cache key. Every energy-kernel key is two-level,
//! `H(kind tag, key domain, invariant digest, per-point input)`, built
//! in one place (`kernel_key`): a sweep point pays for hashing ~50
//! bytes per kernel, not for re-hashing every component parameter.
//! Because the invariant digest covers exactly the inputs `compute`
//! reads besides the per-point one, two keys are equal exactly when the
//! kernels' full inputs are — equal key ⇒ bit-identical
//! [`EnergyItem`] list — and the cross-point
//! [`EstimateCache`](super::EstimateCache) can replay one's output for
//! the other. A kernel function only runs (over borrowed plan inputs)
//! on a cache miss, or on the uncached path.
//!
//! The four kernels mirror the paper's Eq. 1 decomposition plus
//! communication:
//!
//! | kernel | paper | books | per-point input |
//! |---|---|---|---|
//! | [`KernelKind::Analog`] | Eq. 2–13 | pixel arrays, ADCs, analog PEs/memories | `T_A` |
//! | [`KernelKind::DigitalCompute`] | Eq. 15 | pipelined accelerators, systolic arrays | — |
//! | [`KernelKind::DigitalMemory`] | Eq. 16 | SRAM/STT-RAM dynamic traffic + leakage | frame time |
//! | [`KernelKind::Interface`] | Eq. 17 | µTSV / MIPI layer crossings | — |

use std::collections::BTreeMap;

use camj_digital::sim::SimReport;
use camj_tech::fingerprint::{Fingerprint, Fingerprintable, FpHasher};
use camj_tech::units::Time;

use crate::delay::DelayEstimate;
use crate::functional::NoiseStage;
use crate::hw::{DigitalUnitKind, HardwareDesc, Layer};
use crate::route::Route;
use crate::sw::StageKind;

use super::breakdown::EnergyItem;
use super::category::EnergyCategory;
use super::pipeline::{StagePlan, ValidatedModel, ENERGY_KERNEL_COUNT};

/// Domain tag of every energy-kernel cache key. Bump it when a kernel's
/// inputs, its digest feed, or the key layout change, so stale keys —
/// including entries an older build wrote to a persistent tier — can
/// never alias new ones.
const KERNEL_KEY_DOMAIN: &str = "camj.kernel/v2";

/// Which energy domain a kernel books.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Analog functional arrays (sensing, analog compute, analog memory).
    Analog,
    /// Digital compute units (pipelined accelerators, systolic arrays).
    DigitalCompute,
    /// Digital memory structures (dynamic traffic + leakage).
    DigitalMemory,
    /// Layer-crossing interfaces (µTSV, MIPI).
    Interface,
}

impl KernelKind {
    /// All kinds, in booking order (the order items appear in a
    /// breakdown).
    pub const ALL: [KernelKind; ENERGY_KERNEL_COUNT] = [
        KernelKind::Analog,
        KernelKind::DigitalCompute,
        KernelKind::DigitalMemory,
        KernelKind::Interface,
    ];

    /// Short human label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Analog => "analog",
            KernelKind::DigitalCompute => "digital-compute",
            KernelKind::DigitalMemory => "digital-memory",
            KernelKind::Interface => "interface",
        }
    }

    fn tag(self) -> u8 {
        match self {
            KernelKind::Analog => 0xa0,
            KernelKind::DigitalCompute => 0xa1,
            KernelKind::DigitalMemory => 0xa2,
            KernelKind::Interface => 0xa3,
        }
    }
}

/// The cache key of one kernel invocation:
/// `H(kind tag, key domain, invariant digest, per-point input)` — the
/// only definition of the energy key scheme.
fn kernel_key(kind: KernelKind, invariant: Fingerprint, point: Option<Time>) -> Fingerprint {
    KeyPrefix::new(kind, invariant).finish(point)
}

/// A kernel key with its invariant half already hashed, kept in the
/// plan so that keying a point hashes only the point's own input.
#[derive(Debug, Clone)]
struct KeyPrefix(FpHasher);

impl KeyPrefix {
    /// Hashes `H(kind tag, key domain, invariant digest, …`.
    fn new(kind: KernelKind, invariant: Fingerprint) -> Self {
        let mut h = FpHasher::new();
        h.write_tag(kind.tag());
        h.write_str(KERNEL_KEY_DOMAIN);
        let (hi, lo) = invariant.parts();
        h.write_u64(hi);
        h.write_u64(lo);
        Self(h)
    }

    /// Completes the key with the per-point input.
    fn finish(&self, point: Option<Time>) -> Fingerprint {
        let mut h = self.0.clone();
        point.feed(&mut h);
        h.finish()
    }
}

// ---------------------------------------------------------------------
// The per-model plan
// ---------------------------------------------------------------------

/// Everything about a model's energy stage that no frame rate can
/// change, resolved once per model after the elastic simulation
/// succeeds: the analog stage count `N_A`, the stall-verdict key, the
/// noise chain, and each kernel's FPS-invariant inputs with their
/// digest (for the two kernels without a per-point input, the finished
/// key). Per point, the pipeline only solves the delay split, keys each
/// kernel from the plan, and — on a cache miss — runs the kernel over
/// borrowed plan inputs.
#[derive(Debug)]
pub(crate) struct KernelPlan {
    /// Analog pipeline stage count `N_A`, including exposure.
    pub(crate) analog_stage_count: usize,
    /// The cross-model stall-verdict key (simulation topology + `N_A`).
    pub(crate) stall_fp: Fingerprint,
    /// The analog signal chain's noise stages, in signal-flow order.
    pub(crate) noise_chain: Vec<NoiseStage>,
    analog: AnalogInputs,
    digital_compute: ComputeInputs,
    digital_memory: MemoryInputs,
    interface: InterfaceInputs,
}

impl KernelPlan {
    /// Resolves `model`'s plan from its elastic simulation report
    /// (`None` for all-analog designs).
    pub(crate) fn new(model: &ValidatedModel, sim: Option<&SimReport>) -> Self {
        let analog_stage_count = model.analog_stage_count();
        let plans = model.stage_plans();
        Self {
            analog_stage_count,
            stall_fp: model.stall_fingerprint(analog_stage_count),
            noise_chain: model.noise_chain(),
            analog: AnalogInputs::new(model),
            digital_compute: ComputeInputs::new(model, &plans, sim),
            digital_memory: MemoryInputs::new(model, &plans, sim),
            interface: InterfaceInputs::new(model),
        }
    }

    /// The cache key of `kind`'s kernel at the solved split `delay`:
    /// equal keys guarantee bit-identical kernel output.
    pub(crate) fn key(&self, kind: KernelKind, delay: &DelayEstimate) -> Fingerprint {
        match kind {
            KernelKind::Analog => self.analog.key.finish(Some(delay.analog_unit_time)),
            KernelKind::DigitalCompute => self.digital_compute.key,
            KernelKind::DigitalMemory => self.digital_memory.key.finish(Some(delay.frame_time)),
            KernelKind::Interface => self.interface.key,
        }
    }

    /// Runs `kind`'s kernel at `delay` over `model`'s hardware and
    /// routes: its energy items, in deterministic order.
    pub(crate) fn compute(
        &self,
        kind: KernelKind,
        model: &ValidatedModel,
        delay: &DelayEstimate,
    ) -> Vec<EnergyItem> {
        let hw = model.hardware();
        match kind {
            KernelKind::Analog => analog(hw, &self.analog, delay.analog_unit_time),
            KernelKind::DigitalCompute => digital_compute(hw, &self.digital_compute),
            KernelKind::DigitalMemory => digital_memory(hw, &self.digital_memory, delay.frame_time),
            KernelKind::Interface => interface(model.routes(), &self.interface),
        }
    }
}

// ---------------------------------------------------------------------
// Analog
// ---------------------------------------------------------------------

/// The analog kernel's FPS-invariant inputs: per-unit access counts and
/// stage attributions inferred from the mapping and routing.
#[derive(Debug)]
struct AnalogInputs {
    accesses: BTreeMap<String, f64>,
    attribution: BTreeMap<String, String>,
    /// The kernel's key over the digest of every unit `compute` books:
    /// its parameters, access count, and attribution.
    key: KeyPrefix,
}

impl AnalogInputs {
    fn new(model: &ValidatedModel) -> Self {
        let hw = model.hardware();
        let algo = model.algorithm();
        let mapping = model.mapping();
        let mut accesses: BTreeMap<String, f64> = BTreeMap::new();
        let mut attribution: BTreeMap<String, String> = BTreeMap::new();

        // Mapped stages: the exit stage of each fused group drives the
        // unit's access count.
        for unit in hw.analog_units() {
            for stage_name in mapping.stages_on(unit.name()) {
                let Some(stage) = algo.stage(stage_name) else {
                    continue;
                };
                let consumers = algo.consumers_of(stage_name);
                let is_exit = consumers.is_empty()
                    || consumers
                        .iter()
                        .any(|c| mapping.unit_for(c) != Some(unit.name()));
                if is_exit {
                    *accesses.entry(unit.name().to_owned()).or_default() +=
                        stage.output_size().count() as f64 * unit.ops_per_stage_output();
                    attribution.insert(unit.name().to_owned(), stage_name.to_owned());
                }
            }
        }

        // Pass-through units on routes: ADC arrays convert every pixel;
        // analog buffers additionally serve the consumer's reads.
        for route in model.routes() {
            let inter = route.intermediates();
            for (i, hop) in inter.iter().enumerate() {
                if hw.analog(hop).is_none() {
                    continue;
                }
                *accesses.entry(hop.clone()).or_default() += route.pixels as f64;
                let is_last = i + 1 == inter.len();
                if is_last {
                    if let Some(to_stage) = &route.to_stage {
                        let consumer_unit = mapping.unit_for(to_stage);
                        let consumer_is_analog =
                            consumer_unit.is_some_and(|u| hw.analog(u).is_some());
                        if consumer_is_analog {
                            let cons = algo.stage(to_stage).expect("stage exists");
                            *accesses.entry(hop.clone()).or_default() +=
                                cons.reads_per_output() * cons.output_size().count() as f64;
                        }
                    }
                }
                attribution
                    .entry(hop.clone())
                    .or_insert_with(|| route.from_stage.clone());
            }
        }

        // Only units with a non-zero access count contribute items; the
        // rest are invisible to `compute` and stay out of the digest.
        let mut h = FpHasher::new();
        for (unit, n) in booked_analog_units(hw, &accesses) {
            unit.feed(&mut h);
            h.write_f64(n);
            attribution.get(unit.name()).feed(&mut h);
        }
        Self {
            accesses,
            attribution,
            key: KeyPrefix::new(KernelKind::Analog, h.finish()),
        }
    }
}

/// The analog units the kernel books, with their access counts, in
/// hardware order: every unit with an access count that is not `<= 0`.
fn booked_analog_units<'a>(
    hw: &'a HardwareDesc,
    accesses: &'a BTreeMap<String, f64>,
) -> impl Iterator<Item = (&'a crate::hw::AnalogUnitDesc, f64)> + 'a {
    hw.analog_units().iter().filter_map(|unit| {
        let n = *accesses.get(unit.name())?;
        if n <= 0.0 {
            return None;
        }
        Some((unit, n))
    })
}

/// Analog energy (Sec. 4.2, Eq. 2–3): access counts inferred from the
/// mapping and routing, per-access energy from the component models
/// under the inferred delay budget.
fn analog(hw: &HardwareDesc, inputs: &AnalogInputs, analog_unit_time: Time) -> Vec<EnergyItem> {
    booked_analog_units(hw, &inputs.accesses)
        .map(|(unit, n)| {
            // Eq. 3: accesses spread uniformly over the AFA's
            // components; each component gets T_A / (n / count)
            // per access.
            let per_component = n / unit.array().component_count() as f64;
            let per_access_delay = analog_unit_time / per_component.max(1.0);
            let energy = unit.array().component().energy_per_access(per_access_delay) * n;
            EnergyItem {
                unit: unit.name().to_owned(),
                stage: inputs.attribution.get(unit.name()).cloned(),
                category: match unit.category() {
                    crate::hw::AnalogCategory::Sensing => EnergyCategory::Sensing,
                    crate::hw::AnalogCategory::Compute => EnergyCategory::AnalogCompute,
                    crate::hw::AnalogCategory::Memory => EnergyCategory::AnalogMemory,
                },
                layer: unit.layer(),
                energy,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Digital compute
// ---------------------------------------------------------------------

/// The work a digital unit performed for one stage, as resolved from
/// the simulation (or its static fallback).
#[derive(Debug)]
enum Work {
    Cycles(u64),
    Macs(u64),
}

impl Fingerprintable for Work {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            Work::Cycles(c) => {
                h.write_tag(0);
                h.write_u64(*c);
            }
            Work::Macs(m) => {
                h.write_tag(1);
                h.write_u64(*m);
            }
        }
    }
}

#[derive(Debug)]
struct ComputeRow {
    stage: String,
    unit: String,
    work: Work,
}

/// The digital-compute kernel's inputs (all FPS-invariant): each
/// planned stage's unit and work.
#[derive(Debug)]
struct ComputeInputs {
    rows: Vec<ComputeRow>,
    /// The kernel's key, fixed per model: its digest covers the rows,
    /// each with its unit's parameters, and there is no per-point
    /// input.
    key: Fingerprint,
}

impl ComputeInputs {
    /// Resolves each planned stage's work from the simulation report.
    fn new(model: &ValidatedModel, plans: &[StagePlan<'_>], sim: Option<&SimReport>) -> Self {
        let hw = model.hardware();
        let mapping = model.mapping();
        let rows: Vec<ComputeRow> = plans
            .iter()
            .map(|plan| {
                let unit_name = mapping
                    .unit_for(plan.stage.name())
                    .expect("planned stages are mapped");
                let unit = hw.digital(unit_name).expect("planned units are digital");
                let work = match unit.kind() {
                    DigitalUnitKind::Pipelined(_) => {
                        let cycles = sim
                            .and_then(|r| r.stage(plan.stage.name()))
                            .map_or(plan.firings, |s| s.active_cycles);
                        Work::Cycles(cycles)
                    }
                    DigitalUnitKind::Systolic(_) => {
                        let macs = match plan.stage.kind() {
                            StageKind::Dnn { macs, .. } => macs,
                            _ => plan.stage.ops_per_frame(),
                        };
                        Work::Macs(macs)
                    }
                };
                ComputeRow {
                    stage: plan.stage.name().to_owned(),
                    unit: unit_name.to_owned(),
                    work,
                }
            })
            .collect();
        let mut h = FpHasher::new();
        h.write_usize(rows.len());
        for row in &rows {
            h.write_str(&row.stage);
            hw.digital(&row.unit)
                .expect("row units are digital")
                .feed(&mut h);
            row.work.feed(&mut h);
        }
        Self {
            rows,
            key: kernel_key(KernelKind::DigitalCompute, h.finish(), None),
        }
    }
}

/// Digital compute energy (Eq. 15): per-cycle energy × simulated cycles
/// for pipelined units, per-MAC energy × MACs for systolic arrays.
fn digital_compute(hw: &HardwareDesc, inputs: &ComputeInputs) -> Vec<EnergyItem> {
    inputs
        .rows
        .iter()
        .map(|row| {
            let unit = hw.digital(&row.unit).expect("row units are digital");
            let energy = match (unit.kind(), &row.work) {
                (DigitalUnitKind::Pipelined(cu), Work::Cycles(cycles)) => {
                    cu.energy_per_cycle() * *cycles as f64
                }
                (DigitalUnitKind::Systolic(sa), Work::Macs(macs)) => sa.energy_for_macs(*macs),
                _ => unreachable!("work kind follows unit kind by construction"),
            };
            EnergyItem {
                unit: row.unit.clone(),
                stage: Some(row.stage.clone()),
                category: EnergyCategory::DigitalCompute,
                layer: unit.layer(),
                energy,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Digital memory
// ---------------------------------------------------------------------

/// The digital-memory kernel's FPS-invariant inputs: simulated traffic
/// plus DNN weight loads per memory, and each memory's consuming stage.
#[derive(Debug)]
struct MemoryInputs {
    /// Per-memory `(pixels_read, pixels_written)`.
    traffic: BTreeMap<String, (f64, f64)>,
    /// Per-memory consuming stage, from the first route through it.
    attribution: BTreeMap<String, Option<String>>,
    /// The kernel's key over the digest of every memory's parameters,
    /// traffic, and attribution.
    key: KeyPrefix,
}

impl MemoryInputs {
    /// Aggregates simulated traffic and DNN weight loads per memory.
    fn new(model: &ValidatedModel, plans: &[StagePlan<'_>], sim: Option<&SimReport>) -> Self {
        let hw = model.hardware();
        let algo = model.algorithm();
        let mut traffic: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        if let Some(report) = sim {
            for buf in &report.buffers {
                let slot = traffic.entry(buf.name.clone()).or_default();
                slot.0 += buf.pixels_read;
                slot.1 += buf.pixels_written;
            }
        }
        // DNN weights are loaded into the stage's input buffer once per
        // frame (weight-stationary reuse across the frame's tiles).
        for plan in plans {
            if let StageKind::Dnn { weights, .. } = plan.stage.kind() {
                for producer in algo.producers_of(plan.stage.name()) {
                    let buffer = model.buffer_between(producer, plan.stage.name());
                    if hw.memory(buffer.name()).is_some() {
                        traffic.entry(buffer.name().to_owned()).or_default().1 += weights as f64;
                    }
                }
            }
        }
        let attribution: BTreeMap<String, Option<String>> = hw
            .memories()
            .iter()
            .map(|mem| {
                let stage = model
                    .routes()
                    .iter()
                    .find(|r| r.intermediates().iter().any(|h| h == mem.name()))
                    .and_then(|r| r.to_stage.clone());
                (mem.name().to_owned(), stage)
            })
            .collect();
        let mut h = FpHasher::new();
        for mem in hw.memories() {
            let (reads, writes) = traffic.get(mem.name()).copied().unwrap_or((0.0, 0.0));
            mem.feed(&mut h);
            h.write_f64(reads);
            h.write_f64(writes);
            attribution.get(mem.name()).feed(&mut h);
        }
        Self {
            traffic,
            attribution,
            key: KeyPrefix::new(KernelKind::DigitalMemory, h.finish()),
        }
    }
}

/// Digital memory energy (Eq. 16): dynamic traffic from the simulation
/// plus DNN weight loading, and leakage over the powered fraction of
/// the frame.
fn digital_memory(hw: &HardwareDesc, inputs: &MemoryInputs, frame_time: Time) -> Vec<EnergyItem> {
    let mut items = Vec::new();
    for mem in hw.memories() {
        let (reads, writes) = inputs
            .traffic
            .get(mem.name())
            .copied()
            .unwrap_or((0.0, 0.0));
        let s = mem.structure();
        let dynamic = s.dynamic_energy(reads, writes);
        let leakage = s.leakage() * frame_time * s.active_fraction();
        let energy = dynamic + leakage;
        if energy.joules() == 0.0 {
            continue;
        }
        items.push(EnergyItem {
            unit: mem.name().to_owned(),
            stage: inputs.attribution.get(mem.name()).cloned().flatten(),
            category: EnergyCategory::DigitalMemory,
            layer: mem.layer(),
            energy,
        });
    }
    items
}

// ---------------------------------------------------------------------
// Interface
// ---------------------------------------------------------------------

/// The interface kernel's inputs (all FPS-invariant): each route's
/// layer-crossing hop list.
#[derive(Debug)]
struct InterfaceInputs {
    /// Per-route `(unit, layer)` hop lists, host exits appended.
    hops: Vec<Vec<(String, Layer)>>,
    /// The kernel's key, fixed per model: its digest covers every
    /// route's source stage, byte count, and hops, and there is no
    /// per-point input.
    key: Fingerprint,
}

impl InterfaceInputs {
    /// Resolves each route's layer-crossing hop list.
    fn new(model: &ValidatedModel) -> Self {
        let hw = model.hardware();
        let routes = model.routes();
        let hops: Vec<Vec<(String, Layer)>> = routes
            .iter()
            .map(|route| {
                let mut hops: Vec<(String, Layer)> = route
                    .path
                    .iter()
                    .map(|h| (h.clone(), hw.layer_of(h).expect("path units exist")))
                    .collect();
                if route.is_host_exit() {
                    hops.push(("<host>".to_owned(), Layer::OffChip));
                }
                hops
            })
            .collect();
        let mut h = FpHasher::new();
        h.write_usize(routes.len());
        for (route, hops) in routes.iter().zip(&hops) {
            h.write_str(&route.from_stage);
            h.write_u64(route.bytes);
            h.write_usize(hops.len());
            for (unit, layer) in hops {
                h.write_str(unit);
                layer.feed(&mut h);
            }
        }
        Self {
            hops,
            key: kernel_key(KernelKind::Interface, h.finish(), None),
        }
    }
}

/// Communication energy (Eq. 17): bytes crossing layer boundaries pay
/// the boundary's interface energy; results exiting the package pay
/// MIPI.
fn interface(routes: &[Route], inputs: &InterfaceInputs) -> Vec<EnergyItem> {
    use camj_tech::interface::Interface;
    let mut items = Vec::new();
    for (route, hops) in routes.iter().zip(&inputs.hops) {
        for pair in hops.windows(2) {
            let (from, from_layer) = &pair[0];
            let (_, to_layer) = &pair[1];
            let Some(iface) = from_layer.interface_to(*to_layer) else {
                continue;
            };
            let category = match iface {
                Interface::MicroTsv => EnergyCategory::MicroTsv,
                // Custom interfaces are booked as package-exit links.
                Interface::MipiCsi2 | Interface::Custom { .. } => EnergyCategory::Mipi,
            };
            items.push(EnergyItem {
                unit: format!("{}:{}", category.label(), from),
                stage: Some(route.from_stage.clone()),
                category,
                layer: *from_layer,
                energy: iface.transfer_energy(route.bytes),
            });
        }
    }
    items
}

#[cfg(test)]
pub(super) mod tests {
    use std::collections::HashMap;

    use camj_digital::memory::MemoryKind;
    use camj_tech::node::ProcessNode;
    use camj_workloads::configs::SensorVariant;
    use camj_workloads::{edgaze, quickstart, rhythmic};

    use super::*;

    /// The single-pass kernel key the two-level scheme replaced: the
    /// kind tag, then every input `kind`'s kernel reads in one stream,
    /// the per-point input first. Kept as the oracle the two-level keys
    /// must agree with.
    fn single_pass_key(
        kind: KernelKind,
        plan: &KernelPlan,
        model: &ValidatedModel,
        delay: &DelayEstimate,
    ) -> Fingerprint {
        let hw = model.hardware();
        let mut h = FpHasher::new();
        h.write_tag(kind.tag());
        match kind {
            KernelKind::Analog => {
                delay.analog_unit_time.feed(&mut h);
                for unit in hw.analog_units() {
                    let Some(&n) = plan.analog.accesses.get(unit.name()) else {
                        continue;
                    };
                    if n <= 0.0 {
                        continue;
                    }
                    unit.feed(&mut h);
                    h.write_f64(n);
                    plan.analog.attribution.get(unit.name()).feed(&mut h);
                }
            }
            KernelKind::DigitalCompute => {
                h.write_usize(plan.digital_compute.rows.len());
                for row in &plan.digital_compute.rows {
                    h.write_str(&row.stage);
                    let unit = hw.digital(&row.unit).expect("row units are digital");
                    unit.feed(&mut h);
                    row.work.feed(&mut h);
                }
            }
            KernelKind::DigitalMemory => {
                delay.frame_time.feed(&mut h);
                for mem in hw.memories() {
                    let (reads, writes) = plan
                        .digital_memory
                        .traffic
                        .get(mem.name())
                        .copied()
                        .unwrap_or((0.0, 0.0));
                    mem.feed(&mut h);
                    h.write_f64(reads);
                    h.write_f64(writes);
                    plan.digital_memory.attribution.get(mem.name()).feed(&mut h);
                }
            }
            KernelKind::Interface => {
                let routes = model.routes();
                h.write_usize(routes.len());
                for (route, hops) in routes.iter().zip(&plan.interface.hops) {
                    h.write_str(&route.from_stage);
                    h.write_u64(route.bytes);
                    h.write_usize(hops.len());
                    for (unit, layer) in hops {
                        h.write_str(unit);
                        layer.feed(&mut h);
                    }
                }
            }
        }
        h.finish()
    }

    /// camj-workloads links its own copy of this crate, so its models
    /// cross into this crate's types through the descriptions' serde
    /// encoding (floats round-trip exactly). A macro, because the
    /// other copy's `CamJ` has no nameable path here; the pipeline's
    /// tests use it too.
    macro_rules! cross {
        ($model:expr) => {{
            use $crate::energy::kernel::tests::recode;
            let model = $model;
            $crate::energy::ValidatedModel::new(
                recode(model.algorithm()),
                recode(model.hardware()),
                recode(model.mapping()),
                model.fps(),
            )
            .expect("workload models validate")
        }};
    }
    pub(crate) use cross;

    /// Re-encodes a value through JSON into another type.
    pub(crate) fn recode<T: serde::Serialize, U: for<'de> serde::Deserialize<'de>>(value: &T) -> U {
        serde_json::from_str(&serde_json::to_string(value).expect("serialises")).expect("decodes")
    }

    /// The workload grids the oracle runs over, each model with its
    /// frame rates: the Ed-Gaze 2D-In 4-axis 256-point grid (both
    /// frame-buffer kinds), the quickstart chip, and every Rhythmic
    /// variant at two CIS nodes.
    fn grids() -> Vec<(ValidatedModel, Vec<f64>)> {
        let nodes = [
            ProcessNode::N130,
            ProcessNode::N110,
            ProcessNode::N90,
            ProcessNode::N65,
        ];
        let mut grids = Vec::new();
        let edgaze_fps: Vec<f64> = (0..8).map(|i| 10.0 + 2.0 * f64::from(i)).collect();
        for memory in [MemoryKind::DoubleBuffer, MemoryKind::LineBuffer] {
            for node in nodes {
                for bits in 8..12 {
                    let config = edgaze::EdGazeConfig::new(SensorVariant::TwoDIn, node)
                        .with_adc_bits(bits)
                        .with_frame_buffer_kind(memory);
                    let model = edgaze::model_with(config).expect("Ed-Gaze builds");
                    grids.push((cross!(model), edgaze_fps.clone()));
                }
            }
        }
        let quickstart = quickstart::model(30.0).expect("quickstart builds");
        grids.push((cross!(quickstart), vec![10.0, 15.0, 20.0, 30.0, 60.0]));
        for variant in SensorVariant::ALL {
            for node in [ProcessNode::N130, ProcessNode::N65] {
                if let Ok(model) = rhythmic::model(variant, node) {
                    grids.push((cross!(model), vec![15.0, 30.0, 60.0]));
                }
            }
        }
        grids
    }

    /// A key finished from a stored prefix is the key hashed in one go
    /// — the persisted keys of a disk tier do not move.
    #[test]
    fn key_prefix_matches_the_one_shot_key() {
        for kind in KernelKind::ALL {
            for (invariant, point) in [
                (("a", 1u32).fingerprint(), Some(Time::from_secs(1e-3))),
                (("b", 2u32).fingerprint(), Some(Time::from_secs(0.25))),
                (("c", 3u32).fingerprint(), None),
            ] {
                let mut h = FpHasher::new();
                h.write_tag(kind.tag());
                h.write_str(KERNEL_KEY_DOMAIN);
                let (hi, lo) = invariant.parts();
                h.write_u64(hi);
                h.write_u64(lo);
                point.feed(&mut h);
                assert_eq!(KeyPrefix::new(kind, invariant).finish(point), h.finish());
            }
        }
    }

    /// Two-level keys partition kernel invocations exactly like the
    /// single-pass oracle keys: across every model and frame rate of
    /// the grids, two invocations share a two-level key if and only if
    /// they share an oracle key, and invocations sharing a key book
    /// identical items.
    #[test]
    fn two_level_keys_match_the_single_pass_oracle() {
        let mut oracle_of: HashMap<Fingerprint, Fingerprint> = HashMap::new();
        let mut key_of: HashMap<Fingerprint, Fingerprint> = HashMap::new();
        let mut items_of: HashMap<Fingerprint, String> = HashMap::new();
        let mut invocations = 0;
        for (model, fps) in grids() {
            let (_, plan) = model.kernel_plan().expect("workload models simulate");
            for fps in fps {
                let Ok(delay) = model.estimate_delay_at(fps) else {
                    continue;
                };
                for kind in KernelKind::ALL {
                    invocations += 1;
                    let key = plan.key(kind, &delay);
                    let oracle = single_pass_key(kind, plan, &model, &delay);
                    assert_eq!(*oracle_of.entry(key).or_insert(oracle), oracle);
                    assert_eq!(*key_of.entry(oracle).or_insert(key), key);
                    let items = serde_json::to_string(&plan.compute(kind, &model, &delay))
                        .expect("items serialise");
                    assert_eq!(*items_of.entry(key).or_insert_with(|| items.clone()), items);
                }
            }
        }
        // The grids must both share and separate keys for the check
        // to bite: replays across points, and distinct inputs per kind.
        assert!(invocations > 1000, "{invocations} kernel invocations");
        assert!(
            key_of.len() * 4 < invocations && key_of.len() > 100,
            "{} distinct keys over {invocations} invocations",
            key_of.len()
        );
    }
}
