//! Loading: JSON text → [`DesignDesc`] → validated CamJ model.
//!
//! Loading is two-phase. **Parsing** (`serde_json`) reports syntax
//! errors with line/column and shape errors with the JSON path of the
//! offending value. **Semantic validation** ([`DesignDesc::validate`])
//! then checks every constraint the core constructors would otherwise
//! enforce by panicking — positive clocks, non-empty arrays, unique
//! names, known references — and reports *all* violations at once, each
//! as a path-qualified [`Diagnostic`] like
//! `hw.analog[2].pixel_pitch_um: must be positive and finite (got -3)`.
//! Only a clean description is handed to the framework's own checks
//! (`ValidatedModel::new`).

use camj_analog::array::AnalogArray;
use camj_analog::cell::{AnalogCell, BiasMode, CapacitorNode};
use camj_analog::component::AnalogComponentSpec;
use camj_analog::domain::SignalDomain;
use camj_analog::noise::{NoiseSource, MAX_RESOLUTION_BITS};
use camj_core::energy::ValidatedModel;
use camj_core::hw::{
    AnalogCategory, AnalogUnitDesc, DigitalUnitDesc, HardwareDesc, Layer, MemoryDesc,
};
use camj_core::mapping::Mapping;
use camj_core::sw::{AlgorithmGraph, Stage};
use camj_digital::compute::{ComputeUnit, SystolicArray};
use camj_digital::memory::{MemoryEnergy, MemoryKind, MemoryStructure};
use camj_tech::adc_fom::AdcSurvey;
use camj_tech::node::ProcessNode;
use camj_tech::units::{Energy, Power};

use crate::error::{DescError, Diagnostic};
use crate::ir::{
    AnalogCategoryIr, BiasIr, CellKindIr, DesignDesc, DigitalKindIr, DomainIr, LayerIr,
    MemoryKindIr, NoiseSourceIr, StageIr, StageKindIr, StimulusIr, FORMAT_VERSION,
};

impl DesignDesc {
    /// Parses a description from JSON text and checks its format
    /// version.
    ///
    /// # Examples
    ///
    /// Load, validate, build, and estimate a bundled description:
    ///
    /// ```rust
    /// use camj_desc::DesignDesc;
    ///
    /// let json = include_str!("../examples-data/minimal.json");
    /// let desc = DesignDesc::from_json(json)?;
    /// let model = desc.build()?; // validates, then constructs the model
    /// let report = model.estimate()?;
    /// assert!(report.total().picojoules() > 0.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// A shape error names the JSON path of the offending value:
    ///
    /// ```rust
    /// use camj_desc::DesignDesc;
    ///
    /// let err = DesignDesc::from_json(r#"{ "version": 1, "name": 3 }"#).unwrap_err();
    /// assert!(err.to_string().contains("name"), "{err}");
    /// ```
    ///
    /// # Errors
    ///
    /// [`DescError::Parse`] for malformed JSON or schema mismatches
    /// (path-qualified), [`DescError::Invalid`] for an unsupported
    /// `version`.
    pub fn from_json(text: &str) -> Result<Self, DescError> {
        let desc: DesignDesc = serde_json::from_str(text)?;
        if desc.version != FORMAT_VERSION {
            return Err(DescError::Invalid(vec![Diagnostic::new(
                "version",
                format!(
                    "unsupported description format version (this build reads {FORMAT_VERSION})"
                ),
                desc.version,
            )]));
        }
        Ok(desc)
    }

    /// Serializes the description as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`DescError::Parse`] only when the description contains a
    /// non-finite number (which JSON cannot represent).
    pub fn to_json_pretty(&self) -> Result<String, DescError> {
        let mut text = serde_json::to_string_pretty(self)?;
        text.push('\n');
        Ok(text)
    }

    /// Runs all semantic checks, reporting every violation with its
    /// JSON path and the offending value.
    ///
    /// # Errors
    ///
    /// [`DescError::Invalid`] listing all diagnostics.
    pub fn validate(&self) -> Result<(), DescError> {
        let mut c = Check::default();
        c.positive("fps", self.fps);
        if self.name.is_empty() {
            c.push("name", "must not be empty", "\"\"");
        }
        self.validate_hw(&mut c);
        self.validate_sw(&mut c);
        self.validate_mapping(&mut c);
        if let Some(sweep) = &self.sweep {
            if sweep.fps.is_empty() {
                c.push("sweep.fps", "must list at least one frame rate", "[]");
            }
            for (i, fps) in sweep.fps.iter().enumerate() {
                c.positive(format!("sweep.fps[{i}]"), *fps);
            }
            if let Some(objectives) = &sweep.objectives {
                if objectives.is_empty() {
                    c.push(
                        "sweep.objectives",
                        "must list at least one objective when present",
                        "[]",
                    );
                }
                for (i, objective) in objectives.iter().enumerate() {
                    self.validate_objective(&mut c, i, objective);
                }
            }
            if let Some(constraints) = &sweep.constraints {
                let budgets = [
                    (
                        "max_power_density_mw_per_mm2",
                        constraints.max_power_density_mw_per_mm2,
                    ),
                    ("max_digital_latency_ms", constraints.max_digital_latency_ms),
                    ("max_total_energy_pj", constraints.max_total_energy_pj),
                ];
                for (field, budget) in budgets {
                    if let Some(v) = budget {
                        c.positive(format!("sweep.constraints.{field}"), v);
                    }
                }
            }
            if let Some(search) = &sweep.search {
                let knobs = [
                    ("population", search.population),
                    ("generations", search.generations),
                    ("budget", search.budget),
                ];
                for (field, knob) in knobs {
                    if knob == Some(0) {
                        c.push(
                            format!("sweep.search.{field}"),
                            "must be at least 1 when present",
                            "0",
                        );
                    }
                }
            }
        }
        if let Some(stimulus) = &self.stimulus {
            self.validate_stimulus(&mut c, stimulus);
        }
        if c.diags.is_empty() {
            Ok(())
        } else {
            Err(DescError::Invalid(c.diags))
        }
    }

    /// Checks the `stimulus` block: levels stay inside full scale and
    /// an image stimulus names a file.
    fn validate_stimulus(&self, c: &mut Check, stimulus: &StimulusIr) {
        match stimulus {
            StimulusIr::Uniform { level } => {
                if !(level.is_finite() && (0.0..=1.0).contains(level)) {
                    c.push("stimulus.uniform.level", "must be in [0, 1]", level);
                }
            }
            StimulusIr::Gradient { low, high } => {
                for (field, v) in [("low", low), ("high", high)] {
                    if !(v.is_finite() && (0.0..=1.0).contains(v)) {
                        c.push(format!("stimulus.gradient.{field}"), "must be in [0, 1]", v);
                    }
                }
                if low.is_finite() && high.is_finite() && low > high {
                    c.push(
                        "stimulus.gradient.low",
                        "gradient must not descend (low must be at most high)",
                        format!("{low} > {high}"),
                    );
                }
            }
            StimulusIr::Image { path } => {
                if path.is_empty() {
                    c.push(
                        "stimulus.image.path",
                        "must name a netpbm (PGM/PPM) file",
                        "\"\"",
                    );
                }
            }
        }
    }

    /// Validates and builds the CamJ model (the framework's own checks
    /// and route resolution run inside [`ValidatedModel::new`]).
    ///
    /// # Errors
    ///
    /// [`DescError::Invalid`] for semantic problems, or
    /// [`DescError::Model`] when a framework check rejects the design.
    pub fn build(&self) -> Result<ValidatedModel, DescError> {
        self.validate()?;

        let mut algo = AlgorithmGraph::new();
        for stage in &self.sw.stages {
            algo.add_stage(build_stage(stage));
        }
        for edge in &self.sw.edges {
            algo.connect(&edge.from, &edge.to)
                .expect("edge endpoints were validated");
        }

        let mut hw = HardwareDesc::new(self.hw.digital_clock_hz);
        for a in &self.hw.analog {
            let component = build_component(&a.component);
            let mut unit = AnalogUnitDesc::new(
                a.name.clone(),
                AnalogArray::new(component, a.rows, a.cols),
                layer(a.layer),
                match a.category {
                    AnalogCategoryIr::Sensing => AnalogCategory::Sensing,
                    AnalogCategoryIr::Compute => AnalogCategory::Compute,
                    AnalogCategoryIr::Memory => AnalogCategory::Memory,
                },
            )
            .with_ops_per_output(a.ops_per_output);
            if let Some(pitch) = a.pixel_pitch_um {
                unit = unit.with_pixel_pitch_um(pitch);
            }
            hw.add_analog(unit);
        }
        for d in &self.hw.digital {
            let desc = match &d.unit {
                DigitalKindIr::Pipelined {
                    input_per_cycle,
                    output_per_cycle,
                    pipeline_stages,
                    energy_per_cycle_j,
                } => DigitalUnitDesc::pipelined(
                    ComputeUnit::new(
                        d.name.clone(),
                        *input_per_cycle,
                        *output_per_cycle,
                        *pipeline_stages,
                    )
                    .with_energy_per_cycle(Energy::from_joules(*energy_per_cycle_j)),
                    layer(d.layer),
                ),
                DigitalKindIr::Systolic {
                    rows,
                    cols,
                    node_nm,
                    mac_energy_j,
                    utilization,
                } => DigitalUnitDesc::systolic(
                    SystolicArray::new(
                        d.name.clone(),
                        *rows,
                        *cols,
                        ProcessNode::from_nanometers(*node_nm),
                    )
                    .with_mac_energy(Energy::from_joules(*mac_energy_j))
                    .with_utilization(*utilization),
                    layer(d.layer),
                ),
            };
            hw.add_digital(desc);
        }
        for m in &self.hw.memories {
            let kind = match m.kind {
                MemoryKindIr::Fifo => MemoryKind::Fifo,
                MemoryKindIr::LineBuffer => MemoryKind::LineBuffer,
                MemoryKindIr::DoubleBuffer => MemoryKind::DoubleBuffer,
            };
            let structure = MemoryStructure::from_kind(m.name.clone(), kind, m.capacity_pixels)
                .with_energy(MemoryEnergy {
                    read_per_word: Energy::from_joules(m.energy.read_j_per_word),
                    write_per_word: Energy::from_joules(m.energy.write_j_per_word),
                    leakage: Power::from_watts(m.energy.leakage_w),
                })
                .with_pixels_per_word(m.pixels_per_word)
                .with_ports(m.read_ports, m.write_ports)
                .with_active_fraction(m.active_fraction);
            hw.add_memory(MemoryDesc::new(structure, layer(m.layer), m.area_mm2));
        }
        for conn in &self.hw.connections {
            hw.connect(&conn.from, &conn.to);
        }

        let mut mapping = Mapping::new();
        for b in &self.mapping {
            mapping = mapping.map(b.stage.clone(), b.unit.clone());
        }

        ValidatedModel::new(algo, hw, mapping, self.fps).map_err(DescError::from)
    }

    /// Checks one `sweep.objectives` entry against the shared objective
    /// grammar (`camj-explore`'s `Objective` parser reads the same
    /// strings): `total_energy`, `delay`, `power_density`, `snr`,
    /// `category:<LABEL>`, `stage:<name>` with a stage the algorithm
    /// actually declares, `noise:<unit>` with an analog hardware
    /// unit the design actually places, `mc_snr:<samples>` with a
    /// Monte-Carlo sample count in `1..=1024`, or `accuracy:<metric>`
    /// (`mse`, `rmse`, `centroid`) with an algorithm that has at least
    /// one non-input stage to judge.
    fn validate_objective(&self, c: &mut Check, index: usize, objective: &str) {
        let path = format!("sweep.objectives[{index}]");
        match objective {
            "total_energy" | "delay" | "power_density" | "snr" => {}
            other => {
                if let Some(label) = other.strip_prefix("category:") {
                    if !camj_core::EnergyCategory::ALL
                        .iter()
                        .any(|cat| cat.label().eq_ignore_ascii_case(label))
                    {
                        c.push(path, "unknown energy category label", quoted(label));
                    }
                } else if let Some(stage) = other.strip_prefix("stage:") {
                    if !self.sw.stages.iter().any(|s| s.name == stage) {
                        c.push(path, "references an unknown stage", quoted(stage));
                    }
                } else if let Some(unit) = other.strip_prefix("noise:") {
                    if !self.hw.analog.iter().any(|a| a.name == unit) {
                        c.push(path, "references an unknown analog unit", quoted(unit));
                    }
                } else if let Some(samples) = other.strip_prefix("mc_snr:") {
                    if !samples
                        .parse::<u32>()
                        .is_ok_and(|n| (1..=1024).contains(&n))
                    {
                        c.push(
                            path,
                            "mc_snr needs a sample count in 1..=1024",
                            quoted(samples),
                        );
                    }
                } else if let Some(metric) = other.strip_prefix("accuracy:") {
                    if !matches!(metric, "mse" | "rmse" | "centroid") {
                        c.push(
                            path,
                            "accuracy needs one of mse, rmse, centroid",
                            quoted(metric),
                        );
                    } else if !self
                        .sw
                        .stages
                        .iter()
                        .any(|s| !matches!(s.kind, StageKindIr::Input))
                    {
                        c.push(
                            path,
                            "accuracy objectives need at least one non-input \
                             algorithm stage to judge",
                            quoted(other),
                        );
                    }
                } else {
                    c.push(
                        path,
                        "unknown objective (expected total_energy, delay, power_density, \
                         snr, category:<LABEL>, stage:<name>, noise:<unit>, \
                         mc_snr:<samples>, or accuracy:<metric>)",
                        quoted(other),
                    );
                }
            }
        }
    }

    fn validate_hw(&self, c: &mut Check) {
        c.positive("hw.digital_clock_hz", self.hw.digital_clock_hz);

        // Unit-name uniqueness across all three kinds.
        let mut names: Vec<(&str, String)> = Vec::new();
        for (i, a) in self.hw.analog.iter().enumerate() {
            names.push((&a.name, format!("hw.analog[{i}].name")));
        }
        for (i, d) in self.hw.digital.iter().enumerate() {
            names.push((&d.name, format!("hw.digital[{i}].name")));
        }
        for (i, m) in self.hw.memories.iter().enumerate() {
            names.push((&m.name, format!("hw.memories[{i}].name")));
        }
        for (idx, (name, path)) in names.iter().enumerate() {
            if name.is_empty() {
                c.push(path.clone(), "unit name must not be empty", "\"\"");
            } else if names[..idx].iter().any(|(n, _)| n == name) {
                c.push(path.clone(), "duplicate hardware unit name", quoted(name));
            }
        }

        for (i, a) in self.hw.analog.iter().enumerate() {
            let p = format!("hw.analog[{i}]");
            c.at_least_1(format!("{p}.rows"), a.rows);
            c.at_least_1(format!("{p}.cols"), a.cols);
            c.positive(format!("{p}.ops_per_output"), a.ops_per_output);
            if let Some(pitch) = a.pixel_pitch_um {
                c.positive(format!("{p}.pixel_pitch_um"), pitch);
            }
            let comp = &a.component;
            let cp = format!("{p}.component");
            c.positive(format!("{cp}.vdda_v"), comp.vdda_v);
            if let Some(noise) = &comp.noise {
                if noise.is_empty() {
                    c.push(
                        format!("{cp}.noise"),
                        "must list at least one source when present",
                        "[]",
                    );
                }
                for (j, source) in noise.iter().enumerate() {
                    let np = format!("{cp}.noise[{j}]");
                    match source {
                        NoiseSourceIr::PhotonShot {
                            full_well_electrons,
                        } => {
                            c.positive(
                                format!("{np}.photon_shot.full_well_electrons"),
                                *full_well_electrons,
                            );
                        }
                        NoiseSourceIr::DarkCurrent {
                            electrons_per_sec,
                            full_well_electrons,
                        } => {
                            c.non_negative(
                                format!("{np}.dark_current.electrons_per_sec"),
                                *electrons_per_sec,
                            );
                            c.positive(
                                format!("{np}.dark_current.full_well_electrons"),
                                *full_well_electrons,
                            );
                        }
                        NoiseSourceIr::Read { rms_fraction } => {
                            c.non_negative(format!("{np}.read.rms_fraction"), *rms_fraction);
                        }
                        NoiseSourceIr::KtcSampling {
                            capacitance_f,
                            v_swing_v,
                        } => {
                            c.positive(format!("{np}.ktc_sampling.capacitance_f"), *capacitance_f);
                            c.positive(format!("{np}.ktc_sampling.v_swing_v"), *v_swing_v);
                        }
                    }
                }
            }
            if comp.cells.is_empty() {
                c.push(
                    format!("{cp}.cells"),
                    "a component needs at least one cell",
                    "[]",
                );
            }
            for (j, cell) in comp.cells.iter().enumerate() {
                let kp = format!("{cp}.cells[{j}]");
                c.at_least_1(format!("{kp}.spatial"), cell.spatial);
                c.at_least_1(format!("{kp}.temporal"), cell.temporal);
                match &cell.cell {
                    CellKindIr::Dynamic { nodes } => {
                        if nodes.is_empty() {
                            c.push(
                                format!("{kp}.cell.dynamic.nodes"),
                                "a dynamic cell needs at least one capacitance node",
                                "[]",
                            );
                        }
                        for (k, node) in nodes.iter().enumerate() {
                            let np = format!("{kp}.cell.dynamic.nodes[{k}]");
                            c.non_negative(format!("{np}.capacitance_f"), node.capacitance_f);
                            c.non_negative(format!("{np}.voltage_swing_v"), node.voltage_swing_v);
                        }
                    }
                    CellKindIr::StaticBiased {
                        load_capacitance_f,
                        voltage_swing_v,
                        bias,
                    } => {
                        let bp = format!("{kp}.cell.static_biased");
                        c.finite(format!("{bp}.load_capacitance_f"), *load_capacitance_f);
                        c.finite(format!("{bp}.voltage_swing_v"), *voltage_swing_v);
                        if let BiasIr::GmId { gain, gm_over_id } = bias {
                            c.positive(format!("{bp}.bias.gm_id.gain"), *gain);
                            c.positive(format!("{bp}.bias.gm_id.gm_over_id"), *gm_over_id);
                        }
                    }
                    CellKindIr::NonLinear {
                        bits,
                        fom_j_per_step,
                    } => {
                        let bp = format!("{kp}.cell.non_linear");
                        c.at_least_1(format!("{bp}.bits"), *bits);
                        if *bits > MAX_RESOLUTION_BITS {
                            c.push(
                                format!("{bp}.bits"),
                                "converter resolution must be at most 32 bits",
                                bits,
                            );
                        }
                        if let Some(fom) = fom_j_per_step {
                            c.positive(format!("{bp}.fom_j_per_step"), *fom);
                        }
                    }
                }
            }
        }

        for (i, d) in self.hw.digital.iter().enumerate() {
            let p = format!("hw.digital[{i}].unit");
            match &d.unit {
                DigitalKindIr::Pipelined {
                    input_per_cycle,
                    output_per_cycle,
                    pipeline_stages,
                    energy_per_cycle_j,
                } => {
                    let pp = format!("{p}.pipelined");
                    c.shape(format!("{pp}.input_per_cycle"), *input_per_cycle);
                    c.shape(format!("{pp}.output_per_cycle"), *output_per_cycle);
                    c.at_least_1(format!("{pp}.pipeline_stages"), *pipeline_stages);
                    c.non_negative(format!("{pp}.energy_per_cycle_j"), *energy_per_cycle_j);
                }
                DigitalKindIr::Systolic {
                    rows,
                    cols,
                    node_nm,
                    mac_energy_j,
                    utilization,
                } => {
                    let sp = format!("{p}.systolic");
                    c.at_least_1(format!("{sp}.rows"), *rows);
                    c.at_least_1(format!("{sp}.cols"), *cols);
                    c.positive(format!("{sp}.node_nm"), *node_nm);
                    c.non_negative(format!("{sp}.mac_energy_j"), *mac_energy_j);
                    if !(*utilization > 0.0 && *utilization <= 1.0) {
                        c.push(
                            format!("{sp}.utilization"),
                            "must be in (0, 1]",
                            utilization,
                        );
                    }
                }
            }
        }

        for (i, m) in self.hw.memories.iter().enumerate() {
            let p = format!("hw.memories[{i}]");
            if m.capacity_pixels == 0 {
                c.push(format!("{p}.capacity_pixels"), "must be non-zero", 0);
            } else if m.kind == MemoryKindIr::DoubleBuffer && m.capacity_pixels % 2 != 0 {
                c.push(
                    format!("{p}.capacity_pixels"),
                    "a double buffer's total capacity covers two equal banks and must be even",
                    m.capacity_pixels,
                );
            }
            c.non_negative(format!("{p}.read_j_per_word"), m.energy.read_j_per_word);
            c.non_negative(format!("{p}.write_j_per_word"), m.energy.write_j_per_word);
            c.non_negative(format!("{p}.leakage_w"), m.energy.leakage_w);
            c.at_least_1(format!("{p}.pixels_per_word"), m.pixels_per_word);
            c.at_least_1(format!("{p}.read_ports"), m.read_ports);
            c.at_least_1(format!("{p}.write_ports"), m.write_ports);
            if !(0.0..=1.0).contains(&m.active_fraction) {
                c.push(
                    format!("{p}.active_fraction"),
                    "must be in [0, 1]",
                    m.active_fraction,
                );
            }
            c.non_negative(format!("{p}.area_mm2"), m.area_mm2);
        }

        // Connections reference known units.
        let unit_names: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
        for (i, conn) in self.hw.connections.iter().enumerate() {
            for (end, name) in [("from", &conn.from), ("to", &conn.to)] {
                if !unit_names.contains(&name.as_str()) {
                    c.push(
                        format!("hw.connections[{i}].{end}"),
                        "references an unknown hardware unit",
                        quoted(name),
                    );
                }
            }
        }
    }

    fn validate_sw(&self, c: &mut Check) {
        for (i, s) in self.sw.stages.iter().enumerate() {
            let p = format!("sw.stages[{i}]");
            if s.name.is_empty() {
                c.push(format!("{p}.name"), "stage name must not be empty", "\"\"");
            } else if self.sw.stages[..i].iter().any(|o| o.name == s.name) {
                c.push(format!("{p}.name"), "duplicate stage name", quoted(&s.name));
            }
            c.shape(format!("{p}.input_size"), s.input_size);
            c.shape(format!("{p}.output_size"), s.output_size);
            c.at_least_1(format!("{p}.bits"), s.bits);
            match &s.kind {
                StageKindIr::Input | StageKindIr::ElementWise { .. } => {
                    if s.input_size != s.output_size {
                        c.push(
                            format!("{p}.output_size"),
                            "input and element-wise stages produce exactly their input size",
                            format!("{:?} vs input {:?}", s.output_size, s.input_size),
                        );
                    }
                    if let StageKindIr::ElementWise { operands } = s.kind {
                        c.at_least_1(format!("{p}.kind.element_wise.operands"), operands);
                    }
                }
                StageKindIr::Stencil { kernel, stride } => {
                    c.shape(format!("{p}.kind.stencil.kernel"), *kernel);
                    c.shape(format!("{p}.kind.stencil.stride"), *stride);
                }
                StageKindIr::Dnn { macs, .. } => {
                    if *macs == 0 {
                        c.push(
                            format!("{p}.kind.dnn.macs"),
                            "a DNN stage must perform at least one MAC",
                            0,
                        );
                    }
                }
                StageKindIr::Custom {
                    ops,
                    reads_per_output,
                } => {
                    if *ops == 0 {
                        c.push(
                            format!("{p}.kind.custom.ops"),
                            "a custom stage must perform at least one op",
                            0,
                        );
                    }
                    c.non_negative(
                        format!("{p}.kind.custom.reads_per_output"),
                        *reads_per_output,
                    );
                }
            }
        }
        let stage_names: Vec<&str> = self.sw.stages.iter().map(|s| s.name.as_str()).collect();
        for (i, edge) in self.sw.edges.iter().enumerate() {
            for (end, name) in [("from", &edge.from), ("to", &edge.to)] {
                if !stage_names.contains(&name.as_str()) {
                    c.push(
                        format!("sw.edges[{i}].{end}"),
                        "references an unknown stage",
                        quoted(name),
                    );
                }
            }
        }
    }

    fn validate_mapping(&self, c: &mut Check) {
        let stage_names: Vec<&str> = self.sw.stages.iter().map(|s| s.name.as_str()).collect();
        let mut unit_names: Vec<&str> = self.hw.analog.iter().map(|a| a.name.as_str()).collect();
        unit_names.extend(self.hw.digital.iter().map(|d| d.name.as_str()));
        unit_names.extend(self.hw.memories.iter().map(|m| m.name.as_str()));
        for (i, b) in self.mapping.iter().enumerate() {
            if !stage_names.contains(&b.stage.as_str()) {
                c.push(
                    format!("mapping[{i}].stage"),
                    "references an unknown stage",
                    quoted(&b.stage),
                );
            }
            if !unit_names.contains(&b.unit.as_str()) {
                c.push(
                    format!("mapping[{i}].unit"),
                    "references an unknown hardware unit",
                    quoted(&b.unit),
                );
            }
        }
    }
}

impl StimulusIr {
    /// Resolves the block into a runtime
    /// [`Stimulus`](camj_core::functional::Stimulus), loading image
    /// pixel data from disk. A relative image path is resolved against
    /// `base_dir` (in practice the description file's directory), so a
    /// design and its stimulus travel together; the stimulus is still
    /// labelled with the path as the description writes it.
    ///
    /// # Errors
    ///
    /// [`DescError::Invalid`] with a path-qualified diagnostic when a
    /// level is outside `[0, 1]`, a gradient descends, or the image
    /// cannot be read or decoded (the message names the file and, for
    /// decode failures, the byte offset).
    pub fn resolve(
        &self,
        base_dir: Option<&std::path::Path>,
    ) -> Result<camj_core::functional::Stimulus, DescError> {
        use camj_core::functional::Stimulus;
        let invalid = |path: &str, message: String, value: String| {
            DescError::Invalid(vec![Diagnostic::new(path, message, value)])
        };
        match self {
            StimulusIr::Uniform { level } => {
                if !(level.is_finite() && (0.0..=1.0).contains(level)) {
                    return Err(invalid(
                        "stimulus.uniform.level",
                        "must be in [0, 1]".to_owned(),
                        level.to_string(),
                    ));
                }
                Ok(Stimulus::uniform(*level))
            }
            StimulusIr::Gradient { low, high } => {
                let bounded = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
                if !bounded(*low) || !bounded(*high) || low > high {
                    return Err(invalid(
                        "stimulus.gradient",
                        "levels must be in [0, 1] with low at most high".to_owned(),
                        format!("{low}..{high}"),
                    ));
                }
                Ok(Stimulus::gradient(*low, *high))
            }
            StimulusIr::Image { path } => {
                let file = std::path::Path::new(path);
                let resolved = match base_dir {
                    Some(dir) if file.is_relative() => dir.join(file),
                    _ => file.to_path_buf(),
                };
                let mut stimulus = Stimulus::image_from_path(&resolved)
                    .map_err(|e| invalid("stimulus.image.path", e, quoted(path)))?;
                // Labelled by the path as written, so the label does not
                // depend on where the description was loaded from.
                if let Stimulus::Image { path: label, .. } = &mut stimulus {
                    label.clone_from(path);
                }
                Ok(stimulus)
            }
        }
    }
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

fn layer(l: LayerIr) -> Layer {
    match l {
        LayerIr::Sensor => Layer::Sensor,
        LayerIr::Compute => Layer::Compute,
        LayerIr::OffChip => Layer::OffChip,
    }
}

fn domain(d: DomainIr) -> SignalDomain {
    match d {
        DomainIr::Optical => SignalDomain::Optical,
        DomainIr::Charge => SignalDomain::Charge,
        DomainIr::Voltage => SignalDomain::Voltage,
        DomainIr::Current => SignalDomain::Current,
        DomainIr::Time => SignalDomain::Time,
        DomainIr::Digital => SignalDomain::Digital,
    }
}

fn build_component(ir: &crate::ir::ComponentIr) -> AnalogComponentSpec {
    let mut builder = AnalogComponentSpec::builder(ir.name.clone())
        .input_domain(domain(ir.input_domain))
        .output_domain(domain(ir.output_domain))
        .vdda(ir.vdda_v);
    for source in ir.noise.as_deref().unwrap_or(&[]) {
        builder = builder.noise_source(match *source {
            NoiseSourceIr::PhotonShot {
                full_well_electrons,
            } => NoiseSource::PhotonShot {
                full_well_electrons,
            },
            NoiseSourceIr::DarkCurrent {
                electrons_per_sec,
                full_well_electrons,
            } => NoiseSource::DarkCurrent {
                electrons_per_sec,
                full_well_electrons,
            },
            NoiseSourceIr::Read { rms_fraction } => NoiseSource::Read { rms_fraction },
            NoiseSourceIr::KtcSampling {
                capacitance_f,
                v_swing_v,
            } => NoiseSource::KtcSampling {
                capacitance_f,
                v_swing_v,
            },
        });
    }
    for cell in &ir.cells {
        let model = match &cell.cell {
            CellKindIr::Dynamic { nodes } => AnalogCell::Dynamic {
                nodes: nodes
                    .iter()
                    .map(|n| CapacitorNode::new(n.capacitance_f, n.voltage_swing_v))
                    .collect(),
            },
            CellKindIr::StaticBiased {
                load_capacitance_f,
                voltage_swing_v,
                bias,
            } => AnalogCell::StaticBiased {
                load_capacitance_f: *load_capacitance_f,
                voltage_swing_v: *voltage_swing_v,
                bias: match bias {
                    BiasIr::DirectDrive => BiasMode::DirectDrive,
                    BiasIr::GmId { gain, gm_over_id } => BiasMode::GmId {
                        gain: *gain,
                        gm_over_id: *gm_over_id,
                    },
                },
            },
            CellKindIr::NonLinear {
                bits,
                fom_j_per_step,
            } => AnalogCell::NonLinear {
                bits: *bits,
                survey: match fom_j_per_step {
                    Some(fom) => AdcSurvey::with_fom(*fom),
                    None => AdcSurvey::default(),
                },
            },
        };
        builder = builder.cell_counted(cell.label.clone(), model, cell.spatial, cell.temporal);
    }
    builder.build()
}

fn build_stage(ir: &StageIr) -> Stage {
    let stage = match &ir.kind {
        StageKindIr::Input => Stage::input(ir.name.clone(), ir.output_size),
        StageKindIr::Stencil { kernel, stride } => Stage::stencil(
            ir.name.clone(),
            ir.input_size,
            ir.output_size,
            *kernel,
            *stride,
        ),
        StageKindIr::ElementWise { operands } => {
            Stage::element_wise(ir.name.clone(), ir.output_size, *operands)
        }
        StageKindIr::Dnn { macs, weights } => Stage::dnn(
            ir.name.clone(),
            ir.input_size,
            ir.output_size,
            *macs,
            *weights,
        ),
        StageKindIr::Custom {
            ops,
            reads_per_output,
        } => Stage::custom(
            ir.name.clone(),
            ir.input_size,
            ir.output_size,
            *ops,
            *reads_per_output,
        ),
    };
    stage.with_bits(ir.bits)
}

/// Per-field numeric checks accumulating [`Diagnostic`]s.
#[derive(Default)]
struct Check {
    diags: Vec<Diagnostic>,
}

impl Check {
    fn push(&mut self, path: impl Into<String>, message: &str, value: impl std::fmt::Display) {
        self.diags.push(Diagnostic::new(path, message, value));
    }

    fn positive(&mut self, path: impl Into<String>, v: f64) {
        if !(v.is_finite() && v > 0.0) {
            self.push(path, "must be positive and finite", v);
        }
    }

    fn non_negative(&mut self, path: impl Into<String>, v: f64) {
        if !(v.is_finite() && v >= 0.0) {
            self.push(path, "must be non-negative and finite", v);
        }
    }

    fn finite(&mut self, path: impl Into<String>, v: f64) {
        if !v.is_finite() {
            self.push(path, "must be finite", v);
        }
    }

    fn at_least_1(&mut self, path: impl Into<String>, v: u32) {
        if v == 0 {
            self.push(path, "must be at least 1", 0);
        }
    }

    fn shape(&mut self, path: impl Into<String>, dims: [u32; 3]) {
        if dims.contains(&0) {
            self.push(path, "dimensions must be non-zero", format!("{dims:?}"));
        }
    }
}
