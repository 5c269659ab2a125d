//! [`Fingerprintable`] implementations for the framework-level
//! descriptors: hardware units, algorithm stages, mappings, and routes.
//!
//! These compose the substrate implementations from `camj-analog` /
//! `camj-digital` / `camj-tech` into full-descriptor fingerprints, which
//! the energy kernels (one per [`crate::energy::KernelKind`]) and the
//! elastic simulation cache key their artifacts by.

use camj_tech::fingerprint::{Fingerprintable, FpHasher};

use crate::hw::{
    AnalogCategory, AnalogUnitDesc, DigitalUnitDesc, DigitalUnitKind, Layer, MemoryDesc,
};
use crate::mapping::Mapping;
use crate::route::Route;
use crate::sw::{ImageSize, Stage, StageKind};

impl Fingerprintable for Layer {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag(match self {
            Layer::Sensor => 0,
            Layer::Compute => 1,
            Layer::OffChip => 2,
        });
    }
}

impl Fingerprintable for AnalogCategory {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag(match self {
            AnalogCategory::Sensing => 0,
            AnalogCategory::Compute => 1,
            AnalogCategory::Memory => 2,
        });
    }
}

impl Fingerprintable for AnalogUnitDesc {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(self.name());
        self.array().feed(h);
        self.layer().feed(h);
        self.category().feed(h);
        h.write_f64(self.ops_per_stage_output());
        self.pixel_pitch_um().feed(h);
    }
}

impl Fingerprintable for DigitalUnitKind {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            DigitalUnitKind::Pipelined(cu) => {
                h.write_tag(0);
                cu.feed(h);
            }
            DigitalUnitKind::Systolic(sa) => {
                h.write_tag(1);
                sa.feed(h);
            }
        }
    }
}

impl Fingerprintable for DigitalUnitDesc {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(self.name());
        self.kind().feed(h);
        self.layer().feed(h);
    }
}

impl Fingerprintable for MemoryDesc {
    fn feed(&self, h: &mut FpHasher) {
        self.structure().feed(h);
        self.layer().feed(h);
        h.write_f64(self.area_mm2());
    }
}

impl Fingerprintable for ImageSize {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u32(self.width);
        h.write_u32(self.height);
        h.write_u32(self.channels);
    }
}

impl Fingerprintable for StageKind {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            StageKind::Input => h.write_tag(0),
            StageKind::Stencil { kernel, stride } => {
                h.write_tag(1);
                for v in kernel.iter().chain(stride.iter()) {
                    h.write_u32(*v);
                }
            }
            StageKind::ElementWise { operands } => {
                h.write_tag(2);
                h.write_u32(*operands);
            }
            StageKind::Dnn { macs, weights } => {
                h.write_tag(3);
                h.write_u64(*macs);
                h.write_u64(*weights);
            }
            StageKind::Custom {
                ops,
                reads_per_output,
            } => {
                h.write_tag(4);
                h.write_u64(*ops);
                h.write_f64(*reads_per_output);
            }
        }
    }
}

impl Fingerprintable for Stage {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(self.name());
        self.kind().feed(h);
        self.input_size().feed(h);
        self.output_size().feed(h);
        h.write_u32(self.bits());
    }
}

impl Fingerprintable for Mapping {
    fn feed(&self, h: &mut FpHasher) {
        h.write_usize(self.len());
        for (stage, unit) in self.iter() {
            h.write_str(stage);
            h.write_str(unit);
        }
    }
}

impl Fingerprintable for Route {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(&self.from_stage);
        self.to_stage.feed(h);
        self.path.feed(h);
        h.write_u64(self.pixels);
        h.write_u64(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camj_analog::array::AnalogArray;
    use camj_analog::components::{aps_4t, ApsParams};

    #[test]
    fn analog_unit_layer_matters() {
        let arr = AnalogArray::new(aps_4t(ApsParams::default()), 8, 8);
        let a = AnalogUnitDesc::new("px", arr.clone(), Layer::Sensor, AnalogCategory::Sensing);
        let b = AnalogUnitDesc::new("px", arr, Layer::Compute, AnalogCategory::Sensing);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn stage_kind_discriminants_never_alias() {
        let input = Stage::input("s", [4, 4, 1]);
        let dnn = Stage::dnn("s", [4, 4, 1], [4, 4, 1], 16, 0);
        assert_ne!(input.fingerprint(), dnn.fingerprint());
    }

    #[test]
    fn mapping_bindings_are_ordered_and_counted() {
        let a = Mapping::new().map("x", "u1").map("y", "u2");
        let b = Mapping::new().map("x", "u2").map("y", "u1");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
