//! The component-level energy breakdown — CamJ's primary output.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::de::DeError;
use serde::value::{Map, Value};
use serde::{Deserialize, Serialize};

use camj_tech::units::Energy;

use crate::hw::Layer;

use super::category::EnergyCategory;

/// One line of the breakdown: a hardware unit's contribution, optionally
/// attributed to an algorithm stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyItem {
    /// The hardware unit (or interface) the energy is burned in.
    pub unit: String,
    /// The algorithm stage the work belongs to, when attributable.
    pub stage: Option<String>,
    /// Budget category.
    pub category: EnergyCategory,
    /// The physical layer the energy is dissipated on.
    pub layer: Layer,
    /// Per-frame energy.
    pub energy: Energy,
}

/// A full per-frame energy breakdown.
///
/// Items are held as an ordered sequence of *runs*. The energy stage
/// appends each kernel's output as one run, and a run replayed from an
/// [`EstimateCache`](super::EstimateCache) is the cache's own shared
/// allocation: a cache hit costs a reference count, not a copy of its
/// items. Runs are a storage detail only — equality, serialization and
/// every aggregate see the flat item sequence.
#[derive(Clone, Default)]
pub struct EnergyBreakdown {
    runs: Vec<Arc<Vec<EnergyItem>>>,
}

impl EnergyBreakdown {
    /// Creates an empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an item.
    pub fn push(&mut self, item: EnergyItem) {
        match self.runs.last_mut().and_then(Arc::get_mut) {
            Some(run) => run.push(item),
            None => self.runs.push(Arc::new(vec![item])),
        }
    }

    /// Appends a run of items without copying them: the breakdown
    /// keeps a reference to `run`, which may be shared (a cached kernel
    /// output, for instance).
    pub fn push_shared(&mut self, run: Arc<Vec<EnergyItem>>) {
        if !run.is_empty() {
            self.runs.push(run);
        }
    }

    /// All items, in insertion order.
    pub fn items(&self) -> impl Iterator<Item = &EnergyItem> + Clone + '_ {
        self.runs.iter().flat_map(|run| run.iter())
    }

    /// Total per-frame energy.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.items().map(|i| i.energy).sum()
    }

    /// Total energy of one category.
    #[must_use]
    pub fn category_total(&self, category: EnergyCategory) -> Energy {
        self.items()
            .filter(|i| i.category == category)
            .map(|i| i.energy)
            .sum()
    }

    /// Per-category totals, in [`EnergyCategory::ALL`] order, zero
    /// categories included.
    #[must_use]
    pub fn by_category(&self) -> Vec<(EnergyCategory, Energy)> {
        EnergyCategory::ALL
            .iter()
            .map(|&c| (c, self.category_total(c)))
            .collect()
    }

    /// Totals grouped by attributed stage; unattributed items group under
    /// `None`.
    #[must_use]
    pub fn by_stage(&self) -> BTreeMap<Option<String>, Energy> {
        let mut out: BTreeMap<Option<String>, Energy> = BTreeMap::new();
        for item in self.items() {
            let slot = out.entry(item.stage.clone()).or_insert(Energy::ZERO);
            *slot += item.energy;
        }
        out
    }

    /// Total energy dissipated on one physical layer.
    #[must_use]
    pub fn layer_total(&self, layer: Layer) -> Energy {
        self.items()
            .filter(|i| i.layer == layer)
            .map(|i| i.energy)
            .sum()
    }

    /// Energy per pixel for an `n_pixels` sensor — the paper's Fig. 7
    /// validation metric.
    #[must_use]
    pub fn per_pixel(&self, n_pixels: u64) -> Energy {
        self.total() / n_pixels as f64
    }

    /// Merges another breakdown into this one.
    pub fn extend(&mut self, other: EnergyBreakdown) {
        self.runs.extend(other.runs);
    }
}

impl PartialEq for EnergyBreakdown {
    fn eq(&self, other: &Self) -> bool {
        self.items().eq(other.items())
    }
}

impl fmt::Debug for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnergyBreakdown")
            .field("items", &self.items().collect::<Vec<_>>())
            .finish()
    }
}

/// The flat wire form, `{"items":[…]}` — what deserialization reads.
#[derive(Deserialize)]
struct FlatBreakdown {
    items: Vec<EnergyItem>,
}

impl Serialize for EnergyBreakdown {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert_field(
            "items",
            Value::Array(self.items().map(Serialize::to_value).collect()),
        );
        Value::Object(map)
    }
}

impl<'de> Deserialize<'de> for EnergyBreakdown {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let flat = FlatBreakdown::from_value(v)?;
        Ok(Self {
            runs: vec![Arc::new(flat.items)],
        })
    }

    fn known_fields() -> Option<Vec<&'static str>> {
        FlatBreakdown::known_fields()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(
        unit: &str,
        stage: Option<&str>,
        cat: EnergyCategory,
        layer: Layer,
        pj: f64,
    ) -> EnergyItem {
        EnergyItem {
            unit: unit.into(),
            stage: stage.map(Into::into),
            category: cat,
            layer,
            energy: Energy::from_picojoules(pj),
        }
    }

    fn sample() -> EnergyBreakdown {
        let mut b = EnergyBreakdown::new();
        b.push(item(
            "px",
            Some("Input"),
            EnergyCategory::Sensing,
            Layer::Sensor,
            100.0,
        ));
        b.push(item(
            "adc",
            Some("Input"),
            EnergyCategory::Sensing,
            Layer::Sensor,
            50.0,
        ));
        b.push(item(
            "pe",
            Some("Edge"),
            EnergyCategory::DigitalCompute,
            Layer::Compute,
            30.0,
        ));
        b.push(item(
            "mipi",
            Some("Edge"),
            EnergyCategory::Mipi,
            Layer::Compute,
            20.0,
        ));
        b
    }

    #[test]
    fn totals_add_up() {
        let b = sample();
        assert!((b.total().picojoules() - 200.0).abs() < 1e-9);
        assert!((b.category_total(EnergyCategory::Sensing).picojoules() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn by_category_covers_all_and_sums_to_total() {
        let b = sample();
        let cats = b.by_category();
        assert_eq!(cats.len(), EnergyCategory::ALL.len());
        let sum: Energy = cats.iter().map(|(_, e)| *e).sum();
        assert!((sum.picojoules() - b.total().picojoules()).abs() < 1e-9);
    }

    #[test]
    fn by_stage_groups() {
        let b = sample();
        let stages = b.by_stage();
        assert!((stages[&Some("Input".to_owned())].picojoules() - 150.0).abs() < 1e-9);
        assert!((stages[&Some("Edge".to_owned())].picojoules() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn layer_totals() {
        let b = sample();
        assert!((b.layer_total(Layer::Sensor).picojoules() - 150.0).abs() < 1e-9);
        assert!((b.layer_total(Layer::Compute).picojoules() - 50.0).abs() < 1e-9);
        assert_eq!(b.layer_total(Layer::OffChip), Energy::ZERO);
    }

    #[test]
    fn per_pixel_divides() {
        let b = sample();
        assert!((b.per_pixel(100).picojoules() - 2.0).abs() < 1e-9);
    }

    /// A breakdown assembled from shared runs (as cache hits book
    /// them) is the flat breakdown in every observable way, and holds
    /// the runs without copying them.
    #[test]
    fn shared_runs_match_the_flat_breakdown() {
        let flat = sample();
        let items: Vec<EnergyItem> = flat.items().cloned().collect();
        let head = Arc::new(items[..1].to_vec());
        let middle = Arc::new(items[1..3].to_vec());
        let mut shared = EnergyBreakdown::new();
        shared.push_shared(Arc::clone(&head));
        shared.push_shared(Arc::new(Vec::new()));
        shared.push_shared(Arc::clone(&middle));
        shared.push(items[3].clone());
        // Held, not copied; and a later push never grows a shared run.
        assert_eq!(Arc::strong_count(&head), 2);
        assert_eq!(middle.len(), 2);

        assert!(shared.items().eq(flat.items()));
        assert_eq!(shared, flat);
        let bits = |b: &EnergyBreakdown| {
            let mut v = vec![b.total().joules().to_bits()];
            v.extend(
                EnergyCategory::ALL
                    .iter()
                    .map(|&c| b.category_total(c).joules().to_bits()),
            );
            v.extend(
                [Layer::Sensor, Layer::Compute, Layer::OffChip]
                    .iter()
                    .map(|&l| b.layer_total(l).joules().to_bits()),
            );
            v
        };
        assert_eq!(bits(&shared), bits(&flat));
        assert_eq!(shared.by_stage(), flat.by_stage());

        let json = serde_json::to_string(&shared).unwrap();
        assert_eq!(json, serde_json::to_string(&flat).unwrap());
        assert!(json.starts_with(r#"{"items":[{"unit":"px","#), "{json}");
        let back: EnergyBreakdown = serde_json::from_str(&json).unwrap();
        assert_eq!(back, flat);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // Like the derived form, the wire form admits no other keys.
        assert!(serde_json::from_str::<EnergyBreakdown>(r#"{"items":[],"extra":1}"#).is_err());
    }

    #[test]
    fn extend_merges() {
        let mut a = sample();
        let b = sample();
        a.extend(b);
        assert!((a.total().picojoules() - 400.0).abs() < 1e-9);
    }
}
