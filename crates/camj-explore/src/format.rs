//! Machine-readable sweep output: JSON and CSV serializers for
//! [`SweepResults`], the backend of `camj sweep --format json|csv`.
//!
//! Every row carries the point's axis coordinates (one column per
//! axis), the headline metrics of a successful estimate, and the error
//! message of a failed one. Output is deterministic and byte-stable —
//! rows come in grid order and floats print via the shortest-round-trip
//! formatter — so sweep artifacts can be diffed and committed.

use std::fmt;
use std::str::FromStr;

use serde_json::{Map, Number, Value};

use camj_core::energy::{CacheStats, EstimateReport};

use crate::axis::AxisValue;
use crate::explorer::{PointOutcome, SweepResults};
use crate::pareto::ParetoResults;
use crate::search::SearchResults;
use crate::sweep::DesignPoint;

/// The output formats `camj sweep` can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepFormat {
    /// The human-readable table (default).
    #[default]
    Human,
    /// A JSON array with one object per grid point.
    Json,
    /// A CSV table with one row per grid point.
    Csv,
}

impl FromStr for SweepFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "human" | "table" => Ok(SweepFormat::Human),
            "json" => Ok(SweepFormat::Json),
            "csv" => Ok(SweepFormat::Csv),
            other => Err(format!(
                "unknown sweep format '{other}' (expected human, json, or csv)"
            )),
        }
    }
}

impl fmt::Display for SweepFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SweepFormat::Human => "human",
            SweepFormat::Json => "json",
            SweepFormat::Csv => "csv",
        })
    }
}

/// An axis coordinate as a JSON value: numeric axes stay numbers,
/// symbolic axes (process nodes, memory kinds, labels) become strings.
fn axis_value_json(value: &AxisValue) -> Value {
    match value {
        AxisValue::U32(v) => Value::Number(Number::from_u64(u64::from(*v))),
        AxisValue::F64(v) => Value::Number(Number::from_f64(*v)),
        other => Value::String(other.to_string()),
    }
}

/// One CSV field, quoted iff it contains a delimiter, quote, or
/// newline.
fn csv_field(raw: &str) -> String {
    if raw.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_owned()
    }
}

/// Formats a float the way the JSON printer does (shortest string that
/// round-trips), so CSV and JSON agree byte-for-byte on every number.
/// Shared with [`AxisValue`]'s `Display` via
/// [`canonical_f64`](crate::axis::canonical_f64), so point-tagged error
/// messages print coordinates identically to the serializers.
fn csv_f64(v: f64) -> String {
    crate::axis::canonical_f64(v)
}

/// A point's coordinates as leading CSV cells, each followed by a comma.
fn push_coord_cells(out: &mut String, point: &DesignPoint) {
    for (_, value) in point.coords() {
        let cell = match value {
            AxisValue::F64(v) => csv_f64(*v),
            other => other.to_string(),
        };
        out.push_str(&csv_field(&cell));
        out.push(',');
    }
}

/// The optional cache-stats snapshot as a JSON value: the full
/// [`CacheStats`] object when a sweep shared a cache, `null` otherwise.
fn cache_json(cache: Option<&CacheStats>) -> Value {
    match cache {
        Some(stats) => serde_json::to_value(stats),
        None => Value::Null,
    }
}

/// A count as a JSON number.
fn count_json(n: usize) -> Value {
    Value::Number(Number::from_u64(n as u64))
}

/// One sweep point as a JSON object: one key per axis, then the
/// headline metrics and the error (see [`SweepResults::to_json_rows`]).
fn point_row(outcome: &PointOutcome<EstimateReport>) -> Value {
    let mut row = Map::new();
    for (axis, value) in outcome.point.coords() {
        row.insert(axis, axis_value_json(value));
    }
    match &outcome.result {
        Ok(report) => {
            row.insert(
                "total_pj",
                Value::Number(Number::from_f64(report.total().picojoules())),
            );
            row.insert(
                "per_pixel_pj",
                Value::Number(Number::from_f64(report.energy_per_pixel().picojoules())),
            );
            row.insert(
                "frame_ms",
                Value::Number(Number::from_f64(report.delay.frame_time.millis())),
            );
            row.insert("error", Value::Null);
        }
        Err(e) => {
            row.insert("total_pj", Value::Null);
            row.insert("per_pixel_pj", Value::Null);
            row.insert("frame_ms", Value::Null);
            row.insert("error", Value::String(e.message().to_owned()));
        }
    }
    Value::Object(row)
}

impl SweepResults<EstimateReport> {
    /// The per-point rows as JSON objects: one key per axis, then
    /// `total_pj`, `per_pixel_pj`, `frame_ms`, and `error` (`null` on
    /// success; the metrics are `null` on failure).
    #[must_use]
    pub fn to_json_rows(&self) -> Vec<Value> {
        self.outcomes().iter().map(point_row).collect()
    }

    /// The whole sweep as a pretty-printed JSON object: the per-point
    /// rows under `"points"`, plus the shared cache's [`CacheStats`]
    /// under `"cache"` (`null` when the sweep ran uncached) so scripted
    /// consumers see hit rates without scraping the human output.
    ///
    /// # Panics
    ///
    /// Panics if a report contains a non-finite number — estimation
    /// never produces one, so this indicates a model bug.
    ///
    /// Rows are built and printed one at a time, so a large sweep never
    /// holds every row's value tree at once. The text is exactly what
    /// pretty-printing the whole tree gives: JSON escapes every newline
    /// inside a value, so a nested value's lines are its own pretty text
    /// indented by its depth.
    #[must_use]
    pub fn to_json(&self, cache: Option<&CacheStats>) -> String {
        let push_nested = |out: &mut String, value: &Value, newline: &str| {
            let text = serde_json::to_string_pretty(value).expect("sweep metrics are finite");
            out.push_str(&text.replace('\n', newline));
        };
        let mut out = String::from("{\n  \"points\": [");
        for (i, outcome) in self.outcomes().iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_nested(&mut out, &point_row(outcome), "\n    ");
        }
        if !self.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"cache\": ");
        push_nested(&mut out, &cache_json(cache), "\n  ");
        out.push_str("\n}");
        out
    }

    /// The whole sweep as CSV: a header of axis names plus
    /// `total_pj,per_pixel_pj,frame_ms,error`, then one row per point
    /// in grid order. Empty cells mark inapplicable columns (metrics of
    /// failed points, the error of successful ones).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let Some(first) = self.outcomes().first() else {
            return out;
        };
        for (axis, _) in first.point.coords() {
            out.push_str(&csv_field(axis));
            out.push(',');
        }
        out.push_str("total_pj,per_pixel_pj,frame_ms,error\n");
        for outcome in self.outcomes() {
            push_coord_cells(&mut out, &outcome.point);
            match &outcome.result {
                Ok(report) => {
                    out.push_str(&csv_f64(report.total().picojoules()));
                    out.push(',');
                    out.push_str(&csv_f64(report.energy_per_pixel().picojoules()));
                    out.push(',');
                    out.push_str(&csv_f64(report.delay.frame_time.millis()));
                    out.push(',');
                }
                Err(e) => {
                    out.push_str(",,,");
                    out.push_str(&csv_field(e.message()));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl ParetoResults {
    /// The frontier as JSON rows: one object per frontier point with a
    /// key per axis followed by a key per objective (the
    /// [`Objective::key`](crate::Objective::key) names), in grid order.
    #[must_use]
    pub fn to_json_rows(&self) -> Vec<Value> {
        let keys: Vec<String> = self
            .front()
            .objectives()
            .iter()
            .map(crate::Objective::key)
            .collect();
        self.frontier()
            .iter()
            .map(|entry| {
                let mut row = Map::new();
                for (axis, value) in entry.point.coords() {
                    row.insert(axis, axis_value_json(value));
                }
                for (key, value) in keys.iter().zip(entry.metrics.values()) {
                    row.insert(key.clone(), Value::Number(Number::from_f64(*value)));
                }
                Value::Object(row)
            })
            .collect()
    }

    /// The whole result as a pretty-printed JSON object: the objective
    /// key list, the frontier rows, the dominated/pruned/error counts
    /// that summarise the rest of the grid, the full [`PruneStats`]
    /// under `"prune"`, and the shared cache's [`CacheStats`] under
    /// `"cache"` (`null` for an uncached run). Deterministic and
    /// byte-stable (grid-ordered rows, shortest-round-trip floats), so
    /// frontier artifacts can be diffed and committed.
    ///
    /// # Panics
    ///
    /// Panics if a metric is non-finite — estimation never produces
    /// one, so this indicates a model bug.
    ///
    /// [`PruneStats`]: crate::PruneStats
    #[must_use]
    pub fn to_json(&self, cache: Option<&CacheStats>) -> String {
        let mut out = self.json_fields();
        out.insert("cache", cache_json(cache));
        serde_json::to_string_pretty(&Value::Object(out)).expect("pareto metrics are finite")
    }

    /// Every top-level field of [`Self::to_json`] but `"cache"`, in
    /// order.
    fn json_fields(&self) -> Map {
        let mut out = Map::new();
        out.insert(
            "objectives",
            Value::Array(
                self.front()
                    .objectives()
                    .iter()
                    .map(|o| Value::String(o.key()))
                    .collect(),
            ),
        );
        out.insert("frontier", Value::Array(self.to_json_rows()));
        out.insert("dominated", count_json(self.dominated_count()));
        out.insert("pruned", count_json(self.pruned().len()));
        out.insert("errors", count_json(self.errors().len()));
        out.insert("points", count_json(self.total_points()));
        out.insert("prune", serde_json::to_value(self.stats()));
        out
    }

    /// The frontier as CSV: a header of axis names plus one column per
    /// objective key, then one row per frontier point in grid order.
    /// Empty for an empty frontier.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let Some(first) = self.frontier().first() else {
            return out;
        };
        for (axis, _) in first.point.coords() {
            out.push_str(&csv_field(axis));
            out.push(',');
        }
        // Objective keys can embed free-form stage names, so they are
        // escaped exactly like the axis-name cells above.
        let keys: Vec<String> = self
            .front()
            .objectives()
            .iter()
            .map(|o| csv_field(&o.key()))
            .collect();
        out.push_str(&keys.join(","));
        out.push('\n');
        for entry in self.frontier() {
            push_coord_cells(&mut out, &entry.point);
            let metrics: Vec<String> = entry.metrics.values().iter().map(|v| csv_f64(*v)).collect();
            out.push_str(&metrics.join(","));
            out.push('\n');
        }
        out
    }
}

impl SearchResults {
    /// The whole search result as a pretty-printed JSON object: the
    /// same keys as [`ParetoResults::to_json`] (objectives, frontier
    /// rows, dominated/pruned/error counts, `"prune"`, `"cache"`), plus
    /// a `"search"` object recording the trajectory — grid size,
    /// distinct evaluations (and their fraction of the grid),
    /// generations run, and how the loop terminated. Deterministic and
    /// byte-stable for a fixed seed, so search artifacts can be diffed
    /// and committed like frontier goldens.
    ///
    /// # Panics
    ///
    /// Panics if a metric is non-finite — estimation never produces
    /// one, so this indicates a model bug.
    #[must_use]
    pub fn to_json(&self, cache: Option<&CacheStats>) -> String {
        let mut out = self.pareto().json_fields();
        let mut search = Map::new();
        search.insert("grid_points", count_json(self.grid_points()));
        search.insert("evaluations", count_json(self.evaluations()));
        search.insert(
            "evaluation_fraction",
            Value::Number(Number::from_f64(self.evaluation_fraction())),
        );
        search.insert("generations", count_json(self.generations_run()));
        search.insert("converged", Value::Bool(self.converged()));
        search.insert("exhaustive", Value::Bool(self.exhaustive()));
        search.insert("warmup_discarded", count_json(self.warmup_discarded()));
        out.insert("search", Value::Object(search));
        out.insert("cache", cache_json(cache));
        serde_json::to_string_pretty(&Value::Object(out)).expect("search metrics are finite")
    }

    /// The frontier as CSV, identical in shape to
    /// [`ParetoResults::to_csv`] (the search trajectory has no
    /// per-point rows; use [`Self::to_json`] for it).
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.pareto().to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parsing_round_trips() {
        for (text, format) in [
            ("human", SweepFormat::Human),
            ("json", SweepFormat::Json),
            ("csv", SweepFormat::Csv),
        ] {
            assert_eq!(text.parse::<SweepFormat>().unwrap(), format);
            assert_eq!(format.to_string(), text);
        }
        assert!("yaml".parse::<SweepFormat>().is_err());
    }

    #[test]
    fn streamed_sweep_json_matches_the_whole_tree() {
        use crate::{Explorer, PointError, Sweep};
        let model = camj_workloads::quickstart::model(30.0)
            .expect("quickstart builds")
            .into_validated();
        let eval = |point: &crate::DesignPoint| {
            if point.u32("bit_width") == 8 {
                Err(PointError::new("bad \"bits\"\non two lines"))
            } else {
                model.estimate().map_err(PointError::from)
            }
        };
        let whole = |results: &SweepResults<EstimateReport>, cache: Option<&CacheStats>| {
            let mut out = Map::new();
            out.insert("points", Value::Array(results.to_json_rows()));
            out.insert("cache", cache_json(cache));
            serde_json::to_string_pretty(&Value::Object(out)).expect("finite")
        };
        let sweep = Sweep::new()
            .bit_widths([4, 8])
            .labels("variant", ["2D \"In\"\n"]);
        let stats = CacheStats::default();
        for results in [
            Explorer::serial().run(&sweep, eval),
            Explorer::serial().run(&Sweep::new(), eval),
        ] {
            for cache in [None, Some(&stats)] {
                assert_eq!(results.to_json(cache), whole(&results, cache));
            }
        }
    }

    #[test]
    fn csv_fields_escape_delimiters() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
