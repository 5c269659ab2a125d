//! Machine-readable sweep output: JSON and CSV serializers for
//! [`SweepResults`], the backend of `camj sweep --format json|csv`.
//!
//! Every row carries the point's axis coordinates (one column per
//! axis), the headline metrics of a successful estimate, and the error
//! message of a failed one. Output is deterministic and byte-stable —
//! rows come in grid order and floats print via the shortest-round-trip
//! formatter — so sweep artifacts can be diffed and committed.
//!
//! A sweep row's fields are listed in one place, a private row walker
//! that yields each row's cells in order. Three sinks read it: the JSON
//! text writer behind [`SweepResults::to_json`], which appends every
//! cell straight into the output with no value tree per row; the value
//! rows of [`SweepResults::to_json_rows`] (the daemon's `point` frames);
//! and [`SweepResults::to_csv`]. The pareto and search writers build a
//! value tree ([`ParetoResults::to_value`], [`SearchResults::to_value`])
//! and pretty-print it.

use std::fmt::{self, Write as _};
use std::str::FromStr;

use serde_json::{Map, Number, Value};

use camj_core::energy::{CacheStats, EstimateReport};

use crate::axis::{canonical_f64, write_canonical_f64, AxisValue};
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

/// A point's coordinates as leading CSV cells, each followed by a comma.
fn push_coord_cells(out: &mut String, point: &DesignPoint) {
    for (_, value) in point.coords() {
        out.push_str(&csv_field(&value.to_string()));
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

/// The keys that follow a sweep row's axis coordinates, in order.
const METRIC_KEYS: [&str; 4] = ["total_pj", "per_pixel_pj", "frame_ms", "error"];

/// One cell of a sweep row.
#[derive(Clone, Copy)]
enum Cell<'a> {
    /// An axis coordinate.
    Coord(&'a AxisValue),
    /// A headline metric of a successful estimate.
    Metric(f64),
    /// The error message of a failed point.
    Error(&'a str),
    /// An inapplicable metric or error: JSON `null`, an empty CSV cell.
    Empty,
}

/// Walks one sweep row's `(key, cell)` pairs in order: one per axis,
/// then [`METRIC_KEYS`]. This is the one place a sweep row's fields are
/// listed; the JSON text, the JSON value rows and the CSV rows all read
/// them from here. An axis named like a metric key holds that metric
/// in the axis's place, as inserting into a JSON object would.
fn walk_row<'a>(
    outcome: &'a PointOutcome<EstimateReport>,
    mut cell: impl FnMut(&'a str, Cell<'a>),
) {
    let metrics = match &outcome.result {
        Ok(report) => [
            Cell::Metric(report.total().picojoules()),
            Cell::Metric(report.energy_per_pixel().picojoules()),
            Cell::Metric(report.delay.frame_time.millis()),
            Cell::Empty,
        ],
        Err(e) => [
            Cell::Empty,
            Cell::Empty,
            Cell::Empty,
            Cell::Error(e.message()),
        ],
    };
    let mut shadowed = [false; METRIC_KEYS.len()];
    for (axis, value) in outcome.point.coords() {
        match METRIC_KEYS.iter().position(|key| *key == axis) {
            Some(i) => {
                shadowed[i] = true;
                cell(axis, metrics[i]);
            }
            None => cell(axis, Cell::Coord(value)),
        }
    }
    for ((key, metric), shadowed) in METRIC_KEYS.into_iter().zip(metrics).zip(shadowed) {
        if !shadowed {
            cell(key, metric);
        }
    }
}

/// A cell as a JSON value (see [`SweepResults::to_json_rows`]).
fn cell_value(cell: Cell<'_>) -> Value {
    match cell {
        Cell::Coord(value) => axis_value_json(value),
        Cell::Metric(v) => Value::Number(Number::from_f64(v)),
        Cell::Error(message) => Value::String(message.to_owned()),
        Cell::Empty => Value::Null,
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    serde::value::escape_into(out, s);
    out.push('"');
}

/// Appends a cell as JSON text: the bytes [`cell_value`]'s value
/// pretty-prints to.
///
/// # Panics
///
/// Panics if the cell holds a non-finite number.
fn push_json_cell(out: &mut String, cell: Cell<'_>) {
    match cell {
        Cell::Coord(AxisValue::Text(s)) => push_json_str(out, s),
        Cell::Error(message) => push_json_str(out, message),
        Cell::Empty => out.push_str("null"),
        Cell::Coord(&AxisValue::F64(v)) | Cell::Metric(v) => {
            assert!(v.is_finite(), "sweep metrics are finite");
            write!(out, "{}", Number::from_f64(v)).expect("writing to a String cannot fail");
        }
        Cell::Coord(AxisValue::U32(v)) => {
            write!(out, "{v}").expect("writing to a String cannot fail");
        }
        // Node sizes and memory kind names never need a JSON escape.
        Cell::Coord(other) => {
            write!(out, "\"{other}\"").expect("writing to a String cannot fail");
        }
    }
}

/// Appends a cell as one CSV field: numbers in their canonical form
/// (`NaN`/`inf` for non-finite values), text quoted as needed, and
/// nothing for an inapplicable cell.
fn push_csv_cell(out: &mut String, cell: Cell<'_>) {
    match cell {
        Cell::Coord(&AxisValue::F64(v)) | Cell::Metric(v) => {
            write_canonical_f64(out, v).expect("writing to a String cannot fail");
        }
        Cell::Coord(value) => out.push_str(&csv_field(&value.to_string())),
        Cell::Error(message) => out.push_str(&csv_field(message)),
        Cell::Empty => {}
    }
}

impl SweepResults<EstimateReport> {
    /// The per-point rows as JSON objects: one key per axis, then
    /// `total_pj`, `per_pixel_pj`, `frame_ms`, and `error` (`null` on
    /// success; the metrics are `null` on failure).
    #[must_use]
    pub fn to_json_rows(&self) -> Vec<Value> {
        self.outcomes()
            .iter()
            .map(|outcome| {
                let mut row = Map::new();
                walk_row(outcome, |key, cell| row.insert(key, cell_value(cell)));
                Value::Object(row)
            })
            .collect()
    }

    /// The whole sweep as a pretty-printed JSON object: the per-point
    /// rows under `"points"`, plus the shared cache's [`CacheStats`]
    /// under `"cache"` (`null` when the sweep ran uncached) so scripted
    /// consumers see hit rates without scraping the human output.
    ///
    /// # Panics
    ///
    /// Panics if a report or an axis coordinate is a non-finite number
    /// — estimation never produces one, so this indicates a model bug.
    ///
    /// The rows are written straight into the output as text, with no
    /// value tree per row. The bytes are exactly what pretty-printing
    /// the whole tree gives: `"points"` holding
    /// [`Self::to_json_rows`], then `"cache"`.
    #[must_use]
    pub fn to_json(&self, cache: Option<&CacheStats>) -> String {
        let mut out = String::from("{\n  \"points\": [");
        for (i, outcome) in self.outcomes().iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            let mut first = true;
            walk_row(outcome, |key, cell| {
                out.push_str(if first { "\n      " } else { ",\n      " });
                first = false;
                push_json_str(&mut out, key);
                out.push_str(": ");
                push_json_cell(&mut out, cell);
            });
            out.push_str("\n    }");
        }
        if !self.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"cache\": ");
        let cache =
            serde_json::to_string_pretty(&cache_json(cache)).expect("cache stats are finite");
        out.push_str(&cache.replace('\n', "\n  "));
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
        let mut sep = "";
        walk_row(first, |key, _| {
            out.push_str(sep);
            out.push_str(&csv_field(key));
            sep = ",";
        });
        out.push('\n');
        for outcome in self.outcomes() {
            let mut sep = "";
            walk_row(outcome, |_, cell| {
                out.push_str(sep);
                push_csv_cell(&mut out, cell);
                sep = ",";
            });
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
        serde_json::to_string_pretty(&self.to_value(cache)).expect("pareto metrics are finite")
    }

    /// The value tree [`Self::to_json`] prints.
    #[must_use]
    pub fn to_value(&self, cache: Option<&CacheStats>) -> Value {
        let mut out = self.json_fields();
        out.insert("cache", cache_json(cache));
        Value::Object(out)
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
            let metrics: Vec<String> = entry
                .metrics
                .values()
                .iter()
                .map(|v| canonical_f64(*v))
                .collect();
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
        serde_json::to_string_pretty(&self.to_value(cache)).expect("search metrics are finite")
    }

    /// The value tree [`Self::to_json`] prints.
    #[must_use]
    pub fn to_value(&self, cache: Option<&CacheStats>) -> Value {
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
        Value::Object(out)
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

    /// Sweeps covering every cell the row walker writes: a signed-zero,
    /// fractional, integral and beyond-`i64` fps; a label with a quote,
    /// a newline and a control character; node and memory coordinates;
    /// error rows; an axis named like a metric key; and an empty sweep.
    /// `frame_time` overrides every successful report's frame time.
    fn writer_cases(frame_time: Option<f64>) -> Vec<SweepResults<EstimateReport>> {
        use crate::{Explorer, MemoryKind, PointError, ProcessNode, Sweep};
        let model = camj_workloads::quickstart::model(30.0)
            .expect("quickstart builds")
            .into_validated();
        let eval = |point: &DesignPoint| {
            if point.u32("bit_width") == 8 {
                return Err(PointError::new("bad \"bits\"\non two lines\u{1}"));
            }
            let mut report = model.estimate().map_err(PointError::from)?;
            if let Some(secs) = frame_time {
                report.delay.frame_time = camj_tech::units::Time::from_secs(secs);
            }
            Ok(report)
        };
        let full = Sweep::new()
            .bit_widths([4, 8])
            .fps_targets([-0.0, 0.1, 30.0, 1e19])
            .labels("variant", ["2D \"In\"\n\u{1}"])
            .tech_nodes([ProcessNode::N65])
            .memory_kinds([MemoryKind::LineBuffer]);
        let shadowing = Sweep::new().bit_widths([4, 8]).labels("error", ["axis"]);
        [full, shadowing, Sweep::new()]
            .iter()
            .map(|sweep| Explorer::serial().run(sweep, eval))
            .collect()
    }

    /// The CSV a sweep's JSON value rows describe: the first row's keys,
    /// then each row's values — a number as its `Display`, a string
    /// through [`csv_field`], `null` as an empty cell.
    fn csv_from_rows(rows: &[Value]) -> String {
        let Some(first) = rows.first() else {
            return String::new();
        };
        let line = |cells: Vec<String>| cells.join(",") + "\n";
        let header = first.as_object().expect("rows are objects").iter();
        let mut out = line(header.map(|(key, _)| csv_field(key)).collect());
        for row in rows {
            let cells = row.as_object().expect("rows are objects").iter();
            out += &line(
                cells
                    .map(|(_, value)| match value {
                        Value::Number(n) => n.to_string(),
                        Value::String(s) => csv_field(s),
                        Value::Null => String::new(),
                        other => panic!("unexpected sweep cell {other}"),
                    })
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn streamed_sweep_json_matches_the_whole_tree() {
        let whole = |results: &SweepResults<EstimateReport>, cache: Option<&CacheStats>| {
            let mut out = Map::new();
            out.insert("points", Value::Array(results.to_json_rows()));
            out.insert("cache", cache_json(cache));
            serde_json::to_string_pretty(&Value::Object(out)).expect("finite")
        };
        let stats = CacheStats::default();
        let cases = writer_cases(None);
        assert_eq!(
            cases.iter().map(SweepResults::len).collect::<Vec<_>>(),
            [8, 2, 0]
        );
        for results in &cases {
            for cache in [None, Some(&stats)] {
                assert_eq!(results.to_json(cache), whole(results, cache));
            }
            assert_eq!(results.to_csv(), csv_from_rows(&results.to_json_rows()));
        }
        // The shadowing axis holds the error cell, and no second
        // `error` key follows the metrics.
        let shadowed = &cases[1].to_json_rows()[1];
        let keys: Vec<&str> = shadowed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            keys,
            ["bit_width", "error", "total_pj", "per_pixel_pj", "frame_ms"]
        );
        assert!(cases[1]
            .to_csv()
            .starts_with("bit_width,error,total_pj,per_pixel_pj,frame_ms\n"));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_non_finite_sweep_metric_panics() {
        let _ = writer_cases(Some(f64::NAN))[0].to_json(None);
    }

    #[test]
    fn pareto_and_search_json_print_their_value_trees() {
        use crate::{
            EstimateCache, Explorer, Objective, ParetoQuery, PointError, SearchSpec, Sweep,
        };
        let sweep = Sweep::new().fps_targets([15.0, 30.0, 60.0]);
        let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
        let cache = EstimateCache::shared();
        let build = |point: &DesignPoint| {
            camj_workloads::quickstart::model(point.fps("fps"))
                .map(camj_core::energy::CamJ::into_validated)
                .map_err(PointError::new)
        };
        let pareto = Explorer::serial().pareto(&sweep, &cache, &query, build);
        let search = Explorer::serial().search(&sweep, &cache, &query, &SearchSpec::new(), build);
        let stats = cache.stats();
        for stats in [None, Some(&stats)] {
            let pretty = |value: Value| serde_json::to_string_pretty(&value).unwrap();
            assert_eq!(pareto.to_json(stats), pretty(pareto.to_value(stats)));
            assert_eq!(search.to_json(stats), pretty(search.to_value(stats)));
        }
    }

    #[test]
    fn csv_fields_escape_delimiters() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
