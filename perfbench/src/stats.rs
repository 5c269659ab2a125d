//! Percentile arithmetic and the metric table a run prints.

use std::collections::BTreeMap;

/// The `q`-th percentile (`0 <= q <= 100`) of `values` by linear
/// interpolation between closest ranks (the common "type 7"
/// definition). `values` need not be sorted; empty input gives NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over already-sorted input.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn time_median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The metrics one run reports: name → (value, unit), printed in name
/// order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, (v, u))| (k.as_str(), *v, *u))
    }
}

/// Correctness bookkeeping: ops attempted and ops that failed or
/// produced a wrong answer, with the first few reasons kept for the
/// log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    /// Books one op: `Ok` passes, `Err` counts as a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(reason) => self.fail(reason),
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    /// Share of attempted ops that succeeded and checked out.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// One timed op: its latency in ms (from its due time, in an open
/// loop) and whether it succeeded and checked out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTime {
    pub ms: f64,
    pub ok: bool,
}

/// The latency rows every workload reports: `p50_ms`, `p90_ms`,
/// `p99_ms`, and `slo_ratio`, the share of the `attempted` ops that
/// succeeded within `slo_ms` (a failure counts as a miss).
pub fn put_latency(metrics: &mut Metrics, ops: &[OpTime], attempted: u64, slo_ms: f64) {
    let mut sorted: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    sorted.sort_by(f64::total_cmp);
    for p in [50u32, 90, 99] {
        metrics.put(
            format!("p{p}_ms"),
            percentile_sorted(&sorted, f64::from(p)),
            "ms",
        );
    }
    let within = ops.iter().filter(|o| o.ok && o.ms <= slo_ms).count();
    metrics.put(
        "slo_ratio",
        within as f64 / attempted.max(1) as f64,
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentiles_match_python_inclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // gives [3.25, 5.5, 7.75].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 25.0), 3.25);
        assert_eq!(percentile(&v, 50.0), 5.5);
        assert_eq!(percentile(&v, 75.0), 7.75);
        // p99 of 1..=1000 sits 0.01 of a rank below the top sample.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((percentile(&big, 99.0) - 990.01).abs() < 1e-9);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.ok();
        t.check(Err("bad".into()));
        t.check(Ok(()));
        t.fail("worse");
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.ok_ratio(), 0.5);
        assert_eq!(t.reasons, ["bad", "worse"]);
    }

    #[test]
    fn latency_rows_are_named_by_percentile() {
        let mut m = Metrics::default();
        let ops: Vec<OpTime> = (1..=100)
            .map(|i| OpTime {
                ms: f64::from(i),
                ok: i != 3,
            })
            .collect();
        put_latency(&mut m, &ops, 100, 10.0);
        assert_eq!(m.get("p50_ms"), Some(50.5));
        assert!((m.get("p90_ms").unwrap() - 90.1).abs() < 1e-9);
        assert!((m.get("p99_ms").unwrap() - 99.01).abs() < 1e-9);
        // Ops 1..=10 meet the limit, but op 3 failed.
        assert_eq!(m.get("slo_ratio"), Some(0.09));
    }
}
