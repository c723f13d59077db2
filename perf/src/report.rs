//! What one run measured and checked, and how it is printed: one line
//! per metric (name, value, unit, and the samples behind it), then the
//! result line `{"correct", "attempted", "failed", "metrics"}` as the
//! last line of standard output.

use crate::decl::Metric;
use crate::json;
use crate::stats::{self, Summary};
use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
    /// Units of work (cells or jobs) and output checks attempted.
    pub attempted: u64,
    /// Units of work that failed or were refused, plus failed checks.
    pub failed: u64,
}

impl Report {
    /// Records a metric value measured directly.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a metric whose value summarizes `samples`, keeping their
    /// median, quartiles and count for the printed line.
    fn set_from(&mut self, name: &str, value: Option<f64>, samples: &[f64]) {
        if let Some(v) = value {
            self.set(name, v);
        }
        if let Some(s) = Summary::of(samples) {
            self.notes
                .insert(name.to_string(), format!("median [q1, q3] of {s}"));
        }
    }

    /// Records the median of `samples` as the metric.
    pub fn median(&mut self, name: &str, samples: &[f64]) {
        self.set_from(name, stats::median(samples), samples);
    }

    /// Records the nearest-rank `p`-th percentile of `samples`, noting
    /// when fewer than ten samples lie beyond it.
    pub fn percentile(&mut self, name: &str, samples: &[f64], p: f64) {
        self.set_from(name, stats::percentile(samples, p), samples);
        if !stats::percentile_is_supported(p, samples.len()) {
            if let Some(note) = self.notes.get_mut(name) {
                note.push_str(&format!(
                    " (only {} beyond p{p})",
                    stats::beyond(p, samples.len())
                ));
            }
        }
    }

    /// Counts `attempted` units of work of which `failed` failed.
    pub fn work(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.work(1, u64::from(!ok));
        if !ok {
            eprintln!("check FAILED: {what}");
        }
    }

    /// Records a failure that stopped part of the run.
    pub fn error(&mut self, what: &str, units: u64) {
        self.work(units.max(1), units.max(1));
        eprintln!("error: {what}");
    }

    /// Prints every metric of `declared` and then the result line.
    /// A declared metric the run did not measure is a failed check and
    /// prints as 0. Returns whether the run was correct.
    pub fn emit(mut self, declared: &[Metric]) -> bool {
        for m in declared {
            if !self.values.contains_key(m.name) {
                self.check(&format!("metric {} was measured", m.name), false);
            }
        }
        let mut entries = String::new();
        for (i, m) in declared.iter().enumerate() {
            let mut v = self.values.get(m.name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                self.check(&format!("metric {} is finite", m.name), false);
                v = 0.0;
            }
            let note = self.notes.get(m.name).map(String::as_str).unwrap_or("");
            println!(
                "{:<30} {:>16} {:<6} {note}",
                m.name,
                format!("{v:.6}"),
                m.unit
            );
            if i > 0 {
                entries.push_str(", ");
            }
            entries.push_str(&format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(v),
                json::quote(m.unit)
            ));
        }
        let correct = self.failed == 0;
        println!(
            "attempted {} failed {} ({:.4} failure share)",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{entries}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}
