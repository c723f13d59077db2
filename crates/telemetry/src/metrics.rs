//! A small metrics registry: counters, gauges, fixed-bucket histograms
//! and time series, keyed by flat label-qualified names.
//!
//! Names follow the Prometheus-style `name{key=value,...}` convention
//! (see [`labeled`]); the registry itself treats them as opaque strings,
//! stored in `BTreeMap`s so iteration order — and therefore every
//! export — is deterministic.

use std::collections::BTreeMap;

/// Formats a label-qualified metric name: `name{k=v,k2=v2}` (or just
/// `name` when `labels` is empty). Keys and values are used verbatim;
/// keep them free of `{`, `}`, `,` and `=`.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `<= bounds[i]` (and greater than the
/// previous bound); the final slot counts overflow past the last bound,
/// so `counts.len() == bounds.len() + 1`. Alongside the buckets the
/// histogram tracks the running sum of observed values (for
/// Prometheus-style `_sum` exposition); histograms reconstructed from
/// pre-bucketed counts have an unknown sum, reported as zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
}

impl Histogram {
    /// A histogram with explicit ascending upper bounds.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            sum: 0,
        }
    }

    /// A power-of-two histogram matching log2 bucketing: with `slots`
    /// total slots, bucket 0 holds value 0, bucket `k` (1-based) holds
    /// values in `[2^(k-1), 2^k - 1]`, and the final slot overflows.
    pub fn log2(slots: usize) -> Self {
        assert!(slots >= 2, "need at least one bound plus overflow");
        // Bounds [0, 1, 3, 7, ...]: slot k's bound is 2^k - 1.
        let bounds = (0..slots - 1).map(|i| (1u64 << i) - 1).collect();
        Self::with_bounds(bounds)
    }

    /// Reconstructs a log2 histogram from pre-bucketed counts (bucket =
    /// bit-length of the value, overflow in the last slot) — the layout
    /// `tcm-dram`'s always-on queue-depth counters use.
    pub fn from_log2_counts(counts: &[u64]) -> Self {
        let mut h = Self::log2(counts.len().max(2));
        let last = h.counts.len() - 1;
        for (slot, &c) in counts.iter().enumerate() {
            h.counts[slot.min(last)] += c;
        }
        h
    }

    /// Rebuilds a histogram from exported parts. Returns `None` when the
    /// shapes disagree. The sum of observations is unknown and reported
    /// as zero.
    pub fn from_parts(bounds: Vec<u64>, counts: Vec<u64>) -> Option<Self> {
        if counts.len() != bounds.len() + 1 {
            return None;
        }
        Some(Self {
            bounds,
            counts,
            sum: 0,
        })
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Upper bounds, ascending (exclusive of the overflow slot).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final slot is overflow.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Running sum of observed values (zero for histograms rebuilt from
    /// pre-bucketed counts, whose exact observations are unknown).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Folds another histogram with identical bounds into this one.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "histogram shapes must match");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// Counters, gauges, histograms and `(cycle, value)` series under flat
/// string names. Deterministic iteration (sorted by name).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.entry_counter(name) += delta;
    }

    /// Sets a counter to an absolute value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        *self.entry_counter(name) = value;
    }

    fn entry_counter(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), 0);
        }
        self.counters.get_mut(name).expect("just inserted")
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into a histogram, creating it with
    /// 12-slot log2 bounds on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), Histogram::log2(12));
        }
        self.histograms
            .get_mut(name)
            .expect("just inserted")
            .observe(value);
    }

    /// Installs (or merges into an existing, identically-shaped) whole
    /// histogram under `name`.
    pub fn merge_histogram(&mut self, name: &str, hist: Histogram) {
        match self.histograms.get_mut(name) {
            Some(existing) => existing.merge(&hist),
            None => {
                self.histograms.insert(name.to_string(), hist);
            }
        }
    }

    /// Appends one `(cycle, value)` point to a series.
    pub fn push_series(&mut self, name: &str, at: u64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push((at, value));
    }

    /// A counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge's value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// A series' points, if present.
    pub fn series(&self, name: &str) -> Option<&[(u64, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// All series, sorted by name.
    pub fn all_series(&self) -> &BTreeMap<String, Vec<(u64, f64)>> {
        &self.series
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// A compact, wire-friendly digest of the registry: every counter
    /// verbatim plus every gauge as its IEEE-754 bit pattern, both in
    /// name order. The shape the `tcm-serve` daemon streams to
    /// subscribed clients as `TelemetrySummary` events — integers only,
    /// so the digest survives any JSON round trip bit-identically.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauge_bits: self
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect(),
        }
    }
}

/// Wire-friendly registry digest (see [`MetricsRegistry::summary`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSummary {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, f64::to_bits(value))` gauge pairs, sorted by name.
    pub gauge_bits: Vec<(String, u64)>,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn labels_format_prometheus_style() {
        assert_eq!(labeled("row_hits", &[]), "row_hits");
        assert_eq!(
            labeled("row_hits", &[("channel", "0"), ("bank", "3")]),
            "row_hits{channel=0,bank=3}"
        );
    }

    #[test]
    fn log2_histogram_buckets_by_bit_length() {
        let mut h = Histogram::log2(12);
        assert_eq!(h.bounds(), &[0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023]);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, 5000] {
            h.observe(v);
        }
        // value 0 -> slot 0; 1 -> 1; 2,3 -> 2; 4..7 -> 3; 8 -> 4;
        // 1023 -> 10; 1024+ -> overflow slot 11.
        assert_eq!(h.counts(), &[1, 1, 2, 2, 1, 0, 0, 0, 0, 0, 1, 2]);
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn from_log2_counts_matches_observe() {
        let mut by_observe = Histogram::log2(12);
        let mut raw = [0u64; 12];
        for depth in [0u64, 1, 5, 64, 2000] {
            by_observe.observe(depth);
            let slot = (64 - depth.leading_zeros()).min(11) as usize;
            raw[slot] += 1;
        }
        let rebuilt = Histogram::from_log2_counts(&raw);
        assert_eq!(rebuilt.bounds(), by_observe.bounds());
        assert_eq!(rebuilt.counts(), by_observe.counts());
        // The exact observations are gone after pre-bucketing; only
        // `observe` can track the running sum.
        assert_eq!(rebuilt.sum(), 0);
        assert_eq!(by_observe.sum(), 2070);
    }

    #[test]
    fn parts_round_trip_and_reject_shape_mismatch() {
        let mut h = Histogram::with_bounds(vec![10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5000);
        let rebuilt = Histogram::from_parts(h.bounds().to_vec(), h.counts().to_vec()).unwrap();
        assert_eq!(rebuilt.bounds(), h.bounds());
        assert_eq!(rebuilt.counts(), h.counts());
        assert_eq!(rebuilt.sum(), 0, "parts carry no sum");
        assert_eq!(h.sum(), 5055);
        assert!(Histogram::from_parts(vec![1, 2], vec![0]).is_none());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::log2(4);
        let mut b = Histogram::log2(4);
        a.observe(1);
        b.observe(1);
        b.observe(100);
        a.merge(&b);
        assert_eq!(a.counts(), &[0, 2, 0, 1]);
    }

    #[test]
    fn registry_records_all_four_kinds() {
        let mut m = MetricsRegistry::new();
        m.add("serviced", 3);
        m.add("serviced", 4);
        m.set_counter("spilled", 9);
        m.set_gauge("row_hit_rate", 0.75);
        m.observe("queue_depth", 6);
        m.push_series("bw_share", 1_000_000, 0.5);
        m.push_series("bw_share", 2_000_000, 0.25);
        assert_eq!(m.counter("serviced"), Some(7));
        assert_eq!(m.counter("spilled"), Some(9));
        assert_eq!(m.gauge("row_hit_rate"), Some(0.75));
        assert_eq!(m.histogram("queue_depth").unwrap().total(), 1);
        assert_eq!(
            m.series("bw_share").unwrap(),
            &[(1_000_000, 0.5), (2_000_000, 0.25)]
        );
        assert!(!m.is_empty());
        assert!(MetricsRegistry::new().is_empty());
    }
}
