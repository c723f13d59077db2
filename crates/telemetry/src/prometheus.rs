//! Prometheus text-exposition rendering for a [`MetricsRegistry`].
//!
//! The registry stores flat label-qualified names (`name{k=v,...}`, see
//! [`labeled`](crate::labeled)); this module parses those back into a
//! base name plus label pairs and renders the standard text exposition
//! format (version 0.0.4):
//!
//! * one `# TYPE` line per metric family, families grouped by base name
//!   and emitted in deterministic (sorted) order — counters first, then
//!   gauges, then histograms;
//! * label values escaped per the exposition rules (`\\`, `\"`, `\n`);
//! * histograms expanded into cumulative `_bucket{le="..."}` series, a
//!   final `le="+Inf"` bucket, `_sum`, and `_count` (the `_sum` of a
//!   histogram rebuilt from pre-bucketed counts is zero — the exact
//!   observations are unknown; see [`Histogram::sum`]).
//!
//! Time series are *not* exposed: they are per-cycle simulator traces
//! that belong to the JSONL/Perfetto exporters, not to a scrape.

use std::collections::BTreeMap;

use crate::metrics::{Histogram, MetricsRegistry};

/// Renders the registry in Prometheus text exposition format. Output is
/// deterministic: byte-identical registries render byte-identically.
pub fn render(registry: &MetricsRegistry) -> String {
    let mut out = String::new();

    let counters = group(registry.counters().iter().map(|(k, v)| (k.as_str(), *v)));
    for (family, rows) in &counters {
        push_type(&mut out, family, "counter");
        for (labels, value) in rows {
            push_sample(&mut out, family, "", labels, &[], &value.to_string());
        }
    }

    let gauges = group(registry.gauges().iter().map(|(k, v)| (k.as_str(), *v)));
    for (family, rows) in &gauges {
        push_type(&mut out, family, "gauge");
        for (labels, value) in rows {
            push_sample(&mut out, family, "", labels, &[], &format_f64(*value));
        }
    }

    let histograms = group(registry.histograms().iter().map(|(k, v)| (k.as_str(), v)));
    for (family, rows) in &histograms {
        push_type(&mut out, family, "histogram");
        for (labels, hist) in rows {
            push_histogram(&mut out, family, labels, hist);
        }
    }

    out
}

/// One metric family's samples: `(label pairs, value)` in registry
/// (sorted-name) order.
type Rows<T> = Vec<(Vec<(String, String)>, T)>;

/// Buckets flat `name{k=v,...}` keys into families keyed by sanitized
/// base name, preserving the registry's sorted order within a family.
fn group<'a, T>(entries: impl Iterator<Item = (&'a str, T)>) -> BTreeMap<String, Rows<T>> {
    let mut families: BTreeMap<String, Rows<T>> = BTreeMap::new();
    for (key, value) in entries {
        let (base, labels) = parse_key(key);
        families.entry(base).or_default().push((labels, value));
    }
    families
}

/// Splits a registry key into its sanitized base name and label pairs.
fn parse_key(key: &str) -> (String, Vec<(String, String)>) {
    let (base, rest) = match key.find('{') {
        Some(idx) => (
            &key[..idx],
            key[idx + 1..].strip_suffix('}').unwrap_or(&key[idx + 1..]),
        ),
        None => (key, ""),
    };
    let mut labels = Vec::new();
    for pair in rest.split(',').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => labels.push((sanitize(k), v.to_string())),
            None => labels.push((sanitize(pair), String::new())),
        }
    }
    (sanitize(base), labels)
}

/// Maps a name onto the exposition-legal alphabet `[a-zA-Z0-9_:]`,
/// replacing anything else with `_` (and prefixing `_` when the name
/// would otherwise start with a digit).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if legal { c } else { '_' });
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats an f64 the way the exposition format expects (`Display`
/// covers finite values; specials get their spec spellings).
fn format_f64(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value.is_infinite() {
        if value > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{value}")
    }
}

fn push_type(out: &mut String, family: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(family);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends one sample line: `family[suffix]{labels,extra} value`.
fn push_sample(
    out: &mut String,
    family: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(family);
    out.push_str(suffix);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Expands one histogram into cumulative buckets + `_sum` + `_count`.
fn push_histogram(out: &mut String, family: &str, labels: &[(String, String)], hist: &Histogram) {
    let mut cumulative = 0u64;
    for (bound, count) in hist.bounds().iter().zip(hist.counts()) {
        cumulative += count;
        let le = bound.to_string();
        push_sample(
            out,
            family,
            "_bucket",
            labels,
            &[("le", &le)],
            &cumulative.to_string(),
        );
    }
    let total = hist.total();
    push_sample(
        out,
        family,
        "_bucket",
        labels,
        &[("le", "+Inf")],
        &total.to_string(),
    );
    push_sample(out, family, "_sum", labels, &[], &hist.sum().to_string());
    push_sample(out, family, "_count", labels, &[], &total.to_string());
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::labeled;

    #[test]
    fn golden_exposition_round_trip() {
        let mut m = MetricsRegistry::new();
        m.add("requests_total", 3);
        m.add(&labeled("requests_total", &[("state", "done")]), 2);
        m.add(&labeled("requests_total", &[("state", "failed")]), 1);
        m.set_gauge("queue_depth", 4.0);
        m.set_gauge(&labeled("share", &[("cluster", "lat")]), 0.25);
        let mut h = Histogram::with_bounds(vec![1, 10]);
        h.observe(0);
        h.observe(5);
        h.observe(7);
        h.observe(100);
        m.merge_histogram("latency_ms", h);

        let text = render(&m);
        let expected = "\
# TYPE requests_total counter
requests_total 3
requests_total{state=\"done\"} 2
requests_total{state=\"failed\"} 1
# TYPE queue_depth gauge
queue_depth 4
# TYPE share gauge
share{cluster=\"lat\"} 0.25
# TYPE latency_ms histogram
latency_ms_bucket{le=\"1\"} 1
latency_ms_bucket{le=\"10\"} 3
latency_ms_bucket{le=\"+Inf\"} 4
latency_ms_sum 112
latency_ms_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut m = MetricsRegistry::new();
        m.add(&labeled("jobs", &[("path", "a\\b\"c\nd")]), 1);
        let text = render(&m);
        assert_eq!(
            text,
            "# TYPE jobs counter\njobs{path=\"a\\\\b\\\"c\\nd\"} 1\n"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let mut m = MetricsRegistry::new();
        let mut h = Histogram::log2(4);
        for v in [0u64, 1, 2, 3, 100] {
            h.observe(v);
        }
        m.merge_histogram(&labeled("depth", &[("mc", "0")]), h);
        let text = render(&m);
        let expected = "\
# TYPE depth histogram
depth_bucket{mc=\"0\",le=\"0\"} 1
depth_bucket{mc=\"0\",le=\"1\"} 2
depth_bucket{mc=\"0\",le=\"3\"} 4
depth_bucket{mc=\"0\",le=\"+Inf\"} 5
depth_sum{mc=\"0\"} 106
depth_count{mc=\"0\"} 5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn ordering_is_deterministic_and_families_group() {
        let mut m = MetricsRegistry::new();
        // Insert in scrambled order; BTreeMap + family grouping must
        // still render sorted, with the bare name ahead of labeled rows
        // even when an unrelated name would sort between them as a raw
        // string ("zz2" < "zz{" byte-wise).
        m.add(&labeled("zz", &[("k", "1")]), 1);
        m.add("zz2", 5);
        m.add("zz", 2);
        m.add("aa", 9);
        let a = render(&m);
        let expected = "\
# TYPE aa counter
aa 9
# TYPE zz counter
zz 2
zz{k=\"1\"} 1
# TYPE zz2 counter
zz2 5
";
        assert_eq!(a, expected);
        assert_eq!(
            a,
            render(&m.clone()),
            "render is a pure function of the registry"
        );
    }

    #[test]
    fn names_are_sanitized_and_series_are_skipped() {
        let mut m = MetricsRegistry::new();
        m.add("bad-name.total", 1);
        m.push_series("bw_share", 100, 0.5);
        let text = render(&m);
        assert_eq!(text, "# TYPE bad_name_total counter\nbad_name_total 1\n");
    }

    #[test]
    fn gauge_specials_use_spec_spellings() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("g", f64::INFINITY);
        assert!(render(&m).contains("g +Inf\n"));
        m.set_gauge("g", f64::NEG_INFINITY);
        assert!(render(&m).contains("g -Inf\n"));
    }
}
