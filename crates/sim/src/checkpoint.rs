//! Incremental sweep checkpointing (see [`Sweep::checkpoint`]).
//!
//! A checkpoint is a JSONL file with one line per *completed* cell:
//! `{"key":"<cell key>","result":{...}}`. The key is the `{:?}` text of
//! the cell's `CellKey` (`sweep.rs`), which holds everything that can
//! change the cell's result: machine, horizon, policy and parameters,
//! workload, seed, weights, verify, fault plan and telemetry. A sweep
//! resumes exactly the cells whose key it computes itself, so a
//! checkpoint can never graft a result simulated under another
//! configuration, whatever grid wrote it. Every `f64` is stored as the
//! decimal rendering of its IEEE-754 bit pattern, so a resumed cell is
//! **bit-identical** — no decimal round-trip error, NaN and infinity
//! included.
//!
//! Durability: the checkpoint is an [`AppendLog`] without a header.
//! Each completed cell is appended as one line and fsynced before the
//! cell reports done, so a crash (a killed process, lost power) loses at
//! most the cells in flight and a torn last line, which the next open
//! cuts off. Entries of other grids stay in the file: their keys never
//! match a cell simulated differently. A file of the older header-first
//! format opens as no entries, and is cut back to empty.
//!
//! The format is an internal detail of [`Sweep::checkpoint`] /
//! `tcm-run --resume`.
//!
//! [`Sweep::checkpoint`]: crate::Sweep::checkpoint

use crate::durable::AppendLog;
use crate::metrics::WorkloadMetrics;
use crate::runner::EvalResult;
use crate::machine::RunResult;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use tcm_telemetry::{MetricsRegistry, TelemetrySnapshot};
use tcm_types::json::{self, Value};

/// Opens (or creates) the checkpoint at `path` for appending
/// [`write_entry`] lines, with its stored entries as cell key text to
/// result.
pub(crate) fn open(path: &Path) -> io::Result<(AppendLog, HashMap<String, EvalResult>)> {
    let (log, entries) = AppendLog::open(path, None, parse_entry)?;
    Ok((log, entries.into_iter().collect()))
}

// ---------------------------------------------------------------------
// Serialization, through the workspace codec. All floats travel as
// `f64::to_bits` integers.
// ---------------------------------------------------------------------

fn write_f64_array(out: &mut String, values: &[f64]) {
    json::write_u64_array(out, values.iter().map(|v| v.to_bits()));
}

pub(crate) fn write_entry(key: &str, r: &EvalResult) -> String {
    let mut out = String::from("{\"key\":");
    json::write_str(&mut out, key);
    out.push_str(",\"result\":{\"policy\":");
    json::write_str(&mut out, &r.policy);
    out.push_str(",\"workload\":");
    json::write_str(&mut out, &r.workload);
    out.push_str(",\"metrics\":");
    write_f64_array(
        &mut out,
        &[
            r.metrics.weighted_speedup,
            r.metrics.harmonic_speedup,
            r.metrics.max_slowdown,
        ],
    );
    out.push_str(",\"slowdowns\":");
    write_f64_array(&mut out, &r.slowdowns);
    out.push_str(",\"speedups\":");
    write_f64_array(&mut out, &r.speedups);
    let run = &r.run;
    out.push_str(&format!(",\"run\":{{\"cycles\":{},\"retired\":", run.cycles));
    json::write_u64_array(&mut out, run.retired.iter().copied());
    out.push_str(",\"ipc\":");
    write_f64_array(&mut out, &run.ipc);
    out.push_str(",\"misses\":");
    json::write_u64_array(&mut out, run.misses.iter().copied());
    out.push_str(",\"service\":");
    json::write_u64_array(&mut out, run.service.iter().copied());
    out.push_str(&format!(
        ",\"total_serviced\":{},\"row_hit_rate\":{},\"spilled\":{},\"peak_queue\":{}}}",
        run.total_serviced,
        run.row_hit_rate.to_bits(),
        run.spilled,
        run.peak_queue
    ));
    // Only the metric *summary* (counters + gauges) of a telemetry
    // snapshot is checkpointed; the event log and histogram/series data
    // are run artifacts, not resumable state. A resumed cell therefore
    // carries an empty event log — documented on `RunConfig::telemetry`.
    if let Some(snapshot) = &r.telemetry {
        let metrics = &snapshot.metrics;
        out.push_str(",\"telemetry\":{\"counters\":{");
        for (i, (name, value)) in metrics.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in metrics.gauges().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push_str(&format!(":{}", value.to_bits()));
        }
        out.push_str("}}");
    }
    out.push_str("}}");
    out
}

// ---------------------------------------------------------------------
// Parsing. Every reader returns `None` on any malformed input.
// ---------------------------------------------------------------------

/// One checkpoint line's cell key text and result; `None` when the
/// line does not parse as an entry.
pub fn parse_entry(line: &str) -> Option<(String, EvalResult)> {
    let doc = json::parse(line)?;
    let key = doc.field("key")?.as_str()?.to_string();
    let result = doc.field("result")?;
    let metrics = result.field("metrics")?.f64_array()?;
    if metrics.len() != 3 {
        return None;
    }
    let run = result.field("run")?;
    Some((
        key,
        EvalResult {
            policy: result.field("policy")?.as_str()?.to_string(),
            workload: result.field("workload")?.as_str()?.to_string(),
            metrics: WorkloadMetrics {
                weighted_speedup: metrics[0],
                harmonic_speedup: metrics[1],
                max_slowdown: metrics[2],
            },
            slowdowns: result.field("slowdowns")?.f64_array()?,
            speedups: result.field("speedups")?.f64_array()?,
            run: RunResult {
                cycles: run.field("cycles")?.as_u64()?,
                retired: run.field("retired")?.u64_array()?,
                ipc: run.field("ipc")?.f64_array()?,
                misses: run.field("misses")?.u64_array()?,
                service: run.field("service")?.u64_array()?,
                total_serviced: run.field("total_serviced")?.as_u64()?,
                row_hit_rate: f64::from_bits(run.field("row_hit_rate")?.as_u64()?),
                spilled: run.field("spilled")?.as_u64()?,
                peak_queue: run.field("peak_queue")?.as_u64()? as usize,
            },
            telemetry: match result.field("telemetry") {
                Some(t) => Some(Box::new(parse_telemetry(t)?)),
                None => None,
            },
        },
    ))
}

/// Rebuilds the checkpointed metric summary of a telemetry snapshot.
/// Only counters and gauges are persisted (see [`write_entry`]); the
/// event log comes back empty.
fn parse_telemetry(v: &Value) -> Option<TelemetrySnapshot> {
    let mut metrics = MetricsRegistry::default();
    for (name, value) in v.field("counters")?.as_obj()? {
        metrics.set_counter(name, value.as_u64()?);
    }
    for (name, value) in v.field("gauges")?.as_obj()? {
        metrics.set_gauge(name, f64::from_bits(value.as_u64()?));
    }
    Some(TelemetrySnapshot {
        events: Vec::new(),
        dropped: 0,
        metrics,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;

    fn sample_result() -> EvalResult {
        EvalResult {
            policy: "TCM".into(),
            workload: "w \"quoted\" \\slash\u{7}".into(),
            metrics: WorkloadMetrics {
                weighted_speedup: 3.25,
                harmonic_speedup: f64::NAN,
                max_slowdown: f64::INFINITY,
            },
            slowdowns: vec![1.5, 2.5, -0.0],
            speedups: vec![0.1, 0.9],
            run: RunResult {
                cycles: 60_000,
                retired: vec![1, 2, u64::MAX],
                ipc: vec![0.25, 3.0],
                misses: vec![10, 20],
                service: vec![100, 200],
                total_serviced: 42,
                row_hit_rate: 0.123_456_789_012_345_67,
                spilled: 7,
                peak_queue: 99,
            },
            telemetry: Some(Box::new({
                let mut snapshot = TelemetrySnapshot::default();
                snapshot.metrics.set_counter("requests_serviced", 42);
                snapshot
                    .metrics
                    .set_gauge("row_hit_rate", 0.123_456_789_012_345_67);
                snapshot
            })),
        }
    }

    /// The two entries of the committed golden: the sample result with
    /// telemetry, then the same result without it under another key.
    fn sample_entries() -> [(&'static str, EvalResult); 2] {
        let plain = EvalResult {
            telemetry: None,
            ..sample_result()
        };
        [
            ("CellKey { workload: \"w0\", seed: 0 }", sample_result()),
            ("CellKey { workload: \"w0\", seed: 7 }", plain),
        ]
    }

    /// The committed bytes of the two sample entries. Any change to
    /// them is a checkpoint-format change.
    const GOLDEN: &str = include_str!("../tests/fixtures/checkpoint.jsonl");

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tcm-ckpt-{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn writer_output_matches_the_committed_golden() {
        let text: String = sample_entries()
            .iter()
            .map(|(key, result)| format!("{}\n", write_entry(key, result)))
            .collect();
        assert_eq!(text, GOLDEN);
        for (line, (key, result)) in GOLDEN.lines().zip(sample_entries()) {
            let (parsed_key, parsed) = parse_entry(line).unwrap();
            assert_eq!(parsed_key, key);
            assert_eq!(
                write_entry(&parsed_key, &parsed),
                write_entry(key, &result),
                "bit-exact round trip"
            );
        }
    }

    #[test]
    fn cell_round_trips_bit_exactly_including_nan_and_infinity() {
        let result = sample_result();
        let (key, parsed) = parse_entry(&write_entry("k \"1\"", &result)).unwrap();
        assert_eq!(key, "k \"1\"");
        // PartialEq fails on NaN by design; compare bit patterns.
        assert_eq!(
            parsed.metrics.harmonic_speedup.to_bits(),
            result.metrics.harmonic_speedup.to_bits()
        );
        assert_eq!(parsed.metrics.max_slowdown, f64::INFINITY);
        assert_eq!(parsed.slowdowns[2].to_bits(), (-0.0f64).to_bits());
        assert_eq!(parsed.run.row_hit_rate.to_bits(), result.run.row_hit_rate.to_bits());
        assert_eq!(parsed.workload, result.workload);
        assert_eq!(parsed.run.retired, result.run.retired);
        let telemetry = parsed.telemetry.as_ref().unwrap();
        assert_eq!(telemetry.metrics.counters().get("requests_serviced"), Some(&42));
        assert_eq!(
            telemetry
                .metrics
                .gauges()
                .get("row_hit_rate")
                .map(|v| v.to_bits()),
            Some(0.123_456_789_012_345_67f64.to_bits()),
            "gauges round-trip bit-exactly"
        );
        assert!(telemetry.events.is_empty(), "event logs are not persisted");
    }

    /// The entries `path` opens with (cutting off what they do not
    /// cover).
    fn load(path: &Path) -> HashMap<String, EvalResult> {
        open(path).unwrap().1
    }

    #[test]
    fn torn_tail_is_ignored_and_header_first_files_load_nothing() {
        let path = scratch("torn");
        let mut text = GOLDEN.lines().next().unwrap().to_string();
        text.push_str("\n{\"key\":\"CellKey { wor"); // torn mid-write
        fs::write(&path, &text).unwrap();
        let loaded = load(&path);
        assert_eq!(loaded.len(), 1, "torn tail dropped");
        assert!(loaded.contains_key(sample_entries()[0].0));

        // The older format: a grid header, then cells named by grid index.
        let v1 = "{\"schema\":\"tcm-sweep-checkpoint-v1\",\"policies\":[\"TCM\"],\
                  \"workloads\":[\"w0\"],\"seeds\":[0],\"horizon\":60000}\n";
        fs::write(&path, format!("{v1}{GOLDEN}")).unwrap();
        assert!(load(&path).is_empty(), "a header-first file resumes nothing");
        fs::remove_file(&path).unwrap();
        assert!(load(&path).is_empty(), "missing file starts fresh");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_creates_appends_and_reopens_verbatim() {
        let path = scratch("writer");
        let _ = fs::remove_file(&path);
        let (mut log, loaded) = open(&path).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(fs::read_to_string(&path).unwrap(), "", "nothing resumed: an empty file");
        for (key, result) in &sample_entries() {
            log.append(&write_entry(key, result)).unwrap();
        }
        assert_eq!(fs::read_to_string(&path).unwrap(), GOLDEN);
        let loaded = load(&path);
        for (key, result) in &sample_entries() {
            assert_eq!(write_entry(key, &loaded[*key]), write_entry(key, result));
        }
        assert_eq!(fs::read_to_string(&path).unwrap(), GOLDEN, "opening rewrites nothing");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn each_append_adds_one_line_and_a_torn_last_line_loses_only_itself() {
        let path = scratch("append");
        let _ = fs::remove_file(&path);
        let (mut log, _) = open(&path).unwrap();
        let keys: Vec<String> = (0..5).map(|seed| format!("CellKey {{ seed: {seed} }}")).collect();
        for (n, key) in keys.iter().enumerate() {
            log.append(&write_entry(key, &sample_result())).unwrap();
            let text = fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), n + 1, "one line per appended cell");
            assert!(text.ends_with('\n'));
        }
        drop(log);
        // A crash mid-append: the last line is cut short.
        let text = fs::read_to_string(&path).unwrap();
        let last = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        fs::write(&path, &text[..last + (text.len() - last) / 2]).unwrap();
        let loaded = load(&path);
        assert_eq!(loaded.len(), keys.len() - 1);
        assert!(keys[..keys.len() - 1].iter().all(|key| loaded.contains_key(key)));
        assert_eq!(fs::read_to_string(&path).unwrap(), text[..last], "cut to the whole lines");
        fs::remove_file(&path).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes and single-bit flips of a valid checkpoint
        /// load without panicking, and a cut of it loads exactly the
        /// entries whose line it keeps whole, newline included.
        #[test]
        fn corrupted_files_load_or_are_refused(
            bytes in proptest::collection::vec(any::<u8>(), 0..128),
            cut in 0..GOLDEN.len() + 1,
            bit in 0..GOLDEN.len() * 8,
        ) {
            let path = scratch("props");
            let mut flipped = GOLDEN.as_bytes().to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            for text in [&bytes[..], &flipped] {
                fs::write(&path, text).unwrap();
                prop_assert!(load(&path).len() <= 2);
            }
            fs::write(&path, &GOLDEN[..cut]).unwrap();
            let loaded = load(&path);
            let whole = GOLDEN
                .lines()
                .scan(0, |end, line| {
                    *end += line.len() + 1;
                    Some(*end - 1)
                })
                .filter(|&newline| newline < cut)
                .count();
            prop_assert_eq!(loaded.len(), whole);
            for (key, result) in sample_entries().iter().take(whole) {
                prop_assert_eq!(write_entry(key, &loaded[*key]), write_entry(key, result));
            }
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn cells_with_wrongly_typed_fields_are_rejected() {
        let entry = GOLDEN.lines().next().unwrap();
        assert!(parse_entry(entry).is_some());
        let boolean = entry.replace("\"cycles\":60000", "\"cycles\":true");
        assert!(parse_entry(&boolean).is_none(), "booleans are not counts");
        let nested = entry.replace("\"spilled\":7", "\"spilled\":[7]");
        assert!(parse_entry(&nested).is_none());
        let key = "{\"key\":\"CellKey { workload: \\\"w0\\\", seed: 0 }\"";
        let unkeyed = entry.replace(key, "{\"key\":0");
        assert_ne!(unkeyed, entry);
        assert!(parse_entry(&unkeyed).is_none(), "a key is text");
    }
}
