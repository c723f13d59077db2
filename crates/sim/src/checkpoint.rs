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
//! Durability: [`CheckpointWriter::create`] publishes the resumed
//! entries atomically through [`write_durable`], so a stale file from
//! another sweep is replaced whole or not at all. Each completed cell is
//! then appended as one line to the open file and fsynced before the
//! cell reports done. A crash (a killed process, lost power) mid-append
//! can leave at most a torn last line, and loading is tolerant of
//! exactly that: a missing file loads nothing, and entries are read up
//! to the first line that does not parse — the torn tail is dropped and
//! the next `create` republishes without it. A file of the older
//! header-first format loads as no entries at all.
//!
//! The format is an internal detail of [`Sweep::checkpoint`] /
//! `tcm-run --resume`.
//!
//! [`Sweep::checkpoint`]: crate::Sweep::checkpoint

use crate::metrics::WorkloadMetrics;
use crate::runner::EvalResult;
use crate::machine::RunResult;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tcm_telemetry::{MetricsRegistry, TelemetrySnapshot};
use tcm_types::json::{self, Value};

/// Loads the entries of the checkpoint at `path`, as cell key text to
/// result. A missing file loads nothing; reading stops at the first
/// line that does not parse (a torn write), keeping the entries before
/// it.
pub(crate) fn load(path: &Path) -> io::Result<HashMap<String, EvalResult>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    Ok(text.lines().map_while(parse_entry).collect())
}

/// Append-only checkpoint writer: one atomic publish of the resumed
/// entries, then one fsynced line per completed cell.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    file: fs::File,
}

impl CheckpointWriter {
    /// A writer for `path` starting from the already-known `entries`
    /// (the resumed cells). Publishes them immediately and atomically,
    /// so a stale file from another sweep is replaced even if this one
    /// is killed before its first cell completes.
    pub fn create<'e>(
        path: PathBuf,
        entries: impl IntoIterator<Item = (&'e str, &'e EvalResult)>,
    ) -> io::Result<Self> {
        let text: String = entries
            .into_iter()
            .map(|(key, result)| write_entry(key, result) + "\n")
            .collect();
        write_durable(&path, &text)?;
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        Ok(Self { file })
    }

    /// Appends one completed cell under its key text and fsyncs it. A
    /// crash mid-write leaves a torn last line, which [`load`] drops.
    pub fn append(&mut self, key: &str, result: &EvalResult) -> io::Result<()> {
        use std::io::Write;
        let line = write_entry(key, result) + "\n";
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// Writes `contents` to `path` crash-consistently: a `<path>.tmp`
/// sibling, fsync, atomic rename over `path`, fsync of the parent
/// directory. Every durable file the workspace publishes whole goes
/// through here: stored alone baselines, the daemon's result and scrape
/// files, and a sweep checkpoint's resumed entries when it is created.
/// A checkpoint's later cells are appended in place instead, one
/// fsynced line each; its torn-tail loading rule covers a crash
/// mid-append.
pub fn write_durable(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    // Fsync the temp file *before* the rename (so the rename can never
    // install a file whose data is still in the page cache) and the
    // parent directory *after* it (so the rename itself — a directory
    // mutation — is durable). Without both, power loss or SIGKILL in
    // the window between write and rename can surface a stale or torn
    // file on restart.
    {
        use std::io::Write;
        let mut file = fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

// ---------------------------------------------------------------------
// Serialization, through the workspace codec. All floats travel as
// `f64::to_bits` integers.
// ---------------------------------------------------------------------

fn write_f64_array(out: &mut String, values: &[f64]) {
    json::write_u64_array(out, values.iter().map(|v| v.to_bits()));
}

fn write_entry(key: &str, r: &EvalResult) -> String {
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

fn parse_entry(line: &str) -> Option<(String, EvalResult)> {
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

    #[test]
    fn torn_tail_is_ignored_and_header_first_files_load_nothing() {
        let path = scratch("torn");
        let mut text = GOLDEN.lines().next().unwrap().to_string();
        text.push_str("\n{\"key\":\"CellKey { wor"); // torn mid-write
        fs::write(&path, &text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1, "torn tail dropped");
        assert!(loaded.contains_key(sample_entries()[0].0));

        // The older format: a grid header, then cells named by grid index.
        let v1 = "{\"schema\":\"tcm-sweep-checkpoint-v1\",\"policies\":[\"TCM\"],\
                  \"workloads\":[\"w0\"],\"seeds\":[0],\"horizon\":60000}\n";
        fs::write(&path, format!("{v1}{GOLDEN}")).unwrap();
        assert!(load(&path).unwrap().is_empty(), "a header-first file resumes nothing");
        fs::remove_file(&path).unwrap();
        assert!(load(&path).unwrap().is_empty(), "missing file starts fresh");
    }

    #[test]
    fn writer_publishes_atomically_and_appends() {
        let path = scratch("writer");
        let mut writer = CheckpointWriter::create(path.clone(), []).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "", "nothing resumed: an empty file");
        for (key, result) in &sample_entries() {
            writer.append(key, result).unwrap();
        }
        assert_eq!(fs::read_to_string(&path).unwrap(), GOLDEN);
        let loaded = load(&path).unwrap();
        let reopened = CheckpointWriter::create(
            path.clone(),
            sample_entries().iter().map(|(key, _)| (*key, &loaded[*key])),
        );
        drop(reopened.unwrap());
        let republished = fs::read_to_string(&path).unwrap();
        assert_eq!(republished, GOLDEN, "resumed entries republish verbatim");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn each_append_adds_one_line_and_a_torn_last_line_loses_only_itself() {
        let path = scratch("append");
        let mut writer = CheckpointWriter::create(path.clone(), []).unwrap();
        let keys: Vec<String> = (0..5).map(|seed| format!("CellKey {{ seed: {seed} }}")).collect();
        for (n, key) in keys.iter().enumerate() {
            writer.append(key, &sample_result()).unwrap();
            let text = fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), n + 1, "one line per appended cell");
            assert!(text.ends_with('\n'));
        }
        drop(writer);
        // A crash mid-append: the last line is cut short.
        let text = fs::read_to_string(&path).unwrap();
        let last = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        fs::write(&path, &text[..last + (text.len() - last) / 2]).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), keys.len() - 1);
        assert!(keys[..keys.len() - 1].iter().all(|key| loaded.contains_key(key)));
        fs::remove_file(&path).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes and single-bit flips of a valid checkpoint
        /// load without panicking, and a cut of it loads exactly the
        /// entries whose line it keeps whole.
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
                if let Ok(loaded) = load(&path) {
                    prop_assert!(loaded.len() <= 2);
                }
            }
            fs::write(&path, &GOLDEN[..cut]).unwrap();
            let loaded = load(&path).unwrap();
            let whole = GOLDEN
                .lines()
                .scan(0, |end, line| {
                    *end += line.len() + 1;
                    Some(*end - 1)
                })
                .filter(|&end| end <= cut)
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
