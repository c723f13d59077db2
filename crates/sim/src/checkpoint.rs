//! Incremental sweep checkpointing (see [`Sweep::checkpoint`]).
//!
//! A checkpoint is a JSONL file: one header line naming the grid
//! (policy labels, workload names, seed values, horizon) followed by one
//! line per *completed* cell. Every `f64` is stored as the decimal
//! rendering of its IEEE-754 bit pattern, so a resumed sweep reproduces
//! results **bit-identically** — no decimal round-trip error, NaN and
//! infinity included.
//!
//! Durability: every append rewrites the full buffer to `<path>.tmp` and
//! atomically renames it over `<path>` — fsyncing the temp file before
//! the rename and the parent directory after it — so the file on disk
//! is always a complete, durable prefix of the sweep: a killed process
//! (or lost power) never leaves a torn or stale published checkpoint
//! behind. Loading is tolerant: a missing file or a mismatched
//! header starts fresh, and a trailing partial line (from a pre-rename
//! crash of some other writer) is ignored.
//!
//! The format is an internal detail of [`Sweep::checkpoint`] /
//! `tcm-run --resume`; the grid identity check means a checkpoint can
//! never silently graft results from a different experiment.
//!
//! [`Sweep::checkpoint`]: crate::Sweep::checkpoint

use crate::metrics::WorkloadMetrics;
use crate::runner::EvalResult;
use crate::sweep::SweepCell;
use crate::system::RunResult;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tcm_telemetry::{MetricsRegistry, TelemetrySnapshot};
use tcm_types::json::{self, Value};

/// Schema tag of the only supported checkpoint version.
const SCHEMA: &str = "tcm-sweep-checkpoint-v1";

/// The grid a checkpoint belongs to. Two sweeps may share a checkpoint
/// file only if their headers are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CheckpointHeader {
    /// Policy labels, in sweep order.
    pub policies: Vec<String>,
    /// Workload names, in sweep order.
    pub workloads: Vec<String>,
    /// Seed axis values.
    pub seeds: Vec<u64>,
    /// Simulation horizon in cycles.
    pub horizon: u64,
}

/// A loaded checkpoint: the grid header plus every completed cell.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    pub header: CheckpointHeader,
    pub cells: Vec<SweepCell>,
}

/// Loads the checkpoint at `path`. Returns `Ok(None)` if the file does
/// not exist; unparsable *trailing* cell lines are ignored (a torn
/// write), but a bad header is an error so grid mismatches are loud.
pub(crate) fn load(path: &Path) -> io::Result<Option<Checkpoint>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    let Some(first) = lines.next() else {
        return Ok(None);
    };
    let header = parse_header(first)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad checkpoint header"))?;
    let mut cells = Vec::new();
    for line in lines {
        match parse_cell(line) {
            Some(cell) => cells.push(cell),
            None => break, // torn tail: keep the cells before it
        }
    }
    Ok(Some(Checkpoint { header, cells }))
}

/// Append-only checkpoint writer. Keeps the full serialized file in
/// memory (header first) and atomically republishes it on every append.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    lines: Vec<String>,
}

impl CheckpointWriter {
    /// A writer for `path` starting from `header` and the already-known
    /// `cells` (the resumed prefix). Publishes the initial state
    /// immediately so a fresh sweep leaves a valid header-only file even
    /// if it is killed before the first cell completes.
    pub fn create(
        path: PathBuf,
        header: &CheckpointHeader,
        cells: &[SweepCell],
    ) -> io::Result<Self> {
        let mut lines = Vec::with_capacity(cells.len() + 1);
        lines.push(write_header(header));
        lines.extend(cells.iter().map(write_cell));
        let writer = Self { path, lines };
        writer.publish()?;
        Ok(writer)
    }

    /// Records one completed cell and republishes the file atomically.
    pub fn append(&mut self, cell: &SweepCell) -> io::Result<()> {
        self.lines.push(write_cell(cell));
        self.publish()
    }

    fn publish(&self) -> io::Result<()> {
        let mut buffer = self.lines.join("\n");
        buffer.push('\n');
        write_durable(&self.path, &buffer)
    }
}

/// Writes `contents` to `path` crash-consistently: a `<path>.tmp`
/// sibling, fsync, atomic rename over `path`, fsync of the parent
/// directory. Every durable file the workspace publishes goes through
/// here: sweep checkpoints, stored alone baselines, and the daemon's
/// result and scrape files.
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

fn write_header(header: &CheckpointHeader) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_str(&mut out, SCHEMA);
    out.push_str(",\"policies\":");
    json::write_str_array(&mut out, &header.policies);
    out.push_str(",\"workloads\":");
    json::write_str_array(&mut out, &header.workloads);
    out.push_str(",\"seeds\":");
    json::write_u64_array(&mut out, header.seeds.iter().copied());
    out.push_str(&format!(",\"horizon\":{}}}", header.horizon));
    out
}

fn write_cell(cell: &SweepCell) -> String {
    let r = &cell.result;
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"policy\":{},\"workload\":{},\"seed\":{},\"result\":{{\"policy\":",
        cell.policy, cell.workload, cell.seed
    ));
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
// Parsing. Every reader returns `None` on any malformed input; callers
// decide whether that is a torn tail (ignore) or a bad header (error).
// ---------------------------------------------------------------------

fn parse_header(line: &str) -> Option<CheckpointHeader> {
    let doc = json::parse(line)?;
    if doc.field("schema")?.as_str()? != SCHEMA {
        return None;
    }
    Some(CheckpointHeader {
        policies: doc.field("policies")?.str_array()?,
        workloads: doc.field("workloads")?.str_array()?,
        seeds: doc.field("seeds")?.u64_array()?,
        horizon: doc.field("horizon")?.as_u64()?,
    })
}

fn parse_cell(line: &str) -> Option<SweepCell> {
    let doc = json::parse(line)?;
    let result = doc.field("result")?;
    let metrics = result.field("metrics")?.f64_array()?;
    if metrics.len() != 3 {
        return None;
    }
    let run = result.field("run")?;
    Some(SweepCell {
        policy: doc.field("policy")?.as_u64()? as usize,
        workload: doc.field("workload")?.as_u64()? as usize,
        seed: doc.field("seed")?.as_u64()? as usize,
        result: EvalResult {
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
    })
}

/// Rebuilds the checkpointed metric summary of a telemetry snapshot.
/// Only counters and gauges are persisted (see [`write_cell`]); the
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

    fn sample_cell() -> SweepCell {
        SweepCell {
            policy: 1,
            workload: 2,
            seed: 0,
            result: EvalResult {
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
            },
        }
    }

    fn sample_header() -> CheckpointHeader {
        CheckpointHeader {
            policies: vec!["FR-FCFS".into(), "TCM".into()],
            workloads: vec!["w0".into(), "w1".into(), "w2".into()],
            seeds: vec![0, 7],
            horizon: 60_000,
        }
    }

    /// The committed bytes of a header plus one cell with telemetry.
    /// Any change to them is a checkpoint-format change.
    const GOLDEN: &str = include_str!("../tests/fixtures/checkpoint.jsonl");

    #[test]
    fn writer_output_matches_the_committed_golden() {
        let text = format!("{}\n{}\n", write_header(&sample_header()), write_cell(&sample_cell()));
        assert_eq!(text, GOLDEN);
        let mut lines = GOLDEN.lines();
        assert_eq!(parse_header(lines.next().unwrap()).unwrap(), sample_header());
        let cell = parse_cell(lines.next().unwrap()).unwrap();
        assert_eq!(write_cell(&cell), write_cell(&sample_cell()), "bit-exact round trip");
    }

    #[test]
    fn header_round_trips() {
        let header = sample_header();
        assert_eq!(parse_header(&write_header(&header)).unwrap(), header);
    }

    #[test]
    fn cell_round_trips_bit_exactly_including_nan_and_infinity() {
        let cell = sample_cell();
        let parsed = parse_cell(&write_cell(&cell)).unwrap();
        // PartialEq fails on NaN by design; compare bit patterns.
        assert_eq!(
            parsed.result.metrics.harmonic_speedup.to_bits(),
            cell.result.metrics.harmonic_speedup.to_bits()
        );
        assert_eq!(parsed.result.metrics.max_slowdown, f64::INFINITY);
        assert_eq!(parsed.result.slowdowns[2].to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            parsed.result.run.row_hit_rate.to_bits(),
            cell.result.run.row_hit_rate.to_bits()
        );
        assert_eq!(parsed.result.workload, cell.result.workload);
        assert_eq!(parsed.result.run.retired, cell.result.run.retired);
        assert_eq!((parsed.policy, parsed.workload, parsed.seed), (1, 2, 0));
        let telemetry = parsed.result.telemetry.as_ref().unwrap();
        assert_eq!(
            telemetry.metrics.counters().get("requests_serviced"),
            Some(&42)
        );
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
    fn torn_tail_is_ignored_but_header_errors_are_loud() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tcm-ckpt-test-{}.jsonl", std::process::id()));
        let header = sample_header();
        let mut text = write_header(&header);
        text.push('\n');
        text.push_str(&write_cell(&sample_cell()));
        text.push('\n');
        text.push_str("{\"policy\":1,\"work"); // torn mid-write
        fs::write(&path, &text).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.header, header);
        assert_eq!(loaded.cells.len(), 1, "torn tail dropped");

        fs::write(&path, "{\"schema\":\"something-else\"}\n").unwrap();
        assert!(load(&path).is_err(), "wrong schema must not load silently");
        fs::remove_file(&path).unwrap();
        assert!(load(&path).unwrap().is_none(), "missing file starts fresh");
    }

    #[test]
    fn writer_publishes_atomically_and_appends() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tcm-ckpt-writer-{}.jsonl", std::process::id()));
        let header = sample_header();
        let mut writer = CheckpointWriter::create(path.clone(), &header, &[]).unwrap();
        let after_create = load(&path).unwrap().unwrap();
        assert!(after_create.cells.is_empty(), "header-only file is valid");
        writer.append(&sample_cell()).unwrap();
        writer.append(&sample_cell()).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.cells.len(), 2);
        fs::remove_file(&path).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, truncations and single-bit flips of a valid
        /// checkpoint load as a header plus a prefix of its cells, load
        /// as nothing, or fail on the header; loading never panics.
        #[test]
        fn corrupted_files_load_or_are_refused(
            bytes in proptest::collection::vec(any::<u8>(), 0..128),
            cut in 0..GOLDEN.len(),
            bit in 0..GOLDEN.len() * 8,
        ) {
            let path = std::env::temp_dir()
                .join(format!("tcm-ckpt-props-{}.jsonl", std::process::id()));
            let mut flipped = GOLDEN.as_bytes().to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            for text in [&bytes[..], &flipped] {
                fs::write(&path, text).unwrap();
                if let Ok(Some(loaded)) = load(&path) {
                    prop_assert!(loaded.cells.len() <= 1);
                }
            }
            fs::write(&path, &GOLDEN[..cut]).unwrap();
            let header_end = GOLDEN.find('\n').unwrap();
            match load(&path) {
                Ok(None) => prop_assert_eq!(cut, 0),
                Err(_) => prop_assert!(cut < header_end),
                Ok(Some(loaded)) => {
                    prop_assert_eq!(loaded.header, sample_header());
                    prop_assert_eq!(loaded.cells.len(), usize::from(cut == GOLDEN.len() - 1));
                }
            }
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn cells_with_wrongly_typed_fields_are_rejected() {
        let cell = GOLDEN.lines().nth(1).unwrap();
        assert!(parse_cell(cell).is_some());
        let boolean = cell.replace("\"cycles\":60000", "\"cycles\":true");
        assert!(parse_cell(&boolean).is_none(), "booleans are not counts");
        let nested = cell.replace("\"spilled\":7", "\"spilled\":[7]");
        assert!(parse_cell(&nested).is_none());
    }
}
