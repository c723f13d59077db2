//! The daemon's durable formats pinned byte for byte (`tcm-serve-wal-v1`
//! and `tcm-serve-result-v1`), and WAL replay driven with arbitrary
//! bytes, truncations and bit flips of a valid log: replay returns the
//! jobs of its durable prefix or an error, and never panics. The same
//! inputs drive the append-log rule every durable parser shares, with
//! the WAL op, checkpoint entry and stored alone-baseline parsers.

use proptest::prelude::*;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use tcm_proto::{JobKind, JobSpec, JobState, SoakSpec, SweepSpec, WorkloadRef};
use tcm_serve::job::{render_result, resolve_sweep};
use tcm_serve::wal::parse_op;
use tcm_serve::{ReplayedJob, Wal};
use tcm_sim::durable::AppendLog;
use tcm_sim::{parse_alone_entry, parse_checkpoint_entry, render_alone_entry, RunConfig, Session};
use tcm_types::{json, SystemConfig};

/// A header plus every op kind, as the WAL stores them. Written by the
/// daemon before its WAL became an `AppendLog`; the test below pins that
/// today's daemon writes the same bytes.
const GOLDEN_WAL: &str = include_str!("fixtures/wal.jsonl");

/// Two sweep checkpoint entries, as `tcm-sim` stores them.
const GOLDEN_CHECKPOINT: &str = include_str!("../../sim/tests/fixtures/checkpoint.jsonl");

/// The result document of [`small_grid`].
const GOLDEN_RESULT: &str = include_str!("fixtures/result.json");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcm-formats-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("wal.jsonl")
}

fn sweep() -> JobSpec {
    JobSpec {
        priority: 3,
        deadline_ms: Some(60_000),
        max_attempts: 2,
        kind: JobKind::Sweep(SweepSpec {
            policies: vec!["fr-fcfs".into(), "tcm".into()],
            workloads: vec![
                WorkloadRef::Named("B".into()),
                WorkloadRef::Random {
                    seed: 5,
                    threads: 4,
                    intensity_bits: 0.75f64.to_bits(),
                },
            ],
            seeds: vec![0, 17],
            horizon: 30_000_000,
            topology: Some("2x2".into()),
            telemetry: true,
        }),
    }
}

fn soak() -> JobSpec {
    JobSpec {
        priority: 1,
        deadline_ms: None,
        max_attempts: 2,
        kind: JobKind::ChaosSoak(SoakSpec {
            seed: 9,
            rounds: 1,
            horizon: 10_000,
        }),
    }
}

/// Replays `text` as a WAL file; `None` when replay refuses it.
fn replay(path: &Path, text: &[u8]) -> Option<(Vec<ReplayedJob>, u64)> {
    std::fs::write(path, text).unwrap();
    let (wal, jobs) = Wal::open(path).ok()?;
    Some((jobs, wal.stats().truncated_bytes))
}

#[test]
fn wal_matches_the_committed_golden() {
    let path = scratch("golden");
    {
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.submit(1, 0, &sweep()).unwrap();
        wal.submit(2, 1, &soak()).unwrap();
        wal.submit(3, 2, &soak()).unwrap();
        wal.start(1).unwrap();
        wal.finish(1, JobState::Done).unwrap();
        wal.start(2).unwrap();
        wal.finish(2, JobState::Failed).unwrap();
        wal.cancel(3).unwrap();
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN_WAL);

    let (jobs, truncated) = replay(&path, GOLDEN_WAL.as_bytes()).unwrap();
    assert_eq!(truncated, 0);
    let folded: Vec<_> = jobs
        .iter()
        .map(|j| (j.id, j.seq, j.started, j.terminal))
        .collect();
    assert_eq!(
        folded,
        [
            (1, 0, true, Some(JobState::Done)),
            (2, 1, true, Some(JobState::Failed)),
            (3, 2, false, Some(JobState::Cancelled)),
        ]
    );
    assert_eq!(jobs[0].spec, sweep());
    assert_eq!(jobs[1].spec, soak());
}

/// Two policies on one two-thread mix over two seeds, short enough to
/// run in a unit-test budget.
fn small_grid() -> tcm_sim::SweepResult {
    let spec = SweepSpec {
        policies: vec!["fr-fcfs".into(), "tcm".into()],
        workloads: vec![WorkloadRef::Random {
            seed: 5,
            threads: 2,
            intensity_bits: 0.5f64.to_bits(),
        }],
        seeds: vec![0, 17],
        horizon: 50_000,
        topology: None,
        telemetry: false,
    };
    let r = resolve_sweep(&spec).unwrap();
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = 2;
    Session::new(RunConfig::builder().system(cfg).horizon(r.horizon).build())
        .sweep()
        .policies(r.policies)
        .workloads(r.workloads)
        .seeds(r.seeds)
        .run()
}

#[test]
fn result_document_matches_the_committed_golden() {
    let result = small_grid();
    assert_eq!(render_result(&result), GOLDEN_RESULT);

    let doc = json::parse(GOLDEN_RESULT).unwrap();
    let cells = doc.field("cells").unwrap().as_arr().unwrap();
    assert_eq!(cells.len(), result.cells().len());
    for (parsed, cell) in cells.iter().zip(result.cells()) {
        let bits = |key| parsed.field(key).unwrap().as_u64().unwrap();
        let m = &cell.result.metrics;
        assert_eq!(bits("ws_bits"), m.weighted_speedup.to_bits());
        assert_eq!(bits("hs_bits"), m.harmonic_speedup.to_bits());
        assert_eq!(bits("ms_bits"), m.max_slowdown.to_bits());
        let slowdowns = parsed.field("slowdown_bits").unwrap().f64_array().unwrap();
        assert_eq!(slowdowns, cell.result.slowdowns);
    }
}

/// The records and byte length of the durable prefix of `bytes` under
/// the torn-tail rule, written out independently of `AppendLog`: after
/// the `header` line, every line up to the first that lacks its
/// newline, is not UTF-8 or is rejected by `parse`. `None` when the
/// header line is missing or different.
fn durable_prefix<T>(
    bytes: &[u8],
    header: Option<&str>,
    parse: fn(&str) -> Option<T>,
) -> Option<(Vec<T>, usize)> {
    let mut at = match header {
        Some(header) => {
            let line = format!("{header}\n");
            bytes.starts_with(line.as_bytes()).then_some(line.len())?
        }
        None => 0,
    };
    let mut records = Vec::new();
    while let Some(len) = bytes[at..].iter().position(|&b| b == b'\n') {
        match std::str::from_utf8(&bytes[at..at + len])
            .ok()
            .and_then(parse)
        {
            Some(record) => records.push(record),
            None => break,
        }
        at += len + 1;
    }
    Some((records, at))
}

/// Opens `bytes` as an append log and checks it against
/// [`durable_prefix`]: the same records, the file cut to that prefix,
/// and `valid` appended after recovery read back by the next open.
fn check_append_log<T: Debug>(
    path: &Path,
    bytes: &[u8],
    header: Option<&str>,
    parse: fn(&str) -> Option<T>,
    valid: &str,
) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).unwrap();
    let opened = AppendLog::open(path, header, parse);
    let Some((expected, prefix)) = durable_prefix(bytes, header, parse) else {
        prop_assert!(opened.is_err(), "a log without its header is refused");
        return Ok(());
    };
    let (mut log, records) = opened.unwrap();
    prop_assert_eq!(format!("{records:?}"), format!("{expected:?}"));
    prop_assert_eq!(std::fs::read(path).unwrap(), &bytes[..prefix]);
    prop_assert_eq!(log.stats().truncated_bytes, (bytes.len() - prefix) as u64);
    log.append(valid).unwrap();
    drop(log);
    let (log, again) = AppendLog::open(path, header, parse).unwrap();
    prop_assert_eq!(log.stats().truncated_bytes, 0);
    prop_assert_eq!(
        again.len(),
        expected.len() + 1,
        "the post-recovery append survives"
    );
    prop_assert_eq!(
        format!("{:?}", again.last()),
        format!("{:?}", parse(valid).as_ref())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every durable parser on one set of inputs: arbitrary bytes, and a
    /// valid file with arbitrary bytes after it, cut at any byte, or
    /// with one bit flipped. The WAL and checkpoint parsers run under
    /// the append-log rule; a stored alone baseline, which is one whole
    /// file, is trusted only when it is exactly the entry for its key.
    #[test]
    fn append_logs_keep_exactly_their_durable_prefix(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        cut in 0..1usize << 16,
        bit in 0..1usize << 20,
    ) {
        let path = scratch("append-log");
        let inputs = |golden: &str| {
            let mut flipped = golden.as_bytes().to_vec();
            flipped[bit / 8 % golden.len()] ^= 1 << (bit % 8);
            [
                bytes.clone(),
                [golden.as_bytes(), &bytes].concat(),
                golden.as_bytes()[..cut % (golden.len() + 1)].to_vec(),
                flipped,
            ]
        };
        let header = GOLDEN_WAL.lines().next().unwrap();
        for input in inputs(GOLDEN_WAL) {
            check_append_log(&path, &input, Some(header), parse_op, "{\"op\":\"cancel\",\"id\":9}")?;
        }
        // Without the header, arbitrary bytes reach the op parser itself.
        for input in inputs(&GOLDEN_WAL[header.len() + 1..]) {
            check_append_log(&path, &input, None, parse_op, "{\"op\":\"start\",\"id\":1}")?;
        }
        let entry = GOLDEN_CHECKPOINT.lines().next().unwrap();
        for input in inputs(GOLDEN_CHECKPOINT) {
            check_append_log(&path, &input, None, parse_checkpoint_entry, entry)?;
        }
        let key = "AloneKey { system: .., horizon: 1000, profile: .. }";
        let alone = render_alone_entry(key, 1.25);
        for input in inputs(&alone) {
            let trusted = parse_alone_entry(&String::from_utf8_lossy(&input), key);
            prop_assert_eq!(trusted.is_some(), input == alone.as_bytes());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Arbitrary bytes after a valid header replay as a (possibly
    /// empty) durable prefix; arbitrary bytes in place of the header are
    /// refused.
    #[test]
    fn arbitrary_bytes_never_panic_replay(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let path = scratch("bytes");
        let _ = replay(&path, &bytes);
        let mut log = GOLDEN_WAL.as_bytes().to_vec();
        log.extend_from_slice(&bytes);
        if let Some((jobs, truncated)) = replay(&path, &log) {
            prop_assert!(jobs.len() >= 3, "the golden prefix survives");
            prop_assert!(truncated <= bytes.len() as u64);
        }
    }

    /// A WAL cut at any byte replays exactly the jobs of its complete
    /// lines and truncates the rest; a cut inside the header is refused.
    #[test]
    fn truncations_replay_the_durable_prefix(cut in 0..GOLDEN_WAL.len()) {
        let path = scratch("cut");
        let prefix = &GOLDEN_WAL[..cut];
        let durable = prefix.rfind('\n').map_or(0, |nl| nl + 1);
        match replay(&path, prefix.as_bytes()) {
            None => prop_assert_eq!(durable, 0, "only a torn header is refused"),
            Some((jobs, truncated)) => {
                prop_assert_eq!(truncated, (cut - durable) as u64);
                let submits = prefix[..durable].matches("\"op\":\"submit\"").count();
                prop_assert_eq!(jobs.len(), submits);
                prop_assert_eq!(std::fs::read(&path).unwrap(), &prefix.as_bytes()[..durable]);
            }
        }
    }

    /// A single flipped bit anywhere in the log replays or is refused,
    /// and a replayed log replays identically a second time.
    #[test]
    fn bit_flips_never_panic_replay(bit in 0..GOLDEN_WAL.len() * 8) {
        let path = scratch("flip");
        let mut bytes = GOLDEN_WAL.as_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Some((jobs, _)) = replay(&path, &bytes) {
            let (_wal, again) = Wal::open(&path).unwrap();
            prop_assert_eq!(again, jobs);
        }
    }
}
