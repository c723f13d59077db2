//! The daemon's durable formats pinned byte for byte (`tcm-serve-wal-v1`
//! and `tcm-serve-result-v1`), and WAL replay driven with arbitrary
//! bytes, truncations and bit flips of a valid log: replay returns the
//! jobs of its durable prefix or an error, and never panics.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tcm_proto::{JobKind, JobSpec, JobState, SoakSpec, SweepSpec, WorkloadRef};
use tcm_serve::job::{render_result, resolve_sweep};
use tcm_serve::{ReplayedJob, Wal};
use tcm_sim::{RunConfig, Session};
use tcm_types::{json, SystemConfig};

/// A header plus every op kind, as the WAL stores them.
const GOLDEN_WAL: &str = include_str!("fixtures/wal.jsonl");

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
