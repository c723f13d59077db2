//! Durable-sweep integration tests: incremental checkpointing, resume
//! after an interrupted run, resume across grids, and per-cell
//! wall-clock deadlines.
//!
//! The kill-mid-flight scenario is emulated by truncating the
//! checkpoint file to a prefix of completed cells — exactly what a
//! process killed between two appends leaves behind — then resuming
//! into a fresh `Session`.

use std::path::PathBuf;
use std::time::Duration;
use tcm_core::TcmParams;
use tcm_sim::{CellFailureKind, PolicyKind, RunConfig, Session, SweepResult};
use tcm_types::{SystemConfig, Topology};
use tcm_workload::random_workload;

fn cfg(threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .num_threads(threads)
        .build()
        .expect("config is valid")
}

fn two_by_two(threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .num_threads(threads)
        .topology(Topology::parse("2x2").expect("topology parses"))
        .build()
        .expect("config is valid")
}

fn run_config() -> RunConfig {
    RunConfig::builder().system(cfg(4)).horizon(60_000).build()
}

fn policies() -> [PolicyKind; 3] {
    [PolicyKind::Fcfs, PolicyKind::FrFcfs, PolicyKind::FairQueueing]
}

fn sweep_with(session: &Session, checkpoint: Option<&PathBuf>) -> SweepResult {
    let mut sweep = session
        .sweep()
        .policies(policies())
        .workloads((0..2).map(|s| random_workload(s, 4, 0.75)))
        .seeds([0, 17]);
    if let Some(path) = checkpoint {
        sweep = sweep.checkpoint(path.clone());
    }
    sweep.run_parallel(2)
}

/// Unique scratch path per test (the suite runs tests concurrently).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tcm-ckpt-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let path = scratch("resume");
    let _ = std::fs::remove_file(&path);

    // Reference: the uninterrupted run, no checkpointing involved.
    let reference = sweep_with(&Session::new(run_config()), None);
    assert!(reference.is_complete());

    // First attempt, checkpointed. Then emulate a kill between two
    // appends: keep the first three cells.
    let first = sweep_with(&Session::new(run_config()), Some(&path));
    assert!(first.is_complete());
    let full = std::fs::read_to_string(&path).expect("checkpoint exists");
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), reference.cells().len(), "one line per completed cell");
    std::fs::write(&path, format!("{}\n", lines[..3].join("\n")))
        .expect("truncate checkpoint");

    // Resume into a fresh session: three cells restore, nine re-run.
    let resumed = sweep_with(&Session::new(run_config()), Some(&path));
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats().resumed, 3, "restored the surviving prefix");
    assert_eq!(
        resumed.cells(),
        reference.cells(),
        "merged result is bit-identical to the uninterrupted run"
    );
    assert_eq!(resumed.stats().cells, reference.stats().cells);

    // The checkpoint is whole again: a second resume restores
    // everything and simulates nothing.
    let replayed = sweep_with(&Session::new(run_config()), Some(&path));
    assert_eq!(replayed.stats().resumed, reference.cells().len());
    assert_eq!(replayed.cells(), reference.cells());

    let _ = std::fs::remove_file(&path);
}

/// `kill -9` lands mid-append, next to a stale `.tmp` sibling (a
/// half-written whole-file rewrite, as earlier versions published at
/// resume and never renamed into place): the file ends in a torn line.
/// Resume must ignore both artifacts, restore the intact prefix, and
/// merge bit-identically.
#[test]
fn kill_nine_mid_republish_leaves_a_resumable_checkpoint() {
    let path = scratch("midpublish");
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);

    let reference = sweep_with(&Session::new(run_config()), None);
    assert!(reference.is_complete());

    let first = sweep_with(&Session::new(run_config()), Some(&path));
    assert!(first.is_complete());
    let full = std::fs::read_to_string(&path).expect("checkpoint exists");
    let lines: Vec<&str> = full.lines().collect();

    // The crash scene: two intact cells, a torn third line in the
    // published file, and a half-written rewrite in the `.tmp` sibling.
    let torn = &lines[2][..lines[2].len() / 2];
    std::fs::write(&path, format!("{}\n{torn}", lines[..2].join("\n")))
        .expect("truncate checkpoint mid-line");
    std::fs::write(&tmp, &full[..full.len() / 3]).expect("stale tmp");

    let resumed = sweep_with(&Session::new(run_config()), Some(&path));
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats().resumed, 2, "torn tail dropped, prefix kept");
    assert_eq!(
        resumed.cells(),
        reference.cells(),
        "merged result is bit-identical to the uninterrupted run"
    );

    let whole = std::fs::read_to_string(&path).expect("checkpoint after resume");
    assert_eq!(
        whole.lines().count(),
        reference.cells().len(),
        "checkpoint is whole again after resume"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn checkpoint_from_a_different_grid_is_refused() {
    let path = scratch("mismatch");
    let _ = std::fs::remove_file(&path);

    // Checkpoint the same axes at another horizon to the path.
    let other = RunConfig::builder().system(cfg(4)).horizon(90_000).build();
    assert!(sweep_with(&Session::new(other), Some(&path)).is_complete());

    // The real sweep must not adopt the foreign cells: everything
    // re-runs and the result matches a checkpoint-free reference.
    let resumed = sweep_with(&Session::new(run_config()), Some(&path));
    assert_eq!(resumed.stats().resumed, 0, "foreign grid: start fresh");
    let reference = sweep_with(&Session::new(run_config()), None);
    assert_eq!(resumed.cells(), reference.cells());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn flat_checkpoint_resumes_nothing_into_a_2x2_sweep() {
    let path = scratch("flat-to-2x2");
    let _ = std::fs::remove_file(&path);
    let on = |system| Session::new(RunConfig::builder().system(system).horizon(60_000).build());

    // The same labels, workloads, seeds and horizon, on another machine.
    let flat = sweep_with(&on(cfg(4)), Some(&path));
    assert!(flat.is_complete());
    let resumed = sweep_with(&on(two_by_two(4)), Some(&path));
    assert_eq!(resumed.stats().resumed, 0, "flat cells never graft onto 2x2");
    let fresh = sweep_with(&on(two_by_two(4)), None);
    assert_eq!(resumed.cells(), fresh.cells());
    assert_ne!(flat.cells(), fresh.cells(), "a graft would be visible");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_checkpoint_keeps_the_cells_of_other_grids() {
    let path = scratch("shared");
    let _ = std::fs::remove_file(&path);
    let on = |system| Session::new(RunConfig::builder().system(system).horizon(60_000).build());

    let flat = sweep_with(&on(cfg(4)), Some(&path));
    assert!(flat.is_complete());
    let two_by_two = sweep_with(&on(two_by_two(4)), Some(&path));
    assert_eq!(two_by_two.stats().resumed, 0, "flat cells never graft onto 2x2");
    let again = sweep_with(&on(cfg(4)), Some(&path));
    assert_eq!(again.stats().resumed, flat.cells().len(), "the 2x2 run kept the flat cells");
    assert_eq!(again.cells(), flat.cells());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_of_a_policy_subset_resumes_its_cells_into_a_larger_grid() {
    let path = scratch("subset");
    let _ = std::fs::remove_file(&path);
    let tcm = || PolicyKind::Tcm(TcmParams::paper_default(4));
    let atlas = || PolicyKind::Atlas(tcm_sched::AtlasParams::paper_default());
    let sweep = |policies: Vec<PolicyKind>, checkpoint: bool| {
        let session = Session::new(run_config());
        let mut sweep = session
            .sweep()
            .policies(policies)
            .workloads([random_workload(3, 4, 0.75)]);
        if checkpoint {
            sweep = sweep.checkpoint(path.clone());
        }
        sweep.run_parallel(2)
    };

    assert!(sweep(vec![PolicyKind::FrFcfs, tcm()], true).is_complete());
    let resumed = sweep(vec![PolicyKind::FrFcfs, atlas(), tcm()], true);
    assert_eq!(resumed.stats().resumed, 2, "FR-FCFS and TCM restore, ATLAS runs");
    let fresh = sweep(vec![PolicyKind::FrFcfs, atlas(), tcm()], false);
    assert_eq!(resumed.cells(), fresh.cells(), "bit-identical to a fresh run");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn expired_deadline_surfaces_as_timeout_without_poisoning_the_sweep() {
    // A zero deadline cancels every cell at its first stride check; the
    // failure is typed `Timeout`, labeled, and retried exactly once.
    let rc = RunConfig::builder()
        .system(cfg(4))
        .horizon(60_000)
        .cell_deadline(Some(Duration::ZERO))
        .build();
    let result = Session::new(rc)
        .sweep()
        .policies([PolicyKind::FrFcfs])
        .workloads([random_workload(0, 4, 0.75)])
        .run();
    assert!(!result.is_complete());
    assert_eq!(result.failures().len(), 1);
    let failure = &result.failures()[0];
    assert!(matches!(failure.kind, CellFailureKind::Timeout(_)));
    assert_eq!(failure.attempts, 2, "timeouts are retried once");
    let text = failure.to_string();
    assert!(text.contains("fr-fcfs") || text.contains("FR-FCFS"), "{text}");
    assert!(text.contains("seed"), "{text}");
    assert!(text.contains("deadline"), "{text}");

    // A generous deadline changes nothing: the sweep completes and is
    // bit-identical to one with no deadline at all.
    let timed = RunConfig::builder()
        .system(cfg(4))
        .horizon(60_000)
        .cell_deadline(Some(Duration::from_secs(3600)))
        .build();
    let with_deadline = sweep_with(&Session::new(timed), None);
    let without = sweep_with(&Session::new(run_config()), None);
    assert!(with_deadline.is_complete());
    assert_eq!(with_deadline.cells(), without.cells());
}
