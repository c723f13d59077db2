//! `tcm-run`'s one-shot mode resolves its workload, policies, horizon
//! and topology through the daemon's `resolve_sweep`, so a bad argument
//! is a usage error (exit 2, no panic) carrying the same message the
//! daemon gives a client for the same spec. `--intra-hosts` only
//! multiplies the worker count. A `--checkpoint` file written on one
//! machine never resumes into a run on another.

use std::process::Command;
use tcm_proto::{SweepSpec, WorkloadRef};
use tcm_serve::job::resolve_sweep;

/// The spec `tcm-run` builds from its defaults (24 threads, intensity
/// 0.5, seed 0, 5M cycles), with `threads`/`intensity`/`horizon`
/// overridden.
fn one_shot_spec(threads: u64, intensity: f64, horizon: u64) -> SweepSpec {
    SweepSpec {
        policies: vec![],
        workloads: vec![WorkloadRef::Random {
            seed: 0,
            threads,
            intensity_bits: intensity.to_bits(),
        }],
        seeds: vec![],
        horizon,
        topology: None,
        telemetry: false,
    }
}

#[test]
fn bad_workload_args_are_usage_errors_with_the_daemons_message() {
    let cases: [(&[&str], SweepSpec); 4] = [
        (&["--threads", "0"], one_shot_spec(0, 0.5, 5_000_000)),
        (&["--intensity", "-3"], one_shot_spec(24, -3.0, 5_000_000)),
        (
            &["--intensity", "nan"],
            one_shot_spec(24, f64::NAN, 5_000_000),
        ),
        (&["--cycles", "0"], one_shot_spec(24, 0.5, 0)),
    ];
    for (args, spec) in cases {
        let daemon_message = resolve_sweep(&spec).expect_err("the daemon rejects this spec");
        let out = Command::new(env!("CARGO_BIN_EXE_tcm-run"))
            .args(args)
            .output()
            .expect("tcm-run runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tcm-run {args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "tcm-run {args:?} panicked: {stderr}"
        );
        assert!(
            stderr.contains(&daemon_message),
            "tcm-run {args:?} should say `{daemon_message}`, got: {stderr}"
        );
        assert!(out.stdout.is_empty(), "tcm-run {args:?} printed results");
    }
}

#[test]
fn chaos_smoke_ignores_intra_hosts() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcm-run"))
        .args(["--chaos-smoke", "--intra-hosts", "0", "--topology", "2x2"])
        .output()
        .expect("tcm-run runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("vs its detector on 2x2\n"), "{stderr}");
    assert!(
        stderr.contains("chaos smoke [2x2]: all 10 fault classes"),
        "{stderr}"
    );
    assert!(!stderr.contains("host"), "{stderr}");
}

#[test]
fn intra_hosts_multiplies_the_bench_workers() {
    let record = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-args-bench-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_tcm-run"))
        .args(["--bench-json", record.to_str().expect("utf-8 path")])
        .args(["--cycles", "20000", "--topology", "2x2"])
        .args(["--intra-hosts", "2", "--workers", "1"])
        .output()
        .expect("tcm-run runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let json = std::fs::read_to_string(&record).expect("bench record written");
    let _ = std::fs::remove_file(&record);
    assert!(json.contains("\"workers\": 2,"), "{json}");
    assert!(json.contains("\"topology\": \"2x2\""), "{json}");
}

#[test]
fn a_flat_checkpoint_does_not_resume_into_a_2x2_run() {
    let dir = std::env::temp_dir().join(format!("tcm-run-graft-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = dir.join("ck.jsonl");
    let _ = std::fs::remove_file(&ckpt);
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tcm-run"))
            .args([
                "--cycles",
                "200000",
                "--threads",
                "8",
                "--policies",
                "fr-fcfs,tcm",
                "--json",
            ])
            .args(extra)
            .output()
            .expect("tcm-run runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "tcm-run {extra:?}: {stderr}");
        (out.stdout, stderr)
    };
    let ckpt_arg = ckpt.to_str().expect("utf-8 path");
    let (flat, _) = run(&["--checkpoint", ckpt_arg]);
    let (resumed, stderr) = run(&["--topology", "2x2", "--resume", ckpt_arg]);
    let (fresh, _) = run(&["--topology", "2x2"]);
    assert!(
        !stderr.contains("resumed"),
        "flat cells resumed into 2x2: {stderr}"
    );
    assert_eq!(
        resumed, fresh,
        "the resumed 2x2 run prints the fresh 2x2 JSON"
    );
    assert_ne!(flat, fresh, "a graft would be visible");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_timed_out_cell_is_tried_once_reported_once_and_exits_3() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcm-run"))
        .args([
            "--workload",
            "A",
            "--cycles",
            "200000",
            "--policies",
            "fr-fcfs,tcm",
            "--cell-deadline",
            "0",
        ])
        .output()
        .expect("tcm-run runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "only timeouts: {stderr}");
    let failures: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("cell-failure"))
        .collect();
    assert_eq!(failures.len(), 2, "one line per failed cell: {stderr}");
    for line in failures {
        assert!(line.contains(" kind=timeout "), "{line}");
        assert!(!line.contains("attempt="), "one attempt, no count: {line}");
    }
}
