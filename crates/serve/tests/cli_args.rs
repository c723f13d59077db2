//! `tcm-run`'s one-shot mode resolves its workload, policies, horizon
//! and topology through the daemon's `resolve_sweep`, so a bad argument
//! is a usage error (exit 2, no panic) carrying the same message the
//! daemon gives a client for the same spec. The chaos smoke labels its
//! host count as run, after clamping.

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
        (&["--intensity", "nan"], one_shot_spec(24, f64::NAN, 5_000_000)),
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
        assert!(!stderr.contains("panicked"), "tcm-run {args:?} panicked: {stderr}");
        assert!(
            stderr.contains(&daemon_message),
            "tcm-run {args:?} should say `{daemon_message}`, got: {stderr}"
        );
        assert!(out.stdout.is_empty(), "tcm-run {args:?} printed results");
    }
}

#[test]
fn chaos_smoke_labels_the_clamped_host_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcm-run"))
        .args(["--chaos-smoke", "--intra-hosts", "0", "--topology", "2x2"])
        .output()
        .expect("tcm-run runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("on 2x2 across 1 host(s)"), "{stderr}");
    assert!(stderr.contains("at 1 vs 1 host(s)"), "{stderr}");
    assert!(stderr.contains("chaos smoke [2x2 × 1 host(s)]"), "{stderr}");
    assert!(!stderr.contains("0 host(s)"), "{stderr}");
}
