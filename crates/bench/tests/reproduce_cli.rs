//! `reproduce NAME...` prints only the named reports, exactly as
//! [`experiments::run`] renders them, and writes no file; an unknown
//! name or a bad scale variable is a usage error (exit 2, no panic),
//! and a closed stdout pipe is a quiet success.

use std::path::PathBuf;
use std::process::{Command, Output};
use tcm_bench::experiments;

/// An empty directory for one test's `reproduce` to run in.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcm-reproduce-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `reproduce args` in `dir` at a small scale, with `env` on top.
fn command(dir: &PathBuf, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    command
        .current_dir(dir)
        .env_remove("TCM_FULL")
        .env("TCM_CYCLES", "300000")
        .env("TCM_WORKLOADS", "1")
        .envs(env.iter().copied())
        .args(args);
    command
}

/// Runs `reproduce args` in `dir` (see [`command`]).
fn reproduce(dir: &PathBuf, args: &[&str], env: &[(&str, &str)]) -> Output {
    command(dir, args, env).output().expect("reproduce runs")
}

#[test]
fn named_experiments_print_their_reports_and_write_no_file() {
    let dir = scratch("named");
    let out = reproduce(&dir, &["fig3", "table2"], &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let expected =
        format!("{}\n{}\n", experiments::fig3().render(), experiments::table2().render());
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    assert!(!dir.join("experiments_output.md").exists(), "a named run wrote the report file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unknown_name_exits_2_and_lists_every_experiment() {
    let dir = scratch("unknown");
    let out = reproduce(&dir, &["nope"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for name in experiments::NAMES {
        assert!(stderr.contains(name), "stderr does not name {name}: {stderr}");
    }
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_scale_variables_exit_2_without_a_panic() {
    let dir = scratch("scale");
    for (var, value) in [("TCM_WORKLOADS", "0"), ("TCM_CYCLES", "0"), ("TCM_CYCLES", "abc")] {
        let out = reproduce(&dir, &["fig4"], &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{var}={value} panicked: {stderr}");
        assert!(stderr.contains(var), "{var}={value}: the message names no variable: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value} printed a report");
    }
    assert!(!dir.join("experiments_output.md").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_success() {
    let dir = scratch("pipe");
    // The read end is closed before the child starts, so its first
    // write to stdout fails with a broken pipe.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = command(&dir, &["table2"], &[]).stdout(writer).output().expect("reproduce runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
