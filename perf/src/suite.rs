//! `tcm-perf suite`: every workload `--runs` times, interleaved
//! round-robin so machine drift spreads over all of them, each run a
//! child `tcm-perf --workload ...` process exactly as a single run is
//! invoked; then one traced run per workload. Writes a set file and
//! prints each metric's median, quartiles and spread against its bound.
//!
//! With `--pair-exe`, every run is immediately followed (or preceded)
//! by the same run of another `tcm-perf` build, which writes a second
//! set. Run i of the two sets then saw the same machine, so `compare`
//! can judge them pair by pair.

use crate::compare::{load_bounds, Set, WorkloadRuns};
use crate::decl::{Workload, END_TO_END};
use crate::json::{self, Json};
use crate::stats::{self, Summary};
use crate::{RunArgs, WORK_ROOT};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Runs one child and returns its result line.
fn child(
    exe: &Path,
    args: &RunArgs,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let line = json::parse(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if !out.status.success() {
        eprintln!("{} seed {seed} exited with {}", workload.name(), out.status);
    }
    Ok(line)
}

fn values(line: &Json) -> impl Iterator<Item = (String, f64)> + '_ {
    line.get("metrics")
        .and_then(Json::obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
}

/// One side of a suite: the `tcm-perf` build it runs, where its set
/// goes, and what it has measured.
struct Side {
    exe: PathBuf,
    out: PathBuf,
    set: Set,
}

impl Side {
    /// Records one untraced run's result line.
    fn record(&mut self, workload: Workload, seed: u64, line: &Json) -> bool {
        let correct = line.get("correct").and_then(Json::bool) == Some(true);
        let runs = self
            .set
            .workloads
            .entry(workload.name().to_string())
            .or_default();
        runs.seeds.push(seed as f64);
        runs.correct.push(correct);
        runs.attempted
            .push(line.get("attempted").and_then(Json::num).unwrap_or(0.0));
        runs.failed
            .push(line.get("failed").and_then(Json::num).unwrap_or(0.0));
        for (k, v) in values(line) {
            runs.metrics.entry(k).or_default().push(v);
        }
        correct
    }
}

pub fn main(args: &RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate tcm-perf itself: {e}");
            return 2;
        }
    };
    let label = args.label.clone().unwrap_or_else(|| "unlabelled".into());
    let new_set = |label: String, pairing: &str| Set {
        label,
        nproc: std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim()
            .to_string(),
        seconds: args.seconds,
        smoke: args.smoke,
        pairing: pairing.to_string(),
        ..Set::default()
    };
    // Both sets of a paired suite carry the same pairing tag, which
    // tells `compare` that run i of one was taken next to run i of the
    // other.
    let pairing = match &args.pair_exe {
        Some(_) => format!(
            "{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        ),
        None => String::new(),
    };
    let mut sides = vec![Side {
        exe,
        out: args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(WORK_ROOT).join("set.json")),
        set: new_set(label.clone(), &pairing),
    }];
    if let Some(pair_exe) = &args.pair_exe {
        let Some(out) = args.pair_out.clone() else {
            eprintln!("--pair-exe needs --pair-out");
            return 2;
        };
        sides.push(Side {
            exe: pair_exe.clone(),
            out,
            set: new_set(args.pair_label.clone().unwrap_or(label), &pairing),
        });
    }
    let mut ok = true;
    for r in 0..args.runs {
        let seed = args.seed + r as u64;
        for w in Workload::ALL {
            // Alternate which side goes first, so neither always runs
            // on the machine the other has just warmed.
            let mut order: Vec<usize> = (0..sides.len()).collect();
            if r % 2 == 1 {
                order.reverse();
            }
            for i in order {
                match child(&sides[i].exe, args, w, seed, false) {
                    Ok(line) => ok &= sides[i].record(w, seed, &line),
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    for w in Workload::ALL {
        for side in &mut sides {
            match child(&side.exe, args, w, args.seed, true) {
                Ok(line) => {
                    ok &= line.get("correct").and_then(Json::bool) == Some(true);
                    let runs = side.set.workloads.entry(w.name().to_string()).or_default();
                    runs.per_layer = values(&line).collect();
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    for side in &sides {
        if let Some(dir) = side.out.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&side.out, format!("{}\n", side.set.to_json())) {
            eprintln!("{}: {e}", side.out.display());
            return 1;
        }
        print_summary(&side.set);
        println!("set -> {}", side.out.display());
    }
    i32::from(!ok)
}

/// Each end-to-end metric's spread over the set's runs against a third
/// of its bound.
fn print_summary(set: &Set) {
    let bounds = load_bounds(Path::new("BENCHMARK.json")).unwrap_or_default();
    println!(
        "\n{:<14} {:<12} {:<44} {:>7} {:>7}",
        "workload", "metric", "median [q1, q3] n", "spread", "bound"
    );
    for w in Workload::ALL {
        let empty = WorkloadRuns::default();
        let runs = set.workloads.get(w.name()).unwrap_or(&empty);
        for m in END_TO_END {
            let values = runs
                .metrics
                .get(m.name)
                .map(Vec::as_slice)
                .unwrap_or_default();
            let (Some(s), Some(spread)) = (Summary::of(values), stats::spread(values)) else {
                continue;
            };
            let bound = bounds.get(m.name).copied().unwrap_or(f64::NAN);
            let flag = if m.name != "setup_s" && spread > bound / 3.0 {
                "  > bound/3"
            } else {
                ""
            };
            println!(
                "{:<14} {:<12} {:<44} {:>6.2}% {:>6.1}%{flag}",
                w.name(),
                m.name,
                s.to_string(),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
}
