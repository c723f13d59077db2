//! `tcm-perf` — the repository's benchmark. See `perf/README.md`.
//!
//! ```text
//! tcm-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! tcm-perf suite [--runs N] [--seed N] [--seconds S] [--smoke] [--out FILE] [--label L]
//!                [--pair-exe PATH --pair-out FILE [--pair-label L]]
//! tcm-perf compare A.json B.json
//! tcm-perf record --out FILE A.json B.json
//! ```
//!
//! A single run measures one workload and prints its metrics, ending
//! with the result line. `suite` runs every workload `--runs` times,
//! interleaved, in child processes, then the traced run of each, and
//! writes the values to a set file; with `--pair-exe` it alternates
//! every run with the same run of another `tcm-perf` build (or of this
//! one) and writes a second, paired set; `compare` judges one set against
//! another with the bounds in `BENCHMARK.json`; `record` writes two
//! sets of the same commit as the committed baseline.

mod compare;
mod decl;
mod json;
mod paper;
mod proc;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use decl::{Workload, END_TO_END, PER_LAYER};
use report::Report;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Seeds the serve-* job mixes unless `--seed` is given.
pub const DEFAULT_SEED: u64 = 1000;
/// Measured seconds per run unless `--seconds` is given (the value
/// `BENCHMARK.json` declares as `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Everything a run needs: where `tcm-run` is, a scratch directory
/// inside the checkout, the seed, and how long to measure.
#[derive(Debug)]
pub struct Env {
    pub tcm_run: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    /// Horizons divided by 20, one round, 20 daemon jobs.
    pub smoke: bool,
}

impl Env {
    /// Simulated cycles per paper-* cell: 20M spans two ATLAS quanta
    /// (10M) and twenty TCM quanta (1M).
    pub fn paper_cycles(&self) -> u64 {
        if self.smoke {
            1_000_000
        } else {
            20_000_000
        }
    }

    /// Simulated cycles per serve-* cell.
    pub fn serve_cycles(&self) -> u64 {
        if self.smoke {
            100_000
        } else {
            2_000_000
        }
    }

    /// A fresh, empty scratch directory named `name`.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Scratch space for all runs, relative to the checkout root.
pub const WORK_ROOT: &str = ".perf_work";

fn usage() -> ! {
    eprintln!(
        "usage: tcm-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      tcm-perf suite [--runs N] [--seed N] [--seconds S] [--smoke] [--out FILE] [--label L]\n\
         \x20                     [--pair-exe PATH --pair-out FILE [--pair-label L]]\n\
         \x20      tcm-perf compare A.json B.json\n\
         \x20      tcm-perf record --out FILE A.json B.json\n\
         workloads: paper-flat paper-2x2 serve-stream serve-recover"
    );
    std::process::exit(2)
}

/// Options shared by a single run and a suite.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
    pub label: Option<String>,
    /// Another `tcm-perf` build whose runs alternate with this one's.
    pub pair_exe: Option<PathBuf>,
    pub pair_out: Option<PathBuf>,
    pub pair_label: Option<String>,
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        label: None,
        pair_exe: None,
        pair_out: None,
        pair_label: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => {
                out.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                out.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    usage()
                }
            }
            "--trace" => {
                out.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => out.smoke = true,
            "--runs" => out.runs = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out.out = Some(PathBuf::from(value())),
            "--label" => out.label = Some(value()),
            "--pair-exe" => out.pair_exe = Some(PathBuf::from(value())),
            "--pair-out" => out.pair_out = Some(PathBuf::from(value())),
            "--pair-label" => out.pair_label = Some(value()),
            _ => usage(),
        }
    }
    out
}

/// One run of one workload; prints its metrics and returns whether
/// every output check passed.
fn run_one(args: &RunArgs) -> bool {
    let Some(workload) = args.workload else {
        usage()
    };
    let tcm_run = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("tcm-run"),
        Err(e) => {
            eprintln!("cannot locate tcm-perf itself: {e}");
            std::process::exit(2)
        }
    };
    if !tcm_run.is_file() {
        eprintln!("{} not found; build it with perf/run.sh", tcm_run.display());
        std::process::exit(2)
    }
    let work = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        std::process::exit(2)
    }
    let _cleanup = WorkDir(work.clone());
    let env = Env {
        tcm_run,
        work,
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        smoke: args.smoke,
    };
    let mut report = Report::default();
    println!(
        "tcm-perf: {} seed {} {} {}",
        workload.name(),
        env.seed,
        if args.trace { "traced" } else { "untraced" },
        if env.smoke { "(smoke)" } else { "" }
    );
    if let Err(e) = paper::warm_up(&env) {
        report.error(&format!("warm-up: {e}"), 1);
    }
    if args.trace {
        trace::run(&env, workload, &mut report);
        report.emit(PER_LAYER)
    } else {
        match workload {
            Workload::PaperFlat | Workload::Paper2x2 => paper::run(&env, workload, &mut report),
            Workload::ServeStream => serve::run_stream(&env, &mut report),
            Workload::ServeRecover => serve::run_recover(&env, &mut report),
        }
        report.emit(END_TO_END)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("suite") => suite::main(&parse_run_args(&args[1..])),
        Some("compare") => compare::compare_main(&args[1..]),
        Some("record") => compare::record_main(&args[1..]),
        Some(_) => i32::from(!run_one(&parse_run_args(&args))),
        None => usage(),
    };
    std::process::exit(code)
}
