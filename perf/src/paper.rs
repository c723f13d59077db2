//! paper-flat and paper-2x2: the paper's lineup × Table 5 A–D grid run
//! by the shipped one-shot front end, `tcm-run --bench-json`.

use crate::decl::Workload;
use crate::json::{self, Json};
use crate::proc::Proc;
use crate::report::Report;
use crate::Env;
use std::fs::{self, File};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Cells of the grid: 5 policies × 4 workload categories.
pub const CELLS: u64 = 20;
/// Rounds per run at least (smoke runs do one).
const MIN_ROUNDS: usize = 3;
/// A round that takes longer than this has hung.
const ROUND_TIMEOUT: Duration = Duration::from_secs(150);
/// Extra start-ups per run for `setup_s`, beyond one per round.
const SETUP_PROBES: usize = 12;
/// Horizon of a start-up probe: the process's time around the sweep
/// does not depend on it.
const PROBE_CYCLES: u64 = 10_000;
/// Engine work before a run measures anything. After a few seconds
/// idle, this host runs the first second or two of work slowly: 2M-cycle
/// flat sweeps on two workers took 0.63, 0.60 and 0.47 s, then 0.39 s
/// from the fourth on, and a cold 20M-cycle grid took 4.8 s against
/// 3.5–3.7 s warm.
const WARM_UP: Duration = Duration::from_secs(2);

/// One `tcm-run --bench-json` process.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Spawn to exit, with the record on disk.
    pub wall: f64,
    /// The process's own time around the sweep: `wall` minus the
    /// sweep's `wall_secs`.
    pub setup: f64,
    pub peak_rss_mib: f64,
    pub peak_queue: u64,
}

fn sweep_args(workload: Workload, cycles: u64) -> Vec<String> {
    let mut args = vec!["--cycles".to_string(), cycles.to_string()];
    let shape: &[&str] = match workload {
        Workload::Paper2x2 => &["--topology", "2x2", "--intra-hosts", "2", "--workers", "1"],
        _ => &["--workers", "2"],
    };
    args.extend(shape.iter().map(|s| s.to_string()));
    args
}

/// Runs the grid once in a fresh `tcm-run` process.
pub fn round(env: &Env, workload: Workload) -> Result<Round, String> {
    invoke(env, workload, env.paper_cycles())
}

/// Runs the grid once at `cycles` per cell in a fresh `tcm-run`
/// process.
fn invoke(env: &Env, workload: Workload, cycles: u64) -> Result<Round, String> {
    let record = env.work.join("bench.json");
    let log = File::create(env.work.join("tcm-run.log")).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&env.tcm_run);
    cmd.arg("--bench-json")
        .arg(&record)
        .args(sweep_args(workload, cycles))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    let t0 = Instant::now();
    let mut child = Proc::spawn(&mut cmd).map_err(|e| format!("cannot start tcm-run: {e}"))?;
    let exit = child
        .wait(ROUND_TIMEOUT)
        .map_err(|e| format!("tcm-run: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !exit.status.success() {
        return Err(format!(
            "tcm-run exited with {} (see {})",
            exit.status,
            env.work.join("tcm-run.log").display()
        ));
    }
    let text = fs::read_to_string(&record).map_err(|e| format!("{}: {e}", record.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", record.display()))?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::num)
            .ok_or(format!("record lacks `{k}`"))
    };
    let cells = field("cells")?;
    if cells != CELLS as f64 {
        return Err(format!("record has {cells} cells, expected {CELLS}"));
    }
    Ok(Round {
        wall,
        setup: wall - field("wall_secs")?,
        peak_rss_mib: exit.peak_rss_mib,
        peak_queue: field("peak_queue_depth")? as u64,
    })
}

/// Flat sweeps at the serve horizon on both cores until [`WARM_UP`]
/// has passed.
pub fn warm_up(env: &Env) -> Result<(), String> {
    let t0 = Instant::now();
    while t0.elapsed() < WARM_UP {
        invoke(env, Workload::PaperFlat, env.serve_cycles())?;
    }
    Ok(())
}

/// The untraced paper-* run: rounds until `--seconds` have passed (at
/// least three), each a whole grid in a fresh process, then more
/// start-ups at a tiny horizon for `setup_s`.
pub fn run(env: &Env, workload: Workload, report: &mut Report) {
    let t0 = Instant::now();
    let min_rounds = if env.smoke { 1 } else { MIN_ROUNDS };
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || (!env.smoke && t0.elapsed() < env.seconds) {
        match round(env, workload) {
            Ok(r) => {
                report.work(CELLS, 0);
                rounds.push(r);
            }
            Err(e) => {
                report.error(&e, CELLS);
                break;
            }
        }
    }
    let col = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let mut setups = col(|r| r.setup);
    for _ in 0..SETUP_PROBES {
        match invoke(env, workload, PROBE_CYCLES) {
            Ok(probe) => setups.push(probe.setup),
            Err(e) => report.error(&format!("start-up probe: {e}"), 1),
        }
    }
    let walls = col(|r| r.wall);
    report.median("grid_wall_s", &walls);
    // The one-shot user's job is the whole grid, so these restate the
    // rounds; `compare` does not judge them here (`Workload::judges`).
    report.median("job_p50_s", &walls);
    report.percentile("job_p90_s", &walls, 90.0);
    report.median("setup_s", &setups);
    report.median("peak_rss_mb", &col(|r| r.peak_rss_mib));
    if let Some(first) = rounds.first() {
        report.check(
            "every round reports the same peak queue depth",
            rounds.iter().all(|r| r.peak_queue == first.peak_queue),
        );
    }
}
