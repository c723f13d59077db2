//! serve-stream and serve-recover: the `tcm-run serve` daemon driven
//! through the real `tcm_serve::Client`, from at most two connections.

use crate::proc::{flush_filesystem, Exit, Proc};
use crate::report::Report;
use crate::{stats, Env};
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tcm_proto::json::Value;
use tcm_proto::{Event, JobKind, JobSpec, JobState, SweepSpec, WorkloadRef};
use tcm_serve::job::{render_result, resolve_sweep, ResolvedSweep, RESULT_SCHEMA};
use tcm_serve::{Client, Wal};
use tcm_sim::{RunConfig, Session};
use tcm_types::SystemConfig;

/// Cells per job: `fr-fcfs,tcm` × seeds 0,1.
pub const CELLS_PER_JOB: usize = 4;
/// Jobs per serve-stream round: each round's p90 has ten job latencies
/// beyond it.
const STREAM_JOBS: usize = 100;
/// Jobs per serve-recover round and per traced daemon round of serve-*.
const RECOVER_JOBS: usize = 40;
/// Jobs per round of a smoke run.
const SMOKE_JOBS: usize = 20;
/// Jobs per traced daemon round of paper-*, which has no daemon of its
/// own and measures the daemon layers only so that they carry a value.
pub const FOREIGN_JOBS: usize = 10;
/// Rounds per run at least. serve-recover pools its job latencies:
/// 3 × 40 leave twelve beyond p90.
const MIN_ROUNDS: usize = 3;
/// How often serve-recover polls `Status`: coarse enough to cost the
/// daemon well under 1% of a core, fine against jobs of about 100 ms.
const POLL: Duration = Duration::from_millis(10);
/// How often a starting daemon's socket is tried: fine against a
/// start-up of a few milliseconds.
const CONNECT_POLL: Duration = Duration::from_micros(100);
/// A daemon that is not answering or not finishing by then has hung.
const START_TIMEOUT: Duration = Duration::from_secs(10);
const ROUND_TIMEOUT: Duration = Duration::from_secs(120);
/// `Wal::open` timings per traced crash round.
const REPLAY_SAMPLES: usize = 9;
/// Extra daemon start-ups per run, beyond one per round, for `setup_s`.
const SETUP_PROBES: usize = 12;

/// The sweep of job `j`: the daemon grid of `scripts/bench.sh`'s
/// observer-effect gate (`--policies fr-fcfs,tcm --workloads
/// random:5:4:0.75 --seeds 0,1 --cycles 2000000`), with the mix seed
/// `--seed` + `j` in place of 5 so every job is a fresh mix.
pub fn sweep_spec(env: &Env, j: usize) -> SweepSpec {
    SweepSpec {
        policies: vec!["fr-fcfs".into(), "tcm".into()],
        workloads: vec![WorkloadRef::Random {
            seed: env.seed + j as u64,
            threads: 4,
            intensity_bits: 0.75f64.to_bits(),
        }],
        seeds: vec![0, 1],
        horizon: env.serve_cycles(),
        topology: None,
        telemetry: false,
    }
}

/// Job `j` as `tcm-run client submit` sends it by default.
fn job_spec(env: &Env, j: usize) -> JobSpec {
    JobSpec {
        priority: 1,
        deadline_ms: None,
        max_attempts: 2,
        kind: JobKind::Sweep(sweep_spec(env, j)),
    }
}

/// The session a daemon worker builds for a job.
pub fn job_session(r: &ResolvedSweep) -> Session {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = r.workloads[0].threads.len();
    if let Some(topology) = r.topology.clone() {
        cfg.topology = topology;
    }
    Session::new(RunConfig::builder().system(cfg).horizon(r.horizon).build())
}

/// The result document of `spec` computed in this process.
fn render_in_process(spec: &SweepSpec) -> Result<String, String> {
    let r = resolve_sweep(spec)?;
    let session = job_session(&r);
    let result = session
        .sweep()
        .policies(r.policies.iter().cloned())
        .workloads(r.workloads.iter().cloned())
        .seeds(r.seeds.iter().copied())
        .run();
    Ok(render_result(&result))
}

/// Whether `text` is a complete `tcm-serve-result-v1` document of one
/// job: [`CELLS_PER_JOB`] cells and no failures.
fn valid_result(text: &str) -> bool {
    let Some(doc) = tcm_proto::json::parse(text) else {
        return false;
    };
    doc.field("schema").and_then(Value::as_str) == Some(RESULT_SCHEMA)
        && doc
            .field("cells")
            .and_then(Value::as_arr)
            .map(<[Value]>::len)
            == Some(CELLS_PER_JOB)
        && doc
            .field("failures")
            .and_then(Value::as_arr)
            .is_some_and(<[Value]>::is_empty)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running `tcm-run serve` on `dir/sock` with its state in
/// `dir/state`.
struct Daemon {
    proc: Proc,
    state: PathBuf,
}

impl Daemon {
    /// Starts (or restarts) the daemon and returns a connection that has
    /// had a `Status` reply, plus the start-up time: spawn until the
    /// socket accepts a connection. The daemon binds its socket only
    /// after it has replayed its WAL and re-admitted unfinished jobs, so
    /// that span is all of its start-up work. The `Status` reply is not
    /// timed: the idle accept loop polls every 20 ms, so its timing says
    /// more about that poll than about start-up.
    fn start(env: &Env, dir: &Path) -> Result<(Self, Client, f64), String> {
        let socket = dir.join("sock");
        let state = dir.join("state");
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("daemon.log"))
            .map_err(|e| e.to_string())?;
        let mut cmd = Command::new(&env.tcm_run);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(&state)
            .args(["--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        // A fresh start fsyncs the new WAL and its directory; the earlier
        // rounds' writeback is not part of it.
        flush_filesystem(dir).map_err(|e| format!("syncfs: {e}"))?;
        let t0 = Instant::now();
        let mut proc = Proc::spawn(&mut cmd).map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut client = loop {
            match Client::connect(&socket) {
                Ok(client) => break client,
                Err(_) if !proc.running() => return Err("daemon exited during start-up".into()),
                Err(e) if t0.elapsed() > START_TIMEOUT => {
                    return Err(format!("daemon not reachable: {e}"))
                }
                Err(_) => std::thread::sleep(CONNECT_POLL),
            }
        };
        let setup = t0.elapsed().as_secs_f64();
        client
            .status_full(None)
            .map_err(|e| format!("first status: {e}"))?;
        Ok((Self { proc, state }, client, setup))
    }

    fn connect(dir: &Path) -> Result<Client, String> {
        Client::connect(dir.join("sock")).map_err(|e| format!("connect: {e}"))
    }

    fn result(state: &Path, id: u64) -> Result<String, String> {
        let path = state.join(format!("job-{id}.result.json"));
        fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Drains the daemon and waits for its clean exit.
    fn stop(mut self, client: &mut Client) -> Result<Exit, String> {
        client.drain().map_err(|e| format!("drain: {e}"))?;
        let exit = self
            .proc
            .wait(START_TIMEOUT)
            .map_err(|e| format!("drain: {e}"))?;
        if exit.status.success() {
            Ok(exit)
        } else {
            Err(format!("daemon exited with {} after drain", exit.status))
        }
    }
}

/// The daemon's metric exposition as `name{labels} → value`.
fn scrape(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect())
}

/// One job of a closed-loop round, seen from its client.
#[derive(Debug)]
struct StreamJob {
    spec: usize,
    submit: Instant,
    done: Instant,
    ack_ms: f64,
    first_cell_ms: Option<f64>,
    gaps_ms: Vec<f64>,
    tail_ms: Option<f64>,
    rtt_us: Option<f64>,
    result: Result<String, String>,
}

#[derive(Debug)]
struct StreamRound {
    wall: f64,
    setup: f64,
    peak_rss_mib: f64,
    jobs: Vec<StreamJob>,
    wal_records: f64,
    wal_bytes: f64,
}

/// A fresh daemon serving `specs` to two closed-loop clients: each
/// submits one job and watches it to `JobDone` before the next. With
/// `observe`, each client also sends a `Status` for its previous job
/// just before each submit (timing the round trip while the other
/// connection's job runs) and the round ends with a metrics scrape.
fn stream_round(
    env: &Env,
    dir: &Path,
    specs: &[JobSpec],
    observe: bool,
) -> Result<StreamRound, String> {
    let (daemon, first, setup) = Daemon::start(env, dir)?;
    let mut clients = [first, Daemon::connect(dir)?];
    let next = AtomicUsize::new(0);
    let state = daemon.state.clone();
    let client_loop = |client: &mut Client| -> Result<Vec<StreamJob>, String> {
        let mut jobs = Vec::new();
        let mut prev = None;
        loop {
            let k = next.fetch_add(1, Ordering::SeqCst);
            let Some(spec) = specs.get(k) else {
                return Ok(jobs);
            };
            let rtt_us = match (observe, prev) {
                (true, Some(id)) => {
                    let t = Instant::now();
                    client
                        .status(Some(id))
                        .map_err(|e| format!("status: {e}"))?;
                    Some(t.elapsed().as_secs_f64() * 1e6)
                }
                _ => None,
            };
            let submit = Instant::now();
            let id = client
                .submit(spec.clone())
                .map_err(|e| format!("submit: {e}"))?;
            let acked = Instant::now();
            let mut cells = Vec::with_capacity(CELLS_PER_JOB);
            let (job_state, detail) = client
                .watch(id, |event| {
                    if matches!(event, Event::CellResult { .. }) {
                        cells.push(Instant::now());
                    }
                })
                .map_err(|e| format!("watch: {e}"))?;
            let done = Instant::now();
            let result = match job_state {
                JobState::Done => Daemon::result(&state, id),
                other => Err(format!("job {id} {}: {detail}", other.as_str())),
            };
            jobs.push(StreamJob {
                spec: k,
                submit,
                done,
                ack_ms: ms(acked - submit),
                first_cell_ms: cells.first().map(|&c| ms(c - acked)),
                gaps_ms: cells.windows(2).map(|w| ms(w[1] - w[0])).collect(),
                tail_ms: cells.last().map(|&c| ms(done - c)),
                rtt_us,
                result,
            });
            prev = Some(id);
        }
    };
    let per_client: Vec<Result<Vec<StreamJob>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| s.spawn(|| client_loop(client)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut jobs = Vec::new();
    for part in per_client {
        jobs.extend(part?);
    }
    jobs.sort_by_key(|j| j.spec);
    let (Some(start), Some(end)) = (
        jobs.iter().map(|j| j.submit).min(),
        jobs.iter().map(|j| j.done).max(),
    ) else {
        return Err("no job ran".into());
    };
    let [mut client, _] = clients;
    let (wal_records, wal_bytes) = if observe {
        let m = scrape(&mut client)?;
        let per_job = |k: &str| m.get(k).copied().unwrap_or(0.0) / jobs.len() as f64;
        (
            per_job("tcm_serve_wal_appended_records_total"),
            per_job("tcm_serve_wal_appended_bytes_total"),
        )
    } else {
        (0.0, 0.0)
    };
    let exit = daemon.stop(&mut client)?;
    Ok(StreamRound {
        wall: (end - start).as_secs_f64(),
        setup,
        peak_rss_mib: exit.peak_rss_mib,
        jobs,
        wal_records,
        wal_bytes,
    })
}

#[derive(Debug)]
struct RecoverRound {
    wall: f64,
    /// The restart's start-up (the first start's when nothing was
    /// killed), as [`Daemon::start`] times it.
    setup: f64,
    peak_rss_mib: f64,
    latencies: Vec<f64>,
    /// Result document per spec, in spec order.
    results: Vec<Result<String, String>>,
    readmitted: f64,
    resumed: f64,
    replay_ms: Vec<f64>,
    /// The WAL as the SIGKILL left it.
    crashed_wal: Option<String>,
}

/// Per-job terminal observations while polling `Status`.
#[derive(Default)]
struct Progress {
    done_at: HashMap<u64, Instant>,
    failed: HashMap<u64, String>,
}

impl Progress {
    /// One `Status` poll; returns the cells done across every job, and
    /// whether a running job has some but not all of its cells done.
    fn poll(&mut self, client: &mut Client) -> Result<(u64, bool), String> {
        let jobs = client.status(None).map_err(|e| format!("status: {e}"))?;
        let now = Instant::now();
        let (mut cells, mut mid_job) = (0, false);
        for job in jobs {
            let done = job.progress.map_or(0, |p| p.done);
            cells += done;
            mid_job |= job.state == JobState::Running && (1..CELLS_PER_JOB as u64).contains(&done);
            match job.state {
                JobState::Done => {
                    self.done_at.entry(job.id).or_insert(now);
                }
                JobState::Failed | JobState::Cancelled => {
                    self.failed.insert(
                        job.id,
                        format!("job {} {}: {}", job.id, job.state.as_str(), job.detail),
                    );
                }
                JobState::Queued | JobState::Running => {}
            }
        }
        Ok((cells, mid_job))
    }

    fn finished(&self) -> usize {
        self.done_at.len() + self.failed.len()
    }
}

/// Submits every spec at once to a fresh daemon and polls `Status`.
/// With `kill`, SIGKILLs the daemon once half the cells are done and a
/// running job is part-way through, so that the restart both re-admits
/// jobs and resumes cells from a checkpoint. It then times
/// `replay_samples` `Wal::open`s of copies of the crashed WAL, and
/// restarts the daemon on the same state to run to completion.
fn recover_round(
    env: &Env,
    dir: &Path,
    specs: &[JobSpec],
    kill: bool,
    replay_samples: usize,
) -> Result<RecoverRound, String> {
    let (mut daemon, mut client, mut setup) = Daemon::start(env, dir)?;
    let t0 = Instant::now();
    let mut submitted = Vec::with_capacity(specs.len());
    for spec in specs {
        let at = Instant::now();
        let id = client
            .submit(spec.clone())
            .map_err(|e| format!("submit: {e}"))?;
        submitted.push((id, at));
    }
    let total_cells = (specs.len() * CELLS_PER_JOB) as u64;
    let mut progress = Progress::default();
    let wait_until = |client: &mut Client, progress: &mut Progress, half: bool| loop {
        let (cells, mid_job) = progress.poll(client)?;
        if progress.finished() == specs.len() || (half && mid_job && 2 * cells >= total_cells) {
            return Ok::<(), String>(());
        }
        if t0.elapsed() > ROUND_TIMEOUT {
            return Err(format!("jobs unfinished after {ROUND_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
    };
    wait_until(&mut client, &mut progress, kill)?;
    let (mut peak, mut readmitted, mut resumed, mut replay_ms) = (0.0f64, 0.0, 0.0, Vec::new());
    let mut crashed_wal = None;
    if kill && progress.finished() < specs.len() {
        drop(client);
        peak = daemon
            .proc
            .kill()
            .map_err(|e| format!("kill: {e}"))?
            .peak_rss_mib;
        let wal = fs::read_to_string(daemon.state.join("wal.jsonl"))
            .map_err(|e| format!("read WAL: {e}"))?;
        let copy = dir.join("wal-copy.jsonl");
        for _ in 0..replay_samples {
            fs::write(&copy, &wal).map_err(|e| format!("copy WAL: {e}"))?;
            let t = Instant::now();
            Wal::open(&copy).map_err(|e| format!("replay WAL copy: {e}"))?;
            replay_ms.push(ms(t.elapsed()));
        }
        crashed_wal = Some(wal);
        (daemon, client, setup) = Daemon::start(env, dir)?;
        wait_until(&mut client, &mut progress, false)?;
        let m = scrape(&mut client)?;
        readmitted = m
            .get("tcm_serve_jobs_readmitted_total")
            .copied()
            .unwrap_or(0.0);
        resumed = m
            .get("tcm_serve_cells_resumed_total")
            .copied()
            .unwrap_or(0.0);
    }
    let end = progress
        .done_at
        .values()
        .max()
        .copied()
        .unwrap_or_else(Instant::now);
    let mut latencies = Vec::new();
    let results = submitted
        .iter()
        .map(|&(id, at)| match progress.done_at.get(&id) {
            Some(&done) => {
                latencies.push((done - at).as_secs_f64());
                Daemon::result(&daemon.state, id)
            }
            None => Err(progress
                .failed
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("job {id} lost"))),
        })
        .collect();
    let exit = daemon.stop(&mut client)?;
    Ok(RecoverRound {
        wall: (end - t0).as_secs_f64(),
        setup,
        peak_rss_mib: peak.max(exit.peak_rss_mib),
        latencies,
        results,
        readmitted,
        resumed,
        replay_ms,
        crashed_wal,
    })
}

/// Start-up times of `n` more daemons: each on a fresh state directory
/// holding `wal` (a restart) or nothing (a first start), SIGKILLed once
/// it has answered. A start-up takes a few milliseconds, so one per
/// round is too few samples for a steady median.
fn setup_probes(env: &Env, wal: Option<&str>, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|i| {
            let dir = env.dir(&format!("setup-{i}"))?;
            if let Some(wal) = wal {
                fs::create_dir_all(dir.join("state")).map_err(|e| e.to_string())?;
                fs::write(dir.join("state/wal.jsonl"), wal).map_err(|e| e.to_string())?;
            }
            let (mut daemon, _, setup) = Daemon::start(env, &dir)?;
            daemon.proc.kill().map_err(|e| format!("kill: {e}"))?;
            let _ = fs::remove_dir_all(&dir);
            Ok(setup)
        })
        .collect()
}

fn setup_probe_count(env: &Env) -> usize {
    if env.smoke {
        2
    } else {
        SETUP_PROBES
    }
}

/// Counts each job as one unit of work, failed unless `ok` holds for
/// its result.
fn tally(
    report: &mut Report,
    results: &[&Result<String, String>],
    ok: impl Fn(usize, &str) -> bool,
) {
    for (k, result) in results.iter().enumerate() {
        match result {
            Ok(text) if ok(k, text) => report.work(1, 0),
            Ok(_) => report.error(&format!("job {k}: result failed its check"), 1),
            Err(e) => report.error(e, 1),
        }
    }
}

fn specs(env: &Env, range: std::ops::Range<usize>) -> Vec<JobSpec> {
    range.map(|j| job_spec(env, j)).collect()
}

fn stream_jobs(env: &Env) -> usize {
    if env.smoke {
        SMOKE_JOBS
    } else {
        STREAM_JOBS
    }
}

/// Jobs per serve-recover round and per traced daemon round of serve-*.
pub fn recover_jobs(env: &Env) -> usize {
    if env.smoke {
        SMOKE_JOBS
    } else {
        RECOVER_JOBS
    }
}

/// The untraced serve-stream run: closed-loop rounds of 100 fresh jobs
/// on a fresh daemon until `--seconds` have passed (at least three),
/// then more fresh start-ups for `setup_s`. Job percentiles are taken
/// per round and reported as their median over the rounds, so that a
/// slow spell of the machine in one round does not become the run's
/// tail.
pub fn run_stream(env: &Env, report: &mut Report) {
    let per_round = stream_jobs(env);
    let min_rounds = if env.smoke { 1 } else { MIN_ROUNDS };
    let t0 = Instant::now();
    let (mut walls, mut setups, mut peaks) = (vec![], vec![], vec![]);
    let (mut p50s, mut p90s) = (vec![], vec![]);
    let mut first_result = None;
    while walls.len() < min_rounds || (!env.smoke && t0.elapsed() < env.seconds) {
        let r = walls.len();
        let round = env.dir(&format!("stream-{r}")).and_then(|dir| {
            stream_round(
                env,
                &dir,
                &specs(env, r * per_round..(r + 1) * per_round),
                false,
            )
        });
        let round = match round {
            Ok(round) => round,
            Err(e) => {
                report.error(&e, per_round as u64);
                break;
            }
        };
        let results: Vec<&Result<String, String>> = round.jobs.iter().map(|j| &j.result).collect();
        tally(report, &results, |_, text| valid_result(text));
        if r == 0 {
            first_result = round.jobs.first().and_then(|j| j.result.clone().ok());
        }
        walls.push(round.wall);
        setups.push(round.setup);
        peaks.push(round.peak_rss_mib);
        let latencies: Vec<f64> = round
            .jobs
            .iter()
            .map(|j| (j.done - j.submit).as_secs_f64())
            .collect();
        p50s.extend(stats::median(&latencies));
        p90s.extend(stats::percentile(&latencies, 90.0));
        let _ = fs::remove_dir_all(env.work.join(format!("stream-{r}")));
    }
    match setup_probes(env, None, setup_probe_count(env)) {
        Ok(more) => setups.extend(more),
        Err(e) => report.error(&format!("setup probes: {e}"), 1),
    }
    report.median("grid_wall_s", &walls);
    report.median("job_p50_s", &p50s);
    report.median("job_p90_s", &p90s);
    if !stats::percentile_is_supported(90.0, per_round) {
        println!(
            "note: only {} job latencies per round lie beyond p90",
            stats::beyond(90.0, per_round)
        );
    }
    report.median("setup_s", &setups);
    report.median("peak_rss_mb", &peaks);
    report.check(
        "job 0's result is byte-identical to an in-process resolve_sweep + Session + render_result",
        first_result.is_some() && render_in_process(&sweep_spec(env, 0)).ok() == first_result,
    );
}

/// The untraced serve-recover run: an uninterrupted reference round,
/// then rounds that SIGKILL the daemon half-way and restart it, until
/// `--seconds` have passed (at least three), then more restarts on the
/// crashed WAL for `setup_s`.
pub fn run_recover(env: &Env, report: &mut Report) {
    let jobs = specs(env, 0..recover_jobs(env));
    let reference = env
        .dir("recover-ref")
        .and_then(|dir| recover_round(env, &dir, &jobs, false, 0));
    let reference: Vec<String> = match reference {
        Ok(round) => {
            let ok = round
                .results
                .iter()
                .all(|r| r.as_ref().is_ok_and(|t| valid_result(t)));
            report.check(
                "every uninterrupted reference job is Done with a valid result",
                ok,
            );
            report.check(
                "reference job 0 is byte-identical to an in-process render",
                round.results.first().and_then(|r| r.as_ref().ok()).cloned()
                    == render_in_process(&sweep_spec(env, 0)).ok(),
            );
            round
                .results
                .into_iter()
                .map(Result::unwrap_or_default)
                .collect()
        }
        Err(e) => {
            report.error(&format!("reference round: {e}"), jobs.len() as u64);
            Vec::new()
        }
    };
    let min_rounds = if env.smoke { 1 } else { MIN_ROUNDS };
    let t0 = Instant::now();
    let (mut walls, mut setups, mut peaks, mut latencies) = (vec![], vec![], vec![], vec![]);
    let mut crashed_wal = None;
    while !reference.is_empty()
        && (walls.len() < min_rounds || (!env.smoke && t0.elapsed() < env.seconds))
    {
        let r = walls.len();
        let round = env
            .dir(&format!("recover-{r}"))
            .and_then(|dir| recover_round(env, &dir, &jobs, true, 0));
        let round = match round {
            Ok(round) => round,
            Err(e) => {
                report.error(&e, jobs.len() as u64);
                break;
            }
        };
        let results: Vec<&Result<String, String>> = round.results.iter().collect();
        tally(report, &results, |k, text| text == reference[k]);
        report.check(
            "the restarted daemon re-admitted at least one job",
            round.readmitted >= 1.0,
        );
        walls.push(round.wall);
        setups.push(round.setup);
        peaks.push(round.peak_rss_mib);
        latencies.extend(round.latencies);
        crashed_wal = round.crashed_wal.or(crashed_wal);
        let _ = fs::remove_dir_all(env.work.join(format!("recover-{r}")));
    }
    if let Some(wal) = crashed_wal {
        match setup_probes(env, Some(&wal), setup_probe_count(env)) {
            Ok(more) => setups.extend(more),
            Err(e) => report.error(&format!("setup probes: {e}"), 1),
        }
    }
    report.median("grid_wall_s", &walls);
    report.median("job_p50_s", &latencies);
    report.percentile("job_p90_s", &latencies, 90.0);
    report.median("setup_s", &setups);
    report.median("peak_rss_mb", &peaks);
}

/// The traced daemon layers: one observed closed-loop round of `jobs`
/// jobs, then one crash round of the same specs whose results must
/// match the closed-loop round's.
pub fn probe(env: &Env, jobs: usize, report: &mut Report) {
    let stream = env
        .dir("probe-stream")
        .and_then(|dir| stream_round(env, &dir, &specs(env, 0..jobs), true));
    let stream = match stream {
        Ok(round) => round,
        Err(e) => return report.error(&format!("observed round: {e}"), jobs as u64),
    };
    let results: Vec<&Result<String, String>> = stream.jobs.iter().map(|j| &j.result).collect();
    tally(report, &results, |_, text| valid_result(text));
    let col =
        |f: fn(&StreamJob) -> Option<f64>| stream.jobs.iter().filter_map(f).collect::<Vec<f64>>();
    report.median("serve.submit.ack_ms", &col(|j| Some(j.ack_ms)));
    report.median("serve.job.first_cell_ms", &col(|j| j.first_cell_ms));
    let gaps: Vec<f64> = stream
        .jobs
        .iter()
        .flat_map(|j| j.gaps_ms.iter().copied())
        .collect();
    report.median("serve.job.cell_gap_ms", &gaps);
    report.median("serve.job.tail_ms", &col(|j| j.tail_ms));
    report.median("proto.status.rtt_us", &col(|j| j.rtt_us));
    report.set("serve.wal.records", stream.wal_records);
    report.set("serve.wal.bytes", stream.wal_bytes);

    let crash = env
        .dir("probe-recover")
        .and_then(|dir| recover_round(env, &dir, &specs(env, 0..jobs), true, REPLAY_SAMPLES));
    let crash = match crash {
        Ok(round) => round,
        Err(e) => return report.error(&format!("crash round: {e}"), jobs as u64),
    };
    let results: Vec<&Result<String, String>> = crash.results.iter().collect();
    tally(report, &results, |k, text| {
        stream
            .jobs
            .get(k)
            .and_then(|j| j.result.as_ref().ok())
            .is_some_and(|s| s == text)
    });
    report.check(
        "the restarted daemon re-admitted at least one job",
        crash.readmitted >= 1.0,
    );
    report.median("serve.wal.replay_ms", &crash.replay_ms);
    report.set("serve.recover.jobs_readmitted", crash.readmitted);
    report.set("serve.recover.cells_resumed", crash.resumed);
    for dir in ["probe-stream", "probe-recover"] {
        let _ = fs::remove_dir_all(env.work.join(dir));
    }
}
