//! The experiment layer: [`Session`] + [`Sweep`] — the single public
//! entry point for running policy-comparison experiments.
//!
//! Every figure and table of the paper is a *sweep*: N policies × M
//! workloads (× K simulator seeds), each cell an independent,
//! deterministic simulation. This module makes that structure explicit:
//!
//! * a [`Session`] owns the immutable machine/run configuration
//!   ([`RunConfig`]) and a thread-safe cache of alone-run IPCs (the
//!   slowdown denominators; see [`AloneIpcCache`]), private or shared;
//! * a [`Sweep`] builder names the grid declaratively
//!   (`.policies(..).workloads(..).seeds(..)`) and executes it either
//!   serially ([`Sweep::run`]) or on workers pulling alone baselines,
//!   then cells, from one queue ([`Sweep::run_parallel`]) — with
//!   **bit-identical** results, because every cell is an isolated
//!   simulation and each baseline is simulated once, single-flight;
//! * a [`SweepResult`] holds the full result grid plus aggregate
//!   metrics and a [`SweepStats`] throughput record (cells simulated,
//!   sim-cycles/sec, worker count).
//!
//! # Example
//!
//! ```
//! use tcm_sim::{PolicyKind, RunConfig, Session};
//! use tcm_types::SystemConfig;
//! use tcm_workload::random_workload;
//!
//! let rc = RunConfig::builder()
//!     .system(SystemConfig::builder().num_threads(4).build()?)
//!     .horizon(50_000)
//!     .build();
//! let session = Session::new(rc);
//! let result = session
//!     .sweep()
//!     .policies(PolicyKind::paper_lineup(4))
//!     .workloads((0..2).map(|s| random_workload(s, 4, 0.75)))
//!     .run_parallel(2);
//! assert_eq!(result.cells().len(), 5 * 2);
//! for (label, avg) in result.averages() {
//!     assert!(avg.weighted_speedup > 0.0, "{label}");
//! }
//! # Ok::<(), tcm_types::ConfigError>(())
//! ```

use crate::checkpoint;
use crate::machine::RunResult;
use crate::metrics::{workload_metrics, IpcPair, WorkloadMetrics};
use crate::runner::{workload_seed, EvalResult, PolicyKind, RunConfig};
use crate::system::System;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tcm_chaos::FaultPlan;
use tcm_telemetry::{DegradationAnomaly, Telemetry, TelemetryConfig};
use tcm_types::{CancelToken, ControllerId, Cycle, SimError, SystemConfig};
use tcm_workload::{BenchmarkProfile, WorkloadSpec};

pub use crate::alone::{AloneIpcCache, ProfileFingerprint};

/// The cooperative token one cell polls: the per-cell deadline from the
/// run configuration combined, when a sweep-level `cancel` parent is
/// installed, with that parent — a single parent cancel aborts every
/// in-flight cell.
fn cell_token(rc: &RunConfig, cancel: Option<&CancelToken>) -> Option<CancelToken> {
    match (cancel, rc.cell_deadline) {
        (Some(parent), deadline) => Some(parent.child_with_deadline(deadline)),
        (None, Some(deadline)) => Some(CancelToken::with_deadline(deadline)),
        (None, None) => None,
    }
}

/// Runs one (policy, workload) cell and computes the paper's metrics.
///
/// `alone_ipc` supplies the slowdown denominators (typically from a
/// [`Session`]'s cache), polling the token it is handed: the cell's
/// own, so a baseline the cell has to simulate counts against its
/// deadline. `seed_xor` perturbs the canonical per-workload simulator
/// seed (0 = the canonical seed). The run honors the configuration's
/// `verify` and `watchdog` hardening knobs.
pub(crate) fn try_eval_cell(
    policy: &PolicyKind,
    workload: &WorkloadSpec,
    rc: &RunConfig,
    weights: Option<&[f64]>,
    seed_xor: u64,
    cancel: Option<&CancelToken>,
    mut alone_ipc: impl FnMut(&BenchmarkProfile, Option<&CancelToken>) -> Result<f64, SimError>,
) -> Result<EvalResult, SimError> {
    let telemetry = rc.telemetry.as_ref().map(Telemetry::new);
    let seed = workload_seed(workload) ^ seed_xor;
    let token = cell_token(rc, cancel);
    let (run, _) = run_cell(
        policy,
        workload,
        rc,
        seed,
        weights,
        token.as_ref(),
        telemetry.as_ref(),
    )?;
    let pairs = workload
        .threads
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            Ok(IpcPair {
                shared: run.ipc[i],
                alone: alone_ipc(profile, token.as_ref())?,
            })
        })
        .collect::<Result<Vec<IpcPair>, SimError>>()?;
    let metrics = workload_metrics(&pairs);
    Ok(EvalResult {
        policy: policy.label(),
        workload: workload.name.clone(),
        metrics,
        slowdowns: pairs.iter().map(|p| p.slowdown()).collect(),
        speedups: pairs.iter().map(|p| p.speedup()).collect(),
        run,
        telemetry: telemetry.and_then(|t| t.snapshot()).map(Box::new),
    })
}

/// Everything [`try_eval_cell`] reads that can change a successful
/// result: the machine (topology included), the horizon, the policy
/// with its parameters, the workload's name (it seeds the traces) and
/// profiles, the seed-axis value, the weights as bits, and the verify,
/// chaos and telemetry settings. A sweep checkpoint names each stored
/// cell by this key's `{:?}` text, so a cell resumes only into a sweep
/// that would simulate it identically. [`RunConfig::watchdog`],
/// [`RunConfig::cell_deadline`] and [`RunConfig::intra_hosts`] are left
/// out: they decide whether a run fails or how it is scheduled, never
/// what a successful one returns.
#[derive(Debug)]
#[allow(
    dead_code,
    reason = "the fields are read by the derived Debug, which is the key"
)]
struct CellKey<'a> {
    system: &'a SystemConfig,
    horizon: Cycle,
    policy: &'a PolicyKind,
    workload: &'a str,
    profiles: Vec<ProfileFingerprint>,
    seed: u64,
    weight_bits: Option<Vec<u64>>,
    verify: bool,
    chaos: Option<&'a FaultPlan>,
    telemetry: Option<&'a TelemetryConfig>,
}

impl<'a> CellKey<'a> {
    /// The key of `policy` on `workload` at seed-axis value `seed`.
    fn new(
        policy: &'a PolicyKind,
        workload: &'a WorkloadSpec,
        rc: &'a RunConfig,
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Self {
        Self {
            system: &rc.system,
            horizon: rc.horizon,
            policy,
            workload: &workload.name,
            profiles: workload
                .threads
                .iter()
                .map(ProfileFingerprint::of)
                .collect(),
            seed,
            weight_bits: weights.map(|w| w.iter().map(|v| v.to_bits()).collect()),
            verify: rc.verify,
            chaos: rc.chaos.as_ref(),
            telemetry: rc.telemetry.as_ref(),
        }
    }
}

/// Builds the machine for `rc.system.topology` ([`System::for_policy`]),
/// applies `rc` once and runs it, polling `cancel` (a cell's token is
/// made by `cell_token`). Returns the run with the engine's degradation
/// log. Sweep cells, alone baselines and the
/// [`campaign`](crate::campaign) share it.
pub(crate) fn run_cell(
    policy: &PolicyKind,
    workload: &WorkloadSpec,
    rc: &RunConfig,
    seed: u64,
    weights: Option<&[f64]>,
    cancel: Option<&CancelToken>,
    telemetry: Option<&Telemetry>,
) -> Result<(RunResult, Vec<DegradationAnomaly>), SimError> {
    if let Some(plan) = &rc.chaos {
        plan.validate(&rc.system.topology)
            .map_err(SimError::Config)?;
    }
    let mut sys = System::for_policy(&rc.system, workload, policy, seed);
    if rc.verify {
        sys.enable_verification();
    }
    sys.set_watchdog(rc.watchdog);
    if let Some(plan) = &rc.chaos {
        sys.install_chaos(plan);
    }
    sys.set_cancel_token(cancel.cloned());
    if let Some(w) = weights {
        sys.set_thread_weights(w);
    }
    // Attached last so a ChaosScheduler wrapper installed by
    // `install_chaos` receives the handle too.
    if let Some(t) = telemetry {
        sys.set_telemetry(t);
    }
    let run = sys.try_run(rc.horizon)?;
    Ok((run, sys.degradation_events().to_vec()))
}

/// Why a sweep cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFailureKind {
    /// The cell's simulation panicked; the payload message is captured.
    Panic(String),
    /// The simulation surfaced a typed error (stall, invariant
    /// violation, bad configuration).
    Sim(SimError),
    /// The cell's wall-clock deadline expired (see
    /// [`RunConfig::cell_deadline`]); carries the simulated cycle
    /// reached. Unlike the failures above, a timeout depends on machine
    /// load: resuming the sweep's checkpoint with a longer deadline
    /// finishes the cell.
    Timeout(Cycle),
    /// The cell simulated successfully but its result could not be
    /// appended to the sweep checkpoint (e.g. disk full); carries the
    /// I/O error text. The result is discarded — a resume would re-run
    /// the cell — so the cell reports as failed rather than silently
    /// merging a non-durable result.
    Checkpoint(String),
}

impl std::fmt::Display for CellFailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailureKind::Panic(msg) => write!(f, "panicked: {msg}"),
            CellFailureKind::Sim(err) => write!(f, "{err}"),
            CellFailureKind::Timeout(cycle) => {
                write!(f, "cell deadline expired at simulated cycle {cycle}")
            }
            CellFailureKind::Checkpoint(err) => {
                write!(f, "checkpoint append failed: {err}")
            }
        }
    }
}

/// One failed sweep cell: grid coordinates, display names, and the
/// failure. Every cell is tried once: a panic or typed simulator error
/// would replay identically, and a timed-out cell is finished by
/// resuming the checkpoint with a longer deadline.
///
/// A failed cell never aborts the sweep — every other cell's result is
/// still produced (and is bit-identical to a sweep without the failing
/// cell's policy/workload).
///
/// Its one text form is a grep-able line, which sweeps print to stderr
/// for every failed cell and the `tcm-serve` daemon reuses verbatim in
/// its streamed `CellFailure` events:
///
/// ```text
/// cell-failure policy="TCM" workload="mix3" seed=7 kind=timeout elapsed_ms=450 detail="..."
/// ```
///
/// `kind` is one of `panic`, `sim`, `timeout`, `checkpoint`. Double
/// quotes inside the detail are replaced with single quotes so the line
/// stays splittable on `"`-delimited fields. When the failure is
/// attributed to a specific memory controller, a trailing
/// ` controller=mc<N>` field is appended.
#[derive(Debug, Clone, PartialEq)]
pub struct CellError {
    /// Index into the sweep's policy axis.
    pub policy: usize,
    /// Index into the sweep's workload axis.
    pub workload: usize,
    /// Index into the sweep's seed axis.
    pub seed: usize,
    /// Label of the failing policy.
    pub policy_label: String,
    /// Name of the failing workload.
    pub workload_name: String,
    /// The failing cell's seed axis *value* (the seed index only names a
    /// position; this is the number to paste into a reproduction).
    pub seed_value: u64,
    /// Wall-clock time the cell ran before it failed. Distinguishes a
    /// cell that timed out instantly (misconfigured deadline) from one
    /// that burned its full budget.
    pub elapsed: Duration,
    /// The failure.
    pub kind: CellFailureKind,
    /// The memory controller the failure is attributed to, when the
    /// machine has more than one and the failure names a culprit (a
    /// stall report's watchdog attribution, or the controller owning an
    /// invariant violation's channel).
    pub controller: Option<ControllerId>,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            CellFailureKind::Panic(_) => "panic",
            CellFailureKind::Sim(_) => "sim",
            CellFailureKind::Timeout(_) => "timeout",
            CellFailureKind::Checkpoint(_) => "checkpoint",
        };
        write!(
            f,
            "cell-failure policy=\"{}\" workload=\"{}\" seed={} kind={} \
             elapsed_ms={} detail=\"{}\"",
            self.policy_label,
            self.workload_name,
            self.seed_value,
            kind,
            self.elapsed.as_millis(),
            self.kind.to_string().replace('"', "'"),
        )?;
        if let Some(mc) = self.controller {
            write!(f, " controller={mc}")?;
        }
        Ok(())
    }
}

/// Text of a panic payload, for [`CellFailureKind::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cumulative execution accounting across every sweep and single-cell
/// evaluation a [`Session`] has run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Grid cells simulated (shared runs).
    pub cells: u64,
    /// Alone-run simulations executed (cache misses).
    pub alone_runs: u64,
    /// Total simulated cycles across shared and alone runs.
    pub sim_cycles: u64,
    /// Wall-clock time spent executing sweeps.
    pub wall: Duration,
    /// Largest worker count any sweep used.
    pub max_workers: usize,
}

/// An experiment session: one immutable machine/run configuration plus
/// a thread-safe alone-IPC cache.
///
/// Create one per machine configuration, then run any number of
/// [`Sweep`]s or single-cell evaluations against it; alone-run IPCs are
/// computed once per unique benchmark profile and shared by every
/// experiment in the session — and, through
/// [`Session::with_alone_cache`], by every session sharing the cache.
#[derive(Debug)]
pub struct Session {
    rc: RunConfig,
    cache: Arc<AloneIpcCache>,
    stats: Mutex<SessionStats>,
}

impl Session {
    /// A session on the given run configuration, with a private
    /// alone-IPC cache.
    pub fn new(rc: RunConfig) -> Self {
        Self::with_alone_cache(rc, Arc::default())
    }

    /// A session on the given run configuration that looks alone IPCs
    /// up in (and adds them to) `cache`. The cache keys entries by
    /// machine and horizon, so sessions on different configurations can
    /// share one safely; results are bit-identical to a private cache.
    pub fn with_alone_cache(rc: RunConfig, cache: Arc<AloneIpcCache>) -> Self {
        Self {
            rc,
            cache,
            stats: Mutex::new(SessionStats::default()),
        }
    }

    /// A session on the paper's baseline machine with the given horizon.
    pub fn baseline(horizon: tcm_types::Cycle) -> Self {
        Self::new(RunConfig::builder().horizon(horizon).build())
    }

    /// The session's run configuration.
    pub fn run_config(&self) -> &RunConfig {
        &self.rc
    }

    /// The session's alone-IPC cache (for inspection; filled lazily).
    pub fn alone_cache(&self) -> &AloneIpcCache {
        &self.cache
    }

    /// IPC of `profile` running alone on this session's machine
    /// (cached for every session sharing this one's cache).
    pub fn alone_ipc(&self, profile: &BenchmarkProfile) -> f64 {
        let lookup = self.cache.get_or_compute(profile, &self.rc, None);
        lookup
            .expect("an alone run without a token is never cancelled")
            .0
    }

    /// [`Session::alone_ipc`] under `cancel`, adding 1 to `runs` if this
    /// call ran the simulation. A shared cache's miss counter also moves
    /// with other sessions' lookups, so a sweep counts its own alone
    /// runs this way.
    fn alone_ipc_counted(
        &self,
        profile: &BenchmarkProfile,
        runs: &AtomicU64,
        cancel: Option<&CancelToken>,
    ) -> Result<f64, SimError> {
        let (ipc, ran) = self.cache.get_or_compute(profile, &self.rc, cancel)?;
        runs.fetch_add(u64::from(ran), Ordering::Relaxed);
        Ok(ipc)
    }

    /// Starts building a sweep over this session.
    pub fn sweep(&self) -> Sweep<'_> {
        Sweep {
            session: self,
            policies: Vec::new(),
            workloads: Vec::new(),
            seeds: vec![0],
            weights: None,
            checkpoint: None,
            on_cell: None,
            on_failure: None,
            pause: None,
            cancel: None,
        }
    }

    /// Runs one policy on one workload (a 1×1 sweep cell; OS thread
    /// weights go through [`Sweep::weights`]).
    pub fn eval(&self, policy: &PolicyKind, workload: &WorkloadSpec) -> EvalResult {
        let t0 = Instant::now();
        let runs = AtomicU64::new(0);
        let result = try_eval_cell(policy, workload, &self.rc, None, 0, None, |p, cancel| {
            self.alone_ipc_counted(p, &runs, cancel)
        })
        .unwrap_or_else(|err| panic!("cell evaluation failed: {err}"));
        self.record(1, runs.into_inner(), t0.elapsed(), 1);
        result
    }

    /// Warms the alone-IPC cache for every profile in `workloads` on the
    /// calling thread, so a later sweep runs no alone simulation. Sweeps
    /// do not need it: they queue their own baselines on their workers.
    pub fn prepopulate_alone<'w>(&self, workloads: impl IntoIterator<Item = &'w WorkloadSpec>) {
        for profile in workloads.into_iter().flat_map(|w| &w.threads) {
            self.alone_ipc(profile);
        }
    }

    /// Cumulative execution statistics for this session.
    pub fn stats(&self) -> SessionStats {
        *self.stats.lock().expect("session stats poisoned")
    }

    /// One-line summary of the session's cumulative execution, suitable
    /// for experiment reports.
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        let secs = s.wall.as_secs_f64();
        let rate = if secs > 0.0 {
            s.sim_cycles as f64 / secs
        } else {
            0.0
        };
        format!(
            "sweep engine: {} cells + {} alone runs, {} workers max, \
             {:.2e} sim-cycles/sec over {:.1}s",
            s.cells, s.alone_runs, s.max_workers, rate, secs,
        )
    }

    fn record(&self, cells: u64, alone_runs: u64, wall: Duration, workers: usize) {
        let mut stats = self.stats.lock().expect("session stats poisoned");
        stats.cells += cells;
        stats.alone_runs += alone_runs;
        stats.sim_cycles += (cells + alone_runs) * self.rc.horizon;
        stats.wall += wall;
        stats.max_workers = stats.max_workers.max(workers);
    }
}

/// Observer invoked for every produced cell (`resumed = true` when the
/// cell was restored from a checkpoint rather than simulated).
pub type CellHook = Box<dyn Fn(&SweepCell, bool) + Send + Sync>;
/// Observer invoked for every failed cell.
pub type FailureHook = Box<dyn Fn(&CellError) + Send + Sync>;

/// Declarative description of an experiment grid: policies × workloads
/// × seeds, built from [`Session::sweep`] and executed with
/// [`Sweep::run`] / [`Sweep::run_parallel`].
pub struct Sweep<'s> {
    session: &'s Session,
    policies: Vec<PolicyKind>,
    workloads: Vec<WorkloadSpec>,
    seeds: Vec<u64>,
    weights: Option<Vec<f64>>,
    checkpoint: Option<PathBuf>,
    on_cell: Option<CellHook>,
    on_failure: Option<FailureHook>,
    pause: Option<Arc<AtomicBool>>,
    cancel: Option<CancelToken>,
}

impl std::fmt::Debug for Sweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("policies", &self.policies)
            .field("workloads", &self.workloads.len())
            .field("seeds", &self.seeds)
            .field("weights", &self.weights)
            .field("checkpoint", &self.checkpoint)
            .field("on_cell", &self.on_cell.is_some())
            .field("on_failure", &self.on_failure.is_some())
            .field("pause", &self.pause)
            .field("cancel", &self.cancel)
            .finish_non_exhaustive()
    }
}

impl Sweep<'_> {
    /// Adds policies to the grid.
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies.extend(policies);
        self
    }

    /// Adds workloads to the grid.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Replaces the simulator-seed axis (default: the single canonical
    /// seed, `[0]`). Seed 0 reproduces the per-workload canonical seed;
    /// other values perturb it deterministically.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        if self.seeds.is_empty() {
            self.seeds.push(0);
        }
        self
    }

    /// Installs OS thread weights on every cell's policy (the paper's
    /// Section 7.4 experiment).
    pub fn weights(mut self, weights: &[f64]) -> Self {
        self.weights = Some(weights.to_vec());
        self
    }

    /// Checkpoints the sweep to (and resumes it from) a JSONL file.
    ///
    /// Every completed cell is appended durably (one line, fsynced), so
    /// a killed sweep loses at most the cells in flight and a torn last
    /// line, which loading drops. Each entry is keyed by everything
    /// that can change the cell's result — machine, horizon, policy and
    /// parameters, workload, seed, weights, verify, fault plan and
    /// telemetry. A sweep run with the same checkpoint path restores
    /// every cell whose key is stored, **bit-identically** (floats are
    /// stored as IEEE-754 bit patterns, not decimal), and simulates the
    /// rest. Entries it does not restore stay in the file; only a torn
    /// last line is cut off. Failed cells are never recorded, so a
    /// resume runs them again.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Installs an observer called for every produced cell, from the
    /// worker thread that finished it (or the calling thread, for cells
    /// restored from a checkpoint — those report `resumed = true`). The
    /// mechanism behind the `tcm-serve` daemon's streamed `CellResult`
    /// events.
    pub fn on_cell(mut self, hook: impl Fn(&SweepCell, bool) + Send + Sync + 'static) -> Self {
        self.on_cell = Some(Box::new(hook));
        self
    }

    /// Installs an observer called for every failed cell, from the
    /// worker thread that observed it.
    pub fn on_failure(mut self, hook: impl Fn(&CellError) + Send + Sync + 'static) -> Self {
        self.on_failure = Some(Box::new(hook));
        self
    }

    /// Installs a drain flag: once it reads `true`, workers finish (and
    /// checkpoint) their in-flight cell but start no further ones —
    /// remaining cells are counted in [`SweepStats::skipped`] and can be
    /// resumed from the checkpoint later. The mechanism behind the
    /// daemon's graceful SIGTERM drain.
    pub fn pause_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.pause = Some(flag);
        self
    }

    /// Installs a sweep-level cancellation parent: every cell polls a
    /// child of this token (combined with the per-cell deadline), so one
    /// cancel aborts in-flight cells mid-simulation *and* skips the
    /// rest. Harder than [`Sweep::pause_flag`], which lets in-flight
    /// cells finish.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Executes every cell serially on the calling thread.
    pub fn run(self) -> SweepResult {
        self.execute(1)
    }

    /// Executes the grid on `workers` threads sharing one work queue.
    ///
    /// Results are **bit-identical** to [`Sweep::run`]: each cell is an
    /// isolated deterministic simulation, and so is each alone baseline,
    /// simulated once by whichever worker takes it.
    pub fn run_parallel(self, workers: usize) -> SweepResult {
        self.execute(workers.max(1))
    }

    /// Executes with a worker per available core (at least two, so
    /// the shared queue stays exercised even on single-core CI machines).
    pub fn run_auto(self) -> SweepResult {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        self.execute(workers)
    }

    fn execute(self, workers: usize) -> SweepResult {
        assert!(
            !self.policies.is_empty() && !self.workloads.is_empty(),
            "a sweep needs at least one policy and one workload"
        );
        let t0 = Instant::now();
        let rc = &self.session.rc;
        let (np, nw, ns) = (self.policies.len(), self.workloads.len(), self.seeds.len());
        let total = np * nw * ns;
        // Grid order: policy-major, then workload, then seed.
        let indices: Vec<(usize, usize, usize)> = (0..np)
            .flat_map(|p| (0..nw).flat_map(move |w| (0..ns).map(move |s| (p, w, s))))
            .collect();

        // Checkpoint/resume: a grid position whose key is stored is
        // restored verbatim (bit-identical — see `checkpoint.rs`); the
        // rest run.
        let keys: Vec<String> = indices
            .iter()
            .map(|&(p, w, s)| {
                let key = CellKey::new(
                    &self.policies[p],
                    &self.workloads[w],
                    rc,
                    self.weights.as_deref(),
                    self.seeds[s],
                );
                format!("{key:?}")
            })
            .collect();
        let (log, stored) = match &self.checkpoint {
            Some(path) => {
                let (log, stored) = checkpoint::open(path).unwrap_or_else(|err| {
                    panic!("cannot open sweep checkpoint {}: {err}", path.display())
                });
                (Some(Mutex::new(log)), stored)
            }
            None => (None, HashMap::new()),
        };
        let mut cells: Vec<Option<SweepCell>> = indices
            .iter()
            .zip(&keys)
            .map(|(&(policy, workload, seed), key)| {
                let result = stored.get(key)?.clone();
                Some(SweepCell {
                    policy,
                    workload,
                    seed,
                    result,
                })
            })
            .collect();
        let resumed = cells.iter().flatten().count();
        let to_run: Vec<usize> = (0..total).filter(|&i| cells[i].is_none()).collect();

        // Alone baselines only for workloads with a cell left to run (a
        // fully resumed workload needs none), each distinct profile once.
        let alone_runs = AtomicU64::new(0);
        let mut seen = HashSet::new();
        let alone: Vec<&BenchmarkProfile> = (0..nw)
            .filter(|&w| to_run.iter().any(|&i| indices[i].1 == w))
            .flat_map(|w| &self.workloads[w].threads)
            .filter(|profile| seen.insert(ProfileFingerprint::of(profile)))
            .collect();
        // No more threads than the one queue has tasks.
        let workers = workers.min(alone.len() + to_run.len()).max(1);

        // Streaming observers see resumed cells first, in grid order,
        // so a subscriber watching a restarted sweep receives the full
        // grid without consulting the checkpoint itself.
        if let Some(hook) = &self.on_cell {
            for cell in cells.iter().flatten() {
                hook(cell, true);
            }
        }

        // Draining (pause flag) or cancellation stops *starting* cells and
        // baselines; the cancel token additionally aborts in-flight cells
        // via the per-cell child tokens installed by `cell_token`.
        let should_stop = || {
            self.pause
                .as_ref()
                .is_some_and(|p| p.load(Ordering::Acquire))
                || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
        };

        // Each cell runs once, under `catch_unwind`. A failed cell never
        // aborts the sweep — every other cell still produces its
        // (bit-identical) result. The closure only *reads* session state
        // across the unwind boundary (the alone-IPC cache takes its lock
        // inside `alone_ipc`, never across a cell run), so a mid-cell
        // panic cannot poison it.
        type CellOutcome = Option<Result<SweepCell, Box<CellError>>>;
        let eval_one = |i: usize| -> CellOutcome {
            let (p, w, s) = indices[i];
            if should_stop() {
                return None; // skipped: resumable from the checkpoint
            }
            let t_cell = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                try_eval_cell(
                    &self.policies[p],
                    &self.workloads[w],
                    &self.session.rc,
                    self.weights.as_deref(),
                    self.seeds[s],
                    self.cancel.as_ref(),
                    |profile, token| self.session.alone_ipc_counted(profile, &alone_runs, token),
                )
            }))
            .map_err(|payload| CellFailureKind::Panic(panic_message(payload)))
            .and_then(|run| {
                run.map_err(|err| match err {
                    SimError::Cancelled(cycle) => CellFailureKind::Timeout(cycle),
                    other => CellFailureKind::Sim(other),
                })
            });
            // A checkpoint append failure (disk full, yanked volume)
            // must not panic: in the daemon that would kill the worker
            // thread, leaking its slot and leaving the job `Running`
            // forever with no terminal event. The non-durable result is
            // discarded and the cell reports as failed instead.
            let outcome = outcome.and_then(|result| {
                let cell = SweepCell {
                    policy: p,
                    workload: w,
                    seed: s,
                    result,
                };
                if let Some(log) = &log {
                    log.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .append(&checkpoint::write_entry(&keys[i], &cell.result))
                        .map_err(|e| CellFailureKind::Checkpoint(e.to_string()))?;
                }
                Ok(cell)
            });
            let elapsed = t_cell.elapsed();
            Some(match outcome {
                Ok(cell) => {
                    if let Some(hook) = &self.on_cell {
                        hook(&cell, false);
                    }
                    Ok(cell)
                }
                Err(kind) => {
                    // Attribute the failure to a controller when the
                    // error names one (stall reports carry the watchdog's
                    // suspect; invariant violations name their channel,
                    // whose owner the topology knows).
                    let topology = &self.session.rc.system.topology;
                    let controller = match &kind {
                        CellFailureKind::Sim(SimError::Stalled(report)) => report.controller,
                        CellFailureKind::Sim(SimError::InvariantViolation(v)) => {
                            (topology.num_controllers() > 1)
                                .then(|| topology.controller_of(v.channel))
                        }
                        _ => None,
                    };
                    let err = Box::new(CellError {
                        policy: p,
                        workload: w,
                        seed: s,
                        policy_label: self.policies[p].label(),
                        workload_name: self.workloads[w].name.clone(),
                        seed_value: self.seeds[s],
                        elapsed,
                        kind,
                        controller,
                    });
                    if let Some(hook) = &self.on_failure {
                        hook(&err);
                    }
                    Err(err)
                }
            })
        };

        // One queue: the alone baselines, then the cells in grid order (a
        // cell needing a baseline in flight waits for it: single-flight).
        // A baseline task runs under a cell's token; if that fires, the
        // cells needing the baseline look it up under their own.
        let outcomes = work_queue(alone.len() + to_run.len(), workers, |i| {
            match alone.get(i) {
                None => eval_one(to_run[i - alone.len()]),
                Some(_) if should_stop() => None,
                Some(profile) => {
                    let token = cell_token(rc, self.cancel.as_ref());
                    let _ = self
                        .session
                        .alone_ipc_counted(profile, &alone_runs, token.as_ref());
                    None
                }
            }
        });
        let mut failures = Vec::new();
        let mut skipped = 0usize;
        for (&i, outcome) in to_run.iter().zip(outcomes.into_iter().skip(alone.len())) {
            match outcome {
                Some(Ok(cell)) => cells[i] = Some(cell),
                Some(Err(err)) => {
                    // One stable, grep-able line per failed cell so CI
                    // logs surface failures without parsing the report.
                    eprintln!("{err}");
                    failures.push(*err);
                }
                None => skipped += 1,
            }
        }
        let cells: Vec<SweepCell> = cells.into_iter().flatten().collect();
        let executed = cells.len() - resumed;

        let wall = t0.elapsed();
        let alone_runs = alone_runs.into_inner();
        self.session
            .record(executed as u64, alone_runs, wall, workers);
        let stats = SweepStats {
            cells: total,
            failed: failures.len(),
            resumed,
            skipped,
            workers,
            alone_runs,
            sim_cycles: (executed as u64 + alone_runs) * rc.horizon,
            wall,
        };
        SweepResult {
            policy_labels: self.policies.iter().map(PolicyKind::label).collect(),
            workload_names: self.workloads.iter().map(|w| w.name.clone()).collect(),
            seeds: self.seeds,
            cells,
            failures,
            stats,
        }
    }
}

/// Runs `run(i)` for each `i` in `0..n` on `workers` threads (this one
/// included) pulling indices from one cursor; results in index order.
fn work_queue<T: Send + Sync>(n: usize, workers: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let _ = slot.set(run(i));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(drain);
        }
        drain();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task ran"))
        .collect()
}

/// One evaluated grid cell: the (policy, workload, seed) coordinates
/// plus the full [`EvalResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Index into the sweep's policy axis.
    pub policy: usize,
    /// Index into the sweep's workload axis.
    pub workload: usize,
    /// Index into the sweep's seed axis.
    pub seed: usize,
    /// The cell's evaluation result.
    pub result: EvalResult,
}

/// Execution accounting for one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Grid cells attempted (successful + failed).
    pub cells: usize,
    /// Cells that failed (see [`SweepResult::failures`]).
    pub failed: usize,
    /// Cells restored from a checkpoint instead of being simulated.
    pub resumed: usize,
    /// Cells neither simulated nor resumed because the sweep was
    /// draining ([`Sweep::pause_flag`]) or cancelled
    /// ([`Sweep::cancel_token`]); a checkpointed re-run picks them up.
    pub skipped: usize,
    /// Worker threads used: the requested count, capped at the queue's
    /// task count (alone baselines plus cells left to run).
    pub workers: usize,
    /// Alone-run simulations triggered (cache misses during the sweep).
    pub alone_runs: u64,
    /// Total simulated cycles (shared + alone runs).
    pub sim_cycles: u64,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
}

impl SweepStats {
    /// Simulated cycles per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line throughput summary (opt-in for experiment reports).
    pub fn throughput_line(&self) -> String {
        let failed = if self.failed > 0 {
            format!(", {} FAILED", self.failed)
        } else {
            String::new()
        };
        format!(
            "sweep: {} cells (+{} alone runs{}) on {} workers in {:.2}s \
             ({:.2e} sim-cycles/sec)",
            self.cells,
            self.alone_runs,
            failed,
            self.workers,
            self.wall.as_secs_f64(),
            self.sim_cycles_per_sec(),
        )
    }
}

/// The evaluated grid returned by [`Sweep::run`] /
/// [`Sweep::run_parallel`]: every cell in policy-major order plus
/// aggregate views.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    policy_labels: Vec<String>,
    workload_names: Vec<String>,
    seeds: Vec<u64>,
    cells: Vec<SweepCell>,
    failures: Vec<CellError>,
    stats: SweepStats,
}

impl SweepResult {
    /// Every *successful* cell, in (policy, workload, seed) grid order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Every failed cell (empty for a fully successful sweep), in grid
    /// order.
    pub fn failures(&self) -> &[CellError] {
        &self.failures
    }

    /// Whether every cell of the grid produced a result (nothing failed
    /// and nothing was skipped by a drain or cancel).
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.cells.len() == self.stats.cells
    }

    /// Labels of the policy axis, in sweep order.
    pub fn policy_labels(&self) -> &[String] {
        &self.policy_labels
    }

    /// Names of the workload axis, in sweep order.
    pub fn workload_names(&self) -> &[String] {
        &self.workload_names
    }

    /// The seed axis.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Execution accounting for this sweep.
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// The cell at the given grid coordinates.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range, or if that cell failed
    /// (see [`SweepResult::try_get`] / [`SweepResult::failures`]).
    pub fn get(&self, policy: usize, workload: usize, seed: usize) -> &EvalResult {
        match self.try_get(policy, workload, seed) {
            Some(result) => result,
            None => {
                let failure = self
                    .failures
                    .iter()
                    .find(|f| f.policy == policy && f.workload == workload && f.seed == seed);
                match failure {
                    Some(f) => panic!("cell ({policy}, {workload}, {seed}) failed: {f}"),
                    None => panic!("cell ({policy}, {workload}, {seed}) missing"),
                }
            }
        }
    }

    /// The cell at the given grid coordinates, or `None` if it failed.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn try_get(&self, policy: usize, workload: usize, seed: usize) -> Option<&EvalResult> {
        let (nw, ns) = (self.workload_names.len(), self.seeds.len());
        assert!(policy < self.policy_labels.len(), "policy index {policy}");
        assert!(workload < nw, "workload index {workload}");
        assert!(seed < ns, "seed index {seed}");
        if self.cells.len() == self.policy_labels.len() * nw * ns {
            // Complete grid: cells sit at their dense grid offset.
            return Some(&self.cells[(policy * nw + workload) * ns + seed].result);
        }
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.workload == workload && c.seed == seed)
            .map(|c| &c.result)
    }

    /// All of one policy's results across workloads and seeds.
    pub fn policy_results(&self, policy: usize) -> impl Iterator<Item = &EvalResult> {
        self.cells
            .iter()
            .filter(move |c| c.policy == policy)
            .map(|c| &c.result)
    }

    /// One policy's metrics averaged over every workload and seed.
    pub fn policy_average(&self, policy: usize) -> WorkloadMetrics {
        average(self.policy_results(policy))
    }

    /// Per-policy `(label, average metrics)` pairs in sweep order — the
    /// shape most experiment tables render.
    pub fn averages(&self) -> Vec<(String, WorkloadMetrics)> {
        (0..self.policy_labels.len())
            .map(|p| (self.policy_labels[p].clone(), self.policy_average(p)))
            .collect()
    }
}

fn average<'r>(results: impl Iterator<Item = &'r EvalResult>) -> WorkloadMetrics {
    let mut n = 0u64;
    let (mut ws, mut hs, mut ms) = (0.0, 0.0, 0.0);
    for r in results {
        n += 1;
        ws += r.metrics.weighted_speedup;
        hs += r.metrics.harmonic_speedup;
        ms += r.metrics.max_slowdown;
    }
    assert!(n > 0, "cannot average an empty result set");
    WorkloadMetrics {
        weighted_speedup: ws / n as f64,
        harmonic_speedup: hs / n as f64,
        max_slowdown: ms / n as f64,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::SystemConfig;
    use tcm_workload::random_workload;

    fn small_session() -> Session {
        Session::new(
            RunConfig::builder()
                .system(SystemConfig::builder().num_threads(4).build().unwrap())
                .horizon(60_000)
                .build(),
        )
    }

    #[test]
    fn distinct_profiles_never_collide_in_fingerprint() {
        let a = BenchmarkProfile::new("alpha", 10.0, 0.5, 2.0);
        let b = BenchmarkProfile::new("alpha", 10.0, 0.5, 2.5); // same name, different BLP
        let c = BenchmarkProfile::new("beta", 10.0, 0.5, 2.0);
        assert_ne!(ProfileFingerprint::of(&a), ProfileFingerprint::of(&b));
        assert_ne!(ProfileFingerprint::of(&a), ProfileFingerprint::of(&c));
        assert_eq!(
            ProfileFingerprint::of(&a),
            ProfileFingerprint::of(&a.clone())
        );

        let session = small_session();
        let ipc_a = session.alone_ipc(&a);
        let ipc_b = session.alone_ipc(&b);
        let _ = (ipc_a, ipc_b);
        assert_eq!(session.alone_cache().len(), 2, "no collision: two entries");
        assert_eq!(session.alone_cache().misses(), 2);
    }

    #[test]
    fn repeated_profile_misses_exactly_once_then_hits() {
        let session = small_session();
        let p = tcm_workload::spec_by_name("mcf").unwrap();
        let first = session.alone_ipc(&p);
        assert_eq!(session.alone_cache().misses(), 1);
        assert_eq!(session.alone_cache().hits(), 0);
        for _ in 0..3 {
            assert_eq!(session.alone_ipc(&p), first);
        }
        assert_eq!(session.alone_cache().misses(), 1, "exactly one miss");
        assert_eq!(session.alone_cache().hits(), 3);
    }

    #[test]
    fn session_eval_matches_sweep_cell() {
        let session = small_session();
        let w = random_workload(1, 4, 0.5);
        let direct = session.eval(&PolicyKind::FrFcfs, &w);
        let sweep = session
            .sweep()
            .policies([PolicyKind::FrFcfs])
            .workloads([w])
            .run();
        assert_eq!(&direct, sweep.get(0, 0, 0));
    }

    #[test]
    fn zero_cell_deadline_also_cancels_the_alone_baselines() {
        let spec = tcm_workload::spec2006();
        let session = Session::new(
            RunConfig::builder()
                .system(SystemConfig::builder().num_threads(4).build().unwrap())
                .horizon(60_000)
                .cell_deadline(Some(Duration::ZERO))
                .build(),
        );
        let result = session
            .sweep()
            .policies([PolicyKind::Fcfs, PolicyKind::FrFcfs])
            .workloads([WorkloadSpec::new("mix", spec[0..4].to_vec())])
            .run_parallel(2);
        assert_eq!(result.failures().len(), 2);
        for failure in result.failures() {
            assert!(
                matches!(failure.kind, CellFailureKind::Timeout(_)),
                "{failure}"
            );
        }
        assert_eq!(result.stats().alone_runs, 0);
        assert!(
            session.alone_cache().is_empty(),
            "a cancelled run caches nothing"
        );
        assert_eq!(session.alone_cache().misses(), 0);
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        // Overlapping SPEC mixes: the workloads share alone baselines,
        // eight distinct profiles in all.
        let spec = tcm_workload::spec2006();
        let grid = |session: &Session, workers| {
            session
                .sweep()
                .policies([PolicyKind::Fcfs, PolicyKind::FrFcfs])
                .workloads([0..4, 2..6, 4..8].into_iter().map(|range| {
                    WorkloadSpec::new(format!("mix{}", range.start), spec[range].to_vec())
                }))
                .run_parallel(workers)
        };
        let serial = grid(&small_session(), 1);
        for workers in [2, 3, 8] {
            let session = small_session();
            let parallel = grid(&session, workers);
            assert_eq!(parallel.cells(), serial.cells(), "{workers} workers");
            // 8 baselines + 6 cells share the queue.
            assert_eq!(parallel.stats().workers, workers.min(8 + 6));
            // Each distinct alone key is simulated exactly once.
            assert_eq!(session.alone_cache().misses(), 8);
            assert_eq!(parallel.stats().alone_runs, 8);
            assert_eq!(parallel.stats().sim_cycles, (6 + 8) * 60_000);
        }
        assert_eq!(serial.stats().alone_runs, 8);
    }

    #[test]
    fn one_cell_runs_its_baselines_on_two_workers() {
        fn sweep(session: &Session) -> Sweep<'_> {
            session
                .sweep()
                .policies([PolicyKind::FrFcfs])
                .workloads([random_workload(5, 4, 1.0)])
        }
        let serial = sweep(&small_session()).run();
        let parallel = sweep(&small_session()).run_parallel(2);
        assert_eq!(parallel.cells(), serial.cells());
        // One cell, but its baselines share the queue with it.
        assert!(parallel.stats().alone_runs >= 1);
        assert_eq!(parallel.stats().workers, 2);
    }

    #[test]
    fn grid_order_and_accessors_agree() {
        let session = small_session();
        let result = session
            .sweep()
            .policies([PolicyKind::Fcfs, PolicyKind::FrFcfs])
            .workloads((0..2).map(|s| random_workload(s, 4, 0.5)))
            .seeds([0, 7])
            .run_parallel(4);
        assert_eq!(result.cells().len(), 2 * 2 * 2);
        for (i, cell) in result.cells().iter().enumerate() {
            let (p, w, s) = (cell.policy, cell.workload, cell.seed);
            assert_eq!(i, (p * 2 + w) * 2 + s, "grid order");
            assert_eq!(result.get(p, w, s), &cell.result);
        }
        // Seed 0 is canonical; a different seed axis value changes the run.
        assert_ne!(result.get(0, 0, 0).run, result.get(0, 0, 1).run);
        let avg = result.policy_average(1);
        assert!(avg.weighted_speedup > 0.0);
        assert_eq!(result.averages().len(), 2);
    }

    #[test]
    fn policy_average_is_the_mean_of_the_policys_cells() {
        let session = small_session();
        let result = session
            .sweep()
            .policies([PolicyKind::Fcfs, PolicyKind::FrFcfs])
            .workloads((0..3).map(|s| random_workload(s, 4, 0.5)))
            .run();
        let manual: f64 = (0..3)
            .map(|w| result.get(1, w, 0).metrics.weighted_speedup)
            .sum::<f64>()
            / 3.0;
        let avg = result.policy_average(1);
        assert!((avg.weighted_speedup - manual).abs() < 1e-12);
    }

    #[test]
    fn warmed_cache_leaves_a_sweep_with_no_misses() {
        let session = small_session();
        let workloads: Vec<_> = (0..2).map(|s| random_workload(s, 4, 1.0)).collect();
        session.prepopulate_alone(&workloads);
        let misses_before = session.alone_cache().misses();
        let _ = session
            .sweep()
            .policies([PolicyKind::FrFcfs, PolicyKind::Fcfs])
            .workloads(workloads)
            .run_parallel(2);
        assert_eq!(
            session.alone_cache().misses(),
            misses_before,
            "no alone run inside the sweep"
        );
    }

    #[test]
    fn weighted_sweep_applies_weights() {
        let session = small_session();
        let w = random_workload(3, 4, 1.0);
        let atlas = || PolicyKind::Atlas(tcm_sched::AtlasParams::paper_default());
        let flat = session
            .sweep()
            .policies([atlas()])
            .workloads([w.clone()])
            .run();
        let skewed = session
            .sweep()
            .policies([atlas()])
            .workloads([w])
            .weights(&[16.0, 1.0, 1.0, 1.0])
            .run();
        assert_ne!(flat.get(0, 0, 0).run, skewed.get(0, 0, 0).run);
    }

    #[test]
    fn stats_account_cells_and_workers() {
        let session = small_session();
        let workloads: Vec<_> = (0..2).map(|s| random_workload(s, 4, 0.5)).collect();
        let profiles: HashSet<_> = workloads
            .iter()
            .flat_map(|w| &w.threads)
            .map(ProfileFingerprint::of)
            .collect();
        let result = session
            .sweep()
            .policies([PolicyKind::Fcfs])
            .workloads(workloads)
            .run_parallel(64);
        // The queue (2 cells + one baseline per distinct profile) caps
        // the worker count.
        let tasks = 2 + profiles.len();
        assert_eq!(result.stats().workers, tasks);
        assert_eq!(result.stats().cells, 2);
        assert!(result.stats().sim_cycles >= 2 * 60_000);
        let agg = session.stats();
        assert_eq!(agg.cells, 2);
        assert_eq!(agg.max_workers, tasks);
        assert!(session.stats_line().contains("2 cells"));
        assert!(!result.stats().throughput_line().is_empty());
    }

    fn rc(threads: usize, topology: &str, horizon: Cycle) -> RunConfig {
        RunConfig::builder()
            .system(
                SystemConfig::builder()
                    .num_threads(threads)
                    .topology(tcm_types::Topology::parse(topology).unwrap())
                    .build()
                    .unwrap(),
            )
            .horizon(horizon)
            .build()
    }

    #[test]
    fn alone_entries_split_on_machine_and_horizon_but_not_thread_count() {
        let cache = Arc::new(AloneIpcCache::default());
        let mcf = tcm_workload::spec_by_name("mcf").unwrap();
        let lookup =
            |rc: RunConfig| Session::with_alone_cache(rc, Arc::clone(&cache)).alone_ipc(&mcf);

        let four = lookup(rc(4, "4", 60_000));
        assert_eq!(
            lookup(rc(8, "4", 60_000)),
            four,
            "alone runs use one thread"
        );
        assert_eq!(
            (cache.misses(), cache.hits()),
            (1, 1),
            "thread count shares the entry"
        );
        assert_eq!(
            four,
            small_session().alone_ipc(&mcf),
            "same value as a private cache"
        );

        let _ = lookup(rc(4, "4", 90_000));
        assert_eq!(
            cache.misses(),
            2,
            "a different horizon never shares an entry"
        );
        let _ = lookup(rc(4, "2x2", 60_000));
        assert_eq!(
            cache.misses(),
            3,
            "a different topology never shares an entry"
        );
        let _ = lookup(rc(4, "2", 60_000));
        assert_eq!(
            cache.misses(),
            4,
            "a different channel count never shares an entry"
        );
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cell_key_holds_what_changes_a_result_and_nothing_else() {
        let base_rc = rc(4, "4", 60_000);
        let tcm = PolicyKind::Tcm(tcm_core::TcmParams::paper_default(4));
        let workload = random_workload(1, 4, 0.5);
        fn key(
            policy: &PolicyKind,
            workload: &WorkloadSpec,
            rc: &RunConfig,
            weights: Option<&[f64]>,
            seed: u64,
        ) -> String {
            format!("{:?}", CellKey::new(policy, workload, rc, weights, seed))
        }
        let on = |rc: &RunConfig| key(&tcm, &workload, rc, None, 0);
        let with = |edit: fn(&mut RunConfig)| {
            let mut rc = base_rc.clone();
            edit(&mut rc);
            rc
        };
        let base = on(&base_rc);

        let retuned =
            PolicyKind::Tcm(tcm_core::TcmParams::paper_default(4).with_cluster_thresh(0.25));
        let mut renamed = workload.clone();
        renamed.name.push('x');
        let mut heavier = workload.clone();
        heavier.threads[0].mpki = f64::from_bits(heavier.threads[0].mpki.to_bits() + 1);
        let changed = [
            ("topology", on(&rc(4, "2x2", 60_000))),
            ("horizon", on(&rc(4, "4", 90_000))),
            ("TCM param", key(&retuned, &workload, &base_rc, None, 0)),
            (
                "one profile's mpki bits",
                key(&tcm, &heavier, &base_rc, None, 0),
            ),
            ("workload name", key(&tcm, &renamed, &base_rc, None, 0)),
            ("seed", key(&tcm, &workload, &base_rc, None, 7)),
            (
                "weights",
                key(&tcm, &workload, &base_rc, Some(&[1.0; 4]), 0),
            ),
            ("verify", on(&with(|rc| rc.verify = true))),
            (
                "empty fault plan",
                on(&with(|rc| rc.chaos = Some(FaultPlan::none()))),
            ),
            (
                "telemetry",
                on(&with(|rc| rc.telemetry = Some(TelemetryConfig::default()))),
            ),
        ];
        for (what, changed) in &changed {
            assert_ne!(changed, &base, "{what} must change the key");
        }
        let same = [
            ("watchdog", with(|rc| rc.watchdog = None)),
            (
                "cell deadline",
                with(|rc| rc.cell_deadline = Some(Duration::from_secs(1))),
            ),
            ("intra hosts", with(|rc| rc.intra_hosts = 4)),
        ];
        for (what, rc) in &same {
            assert_eq!(on(rc), base, "{what} must leave the key equal");
        }
    }

    #[test]
    fn concurrent_sweeps_on_a_shared_cache_count_only_their_own_alone_runs() {
        let cache = Arc::new(AloneIpcCache::default());
        let sessions = [
            Session::with_alone_cache(rc(4, "4", 60_000), Arc::clone(&cache)),
            Session::with_alone_cache(rc(4, "4", 60_000), Arc::clone(&cache)),
        ];
        let spec = tcm_workload::spec2006();
        let mix = |name: &str, range: std::ops::Range<usize>| {
            WorkloadSpec::new(name, spec[range].to_vec())
        };
        let barrier = std::sync::Barrier::new(2);
        let run_both = |workloads: [WorkloadSpec; 2]| -> Vec<SweepStats> {
            std::thread::scope(|scope| {
                let handles: Vec<_> = sessions
                    .iter()
                    .zip(workloads)
                    .map(|(session, workload)| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            *session
                                .sweep()
                                .policies([PolicyKind::FrFcfs])
                                .workloads([workload])
                                .run()
                                .stats()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        // Disjoint mixes: each sweep ran exactly its own four baselines,
        // whatever the other one did meanwhile.
        let stats = run_both([mix("a", 0..4), mix("b", 4..8)]);
        for s in &stats {
            assert_eq!(s.alone_runs, 4);
            assert_eq!(s.sim_cycles, (1 + 4) * 60_000);
        }
        assert_eq!(cache.misses(), 8);
        // One mix on both: single flight simulates each profile once,
        // split between the two sweeps however the race went.
        let stats = run_both([mix("c", 8..12), mix("c", 8..12)]);
        assert_eq!(stats[0].alone_runs + stats[1].alone_runs, 4);
        assert_eq!(cache.misses(), 12);
        let per_session: u64 = sessions.iter().map(|s| s.stats().alone_runs).sum();
        assert_eq!(per_session, 12, "session totals add up to the cache's");
    }

    #[test]
    fn fully_checkpointed_resume_runs_no_alone_baselines() {
        let path = std::env::temp_dir().join(format!(
            "tcm-sweep-resume-alone-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let sweep = |session: &Session| {
            session
                .sweep()
                .policies([PolicyKind::Fcfs, PolicyKind::FrFcfs])
                .workloads((0..2).map(|s| random_workload(s, 4, 0.75)))
                .checkpoint(&path)
                .run()
        };
        let first = sweep(&small_session());
        assert!(first.stats().alone_runs > 0);

        let session = small_session();
        let resumed = sweep(&session);
        assert_eq!(resumed.stats().resumed, 4);
        assert_eq!(
            resumed.stats().alone_runs,
            0,
            "every workload was already done"
        );
        assert_eq!(resumed.stats().sim_cycles, 0);
        assert!(session.alone_cache().is_empty());
        assert_eq!(resumed.cells(), first.cells(), "bit-identical grid");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_runs_no_baselines_for_a_finished_workload() {
        let path = std::env::temp_dir().join(format!(
            "tcm-sweep-resume-partial-{}.jsonl",
            std::process::id()
        ));
        let spec = tcm_workload::spec2006();
        let mixes = || {
            [
                WorkloadSpec::new("done", spec[0..4].to_vec()),
                WorkloadSpec::new("open", spec[4..8].to_vec()),
            ]
        };
        let sweep = |session: &Session, workers| {
            session
                .sweep()
                .policies([PolicyKind::Fcfs, PolicyKind::FrFcfs])
                .workloads(mixes())
                .checkpoint(&path)
                .run_parallel(workers)
        };
        let _ = std::fs::remove_file(&path);
        let first = sweep(&small_session(), 1);
        // Keep only the finished workload's entries in the checkpoint.
        let text = std::fs::read_to_string(&path).unwrap();
        let done: Vec<&str> = text
            .lines()
            .filter(|entry| entry.contains("\"workload\":\"done\""))
            .collect();
        assert_eq!(done.len(), 2);
        std::fs::write(&path, format!("{}\n", done.join("\n"))).unwrap();

        let session = small_session();
        let resumed = sweep(&session, 2);
        assert_eq!(resumed.stats().resumed, 2);
        assert_eq!(
            resumed.stats().alone_runs,
            4,
            "only the open workload's baselines"
        );
        assert_eq!(session.alone_cache().misses(), 4);
        assert_eq!(resumed.cells(), first.cells(), "bit-identical grid");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pause_from_on_cell_skips_the_remaining_cells() {
        for workers in [1, 2] {
            let pause = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&pause);
            let result = small_session()
                .sweep()
                .policies([PolicyKind::Fcfs, PolicyKind::FrFcfs])
                .workloads((0..2).map(|s| random_workload(s, 4, 0.5)))
                .pause_flag(Arc::clone(&pause))
                .on_cell(move |_, _| flag.store(true, Ordering::Release))
                .run_parallel(workers);
            let stats = result.stats();
            assert_eq!(result.cells().len() + stats.skipped, 4, "{workers} workers");
            assert!(result.failures().is_empty());
            if workers == 1 {
                assert_eq!(stats.skipped, 3, "only the first cell ran");
            } else {
                // The other worker may have started a cell before the
                // first one finished, but no cell starts after it.
                assert!(stats.skipped >= 2, "skipped {}", stats.skipped);
            }
        }
        // Paused before the start: no baseline runs either.
        let session = small_session();
        let result = session
            .sweep()
            .policies([PolicyKind::Fcfs])
            .workloads([random_workload(0, 4, 0.5)])
            .pause_flag(Arc::new(AtomicBool::new(true)))
            .run_parallel(2);
        assert_eq!((result.stats().skipped, result.stats().alone_runs), (1, 0));
        assert!(session.alone_cache().is_empty());
    }

    #[test]
    fn compute_only_profiles_are_not_alone_runs() {
        let dir = std::env::temp_dir().join(format!("tcm-sweep-idle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(AloneIpcCache::with_store(&dir));
        let session = Session::with_alone_cache(rc(4, "4", 60_000), Arc::clone(&cache));
        let mut threads = vec![BenchmarkProfile::new("idle", 0.0, 0.0, 0.0)];
        threads.extend(tcm_workload::spec2006()[0..3].iter().cloned());
        let result = session
            .sweep()
            .policies([PolicyKind::FrFcfs])
            .workloads([WorkloadSpec::new("idle-mix", threads)])
            .run();
        assert_eq!(
            result.get(0, 0, 0).slowdowns[0],
            1.0,
            "idle at the issue width alone"
        );
        assert_eq!(result.stats().alone_runs, 3);
        assert_eq!(result.stats().sim_cycles, (1 + 3) * 60_000);
        assert_eq!(cache.misses(), 3);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            3,
            "no store entry for idle"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn work_queue_drains_around_a_blocked_worker() {
        let len = 6;
        let (release, released) = std::sync::mpsc::channel::<()>();
        let released = Mutex::new(released);
        // Task 0 blocks its worker until the last task releases it, so
        // the other worker must take every task after the first.
        let ran_on = work_queue(len, 2, |i| {
            if i == 0 {
                released.lock().unwrap().recv().unwrap();
            }
            if i == len - 1 {
                release.send(()).unwrap();
            }
            std::thread::current().id()
        });
        assert!(ran_on[1..].iter().all(|&id| id == ran_on[1]), "{ran_on:?}");
        assert_ne!(ran_on[0], ran_on[1]);
        assert_eq!(work_queue(4, 1, |i| i * i), [0, 1, 4, 9], "index order");
        assert!(work_queue(0, 3, |i| i).is_empty());
    }
}
