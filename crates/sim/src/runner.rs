//! Experiment vocabulary: policy factories and run configuration.
//!
//! Experiments run through the [`Session`] / [`Sweep`](crate::Sweep)
//! layer in [`crate::sweep`]; this module supplies the declarative
//! pieces those take — [`PolicyKind`] and [`RunConfig`].
//!
//! [`Session`]: crate::Session

use crate::machine::RunResult;
use crate::metrics::WorkloadMetrics;
use std::time::Duration;
use tcm_chaos::FaultPlan;
use tcm_core::{MetaController, Tcm, TcmController, TcmParams};
use tcm_sched::{
    Atlas, AtlasParams, FairQueueing, Fcfs, FrFcfs, MetaScheduler, ParBs, ParBsParams, Scheduler,
    Stfm, StfmParams,
};
use tcm_telemetry::{TelemetryConfig, TelemetrySnapshot};
use tcm_types::{Cycle, SystemConfig};
use tcm_workload::WorkloadSpec;

/// Labels of [`PolicyKind::paper_lineup`], in the same order — handy for
/// building report headers without instantiating the policies.
pub const PAPER_LINEUP_LABELS: [&str; 5] = ["FR-FCFS", "STFM", "PAR-BS", "ATLAS", "TCM"];

/// A scheduling policy to instantiate, with its parameters.
///
/// Exists so experiments can name policies declaratively and instantiate
/// a fresh, correctly-sized instance per run.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Oldest-first.
    Fcfs,
    /// Row-hit-first, then oldest.
    FrFcfs,
    /// Stall-time fair memory scheduling.
    Stfm(StfmParams),
    /// Parallelism-aware batch scheduling.
    ParBs(ParBsParams),
    /// Least-attained-service scheduling.
    Atlas(AtlasParams),
    /// Fair-queueing memory scheduling (extension baseline).
    FairQueueing,
    /// Thread cluster memory scheduling.
    Tcm(TcmParams),
}

impl PolicyKind {
    /// The paper's five headline policies for an `n`-thread system, in
    /// the order Figures 1/4 list them (see [`PAPER_LINEUP_LABELS`]).
    /// TCM uses [`TcmParams::reproduction_default`] (random
    /// shuffling via `ShuffleAlgoThresh = 1`; see that method's docs).
    pub fn paper_lineup(n: usize) -> Vec<PolicyKind> {
        vec![
            PolicyKind::FrFcfs,
            PolicyKind::Stfm(StfmParams::paper_default()),
            PolicyKind::ParBs(ParBsParams::paper_default()),
            PolicyKind::Atlas(AtlasParams::paper_default()),
            PolicyKind::Tcm(TcmParams::reproduction_default(n)),
        ]
    }

    /// Instantiates the policy for an `n`-thread system.
    pub fn build(&self, n: usize, cfg: &SystemConfig) -> Box<dyn Scheduler> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::FrFcfs => Box::new(FrFcfs::new()),
            PolicyKind::Stfm(p) => Box::new(Stfm::with_params(n, *p)),
            PolicyKind::ParBs(p) => Box::new(ParBs::with_params(n, *p)),
            PolicyKind::Atlas(p) => Box::new(Atlas::with_params(n, *p)),
            PolicyKind::FairQueueing => Box::new(FairQueueing::new(n)),
            PolicyKind::Tcm(p) => Box::new(Tcm::with_params(*p, n, cfg)),
        }
    }

    /// Instantiates the policy for *one controller* of an `n`-thread
    /// system (multi-controller topologies): each controller owns a
    /// fresh instance arbitrating only its own channels. For TCM this
    /// is the per-controller [`TcmController`], which must be paired
    /// with the [`PolicyKind::build_meta`] meta-controller;
    /// uncoordinated policies get instances identical to
    /// [`PolicyKind::build`].
    pub fn build_controller(&self, n: usize, cfg: &SystemConfig) -> Box<dyn Scheduler> {
        match self {
            PolicyKind::Tcm(_) => Box::new(TcmController::new(n, cfg)),
            other => other.build(n, cfg),
        }
    }

    /// Instantiates the meta-controller that coordinates the
    /// per-controller instances at quantum boundaries (paper §5.3), or
    /// `None` for policies without coordinated state.
    pub fn build_meta(&self, n: usize, cfg: &SystemConfig) -> Option<Box<dyn MetaScheduler>> {
        match self {
            PolicyKind::Tcm(p) => Some(Box::new(MetaController::new(*p, n, cfg))),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Fcfs => "FCFS".into(),
            PolicyKind::FrFcfs => "FR-FCFS".into(),
            PolicyKind::Stfm(_) => "STFM".into(),
            PolicyKind::ParBs(_) => "PAR-BS".into(),
            PolicyKind::Atlas(_) => "ATLAS".into(),
            PolicyKind::FairQueueing => "FQM".into(),
            PolicyKind::Tcm(p) => match p.shuffle_mode {
                tcm_core::ShuffleMode::Dynamic => "TCM".into(),
                tcm_core::ShuffleMode::InsertionOnly => "TCM-ins".into(),
                tcm_core::ShuffleMode::RandomOnly => "TCM-rand".into(),
                tcm_core::ShuffleMode::RoundRobin => "TCM-rr".into(),
                tcm_core::ShuffleMode::Static => "TCM-static".into(),
            },
        }
    }
}

/// How long to run and on what machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Machine description.
    pub system: SystemConfig,
    /// Cycles to simulate per run.
    pub horizon: Cycle,
    /// Force-enable the DRAM protocol invariant checker on every run.
    ///
    /// The checker is observation-only: results are bit-identical with it
    /// on or off. Debug builds enable it regardless; this flag opts
    /// release builds in (see also the `TCM_VERIFY` environment
    /// variable).
    pub verify: bool,
    /// Forward-progress watchdog limit in cycles (`None` disables).
    ///
    /// Default: [`DEFAULT_STALL_LIMIT`](crate::DEFAULT_STALL_LIMIT).
    pub watchdog: Option<Cycle>,
    /// Fault-injection plan installed on every run (see `tcm-chaos`).
    ///
    /// `None` (the default) runs without the chaos layer. Installing a
    /// plan also force-enables protocol verification, since injected
    /// faults are only useful if the detectors are armed.
    pub chaos: Option<FaultPlan>,
    /// Per-run wall-clock deadline. When set, each run carries a
    /// cancellation token with this deadline; a run exceeding it
    /// surfaces `SimError::Cancelled`, which sweeps record as a
    /// timeout instead of poisoning other cells.
    pub cell_deadline: Option<Duration>,
    /// Has no effect on the engine: every cell runs on one thread, and a
    /// sweep's parallelism is its worker count. Kept only because the
    /// `perf/` benchmark package still sets and reads it; it goes when
    /// that package stops passing a host count.
    pub intra_hosts: usize,
    /// Telemetry configuration for every evaluated cell. `None` (the
    /// default) runs with telemetry fully disabled — the hot-path cost is
    /// one branch per hook. When set, each cell gets its own tracer and
    /// metrics registry whose snapshot lands in `EvalResult::telemetry`.
    /// Telemetry is observation-only: results are bit-identical either
    /// way. It is still part of a checkpointed cell's key, because it
    /// decides whether the stored result carries a snapshot: a cell
    /// checkpointed without telemetry never resumes into a sweep with
    /// it, and vice versa. Checkpoints persist only the snapshot's
    /// counter/gauge summary, so a cell restored by `--resume` carries
    /// an empty event log.
    pub telemetry: Option<TelemetryConfig>,
}

impl RunConfig {
    /// Starts building a run configuration (paper-baseline machine and a
    /// one-million-cycle horizon unless overridden).
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder::default()
    }
}

/// Builder for [`RunConfig`] (see [`RunConfig::builder`]).
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    system: SystemConfig,
    horizon: Cycle,
    verify: bool,
    watchdog: Option<Cycle>,
    chaos: Option<FaultPlan>,
    cell_deadline: Option<Duration>,
    intra_hosts: usize,
    telemetry: Option<TelemetryConfig>,
}

impl Default for RunConfigBuilder {
    fn default() -> Self {
        Self {
            system: SystemConfig::paper_baseline(),
            horizon: 1_000_000,
            verify: false,
            watchdog: Some(crate::machine::DEFAULT_STALL_LIMIT),
            chaos: None,
            cell_deadline: None,
            intra_hosts: 1,
            telemetry: None,
        }
    }
}

impl RunConfigBuilder {
    /// Sets the machine description (default: the paper baseline).
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Sets the simulation horizon in cycles (default: 1,000,000).
    pub fn horizon(mut self, horizon: Cycle) -> Self {
        self.horizon = horizon;
        self
    }

    /// Force-enables the DRAM protocol checker (default: off in release
    /// builds, always on in debug builds).
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the forward-progress watchdog limit; `None` disables it
    /// (default: [`DEFAULT_STALL_LIMIT`](crate::DEFAULT_STALL_LIMIT)).
    pub fn watchdog(mut self, watchdog: Option<Cycle>) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Installs a fault-injection plan on every run (default: none).
    /// See [`RunConfig::chaos`].
    pub fn chaos(mut self, chaos: Option<FaultPlan>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Sets a per-run wall-clock deadline (default: none). See
    /// [`RunConfig::cell_deadline`].
    pub fn cell_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.cell_deadline = deadline;
        self
    }

    /// Records a host count (clamped to at least 1; default 1) that the
    /// engine ignores. See [`RunConfig::intra_hosts`].
    pub fn intra_hosts(mut self, hosts: usize) -> Self {
        self.intra_hosts = hosts.max(1);
        self
    }

    /// Enables per-cell structured tracing and metrics (default: none —
    /// telemetry fully disabled). See [`RunConfig::telemetry`].
    pub fn telemetry(mut self, telemetry: Option<TelemetryConfig>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> RunConfig {
        RunConfig {
            system: self.system,
            horizon: self.horizon,
            verify: self.verify,
            watchdog: self.watchdog,
            chaos: self.chaos,
            cell_deadline: self.cell_deadline,
            intra_hosts: self.intra_hosts,
            telemetry: self.telemetry,
        }
    }
}

/// One policy's results on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Policy label.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// The paper's three metrics.
    pub metrics: WorkloadMetrics,
    /// Per-thread slowdowns (`IPC_alone / IPC_shared`).
    pub slowdowns: Vec<f64>,
    /// Per-thread speedups (`IPC_shared / IPC_alone`).
    pub speedups: Vec<f64>,
    /// Raw run result of the shared run.
    pub run: RunResult,
    /// Telemetry snapshot of the shared run (trace events + metrics);
    /// `None` unless [`RunConfig::telemetry`] was set. Boxed to keep the
    /// common telemetry-off result small.
    pub telemetry: Option<Box<TelemetrySnapshot>>,
}

/// Deterministic per-workload seed so every policy sees the identical
/// trace for a given workload.
pub(crate) fn workload_seed(workload: &WorkloadSpec) -> u64 {
    fnv1a(workload.name.as_bytes())
}

/// 64-bit FNV-1a of `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_workload::{random_workload, BenchmarkProfile};

    fn small_rc() -> RunConfig {
        RunConfig::builder()
            .system(SystemConfig::builder().num_threads(4).build().unwrap())
            .horizon(60_000)
            .build()
    }

    #[test]
    fn builder_defaults_to_paper_baseline() {
        let rc = RunConfig::builder().horizon(5_000).build();
        assert_eq!(rc.system, SystemConfig::paper_baseline());
        assert_eq!(rc.horizon, 5_000);
        assert_eq!(rc.intra_hosts, 1);
    }

    #[test]
    fn intra_hosts_clamps_to_at_least_one() {
        let rc = RunConfig::builder().intra_hosts(0).build();
        assert_eq!(rc.intra_hosts, 1);
        let rc = RunConfig::builder().intra_hosts(3).build();
        assert_eq!(rc.intra_hosts, 3);
    }

    #[test]
    fn lineup_labels_match_lineup() {
        let lineup = PolicyKind::paper_lineup(24);
        let labels: Vec<String> = lineup.iter().map(PolicyKind::label).collect();
        assert_eq!(labels, PAPER_LINEUP_LABELS);
    }

    #[test]
    fn session_caches_alone_runs() {
        let session = crate::Session::new(small_rc());
        let p = tcm_workload::spec_by_name("mcf").unwrap();
        let a = session.alone_ipc(&p);
        assert_eq!(session.alone_cache().misses(), 1);
        let b = session.alone_ipc(&p);
        assert_eq!(a, b);
        assert_eq!(session.alone_cache().misses(), 1);
    }

    #[test]
    fn compute_only_profile_runs_at_issue_width_alone() {
        let session = crate::Session::new(small_rc());
        let p = BenchmarkProfile::new("idle", 0.0, 0.5, 1.0);
        assert_eq!(session.alone_ipc(&p), 3.0);
    }

    #[test]
    fn eval_produces_consistent_metrics() {
        let session = crate::Session::new(small_rc());
        let w = random_workload(1, 4, 0.5);
        let r = session.eval(&PolicyKind::FrFcfs, &w);
        assert_eq!(r.slowdowns.len(), 4);
        assert!(r.metrics.weighted_speedup > 0.0);
        assert!(r.metrics.weighted_speedup <= 4.0 + 1e-9);
        assert!(
            r.metrics.max_slowdown >= 0.9,
            "ms={}",
            r.metrics.max_slowdown
        );
        assert_eq!(r.policy, "FR-FCFS");
    }

    #[test]
    fn every_policy_kind_builds_and_runs() {
        let session = crate::Session::new(small_rc());
        let w = random_workload(2, 4, 0.75);
        let mut kinds = PolicyKind::paper_lineup(4);
        kinds[4] = PolicyKind::Tcm(TcmParams::paper_default(4).with_cluster_thresh(0.25));
        kinds.push(PolicyKind::Fcfs);
        for kind in kinds {
            let r = session.eval(&kind, &w);
            assert!(
                r.metrics.weighted_speedup.is_finite(),
                "{} produced bad metrics",
                r.policy
            );
        }
    }

    #[test]
    fn same_policy_same_workload_is_reproducible() {
        let session = crate::Session::new(small_rc());
        let w = random_workload(5, 4, 1.0);
        let a = session.eval(&PolicyKind::FrFcfs, &w);
        let b = session.eval(&PolicyKind::FrFcfs, &w);
        assert_eq!(a.run, b.run);
    }

    #[test]
    fn coordinated_policies_declare_a_meta_controller() {
        let cfg = SystemConfig::paper_baseline();
        for kind in PolicyKind::paper_lineup(24) {
            let is_tcm = matches!(kind, PolicyKind::Tcm(_));
            assert_eq!(
                kind.build_meta(24, &cfg).is_some(),
                is_tcm,
                "{}",
                kind.label()
            );
            // Per-controller instances must build for every policy.
            let _ = kind.build_controller(24, &cfg);
        }
    }
}
