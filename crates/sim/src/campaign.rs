//! The fault-injection campaign, proof that the simulator's detectors
//! still fire: each `tcm-chaos` fault class is injected in its own run,
//! built by the sweep's own cell builder, and judged against exactly its
//! mapped detector ([`FaultKind::detector`]). `tcm-run --chaos-smoke`
//! prints the verdicts; the daemon's soak job counts them.

use crate::runner::{PolicyKind, RunConfig};
use crate::sweep::run_cell;
use tcm_chaos::{Detector, FaultKind, FaultPlan, FaultSpec};
use tcm_core::TcmParams;
use tcm_telemetry::DegradationAnomaly::{self, ControllerQuarantined, ControllerReadmitted};
use tcm_types::{ConfigError, Cycle, SimError, SystemConfig, Topology};
use tcm_workload::{random_workload, WorkloadSpec};

/// TCM's quantum in every campaign run. Short, so the plausibility and
/// quarantine guards run within a short horizon; a campaign whose
/// horizon is below it cannot detect monitor corruption.
pub const QUANTUM: Cycle = 50_000;

/// Coordination faults arm after the struck controller's first clean
/// exchange: a monitor that never reported cannot be told from a dark one.
const COORD_AT: Cycle = 60_000;

const THREADS: usize = 4;

/// How one campaign check ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The mapped detector caught the fault, or the control was clean.
    Pass,
    /// The fault escaped or the wrong detector caught it.
    Fail,
    /// A coordination fault on a one-controller machine, which has no
    /// meta-controller exchange to strike.
    Skipped,
}

/// One check: a fault class against its detector, or the clean control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The fault class's name, or `clean-control`.
    pub name: &'static str,
    /// How the check ended.
    pub outcome: Outcome,
    /// The detector's report, or why the check failed or was skipped.
    pub detail: String,
}

fn verdict(name: &'static str, pass: bool, detail: String) -> Verdict {
    let outcome = if pass { Outcome::Pass } else { Outcome::Fail };
    Verdict { name, outcome, detail }
}

/// One campaign: a machine, a workload and a horizon. Faults strike
/// thread 1, the last global channel and the last controller, so
/// detection on a multi-controller machine proves topology-aware
/// routing; every run uses simulator seed 0.
#[derive(Debug, Clone)]
pub struct Campaign {
    rc: RunConfig,
    workload: WorkloadSpec,
}

impl Campaign {
    /// Four threads of the intensity-1.0 random mix `mix_seed` on
    /// `topology`, `horizon` cycles per run.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `topology` is not a valid machine.
    pub fn new(topology: Topology, mix_seed: u64, horizon: Cycle) -> Result<Self, ConfigError> {
        let system = SystemConfig::builder().num_threads(THREADS).topology(topology).build()?;
        let rc = RunConfig::builder().system(system).horizon(horizon).build();
        let workload = random_workload(mix_seed, THREADS, 1.0);
        Ok(Self { rc, workload })
    }

    /// Machine and horizon of every run, before its plan.
    pub fn run_config(&self) -> &RunConfig {
        &self.rc
    }

    /// Whether the machine has more than one controller.
    pub fn is_multi(&self) -> bool {
        self.rc.system.topology.num_controllers() > 1
    }

    fn tcm() -> PolicyKind {
        let mut params = TcmParams::paper_default(THREADS);
        params.quantum = QUANTUM;
        PolicyKind::Tcm(params)
    }

    /// Injects each fault class, armed at `fault_at` (coordination kinds
    /// after the first exchange), and judges it against its mapped
    /// detector: one verdict per [`FaultKind::ALL`] entry, in order.
    pub fn faults(&self, fault_at: Cycle) -> Vec<Verdict> {
        let inject = |kind| self.inject(kind, fault_at);
        FaultKind::ALL.into_iter().map(inject).collect()
    }

    fn inject(&self, kind: FaultKind, fault_at: Cycle) -> Verdict {
        let (name, coordination) = (kind.name(), kind.is_coordination_fault());
        if coordination && !self.is_multi() {
            let detail = "coordination fault needs a meta-controller".to_string();
            return Verdict { name, outcome: Outcome::Skipped, detail };
        }
        let topology = &self.rc.system.topology;
        let (channel, controller) = (topology.num_channels() - 1, topology.num_controllers() - 1);
        let at = if coordination { COORD_AT } else { fault_at };
        let fault = FaultSpec::new(kind, at).on_thread(1).on_channel(channel);
        let mut rc = self.rc.clone();
        rc.chaos = Some(FaultPlan::none().with_fault(fault.on_controller(controller)));
        // The plausibility and quarantine guards live in TCM.
        let policy = match kind.detector() {
            Detector::Degradation | Detector::Quarantine => Self::tcm(),
            _ => PolicyKind::FrFcfs,
        };
        let outcome = run_cell(&policy, &self.workload, &rc, 0, None, None, None);
        match (kind.detector(), outcome) {
            (Detector::Invariant(expected), Err(SimError::InvariantViolation(v))) => {
                let pass = v.invariant == expected && v.channel.index() == channel;
                verdict(name, pass, format!("caught: {v}"))
            }
            // Only a multi-controller stall can, and must, name a controller.
            (Detector::Stall, Err(SimError::Stalled(r))) => {
                let pass = r.controller.is_some() == self.is_multi();
                verdict(name, pass, format!("caught: {}", r.summary().trim_end()))
            }
            (Detector::Degradation, Ok((_, log))) => {
                let detail = format!("degraded: {}", first(&log, "no anomaly logged"));
                verdict(name, !log.is_empty(), detail)
            }
            (Detector::Quarantine, Ok((_, log))) => {
                let quarantined = log.iter().any(|a| {
                    matches!(a, ControllerQuarantined { controller: c, .. } if *c == controller)
                });
                let readmitted = log.iter().any(|a| {
                    matches!(a, ControllerReadmitted { controller: c, .. } if *c == controller)
                });
                let pass = quarantined && readmitted;
                let first = first(&log, "no quarantine logged");
                verdict(name, pass, format!("quarantined + readmitted: {first}"))
            }
            (_, Err(err)) => verdict(name, false, format!("wrong detector: {err}")),
            (_, Ok(_)) => verdict(name, false, "escaped undetected".into()),
        }
    }

    /// The clean control: under FR-FCFS and under the campaign's TCM, a
    /// verified chaos-free run must be bit-identical to an empty-plan
    /// run, and both must pass.
    pub fn clean_control(&self) -> Verdict {
        let (mut bare, mut armed) = (self.rc.clone(), self.rc.clone());
        (bare.verify, bare.chaos) = (true, None);
        armed.chaos = Some(FaultPlan::none());
        for policy in [PolicyKind::FrFcfs, Self::tcm()] {
            let run = |rc| run_cell(&policy, &self.workload, rc, 0, None, None, None);
            let detail = match (run(&bare), run(&armed)) {
                (Ok(a), Ok(b)) if a == b => continue,
                (Ok(_), Ok(_)) => "results diverge from the chaos-free run".into(),
                (a, b) => format!("false positive: {:?} / {:?}", a.err(), b.err()),
            };
            return verdict("clean-control", false, detail);
        }
        let detail = "zero detections, bit-identical to no chaos layer".into();
        verdict("clean-control", true, detail)
    }
}

/// The first anomaly, rendered, or `none` when the log is empty.
fn first(log: &[DegradationAnomaly], none: &str) -> String {
    log.first().map_or(none.to_string(), ToString::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(verdicts: &[Verdict], outcome: Outcome) -> Vec<&'static str> {
        verdicts.iter().filter(|v| v.outcome == outcome).map(|v| v.name).collect()
    }

    fn smoke(topology: Topology, horizon: Cycle) -> Campaign {
        Campaign::new(topology, 1, horizon).expect("campaign machine is valid")
    }

    #[test]
    fn flat_campaign_catches_eight_classes_and_skips_coordination() {
        let campaign = smoke(Topology::flat(1), 200_000);
        let verdicts = campaign.faults(20_000);
        assert_eq!(verdicts.len(), FaultKind::ALL.len());
        assert_eq!(names(&verdicts, Outcome::Pass).len(), 8, "{verdicts:#?}");
        assert_eq!(names(&verdicts, Outcome::Skipped), ["controller-blackout", "monitor-skew"]);
        let control = campaign.clean_control();
        assert_eq!(control.outcome, Outcome::Pass, "{control:?}");
        assert_eq!(control.detail, "zero detections, bit-identical to no chaos layer");
    }

    #[test]
    fn uniform_campaign_catches_every_class() {
        let campaign = smoke(Topology::uniform(2, 2), 300_000);
        let verdicts = campaign.faults(20_000);
        assert_eq!(names(&verdicts, Outcome::Pass).len(), 10, "{verdicts:#?}");
        let control = campaign.clean_control();
        assert_eq!(control.outcome, Outcome::Pass, "{control:?}");
        assert_eq!(control.detail, "zero detections, bit-identical to no chaos layer");
    }

    #[test]
    fn asymmetric_campaign_strikes_the_last_controller_and_channel() {
        let verdicts = smoke(Topology::asymmetric([3, 1]), 300_000).faults(20_000);
        assert_eq!(names(&verdicts, Outcome::Pass).len(), 10, "{verdicts:#?}");
        for (kind, v) in FaultKind::ALL.iter().zip(&verdicts) {
            let struck = match kind.detector() {
                Detector::Invariant(_) => " on ch3",
                Detector::Stall => "controller: mc1",
                Detector::Quarantine => "mc1 quarantined",
                Detector::Degradation => continue,
            };
            assert!(v.detail.contains(struck), "{v:?}");
        }
    }

    #[test]
    fn horizon_below_the_quantum_misses_monitor_corruption() {
        let verdicts =
            Campaign::new(Topology::flat(1), 7, QUANTUM - 1).expect("valid").faults(4_999);
        assert_eq!(names(&verdicts, Outcome::Fail), ["monitor-corruption"]);
    }
}
