//! The paper's §5.3 coordination on a machine with two or more memory
//! controllers: at every boundary the meta-controller's timer names,
//! [`System`]'s event loop calls [`System::exchange`], which harvests
//! each controller's [`MonitorSample`], lets the [`MetaScheduler`]
//! aggregate them into one system-wide [`ClusterPlan`], and broadcasts
//! it back — with the quarantine fallback for a controller whose
//! sample the meta-controller rejected, and the armed coordination
//! faults (controller blackout, monitor skew) applied to the harvest.
//!
//! [`MetaScheduler`]: tcm_sched::MetaScheduler

use crate::system::System;
use tcm_chaos::FaultKind;
use tcm_sched::{ClusterPlan, MonitorSample};
use tcm_telemetry::TraceEvent;
use tcm_types::Cycle;

impl System {
    /// The paper's §5.3 exchange at `at`: harvest each controller's
    /// monitor sample, let the meta-controller aggregate them into one
    /// plan, and broadcast it back.
    pub(crate) fn exchange(&mut self, at: Cycle) {
        let meta = self.meta.as_mut().expect("a meta timer without a meta");
        let harvested = meta.needs_samples(at);
        let mut samples: Vec<Option<MonitorSample>> = if harvested {
            self.ctls
                .iter_mut()
                .map(|ctl| ctl.scheduler.quantum_exchange(at))
                .collect()
        } else {
            vec![None; self.ctls.len()]
        };
        if harvested && !self.coordination.is_empty() {
            self.apply_coordination_faults(at, &mut samples);
        }
        let view = self.front.view(&self.ctls);
        let meta = self.meta.as_mut().expect("a meta timer without a meta");
        let plan = meta.exchange(at, &view, &samples);
        if plan.quarantined.is_empty() {
            for ctl in &mut self.ctls {
                ctl.scheduler.apply_broadcast(&plan, at);
            }
        } else {
            // A quarantined controller gets the degenerate all-zero
            // ranking — Algorithm 3 with equal ranks is row-hit then
            // oldest, i.e. local FR-FCFS — while the healthy controllers
            // keep the real TCM clustering for this quantum.
            let fallback = ClusterPlan {
                priorities: vec![0; self.cfg.num_threads],
                degraded: true,
                quarantined: plan.quarantined.clone(),
            };
            for (i, ctl) in self.ctls.iter_mut().enumerate() {
                if plan.quarantined.get(i).copied().unwrap_or(false) {
                    ctl.scheduler.apply_broadcast(&fallback, at);
                } else {
                    ctl.scheduler.apply_broadcast(&plan, at);
                }
            }
        }
    }

    /// Applies due coordination faults to this exchange's harvested
    /// sample vector: a blackout deletes the target controller's sample
    /// (its monitor went dark), a skew corrupts it into physical
    /// impossibility (more shadow hits than accesses). Fire-once.
    fn apply_coordination_faults(&mut self, at: Cycle, samples: &mut [Option<MonitorSample>]) {
        let mut i = 0;
        while i < self.coordination.len() {
            let fault = self.coordination[i];
            if fault.at > at {
                i += 1;
                continue;
            }
            self.coordination.remove(i);
            let c = fault.controller.min(samples.len() - 1);
            match fault.kind {
                FaultKind::ControllerBlackout => samples[c] = None,
                FaultKind::MonitorSkew => {
                    if let Some(sample) = &mut samples[c] {
                        let t = fault
                            .thread
                            .min(sample.shadow_accesses.len().saturating_sub(1));
                        sample.shadow_hits[t] = sample.shadow_accesses[t]
                            .saturating_mul(2)
                            .saturating_add(1_000);
                    }
                }
                _ => unreachable!("coordination_faults yields only coordination kinds"),
            }
            self.telemetry.emit(|| TraceEvent::ChaosInjected {
                cycle: at,
                kind: fault.kind,
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use tcm_core::TcmParams;
    use tcm_types::{SystemConfig, Topology};
    use tcm_workload::{random_workload, BenchmarkProfile, WorkloadSpec};

    fn cfg(threads: usize, topology: Topology) -> SystemConfig {
        SystemConfig::builder()
            .num_threads(threads)
            .topology(topology)
            .build()
            .unwrap()
    }

    fn build(cfg: &SystemConfig, policy: &PolicyKind, workload: &WorkloadSpec) -> System {
        System::for_policy(cfg, workload, policy, 7)
    }

    /// TCM with quanta short enough that a test-sized run crosses
    /// several meta-controller exchanges.
    fn fast_tcm(threads: usize) -> PolicyKind {
        let mut params = TcmParams::paper_default(threads);
        params.quantum = 20_000;
        PolicyKind::Tcm(params)
    }

    #[test]
    fn reruns_are_deterministic() {
        let cfg = cfg(4, Topology::asymmetric([3, 1]));
        let w = random_workload(3, 4, 0.75);
        let a = build(&cfg, &PolicyKind::FrFcfs, &w).run(80_000);
        let b = build(&cfg, &PolicyKind::FrFcfs, &w).run(80_000);
        assert_eq!(a, b);
    }

    #[test]
    fn uncoordinated_policies_run_per_controller_timers() {
        // ATLAS keeps its own quantum timer in each controller instance.
        let cfg = cfg(4, Topology::uniform(2, 2));
        let w = random_workload(5, 4, 1.0);
        let policy = PolicyKind::Atlas(tcm_sched::AtlasParams::paper_default());
        let r = build(&cfg, &policy, &w).run(100_000);
        assert!(r.total_serviced > 0);
        assert!(r.ipc.iter().all(|&i| i > 0.0));
    }

    #[test]
    fn coordinated_tcm_crosses_quanta_without_degrading() {
        let cfg = cfg(4, Topology::uniform(2, 1));
        let w = random_workload(9, 4, 1.0);
        let mut sys = build(&cfg, &fast_tcm(4), &w);
        let r = sys.run(100_000); // five 20k-cycle quanta
        assert!(r.total_serviced > 0);
        assert!(
            sys.degradation_events().is_empty(),
            "clean run must not trip the plausibility guard"
        );
        // After the final exchange every controller has harvested and
        // holds broadcast state; a fresh harvest still works.
        for ctl in &mut sys.ctls {
            assert!(ctl.scheduler.quantum_exchange(200_000).is_some());
        }
    }

    #[test]
    fn compute_only_workload_drains_cleanly() {
        let cfg = cfg(2, Topology::uniform(2, 1));
        let w = WorkloadSpec::new(
            "idle",
            vec![
                BenchmarkProfile::new("idle-a", 0.0, 0.5, 1.0),
                BenchmarkProfile::new("idle-b", 0.0, 0.5, 1.0),
            ],
        );
        let r = build(&cfg, &PolicyKind::FrFcfs, &w).run(10_000);
        assert_eq!(r.retired, vec![30_000, 30_000]);
        assert_eq!(r.total_serviced, 0);
    }

    #[test]
    fn verification_is_observation_only() {
        let cfg = cfg(4, Topology::uniform(2, 2));
        let w = random_workload(2, 4, 0.75);
        let plain = build(&cfg, &PolicyKind::FrFcfs, &w).run(60_000);
        let mut verified = build(&cfg, &PolicyKind::FrFcfs, &w);
        verified.enable_verification();
        assert_eq!(verified.try_run(60_000).unwrap(), plain);
    }
}
