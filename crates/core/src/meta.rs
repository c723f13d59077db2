//! The §5.3 meta-controller and its per-controller counterpart.
//!
//! In the paper's multi-controller design, each memory controller runs
//! its own monitors and request prioritization while a central
//! *meta-controller* periodically aggregates every controller's monitor
//! state, computes one system-wide cluster assignment + shuffle phase,
//! and broadcasts it back, so all controllers prioritize threads
//! identically within a quantum.
//!
//! This module splits the single-instance [`Tcm`] policy along exactly
//! that line:
//!
//! * [`TcmController`] is one controller's share of TCM: it feeds its
//!   local [`TcmMonitor`] from the enqueue/service hooks, hands the raw
//!   per-quantum accumulators up through
//!   [`Scheduler::quantum_exchange`], and prioritizes requests with the
//!   paper's Algorithm 3 over whatever ranking the last broadcast
//!   installed (all-zero before the first quantum — the same FR-FCFS
//!   degenerate state `Tcm` starts in).
//! * [`MetaController`] implements [`MetaScheduler`]: it aggregates the
//!   samples (summing shadow row-buffer counts and BLP integrals across
//!   controllers), derives MPKI and bandwidth usage from the global
//!   cumulative counters, and then reuses the *identical* clustering,
//!   niceness, shuffling and plausibility-guard machinery as [`Tcm`] —
//!   same thresholds, same RNG seeds — so a single-controller topology
//!   driven through the exchange protocol ranks threads exactly as the
//!   monolithic policy does.

use crate::monitor::{QuantumSnapshot, TcmMonitor};
use crate::params::TcmParams;
use crate::scheduler::Tcm;
use tcm_chaos::FaultSpec;
use tcm_dram::ServiceOutcome;
use tcm_sched::select::{age_key, pick_max_by_key, row_hit};
use tcm_sched::{ClusterPlan, MetaScheduler, MonitorSample, PickContext, Scheduler, SystemView};
use tcm_telemetry::{DegradationAnomaly, QuarantineReason, Telemetry};
use tcm_types::{Cycle, Request, SystemConfig};

/// One memory controller's slice of the coordinated TCM design: local
/// monitoring + Algorithm 3 prioritization over the meta-controller's
/// broadcast ranking. See the module docs.
#[derive(Debug)]
pub struct TcmController {
    monitor: TcmMonitor,
    /// Ranking installed by the last broadcast; all-zero (FR-FCFS
    /// degenerate) until the first quantum boundary.
    priority: Vec<usize>,
}

impl TcmController {
    /// Creates one controller's policy instance for the given machine.
    ///
    /// The monitor is addressed by *global* bank index (the same
    /// flattening [`Tcm`] uses), so it is sized for the whole system
    /// even though only this controller's requests flow through it.
    pub fn new(num_threads: usize, config: &SystemConfig) -> Self {
        Self {
            monitor: TcmMonitor::new(num_threads, config.num_channels(), config.banks_per_channel),
            priority: vec![0; num_threads],
        }
    }

    /// Current per-thread priority values (higher = scheduled first).
    pub fn priorities(&self) -> &[usize] {
        &self.priority
    }
}

impl Scheduler for TcmController {
    fn name(&self) -> &'static str {
        "TCM"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        // Algorithm 3: highest-rank first, then row-hit, then oldest.
        pick_max_by_key(pending, |r| {
            (
                self.priority.get(r.thread.index()).copied().unwrap_or(0),
                row_hit(r, ctx.open_row),
                age_key(r),
            )
        })
    }

    fn on_enqueue(&mut self, req: &Request, now: Cycle) {
        self.monitor
            .on_enqueue(req.thread, req.addr.global_bank(), req.addr.row, now);
    }

    fn on_service(
        &mut self,
        outcome: &ServiceOutcome,
        _remaining_same_bank: &[Request],
        now: Cycle,
    ) {
        self.monitor.on_service(
            outcome.request.thread,
            outcome.request.addr.global_bank(),
            now,
        );
    }

    fn quantum_exchange(&mut self, now: Cycle) -> Option<MonitorSample> {
        Some(self.monitor.harvest_sample(now))
    }

    fn apply_broadcast(&mut self, plan: &ClusterPlan, now: Cycle) {
        let _ = now;
        self.priority.clear();
        self.priority.extend_from_slice(&plan.priorities);
    }
}

/// The central TCM meta-controller (paper §5.3): aggregates every
/// controller's [`MonitorSample`] at quantum boundaries and broadcasts
/// the unified [`ClusterPlan`]. See the module docs.
///
/// Internally it drives an embedded [`Tcm`] ranking engine through the
/// same quantum/shuffle state machine the monolithic policy uses, so
/// clustering decisions, shuffle-algorithm selection and the RNG
/// sequence are bit-identical to the single-instance design given the
/// same aggregated measurements.
#[derive(Debug)]
pub struct MetaController {
    /// The shared ranking engine. Its local monitor is never fed — the
    /// aggregated samples replace it.
    core: Tcm,
    num_threads: usize,
    /// Cumulative counters at the last quantum boundary, for computing
    /// per-quantum MPKI / bandwidth deltas from the global view.
    retired_snapshot: Vec<u64>,
    misses_snapshot: Vec<u64>,
    service_snapshot: Vec<u64>,
    /// Per-controller quarantine flags (sized lazily from the first
    /// sample vector). A quarantined controller's samples are excluded
    /// from aggregation until it earns re-admission.
    quarantined: Vec<bool>,
    /// Consecutive clean quanta each quarantined controller has
    /// supplied since its last offense.
    clean_quanta: Vec<u64>,
    /// Whether each controller has ever supplied a sample — staleness
    /// (a `None` sample) is only an anomaly for controllers that used
    /// to participate, so mixed fleets of coordinated and
    /// non-coordinated policies are never flagged.
    participated: Vec<bool>,
}

impl MetaController {
    /// Consecutive clean quanta a quarantined controller must supply
    /// before the meta-controller re-admits its samples.
    pub const QUARANTINE_CLEAN_QUANTA: u64 = 2;

    /// Creates a meta-controller with the given TCM parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation (see [`TcmParams::validate`]).
    pub fn new(params: TcmParams, num_threads: usize, config: &SystemConfig) -> Self {
        Self {
            core: Tcm::with_params(params, num_threads, config),
            num_threads,
            retired_snapshot: vec![0; num_threads],
            misses_snapshot: vec![0; num_threads],
            service_snapshot: vec![0; num_threads],
            quarantined: Vec::new(),
            clean_quanta: Vec::new(),
            participated: Vec::new(),
        }
    }

    /// Per-controller quarantine flags (empty until a sample vector has
    /// been seen — and stays all-`false` on healthy runs).
    pub fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    /// The plan reflecting the ranking engine's current state. The
    /// quarantine vector is only attached once some controller has
    /// actually been quarantined, so clean runs broadcast a plan
    /// bit-identical to the pre-quarantine format.
    fn plan(&self) -> ClusterPlan {
        ClusterPlan {
            priorities: self.core.priorities().to_vec(),
            degraded: self.core.degraded(),
            quarantined: if self.quarantined.iter().any(|&q| q) {
                self.quarantined.clone()
            } else {
                Vec::new()
            },
        }
    }

    /// Whether a controller's sample is physically impossible: the
    /// shadow row-buffer cannot hit more often than it is accessed, and
    /// the BLP integral cannot be positive over zero busy cycles. A
    /// healthy controller can never produce either, so this guard has
    /// no false positives by construction.
    fn sample_implausible(sample: &MonitorSample) -> bool {
        let hits_exceed = sample
            .shadow_hits
            .iter()
            .zip(&sample.shadow_accesses)
            .any(|(&h, &a)| h > a);
        let phantom_blp = sample
            .blp_integral
            .iter()
            .zip(&sample.busy_time)
            .any(|(&i, &b)| i > 0 && b == 0);
        hits_exceed || phantom_blp
    }

    /// The per-controller staleness/plausibility guard (runs only at
    /// quantum boundaries, before aggregation): quarantines a single
    /// controller's samples instead of degrading the whole system, and
    /// re-admits it after [`MetaController::QUARANTINE_CLEAN_QUANTA`]
    /// consecutive clean quanta. Emits typed
    /// [`DegradationAnomaly::ControllerQuarantined`] /
    /// [`DegradationAnomaly::ControllerReadmitted`] events through the
    /// shared anomaly log and telemetry stream.
    fn update_quarantine(&mut self, now: Cycle, samples: &[Option<MonitorSample>]) {
        let n = samples.len();
        if self.quarantined.len() < n {
            self.quarantined.resize(n, false);
            self.clean_quanta.resize(n, 0);
            self.participated.resize(n, false);
        }
        for (c, sample) in samples.iter().enumerate() {
            let stale = self.participated[c] && sample.is_none();
            let skewed = sample.as_ref().is_some_and(Self::sample_implausible);
            if !self.quarantined[c] {
                if stale || skewed {
                    self.quarantined[c] = true;
                    self.clean_quanta[c] = 0;
                    let reason = if skewed {
                        QuarantineReason::ImplausibleAggregate
                    } else {
                        QuarantineReason::StaleSample
                    };
                    self.core
                        .record_anomaly(DegradationAnomaly::ControllerQuarantined {
                            cycle: now,
                            controller: c,
                            reason,
                        });
                }
            } else if stale || skewed {
                self.clean_quanta[c] = 0;
            } else if sample.is_some() {
                self.clean_quanta[c] += 1;
                if self.clean_quanta[c] >= Self::QUARANTINE_CLEAN_QUANTA {
                    let clean_quanta = self.clean_quanta[c];
                    self.quarantined[c] = false;
                    self.clean_quanta[c] = 0;
                    self.core
                        .record_anomaly(DegradationAnomaly::ControllerReadmitted {
                            cycle: now,
                            controller: c,
                            clean_quanta,
                        });
                }
            }
            if sample.is_some() {
                self.participated[c] = true;
            }
        }
    }

    /// Assembles the quantum snapshot the ranking engine expects by
    /// aggregating the controllers' samples (RBL, BLP) and differencing
    /// the global cumulative counters (MPKI, bandwidth). Mirrors
    /// `TcmMonitor::quantum_snapshot` field for field.
    fn aggregate(
        &mut self,
        view: &SystemView<'_>,
        samples: &[Option<MonitorSample>],
    ) -> QuantumSnapshot {
        let n = self.num_threads;
        let mut hits = vec![0u64; n];
        let mut accesses = vec![0u64; n];
        let mut blp_integral = vec![0u64; n];
        let mut busy_time = vec![0u64; n];
        for (c, sample) in samples.iter().enumerate() {
            // A quarantined controller's samples are untrusted: keep
            // them out of the system-wide aggregate until re-admission.
            if self.quarantined.get(c).copied().unwrap_or(false) {
                continue;
            }
            let Some(sample) = sample else { continue };
            for t in 0..n {
                hits[t] += sample.shadow_hits.get(t).copied().unwrap_or(0);
                accesses[t] += sample.shadow_accesses.get(t).copied().unwrap_or(0);
                blp_integral[t] += sample.blp_integral.get(t).copied().unwrap_or(0);
                busy_time[t] += sample.busy_time.get(t).copied().unwrap_or(0);
            }
        }
        let mut snap = QuantumSnapshot {
            mpki: vec![0.0; n],
            bw_usage: vec![0; n],
            rbl: vec![0.0; n],
            blp: vec![0.0; n],
        };
        for t in 0..n {
            let instr = view.retired.get(t).copied().unwrap_or(0) - self.retired_snapshot[t];
            let miss = view.misses.get(t).copied().unwrap_or(0) - self.misses_snapshot[t];
            snap.mpki[t] = match (miss, instr) {
                (0, _) => 0.0,
                (_, 0) => f64::INFINITY,
                (m, i) => m as f64 * 1000.0 / i as f64,
            };
            snap.bw_usage[t] = view.service.get(t).copied().unwrap_or(0) - self.service_snapshot[t];
            snap.rbl[t] = if accesses[t] > 0 {
                hits[t] as f64 / accesses[t] as f64
            } else {
                0.0
            };
            snap.blp[t] = if busy_time[t] > 0 {
                blp_integral[t] as f64 / busy_time[t] as f64
            } else if miss > 0 {
                1.0
            } else {
                0.0
            };
            self.retired_snapshot[t] = view.retired.get(t).copied().unwrap_or(0);
            self.misses_snapshot[t] = view.misses.get(t).copied().unwrap_or(0);
            self.service_snapshot[t] = view.service.get(t).copied().unwrap_or(0);
        }
        snap
    }
}

impl MetaScheduler for MetaController {
    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        Some(self.core.next_boundary(now))
    }

    fn needs_samples(&self, now: Cycle) -> bool {
        self.core.is_quantum_due(now)
    }

    fn set_thread_weights(&mut self, weights: &[f64]) {
        self.core.set_thread_weights(weights);
    }

    fn exchange(
        &mut self,
        now: Cycle,
        view: &SystemView<'_>,
        samples: &[Option<MonitorSample>],
    ) -> ClusterPlan {
        let snap = self.core.is_quantum_due(now).then(|| {
            // Quarantine first so a skewed sample never reaches the
            // aggregate (and the whole-system plausibility guard) in
            // the same quantum it is detected.
            self.update_quarantine(now, samples);
            let mut snap = self.aggregate(view, samples);
            self.core.apply_monitor_faults(&mut snap, now);
            snap
        });
        self.core.run_boundary(snap, now);
        self.plan()
    }

    fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
        self.core.inject_monitor_fault(fault);
    }

    fn degradation_events(&self) -> &[DegradationAnomaly] {
        self.core.anomaly_events()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.core.attach_telemetry(telemetry);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::{
        BankId, ChannelId, MemAddress, RequestId, Row, SystemConfig, ThreadId, Topology,
    };

    fn cfg() -> SystemConfig {
        SystemConfig::builder()
            .num_threads(4)
            .topology(Topology::uniform(2, 1))
            .banks_per_channel(2)
            .build()
            .unwrap()
    }

    fn req(id: u64, thread: usize, channel: usize, bank: usize, row: usize, at: Cycle) -> Request {
        Request::new(
            RequestId::new(id),
            ThreadId::new(thread),
            MemAddress::new(ChannelId::new(channel), BankId::new(bank), Row::new(row)),
            at,
        )
    }

    /// A clean 4-thread quantum: thread 0 latency-sensitive (low MPKI),
    /// the rest bandwidth-hungry.
    fn view_arrays() -> ([u64; 4], [u64; 4], [u64; 4]) {
        (
            [3_000_000, 200_000, 200_000, 200_000],
            [30, 20_000, 20_000, 20_000],
            [2_000, 300_000, 300_000, 300_000],
        )
    }

    /// Drives `controllers` TcmControllers + a MetaController through
    /// one quantum boundary with the given view and returns the plan.
    fn one_quantum(controllers: usize) -> (ClusterPlan, Vec<TcmController>, MetaController) {
        let cfg = cfg();
        let params = TcmParams::paper_default(4).with_cluster_thresh(0.25);
        let mut ctls: Vec<TcmController> = (0..controllers)
            .map(|_| TcmController::new(4, &cfg))
            .collect();
        let mut meta = MetaController::new(params, 4, &cfg);
        // Spread some traffic over the controllers so RBL/BLP are fed.
        for (c, ctl) in ctls.iter_mut().enumerate() {
            for i in 0..4u64 {
                let r = req(i, 1 + c % 3, c, (i % 2) as usize, 7, i * 10);
                ctl.on_enqueue(&r, i * 10);
            }
        }
        let (retired, misses, service) = view_arrays();
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        let now = 1_000_000;
        assert!(meta.needs_samples(now), "the quantum is due at 1M cycles");
        let samples: Vec<Option<MonitorSample>> =
            ctls.iter_mut().map(|c| c.quantum_exchange(now)).collect();
        let plan = meta.exchange(now, &view, &samples);
        for ctl in &mut ctls {
            ctl.apply_broadcast(&plan, now);
        }
        (plan, ctls, meta)
    }

    #[test]
    fn broadcast_installs_one_shared_ranking() {
        let (plan, ctls, meta) = one_quantum(2);
        assert!(!plan.degraded);
        assert!(
            plan.priorities.iter().any(|&p| p > 0),
            "a clean quantum must rank threads"
        );
        for ctl in &ctls {
            assert_eq!(ctl.priorities(), &plan.priorities[..]);
        }
        assert!(meta.degradation_events().is_empty());
    }

    #[test]
    fn aggregated_ranking_matches_the_monolithic_policy() {
        // One controller fed through the exchange protocol must rank
        // threads exactly as the monolithic Tcm given the same traffic
        // and counters: the meta-controller reuses Tcm's machinery.
        let cfg = cfg();
        let params = TcmParams::paper_default(4).with_cluster_thresh(0.25);
        let mut mono = Tcm::with_params(params, 4, &cfg);
        let mut ctl = TcmController::new(4, &cfg);
        let mut meta = MetaController::new(params, 4, &cfg);
        for i in 0..6u64 {
            let r = req(i, 1 + (i % 3) as usize, (i % 2) as usize, 0, 7, i * 20);
            mono.on_enqueue(&r, i * 20);
            ctl.on_enqueue(&r, i * 20);
        }
        let (retired, misses, service) = view_arrays();
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        let now = 1_000_000;
        mono.tick(now, &view);
        let samples = vec![ctl.quantum_exchange(now)];
        let plan = meta.exchange(now, &view, &samples);
        assert_eq!(plan.priorities, mono.priorities());
        assert_eq!(plan.degraded, mono.degraded());
    }

    #[test]
    fn shuffle_boundaries_skip_the_harvest() {
        let (_, _, mut meta) = one_quantum(2);
        let now = 1_000_000;
        let next = meta.next_tick(now).unwrap();
        assert!(next > now);
        assert!(
            !meta.needs_samples(next),
            "the boundary after a quantum is a shuffle, no harvest"
        );
        let (retired, misses, service) = view_arrays();
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        let before = meta.plan();
        let after = meta.exchange(next, &view, &[]);
        // Same thread set, possibly rotated ranking; never degraded.
        assert!(!after.degraded);
        assert_eq!(
            {
                let mut p = before.priorities.clone();
                p.sort_unstable();
                p
            },
            {
                let mut p = after.priorities.clone();
                p.sort_unstable();
                p
            },
            "a shuffle permutes ranks, it does not invent new ones"
        );
    }

    #[test]
    fn controllers_harvest_deltas_not_totals() {
        let cfg = cfg();
        let mut ctl = TcmController::new(4, &cfg);
        let r = req(0, 1, 0, 0, 7, 0);
        ctl.on_enqueue(&r, 0);
        let first = ctl.quantum_exchange(1_000).unwrap();
        assert_eq!(first.shadow_accesses[1], 1);
        // Nothing new: the second harvest must be empty, not cumulative.
        let second = ctl.quantum_exchange(2_000).unwrap();
        assert_eq!(second.shadow_accesses[1], 0);
        assert_eq!(second.shadow_hits[1], 0);
    }

    /// A physically plausible per-controller sample: every thread was
    /// accessed once, no shadow hits, no bank-level parallelism.
    fn clean_sample(n: usize) -> MonitorSample {
        MonitorSample {
            shadow_hits: vec![0; n],
            shadow_accesses: vec![1; n],
            blp_integral: vec![0; n],
            busy_time: vec![0; n],
        }
    }

    fn paper_view() -> ([u64; 4], [u64; 4], [u64; 4]) {
        view_arrays()
    }

    #[test]
    fn implausible_sample_quarantines_only_that_controller() {
        let cfg = cfg();
        let params = TcmParams::paper_default(4).with_cluster_thresh(0.25);
        let mut meta = MetaController::new(params, 4, &cfg);
        let (retired, misses, service) = paper_view();
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        let mut bad = clean_sample(4);
        // The shadow row-buffer cannot hit more often than it is
        // accessed: this sample is impossible for a healthy controller.
        bad.shadow_hits[2] = bad.shadow_accesses[2] + 7;
        let samples = vec![Some(clean_sample(4)), Some(bad)];
        let plan = meta.exchange(1_000_000, &view, &samples);
        assert_eq!(plan.quarantined, vec![false, true]);
        assert!(!plan.degraded, "the healthy majority keeps TCM clustering");
        assert!(
            plan.priorities.iter().any(|&p| p > 0),
            "the quantum still ranks threads from the healthy sample"
        );
        let events = meta.degradation_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            DegradationAnomaly::ControllerQuarantined {
                controller: 1,
                reason: QuarantineReason::ImplausibleAggregate,
                ..
            }
        ));
    }

    #[test]
    fn stale_controller_is_quarantined_then_readmitted() {
        let cfg = cfg();
        let params = TcmParams::paper_default(4).with_cluster_thresh(0.25);
        let mut meta = MetaController::new(params, 4, &cfg);
        let (retired, misses, service) = paper_view();
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        let both = || vec![Some(clean_sample(4)), Some(clean_sample(4))];
        // Quantum 1: both controllers participate cleanly.
        let plan = meta.exchange(1_000_000, &view, &both());
        assert!(plan.quarantined.is_empty());
        assert!(meta.degradation_events().is_empty());
        // Quantum 2: controller 1 goes dark — stale-sample quarantine.
        let plan = meta.exchange(2_000_000, &view, &[Some(clean_sample(4)), None]);
        assert_eq!(plan.quarantined, vec![false, true]);
        // Quantum 3: one clean quantum is not enough to earn trust back.
        let plan = meta.exchange(3_000_000, &view, &both());
        assert_eq!(plan.quarantined, vec![false, true]);
        // Quantum 4: second consecutive clean quantum — re-admitted.
        let plan = meta.exchange(4_000_000, &view, &both());
        assert!(
            plan.quarantined.is_empty(),
            "re-admission clears the broadcast quarantine flags"
        );
        let events = meta.degradation_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            DegradationAnomaly::ControllerQuarantined {
                controller: 1,
                reason: QuarantineReason::StaleSample,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            DegradationAnomaly::ControllerReadmitted {
                controller: 1,
                clean_quanta: 2,
                ..
            }
        ));
    }

    #[test]
    fn absent_controllers_are_not_stale_before_first_participation() {
        // Staleness is "used to report, stopped reporting": a controller
        // that never supplied a sample (e.g. a non-coordinated policy in
        // a mixed fleet) must never be flagged.
        let cfg = cfg();
        let params = TcmParams::paper_default(4).with_cluster_thresh(0.25);
        let mut meta = MetaController::new(params, 4, &cfg);
        let (retired, misses, service) = paper_view();
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        let plan = meta.exchange(1_000_000, &view, &[Some(clean_sample(4)), None]);
        assert!(plan.quarantined.is_empty());
        assert!(meta.degradation_events().is_empty());
        // Once it starts participating it is trusted immediately.
        let plan = meta.exchange(
            2_000_000,
            &view,
            &[Some(clean_sample(4)), Some(clean_sample(4))],
        );
        assert!(plan.quarantined.is_empty());
        assert!(meta.degradation_events().is_empty());
    }

    #[test]
    fn pick_follows_the_broadcast_ranking() {
        let (plan, mut ctls, _) = one_quantum(1);
        let ctl = &mut ctls[0];
        // Find a top-ranked and a bottom-ranked thread.
        let top = (0..4).max_by_key(|&t| plan.priorities[t]).unwrap();
        let bottom = (0..4).min_by_key(|&t| plan.priorities[t]).unwrap();
        assert_ne!(plan.priorities[top], plan.priorities[bottom]);
        let mut queue = tcm_dram::RequestQueue::new(128, 2);
        queue.push(req(10, bottom, 0, 0, 1, 0)).unwrap();
        queue.push(req(11, top, 0, 0, 2, 500)).unwrap();
        let ctx = PickContext {
            now: 1_000_100,
            channel: ChannelId::new(0),
            bank: BankId::new(0),
            // The bottom thread's request would be the row hit; rank
            // still wins (Algorithm 3 puts rank above row-hit).
            open_row: Some(Row::new(1)),
            queue: &queue,
        };
        assert_eq!(ctl.pick(queue.pending_for_bank(BankId::new(0)), &ctx), 1);
    }
}
