//! Deterministic fault injection for the TCM reproduction.
//!
//! The hardening pass gave the simulator a defensive layer — the DRAM
//! protocol checker, the forward-progress watchdog and
//! panic-isolated sweeps — but nothing in the repo demonstrated those
//! defenses *fire*: every test exercised legal streams, so a checker
//! regression that silently stopped detecting tRCD violations would have
//! passed CI. This crate closes that gap with a seeded, deterministic
//! fault-injection subsystem ("chaos layer") threaded through
//! `tcm-dram`, `tcm-sched`, `tcm-core` and `tcm-sim`.
//!
//! The vocabulary:
//!
//! * [`FaultKind`] — the ten injectable fault classes, each mapped
//!   1:1 to the detector expected to catch it ([`FaultKind::detector`]);
//! * [`FaultSpec`] — one scheduled fault: a kind plus *when* (cycle) and
//!   *where* (channel / thread / controller) to strike;
//! * [`FaultPlan`] — an immutable schedule of faults, built explicitly
//!   or drawn from a seeded RNG ([`FaultPlan::campaign`]).
//!   All randomness happens at *construction*; executing a plan draws
//!   nothing, so a plan replays bit-identically. Under multi-controller
//!   topologies, [`FaultPlan::validate`] turns mistargeted addresses
//!   into typed config errors instead of silent aliasing;
//! * [`ChannelChaos`] — the per-channel execution state a DRAM channel
//!   carries while a plan is live (armed faults, fired flags, observed
//!   bus history).
//!
//! The zero-fault plan ([`FaultPlan::none`]) is a strict no-op: a run
//! with it installed is bit-identical to a run without the chaos layer
//! at all (tests assert this).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcm_types::{ConfigError, Cycle, Invariant, Topology};

/// What is expected to catch a given [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detector {
    /// The DRAM protocol checker reports this invariant class.
    Invariant(Invariant),
    /// The forward-progress watchdog reports `SimError::Stalled`.
    Stall,
    /// TCM's plausibility guard engages graceful degradation (the run
    /// itself completes; no error is surfaced).
    Degradation,
    /// The meta-controller's staleness/plausibility guard quarantines
    /// the afflicted controller — healthy controllers keep TCM
    /// clustering, the quarantined one falls back to local FR-FCFS
    /// until re-admitted (the run itself completes; typed quarantine
    /// events are surfaced). Multi-controller topologies only; these
    /// faults are inert on the flat single-controller engine.
    Quarantine,
}

/// The injectable fault classes.
///
/// Each class corrupts one specific mechanism and maps 1:1 to the
/// detector expected to catch it, so coverage tests can assert every
/// detector fires on its matching fault and stays silent otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Service a column access faster than tRCD allows: the reported
    /// `service_cycles` is shortened below the access phase implied by
    /// the row-buffer state. Detector: `Invariant::BankTiming`.
    TimingViolation,
    /// Corrupt the reported row-buffer state of one access (hit
    /// reported where the shadow row-buffer proves otherwise).
    /// Detector: `Invariant::RowState`.
    RowCorruption,
    /// Start a data-bus transfer while the previous transfer still owns
    /// the bus. Detector: `Invariant::BusOverlap`.
    BusOverlap,
    /// Admit one request into a controller buffer twice.
    /// Detector: `Invariant::Conservation` (admitted twice).
    DuplicateRequest,
    /// Silently drop one admitted request from a controller buffer; its
    /// data never returns. Detector: `Invariant::Conservation` at the
    /// end-of-run accounting (admitted ≠ serviced + still queued).
    DropRequest,
    /// Flood one controller's spill queue past the MSHR-implied bound
    /// on outstanding misses. Detector: `Invariant::ResourceBound`.
    SpillFlood,
    /// Corrupt one thread's MPKI/RBL/BLP monitor state at the next TCM
    /// quantum boundary (deterministic sign/exponent bit flips).
    /// Detector: TCM's plausibility guard → graceful degradation.
    MonitorCorruption,
    /// Make the scheduler spin: from the fault cycle on, `next_tick`
    /// returns the current cycle forever, freezing simulated time.
    /// Detector: the same-cycle livelock guard → `SimError::Stalled`.
    SchedulerSpin,
    /// One controller's monitor samples go absent at the first quantum
    /// boundary at or after the arm cycle: the meta-controller sees a
    /// controller that used to participate suddenly report nothing.
    /// Detector: the meta-controller's staleness guard → quarantine.
    ControllerBlackout,
    /// One controller reports physically impossible aggregates at a
    /// quantum boundary (more row hits than accesses). Detector: the
    /// meta-controller's plausibility guard → quarantine.
    MonitorSkew,
}

impl FaultKind {
    /// Every fault class, in a fixed order (campaigns iterate this).
    /// The two coordination faults come last so seeded draws for the
    /// original eight classes are unchanged.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::TimingViolation,
        FaultKind::RowCorruption,
        FaultKind::BusOverlap,
        FaultKind::DuplicateRequest,
        FaultKind::DropRequest,
        FaultKind::SpillFlood,
        FaultKind::MonitorCorruption,
        FaultKind::SchedulerSpin,
        FaultKind::ControllerBlackout,
        FaultKind::MonitorSkew,
    ];

    /// Short human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::TimingViolation => "timing-violation",
            FaultKind::RowCorruption => "row-corruption",
            FaultKind::BusOverlap => "bus-overlap",
            FaultKind::DuplicateRequest => "duplicate-request",
            FaultKind::DropRequest => "drop-request",
            FaultKind::SpillFlood => "spill-flood",
            FaultKind::MonitorCorruption => "monitor-corruption",
            FaultKind::SchedulerSpin => "scheduler-spin",
            FaultKind::ControllerBlackout => "controller-blackout",
            FaultKind::MonitorSkew => "monitor-skew",
        }
    }

    /// The detector expected to catch this fault — and the only one
    /// that should.
    pub const fn detector(self) -> Detector {
        match self {
            FaultKind::TimingViolation => Detector::Invariant(Invariant::BankTiming),
            FaultKind::RowCorruption => Detector::Invariant(Invariant::RowState),
            FaultKind::BusOverlap => Detector::Invariant(Invariant::BusOverlap),
            FaultKind::DuplicateRequest => Detector::Invariant(Invariant::Conservation),
            FaultKind::DropRequest => Detector::Invariant(Invariant::Conservation),
            FaultKind::SpillFlood => Detector::Invariant(Invariant::ResourceBound),
            FaultKind::MonitorCorruption => Detector::Degradation,
            FaultKind::SchedulerSpin => Detector::Stall,
            FaultKind::ControllerBlackout | FaultKind::MonitorSkew => Detector::Quarantine,
        }
    }

    /// Whether this fault executes inside a DRAM channel (as opposed to
    /// the scheduler or the simulator's admission path).
    pub const fn is_channel_fault(self) -> bool {
        matches!(
            self,
            FaultKind::TimingViolation
                | FaultKind::RowCorruption
                | FaultKind::BusOverlap
                | FaultKind::DuplicateRequest
                | FaultKind::DropRequest
        )
    }

    /// Whether this fault's site is a channel, so its `channel` target
    /// is meaningful (channel faults plus the spill flood, which
    /// strikes the controller buffer feeding a channel).
    pub const fn targets_channel(self) -> bool {
        self.is_channel_fault() || matches!(self, FaultKind::SpillFlood)
    }

    /// Whether this fault strikes quantum-boundary coordination between
    /// a controller and the TCM meta-controller (the two kinds mapped
    /// to [`Detector::Quarantine`]).
    pub const fn is_coordination_fault(self) -> bool {
        matches!(self, FaultKind::ControllerBlackout | FaultKind::MonitorSkew)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault: what, when, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault class to inject.
    pub kind: FaultKind,
    /// Earliest cycle at which the fault arms. Channel faults fire on
    /// the first eligible channel operation at or after this cycle;
    /// monitor faults apply at the first TCM quantum boundary at or
    /// after it.
    pub at: Cycle,
    /// Target channel index — *global* across the whole topology
    /// (channel faults and floods; ignored otherwise). Engines must
    /// resolve it to an owning controller via `Topology::partition`,
    /// never by assuming flat indexing; [`FaultPlan::validate`] rejects
    /// out-of-range indices up front.
    pub channel: usize,
    /// Target thread index (monitor corruption and skew; ignored
    /// otherwise).
    pub thread: usize,
    /// Target controller index (scheduler spins and coordination
    /// faults under multi-controller topologies; ignored by
    /// channel-sited faults, whose controller is derived from
    /// `channel`).
    pub controller: usize,
}

impl FaultSpec {
    /// A spec for `kind` arming at cycle `at` on channel 0 / thread 0 /
    /// controller 0.
    pub const fn new(kind: FaultKind, at: Cycle) -> Self {
        Self {
            kind,
            at,
            channel: 0,
            thread: 0,
            controller: 0,
        }
    }

    /// Returns the spec retargeted to `channel` (a global index; see
    /// the field docs).
    pub const fn on_channel(mut self, channel: usize) -> Self {
        self.channel = channel;
        self
    }

    /// Returns the spec retargeted to `thread`.
    pub const fn on_thread(mut self, thread: usize) -> Self {
        self.thread = thread;
        self
    }

    /// Returns the spec retargeted to `controller`.
    pub const fn on_controller(mut self, controller: usize) -> Self {
        self.controller = controller;
        self
    }

    /// Resolves this fault's global channel target to its owning
    /// controller and local channel index under `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the channel index is out of range
    /// for the topology (the typed replacement for silent aliasing).
    pub fn partition_for(
        &self,
        topology: &Topology,
    ) -> Result<(tcm_types::ControllerId, usize), ConfigError> {
        topology.partition(self.channel).map_err(|_| {
            ConfigError::invalid(
                "chaos",
                format!(
                    "fault `{}` targets channel {} but the topology has {} channels",
                    self.kind,
                    self.channel,
                    topology.num_channels()
                ),
            )
        })
    }
}

/// An immutable, deterministic schedule of faults.
///
/// Install on a simulator via `System::install_chaos` (in `tcm-sim`) or
/// per-cell via `RunConfig`. All randomness happens when the plan is
/// built; replaying the same plan on the same inputs is bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan. Installing it is a strict no-op: results are
    /// bit-identical to a run without the chaos layer at all.
    pub const fn none() -> Self {
        Self { faults: Vec::new() }
    }

    /// A plan with exactly one fault of `kind` arming at cycle `at`
    /// (channel 0, thread 0 — retarget via [`FaultPlan::with_fault`]).
    pub fn single(kind: FaultKind, at: Cycle) -> Self {
        Self {
            faults: vec![FaultSpec::new(kind, at)],
        }
    }

    /// Returns the plan with `fault` appended.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// A seeded campaign: one fault of every class, with arm cycles
    /// drawn uniformly from `[horizon/8, horizon/2)` and channel/thread
    /// targets drawn from the machine shape. Equal seeds produce equal
    /// plans; the RNG is consumed here and never during execution.
    /// Controllers are not drawn: every fault targets controller 0.
    pub fn campaign(seed: u64, horizon: Cycle, num_channels: usize, num_threads: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = (horizon / 8).max(1);
        let hi = (horizon / 2).max(lo + 1);
        let faults = FaultKind::ALL
            .iter()
            .map(|&kind| FaultSpec {
                kind,
                at: rng.gen_range(lo..hi),
                channel: rng.gen_range(0..num_channels.max(1)),
                thread: rng.gen_range(0..num_threads.max(1)),
                controller: 0,
            })
            .collect();
        Self { faults }
    }

    /// Checks every fault's channel/controller address against
    /// `topology`, so a mistargeted plan is a typed config error at
    /// plan-install time instead of silently aliasing onto the wrong
    /// shard. Channel-sited faults are routed through
    /// `Topology::partition`; all other faults must name an existing
    /// controller.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the out-of-range fault.
    pub fn validate(&self, topology: &Topology) -> Result<(), ConfigError> {
        for f in &self.faults {
            if f.kind.targets_channel() {
                f.partition_for(topology)?;
            } else if f.controller >= topology.num_controllers() {
                return Err(ConfigError::invalid(
                    "chaos",
                    format!(
                        "fault `{}` targets controller {} but the topology has {} controllers",
                        f.kind,
                        f.controller,
                        topology.num_controllers()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Every scheduled fault, in insertion order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Execution state for the channel-level faults targeting `channel`
    /// (empty — but still installable — when none do).
    pub fn channel_chaos(&self, channel: usize) -> ChannelChaos {
        ChannelChaos::new(
            self.faults
                .iter()
                .filter(|f| f.kind.is_channel_fault() && f.channel == channel)
                .copied(),
        )
    }

    /// The monitor-corruption faults, in insertion order.
    pub fn monitor_faults(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.faults
            .iter()
            .filter(|f| f.kind == FaultKind::MonitorCorruption)
            .copied()
    }

    /// Earliest scheduler-spin arm cycle targeting `controller`, if
    /// the plan schedules one (a spin wedges only the named
    /// controller's scheduler).
    pub fn spin_for(&self, controller: usize) -> Option<Cycle> {
        self.faults
            .iter()
            .filter(|f| f.kind == FaultKind::SchedulerSpin && f.controller == controller)
            .map(|f| f.at)
            .min()
    }

    /// The coordination faults (controller blackout / monitor skew),
    /// in insertion order. Only a multi-controller machine executes
    /// these, at its quantum exchange; they are inert on a flat one.
    pub fn coordination_faults(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.faults
            .iter()
            .filter(|f| f.kind.is_coordination_fault())
            .copied()
    }

    /// The first spill-flood fault, if the plan schedules one.
    pub fn flood(&self) -> Option<FaultSpec> {
        self.faults
            .iter()
            .find(|f| f.kind == FaultKind::SpillFlood)
            .copied()
    }
}

/// Per-channel chaos execution state: which channel faults are armed,
/// which have fired, and the channel's observed bus history (needed to
/// construct an overlapping transfer deterministically).
///
/// Owned by a `tcm-dram` channel while a [`FaultPlan`] is installed;
/// every fault fires at most once, on the first eligible operation at
/// or after its arm cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelChaos {
    armed: Vec<FaultSpec>,
    fired: Vec<bool>,
    last_bus_end: Cycle,
}

impl ChannelChaos {
    /// State for the given channel faults.
    pub fn new(faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        let armed: Vec<FaultSpec> = faults.into_iter().collect();
        let fired = vec![false; armed.len()];
        Self {
            armed,
            fired,
            last_bus_end: 0,
        }
    }

    /// Whether no faults are scheduled on this channel.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Whether a fault of `kind` is armed (due and not yet fired) at
    /// cycle `now`. Does not consume the fault; pair with
    /// [`ChannelChaos::fire`] once the mutation actually happens.
    pub fn due(&self, kind: FaultKind, now: Cycle) -> bool {
        self.armed
            .iter()
            .zip(&self.fired)
            .any(|(f, &fired)| !fired && f.kind == kind && f.at <= now)
    }

    /// Consumes (marks fired) one armed fault of `kind` due at `now`.
    /// Returns `true` exactly once per scheduled fault.
    pub fn fire(&mut self, kind: FaultKind, now: Cycle) -> bool {
        for (f, fired) in self.armed.iter().zip(self.fired.iter_mut()) {
            if !*fired && f.kind == kind && f.at <= now {
                *fired = true;
                return true;
            }
        }
        false
    }

    /// Records the end cycle of a data-bus transfer the channel
    /// performed (mirrors the protocol checker's bus bookkeeping).
    pub fn observe_bus(&mut self, bus_end: Cycle) {
        self.last_bus_end = self.last_bus_end.max(bus_end);
    }

    /// End cycle of the latest observed data-bus transfer.
    pub fn last_bus_end(&self) -> Cycle {
        self.last_bus_end
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_distinct_name_and_a_detector() {
        for (i, a) in FaultKind::ALL.iter().enumerate() {
            for b in &FaultKind::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
            let _ = a.detector(); // total: no panic for any kind
        }
    }

    #[test]
    fn detector_mapping_is_one_to_one_with_invariant_classes() {
        use std::collections::HashSet;
        let invariants: HashSet<Invariant> = FaultKind::ALL
            .iter()
            .filter_map(|k| match k.detector() {
                Detector::Invariant(inv) => Some(inv),
                _ => None,
            })
            .collect();
        // All five invariant classes are covered by some fault.
        assert_eq!(invariants.len(), 5);
        // Stall, degradation and quarantine are covered too.
        assert!(FaultKind::ALL
            .iter()
            .any(|k| k.detector() == Detector::Stall));
        assert!(FaultKind::ALL
            .iter()
            .any(|k| k.detector() == Detector::Degradation));
        assert!(FaultKind::ALL
            .iter()
            .any(|k| k.detector() == Detector::Quarantine));
        // Exactly the coordination faults map to quarantine.
        for k in FaultKind::ALL {
            assert_eq!(
                k.detector() == Detector::Quarantine,
                k.is_coordination_fault()
            );
        }
    }

    #[test]
    fn campaign_is_deterministic_per_seed_and_covers_all_kinds() {
        let a = FaultPlan::campaign(7, 1_000_000, 4, 24);
        let b = FaultPlan::campaign(7, 1_000_000, 4, 24);
        assert_eq!(a, b);
        let c = FaultPlan::campaign(8, 1_000_000, 4, 24);
        assert_ne!(a, c, "different seeds draw different schedules");
        assert_eq!(a.faults().len(), FaultKind::ALL.len());
        for kind in FaultKind::ALL {
            assert!(a.faults().iter().any(|f| f.kind == kind), "{kind} missing");
        }
        for f in a.faults() {
            assert!(f.at >= 1_000_000 / 8 && f.at < 1_000_000 / 2);
            assert!(f.channel < 4);
            assert!(f.thread < 24);
        }
    }

    #[test]
    fn channel_chaos_fires_each_fault_exactly_once() {
        let plan = FaultPlan::single(FaultKind::TimingViolation, 100)
            .with_fault(FaultSpec::new(FaultKind::RowCorruption, 200).on_channel(1));
        let mut c0 = plan.channel_chaos(0);
        let mut c1 = plan.channel_chaos(1);
        assert!(!c0.due(FaultKind::TimingViolation, 99), "not yet armed");
        assert!(!c0.fire(FaultKind::TimingViolation, 99));
        assert!(c0.due(FaultKind::TimingViolation, 100));
        assert!(c0.fire(FaultKind::TimingViolation, 100));
        assert!(!c0.fire(FaultKind::TimingViolation, 500), "fires once");
        assert!(!c0.due(FaultKind::RowCorruption, 500), "wrong channel");
        assert!(c1.fire(FaultKind::RowCorruption, 300));
    }

    #[test]
    fn plan_accessors_route_faults_to_their_layer() {
        let plan = FaultPlan::none()
            .with_fault(FaultSpec::new(FaultKind::SpillFlood, 10).on_channel(2))
            .with_fault(FaultSpec::new(FaultKind::MonitorCorruption, 20).on_thread(3))
            .with_fault(FaultSpec::new(FaultKind::SchedulerSpin, 30));
        assert_eq!(plan.flood().map(|f| f.channel), Some(2));
        assert_eq!(
            plan.monitor_faults().map(|f| f.thread).collect::<Vec<_>>(),
            vec![3]
        );
        assert_eq!(plan.spin_for(0), Some(30));
        assert!(
            plan.channel_chaos(2).is_empty(),
            "flood is not a channel fault"
        );
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none(), FaultPlan::default());
    }

    #[test]
    fn validate_rejects_out_of_range_addresses() {
        let t = Topology::asymmetric([2, 2]);
        FaultPlan::none().validate(&t).unwrap();
        // A channel index past the topology is a typed error, not an alias.
        let bad_channel = FaultPlan::none()
            .with_fault(FaultSpec::new(FaultKind::TimingViolation, 10).on_channel(4));
        let err = bad_channel.validate(&t).unwrap_err();
        assert_eq!(err.field(), "chaos");
        assert!(err.reason().contains("channel 4"), "{err}");
        // Same for a controller index.
        let bad_controller = FaultPlan::none()
            .with_fault(FaultSpec::new(FaultKind::ControllerBlackout, 10).on_controller(2));
        let err = bad_controller.validate(&t).unwrap_err();
        assert!(err.reason().contains("controller 2"), "{err}");
        // In-range addresses pass.
        FaultPlan::none()
            .with_fault(FaultSpec::new(FaultKind::SpillFlood, 10).on_channel(3))
            .with_fault(FaultSpec::new(FaultKind::MonitorSkew, 10).on_controller(1))
            .validate(&t)
            .unwrap();
    }

    #[test]
    fn controller_accessors_route_coordination_faults() {
        let plan = FaultPlan::none()
            .with_fault(FaultSpec::new(FaultKind::ControllerBlackout, 10).on_controller(1))
            .with_fault(FaultSpec::new(FaultKind::MonitorSkew, 20))
            .with_fault(FaultSpec::new(FaultKind::SchedulerSpin, 30).on_controller(2))
            .with_fault(FaultSpec::new(FaultKind::SchedulerSpin, 40));
        let coord: Vec<_> = plan.coordination_faults().collect();
        assert_eq!(coord.len(), 2);
        assert_eq!(coord[0].kind, FaultKind::ControllerBlackout);
        assert_eq!(coord[0].controller, 1);
        assert_eq!(coord[1].kind, FaultKind::MonitorSkew);
        assert_eq!(plan.spin_for(2), Some(30));
        assert_eq!(plan.spin_for(0), Some(40));
        assert_eq!(plan.spin_for(9), None);
        // Coordination faults never land in channel state.
        assert!(plan.channel_chaos(0).is_empty());
    }

    #[test]
    fn bus_observation_tracks_the_maximum() {
        let mut c = ChannelChaos::default();
        c.observe_bus(50);
        c.observe_bus(30);
        assert_eq!(c.last_bus_end(), 50);
    }
}
