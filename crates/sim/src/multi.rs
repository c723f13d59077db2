//! Multi-controller system simulator: one *shard* per memory controller,
//! advanced in fixed windows with barrier-synchronized exchange.
//!
//! [`MultiSystem`] simulates topologies with two or more memory
//! controllers (see [`Topology`]). The machine splits along the
//! controller boundary:
//!
//! * The **coordinator** owns the core front end (cores and trace
//!   generators) and the core-side event queue (bursts and completions),
//!   plus the optional [`MetaScheduler`] coordinating the per-controller
//!   policies.
//! * Each **shard** owns one [`Controller`] — its channels, its
//!   [`Scheduler`] instance, its spill queues — and a local
//!   [`EventQueue`] (arrivals, completions, bank-ready wakeups).
//!
//! The controller and the front end are the same types the flat
//! [`System`](crate::System) drives, and every queue — the
//! coordinator's and each shard's — is the same calendar-wheel
//! [`EventQueue`] as the flat loop's; only the loop differs. A queue
//! refuses pushes before its last popped cycle. The exchange respects
//! that: a shard's last pop lies below the window start, and the
//! arrivals and completion notifications the coordinator routes to it
//! are stamped at or after the start. A shard's refused pop at the
//! bound leaves its window in place, so those pushes stay legal.
//!
//! Time advances in windows of `W = timing.round_trip(RowState::Hit)`
//! cycles — the minimum issue-to-completion latency, so nothing a shard
//! does inside a window can affect the coordinator (or another shard)
//! within the same window. Each window runs two phases:
//!
//! 1. **Core phase** (serial): the coordinator processes core events
//!    below the window bound, pushing new requests and completion
//!    notifications onto the owning shard's queue in a deterministic
//!    order.
//! 2. **Controller phase**: every shard independently processes its
//!    local events below the bound, in controller order, emitting
//!    completions to an outbox.
//!
//! At the barrier, outboxes merge back into the coordinator queue in
//! controller order, faults are surfaced, and any scheduler or
//! meta-controller timers due at the bound run serially — for TCM this
//! is the paper's §5.3 exchange: harvest each controller's
//! [`MonitorSample`], compute one system-wide [`ClusterPlan`], and
//! broadcast it back.
//!
//! Shards touch disjoint state and every cross-shard hand-off happens at
//! the barrier in a fixed order, so a shard's window never observes
//! another shard's work from the same window. The engine steps shards
//! inline on the calling thread: windows are one hit round-trip long and
//! carry a handful of events each, too little for a per-window fork and
//! join to pay. Parallelism comes from the sweep, which runs whole cells
//! on its workers.
//!
//! [`ClusterPlan`]: tcm_sched::ClusterPlan
//! [`Topology`]: tcm_types::Topology

use crate::event::{Event, EventQueue};
use crate::machine::{
    sample_series, Controller, FrontEnd, Outlet, RunResult, DEFAULT_STALL_LIMIT,
};
use std::cmp::Reverse;
use tcm_chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm_dram::ServiceOutcome;
use tcm_sched::{ClusterPlan, MetaScheduler, MonitorSample, Scheduler, SystemView};
use tcm_telemetry::{DegradationAnomaly, Telemetry, TraceEvent};
use tcm_types::{
    BankId, CancelToken, ChannelId, ControllerId, Cycle, MemAddress, Request, RowState, SimError,
    StallReport, SystemConfig, ThreadId,
};
use tcm_workload::WorkloadSpec;

/// Consecutive window barriers a shard's policy timer may refuse to
/// advance past the window start before the run is declared stalled.
///
/// A healthy policy's `next_tick` always lands strictly in the future,
/// so the counter resets every barrier; a wedged timer (e.g. a
/// scheduler-spin fault) pins it at the current cycle, shrinking every
/// window to one cycle without ever tripping the retirement watchdog.
/// This is the sharded engine's analogue of the flat engine's
/// same-cycle livelock guard.
pub const FROZEN_TICK_LIMIT: u64 = 1_000;

/// One memory controller's share of the machine: a [`Controller`] plus
/// the local event stream. Owns everything it touches during the
/// controller phase, so shards cannot observe each other mid-window.
#[derive(Debug)]
struct Shard {
    ctl: Controller,
    /// Local queue: arrivals and completion notifications pushed by the
    /// coordinator (in its processing order, during the serial core
    /// phase), and this controller's bank wakeups.
    events: EventQueue,
    /// Completions produced this window: `(completes_at, request)`.
    outbox: Vec<(Cycle, Request)>,
    /// Next cycle the policy's own timer is due (policies coordinated by
    /// a meta-controller have no timer of their own).
    next_tick: Option<Cycle>,
    now: Cycle,
}

/// A shard's outlet: the completion leaves for the coordinator through
/// the outbox — always at least a hit round-trip away, so it lands
/// beyond this window's bound — and the wakeup stays local.
struct ShardOutlet<'a> {
    events: &'a mut EventQueue,
    outbox: &'a mut Vec<(Cycle, Request)>,
}

impl Outlet for ShardOutlet<'_> {
    #[inline]
    fn issued(&mut self, outcome: &ServiceOutcome, channel: ChannelId, bank: BankId) {
        self.outbox.push((outcome.completes_at, outcome.request));
        self.events.push(outcome.bank_free, Event::BankReady { channel, bank });
    }
}

impl Shard {
    /// Processes every local event below `bound`. Stops early once a
    /// typed error is recorded.
    fn step(&mut self, bound: Cycle) {
        // `bound >= 1`, so the inclusive form cannot underflow.
        while self.ctl.pending_error.is_none() {
            let Some((cycle, event)) = self.events.pop_at_or_before(bound - 1) else {
                break;
            };
            self.now = cycle;
            let mut out = ShardOutlet {
                events: &mut self.events,
                outbox: &mut self.outbox,
            };
            match event {
                Event::Arrival { request } => {
                    self.ctl.admit(request, cycle);
                    let local = self.ctl.local(request.addr.channel);
                    self.ctl.schedule_idle_banks(local, cycle, &mut out);
                }
                Event::Completion { request } => {
                    self.ctl.scheduler.on_complete(&request, cycle);
                }
                Event::BankReady { channel, bank } => {
                    let local = self.ctl.local(channel);
                    self.ctl.bank_ready(local, bank, cycle, &mut out);
                }
                Event::CoreBurst { .. } | Event::SchedTick => {
                    unreachable!("shard queues carry controller events only")
                }
            }
        }
    }

    fn idle(&self) -> bool {
        self.events.is_empty() && self.outbox.is_empty()
    }
}

/// One simulated CMP whose memory system spans multiple controllers,
/// optionally coordinated by a [`MetaScheduler`]. See the module docs
/// for the execution model.
///
/// Identical inputs produce bit-identical results — including under a
/// fault-injection plan (see [`MultiSystem::install_chaos`]): faults
/// fire at window barriers or shard-locally, never across the phase
/// boundary.
///
/// # Example
///
/// ```
/// use tcm_sim::{MultiSystem, PolicyKind};
/// use tcm_types::{SystemConfig, Topology};
/// use tcm_workload::random_workload;
///
/// let cfg = SystemConfig::builder()
///     .num_threads(4)
///     .topology(Topology::uniform(2, 2))
///     .build()?;
/// let policy = PolicyKind::FrFcfs;
/// let controllers = (0..2).map(|_| policy.build_controller(4, &cfg)).collect();
/// let workload = random_workload(0, 4, 0.5);
/// let mut sys = MultiSystem::new(&cfg, &workload, controllers, None, 1);
/// let result = sys.run(50_000);
/// assert_eq!(result.ipc.len(), 4);
/// # Ok::<(), tcm_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct MultiSystem {
    cfg: SystemConfig,
    front: FrontEnd,
    /// Core-side queue: bursts and (merged) completions.
    events: EventQueue,
    now: Cycle,
    stall_limit: Option<Cycle>,
    cancel: Option<CancelToken>,
    shards: Vec<Shard>,
    /// Global channel index → shard index.
    owner: Vec<usize>,
    meta: Option<Box<dyn MetaScheduler>>,
    meta_tick: Option<Cycle>,
    /// Window width: the hit round-trip, i.e. the minimum
    /// issue-to-completion latency.
    window: Cycle,
    telemetry: Telemetry,
    /// Next cycle at which the time-series sampler fires (`Cycle::MAX`
    /// when telemetry is disabled); checked once per barrier.
    next_sample: Cycle,
    /// Armed spill-flood fault: at its cycle, phantom requests are routed
    /// to the owning shard until its spill queue outgrows the bound.
    chaos_flood: Option<FaultSpec>,
    /// Armed coordination faults (controller blackout / monitor skew),
    /// applied to the harvested sample vector at the next quantum
    /// exchange at or after their cycle. Fire-once: removed when fired.
    chaos_coordination: Vec<FaultSpec>,
    /// Per-shard count of consecutive barriers whose policy timer was
    /// already due at the window start (see [`FROZEN_TICK_LIMIT`]).
    frozen_ticks: Vec<u64>,
    /// Scratch: per-thread counter views for `run_ticks` (reused across
    /// barriers).
    scratch_retired: Vec<u64>,
    scratch_misses: Vec<u64>,
    scratch_service: Vec<u64>,
}

impl MultiSystem {
    /// Builds a multi-controller system running `workload`.
    ///
    /// `controllers` supplies one policy instance per controller of
    /// `cfg.topology` (see `PolicyKind::build_controller`); `meta` is
    /// the coordinating meta-controller for policies that need one (see
    /// `PolicyKind::build_meta`). `seed_base` decorrelates benchmark
    /// instances exactly as in the single-controller engine.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation, the workload's thread
    /// count differs from `cfg.num_threads`, or `controllers` does not
    /// match the topology's controller count.
    pub fn new(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        controllers: Vec<Box<dyn Scheduler>>,
        meta: Option<Box<dyn MetaScheduler>>,
        seed_base: u64,
    ) -> Self {
        cfg.validate().expect("invalid system config");
        let front = FrontEnd::new(cfg, workload, seed_base);
        assert_eq!(
            controllers.len(),
            cfg.topology.num_controllers(),
            "one scheduler instance per memory controller"
        );
        let mut owner = Vec::with_capacity(cfg.num_channels());
        let shards: Vec<Shard> = cfg
            .topology
            .controllers()
            .zip(controllers)
            .map(|(mc, scheduler)| {
                let range = cfg.topology.channel_range(mc);
                owner.extend(range.clone().map(|_| mc.index()));
                Shard {
                    ctl: Controller::new(cfg, range, scheduler),
                    events: EventQueue::new(),
                    outbox: Vec::new(),
                    next_tick: None, // armed below
                    now: 0,
                }
            })
            .collect();
        let mut sys = Self {
            front,
            events: EventQueue::new(),
            now: 0,
            stall_limit: Some(DEFAULT_STALL_LIMIT),
            cancel: None,
            shards,
            owner,
            meta_tick: meta.as_ref().and_then(|m| m.next_tick(0)),
            meta,
            window: cfg.timing.round_trip(RowState::Hit),
            telemetry: Telemetry::disabled(),
            next_sample: Cycle::MAX,
            chaos_flood: None,
            chaos_coordination: Vec::new(),
            frozen_ticks: vec![0; cfg.topology.num_controllers()],
            scratch_retired: Vec::new(),
            scratch_misses: Vec::new(),
            scratch_service: Vec::new(),
            cfg: cfg.clone(),
        };
        if std::env::var_os("TCM_VERIFY").is_some_and(|v| v != "0") {
            sys.enable_verification();
        }
        for shard in &mut sys.shards {
            shard.next_tick = shard.ctl.scheduler.next_tick(0);
        }
        sys.front.bootstrap(&mut sys.events);
        sys
    }

    /// Has no effect: shards always step inline. Kept only because the
    /// `perf/` benchmark package calls it; it goes when that package
    /// stops passing a host count.
    pub fn set_hosts(&mut self, _hosts: usize) {}

    /// Turns on the DRAM protocol invariant checker on every channel
    /// (observation-only; results are bit-identical with it on or off).
    pub fn enable_verification(&mut self) {
        for shard in &mut self.shards {
            shard.ctl.set_verification(true);
        }
    }

    /// Sets the forward-progress watchdog limit (checked at every window
    /// barrier); `None` disables it.
    pub fn set_watchdog(&mut self, stall_limit: Option<Cycle>) {
        self.stall_limit = stall_limit;
    }

    /// Installs a cooperative cancellation token, polled at every window
    /// barrier.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Installs OS thread weights on the meta-controller and every
    /// per-controller policy.
    pub fn set_thread_weights(&mut self, weights: &[f64]) {
        if let Some(meta) = &mut self.meta {
            meta.set_thread_weights(weights);
        }
        for shard in &mut self.shards {
            shard.ctl.scheduler.set_thread_weights(weights);
        }
    }

    /// Shares a telemetry handle with every channel, every controller's
    /// policy, and the meta-controller, and arms the time-series sampler
    /// (it samples at the first barrier at or past each interval point).
    /// Observation-only.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        for shard in &mut self.shards {
            shard.ctl.set_telemetry(telemetry);
        }
        if let Some(meta) = &mut self.meta {
            meta.attach_telemetry(telemetry);
        }
        self.next_sample = telemetry.sample_interval().unwrap_or(Cycle::MAX);
    }

    /// Test hook: sends all future event pushes — coordinator and
    /// shards — to their queues' far heaps, the pure binary-heap order
    /// (see `EventQueue::set_reference_mode`), so equivalence tests can
    /// prove the calendar wheel is bit-identical.
    #[doc(hidden)]
    pub fn set_reference_event_order(&mut self, on: bool) {
        self.events.set_reference_mode(on);
        for shard in &mut self.shards {
            shard.events.set_reference_mode(on);
        }
    }

    /// Installs a fault-injection plan (see the `tcm-chaos` crate),
    /// mirroring `System::install_chaos` on the sharded engine.
    ///
    /// Routes each fault to its execution site via the topology's
    /// channel partition: channel faults to the owning shard's channel,
    /// monitor faults to the meta-controller (or the target controller's
    /// policy when uncoordinated), the spill flood to the owning shard's
    /// admission path, scheduler spins to the target controller's policy
    /// (wrapped in a [`ChaosScheduler`](tcm_sched::ChaosScheduler)), and
    /// coordination faults (controller blackout / monitor skew) to the
    /// quantum-exchange harvest.
    ///
    /// Also enables protocol verification on every channel: injecting
    /// faults without the detectors armed would be undetectable by
    /// design. Installing an *empty* plan still installs the (inert)
    /// chaos state everywhere, so tests can prove the zero-fault plan is
    /// bit-identical to no plan at all.
    pub fn install_chaos(&mut self, plan: &FaultPlan) {
        self.enable_verification();
        for shard in &mut self.shards {
            shard.ctl.install_channel_chaos(plan);
        }
        for fault in plan.monitor_faults() {
            if let Some(meta) = &mut self.meta {
                meta.inject_monitor_fault(&fault);
            } else {
                let c = fault.controller.min(self.shards.len() - 1);
                self.shards[c].ctl.scheduler.inject_monitor_fault(&fault);
            }
        }
        self.chaos_flood = plan.flood();
        self.chaos_coordination = plan.coordination_faults().collect();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(spin_at) = plan.spin_for(i) {
                shard.ctl.wrap_spin(spin_at);
                // Policies without timers never armed a tick; the
                // wrapper needs one for the spin to engage.
                shard.next_tick = shard.ctl.scheduler.next_tick(shard.now);
            }
        }
    }

    /// Executes an armed spill-flood fault: routes phantom requests to
    /// the target channel's shard until its buffer and spill queue both
    /// overflow, tripping the controller's resource-bound detector during
    /// the next controller phase.
    fn trigger_flood(&mut self, fault: FaultSpec, at: Cycle) {
        self.telemetry.emit(|| TraceEvent::ChaosInjected {
            cycle: at,
            kind: FaultKind::SpillFlood,
        });
        let channel = fault.channel.min(self.cfg.num_channels() - 1);
        let addr = MemAddress::new(
            ChannelId::new(channel),
            BankId::new(0),
            tcm_types::Row::new(0),
        );
        let thread = ThreadId::new(fault.thread.min(self.cfg.num_threads - 1));
        let shard = &mut self.shards[self.owner[channel]];
        let phantoms = self.cfg.request_buffer + shard.ctl.spill_bound + 1;
        // All phantoms are queued up front; the shard stops admitting the
        // moment the bound trips (its event loop breaks on a pending
        // error), and poll_faults surfaces it at the barrier.
        for _ in 0..phantoms {
            let request = self.front.next_request(thread, addr, at);
            shard.events.push(at, Event::Arrival { request });
        }
    }

    /// Applies due coordination faults to this exchange's harvested
    /// sample vector: a blackout deletes the target controller's sample
    /// (its monitor went dark), a skew corrupts it into physical
    /// impossibility (more shadow hits than accesses). Fire-once.
    fn apply_coordination_faults(&mut self, at: Cycle, samples: &mut [Option<MonitorSample>]) {
        let mut i = 0;
        while i < self.chaos_coordination.len() {
            let fault = self.chaos_coordination[i];
            if fault.at > at {
                i += 1;
                continue;
            }
            self.chaos_coordination.remove(i);
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

    /// The meta-controller's plausibility-guard anomaly log (empty
    /// without a meta-controller or a guard).
    pub fn degradation_events(&self) -> &[DegradationAnomaly] {
        self.meta
            .as_deref()
            .map(MetaScheduler::degradation_events)
            .unwrap_or(&[])
    }

    /// Every controller, in controller order.
    fn controllers(&self) -> impl Iterator<Item = &Controller> + Clone {
        self.shards.iter().map(|s| &s.ctl)
    }

    /// Phase 1: processes core-side events below `bound`. Injected
    /// requests and completion notifications go onto the owning shard's
    /// queue in processing order.
    fn phase_cores(&mut self, bound: Cycle) {
        // `bound >= t + 1 >= 1`, so the inclusive form cannot underflow.
        while let Some((cycle, event)) = self.events.pop_at_or_before(bound - 1) {
            debug_assert!(cycle >= self.now, "coordinator queue went backwards");
            self.now = cycle;
            self.front.events_since_retire += 1;
            match event {
                Event::CoreBurst { thread, epoch } => {
                    let t = thread.index();
                    if !self.front.burst_due(t, epoch, cycle, &mut self.events) {
                        continue;
                    }
                    let (shards, owner) = (&mut self.shards, &self.owner);
                    self.front.inject_burst(t, cycle, |request| {
                        shards[owner[request.addr.channel.index()]]
                            .events
                            .push(cycle, Event::Arrival { request });
                    });
                    self.front.rearm(t, cycle, &mut self.events);
                }
                Event::Completion { request } => {
                    self.front.retire(&request, cycle, &mut self.events);
                    self.shards[self.owner[request.addr.channel.index()]]
                        .events
                        .push(cycle, Event::Completion { request });
                }
                Event::BankReady { .. } | Event::SchedTick | Event::Arrival { .. } => {
                    unreachable!("coordinator queue carries core events only")
                }
            }
        }
    }

    /// Barrier: merges every shard's completions into the coordinator
    /// queue, in controller order.
    fn merge_outboxes(&mut self) {
        for shard in &mut self.shards {
            for (cycle, request) in shard.outbox.drain(..) {
                self.events.push(cycle, Event::Completion { request });
            }
        }
    }

    /// Surfaces any fault recorded during the window, in controller
    /// order: typed controller errors first, then protocol-checker
    /// violations.
    fn poll_faults(&mut self) -> Result<(), SimError> {
        for shard in &mut self.shards {
            if let Some(err) = shard.ctl.pending_error.take() {
                return Err(err);
            }
        }
        match self.controllers().find_map(Controller::violation) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Runs every timer due at `at`: the meta-controller's exchange
    /// first (harvest → aggregate → broadcast), then per-controller
    /// policy timers in controller order. Counter views are built in
    /// reused scratch buffers — timers fire every barrier for some
    /// policies, and allocating three vectors per firing was measurable.
    fn run_ticks(&mut self, at: Cycle) {
        let mut retired = std::mem::take(&mut self.scratch_retired);
        let mut misses = std::mem::take(&mut self.scratch_misses);
        let mut service = std::mem::take(&mut self.scratch_service);
        if self.meta_tick.is_some_and(|due| due <= at) {
            self.front
                .view_into(self.controllers(), &mut retired, &mut misses, &mut service);
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            let harvested = meta.needs_samples(at);
            let mut samples: Vec<Option<MonitorSample>> = if harvested {
                self.shards
                    .iter_mut()
                    .map(|s| s.ctl.scheduler.quantum_exchange(at))
                    .collect()
            } else {
                vec![None; self.shards.len()]
            };
            if harvested && !self.chaos_coordination.is_empty() {
                self.apply_coordination_faults(at, &mut samples);
            }
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            let view = SystemView {
                retired: &retired,
                misses: &misses,
                service: &service,
            };
            let plan = meta.exchange(at, &view, &samples);
            if plan.quarantined.is_empty() {
                for shard in &mut self.shards {
                    shard.ctl.scheduler.apply_broadcast(&plan, at);
                }
            } else {
                // A quarantined controller gets the degenerate all-zero
                // ranking — Algorithm 3 with equal ranks is row-hit then
                // oldest, i.e. local FR-FCFS — while the healthy shards
                // keep the real TCM clustering for this quantum.
                let fallback = ClusterPlan {
                    priorities: vec![0; self.cfg.num_threads],
                    degraded: true,
                    quarantined: plan.quarantined.clone(),
                };
                for (i, shard) in self.shards.iter_mut().enumerate() {
                    if plan.quarantined.get(i).copied().unwrap_or(false) {
                        shard.ctl.scheduler.apply_broadcast(&fallback, at);
                    } else {
                        shard.ctl.scheduler.apply_broadcast(&plan, at);
                    }
                }
            }
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            self.meta_tick = meta.next_tick(at);
        }
        for i in 0..self.shards.len() {
            if self.shards[i].next_tick.is_some_and(|due| due <= at) {
                // A real controller observes only its own traffic: the
                // view's service column covers this controller alone.
                self.front
                    .view_into([&self.shards[i].ctl], &mut retired, &mut misses, &mut service);
                let view = SystemView {
                    retired: &retired,
                    misses: &misses,
                    service: &service,
                };
                let shard = &mut self.shards[i];
                shard.ctl.scheduler.tick(at, &view);
                shard.next_tick = shard.ctl.scheduler.next_tick(at);
            }
        }
        self.scratch_retired = retired;
        self.scratch_misses = misses;
        self.scratch_service = service;
    }

    /// Whether no event anywhere can ever fire again (timers alone never
    /// create events).
    fn drained(&self) -> bool {
        self.events.is_empty() && self.shards.iter().all(Shard::idle)
    }

    /// Processes windows until `horizon`, then settles all cores and
    /// reports the run — panicking wrapper over [`MultiSystem::try_run`].
    ///
    /// # Panics
    ///
    /// Panics if the run stalls or trips a protocol invariant.
    pub fn run(&mut self, horizon: Cycle) -> RunResult {
        match self.try_run(horizon) {
            Ok(result) => result,
            Err(err) => panic!("simulation failed: {err}"),
        }
    }

    /// Processes windows until `horizon`, then settles all cores at the
    /// horizon and reports the run's results — or a typed error.
    ///
    /// # Errors
    ///
    /// Same contract as the single-controller engine: `Stalled` when the
    /// watchdog fires or the queues drain with requests in flight,
    /// `InvariantViolation` from the protocol checker or the spill
    /// bound, `Cancelled` when the token fires.
    pub fn try_run(&mut self, horizon: Cycle) -> Result<RunResult, SimError> {
        let mut t: Cycle = 0;
        while t <= horizon {
            if self.drained() {
                break;
            }
            t = self.skip_empty_windows(t, horizon);
            let mut bound = (t + self.window).min(horizon + 1);
            if let Some(due) = self.meta_tick {
                bound = bound.min(due.max(t + 1));
            }
            for i in 0..self.shards.len() {
                if let Some(due) = self.shards[i].next_tick {
                    bound = bound.min(due.max(t + 1));
                    // A timer already due at the window start means the
                    // policy's clock refuses to advance — the sharded
                    // analogue of a same-cycle event-loop spin.
                    if due <= t {
                        self.frozen_ticks[i] += 1;
                        if self.frozen_ticks[i] > FROZEN_TICK_LIMIT {
                            return Err(SimError::Stalled(Box::new(self.stall_report_for(Some(i)))));
                        }
                    } else {
                        self.frozen_ticks[i] = 0;
                    }
                } else {
                    self.frozen_ticks[i] = 0;
                }
            }
            if let Some(fault) = self.chaos_flood {
                if fault.at < bound {
                    self.chaos_flood = None;
                    self.trigger_flood(fault, fault.at.max(t));
                }
            }
            self.phase_cores(bound);
            // Phase 2: every shard to `bound`, in controller order.
            for shard in &mut self.shards {
                shard.step(bound);
            }
            self.poll_faults()?;
            self.merge_outboxes();
            self.now = bound.min(horizon);
            if self.now >= self.next_sample {
                let channels = self.shards.iter().flat_map(|s| s.ctl.channels());
                sample_series(&self.telemetry, &mut self.next_sample, self.now, channels);
            }
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(SimError::Cancelled(self.now));
                }
            }
            if let Some(limit) = self.stall_limit {
                if self.front.outstanding() && bound.saturating_sub(self.front.last_retire) > limit {
                    return Err(SimError::Stalled(Box::new(self.stall_report())));
                }
            }
            if bound <= horizon {
                self.run_ticks(bound);
            }
            t = bound;
        }
        if self.stall_limit.is_some() && self.front.outstanding() && self.drained() {
            return Err(SimError::Stalled(Box::new(self.stall_report())));
        }
        self.now = horizon;
        self.front.settle(horizon);
        for shard in &mut self.shards {
            shard.ctl.finish_verification(horizon)?;
        }
        let mut events = self.events.counts;
        for shard in &self.shards {
            events += shard.events.counts;
        }
        Ok(self
            .front
            .collect(horizon, self.controllers(), events, &self.telemetry))
    }

    /// Fast-forwards `t` over windows that are provable no-ops: no event
    /// (coordinator or shard) fires in them, no scheduler or
    /// meta-controller timer is due, no armed flood would fire, and the
    /// retirement watchdog cannot trip. Returns the new window start —
    /// always a whole number of windows ahead, so the barrier grid (and
    /// with it every same-cycle ordering decision) is exactly the grid
    /// the per-window loop would have walked.
    ///
    /// Soundness: a window `[t, t+W)` with no event below its bound and
    /// no timer due at it runs `phase_cores` and the shard steps over
    /// nothing, merges empty outboxes, and skips `run_ticks` — a strict no-op
    /// apart from the barrier bookkeeping, which is also unobservable in
    /// the skipped range: `frozen_ticks` stays 0 (every due is strictly
    /// beyond the range), the stall check is capped below (we never skip
    /// past `last_retire + limit`, so a watchdog error surfaces at the
    /// same barrier bound it always did), and nothing in the range can
    /// change `injected`/`completed`/`last_retire`. The skip target is
    /// held strictly below the first constraint (`limit - 1` in the
    /// divide) so the barrier *at* a due cycle still runs its ticks.
    fn skip_empty_windows(&self, t: Cycle, horizon: Cycle) -> Cycle {
        let mut limit = horizon + 1;
        let mut clamp = |c: Cycle| limit = limit.min(c);
        if let Some(at) = self.events.peek_cycle() {
            clamp(at);
        }
        for shard in &self.shards {
            if let Some(at) = shard.events.peek_cycle() {
                clamp(at);
            }
            if let Some(due) = shard.next_tick {
                clamp(due);
            }
        }
        if let Some(due) = self.meta_tick {
            clamp(due);
        }
        if let Some(fault) = self.chaos_flood {
            clamp(fault.at);
        }
        if let Some(stall) = self.stall_limit {
            if self.front.outstanding() {
                clamp(self.front.last_retire.saturating_add(stall).saturating_add(1));
            }
        }
        if limit <= t {
            return t;
        }
        let windows = (limit - 1 - t) / self.window;
        t + windows * self.window
    }

    fn stall_report(&self) -> StallReport {
        // No specific culprit known: attribute the controller with the
        // deepest backlog (queues + spill), ties to the lowest index —
        // on a multi-controller machine that is where progress died.
        let suspect = self
            .controllers()
            .enumerate()
            .max_by_key(|(i, ctl)| (ctl.backlog(), Reverse(*i)))
            .map(|(i, _)| i);
        self.stall_report_for(suspect)
    }

    /// A stall report attributing `controller` (when known and the
    /// machine actually has more than one).
    fn stall_report_for(&self, controller: Option<usize>) -> StallReport {
        let controller = controller
            .filter(|_| self.shards.len() > 1)
            .map(ControllerId::new);
        self.front.stall_report(self.now, controller, self.controllers())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use tcm_core::TcmParams;
    use tcm_types::Topology;
    use tcm_workload::{random_workload, BenchmarkProfile};

    fn cfg(threads: usize, topology: Topology) -> SystemConfig {
        SystemConfig::builder()
            .num_threads(threads)
            .topology(topology)
            .build()
            .unwrap()
    }

    fn build(cfg: &SystemConfig, policy: &PolicyKind, workload: &WorkloadSpec) -> MultiSystem {
        let n = cfg.num_threads;
        let controllers = (0..cfg.topology.num_controllers())
            .map(|_| policy.build_controller(n, cfg))
            .collect();
        MultiSystem::new(cfg, workload, controllers, policy.build_meta(n, cfg), 7)
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
        for shard in &mut sys.shards {
            assert!(shard.ctl.scheduler.quantum_exchange(200_000).is_some());
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
