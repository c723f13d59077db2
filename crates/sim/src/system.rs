//! The simulated machine's one engine type, [`System`]: the core front
//! end, one [`Controller`] per memory controller of the topology, and —
//! for coordinated policies — the paper's §5.3 meta-controller.
//!
//! One stepping rule advances every topology: [`System::try_run`] pops
//! one global `(cycle, seq)` event queue. A burst's requests go to the
//! controller owning their channel, each bank wakeup and completion to
//! the controller owning the bank, and each policy timer — one per
//! controller, plus the meta-controller's — is an event of its own. So
//! a flat machine and any grouping of its channels into controllers
//! make the same decisions in the same order; only the policy state
//! split across controllers, and the §5.3 exchange that merges it (the
//! `multi` module), can tell them apart.

use crate::event::{Event, EventQueue, Timer};
use crate::machine::{sample_series, Controller, FrontEnd, RunResult, DEFAULT_STALL_LIMIT};
use crate::runner::PolicyKind;
use std::cmp::Reverse;
use std::ops::Range;
use tcm_chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm_sched::{MetaScheduler, Scheduler};
use tcm_telemetry::{DegradationAnomaly, Telemetry, TraceEvent};
use tcm_types::{
    BankId, CancelToken, ChannelId, ControllerId, Cycle, MemAddress, SimError, StallReport,
    SystemConfig, ThreadId,
};
use tcm_workload::WorkloadSpec;

/// How many events the loop processes between cooperative-cancellation
/// checks (see [`System::set_cancel_token`]). Checking involves a
/// wall-clock read, so it is strided; the first event always checks.
pub const CANCEL_CHECK_STRIDE: u64 = 4096;

/// One simulated CMP + memory system executing one workload: the cores,
/// one memory controller per controller of the topology, each under its
/// own scheduling policy instance, and, for a coordinated policy on two
/// or more controllers, the meta-controller that merges their monitors
/// at quantum boundaries (paper §5.3).
///
/// Drive it with [`System::run`]; everything else is plumbing fed by the
/// event queue. Identical inputs (workload, seed base, config, policy)
/// produce bit-identical results, including under a fault-injection
/// plan (see [`System::install_chaos`]).
///
/// # Example
///
/// ```
/// use tcm_sched::FrFcfs;
/// use tcm_sim::{PolicyKind, System};
/// use tcm_types::{SystemConfig, Topology};
/// use tcm_workload::random_workload;
///
/// let cfg = SystemConfig::builder().num_threads(4).build()?;
/// let workload = random_workload(0, 4, 0.5);
/// let mut sys = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 1);
/// let result = sys.run(50_000);
/// assert_eq!(result.ipc.len(), 4);
///
/// // The same workload on two controllers of two channels each.
/// let cfg = SystemConfig::builder()
///     .num_threads(4)
///     .topology(Topology::uniform(2, 2))
///     .build()?;
/// let mut sys = System::for_policy(&cfg, &workload, &PolicyKind::FrFcfs, 1);
/// assert_eq!(sys.run(50_000).ipc.len(), 4);
/// # Ok::<(), tcm_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) front: FrontEnd,
    /// The memory controllers, in controller order: one on a flat
    /// machine.
    pub(crate) ctls: Vec<Controller>,
    /// Global channel index → index into `ctls`.
    pub(crate) owner: Vec<usize>,
    /// The meta-controller coordinating the controllers' policies, for a
    /// coordinated policy on two or more controllers.
    pub(crate) meta: Option<Box<dyn MetaScheduler>>,
    /// Whether the meta-controller's timer has a `SchedTick` queued.
    meta_tick_pending: bool,
    /// Armed coordination faults (controller blackout / monitor skew),
    /// applied to the harvested sample vector at the next quantum
    /// exchange at or after their cycle. Fire-once: removed when fired.
    pub(crate) coordination: Vec<FaultSpec>,
    /// The one event queue.
    pub(crate) events: EventQueue,
    pub(crate) now: Cycle,
    /// Watchdog: declare the run stalled when requests are outstanding
    /// but none retires for this many cycles. `None` disables.
    pub(crate) stall_limit: Option<Cycle>,
    /// Cooperative cancellation; `None` means the run cannot be
    /// cancelled.
    pub(crate) cancel: Option<CancelToken>,
    /// Whether any channel has the protocol checker armed (mirror of
    /// `verification_enabled()`, so the per-event fault poll skips the
    /// per-channel walk when nothing can ever be reported).
    verify_armed: bool,
    /// Armed spill-flood fault: at its cycle, phantom requests are
    /// admitted until the target channel's spill queue outgrows its
    /// resource bound.
    pub(crate) chaos_flood: Option<FaultSpec>,
    /// Structured-event/metric sink, shared with every channel and
    /// policy. Disabled by default; see [`System::set_telemetry`].
    pub(crate) telemetry: Telemetry,
    /// Next cycle at which the time-series sampler fires (`Cycle::MAX`
    /// when telemetry is disabled — the per-event check is one compare).
    pub(crate) next_sample: Cycle,
    /// Events processed at the current cycle (livelock guard).
    events_at_now: u64,
    /// Ceiling on `events_at_now`; exceeding it means the event loop is
    /// spinning without advancing time.
    livelock_limit: u64,
    /// Events until the next cancellation check (strided probe: checks
    /// at the same event indices the old `events_processed % STRIDE`
    /// test did — the first event always checks).
    cancel_countdown: u64,
    /// Cycle the armed flood fires (`Cycle::MAX` when none is armed), so
    /// the per-event probe is one compare instead of an `Option` walk.
    chaos_flood_at: Cycle,
    /// Next cycle boundary at which the stall watchdog must be
    /// re-evaluated: `progress_at + stall_limit` (the earliest cycle the
    /// stalled condition can possibly hold), `Cycle::MAX` when the
    /// watchdog is disabled. The per-event probe is one compare; the
    /// full check runs only past the boundary — with semantics identical
    /// to evaluating it every event.
    stall_probe_at: Cycle,
    /// Scratch: per-channel "this burst touched it" flags (reused, reset
    /// after each injection).
    touched_channels: Vec<bool>,
}

impl System {
    /// Builds a flat system: one controller over every channel of `cfg`,
    /// running `workload` under `scheduler`.
    ///
    /// `seed_base` decorrelates multiple instances of the same benchmark
    /// within a workload (thread `i` uses seed
    /// `seed_base · 1000 + i` mixed with its profile).
    ///
    /// # Panics
    ///
    /// Panics if the workload's thread count differs from
    /// `cfg.num_threads` or the config fails validation.
    pub fn new(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        scheduler: Box<dyn Scheduler>,
        seed_base: u64,
    ) -> Self {
        Self::build(
            cfg,
            workload,
            vec![(0..cfg.num_channels(), scheduler)],
            None,
            seed_base,
        )
    }

    /// Builds a system with one controller per controller of
    /// `cfg.topology`. `controllers` supplies their policy instances in
    /// controller order (see [`PolicyKind::build_controller`]); `meta`
    /// is the meta-controller for policies that need one (see
    /// [`PolicyKind::build_meta`]). `seed_base` is as in
    /// [`System::new`].
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation, the workload's thread
    /// count differs from `cfg.num_threads`, `controllers` does not
    /// match the topology's controller count, or a meta-controller is
    /// given for a single controller.
    pub fn with_controllers(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        controllers: Vec<Box<dyn Scheduler>>,
        meta: Option<Box<dyn MetaScheduler>>,
        seed_base: u64,
    ) -> Self {
        let topology = &cfg.topology;
        assert_eq!(
            controllers.len(),
            topology.num_controllers(),
            "one scheduler instance per memory controller"
        );
        let ranges = topology.controllers().map(|mc| topology.channel_range(mc));
        Self::build(
            cfg,
            workload,
            ranges.zip(controllers).collect(),
            meta,
            seed_base,
        )
    }

    /// `policy` on `cfg`'s topology: the policy itself
    /// ([`PolicyKind::build`]) on one controller; on more, one instance
    /// per controller and the policy's meta-controller. Sweep cells and
    /// the fault campaign build their machines this way.
    pub fn for_policy(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        policy: &PolicyKind,
        seed_base: u64,
    ) -> Self {
        let n = workload.threads.len();
        match cfg.topology.num_controllers() {
            1 => Self::new(cfg, workload, policy.build(n, cfg), seed_base),
            controllers => Self::with_controllers(
                cfg,
                workload,
                (0..controllers)
                    .map(|_| policy.build_controller(n, cfg))
                    .collect(),
                policy.build_meta(n, cfg),
                seed_base,
            ),
        }
    }

    fn build(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        controllers: Vec<(Range<usize>, Box<dyn Scheduler>)>,
        meta: Option<Box<dyn MetaScheduler>>,
        seed_base: u64,
    ) -> Self {
        cfg.validate().expect("invalid system config");
        assert!(
            meta.is_none() || controllers.len() > 1,
            "a meta-controller coordinates two or more controllers"
        );
        let front = FrontEnd::new(cfg, workload, seed_base);
        let mut owner = Vec::with_capacity(cfg.num_channels());
        let ctls: Vec<Controller> = controllers
            .into_iter()
            .enumerate()
            .map(|(i, (channels, scheduler))| {
                owner.extend(channels.clone().map(|_| i));
                Controller::new(cfg, channels, scheduler)
            })
            .collect();
        let mut sys = Self {
            front,
            ctls,
            owner,
            meta,
            meta_tick_pending: false,
            coordination: Vec::new(),
            events: EventQueue::new(),
            now: 0,
            stall_limit: Some(DEFAULT_STALL_LIMIT),
            cancel: None,
            verify_armed: false,
            chaos_flood: None,
            telemetry: Telemetry::disabled(),
            next_sample: Cycle::MAX,
            events_at_now: 0,
            // Per cycle the loop legitimately processes at most one event
            // per thread, a couple per bank, and a few timer ticks; 1024x
            // that is unreachable without a same-cycle spin.
            livelock_limit: 1024 * (cfg.num_threads + cfg.total_banks() + 4) as u64,
            cancel_countdown: 0,
            chaos_flood_at: Cycle::MAX,
            stall_probe_at: DEFAULT_STALL_LIMIT,
            touched_channels: vec![false; cfg.num_channels()],
            cfg: cfg.clone(),
        };
        if std::env::var_os("TCM_VERIFY").is_some_and(|v| v != "0") {
            sys.enable_verification();
        }
        // Channels arm the checker on their own in debug builds; keep the
        // fault-poll gate in sync with whatever they decided.
        sys.verify_armed = sys.verification_enabled();
        sys.front.bootstrap(&mut sys.events);
        sys
    }

    /// Has no effect: every cell runs on one thread. Kept only because
    /// the `perf/` benchmark package calls it; it goes with that
    /// package's next change (ROADMAP item 3).
    pub fn set_hosts(&mut self, _hosts: usize) {}

    /// Turns on the DRAM protocol invariant checker on every channel
    /// (observation-only; results are bit-identical with it on or off).
    ///
    /// Debug builds enable it automatically; release builds can opt in
    /// here, via `RunConfig`, or with the `TCM_VERIFY` environment
    /// variable.
    pub fn enable_verification(&mut self) {
        self.set_verification(true);
    }

    /// Enables or disables protocol verification on every channel.
    pub fn set_verification(&mut self, enabled: bool) {
        for ctl in &mut self.ctls {
            ctl.set_verification(enabled);
        }
        self.verify_armed = enabled;
    }

    /// Whether protocol verification is active on any channel.
    pub fn verification_enabled(&self) -> bool {
        self.ctls.iter().any(Controller::verification_enabled)
    }

    /// Sets the forward-progress watchdog limit (cycles without a
    /// retirement while requests are outstanding, counted from the burst
    /// that ended an idle stretch when that is later). `None` disables
    /// the watchdog, including the same-cycle livelock guard.
    pub fn set_watchdog(&mut self, stall_limit: Option<Cycle>) {
        self.stall_limit = stall_limit;
        self.stall_probe_at = match stall_limit {
            Some(limit) => self.front.progress_at().saturating_add(limit),
            None => Cycle::MAX,
        };
    }

    /// Installs a cooperative cancellation token. The event loop polls it
    /// every `CANCEL_CHECK_STRIDE` events and surfaces
    /// [`SimError::Cancelled`] once it fires; `None` (the default) makes
    /// the run uncancellable.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Installs OS thread weights on every policy instance and the
    /// meta-controller.
    pub fn set_thread_weights(&mut self, weights: &[f64]) {
        if let Some(meta) = &mut self.meta {
            meta.set_thread_weights(weights);
        }
        for ctl in &mut self.ctls {
            ctl.scheduler.set_thread_weights(weights);
        }
    }

    /// Shares a telemetry handle with every channel, every policy
    /// instance and the meta-controller, and arms the time-series
    /// sampler. Telemetry is observation-only: results are bit-identical
    /// with it attached or not.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        for ctl in &mut self.ctls {
            ctl.set_telemetry(telemetry);
        }
        if let Some(meta) = &mut self.meta {
            meta.attach_telemetry(telemetry);
        }
        self.next_sample = telemetry.sample_interval().unwrap_or(Cycle::MAX);
    }

    /// Test hook: sends all future event pushes to the queue's far heap,
    /// the pure binary-heap order (see `EventQueue::set_reference_mode`),
    /// so equivalence tests can prove the calendar wheel is
    /// bit-identical.
    #[doc(hidden)]
    pub fn set_reference_event_order(&mut self, on: bool) {
        self.events.set_reference_mode(on);
    }

    /// Installs a fault-injection plan (see the `tcm-chaos` crate).
    ///
    /// Routes each fault to its execution site through the channel
    /// partition: channel faults to their channel, monitor faults to the
    /// meta-controller (or the target controller's policy when there is
    /// none), the spill flood to the owning controller's admission path,
    /// each scheduler spin to its controller's policy (wrapped in a
    /// [`ChaosScheduler`](tcm_sched::ChaosScheduler)), and coordination
    /// faults (controller blackout / monitor skew) to the quantum
    /// exchange's harvest; a machine without a meta-controller has no
    /// exchange, so they are inert there.
    ///
    /// Also enables protocol verification on every channel: injecting
    /// faults without the detectors armed would be undetectable by
    /// design. Installing an *empty* plan still installs the (inert)
    /// chaos state everywhere, so tests can prove the zero-fault plan is
    /// bit-identical to no plan at all.
    pub fn install_chaos(&mut self, plan: &FaultPlan) {
        self.enable_verification();
        for ctl in &mut self.ctls {
            ctl.install_channel_chaos(plan);
        }
        for fault in plan.monitor_faults() {
            if let Some(meta) = &mut self.meta {
                meta.inject_monitor_fault(&fault);
            } else {
                let c = fault.controller.min(self.ctls.len() - 1);
                self.ctls[c].scheduler.inject_monitor_fault(&fault);
            }
        }
        self.chaos_flood = plan.flood();
        self.chaos_flood_at = self.chaos_flood.map_or(Cycle::MAX, |f| f.at);
        self.coordination = plan.coordination_faults().collect();
        for (i, ctl) in self.ctls.iter_mut().enumerate() {
            if let Some(spin_at) = plan.spin_for(i) {
                ctl.wrap_spin(spin_at);
            }
        }
    }

    /// Executes the armed spill flood at `at`: admits
    /// `request_buffer + spill_bound + 1` phantom requests to the target
    /// channel back to back, with no scheduling pass between them, so
    /// its buffer and spill queue both overflow and the controller's
    /// resource-bound detector trips at `at`.
    fn flood(&mut self, fault: FaultSpec, at: Cycle) {
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
        let ctl = &mut self.ctls[self.owner[channel]];
        let phantoms = self.cfg.request_buffer + ctl.spill_bound + 1;
        for _ in 0..phantoms {
            let request = self.front.next_request(thread, addr, at);
            ctl.admit(request, at);
            if ctl.pending_error.is_some() {
                // The bound tripped; no need to keep flooding. The
                // phantoms already admitted stay queued — the fault poll
                // surfaces the error before any of them is serviced.
                break;
            }
        }
    }

    /// The plausibility-guard anomaly log: the meta-controller's when
    /// there is one, else the first controller's policy's (empty for
    /// policies without a guard; see `Scheduler::degradation_events`).
    pub fn degradation_events(&self) -> &[DegradationAnomaly] {
        match &self.meta {
            Some(meta) => meta.degradation_events(),
            None => self.ctls[0].scheduler.degradation_events(),
        }
    }

    /// Queues every policy timer not already queued, at its next due
    /// cycle after now: the meta-controller's first, then each
    /// controller's in controller order. The run arms them as it starts,
    /// so a policy wrapped by [`System::install_chaos`] is asked for
    /// its first tick only once wrapped.
    fn arm_timers(&mut self) {
        self.schedule_meta_tick();
        for c in 0..self.ctls.len() {
            self.schedule_tick(c);
        }
    }

    /// Queues controller `c`'s policy timer unless it is queued already
    /// or the policy has none.
    fn schedule_tick(&mut self, c: usize) {
        let ctl = &mut self.ctls[c];
        if ctl.tick_pending {
            return;
        }
        if let Some(at) = ctl.scheduler.next_tick(self.now) {
            let timer = Timer::Controller(ControllerId::new(c));
            self.events.push(at, Event::SchedTick { timer });
            ctl.tick_pending = true;
        }
    }

    /// Queues the meta-controller's timer unless it is queued already or
    /// there is no meta-controller.
    fn schedule_meta_tick(&mut self) {
        if self.meta_tick_pending {
            return;
        }
        if let Some(at) = self.meta.as_ref().and_then(|m| m.next_tick(self.now)) {
            let timer = Timer::Meta;
            self.events.push(at, Event::SchedTick { timer });
            self.meta_tick_pending = true;
        }
    }

    /// Injects thread `t`'s pending burst straight into the controllers
    /// owning its channels, then gives every channel it touched a
    /// scheduling pass.
    fn inject_burst(&mut self, t: usize) {
        let now = self.now;
        let (ctls, owner, touched) = (&mut self.ctls, &self.owner, &mut self.touched_channels);
        self.front.inject_burst(t, now, |request| {
            let c = request.addr.channel.index();
            ctls[owner[c]].admit(request, now);
            touched[c] = true;
        });
        // Newly arrived requests may wake idle banks. Scanning the flag
        // array visits channels in ascending global id order.
        for c in 0..self.touched_channels.len() {
            if std::mem::take(&mut self.touched_channels[c]) {
                let ctl = &mut self.ctls[self.owner[c]];
                let local = ctl.local(ChannelId::new(c));
                ctl.schedule_idle_banks(local, now, &mut self.events);
            }
        }
        self.front.rearm(t, now, &mut self.events);
    }

    /// Processes events until `horizon`, then settles all cores at the
    /// horizon and reports the run's results.
    ///
    /// Convenience wrapper over [`System::try_run`] for callers that treat
    /// any simulator fault as fatal.
    ///
    /// # Panics
    ///
    /// Panics if the run stalls (watchdog) or trips a protocol invariant;
    /// see [`System::try_run`] for the non-panicking form.
    pub fn run(&mut self, horizon: Cycle) -> RunResult {
        match self.try_run(horizon) {
            Ok(result) => result,
            Err(err) => panic!("simulation failed: {err}"),
        }
    }

    /// Processes events until `horizon`, then settles all cores at the
    /// horizon and reports the run's results — or a typed error if the
    /// simulation cannot finish soundly.
    ///
    /// # Errors
    ///
    /// * [`SimError::Stalled`] — requests were outstanding but none
    ///   retired for [`DEFAULT_STALL_LIMIT`] cycles (tune or disable via
    ///   [`System::set_watchdog`]), the loop spun at a frozen cycle
    ///   (e.g. a policy whose `next_tick` never advances), or the event
    ///   queue drained with requests still in flight. The report carries
    ///   a snapshot of queue depths, bank states, and per-thread
    ///   outstanding counts, and on a multi-controller machine names the
    ///   suspect controller: the one whose timer spun, else the one with
    ///   the deepest backlog.
    /// * [`SimError::InvariantViolation`] — the DRAM protocol checker (if
    ///   enabled) observed an illegal command sequence, or a spill queue
    ///   outgrew the MSHR-implied bound on outstanding misses.
    /// * [`SimError::Cancelled`] — the cancellation token fired.
    ///
    /// After an error the system is left at the faulting cycle; resuming
    /// is not supported.
    pub fn try_run(&mut self, horizon: Cycle) -> Result<RunResult, SimError> {
        self.arm_timers();
        // The conditional pop jumps `now` straight to the next scheduled
        // event; cancel/sample/chaos/stall checks below are strided or
        // boundary probes with semantics identical to the old per-event
        // bookkeeping (see each field's invariant).
        while let Some((cycle, event)) = self.events.pop_at_or_before(horizon) {
            debug_assert!(cycle >= self.now, "event queue went backwards");
            if cycle > self.now {
                self.events_at_now = 0;
            }
            self.now = cycle;
            self.events_at_now += 1;
            self.front.events_since_retire += 1;
            if self.cancel_countdown == 0 {
                self.cancel_countdown = CANCEL_CHECK_STRIDE;
                if let Some(token) = &self.cancel {
                    if token.is_cancelled() {
                        return Err(SimError::Cancelled(self.now));
                    }
                }
            }
            self.cancel_countdown -= 1;
            if self.now >= self.next_sample {
                self.sample_series();
            }
            if self.now >= self.chaos_flood_at {
                self.chaos_flood_at = Cycle::MAX;
                if let Some(fault) = self.chaos_flood.take() {
                    // The flood strikes at its own cycle: every event
                    // before it has run, none at or after it yet.
                    self.flood(fault, fault.at);
                    self.poll_faults()?;
                }
            }
            if self.events_at_now > self.livelock_limit || self.now > self.stall_probe_at {
                self.check_watchdog(event)?;
            }
            match event {
                Event::CoreBurst { thread, epoch } => {
                    let t = thread.index();
                    // A stale epoch still falls through to the fault poll
                    // below: a pending error must surface on the event
                    // that observed it, not the next one.
                    if self.front.burst_due(t, epoch, self.now, &mut self.events) {
                        self.inject_burst(t);
                    }
                }
                Event::BankReady { channel, bank } => {
                    let ctl = &mut self.ctls[self.owner[channel.index()]];
                    let local = ctl.local(channel);
                    ctl.bank_ready(local, bank, self.now, &mut self.events);
                }
                Event::Completion { request } => {
                    self.front.retire(&request, self.now, &mut self.events);
                    let ctl = &mut self.ctls[self.owner[request.addr.channel.index()]];
                    ctl.scheduler.on_complete(&request, self.now);
                }
                Event::SchedTick {
                    timer: Timer::Controller(id),
                } => {
                    let c = id.index();
                    let ctl = &mut self.ctls[c];
                    ctl.tick_pending = false;
                    // A controller observes only its own traffic: the
                    // view's service column covers this controller alone.
                    let view = self.front.view([&*ctl]);
                    ctl.scheduler.tick(self.now, &view);
                    self.schedule_tick(c);
                }
                Event::SchedTick { timer: Timer::Meta } => {
                    self.meta_tick_pending = false;
                    self.exchange(self.now);
                    self.schedule_meta_tick();
                }
            }
            if self.verify_armed || self.ctls.iter().any(|c| c.pending_error.is_some()) {
                self.poll_faults()?;
            }
        }
        if self.stall_limit.is_some() && self.front.outstanding() && self.events.is_empty() {
            // Nothing left to process but requests are still in flight:
            // whatever event should have completed them was never pushed.
            return Err(SimError::Stalled(Box::new(self.stall_report())));
        }
        self.now = horizon;
        self.front.settle(horizon);
        for ctl in &mut self.ctls {
            ctl.finish_verification(horizon)?;
        }
        Ok(self.front.collect(
            horizon,
            self.ctls.iter(),
            self.events.counts,
            &self.telemetry,
        ))
    }

    /// Full watchdog evaluation, run only when the per-event probe fires
    /// (`events_at_now` past the livelock ceiling, or `now` past the
    /// earliest cycle the stalled condition can hold). Re-arms the probe
    /// boundary on a clean pass. A livelock tripped on a controller's
    /// timer blames that controller.
    #[cold]
    fn check_watchdog(&mut self, event: Event) -> Result<(), SimError> {
        if let Some(limit) = self.stall_limit {
            let stalled = self.front.outstanding()
                && self.now.saturating_sub(self.front.progress_at()) > limit;
            let spinning = self.events_at_now > self.livelock_limit;
            if stalled || spinning {
                let report = match event {
                    Event::SchedTick {
                        timer: Timer::Controller(id),
                    } if spinning => self.stall_report_for(Some(id.index())),
                    _ => self.stall_report(),
                };
                return Err(SimError::Stalled(Box::new(report)));
            }
            self.stall_probe_at = self.front.progress_at().saturating_add(limit);
        } else {
            self.stall_probe_at = Cycle::MAX;
        }
        Ok(())
    }

    /// Samples the periodic telemetry series over every channel at `now`.
    fn sample_series(&mut self) {
        let channels = self.ctls.iter().flat_map(Controller::channels);
        sample_series(&self.telemetry, &mut self.next_sample, self.now, channels);
    }

    /// Surfaces any fault recorded during event processing, in
    /// controller order: typed controller errors first, then
    /// protocol-checker violations.
    fn poll_faults(&mut self) -> Result<(), SimError> {
        for ctl in &mut self.ctls {
            if let Some(err) = ctl.pending_error.take() {
                return Err(err);
            }
        }
        match self.ctls.iter().find_map(Controller::violation) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Snapshot of simulator state for a [`SimError::Stalled`] report.
    /// With no specific culprit known, a multi-controller machine blames
    /// the controller with the deepest backlog (queues + spill), ties to
    /// the lowest index: that is where progress died.
    fn stall_report(&self) -> StallReport {
        let suspect = self
            .ctls
            .iter()
            .enumerate()
            .max_by_key(|(i, ctl)| (ctl.backlog(), Reverse(*i)))
            .map(|(i, _)| i);
        self.stall_report_for(suspect)
    }

    /// A stall report attributing `controller` (when known and the
    /// machine actually has more than one).
    fn stall_report_for(&self, controller: Option<usize>) -> StallReport {
        let controller = controller
            .filter(|_| self.ctls.len() > 1)
            .map(ControllerId::new);
        self.front
            .stall_report(self.now, controller, self.ctls.iter())
    }
}

/// The multi-controller constructor under its former engine's name:
/// [`MultiSystem::new`] returns a [`System`]. Kept only because the
/// `perf/` benchmark package calls it; it goes with that package's next
/// change (ROADMAP item 3).
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
pub struct MultiSystem;

impl MultiSystem {
    /// Same as [`System::with_controllers`].
    ///
    /// # Panics
    ///
    /// As [`System::with_controllers`].
    #[allow(
        clippy::new_ret_no_self,
        reason = "the shim keeps the old call site compiling"
    )]
    pub fn new(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        controllers: Vec<Box<dyn Scheduler>>,
        meta: Option<Box<dyn MetaScheduler>>,
        seed_base: u64,
    ) -> System {
        System::with_controllers(cfg, workload, controllers, meta, seed_base)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_sched::FrFcfs;
    use tcm_workload::BenchmarkProfile;

    fn cfg(threads: usize) -> SystemConfig {
        SystemConfig::builder()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    fn workload_of(profiles: Vec<BenchmarkProfile>) -> WorkloadSpec {
        WorkloadSpec::new("test", profiles)
    }

    #[test]
    fn compute_only_thread_runs_at_full_ipc() {
        let c = cfg(1);
        let w = workload_of(vec![BenchmarkProfile::new("idle", 0.0, 0.5, 1.0)]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
        let r = sys.run(10_000);
        assert_eq!(r.retired[0], 30_000, "3-wide core, never stalls");
        assert_eq!(r.misses[0], 0);
        assert_eq!(r.total_serviced, 0);
    }

    #[test]
    fn memory_bound_thread_is_slower_than_ideal() {
        let c = cfg(1);
        let w = workload_of(vec![BenchmarkProfile::streaming()]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
        let r = sys.run(200_000);
        assert!(r.ipc[0] < 3.0, "memory stalls must bite: ipc={}", r.ipc[0]);
        // A streaming thread alone is bank-latency bound: one row hit per
        // ~125 cycles, ~10 instructions per miss => IPC ~0.08.
        assert!(r.ipc[0] > 0.05, "but the thread must make progress");
        assert!(r.total_serviced > 100);
        // Streaming thread: overwhelmingly row hits when alone.
        assert!(r.row_hit_rate > 0.8, "hit rate {}", r.row_hit_rate);
    }

    #[test]
    fn random_access_thread_has_low_hit_rate_alone() {
        let c = cfg(1);
        let w = workload_of(vec![BenchmarkProfile::random_access()]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
        let r = sys.run(200_000);
        assert!(r.row_hit_rate < 0.2, "hit rate {}", r.row_hit_rate);
    }

    #[test]
    fn runs_are_deterministic() {
        let c = cfg(4);
        let w = random_workload_4();
        let r1 = System::new(&c, &w, Box::new(FrFcfs::new()), 7).run(100_000);
        let r2 = System::new(&c, &w, Box::new(FrFcfs::new()), 7).run(100_000);
        assert_eq!(r1, r2);
        let r3 = System::new(&c, &w, Box::new(FrFcfs::new()), 8).run(100_000);
        assert_ne!(r1.retired, r3.retired, "different seeds, different runs");
    }

    fn random_workload_4() -> WorkloadSpec {
        tcm_workload::random_workload(3, 4, 0.75)
    }

    #[test]
    fn service_accounting_balances() {
        let c = cfg(2);
        let w = workload_of(vec![
            BenchmarkProfile::streaming(),
            BenchmarkProfile::random_access(),
        ]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 1);
        let r = sys.run(100_000);
        // Every serviced request contributed bank-busy time to its
        // thread.
        assert!(r.service.iter().sum::<u64>() > 0);
        assert!(r.misses.iter().all(|&m| m > 0));
        // Misses injected >= serviced (some still in flight at horizon).
        assert!(r.misses.iter().sum::<u64>() >= r.total_serviced);
    }

    #[test]
    fn contention_slows_threads_down() {
        let c1 = cfg(1);
        let alone = System::new(
            &c1,
            &workload_of(vec![BenchmarkProfile::random_access()]),
            Box::new(FrFcfs::new()),
            0,
        )
        .run(150_000);
        let c24 = cfg(24);
        let mut threads = vec![BenchmarkProfile::random_access()];
        for _ in 0..23 {
            threads.push(BenchmarkProfile::streaming());
        }
        let shared =
            System::new(&c24, &workload_of(threads), Box::new(FrFcfs::new()), 0).run(150_000);
        assert!(
            shared.ipc[0] < alone.ipc[0] * 0.8,
            "alone {} vs shared {}",
            alone.ipc[0],
            shared.ipc[0]
        );
    }

    #[test]
    #[should_panic(expected = "one profile per hardware thread")]
    fn workload_size_mismatch_panics() {
        let c = cfg(2);
        let w = workload_of(vec![BenchmarkProfile::streaming()]);
        System::new(&c, &w, Box::new(FrFcfs::new()), 0);
    }

    #[test]
    fn try_run_agrees_with_run_on_healthy_workload() {
        let c = cfg(4);
        let w = random_workload_4();
        let via_run = System::new(&c, &w, Box::new(FrFcfs::new()), 7).run(100_000);
        let via_try = System::new(&c, &w, Box::new(FrFcfs::new()), 7)
            .try_run(100_000)
            .expect("healthy workload must not fault");
        assert_eq!(via_run, via_try);
    }
}
