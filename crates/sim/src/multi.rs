//! The window stepping rule: how a [`System`] with two or more memory
//! controllers advances time.
//!
//! The machine splits along the controller boundary:
//!
//! * The **core side** owns the front end (cores and trace generators)
//!   and the system's own event queue (bursts and completions), plus the
//!   optional [`MetaScheduler`] coordinating the per-controller
//!   policies.
//! * Each **shard** pairs one of the system's [`Controller`]s — its
//!   channels, its [`Scheduler`] instance, its spill queues — with a
//!   local [`EventQueue`] (arrivals, bank-ready wakeups, and completion
//!   notifications when its policy observes completions) and the
//!   policy's timer.
//!
//! The controllers and the front end are the ones the flat loop drives,
//! and every queue is the same calendar-wheel [`EventQueue`]; only the
//! loop differs. A queue refuses pushes before its last popped cycle.
//! The exchange respects that: a shard's last pop lies below the window
//! start, and the arrivals and completion notifications the core side
//! routes to it are stamped at or after the start. A shard's refused
//! pop at the bound leaves its window in place, so those pushes stay
//! legal.
//!
//! Time advances in windows of `W = timing.round_trip(RowState::Hit)`
//! cycles — the minimum issue-to-completion latency, so nothing a shard
//! does inside a window can affect the core side (or another shard)
//! within the same window. Each window runs two phases:
//!
//! 1. **Core phase** (serial): the core side processes its events below
//!    the window bound, pushing new requests — and completion
//!    notifications, for policies whose
//!    [`Scheduler::observes_completions`] is `true` — onto the owning
//!    shard's queue in a deterministic order.
//! 2. **Controller phase**: every shard processes its local events
//!    below the bound, in controller order. Each completion it issues
//!    goes straight onto the core-side queue: it is at least a hit
//!    round-trip away, so it lands at or beyond the bound, and nothing
//!    pops that queue before the next window.
//!
//! At the barrier, faults are surfaced, and any scheduler or
//! meta-controller timers due at the bound run serially — for TCM this
//! is the paper's §5.3 exchange: harvest each controller's
//! [`MonitorSample`], compute one system-wide [`ClusterPlan`], and
//! broadcast it back.
//!
//! Shards touch disjoint state, and every cross-shard hand-off happens
//! in a fixed order, so a shard's window never observes another shard's
//! work from the same window. Shards step inline on the calling thread:
//! windows are one hit round-trip long and carry a handful of events
//! each, too little for a per-window fork and join to pay. Parallelism
//! comes from the sweep, which runs whole cells on its workers.
//!
//! [`ClusterPlan`]: tcm_sched::ClusterPlan

use crate::event::{Event, EventCounts, EventQueue};
use crate::machine::{Controller, Outlet};
use crate::system::System;
use tcm_chaos::{FaultKind, FaultSpec};
use tcm_dram::ServiceOutcome;
use tcm_sched::{ClusterPlan, MetaScheduler, MonitorSample, Scheduler};
use tcm_telemetry::TraceEvent;
use tcm_types::{BankId, ChannelId, Cycle, RowState, SimError, SystemConfig};
use tcm_workload::WorkloadSpec;

/// Consecutive window barriers a shard's policy timer may refuse to
/// advance past the window start before the run is declared stalled.
///
/// A healthy policy's `next_tick` always lands strictly in the future,
/// so the counter resets every barrier; a wedged timer (e.g. a
/// scheduler-spin fault) pins it at the current cycle, shrinking every
/// window to one cycle without ever tripping the retirement watchdog.
/// This is the window loop's analogue of the flat loop's same-cycle
/// livelock guard.
pub const FROZEN_TICK_LIMIT: u64 = 1_000;

/// The window loop's per-controller state: everything a shard owns
/// besides its [`Controller`].
#[derive(Debug)]
struct Shard {
    /// Local queue: arrivals and completion notifications pushed by the
    /// core side (in its processing order, during the serial core
    /// phase; notifications only if the policy observes completions),
    /// and this controller's bank wakeups.
    events: EventQueue,
    /// Next cycle the policy's own timer is due (policies coordinated by
    /// a meta-controller have no timer of their own).
    next_tick: Option<Cycle>,
    /// Consecutive barriers whose timer was already due at the window
    /// start (see [`FROZEN_TICK_LIMIT`]).
    frozen_ticks: u64,
}

/// A shard's outlet: the completion goes to the core-side queue, beyond
/// this window's bound, and the wakeup stays local.
struct ShardOutlet<'a> {
    local: &'a mut EventQueue,
    core: &'a mut EventQueue,
}

impl Outlet for ShardOutlet<'_> {
    #[inline]
    fn issued(&mut self, outcome: &ServiceOutcome, channel: ChannelId, bank: BankId) {
        self.core.push(
            outcome.completes_at,
            Event::Completion {
                request: outcome.request,
            },
        );
        self.local
            .push(outcome.bank_free, Event::BankReady { channel, bank });
    }
}

impl Shard {
    /// Processes every local event of `ctl` below `bound`, sending
    /// completions to `core`. Stops early once a typed error is recorded.
    fn step(&mut self, ctl: &mut Controller, core: &mut EventQueue, bound: Cycle) {
        // `bound >= 1`, so the inclusive form cannot underflow.
        while ctl.pending_error.is_none() {
            let Some((cycle, event)) = self.events.pop_at_or_before(bound - 1) else {
                break;
            };
            let mut out = ShardOutlet {
                local: &mut self.events,
                core: &mut *core,
            };
            match event {
                Event::Arrival { request } => {
                    ctl.admit(request, cycle);
                    let local = ctl.local(request.addr.channel);
                    ctl.schedule_idle_banks(local, cycle, &mut out);
                }
                Event::Completion { request } => {
                    ctl.scheduler.on_complete(&request, cycle);
                }
                Event::BankReady { channel, bank } => {
                    let local = ctl.local(channel);
                    ctl.bank_ready(local, bank, cycle, &mut out);
                }
                Event::CoreBurst { .. } | Event::SchedTick => {
                    unreachable!("shard queues carry controller events only")
                }
            }
        }
    }
}

/// The window loop's state on a [`System`]: one shard per controller
/// (none on a flat machine), the meta-controller's timer, the window
/// width and the armed coordination faults.
#[derive(Debug)]
pub(crate) struct Windows {
    shards: Vec<Shard>,
    meta_tick: Option<Cycle>,
    /// Window width: the hit round-trip, i.e. the minimum
    /// issue-to-completion latency.
    width: Cycle,
    /// Armed coordination faults (controller blackout / monitor skew),
    /// applied to the harvested sample vector at the next quantum
    /// exchange at or after their cycle. Fire-once: removed when fired.
    pub(crate) coordination: Vec<FaultSpec>,
}

impl Windows {
    /// The state for `controllers` controllers: one shard each when
    /// there are two or more, none for the flat loop.
    pub(crate) fn new(controllers: usize, cfg: &SystemConfig) -> Self {
        let shards = if controllers > 1 { controllers } else { 0 };
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    events: EventQueue::new(),
                    next_tick: None, // armed by `arm`
                    frozen_ticks: 0,
                })
                .collect(),
            meta_tick: None,
            width: cfg.timing.round_trip(RowState::Hit),
            coordination: Vec::new(),
        }
    }

    /// Arms every controller's policy timer and the meta-controller's at
    /// `now`.
    pub(crate) fn arm(
        &mut self,
        ctls: &[Controller],
        meta: Option<&dyn MetaScheduler>,
        now: Cycle,
    ) {
        self.meta_tick = meta.and_then(|m| m.next_tick(now));
        for (shard, ctl) in self.shards.iter_mut().zip(ctls) {
            shard.next_tick = ctl.scheduler.next_tick(now);
        }
    }

    pub(crate) fn set_reference_mode(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.events.set_reference_mode(on);
        }
    }

    /// Whether every shard's queue is empty.
    pub(crate) fn drained(&self) -> bool {
        self.shards.iter().all(|s| s.events.is_empty())
    }

    /// The shards' event counters, summed.
    pub(crate) fn counts(&self) -> EventCounts {
        let mut counts = EventCounts::default();
        for shard in &self.shards {
            counts += shard.events.counts;
        }
        counts
    }
}

impl System {
    /// The window stepping rule: processes windows until `horizon`.
    pub(crate) fn run_windows(&mut self, horizon: Cycle) -> Result<(), SimError> {
        let mut t: Cycle = 0;
        while t <= horizon {
            if self.drained() {
                break;
            }
            t = self.skip_empty_windows(t, horizon);
            let mut bound = (t + self.windows.width).min(horizon + 1);
            if let Some(due) = self.windows.meta_tick {
                bound = bound.min(due.max(t + 1));
            }
            for i in 0..self.windows.shards.len() {
                let shard = &mut self.windows.shards[i];
                if let Some(due) = shard.next_tick {
                    bound = bound.min(due.max(t + 1));
                    // A timer already due at the window start means the
                    // policy's clock refuses to advance — the window
                    // analogue of a same-cycle event-loop spin.
                    if due <= t {
                        shard.frozen_ticks += 1;
                        if shard.frozen_ticks > FROZEN_TICK_LIMIT {
                            return Err(SimError::Stalled(Box::new(
                                self.stall_report_for(Some(i)),
                            )));
                        }
                    } else {
                        shard.frozen_ticks = 0;
                    }
                } else {
                    shard.frozen_ticks = 0;
                }
            }
            if let Some(fault) = self.chaos_flood.filter(|f| f.at < bound) {
                // The machine runs up to the flood cycle first: the
                // phantoms take their ids in cycle order, so every
                // channel still admits ids in increasing order, and they
                // meet the buffers as they stand at that cycle.
                let at = fault.at.max(t);
                if at > t {
                    self.phase_cores(at);
                    self.step_shards(at);
                }
                self.chaos_flood = None;
                self.flood(fault, at);
                self.poll_faults()?;
            }
            self.phase_cores(bound);
            self.step_shards(bound);
            self.poll_faults()?;
            self.now = bound.min(horizon);
            if self.now >= self.next_sample {
                self.sample_series();
            }
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(SimError::Cancelled(self.now));
                }
            }
            if let Some(limit) = self.stall_limit {
                if self.front.outstanding()
                    && bound.saturating_sub(self.front.progress_at()) > limit
                {
                    return Err(SimError::Stalled(Box::new(self.stall_report())));
                }
            }
            if bound <= horizon {
                self.run_ticks(bound);
            }
            t = bound;
        }
        Ok(())
    }

    /// Phase 1: processes core-side events below `bound`. Injected
    /// requests go onto the owning shard's queue in processing order,
    /// and so do completion notifications when the shard's policy
    /// observes completions. A notification is pushed and popped within
    /// its completion's window, so for any other policy leaving it out
    /// changes nothing but the event count.
    fn phase_cores(&mut self, bound: Cycle) {
        // `bound >= t + 1 >= 1`, so the inclusive form cannot underflow.
        while let Some((cycle, event)) = self.events.pop_at_or_before(bound - 1) {
            debug_assert!(cycle >= self.now, "core-side queue went backwards");
            self.now = cycle;
            self.front.events_since_retire += 1;
            match event {
                Event::CoreBurst { thread, epoch } => {
                    let t = thread.index();
                    if !self.front.burst_due(t, epoch, cycle, &mut self.events) {
                        continue;
                    }
                    let (shards, owner) = (&mut self.windows.shards, &self.owner);
                    self.front.inject_burst(t, cycle, |request| {
                        shards[owner[request.addr.channel.index()]]
                            .events
                            .push(cycle, Event::Arrival { request });
                    });
                    self.front.rearm(t, cycle, &mut self.events);
                }
                Event::Completion { request } => {
                    self.front.retire(&request, cycle, &mut self.events);
                    let c = self.owner[request.addr.channel.index()];
                    if self.ctls[c].scheduler.observes_completions() {
                        self.windows.shards[c]
                            .events
                            .push(cycle, Event::Completion { request });
                    }
                }
                Event::BankReady { .. } | Event::SchedTick | Event::Arrival { .. } => {
                    unreachable!("the core-side queue carries core events only")
                }
            }
        }
    }

    /// Phase 2: every shard to `bound`, in controller order.
    fn step_shards(&mut self, bound: Cycle) {
        for (shard, ctl) in self.windows.shards.iter_mut().zip(&mut self.ctls) {
            shard.step(ctl, &mut self.events, bound);
        }
    }

    /// Applies due coordination faults to this exchange's harvested
    /// sample vector: a blackout deletes the target controller's sample
    /// (its monitor went dark), a skew corrupts it into physical
    /// impossibility (more shadow hits than accesses). Fire-once.
    fn apply_coordination_faults(&mut self, at: Cycle, samples: &mut [Option<MonitorSample>]) {
        let mut i = 0;
        while i < self.windows.coordination.len() {
            let fault = self.windows.coordination[i];
            if fault.at > at {
                i += 1;
                continue;
            }
            self.windows.coordination.remove(i);
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

    /// Runs every timer due at `at`: the meta-controller's exchange
    /// first (harvest → aggregate → broadcast), then per-controller
    /// policy timers in controller order. Counter views are built in the
    /// front end's reused scratch buffers — timers fire every barrier
    /// for some policies, and allocating three vectors per firing was
    /// measurable.
    fn run_ticks(&mut self, at: Cycle) {
        if self.windows.meta_tick.is_some_and(|due| due <= at) {
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            let harvested = meta.needs_samples(at);
            let mut samples: Vec<Option<MonitorSample>> = if harvested {
                self.ctls
                    .iter_mut()
                    .map(|ctl| ctl.scheduler.quantum_exchange(at))
                    .collect()
            } else {
                vec![None; self.ctls.len()]
            };
            if harvested && !self.windows.coordination.is_empty() {
                self.apply_coordination_faults(at, &mut samples);
            }
            let view = self.front.view(&self.ctls);
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            let plan = meta.exchange(at, &view, &samples);
            if plan.quarantined.is_empty() {
                for ctl in &mut self.ctls {
                    ctl.scheduler.apply_broadcast(&plan, at);
                }
            } else {
                // A quarantined controller gets the degenerate all-zero
                // ranking — Algorithm 3 with equal ranks is row-hit then
                // oldest, i.e. local FR-FCFS — while the healthy
                // controllers keep the real TCM clustering for this
                // quantum.
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
            self.windows.meta_tick = meta.next_tick(at);
        }
        for (shard, ctl) in self.windows.shards.iter_mut().zip(&mut self.ctls) {
            if shard.next_tick.is_some_and(|due| due <= at) {
                // A real controller observes only its own traffic: the
                // view's service column covers this controller alone.
                let view = self.front.view([&*ctl]);
                ctl.scheduler.tick(at, &view);
                shard.next_tick = ctl.scheduler.next_tick(at);
            }
        }
    }

    /// Fast-forwards `t` over windows that are provable no-ops: no event
    /// (core side or shard) fires in them, no scheduler or
    /// meta-controller timer is due, no armed flood would fire, and the
    /// retirement watchdog cannot trip. Returns the new window start —
    /// always a whole number of windows ahead, so the barrier grid (and
    /// with it every same-cycle ordering decision) is exactly the grid
    /// the per-window loop would have walked.
    ///
    /// Soundness: a window `[t, t+W)` with no event below its bound and
    /// no timer due at it runs `phase_cores` and the shard steps over
    /// nothing and skips `run_ticks` — a strict no-op apart from the
    /// barrier bookkeeping, which is also unobservable in the skipped
    /// range: every `frozen_ticks` stays 0 (every due is strictly beyond
    /// the range), the stall check is capped below (we never skip past
    /// `progress_at + limit`, so a watchdog error surfaces at the same
    /// barrier bound it always did), and nothing in the range can change
    /// `injected`/`completed`/`progress_at`. The skip target is held
    /// strictly below the first constraint (`limit - 1` in the divide)
    /// so the barrier *at* a due cycle still runs its ticks.
    fn skip_empty_windows(&self, t: Cycle, horizon: Cycle) -> Cycle {
        let mut limit = horizon + 1;
        let mut clamp = |c: Cycle| limit = limit.min(c);
        if let Some(at) = self.events.peek_cycle() {
            clamp(at);
        }
        for shard in &self.windows.shards {
            if let Some(at) = shard.events.peek_cycle() {
                clamp(at);
            }
            if let Some(due) = shard.next_tick {
                clamp(due);
            }
        }
        if let Some(due) = self.windows.meta_tick {
            clamp(due);
        }
        if let Some(fault) = self.chaos_flood {
            clamp(fault.at);
        }
        if let Some(stall) = self.stall_limit {
            if self.front.outstanding() {
                clamp(
                    self.front
                        .progress_at()
                        .saturating_add(stall)
                        .saturating_add(1),
                );
            }
        }
        if limit <= t {
            return t;
        }
        let windows = (limit - 1 - t) / self.windows.width;
        t + windows * self.windows.width
    }
}

/// The multi-controller constructor under its former engine's name:
/// [`MultiSystem::new`] returns a [`System`]. Kept only because the
/// `perf/` benchmark package calls it; it goes with that package's next
/// change (ROADMAP item 2).
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
