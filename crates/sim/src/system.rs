//! The flat event loop: one [`Controller`] (every channel under one
//! scheduling policy) and the cores, driven by a single global
//! `(cycle, seq)` event queue.

use crate::event::{Event, EventQueue};
use crate::machine::{sample_series, Controller, FrontEnd, RunResult, DEFAULT_STALL_LIMIT};
use tcm_chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm_sched::{Scheduler, SystemView};
use tcm_telemetry::{Telemetry, TraceEvent};
use tcm_types::{
    BankId, CancelToken, ChannelId, Cycle, MemAddress, SimError, StallReport, SystemConfig,
    ThreadId,
};
use tcm_workload::WorkloadSpec;

/// How many events the loop processes between cooperative-cancellation
/// checks (see [`System::set_cancel_token`]). Checking involves a
/// wall-clock read, so it is strided; the first event always checks.
pub const CANCEL_CHECK_STRIDE: u64 = 4096;

/// One simulated CMP + memory system executing one workload under one
/// scheduling policy.
///
/// Drive it with [`System::run`]; everything else is plumbing fed by the
/// event queue. Identical inputs (workload, seed base, config, policy)
/// produce bit-identical results.
///
/// # Example
///
/// ```
/// use tcm_sched::FrFcfs;
/// use tcm_sim::System;
/// use tcm_types::SystemConfig;
/// use tcm_workload::random_workload;
///
/// let cfg = SystemConfig::builder().num_threads(4).build()?;
/// let workload = random_workload(0, 4, 0.5);
/// let mut sys = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 1);
/// let result = sys.run(50_000);
/// assert_eq!(result.ipc.len(), 4);
/// # Ok::<(), tcm_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    front: FrontEnd,
    /// The one memory controller: every channel, the policy, the spill
    /// queues.
    ctl: Controller,
    events: EventQueue,
    now: Cycle,
    sched_tick_pending: bool,
    /// Events processed at the current cycle (livelock guard).
    events_at_now: u64,
    /// Ceiling on `events_at_now`; exceeding it means the event loop is
    /// spinning without advancing time.
    livelock_limit: u64,
    /// Watchdog: declare the run stalled when requests are outstanding
    /// but none retires for this many cycles. `None` disables.
    stall_limit: Option<Cycle>,
    /// Cooperative cancellation: checked every [`CANCEL_CHECK_STRIDE`]
    /// events; `None` means the run cannot be cancelled.
    cancel: Option<CancelToken>,
    /// Events until the next cancellation check (strided probe: checks
    /// at the same event indices the old `events_processed % STRIDE`
    /// test did — the first event always checks).
    cancel_countdown: u64,
    /// Armed spill-flood fault: at its cycle, phantom requests are
    /// admitted until the spill queue outgrows its resource bound.
    chaos_flood: Option<FaultSpec>,
    /// Cycle the armed flood fires (`Cycle::MAX` when none is armed), so
    /// the per-event probe is one compare instead of an `Option` walk.
    chaos_flood_at: Cycle,
    /// Next cycle boundary at which the stall watchdog must be
    /// re-evaluated: `last_retire + stall_limit` (the earliest cycle the
    /// stalled condition can possibly hold), `Cycle::MAX` when the
    /// watchdog is disabled. The per-event probe is one compare; the
    /// full check runs only past the boundary — with semantics identical
    /// to evaluating it every event.
    stall_probe_at: Cycle,
    /// Whether any channel has the protocol checker armed (mirror of
    /// `verification_enabled()`, so the per-event fault poll skips the
    /// per-channel walk when nothing can ever be reported).
    verify_armed: bool,
    /// Scratch: per-channel "this burst touched it" flags (reused, reset
    /// after each injection).
    touched_channels: Vec<bool>,
    /// Scratch: per-thread counter views for `SchedTick` (reused across
    /// ticks).
    scratch_retired: Vec<u64>,
    scratch_misses: Vec<u64>,
    scratch_service: Vec<u64>,
    /// Structured-event/metric sink, shared with every channel and the
    /// policy. Disabled by default; see [`System::set_telemetry`].
    telemetry: Telemetry,
    /// Next cycle at which the time-series sampler fires (`Cycle::MAX`
    /// when telemetry is disabled — the per-event check is one compare).
    next_sample: Cycle,
}

impl System {
    /// Builds a system running `workload` under `scheduler`.
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
        cfg.validate().expect("invalid system config");
        let mut sys = Self {
            cfg: cfg.clone(),
            front: FrontEnd::new(cfg, workload, seed_base),
            ctl: Controller::new(cfg, 0..cfg.num_channels(), scheduler),
            events: EventQueue::new(),
            now: 0,
            sched_tick_pending: false,
            events_at_now: 0,
            // Per cycle the loop legitimately processes at most one event
            // per thread, a couple per bank, and one scheduler tick; 1024x
            // that is unreachable without a same-cycle spin.
            livelock_limit: 1024 * (cfg.num_threads + cfg.total_banks() + 4) as u64,
            stall_limit: Some(DEFAULT_STALL_LIMIT),
            cancel: None,
            cancel_countdown: 0,
            chaos_flood: None,
            chaos_flood_at: Cycle::MAX,
            stall_probe_at: DEFAULT_STALL_LIMIT,
            verify_armed: false,
            touched_channels: vec![false; cfg.num_channels()],
            scratch_retired: Vec::new(),
            scratch_misses: Vec::new(),
            scratch_service: Vec::new(),
            telemetry: Telemetry::disabled(),
            next_sample: Cycle::MAX,
        };
        if std::env::var_os("TCM_VERIFY").is_some_and(|v| v != "0") {
            sys.enable_verification();
        }
        // Channels arm the checker on their own in debug builds; keep the
        // fault-poll gate in sync with whatever they decided.
        sys.verify_armed = sys.verification_enabled();
        sys.front.bootstrap(&mut sys.events);
        sys.schedule_next_tick();
        sys
    }

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
        self.ctl.set_verification(enabled);
        self.verify_armed = enabled;
    }

    /// Whether protocol verification is active on any channel.
    pub fn verification_enabled(&self) -> bool {
        self.ctl.verification_enabled()
    }

    /// Sets the forward-progress watchdog limit (cycles without a
    /// retirement while requests are outstanding). `None` disables the
    /// watchdog, including the same-cycle livelock guard.
    pub fn set_watchdog(&mut self, stall_limit: Option<Cycle>) {
        self.stall_limit = stall_limit;
        self.stall_probe_at = match stall_limit {
            Some(limit) => self.front.last_retire.saturating_add(limit),
            None => Cycle::MAX,
        };
    }

    /// Installs a cooperative cancellation token. The event loop polls it
    /// every [`CANCEL_CHECK_STRIDE`] events and surfaces
    /// [`SimError::Cancelled`] once it fires; `None` (the default) makes
    /// the run uncancellable.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Shares a telemetry handle with every channel and the policy, and
    /// arms the time-series sampler. Telemetry is observation-only:
    /// results are bit-identical with it attached or not.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.ctl.set_telemetry(telemetry);
        self.next_sample = telemetry.sample_interval().unwrap_or(Cycle::MAX);
    }

    /// Installs a fault-injection plan (see the `tcm-chaos` crate).
    ///
    /// Routes each fault to its execution site: channel faults to their
    /// target channel, monitor faults to the policy, the spill flood to
    /// the admission path, and — when a scheduler-spin fault is armed —
    /// wraps the policy in a [`ChaosScheduler`](tcm_sched::ChaosScheduler).
    ///
    /// Also enables protocol verification on every channel: injecting
    /// faults without the detectors armed would be undetectable by
    /// design. Installing an *empty* plan still installs the (inert)
    /// chaos state everywhere, so tests can prove the zero-fault plan is
    /// bit-identical to no plan at all.
    pub fn install_chaos(&mut self, plan: &FaultPlan) {
        self.enable_verification();
        self.ctl.install_channel_chaos(plan);
        for fault in plan.monitor_faults() {
            self.ctl.scheduler.inject_monitor_fault(&fault);
        }
        self.chaos_flood = plan.flood();
        self.chaos_flood_at = self.chaos_flood.map_or(Cycle::MAX, |f| f.at);
        if let Some(spin_at) = plan.spin_at() {
            self.ctl.wrap_spin(spin_at);
            // Policies without timers never got a tick scheduled at
            // bootstrap; the wrapper needs one for the spin to engage.
            self.schedule_next_tick();
        }
    }

    /// Executes an armed spill-flood fault: admits phantom requests to
    /// the target channel until its buffer and spill queue both overflow,
    /// tripping the controller's resource-bound detector.
    fn trigger_flood(&mut self, fault: FaultSpec) {
        self.telemetry.emit(|| TraceEvent::ChaosInjected {
            cycle: self.now,
            kind: FaultKind::SpillFlood,
        });
        let channel = fault.channel.min(self.cfg.num_channels() - 1);
        let addr = MemAddress::new(
            ChannelId::new(channel),
            BankId::new(0),
            tcm_types::Row::new(0),
        );
        let thread = ThreadId::new(fault.thread.min(self.cfg.num_threads - 1));
        let phantoms = self.cfg.request_buffer + self.ctl.spill_bound + 1;
        for _ in 0..phantoms {
            let request = self.front.next_request(thread, addr, self.now);
            self.ctl.admit(request, self.now);
            if self.ctl.pending_error.is_some() {
                // The bound tripped; no need to keep flooding. The
                // phantoms already admitted stay queued — poll_faults
                // surfaces the error before any of them is serviced.
                break;
            }
        }
    }

    /// The policy's plausibility-guard anomaly log (empty for policies
    /// without a guard; see `Scheduler::degradation_events`).
    pub fn degradation_events(&self) -> &[tcm_telemetry::DegradationAnomaly] {
        self.ctl.scheduler.degradation_events()
    }

    /// Installs OS thread weights on the policy.
    pub fn set_thread_weights(&mut self, weights: &[f64]) {
        self.ctl.scheduler.set_thread_weights(weights);
    }

    fn schedule_next_tick(&mut self) {
        if self.sched_tick_pending {
            return;
        }
        if let Some(at) = self.ctl.scheduler.next_tick(self.now) {
            self.events.push(at, Event::SchedTick);
            self.sched_tick_pending = true;
        }
    }

    /// Injects thread `t`'s pending burst straight into the controller,
    /// then gives every channel it touched a scheduling pass.
    fn inject_burst(&mut self, t: usize) {
        let now = self.now;
        let (ctl, touched) = (&mut self.ctl, &mut self.touched_channels);
        self.front.inject_burst(t, now, |request| {
            ctl.admit(request, now);
            touched[request.addr.channel.index()] = true;
        });
        // Newly arrived requests may wake idle banks. Scanning the flag
        // array visits channels in ascending id order.
        for c in 0..self.touched_channels.len() {
            if std::mem::take(&mut self.touched_channels[c]) {
                self.ctl.schedule_idle_banks(c, now, &mut self.events);
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
    ///   [`System::set_watchdog`]), the event loop spun at a frozen cycle
    ///   (e.g. a policy whose `next_tick` never advances), or the event
    ///   queue drained with requests still in flight. The report carries a
    ///   snapshot of queue depths, bank states, and per-thread outstanding
    ///   counts.
    /// * [`SimError::InvariantViolation`] — the DRAM protocol checker (if
    ///   enabled) observed an illegal command sequence, or a spill queue
    ///   outgrew the MSHR-implied bound on outstanding misses.
    ///
    /// After an error the system is left at the faulting cycle; resuming
    /// is not supported.
    pub fn try_run(&mut self, horizon: Cycle) -> Result<RunResult, SimError> {
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
                sample_series(
                    &self.telemetry,
                    &mut self.next_sample,
                    self.now,
                    self.ctl.channels().iter(),
                );
            }
            if self.now >= self.chaos_flood_at {
                self.chaos_flood_at = Cycle::MAX;
                if let Some(fault) = self.chaos_flood.take() {
                    self.trigger_flood(fault);
                }
            }
            if self.events_at_now > self.livelock_limit || self.now > self.stall_probe_at {
                self.check_watchdog()?;
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
                    self.ctl.bank_ready(channel.index(), bank, self.now, &mut self.events);
                }
                Event::Completion { request } => {
                    self.front.retire(&request, self.now, &mut self.events);
                    self.ctl.scheduler.on_complete(&request, self.now);
                }
                Event::SchedTick => {
                    self.sched_tick_pending = false;
                    let mut retired = std::mem::take(&mut self.scratch_retired);
                    let mut misses = std::mem::take(&mut self.scratch_misses);
                    let mut service = std::mem::take(&mut self.scratch_service);
                    self.front.view_into([&self.ctl], &mut retired, &mut misses, &mut service);
                    let view = SystemView {
                        retired: &retired,
                        misses: &misses,
                        service: &service,
                    };
                    self.ctl.scheduler.tick(self.now, &view);
                    self.scratch_retired = retired;
                    self.scratch_misses = misses;
                    self.scratch_service = service;
                    self.schedule_next_tick();
                }
                Event::Arrival { .. } => unreachable!("the flat loop admits at injection"),
            }
            if self.ctl.pending_error.is_some() || self.verify_armed {
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
        self.ctl.finish_verification(horizon)?;
        Ok(self
            .front
            .collect(horizon, std::iter::once(&self.ctl), self.events.counts, &self.telemetry))
    }

    /// Full watchdog evaluation, run only when the per-event probe fires
    /// (`events_at_now` past the livelock ceiling, or `now` past the
    /// earliest cycle the stalled condition can hold). Re-arms the probe
    /// boundary on a clean pass.
    #[cold]
    fn check_watchdog(&mut self) -> Result<(), SimError> {
        if let Some(limit) = self.stall_limit {
            let stalled = self.front.outstanding()
                && self.now.saturating_sub(self.front.last_retire) > limit;
            if stalled || self.events_at_now > self.livelock_limit {
                return Err(SimError::Stalled(Box::new(self.stall_report())));
            }
            self.stall_probe_at = self.front.last_retire.saturating_add(limit);
        } else {
            self.stall_probe_at = Cycle::MAX;
        }
        Ok(())
    }

    /// Test hook: sends all future event pushes to the queue's far heap,
    /// the pure binary-heap order (see `EventQueue::set_reference_mode`),
    /// so equivalence tests can prove the calendar wheel is
    /// bit-identical.
    #[doc(hidden)]
    pub fn set_reference_event_order(&mut self, on: bool) {
        self.events.set_reference_mode(on);
    }

    /// Surfaces any fault recorded during event processing: a pending
    /// typed error or a protocol-checker violation on some channel.
    fn poll_faults(&mut self) -> Result<(), SimError> {
        match self.ctl.pending_error.take().or_else(|| self.ctl.violation()) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Snapshot of simulator state for a [`SimError::Stalled`] report. A
    /// single-controller machine has no one else to blame.
    fn stall_report(&self) -> StallReport {
        self.front
            .stall_report(self.now, None, std::iter::once(&self.ctl))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_sched::FrFcfs;
    use tcm_workload::BenchmarkProfile;

    fn cfg(threads: usize) -> SystemConfig {
        SystemConfig::builder().num_threads(threads).build().unwrap()
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
        let shared = System::new(&c24, &workload_of(threads), Box::new(FrFcfs::new()), 0)
            .run(150_000);
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
