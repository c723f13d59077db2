//! The simulated hardware that [`System`](crate::System) steps: its
//! event loop pops one `(cycle, seq)` queue and drives these parts,
//! whatever the topology:
//!
//! * [`Controller`] — one memory controller: its channels, its
//!   scheduling policy, its spill queues, admission and the scheduling
//!   decision, plus the fault poll and the channel wiring. A system owns
//!   one per controller of its topology.
//! * [`FrontEnd`] — the cores and their trace generators: burst arming,
//!   polling and injection, retirement bookkeeping, and the per-thread
//!   counter view handed to policy timers.
//! * The end of a run: [`FrontEnd::collect`] builds the [`RunResult`]
//!   and absorbs the metrics catalog, [`sample_series`] is the periodic
//!   sampler, and [`FrontEnd::stall_report`] fills a watchdog report.
//!
//! A controller never owns an event queue. Callers pass their clock and
//! the system's queue, which receives each issued request's completion
//! and bank wakeup.

use crate::event::{Event, EventCounts, EventQueue};
use std::collections::VecDeque;
use std::ops::Range;
use tcm_chaos::FaultPlan;
use tcm_cpu::{Core, CoreStatus};
use tcm_dram::Channel;
use tcm_sched::{ChaosScheduler, PickContext, Scheduler, SystemView};
use tcm_telemetry::{labeled, Histogram, Telemetry};
use tcm_types::{
    BankId, ChannelId, ControllerId, Cycle, DramTiming, Invariant, InvariantViolation, MemAddress,
    Request, RequestId, SimError, StallReport, SystemConfig, ThreadId,
};
use tcm_workload::{MachineShape, TraceGenerator, WorkloadSpec};

/// Default forward-progress watchdog limit: if memory requests are
/// outstanding but none retires for this many cycles (counted from the
/// burst that ended an idle stretch, when that is later), the run is
/// declared [`SimError::Stalled`].
///
/// Generously above any legitimate retirement gap: even a single fully
/// backed-up controller (128-entry buffer, 400-cycle conflicts) drains a
/// request every ≲ 52 k cycles.
pub const DEFAULT_STALL_LIMIT: Cycle = 1_000_000;

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Instructions retired per thread.
    pub retired: Vec<u64>,
    /// IPC per thread.
    pub ipc: Vec<f64>,
    /// Misses injected per thread.
    pub misses: Vec<u64>,
    /// Bank-busy service cycles attained per thread (all channels).
    pub service: Vec<u64>,
    /// Requests serviced in total.
    pub total_serviced: u64,
    /// Row-buffer hit rate over all serviced requests.
    pub row_hit_rate: f64,
    /// Number of requests that had to wait for controller-buffer space
    /// before admission (diagnostic; rare at realistic intensities).
    pub spilled: u64,
    /// Deepest any controller's request buffer got during the run
    /// (benchmark/report metric; deterministic like everything else).
    pub peak_queue: usize,
}

/// One memory controller: a contiguous run of channels, the scheduling
/// policy instance that picks among their requests, and the per-channel
/// spill queues that hold requests a full buffer turned away.
///
/// Methods address channels by *local* index (`0..channels().len()`);
/// [`Controller::local`] maps a global channel id to it.
#[derive(Debug)]
pub(crate) struct Controller {
    /// Global index of this controller's first channel.
    channel_base: usize,
    channels: Vec<Channel>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    /// Whether the policy's timer has a `SchedTick` queued.
    pub(crate) tick_pending: bool,
    /// Requests that found their channel's buffer full, waiting to be
    /// admitted (hardware would backpressure; semantics preserved:
    /// arrival order per channel).
    spill: Vec<VecDeque<Request>>,
    pub(crate) spilled: u64,
    /// Hard cap on any spill queue. The MSHR caps bound total outstanding
    /// misses at `num_threads * mshrs_per_core`, so a spill queue deeper
    /// than that proves requests are leaking somewhere.
    pub(crate) spill_bound: usize,
    num_threads: usize,
    mshrs_per_core: usize,
    timing: DramTiming,
    /// Typed error raised deep in the call graph (e.g. during `admit`),
    /// surfaced by the caller's loop at the next opportunity.
    pub(crate) pending_error: Option<SimError>,
    /// Scratch: schedulable banks of the channel currently being worked
    /// (reused across `schedule_idle_banks` calls, never allocated per
    /// decision).
    scratch_banks: Vec<BankId>,
    /// Per local channel, one past the last admitted request id. A
    /// channel admits ids in increasing order, so each buffer lane's ids
    /// ascend; PAR-BS marks a batch by id cutoffs that rely on it.
    #[cfg(debug_assertions)]
    admitted_below: Vec<u64>,
}

impl Controller {
    /// A controller owning the global channels `channels` under
    /// `scheduler`.
    pub(crate) fn new(
        cfg: &SystemConfig,
        channels: Range<usize>,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        let channel_base = channels.start;
        let channels: Vec<Channel> = channels
            .map(|c| {
                Channel::with_threads(
                    ChannelId::new(c),
                    cfg.banks_per_channel,
                    cfg.request_buffer,
                    cfg.num_threads,
                )
            })
            .collect();
        Self {
            channel_base,
            spill: (0..channels.len()).map(|_| VecDeque::new()).collect(),
            #[cfg(debug_assertions)]
            admitted_below: vec![0; channels.len()],
            channels,
            scheduler,
            tick_pending: false,
            spilled: 0,
            spill_bound: cfg.num_threads * cfg.mshrs_per_core,
            num_threads: cfg.num_threads,
            mshrs_per_core: cfg.mshrs_per_core,
            timing: cfg.timing,
            pending_error: None,
            scratch_banks: Vec::with_capacity(cfg.banks_per_channel),
        }
    }

    /// This controller's channels, in global index order.
    pub(crate) fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Local index of global channel `channel` (which must be one of
    /// this controller's).
    #[inline]
    pub(crate) fn local(&self, channel: ChannelId) -> usize {
        channel.index() - self.channel_base
    }

    /// Admits a request into its channel's buffer, spilling if full.
    pub(crate) fn admit(&mut self, request: Request, now: Cycle) {
        let local = self.local(request.addr.channel);
        if self.spill[local].is_empty() && self.channels[local].enqueue(request).is_ok() {
            self.admitted(&request, now);
            return;
        }
        self.spilled += 1;
        if self.spill[local].len() >= self.spill_bound && self.pending_error.is_none() {
            self.pending_error = Some(SimError::InvariantViolation(InvariantViolation {
                invariant: Invariant::ResourceBound,
                cycle: now,
                channel: request.addr.channel,
                bank: Some(request.addr.bank),
                request: Some(request.id),
                detail: format!(
                    "spill queue for channel {} grew past the MSHR-implied \
                     outstanding-miss bound ({} threads x {} MSHRs = {}); \
                     requests are not draining",
                    request.addr.channel.index(),
                    self.num_threads,
                    self.mshrs_per_core,
                    self.spill_bound
                ),
            }));
        }
        self.spill[local].push_back(request);
    }

    /// Drains spilled requests into local channel `local` while room
    /// exists.
    pub(crate) fn drain_spill(&mut self, local: usize, now: Cycle) {
        while let Some(&request) = self.spill[local].front() {
            let request = Request {
                issued_at: now,
                ..request
            };
            if self.channels[local].enqueue(request).is_ok() {
                self.spill[local].pop_front();
                self.admitted(&request, now);
            } else {
                break;
            }
        }
    }

    /// `request` entered its channel's buffer: tells the policy, and in
    /// debug builds checks that the channel's ids ascend.
    #[inline]
    fn admitted(&mut self, request: &Request, now: Cycle) {
        #[cfg(debug_assertions)]
        {
            let (local, id) = (self.local(request.addr.channel), request.id.raw());
            debug_assert!(
                id >= self.admitted_below[local],
                "channel {} admitted request {id} after a higher id",
                request.addr.channel.index()
            );
            self.admitted_below[local] = id + 1;
        }
        self.scheduler.on_enqueue(request, now);
    }

    /// Runs a scheduling decision for every idle bank of local channel
    /// `local` with pending work, in bank order.
    pub(crate) fn schedule_idle_banks(
        &mut self,
        local: usize,
        now: Cycle,
        events: &mut EventQueue,
    ) {
        // Snapshot the decision list into the reused scratch (decide()
        // needs &mut self, so the borrow can't stay live).
        let mut banks = std::mem::take(&mut self.scratch_banks);
        banks.clear();
        banks.extend(self.channels[local].schedulable_banks(now));
        for &bank in &banks {
            self.decide(local, bank, now, events);
        }
        self.scratch_banks = banks;
    }

    /// Consults the policy and issues one request at `(local, bank)`,
    /// queueing its completion, then its bank's wakeup.
    ///
    /// Allocation-free: the policy sees the bank's pending lane as a
    /// borrowed slice and the channel's buffer by reference (disjoint
    /// field borrows let `self.scheduler` be consulted while both borrow
    /// `self.channels`).
    pub(crate) fn decide(
        &mut self,
        local: usize,
        bank: BankId,
        now: Cycle,
        events: &mut EventQueue,
    ) {
        let channel = ChannelId::new(self.channel_base + local);
        let ctx = PickContext {
            now,
            channel,
            bank,
            open_row: self.channels[local].open_row(bank),
            queue: self.channels[local].queue(),
        };
        let pending = self.channels[local].pending_for_bank(bank);
        debug_assert!(!pending.is_empty());
        let idx = self.scheduler.pick(pending, &ctx);
        assert!(idx < pending.len(), "policy returned an invalid index");
        let outcome = self.channels[local].issue_at(bank.index(), idx, now, &self.timing);
        let remaining = self.channels[local].pending_for_bank(bank);
        self.scheduler.on_service(&outcome, remaining, now);
        events.push(
            outcome.completes_at,
            Event::Completion {
                request: outcome.request,
            },
        );
        events.push(outcome.bank_free, Event::BankReady { channel, bank });
        // Freed buffer space: admit spilled requests.
        self.drain_spill(local, now);
    }

    /// A bank of local channel `local` woke up: refill the buffer from
    /// the spill queue, then issue at the bank if it is idle with work.
    pub(crate) fn bank_ready(
        &mut self,
        local: usize,
        bank: BankId,
        now: Cycle,
        events: &mut EventQueue,
    ) {
        self.drain_spill(local, now);
        if self.channels[local].bank_idle_ready(bank, now)
            && self.channels[local].queue().has_pending_for_bank(bank)
        {
            self.decide(local, bank, now, events);
        }
    }

    /// Adds each thread's bank-busy service cycles on this controller's
    /// channels into `service` (one slot per thread).
    pub(crate) fn add_service(&self, service: &mut [u64]) {
        for ch in &self.channels {
            for (acc, s) in service.iter_mut().zip(ch.stats().thread_service_all()) {
                *acc += s;
            }
        }
    }

    /// The first protocol-checker violation on any channel, as a typed
    /// error (the fault poll's second half; the first is
    /// `pending_error`).
    pub(crate) fn violation(&self) -> Option<SimError> {
        self.channels
            .iter()
            .find_map(Channel::violation)
            .map(|v| SimError::InvariantViolation(v.clone()))
    }

    /// Requests waiting at this controller: buffered plus spilled.
    pub(crate) fn backlog(&self) -> usize {
        self.channels
            .iter()
            .map(|ch| ch.queue().len())
            .sum::<usize>()
            + self.spill.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Arms or disarms the DRAM protocol checker on every channel.
    pub(crate) fn set_verification(&mut self, enabled: bool) {
        for ch in &mut self.channels {
            if enabled {
                ch.enable_verification();
            } else {
                ch.disable_verification();
            }
        }
    }

    /// Whether any channel has the protocol checker armed.
    pub(crate) fn verification_enabled(&self) -> bool {
        self.channels.iter().any(Channel::verification_enabled)
    }

    /// Ends verification at `horizon`, surfacing checks that need the
    /// whole run.
    pub(crate) fn finish_verification(&mut self, horizon: Cycle) -> Result<(), SimError> {
        for ch in &mut self.channels {
            ch.finish_verification(horizon)?;
        }
        Ok(())
    }

    /// Installs `plan`'s channel faults on this controller's channels
    /// (addressed by global channel index).
    pub(crate) fn install_channel_chaos(&mut self, plan: &FaultPlan) {
        for (local, ch) in self.channels.iter_mut().enumerate() {
            ch.set_chaos(Some(plan.channel_chaos(self.channel_base + local)));
        }
    }

    /// Wraps the policy in a [`ChaosScheduler`] whose timer wedges at
    /// `spin_at`.
    pub(crate) fn wrap_spin(&mut self, spin_at: Cycle) {
        // Placeholder swap: Box<dyn Scheduler> has no cheap default, and
        // the wrapper needs ownership of the inner policy.
        let inner = std::mem::replace(&mut self.scheduler, Box::new(tcm_sched::Fcfs::new()));
        self.scheduler = Box::new(ChaosScheduler::new(inner, spin_at));
    }

    /// Shares a telemetry handle with every channel and the policy.
    pub(crate) fn set_telemetry(&mut self, telemetry: &Telemetry) {
        for ch in &mut self.channels {
            ch.set_telemetry(telemetry);
        }
        self.scheduler.attach_telemetry(telemetry);
    }
}

/// The cores and their trace generators: where requests come from and
/// where their data returns to.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    cores: Vec<Core>,
    generators: Vec<Option<TraceGenerator>>,
    /// Addresses of each core's pending (not yet injected) burst.
    pending_accesses: Vec<Vec<MemAddress>>,
    /// Epoch per core for stale-event elimination.
    core_epoch: Vec<u64>,
    next_request_id: u64,
    /// Misses injected into the memory system (watchdog bookkeeping).
    pub(crate) injected: u64,
    /// Misses whose data returned to a core.
    pub(crate) completed: u64,
    /// Cycle at which the most recent request retired.
    last_retire: Cycle,
    /// Cycle of the latest burst injected while nothing was outstanding.
    woke_at: Cycle,
    /// Events processed since the most recent retirement.
    pub(crate) events_since_retire: u64,
    /// `CoreBurst` events that arrived with a stale epoch.
    stale_bursts: u64,
    /// Scratch: request ids of the burst currently being injected.
    scratch_ids: Vec<RequestId>,
    /// Scratch: the per-thread counter view handed to policy timers
    /// (reused across ticks; see [`FrontEnd::view`]).
    scratch_retired: Vec<u64>,
    scratch_misses: Vec<u64>,
    scratch_service: Vec<u64>,
}

impl FrontEnd {
    /// One core per hardware thread of `cfg`, each running its
    /// workload profile. `seed_base` decorrelates multiple instances of
    /// the same benchmark within a workload (thread `i` uses seed
    /// `seed_base · 1000 + i` mixed with its profile).
    ///
    /// # Panics
    ///
    /// Panics if the workload's thread count differs from
    /// `cfg.num_threads`.
    pub(crate) fn new(cfg: &SystemConfig, workload: &WorkloadSpec, seed_base: u64) -> Self {
        assert_eq!(
            workload.threads.len(),
            cfg.num_threads,
            "workload must have one profile per hardware thread"
        );
        let shape = MachineShape::from(cfg);
        let cores = (0..cfg.num_threads)
            .map(|i| {
                Core::new(
                    ThreadId::new(i),
                    cfg.issue_width,
                    cfg.window_size,
                    cfg.mshrs_per_core,
                )
            })
            .collect();
        let generators = workload
            .threads
            .iter()
            .enumerate()
            .map(|(i, profile)| {
                if TraceGenerator::is_compute_only(profile) {
                    None
                } else {
                    Some(TraceGenerator::new(
                        profile,
                        shape,
                        seed_base.wrapping_mul(1000).wrapping_add(i as u64),
                    ))
                }
            })
            .collect();
        Self {
            cores,
            generators,
            pending_accesses: vec![Vec::new(); cfg.num_threads],
            core_epoch: vec![0; cfg.num_threads],
            next_request_id: 0,
            injected: 0,
            completed: 0,
            last_retire: 0,
            woke_at: 0,
            events_since_retire: 0,
            stale_bursts: 0,
            scratch_ids: Vec::new(),
            scratch_retired: Vec::new(),
            scratch_misses: Vec::new(),
            scratch_service: Vec::new(),
        }
    }

    /// Arms every core's first burst at cycle 0.
    pub(crate) fn bootstrap(&mut self, events: &mut EventQueue) {
        for t in 0..self.cores.len() {
            self.rearm(t, 0, events);
        }
    }

    /// Pulls the next burst from thread `t`'s generator into its core,
    /// refilling the thread's pending-access buffer in place (its
    /// capacity is reused run-long; no per-burst allocation).
    fn arm_next_burst(&mut self, t: usize) {
        let Some(generator) = self.generators[t].as_mut() else {
            return;
        };
        let gap = generator.next_burst_into(&mut self.pending_accesses[t]);
        self.cores[t].schedule_burst(gap, self.pending_accesses[t].len());
    }

    /// Polls core `t` at `now` and (re)schedules its burst event. The
    /// only place core events are created; each call bumps the core's
    /// epoch so previously queued events become stale.
    fn poll_core(&mut self, t: usize, now: Cycle, events: &mut EventQueue) {
        match self.cores[t].poll(now) {
            CoreStatus::WillBurst { at } => {
                self.core_epoch[t] += 1;
                events.push(
                    at,
                    Event::CoreBurst {
                        thread: ThreadId::new(t),
                        epoch: self.core_epoch[t],
                    },
                );
            }
            CoreStatus::Blocked | CoreStatus::ComputeOnly => {}
        }
    }

    /// Arms thread `t`'s next burst and schedules it (after an
    /// injection, once its requests are placed).
    pub(crate) fn rearm(&mut self, t: usize, now: Cycle, events: &mut EventQueue) {
        self.arm_next_burst(t);
        self.poll_core(t, now, events);
    }

    /// Handles a `CoreBurst { thread: t, epoch }` event at `now`: whether
    /// the burst is due for injection. A stale epoch (the core was
    /// re-polled after the event was scheduled) or a blocked core is not;
    /// a re-timed burst is re-scheduled.
    pub(crate) fn burst_due(
        &mut self,
        t: usize,
        epoch: u64,
        now: Cycle,
        events: &mut EventQueue,
    ) -> bool {
        if epoch != self.core_epoch[t] {
            self.stale_bursts += 1;
            return false;
        }
        match self.cores[t].poll(now) {
            CoreStatus::WillBurst { at } if at <= now => true,
            // Blocked (e.g. MSHR raced) or re-timed: re-poll created no
            // event for Blocked; completions will.
            CoreStatus::WillBurst { .. } => {
                self.poll_core(t, now, events);
                false
            }
            _ => false,
        }
    }

    /// Injects thread `t`'s pending burst at `now`: numbers each access,
    /// hands the request to `place`, and charges the core's MSHRs. The
    /// burst buffer and the id staging are reused. The caller then
    /// [`rearm`](FrontEnd::rearm)s the core.
    pub(crate) fn inject_burst(&mut self, t: usize, now: Cycle, mut place: impl FnMut(Request)) {
        let accesses = std::mem::take(&mut self.pending_accesses[t]);
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        for addr in &accesses {
            let request = self.next_request(ThreadId::new(t), *addr, now);
            ids.push(request.id);
            place(request);
        }
        self.cores[t].issue_burst(&ids);
        if self.injected == self.completed {
            self.woke_at = now;
        }
        self.injected += ids.len() as u64;
        self.scratch_ids = ids;
        // Hand the (drained) buffer back so arm_next_burst refills it in
        // place.
        self.pending_accesses[t] = accesses;
    }

    /// A fresh request with the next id (bursts and phantom floods share
    /// one id space).
    pub(crate) fn next_request(
        &mut self,
        thread: ThreadId,
        addr: MemAddress,
        now: Cycle,
    ) -> Request {
        let id = RequestId::new(self.next_request_id);
        self.next_request_id += 1;
        Request::new(id, thread, addr, now)
    }

    /// Retires `request` at its core and re-polls the core.
    pub(crate) fn retire(&mut self, request: &Request, now: Cycle, events: &mut EventQueue) {
        let t = request.thread.index();
        self.cores[t].complete(request.id);
        self.completed += 1;
        self.last_retire = now;
        self.events_since_retire = 0;
        self.poll_core(t, now, events);
    }

    /// Whether injected requests are still in flight.
    pub(crate) fn outstanding(&self) -> bool {
        self.injected > self.completed
    }

    /// The cycle the stall watchdog counts from: the last retirement or,
    /// if later, the burst that ended an idle stretch (a thread may
    /// compute past the stall limit with nothing outstanding).
    pub(crate) fn progress_at(&self) -> Cycle {
        self.last_retire.max(self.woke_at)
    }

    /// Settles every core at the horizon.
    pub(crate) fn settle(&mut self, horizon: Cycle) {
        for core in &mut self.cores {
            core.poll(horizon);
        }
    }

    /// The per-thread counter view a policy timer reads: retired
    /// instructions and misses from the cores, service summed over
    /// `controllers`. Built in reused scratch buffers: some policies'
    /// timers fire often, and allocating three vectors per firing was
    /// measurable.
    pub(crate) fn view<'a>(
        &mut self,
        controllers: impl IntoIterator<Item = &'a Controller>,
    ) -> SystemView<'_> {
        Self::view_into(
            &self.cores,
            controllers,
            &mut self.scratch_retired,
            &mut self.scratch_misses,
            &mut self.scratch_service,
        );
        SystemView {
            retired: &self.scratch_retired,
            misses: &self.scratch_misses,
            service: &self.scratch_service,
        }
    }

    /// Fills a per-thread counter view in place (see [`FrontEnd::view`]).
    fn view_into<'a>(
        cores: &[Core],
        controllers: impl IntoIterator<Item = &'a Controller>,
        retired: &mut Vec<u64>,
        misses: &mut Vec<u64>,
        service: &mut Vec<u64>,
    ) {
        retired.clear();
        retired.extend(cores.iter().map(Core::retired));
        misses.clear();
        misses.extend(cores.iter().map(Core::misses_issued));
        service.clear();
        service.resize(cores.len(), 0);
        for ctl in controllers {
            ctl.add_service(service);
        }
    }

    /// Snapshot of the machine for a [`SimError::Stalled`] report,
    /// attributing `controller` when known.
    pub(crate) fn stall_report<'a, I>(
        &self,
        now: Cycle,
        controller: Option<ControllerId>,
        controllers: I,
    ) -> StallReport
    where
        I: Iterator<Item = &'a Controller> + Clone,
    {
        let channels = || controllers.clone().flat_map(Controller::channels);
        StallReport {
            controller,
            now,
            last_retire: self.last_retire,
            events_since_retire: self.events_since_retire,
            outstanding: self.cores.iter().map(Core::outstanding).collect(),
            queue_depths: channels().map(|ch| ch.queue().len()).collect(),
            spill_depths: controllers
                .clone()
                .flat_map(|ctl| ctl.spill.iter().map(VecDeque::len))
                .collect(),
            busy_banks: channels().map(Channel::busy_bank_count).collect(),
        }
    }

    /// The run's results at `horizon`; also absorbs the final counters,
    /// `events` among them, into `telemetry`'s registry when it is
    /// enabled.
    pub(crate) fn collect<'a, I>(
        &self,
        horizon: Cycle,
        controllers: I,
        events: EventCounts,
        telemetry: &Telemetry,
    ) -> RunResult
    where
        I: Iterator<Item = &'a Controller> + Clone,
    {
        let (mut retired, mut misses, mut service) = (Vec::new(), Vec::new(), Vec::new());
        Self::view_into(
            &self.cores,
            controllers.clone(),
            &mut retired,
            &mut misses,
            &mut service,
        );
        let ipc = retired
            .iter()
            .map(|&r| r as f64 / horizon.max(1) as f64)
            .collect();
        let channels = || controllers.clone().flat_map(Controller::channels);
        let total_serviced: u64 = channels().map(|c| c.stats().total_serviced()).sum();
        let total_hits: u64 = channels().map(|c| c.stats().total_row_hits()).sum();
        let result = RunResult {
            cycles: horizon,
            retired,
            ipc,
            misses,
            service,
            total_serviced,
            row_hit_rate: if total_serviced == 0 {
                0.0
            } else {
                total_hits as f64 / total_serviced as f64
            },
            spilled: controllers.clone().map(|c| c.spilled).sum(),
            peak_queue: channels()
                .map(|c| c.stats().peak_queue_depth)
                .max()
                .unwrap_or(0),
        };
        if telemetry.is_enabled() {
            absorb_metrics(telemetry, &result, controllers, events, self.stale_bursts);
        }
        result
    }
}

/// Folds the run's final counters into the metrics registry (the
/// DESIGN §9 catalog): global and per-bank service counts, per-thread
/// service/miss counters, the row-hit-rate gauge (bit-equal to
/// [`RunResult::row_hit_rate`]), bus utilization, and the always-on
/// queue-depth histograms — all labeled by global channel index — plus
/// the event-loop counters. A machine with several controllers adds
/// `{controller=i}` aggregates.
fn absorb_metrics<'a, I>(
    telemetry: &Telemetry,
    run: &RunResult,
    controllers: I,
    events: EventCounts,
    stale_bursts: u64,
) where
    I: Iterator<Item = &'a Controller> + Clone,
{
    telemetry.with_metrics(|m| {
        for (kind, n) in Event::KINDS.iter().zip(events.popped) {
            m.set_counter(&labeled("events", &[("kind", kind)]), n);
        }
        m.set_counter("events_stale_bursts", stale_bursts);
        m.set_counter("event_queue_far_pushes", events.far_pushes);
        m.set_counter("requests_serviced", run.total_serviced);
        m.set_counter("requests_spilled", run.spilled);
        m.set_counter("peak_queue_depth", run.peak_queue as u64);
        m.set_gauge("row_hit_rate", run.row_hit_rate);
        let cycles = run.cycles.max(1) as f64;
        for ch in controllers.clone().flat_map(Controller::channels) {
            let stats = ch.stats();
            let cidx = ch.id().index().to_string();
            let clabel: &[(&str, &str)] = &[("channel", &cidx)];
            m.set_counter(&labeled("bus_busy_cycles", clabel), stats.bus_busy_cycles);
            m.set_gauge(
                &labeled("bus_utilization", clabel),
                stats.bus_busy_cycles as f64 / cycles,
            );
            let depths = Histogram::from_log2_counts(stats.depth_histogram());
            m.merge_histogram("queue_depth", depths.clone());
            m.merge_histogram(&labeled("queue_depth", clabel), depths);
            for (b, bank) in stats.banks().iter().enumerate() {
                let bidx = b.to_string();
                let labels: &[(&str, &str)] = &[("channel", &cidx), ("bank", &bidx)];
                m.set_counter(&labeled("requests_serviced", labels), bank.serviced);
                m.set_counter(&labeled("row_hits", labels), bank.row_hits);
                m.set_counter(&labeled("row_conflicts", labels), bank.row_conflicts);
            }
        }
        if controllers.clone().nth(1).is_some() {
            for (i, ctl) in controllers.enumerate() {
                let midx = i.to_string();
                let mlabel: &[(&str, &str)] = &[("controller", &midx)];
                let channels = ctl.channels();
                let serviced: u64 = channels.iter().map(|c| c.stats().total_serviced()).sum();
                let hits: u64 = channels.iter().map(|c| c.stats().total_row_hits()).sum();
                let busy: u64 = channels.iter().map(|c| c.stats().bus_busy_cycles).sum();
                m.set_counter(&labeled("requests_serviced", mlabel), serviced);
                m.set_counter(&labeled("bus_busy_cycles", mlabel), busy);
                m.set_gauge(
                    &labeled("bus_utilization", mlabel),
                    busy as f64 / (cycles * channels.len() as f64),
                );
                m.set_gauge(
                    &labeled("row_hit_rate", mlabel),
                    if serviced == 0 {
                        0.0
                    } else {
                        hits as f64 / serviced as f64
                    },
                );
            }
        }
        for (t, (&svc, &miss)) in run.service.iter().zip(&run.misses).enumerate() {
            let tidx = t.to_string();
            let labels: &[(&str, &str)] = &[("thread", &tidx)];
            m.set_counter(&labeled("service_cycles", labels), svc);
            m.set_counter(&labeled("misses", labels), miss);
        }
    });
}

/// Samples the periodic telemetry series (queue depth and bus
/// utilization per channel) at `now` and re-arms `next_sample` to the
/// first interval point past `now` (`Cycle::MAX` when sampling is off).
pub(crate) fn sample_series<'a>(
    telemetry: &Telemetry,
    next_sample: &mut Cycle,
    now: Cycle,
    channels: impl Iterator<Item = &'a Channel>,
) {
    let Some(interval) = telemetry.sample_interval() else {
        *next_sample = Cycle::MAX;
        return;
    };
    let mut at = if *next_sample == Cycle::MAX {
        interval
    } else {
        *next_sample
    }
    .max(interval);
    while at <= now {
        at += interval;
    }
    *next_sample = at;
    telemetry.with_metrics(|m| {
        for ch in channels {
            let idx = ch.id().index().to_string();
            let label: &[(&str, &str)] = &[("channel", &idx)];
            m.push_series(&labeled("queue_depth", label), now, ch.queue().len() as f64);
            m.push_series(
                &labeled("bus_utilization", label),
                now,
                ch.stats().bus_busy_cycles as f64 / now.max(1) as f64,
            );
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_sched::FrFcfs;

    #[test]
    fn spill_overflow_surfaces_typed_error() {
        let cfg = SystemConfig::builder().num_threads(1).build().unwrap();
        let mut ctl = Controller::new(&cfg, 0..cfg.num_channels(), Box::new(FrFcfs::new()));
        // Shrink the bound so the overflow is reachable without injecting
        // thousands of requests, then stuff one channel well past its
        // 128-entry buffer.
        ctl.spill_bound = 4;
        let addr = MemAddress::new(ChannelId::new(0), BankId::new(0), tcm_types::Row::new(0));
        for i in 0..200 {
            let req = Request::new(RequestId::new(1_000_000 + i), ThreadId::new(0), addr, 0);
            ctl.admit(req, 0);
        }
        let err = ctl
            .pending_error
            .take()
            .expect("overflow must raise an error");
        match err {
            SimError::InvariantViolation(v) => {
                assert_eq!(v.invariant, Invariant::ResourceBound);
                assert!(v.detail.contains("spill queue"), "detail: {}", v.detail);
            }
            other => panic!("expected an invariant violation, got {other}"),
        }
    }

    #[test]
    fn an_overfilled_channel_drains_its_spill_into_age_ordered_lanes() {
        let cfg = SystemConfig::builder().num_threads(2).build().unwrap();
        let policy = Box::new(tcm_sched::ParBs::new(cfg.num_threads));
        let mut ctl = Controller::new(&cfg, 0..cfg.num_channels(), policy);
        ctl.spill_bound = usize::MAX;
        let banks = cfg.banks_per_channel;
        for i in 0..200u64 {
            let bank = BankId::new(i as usize % banks);
            let addr =
                MemAddress::new(ChannelId::new(0), bank, tcm_types::Row::new(i as usize % 3));
            let req = Request::new(RequestId::new(i), ThreadId::new(i as usize % 2), addr, i);
            ctl.admit(req, i);
        }
        assert_eq!(ctl.channels()[0].queue().len(), cfg.request_buffer);
        assert_eq!(ctl.spilled, 200 - cfg.request_buffer as u64);
        let lanes_in_age_order = |ctl: &Controller| {
            (0..banks).all(|b| {
                let lane = ctl.channels()[0].pending_for_bank(BankId::new(b));
                lane.windows(2)
                    .all(|w| (w[0].issued_at, w[0].id) < (w[1].issued_at, w[1].id))
            })
        };
        assert!(lanes_in_age_order(&ctl));
        let mut events = EventQueue::new();
        let mut now = 1_000;
        while ctl.backlog() > 0 {
            for b in 0..banks {
                ctl.bank_ready(0, BankId::new(b), now, &mut events);
                assert!(lanes_in_age_order(&ctl), "lanes out of order at {now}");
            }
            now += 1_000;
        }
        assert!(ctl.spill[0].is_empty() && ctl.pending_error.is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "admitted request 4 after a higher id")]
    fn a_channel_admitting_a_lower_id_trips_the_debug_check() {
        let cfg = SystemConfig::builder().num_threads(1).build().unwrap();
        let mut ctl = Controller::new(&cfg, 0..cfg.num_channels(), Box::new(FrFcfs::new()));
        let addr = MemAddress::new(ChannelId::new(0), BankId::new(0), tcm_types::Row::new(0));
        for id in [5, 4] {
            ctl.admit(
                Request::new(RequestId::new(id), ThreadId::new(0), addr, 0),
                0,
            );
        }
    }

    #[test]
    fn controllers_address_channels_by_global_index() {
        let cfg = SystemConfig::builder().num_threads(2).build().unwrap();
        let ctl = Controller::new(&cfg, 2..4, Box::new(FrFcfs::new()));
        let ids: Vec<usize> = ctl.channels().iter().map(|ch| ch.id().index()).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(ctl.local(ChannelId::new(3)), 1);
    }
}
