//! The traced run: per-layer numbers measured from outside the engine,
//! by timing calls into public functions only.
//!
//! * Each cell is built the way the sweep builds it (through
//!   `PolicyKind::build` / `build_controller` / `build_meta`, seeded
//!   with the canonical per-workload seed) but with every scheduler and
//!   meta-controller wrapped in a timing decorator. Its `RunResult`
//!   must be bit-identical to the same cell run through the public
//!   `Session` sweep path, whose time is the untraced time.
//! * Frequent hooks (pick, enqueue, service, complete, next_tick) are
//!   timed one call in [`SAMPLE_EVERY`]; the timer work itself (tick and
//!   the exchange) on every call. The measured cost of reading the
//!   clock is subtracted from every timed call.
//! * Counts live in plain fields of each decorator and are added to a
//!   shared sink when it drops, so the hot path touches no shared state.
//!
//! Engine self time is a remainder: cell time minus scheduler hooks
//! minus the meta-controller exchange.

use crate::decl::Workload;
use crate::report::Report;
use crate::stats;
use crate::{paper, serve, Env};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tcm_chaos::FaultSpec;
use tcm_dram::ServiceOutcome;
use tcm_sched::{ClusterPlan, MetaScheduler, MonitorSample, PickContext, Scheduler, SystemView};
use tcm_sim::{MultiSystem, PolicyKind, RunConfig, RunResult, Session, System};
use tcm_telemetry::{DegradationAnomaly, Telemetry};
use tcm_types::{Cycle, Request, SimError, SystemConfig, Topology};
use tcm_workload::{table5_workloads, MachineShape, TraceGenerator, WorkloadSpec};

/// One call in this many of a frequent hook is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Calls to one hook and the time of the sampled ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hook {
    calls: u64,
    timed: u64,
    ns: u64,
}

impl Hook {
    #[inline]
    fn sampled<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let sample = self.calls.is_multiple_of(SAMPLE_EVERY);
        self.calls += 1;
        if sample {
            self.time(f)
        } else {
            f()
        }
    }

    #[inline]
    fn always<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        self.time(f)
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.timed += 1;
        r
    }

    fn merge(&mut self, other: &Hook) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
    }

    /// Mean time of one call, less the clock's own cost.
    pub fn mean_ns(&self, timer_ns: f64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.ns as f64 / self.timed as f64 - timer_ns).max(0.0)
        }
    }

    /// Estimated time of every call, sampled or not.
    pub fn busy_s(&self, timer_ns: f64) -> f64 {
        self.mean_ns(timer_ns) * self.calls as f64 / 1e9
    }
}

/// Every hook of one scheduling policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedHooks {
    pick: Hook,
    enqueue: Hook,
    service: Hook,
    complete: Hook,
    next_tick: Hook,
    tick: Hook,
    /// `quantum_exchange` and `apply_broadcast`: the controller side of
    /// the §5.3 exchange, accounted to the meta layer.
    exchange: Hook,
}

impl SchedHooks {
    fn merge(&mut self, o: &SchedHooks) {
        self.pick.merge(&o.pick);
        self.enqueue.merge(&o.enqueue);
        self.service.merge(&o.service);
        self.complete.merge(&o.complete);
        self.next_tick.merge(&o.next_tick);
        self.tick.merge(&o.tick);
        self.exchange.merge(&o.exchange);
    }

    /// Time in the policy's own scheduling hooks.
    fn busy_s(&self, timer_ns: f64) -> f64 {
        [
            self.pick,
            self.enqueue,
            self.service,
            self.complete,
            self.next_tick,
            self.tick,
        ]
        .iter()
        .map(|h| h.busy_s(timer_ns))
        .sum()
    }
}

/// What every decorator of one traced run adds up to, per policy of
/// the lineup (indexed like [`crate::decl::POLICIES`]).
#[derive(Debug, Default)]
pub struct Totals {
    sched: [SchedHooks; 5],
    meta: Hook,
}

impl Totals {
    /// Time in the §5.3 exchange: the meta-controller plus each
    /// controller's harvest and broadcast.
    fn exchange_s(&self, timer_ns: f64) -> f64 {
        self.meta.busy_s(timer_ns)
            + self
                .sched
                .iter()
                .map(|s| s.exchange.busy_s(timer_ns))
                .sum::<f64>()
    }
}

type Sink = Arc<Mutex<Totals>>;

fn lock(sink: &Sink) -> std::sync::MutexGuard<'_, Totals> {
    sink.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Index of a lineup policy in [`crate::decl::POLICIES`].
fn policy_index(policy: &PolicyKind) -> usize {
    match policy {
        PolicyKind::FrFcfs => 0,
        PolicyKind::Stfm(_) => 1,
        PolicyKind::ParBs(_) => 2,
        PolicyKind::Atlas(_) => 3,
        PolicyKind::Tcm(_) => 4,
        PolicyKind::Fcfs | PolicyKind::FairQueueing => {
            unreachable!("only the paper lineup is traced")
        }
    }
}

/// A scheduler that forwards every hook and times it.
#[derive(Debug)]
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    hooks: SchedHooks,
    /// `next_tick` takes `&self`.
    next_tick: std::cell::Cell<Hook>,
    policy: usize,
    sink: Sink,
}

impl TimedScheduler {
    fn boxed(inner: Box<dyn Scheduler>, policy: usize, sink: &Sink) -> Box<dyn Scheduler> {
        Box::new(Self {
            inner,
            hooks: SchedHooks::default(),
            next_tick: std::cell::Cell::default(),
            policy,
            sink: Arc::clone(sink),
        })
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        self.hooks.next_tick = self.next_tick.get();
        lock(&self.sink).sched[self.policy].merge(&self.hooks);
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        let inner = &mut self.inner;
        self.hooks.pick.sampled(|| inner.pick(pending, ctx))
    }

    fn on_enqueue(&mut self, req: &Request, now: Cycle) {
        let inner = &mut self.inner;
        self.hooks.enqueue.sampled(|| inner.on_enqueue(req, now))
    }

    fn on_service(&mut self, outcome: &ServiceOutcome, remaining: &[Request], now: Cycle) {
        let inner = &mut self.inner;
        self.hooks
            .service
            .sampled(|| inner.on_service(outcome, remaining, now))
    }

    fn on_complete(&mut self, req: &Request, now: Cycle) {
        let inner = &mut self.inner;
        self.hooks.complete.sampled(|| inner.on_complete(req, now))
    }

    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        let mut hook = self.next_tick.get();
        let at = hook.sampled(|| self.inner.next_tick(now));
        self.next_tick.set(hook);
        at
    }

    fn tick(&mut self, now: Cycle, view: &SystemView<'_>) {
        let inner = &mut self.inner;
        self.hooks.tick.always(|| inner.tick(now, view))
    }

    fn set_thread_weights(&mut self, weights: &[f64]) {
        self.inner.set_thread_weights(weights)
    }

    fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
        self.inner.inject_monitor_fault(fault)
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry)
    }

    fn degradation_events(&self) -> &[DegradationAnomaly] {
        self.inner.degradation_events()
    }

    fn quantum_exchange(&mut self, now: Cycle) -> Option<MonitorSample> {
        let inner = &mut self.inner;
        self.hooks.exchange.always(|| inner.quantum_exchange(now))
    }

    fn apply_broadcast(&mut self, plan: &ClusterPlan, now: Cycle) {
        let inner = &mut self.inner;
        self.hooks
            .exchange
            .always(|| inner.apply_broadcast(plan, now))
    }
}

/// A meta-controller that forwards every hook and times `exchange`.
#[derive(Debug)]
struct TimedMeta {
    inner: Box<dyn MetaScheduler>,
    exchange: Hook,
    sink: Sink,
}

impl Drop for TimedMeta {
    fn drop(&mut self) {
        lock(&self.sink).meta.merge(&self.exchange);
    }
}

impl MetaScheduler for TimedMeta {
    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_tick(now)
    }

    fn needs_samples(&self, now: Cycle) -> bool {
        self.inner.needs_samples(now)
    }

    fn set_thread_weights(&mut self, weights: &[f64]) {
        self.inner.set_thread_weights(weights)
    }

    fn exchange(
        &mut self,
        now: Cycle,
        view: &SystemView<'_>,
        samples: &[Option<MonitorSample>],
    ) -> ClusterPlan {
        let inner = &mut self.inner;
        self.exchange.always(|| inner.exchange(now, view, samples))
    }

    fn degradation_events(&self) -> &[DegradationAnomaly] {
        self.inner.degradation_events()
    }

    fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
        self.inner.inject_monitor_fault(fault)
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry)
    }
}

/// What every timed call over-reports: the time measured around
/// nothing (`Instant::now` then `elapsed`), as the mean of the middle
/// half of many samples (robust to preemption, and not rounded to the
/// clock's whole nanoseconds).
pub fn calibrate_timer_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let t = Instant::now();
            black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let middle = &samples[samples.len() / 4..samples.len() * 3 / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The simulator seed a sweep gives `workload` on seed axis value
/// `seed`: FNV-1a of the workload name, xor the seed (the sweep's own
/// function is private; bit-identity with the sweep proves this one).
fn cell_seed(workload: &WorkloadSpec, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload.name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ seed
}

/// Runs one cell directly on the engine, decorated when a sink is
/// given; returns its time (construction included) and result.
fn run_cell(
    rc: &RunConfig,
    policy: &PolicyKind,
    workload: &WorkloadSpec,
    seed: u64,
    sink: Option<&Sink>,
) -> (f64, Result<RunResult, SimError>) {
    let cfg = &rc.system;
    let n = workload.threads.len();
    let key = policy_index(policy);
    let wrap = |s: Box<dyn Scheduler>| match sink {
        Some(sink) => TimedScheduler::boxed(s, key, sink),
        None => s,
    };
    let t = Instant::now();
    let result = if cfg.topology.num_controllers() > 1 {
        let controllers = (0..cfg.topology.num_controllers())
            .map(|_| wrap(policy.build_controller(n, cfg)))
            .collect();
        let meta = policy.build_meta(n, cfg).map(|inner| match sink {
            Some(sink) => Box::new(TimedMeta {
                inner,
                exchange: Hook::default(),
                sink: Arc::clone(sink),
            }) as Box<dyn MetaScheduler>,
            None => inner,
        });
        let mut sys = MultiSystem::new(cfg, workload, controllers, meta, seed);
        sys.set_hosts(rc.intra_hosts);
        sys.set_watchdog(rc.watchdog);
        sys.try_run(rc.horizon)
    } else {
        let mut sys = System::new(cfg, workload, wrap(policy.build(n, cfg)), seed);
        sys.set_watchdog(rc.watchdog);
        sys.try_run(rc.horizon)
    };
    (t.elapsed().as_secs_f64(), result)
}

/// Re-times trace generation: each thread's generator, seeded as the
/// engine seeds it, produces that thread's `misses` accesses.
fn retime_generators(
    cfg: &SystemConfig,
    workload: &WorkloadSpec,
    seed: u64,
    misses: &[u64],
) -> (f64, u64) {
    let shape = MachineShape::from(cfg);
    let (mut secs, mut accesses) = (0.0, 0u64);
    let mut burst = Vec::new();
    for (i, profile) in workload.threads.iter().enumerate() {
        if TraceGenerator::is_compute_only(profile) {
            continue;
        }
        let mut gen = TraceGenerator::new(
            profile,
            shape,
            seed.wrapping_mul(1000).wrapping_add(i as u64),
        );
        let target = misses.get(i).copied().unwrap_or(0);
        let mut produced = 0u64;
        let t = Instant::now();
        while produced < target {
            black_box(gen.next_burst_into(&mut burst));
            produced += burst.len() as u64;
        }
        secs += t.elapsed().as_secs_f64();
        accesses += produced;
    }
    (secs, accesses)
}

/// A policies × workloads × seeds grid on one machine.
struct Grid {
    rc: RunConfig,
    policies: Vec<PolicyKind>,
    workloads: Vec<WorkloadSpec>,
    seeds: Vec<u64>,
}

/// The traced grid: the workload's own cells. paper-*: the paper lineup
/// × Table 5 A–D on the workload's machine. serve-*: the first job's
/// grid (FR-FCFS and TCM × its mix × seeds 0,1).
fn grid(env: &Env, workload: Workload) -> Grid {
    match workload {
        Workload::PaperFlat | Workload::Paper2x2 => {
            let mut system = SystemConfig::paper_baseline();
            let mut hosts = 1;
            if workload == Workload::Paper2x2 {
                system.topology = Topology::parse("2x2").expect("2x2 is a valid topology");
                hosts = 2;
            }
            Grid {
                rc: RunConfig::builder()
                    .system(system)
                    .horizon(env.paper_cycles())
                    .intra_hosts(hosts)
                    .build(),
                policies: PolicyKind::paper_lineup(24),
                workloads: table5_workloads(),
                seeds: vec![0],
            }
        }
        Workload::ServeStream | Workload::ServeRecover => {
            let resolved = tcm_serve::job::resolve_sweep(&serve::sweep_spec(env, 0))
                .expect("the benchmark's job spec resolves");
            Grid {
                rc: serve::job_session(&resolved).run_config().clone(),
                policies: resolved.policies,
                workloads: resolved.workloads,
                seeds: resolved.seeds,
            }
        }
    }
}

/// What running a grid's cells traced and untraced measured.
#[derive(Debug, Default)]
struct Cells {
    traced_s: f64,
    /// Each cell's traced time over its untraced time.
    slowdowns: Vec<f64>,
    gen_s: f64,
    requests: u64,
    accesses: u64,
    peak_queue: usize,
}

/// Runs every cell of `grid` decorated into `sink` and through
/// `session`'s sweep, alternating which goes first. A cell whose traced
/// result is not bit-identical to the sweep's counts as failed work.
fn run_cells(grid: &Grid, session: &Session, sink: &Sink, report: &mut Report) -> Cells {
    let mut out = Cells::default();
    let (mut cells, mut identical) = (0u64, 0u64);
    for p in &grid.policies {
        for w in &grid.workloads {
            for &s in &grid.seeds {
                let untraced = || {
                    let t = Instant::now();
                    let result = session
                        .sweep()
                        .policies([p.clone()])
                        .workloads([w.clone()])
                        .seeds([s])
                        .run();
                    (
                        t.elapsed().as_secs_f64(),
                        result.cells().first().map(|c| c.result.run.clone()),
                    )
                };
                let traced = || run_cell(&grid.rc, p, w, cell_seed(w, s), Some(sink));
                let ((ut, reference), (tt, run)) = if cells % 2 == 0 {
                    let u = untraced();
                    (u, traced())
                } else {
                    let t = traced();
                    (untraced(), t)
                };
                cells += 1;
                out.traced_s += tt;
                out.slowdowns.push(tt / ut.max(f64::MIN_POSITIVE));
                match (reference, run) {
                    (Some(reference), Ok(run)) if reference == run => {
                        identical += 1;
                        out.requests += run.total_serviced;
                        out.peak_queue = out.peak_queue.max(run.peak_queue);
                        let (secs, n) =
                            retime_generators(&grid.rc.system, w, cell_seed(w, s), &run.misses);
                        out.gen_s += secs;
                        out.accesses += n;
                    }
                    (_, run) => eprintln!(
                        "traced {} × {} seed {s} differs from the sweep ({})",
                        p.label(),
                        w.name,
                        run.err().map_or("results differ".into(), |e| e.to_string())
                    ),
                }
            }
        }
    }
    report.work(cells, cells - identical);
    out
}

/// `sched.<p>.*` for every lineup policy that ran into `totals`.
fn report_sched(totals: &Totals, timer_ns: f64, report: &mut Report) {
    for (i, name) in crate::decl::POLICIES.iter().enumerate() {
        let hooks = &totals.sched[i];
        if hooks.pick.calls == 0 {
            continue;
        }
        report.set(&format!("sched.{name}.busy_s"), hooks.busy_s(timer_ns));
        report.set(
            &format!("sched.{name}.pick_ns"),
            hooks.pick.mean_ns(timer_ns),
        );
        report.set(&format!("sched.{name}.picks"), hooks.pick.calls as f64);
    }
}

/// `core.meta.*`: the §5.3 exchange that ran into `totals`.
fn report_meta(totals: &Totals, timer_ns: f64, report: &mut Report) {
    report.set("core.meta.exchange_s", totals.exchange_s(timer_ns));
    report.set("core.meta.exchanges", totals.meta.calls as f64);
}

/// Traces every cell of `grid` and records the sim, sched, core and
/// workload layers. Returns the largest `peak_queue` and the grid's
/// untraced time the split accounts for: (alone + traced cells) /
/// (1 + overhead). The overhead is the median cell's, so that a cell the
/// machine slowed in one of its two runs does not set it.
fn trace_grid(grid: &Grid, timer_ns: f64, report: &mut Report) -> (usize, f64) {
    let session = Session::new(grid.rc.clone());
    let t = Instant::now();
    session.prepopulate_alone(&grid.workloads);
    let alone_s = t.elapsed().as_secs_f64();
    report.set("sim.alone.busy_s", alone_s);
    report.set("sim.alone.runs", session.alone_cache().misses() as f64);

    let sink = Sink::default();
    let c = run_cells(grid, &session, &sink, report);
    let totals = lock(&sink);
    let sched_s: f64 = totals.sched.iter().map(|s| s.busy_s(timer_ns)).sum();
    let engine_s = c.traced_s - sched_s - totals.exchange_s(timer_ns);
    report.set("sim.cells.busy_s", c.traced_s);
    report.set("sim.engine.self_s", engine_s);
    report.set(
        "sim.engine.ns_per_request",
        engine_s * 1e9 / c.requests.max(1) as f64,
    );
    report.set("sim.requests", c.requests as f64);
    report.set(
        "workload.gen.ns_per_access",
        c.gen_s * 1e9 / c.accesses.max(1) as f64,
    );
    report_sched(&totals, timer_ns, report);
    if grid.rc.system.topology.num_controllers() > 1 {
        report_meta(&totals, timer_ns, report);
    }
    // TCM's quantum and shuffle timer work: the policy's own tick on a
    // flat machine, the meta-controller's exchange on a multi one.
    report.set(
        "core.tcm.tick_s",
        totals.sched[4].tick.busy_s(timer_ns) + totals.meta.busy_s(timer_ns),
    );
    let slowdown = stats::median(&c.slowdowns).unwrap_or(1.0);
    report.set("trace.overhead_pct", (slowdown - 1.0) * 100.0);
    (c.peak_queue, (alone_s + c.traced_s) / slowdown)
}

/// The lineup policies a serve job does not run (STFM, PAR-BS, ATLAS),
/// traced on the job's grid. A serve workload never runs them; this
/// probe exists only so that its `sched.*` rows carry a measured value.
fn probe_other_policies(grid: &Grid, timer_ns: f64, report: &mut Report) {
    let threads = grid.rc.system.num_threads;
    let others = Grid {
        rc: grid.rc.clone(),
        policies: PolicyKind::paper_lineup(threads)
            .into_iter()
            .filter(|p| !grid.policies.contains(p))
            .collect(),
        workloads: grid.workloads.clone(),
        seeds: grid.seeds.clone(),
    };
    let session = Session::new(others.rc.clone());
    session.prepopulate_alone(&others.workloads);
    let sink = Sink::default();
    run_cells(&others, &session, &sink, report);
    report_sched(&lock(&sink), timer_ns, report);
}

/// Host sharding on workload B on the 2x2 machine: FR-FCFS and TCM on
/// one and on two host threads (the ratio of their times is the
/// scaling). With `meta`, TCM runs once more decorated for the §5.3
/// exchange.
fn probe_2x2(horizon: u64, meta: bool, timer_ns: f64, report: &mut Report) {
    let mut system = SystemConfig::paper_baseline();
    system.topology = Topology::parse("2x2").expect("2x2 is a valid topology");
    let b = table5_workloads()
        .into_iter()
        .find(|w| w.name == "B")
        .expect("Table 5 has workload B");
    let seed = cell_seed(&b, 0);
    let rc = |hosts| {
        RunConfig::builder()
            .system(system.clone())
            .horizon(horizon)
            .intra_hosts(hosts)
            .build()
    };
    let (one, two) = (rc(1), rc(2));
    let (mut t1, mut t2, mut same) = (0.0, 0.0, true);
    let tcm = PolicyKind::paper_lineup(24)
        .pop()
        .expect("lineup ends with TCM");
    for policy in [PolicyKind::FrFcfs, tcm.clone()] {
        let (a, ra) = run_cell(&one, &policy, &b, seed, None);
        let (c, rc2) = run_cell(&two, &policy, &b, seed, None);
        t1 += a;
        t2 += c;
        same &= matches!((&ra, &rc2), (Ok(x), Ok(y)) if x == y);
        if meta && matches!(policy, PolicyKind::Tcm(_)) {
            let sink = Sink::default();
            let (_, rt) = run_cell(&one, &policy, &b, seed, Some(&sink));
            same &= matches!((&ra, &rt), (Ok(x), Ok(y)) if x == y);
            report_meta(&lock(&sink), timer_ns, report);
        }
    }
    report.check(
        "2x2 probe results are identical on 1 and 2 hosts and when decorated",
        same,
    );
    report.set("sim.multi.host_scaling", t1 / t2.max(f64::MIN_POSITIVE));
}

/// A serve job's in-process costs, on the first job's grid:
/// * its alone baselines, each time from a fresh `Session`;
/// * the engine's checkpoint cost per cell: the same sweep with and
///   without a checkpoint, alternating, at 1/100 of the job's horizon
///   so that cell compute (whose noise would swamp a millisecond of
///   I/O) is small; the checkpoint record is the same at any horizon;
/// * the result publish: `render_result` + `write_durable`.
fn probe_checkpoint(env: &Env, report: &mut Report) {
    const REPS: usize = 15;
    let mut resolved = tcm_serve::job::resolve_sweep(&serve::sweep_spec(env, 0))
        .expect("the benchmark's job spec resolves");
    let alone_ms: Vec<f64> = (0..5)
        .map(|_| {
            let session = serve::job_session(&resolved);
            let t = Instant::now();
            session.prepopulate_alone(&resolved.workloads);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.median("serve.alone_ms", &alone_ms);
    resolved.horizon /= 100;
    let session = serve::job_session(&resolved);
    session.prepopulate_alone(&resolved.workloads);
    let dir = match env.dir("probe-checkpoint") {
        Ok(dir) => dir,
        Err(e) => return report.error(&e, 1),
    };
    let ckpt = dir.join("ckpt.jsonl");
    let sweep = || {
        session
            .sweep()
            .policies(resolved.policies.iter().cloned())
            .workloads(resolved.workloads.iter().cloned())
            .seeds(resolved.seeds.iter().copied())
    };
    let (mut with, mut without, mut same) = (Vec::new(), Vec::new(), true);
    let mut last = None;
    for rep in 0..REPS {
        let _ = std::fs::remove_file(&ckpt);
        let timed = |checkpoint: bool| {
            let t = Instant::now();
            let result = if checkpoint {
                sweep().checkpoint(&ckpt).run()
            } else {
                sweep().run()
            };
            (t.elapsed().as_secs_f64(), result)
        };
        let ((tw, a), (to, b)) = if rep % 2 == 0 {
            let a = timed(true);
            (a, timed(false))
        } else {
            let b = timed(false);
            (timed(true), b)
        };
        with.push(tw);
        without.push(to);
        same &= a.is_complete() && a.cells() == b.cells();
        last = Some(b);
    }
    report.check("checkpointed and plain sweeps agree", same);
    let cells = (resolved.policies.len() * resolved.seeds.len()) as f64;
    if let (Some(w), Some(wo)) = (stats::median(&with), stats::median(&without)) {
        report.set("sim.checkpoint.cell_ms", (w - wo) / cells * 1e3);
    }
    if let Some(result) = last {
        let path = dir.join("result.json");
        let mut publish = Vec::new();
        for _ in 0..9 {
            let t = Instant::now();
            let text = tcm_serve::job::render_result(&result);
            if let Err(e) = tcm_serve::job::write_durable(&path, &text) {
                return report.error(&format!("write_durable: {e}"), 1);
            }
            publish.push(t.elapsed().as_secs_f64() * 1e3);
        }
        report.median("serve.result.publish_ms", &publish);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The traced run of `workload`.
///
/// Its own layers are measured at full size from its own cells: the
/// traced grid; on paper-2x2 host sharding at the paper horizon; on
/// serve-* the checkpoint probe and the daemon rounds. Every declared
/// per-layer metric must still carry a measured value, so the layers
/// the workload never runs are measured too, from the smallest probes
/// that run them: the 2x2 probe at the serve horizon (paper-flat,
/// serve-*), the other lineup policies on the job grid (serve-*), and
/// the checkpoint probe and a few daemon jobs (paper-*). Read such a
/// metric from the workload it belongs to (see perf/README.md).
///
/// paper-* ends with one untraced `tcm-run` round whose peak queue
/// depth must equal the traced maximum.
pub fn run(env: &Env, workload: Workload, report: &mut Report) {
    let timer_ns = calibrate_timer_ns();
    report.set("trace.timer_ns", timer_ns);
    let grid = grid(env, workload);
    let (peak_queue, accounted_s) = trace_grid(&grid, timer_ns, report);
    if workload == Workload::Paper2x2 {
        probe_2x2(grid.rc.horizon, false, timer_ns, report);
    } else {
        probe_2x2(env.serve_cycles(), true, timer_ns, report);
    }
    probe_checkpoint(env, report);
    if matches!(workload, Workload::ServeStream | Workload::ServeRecover) {
        probe_other_policies(&grid, timer_ns, report);
        return serve::probe(env, serve::recover_jobs(env), report);
    }
    serve::probe(env, serve::FOREIGN_JOBS, report);
    match paper::round(env, workload) {
        Ok(round) => {
            report.check(
                "tcm-run's peak_queue_depth equals the traced maximum peak_queue",
                round.peak_queue == peak_queue as u64,
            );
            // paper-2x2's sweep runs one cell at a time, so the split
            // should account for an untraced round's wall time.
            if workload == Workload::Paper2x2 {
                println!(
                    "split: (alone + cells) / (1 + overhead) = {accounted_s:.3}s vs \
                     an untraced round's {:.3}s ({:+.1}%)",
                    round.wall,
                    (accounted_s - round.wall) / round.wall * 100.0
                );
            }
        }
        Err(e) => report.error(&e, paper::CELLS),
    }
}
