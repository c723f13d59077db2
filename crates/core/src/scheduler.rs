//! The TCM scheduling policy for a one-controller machine: one
//! [`TcmController`] plus one [`MetaController`], exchanging at every
//! quantum and shuffle boundary exactly as the paper's §5.3 design does
//! across many controllers.

use crate::meta::{MetaController, TcmController};
use crate::params::{ShuffleMode, TcmParams};
use tcm_chaos::FaultSpec;
use tcm_dram::ServiceOutcome;
use tcm_sched::{MetaScheduler, PickContext, Scheduler, SystemView};
use tcm_telemetry::{DegradationAnomaly, Telemetry};
use tcm_types::{Cycle, Request, SystemConfig};

/// Thread Cluster Memory scheduling.
///
/// Every quantum (1 M cycles): harvest the monitors, split threads into
/// the latency-sensitive and bandwidth-sensitive clusters
/// ([`cluster_threads`](crate::cluster_threads)), compute niceness for
/// the bandwidth cluster and pick a shuffling algorithm (insertion when
/// the cluster is diverse enough in BLP and RBL, random otherwise).
/// Every `ShuffleInterval` (800 cycles): advance the bandwidth cluster's
/// shuffler. Request prioritization is the paper's Algorithm 3: thread
/// rank first (latency cluster above bandwidth cluster; within latency,
/// ascending weight-scaled MPKI; within bandwidth, the shuffled order),
/// then row-hit, then age.
///
/// One `Tcm` arbitrates all channels of a one-controller machine. It is
/// the §5.3 split with one controller: its timer tick harvests the
/// controller's [`MonitorSample`](tcm_sched::MonitorSample) when a
/// quantum is due, runs the meta-controller's exchange and installs the
/// broadcast ranking.
#[derive(Debug)]
pub struct Tcm {
    controller: TcmController,
    meta: MetaController,
}

impl Tcm {
    /// Creates TCM with the paper's defaults for an `num_threads`-thread
    /// system on the paper's baseline memory topology (4 channels × 4
    /// banks).
    pub fn new(num_threads: usize) -> Self {
        Self::with_params(
            TcmParams::paper_default(num_threads),
            num_threads,
            &SystemConfig::paper_baseline(),
        )
    }

    /// Creates TCM with explicit parameters for a given machine shape.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation (see [`TcmParams::validate`]).
    pub fn with_params(params: TcmParams, num_threads: usize, config: &SystemConfig) -> Self {
        Self {
            controller: TcmController::new(num_threads, config),
            meta: MetaController::new(params, num_threads, config),
        }
    }

    /// The parameters in effect.
    pub fn params(&self) -> &TcmParams {
        &self.meta.core.params
    }

    /// Current per-thread priority values (higher = scheduled first).
    pub fn priorities(&self) -> &[usize] {
        self.controller.priorities()
    }

    /// Whether TCM is currently degraded to FR-FCFS ordering because the
    /// last quantum's monitor data was implausible. Clears at the next
    /// quantum boundary whose data passes the plausibility check.
    pub fn degraded(&self) -> bool {
        self.meta.core.degraded
    }
}

impl Scheduler for Tcm {
    fn name(&self) -> &'static str {
        match self.params().shuffle_mode {
            ShuffleMode::Dynamic => "TCM",
            ShuffleMode::InsertionOnly => "TCM-insertion",
            ShuffleMode::RandomOnly => "TCM-random",
            ShuffleMode::RoundRobin => "TCM-roundrobin",
            ShuffleMode::Static => "TCM-static",
        }
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        self.controller.pick(pending, ctx)
    }

    fn on_enqueue(&mut self, req: &Request, now: Cycle) {
        self.controller.on_enqueue(req, now);
    }

    fn on_service(
        &mut self,
        outcome: &ServiceOutcome,
        remaining_same_bank: &[Request],
        now: Cycle,
    ) {
        self.controller
            .on_service(outcome, remaining_same_bank, now);
    }

    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        self.meta.next_tick(now)
    }

    fn tick(&mut self, now: Cycle, view: &SystemView<'_>) {
        // A shuffle boundary harvests nothing: the sample list is empty.
        let harvest = self
            .meta
            .needs_samples(now)
            .then(|| self.controller.quantum_exchange(now));
        let plan = self.meta.exchange_in_place(now, view, harvest.as_slice());
        self.controller.apply_broadcast(plan, now);
    }

    fn set_thread_weights(&mut self, weights: &[f64]) {
        self.meta.set_thread_weights(weights);
    }

    fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
        self.meta.inject_monitor_fault(fault);
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.meta.attach_telemetry(telemetry);
    }

    fn degradation_events(&self) -> &[DegradationAnomaly] {
        self.meta.degradation_events()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tcm_chaos::FaultKind;
    use tcm_types::{BankId, ChannelId, MemAddress, RequestId, Row, ThreadId};

    fn req(id: u64, thread: usize, row: usize, at: Cycle) -> Request {
        Request::new(
            RequestId::new(id),
            ThreadId::new(thread),
            MemAddress::new(ChannelId::new(0), BankId::new(0), Row::new(row)),
            at,
        )
    }

    /// A pick context over an empty buffer: TCM reads only the pending
    /// set.
    fn ctx(now: Cycle, open_row: Option<usize>) -> PickContext<'static> {
        static EMPTY: std::sync::OnceLock<tcm_dram::RequestQueue> = std::sync::OnceLock::new();
        PickContext {
            now,
            channel: ChannelId::new(0),
            bank: BankId::new(0),
            open_row: open_row.map(Row::new),
            queue: EMPTY.get_or_init(|| tcm_dram::RequestQueue::new(0, 0)),
        }
    }

    fn small_config() -> SystemConfig {
        SystemConfig::builder()
            .num_threads(4)
            .num_channels(2)
            .banks_per_channel(2)
            .build()
            .unwrap()
    }

    /// Drives one quantum with thread 0 light and thread 1..=3 heavy.
    fn tcm_after_one_quantum() -> Tcm {
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        // Simulated counters: thread 0 retired a lot with few misses;
        // the rest are memory-bound with heavy service.
        let retired = [3_000_000u64, 200_000, 200_000, 200_000];
        let misses = [30u64, 20_000, 20_000, 20_000];
        let service = [2_000u64, 300_000, 300_000, 300_000];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        tcm
    }

    #[test]
    fn before_first_quantum_tcm_is_frfcfs() {
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &small_config(),
        );
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 9, 100)];
        assert_eq!(tcm.pick(&pending, &ctx(200, Some(9))), 1, "row hit");
        assert_eq!(tcm.pick(&pending, &ctx(200, None)), 0, "age");
    }

    #[test]
    fn light_thread_lands_in_latency_cluster_and_outranks_everyone() {
        let mut tcm = tcm_after_one_quantum();
        let c = tcm.meta.core.clustering.clone();
        assert!(c.latency.contains(&ThreadId::new(0)));
        assert_eq!(c.bandwidth.len(), 3);
        // Even a row-hit from a heavy thread loses to the light thread.
        let pending = vec![req(0, 1, 9, 0), req(1, 0, 1, 500)];
        assert_eq!(tcm.pick(&pending, &ctx(600, Some(9))), 1);
    }

    #[test]
    fn bandwidth_cluster_priorities_change_across_shuffles() {
        let mut tcm = tcm_after_one_quantum();
        let view_arrays = ([0u64; 4], [0u64; 4], [0u64; 4]);
        let view = SystemView {
            retired: &view_arrays.0,
            misses: &view_arrays.1,
            service: &view_arrays.2,
        };
        let mut orders = std::collections::HashSet::new();
        let mut t = 1_000_000;
        for _ in 0..12 {
            t += tcm.params().shuffle_interval;
            tcm.tick(t, &view);
            let bw_prios: Vec<usize> = (1..4).map(|i| tcm.priorities()[i]).collect();
            orders.insert(bw_prios);
        }
        assert!(orders.len() >= 2, "shuffling must change the order");
    }

    #[test]
    fn latency_cluster_always_above_bandwidth_cluster() {
        let tcm = tcm_after_one_quantum();
        let prio = tcm.priorities();
        let min_latency = tcm
            .meta
            .core
            .clustering
            .latency
            .iter()
            .map(|t| prio[t.index()])
            .min()
            .unwrap();
        let max_bandwidth = tcm
            .meta
            .core
            .clustering
            .bandwidth
            .iter()
            .map(|t| prio[t.index()])
            .max()
            .unwrap();
        assert!(min_latency > max_bandwidth);
    }

    #[test]
    fn homogeneous_cluster_falls_back_to_random_shuffle() {
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        // No enqueues at all: BLP and RBL are flat across threads.
        let retired = [100_000u64; 4];
        let misses = [10_000u64; 4];
        let service = [100_000u64; 4];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        assert_eq!(
            (tcm.meta.core.insertion_quanta, tcm.meta.core.random_quanta),
            (0, 1),
            "random shuffle chosen"
        );
    }

    #[test]
    fn diverse_cluster_uses_insertion_shuffle() {
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        // Feed the monitor diverse access behavior: thread 1 streams one
        // bank with one row; thread 2 sprays all four banks with new rows.
        use tcm_types::GlobalBank;
        let gb = |c: usize, b: usize| GlobalBank::new(ChannelId::new(c), BankId::new(b));
        for i in 0..100u64 {
            tcm.controller
                .monitor
                .on_enqueue(ThreadId::new(1), gb(0, 0), Row::new(5), i * 100);
            tcm.controller
                .monitor
                .on_service(ThreadId::new(1), gb(0, 0), i * 100 + 50);
            for (j, bank) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
                tcm.controller.monitor.on_enqueue(
                    ThreadId::new(2),
                    gb(bank.0, bank.1),
                    Row::new((i as usize) * 4 + j),
                    i * 100,
                );
            }
            for bank in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                tcm.controller.monitor.on_service(
                    ThreadId::new(2),
                    gb(bank.0, bank.1),
                    i * 100 + 90,
                );
            }
        }
        let retired = [100_000u64; 4];
        let misses = [10_000u64; 4];
        let service = [100_000u64; 4];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        assert_eq!(
            (tcm.meta.core.insertion_quanta, tcm.meta.core.random_quanta),
            (1, 0),
            "insertion shuffle chosen"
        );
    }

    #[test]
    fn weights_switch_to_weighted_shuffling() {
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        tcm.set_thread_weights(&[1.0, 1.0, 1.0, 16.0]);
        let retired = [100_000u64; 4];
        // Thread 3 is so intensive that even its weight-scaled MPKI keeps
        // it in the bandwidth cluster.
        let misses = [10_000u64, 10_000, 10_000, 1_000_000];
        let service = [100_000u64; 4];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        // Heavy-weight thread should occupy the top of the bandwidth
        // cluster most intervals.
        let mut top3 = 0;
        let mut t = 1_000_000;
        for _ in 0..200 {
            t += 800;
            tcm.tick(t, &view);
            let bw: Vec<_> = tcm.meta.core.clustering.bandwidth.clone();
            if let Some(best) = bw.iter().max_by_key(|th| tcm.priorities()[th.index()]) {
                if best.index() == 3 {
                    top3 += 1;
                }
            }
        }
        assert!(top3 > 120, "weight-16 thread topped {top3}/200 intervals");
    }

    #[test]
    fn tick_scheduling_interleaves_quanta_and_shuffles() {
        let tcm = Tcm::with_params(TcmParams::paper_default(4), 4, &small_config());
        assert_eq!(tcm.next_tick(0), Some(800));
        let t2 = tcm_after_one_quantum();
        // Right after a quantum at 1M, the next event is a shuffle.
        assert_eq!(t2.next_tick(1_000_000), Some(1_000_800));
    }

    #[test]
    fn monitor_corruption_degrades_to_frfcfs_and_recovers() {
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        tcm.inject_monitor_fault(
            &FaultSpec::new(FaultKind::MonitorCorruption, 500_000).on_thread(1),
        );
        let retired = [3_000_000u64, 200_000, 200_000, 200_000];
        let misses = [30u64, 20_000, 20_000, 20_000];
        let service = [2_000u64, 300_000, 300_000, 300_000];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        assert!(tcm.degraded(), "corrupted counters must trip the guard");
        assert!(
            tcm.priorities().iter().all(|&p| p == 0),
            "degraded ranks must all tie at 0 (FR-FCFS)"
        );
        assert_eq!(tcm.degradation_events().len(), 1);
        assert!(
            tcm.degradation_events()[0]
                .to_string()
                .contains("implausible monitor data"),
            "anomaly: {}",
            tcm.degradation_events()[0]
        );
        // While degraded, pick degenerates to FR-FCFS: row hit wins even
        // for a heavy thread, and shuffle boundaries change nothing.
        let pending = vec![req(0, 1, 9, 0), req(1, 0, 1, 500)];
        assert_eq!(tcm.pick(&pending, &ctx(1_000_600, Some(9))), 0);
        tcm.tick(1_000_800, &view);
        assert!(tcm.priorities().iter().all(|&p| p == 0));
        // The fault fired once; the next quantum's data is plausible
        // again and full TCM behavior resumes.
        tcm.tick(2_000_000, &view);
        assert!(!tcm.degraded(), "must recover at the next clean quantum");
        assert!(tcm.priorities().iter().any(|&p| p > 0));
        assert_eq!(
            tcm.degradation_events().len(),
            1,
            "no new anomaly after recovery"
        );
    }

    #[test]
    fn monitor_fault_is_inert_until_its_cycle() {
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        // Armed far in the future: the first quantum must be unaffected.
        tcm.inject_monitor_fault(&FaultSpec::new(FaultKind::MonitorCorruption, 5_000_000));
        let retired = [3_000_000u64, 200_000, 200_000, 200_000];
        let misses = [30u64, 20_000, 20_000, 20_000];
        let service = [2_000u64, 300_000, 300_000, 300_000];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        assert!(!tcm.degraded());
        assert!(tcm.degradation_events().is_empty());
        let clean = tcm_after_one_quantum();
        assert_eq!(
            tcm.priorities(),
            clean.priorities(),
            "armed-but-idle fault is a no-op"
        );
    }

    #[test]
    fn non_monitor_faults_are_ignored_by_tcm() {
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        tcm.inject_monitor_fault(&FaultSpec::new(FaultKind::TimingViolation, 0));
        let retired = [3_000_000u64, 200_000, 200_000, 200_000];
        let misses = [30u64, 20_000, 20_000, 20_000];
        let service = [2_000u64, 300_000, 300_000, 300_000];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        assert!(!tcm.degraded());
        assert_eq!(tcm.priorities(), tcm_after_one_quantum().priorities());
    }

    #[test]
    fn infinite_mpki_is_plausible() {
        // A thread that missed without retiring reports MPKI = +inf;
        // the guard must not flag healthy-but-extreme data.
        let cfg = small_config();
        let mut tcm = Tcm::with_params(
            TcmParams::paper_default(4).with_cluster_thresh(0.25),
            4,
            &cfg,
        );
        let retired = [0u64, 200_000, 200_000, 200_000];
        let misses = [500u64, 20_000, 20_000, 20_000];
        let service = [2_000u64, 300_000, 300_000, 300_000];
        let view = SystemView {
            retired: &retired,
            misses: &misses,
            service: &service,
        };
        tcm.tick(1_000_000, &view);
        assert!(!tcm.degraded());
        assert!(tcm.degradation_events().is_empty());
    }

    #[test]
    fn name_reflects_shuffle_mode() {
        let cfg = small_config();
        let mk =
            |mode| Tcm::with_params(TcmParams::paper_default(4).with_shuffle_mode(mode), 4, &cfg);
        assert_eq!(mk(ShuffleMode::Dynamic).name(), "TCM");
        assert_eq!(mk(ShuffleMode::RoundRobin).name(), "TCM-roundrobin");
        assert_eq!(mk(ShuffleMode::RandomOnly).name(), "TCM-random");
        assert_eq!(mk(ShuffleMode::InsertionOnly).name(), "TCM-insertion");
    }

    /// The monolithic TCM this crate ran before the one-controller
    /// exchange, kept as the oracle: one instance feeds its own monitor
    /// from the hooks, snapshots it against the cumulative counters at
    /// each quantum (`quantum_snapshot`), and ranks with its own copy of
    /// the quantum/shuffle state machine. Telemetry is left out; the
    /// typed anomaly log is kept.
    mod reference {
        use crate::clustering::{cluster_threads, Clustering};
        use crate::niceness::niceness_scores;
        use crate::params::{ShuffleMode, TcmParams};
        use crate::shuffle::{
            weighted_random_permutation, InsertionShuffler, RandomShuffler, RoundRobinShuffler,
            Shuffler,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use tcm_chaos::{FaultKind, FaultSpec};
        use tcm_dram::ShadowRowBuffer;
        use tcm_sched::select::{age_key, pick_max_by_key, row_hit};
        use tcm_sched::{PickContext, SystemView};
        use tcm_telemetry::{DegradationAnomaly, MonitorCounter};
        use tcm_types::{BankId, Cycle, GlobalBank, Request, SystemConfig, ThreadId};

        struct Snapshot {
            mpki: Vec<f64>,
            bw_usage: Vec<u64>,
            rbl: Vec<f64>,
            blp: Vec<f64>,
        }

        #[derive(Clone, Copy, PartialEq)]
        enum Active {
            Insertion,
            Random,
            RoundRobin,
            WeightedRandom,
            Static,
        }

        pub(super) struct TcmReference {
            params: TcmParams,
            n: usize,
            total_banks: usize,
            banks_per_channel: usize,
            shadow: ShadowRowBuffer,
            outstanding: Vec<u32>,
            banks_active: Vec<u32>,
            blp_integral: Vec<u64>,
            busy_time: Vec<u64>,
            last_event: Vec<Cycle>,
            retired_snapshot: Vec<u64>,
            misses_snapshot: Vec<u64>,
            service_snapshot: Vec<u64>,
            weights: Vec<f64>,
            pub(super) priority: Vec<usize>,
            pub(super) clustering: Clustering,
            shuffler: Option<Shuffler>,
            active: Active,
            rng: StdRng,
            next_quantum: Cycle,
            next_shuffle: Cycle,
            quanta_elapsed: u64,
            pending_faults: Vec<FaultSpec>,
            pub(super) degraded: bool,
            pub(super) anomalies: Vec<DegradationAnomaly>,
        }

        impl TcmReference {
            pub(super) fn new(params: TcmParams, n: usize, config: &SystemConfig) -> Self {
                let total_banks = config.num_channels() * config.banks_per_channel;
                Self {
                    next_quantum: params.quantum,
                    next_shuffle: params.shuffle_interval,
                    params,
                    n,
                    total_banks,
                    banks_per_channel: config.banks_per_channel,
                    shadow: ShadowRowBuffer::new(n, total_banks),
                    outstanding: vec![0; n * total_banks],
                    banks_active: vec![0; n],
                    blp_integral: vec![0; n],
                    busy_time: vec![0; n],
                    last_event: vec![0; n],
                    retired_snapshot: vec![0; n],
                    misses_snapshot: vec![0; n],
                    service_snapshot: vec![0; n],
                    weights: vec![1.0; n],
                    priority: vec![0; n],
                    clustering: Clustering {
                        latency: Vec::new(),
                        bandwidth: (0..n).map(ThreadId::new).collect(),
                    },
                    shuffler: None,
                    active: Active::Random,
                    rng: StdRng::seed_from_u64(0x7C4D_15EA_5E1E_C7ED),
                    quanta_elapsed: 0,
                    pending_faults: Vec::new(),
                    degraded: false,
                    anomalies: Vec::new(),
                }
            }

            pub(super) fn set_thread_weights(&mut self, weights: &[f64]) {
                for (w, &v) in self.weights.iter_mut().zip(weights) {
                    *w = v.max(f64::MIN_POSITIVE);
                }
            }

            pub(super) fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
                if fault.kind == FaultKind::MonitorCorruption {
                    self.pending_faults.push(*fault);
                }
            }

            pub(super) fn pick(&self, pending: &[Request], ctx: &PickContext) -> usize {
                pick_max_by_key(pending, |r| {
                    (
                        self.priority.get(r.thread.index()).copied().unwrap_or(0),
                        row_hit(r, ctx.open_row),
                        age_key(r),
                    )
                })
            }

            fn settle(&mut self, t: usize, now: Cycle) {
                let dt = now.saturating_sub(self.last_event[t]);
                if self.banks_active[t] > 0 && dt > 0 {
                    self.blp_integral[t] += self.banks_active[t] as u64 * dt;
                    self.busy_time[t] += dt;
                }
                self.last_event[t] = now;
            }

            pub(super) fn on_enqueue(&mut self, req: &Request, now: Cycle) {
                let t = req.thread.index();
                if t >= self.n {
                    return;
                }
                let bank = req.addr.global_bank().flat_index(self.banks_per_channel);
                self.shadow
                    .access(req.thread, BankId::new(bank), req.addr.row);
                self.settle(t, now);
                let slot = t * self.total_banks + bank;
                self.outstanding[slot] += 1;
                if self.outstanding[slot] == 1 {
                    self.banks_active[t] += 1;
                }
            }

            pub(super) fn on_service(&mut self, thread: ThreadId, bank: GlobalBank, now: Cycle) {
                let t = thread.index();
                if t >= self.n {
                    return;
                }
                self.settle(t, now);
                let slot = t * self.total_banks + bank.flat_index(self.banks_per_channel);
                self.outstanding[slot] -= 1;
                if self.outstanding[slot] == 0 {
                    self.banks_active[t] -= 1;
                }
            }

            fn quantum_snapshot(&mut self, now: Cycle, view: &SystemView<'_>) -> Snapshot {
                let n = self.n;
                let mut snap = Snapshot {
                    mpki: vec![0.0; n],
                    bw_usage: vec![0; n],
                    rbl: vec![0.0; n],
                    blp: vec![0.0; n],
                };
                for t in 0..n {
                    self.settle(t, now);
                    let instr = view.retired[t] - self.retired_snapshot[t];
                    let miss = view.misses[t] - self.misses_snapshot[t];
                    snap.mpki[t] = match (miss, instr) {
                        (0, _) => 0.0,
                        (_, 0) => f64::INFINITY,
                        (m, i) => m as f64 * 1000.0 / i as f64,
                    };
                    snap.bw_usage[t] = view.service[t] - self.service_snapshot[t];
                    snap.rbl[t] = self.shadow.thread_rbl(ThreadId::new(t)).unwrap_or(0.0);
                    snap.blp[t] = if self.busy_time[t] > 0 {
                        self.blp_integral[t] as f64 / self.busy_time[t] as f64
                    } else if miss > 0 {
                        1.0
                    } else {
                        0.0
                    };
                    self.retired_snapshot[t] = view.retired[t];
                    self.misses_snapshot[t] = view.misses[t];
                    self.service_snapshot[t] = view.service[t];
                    self.blp_integral[t] = 0;
                    self.busy_time[t] = 0;
                }
                self.shadow.reset_counters();
                snap
            }

            fn apply_monitor_faults(&mut self, snap: &mut Snapshot, now: Cycle) {
                let flip = |v: f64| f64::from_bits(v.to_bits() ^ 0xFFF0_0000_0000_0000);
                let mut i = 0;
                while i < self.pending_faults.len() {
                    if self.pending_faults[i].at > now {
                        i += 1;
                        continue;
                    }
                    let t = self.pending_faults.swap_remove(i).thread;
                    for v in [&mut snap.mpki, &mut snap.rbl, &mut snap.blp] {
                        if let Some(v) = v.get_mut(t) {
                            *v = flip(*v);
                        }
                    }
                }
            }

            fn implausible(&self, snap: &Snapshot, now: Cycle) -> Option<DegradationAnomaly> {
                let banks = self.total_banks as f64;
                let anomaly =
                    |thread, counter, value, upper| DegradationAnomaly::ImplausibleCounter {
                        cycle: now,
                        thread,
                        counter,
                        value,
                        upper,
                    };
                for t in 0..self.n {
                    let mpki = snap.mpki[t];
                    if mpki.is_nan() || mpki < 0.0 {
                        return Some(anomaly(t, MonitorCounter::Mpki, mpki, f64::INFINITY));
                    }
                    let rbl = snap.rbl[t];
                    if !(0.0..=1.0).contains(&rbl) {
                        return Some(anomaly(t, MonitorCounter::Rbl, rbl, 1.0));
                    }
                    let blp = snap.blp[t];
                    if blp.is_nan() || blp < 0.0 || blp > banks {
                        return Some(anomaly(t, MonitorCounter::Blp, blp, banks));
                    }
                }
                None
            }

            fn has_weights(&self) -> bool {
                self.weights.iter().any(|&w| (w - 1.0).abs() > 1e-12)
            }

            fn rebuild_priorities(&mut self) {
                let n = self.n;
                self.priority = vec![0; n];
                if let Some(shuffler) = &self.shuffler {
                    for (pos, t) in shuffler.ranking_vec().into_iter().enumerate() {
                        if t.index() < n {
                            self.priority[t.index()] = pos + 1;
                        }
                    }
                }
                let latency_len = self.clustering.latency.len();
                for (pos, t) in self.clustering.latency.iter().enumerate() {
                    if t.index() < n {
                        self.priority[t.index()] = n + (latency_len - pos);
                    }
                }
            }

            fn weighted_ranking(&mut self, threads: &[ThreadId]) -> Vec<ThreadId> {
                let weights: Vec<f64> = threads.iter().map(|t| self.weights[t.index()]).collect();
                weighted_random_permutation(threads, &weights, &mut self.rng)
            }

            fn quantum_boundary(&mut self, snap: Snapshot, now: Cycle) {
                if let Some(anomaly) = self.implausible(&snap, now) {
                    self.anomalies.push(anomaly);
                    self.degraded = true;
                    self.priority = vec![0; self.n];
                    self.shuffler = None;
                    self.quanta_elapsed += 1;
                    return;
                }
                self.degraded = false;
                let scaled: Vec<f64> = snap
                    .mpki
                    .iter()
                    .zip(&self.weights)
                    .map(|(&m, &w)| m / w)
                    .collect();
                self.clustering =
                    cluster_threads(&scaled, &snap.bw_usage, self.params.cluster_thresh);
                let bw = self.clustering.bandwidth.clone();
                let blp: Vec<f64> = bw.iter().map(|t| snap.blp[t.index()]).collect();
                let rbl: Vec<f64> = bw.iter().map(|t| snap.rbl[t.index()]).collect();
                let spread = |v: &[f64]| {
                    let max = v.iter().cloned().fold(f64::MIN, f64::max);
                    let min = v.iter().cloned().fold(f64::MAX, f64::min);
                    max - min
                };
                self.active = if self.has_weights() {
                    Active::WeightedRandom
                } else {
                    match self.params.shuffle_mode {
                        ShuffleMode::RoundRobin => Active::RoundRobin,
                        ShuffleMode::RandomOnly => Active::Random,
                        ShuffleMode::InsertionOnly => Active::Insertion,
                        ShuffleMode::Static => Active::Static,
                        ShuffleMode::Dynamic => {
                            let thresh = self.params.shuffle_algo_thresh;
                            if blp.len() >= 2
                                && spread(&blp) > thresh * self.total_banks as f64
                                && spread(&rbl) > thresh
                            {
                                Active::Insertion
                            } else {
                                Active::Random
                            }
                        }
                    }
                };
                let by_niceness = || {
                    let niceness = niceness_scores(&blp, &rbl);
                    Shuffler::Insertion(InsertionShuffler::new(
                        bw.iter().copied().zip(niceness).collect(),
                    ))
                };
                self.shuffler = Some(match self.active {
                    Active::Insertion | Active::Static => by_niceness(),
                    Active::Random => {
                        let mut s = RandomShuffler::new(bw, 0x5EED_0000 + self.quanta_elapsed);
                        s.advance();
                        Shuffler::Random(s)
                    }
                    Active::RoundRobin => Shuffler::RoundRobin(RoundRobinShuffler::new(bw)),
                    Active::WeightedRandom => {
                        let perm = self.weighted_ranking(&bw);
                        Shuffler::RoundRobin(RoundRobinShuffler::new(perm))
                    }
                });
                self.quanta_elapsed += 1;
                self.rebuild_priorities();
            }

            fn shuffle_boundary(&mut self) {
                if self.degraded {
                    return;
                }
                if self.has_weights() {
                    if let Some(Shuffler::RoundRobin(inner)) = &self.shuffler {
                        let threads = inner.ranking().to_vec();
                        let perm = self.weighted_ranking(&threads);
                        self.shuffler = Some(Shuffler::RoundRobin(RoundRobinShuffler::new(perm)));
                    }
                } else if self.active != Active::Static {
                    if let Some(s) = &mut self.shuffler {
                        s.advance();
                    }
                }
                self.rebuild_priorities();
            }

            pub(super) fn next_tick(&self, now: Cycle) -> Cycle {
                self.next_quantum.min(self.next_shuffle).max(now + 1)
            }

            pub(super) fn tick(&mut self, now: Cycle, view: &SystemView<'_>) {
                if now >= self.next_quantum {
                    let mut snap = self.quantum_snapshot(now, view);
                    self.apply_monitor_faults(&mut snap, now);
                    self.quantum_boundary(snap, now);
                    while self.next_quantum <= now {
                        self.next_quantum += self.params.quantum;
                    }
                    self.next_shuffle = now + self.params.shuffle_interval;
                } else if now >= self.next_shuffle {
                    self.shuffle_boundary();
                    while self.next_shuffle <= now {
                        self.next_shuffle += self.params.shuffle_interval;
                    }
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A request arrives; its thread retires `retired` instructions
        /// and misses once.
        Enqueue {
            thread: usize,
            channel: usize,
            bank: usize,
            row: usize,
            retired: u64,
            gap: Cycle,
        },
        /// The bank holding the `which`-th pending request issues one.
        Service {
            which: usize,
            open_row: Option<usize>,
            gap: Cycle,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        let address = (0..5usize, 0..2usize, 0..2usize, 0..4usize);
        (
            any::<bool>(),
            address,
            0..3_000u64,
            any::<usize>(),
            0..5usize,
            0..80u64,
        )
            .prop_map(
                |(enqueue, (thread, channel, bank, row), retired, which, open_row, gap)| {
                    if enqueue {
                        Op::Enqueue {
                            thread,
                            channel,
                            bank,
                            row,
                            retired,
                            gap,
                        }
                    } else {
                        Op::Service {
                            which,
                            // 4 stands for a closed bank.
                            open_row: (open_row < 4).then_some(open_row),
                            gap,
                        }
                    }
                },
            )
    }

    fn mode(i: usize) -> ShuffleMode {
        [
            ShuffleMode::Dynamic,
            ShuffleMode::InsertionOnly,
            ShuffleMode::RandomOnly,
            ShuffleMode::RoundRobin,
            ShuffleMode::Static,
        ][i]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-controller exchange ranks, degrades, logs and picks
        /// exactly as the monolithic reference over random request
        /// streams spanning at least six quanta with shuffle boundaries
        /// in between, with and without thread weights, and with one
        /// armed monitor-corruption fault. Thread 4 can lie beyond the
        /// thread count: monitored by neither, ranked 0 by both.
        #[test]
        fn one_controller_exchange_matches_the_monolithic_reference(
            threads in 2..5usize,
            mode_index in 0..5usize,
            thresh in (0..4usize).prop_map(|i| [0.1, 0.25, 0.5, 1.0][i]),
            algo_thresh in (0..3usize).prop_map(|i| [0.0, 0.1, 1.0][i]),
            shuffle_interval in 100..700u64,
            weights in (any::<bool>(), proptest::collection::vec(1..16u32, 4..5))
                .prop_map(|(on, w)| on.then_some(w)),
            fault_at in 0..12_000u64,
            fault_thread in 0..5usize,
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            let quantum = 2_000;
            let cfg = SystemConfig::builder()
                .num_threads(threads)
                .num_channels(2)
                .banks_per_channel(2)
                .build()
                .unwrap();
            let params = TcmParams {
                cluster_thresh: thresh,
                quantum,
                shuffle_interval,
                shuffle_algo_thresh: algo_thresh,
                shuffle_mode: mode(mode_index),
            };
            let mut tcm = Tcm::with_params(params, threads, &cfg);
            let mut oracle = reference::TcmReference::new(params, threads, &cfg);
            if let Some(w) = &weights {
                let w: Vec<f64> = w[..threads].iter().map(|&v| f64::from(v)).collect();
                tcm.set_thread_weights(&w);
                oracle.set_thread_weights(&w);
            }
            let fault = FaultSpec::new(FaultKind::MonitorCorruption, fault_at).on_thread(fault_thread);
            tcm.inject_monitor_fault(&fault);
            oracle.inject_monitor_fault(&fault);

            let (mut retired, mut misses, mut service) =
                (vec![0u64; threads], vec![0u64; threads], vec![0u64; threads]);
            let mut pending: Vec<Request> = Vec::new();
            let (mut now, mut due, mut next_id, mut quanta) = (0, tcm.next_tick(0).unwrap(), 0, 0);
            let last = ops.len();
            for (i, op) in ops.into_iter().enumerate() {
                now += match op {
                    Op::Enqueue { gap, .. } | Op::Service { gap, .. } => gap,
                };
                if i + 1 == last {
                    now = now.max(6 * quantum);
                }
                while due <= now {
                    let view = SystemView { retired: &retired, misses: &misses, service: &service };
                    tcm.tick(due, &view);
                    oracle.tick(due, &view);
                    quanta += u64::from(due % quantum == 0);
                    prop_assert_eq!(tcm.priorities(), &oracle.priority[..], "priorities at {}", due);
                    prop_assert_eq!(&tcm.meta.core.clustering, &oracle.clustering, "clustering at {}", due);
                    prop_assert_eq!(tcm.degraded(), oracle.degraded, "degraded at {}", due);
                    prop_assert_eq!(tcm.degradation_events(), &oracle.anomalies[..], "anomalies at {}", due);
                    let next = tcm.next_tick(due).unwrap();
                    prop_assert_eq!(next, oracle.next_tick(due));
                    due = next;
                }
                match op {
                    Op::Enqueue { thread, channel, bank, row, retired: r, .. } => {
                        let addr = MemAddress::new(ChannelId::new(channel), BankId::new(bank), Row::new(row));
                        let req = Request::new(RequestId::new(next_id), ThreadId::new(thread), addr, now);
                        next_id += 1;
                        if thread < threads {
                            retired[thread] += r;
                            misses[thread] += 1;
                        }
                        tcm.on_enqueue(&req, now);
                        oracle.on_enqueue(&req, now);
                        pending.push(req);
                    }
                    Op::Service { which, open_row, .. } => {
                        let Some(target) = pending.get(which % pending.len().max(1)) else {
                            continue;
                        };
                        let bank = target.addr.global_bank();
                        let at_bank: Vec<Request> = pending
                            .iter()
                            .filter(|r| r.addr.global_bank() == bank)
                            .copied()
                            .collect();
                        let ctx = ctx(now, open_row);
                        let got = tcm.pick(&at_bank, &ctx);
                        prop_assert_eq!(got, oracle.pick(&at_bank, &ctx), "pick at {}", now);
                        let served = at_bank[got];
                        pending.retain(|r| r.id != served.id);
                        let outcome = ServiceOutcome {
                            request: served,
                            row_state: tcm_types::RowState::Closed,
                            bank_start: now,
                            bank_free: now + 40,
                            completes_at: now + 60,
                            service_cycles: 60,
                        };
                        if served.thread.index() < threads {
                            service[served.thread.index()] += 60;
                        }
                        tcm.on_service(&outcome, &[], now);
                        oracle.on_service(served.thread, bank, now);
                    }
                }
            }
            prop_assert!(quanta >= 6, "only {} quanta", quanta);
        }
    }
}
