//! The TCM scheduling policy: Algorithm 3 plus the quantum/shuffle
//! machinery, implementing [`tcm_sched::Scheduler`].

use crate::clustering::{cluster_threads, Clustering};
use crate::monitor::{QuantumSnapshot, TcmMonitor};
use crate::niceness::niceness_scores;
use crate::params::{ShuffleMode, TcmParams};
use crate::shuffle::{
    weighted_random_permutation, InsertionShuffler, RandomShuffler, RoundRobinShuffler, Shuffler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcm_chaos::{FaultKind, FaultSpec};
use tcm_dram::ServiceOutcome;
use tcm_sched::select::{age_key, pick_max_by_key, row_hit};
use tcm_sched::{PickContext, Scheduler, SystemView};
use tcm_telemetry::{
    labeled, ClusterKind, DegradationAnomaly, MonitorCounter, ShuffleAlgo, Telemetry, TraceEvent,
};
use tcm_types::{Cycle, Request, SystemConfig, ThreadId};

/// Which shuffling algorithm the current quantum ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActiveShuffle {
    Insertion,
    Random,
    RoundRobin,
    WeightedRandom,
    /// Ablation: fixed ascending-niceness ranking, never advanced.
    Static,
}

impl ActiveShuffle {
    /// The telemetry-taxonomy name of this shuffle algorithm.
    fn algo(self) -> ShuffleAlgo {
        match self {
            ActiveShuffle::Insertion => ShuffleAlgo::Insertion,
            ActiveShuffle::Random => ShuffleAlgo::Random,
            ActiveShuffle::RoundRobin => ShuffleAlgo::RoundRobin,
            ActiveShuffle::WeightedRandom => ShuffleAlgo::WeightedRandom,
            ActiveShuffle::Static => ShuffleAlgo::Static,
        }
    }
}

/// Thread Cluster Memory scheduling.
///
/// Every quantum (1 M cycles): harvest the monitors, split threads into
/// the latency-sensitive and bandwidth-sensitive clusters
/// ([`cluster_threads`]), compute niceness for the bandwidth cluster and
/// pick a shuffling algorithm (insertion when the cluster is diverse
/// enough in BLP and RBL, random otherwise). Every `ShuffleInterval`
/// (800 cycles): advance the bandwidth cluster's shuffler. Request
/// prioritization is the paper's Algorithm 3: thread rank first (latency
/// cluster above bandwidth cluster; within latency, ascending
/// weight-scaled MPKI; within bandwidth, the shuffled order), then
/// row-hit, then age.
///
/// One `Tcm` instance arbitrates all channels, playing the role of the
/// paper's per-controller logic *plus* the central meta-controller, so
/// clustering and shuffling are inherently synchronized across
/// controllers.
#[derive(Debug)]
pub struct Tcm {
    params: TcmParams,
    num_threads: usize,
    monitor: TcmMonitor,
    weights: Vec<f64>,
    /// Per-thread priority value; higher = scheduled first.
    priority: Vec<usize>,
    clustering: Clustering,
    shuffler: Option<Shuffler>,
    active_shuffle: ActiveShuffle,
    rng: StdRng,
    next_quantum: Cycle,
    next_shuffle: Cycle,
    quanta_elapsed: u64,
    insertion_quanta: u64,
    random_quanta: u64,
    /// Armed monitor-state bit-flip faults (from `tcm-chaos`), applied
    /// to the quantum snapshot once their scheduled cycle passes.
    pending_monitor_faults: Vec<FaultSpec>,
    /// Whether the last quantum's monitor data was implausible and TCM
    /// fell back to FR-FCFS ordering for the quantum.
    degraded: bool,
    /// Log of every monitor anomaly observed, in order (typed; see
    /// [`DegradationAnomaly`]).
    anomalies: Vec<DegradationAnomaly>,
    /// Structured-event sink; disabled (free) unless the host attaches
    /// one via [`Scheduler::attach_telemetry`].
    telemetry: Telemetry,
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
        params.validate().expect("invalid TCM parameters");
        let monitor = TcmMonitor::new(num_threads, config.num_channels(), config.banks_per_channel);
        Self {
            next_quantum: params.quantum,
            next_shuffle: params.shuffle_interval,
            params,
            num_threads,
            monitor,
            weights: vec![1.0; num_threads],
            // Until the first quantum completes, all threads tie at rank
            // 0 and Algorithm 3 degenerates to FR-FCFS.
            priority: vec![0; num_threads],
            clustering: Clustering {
                latency: Vec::new(),
                bandwidth: (0..num_threads).map(ThreadId::new).collect(),
            },
            shuffler: None,
            active_shuffle: ActiveShuffle::Random,
            rng: StdRng::seed_from_u64(0x7C4D_15EA_5E1E_C7ED),
            quanta_elapsed: 0,
            insertion_quanta: 0,
            random_quanta: 0,
            pending_monitor_faults: Vec::new(),
            degraded: false,
            anomalies: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The parameters in effect.
    pub fn params(&self) -> &TcmParams {
        &self.params
    }

    /// The most recent clustering decision.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Current per-thread priority values (higher = scheduled first).
    pub fn priorities(&self) -> &[usize] {
        &self.priority
    }

    /// `(insertion, random)` quantum counts — how often the dynamic
    /// algorithm selection chose each shuffle (diagnostics for the
    /// Table 6/7 experiments).
    pub fn shuffle_algo_counts(&self) -> (u64, u64) {
        (self.insertion_quanta, self.random_quanta)
    }

    /// Whether TCM is currently degraded to FR-FCFS ordering because the
    /// last quantum's monitor data was implausible. Clears at the next
    /// quantum boundary whose data passes the plausibility check.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Every monitor anomaly observed so far, in order, as typed events.
    pub fn anomaly_events(&self) -> &[DegradationAnomaly] {
        &self.anomalies
    }

    /// Records an anomaly into this policy's typed log and telemetry
    /// stream. The meta-controller uses this to surface its
    /// per-controller quarantine events through the same channel as the
    /// whole-system plausibility guard.
    pub(crate) fn record_anomaly(&mut self, anomaly: DegradationAnomaly) {
        self.telemetry
            .emit(|| TraceEvent::DegradationFallback(anomaly.clone()));
        self.anomalies.push(anomaly);
    }

    /// Applies any armed monitor faults whose cycle has passed: flips the
    /// sign/exponent bits of the target thread's MPKI, RBL and BLP
    /// counters, modeling bit flips in the monitoring hardware. Exposed
    /// crate-wide so the meta-controller can corrupt its *aggregated*
    /// snapshot through the same machinery.
    pub(crate) fn apply_monitor_faults(&mut self, snap: &mut QuantumSnapshot, now: Cycle) {
        fn flip(v: f64) -> f64 {
            f64::from_bits(v.to_bits() ^ 0xFFF0_0000_0000_0000)
        }
        let mut i = 0;
        while i < self.pending_monitor_faults.len() {
            if self.pending_monitor_faults[i].at > now {
                i += 1;
                continue;
            }
            let fault = self.pending_monitor_faults.swap_remove(i);
            let t = fault.thread;
            if let Some(v) = snap.mpki.get_mut(t) {
                *v = flip(*v);
            }
            if let Some(v) = snap.rbl.get_mut(t) {
                *v = flip(*v);
            }
            if let Some(v) = snap.blp.get_mut(t) {
                *v = flip(*v);
            }
            self.telemetry.emit(|| TraceEvent::ChaosInjected {
                cycle: now,
                kind: FaultKind::MonitorCorruption,
            });
        }
    }

    /// Checks the snapshot against what the monitoring hardware can
    /// physically produce; returns a typed description of the first
    /// implausible counter, or `None` when all data is credible.
    ///
    /// The bounds are deliberately loose — MPKI of `+inf` is *legal* (a
    /// thread that missed without retiring an instruction) — so a healthy
    /// run can never trip this check.
    fn implausible_monitor(
        &self,
        snap: &QuantumSnapshot,
        now: Cycle,
    ) -> Option<DegradationAnomaly> {
        let banks = self.monitor.total_banks() as f64;
        let anomaly = |thread, counter, value, upper| DegradationAnomaly::ImplausibleCounter {
            cycle: now,
            thread,
            counter,
            value,
            upper,
        };
        for t in 0..self.num_threads {
            let mpki = snap.mpki.get(t).copied().unwrap_or(0.0);
            if mpki.is_nan() || mpki < 0.0 {
                return Some(anomaly(t, MonitorCounter::Mpki, mpki, f64::INFINITY));
            }
            let rbl = snap.rbl.get(t).copied().unwrap_or(0.0);
            if !(0.0..=1.0).contains(&rbl) {
                return Some(anomaly(t, MonitorCounter::Rbl, rbl, 1.0));
            }
            let blp = snap.blp.get(t).copied().unwrap_or(0.0);
            if blp.is_nan() || blp < 0.0 || blp > banks {
                return Some(anomaly(t, MonitorCounter::Blp, blp, banks));
            }
        }
        None
    }

    /// Whether any OS thread weight differs from the default.
    fn has_weights(&self) -> bool {
        self.weights.iter().any(|&w| (w - 1.0).abs() > 1e-12)
    }

    /// Rebuilds `priority` from the clustering and the shuffler state.
    ///
    /// Bandwidth-cluster threads get priorities `1..=B` following the
    /// shuffled order; latency-cluster threads get `N+1..=N+L` (always
    /// strictly above), ordered by ascending weight-scaled MPKI.
    fn rebuild_priorities(&mut self) {
        self.priority = vec![0; self.num_threads];
        if let Some(shuffler) = &self.shuffler {
            for (pos, t) in shuffler.ranking_vec().into_iter().enumerate() {
                if t.index() < self.num_threads {
                    self.priority[t.index()] = pos + 1;
                }
            }
        }
        let n = self.num_threads;
        // `clustering.latency` is ascending MPKI: first = highest rank.
        let latency_len = self.clustering.latency.len();
        for (pos, t) in self.clustering.latency.iter().enumerate() {
            if t.index() < n {
                self.priority[t.index()] = n + (latency_len - pos);
            }
        }
    }

    /// Quantum boundary: re-cluster and re-seed the shuffler from an
    /// already-harvested snapshot. Shared between the single-instance
    /// path ([`Tcm::tick`], which harvests its own monitor) and the
    /// meta-controller (which assembles the snapshot by aggregating
    /// per-controller samples, paper §5.3).
    pub(crate) fn quantum_boundary_with(&mut self, snap: QuantumSnapshot, now: Cycle) {
        if let Some(anomaly) = self.implausible_monitor(&snap, now) {
            // Graceful degradation: implausible monitor data means the
            // clustering inputs cannot be trusted. Log the anomaly and
            // fall back to FR-FCFS ordering (all ranks tied at 0 — the
            // same degenerate state as before the first quantum) for the
            // remainder of this quantum, recovering at the next boundary.
            self.telemetry.emit(|| TraceEvent::QuantumBoundary {
                cycle: now,
                index: self.quanta_elapsed,
                degraded: true,
            });
            self.telemetry
                .emit(|| TraceEvent::DegradationFallback(anomaly.clone()));
            self.anomalies.push(anomaly);
            self.degraded = true;
            self.priority = vec![0; self.num_threads];
            self.shuffler = None;
            self.quanta_elapsed += 1;
            return;
        }
        self.degraded = false;
        self.telemetry.emit(|| TraceEvent::QuantumBoundary {
            cycle: now,
            index: self.quanta_elapsed,
            degraded: false,
        });
        // Thread weights scale MPKI down (paper Section 3.6), affecting
        // both clustering admission order and latency-cluster ranking.
        let scaled_mpki: Vec<f64> = snap
            .mpki
            .iter()
            .zip(&self.weights)
            .map(|(&m, &w)| m / w)
            .collect();
        self.clustering = cluster_threads(&scaled_mpki, &snap.bw_usage, self.params.cluster_thresh);

        let bw_threads = self.clustering.bandwidth.clone();
        let bw_blp: Vec<f64> = bw_threads.iter().map(|t| snap.blp[t.index()]).collect();
        let bw_rbl: Vec<f64> = bw_threads.iter().map(|t| snap.rbl[t.index()]).collect();

        self.active_shuffle = self.choose_shuffle(&bw_blp, &bw_rbl);
        self.shuffler = match self.active_shuffle {
            ActiveShuffle::Insertion => {
                self.insertion_quanta += 1;
                let niceness = niceness_scores(&bw_blp, &bw_rbl);
                Some(Shuffler::Insertion(InsertionShuffler::new(
                    bw_threads.iter().copied().zip(niceness).collect(),
                )))
            }
            ActiveShuffle::Random => {
                self.random_quanta += 1;
                let seed = 0x5EED_0000 + self.quanta_elapsed;
                let mut s = RandomShuffler::new(bw_threads, seed);
                s.advance();
                Some(Shuffler::Random(s))
            }
            ActiveShuffle::RoundRobin => {
                Some(Shuffler::RoundRobin(RoundRobinShuffler::new(bw_threads)))
            }
            ActiveShuffle::WeightedRandom => {
                let perm = self.weighted_ranking(&bw_threads);
                Some(Shuffler::RoundRobin(RoundRobinShuffler::new(perm)))
            }
            ActiveShuffle::Static => {
                // Ascending niceness, never advanced (see shuffle_boundary).
                let niceness = niceness_scores(&bw_blp, &bw_rbl);
                Some(Shuffler::Insertion(InsertionShuffler::new(
                    bw_threads.iter().copied().zip(niceness).collect(),
                )))
            }
        };
        self.quanta_elapsed += 1;
        self.rebuild_priorities();
        if self.telemetry.is_enabled() {
            self.trace_quantum(now, &snap, &scaled_mpki);
        }
    }

    /// Emits the per-thread cluster-assignment events and the per-cluster
    /// bandwidth-share series for a clean quantum boundary. Only called
    /// when telemetry is enabled; observation-only.
    fn trace_quantum(&self, now: Cycle, snap: &QuantumSnapshot, scaled_mpki: &[f64]) {
        for (cluster, threads) in [
            (ClusterKind::Latency, &self.clustering.latency),
            (ClusterKind::Bandwidth, &self.clustering.bandwidth),
        ] {
            for t in threads {
                let i = t.index();
                if i >= self.num_threads {
                    continue;
                }
                self.telemetry.emit(|| TraceEvent::ClusterAssignment {
                    cycle: now,
                    thread: i,
                    cluster,
                    rank: self.priority.get(i).copied().unwrap_or(0),
                    mpki: scaled_mpki.get(i).copied().unwrap_or(0.0),
                    rbl: snap.rbl.get(i).copied().unwrap_or(0.0),
                    blp: snap.blp.get(i).copied().unwrap_or(0.0),
                });
            }
        }
        // Per-cluster share of attained bandwidth this quantum — the
        // paper's Figure 9-style breakdown. Skipped when the quantum saw
        // no traffic at all (0/0 has no meaningful share).
        let total: u64 = snap.bw_usage.iter().sum();
        if total > 0 {
            let share = |threads: &[ThreadId]| {
                let used: u64 = threads
                    .iter()
                    .map(|t| snap.bw_usage.get(t.index()).copied().unwrap_or(0))
                    .sum();
                used as f64 / total as f64
            };
            let latency = share(&self.clustering.latency);
            let bandwidth = share(&self.clustering.bandwidth);
            self.telemetry.with_metrics(|m| {
                m.push_series(
                    &labeled("bw_share", &[("cluster", "latency")]),
                    now,
                    latency,
                );
                m.push_series(
                    &labeled("bw_share", &[("cluster", "bandwidth")]),
                    now,
                    bandwidth,
                );
            });
        }
    }

    /// Selects the shuffle algorithm for this quantum.
    fn choose_shuffle(&self, bw_blp: &[f64], bw_rbl: &[f64]) -> ActiveShuffle {
        if self.has_weights() {
            // Weighted shuffling (paper Section 3.6): time at the top is
            // proportional to thread weight.
            return ActiveShuffle::WeightedRandom;
        }
        match self.params.shuffle_mode {
            ShuffleMode::RoundRobin => ActiveShuffle::RoundRobin,
            ShuffleMode::RandomOnly => ActiveShuffle::Random,
            ShuffleMode::InsertionOnly => ActiveShuffle::Insertion,
            ShuffleMode::Static => ActiveShuffle::Static,
            ShuffleMode::Dynamic => {
                // Insertion shuffle only when the cluster is diverse
                // enough for niceness to be meaningful.
                let spread = |v: &[f64]| {
                    let max = v.iter().cloned().fold(f64::MIN, f64::max);
                    let min = v.iter().cloned().fold(f64::MAX, f64::min);
                    max - min
                };
                let diverse = bw_blp.len() >= 2
                    && spread(bw_blp)
                        > self.params.shuffle_algo_thresh * self.monitor.total_banks() as f64
                    && spread(bw_rbl) > self.params.shuffle_algo_thresh;
                if diverse {
                    ActiveShuffle::Insertion
                } else {
                    ActiveShuffle::Random
                }
            }
        }
    }

    /// Draws a weighted ranking for the bandwidth cluster.
    fn weighted_ranking(&mut self, threads: &[ThreadId]) -> Vec<ThreadId> {
        let weights: Vec<f64> = threads
            .iter()
            .map(|t| self.weights.get(t.index()).copied().unwrap_or(1.0))
            .collect();
        weighted_random_permutation(threads, &weights, &mut self.rng)
    }

    /// The next boundary (quantum or shuffle) strictly after `now` —
    /// the shared timer both [`Tcm::next_tick`] and the meta-controller
    /// expose.
    pub(crate) fn next_boundary(&self, now: Cycle) -> Cycle {
        self.next_quantum.min(self.next_shuffle).max(now + 1)
    }

    /// Whether the boundary due at `now` is a quantum boundary (needs a
    /// fresh monitor snapshot) rather than a shuffle boundary.
    pub(crate) fn is_quantum_due(&self, now: Cycle) -> bool {
        now >= self.next_quantum
    }

    /// Runs whichever boundary is due at `now` and advances the timers:
    /// a quantum boundary consumes `snap` and restarts the shuffle
    /// cadence; a shuffle boundary advances the permutation.
    ///
    /// # Panics
    ///
    /// Panics if a quantum boundary is due but `snap` is `None` — the
    /// caller must harvest when [`Tcm::is_quantum_due`] says so.
    pub(crate) fn run_boundary(&mut self, snap: Option<QuantumSnapshot>, now: Cycle) {
        if now >= self.next_quantum {
            let snap = snap.expect("quantum boundary needs a monitor snapshot");
            self.quantum_boundary_with(snap, now);
            while self.next_quantum <= now {
                self.next_quantum += self.params.quantum;
            }
            // A fresh quantum restarts the shuffle cadence.
            self.next_shuffle = now + self.params.shuffle_interval;
        } else if now >= self.next_shuffle {
            self.shuffle_boundary(now);
            while self.next_shuffle <= now {
                self.next_shuffle += self.params.shuffle_interval;
            }
        }
    }

    /// Shuffle boundary: advance the bandwidth cluster's permutation.
    fn shuffle_boundary(&mut self, now: Cycle) {
        if self.degraded {
            // FR-FCFS fallback: ranks stay tied until the next quantum's
            // monitor data proves plausible again.
            return;
        }
        if self.has_weights() {
            // Weighted shuffling redraws a weighted permutation every
            // interval instead of following a fixed pattern.
            if let Some(Shuffler::RoundRobin(inner)) = &self.shuffler {
                let threads = inner.ranking().to_vec();
                let perm = self.weighted_ranking(&threads);
                self.shuffler = Some(Shuffler::RoundRobin(RoundRobinShuffler::new(perm)));
            }
        } else if self.active_shuffle == ActiveShuffle::Static {
            // Ablation mode: the ranking never changes within a quantum.
        } else if let Some(s) = &mut self.shuffler {
            s.advance();
        }
        self.rebuild_priorities();
        self.telemetry.emit(|| TraceEvent::ShuffleApplied {
            cycle: now,
            algo: self.active_shuffle.algo(),
        });
    }
}

impl Scheduler for Tcm {
    fn name(&self) -> &'static str {
        match self.params.shuffle_mode {
            ShuffleMode::Dynamic => "TCM",
            ShuffleMode::InsertionOnly => "TCM-insertion",
            ShuffleMode::RandomOnly => "TCM-random",
            ShuffleMode::RoundRobin => "TCM-roundrobin",
            ShuffleMode::Static => "TCM-static",
        }
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

    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        Some(self.next_boundary(now))
    }

    fn tick(&mut self, now: Cycle, view: &SystemView<'_>) {
        let snap = if self.is_quantum_due(now) {
            let mut snap =
                self.monitor
                    .quantum_snapshot(now, view.retired, view.misses, view.service);
            if !self.pending_monitor_faults.is_empty() {
                self.apply_monitor_faults(&mut snap, now);
            }
            Some(snap)
        } else {
            None
        };
        self.run_boundary(snap, now);
    }

    fn set_thread_weights(&mut self, weights: &[f64]) {
        for (w, &v) in self.weights.iter_mut().zip(weights) {
            *w = v.max(f64::MIN_POSITIVE);
        }
    }

    fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
        if fault.kind == FaultKind::MonitorCorruption {
            self.pending_monitor_faults.push(*fault);
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    fn degradation_events(&self) -> &[DegradationAnomaly] {
        &self.anomalies
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::{BankId, ChannelId, MemAddress, RequestId, Row};

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
        let c = tcm.clustering().clone();
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
            .clustering()
            .latency
            .iter()
            .map(|t| prio[t.index()])
            .min()
            .unwrap();
        let max_bandwidth = tcm
            .clustering()
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
        assert_eq!(tcm.shuffle_algo_counts(), (0, 1), "random shuffle chosen");
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
            tcm.monitor
                .on_enqueue(ThreadId::new(1), gb(0, 0), Row::new(5), i * 100);
            tcm.monitor
                .on_service(ThreadId::new(1), gb(0, 0), i * 100 + 50);
            for (j, bank) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
                tcm.monitor.on_enqueue(
                    ThreadId::new(2),
                    gb(bank.0, bank.1),
                    Row::new((i as usize) * 4 + j),
                    i * 100,
                );
            }
            for bank in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                tcm.monitor
                    .on_service(ThreadId::new(2), gb(bank.0, bank.1), i * 100 + 90);
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
            tcm.shuffle_algo_counts(),
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
            let bw: Vec<_> = tcm.clustering().bandwidth.clone();
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
        assert_eq!(tcm.anomaly_events().len(), 1);
        assert!(
            tcm.anomaly_events()[0]
                .to_string()
                .contains("implausible monitor data"),
            "anomaly: {}",
            tcm.anomaly_events()[0]
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
            tcm.anomaly_events().len(),
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
        assert!(tcm.anomaly_events().is_empty());
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
        assert!(tcm.pending_monitor_faults.is_empty());
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
        assert!(tcm.anomaly_events().is_empty());
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
}
