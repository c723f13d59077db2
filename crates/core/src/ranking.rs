//! TCM's ranking engine: the quantum/shuffle state machine the
//! meta-controller owns (paper §5.3).
//!
//! Every quantum it turns one aggregated [`QuantumSnapshot`] into a
//! clustering ([`cluster_threads`]), a niceness order and a shuffler, or
//! — when the plausibility guard rejects the snapshot — into the
//! all-tied FR-FCFS ranking until the next quantum. Every
//! `ShuffleInterval` it advances the shuffler. [`MetaController`] is its
//! only owner: it builds the snapshot and broadcasts the resulting
//! priorities.
//!
//! [`MetaController`]: crate::MetaController

use crate::clustering::{cluster_threads, Clustering};
use crate::monitor::QuantumSnapshot;
use crate::niceness::niceness_scores;
use crate::params::{ShuffleMode, TcmParams};
use crate::shuffle::{
    weighted_random_permutation, InsertionShuffler, RandomShuffler, RoundRobinShuffler, Shuffler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcm_chaos::{FaultKind, FaultSpec};
use tcm_telemetry::{
    labeled, ClusterKind, DegradationAnomaly, MonitorCounter, ShuffleAlgo, Telemetry, TraceEvent,
};
use tcm_types::{Cycle, SystemConfig, ThreadId};

/// Clustering, niceness, shuffling and the plausibility guard, driven
/// one boundary at a time (see the module docs).
///
/// Priorities follow the paper's Algorithm 3 ranking: latency cluster
/// above bandwidth cluster; within latency, ascending weight-scaled
/// MPKI; within bandwidth, the shuffled order.
#[derive(Debug)]
pub(crate) struct RankingEngine {
    pub(crate) params: TcmParams,
    num_threads: usize,
    /// Banks in the whole machine: the BLP plausibility bound and the
    /// scale of `ShuffleAlgoThresh`'s BLP spread.
    total_banks: usize,
    weights: Vec<f64>,
    /// Per-thread priority value; higher = scheduled first.
    pub(crate) priority: Vec<usize>,
    pub(crate) clustering: Clustering,
    shuffler: Option<Shuffler>,
    active_shuffle: ShuffleAlgo,
    rng: StdRng,
    next_quantum: Cycle,
    next_shuffle: Cycle,
    quanta_elapsed: u64,
    /// How often the dynamic selection chose insertion and random
    /// shuffling (diagnostics for the Table 6/7 experiments).
    pub(crate) insertion_quanta: u64,
    pub(crate) random_quanta: u64,
    /// Armed monitor-state bit-flip faults (from `tcm-chaos`), applied
    /// to the quantum snapshot once their scheduled cycle passes.
    pending_monitor_faults: Vec<FaultSpec>,
    /// Whether the last quantum's monitor data was implausible and TCM
    /// fell back to FR-FCFS ordering for the quantum.
    pub(crate) degraded: bool,
    /// Log of every monitor anomaly observed, in order.
    pub(crate) anomalies: Vec<DegradationAnomaly>,
    /// Structured-event sink; disabled (free) unless the host attaches
    /// one.
    pub(crate) telemetry: Telemetry,
}

impl RankingEngine {
    /// The engine for an `num_threads`-thread system on `config`'s
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation (see [`TcmParams::validate`]).
    pub(crate) fn new(params: TcmParams, num_threads: usize, config: &SystemConfig) -> Self {
        params.validate().expect("invalid TCM parameters");
        Self {
            next_quantum: params.quantum,
            next_shuffle: params.shuffle_interval,
            params,
            num_threads,
            total_banks: config.num_channels() * config.banks_per_channel,
            weights: vec![1.0; num_threads],
            // Until the first quantum completes, all threads tie at rank
            // 0 and Algorithm 3 degenerates to FR-FCFS.
            priority: vec![0; num_threads],
            clustering: Clustering {
                latency: Vec::new(),
                bandwidth: (0..num_threads).map(ThreadId::new).collect(),
            },
            shuffler: None,
            active_shuffle: ShuffleAlgo::Random,
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

    pub(crate) fn set_thread_weights(&mut self, weights: &[f64]) {
        for (w, &v) in self.weights.iter_mut().zip(weights) {
            *w = v.max(f64::MIN_POSITIVE);
        }
    }

    /// Arms a monitor-corruption fault; every other kind is ignored.
    pub(crate) fn inject_monitor_fault(&mut self, fault: &FaultSpec) {
        if fault.kind == FaultKind::MonitorCorruption {
            self.pending_monitor_faults.push(*fault);
        }
    }

    /// Records an anomaly into the typed log and telemetry stream. The
    /// meta-controller surfaces its per-controller quarantine events
    /// through the same channel as the whole-system plausibility guard.
    pub(crate) fn record_anomaly(&mut self, anomaly: DegradationAnomaly) {
        self.telemetry
            .emit(|| TraceEvent::DegradationFallback(anomaly.clone()));
        self.anomalies.push(anomaly);
    }

    /// Applies any armed monitor faults whose cycle has passed: flips the
    /// sign/exponent bits of the target thread's MPKI, RBL and BLP,
    /// modeling bit flips in the monitoring hardware.
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
            let t = self.pending_monitor_faults.swap_remove(i).thread;
            for v in [&mut snap.mpki, &mut snap.rbl, &mut snap.blp] {
                if let Some(v) = v.get_mut(t) {
                    *v = flip(*v);
                }
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
        let banks = self.total_banks as f64;
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

    /// Quantum boundary: re-cluster and re-seed the shuffler from the
    /// aggregated snapshot, or degrade to FR-FCFS if it is implausible.
    fn quantum_boundary(&mut self, snap: QuantumSnapshot, now: Cycle) {
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
            self.record_anomaly(anomaly);
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
            // Static: ascending niceness, never advanced (see
            // shuffle_boundary).
            ShuffleAlgo::Insertion | ShuffleAlgo::Static => {
                if self.active_shuffle == ShuffleAlgo::Insertion {
                    self.insertion_quanta += 1;
                }
                let niceness = niceness_scores(&bw_blp, &bw_rbl);
                Some(Shuffler::Insertion(InsertionShuffler::new(
                    bw_threads.iter().copied().zip(niceness).collect(),
                )))
            }
            ShuffleAlgo::Random => {
                self.random_quanta += 1;
                let seed = 0x5EED_0000 + self.quanta_elapsed;
                let mut s = RandomShuffler::new(bw_threads, seed);
                s.advance();
                Some(Shuffler::Random(s))
            }
            ShuffleAlgo::RoundRobin => {
                Some(Shuffler::RoundRobin(RoundRobinShuffler::new(bw_threads)))
            }
            ShuffleAlgo::WeightedRandom => {
                let perm = self.weighted_ranking(&bw_threads);
                Some(Shuffler::RoundRobin(RoundRobinShuffler::new(perm)))
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
    fn choose_shuffle(&self, bw_blp: &[f64], bw_rbl: &[f64]) -> ShuffleAlgo {
        if self.has_weights() {
            // Weighted shuffling (paper Section 3.6): time at the top is
            // proportional to thread weight.
            return ShuffleAlgo::WeightedRandom;
        }
        match self.params.shuffle_mode {
            ShuffleMode::RoundRobin => ShuffleAlgo::RoundRobin,
            ShuffleMode::RandomOnly => ShuffleAlgo::Random,
            ShuffleMode::InsertionOnly => ShuffleAlgo::Insertion,
            ShuffleMode::Static => ShuffleAlgo::Static,
            ShuffleMode::Dynamic => {
                // Insertion shuffle only when the cluster is diverse
                // enough for niceness to be meaningful.
                let spread = |v: &[f64]| {
                    let max = v.iter().cloned().fold(f64::MIN, f64::max);
                    let min = v.iter().cloned().fold(f64::MAX, f64::min);
                    max - min
                };
                let diverse = bw_blp.len() >= 2
                    && spread(bw_blp) > self.params.shuffle_algo_thresh * self.total_banks as f64
                    && spread(bw_rbl) > self.params.shuffle_algo_thresh;
                if diverse {
                    ShuffleAlgo::Insertion
                } else {
                    ShuffleAlgo::Random
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

    /// The next boundary (quantum or shuffle) strictly after `now`.
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
    /// caller must aggregate when [`RankingEngine::is_quantum_due`] says
    /// so.
    pub(crate) fn run_boundary(&mut self, snap: Option<QuantumSnapshot>, now: Cycle) {
        if now >= self.next_quantum {
            let snap = snap.expect("quantum boundary needs a monitor snapshot");
            self.quantum_boundary(snap, now);
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
        } else if self.active_shuffle == ShuffleAlgo::Static {
            // Ablation mode: the ranking never changes within a quantum.
        } else if let Some(s) = &mut self.shuffler {
            s.advance();
        }
        self.rebuild_priorities();
        self.telemetry.emit(|| TraceEvent::ShuffleApplied {
            cycle: now,
            algo: self.active_shuffle,
        });
    }
}
