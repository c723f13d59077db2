//! TCM's per-thread memory-behavior monitors (paper Section 3.4).
//!
//! Per quantum, TCM needs four signals per thread:
//!
//! * **MPKI** — misses per kilo-instruction, from the core's counters;
//! * **bandwidth usage** — bank-busy cycles attained (memory service
//!   time);
//! * **RBL** — *inherent* row-buffer locality, measured with shadow
//!   row-buffers (what would have hit if the thread ran alone);
//! * **BLP** — average number of banks holding at least one of the
//!   thread's requests, averaged over the time the thread has any
//!   outstanding request (time-weighted, which refines the paper's
//!   periodic sampling).
//!
//! [`TcmMonitor`] is one controller's share: it is fed from the
//! controller's enqueue/service hooks and measures RBL and BLP, harvested
//! once per quantum as a [`MonitorSample`]. MPKI and bandwidth come from
//! the cores' cumulative counters; the meta-controller differences those
//! and sums the samples into the quantum's [`QuantumSnapshot`]
//! (`MetaController::aggregate`, the only place one is built).

use tcm_dram::ShadowRowBuffer;
use tcm_sched::MonitorSample;
use tcm_types::{BankId, Cycle, GlobalBank, Row, ThreadId};

/// Per-quantum measurement results, indexed by thread id: what the
/// ranking engine clusters and shuffles on.
#[derive(Debug)]
pub(crate) struct QuantumSnapshot {
    /// Misses per kilo-instruction during the quantum
    /// (`f64::INFINITY` for a thread that missed but retired nothing).
    pub mpki: Vec<f64>,
    /// Bank-busy cycles attained during the quantum.
    pub bw_usage: Vec<u64>,
    /// Inherent row-buffer locality in `[0, 1]` (0 for inactive threads).
    pub rbl: Vec<f64>,
    /// Average bank-level parallelism (1.0 floor for active threads, 0
    /// for threads with no accesses).
    pub blp: Vec<f64>,
}

/// One memory controller's TCM monitors: shadow row-buffers and the BLP
/// time integral, per thread.
#[derive(Debug, Clone)]
pub struct TcmMonitor {
    num_threads: usize,
    total_banks: usize,
    banks_per_channel: usize,
    shadow: ShadowRowBuffer,
    /// Outstanding requests per `(thread, global bank)`.
    outstanding: Vec<u32>,
    /// Number of banks with outstanding requests, per thread.
    banks_active: Vec<u32>,
    /// `Σ banks_active · dt` while the thread had outstanding requests.
    blp_integral: Vec<u64>,
    /// Total time with ≥ 1 outstanding request.
    busy_time: Vec<u64>,
    last_event: Vec<Cycle>,
}

impl TcmMonitor {
    /// Creates monitors for `num_threads` threads over a memory system
    /// with `num_channels × banks_per_channel` banks.
    pub fn new(num_threads: usize, num_channels: usize, banks_per_channel: usize) -> Self {
        let total_banks = num_channels * banks_per_channel;
        Self {
            num_threads,
            total_banks,
            banks_per_channel,
            // Shadow row-buffers are tracked per *global* bank: flatten
            // (channel, bank) into a single bank axis.
            shadow: ShadowRowBuffer::new(num_threads, total_banks),
            outstanding: vec![0; num_threads * total_banks],
            banks_active: vec![0; num_threads],
            blp_integral: vec![0; num_threads],
            busy_time: vec![0; num_threads],
            last_event: vec![0; num_threads],
        }
    }

    fn flat_bank(&self, bank: GlobalBank) -> usize {
        bank.flat_index(self.banks_per_channel)
    }

    /// Advances the BLP time integral for `thread` to `now`.
    fn settle(&mut self, thread: usize, now: Cycle) {
        let dt = now.saturating_sub(self.last_event[thread]);
        if self.banks_active[thread] > 0 && dt > 0 {
            self.blp_integral[thread] += self.banks_active[thread] as u64 * dt;
            self.busy_time[thread] += dt;
        }
        self.last_event[thread] = now;
    }

    /// Records a request arriving at a controller.
    pub fn on_enqueue(&mut self, thread: ThreadId, bank: GlobalBank, row: Row, now: Cycle) {
        let t = thread.index();
        if t >= self.num_threads {
            return;
        }
        self.shadow
            .access(thread, BankId::new(self.flat_bank(bank)), row);
        self.settle(t, now);
        let slot = t * self.total_banks + self.flat_bank(bank);
        self.outstanding[slot] += 1;
        if self.outstanding[slot] == 1 {
            self.banks_active[t] += 1;
        }
    }

    /// Records a request leaving the queue for service.
    ///
    /// # Panics
    ///
    /// Panics if no request from `thread` is outstanding at `bank` —
    /// enqueue/service accounting must be balanced.
    pub fn on_service(&mut self, thread: ThreadId, bank: GlobalBank, now: Cycle) {
        let t = thread.index();
        if t >= self.num_threads {
            return;
        }
        self.settle(t, now);
        let slot = t * self.total_banks + self.flat_bank(bank);
        assert!(self.outstanding[slot] > 0, "unbalanced service accounting");
        self.outstanding[slot] -= 1;
        if self.outstanding[slot] == 0 {
            self.banks_active[t] -= 1;
        }
    }

    /// Harvests the raw per-quantum accumulators as a [`MonitorSample`]
    /// for meta-controller aggregation (paper §5.3) and resets them: the
    /// shadow hit and access counters and the BLP integrals.
    pub fn harvest_sample(&mut self, now: Cycle) -> MonitorSample {
        let n = self.num_threads;
        let mut sample = MonitorSample {
            shadow_hits: vec![0; n],
            shadow_accesses: vec![0; n],
            blp_integral: vec![0; n],
            busy_time: vec![0; n],
        };
        for t in 0..n {
            self.settle(t, now);
            let (hits, accesses) = self.shadow.hits_and_accesses(ThreadId::new(t));
            sample.shadow_hits[t] = hits;
            sample.shadow_accesses[t] = accesses;
            sample.blp_integral[t] = self.blp_integral[t];
            sample.busy_time[t] = self.busy_time[t];
            self.blp_integral[t] = 0;
            self.busy_time[t] = 0;
        }
        self.shadow.reset_counters();
        sample
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{MetaController, TcmParams};
    use tcm_sched::SystemView;
    use tcm_types::{ChannelId, SystemConfig, Topology};

    fn gb(channel: usize, bank: usize) -> GlobalBank {
        GlobalBank::new(ChannelId::new(channel), BankId::new(bank))
    }

    /// A 2-thread monitor over 4 global banks, with the meta-controller
    /// that aggregates its samples.
    fn monitor() -> (TcmMonitor, MetaController) {
        let cfg = SystemConfig::builder()
            .num_threads(2)
            .topology(Topology::uniform(2, 1))
            .banks_per_channel(2)
            .build()
            .unwrap();
        let meta = MetaController::new(TcmParams::paper_default(2), 2, &cfg);
        (TcmMonitor::new(2, 2, 2), meta)
    }

    /// The quantum ending at `now` as the ranking engine sees it: the
    /// monitor's harvest aggregated with the cumulative counters.
    fn snapshot(
        m: &mut TcmMonitor,
        meta: &mut MetaController,
        now: Cycle,
        retired: &[u64],
        misses: &[u64],
        service: &[u64],
    ) -> QuantumSnapshot {
        let view = SystemView {
            retired,
            misses,
            service,
        };
        meta.aggregate(&view, &[Some(m.harvest_sample(now))])
    }

    #[test]
    fn blp_is_time_weighted_average_of_active_banks() {
        let (mut m, mut meta) = monitor();
        let t = ThreadId::new(0);
        // Two banks active from cycle 0 to 100.
        m.on_enqueue(t, gb(0, 0), Row::new(1), 0);
        m.on_enqueue(t, gb(1, 1), Row::new(2), 0);
        // One bank drains at 100; the other at 200.
        m.on_service(t, gb(0, 0), 100);
        m.on_service(t, gb(1, 1), 200);
        let snap = snapshot(&mut m, &mut meta, 1000, &[1000, 0], &[2, 0], &[0, 0]);
        // BLP = (2*100 + 1*100) / 200 = 1.5.
        assert!((snap.blp[0] - 1.5).abs() < 1e-9, "blp = {}", snap.blp[0]);
    }

    #[test]
    fn rbl_measures_shadow_hits() {
        let (mut m, mut meta) = monitor();
        let t = ThreadId::new(0);
        m.on_enqueue(t, gb(0, 0), Row::new(7), 0);
        m.on_enqueue(t, gb(0, 0), Row::new(7), 10); // shadow hit
        m.on_enqueue(t, gb(0, 0), Row::new(8), 20); // miss
        m.on_enqueue(t, gb(0, 0), Row::new(8), 30); // hit
        for at in [40, 50, 60, 70] {
            m.on_service(t, gb(0, 0), at);
        }
        let snap = snapshot(&mut m, &mut meta, 100, &[100, 0], &[4, 0], &[0, 0]);
        assert!((snap.rbl[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mpki_and_bandwidth_are_quantum_deltas() {
        let (mut m, mut meta) = monitor();
        let snap = snapshot(
            &mut m,
            &mut meta,
            1000,
            &[10_000, 1000],
            &[50, 0],
            &[777, 0],
        );
        assert!((snap.mpki[0] - 5.0).abs() < 1e-9);
        assert_eq!(snap.bw_usage[0], 777);
        assert_eq!(snap.mpki[1], 0.0);
        // Second quantum: only the delta counts.
        let snap = snapshot(
            &mut m,
            &mut meta,
            2000,
            &[20_000, 2000],
            &[70, 3],
            &[1000, 50],
        );
        assert!((snap.mpki[0] - 2.0).abs() < 1e-9);
        assert_eq!(snap.bw_usage[0], 223);
        assert_eq!(snap.bw_usage[1], 50);
        assert!((snap.mpki[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stalled_thread_with_misses_has_infinite_mpki() {
        let (mut m, mut meta) = monitor();
        let snap = snapshot(&mut m, &mut meta, 1000, &[0, 0], &[5, 0], &[0, 0]);
        assert!(snap.mpki[0].is_infinite());
    }

    #[test]
    fn quantum_reset_clears_blp_and_rbl_windows() {
        let (mut m, mut meta) = monitor();
        let t = ThreadId::new(0);
        m.on_enqueue(t, gb(0, 0), Row::new(1), 0);
        m.on_service(t, gb(0, 0), 100);
        let first = snapshot(&mut m, &mut meta, 100, &[100, 0], &[1, 0], &[10, 0]);
        assert!(first.blp[0] > 0.0);
        // Nothing happens in the second quantum.
        let second = snapshot(&mut m, &mut meta, 200, &[200, 0], &[1, 0], &[10, 0]);
        assert_eq!(second.blp[0], 0.0);
        assert_eq!(second.rbl[0], 0.0);
        assert_eq!(second.bw_usage[0], 0);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_service_panics() {
        let (mut m, _) = monitor();
        m.on_service(ThreadId::new(0), gb(0, 0), 10);
    }

    #[test]
    fn out_of_range_threads_are_ignored() {
        let (mut m, mut meta) = monitor();
        m.on_enqueue(ThreadId::new(9), gb(0, 0), Row::new(1), 0);
        m.on_service(ThreadId::new(9), gb(0, 0), 10);
        let snap = snapshot(&mut m, &mut meta, 100, &[0, 0], &[0, 0], &[0, 0]);
        assert_eq!(snap.blp, vec![0.0, 0.0]);
    }
}
