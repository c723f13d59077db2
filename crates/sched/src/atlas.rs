//! ATLAS: adaptive per-thread least-attained-service scheduling (Kim,
//! Han, Mutlu, Harchol-Balter, HPCA 2010).

use crate::select::{age_key, pick_max_by_key, row_hit};
use crate::{PickContext, Scheduler, SystemView};
use tcm_types::{Cycle, Request, ThreadId};

/// ATLAS configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtlasParams {
    /// Quantum length in cycles (paper default 10 M).
    pub quantum: Cycle,
    /// Exponential history weight α for total attained service (paper
    /// default 0.875).
    pub history_weight: f64,
    /// Starvation threshold: requests older than this are escalated above
    /// the ranking (100 K cycles in the ATLAS paper).
    pub over_threshold: Cycle,
}

impl AtlasParams {
    /// The parameters the TCM paper uses when evaluating ATLAS
    /// (QuantumLength 10 M cycles, HistoryWeight 0.875).
    pub fn paper_default() -> Self {
        Self {
            quantum: 10_000_000,
            history_weight: 0.875,
            over_threshold: 100_000,
        }
    }

    /// Paper default with a different quantum (the Figure 6 sweep varies
    /// QuantumLength from 1 K to 20 M cycles).
    pub fn with_quantum(quantum: Cycle) -> Self {
        Self {
            quantum,
            ..Self::paper_default()
        }
    }
}

impl Default for AtlasParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Least-attained-service memory scheduler.
///
/// Every quantum, each thread's *total attained service* is updated as
/// `TotalAS ← α·TotalAS + (1−α)·AS_quantum`, where `AS_quantum` is the
/// bank-busy cycles the thread received during the quantum. Threads are
/// then ranked ascending by (weight-scaled) TotalAS — the thread that
/// attained the least service gets the highest priority, which strongly
/// favors memory-non-intensive threads and maximizes system throughput,
/// at a known cost in fairness (the most intensive threads sit at the
/// bottom of the ranking quantum after quantum; the TCM paper's Figure 4
/// shows the resulting high maximum slowdown).
#[derive(Debug, Clone)]
pub struct Atlas {
    params: AtlasParams,
    total_as: Vec<f64>,
    service_snapshot: Vec<u64>,
    weights: Vec<f64>,
    /// Priority value per thread; higher = scheduled first.
    priority: Vec<usize>,
    next_quantum: Cycle,
}

impl Atlas {
    /// Creates ATLAS for `num_threads` threads with the paper defaults.
    pub fn new(num_threads: usize) -> Self {
        Self::with_params(num_threads, AtlasParams::paper_default())
    }

    /// Creates ATLAS with explicit parameters.
    pub fn with_params(num_threads: usize, params: AtlasParams) -> Self {
        Self {
            next_quantum: params.quantum,
            params,
            total_as: vec![0.0; num_threads],
            service_snapshot: vec![0; num_threads],
            weights: vec![1.0; num_threads],
            // Before the first quantum completes all threads tie; the
            // age tier decides.
            priority: vec![0; num_threads],
        }
    }

    /// Current total-attained-service estimate for `thread`.
    pub fn total_attained_service(&self, thread: ThreadId) -> f64 {
        self.total_as[thread.index()]
    }

    /// Recomputes the per-thread priority values from TotalAS and
    /// weights: rank ascending by `TotalAS / weight`, least-served thread
    /// gets the highest priority value.
    fn recompute_priorities(&mut self) {
        let n = self.total_as.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ka = self.total_as[a] / self.weights[a];
            let kb = self.total_as[b] / self.weights[b];
            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
        });
        // order[0] attained the least service and receives the highest
        // priority value (n); the most-served thread receives 1.
        for (pos, &thread) in order.iter().enumerate() {
            self.priority[thread] = n - pos;
        }
    }
}

impl Scheduler for Atlas {
    fn name(&self) -> &'static str {
        "ATLAS"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        let now = ctx.now;
        let threshold = self.params.over_threshold;
        pick_max_by_key(pending, |r| {
            let starving = now.saturating_sub(r.issued_at) > threshold;
            (
                starving,
                self.priority.get(r.thread.index()).copied().unwrap_or(0),
                row_hit(r, ctx.open_row),
                age_key(r),
            )
        })
    }

    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        Some(self.next_quantum.max(now + 1))
    }

    fn tick(&mut self, now: Cycle, view: &SystemView<'_>) {
        let alpha = self.params.history_weight;
        for i in 0..self.total_as.len() {
            let service = view.service.get(i).copied().unwrap_or(0);
            let delta = service.saturating_sub(self.service_snapshot[i]) as f64;
            self.service_snapshot[i] = service;
            self.total_as[i] = alpha * self.total_as[i] + (1.0 - alpha) * delta;
        }
        self.recompute_priorities();
        self.next_quantum = now + self.params.quantum;
    }

    fn set_thread_weights(&mut self, weights: &[f64]) {
        for (w, &v) in self.weights.iter_mut().zip(weights) {
            *w = v.max(f64::MIN_POSITIVE);
        }
        self.recompute_priorities();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, req};

    fn view<'a>(service: &'a [u64], zeros: &'a [u64]) -> SystemView<'a> {
        SystemView {
            retired: zeros,
            misses: zeros,
            service,
        }
    }

    #[test]
    fn least_attained_service_thread_wins_after_quantum() {
        let mut a = Atlas::new(2);
        let zeros = [0u64, 0];
        a.tick(10_000_000, &view(&[500_000, 10_000], &zeros));
        // Thread 1 attained far less service -> higher priority.
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 2, 50)];
        assert_eq!(a.pick(&pending, &ctx(100, None)), 1);
        assert!(
            a.total_attained_service(ThreadId::new(1)) < a.total_attained_service(ThreadId::new(0))
        );
    }

    #[test]
    fn history_weight_smooths_updates() {
        let mut a = Atlas::new(1);
        let zeros = [0u64];
        a.tick(10_000_000, &view(&[1_000_000], &zeros));
        let first = a.total_attained_service(ThreadId::new(0));
        assert!((first - 0.125 * 1_000_000.0).abs() < 1.0);
        // No service in the second quantum: TotalAS decays by alpha.
        a.tick(20_000_000, &view(&[1_000_000], &zeros));
        let second = a.total_attained_service(ThreadId::new(0));
        assert!((second - first * 0.875).abs() < 1.0);
    }

    #[test]
    fn starving_requests_escalate_over_ranking() {
        let mut a = Atlas::new(2);
        let zeros = [0u64, 0];
        a.tick(10_000_000, &view(&[500_000, 10_000], &zeros));
        // Thread 0 is deprioritized by rank, but its request is ancient
        // while thread 1's is fresh (age below the 100 K threshold).
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 2, 10_150_000)];
        let c = ctx(10_000_000 + 200_000, None);
        assert_eq!(a.pick(&pending, &c), 0);
    }

    #[test]
    fn before_first_quantum_row_hits_and_age_decide() {
        let mut a = Atlas::new(2);
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 9, 100)];
        assert_eq!(a.pick(&pending, &ctx(200, Some(9))), 1);
        assert_eq!(a.pick(&pending, &ctx(200, None)), 0);
    }

    #[test]
    fn weights_scale_attained_service() {
        let mut a = Atlas::new(2);
        let zeros = [0u64, 0];
        // Both threads attained the same service...
        a.tick(10_000_000, &view(&[100_000, 100_000], &zeros));
        // ...but thread 0 has weight 8, so its scaled AS looks tiny.
        a.set_thread_weights(&[8.0, 1.0]);
        let pending = vec![req(0, 0, 1, 50), req(1, 1, 2, 0)];
        assert_eq!(a.pick(&pending, &ctx(100, None)), 0);
    }

    #[test]
    fn quantum_timer_advances() {
        let mut a = Atlas::new(1);
        assert_eq!(a.next_tick(0), Some(10_000_000));
        let zeros = [0u64];
        a.tick(10_000_000, &view(&[0], &zeros));
        assert_eq!(a.next_tick(10_000_000), Some(20_000_000));
    }
}
