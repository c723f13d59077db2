//! Evaluation metrics: the three measures the paper reports.
//!
//! * **Weighted speedup** (system throughput): `Σ IPC_shared / IPC_alone`
//! * **Harmonic speedup** (balance): `N / Σ (IPC_alone / IPC_shared)`
//! * **Maximum slowdown** (unfairness): `max IPC_alone / IPC_shared`

/// Per-thread IPC pair from the shared and alone runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcPair {
    /// IPC when running with the full workload.
    pub shared: f64,
    /// IPC when running alone on the same machine.
    pub alone: f64,
}

impl IpcPair {
    /// This thread's slowdown (`alone / shared`, ≥ 0; ∞ if fully
    /// starved).
    pub fn slowdown(&self) -> f64 {
        if self.shared <= 0.0 {
            f64::INFINITY
        } else {
            self.alone / self.shared
        }
    }

    /// This thread's speedup relative to running alone
    /// (`shared / alone` ≤ 1 in contended systems).
    pub fn speedup(&self) -> f64 {
        if self.alone <= 0.0 {
            0.0
        } else {
            self.shared / self.alone
        }
    }
}

/// The paper's three workload-level metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMetrics {
    /// Weighted speedup (higher is better; ≤ N).
    pub weighted_speedup: f64,
    /// Harmonic speedup (higher is better; ≤ 1 under contention).
    pub harmonic_speedup: f64,
    /// Maximum slowdown (lower is better; ≥ 1 up to sampling noise).
    pub max_slowdown: f64,
}

/// Computes all three metrics from per-thread IPC pairs.
///
/// # Panics
///
/// Panics if `pairs` is empty.
pub fn workload_metrics(pairs: &[IpcPair]) -> WorkloadMetrics {
    assert!(!pairs.is_empty(), "metrics need at least one thread");
    let ws: f64 = pairs.iter().map(|p| p.speedup()).sum();
    let slowdown_sum: f64 = pairs.iter().map(|p| p.slowdown()).sum();
    let hs = pairs.len() as f64 / slowdown_sum;
    let ms = pairs.iter().map(|p| p.slowdown()).fold(f64::MIN, f64::max);
    WorkloadMetrics {
        weighted_speedup: ws,
        harmonic_speedup: hs,
        max_slowdown: ms,
    }
}

/// Arithmetic mean of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn variance(values: &[f64]) -> f64 {
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn ideal_system_scores_perfectly() {
        let pairs = vec![
            IpcPair {
                shared: 2.0,
                alone: 2.0
            };
            4
        ];
        let m = workload_metrics(&pairs);
        assert!((m.weighted_speedup - 4.0).abs() < 1e-12);
        assert!((m.harmonic_speedup - 1.0).abs() < 1e-12);
        assert!((m.max_slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdowns_drive_all_metrics() {
        let pairs = vec![
            IpcPair {
                shared: 1.0,
                alone: 2.0,
            }, // slowdown 2
            IpcPair {
                shared: 0.5,
                alone: 2.0,
            }, // slowdown 4
        ];
        let m = workload_metrics(&pairs);
        assert!((m.weighted_speedup - 0.75).abs() < 1e-12);
        assert!((m.harmonic_speedup - 2.0 / 6.0).abs() < 1e-12);
        assert!((m.max_slowdown - 4.0).abs() < 1e-12);
    }

    #[test]
    fn starved_thread_is_infinite_slowdown() {
        let p = IpcPair {
            shared: 0.0,
            alone: 1.0,
        };
        assert!(p.slowdown().is_infinite());
        assert_eq!(p.speedup(), 0.0);
    }

    #[test]
    fn weighted_speedup_bounded_by_thread_count() {
        let pairs = vec![
            IpcPair {
                shared: 1.9,
                alone: 2.0,
            },
            IpcPair {
                shared: 2.0,
                alone: 2.0,
            },
            IpcPair {
                shared: 0.1,
                alone: 2.0,
            },
        ];
        let m = workload_metrics(&pairs);
        assert!(m.weighted_speedup <= 3.0);
        assert!(m.max_slowdown >= 1.0);
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_metrics_panic() {
        workload_metrics(&[]);
    }
}
