//! Structured tracing and metrics for the TCM simulator.
//!
//! Three pieces:
//!
//! * A **tracer**: a ring-buffered log of typed [`TraceEvent`]s —
//!   quantum boundaries, cluster assignments with niceness ranks,
//!   shuffle applications, row hits/misses/conflicts, bank
//!   activates/precharges, degradation fallbacks and chaos injections —
//!   with JSONL and Chrome-trace exporters ([`events_to_jsonl`],
//!   [`chrome_event`] and their siblings at the crate root).
//! * A **metrics registry** ([`MetricsRegistry`]): counters, gauges,
//!   fixed-bucket histograms and per-quantum series under
//!   label-qualified names.
//! * The [`Telemetry`] handle that the simulator threads through its
//!   layers. A *disabled* handle (the default) is a null pointer: every
//!   hook is an inlined `if None` test, the event-construction closure
//!   is never called, and results are bit-identical with telemetry on
//!   or off — tracing is observation-only by construction.
//!
//! # Zero overhead when disabled
//!
//! Hooks take `impl FnOnce() -> TraceEvent`, so argument formatting and
//! allocation happen only when a sink is attached. For A/B overhead
//! measurement the `off` cargo feature removes the hook bodies
//! entirely ([`TELEMETRY_IMPL`] reports which build this is); the
//! repo's bench harness asserts the default (hooks-in, disabled)
//! build's throughput stays within the documented bound of the
//! compiled-out build.
//!
//! # Example
//!
//! ```
//! use tcm_telemetry::{Telemetry, TelemetryConfig, TraceEvent};
//!
//! let telemetry = Telemetry::new(&TelemetryConfig::default());
//! telemetry.emit(|| TraceEvent::QuantumBoundary {
//!     cycle: 1_000_000,
//!     index: 0,
//!     degraded: false,
//! });
//! telemetry.with_metrics(|m| m.add("quanta", 1));
//! if let Some(snapshot) = telemetry.snapshot() {
//!     assert_eq!(snapshot.events.len(), 1);
//!     assert_eq!(snapshot.metrics.counter("quanta"), Some(1));
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

mod event;
mod export;
mod metrics;
pub mod prometheus;

pub use event::{
    ClusterKind, DegradationAnomaly, MonitorCounter, QuarantineReason, RowOutcome, ShuffleAlgo,
    TraceEvent,
};
pub use export::{
    chrome_counter, chrome_event, chrome_process_name, event_to_jsonl, events_to_jsonl,
    parse_event, parse_jsonl,
};
pub use metrics::{labeled, Histogram, MetricsRegistry, MetricsSummary};

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which telemetry implementation this build carries: `"hooks"` (the
/// default — hooks compiled in, enabled at runtime per run) or `"off"`
/// (the `off` cargo feature: hooks compiled out, for overhead A/B).
pub const TELEMETRY_IMPL: &str = if cfg!(feature = "off") {
    "off"
} else {
    "hooks"
};

/// Sizing knobs for an enabled [`Telemetry`] sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity of the tracer, in events. When full, the
    /// oldest event is dropped (and counted) per new event.
    pub trace_capacity: usize,
    /// Cycle stride between periodic samples (queue depth, bus
    /// utilization) taken by the simulator's event loop.
    pub sample_interval: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 65_536,
            sample_interval: 100_000,
        }
    }
}

/// Everything an enabled telemetry sink captured: the (possibly
/// truncated) event log and the metrics registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Traced events, oldest first. At most `trace_capacity` entries;
    /// when the ring wrapped, these are the **newest** events.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring buffer was full.
    pub dropped: u64,
    /// The metrics registry's final state.
    pub metrics: MetricsRegistry,
}

#[derive(Debug)]
struct TraceBuffer {
    #[cfg_attr(feature = "off", allow(dead_code))]
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    // Only the hooks build records; `off` still links the buffer so
    // snapshots keep their shape.
    #[cfg_attr(feature = "off", allow(dead_code))]
    fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[derive(Debug)]
struct Shared {
    config: TelemetryConfig,
    tracer: Mutex<TraceBuffer>,
    metrics: Mutex<MetricsRegistry>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Telemetry is observation-only; a panic mid-record at worst leaves
    // a partially-updated registry, which is still safe to read.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cheap, cloneable telemetry handle.
///
/// Disabled (the default) it is a null pointer and every hook is a
/// no-op; enabled, clones share one tracer + registry, so the handle
/// can be fanned out to every channel and the scheduler while the
/// run's owner later takes one [`Telemetry::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Shared>>,
}

impl Telemetry {
    /// The disabled handle: all hooks no-ops, [`Telemetry::snapshot`]
    /// returns `None`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled sink with the given sizing. Under the `off` cargo
    /// feature this returns a *disabled* handle — the hook bodies do
    /// not exist in that build.
    #[cfg(not(feature = "off"))]
    pub fn new(config: &TelemetryConfig) -> Self {
        Self {
            inner: Some(Arc::new(Shared {
                tracer: Mutex::new(TraceBuffer {
                    capacity: config.trace_capacity,
                    events: VecDeque::with_capacity(config.trace_capacity.min(4096)),
                    dropped: 0,
                }),
                metrics: Mutex::new(MetricsRegistry::new()),
                config: config.clone(),
            })),
        }
    }

    /// An enabled sink with the given sizing. Under the `off` cargo
    /// feature this returns a *disabled* handle — the hook bodies do
    /// not exist in that build.
    #[cfg(feature = "off")]
    pub fn new(_config: &TelemetryConfig) -> Self {
        Self::disabled()
    }

    /// Whether a sink is attached (always `false` under `off`).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured sampling stride, when enabled.
    pub fn sample_interval(&self) -> Option<u64> {
        self.inner.as_ref().map(|s| s.config.sample_interval)
    }

    /// Records one trace event. The closure runs only when a sink is
    /// attached, so a disabled handle pays one pointer test.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        #[cfg(not(feature = "off"))]
        if let Some(shared) = &self.inner {
            lock(&shared.tracer).push(event());
        }
        #[cfg(feature = "off")]
        let _ = event;
    }

    /// Runs `f` against the shared metrics registry. The closure runs
    /// only when a sink is attached.
    #[inline]
    pub fn with_metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        #[cfg(not(feature = "off"))]
        if let Some(shared) = &self.inner {
            f(&mut lock(&shared.metrics));
        }
        #[cfg(feature = "off")]
        let _ = f;
    }

    /// Clones out everything captured so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let shared = self.inner.as_ref()?;
        let tracer = lock(&shared.tracer);
        let metrics = lock(&shared.metrics);
        Some(TelemetrySnapshot {
            events: tracer.events.iter().cloned().collect(),
            dropped: tracer.dropped,
            metrics: metrics.clone(),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_runs_closures() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.sample_interval(), None);
        t.emit(|| unreachable!("emit closure must not run when disabled"));
        t.with_metrics(|_| unreachable!("metrics closure must not run when disabled"));
        assert!(t.snapshot().is_none());
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::new(&TelemetryConfig::default());
        let clone = t.clone();
        clone.emit(|| TraceEvent::BankPrecharge {
            cycle: 5,
            channel: 0,
            bank: 1,
        });
        clone.with_metrics(|m| m.add("x", 2));
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.metrics.counter("x"), Some(2));
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn ring_buffer_keeps_newest_and_counts_drops() {
        let t = Telemetry::new(&TelemetryConfig {
            trace_capacity: 3,
            ..TelemetryConfig::default()
        });
        for cycle in 0..10 {
            t.emit(|| TraceEvent::BankPrecharge {
                cycle,
                channel: 0,
                bank: 0,
            });
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.dropped, 7);
        assert_eq!(
            snap.events
                .iter()
                .map(TraceEvent::cycle)
                .collect::<Vec<_>>(),
            vec![7, 8, 9],
            "the ring keeps the newest events"
        );
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn zero_capacity_drops_everything() {
        let t = Telemetry::new(&TelemetryConfig {
            trace_capacity: 0,
            ..TelemetryConfig::default()
        });
        t.emit(|| TraceEvent::BankPrecharge {
            cycle: 1,
            channel: 0,
            bank: 0,
        });
        let snap = t.snapshot().unwrap();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 1);
    }

    #[cfg(feature = "off")]
    #[test]
    fn off_feature_compiles_hooks_out() {
        assert_eq!(TELEMETRY_IMPL, "off");
        let t = Telemetry::new(&TelemetryConfig::default());
        assert!(!t.is_enabled(), "off builds cannot enable telemetry");
        t.emit(|| unreachable!());
        assert!(t.snapshot().is_none());
    }
}
