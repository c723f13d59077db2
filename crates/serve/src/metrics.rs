//! Daemon-side metrics: accumulated counters/histograms plus scrape-
//! time gauges, rendered through `tcm_telemetry::prometheus`.
//!
//! [`DaemonMetrics`] is a **leaf lock**: hook points throughout the
//! server take it last (or alone) and never acquire another lock while
//! holding it, so it composes with the server's `inner` → `wal` →
//! `subscribers` order at any position.
//!
//! The full metric catalog lives in DESIGN.md §9; every name is
//! prefixed `tcm_serve_`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tcm_proto::JobState;
use tcm_telemetry::{labeled, prometheus, Histogram, MetricsRegistry};

/// Log2 slots for the job wall-clock latency histogram: bucket 21
/// bounds at 2^20−1 ms ≈ 17.5 min, with one overflow slot above.
const JOB_DURATION_SLOTS: usize = 22;

/// Scrape-time values the accumulator cannot know on its own; the
/// server assembles these from its own state under the proper locks.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveGauges {
    /// Jobs waiting in the queue right now.
    pub queue_depth: u64,
    /// Configured queue capacity.
    pub queue_capacity: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Watch subscriber streams currently registered.
    pub watch_subscribers: u64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// WAL records appended (and fsynced) this daemon lifetime.
    pub wal_appended_records: u64,
    /// WAL bytes appended this daemon lifetime.
    pub wal_appended_bytes: u64,
    /// Jobs folded out of the WAL at startup.
    pub wal_replayed_jobs: u64,
    /// Torn-tail bytes truncated from the WAL at startup.
    pub wal_truncated_bytes: u64,
    /// Alone-run simulations the shared baseline cache ran.
    pub alone_runs: u64,
    /// Alone-IPC lookups answered from memory.
    pub alone_memory_hits: u64,
    /// Alone-IPC lookups answered from `<state-dir>/alone/`.
    pub alone_disk_hits: u64,
    /// Stored alone entries found corrupt (recomputed, republished).
    pub alone_corrupt: u64,
}

/// The daemon's metric accumulator. Cheap atomics for the hot gauges,
/// one mutexed registry for everything counted or observed.
#[derive(Debug)]
pub struct DaemonMetrics {
    started: Instant,
    registry: Mutex<MetricsRegistry>,
    queue_high_water: AtomicU64,
    workers_busy: AtomicU64,
}

impl DaemonMetrics {
    /// A fresh accumulator; `started` anchors the uptime gauge.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            registry: Mutex::new(MetricsRegistry::new()),
            queue_high_water: AtomicU64::new(0),
            workers_busy: AtomicU64::new(0),
        }
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Workers currently executing a job.
    pub fn workers_busy(&self) -> u64 {
        self.workers_busy.load(Ordering::Relaxed)
    }

    /// Marks a worker busy (`true`) or idle again (`false`).
    pub fn set_worker_busy(&self, busy: bool) {
        if busy {
            self.workers_busy.fetch_add(1, Ordering::Relaxed);
        } else {
            self.workers_busy.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Raises the queue-depth high-water mark to at least `depth`.
    pub fn raise_queue_high_water(&self, depth: u64) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, name: &str, delta: u64) {
        lock(&self.registry).add(name, delta);
    }

    /// Adds `delta` to a counter qualified by one label.
    pub fn add_labeled(&self, name: &str, key: &str, value: &str, delta: u64) {
        lock(&self.registry).add(&labeled(name, &[(key, value)]), delta);
    }

    /// Records one finished job's wall-clock latency under its terminal
    /// state.
    pub fn observe_job_duration(&self, state: JobState, ms: u64) {
        let name = labeled("tcm_serve_job_duration_ms", &[("state", state.as_str())]);
        let mut registry = lock(&self.registry);
        if registry.histogram(&name).is_none() {
            registry.merge_histogram(&name, Histogram::log2(JOB_DURATION_SLOTS));
        }
        registry.observe(&name, ms);
    }

    /// Renders the full exposition: accumulated counters/histograms
    /// plus the supplied live gauges. Deterministic given identical
    /// state.
    pub fn render(&self, live: &LiveGauges) -> String {
        let mut registry = lock(&self.registry).clone();
        registry.set_counter(
            "tcm_serve_wal_appended_records_total",
            live.wal_appended_records,
        );
        registry.set_counter(
            "tcm_serve_wal_appended_bytes_total",
            live.wal_appended_bytes,
        );
        registry.set_counter("tcm_serve_wal_replayed_jobs_total", live.wal_replayed_jobs);
        registry.set_counter(
            "tcm_serve_wal_truncated_bytes_total",
            live.wal_truncated_bytes,
        );
        registry.set_counter("tcm_serve_alone_runs_total", live.alone_runs);
        for (source, hits) in [
            ("memory", live.alone_memory_hits),
            ("disk", live.alone_disk_hits),
        ] {
            registry.set_counter(
                &labeled("tcm_serve_alone_cache_hits_total", &[("source", source)]),
                hits,
            );
        }
        registry.set_counter("tcm_serve_alone_cache_corrupt_total", live.alone_corrupt);
        registry.set_gauge("tcm_serve_queue_depth", live.queue_depth as f64);
        registry.set_gauge("tcm_serve_queue_capacity", live.queue_capacity as f64);
        registry.set_gauge(
            "tcm_serve_queue_high_water",
            self.queue_high_water.load(Ordering::Relaxed) as f64,
        );
        registry.set_gauge("tcm_serve_workers", live.workers as f64);
        registry.set_gauge("tcm_serve_workers_busy", self.workers_busy() as f64);
        registry.set_gauge("tcm_serve_watch_subscribers", live.watch_subscribers as f64);
        registry.set_gauge("tcm_serve_draining", f64::from(u8::from(live.draining)));
        registry.set_gauge(
            "tcm_serve_uptime_seconds",
            self.started.elapsed().as_secs_f64(),
        );
        prometheus::render(&registry)
    }
}

impl Default for DaemonMetrics {
    fn default() -> Self {
        Self::new()
    }
}

fn lock(m: &Mutex<MetricsRegistry>) -> std::sync::MutexGuard<'_, MetricsRegistry> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_carries_counters_gauges_and_histograms() {
        let m = DaemonMetrics::new();
        m.add("tcm_serve_jobs_submitted_total", 2);
        m.add_labeled("tcm_serve_jobs_completed_total", "state", "done", 1);
        m.raise_queue_high_water(5);
        m.raise_queue_high_water(3); // high water never regresses
        m.set_worker_busy(true);
        m.observe_job_duration(JobState::Done, 120);
        let text = m.render(&LiveGauges {
            queue_depth: 1,
            queue_capacity: 64,
            workers: 2,
            watch_subscribers: 0,
            draining: false,
            wal_appended_records: 7,
            wal_appended_bytes: 900,
            wal_replayed_jobs: 1,
            wal_truncated_bytes: 0,
            alone_runs: 4,
            alone_memory_hits: 12,
            alone_disk_hits: 3,
            alone_corrupt: 0,
        });
        assert!(text.contains("tcm_serve_jobs_submitted_total 2\n"));
        assert!(text.contains("tcm_serve_jobs_completed_total{state=\"done\"} 1\n"));
        assert!(text.contains("tcm_serve_queue_high_water 5\n"));
        assert!(text.contains("tcm_serve_workers_busy 1\n"));
        assert!(text.contains("tcm_serve_wal_appended_records_total 7\n"));
        assert!(text.contains("tcm_serve_alone_runs_total 4\n"));
        assert!(text.contains("tcm_serve_alone_cache_hits_total{source=\"memory\"} 12\n"));
        assert!(text.contains("tcm_serve_alone_cache_hits_total{source=\"disk\"} 3\n"));
        assert!(text.contains("tcm_serve_alone_cache_corrupt_total 0\n"));
        assert!(text.contains("# TYPE tcm_serve_job_duration_ms histogram"));
        assert!(text.contains("tcm_serve_job_duration_ms_count{state=\"done\"} 1\n"));
        assert!(text.contains("tcm_serve_job_duration_ms_sum{state=\"done\"} 120\n"));
    }
}
