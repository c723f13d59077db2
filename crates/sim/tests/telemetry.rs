//! Telemetry integration: the observation-only guarantee plus
//! end-to-end trace and metric content from real simulations.
//!
//! The golden-fingerprint gate (`tests/golden_fingerprints.rs` at the
//! workspace root) already proves the full paper lineup is bit-identical
//! with telemetry on; these tests exercise the snapshot's *content* —
//! events round-trip through JSONL, and the metrics registry agrees
//! with the `RunResult` it observed.

use tcm_core::TcmParams;
use tcm_sim::{CellError, CellFailureKind, EvalResult, PolicyKind, RunConfig, Session};
use tcm_telemetry::{
    event_to_jsonl, events_to_jsonl, labeled, parse_jsonl, MetricsRegistry, TelemetryConfig,
    TraceEvent,
};
use tcm_types::{SystemConfig, Topology};
use tcm_workload::random_workload;

/// One TCM cell on an 8-thread machine, with a quantum short enough
/// that clustering engages several times within the horizon.
fn eval(telemetry: Option<TelemetryConfig>) -> EvalResult {
    let cfg = SystemConfig::builder()
        .num_threads(8)
        .build()
        .expect("test config is valid");
    let session = Session::new(
        RunConfig::builder()
            .system(cfg)
            .horizon(600_000)
            .telemetry(telemetry)
            .build(),
    );
    let policy = PolicyKind::Tcm(TcmParams {
        quantum: 100_000,
        ..TcmParams::paper_default(8)
    });
    let result = session
        .sweep()
        .policies([policy])
        .workloads([random_workload(3, 8, 0.75)])
        .run();
    assert!(result.is_complete(), "telemetry cell must not fail");
    result.cells()[0].result.clone()
}

#[test]
fn results_are_bit_identical_with_telemetry_enabled() {
    if tcm_telemetry::TELEMETRY_IMPL == "off" {
        return; // hooks compiled out: no snapshots to inspect
    }
    let off = eval(None);
    let on = eval(Some(TelemetryConfig::default()));
    assert!(off.telemetry.is_none(), "disabled run carries no snapshot");
    assert!(on.telemetry.is_some(), "enabled run returns a snapshot");
    assert_eq!(off.run, on.run, "telemetry must be observation-only");
    assert_eq!(off.slowdowns, on.slowdowns);
    assert_eq!(off.speedups, on.speedups);
}

#[test]
fn real_run_events_round_trip_through_jsonl() {
    if tcm_telemetry::TELEMETRY_IMPL == "off" {
        return; // hooks compiled out: no snapshots to inspect
    }
    let snapshot = eval(Some(TelemetryConfig::default()))
        .telemetry
        .expect("enabled run returns a snapshot");
    assert!(!snapshot.events.is_empty(), "a real run emits events");
    assert!(
        snapshot
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::QuantumBoundary { .. })),
        "six quanta elapsed, so boundaries must be traced"
    );
    let text = events_to_jsonl(&snapshot.events);
    let parsed = parse_jsonl(&text);
    assert_eq!(parsed.len(), snapshot.events.len(), "no event lost");
    for (p, e) in parsed.iter().zip(&snapshot.events) {
        // Serialized comparison is bit-exact even for NaN floats.
        assert_eq!(event_to_jsonl(p), event_to_jsonl(e));
    }
}

#[test]
fn metrics_registry_agrees_with_the_run_result() {
    if tcm_telemetry::TELEMETRY_IMPL == "off" {
        return; // hooks compiled out: no snapshots to inspect
    }
    let result = eval(Some(TelemetryConfig::default()));
    let metrics = &result.telemetry.as_ref().expect("snapshot").metrics;
    let run = &result.run;

    assert_eq!(
        metrics.counter("requests_serviced"),
        Some(run.total_serviced)
    );
    assert_eq!(metrics.counter("requests_spilled"), Some(run.spilled));
    assert_eq!(
        metrics.gauge("row_hit_rate").map(f64::to_bits),
        Some(run.row_hit_rate.to_bits()),
        "gauge is bit-equal to the RunResult's rate"
    );
    let depth = metrics.histogram("queue_depth").expect("depth histogram");
    assert!(depth.total() > 0, "every serviced request was observed");

    // Sampled series: queue depth and bus utilization per channel.
    assert!(metrics
        .series(&labeled("queue_depth", &[("channel", "0")]))
        .is_some_and(|s| !s.is_empty()));
    assert!(metrics
        .series(&labeled("bus_utilization", &[("channel", "0")]))
        .is_some_and(|s| !s.is_empty()));
}

/// FR-FCFS on one 8-thread mix with telemetry on, on the machine
/// `topology` describes.
fn frfcfs_cell(topology: Topology) -> EvalResult {
    let cfg = SystemConfig::builder()
        .num_threads(8)
        .topology(topology)
        .build()
        .expect("test config is valid");
    let session = Session::new(
        RunConfig::builder()
            .system(cfg)
            .horizon(600_000)
            .telemetry(Some(TelemetryConfig::default()))
            .build(),
    );
    let result = session
        .sweep()
        .policies([PolicyKind::FrFcfs])
        .workloads([random_workload(3, 8, 0.75)])
        .run();
    assert!(result.is_complete(), "telemetry cell must not fail");
    result.cells()[0].result.clone()
}

#[test]
fn multi_controller_cells_emit_the_full_catalog() {
    if tcm_telemetry::TELEMETRY_IMPL == "off" {
        return; // hooks compiled out: no snapshots to inspect
    }
    let result = frfcfs_cell(Topology::uniform(2, 2));
    let metrics = &result.telemetry.as_ref().expect("snapshot").metrics;
    let run = &result.run;

    let mut per_bank_serviced = 0;
    for c in 0..4 {
        let channel = c.to_string();
        let clabel: &[(&str, &str)] = &[("channel", &channel)];
        assert!(metrics
            .counter(&labeled("bus_busy_cycles", clabel))
            .is_some());
        assert!(metrics.gauge(&labeled("bus_utilization", clabel)).is_some());
        assert!(metrics.histogram(&labeled("queue_depth", clabel)).is_some());
        for series in ["queue_depth", "bus_utilization"] {
            assert!(
                metrics
                    .series(&labeled(series, clabel))
                    .is_some_and(|s| !s.is_empty()),
                "missing sampled series {series}{{channel={c}}}"
            );
        }
        for b in 0..4 {
            let bank = b.to_string();
            let labels: &[(&str, &str)] = &[("channel", &channel), ("bank", &bank)];
            per_bank_serviced += metrics
                .counter(&labeled("requests_serviced", labels))
                .expect("per-bank service counter");
            assert!(metrics.counter(&labeled("row_hits", labels)).is_some());
            assert!(metrics.counter(&labeled("row_conflicts", labels)).is_some());
        }
    }
    assert!(run.total_serviced > 0);
    assert_eq!(per_bank_serviced, run.total_serviced);
    assert_eq!(
        metrics.counter("requests_serviced"),
        Some(run.total_serviced)
    );
    assert_eq!(
        metrics.gauge("row_hit_rate").map(f64::to_bits),
        Some(run.row_hit_rate.to_bits()),
        "gauge is bit-equal to the RunResult's rate"
    );
    for mc in ["0", "1"] {
        let mlabel: &[(&str, &str)] = &[("controller", mc)];
        assert!(metrics
            .counter(&labeled("requests_serviced", mlabel))
            .is_some());
        assert!(metrics.gauge(&labeled("row_hit_rate", mlabel)).is_some());
    }

    // Apart from the per-controller aggregates, the key set is exactly
    // the flat machine's: one catalog, global channel indices.
    let flat = frfcfs_cell(Topology::flat(4));
    let keys = |m: &MetricsRegistry| -> Vec<String> {
        m.counters()
            .keys()
            .chain(m.gauges().keys())
            .chain(m.histograms().keys())
            .chain(m.all_series().keys())
            .filter(|k| !k.contains("controller="))
            .cloned()
            .collect()
    };
    let flat_metrics = &flat.telemetry.as_ref().expect("snapshot").metrics;
    assert_eq!(keys(metrics), keys(flat_metrics));
}

#[test]
fn tcm_cluster_bandwidth_shares_partition_the_bus() {
    if tcm_telemetry::TELEMETRY_IMPL == "off" {
        return; // hooks compiled out: no snapshots to inspect
    }
    let snapshot = eval(Some(TelemetryConfig::default()))
        .telemetry
        .expect("snapshot");
    let metrics = &snapshot.metrics;
    let latency = metrics
        .series(&labeled("bw_share", &[("cluster", "latency")]))
        .expect("latency-cluster share series");
    let bandwidth = metrics
        .series(&labeled("bw_share", &[("cluster", "bandwidth")]))
        .expect("bandwidth-cluster share series");
    assert!(!latency.is_empty(), "at least one quantum elapsed");
    assert_eq!(latency.len(), bandwidth.len(), "shares sampled together");
    for ((at_l, share_l), (at_b, share_b)) in latency.iter().zip(bandwidth) {
        assert_eq!(at_l, at_b, "both clusters sampled at the same boundary");
        assert!(
            (share_l + share_b - 1.0).abs() < 1e-9,
            "the two clusters partition total bandwidth: {share_l} + {share_b}"
        );
    }
}

#[test]
fn structured_failure_line_is_stable_and_greppable() {
    let err = CellError {
        policy: 0,
        workload: 1,
        seed: 2,
        policy_label: "TCM".into(),
        workload_name: "mix3".into(),
        seed_value: 7,
        elapsed: std::time::Duration::from_millis(450),
        kind: CellFailureKind::Timeout(123_456),
        controller: None,
    };
    let line = err.to_string();
    assert!(
        line.starts_with(
            "cell-failure policy=\"TCM\" workload=\"mix3\" seed=7 kind=timeout \
             elapsed_ms=450 detail=\""
        ),
        "unexpected shape: {line}"
    );

    // Quotes inside the detail are flattened so the line stays
    // splittable on `"`-delimited fields.
    let panicked = CellError {
        kind: CellFailureKind::Panic("boom \"inner\" quote".into()),
        ..err
    };
    let line = panicked.to_string();
    assert!(line.contains("kind=panic"), "{line}");
    assert!(line.contains("'inner'"), "{line}");
    assert_eq!(
        line.matches('"').count(),
        6,
        "exactly the three quoted fields: {line}"
    );

    // An attributed failure appends the controller as a trailing field.
    let attributed = CellError {
        controller: Some(tcm_types::ControllerId::new(1)),
        ..panicked
    };
    let line = attributed.to_string();
    assert!(line.ends_with(" controller=mc1"), "{line}");
}
