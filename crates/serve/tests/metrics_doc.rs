//! The `tcm-run --metrics-json` document (`tcm-metrics-v1`) pinned byte
//! for byte: FR-FCFS and TCM on Table 5 workload A at 1.2M cycles, which
//! crosses a TCM quantum, so each fixture carries the end-of-run
//! catalog, the queue-depth histograms, the sampled series and the
//! `bw_share` series. The flat machine and the 2x2 machine each have
//! one; the 2x2 document also pins the `{controller=i}` aggregates.
//! Both machines step on one event loop, so apart from those aggregates
//! the two documents agree.

use std::process::Command;

/// The document `tcm-run` writes for the run in [`flat_cells_match_golden_document`].
const GOLDEN_FLAT: &str = include_str!("fixtures/metrics_flat.json");

/// The document `tcm-run` writes for the run in [`cells_on_2x2_match_golden_document`].
const GOLDEN_2X2: &str = include_str!("fixtures/metrics_2x2.json");

/// The metrics document of the pinned run with `extra` arguments, or
/// `None` when telemetry hooks are compiled out (no registry to render).
fn metrics_document(extra: &[&str]) -> Option<String> {
    if tcm_telemetry::TELEMETRY_IMPL == "off" {
        return None;
    }
    let dir = std::env::temp_dir().join(format!(
        "tcm-metrics-doc-{}-{}",
        std::process::id(),
        extra.join("-")
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let status = Command::new(env!("CARGO_BIN_EXE_tcm-run"))
        .args([
            "--workload",
            "A",
            "--cycles",
            "1200000",
            "--policies",
            "fr-fcfs,tcm",
        ])
        .args(extra)
        .arg("--metrics-json")
        .arg(&path)
        .output()
        .expect("tcm-run runs");
    assert!(status.status.success(), "tcm-run failed: {status:?}");
    let written = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    Some(written)
}

#[test]
fn flat_cells_match_golden_document() {
    if let Some(written) = metrics_document(&[]) {
        assert!(
            written == GOLDEN_FLAT,
            "the flat metrics document drifted from fixtures/metrics_flat.json"
        );
    }
}

#[test]
fn cells_on_2x2_match_golden_document() {
    if let Some(written) = metrics_document(&["--topology", "2x2"]) {
        assert!(
            written == GOLDEN_2X2,
            "the 2x2 metrics document drifted from fixtures/metrics_2x2.json"
        );
    }
}
