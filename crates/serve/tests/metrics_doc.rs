//! The `tcm-run --metrics-json` document (`tcm-metrics-v1`) pinned byte
//! for byte on the flat machine: FR-FCFS and TCM on Table 5 workload A
//! at 1.2M cycles, which crosses a TCM quantum, so the fixture carries
//! the end-of-run catalog, the queue-depth histograms, the sampled
//! series and the `bw_share` series.

use std::process::Command;

/// The document `tcm-run` writes for the run in [`flat_cells_match_golden_document`].
const GOLDEN_FLAT: &str = include_str!("fixtures/metrics_flat.json");

#[test]
fn flat_cells_match_golden_document() {
    if tcm_telemetry::TELEMETRY_IMPL == "off" {
        return; // hooks compiled out: no registry to render
    }
    let dir = std::env::temp_dir().join(format!("tcm-metrics-doc-{}", std::process::id()));
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
        .arg("--metrics-json")
        .arg(&path)
        .output()
        .expect("tcm-run runs");
    assert!(status.status.success(), "tcm-run failed: {status:?}");
    let written = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        written == GOLDEN_FLAT,
        "the flat metrics document drifted from fixtures/metrics_flat.json"
    );
}
