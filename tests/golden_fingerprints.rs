//! Golden `RunResult` fingerprints for the paper-lineup sweep.
//!
//! These constants were captured from the flat-`Vec` request queue that
//! predates the indexed (per-bank lane) hot path; the refactor is
//! required to be *bit-identical*, so every field of every `RunResult`
//! in this fixed grid must still hash to the same value. If a change is
//! *meant* to alter simulation results, re-capture with:
//!
//! ```text
//! cargo test --test golden_fingerprints -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use tcm::chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm::sim::{PolicyKind, RunConfig, RunResult, Session};
use tcm::telemetry::TelemetryConfig;
use tcm::types::{SystemConfig, Topology};
use tcm::workload::{random_workload, table5_workloads, WorkloadSpec};

/// FNV-1a over a structured encoding of every behavioral field of a
/// [`RunResult`]. Floats are hashed by bit pattern, so any numeric
/// drift — however small — changes the fingerprint.
fn fingerprint(run: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(run.cycles);
    eat(run.retired.len() as u64);
    for &r in &run.retired {
        eat(r);
    }
    for &i in &run.ipc {
        eat(i.to_bits());
    }
    for &m in &run.misses {
        eat(m);
    }
    for &s in &run.service {
        eat(s);
    }
    eat(run.total_serviced);
    eat(run.row_hit_rate.to_bits());
    eat(run.spilled);
    h
}

/// The fixed grid: the paper's five-policy lineup on the paper-baseline
/// machine (24 threads, 4 channels x 4 banks), over one of the paper's
/// Table 5 workload categories and one random mixed workload. The
/// horizon exceeds TCM's 1M-cycle quantum so clustering and shuffling
/// engage (ATLAS's 10M-cycle quantum never elapses here, so its cells
/// legitimately coincide with FR-FCFS).
fn grid(telemetry: Option<TelemetryConfig>) -> (Session, Vec<WorkloadSpec>) {
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::paper_baseline())
            .horizon(1_200_000)
            .telemetry(telemetry)
            .build(),
    );
    let mut workloads = vec![table5_workloads().remove(0)];
    workloads.push(random_workload(1, 24, 0.75));
    (session, workloads)
}

fn compute_fingerprints(telemetry: Option<TelemetryConfig>) -> Vec<(String, String, u64)> {
    let (session, workloads) = grid(telemetry);
    let result = session
        .sweep()
        .policies(PolicyKind::paper_lineup(24))
        .workloads(workloads)
        .run();
    assert!(result.is_complete(), "golden grid must not have failures");
    result
        .cells()
        .iter()
        .map(|cell| {
            (
                result.policy_labels()[cell.policy].clone(),
                result.workload_names()[cell.workload].clone(),
                fingerprint(&cell.result.run),
            )
        })
        .collect()
}

/// Captured on the pre-refactor flat request queue; see module docs.
const GOLDEN: [(&str, &str, u64); 10] = [
    ("FR-FCFS", "A", 0x0b09adb91565ca44),
    ("FR-FCFS", "rand-75%-01", 0xd7d753b8d72caf62),
    ("STFM", "A", 0xf383ca8860938f1d),
    ("STFM", "rand-75%-01", 0xaed779db9dcf9809),
    ("PAR-BS", "A", 0x36fdcf9b31895792),
    ("PAR-BS", "rand-75%-01", 0xdfe3c021f3f81e89),
    ("ATLAS", "A", 0x0b09adb91565ca44),
    ("ATLAS", "rand-75%-01", 0xd7d753b8d72caf62),
    ("TCM", "A", 0x51b615860c7aaa86),
    ("TCM", "rand-75%-01", 0xd52d5b902bc8a075),
];

fn assert_matches_golden(got: &[(String, String, u64)], context: &str) {
    assert_eq!(got.len(), GOLDEN.len(), "grid shape changed ({context})");
    for ((policy, workload, fp), (gp, gw, gfp)) in got.iter().zip(GOLDEN) {
        assert_eq!(policy, gp, "policy axis changed ({context})");
        assert_eq!(workload, gw, "workload axis changed ({context})");
        assert_eq!(
            *fp, gfp,
            "RunResult drifted for {policy} x {workload} ({context}): \
             {fp:#018x} != golden {gfp:#018x}"
        );
    }
}

#[test]
fn paper_lineup_matches_golden_fingerprints() {
    assert_matches_golden(&compute_fingerprints(None), "telemetry disabled");
}

/// Telemetry is observation-only: with tracing, metric collection and
/// series sampling all enabled, every cell's `RunResult` must still be
/// bit-identical to the golden capture.
#[test]
fn telemetry_enabled_run_matches_golden_fingerprints() {
    assert_matches_golden(
        &compute_fingerprints(Some(TelemetryConfig::default())),
        "telemetry enabled",
    );
}

#[test]
#[ignore = "re-capture helper: prints the GOLDEN table"]
fn print_fingerprints() {
    for (policy, workload, fp) in compute_fingerprints(None) {
        println!("    (\"{policy}\", \"{workload}\", {fp:#018x}),");
    }
}

/// The multi-controller grid: FR-FCFS (uncoordinated) and TCM (under
/// the §5.3 meta-controller) on a uniform 2x2 and an asymmetric 3+1
/// topology, past TCM's 1M-cycle quantum so the cross-controller
/// exchange engages.
fn compute_multi_fingerprints(spec: &str) -> Vec<(String, String, u64)> {
    compute_topology_fingerprints(
        spec,
        [
            PolicyKind::FrFcfs,
            PolicyKind::Tcm(tcm::core::TcmParams::paper_default(24)),
        ],
    )
}

/// `policies` on one random mixed workload on the `spec` topology at
/// 1.2M cycles: each cell's policy label, workload name and run.
fn topology_runs(
    spec: &str,
    policies: impl IntoIterator<Item = PolicyKind>,
) -> Vec<(String, String, RunResult)> {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.topology = Topology::parse(spec).expect("valid spec");
    let session = Session::new(RunConfig::builder().system(cfg).horizon(1_200_000).build());
    let result = session
        .sweep()
        .policies(policies)
        .workloads([random_workload(1, 24, 0.75)])
        .run();
    assert!(result.is_complete(), "multi golden grid must not fail");
    result
        .cells()
        .iter()
        .map(|cell| {
            (
                result.policy_labels()[cell.policy].clone(),
                result.workload_names()[cell.workload].clone(),
                cell.result.run.clone(),
            )
        })
        .collect()
}

/// [`topology_runs`], fingerprinted.
fn compute_topology_fingerprints(
    spec: &str,
    policies: impl IntoIterator<Item = PolicyKind>,
) -> Vec<(String, String, u64)> {
    topology_runs(spec, policies)
        .into_iter()
        .map(|(policy, workload, run)| (policy, workload, fingerprint(&run)))
        .collect()
}

/// Re-captured when multi-controller machines moved onto the flat
/// machine's event loop; these pin the meta-controller exchange and
/// the per-controller policy behavior. FR-FCFS is stateless per bank,
/// so both of its entries are the flat `GOLDEN` FR-FCFS x rand-75%-01
/// fingerprint. At this horizon TCM's one exchange merges the
/// controllers' monitors into the flat machine's, so its entries
/// coincide with the flat TCM x rand-75%-01 one too.
const GOLDEN_MULTI: [(&str, &str, &str, u64); 4] = [
    ("2x2", "FR-FCFS", "rand-75%-01", 0xd7d753b8d72caf62),
    ("2x2", "TCM", "rand-75%-01", 0xd52d5b902bc8a075),
    ("3+1", "FR-FCFS", "rand-75%-01", 0xd7d753b8d72caf62),
    ("3+1", "TCM", "rand-75%-01", 0xd52d5b902bc8a075),
];

#[test]
fn multi_controller_grid_matches_golden_fingerprints() {
    let mut expected = GOLDEN_MULTI.iter();
    for spec in ["2x2", "3+1"] {
        for (policy, workload, fp) in compute_multi_fingerprints(spec) {
            let &(gs, gp, gw, gfp) = expected.next().expect("grid grew");
            assert_eq!((spec, policy.as_str(), workload.as_str()), (gs, gp, gw));
            assert_eq!(
                fp, gfp,
                "multi RunResult drifted for {spec} {policy} x {workload}: \
                 {fp:#018x} != golden {gfp:#018x}"
            );
        }
    }
}

#[test]
#[ignore = "re-capture helper: prints the GOLDEN_MULTI table"]
fn print_multi_fingerprints() {
    for spec in ["2x2", "3+1"] {
        for (policy, workload, fp) in compute_multi_fingerprints(spec) {
            println!("    (\"{spec}\", \"{policy}\", \"{workload}\", {fp:#018x}),");
        }
    }
}

/// The rest of the paper's lineup on the same two topologies: STFM,
/// PAR-BS and ATLAS, each policy instance arbitrating one controller.
fn compute_multi_lineup_fingerprints(spec: &str) -> Vec<(String, String, u64)> {
    compute_topology_fingerprints(
        spec,
        [
            PolicyKind::Stfm(tcm::sched::StfmParams::paper_default()),
            PolicyKind::ParBs(tcm::sched::ParBsParams::paper_default()),
            PolicyKind::Atlas(tcm::sched::AtlasParams::paper_default()),
        ],
    )
}

/// Re-captured with `GOLDEN_MULTI`. ATLAS's 10M-cycle quantum never
/// elapses here, so its cells coincide with the FR-FCFS entries. PAR-BS
/// keeps its batches per channel, so its cells coincide with the flat
/// `GOLDEN` PAR-BS x rand-75%-01 entry; STFM's per-controller slowdown
/// estimates are what the topology changes.
const GOLDEN_MULTI_LINEUP: [(&str, &str, &str, u64); 6] = [
    ("2x2", "STFM", "rand-75%-01", 0xb4173e3c1aeb4780),
    ("2x2", "PAR-BS", "rand-75%-01", 0xdfe3c021f3f81e89),
    ("2x2", "ATLAS", "rand-75%-01", 0xd7d753b8d72caf62),
    ("3+1", "STFM", "rand-75%-01", 0x98a8c38763648933),
    ("3+1", "PAR-BS", "rand-75%-01", 0xdfe3c021f3f81e89),
    ("3+1", "ATLAS", "rand-75%-01", 0xd7d753b8d72caf62),
];

#[test]
fn multi_controller_lineup_matches_golden_fingerprints() {
    let mut expected = GOLDEN_MULTI_LINEUP.iter();
    for spec in ["2x2", "3+1"] {
        for (policy, workload, fp) in compute_multi_lineup_fingerprints(spec) {
            let &(gs, gp, gw, gfp) = expected.next().expect("grid grew");
            assert_eq!((spec, policy.as_str(), workload.as_str()), (gs, gp, gw));
            assert_eq!(
                fp, gfp,
                "multi lineup RunResult drifted for {spec} {policy} x {workload}: \
                 {fp:#018x} != golden {gfp:#018x}"
            );
        }
    }
    assert!(expected.next().is_none(), "grid shrank");
}

/// Differential oracle: FR-FCFS is a stateless per-bank policy, and
/// ATLAS behaves as FR-FCFS until its 10M-cycle quantum first elapses,
/// so splitting the flat machine's channels among controllers must not
/// change a single bit of either's run.
#[test]
fn uncoordinated_policies_match_the_flat_machine_on_every_topology() {
    let policies = || {
        [
            PolicyKind::FrFcfs,
            PolicyKind::Atlas(tcm::sched::AtlasParams::paper_default()),
        ]
    };
    let flat = topology_runs("4", policies());
    for spec in ["2x2", "3+1"] {
        let split = topology_runs(spec, policies());
        assert_eq!(split.len(), flat.len(), "grid shape changed on {spec}");
        for ((policy, workload, run), (_, _, flat_run)) in split.iter().zip(&flat) {
            assert!(
                run == flat_run,
                "{policy} x {workload} on {spec} differs from the flat machine: \
                 {:#018x} != {:#018x}",
                fingerprint(run),
                fingerprint(flat_run)
            );
        }
    }
}

#[test]
#[ignore = "re-capture helper: prints the GOLDEN_MULTI_LINEUP table"]
fn print_multi_lineup_fingerprints() {
    for spec in ["2x2", "3+1"] {
        for (policy, workload, fp) in compute_multi_lineup_fingerprints(spec) {
            println!("    (\"{spec}\", \"{policy}\", \"{workload}\", {fp:#018x}),");
        }
    }
}

/// The chaos-under-multi grid: a 2x2 machine struck by both
/// coordination fault classes — a blackout on mc1 and a skew on mc2 —
/// with a TCM quantum short enough that each quarantine *and* its
/// re-admission land inside the horizon. Pins fault application at the
/// quantum exchange, quarantine fallback, and re-admission. The FR-FCFS
/// row pins that the same plan is inert (coordination faults have no
/// target without a meta-controller) while its armed detectors stay
/// observation-only.
fn compute_chaos_multi_fingerprints() -> Vec<(String, String, u64)> {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.topology = Topology::parse("2x2").expect("valid spec");
    // Both faults land after their target's first clean exchange at
    // 200k, so staleness is attributable (see `tcm-core`'s guard).
    let plan = FaultPlan::none()
        .with_fault(FaultSpec::new(FaultKind::ControllerBlackout, 250_000).on_controller(1))
        .with_fault(
            FaultSpec::new(FaultKind::MonitorSkew, 450_000)
                .on_controller(0)
                .on_thread(5),
        );
    let session = Session::new(
        RunConfig::builder()
            .system(cfg)
            .horizon(1_200_000)
            .chaos(Some(plan))
            .build(),
    );
    let result = session
        .sweep()
        .policies([
            PolicyKind::FrFcfs,
            PolicyKind::Tcm(tcm::core::TcmParams {
                quantum: 200_000,
                ..tcm::core::TcmParams::paper_default(24)
            }),
        ])
        .workloads([random_workload(1, 24, 0.75)])
        .run();
    assert!(
        result.is_complete(),
        "quarantine is graceful: no cell fails"
    );
    result
        .cells()
        .iter()
        .map(|cell| {
            (
                result.policy_labels()[cell.policy].clone(),
                result.workload_names()[cell.workload].clone(),
                fingerprint(&cell.result.run),
            )
        })
        .collect()
}

/// Re-captured with `GOLDEN_MULTI`. The FR-FCFS fingerprint coincides
/// with its `GOLDEN_MULTI` 2x2 entry: the plan really is a no-op there,
/// armed detectors and all.
const GOLDEN_CHAOS_MULTI: [(&str, &str, u64); 2] = [
    ("FR-FCFS", "rand-75%-01", 0xd7d753b8d72caf62),
    ("TCM", "rand-75%-01", 0xb29b880e20972b4a),
];

/// The same faults, the same quarantines, the same bits.
#[test]
fn chaos_multi_grid_matches_golden_fingerprints() {
    let got = compute_chaos_multi_fingerprints();
    assert_eq!(got.len(), GOLDEN_CHAOS_MULTI.len(), "grid shape changed");
    for ((policy, workload, fp), (gp, gw, gfp)) in got.iter().zip(GOLDEN_CHAOS_MULTI) {
        assert_eq!((policy.as_str(), workload.as_str()), (gp, gw));
        assert_eq!(
            *fp, gfp,
            "chaos-multi RunResult drifted for {policy} x {workload}: \
             {fp:#018x} != golden {gfp:#018x}"
        );
    }
}

#[test]
#[ignore = "re-capture helper: prints the GOLDEN_CHAOS_MULTI table"]
fn print_chaos_multi_fingerprints() {
    for (policy, workload, fp) in compute_chaos_multi_fingerprints() {
        println!("    (\"{policy}\", \"{workload}\", {fp:#018x}),");
    }
}
