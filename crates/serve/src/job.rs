//! Job-spec resolution (wire names → engine types) and durable result
//! rendering.

use tcm_core::TcmParams;
use tcm_proto::{SweepSpec, WorkloadRef};
use tcm_sched::{AtlasParams, ParBsParams, StfmParams};
use tcm_sim::{PolicyKind, SweepResult};
use tcm_types::{json, Topology};
use tcm_workload::{random_workload, table5_workloads, WorkloadSpec};

/// Schema tag of the per-job result document.
pub const RESULT_SCHEMA: &str = "tcm-serve-result-v1";

/// Parses a policy name as accepted by `tcm-run --policies` and job
/// specs; `n` sizes the policy's paper-default parameters.
pub fn parse_policy(name: &str, n: usize) -> Result<PolicyKind, String> {
    Ok(match name {
        "fcfs" => PolicyKind::Fcfs,
        "fr-fcfs" | "frfcfs" => PolicyKind::FrFcfs,
        "stfm" => PolicyKind::Stfm(StfmParams::paper_default()),
        "par-bs" | "parbs" => PolicyKind::ParBs(ParBsParams::paper_default()),
        "atlas" => PolicyKind::Atlas(AtlasParams::paper_default()),
        "fqm" => PolicyKind::FairQueueing,
        "tcm" => PolicyKind::Tcm(TcmParams::reproduction_default(n)),
        other => return Err(format!("unknown policy `{other}`")),
    })
}

/// A sweep spec resolved against the engine's types.
#[derive(Debug)]
pub struct ResolvedSweep {
    /// Policy axis.
    pub policies: Vec<PolicyKind>,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Seed axis values.
    pub seeds: Vec<u64>,
    /// Simulated cycles per cell.
    pub horizon: u64,
    /// Parsed topology override, if any.
    pub topology: Option<Topology>,
    /// Whether to capture telemetry.
    pub telemetry: bool,
}

/// Resolves names in a [`SweepSpec`] to engine types, rejecting
/// malformed specs with a client-facing message.
pub fn resolve_sweep(spec: &SweepSpec) -> Result<ResolvedSweep, String> {
    if spec.workloads.is_empty() {
        return Err("sweep needs at least one workload".into());
    }
    if spec.horizon == 0 {
        return Err("sweep horizon must be positive".into());
    }
    let workloads = spec
        .workloads
        .iter()
        .map(|w| match w {
            WorkloadRef::Named(name) => table5_workloads()
                .into_iter()
                .find(|t| &t.name == name)
                .ok_or_else(|| format!("unknown workload `{name}` (expected A, B, C or D)")),
            WorkloadRef::Random {
                seed,
                threads,
                intensity_bits,
            } => {
                let intensity = f64::from_bits(*intensity_bits);
                if !(0.0..=1.0).contains(&intensity) {
                    return Err(format!("workload intensity {intensity} outside [0, 1]"));
                }
                let threads = usize::try_from(*threads)
                    .ok()
                    .filter(|&t| (1..=1024).contains(&t))
                    .ok_or_else(|| format!("bad workload thread count {threads}"))?;
                Ok(random_workload(*seed, threads, intensity))
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let n = workloads[0].threads.len();
    if workloads.iter().any(|w| w.threads.len() != n) {
        return Err("all workloads on one grid must have the same thread count".into());
    }
    let policies = if spec.policies.is_empty() {
        PolicyKind::paper_lineup(n)
    } else {
        spec.policies
            .iter()
            .map(|name| parse_policy(name, n))
            .collect::<Result<Vec<_>, String>>()?
    };
    let topology = spec
        .topology
        .as_deref()
        .map(Topology::parse)
        .transpose()
        .map_err(|e| e.to_string())?;
    let seeds = if spec.seeds.is_empty() {
        vec![0]
    } else {
        spec.seeds.clone()
    };
    Ok(ResolvedSweep {
        policies,
        workloads,
        seeds,
        horizon: spec.horizon,
        topology,
        telemetry: spec.telemetry,
    })
}

/// Renders a finished sweep as the deterministic per-job result
/// document: grid order, floats as IEEE-754 bit patterns. Two runs of
/// the same job — interrupted or not — produce **byte-identical**
/// documents; the serve-smoke CI leg and the crash-recovery tests
/// compare these bytes directly.
pub fn render_result(result: &SweepResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{{\"schema\":\"{RESULT_SCHEMA}\",\"policies\":");
    json::write_str_array(&mut s, result.policy_labels());
    s.push_str(",\"workloads\":");
    json::write_str_array(&mut s, result.workload_names());
    s.push_str(",\"seeds\":");
    json::write_u64_array(&mut s, result.seeds().iter().copied());
    s.push_str(",\"cells\":[");
    for (i, cell) in result.cells().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let m = &cell.result.metrics;
        let _ = write!(
            s,
            "{{\"policy\":{},\"workload\":{},\"seed\":{},\"ws_bits\":{},\"hs_bits\":{},\
             \"ms_bits\":{},\"slowdown_bits\":",
            cell.policy,
            cell.workload,
            cell.seed,
            m.weighted_speedup.to_bits(),
            m.harmonic_speedup.to_bits(),
            m.max_slowdown.to_bits(),
        );
        json::write_u64_array(&mut s, cell.result.slowdowns.iter().map(|sd| sd.to_bits()));
        s.push('}');
    }
    s.push_str("],\"failures\":");
    json::write_str_array(&mut s, result.failures().iter().map(ToString::to_string));
    s.push_str("}\n");
    s
}

/// The engine's crash-consistent publish (temp file, fsync, atomic
/// rename, fsync of the parent directory), used for result and scrape
/// files.
pub use tcm_sim::write_durable;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn resolve_rejects_bad_specs_loudly() {
        let base = SweepSpec {
            policies: vec![],
            workloads: vec![WorkloadRef::Named("B".into())],
            seeds: vec![],
            horizon: 1000,
            topology: None,
            telemetry: false,
        };
        let ok = resolve_sweep(&base).unwrap();
        assert_eq!(ok.policies.len(), 5, "empty policies = paper lineup");
        assert_eq!(ok.seeds, [0], "empty seeds = canonical");

        let mut bad = base.clone();
        bad.policies = vec!["quantum-annealing".into()];
        assert!(resolve_sweep(&bad).unwrap_err().contains("unknown policy"));

        let mut bad = base.clone();
        bad.workloads = vec![WorkloadRef::Random {
            seed: 0,
            threads: 4,
            intensity_bits: 2.0f64.to_bits(),
        }];
        assert!(resolve_sweep(&bad).unwrap_err().contains("intensity"));

        let mut bad = base.clone();
        bad.horizon = 0;
        assert!(resolve_sweep(&bad).is_err());

        let mut bad = base;
        bad.topology = Some("nonsense".into());
        assert!(resolve_sweep(&bad).is_err());
    }
}
