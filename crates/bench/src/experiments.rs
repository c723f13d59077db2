//! One driver per table/figure of the paper.
//!
//! Every function renders a plain-text report; [`run`] looks one up by
//! its name in [`NAMES`], which is how the `reproduce` binary prints one
//! report or collects them all into EXPERIMENTS.md input. Functions share a [`Session`] so the expensive
//! alone-run IPCs are computed once per scale, and run their experiment
//! grids through the `Sweep` layer — on worker threads sharing one work
//! queue, with bit-identical results to a serial run.

use crate::{Scale, StaticPriority};
use tcm_core::storage::StorageModel;
use tcm_core::{InsertionShuffler, InsertionVariant, RoundRobinShuffler, ShuffleMode, TcmParams};
use tcm_sched::{AtlasParams, ParBsParams, StfmParams};
use tcm_sim::report::{f2, f3, pct_change, Table};
use tcm_sim::{mean, variance, PolicyKind, RunConfig, Session, System, WorkloadMetrics};
use tcm_types::{SystemConfig, ThreadId, Topology};
use tcm_workload::{
    random_workload, spec2006, spec_by_name, table5_workloads, workload_suite, BenchmarkProfile,
    MachineShape, TraceGenerator, WorkloadSpec,
};

/// A rendered experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id and title (e.g. `"Figure 4 — ..."`).
    pub title: String,
    /// Rendered body.
    pub body: String,
}

impl Report {
    fn new(title: impl Into<String>, body: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            body: body.into(),
        }
    }

    /// Renders title + body.
    pub fn render(&self) -> String {
        format!("## {}\n\n{}\n", self.title, self.body)
    }
}

/// Every experiment's name, in the order `reproduce` runs them.
pub const NAMES: [&str; 14] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "table4", "table6",
    "table7", "table8", "ablation",
];

/// Runs the experiment called `name` (one of [`NAMES`]), or returns
/// `None` for any other name. Experiments on the paper's baseline
/// machine run in `session`, which should be
/// `Session::baseline(scale.horizon)`; the others build their own.
pub fn run(name: &str, scale: &Scale, session: &Session) -> Option<Report> {
    Some(match name {
        "fig1" => fig1(scale, session),
        "fig2" => fig2(scale),
        "fig3" => fig3(),
        "fig4" => fig4(scale, session),
        "fig5" => fig5(scale, session),
        "fig6" => fig6(scale, session),
        "fig7" => fig7(scale, session),
        "fig8" => fig8(scale, session),
        "table2" => table2(),
        "table4" => table4(),
        "table6" => table6(scale, session),
        "table7" => table7(scale, session),
        "table8" => table8(scale),
        "ablation" => ablation(scale, session),
        _ => return None,
    })
}

/// Renders the paper's WS-vs-maxSD scatter geometry for a set of
/// per-policy averages (first letter of each label as the marker).
fn lineup_scatter(averages: &[(String, WorkloadMetrics)]) -> String {
    let mut plot = tcm_sim::scatter::Scatter::new("WS", "maxSD", 48, 14);
    let mut legend = Vec::new();
    for (label, m) in averages {
        let marker = label.chars().next().unwrap_or('?');
        plot.point(marker, m.weighted_speedup, m.max_slowdown);
        legend.push(format!("{marker}={label}"));
    }
    format!("{}\nlegend: {}\n", plot.render(), legend.join("  "))
}

/// Runs every policy on every workload (one sweep) and renders
/// an averaged comparison table; returns the per-policy averages
/// alongside.
fn lineup_comparison(
    kinds: &[PolicyKind],
    workloads: &[WorkloadSpec],
    session: &Session,
) -> (Table, Vec<(String, WorkloadMetrics)>) {
    let result = session
        .sweep()
        .policies(kinds.iter().cloned())
        .workloads(workloads.iter().cloned())
        .run_auto();
    let averages = result.averages();
    let mut table = Table::new(vec!["policy", "WS", "maxSD", "HS"]);
    for (label, avg) in &averages {
        table.row(vec![
            label.clone(),
            f2(avg.weighted_speedup),
            f2(avg.max_slowdown),
            f3(avg.harmonic_speedup),
        ]);
    }
    (table, averages)
}

/// Figure 1: fairness vs throughput of the four baselines, averaged over
/// the 50/75/100 %-intensity workload suite.
pub fn fig1(scale: &Scale, session: &Session) -> Report {
    let suite = workload_suite(
        &[0.5, 0.75, 1.0],
        scale.workloads_per_category,
        scale.threads,
    );
    let kinds = [
        PolicyKind::FrFcfs,
        PolicyKind::Stfm(StfmParams::paper_default()),
        PolicyKind::ParBs(ParBsParams::paper_default()),
        PolicyKind::Atlas(AtlasParams::paper_default()),
    ];
    let (table, averages) = lineup_comparison(&kinds, &suite, session);
    Report::new(
        "Figure 1 — Performance and fairness of state-of-the-art schedulers",
        format!(
            "{} workloads x {} cycles; the ideal point is high WS, low maxSD.\n\n{}\n{}",
            suite.len(),
            session.run_config().horizon,
            table.render(),
            lineup_scatter(&averages),
        ),
    )
}

/// Figure 2 / Table 1: the random-access vs streaming prioritization
/// experiment.
pub fn fig2(scale: &Scale) -> Report {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = 2;
    let session = Session::new(
        RunConfig::builder()
            .system(cfg.clone())
            .horizon(scale.horizon.min(20_000_000))
            .build(),
    );
    let random = BenchmarkProfile::random_access();
    let streaming = BenchmarkProfile::streaming();
    let alone_random = session.alone_ipc(&random);
    let alone_streaming = session.alone_ipc(&streaming);
    let workload = WorkloadSpec::new("fig2", vec![random.clone(), streaming.clone()]);

    let mut table = Table::new(vec!["prioritized", "random-access SD", "streaming SD"]);
    let mut slowdowns = Vec::new();
    for top in [0usize, 1] {
        let policy = StaticPriority::new(ThreadId::new(top));
        let mut sys = System::new(&cfg, &workload, Box::new(policy), 5);
        let run = sys.run(session.run_config().horizon);
        let sd = (alone_random / run.ipc[0], alone_streaming / run.ipc[1]);
        slowdowns.push(sd);
        table.row(vec![
            if top == 0 {
                "random-access"
            } else {
                "streaming"
            }
            .into(),
            f2(sd.0),
            f2(sd.1),
        ]);
    }
    let shape_holds = slowdowns[1].0 > slowdowns[0].1;
    Report::new(
        "Figure 2 / Table 1 — Vulnerability to interference",
        format!(
            "Microbenchmarks: {random}\n                 {streaming}\n\n{}\nShape check (deprioritized random-access suffers more than \
             deprioritized streaming): {}\n",
            table.render(),
            if shape_holds { "HOLDS" } else { "VIOLATED" }
        ),
    )
}

/// Figure 3: the round-robin vs insertion shuffle permutation diagram.
pub fn fig3() -> Report {
    let n = 4;
    // Thread i has niceness i: thread 3 nicest, thread 0 least nice.
    let entries: Vec<(ThreadId, i64)> = (0..n).map(|i| (ThreadId::new(i), i as i64)).collect();
    let mut printed = InsertionShuffler::with_variant(entries.clone(), InsertionVariant::Printed);
    let mut suffix = InsertionShuffler::with_variant(entries, InsertionVariant::SuffixRestore);
    let mut rr = RoundRobinShuffler::new((0..n).map(ThreadId::new).collect());
    let mut body = String::from(
        "4 threads; N3 = nicest ... N0 = least nice. Columns are shuffle\n\
         intervals; rows are priority levels (top row = highest).\n\n",
    );
    let period = 2 * n;
    let mut printed_states = Vec::new();
    let mut suffix_states = Vec::new();
    let mut rr_states = Vec::new();
    for _ in 0..period {
        printed_states.push(printed.ranking_vec());
        suffix_states.push(suffix.ranking_vec());
        rr_states.push(rr.ranking().to_vec());
        printed.advance();
        suffix.advance();
        rr.advance();
    }
    for (label, states) in [
        ("(a) round-robin", &rr_states),
        (
            "(b) insertion, suffix-restore reading (matches Fig. 3b prose)",
            &suffix_states,
        ),
        ("(c) insertion, literal printed pseudocode", &printed_states),
    ] {
        body.push_str(label);
        body.push('\n');
        for level in (0..n).rev() {
            let cells: Vec<String> = states
                .iter()
                .map(|s| format!("N{}", s[level].index()))
                .collect();
            body.push_str(&format!("  prio {}: {}\n", level + 1, cells.join(" ")));
        }
        body.push('\n');
    }
    body.push_str(
        "In (b) the least nice thread (N0) sits at the bottom almost always\n\
         while every thread still reaches the top - the behavior the paper's\n\
         prose describes. In (c), the literal pseudocode, N0 alternates\n\
         between the extremes. See DESIGN.md for the discrepancy analysis.\n",
    );
    Report::new("Figure 3 — Shuffling algorithm visualization", body)
}

/// Figure 4 (headline): TCM vs all four baselines over the workload
/// suite, with the paper's percentage comparisons.
pub fn fig4(scale: &Scale, session: &Session) -> Report {
    let suite = workload_suite(
        &[0.5, 0.75, 1.0],
        scale.workloads_per_category,
        scale.threads,
    );
    let kinds = PolicyKind::paper_lineup(scale.threads);
    let (table, averages) = lineup_comparison(&kinds, &suite, session);
    let get = |label: &str| {
        averages
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| *m)
            .expect("policy present")
    };
    let tcm = get("TCM");
    let atlas = get("ATLAS");
    let parbs = get("PAR-BS");
    let stfm = get("STFM");
    let frfcfs = get("FR-FCFS");
    let vs = |name: &str, other: WorkloadMetrics| {
        format!(
            "vs {name}: WS {} / maxSD {}\n",
            pct_change(tcm.weighted_speedup, other.weighted_speedup),
            pct_change(tcm.max_slowdown, other.max_slowdown),
        )
    };
    Report::new(
        "Figure 4 — TCM vs previous schedulers (headline result)",
        format!(
            "{} workloads x {} cycles.\n\n{}\n{}\nTCM {}TCM {}TCM {}TCM {}\
             \nPaper reference: TCM vs ATLAS WS +4.6% / maxSD -38.6%;\n\
             TCM vs PAR-BS WS +7.6% / maxSD -4.6%.\n",
            suite.len(),
            session.run_config().horizon,
            table.render(),
            lineup_scatter(&averages),
            vs("ATLAS", atlas),
            vs("PAR-BS", parbs),
            vs("STFM", stfm),
            vs("FR-FCFS", frfcfs),
        ),
    )
}

/// Figure 5: per-workload results for the paper's Table 5 workloads A–D.
pub fn fig5(scale: &Scale, session: &Session) -> Report {
    let kinds = PolicyKind::paper_lineup(scale.threads);
    let workloads = table5_workloads();
    let result = session
        .sweep()
        .policies(kinds.iter().cloned())
        .workloads(workloads.iter().cloned())
        .run_auto();
    let mut ws_table = Table::new(vec![
        "workload", "FR-FCFS", "STFM", "PAR-BS", "ATLAS", "TCM",
    ]);
    let mut ms_table = Table::new(vec![
        "workload", "FR-FCFS", "STFM", "PAR-BS", "ATLAS", "TCM",
    ]);
    for (w, workload) in workloads.iter().enumerate() {
        let mut ws_row = vec![workload.name.clone()];
        let mut ms_row = vec![workload.name.clone()];
        for k in 0..kinds.len() {
            let m = result.get(k, w, 0).metrics;
            ws_row.push(f2(m.weighted_speedup));
            ms_row.push(f2(m.max_slowdown));
        }
        ws_table.row(ws_row);
        ms_table.row(ms_row);
    }
    let mut avg_ws = vec!["AVG".to_string()];
    let mut avg_ms = vec!["AVG".to_string()];
    for k in 0..kinds.len() {
        let avg = result.policy_average(k);
        avg_ws.push(f2(avg.weighted_speedup));
        avg_ms.push(f2(avg.max_slowdown));
    }
    ws_table.row(avg_ws);
    ms_table.row(avg_ms);
    Report::new(
        "Figure 5 — Individual workloads A–D (Table 5)",
        format!(
            "(a) weighted speedup\n{}\n(b) maximum slowdown\n{}",
            ws_table.render(),
            ms_table.render()
        ),
    )
}

/// Figure 6: the performance–fairness trade-off as each algorithm's most
/// salient parameter is swept (50 %-intensity workloads).
pub fn fig6(scale: &Scale, session: &Session) -> Report {
    let suite = workload_suite(&[0.5], scale.workloads_per_category, scale.threads);

    // One row per parameter setting; all settings run as a single sweep.
    let mut variants: Vec<(String, String, PolicyKind)> = Vec::new();
    for k in 2..=6u32 {
        let params = TcmParams::reproduction_default(scale.threads)
            .with_cluster_thresh(k as f64 / scale.threads as f64);
        variants.push((
            "TCM".into(),
            format!("ClusterThresh {k}/{}", scale.threads),
            PolicyKind::Tcm(params),
        ));
    }
    for quantum in [1_000u64, 100_000, 1_000_000, 10_000_000, 20_000_000] {
        variants.push((
            "ATLAS".into(),
            format!("Quantum {quantum}"),
            PolicyKind::Atlas(AtlasParams::with_quantum(quantum)),
        ));
    }
    for cap in [1usize, 2, 5, 8, 10] {
        variants.push((
            "PAR-BS".into(),
            format!("BatchCap {cap}"),
            PolicyKind::ParBs(ParBsParams { batch_cap: cap }),
        ));
    }
    for thresh in [1.0f64, 1.1, 2.0, 5.0] {
        variants.push((
            "STFM".into(),
            format!("FairnessThreshold {thresh}"),
            PolicyKind::Stfm(StfmParams {
                fairness_threshold: thresh,
                ..StfmParams::paper_default()
            }),
        ));
    }
    variants.push(("FR-FCFS".into(), "(none)".into(), PolicyKind::FrFcfs));

    let result = session
        .sweep()
        .policies(variants.iter().map(|(_, _, kind)| kind.clone()))
        .workloads(suite.iter().cloned())
        .run_auto();
    let mut table = Table::new(vec!["policy", "parameter", "WS", "maxSD", "HS"]);
    for (i, (label, param, _)) in variants.iter().enumerate() {
        let avg = result.policy_average(i);
        table.row(vec![
            label.clone(),
            param.clone(),
            f2(avg.weighted_speedup),
            f2(avg.max_slowdown),
            f3(avg.harmonic_speedup),
        ]);
    }
    Report::new(
        "Figure 6 — Performance-fairness trade-off under parameter sweeps",
        format!(
            "{} 50%-intensity workloads x {} cycles. TCM's ClusterThresh should\n\
             trace a smooth WS/maxSD frontier; the baselines should move little.\n\n{}",
            suite.len(),
            session.run_config().horizon,
            table.render()
        ),
    )
}

/// Figure 7: effect of workload memory intensity (25/50/75/100 %).
pub fn fig7(scale: &Scale, session: &Session) -> Report {
    let kinds = PolicyKind::paper_lineup(scale.threads);
    let mut ws_table = Table::new(vec![
        "intensity",
        "FR-FCFS",
        "STFM",
        "PAR-BS",
        "ATLAS",
        "TCM",
    ]);
    let mut ms_table = Table::new(vec![
        "intensity",
        "FR-FCFS",
        "STFM",
        "PAR-BS",
        "ATLAS",
        "TCM",
    ]);
    for intensity in [0.25, 0.5, 0.75, 1.0] {
        let suite = workload_suite(&[intensity], scale.workloads_per_category, scale.threads);
        let result = session
            .sweep()
            .policies(kinds.iter().cloned())
            .workloads(suite)
            .run_auto();
        let mut ws_row = vec![format!("{:.0}%", intensity * 100.0)];
        let mut ms_row = ws_row.clone();
        for k in 0..kinds.len() {
            let avg = result.policy_average(k);
            ws_row.push(f2(avg.weighted_speedup));
            ms_row.push(f2(avg.max_slowdown));
        }
        ws_table.row(ws_row);
        ms_table.row(ms_row);
    }
    Report::new(
        "Figure 7 — Effect of workload memory intensity",
        format!(
            "(a) system throughput (WS)\n{}\n(b) unfairness (maxSD)\n{}",
            ws_table.render(),
            ms_table.render()
        ),
    )
}

/// Figure 8: OS thread weights, assigned worst-case (higher weight to
/// more intensive threads); ATLAS vs TCM.
pub fn fig8(scale: &Scale, session: &Session) -> Report {
    let apps: [(&str, f64); 6] = [
        ("gcc", 1.0),
        ("wrf", 2.0),
        ("GemsFDTD", 4.0),
        ("lbm", 8.0),
        ("libquantum", 16.0),
        ("mcf", 32.0),
    ];
    let copies = scale.threads / apps.len();
    let mut threads = Vec::new();
    let mut weights = Vec::new();
    for (name, weight) in apps {
        let profile = spec_by_name(name).expect("Table 4 benchmark");
        for _ in 0..copies {
            threads.push(profile.clone());
            weights.push(weight);
        }
    }
    let workload = WorkloadSpec::new("fig8-weights", threads);
    let result = session
        .sweep()
        .policies([
            PolicyKind::Atlas(AtlasParams::paper_default()),
            PolicyKind::Tcm(TcmParams::reproduction_default(scale.threads)),
        ])
        .workloads([workload])
        .weights(&weights)
        .run_auto();
    let mut table = Table::new(vec!["benchmark", "weight", "ATLAS speedup", "TCM speedup"]);
    let mut summaries = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for p in 0..2 {
        let r = result.get(p, 0, 0);
        let per_app: Vec<f64> = (0..apps.len())
            .map(|a| (0..copies).map(|c| r.speedups[a * copies + c]).sum::<f64>() / copies as f64)
            .collect();
        rows.push(per_app);
        summaries.push((r.policy.clone(), r.metrics));
    }
    for (a, (name, weight)) in apps.iter().enumerate() {
        table.row(vec![
            (*name).into(),
            format!("{weight}"),
            f3(rows[0][a]),
            f3(rows[1][a]),
        ]);
    }
    let (atlas, tcm) = (&summaries[0], &summaries[1]);
    Report::new(
        "Figure 8 — OS thread weights (worst-case assignment)",
        format!(
            "{}\nATLAS: WS {} maxSD {}\nTCM:   WS {} maxSD {}\nTCM vs ATLAS: WS {} / maxSD {} \
             (paper: +82.8% WS, -44.2% maxSD)\n",
            table.render(),
            f2(atlas.1.weighted_speedup),
            f2(atlas.1.max_slowdown),
            f2(tcm.1.weighted_speedup),
            f2(tcm.1.max_slowdown),
            pct_change(tcm.1.weighted_speedup, atlas.1.weighted_speedup),
            pct_change(tcm.1.max_slowdown, atlas.1.max_slowdown),
        ),
    )
}

/// Table 2 (+ Table 3): per-controller monitoring storage and the
/// baseline machine configuration.
pub fn table2() -> Report {
    let model = StorageModel::paper_baseline();
    let mut table = Table::new(vec!["structure", "function", "bits"]);
    for row in model.rows() {
        table.row(vec![
            row.name.into(),
            row.function.into(),
            row.bits.to_string(),
        ]);
    }
    let cfg = SystemConfig::paper_baseline();
    Report::new(
        "Table 2 — Monitoring storage cost per controller",
        format!(
            "{}\ntotal: {} bits (< 4 Kbit: {}); random-shuffle-only: {} bits (< 0.5 Kbit: {})\n\n\
             Table 3 baseline: {} cores, {} controllers x {} banks, {}-entry window,\n\
             {}-wide issue, {}-entry request buffers, round trips {}/{}/{} cycles.\n",
            table.render(),
            model.total_bits(),
            model.total_bits() < 4096,
            model.random_shuffle_only_bits(),
            model.random_shuffle_only_bits() < 512,
            cfg.num_threads,
            cfg.num_channels(),
            cfg.banks_per_channel,
            cfg.window_size,
            cfg.issue_width,
            cfg.request_buffer,
            cfg.timing.round_trip(tcm_types::RowState::Hit),
            cfg.timing.round_trip(tcm_types::RowState::Closed),
            cfg.timing.round_trip(tcm_types::RowState::Conflict),
        ),
    )
}

/// Table 4: verifies the trace generators reproduce each benchmark's
/// published MPKI / RBL / BLP.
pub fn table4() -> Report {
    let shape = MachineShape {
        num_channels: 4,
        banks_per_channel: 4,
        rows_per_bank: 16384,
    };
    let mut table = Table::new(vec![
        "benchmark",
        "MPKI",
        "gen MPKI",
        "RBL%",
        "gen RBL%",
        "BLP",
        "gen BLP",
    ]);
    let mut worst_rel = 0.0f64;
    for profile in spec2006() {
        let mut generator = TraceGenerator::new(&profile, shape, 12345);
        let mut misses = 0usize;
        let mut instructions = 0u64;
        let mut shadow: std::collections::HashMap<tcm_types::GlobalBank, tcm_types::Row> =
            Default::default();
        let (mut hits, mut accesses) = (0u64, 0u64);
        let mut burst_sum = 0usize;
        let bursts = 3000;
        for _ in 0..bursts {
            let b = generator.next_burst();
            instructions += b.gap;
            misses += b.accesses.len();
            burst_sum += b.accesses.len();
            for a in &b.accesses {
                if let Some(prev) = shadow.insert(a.global_bank(), a.row) {
                    accesses += 1;
                    if prev == a.row {
                        hits += 1;
                    }
                }
            }
        }
        let gen_mpki = misses as f64 * 1000.0 / instructions as f64;
        let gen_rbl = if accesses > 0 {
            hits as f64 / accesses as f64
        } else {
            0.0
        };
        let gen_blp = burst_sum as f64 / bursts as f64;
        worst_rel = worst_rel.max((gen_mpki - profile.mpki).abs() / profile.mpki.max(0.01));
        table.row(vec![
            profile.name.clone(),
            f2(profile.mpki),
            f2(gen_mpki),
            f2(profile.rbl * 100.0),
            f2(gen_rbl * 100.0),
            f2(profile.blp),
            f2(gen_blp),
        ]);
    }
    Report::new(
        "Table 4 — Benchmark characteristics (generator calibration)",
        format!(
            "{}\nworst relative MPKI error: {:.1}%\n",
            table.render(),
            worst_rel * 100.0
        ),
    )
}

/// Table 6: fairness of the four shuffling algorithms.
pub fn table6(scale: &Scale, session: &Session) -> Report {
    let suite = workload_suite(&[0.5], scale.workloads_per_category, scale.threads);
    let modes = [
        ("Round-robin", ShuffleMode::RoundRobin),
        ("Random", ShuffleMode::RandomOnly),
        ("Insertion", ShuffleMode::InsertionOnly),
        ("TCM (dynamic)", ShuffleMode::Dynamic),
    ];
    let result = session
        .sweep()
        .policies(modes.iter().map(|(_, mode)| {
            PolicyKind::Tcm(TcmParams::paper_default(scale.threads).with_shuffle_mode(*mode))
        }))
        .workloads(suite.iter().cloned())
        .run_auto();
    let mut table = Table::new(vec!["shuffling", "maxSD avg", "maxSD variance"]);
    for (i, (label, _)) in modes.iter().enumerate() {
        let ms: Vec<f64> = result
            .policy_results(i)
            .map(|r| r.metrics.max_slowdown)
            .collect();
        table.row(vec![(*label).into(), f2(mean(&ms)), f2(variance(&ms))]);
    }
    Report::new(
        "Table 6 — Shuffling algorithm fairness",
        format!(
            "{} 50%-intensity workloads x {} cycles.\n\n{}",
            suite.len(),
            session.run_config().horizon,
            table.render()
        ),
    )
}

/// Table 7: sensitivity to ShuffleAlgoThresh and ShuffleInterval.
pub fn table7(scale: &Scale, session: &Session) -> Report {
    let suite = workload_suite(&[0.5], scale.workloads_per_category, scale.threads);
    let mut variants: Vec<(String, String, TcmParams)> = Vec::new();
    // 1.0 forces random shuffling (the paper's own escape hatch and this
    // reproduction's headline default; see TcmParams::reproduction_default).
    for thresh in [0.05, 0.07, 0.10, 1.0] {
        variants.push((
            "ShuffleAlgoThresh".into(),
            format!("{thresh}"),
            TcmParams::paper_default(scale.threads).with_shuffle_algo_thresh(thresh),
        ));
    }
    for interval in [500u64, 600, 700, 800] {
        variants.push((
            "ShuffleInterval".into(),
            format!("{interval}"),
            TcmParams::paper_default(scale.threads).with_shuffle_interval(interval),
        ));
    }
    let result = session
        .sweep()
        .policies(variants.iter().map(|(_, _, p)| PolicyKind::Tcm(*p)))
        .workloads(suite.iter().cloned())
        .run_auto();
    let mut table = Table::new(vec!["parameter", "value", "WS", "maxSD"]);
    for (i, (label, value, _)) in variants.iter().enumerate() {
        let avg = result.policy_average(i);
        table.row(vec![
            label.clone(),
            value.clone(),
            f2(avg.weighted_speedup),
            f2(avg.max_slowdown),
        ]);
    }
    Report::new(
        "Table 7 — Sensitivity to TCM's algorithmic parameters",
        format!(
            "{} 50%-intensity workloads x {} cycles.\n\n{}",
            suite.len(),
            session.run_config().horizon,
            table.render()
        ),
    )
}

/// Table 8: TCM vs ATLAS across system configurations (controllers,
/// cores, cache size).
pub fn table8(scale: &Scale) -> Report {
    let mut table = Table::new(vec!["configuration", "value", "WS delta", "maxSD delta"]);
    let mut compare = |label: String, value: String, system: SystemConfig, mpki_scale: f64| {
        let threads = system.num_threads;
        // A fresh session per configuration: alone IPCs depend on it.
        let session = Session::new(
            RunConfig::builder()
                .system(system)
                .horizon(scale.horizon)
                .build(),
        );
        let workloads: Vec<WorkloadSpec> = (0..scale.workloads_per_category.min(4))
            .map(|s| random_workload(s as u64 + 100, threads, 0.5).with_mpki_scaled(mpki_scale))
            .collect();
        let result = session
            .sweep()
            .policies([
                PolicyKind::Atlas(AtlasParams::paper_default()),
                PolicyKind::Tcm(TcmParams::paper_default(threads)),
            ])
            .workloads(workloads)
            .run_auto();
        let atlas = result.policy_average(0);
        let tcm = result.policy_average(1);
        table.row(vec![
            label,
            value,
            pct_change(tcm.weighted_speedup, atlas.weighted_speedup),
            pct_change(tcm.max_slowdown, atlas.max_slowdown),
        ]);
    };

    // N controllers of one channel each, coordinated by the §5.3
    // exchange (TCM) and the machine-wide counters every timer reads
    // (ATLAS).
    for controllers in [1usize, 2, 4, 8, 16] {
        let system = SystemConfig::builder()
            .topology(Topology::uniform(controllers, 1))
            .build()
            .expect("valid config");
        compare("controllers".into(), controllers.to_string(), system, 1.0);
    }
    for cores in [4usize, 8, 16, 24, 32] {
        let system = SystemConfig::builder()
            .num_threads(cores)
            .build()
            .expect("valid");
        compare("cores".into(), cores.to_string(), system, 1.0);
    }
    for (label, factor) in [("512KB", 1.0), ("1MB", 0.7), ("2MB", 0.5)] {
        let system = SystemConfig::paper_baseline();
        compare("cache size".into(), label.into(), system, factor);
    }
    Report::new(
        "Table 8 — TCM vs ATLAS across system configurations",
        format!(
            "Deltas are TCM relative to ATLAS (positive WS delta = TCM faster;\n\
             negative maxSD delta = TCM fairer). Cache size is modeled by\n\
             scaling every benchmark's MPKI (bigger cache => fewer misses).\n\n{}",
            table.render()
        ),
    )
}

/// Ablation study (beyond the paper): isolates the contribution of each
/// of TCM's mechanisms, plus the FQM extension baseline.
pub fn ablation(scale: &Scale, session: &Session) -> Report {
    let suite = workload_suite(&[0.5, 1.0], scale.workloads_per_category, scale.threads);
    let n = scale.threads;
    let configs: [(&str, PolicyKind); 5] = [
        (
            "TCM (full)",
            PolicyKind::Tcm(TcmParams::reproduction_default(n)),
        ),
        // No latency cluster: a vanishing ClusterThresh puts everyone in
        // the bandwidth cluster -> pure shuffling.
        (
            "TCM, no latency cluster",
            PolicyKind::Tcm(TcmParams::reproduction_default(n).with_cluster_thresh(1e-9)),
        ),
        // No shuffling: static ascending-niceness ranking per quantum.
        (
            "TCM, no shuffling (static rank)",
            PolicyKind::Tcm(
                TcmParams::reproduction_default(n).with_shuffle_mode(ShuffleMode::Static),
            ),
        ),
        // Reference points.
        ("FR-FCFS (no thread awareness)", PolicyKind::FrFcfs),
        ("FQM (fair queueing, extension)", PolicyKind::FairQueueing),
    ];
    let result = session
        .sweep()
        .policies(configs.iter().map(|(_, kind)| kind.clone()))
        .workloads(suite.iter().cloned())
        .run_auto();
    let mut table = Table::new(vec!["configuration", "WS", "maxSD", "HS"]);
    for (i, (label, _)) in configs.iter().enumerate() {
        let avg = result.policy_average(i);
        table.row(vec![
            (*label).into(),
            f2(avg.weighted_speedup),
            f2(avg.max_slowdown),
            f3(avg.harmonic_speedup),
        ]);
    }
    Report::new(
        "Ablation — which of TCM's mechanisms earns what",
        format!(
            "{} workloads (50% and 100% intensity) x {} cycles.\n\n{}\n\
             Expected: removing the latency cluster costs throughput;\n\
             removing shuffling costs fairness; FQM is fair but slow.\n",
            suite.len(),
            session.run_config().horizon,
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_report_is_static_and_complete() {
        let r = fig3();
        assert!(r.title.contains("Figure 3"));
        assert!(r.body.contains("round-robin"));
        assert!(r.body.contains("insertion"));
        // 8 intervals x 4 levels of thread labels appear per diagram.
        assert!(r.body.matches("N0").count() >= 8);
    }

    #[test]
    fn table2_report_matches_storage_model() {
        let r = table2();
        assert!(r.body.contains("3792"));
        assert!(r.body.contains("240"));
        assert!(r.render().starts_with("## Table 2"));
    }

    #[test]
    fn fig2_runs_at_smoke_scale() {
        let scale = Scale {
            horizon: 500_000,
            workloads_per_category: 1,
            threads: 24,
        };
        let r = fig2(&scale);
        assert!(r.body.contains("prioritized"));
    }

    #[test]
    fn run_knows_only_the_listed_names() {
        let scale = Scale {
            horizon: 100_000,
            workloads_per_category: 1,
            threads: 24,
        };
        let session = Session::baseline(scale.horizon);
        let r = run("table2", &scale, &session).expect("table2 is listed");
        assert_eq!(r.render(), table2().render());
        assert!(run("nope", &scale, &session).is_none());
    }

    #[test]
    fn table4_reports_calibration() {
        let r = table4();
        assert!(r.body.contains("mcf"));
        assert!(r.body.contains("povray"));
    }

    #[test]
    fn lineup_comparison_uses_multiple_workers() {
        let session = Session::new(
            RunConfig::builder()
                .system(SystemConfig::builder().num_threads(4).build().unwrap())
                .horizon(100_000)
                .build(),
        );
        let suite = workload_suite(&[0.5], 1, 4);
        let kinds = [PolicyKind::Fcfs, PolicyKind::FrFcfs];
        let _ = lineup_comparison(&kinds, &suite, &session);
        assert!(
            session.stats().max_workers > 1,
            "sweeps shard across workers"
        );
    }
}
