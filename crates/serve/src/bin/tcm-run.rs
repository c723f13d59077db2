//! `tcm-run` — command-line front end for the simulator: run one
//! workload under one or more scheduling policies and print the paper's
//! metrics (optionally as JSON). Two subcommands complete the
//! engine/service/client split:
//!
//! ```text
//! tcm-run serve  [--socket PATH] [--state-dir DIR] [--workers N]
//!                [--queue-capacity N] [--drain-deadline SECS]
//!                [--log-level L] [--log-json] [--metrics-file FILE]
//! tcm-run client [--socket PATH] submit|soak|status|watch|cancel|drain|metrics ...
//! tcm-run top    [--socket PATH] [--interval SECS] [--once]
//! ```
//!
//! `serve` starts the long-running daemon (see `tcm_serve::server`): a
//! Unix-socket service with a durable priority job queue (fsynced WAL +
//! per-job cell checkpoints — a SIGKILL'd daemon restarts and finishes
//! its jobs bit-identically), per-job deadlines, and graceful drain on
//! SIGTERM (exit 0 within the drain deadline). `client` speaks
//! `tcm-proto` frames to it: `submit` enqueues a sweep grid (`--watch`
//! streams per-cell results live),
//! `soak` enqueues a continuous chaos-soak job, `status`/`watch`/
//! `cancel`/`drain` do what they say, `metrics` scrapes the daemon's
//! Prometheus-format exposition over the socket. `top` is a live
//! dashboard over the same three requests — Status (job table +
//! `ServerInfo`), Metrics (queue/worker/WAL gauges, throughput
//! counters) and Watch (streamed events from the newest active job) —
//! redrawn in place with plain ANSI codes; `--once` prints a single
//! snapshot and exits. Without a subcommand, `tcm-run` is the classic
//! one-shot front end:
//!
//! ```text
//! tcm-run [--threads N] [--intensity F] [--seed S] [--cycles C]
//!         [--topology N|CxK|a+b+...] [--intra-hosts H]
//!         [--policies fr-fcfs,stfm,par-bs,atlas,fqm,tcm] [--json]
//!         [--workload A|B|C|D] [--workers W] [--verify]
//!         [--checkpoint FILE] [--resume FILE] [--cell-deadline SECS]
//!         [--bench-json FILE] [--chaos-smoke] [--chaos-empty]
//!         [--trace FILE] [--trace-format jsonl|chrome] [--metrics-json FILE]
//! ```
//!
//! `--topology` selects the memory-system shape: `4` is the legacy flat
//! single controller with 4 channels, `2x2` is two controllers with two
//! channels each (coordinated by the paper's §5.3 meta-controller when
//! the policy is TCM), `3+1` is an asymmetric pair.
//!
//! `--workers W` sets how many threads pull alone baselines and cells
//! from the sweep's one work queue; results are bit-identical for any
//! count. `--intra-hosts H` is an alias that multiplies it: `--workers W
//! --intra-hosts H` runs W×H workers; each cell runs on one thread.
//! Without `--workers`, the one-shot sweep takes a worker per core and
//! ignores `--intra-hosts`; `--chaos-smoke` ignores it too.
//!
//! `--trace FILE` enables telemetry and writes the captured event log:
//! as JSONL (one event per line, `cell_begin` marker lines between
//! cells, floats as `*_bits` integers) or, with `--trace-format
//! chrome`, as a Chrome-trace JSON array loadable in Perfetto
//! (<https://ui.perfetto.dev>) — one process per sweep cell, one track
//! per simulated thread, counter tracks for the sampled series.
//! `--metrics-json FILE` enables telemetry and writes every cell's
//! final metrics registry (counters, gauges, histograms, series) as
//! one JSON document. Telemetry is observation-only: results are
//! bit-identical with and without it.
//!
//! `--bench-json FILE` switches to benchmark mode: time a *fixed*
//! paper-lineup sweep (5 policies × the 4 Table 5 workload categories on
//! the paper-baseline machine) and write a wall-clock throughput record
//! to FILE — simulated cycles/sec, cells/sec, peak queue depth — tagged
//! with whether the telemetry hooks are compiled in.
//! `scripts/bench.sh` runs the variants and merges their records into
//! `BENCH_hotpath.json`. Only `--cycles`, `--workers`/`--intra-hosts`,
//! `--topology`, and the `--verify`/`--chaos-empty` probes modify the
//! fixed sweep (`--workers` defaults to 1 in this mode for stable
//! timing).
//!
//! `--checkpoint FILE` records every completed sweep cell to FILE
//! (JSONL, one fsynced line appended per cell), and `--resume FILE`
//! restores completed cells from FILE before running the rest — the
//! merged result is bit-identical to an uninterrupted run. Each cell is
//! keyed by everything that can change its result (machine and
//! topology, horizon, policy, workload, seed, `--verify`, fault plan,
//! telemetry), so only cells this run would simulate identically are
//! restored: a flat run's FILE resumes nothing under `--topology 2x2`.
//! The two flags name the same mechanism: `--resume` both reads and
//! appends to FILE, which keeps the cells of every run that used it
//! (only a torn last line is cut off).
//! `--cell-deadline SECS` bounds each cell's wall-clock time; a cell
//! that exceeds it is cancelled cooperatively and reported as a timeout
//! after that one attempt — other cells are unaffected.
//!
//! `--chaos-smoke` prints the verdicts of the fault-injection campaign
//! (`tcm_sim::campaign`, which the daemon's soak job also runs) instead
//! of running a sweep: every `tcm-chaos` fault class is injected into a
//! fixed-seed simulation and must be caught by exactly its mapped
//! detector, and a zero-fault control run must finish clean and
//! bit-identical to a run without the chaos layer. With a
//! multi-controller `--topology` (e.g. `2x2`) the campaign runs on that
//! machine instead, covering the coordination fault classes
//! (controller blackout, monitor skew) that have no flat-machine
//! analogue. `--chaos-empty`
//! installs an *empty* fault plan on every run (arming the detectors
//! without scheduling any fault); benches use it to prove the chaos
//! layer is zero-cost when inert.
//!
//! Exit codes: 0 on success, 1 if any sweep cell failed for a
//! deterministic reason (panic, invariant violation, stall — the
//! failures are reported on stderr with their (policy, workload, seed)
//! coordinates; successful cells are still printed), 2 on usage errors,
//! 3 if cells failed but *only* by exceeding `--cell-deadline` (run
//! again with a longer deadline and `--resume` to finish the grid).
//! Each failed cell's `cell-failure` line is printed to stderr as it
//! fails; the closing report gives only their count.
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p tcm-serve --bin tcm-run -- --intensity 1.0 --cycles 5000000
//! cargo run --release -p tcm-serve --bin tcm-run -- --workload B --json
//! cargo run --release -p tcm-serve --bin tcm-run -- serve --socket /tmp/tcm.sock
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tcm_chaos::FaultPlan;
use tcm_proto::{
    Event, JobKind, JobSpec, JobState, JobStatusInfo, ServerInfo, SoakSpec, SweepSpec, WorkloadRef,
};
use tcm_serve::job::resolve_sweep;
use tcm_serve::{Client, Level, Server, ServerConfig};
use tcm_sim::campaign::{Campaign, Outcome, QUANTUM};
use tcm_sim::{CellFailureKind, PolicyKind, RunConfig, Session, SweepCell};
use tcm_telemetry::{
    chrome_counter, chrome_event, chrome_process_name, event_to_jsonl, labeled, TelemetryConfig,
};
use tcm_types::{json, SystemConfig, Topology};
use tcm_workload::table5_workloads;

struct PolicyOutput {
    policy: String,
    weighted_speedup: f64,
    harmonic_speedup: f64,
    max_slowdown: f64,
    slowdowns: Vec<f64>,
}

struct Output {
    workload: String,
    threads: usize,
    cycles: u64,
    benchmarks: Vec<String>,
    results: Vec<PolicyOutput>,
}

impl Output {
    fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"workload\": ");
        json::write_str(&mut s, &self.workload);
        let _ = write!(
            s,
            ",\n  \"threads\": {},\n  \"cycles\": {}",
            self.threads, self.cycles
        );
        s.push_str(",\n  \"benchmarks\": [");
        for (i, b) in self.benchmarks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            json::write_str(&mut s, b);
        }
        s.push_str("],\n  \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\n      \"policy\": ");
            json::write_str(&mut s, &r.policy);
            s.push_str(",\n      \"weighted_speedup\": ");
            json::number(&mut s, r.weighted_speedup);
            s.push_str(",\n      \"harmonic_speedup\": ");
            json::number(&mut s, r.harmonic_speedup);
            s.push_str(",\n      \"max_slowdown\": ");
            json::number(&mut s, r.max_slowdown);
            s.push_str(",\n      \"slowdowns\": [");
            for (j, sd) in r.slowdowns.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                json::number(&mut s, *sd);
            }
            s.push_str("]\n    }");
        }
        s.push_str("\n  ]\n}");
        s
    }
}

/// Benchmark mode: time the fixed paper-lineup sweep and write the
/// throughput record to `path`. Returns the process exit code.
fn run_bench(
    path: &str,
    cycles: u64,
    workers: usize,
    topology: Option<&Topology>,
    verify: bool,
    chaos_empty: bool,
) -> i32 {
    let threads = 24usize;
    let policies = PolicyKind::paper_lineup(threads);
    let workloads = table5_workloads();
    let policy_labels: Vec<String> = policies.iter().map(PolicyKind::label).collect();
    let workload_names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();

    let mut cfg = SystemConfig::paper_baseline();
    if let Some(topology) = topology {
        cfg.topology = topology.clone();
    }
    let topology_spec = cfg.topology.to_string();
    let session = Session::new(
        RunConfig::builder()
            .system(cfg)
            .horizon(cycles)
            .verify(verify)
            .chaos(chaos_empty.then(FaultPlan::none))
            .build(),
    );
    let sweep = session.sweep().policies(policies).workloads(workloads);
    let result = sweep.run_parallel(workers);
    if !result.is_complete() {
        eprintln!("bench sweep had {} failed cell(s)", result.failures().len());
        return 1;
    }

    let stats = result.stats();
    let wall_secs = stats.wall.as_secs_f64();
    let cells_per_sec = if wall_secs > 0.0 {
        stats.cells as f64 / wall_secs
    } else {
        0.0
    };
    let peak_queue_depth = result
        .cells()
        .iter()
        .map(|c| c.result.run.peak_queue)
        .max()
        .unwrap_or(0);

    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"tcm-bench-hotpath-v1\",\n  \"telemetry_impl\": ");
    json::write_str(&mut s, tcm_telemetry::TELEMETRY_IMPL);
    s.push_str(",\n  \"topology\": ");
    json::write_str(&mut s, &topology_spec);
    let _ = write!(s, ",\n  \"threads\": {threads},\n  \"horizon\": {cycles}");
    s.push_str(",\n  \"policies\": [");
    for (i, p) in policy_labels.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json::write_str(&mut s, p);
    }
    s.push_str("],\n  \"workloads\": [");
    for (i, w) in workload_names.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json::write_str(&mut s, w);
    }
    let _ = write!(
        s,
        "],\n  \"cells\": {},\n  \"alone_runs\": {},\n  \"workers\": {},\n  \"sim_cycles\": {}",
        stats.cells, stats.alone_runs, stats.workers, stats.sim_cycles
    );
    s.push_str(",\n  \"wall_secs\": ");
    json::number(&mut s, wall_secs);
    s.push_str(",\n  \"sim_cycles_per_sec\": ");
    json::number(&mut s, stats.sim_cycles_per_sec());
    s.push_str(",\n  \"cells_per_sec\": ");
    json::number(&mut s, cells_per_sec);
    let _ = write!(s, ",\n  \"peak_queue_depth\": {peak_queue_depth}\n}}");

    if let Err(err) = std::fs::write(path, format!("{s}\n")) {
        eprintln!("cannot write {path}: {err}");
        return 1;
    }
    eprintln!(
        "bench: {} cells @ {} cycles in {:.2}s ({:.2e} sim-cycles/sec, \
         peak queue {}) -> {}",
        stats.cells,
        cycles,
        wall_secs,
        stats.sim_cycles_per_sec(),
        peak_queue_depth,
        path,
    );
    0
}

/// Chaos smoke: prints the [`Campaign`]'s verdicts and returns the exit
/// code. A multi-controller `--topology` runs it on that machine;
/// otherwise it runs on one flat channel, where all traffic fights over
/// one data bus, so every channel-level fault finds an eligible
/// operation soon after arming.
fn run_chaos_smoke(topology: Option<&Topology>) -> i32 {
    let (topology, horizon) = match topology {
        Some(topo) if topo.num_controllers() > 1 => (topo.clone(), 300_000),
        _ => (Topology::flat(1), 200_000),
    };
    let campaign = Campaign::new(topology, 1, horizon).expect("smoke machine is valid");
    let topo = &campaign.run_config().system.topology;
    let label = if campaign.is_multi() {
        eprintln!("chaos smoke: every fault class vs its detector on {topo}");
        topo.to_string()
    } else {
        eprintln!("chaos smoke: every fault class vs its detector");
        "flat".to_string()
    };
    let mut verdicts = campaign.faults(20_000);
    let classes = verdicts
        .iter()
        .filter(|v| v.outcome != Outcome::Skipped)
        .count();
    verdicts.push(campaign.clean_control());
    for v in &verdicts {
        let (tag, hint) = match v.outcome {
            Outcome::Pass => ("ok  ", ""),
            Outcome::Fail => ("FAIL", ""),
            Outcome::Skipped => ("skip", " (rerun with --topology 2x2)"),
        };
        eprintln!("  {:<20} {tag} {}{hint}", v.name, v.detail);
    }
    let failures = verdicts
        .iter()
        .filter(|v| v.outcome == Outcome::Fail)
        .count();
    if failures > 0 {
        eprintln!("chaos smoke [{label}]: {failures} check(s) FAILED");
        return 1;
    }
    eprintln!("chaos smoke [{label}]: all {classes} fault classes detected, control clean");
    0
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

/// Serializes the captured event logs of every completed cell. JSONL
/// interleaves `cell_begin` marker lines (skipped by the parser) so one
/// file can hold a whole sweep; the Chrome format emits one trace
/// "process" per cell, named `POLICY × WORKLOAD`, with the metric
/// series as counter tracks.
fn render_trace(format: TraceFormat, cells: &[SweepCell]) -> String {
    match format {
        TraceFormat::Jsonl => {
            let mut out = String::new();
            for cell in cells {
                let Some(snapshot) = &cell.result.telemetry else {
                    continue;
                };
                out.push_str("{\"event\":\"cell_begin\",\"policy\":");
                json::write_str(&mut out, &cell.result.policy);
                out.push_str(",\"workload\":");
                json::write_str(&mut out, &cell.result.workload);
                let _ = write!(
                    out,
                    ",\"seed\":{},\"events\":{},\"dropped\":{}}}",
                    cell.seed,
                    snapshot.events.len(),
                    snapshot.dropped
                );
                out.push('\n');
                for event in &snapshot.events {
                    out.push_str(&event_to_jsonl(event));
                    out.push('\n');
                }
            }
            out
        }
        TraceFormat::Chrome => {
            let mut entries = Vec::new();
            for (i, cell) in cells.iter().enumerate() {
                let Some(snapshot) = &cell.result.telemetry else {
                    continue;
                };
                let pid = i as u64 + 1;
                entries.push(chrome_process_name(
                    pid,
                    &format!("{} × {}", cell.result.policy, cell.result.workload),
                ));
                for event in &snapshot.events {
                    entries.push(chrome_event(event, pid));
                }
                for (name, points) in snapshot.metrics.all_series() {
                    for (at, value) in points {
                        entries.push(chrome_counter(pid, name, *at, *value));
                    }
                }
            }
            format!("[{}]\n", entries.join(",\n"))
        }
    }
}

/// Serializes every cell's final metrics registry as one JSON document
/// (schema `tcm-metrics-v1`). Human-facing: floats are plain JSON
/// numbers (`null` when non-finite); the lossless form lives in the
/// sweep checkpoint.
fn render_metrics(cells: &[SweepCell]) -> String {
    let mut s = String::from("{\n  \"schema\": \"tcm-metrics-v1\",\n  \"cells\": [");
    let mut first = true;
    for cell in cells {
        let Some(snapshot) = &cell.result.telemetry else {
            continue;
        };
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str("\n    {\"policy\": ");
        json::write_str(&mut s, &cell.result.policy);
        s.push_str(", \"workload\": ");
        json::write_str(&mut s, &cell.result.workload);
        let _ = write!(
            s,
            ", \"seed\": {}, \"dropped_events\": {}",
            cell.seed, snapshot.dropped
        );
        let m = &snapshot.metrics;
        s.push_str(",\n     \"counters\": {");
        for (i, (name, value)) in m.counters().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            json::write_str(&mut s, name);
            let _ = write!(s, ": {value}");
        }
        s.push_str("},\n     \"gauges\": {");
        for (i, (name, value)) in m.gauges().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            json::write_str(&mut s, name);
            s.push_str(": ");
            json::number(&mut s, *value);
        }
        s.push_str("},\n     \"histograms\": {");
        for (i, (name, hist)) in m.histograms().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            json::write_str(&mut s, name);
            s.push_str(": {\"bounds\": ");
            json::write_u64_array(&mut s, hist.bounds().iter().copied());
            s.push_str(", \"counts\": ");
            json::write_u64_array(&mut s, hist.counts().iter().copied());
            s.push('}');
        }
        s.push_str("},\n     \"series\": {");
        for (i, (name, points)) in m.all_series().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            json::write_str(&mut s, name);
            s.push_str(": [");
            for (j, (at, value)) in points.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{at},");
                json::number(&mut s, *value);
                s.push(']');
            }
            s.push(']');
        }
        s.push_str("}}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// The paper's Figure 9 in one line per TCM cell: the average fraction
/// of DRAM bandwidth each cluster consumed, over the run's quanta.
fn print_cluster_summary(cells: &[SweepCell]) {
    for cell in cells {
        let Some(snapshot) = &cell.result.telemetry else {
            continue;
        };
        let latency = snapshot
            .metrics
            .series(&labeled("bw_share", &[("cluster", "latency")]));
        let bandwidth = snapshot
            .metrics
            .series(&labeled("bw_share", &[("cluster", "bandwidth")]));
        let (Some(latency), Some(bandwidth)) = (latency, bandwidth) else {
            continue;
        };
        let avg = |points: &[(u64, f64)]| {
            points.iter().map(|(_, v)| v).sum::<f64>() / points.len().max(1) as f64
        };
        println!(
            "{:>8} | bw share (Fig. 9): latency-cluster {:.1}%, bandwidth-cluster {:.1}% \
             over {} quanta",
            cell.result.policy,
            avg(latency) * 100.0,
            avg(bandwidth) * 100.0,
            latency.len(),
        );
    }
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: tcm-run serve [--socket PATH] [--state-dir DIR] [--workers N]\n\
         \x20                    [--queue-capacity N] [--drain-deadline SECS]\n\
         \x20                    [--log-level debug|info|warn|error] [--log-json]\n\
         \x20                    [--metrics-file FILE]\n\
         Starts the sweep daemon on a Unix-domain socket. State (WAL, per-job\n\
         checkpoints, result files) lives in --state-dir; a restarted daemon\n\
         re-admits unfinished jobs from the WAL and finishes them bit-identically.\n\
         SIGTERM/SIGINT drain gracefully: admission stops, in-flight cells finish\n\
         or checkpoint, and the process exits 0 within --drain-deadline.\n\
         Logs are structured key=value lines on stderr (--log-json switches to one\n\
         JSON object per line); --metrics-file atomically republishes the\n\
         Prometheus text exposition about once a second for file-based scrapes."
    );
    std::process::exit(2)
}

fn serve_main(args: &[String]) -> i32 {
    let mut config = ServerConfig::default();
    let mut log_level = Level::Info;
    let mut log_json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    serve_usage()
                })
                .clone()
        };
        match arg.as_str() {
            "--socket" => config.socket = PathBuf::from(value("--socket")),
            "--state-dir" => config.state_dir = PathBuf::from(value("--state-dir")),
            "--workers" => {
                config.workers = value("--workers").parse().unwrap_or_else(|_| serve_usage())
            }
            "--queue-capacity" => {
                config.queue_capacity = value("--queue-capacity")
                    .parse()
                    .unwrap_or_else(|_| serve_usage())
            }
            "--drain-deadline" => {
                let secs: f64 = value("--drain-deadline")
                    .parse()
                    .unwrap_or_else(|_| serve_usage());
                if !secs.is_finite() || secs < 0.0 {
                    serve_usage()
                }
                config.drain_deadline = Duration::from_secs_f64(secs);
            }
            "--log-level" => {
                log_level = Level::parse(&value("--log-level")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    serve_usage()
                })
            }
            "--log-json" => log_json = true,
            "--metrics-file" => config.metrics_file = Some(PathBuf::from(value("--metrics-file"))),
            "--help" | "-h" => serve_usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                serve_usage()
            }
        }
    }
    tcm_serve::log::init(log_level, log_json);
    tcm_serve::signal::install_drain_handler();
    match Server::new(config).and_then(Server::run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tcm-serve: {e}");
            1
        }
    }
}

fn client_usage() -> ! {
    eprintln!(
        "usage: tcm-run client [--socket PATH] COMMAND\n\
         commands:\n\
         \x20 submit [--priority P] [--deadline SECS]\n\
         \x20        [--policies p1,p2,...] [--workloads A,B|random:SEED:THREADS:INTENSITY]\n\
         \x20        [--seeds 0,1,...] [--cycles C] [--topology T] [--telemetry] [--watch]\n\
         \x20 soak   [--seed S] [--rounds R] [--cycles C] [--priority P] [--watch]\n\
         \x20 status [ID]\n\
         \x20 watch  ID\n\
         \x20 cancel ID\n\
         \x20 drain\n\
         \x20 metrics\n\
         submit enqueues a policy × workload × seed sweep grid; soak enqueues a\n\
         continuous fault-injection job (every class must be detected each round;\n\
         its --cycles must be at least {QUANTUM}, one TCM quantum, default 200000).\n\
         --watch streams per-cell results live and exits with the job's outcome.\n\
         status prints the daemon's self-description plus per-job progress;\n\
         metrics prints the daemon's Prometheus-format text exposition."
    );
    std::process::exit(2)
}

fn print_event(event: &Event) {
    match event {
        Event::CellResult {
            policy,
            workload,
            seed,
            ws_bits,
            hs_bits,
            ms_bits,
            resumed,
            ..
        } => println!(
            "cell {policy} × {workload} seed={seed} WS={:.2} maxSD={:.2} HS={:.3}{}",
            f64::from_bits(*ws_bits),
            f64::from_bits(*ms_bits),
            f64::from_bits(*hs_bits),
            if *resumed { " (resumed)" } else { "" },
        ),
        Event::CellFailure { line, .. } => eprintln!("{line}"),
        Event::Telemetry {
            counters,
            gauge_bits,
            ..
        } => println!(
            "telemetry: {} counter(s), {} gauge(s)",
            counters.len(),
            gauge_bits.len()
        ),
        Event::SoakRound {
            round,
            detected,
            classes,
            ..
        } => println!("soak round {round}: {detected}/{classes} fault classes detected"),
        Event::JobDone { .. } => {}
    }
}

/// Blocks on a job's event stream; exit code reflects its outcome.
fn watch_job(client: &mut Client, id: u64) -> i32 {
    match client.watch(id, print_event) {
        Ok((state, detail)) => {
            eprintln!("job {id}: {} — {detail}", state.as_str());
            i32::from(state != JobState::Done)
        }
        Err(e) => {
            eprintln!("watch failed: {e}");
            1
        }
    }
}

fn parse_workload_ref(s: &str) -> Result<WorkloadRef, String> {
    let Some(rest) = s.strip_prefix("random:") else {
        return Ok(WorkloadRef::Named(s.to_string()));
    };
    let parts: Vec<&str> = rest.split(':').collect();
    let bad = || format!("bad workload `{s}` (want NAME or random:SEED:THREADS:INTENSITY)");
    if parts.len() != 3 {
        return Err(bad());
    }
    let seed: u64 = parts[0].parse().map_err(|_| bad())?;
    let threads: u64 = parts[1].parse().map_err(|_| bad())?;
    let intensity: f64 = parts[2].parse().map_err(|_| bad())?;
    Ok(WorkloadRef::Random {
        seed,
        threads,
        intensity_bits: intensity.to_bits(),
    })
}

fn client_main(args: &[String]) -> i32 {
    let mut socket = PathBuf::from("tcm-serve.sock");
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(path) => socket = PathBuf::from(path),
                None => client_usage(),
            },
            "--help" | "-h" => client_usage(),
            _ => {
                rest.push(arg.clone());
                rest.extend(it.cloned());
                break;
            }
        }
    }
    let Some(command) = rest.first().cloned() else {
        client_usage()
    };
    let args = &rest[1..];
    let mut client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", socket.display());
            return 1;
        }
    };
    match command.as_str() {
        "submit" | "soak" => {
            let mut spec = JobSpec {
                priority: 1,
                deadline_ms: None,
                max_attempts: 2,
                kind: JobKind::Sweep(SweepSpec {
                    policies: vec![],
                    workloads: vec![WorkloadRef::Named("B".into())],
                    seeds: vec![],
                    horizon: 1_000_000,
                    topology: None,
                    telemetry: false,
                }),
            };
            let mut soak = SoakSpec {
                seed: 0,
                rounds: 10,
                horizon: 200_000,
            };
            let mut watch = false;
            let is_soak = command == "soak";
            let mut sweep = SweepSpec {
                policies: vec![],
                workloads: vec![WorkloadRef::Named("B".into())],
                seeds: vec![],
                horizon: 1_000_000,
                topology: None,
                telemetry: false,
            };
            let mut it = args.iter();
            while let Some(arg) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .unwrap_or_else(|| {
                            eprintln!("missing value for {name}");
                            client_usage()
                        })
                        .clone()
                };
                match arg.as_str() {
                    "--priority" => {
                        spec.priority = value("--priority")
                            .parse()
                            .unwrap_or_else(|_| client_usage())
                    }
                    "--deadline" => {
                        let secs: f64 = value("--deadline")
                            .parse()
                            .unwrap_or_else(|_| client_usage());
                        if !secs.is_finite() || secs < 0.0 {
                            client_usage()
                        }
                        spec.deadline_ms = Some((secs * 1000.0) as u64);
                    }
                    "--policies" if !is_soak => {
                        sweep.policies = value("--policies").split(',').map(String::from).collect()
                    }
                    "--workloads" if !is_soak => {
                        sweep.workloads = value("--workloads")
                            .split(',')
                            .map(|w| {
                                parse_workload_ref(w).unwrap_or_else(|e| {
                                    eprintln!("{e}");
                                    client_usage()
                                })
                            })
                            .collect()
                    }
                    "--seeds" if !is_soak => {
                        sweep.seeds = value("--seeds")
                            .split(',')
                            .map(|s| s.parse().unwrap_or_else(|_| client_usage()))
                            .collect()
                    }
                    "--cycles" => {
                        let cycles = value("--cycles").parse().unwrap_or_else(|_| client_usage());
                        sweep.horizon = cycles;
                        soak.horizon = cycles;
                    }
                    "--topology" if !is_soak => sweep.topology = Some(value("--topology")),
                    "--telemetry" if !is_soak => sweep.telemetry = true,
                    "--seed" if is_soak => {
                        soak.seed = value("--seed").parse().unwrap_or_else(|_| client_usage())
                    }
                    "--rounds" if is_soak => {
                        soak.rounds = value("--rounds").parse().unwrap_or_else(|_| client_usage())
                    }
                    "--watch" => watch = true,
                    other => {
                        eprintln!("unknown argument `{other}`");
                        client_usage()
                    }
                }
            }
            spec.kind = if is_soak {
                JobKind::ChaosSoak(soak)
            } else {
                JobKind::Sweep(sweep)
            };
            match client.submit(spec) {
                Ok(id) => {
                    println!("submitted job {id}");
                    if watch {
                        watch_job(&mut client, id)
                    } else {
                        0
                    }
                }
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    1
                }
            }
        }
        "status" => {
            let id = args
                .first()
                .map(|s| s.parse().unwrap_or_else(|_| client_usage()));
            match client.status_full(id) {
                Ok((jobs, server)) => {
                    if let Some(info) = server {
                        println!(
                            "daemon v{} pid {}  up {}  socket {}  queue {}/{}  \
                             workers {}/{} busy{}",
                            info.version,
                            info.pid,
                            format_uptime(info.uptime_ms),
                            info.socket,
                            info.queue_depth,
                            info.queue_capacity,
                            info.workers_busy,
                            info.workers,
                            if info.draining { "  DRAINING" } else { "" },
                        );
                    }
                    for job in jobs {
                        let progress = job
                            .progress
                            .map(|p| {
                                format!(
                                    "  [{}] {}/{}",
                                    progress_bar(&p, 20),
                                    p.done + p.failed,
                                    p.total
                                )
                            })
                            .unwrap_or_default();
                        println!(
                            "job {:>4}  prio {}  {:<9}{}  {}",
                            job.id,
                            job.priority,
                            job.state.as_str(),
                            progress,
                            job.detail
                        );
                    }
                    0
                }
                Err(e) => {
                    eprintln!("status failed: {e}");
                    1
                }
            }
        }
        "metrics" => match client.metrics() {
            Ok(text) => {
                print!("{text}");
                0
            }
            Err(e) => {
                eprintln!("metrics failed: {e}");
                1
            }
        },
        "watch" => match args.first().and_then(|s| s.parse().ok()) {
            Some(id) => watch_job(&mut client, id),
            None => client_usage(),
        },
        "cancel" => match args.first().and_then(|s| s.parse().ok()) {
            Some(id) => match client.cancel(id) {
                Ok(found) => {
                    println!(
                        "job {id}: {}",
                        if found {
                            "cancelled"
                        } else {
                            "nothing to cancel"
                        }
                    );
                    0
                }
                Err(e) => {
                    eprintln!("cancel failed: {e}");
                    1
                }
            },
            None => client_usage(),
        },
        "drain" => match client.drain() {
            Ok(()) => {
                println!("daemon draining");
                0
            }
            Err(e) => {
                eprintln!("drain failed: {e}");
                1
            }
        },
        other => {
            eprintln!("unknown client command `{other}`");
            client_usage()
        }
    }
}

// ---------------------------------------------------------------------------
// `tcm-run top` — live daemon dashboard. No dependencies: plain ANSI
// escape codes, Unicode block glyphs, and the daemon's own Status /
// Metrics / Watch requests as the only data sources.
// ---------------------------------------------------------------------------

/// Event lines kept in the dashboard's scrollback pane.
const TOP_EVENT_LINES: usize = 8;
/// Sparkline width: throughput samples retained.
const TOP_SPARK_WIDTH: usize = 40;

fn top_usage() -> ! {
    eprintln!(
        "usage: tcm-run top [--socket PATH] [--interval SECS] [--once]\n\
         Live dashboard for a running tcm-serve daemon: queue/worker/WAL panes\n\
         from the Metrics scrape, per-job progress bars from Status, a rolling\n\
         cells/sec sparkline, and streamed events from the newest active job via\n\
         Watch. Redraws in place every --interval seconds (default 1).\n\
         --once prints a single snapshot without ANSI control codes and exits."
    );
    std::process::exit(2)
}

/// `142s` → `2m22s`-style compact uptime.
fn format_uptime(ms: u64) -> String {
    let secs = ms / 1000;
    if secs < 60 {
        format!("{secs}s")
    } else if secs < 3600 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    }
}

/// Renders a job's progress as `width` glyphs: `█` done, `▒` failed,
/// `░` still to run. An empty-total job renders all-empty.
fn progress_bar(p: &tcm_proto::JobProgress, width: usize) -> String {
    let total = p.total.max(1);
    let done_w = (p.done.min(total) as usize * width) / total as usize;
    let fail_w = (p.failed.min(total) as usize * width) / total as usize;
    let fail_w = fail_w.min(width - done_w);
    let mut bar = String::with_capacity(width * 3);
    for _ in 0..done_w {
        bar.push('█');
    }
    for _ in 0..fail_w {
        bar.push('▒');
    }
    for _ in done_w + fail_w..width {
        bar.push('░');
    }
    bar
}

/// One-row sparkline over `history` scaled to its own maximum.
fn sparkline(history: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = history.iter().copied().fold(0.0f64, f64::max);
    history
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Parses Prometheus text exposition into `name{labels} → value`,
/// skipping comments; enough for the dashboard's own daemon scrape.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// Formats one streamed Watch event as a scrollback line.
fn event_line(id: u64, event: &Event) -> String {
    match event {
        Event::CellResult {
            policy,
            workload,
            seed,
            ws_bits,
            resumed,
            ..
        } => format!(
            "job {id}: cell {policy} × {workload} seed={seed} WS={:.2}{}",
            f64::from_bits(*ws_bits),
            if *resumed { " (resumed)" } else { "" },
        ),
        Event::CellFailure { line, .. } => format!("job {id}: {line}"),
        Event::Telemetry {
            counters,
            gauge_bits,
            ..
        } => format!(
            "job {id}: telemetry {} counter(s), {} gauge(s)",
            counters.len(),
            gauge_bits.len()
        ),
        Event::SoakRound {
            round,
            detected,
            classes,
            ..
        } => format!("job {id}: soak round {round}: {detected}/{classes} detected"),
        Event::JobDone { state, .. } => format!("job {id}: {}", state.as_str()),
    }
}

/// Keeps one watcher thread subscribed to the newest non-terminal job,
/// feeding its event stream into the shared scrollback. When the
/// watched job finishes (or the stream drops), the slot clears and the
/// next tick re-subscribes to whatever is active then.
fn maybe_spawn_watcher(
    socket: &Path,
    jobs: &[JobStatusInfo],
    events: &Arc<Mutex<VecDeque<String>>>,
    watching: &Arc<Mutex<Option<u64>>>,
) {
    let candidate = jobs
        .iter()
        .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
        .map(|j| j.id)
        .max();
    let Some(id) = candidate else { return };
    {
        let mut slot = watching
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_some() {
            return;
        }
        *slot = Some(id);
    }
    let socket = socket.to_path_buf();
    let events = Arc::clone(events);
    let watching = Arc::clone(watching);
    std::thread::spawn(move || {
        let push = |line: String| {
            let mut q = events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.push_back(line);
            while q.len() > TOP_EVENT_LINES {
                q.pop_front();
            }
        };
        if let Ok(mut client) = Client::connect(&socket) {
            if let Ok((state, _)) = client.watch(id, |event| push(event_line(id, event))) {
                push(format!("job {id}: {}", state.as_str()));
            }
        }
        *watching
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    });
}

/// Assembles one dashboard frame from a Status reply, a Metrics scrape
/// and the Watch scrollback. Pure string building — the caller decides
/// whether to wrap it in cursor-home/clear codes.
fn render_top(
    socket: &Path,
    jobs: &[JobStatusInfo],
    server: Option<&ServerInfo>,
    metrics: &BTreeMap<String, f64>,
    history: &[f64],
    events: &[String],
) -> String {
    let g = |k: &str| metrics.get(k).copied().unwrap_or(0.0);
    let by_state = |state: &str| {
        g(&format!(
            "tcm_serve_jobs_completed_total{{state=\"{state}\"}}"
        ))
    };
    let mut s = String::new();
    let _ = writeln!(s, "tcm-serve top — socket {}", socket.display());
    if let Some(info) = server {
        let _ = writeln!(
            s,
            "server   v{} pid {}  up {}{}",
            info.version,
            info.pid,
            format_uptime(info.uptime_ms),
            if info.draining { "  DRAINING" } else { "" },
        );
        let _ = writeln!(
            s,
            "queue    depth {}/{}  high-water {}  workers {}/{} busy  watchers {}",
            info.queue_depth,
            info.queue_capacity,
            g("tcm_serve_queue_high_water"),
            info.workers_busy,
            info.workers,
            g("tcm_serve_watch_subscribers"),
        );
    } else {
        let _ = writeln!(
            s,
            "queue    depth {}/{}  high-water {}  workers {}/{} busy  watchers {}",
            g("tcm_serve_queue_depth"),
            g("tcm_serve_queue_capacity"),
            g("tcm_serve_queue_high_water"),
            g("tcm_serve_workers_busy"),
            g("tcm_serve_workers"),
            g("tcm_serve_watch_subscribers"),
        );
    }
    let _ = writeln!(
        s,
        "wal      appended {} record(s) / {} B  replayed {} job(s)  truncated {} B",
        g("tcm_serve_wal_appended_records_total"),
        g("tcm_serve_wal_appended_bytes_total"),
        g("tcm_serve_wal_replayed_jobs_total"),
        g("tcm_serve_wal_truncated_bytes_total"),
    );
    let _ = writeln!(
        s,
        "jobs     submitted {}  done {}  failed {}  cancelled {}  dropped-ev {}",
        g("tcm_serve_jobs_submitted_total"),
        by_state("done"),
        by_state("failed"),
        by_state("cancelled"),
        g("tcm_trace_events_dropped_total"),
    );
    let rate = history.last().copied().unwrap_or(0.0);
    let _ = writeln!(
        s,
        "cells    done {}  resumed {}  failures {}  {:>7.1} cells/s  {}",
        g("tcm_serve_cells_completed_total"),
        g("tcm_serve_cells_resumed_total"),
        g("tcm_serve_cell_failures_total"),
        rate,
        sparkline(history),
    );
    s.push('\n');
    if jobs.is_empty() {
        s.push_str("(no jobs)\n");
    }
    for job in jobs {
        let progress = job
            .progress
            .map(|p| {
                format!(
                    "  [{}] {:>4}/{:<4}",
                    progress_bar(&p, 20),
                    p.done + p.failed,
                    p.total
                )
            })
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "job {:>4}  prio {}  {:<9}{}  {}",
            job.id,
            job.priority,
            job.state.as_str(),
            progress,
            job.detail
        );
    }
    if !events.is_empty() {
        s.push('\n');
        for line in events {
            let _ = writeln!(s, "  {line}");
        }
    }
    s
}

fn top_main(args: &[String]) -> i32 {
    let mut socket = PathBuf::from("tcm-serve.sock");
    let mut interval = Duration::from_secs(1);
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    top_usage()
                })
                .clone()
        };
        match arg.as_str() {
            "--socket" => socket = PathBuf::from(value("--socket")),
            "--interval" => {
                let secs: f64 = value("--interval").parse().unwrap_or_else(|_| top_usage());
                if !secs.is_finite() || secs <= 0.0 {
                    top_usage()
                }
                interval = Duration::from_secs_f64(secs);
            }
            "--once" => once = true,
            "--help" | "-h" => top_usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                top_usage()
            }
        }
    }
    let mut client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", socket.display());
            return 1;
        }
    };
    let events: Arc<Mutex<VecDeque<String>>> = Arc::new(Mutex::new(VecDeque::new()));
    let watching: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let mut history: VecDeque<f64> = VecDeque::new();
    let mut last: Option<(Instant, f64)> = None;
    loop {
        let (jobs, server) = match client.status_full(None) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("status failed: {e}");
                return 1;
            }
        };
        let text = match client.metrics() {
            Ok(text) => text,
            Err(e) => {
                eprintln!("metrics failed: {e}");
                return 1;
            }
        };
        let metrics = parse_exposition(&text);
        let cells = metrics
            .get("tcm_serve_cells_completed_total")
            .copied()
            .unwrap_or(0.0);
        let now = Instant::now();
        if let Some((t0, c0)) = last {
            let dt = now.duration_since(t0).as_secs_f64();
            if dt > 0.0 {
                history.push_back(((cells - c0) / dt).max(0.0));
                while history.len() > TOP_SPARK_WIDTH {
                    history.pop_front();
                }
            }
        }
        last = Some((now, cells));
        if !once {
            maybe_spawn_watcher(&socket, &jobs, &events, &watching);
        }
        let event_lines: Vec<String> = events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect();
        let frame = render_top(
            &socket,
            &jobs,
            server.as_ref(),
            &metrics,
            history.make_contiguous(),
            &event_lines,
        );
        if once {
            print!("{frame}");
            return 0;
        }
        // Home + clear-to-end redraws in place without flicker.
        print!("\x1b[H\x1b[J{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: tcm-run [--threads N] [--intensity F] [--seed S] [--cycles C]\n\
         \x20              [--topology N|CxK|a+b+...] [--intra-hosts H]\n\
         \x20              [--policies p1,p2,...] [--workload A|B|C|D] [--workers W] [--json]\n\
         \x20              [--verify] [--checkpoint FILE] [--resume FILE]\n\
         \x20              [--cell-deadline SECS] [--bench-json FILE] [--chaos-smoke]\n\
         \x20              [--chaos-empty] [--trace FILE] [--trace-format jsonl|chrome]\n\
         \x20              [--metrics-json FILE]\n\
         policies: fcfs fr-fcfs stfm par-bs atlas fqm tcm (default: all but fcfs/fqm)\n\
         --topology picks the memory-system shape: `4` = one controller with 4\n\
         \x20          channels (flat default), `2x2` = 2 controllers x 2 channels,\n\
         \x20          `3+1` = asymmetric per-controller channel counts\n\
         --workers W threads share the sweep's work queue (bit-identical results;\n\
         \x20          default: one per core, or 1 with --bench-json)\n\
         --intra-hosts H multiplies the workers to W*H (ignored by --chaos-smoke\n\
         \x20          and by the default one-per-core sweep)\n\
         --verify enables the DRAM protocol invariant checker (observation-only)\n\
         --checkpoint appends each completed sweep cell to FILE (one fsynced JSONL line)\n\
         --resume restores the cells of FILE this run would simulate identically\n\
         \x20          (same machine, horizon, policy, workload, seed), runs the rest,\n\
         \x20          keeps FILE updated\n\
         --cell-deadline fails any cell exceeding SECS wall-clock as a timeout\n\
         --bench-json times the fixed paper-lineup sweep and writes the record to FILE\n\
         --chaos-smoke runs the fault-injection smoke campaign and exits (a\n\
         \x20          multi-controller --topology runs it on the window loop, covering\n\
         \x20          the coordination fault classes)\n\
         --chaos-empty installs an empty fault plan on every run: detectors armed,\n\
         \x20          zero faults (benches use it to prove the inert layer is free)\n\
         --trace writes the telemetry event log to FILE (jsonl by default; chrome is\n\
         \x20       a Chrome-trace array loadable at https://ui.perfetto.dev)\n\
         --metrics-json writes every cell's final metrics registry to FILE\n\
         subcommands: `tcm-run serve` starts the sweep daemon, `tcm-run client`\n\
         \x20       talks to it, `tcm-run top` is a live daemon dashboard (see\n\
         \x20       `tcm-run serve --help` / `client --help` / `top --help`)"
    );
    std::process::exit(2)
}

fn main() {
    {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.first().map(String::as_str) {
            Some("serve") => std::process::exit(serve_main(&args[1..])),
            Some("client") => std::process::exit(client_main(&args[1..])),
            Some("top") => std::process::exit(top_main(&args[1..])),
            _ => {}
        }
    }
    let mut threads = 24u64;
    let mut intensity = 0.5f64;
    let mut seed = 0u64;
    let mut cycles = 5_000_000u64;
    let mut policies: Option<Vec<String>> = None;
    let mut named_workload: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut json = false;
    let mut verify = false;
    let mut bench_json: Option<String> = None;
    let mut cycles_given = false;
    let mut checkpoint: Option<String> = None;
    let mut cell_deadline: Option<Duration> = None;
    let mut chaos_smoke = false;
    let mut chaos_empty = false;
    let mut trace: Option<String> = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut metrics_json: Option<String> = None;
    let mut topology_arg: Option<String> = None;
    let mut intra_hosts = 1usize;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match arg.as_str() {
            "--threads" => threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--intensity" => intensity = value("--intensity").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--cycles" => {
                cycles = value("--cycles").parse().unwrap_or_else(|_| usage());
                cycles_given = true;
            }
            "--policies" => {
                policies = Some(value("--policies").split(',').map(String::from).collect())
            }
            "--workload" => named_workload = Some(value("--workload")),
            "--workers" => workers = Some(value("--workers").parse().unwrap_or_else(|_| usage())),
            "--json" => json = true,
            "--verify" => verify = true,
            "--bench-json" => bench_json = Some(value("--bench-json")),
            "--checkpoint" => checkpoint = Some(value("--checkpoint")),
            "--resume" => checkpoint = Some(value("--resume")),
            "--cell-deadline" => {
                let secs: f64 = value("--cell-deadline").parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs < 0.0 {
                    eprintln!("--cell-deadline must be a non-negative number of seconds");
                    usage()
                }
                cell_deadline = Some(Duration::from_secs_f64(secs));
            }
            "--chaos-smoke" => chaos_smoke = true,
            "--chaos-empty" => chaos_empty = true,
            "--trace" => trace = Some(value("--trace")),
            "--trace-format" => {
                trace_format = match value("--trace-format").as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        eprintln!("unknown trace format `{other}` (expected jsonl or chrome)");
                        usage()
                    }
                }
            }
            "--metrics-json" => metrics_json = Some(value("--metrics-json")),
            "--topology" => topology_arg = Some(value("--topology")),
            "--intra-hosts" => {
                intra_hosts = value("--intra-hosts").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }

    let topology = topology_arg
        .as_deref()
        .map(Topology::parse)
        .transpose()
        .unwrap_or_else(|err| {
            eprintln!("{err}");
            usage()
        });

    if chaos_smoke {
        std::process::exit(run_chaos_smoke(topology.as_ref()));
    }
    // `--intra-hosts` is a thread budget: it multiplies the worker count.
    let hosts = intra_hosts.max(1);

    if let Some(path) = bench_json {
        // Benchmark mode uses a fixed sweep; default to a shorter horizon
        // than the exploratory default unless --cycles was given.
        let bench_cycles = if cycles_given { cycles } else { 2_000_000 };
        std::process::exit(run_bench(
            &path,
            bench_cycles,
            workers.unwrap_or(1).saturating_mul(hosts),
            topology.as_ref(),
            verify,
            chaos_empty,
        ));
    }

    // The one-shot sweep is the daemon's job spec with one workload, so
    // both front ends accept and reject exactly the same inputs.
    let spec = SweepSpec {
        policies: policies.unwrap_or_default(),
        workloads: vec![match named_workload {
            Some(name) => WorkloadRef::Named(name),
            None => WorkloadRef::Random {
                seed,
                threads,
                intensity_bits: intensity.to_bits(),
            },
        }],
        seeds: vec![],
        horizon: cycles,
        topology: topology_arg,
        telemetry: trace.is_some() || metrics_json.is_some(),
    };
    let resolved = resolve_sweep(&spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let workload = &resolved.workloads[0];
    let threads = workload.threads.len();

    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = threads;
    if let Some(topology) = resolved.topology {
        cfg.topology = topology;
    }
    let session = Session::new(
        RunConfig::builder()
            .system(cfg)
            .horizon(cycles)
            .verify(verify)
            .chaos(chaos_empty.then(FaultPlan::none))
            .cell_deadline(cell_deadline)
            .telemetry(resolved.telemetry.then(TelemetryConfig::default))
            .build(),
    );
    let mut sweep = session
        .sweep()
        .policies(resolved.policies)
        .workloads([workload.clone()]);
    if let Some(path) = checkpoint {
        sweep = sweep.checkpoint(path);
    }
    let result = match workers {
        Some(w) => sweep.run_parallel(w.saturating_mul(hosts)),
        None => sweep.run_auto(),
    };

    let mut output = Output {
        workload: workload.name.clone(),
        threads,
        cycles,
        benchmarks: workload.threads.iter().map(|p| p.name.clone()).collect(),
        results: Vec::new(),
    };
    if !json {
        println!("{workload}");
        println!("{:>8} | {:>8} {:>8} {:>8}", "policy", "WS", "maxSD", "HS");
    }
    for cell in result.cells() {
        let r = &cell.result;
        if !json {
            println!(
                "{:>8} | {:8.2} {:8.2} {:8.3}",
                r.policy,
                r.metrics.weighted_speedup,
                r.metrics.max_slowdown,
                r.metrics.harmonic_speedup
            );
        }
        output.results.push(PolicyOutput {
            policy: r.policy.clone(),
            weighted_speedup: r.metrics.weighted_speedup,
            harmonic_speedup: r.metrics.harmonic_speedup,
            max_slowdown: r.metrics.max_slowdown,
            slowdowns: r.slowdowns.clone(),
        });
    }
    if json {
        println!("{}", output.to_json());
    } else {
        print_cluster_summary(result.cells());
        println!("{}", result.stats().throughput_line());
    }
    if let Some(path) = &trace {
        let body = render_trace(trace_format, result.cells());
        if let Err(err) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(1);
        }
        let label = match trace_format {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome (open at https://ui.perfetto.dev)",
        };
        eprintln!("trace [{label}] -> {path}");
    }
    if let Some(path) = &metrics_json {
        if let Err(err) = std::fs::write(path, render_metrics(result.cells())) {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("metrics -> {path}");
    }
    // A full trace ring silently truncates the event log; that must not
    // pass as a clean run. (The daemon surfaces the same signal as the
    // `tcm_trace_events_dropped_total` metric.)
    let dropped: u64 = result
        .cells()
        .iter()
        .filter_map(|c| c.result.telemetry.as_ref())
        .map(|s| s.dropped)
        .sum();
    if dropped > 0 {
        eprintln!(
            "WARNING: telemetry ring buffer overflowed — {dropped} event(s) dropped; \
             the trace is INCOMPLETE (metrics and results are unaffected). \
             Raise the telemetry capacity or shorten the run to capture everything."
        );
    }
    if result.stats().resumed > 0 {
        eprintln!(
            "resumed {} completed cell(s) from the checkpoint",
            result.stats().resumed
        );
    }
    if !result.is_complete() {
        eprintln!("{} cell(s) FAILED", result.failures().len());
        // All-timeout failures are transient by construction: exit 3 so
        // callers know `--resume` with a longer deadline finishes the
        // grid. Any deterministic failure keeps the hard exit 1.
        let only_timeouts = result
            .failures()
            .iter()
            .all(|f| matches!(f.kind, CellFailureKind::Timeout(_)));
        std::process::exit(if only_timeouts { 3 } else { 1 });
    }
}
