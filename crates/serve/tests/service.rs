//! End-to-end daemon tests over a real Unix-domain socket: WAL
//! recovery with bit-identical results, streamed watch events, typed
//! backpressure, and the graceful-drain exit contract.
//!
//! The crash in the recovery test is staged rather than delivered with
//! a real `kill -9` (that lives in `scripts/check.sh`'s `serve-smoke`
//! leg): the state directory is pre-seeded with exactly what a killed
//! daemon leaves behind — a WAL whose job has `submit` + `start` but no
//! terminal record, a cell checkpoint truncated mid-line, and the alone
//! baselines the killed daemon had already stored.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;
use tcm_proto::{Event, JobKind, JobSpec, JobState, SoakSpec, SweepSpec, WorkloadRef};
use tcm_serve::job::{render_result, resolve_sweep};
use tcm_serve::{Client, Server, ServerConfig, Wal};
use tcm_sim::campaign::QUANTUM;
use tcm_sim::{RunConfig, Session};
use tcm_types::SystemConfig;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcm-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        socket: dir.join("sock"),
        state_dir: dir.join("state"),
        workers: 2,
        queue_capacity: 8,
        drain_deadline: Duration::from_secs(20),
        metrics_file: None,
    }
}

/// Pulls one sample out of a Prometheus text exposition; `name`
/// includes any label set, e.g. `foo_total{state="done"}`.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

fn sweep_spec() -> JobSpec {
    JobSpec {
        priority: 1,
        deadline_ms: None,
        max_attempts: 2,
        kind: JobKind::Sweep(SweepSpec {
            policies: vec!["fr-fcfs".into(), "fqm".into()],
            workloads: vec![WorkloadRef::Random {
                seed: 5,
                threads: 4,
                intensity_bits: 0.8f64.to_bits(),
            }],
            seeds: vec![0, 17],
            horizon: 30_000,
            topology: None,
            telemetry: false,
        }),
    }
}

/// [`sweep_spec`] with mix seed `seed` in place of 5.
fn sweep_spec_with_mix(seed: u64) -> JobSpec {
    let mut spec = sweep_spec();
    if let JobKind::Sweep(sweep) = &mut spec.kind {
        sweep.workloads = vec![WorkloadRef::Random {
            seed,
            threads: 4,
            intensity_bits: 0.8f64.to_bits(),
        }];
    }
    spec
}

/// The distinct benchmark profiles of mix `seed`.
fn mix_profiles(seed: u64) -> BTreeSet<String> {
    tcm_workload::random_workload(seed, 4, 0.8)
        .threads
        .into_iter()
        .map(|p| p.name)
        .collect()
}

/// The result document of `spec` from a cold in-process `Session`,
/// configured as a daemon worker configures one.
fn render_cold(spec: &JobSpec) -> Vec<u8> {
    let JobKind::Sweep(sweep) = &spec.kind else {
        panic!("not a sweep job");
    };
    let r = resolve_sweep(sweep).expect("spec resolves");
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = r.workloads[0].threads.len();
    let session = Session::new(RunConfig::builder().system(cfg).horizon(r.horizon).build());
    let result = session
        .sweep()
        .policies(r.policies)
        .workloads(r.workloads)
        .seeds(r.seeds)
        .run();
    render_result(&result).into_bytes()
}

/// Submits `spec`, watches it to `Done`, returns its result file.
fn run_to_done(client: &mut Client, state_dir: &Path, spec: JobSpec) -> Vec<u8> {
    let id = client.submit(spec).expect("submit");
    let (state, detail) = client.watch(id, |_| {}).expect("watch");
    assert_eq!(state, JobState::Done, "{detail}");
    std::fs::read(state_dir.join(format!("job-{id}.result.json"))).expect("result file")
}

/// The stored alone entries under `state_dir`, in name order.
fn alone_entries(state_dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(state_dir.join("alone"))
        .expect("alone store exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "alone"))
        .collect();
    entries.sort();
    entries
}

/// Starts a daemon, waits for its socket, returns the exit-code handle.
fn start(config: ServerConfig) -> (thread::JoinHandle<i32>, PathBuf) {
    let socket = config.socket.clone();
    let server = Server::new(config).expect("server starts");
    let handle = thread::spawn(move || server.run().expect("run returns"));
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    (handle, socket)
}

#[test]
fn restarted_daemon_readmits_wal_jobs_and_finishes_bit_identically() {
    // Reference: an uninterrupted daemon runs the job to completion.
    let ref_dir = scratch_dir("ref");
    let (handle, socket) = start(config(&ref_dir));
    let mut client = Client::connect(&socket).expect("connect");
    let id = client.submit(sweep_spec()).expect("submit");
    assert_eq!(id, 1);
    let (state, detail) = client.watch(id, |_| {}).expect("watch");
    assert_eq!(state, JobState::Done, "{detail}");
    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0, "clean drain exits 0");
    let reference = std::fs::read(ref_dir.join("state/job-1.result.json")).expect("result file");

    // The crash scene: a WAL with submit+start but no terminal record,
    // plus the reference checkpoint truncated mid-line — exactly what a
    // SIGKILL mid-append leaves behind.
    let crash_dir = scratch_dir("crash");
    let state_dir = crash_dir.join("state");
    std::fs::create_dir_all(&state_dir).expect("state dir");
    {
        let (mut wal, replayed) = Wal::open(state_dir.join("wal.jsonl")).expect("fresh WAL");
        assert!(replayed.is_empty());
        wal.submit(1, 0, &sweep_spec()).expect("wal submit");
        wal.start(1).expect("wal start");
    }
    let full = std::fs::read_to_string(ref_dir.join("state/job-1.ckpt.jsonl")).expect("ckpt");
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), 4, "one line per cell");
    let torn = &lines[1][..lines[1].len() / 2];
    std::fs::write(
        state_dir.join("job-1.ckpt.jsonl"),
        format!("{}\n{torn}", lines[0]),
    )
    .expect("truncated ckpt");
    // A daemon stores each alone baseline before the job's first cell
    // runs, so the killed one had stored all of them.
    std::fs::create_dir_all(state_dir.join("alone")).expect("alone dir");
    for entry in alone_entries(&ref_dir.join("state")) {
        let name = entry.file_name().expect("entry name");
        std::fs::copy(&entry, state_dir.join("alone").join(name)).expect("copy alone entry");
    }

    // Restart: the WAL re-admits job 1, the checkpoint restores the one
    // intact cell, the rest re-run — and the merged result file is
    // byte-identical to the uninterrupted daemon's.
    let (handle, socket) = start(ServerConfig {
        socket: crash_dir.join("sock"),
        state_dir: state_dir.clone(),
        ..config(&crash_dir)
    });
    let mut client = Client::connect(&socket).expect("reconnect");
    let (state, detail) = client.watch(1, |_| {}).expect("watch recovered job");
    assert_eq!(state, JobState::Done, "{detail}");
    let recovered = std::fs::read(state_dir.join("job-1.result.json")).expect("result file");
    assert_eq!(recovered, reference, "recovery is byte-identical");
    let whole =
        std::fs::read_to_string(state_dir.join("job-1.ckpt.jsonl")).expect("ckpt after recovery");
    assert_eq!(whole.lines().count(), 4, "checkpoint is whole again");

    // The restarted daemon's scrape must carry the recovery story: the
    // job folded out of the WAL and the checkpoint cell it replayed.
    let text = client.metrics().expect("metrics after recovery");
    assert_eq!(metric(&text, "tcm_serve_wal_replayed_jobs_total"), Some(1.0), "{text}");
    assert_eq!(metric(&text, "tcm_serve_jobs_readmitted_total"), Some(1.0), "{text}");
    assert_eq!(metric(&text, "tcm_serve_cells_resumed_total"), Some(1.0), "{text}");
    // The re-admitted job read its baselines from disk instead of
    // re-running them.
    assert_eq!(metric(&text, "tcm_serve_alone_runs_total"), Some(0.0), "{text}");
    assert!(
        metric(&text, "tcm_serve_alone_cache_hits_total{source=\"disk\"}") >= Some(1.0),
        "{text}"
    );
    assert_eq!(metric(&text, "tcm_serve_alone_cache_corrupt_total"), Some(0.0), "{text}");

    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn overlapping_jobs_simulate_only_their_new_alone_baselines() {
    let first = mix_profiles(5);
    let (seed, second) = (6..)
        .map(|s| (s, mix_profiles(s)))
        .find(|(_, p)| !p.is_disjoint(&first) && !p.is_subset(&first))
        .expect("some mix overlaps mix 5 without being covered by it");
    let dir = scratch_dir("alone-overlap");
    let state_dir = dir.join("state");
    let (handle, socket) = start(config(&dir));
    let mut client = Client::connect(&socket).expect("connect");

    let result = run_to_done(&mut client, &state_dir, sweep_spec());
    assert_eq!(result, render_cold(&sweep_spec()), "first job matches a cold Session");
    let text = client.metrics().expect("scrape");
    let runs = metric(&text, "tcm_serve_alone_runs_total");
    assert_eq!(runs, Some(first.len() as f64), "{text}");

    let spec = sweep_spec_with_mix(seed);
    let result = run_to_done(&mut client, &state_dir, spec.clone());
    assert_eq!(result, render_cold(&spec), "second job matches a cold Session");
    let text = client.metrics().expect("scrape");
    let new = second.difference(&first).count();
    let runs = metric(&text, "tcm_serve_alone_runs_total");
    assert_eq!(runs, Some((first.len() + new) as f64), "only new profiles run: {text}");

    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_alone_entries_are_recomputed_counted_and_republished() {
    let dir = scratch_dir("alone-corrupt");
    let state_dir = dir.join("state");
    let (handle, socket) = start(config(&dir));
    let mut client = Client::connect(&socket).expect("connect");
    let reference = run_to_done(&mut client, &state_dir, sweep_spec());
    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0);

    let entries = alone_entries(&state_dir);
    assert_eq!(entries.len(), mix_profiles(5).len(), "one entry per profile");
    assert!(entries.len() >= 3, "the test needs three entries to damage");
    let original: Vec<Vec<u8>> = entries
        .iter()
        .map(|p| std::fs::read(p).expect("entry"))
        .collect();
    // Truncated, bit-flipped, and another key's (valid) entry.
    std::fs::write(&entries[0], &original[0][..original[0].len() / 2]).expect("truncate");
    let mut flipped = original[1].clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&entries[1], flipped).expect("flip");
    std::fs::write(&entries[2], &original[0]).expect("wrong key");

    let (handle, socket) = start(config(&dir));
    let mut client = Client::connect(&socket).expect("reconnect");
    let result = run_to_done(&mut client, &state_dir, sweep_spec());
    assert_eq!(result, reference, "recomputed baselines give the same result");
    let text = client.metrics().expect("scrape");
    assert_eq!(metric(&text, "tcm_serve_alone_cache_corrupt_total"), Some(3.0), "{text}");
    assert_eq!(metric(&text, "tcm_serve_alone_runs_total"), Some(3.0), "{text}");
    assert_eq!(
        metric(&text, "tcm_serve_alone_cache_hits_total{source=\"disk\"}"),
        Some((entries.len() - 3) as f64),
        "{text}"
    );
    for (path, bytes) in entries.iter().zip(&original) {
        assert_eq!(&std::fs::read(path).expect("entry"), bytes, "{}", path.display());
    }

    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_refuses_admission_with_typed_status_and_exits_zero() {
    let dir = scratch_dir("drain");
    let (handle, socket) = start(config(&dir));
    let mut client = Client::connect(&socket).expect("connect");

    client.drain().expect("drain acknowledged");
    // The same connection stays serviceable: submission is refused with
    // the typed Draining status, not a hangup or a generic error.
    let err = client.submit(sweep_spec()).expect_err("admission stopped");
    assert!(err.to_string().contains("draining"), "{err}");

    assert_eq!(handle.join().expect("join"), 0, "graceful drain exits 0");
    assert!(!socket.exists(), "socket file removed on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_cancel_and_streaming_roundtrip() {
    let dir = scratch_dir("queue");
    let mut cfg = config(&dir);
    // A single worker, so one long-horizon job jams the pool and the
    // rest of the test runs against a deterministically busy daemon.
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    let (handle, socket) = start(cfg);
    let mut client = Client::connect(&socket).expect("connect");

    let mut long_spec = sweep_spec();
    if let JobKind::Sweep(sweep) = &mut long_spec.kind {
        sweep.horizon = 50_000_000;
        sweep.seeds = vec![0];
    }
    let running = client.submit(long_spec).expect("submit long job");
    for _ in 0..1_000 {
        if client.status(Some(running)).expect("status")[0].state == JobState::Running {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    let a = client.submit(sweep_spec()).expect("queued job a");
    let b = client.submit(sweep_spec()).expect("queued job b");
    let err = client.submit(sweep_spec()).expect_err("third must bounce");
    assert!(err.to_string().contains("queue full"), "{err}");

    assert!(client.cancel(a).expect("cancel queued"), "queued job found");
    assert!(!client.cancel(a).expect("re-cancel"), "second cancel is a no-op");
    let jobs = client.status(None).expect("status");
    let find = |id: u64| jobs.iter().find(|j| j.id == id).expect("listed").state;
    assert_eq!(find(a), JobState::Cancelled);
    assert_eq!(find(b), JobState::Queued);

    // Register a watcher for `b` while it is still queued behind the
    // busy worker: every one of its cell events must then stream.
    let mut watcher = Client::connect(&socket).expect("watcher connection");
    let streamer = thread::spawn(move || {
        let mut cells = 0;
        let outcome = watcher
            .watch(b, |event| {
                if let Event::CellResult { resumed, .. } = event {
                    assert!(!resumed, "fresh run replays nothing");
                    cells += 1;
                }
            })
            .expect("watch b");
        (outcome.0, cells)
    });
    thread::sleep(Duration::from_millis(300)); // let the Watch register

    // Hard-cancel the running job: its cells abort mid-simulation and
    // the worker moves on to `b`.
    assert!(client.cancel(running).expect("cancel running"), "running job found");
    let (state, _) = client.watch(running, |_| {}).expect("watch cancelled");
    assert_eq!(state, JobState::Cancelled, "hard cancel aborts in-flight cells");

    let (state, cells) = streamer.join().expect("streamer");
    assert_eq!(state, JobState::Done);
    assert_eq!(cells, 4, "2 policies × 2 seeds streamed to the watcher");

    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_and_progress_track_the_job_lifecycle() {
    let dir = scratch_dir("metrics");
    let (handle, socket) = start(config(&dir));
    let mut client = Client::connect(&socket).expect("connect");

    // Baseline scrape: gauges reflect the configuration before any job.
    let text = client.metrics().expect("baseline scrape");
    assert_eq!(metric(&text, "tcm_serve_queue_capacity"), Some(8.0), "{text}");
    assert_eq!(metric(&text, "tcm_serve_workers"), Some(2.0), "{text}");
    assert_eq!(metric(&text, "tcm_serve_queue_depth"), Some(0.0), "{text}");
    assert!(metric(&text, "tcm_serve_jobs_submitted_total").is_none(), "{text}");

    // One clean job: every submit/run/done stage must move its metric.
    let id = client.submit(sweep_spec()).expect("submit");
    let (state, detail) = client.watch(id, |_| {}).expect("watch");
    assert_eq!(state, JobState::Done, "{detail}");

    let (jobs, server) = client.status_full(Some(id)).expect("status");
    let info = server.expect("daemon sends ServerInfo");
    assert!(!info.version.is_empty());
    assert_eq!(info.queue_capacity, 8);
    assert_eq!(info.workers, 2);
    assert!(!info.draining);
    let progress = jobs[0].progress.expect("done job reports progress");
    assert_eq!(progress.total, 4, "2 policies × 2 seeds");
    assert_eq!(progress.done, 4);
    assert_eq!(progress.failed, 0);

    let text = client.metrics().expect("post-job scrape");
    assert_eq!(metric(&text, "tcm_serve_jobs_submitted_total"), Some(1.0), "{text}");
    assert_eq!(
        metric(&text, "tcm_serve_jobs_completed_total{state=\"done\"}"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(metric(&text, "tcm_serve_cells_completed_total"), Some(4.0), "{text}");
    assert_eq!(
        metric(&text, "tcm_serve_job_duration_ms_count{state=\"done\"}"),
        Some(1.0),
        "{text}"
    );
    assert!(
        metric(&text, "tcm_serve_job_duration_ms_sum{state=\"done\"}").is_some(),
        "{text}"
    );
    // submit + start + finish reached the WAL before the scrape.
    assert!(
        metric(&text, "tcm_serve_wal_appended_records_total") >= Some(3.0),
        "{text}"
    );
    assert!(metric(&text, "tcm_serve_wal_appended_bytes_total") > Some(0.0), "{text}");

    // A job that blows its wall-clock deadline lands in the failed
    // family of the same counters and histogram.
    let mut doomed = sweep_spec();
    doomed.deadline_ms = Some(1);
    if let JobKind::Sweep(sweep) = &mut doomed.kind {
        sweep.horizon = 50_000_000;
    }
    let id = client.submit(doomed).expect("submit doomed");
    let (state, detail) = client.watch(id, |_| {}).expect("watch doomed");
    assert_eq!(state, JobState::Failed, "{detail}");
    let text = client.metrics().expect("post-failure scrape");
    assert_eq!(
        metric(&text, "tcm_serve_jobs_completed_total{state=\"failed\"}"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        metric(&text, "tcm_serve_job_duration_ms_count{state=\"failed\"}"),
        Some(1.0),
        "{text}"
    );

    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_job_streams_every_round_and_short_horizons_are_refused() {
    let dir = scratch_dir("soak");
    let mut cfg = config(&dir);
    // One worker, jammed by a long sweep, so the watcher below is
    // registered before the soak's first round is broadcast.
    cfg.workers = 1;
    let (handle, socket) = start(cfg);
    let mut client = Client::connect(&socket).expect("connect");
    let soak = |horizon| JobSpec {
        priority: 1,
        deadline_ms: None,
        max_attempts: 1,
        kind: JobKind::ChaosSoak(SoakSpec {
            seed: 7,
            rounds: 2,
            horizon,
        }),
    };

    // Below one TCM quantum monitor corruption cannot be detected, so
    // such a soak is refused at submit, naming the minimum.
    let err = client
        .submit(soak(QUANTUM - 1))
        .expect_err("a soak that cannot pass is refused");
    assert!(err.to_string().contains(&QUANTUM.to_string()), "{err}");

    let mut jam = sweep_spec();
    if let JobKind::Sweep(sweep) = &mut jam.kind {
        sweep.horizon = 50_000_000;
        sweep.seeds = vec![0];
    }
    let jam = client.submit(jam).expect("submit jam");
    let id = client.submit(soak(200_000)).expect("submit soak");
    let mut watcher = Client::connect(&socket).expect("watcher connection");
    let streamer = thread::spawn(move || {
        let mut rounds = Vec::new();
        let outcome = watcher
            .watch(id, |event| {
                if let Event::SoakRound {
                    detected, classes, ..
                } = event
                {
                    rounds.push((*detected, *classes));
                }
            })
            .expect("watch soak");
        (outcome, rounds)
    });
    thread::sleep(Duration::from_millis(300)); // let the Watch register
    assert!(client.cancel(jam).expect("cancel jam"), "jam job found");

    let ((state, detail), rounds) = streamer.join().expect("streamer");
    assert_eq!(state, JobState::Done, "{detail}");
    assert_eq!(rounds, [(8, 8), (8, 8)], "every class caught in both rounds");

    client.drain().expect("drain");
    assert_eq!(handle.join().expect("join"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
