//! The sweep daemon: Unix-socket listener, durable priority job queue,
//! bounded worker pool, and the drain/recovery state machine.
//!
//! # Lifecycle
//!
//! ```text
//!            ┌── SubmitJob (WAL `submit`, fsync) ──┐
//!            ▼                                     │
//!  Queued ── worker pop (WAL `start`) ──▶ Running ─┤
//!    │                                     │       │
//!    │ CancelJob (WAL `cancel`)            │       │
//!    ▼                                     ▼       ▼
//!  Cancelled                     Done / Failed (WAL `finish`)
//! ```
//!
//! Jobs without a terminal WAL record — queued *or* mid-run when the
//! process died — are re-admitted on restart in their original
//! `(priority, seq)` order; a re-admitted sweep resumes its per-job
//! cell checkpoint, so the merged grid is bit-identical to an
//! uninterrupted run.
//!
//! # Drain
//!
//! SIGTERM/SIGINT (or a client `Drain` request) flips the drain flag:
//! admission stops (`Draining` replies), idle workers exit, and busy
//! workers finish + checkpoint their in-flight cell but start no
//! further ones. A job interrupted this way keeps its WAL entry open
//! and is re-admitted on the next start. If workers outlive the
//! configured drain deadline, their cancellation tokens fire and
//! in-flight cells abort cooperatively; either way [`Server::run`]
//! returns 0 once the pool has parked.
//!
//! # Failed cells
//!
//! A job runs one sweep pass, and each cell in it runs once. A job with
//! failed cells reports `Failed`, naming them. The daemon sets no
//! per-cell deadline, so a cell times out only when the job's token
//! fires — a client cancel, a drain deadline or the job deadline — and
//! each of those ends the job before its failures are listed. The job
//! spec's `max_attempts` is ignored.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use tcm_proto::{
    read_frame, write_frame, Event, JobKind, JobProgress, JobSpec, JobState, JobStatusInfo,
    Request, Response, ServerInfo, SoakSpec, SweepSpec,
};
use tcm_sim::campaign::{Campaign, Outcome, QUANTUM};
use tcm_sim::{AloneIpcCache, RunConfig, Session, SweepResult};
use tcm_telemetry::TelemetryConfig;
use tcm_types::{CancelToken, SystemConfig, Topology};

use crate::job::{render_result, resolve_sweep, write_durable, ResolvedSweep};
use crate::log::{slog, Level};
use crate::metrics::{DaemonMetrics, LiveGauges};
use crate::queue::JobQueue;
use crate::signal;
use crate::wal::Wal;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on (replaced if stale).
    pub socket: PathBuf,
    /// Directory for the WAL, per-job checkpoints, and result files.
    pub state_dir: PathBuf,
    /// Worker-pool size (jobs run concurrently; cells within one job
    /// run serially so per-job checkpoints stay linear).
    pub workers: usize,
    /// Queue admission bound; a full queue answers `QueueFull`.
    pub queue_capacity: usize,
    /// How long a drain may take before in-flight cells are aborted.
    pub drain_deadline: Duration,
    /// When set, the Prometheus exposition is atomically republished to
    /// this path about once per second (socketless scraping).
    pub metrics_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            socket: PathBuf::from("tcm-serve.sock"),
            state_dir: PathBuf::from("tcm-serve-state"),
            workers: 2,
            queue_capacity: 64,
            drain_deadline: Duration::from_secs(10),
            metrics_file: None,
        }
    }
}

/// One job's in-memory record.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    detail: String,
    /// Live work-unit counts, populated once a worker starts the job
    /// (sweep cells, or soak rounds mapped onto the same shape).
    progress: Option<JobProgress>,
}

/// State guarded by the main mutex. Lock order everywhere:
/// `inner` → `wal` → `subscribers` → per-stream mutex (any prefix or
/// suffix is fine; never reversed). Stream writes under these locks are
/// bounded by [`WRITE_TIMEOUT`], so a stalled client cannot wedge them.
struct Inner {
    queue: JobQueue,
    jobs: BTreeMap<u64, JobRecord>,
    /// Cancellation token of every running job.
    active: HashMap<u64, CancelToken>,
}

struct Shared {
    inner: Mutex<Inner>,
    work: Condvar,
    wal: Mutex<Wal>,
    /// Jobs the WAL held when this daemon started.
    wal_replayed_jobs: u64,
    /// Server-local drain flag; doubles as every sweep's pause flag.
    /// The process-wide signal flag ([`signal::drain_requested`]) is
    /// polled separately so in-process tests never cross-talk.
    draining: Arc<AtomicBool>,
    subscribers: Mutex<HashMap<u64, Vec<Arc<Mutex<UnixStream>>>>>,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    state_dir: PathBuf,
    /// Alone-run baselines shared by every job's `Session`, stored under
    /// `<state-dir>/alone/` so a restart re-admits jobs without re-running
    /// them. Its lock is a leaf, like `metrics`.
    alone: Arc<AloneIpcCache>,
    /// Metric accumulator — a leaf lock, composable anywhere in the
    /// order above.
    metrics: DaemonMetrics,
    /// The socket path and pool size, frozen at startup for
    /// [`ServerInfo`] reporting.
    socket: PathBuf,
    workers_total: usize,
}

/// Recovers a poisoned lock: all guarded state here is kept consistent
/// by construction (no partial updates survive a panic point), so
/// continuing is strictly better than wedging the daemon.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The daemon. Construct with [`Server::new`] (which replays the WAL
/// and binds the socket), then call [`Server::run`].
pub struct Server {
    config: ServerConfig,
    shared: Arc<Shared>,
    listener: UnixListener,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Replays the WAL in `state_dir`, re-admits unfinished jobs, and
    /// binds the listening socket (replacing a stale socket file).
    pub fn new(config: ServerConfig) -> io::Result<Self> {
        fs::create_dir_all(&config.state_dir)?;
        let (wal, replayed) = Wal::open(config.state_dir.join("wal.jsonl"))?;
        let next_id = replayed.iter().map(|j| j.id + 1).max().unwrap_or(1);
        let next_seq = replayed.iter().map(|j| j.seq + 1).max().unwrap_or(0);
        let unfinished = replayed.iter().filter(|j| j.terminal.is_none()).count();
        // Replayed jobs are never bounced for capacity: they were
        // admitted (and acknowledged) before the restart.
        let mut queue = JobQueue::new(config.queue_capacity.max(unfinished));
        let mut jobs = BTreeMap::new();
        for job in &replayed {
            let (state, detail) = match job.terminal {
                Some(state) => (state, "recovered from WAL".to_string()),
                None if job.started => (
                    JobState::Queued,
                    "re-admitted after restart; resumes its checkpoint".to_string(),
                ),
                None => (JobState::Queued, "re-admitted after restart".to_string()),
            };
            if state == JobState::Queued {
                let _ = queue.push(job.id, job.spec.priority, job.seq);
            }
            jobs.insert(
                job.id,
                JobRecord {
                    spec: job.spec.clone(),
                    state,
                    detail,
                    progress: None,
                },
            );
        }
        let metrics = DaemonMetrics::new();
        metrics.raise_queue_high_water(queue.len() as u64);
        if unfinished > 0 {
            metrics.add("tcm_serve_jobs_readmitted_total", unfinished as u64);
            slog!(Level::Info, "server", "re-admitted unfinished jobs from the WAL";
                jobs = unfinished);
        }
        match fs::remove_file(&config.socket) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    queue,
                    jobs,
                    active: HashMap::new(),
                }),
                work: Condvar::new(),
                wal: Mutex::new(wal),
                wal_replayed_jobs: replayed.len() as u64,
                draining: Arc::new(AtomicBool::new(false)),
                subscribers: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(next_id),
                next_seq: AtomicU64::new(next_seq),
                state_dir: config.state_dir.clone(),
                alone: Arc::new(AloneIpcCache::with_store(config.state_dir.join("alone"))),
                metrics,
                socket: config.socket.clone(),
                workers_total: config.workers.max(1),
            }),
            config,
            listener,
        })
    }

    /// Serves until a drain is requested (signal or `Drain` frame),
    /// then runs the drain state machine (see the module docs) and
    /// returns the process exit code — 0 for a clean drain.
    pub fn run(self) -> io::Result<i32> {
        let shared = &self.shared;
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(shared);
                thread::Builder::new()
                    .name(format!("tcm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
            })
            .collect::<io::Result<_>>()?;
        slog!(Level::Info, "server", "listening";
            socket = self.config.socket.display(),
            workers = workers.len(),
            queue_capacity = lock(&shared.inner).queue.capacity(),
            state_dir = self.config.state_dir.display());
        shared.work.notify_all(); // wake workers for re-admitted jobs

        publish_metrics_file(shared, self.config.metrics_file.as_deref());
        let mut last_publish = Instant::now();
        loop {
            if signal::drain_requested() || shared.draining.load(Ordering::SeqCst) {
                break;
            }
            if self.config.metrics_file.is_some()
                && last_publish.elapsed() >= Duration::from_secs(1)
            {
                publish_metrics_file(shared, self.config.metrics_file.as_deref());
                last_publish = Instant::now();
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let sh = Arc::clone(shared);
                    thread::spawn(move || handle_conn(&sh, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    slog!(Level::Error, "server", "accept failed"; error = e);
                    thread::sleep(Duration::from_millis(100));
                }
            }
        }

        shared.draining.store(true, Ordering::SeqCst);
        shared.metrics.add("tcm_serve_drains_total", 1);
        shared.work.notify_all();
        slog!(Level::Info, "server", "draining: admission stopped, in-flight cells finishing";
            deadline_s = format!("{:.1}", self.config.drain_deadline.as_secs_f64()));
        let deadline = Instant::now() + self.config.drain_deadline;
        let mut aborted = false;
        while workers.iter().any(|w| !w.is_finished()) {
            if !aborted && Instant::now() >= deadline {
                aborted = true;
                for token in lock(&shared.inner).active.values() {
                    token.cancel();
                }
                slog!(
                    Level::Warn,
                    "server",
                    "drain deadline hit; aborting in-flight cells"
                );
            }
            thread::sleep(Duration::from_millis(10));
        }
        for worker in workers {
            let _ = worker.join();
        }
        let _ = fs::remove_file(&self.config.socket);
        // Every WAL append is already fsynced; nothing left to flush.
        // One final republish so the scrape file reflects the drain.
        publish_metrics_file(shared, self.config.metrics_file.as_deref());
        slog!(Level::Info, "server", "drained cleanly");
        Ok(0)
    }
}

// ---------------------------------------------------------------------
// Metrics scraping
// ---------------------------------------------------------------------

/// Renders the full Prometheus exposition: accumulated counters and
/// histograms plus gauges assembled from live state. Locks are taken
/// sequentially (never nested), so any caller position in the lock
/// order is safe.
fn scrape(shared: &Shared) -> String {
    let (queue_depth, queue_capacity) = {
        let inner = lock(&shared.inner);
        (inner.queue.len() as u64, inner.queue.capacity() as u64)
    };
    let wal = lock(&shared.wal).stats();
    let watch_subscribers = lock(&shared.subscribers)
        .values()
        .map(Vec::len)
        .sum::<usize>() as u64;
    shared.metrics.render(&LiveGauges {
        queue_depth,
        queue_capacity,
        workers: shared.workers_total as u64,
        watch_subscribers,
        draining: shared.draining.load(Ordering::SeqCst),
        wal_appended_records: wal.records,
        wal_appended_bytes: wal.bytes,
        wal_replayed_jobs: shared.wal_replayed_jobs,
        wal_truncated_bytes: wal.truncated_bytes,
        alone_runs: shared.alone.misses(),
        alone_memory_hits: shared.alone.hits(),
        alone_disk_hits: shared.alone.disk_hits(),
        alone_corrupt: shared.alone.corrupt(),
    })
}

/// Atomically republishes the exposition to the `--metrics-file` path
/// (temp + fsync + rename, like every other durable publish).
fn publish_metrics_file(shared: &Shared, path: Option<&Path>) {
    let Some(path) = path else { return };
    if let Err(e) = write_durable(path, &scrape(shared)) {
        slog!(Level::Warn, "server", "metrics-file publish failed";
            path = path.display(), error = e);
    }
}

/// The daemon's self-description for `Status` responses. The caller
/// passes its already-held `inner` guard's contents — taking the lock
/// here would deadlock (std mutexes are not reentrant).
fn server_info(shared: &Shared, inner: &Inner) -> ServerInfo {
    ServerInfo {
        version: env!("CARGO_PKG_VERSION").to_string(),
        pid: u64::from(std::process::id()),
        uptime_ms: shared.metrics.uptime_ms(),
        socket: shared.socket.display().to_string(),
        queue_capacity: inner.queue.capacity() as u64,
        queue_depth: inner.queue.len() as u64,
        workers: shared.workers_total as u64,
        workers_busy: shared.metrics.workers_busy(),
        draining: shared.draining.load(Ordering::SeqCst),
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// Upper bound on any single frame write to a client. Event broadcasts
/// happen while the broadcaster holds `inner`; a subscriber that stops
/// reading fills its socket buffer, and without this bound the write
/// would block forever and wedge every thread waiting on `inner`. A
/// timed-out write errs and the slow subscriber is dropped instead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

fn send(writer: &Arc<Mutex<UnixStream>>, resp: &Response) -> io::Result<()> {
    let mut stream = lock(writer);
    write_frame(&mut *stream, &resp.encode())
}

fn handle_conn(shared: &Arc<Shared>, stream: UnixStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = io::BufReader::new(read_half);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return, // clean EOF or protocol error
        };
        let ok = match Request::decode(&frame) {
            Err(e) => send(
                &writer,
                &Response::Error {
                    message: e.to_string(),
                },
            ),
            Ok(Request::Watch { id }) => handle_watch(shared, &writer, id),
            Ok(req) => send(&writer, &handle_request(shared, req)),
        };
        if ok.is_err() {
            return;
        }
    }
}

/// `Watch` is handled apart from the other requests because it
/// registers the connection as an event subscriber. Holding `inner`
/// across the terminal-state check, the registration, *and the Status
/// reply write* closes the race with a job finishing concurrently:
/// workers broadcast the `JobDone` event while holding `inner` too, so
/// no event can reach the stream ahead of the Status frame. The write
/// under the lock is bounded by [`WRITE_TIMEOUT`].
fn handle_watch(shared: &Arc<Shared>, writer: &Arc<Mutex<UnixStream>>, id: u64) -> io::Result<()> {
    let inner = lock(&shared.inner);
    let Some(job) = inner.jobs.get(&id) else {
        drop(inner);
        return send(
            writer,
            &Response::Error {
                message: format!("unknown job {id}"),
            },
        );
    };
    let info = status_info(id, job);
    let terminal = matches!(
        job.state,
        JobState::Done | JobState::Failed | JobState::Cancelled
    );
    let done = terminal.then(|| Event::JobDone {
        job: id,
        state: job.state,
        detail: job.detail.clone(),
    });
    if !terminal {
        lock(&shared.subscribers)
            .entry(id)
            .or_default()
            .push(Arc::clone(writer));
        slog!(Level::Debug, "server", "watch subscribed"; job = id);
    }
    let server = Some(server_info(shared, &inner));
    let status_sent = send(
        writer,
        &Response::Status {
            jobs: vec![info],
            server,
        },
    );
    drop(inner);
    status_sent?;
    match done {
        Some(event) => send(writer, &Response::Event(event)),
        None => Ok(()),
    }
}

fn status_info(id: u64, job: &JobRecord) -> JobStatusInfo {
    JobStatusInfo {
        id,
        priority: job.spec.priority,
        state: job.state,
        detail: job.detail.clone(),
        progress: job.progress,
    }
}

fn validate(spec: &JobSpec) -> Result<(), String> {
    match &spec.kind {
        JobKind::Sweep(sweep) => resolve_sweep(sweep).map(|_| ()),
        JobKind::ChaosSoak(soak) => {
            if soak.rounds == 0 {
                return Err("soak needs at least one round".into());
            }
            if soak.horizon < QUANTUM {
                return Err(format!(
                    "soak horizon must be at least {QUANTUM} cycles (one TCM quantum), \
                     or monitor corruption cannot be detected"
                ));
            }
            Ok(())
        }
    }
}

fn handle_request(shared: &Arc<Shared>, req: Request) -> Response {
    match req {
        Request::SubmitJob(spec) => {
            if shared.draining.load(Ordering::SeqCst) || signal::drain_requested() {
                return Response::Draining;
            }
            // Reject malformed specs before they consume a WAL entry.
            if let Err(message) = validate(&spec) {
                return Response::Error { message };
            }
            let mut inner = lock(&shared.inner);
            if inner.queue.len() >= inner.queue.capacity() {
                return Response::QueueFull {
                    capacity: inner.queue.capacity() as u64,
                };
            }
            let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
            let seq = shared.next_seq.fetch_add(1, Ordering::SeqCst);
            // Durable before acknowledged: the WAL append fsyncs.
            if let Err(e) = lock(&shared.wal).submit(id, seq, &spec) {
                return Response::Error {
                    message: format!("WAL append failed: {e}"),
                };
            }
            let _ = inner.queue.push(id, spec.priority, seq);
            shared.metrics.add("tcm_serve_jobs_submitted_total", 1);
            shared
                .metrics
                .raise_queue_high_water(inner.queue.len() as u64);
            let priority = spec.priority;
            inner.jobs.insert(
                id,
                JobRecord {
                    spec,
                    state: JobState::Queued,
                    detail: String::new(),
                    progress: None,
                },
            );
            let depth = inner.queue.len();
            drop(inner);
            shared.work.notify_one();
            slog!(Level::Info, "server", "job admitted";
                job = id, priority = priority, queue_depth = depth);
            Response::Submitted { id }
        }
        Request::JobStatus { id } => {
            let inner = lock(&shared.inner);
            let jobs = match id {
                Some(id) => match inner.jobs.get(&id) {
                    Some(job) => vec![status_info(id, job)],
                    None => {
                        return Response::Error {
                            message: format!("unknown job {id}"),
                        }
                    }
                },
                None => inner
                    .jobs
                    .iter()
                    .map(|(&id, job)| status_info(id, job))
                    .collect(),
            };
            let server = Some(server_info(shared, &inner));
            Response::Status { jobs, server }
        }
        Request::Metrics => Response::Metrics {
            text: scrape(shared),
        },
        Request::CancelJob { id } => {
            let mut inner = lock(&shared.inner);
            let found = if inner.queue.cancel(id) {
                let detail = "cancelled while queued".to_string();
                if let Err(e) = lock(&shared.wal).cancel(id) {
                    slog!(Level::Warn, "server", "WAL cancel failed"; job = id, error = e);
                }
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                    job.detail = detail.clone();
                }
                shared.metrics.add_labeled(
                    "tcm_serve_jobs_completed_total",
                    "state",
                    "cancelled",
                    1,
                );
                slog!(Level::Info, "server", "job cancelled while queued"; job = id);
                let mut subs = lock(&shared.subscribers);
                broadcast_locked(
                    shared,
                    &mut subs,
                    id,
                    Event::JobDone {
                        job: id,
                        state: JobState::Cancelled,
                        detail,
                    },
                );
                subs.remove(&id);
                true
            } else if inner
                .jobs
                .get(&id)
                .is_some_and(|j| j.state == JobState::Running)
            {
                if let Err(e) = lock(&shared.wal).cancel(id) {
                    slog!(Level::Warn, "server", "WAL cancel failed"; job = id, error = e);
                }
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                    job.detail = "cancel requested; aborting in-flight cells".into();
                }
                if let Some(token) = inner.active.get(&id) {
                    token.cancel(); // worker notices and concludes the job
                }
                slog!(Level::Info, "server", "cancel requested for running job"; job = id);
                true
            } else {
                false
            };
            Response::Cancelled { id, found }
        }
        Request::Drain => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.work.notify_all();
            Response::Draining
        }
        Request::Watch { .. } => unreachable!("Watch handled by handle_watch"),
    }
}

// ---------------------------------------------------------------------
// Event fan-out
// ---------------------------------------------------------------------

type Subscribers = HashMap<u64, Vec<Arc<Mutex<UnixStream>>>>;

fn broadcast(shared: &Shared, job: u64, event: Event) {
    broadcast_locked(shared, &mut lock(&shared.subscribers), job, event);
}

fn broadcast_locked(
    shared: &Shared,
    subs: &mut MutexGuard<'_, Subscribers>,
    job: u64,
    event: Event,
) {
    let Some(streams) = subs.get_mut(&job) else {
        return;
    };
    let payload = Response::Event(event).encode();
    // A dead subscriber (client hung up) or a slow one (write timed out
    // after [`WRITE_TIMEOUT`]) is dropped on write failure.
    let before = streams.len();
    streams.retain(|stream| write_frame(&mut *lock(stream), &payload).is_ok());
    let pruned = before - streams.len();
    if pruned > 0 {
        shared
            .metrics
            .add("tcm_serve_watch_pruned_total", pruned as u64);
        slog!(Level::Warn, "server", "pruned dead or stalled watch subscriber(s)";
            job = job, pruned = pruned);
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (id, spec, token) = {
            let mut inner = lock(&shared.inner);
            loop {
                // During a drain, queued jobs stay in the WAL for the
                // next incarnation; only the wait ends.
                if shared.draining.load(Ordering::SeqCst) || signal::drain_requested() {
                    return;
                }
                if let Some(id) = inner.queue.pop() {
                    let Some(job) = inner.jobs.get_mut(&id) else {
                        continue;
                    };
                    job.state = JobState::Running;
                    // The per-job wall-clock deadline starts now.
                    let token = match job.spec.deadline_ms {
                        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                        None => CancelToken::new(),
                    };
                    let spec = job.spec.clone();
                    inner.active.insert(id, token.clone());
                    if let Err(e) = lock(&shared.wal).start(id) {
                        slog!(Level::Warn, "worker", "WAL start failed"; job = id, error = e);
                    }
                    break (id, spec, token);
                }
                inner = shared
                    .work
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let kind = match &spec.kind {
            JobKind::Sweep(_) => "sweep",
            JobKind::ChaosSoak(_) => "soak",
        };
        slog!(Level::Info, "worker", "job started";
            job = id, kind = kind, priority = spec.priority);
        shared.metrics.set_worker_busy(true);
        run_job(shared, id, &spec, &token, Instant::now());
        shared.metrics.set_worker_busy(false);
    }
}

fn run_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec, token: &CancelToken, started: Instant) {
    // Cell-level panics are already caught inside the sweep engine; this
    // outer guard covers everything else (e.g. checkpoint-file creation
    // failing). An escaped panic would kill the worker thread, leaking
    // its pool slot and leaving the job `Running` forever with no
    // terminal event for watchers — conclude it `Failed` instead.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &spec.kind {
        JobKind::Sweep(sweep) => run_sweep_job(shared, id, sweep, token),
        JobKind::ChaosSoak(soak) => run_soak_job(shared, id, soak, token),
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        Some((JobState::Failed, format!("job panicked: {msg}")))
    });
    match outcome {
        Some((state, detail)) => conclude(shared, id, state, detail, started),
        // Drained mid-run: the WAL entry stays open so the next
        // incarnation re-admits the job and resumes its checkpoint.
        None => {
            let mut inner = lock(&shared.inner);
            inner.active.remove(&id);
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.detail = "drained mid-run; re-admitted on restart".into();
            }
            drop(inner);
            slog!(Level::Info, "worker", "job drained mid-run; re-admitted on restart";
                job = id);
        }
    }
}

/// Records a terminal state: memory, WAL, then subscribers — all under
/// `inner` so a concurrent `Watch` either sees the terminal state or
/// receives the `JobDone` broadcast, never neither.
fn conclude(shared: &Arc<Shared>, id: u64, state: JobState, detail: String, started: Instant) {
    let mut inner = lock(&shared.inner);
    inner.active.remove(&id);
    // A client cancel that raced the final cells wins: the WAL already
    // holds the `cancel` op.
    let state = if inner
        .jobs
        .get(&id)
        .is_some_and(|j| j.state == JobState::Cancelled)
    {
        JobState::Cancelled
    } else {
        state
    };
    if let Some(job) = inner.jobs.get_mut(&id) {
        job.state = state;
        job.detail = detail.clone();
    }
    if matches!(state, JobState::Done | JobState::Failed) {
        if let Err(e) = lock(&shared.wal).finish(id, state) {
            slog!(Level::Warn, "worker", "WAL finish failed"; job = id, error = e);
        }
    }
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    shared
        .metrics
        .add_labeled("tcm_serve_jobs_completed_total", "state", state.as_str(), 1);
    shared.metrics.observe_job_duration(state, elapsed_ms);
    slog!(Level::Info, "worker", "job concluded";
        job = id, state = state.as_str(), elapsed_ms = elapsed_ms, detail = detail);
    let mut subs = lock(&shared.subscribers);
    broadcast_locked(
        shared,
        &mut subs,
        id,
        Event::JobDone {
            job: id,
            state,
            detail,
        },
    );
    subs.remove(&id);
}

fn job_cancelled(shared: &Shared, id: u64) -> bool {
    lock(&shared.inner)
        .jobs
        .get(&id)
        .is_some_and(|j| j.state == JobState::Cancelled)
}

// ---------------------------------------------------------------------
// Sweep jobs
// ---------------------------------------------------------------------

/// Runs one full sweep pass with streaming hooks. Serial within the
/// job — concurrency comes from the worker pool — so the per-job
/// checkpoint grows linearly.
fn sweep_pass(
    shared: &Arc<Shared>,
    id: u64,
    session: &Session,
    resolved: &ResolvedSweep,
    ckpt: &Path,
    token: &CancelToken,
) -> SweepResult {
    let seeds = resolved.seeds.clone();
    let cell_shared = Arc::clone(shared);
    let fail_shared = Arc::clone(shared);
    // Each pass rebuilds the progress counts from zero: a checkpoint
    // resume re-fires `on_cell` (with `resumed = true`) for every
    // already-complete cell, so counting from scratch stays exact.
    let total = (resolved.policies.len() * resolved.workloads.len() * resolved.seeds.len()) as u64;
    set_progress(shared, id, |p| {
        *p = JobProgress {
            total,
            ..JobProgress::default()
        }
    });
    session
        .sweep()
        .policies(resolved.policies.iter().cloned())
        .workloads(resolved.workloads.iter().cloned())
        .seeds(resolved.seeds.iter().copied())
        .checkpoint(ckpt)
        .pause_flag(Arc::clone(&shared.draining))
        .cancel_token(token.clone())
        .on_cell(move |cell, resumed| {
            let m = &cell.result.metrics;
            set_progress(&cell_shared, id, |p| {
                p.done += 1;
                p.resumed += u64::from(resumed);
            });
            cell_shared
                .metrics
                .add("tcm_serve_cells_completed_total", 1);
            if resumed {
                cell_shared.metrics.add("tcm_serve_cells_resumed_total", 1);
            }
            slog!(Level::Debug, "worker", "cell done";
                job = id,
                cell = format!("{}x{}", cell.result.policy, cell.result.workload),
                seed = seeds.get(cell.seed).copied().unwrap_or(0),
                resumed = u8::from(resumed));
            broadcast(
                &cell_shared,
                id,
                Event::CellResult {
                    job: id,
                    policy: cell.result.policy.clone(),
                    workload: cell.result.workload.clone(),
                    seed: seeds.get(cell.seed).copied().unwrap_or(0),
                    ws_bits: m.weighted_speedup.to_bits(),
                    hs_bits: m.harmonic_speedup.to_bits(),
                    ms_bits: m.max_slowdown.to_bits(),
                    resumed,
                },
            );
            if let Some(snapshot) = &cell.result.telemetry {
                if snapshot.dropped > 0 {
                    cell_shared
                        .metrics
                        .add("tcm_trace_events_dropped_total", snapshot.dropped);
                }
                let summary = snapshot.metrics.summary();
                broadcast(
                    &cell_shared,
                    id,
                    Event::Telemetry {
                        job: id,
                        counters: summary.counters,
                        gauge_bits: summary.gauge_bits,
                    },
                );
            }
        })
        .on_failure(move |err| {
            set_progress(&fail_shared, id, |p| p.failed += 1);
            fail_shared.metrics.add("tcm_serve_cell_failures_total", 1);
            slog!(Level::Warn, "worker", "cell failed";
                job = id,
                cell = format!("{}x{}", err.policy_label, err.workload_name),
                seed = err.seed_value);
            broadcast(
                &fail_shared,
                id,
                Event::CellFailure {
                    job: id,
                    line: err.to_string(),
                },
            );
        })
        .run()
}

/// Applies `f` to a job's progress counts (creating them zeroed).
fn set_progress(shared: &Shared, id: u64, f: impl FnOnce(&mut JobProgress)) {
    let mut inner = lock(&shared.inner);
    if let Some(job) = inner.jobs.get_mut(&id) {
        f(job.progress.get_or_insert_with(JobProgress::default));
    }
}

fn run_sweep_job(
    shared: &Arc<Shared>,
    id: u64,
    spec: &SweepSpec,
    token: &CancelToken,
) -> Option<(JobState, String)> {
    let resolved = match resolve_sweep(spec) {
        Ok(resolved) => resolved,
        Err(e) => return Some((JobState::Failed, e)),
    };
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = resolved.workloads[0].threads.len();
    if let Some(topology) = resolved.topology.clone() {
        cfg.topology = topology;
    }
    let session = Session::with_alone_cache(
        RunConfig::builder()
            .system(cfg)
            .horizon(resolved.horizon)
            .telemetry(resolved.telemetry.then(TelemetryConfig::default))
            .build(),
        Arc::clone(&shared.alone),
    );
    let ckpt = shared.state_dir.join(format!("job-{id}.ckpt.jsonl"));

    let result = sweep_pass(shared, id, &session, &resolved, &ckpt, token);
    if !result.is_complete() {
        if job_cancelled(shared, id) {
            return Some((JobState::Cancelled, "cancelled by client".into()));
        }
        if shared.draining.load(Ordering::SeqCst) || signal::drain_requested() {
            return None;
        }
        if token.is_cancelled() {
            return Some((
                JobState::Failed,
                format!(
                    "job deadline exceeded with {} cell(s) unfinished",
                    result.failures().len() + result.stats().skipped
                ),
            ));
        }
    }

    if result.is_complete() {
        let path = shared.state_dir.join(format!("job-{id}.result.json"));
        if let Err(e) = write_durable(&path, &render_result(&result)) {
            return Some((JobState::Failed, format!("result write failed: {e}")));
        }
        Some((
            JobState::Done,
            format!("{} cell(s) -> {}", result.cells().len(), path.display()),
        ))
    } else {
        let failed: Vec<String> = result
            .failures()
            .iter()
            .map(|f| format!("{}×{}@{}", f.policy_label, f.workload_name, f.seed_value))
            .collect();
        Some((
            JobState::Failed,
            format!("{} cell(s) failed: {}", failed.len(), failed.join(", ")),
        ))
    }
}

// ---------------------------------------------------------------------
// Chaos-soak jobs
// ---------------------------------------------------------------------

/// One soak round: the fault [`Campaign`] on one flat channel and a
/// round-seeded mix, so a long soak walks fresh workloads. Returns the
/// classes caught, the classes injected (coordination kinds are
/// skipped), and the names of those that escaped.
fn soak_round(seed: u64, horizon: u64) -> (u32, u32, Vec<&'static str>) {
    let Ok(campaign) = Campaign::new(Topology::flat(1), seed, horizon) else {
        return (0, 1, Vec::new());
    };
    let verdicts = campaign.faults((horizon / 10).max(1));
    let classes = verdicts
        .iter()
        .filter(|v| v.outcome != Outcome::Skipped)
        .count() as u32;
    let missed: Vec<_> = verdicts
        .iter()
        .filter(|v| v.outcome == Outcome::Fail)
        .map(|v| v.name)
        .collect();
    (classes - missed.len() as u32, classes, missed)
}

fn run_soak_job(
    shared: &Arc<Shared>,
    id: u64,
    spec: &SoakSpec,
    token: &CancelToken,
) -> Option<(JobState, String)> {
    set_progress(shared, id, |p| {
        *p = JobProgress {
            total: u64::from(spec.rounds),
            ..JobProgress::default()
        }
    });
    for round in 0..spec.rounds {
        // Soak rounds are stateless, so a drained soak simply restarts
        // from round 0 after recovery (documented in DESIGN.md §11).
        if shared.draining.load(Ordering::SeqCst) || signal::drain_requested() {
            return None;
        }
        if job_cancelled(shared, id) {
            return Some((JobState::Cancelled, "cancelled by client".into()));
        }
        if token.is_cancelled() {
            return Some((
                JobState::Failed,
                format!("job deadline exceeded at round {round}/{}", spec.rounds),
            ));
        }
        let (detected, classes, missed) = soak_round(spec.seed ^ u64::from(round), spec.horizon);
        shared.metrics.add("tcm_serve_soak_rounds_total", 1);
        set_progress(shared, id, |p| {
            if detected < classes {
                p.failed += 1;
            } else {
                p.done += 1;
            }
        });
        slog!(Level::Debug, "worker", "soak round finished";
            job = id, round = round, detected = detected, classes = classes);
        broadcast(
            shared,
            id,
            Event::SoakRound {
                job: id,
                round,
                detected,
                classes,
            },
        );
        if detected < classes {
            return Some((
                JobState::Failed,
                format!(
                    "round {round}: only {detected}/{classes} fault classes detected \
                     (missed: {})",
                    missed.join(", ")
                ),
            ));
        }
    }
    Some((
        JobState::Done,
        format!("{} round(s), every fault class detected", spec.rounds),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_soak_round_names_the_class_that_escaped() {
        assert_eq!(
            soak_round(7, QUANTUM - 1),
            (7, 8, vec!["monitor-corruption"])
        );
    }
}
