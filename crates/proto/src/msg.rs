//! Typed request/response messages and their JSON encoding.
//!
//! Every encoded message is one JSON object with a `"v"` protocol
//! version and a `"type"` tag; decoding rejects unknown versions and
//! tags loudly. Floats travel as `f64::to_bits` integers and booleans
//! as `0`/`1` (see [`tcm_types::json`]).

use crate::PROTO_VERSION;
use std::fmt::Write as _;
use tcm_types::json::{self, Value};

/// A malformed or version-incompatible message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// A client-to-daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job; answered with `Submitted`, `QueueFull` or
    /// `Draining`.
    SubmitJob(JobSpec),
    /// Report job state — one job by id, or every known job.
    JobStatus {
        /// The job to report, or `None` for all jobs.
        id: Option<u64>,
    },
    /// Cancel a queued or running job.
    CancelJob {
        /// The job to cancel.
        id: u64,
    },
    /// Subscribe this connection to a job's streamed [`Event`]s; the
    /// stream ends with `JobDone`.
    Watch {
        /// The job to watch.
        id: u64,
    },
    /// Ask the daemon to drain: stop admitting, finish or checkpoint
    /// in-flight cells, flush the WAL, and exit 0.
    Drain,
    /// Fetch the daemon's metrics in Prometheus text exposition format;
    /// answered with [`Response::Metrics`].
    Metrics,
}

/// What to run and under which SLOs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Priority class, 0 = most urgent; FIFO within a class.
    pub priority: u8,
    /// Wall-clock deadline for the whole job, after which in-flight
    /// cells are cancelled and the job fails as timed out.
    pub deadline_ms: Option<u64>,
    /// Per-cell attempt budget for timeout retries (minimum 1).
    pub max_attempts: u32,
    /// The work itself.
    pub kind: JobKind,
}

/// The kinds of work the daemon runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// A policy × workload × seed sweep grid.
    Sweep(SweepSpec),
    /// A continuous seeded chaos campaign reporting detector coverage.
    ChaosSoak(SoakSpec),
}

/// Declarative sweep grid (the daemon resolves names to engine types).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Policy names (`fcfs`, `fr-fcfs`, `stfm`, `par-bs`, `atlas`,
    /// `fqm`, `tcm`); empty = the paper lineup.
    pub policies: Vec<String>,
    /// Workloads on the grid's workload axis.
    pub workloads: Vec<WorkloadRef>,
    /// Simulator-seed axis (empty = the canonical `[0]`).
    pub seeds: Vec<u64>,
    /// Simulated cycles per cell.
    pub horizon: u64,
    /// Memory-system topology spec (`"4"`, `"2x2"`, `"3+1"`…); `None` =
    /// the paper baseline.
    pub topology: Option<String>,
    /// Whether to capture telemetry and stream per-cell
    /// [`Event::Telemetry`] summaries (observation-only; results are
    /// bit-identical either way).
    pub telemetry: bool,
}

/// A workload on the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadRef {
    /// A named Table 5 category (`A`–`D`).
    Named(String),
    /// A seeded synthetic mix.
    Random {
        /// Generator seed.
        seed: u64,
        /// Thread count.
        threads: u64,
        /// Memory intensity as an `f64` bit pattern.
        intensity_bits: u64,
    },
}

/// A chaos-soak campaign: seeded fault-injection rounds, each checking
/// every applicable fault class against its mapped detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakSpec {
    /// Base seed; round `r` uses `seed ^ r`.
    pub seed: u64,
    /// Rounds to run.
    pub rounds: u32,
    /// Simulated cycles per injection run. The daemon refuses horizons
    /// below one campaign TCM quantum (`tcm_sim::campaign::QUANTUM`),
    /// where monitor corruption cannot be detected.
    pub horizon: u64,
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a complete, durable result.
    Done,
    /// Finished with failed cells or a missed deadline.
    Failed,
    /// Cancelled by request or drain before completion.
    Cancelled,
}

impl JobState {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn from_str(s: &str) -> Result<Self, ProtoError> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            other => return Err(err(format!("unknown job state `{other}`"))),
        })
    }
}

/// One job's reported status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatusInfo {
    /// Job id.
    pub id: u64,
    /// Priority class.
    pub priority: u8,
    /// Current lifecycle state.
    pub state: JobState,
    /// Human detail: progress counts, `cell-failure` lines (verbatim
    /// sweep format), the list of failed cells.
    pub detail: String,
    /// Live work-unit progress, when the daemon tracks it. Optional on
    /// the wire (`tcmp1`-compatible: old peers ignore the field, old
    /// daemons simply never send it).
    pub progress: Option<JobProgress>,
}

/// Work-unit progress for one job: sweep cells, or soak rounds mapped
/// onto the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobProgress {
    /// Total work units in the job (grid cells, or soak rounds).
    pub total: u64,
    /// Units finished successfully this far (including resumed ones).
    pub done: u64,
    /// Units that exhausted their retry budget and failed.
    pub failed: u64,
    /// Units restored from checkpoint rather than recomputed.
    pub resumed: u64,
}

/// Daemon self-description attached to `Status` responses. Optional on
/// the wire: pre-observability daemons never send it and old clients
/// ignore it, so the extension stays within `tcmp1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Daemon build version (crate version string).
    pub version: String,
    /// Daemon process id.
    pub pid: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// The Unix socket path the daemon is serving on.
    pub socket: String,
    /// Configured job-queue capacity.
    pub queue_capacity: u64,
    /// Jobs currently queued (not yet running).
    pub queue_depth: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Workers currently executing a job.
    pub workers_busy: u64,
    /// Whether the daemon is draining (no new admissions).
    pub draining: bool,
}

/// A streamed event on a `Watch` subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One sweep cell finished; metrics as `f64` bit patterns.
    CellResult {
        /// Owning job.
        job: u64,
        /// Policy label.
        policy: String,
        /// Workload name.
        workload: String,
        /// Seed-axis value.
        seed: u64,
        /// Weighted speedup bits.
        ws_bits: u64,
        /// Harmonic speedup bits.
        hs_bits: u64,
        /// Maximum slowdown bits.
        ms_bits: u64,
        /// Whether the cell was restored from a checkpoint rather than
        /// simulated in this daemon lifetime.
        resumed: bool,
    },
    /// One sweep cell exhausted its retry budget; `line` is the
    /// engine's stable `cell-failure …` format, verbatim.
    CellFailure {
        /// Owning job.
        job: u64,
        /// The structured failure line.
        line: String,
    },
    /// Telemetry digest for one finished cell (counters verbatim,
    /// gauges as bit patterns).
    Telemetry {
        /// Owning job.
        job: u64,
        /// `(name, value)` counters, name-sorted.
        counters: Vec<(String, u64)>,
        /// `(name, f64::to_bits(value))` gauges, name-sorted.
        gauge_bits: Vec<(String, u64)>,
    },
    /// One chaos-soak round finished.
    SoakRound {
        /// Owning job.
        job: u64,
        /// Round index (0-based).
        round: u32,
        /// Fault classes whose mapped detector fired.
        detected: u32,
        /// Fault classes injected this round.
        classes: u32,
    },
    /// Terminal event: the job reached a final state.
    JobDone {
        /// Owning job.
        job: u64,
        /// Final state (`Done`, `Failed` or `Cancelled`).
        state: JobState,
        /// Final detail line.
        detail: String,
    },
}

/// A daemon-to-client response (direct reply or streamed event).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Job admitted with this id.
    Submitted {
        /// Assigned job id (stable across daemon restarts via the WAL).
        id: u64,
    },
    /// Typed backpressure: the queue is at capacity; resubmit later.
    QueueFull {
        /// The configured queue capacity.
        capacity: u64,
    },
    /// Status report for the requested job(s).
    Status {
        /// One entry per known job, id-ordered.
        jobs: Vec<JobStatusInfo>,
        /// Daemon self-description (absent from pre-observability
        /// daemons; old clients ignore it).
        server: Option<ServerInfo>,
    },
    /// Cancellation outcome.
    Cancelled {
        /// The requested job id.
        id: u64,
        /// Whether the job existed and was still cancellable.
        found: bool,
    },
    /// The daemon is draining: no new work is admitted.
    Draining,
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The daemon's metrics in Prometheus text exposition format.
    Metrics {
        /// The full exposition text (`# TYPE` lines + samples).
        text: String,
    },
    /// A streamed `Watch` event.
    Event(Event),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_head(out: &mut String, ty: &str) {
    let _ = write!(out, "{{\"v\":{PROTO_VERSION},\"type\":\"{ty}\"");
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":");
    json::write_str(out, value);
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    let _ = write!(out, ",\"{key}\":{value}");
}

fn push_pairs_field(out: &mut String, key: &str, pairs: &[(String, u64)]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, (name, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_str(out, name);
        let _ = write!(out, ",{value}]");
    }
    out.push(']');
}

impl JobSpec {
    /// Appends this spec as a JSON object — also the representation the
    /// daemon's write-ahead log embeds in `submit` records.
    pub fn encode_body(&self, out: &mut String) {
        out.push('{');
        let _ = write!(out, "\"priority\":{}", self.priority);
        if let Some(ms) = self.deadline_ms {
            let _ = write!(out, ",\"deadline_ms\":{ms}");
        }
        let _ = write!(out, ",\"max_attempts\":{}", self.max_attempts);
        match &self.kind {
            JobKind::Sweep(spec) => {
                out.push_str(",\"sweep\":{\"policies\":");
                json::write_str_array(out, &spec.policies);
                out.push_str(",\"workloads\":[");
                for (i, w) in spec.workloads.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match w {
                        WorkloadRef::Named(name) => {
                            out.push_str("{\"named\":");
                            json::write_str(out, name);
                            out.push('}');
                        }
                        WorkloadRef::Random {
                            seed,
                            threads,
                            intensity_bits,
                        } => {
                            let _ = write!(
                                out,
                                "{{\"seed\":{seed},\"threads\":{threads},\
                                 \"intensity_bits\":{intensity_bits}}}"
                            );
                        }
                    }
                }
                out.push_str("],\"seeds\":");
                json::write_u64_array(out, spec.seeds.iter().copied());
                let _ = write!(out, ",\"horizon\":{}", spec.horizon);
                if let Some(topo) = &spec.topology {
                    out.push_str(",\"topology\":");
                    json::write_str(out, topo);
                }
                let _ = write!(out, ",\"telemetry\":{}}}", u64::from(spec.telemetry));
            }
            JobKind::ChaosSoak(spec) => {
                let _ = write!(
                    out,
                    ",\"soak\":{{\"seed\":{},\"rounds\":{},\"horizon\":{}}}",
                    spec.seed, spec.rounds, spec.horizon
                );
            }
        }
        out.push('}');
    }

    /// Decodes a spec object produced by [`JobSpec::encode_body`].
    pub fn from_value(v: &Value) -> Result<Self, ProtoError> {
        let priority = v
            .field("priority")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("job spec missing priority"))?;
        let priority =
            u8::try_from(priority).map_err(|_| err("priority must fit in a byte"))?;
        let deadline_ms = match v.field("deadline_ms") {
            Some(d) => Some(d.as_u64().ok_or_else(|| err("bad deadline_ms"))?),
            None => None,
        };
        let max_attempts = v
            .field("max_attempts")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("job spec missing max_attempts"))?;
        let max_attempts =
            u32::try_from(max_attempts).map_err(|_| err("max_attempts out of range"))?;
        let kind = if let Some(sweep) = v.field("sweep") {
            let workloads = sweep
                .field("workloads")
                .and_then(Value::as_arr)
                .ok_or_else(|| err("sweep spec missing workloads"))?
                .iter()
                .map(|w| {
                    if let Some(name) = w.field("named").and_then(Value::as_str) {
                        Ok(WorkloadRef::Named(name.to_string()))
                    } else {
                        Ok(WorkloadRef::Random {
                            seed: w
                                .field("seed")
                                .and_then(Value::as_u64)
                                .ok_or_else(|| err("random workload missing seed"))?,
                            threads: w
                                .field("threads")
                                .and_then(Value::as_u64)
                                .ok_or_else(|| err("random workload missing threads"))?,
                            intensity_bits: w
                                .field("intensity_bits")
                                .and_then(Value::as_u64)
                                .ok_or_else(|| err("random workload missing intensity"))?,
                        })
                    }
                })
                .collect::<Result<Vec<_>, ProtoError>>()?;
            JobKind::Sweep(SweepSpec {
                policies: sweep
                    .field("policies")
                    .and_then(Value::str_array)
                    .ok_or_else(|| err("sweep spec missing policies"))?,
                workloads,
                seeds: sweep
                    .field("seeds")
                    .and_then(Value::u64_array)
                    .ok_or_else(|| err("sweep spec missing seeds"))?,
                horizon: sweep
                    .field("horizon")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| err("sweep spec missing horizon"))?,
                topology: sweep
                    .field("topology")
                    .map(|t| {
                        t.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| err("bad topology"))
                    })
                    .transpose()?,
                telemetry: sweep
                    .field("telemetry")
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
                    != 0,
            })
        } else if let Some(soak) = v.field("soak") {
            JobKind::ChaosSoak(SoakSpec {
                seed: soak
                    .field("seed")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| err("soak spec missing seed"))?,
                rounds: soak
                    .field("rounds")
                    .and_then(Value::as_u64)
                    .and_then(|r| u32::try_from(r).ok())
                    .ok_or_else(|| err("soak spec missing rounds"))?,
                horizon: soak
                    .field("horizon")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| err("soak spec missing horizon"))?,
            })
        } else {
            return Err(err("job spec names neither sweep nor soak"));
        };
        Ok(JobSpec {
            priority,
            deadline_ms,
            max_attempts,
            kind,
        })
    }
}

impl Request {
    /// Encodes this request as one frame payload.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Request::SubmitJob(spec) => {
                push_head(&mut out, "submit_job");
                out.push_str(",\"spec\":");
                spec.encode_body(&mut out);
            }
            Request::JobStatus { id } => {
                push_head(&mut out, "job_status");
                if let Some(id) = id {
                    push_u64_field(&mut out, "id", *id);
                }
            }
            Request::CancelJob { id } => {
                push_head(&mut out, "cancel_job");
                push_u64_field(&mut out, "id", *id);
            }
            Request::Watch { id } => {
                push_head(&mut out, "watch");
                push_u64_field(&mut out, "id", *id);
            }
            Request::Drain => push_head(&mut out, "drain"),
            Request::Metrics => push_head(&mut out, "metrics"),
        }
        out.push('}');
        out
    }

    /// Decodes a frame payload into a request.
    pub fn decode(text: &str) -> Result<Self, ProtoError> {
        let v = json::parse(text).ok_or_else(|| err("unparsable request"))?;
        check_version(&v)?;
        let ty = v
            .field("type")
            .and_then(Value::as_str)
            .ok_or_else(|| err("request missing type"))?;
        Ok(match ty {
            "submit_job" => Request::SubmitJob(JobSpec::from_value(
                v.field("spec").ok_or_else(|| err("submit missing spec"))?,
            )?),
            "job_status" => Request::JobStatus {
                id: v
                    .field("id")
                    .map(|id| {
                        id.as_u64()
                            .ok_or_else(|| err("job_status id must be an integer"))
                    })
                    .transpose()?,
            },
            "cancel_job" => Request::CancelJob {
                id: need_u64(&v, "id")?,
            },
            "watch" => Request::Watch {
                id: need_u64(&v, "id")?,
            },
            "drain" => Request::Drain,
            "metrics" => Request::Metrics,
            other => return Err(err(format!("unknown request type `{other}`"))),
        })
    }
}

impl Response {
    /// Encodes this response as one frame payload.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Response::Submitted { id } => {
                push_head(&mut out, "submitted");
                push_u64_field(&mut out, "id", *id);
            }
            Response::QueueFull { capacity } => {
                push_head(&mut out, "queue_full");
                push_u64_field(&mut out, "capacity", *capacity);
            }
            Response::Status { jobs, server } => {
                push_head(&mut out, "status");
                out.push_str(",\"jobs\":[");
                for (i, j) in jobs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"id\":{},\"priority\":{},\"state\":\"{}\",\"detail\":",
                        j.id,
                        j.priority,
                        j.state.as_str()
                    );
                    json::write_str(&mut out, &j.detail);
                    if let Some(p) = &j.progress {
                        let _ = write!(
                            out,
                            ",\"progress\":{{\"total\":{},\"done\":{},\
                             \"failed\":{},\"resumed\":{}}}",
                            p.total, p.done, p.failed, p.resumed
                        );
                    }
                    out.push('}');
                }
                out.push(']');
                if let Some(s) = server {
                    out.push_str(",\"server\":{\"version\":");
                    json::write_str(&mut out, &s.version);
                    let _ = write!(out, ",\"pid\":{},\"uptime_ms\":{}", s.pid, s.uptime_ms);
                    out.push_str(",\"socket\":");
                    json::write_str(&mut out, &s.socket);
                    let _ = write!(
                        out,
                        ",\"queue_capacity\":{},\"queue_depth\":{},\"workers\":{},\
                         \"workers_busy\":{},\"draining\":{}}}",
                        s.queue_capacity,
                        s.queue_depth,
                        s.workers,
                        s.workers_busy,
                        u64::from(s.draining)
                    );
                }
            }
            Response::Cancelled { id, found } => {
                push_head(&mut out, "cancelled");
                push_u64_field(&mut out, "id", *id);
                push_u64_field(&mut out, "found", u64::from(*found));
            }
            Response::Draining => push_head(&mut out, "draining"),
            Response::Error { message } => {
                push_head(&mut out, "error");
                push_str_field(&mut out, "message", message);
            }
            Response::Metrics { text } => {
                push_head(&mut out, "metrics");
                push_str_field(&mut out, "text", text);
            }
            Response::Event(event) => match event {
                Event::CellResult {
                    job,
                    policy,
                    workload,
                    seed,
                    ws_bits,
                    hs_bits,
                    ms_bits,
                    resumed,
                } => {
                    push_head(&mut out, "cell_result");
                    push_u64_field(&mut out, "job", *job);
                    push_str_field(&mut out, "policy", policy);
                    push_str_field(&mut out, "workload", workload);
                    push_u64_field(&mut out, "seed", *seed);
                    push_u64_field(&mut out, "ws_bits", *ws_bits);
                    push_u64_field(&mut out, "hs_bits", *hs_bits);
                    push_u64_field(&mut out, "ms_bits", *ms_bits);
                    push_u64_field(&mut out, "resumed", u64::from(*resumed));
                }
                Event::CellFailure { job, line } => {
                    push_head(&mut out, "cell_failure");
                    push_u64_field(&mut out, "job", *job);
                    push_str_field(&mut out, "line", line);
                }
                Event::Telemetry {
                    job,
                    counters,
                    gauge_bits,
                } => {
                    push_head(&mut out, "telemetry");
                    push_u64_field(&mut out, "job", *job);
                    push_pairs_field(&mut out, "counters", counters);
                    push_pairs_field(&mut out, "gauge_bits", gauge_bits);
                }
                Event::SoakRound {
                    job,
                    round,
                    detected,
                    classes,
                } => {
                    push_head(&mut out, "soak_round");
                    push_u64_field(&mut out, "job", *job);
                    push_u64_field(&mut out, "round", u64::from(*round));
                    push_u64_field(&mut out, "detected", u64::from(*detected));
                    push_u64_field(&mut out, "classes", u64::from(*classes));
                }
                Event::JobDone { job, state, detail } => {
                    push_head(&mut out, "job_done");
                    push_u64_field(&mut out, "job", *job);
                    push_str_field(&mut out, "state", state.as_str());
                    push_str_field(&mut out, "detail", detail);
                }
            },
        }
        out.push('}');
        out
    }

    /// Decodes a frame payload into a response.
    pub fn decode(text: &str) -> Result<Self, ProtoError> {
        let v = json::parse(text).ok_or_else(|| err("unparsable response"))?;
        check_version(&v)?;
        let ty = v
            .field("type")
            .and_then(Value::as_str)
            .ok_or_else(|| err("response missing type"))?;
        Ok(match ty {
            "submitted" => Response::Submitted {
                id: need_u64(&v, "id")?,
            },
            "queue_full" => Response::QueueFull {
                capacity: need_u64(&v, "capacity")?,
            },
            "status" => Response::Status {
                jobs: v
                    .field("jobs")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| err("status missing jobs"))?
                    .iter()
                    .map(|j| {
                        let progress = match j.field("progress") {
                            Some(p) => Some(JobProgress {
                                total: need_u64(p, "total")?,
                                done: need_u64(p, "done")?,
                                failed: need_u64(p, "failed")?,
                                resumed: need_u64(p, "resumed")?,
                            }),
                            None => None,
                        };
                        Ok(JobStatusInfo {
                            id: need_u64(j, "id")?,
                            priority: u8::try_from(need_u64(j, "priority")?)
                                .map_err(|_| err("priority out of range"))?,
                            state: JobState::from_str(need_str(j, "state")?)?,
                            detail: need_str(j, "detail")?.to_string(),
                            progress,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?,
                server: match v.field("server") {
                    Some(s) => Some(ServerInfo {
                        version: need_str(s, "version")?.to_string(),
                        pid: need_u64(s, "pid")?,
                        uptime_ms: need_u64(s, "uptime_ms")?,
                        socket: need_str(s, "socket")?.to_string(),
                        queue_capacity: need_u64(s, "queue_capacity")?,
                        queue_depth: need_u64(s, "queue_depth")?,
                        workers: need_u64(s, "workers")?,
                        workers_busy: need_u64(s, "workers_busy")?,
                        draining: need_u64(s, "draining")? != 0,
                    }),
                    None => None,
                },
            },
            "cancelled" => Response::Cancelled {
                id: need_u64(&v, "id")?,
                found: need_u64(&v, "found")? != 0,
            },
            "draining" => Response::Draining,
            "error" => Response::Error {
                message: need_str(&v, "message")?.to_string(),
            },
            "metrics" => Response::Metrics {
                text: need_str(&v, "text")?.to_string(),
            },
            "cell_result" => Response::Event(Event::CellResult {
                job: need_u64(&v, "job")?,
                policy: need_str(&v, "policy")?.to_string(),
                workload: need_str(&v, "workload")?.to_string(),
                seed: need_u64(&v, "seed")?,
                ws_bits: need_u64(&v, "ws_bits")?,
                hs_bits: need_u64(&v, "hs_bits")?,
                ms_bits: need_u64(&v, "ms_bits")?,
                resumed: need_u64(&v, "resumed")? != 0,
            }),
            "cell_failure" => Response::Event(Event::CellFailure {
                job: need_u64(&v, "job")?,
                line: need_str(&v, "line")?.to_string(),
            }),
            "telemetry" => Response::Event(Event::Telemetry {
                job: need_u64(&v, "job")?,
                counters: need_pairs(&v, "counters")?,
                gauge_bits: need_pairs(&v, "gauge_bits")?,
            }),
            "soak_round" => Response::Event(Event::SoakRound {
                job: need_u64(&v, "job")?,
                round: need_u32(&v, "round")?,
                detected: need_u32(&v, "detected")?,
                classes: need_u32(&v, "classes")?,
            }),
            "job_done" => Response::Event(Event::JobDone {
                job: need_u64(&v, "job")?,
                state: JobState::from_str(need_str(&v, "state")?)?,
                detail: need_str(&v, "detail")?.to_string(),
            }),
            other => return Err(err(format!("unknown response type `{other}`"))),
        })
    }
}

fn check_version(v: &Value) -> Result<(), ProtoError> {
    match v.field("v").and_then(Value::as_u64) {
        Some(PROTO_VERSION) => Ok(()),
        Some(other) => Err(err(format!(
            "protocol version {other} (this build speaks {PROTO_VERSION})"
        ))),
        None => Err(err("message missing protocol version")),
    }
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ProtoError> {
    v.field(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| err(format!("missing integer field `{key}`")))
}

fn need_u32(v: &Value, key: &str) -> Result<u32, ProtoError> {
    u32::try_from(need_u64(v, key)?).map_err(|_| err(format!("field `{key}` out of range")))
}

fn need_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, ProtoError> {
    v.field(key)
        .and_then(Value::as_str)
        .ok_or_else(|| err(format!("missing string field `{key}`")))
}

fn need_pairs(v: &Value, key: &str) -> Result<Vec<(String, u64)>, ProtoError> {
    v.field(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| err(format!("missing array field `{key}`")))?
        .iter()
        .map(|pair| {
            let items = pair.as_arr().filter(|a| a.len() == 2);
            match items {
                Some([name, value]) => Ok((
                    name.as_str()
                        .ok_or_else(|| err("pair name must be a string"))?
                        .to_string(),
                    value
                        .as_u64()
                        .ok_or_else(|| err("pair value must be an integer"))?,
                )),
                _ => Err(err("pairs must be [name, value] arrays")),
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_sweep_spec() -> JobSpec {
        JobSpec {
            priority: 1,
            deadline_ms: Some(30_000),
            max_attempts: 3,
            kind: JobKind::Sweep(SweepSpec {
                policies: vec!["fr-fcfs".into(), "tcm".into()],
                workloads: vec![
                    WorkloadRef::Named("B".into()),
                    WorkloadRef::Random {
                        seed: 7,
                        threads: 4,
                        intensity_bits: 0.75f64.to_bits(),
                    },
                ],
                seeds: vec![0, 3],
                horizon: 200_000,
                topology: Some("2x2".into()),
                telemetry: true,
            }),
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::SubmitJob(sample_sweep_spec()),
            Request::SubmitJob(JobSpec {
                priority: 0,
                deadline_ms: None,
                max_attempts: 1,
                kind: JobKind::ChaosSoak(SoakSpec {
                    seed: 42,
                    rounds: 5,
                    horizon: 100_000,
                }),
            }),
            Request::JobStatus { id: None },
            Request::JobStatus { id: Some(9) },
            Request::CancelJob { id: 3 },
            Request::Watch { id: 3 },
            Request::Drain,
            Request::Metrics,
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip_bit_identically() {
        let ws = 3.837_261_092_f64;
        let responses = [
            Response::Submitted { id: 12 },
            Response::QueueFull { capacity: 64 },
            Response::Status {
                jobs: vec![
                    JobStatusInfo {
                        id: 1,
                        priority: 2,
                        state: JobState::Running,
                        detail: "3/10 cells, 1 failure:\ncell-failure policy=\"TCM\" …".into(),
                        progress: Some(JobProgress {
                            total: 10,
                            done: 3,
                            failed: 1,
                            resumed: 2,
                        }),
                    },
                    JobStatusInfo {
                        id: 2,
                        priority: 0,
                        state: JobState::Queued,
                        detail: "queued".into(),
                        progress: None,
                    },
                ],
                server: Some(ServerInfo {
                    version: "0.1.0".into(),
                    pid: 4242,
                    uptime_ms: 123_456,
                    socket: "/tmp/tcm \"serve\".sock".into(),
                    queue_capacity: 64,
                    queue_depth: 1,
                    workers: 4,
                    workers_busy: 2,
                    draining: false,
                }),
            },
            Response::Status { jobs: vec![], server: None },
            Response::Cancelled { id: 4, found: true },
            Response::Draining,
            Response::Error {
                message: "unknown policy `foo`".into(),
            },
            Response::Metrics {
                text: "# TYPE tcm_serve_queue_depth gauge\ntcm_serve_queue_depth 3\n".into(),
            },
            Response::Event(Event::CellResult {
                job: 1,
                policy: "TCM".into(),
                workload: "B".into(),
                seed: 0,
                ws_bits: ws.to_bits(),
                hs_bits: (0.42f64).to_bits(),
                ms_bits: f64::NAN.to_bits(),
                resumed: true,
            }),
            Response::Event(Event::CellFailure {
                job: 1,
                line: "cell-failure policy=\"TCM\" workload=\"B\" seed=0 kind=timeout \
                       attempt=2 max_attempts=2 elapsed_ms=450 detail=\"…\""
                    .into(),
            }),
            Response::Event(Event::Telemetry {
                job: 1,
                counters: vec![("requests_total".into(), 9912)],
                gauge_bits: vec![("bw_share".into(), 0.31f64.to_bits())],
            }),
            Response::Event(Event::SoakRound {
                job: 2,
                round: 3,
                detected: 8,
                classes: 8,
            }),
            Response::Event(Event::JobDone {
                job: 1,
                state: JobState::Done,
                detail: "20/20 cells".into(),
            }),
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
        // NaN metric bits survive exactly (the PartialEq above compares
        // bit patterns, not float values).
        let encoded = Response::Event(Event::CellResult {
            job: 0,
            policy: "p".into(),
            workload: "w".into(),
            seed: 0,
            ws_bits: f64::NAN.to_bits(),
            hs_bits: 0,
            ms_bits: 0,
            resumed: false,
        })
        .encode();
        match Response::decode(&encoded).unwrap() {
            Response::Event(Event::CellResult { ws_bits, .. }) => {
                assert!(f64::from_bits(ws_bits).is_nan());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn optional_status_fields_stay_within_tcmp1() {
        // A pre-observability daemon's Status carries neither progress
        // nor a server block; it must still decode.
        let old = "{\"v\":1,\"type\":\"status\",\"jobs\":[{\"id\":1,\"priority\":0,\
                   \"state\":\"queued\",\"detail\":\"queued\"}]}";
        match Response::decode(old).unwrap() {
            Response::Status { jobs, server } => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].progress, None);
                assert_eq!(server, None);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let frame = Request::Drain.encode().replace("\"v\":1", "\"v\":99");
        let e = Request::decode(&frame).unwrap_err();
        assert!(e.0.contains("version 99"), "{e}");
        assert!(Request::decode("{\"type\":\"drain\"}").is_err(), "missing v");
        assert!(Request::decode("{\"v\":1,\"type\":\"launch_missiles\"}").is_err());
    }
}
