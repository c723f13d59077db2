//! The daemon's write-ahead job log (schema `tcm-serve-wal-v1`).
//!
//! An append-only JSONL file in the state directory. The first line
//! names the schema; each further line is one operation:
//!
//! ```text
//! {"op":"submit","id":3,"seq":7,"spec":{…}}   job admitted (spec embedded)
//! {"op":"start","id":3}                        a worker picked it up
//! {"op":"finish","id":3,"state":"done"}        terminal: done | failed
//! {"op":"cancel","id":3}                       terminal: cancelled
//! ```
//!
//! Every append is fsynced **before** the daemon acknowledges the
//! action to a client, so an admitted job survives SIGKILL. Recovery
//! ([`Wal::open`]) folds the log into one [`ReplayedJob`] per id; jobs
//! without a terminal record — queued *or* in-flight at the crash — are
//! re-admitted in their original `(priority, seq)` order, and a
//! re-admitted sweep job resumes from its per-job cell checkpoint, so
//! only the cells that were mid-flight re-run (bit-identically).
//!
//! The log is a [`tcm_sim::durable::AppendLog`] headed by the schema
//! line, so it shares the workspace's one torn-tail rule: replay stops
//! at the first unparsable (or unterminated) line, and the file is cut
//! back to the durable prefix before anything is appended. A mismatched
//! schema is a loud error — a WAL can never be silently misread as a
//! different format.

use std::io;
use std::path::PathBuf;
use tcm_proto::{JobSpec, JobState};
use tcm_sim::durable::{AppendLog, LogStats};
use tcm_types::json::{self, Value};

/// Schema tag on the WAL's first line.
pub const WAL_SCHEMA: &str = "tcm-serve-wal-v1";

/// One job's folded history after replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedJob {
    /// Job id (stable across restarts).
    pub id: u64,
    /// Queue sequence number from first admission.
    pub seq: u64,
    /// The embedded job spec.
    pub spec: JobSpec,
    /// Whether a worker had started it before the crash.
    pub started: bool,
    /// Terminal state, when the job finished or was cancelled.
    pub terminal: Option<JobState>,
}

/// Append handle over the WAL file.
#[derive(Debug)]
pub struct Wal {
    log: AppendLog,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, returning the handle plus
    /// every replayed job in first-admission order.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Self, Vec<ReplayedJob>)> {
        let header = format!("{{\"schema\":\"{WAL_SCHEMA}\"}}");
        let (log, ops) = AppendLog::open(&path.into(), Some(&header), parse_op)?;
        let mut jobs: Vec<ReplayedJob> = Vec::new();
        for op in ops {
            let (id, started, terminal) = match op {
                Op::Submit { id, seq, spec } => {
                    jobs.push(ReplayedJob {
                        id,
                        seq,
                        spec,
                        started: false,
                        terminal: None,
                    });
                    continue;
                }
                Op::Start(id) => (id, true, None),
                Op::Finish(id, state) => (id, false, Some(state)),
                Op::Cancel(id) => (id, false, Some(JobState::Cancelled)),
            };
            if let Some(job) = jobs.iter_mut().find(|j| j.id == id) {
                job.started |= started;
                job.terminal = terminal.or(job.terminal);
            }
        }
        Ok((Self { log }, jobs))
    }

    /// Records an admission; durable before the caller acknowledges it.
    pub fn submit(&mut self, id: u64, seq: u64, spec: &JobSpec) -> io::Result<()> {
        let mut line = format!("{{\"op\":\"submit\",\"id\":{id},\"seq\":{seq},\"spec\":");
        spec.encode_body(&mut line);
        line.push('}');
        self.log.append(&line)
    }

    /// Records that a worker started the job.
    pub fn start(&mut self, id: u64) -> io::Result<()> {
        self.log
            .append(&format!("{{\"op\":\"start\",\"id\":{id}}}"))
    }

    /// Records a terminal state (`Done` or `Failed`).
    pub fn finish(&mut self, id: u64, state: JobState) -> io::Result<()> {
        self.log.append(&format!(
            "{{\"op\":\"finish\",\"id\":{id},\"state\":\"{}\"}}",
            state.as_str()
        ))
    }

    /// Records a cancellation (terminal).
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        self.log
            .append(&format!("{{\"op\":\"cancel\",\"id\":{id}}}"))
    }

    /// What this handle appended, and what its open cut off.
    pub fn stats(&self) -> LogStats {
        self.log.stats()
    }
}

/// One WAL line, parsed (see the module docs for the op grammar).
#[doc(hidden)]
#[derive(Debug)]
pub enum Op {
    /// `submit`: a job admitted with its queue sequence number.
    Submit { id: u64, seq: u64, spec: JobSpec },
    /// `start`: a worker picked the job up.
    Start(u64),
    /// `finish`: the job ended `Done` or `Failed`.
    Finish(u64, JobState),
    /// `cancel`: the job was cancelled.
    Cancel(u64),
}

/// Parses one WAL op line; `None` for anything replay must stop at.
#[doc(hidden)]
pub fn parse_op(line: &str) -> Option<Op> {
    let v = json::parse(line)?;
    let id = v.field("id").and_then(Value::as_u64)?;
    Some(match v.field("op").and_then(Value::as_str)? {
        "submit" => Op::Submit {
            id,
            seq: v.field("seq").and_then(Value::as_u64)?,
            spec: JobSpec::from_value(v.field("spec")?).ok()?,
        },
        "start" => Op::Start(id),
        "finish" => match v.field("state").and_then(Value::as_str)? {
            "done" => Op::Finish(id, JobState::Done),
            "failed" => Op::Finish(id, JobState::Failed),
            _ => return None,
        },
        "cancel" => Op::Cancel(id),
        _ => return None,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::fs;
    use tcm_proto::{JobKind, SoakSpec};

    fn spec() -> JobSpec {
        JobSpec {
            priority: 1,
            deadline_ms: None,
            max_attempts: 2,
            kind: JobKind::ChaosSoak(SoakSpec {
                seed: 9,
                rounds: 1,
                horizon: 10_000,
            }),
        }
    }

    fn temp_wal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tcm-wal-test-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn replay_readmits_unfinished_jobs_in_order() {
        let path = temp_wal("order");
        let _ = fs::remove_file(&path);
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(wal.stats(), LogStats::default());
            wal.submit(1, 0, &spec()).unwrap();
            wal.submit(2, 1, &spec()).unwrap();
            wal.submit(3, 2, &spec()).unwrap();
            wal.start(1).unwrap();
            wal.finish(1, JobState::Done).unwrap();
            wal.start(2).unwrap(); // in-flight at the "crash"
            wal.cancel(3).unwrap();
            assert_eq!(wal.stats().records, 7);
            assert!(wal.stats().bytes > 0);
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(wal.stats().records, 0, "appends count per handle");
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].terminal, Some(JobState::Done));
        assert_eq!(replayed[1].terminal, None, "in-flight job re-admits");
        assert!(replayed[1].started);
        assert_eq!(replayed[2].terminal, Some(JobState::Cancelled));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_but_wrong_schema_is_loud() {
        let path = temp_wal("torn");
        let _ = fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.submit(1, 0, &spec()).unwrap();
        }
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"op\":\"sub"); // torn mid-append
        fs::write(&path, &text).unwrap();
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 1, "torn tail dropped, prefix kept");
            assert_eq!(wal.stats().truncated_bytes, "{\"op\":\"sub".len() as u64);
            // Appends after a torn-tail recovery must survive the *next*
            // restart: the torn fragment is truncated, not appended onto.
            wal.submit(2, 1, &spec()).unwrap();
            wal.finish(1, JobState::Done).unwrap();
        }
        let (_wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2, "post-recovery appends replay");
        assert_eq!(replayed[0].terminal, Some(JobState::Done));
        assert_eq!(replayed[1].terminal, None);

        fs::write(&path, "{\"schema\":\"something-else\"}\n").unwrap();
        assert!(Wal::open(&path).is_err());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_final_line_is_truncated_not_replayed() {
        let path = temp_wal("unterm");
        let _ = fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.submit(1, 0, &spec()).unwrap();
        }
        // A parsable line missing its newline (crash between the record
        // write and the newline write) was never acknowledged — it must
        // be dropped, or the next append would corrupt it anyway.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"op\":\"cancel\",\"id\":1}");
        fs::write(&path, &text).unwrap();
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 1);
            assert_eq!(replayed[0].terminal, None, "unterminated cancel dropped");
            wal.start(1).unwrap();
        }
        let (_wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(replayed[0].started);
        fs::remove_file(&path).unwrap();
    }
}
