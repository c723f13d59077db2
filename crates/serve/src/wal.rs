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
//! Loading tolerates a torn tail (a crash mid-append): replay stops at
//! the first unparsable (or unterminated) line and the file is
//! truncated back to the durable prefix before it is reopened for
//! append — otherwise the next record would concatenate onto the torn
//! fragment and everything written after recovery would be lost on the
//! *following* restart. A mismatched schema is a loud error — a WAL can
//! never be silently misread as a different format.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use tcm_proto::{JobSpec, JobState};
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

/// Durability counters the daemon exposes for scraping: what this
/// handle appended this lifetime and what [`Wal::open`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Op records appended (and fsynced) through this handle.
    pub appended_records: u64,
    /// Bytes appended through this handle (records plus newlines).
    pub appended_bytes: u64,
    /// Jobs folded out of the log at open.
    pub replayed_jobs: u64,
    /// Torn-tail bytes truncated back to the durable prefix at open.
    pub truncated_bytes: u64,
}

/// Append handle over the WAL file.
#[derive(Debug)]
pub struct Wal {
    file: fs::File,
    path: PathBuf,
    stats: WalStats,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, returning the handle plus
    /// every replayed job in first-admission order.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Self, Vec<ReplayedJob>)> {
        let path = path.into();
        let mut truncated_bytes = 0;
        let jobs = match fs::read_to_string(&path) {
            Ok(text) => {
                let (jobs, durable_len) = replay(&text)?;
                // Truncate a torn tail before reopening for append:
                // appending after an unterminated fragment would corrupt
                // the first post-recovery record, silently losing every
                // fsynced op after it on the next replay.
                if durable_len < text.len() as u64 {
                    truncated_bytes = text.len() as u64 - durable_len;
                    let file = fs::OpenOptions::new().write(true).open(&path)?;
                    file.set_len(durable_len)?;
                    file.sync_all()?;
                }
                jobs
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let mut file = fs::File::create(&path)?;
                writeln!(file, "{{\"schema\":\"{WAL_SCHEMA}\"}}")?;
                file.sync_all()?;
                sync_parent(&path)?;
                Vec::new()
            }
            Err(e) => return Err(e),
        };
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        let stats = WalStats {
            replayed_jobs: jobs.len() as u64,
            truncated_bytes,
            ..WalStats::default()
        };
        Ok((Self { file, path, stats }, jobs))
    }

    /// Records an admission; durable before the caller acknowledges it.
    pub fn submit(&mut self, id: u64, seq: u64, spec: &JobSpec) -> io::Result<()> {
        let mut line = format!("{{\"op\":\"submit\",\"id\":{id},\"seq\":{seq},\"spec\":");
        spec.encode_body(&mut line);
        line.push('}');
        self.append(&line)
    }

    /// Records that a worker started the job.
    pub fn start(&mut self, id: u64) -> io::Result<()> {
        self.append(&format!("{{\"op\":\"start\",\"id\":{id}}}"))
    }

    /// Records a terminal state (`Done` or `Failed`).
    pub fn finish(&mut self, id: u64, state: JobState) -> io::Result<()> {
        self.append(&format!(
            "{{\"op\":\"finish\",\"id\":{id},\"state\":\"{}\"}}",
            state.as_str()
        ))
    }

    /// Records a cancellation (terminal).
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        self.append(&format!("{{\"op\":\"cancel\",\"id\":{id}}}"))
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durability counters for this handle (see [`WalStats`]).
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    fn append(&mut self, line: &str) -> io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        self.stats.appended_records += 1;
        self.stats.appended_bytes += line.len() as u64 + 1;
        Ok(())
    }
}

fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Folds WAL text into per-job histories (see module docs), returning
/// the jobs plus the byte length of the durable prefix: the header and
/// every fully parsed, newline-terminated op line. Bytes past that
/// prefix are a torn tail from a crash mid-append (an unterminated line
/// was never fsync-acknowledged) and must be truncated before the file
/// is reopened for append.
fn replay(text: &str) -> io::Result<(Vec<ReplayedJob>, u64)> {
    let Some(header_end) = text.find('\n').map(|i| i + 1) else {
        return Err(bad("WAL header unterminated"));
    };
    let header =
        json::parse(&text[..header_end - 1]).ok_or_else(|| bad("WAL header unparsable"))?;
    match header.field("schema").and_then(Value::as_str) {
        Some(WAL_SCHEMA) => {}
        Some(other) => return Err(bad(format!("WAL schema `{other}`, expected `{WAL_SCHEMA}`"))),
        None => return Err(bad("WAL header missing schema")),
    }
    let mut jobs: Vec<ReplayedJob> = Vec::new();
    let mut durable = header_end as u64;
    let mut pos = header_end;
    // A torn tail (crash mid-append) ends replay; everything before it
    // was fsynced and is authoritative. `durable` only advances past a
    // line once it has fully parsed *and* carries its newline.
    while let Some(nl) = text[pos..].find('\n') {
        let line = &text[pos..pos + nl];
        pos += nl + 1;
        if line.is_empty() {
            durable = pos as u64;
            continue;
        }
        let Some(v) = json::parse(line) else { break };
        let Some(op) = v.field("op").and_then(Value::as_str) else {
            break;
        };
        let Some(id) = v.field("id").and_then(Value::as_u64) else {
            break;
        };
        match op {
            "submit" => {
                let (Some(seq), Some(spec)) = (
                    v.field("seq").and_then(Value::as_u64),
                    v.field("spec").and_then(|s| JobSpec::from_value(s).ok()),
                ) else {
                    break;
                };
                jobs.push(ReplayedJob {
                    id,
                    seq,
                    spec,
                    started: false,
                    terminal: None,
                });
            }
            "start" => {
                if let Some(job) = jobs.iter_mut().find(|j| j.id == id) {
                    job.started = true;
                }
            }
            "finish" => {
                let state = match v.field("state").and_then(Value::as_str) {
                    Some("done") => JobState::Done,
                    Some("failed") => JobState::Failed,
                    _ => break,
                };
                if let Some(job) = jobs.iter_mut().find(|j| j.id == id) {
                    job.terminal = Some(state);
                }
            }
            "cancel" => {
                if let Some(job) = jobs.iter_mut().find(|j| j.id == id) {
                    job.terminal = Some(JobState::Cancelled);
                }
            }
            _ => break,
        }
        durable = pos as u64;
    }
    Ok((jobs, durable))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
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
            assert_eq!(wal.stats(), WalStats::default());
            wal.submit(1, 0, &spec()).unwrap();
            wal.submit(2, 1, &spec()).unwrap();
            wal.submit(3, 2, &spec()).unwrap();
            wal.start(1).unwrap();
            wal.finish(1, JobState::Done).unwrap();
            wal.start(2).unwrap(); // in-flight at the "crash"
            wal.cancel(3).unwrap();
            assert_eq!(wal.stats().appended_records, 7);
            assert!(wal.stats().appended_bytes > 0);
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(wal.stats().replayed_jobs, 3);
        assert_eq!(wal.stats().appended_records, 0, "appends count per handle");
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
