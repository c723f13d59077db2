//! Crash-consistent files: every fsync the workspace makes is here.
//!
//! A file survives a crash (a killed process, lost power) in one of two
//! shapes. [`write_durable`] publishes it whole: stored alone baselines
//! and the daemon's result and scrape files. An [`AppendLog`] grows it
//! in place, one fsynced line per record after an optional header: the
//! daemon's WAL and sweep checkpoints.
//!
//! **The torn-tail rule.** A crash mid-append leaves at most a torn
//! last line. On open, an append log keeps the longest prefix of whole
//! lines its parser accepts, stopping at the first line that lacks its
//! newline, is not UTF-8 or is rejected, and cuts the file back to that
//! prefix: a record appended after a torn fragment would join it and be
//! lost at the next open.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` crash-consistently: a `<path>.tmp`
/// sibling, fsync, atomic rename over `path`, fsync of the parent
/// directory.
pub fn write_durable(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    // Fsync the temp file *before* the rename (so the rename can never
    // install a file whose data is still in the page cache) and the
    // parent directory *after* it (so the rename itself — a directory
    // mutation — is durable). Without both, power loss or SIGKILL in
    // the window between write and rename can surface a stale or torn
    // file on restart.
    {
        let mut file = File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent(path)
}

fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// What an [`AppendLog`] handle appended, and what its open cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Records appended (and fsynced) through this handle.
    pub records: u64,
    /// Bytes appended through this handle, newlines included.
    pub bytes: u64,
    /// Torn-tail bytes cut off when the log was opened.
    pub truncated_bytes: u64,
}

/// A line log grown in place, one fsynced record per line, read back
/// under the torn-tail rule (see the module docs).
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    stats: LogStats,
}

impl AppendLog {
    /// Opens the log at `path` with the records of its durable prefix,
    /// in file order (see the torn-tail rule). A missing file is created
    /// holding only the `header` line, fsynced along with its directory.
    ///
    /// # Errors
    ///
    /// I/O errors, and [`io::ErrorKind::InvalidData`] when an existing
    /// file does not start with the `header` line.
    pub fn open<T>(
        path: &Path,
        header: Option<&str>,
        mut parse: impl FnMut(&str) -> Option<T>,
    ) -> io::Result<(Self, Vec<T>)> {
        let header = header.map_or(String::new(), |h| format!("{h}\n"));
        let mut records = Vec::new();
        let mut truncated_bytes = 0;
        match fs::read(path) {
            Ok(bytes) => {
                if !bytes.starts_with(header.as_bytes()) {
                    let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
                    let first = &first[..first.len().min(80)];
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}: first line `{}` is not the header `{}`",
                            path.display(),
                            String::from_utf8_lossy(first),
                            header.trim_end()
                        ),
                    ));
                }
                let mut durable = header.len();
                for line in bytes[durable..].split_inclusive(|&b| b == b'\n') {
                    let Some(record) = line
                        .strip_suffix(b"\n")
                        .and_then(|line| std::str::from_utf8(line).ok())
                        .and_then(&mut parse)
                    else {
                        break;
                    };
                    records.push(record);
                    durable += line.len();
                }
                if durable < bytes.len() {
                    truncated_bytes = (bytes.len() - durable) as u64;
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(durable as u64)?;
                    file.sync_all()?;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let mut file = File::create(path)?;
                file.write_all(header.as_bytes())?;
                file.sync_all()?;
                sync_parent(path)?;
            }
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().append(true).open(path)?;
        let stats = LogStats {
            truncated_bytes,
            ..LogStats::default()
        };
        Ok((Self { file, stats }, records))
    }

    /// Appends `record` (one line, without its newline) and fsyncs its
    /// data before returning.
    pub fn append(&mut self, record: &str) -> io::Result<()> {
        debug_assert!(!record.contains('\n'), "a record is one line");
        let line = format!("{record}\n");
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.stats.records += 1;
        self.stats.bytes += line.len() as u64;
        Ok(())
    }

    /// This handle's counters (see [`LogStats`]).
    pub fn stats(&self) -> LogStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tcm-durable-{name}-{}.log", std::process::id()))
    }

    fn number(line: &str) -> Option<u64> {
        line.parse().ok()
    }

    #[test]
    fn a_missing_log_is_created_with_its_header_and_appends_survive_reopening() {
        let path = scratch("create");
        let _ = fs::remove_file(&path);
        let (mut log, records) = AppendLog::open(&path, Some("v1"), number).unwrap();
        assert!(records.is_empty());
        assert_eq!(fs::read_to_string(&path).unwrap(), "v1\n");
        log.append("7").unwrap();
        log.append("8").unwrap();
        assert_eq!(
            log.stats(),
            LogStats {
                records: 2,
                bytes: 4,
                truncated_bytes: 0
            }
        );
        let (log, records) = AppendLog::open(&path, Some("v1"), number).unwrap();
        assert_eq!(records, [7, 8]);
        assert_eq!(log.stats(), LogStats::default(), "appends count per handle");
        assert!(
            AppendLog::open(&path, Some("v2"), number).is_err(),
            "wrong header is loud"
        );
        fs::write(&path, "v1").unwrap();
        assert!(
            AppendLog::open(&path, Some("v1"), number).is_err(),
            "torn header is loud"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_first_rejected_or_unterminated_line_and_everything_after_it_are_cut() {
        let path = scratch("cut");
        for (text, kept, prefix) in [
            (&b"1\n2\nx\n3\n"[..], vec![1, 2], "1\n2\n"),
            (b"1\n2", vec![1], "1\n"),
            (b"1\n\xff\n2\n", vec![1], "1\n"),
            (b"", vec![], ""),
        ] {
            fs::write(&path, text).unwrap();
            let (mut log, records) = AppendLog::open(&path, None, number).unwrap();
            assert_eq!(records, kept, "{:?}", String::from_utf8_lossy(text));
            assert_eq!(
                log.stats().truncated_bytes,
                (text.len() - prefix.len()) as u64
            );
            assert_eq!(fs::read_to_string(&path).unwrap(), prefix);
            log.append("9").unwrap();
            let (_, again) = AppendLog::open(&path, None, number).unwrap();
            assert_eq!(again, [kept, vec![9]].concat(), "the append survives");
        }
        fs::remove_file(&path).unwrap();
    }
}
