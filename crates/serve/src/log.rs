//! Leveled structured logging for the daemon — no dependencies, one
//! line per record, machine-parsable in both output shapes.
//!
//! Text format (the default):
//!
//! ```text
//! ts=1754700000.123 level=info target=server msg="listening" socket=/run/tcm.sock workers=2
//! ```
//!
//! `key=value` fields follow the message; values containing spaces,
//! quotes or `=` are double-quoted with `\\`/`\"`/`\n` escapes, so the
//! line grammar is `field (" " field)*` with unambiguous tokenization.
//! With `--log-json` each record is instead one JSON object per line
//! (`{"ts":…,"level":"…","target":"…","msg":"…",…}`), all values as
//! strings.
//!
//! The logger is process-global (the daemon is the only writer to its
//! stderr) and levels filter at the callsite: records below the
//! configured level never format their fields.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};
use tcm_types::json;

/// Record severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-cell and per-frame detail.
    Debug = 0,
    /// Lifecycle events (startup, job transitions, drain).
    Info = 1,
    /// Recoverable trouble (pruned subscriber, WAL op failure).
    Warn = 2,
    /// Trouble the daemon could not paper over.
    Error = 3,
}

impl Level {
    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a `--log-level` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" => Level::Warn,
            "error" => Level::Error,
            other => {
                return Err(format!(
                    "unknown log level `{other}` (debug|info|warn|error)"
                ))
            }
        })
    }
}

static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static JSON: AtomicBool = AtomicBool::new(false);

/// Configures the process-global logger (idempotent; later wins).
pub fn init(min_level: Level, json: bool) {
    MIN_LEVEL.store(min_level as u8, Ordering::Relaxed);
    JSON.store(json, Ordering::Relaxed);
}

/// Whether a record at `level` would be emitted — callers use this to
/// skip field formatting entirely below the threshold.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 >= MIN_LEVEL.load(Ordering::Relaxed)
}

/// Quotes a text-format value when it contains whitespace, quotes, `=`
/// or is empty; bare tokens pass through verbatim.
fn push_text_value(out: &mut String, value: &str) {
    let bare = !value.is_empty()
        && value
            .chars()
            .all(|c| !c.is_whitespace() && c != '"' && c != '=' && c != '\\');
    if bare {
        out.push_str(value);
        return;
    }
    out.push('"');
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// Emits one record. Prefer the crate's `slog!` macro, which
/// formats fields lazily behind an [`enabled`] check.
pub fn write(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    if !enabled(level) {
        return;
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let mut line = String::with_capacity(96);
    if JSON.load(Ordering::Relaxed) {
        line.push_str(&format!(
            "{{\"ts\":{}.{:03},\"level\":\"{}\",\"target\":",
            ts.as_secs(),
            ts.subsec_millis(),
            level.as_str()
        ));
        json::write_str(&mut line, target);
        line.push_str(",\"msg\":");
        json::write_str(&mut line, msg);
        for (key, value) in fields {
            line.push(',');
            json::write_str(&mut line, key);
            line.push(':');
            json::write_str(&mut line, value);
        }
        line.push('}');
    } else {
        line.push_str(&format!(
            "ts={}.{:03} level={} target={} msg=",
            ts.as_secs(),
            ts.subsec_millis(),
            level.as_str(),
            target
        ));
        push_text_value(&mut line, msg);
        for (key, value) in fields {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            push_text_value(&mut line, value);
        }
    }
    line.push('\n');
    // One write per record keeps concurrent workers' lines whole.
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Emits one structured record: `slog!(Level::Info, "server",
/// "listening"; socket = path.display(), workers = 2)`. Field values
/// take anything `ToString`; they are only formatted when the level is
/// enabled.
macro_rules! slog {
    ($level:expr, $target:expr, $msg:expr $(; $($key:ident = $value:expr),+ $(,)?)?) => {
        if $crate::log::enabled($level) {
            $crate::log::write(
                $level,
                $target,
                &$msg,
                &[$($((stringify!($key), $value.to_string())),+)?],
            );
        }
    };
}
pub(crate) use slog;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::parse("warn"), Ok(Level::Warn));
        assert!(Level::parse("loud").is_err());
        assert_eq!(Level::Error.as_str(), "error");
    }

    #[test]
    fn text_values_quote_only_when_needed() {
        let mut out = String::new();
        push_text_value(&mut out, "plain-token_42");
        assert_eq!(out, "plain-token_42");
        let mut out = String::new();
        push_text_value(&mut out, "two words \"x\"\nnext");
        assert_eq!(out, "\"two words \\\"x\\\"\\nnext\"");
        let mut out = String::new();
        push_text_value(&mut out, "");
        assert_eq!(out, "\"\"");
    }
}
