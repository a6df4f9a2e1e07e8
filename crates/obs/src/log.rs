//! `zatel-log-v1`: a structured JSONL event log.
//!
//! One event per line, each a self-describing JSON object:
//!
//! ```json
//! {"schema":"zatel-log-v1","ts_ms":1754650000000,"level":"info","event":"request","request_id":"req-...","route":"/v1/predict","status":200}
//! ```
//!
//! The fixed envelope is `schema`, `ts_ms` (Unix milliseconds), `level`
//! and `event`; everything else is event-specific fields supplied by the
//! caller, preserved in insertion order so repeated runs produce stably
//! shaped lines. Built on `minijson` — no new dependencies — and safe to
//! share across threads (`zatel serve` hands one [`Logger`] to every
//! worker).
//!
//! Log timestamps are host wall-clock and therefore live only here: a
//! logger is never threaded into result-affecting code, which is part of
//! the "what is allowed to see a wall clock" rule (DESIGN.md) that
//! `clippy::disallowed_methods` and the crate graph enforce.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use minijson::{Map, Value};

/// Schema identifier stamped on every line.
pub const LOG_SCHEMA: &str = "zatel-log-v1";

/// Event severity, written as the line's `level` field. Every level is
/// written: the log has no minimum level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogLevel {
    /// Normal operational events.
    Info,
    /// Degraded but recoverable situations.
    Warn,
    /// Failures.
    Error,
}

impl LogLevel {
    /// The lowercase wire name of the level.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A thread-safe JSONL event sink.
pub struct Logger {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for Logger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Logger").finish_non_exhaustive()
    }
}

impl Logger {
    /// A logger writing to standard error.
    pub(crate) fn to_stderr() -> Logger {
        Logger::to_writer(Box::new(io::stderr()))
    }

    /// A logger appending to the file at `path` (created if absent).
    pub(crate) fn to_file(path: &str) -> io::Result<Logger> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Logger::to_writer(Box::new(file)))
    }

    /// A logger over an arbitrary sink (tests, in-memory capture).
    pub(crate) fn to_writer(sink: Box<dyn Write + Send>) -> Logger {
        Logger {
            sink: Mutex::new(sink),
        }
    }

    /// Resolves a `--log-out` style destination: `None`, `"-"` or
    /// `"stderr"` mean standard error, anything else is a file path.
    pub fn for_destination(dest: Option<&str>) -> io::Result<Logger> {
        match dest {
            None | Some("-") | Some("stderr") => Ok(Logger::to_stderr()),
            Some(path) => Logger::to_file(path),
        }
    }

    /// Writes one event line: the `zatel-log-v1` envelope followed by
    /// `fields` in their insertion order. Write errors are swallowed
    /// (logging must never take the service down).
    pub fn log(&self, level: LogLevel, event: &str, fields: Map) {
        self.log_line(&event_line(level, event, fields));
    }

    /// Writes an already-built event line (see [`event_line`]), letting
    /// callers retain the exact line they emitted — `zatel serve` stores
    /// it in the `/v1/debug/slow` ring. Same error-swallowing as
    /// [`Logger::log`].
    pub fn log_line(&self, line: &Value) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }
}

/// Builds the JSON object for one event line (exposed so callers can
/// retain the exact line they emitted, e.g. for the serve debug ring).
pub fn event_line(level: LogLevel, event: &str, fields: Map) -> Value {
    let mut m = Map::new();
    m.insert("schema".into(), Value::from(LOG_SCHEMA));
    m.insert("ts_ms".into(), Value::from(now_ms()));
    m.insert("level".into(), Value::from(level.as_str()));
    m.insert("event".into(), Value::from(event));
    for (k, v) in fields.iter() {
        m.insert(k.clone(), v.clone());
    }
    Value::Object(m)
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub(crate) fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Generates a process-unique request ID: a wall-clock microsecond stamp
/// plus a monotone counter, e.g. `req-063d8f2a9c1b40-0003`. Used when a
/// caller did not supply `x-zatel-request-id`.
pub fn request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    format!("req-{ts:014x}-{n:04x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write sink capturing into shared memory.
    #[derive(Clone, Default)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn levels_render_their_wire_names() {
        for (level, name) in [
            (LogLevel::Info, "info"),
            (LogLevel::Warn, "warn"),
            (LogLevel::Error, "error"),
        ] {
            assert_eq!(level.as_str(), name);
            assert_eq!(level.to_string(), name);
        }
    }

    #[test]
    fn lines_are_parseable_json_with_the_envelope_first() {
        let sink = Capture::default();
        let logger = Logger::to_writer(Box::new(sink.clone()));
        let mut fields = Map::new();
        fields.insert("request_id".into(), Value::from("req-1"));
        fields.insert("status".into(), Value::from(200u64));
        logger.log(LogLevel::Info, "request", fields);
        let text = sink.text();
        assert_eq!(text.lines().count(), 1);
        let parsed = Value::parse(text.trim()).expect("line is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some(LOG_SCHEMA)
        );
        assert_eq!(parsed.get("level").and_then(Value::as_str), Some("info"));
        assert_eq!(parsed.get("event").and_then(Value::as_str), Some("request"));
        assert_eq!(
            parsed.get("request_id").and_then(Value::as_str),
            Some("req-1")
        );
        assert_eq!(parsed.get("status").and_then(Value::as_u64), Some(200));
        assert!(parsed.get("ts_ms").and_then(Value::as_u64).is_some());
    }

    #[test]
    fn every_level_is_written() {
        let sink = Capture::default();
        let logger = Logger::to_writer(Box::new(sink.clone()));
        for level in [LogLevel::Info, LogLevel::Warn, LogLevel::Error] {
            logger.log(level, "event", Map::new());
        }
        let text = sink.text();
        let levels: Vec<Value> = text
            .lines()
            .map(|l| Value::parse(l).unwrap().get("level").unwrap().clone())
            .collect();
        assert_eq!(levels, ["info", "warn", "error"].map(Value::from));
    }

    #[test]
    fn request_ids_are_unique_and_prefixed() {
        let a = request_id();
        let b = request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("req-"), "{a}");
    }

    #[test]
    fn destination_resolution() {
        assert!(Logger::for_destination(None).is_ok());
        assert!(Logger::for_destination(Some("-")).is_ok());
        assert!(Logger::for_destination(Some("stderr")).is_ok());
        let dir = std::env::temp_dir().join("zatel-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let logger = Logger::for_destination(Some(path.to_str().unwrap())).unwrap();
        logger.log(LogLevel::Info, "hello", Map::new());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"hello\""));
        std::fs::remove_file(&path).ok();
    }
}
