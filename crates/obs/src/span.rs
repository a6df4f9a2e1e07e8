//! Lightweight wall-clock spans — a `span!`-style guard API with no
//! external dependencies.
//!
//! A [`SpanSheet`] is opened at the start of a run; every phase of work
//! records a [`SpanRecord`] on it, either through the RAII [`SpanGuard`]
//! (drop closes the span) or directly via [`SpanSheet::record`] when the
//! timing was measured elsewhere (e.g. by the job executor). The sheet is
//! internally synchronized, so spans may be recorded from worker threads.
//!
//! Spans measure *host* wall-clock time — they describe how long the
//! pipeline took to run, not simulated time. Simulated-time events belong
//! on the [Perfetto timeline](crate::perfetto) instead.
//!
//! ```
//! use obs::span::SpanSheet;
//!
//! let sheet = SpanSheet::new();
//! {
//!     let _guard = sheet.span("heatmap");
//!     // ... profile the heatmap ...
//! } // guard drop closes the span
//! let spans = sheet.snapshot();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "heatmap");
//! ```

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span: a named stretch of wall-clock time on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (pipeline phase or job label).
    pub name: String,
    /// Track the span ran on (0 = the pipeline itself; executor jobs use
    /// `1 + worker index` so concurrent jobs render on separate lanes).
    pub track: u32,
    /// Start offset from the sheet's epoch, in microseconds.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

minijson::record! {
    SpanRecord {
        "name" => name,
        "track" => track,
        "start_us" => start_us,
        "dur_us" => dur_us,
    }
}

/// A thread-safe collection of spans sharing one epoch.
#[derive(Debug)]
pub struct SpanSheet {
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
}

impl Default for SpanSheet {
    fn default() -> Self {
        SpanSheet::new()
    }
}

impl SpanSheet {
    /// Opens a sheet; its epoch is the moment of creation.
    pub fn new() -> Self {
        SpanSheet {
            epoch: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Wall-clock time elapsed since the sheet's epoch.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Opens a guard span named `name` on track 0; dropping the guard
    /// closes and records the span.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_on(name, 0)
    }

    /// Opens a guard span on an explicit track.
    pub(crate) fn span_on(&self, name: &str, track: u32) -> SpanGuard<'_> {
        SpanGuard {
            sheet: self,
            name: name.to_owned(),
            track,
            start: self.elapsed(),
        }
    }

    /// Records an already-measured span (`start` relative to the sheet's
    /// epoch).
    pub fn record(&self, name: &str, track: u32, start: Duration, dur: Duration) {
        let record = SpanRecord {
            name: name.to_owned(),
            track,
            start_us: start.as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        };
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record);
    }

    /// All spans recorded so far, sorted by start offset then name (a
    /// stable order for reports even when worker threads raced).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut records = self
            .records
            .lock()
            // Poison recovery: a panicking recorder leaves whole records
            // only (push is atomic w.r.t. the guard), so the data is fine.
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        records.sort_by(|a, b| (a.start_us, &a.name, a.track).cmp(&(b.start_us, &b.name, b.track)));
        records
    }
}

/// RAII span handle returned by [`SpanSheet::span`]; records the span on
/// drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sheet: &'a SpanSheet,
    name: String,
    track: u32,
    start: Duration,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = self.sheet.elapsed().saturating_sub(self.start);
        self.sheet.record(&self.name, self.track, self.start, dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_on_drop() {
        let sheet = SpanSheet::new();
        {
            let _a = sheet.span("outer");
            let _b = sheet.span_on("inner", 3);
        }
        let spans = sheet.snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.name == "outer" && s.track == 0));
        assert!(spans.iter().any(|s| s.name == "inner" && s.track == 3));
    }

    #[test]
    fn record_accepts_external_timings() {
        let sheet = SpanSheet::new();
        sheet.record(
            "job",
            2,
            Duration::from_micros(50),
            Duration::from_micros(120),
        );
        let spans = sheet.snapshot();
        assert_eq!(
            spans,
            vec![SpanRecord {
                name: "job".into(),
                track: 2,
                start_us: 50,
                dur_us: 120,
            }]
        );
    }

    #[test]
    fn snapshot_sorts_by_start() {
        let sheet = SpanSheet::new();
        sheet.record("b", 0, Duration::from_micros(30), Duration::ZERO);
        sheet.record("a", 0, Duration::from_micros(10), Duration::ZERO);
        sheet.record("c", 0, Duration::from_micros(10), Duration::ZERO);
        let spans = sheet.snapshot();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "c", "b"], "start offset first, then name");
    }

    #[test]
    fn spans_record_from_threads() {
        let sheet = SpanSheet::new();
        std::thread::scope(|scope| {
            for i in 0..4u32 {
                let sheet = &sheet;
                scope.spawn(move || {
                    let _g = sheet.span_on("worker", i + 1);
                });
            }
        });
        assert_eq!(sheet.snapshot().len(), 4);
    }
}
