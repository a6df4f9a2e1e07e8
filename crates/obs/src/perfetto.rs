//! Perfetto / Chrome-trace JSON timeline export.
//!
//! The exporter emits the JSON array flavor of the [Chrome trace event
//! format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
//! which both `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly. Each event is an object with at least `name`, `ph`
//! (phase: `"X"` duration, `"i"` instant, `"M"` metadata), `ts`
//! (timestamp), `pid` and `tid`; duration events carry `dur`.
//!
//! Timestamps here are **simulated cycles**, not wall-clock microseconds —
//! the timeline shows what the modeled GPU did, so a fixed-seed run
//! produces a byte-identical trace no matter how the host scheduled it.
//!
//! One [`Timeline`] is kept per pixel group (its `pid` is the group
//! index), and [`merge_trace`] concatenates them in group order into the
//! final deterministic artifact.

use minijson::{Map, ToJson, Value};

/// One Chrome-trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the timeline slice).
    pub name: String,
    /// Category tag, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Phase: `'X'` duration, `'i'` instant, `'M'` metadata.
    pub ph: char,
    /// Timestamp in simulated cycles.
    pub ts: u64,
    /// Duration in simulated cycles (duration events only).
    pub dur: Option<u64>,
    /// Process id (the pixel-group index).
    pub pid: u32,
    /// Thread id (one lane per SM / RT unit / memory partition).
    pub tid: u32,
    /// Optional event arguments.
    pub args: Option<Map>,
}

minijson::record! {
    to_json TraceEvent {
        "name" => name,
        "cat" => cat,
        "ph" => ph,
        "ts" => ts,
        "dur" => dur: skip_none,
        "pid" => pid,
        "tid" => tid,
        "args" => args: skip_none,
    }
}

/// Lane numbering convention used by [`Timeline`] thread metadata.
pub mod lanes {
    /// Thread-id base for RT-unit lanes (`RT_BASE + sm index`).
    pub(crate) const RT_BASE: u32 = 1000;
    /// Thread-id base for memory-partition lanes (`MEM_BASE + partition`).
    pub(crate) const MEM_BASE: u32 = 2000;
}

/// An event buffer for one trace process, with a hard cap so pathological
/// runs cannot exhaust memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    pid: u32,
    events: Vec<TraceEvent>,
    max_events: usize,
    dropped: u64,
}

/// Default per-timeline event cap (~1M events).
pub(crate) const DEFAULT_MAX_EVENTS: usize = 1 << 20;

impl Timeline {
    /// Opens a timeline for process `pid`, emitting `process_name`
    /// metadata so trace viewers label the group.
    pub(crate) fn new(pid: u32, process_name: &str, max_events: usize) -> Self {
        let mut timeline = Timeline {
            pid,
            events: Vec::new(),
            max_events: max_events.max(1),
            dropped: 0,
        };
        timeline.metadata("process_name", 0, process_name);
        timeline
    }

    /// Names a thread lane (`thread_name` metadata event).
    pub(crate) fn thread(&mut self, tid: u32, name: &str) {
        self.metadata("thread_name", tid, name);
    }

    fn metadata(&mut self, kind: &str, tid: u32, name: &str) {
        let mut args = Map::new();
        args.insert("name".into(), Value::from(name));
        self.push(TraceEvent {
            name: kind.to_owned(),
            cat: "__metadata",
            ph: 'M',
            ts: 0,
            dur: None,
            pid: self.pid,
            tid,
            args: Some(args),
        });
    }

    /// Appends a duration (`"X"`) event.
    pub(crate) fn duration(&mut self, cat: &'static str, name: &str, tid: u32, ts: u64, dur: u64) {
        self.push(TraceEvent {
            name: name.to_owned(),
            cat,
            ph: 'X',
            ts,
            dur: Some(dur),
            pid: self.pid,
            tid,
            args: None,
        });
    }

    /// Appends an instant (`"i"`) event with optional arguments.
    pub(crate) fn instant(
        &mut self,
        cat: &'static str,
        name: &str,
        tid: u32,
        ts: u64,
        args: Option<Map>,
    ) {
        self.push(TraceEvent {
            name: name.to_owned(),
            cat,
            ph: 'i',
            ts,
            dur: None,
            pid: self.pid,
            tid,
            args,
        });
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }

    /// Closes the timeline, appending a marker instant if events were
    /// dropped, and returns the event buffer.
    pub(crate) fn finish(mut self) -> Vec<TraceEvent> {
        if self.dropped > 0 {
            let mut args = Map::new();
            args.insert("dropped".into(), Value::from(self.dropped));
            let event = TraceEvent {
                name: "events dropped (cap reached)".to_owned(),
                cat: "obs",
                ph: 'i',
                ts: 0,
                dur: None,
                pid: self.pid,
                tid: 0,
                args: Some(args),
            };
            self.events.push(event);
        }
        self.events
    }
}

/// Concatenates timelines in the given order into one Chrome-trace JSON
/// array. The order is the caller's (group order), so the merged trace is
/// deterministic.
pub fn merge_trace(timelines: Vec<Timeline>) -> Value {
    let events: Vec<Value> = timelines
        .into_iter()
        .flat_map(Timeline::finish)
        .map(|e| e.to_json())
        .collect();
    Value::Array(events)
}

/// Validates that `trace` is a well-formed Chrome-trace JSON array: every
/// element an object with string `name`, one-character string `ph`, and
/// numeric `ts`/`pid`/`tid`; duration events must carry a numeric `dur`.
/// Returns the event count.
pub fn validate_trace(trace: &Value) -> Result<usize, String> {
    let events = trace
        .as_array()
        .ok_or_else(|| "trace is not a JSON array".to_owned())?;
    for (i, event) in events.iter().enumerate() {
        if event.as_object().is_none() {
            return Err(format!("event {i} is not an object"));
        }
        if event.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("event {i}: missing string 'name'"));
        }
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'ph'"))?;
        if ph.chars().count() != 1 {
            return Err(format!("event {i}: 'ph' must be one character, got {ph:?}"));
        }
        for field in ["ts", "pid", "tid"] {
            if event.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("event {i}: missing numeric '{field}'"));
            }
        }
        if ph == "X" && event.get("dur").and_then(Value::as_u64).is_none() {
            return Err(format!("event {i}: duration event missing numeric 'dur'"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_timeline_carries_process_metadata() {
        let t = Timeline::new(3, "group 3", DEFAULT_MAX_EVENTS);
        assert_eq!(t.events.len(), 1);
        let events = t.finish();
        assert_eq!(events[0].ph, 'M');
        assert_eq!(events[0].pid, 3);
        let args = events[0].args.as_ref().unwrap();
        assert_eq!(args.get("name").and_then(Value::as_str), Some("group 3"));
    }

    #[test]
    fn duration_and_instant_events_serialize() {
        let mut t = Timeline::new(0, "g", DEFAULT_MAX_EVENTS);
        t.thread(1, "SM 1");
        t.duration("phase", "compute", 1, 100, 40);
        let mut args = Map::new();
        args.insert("bytes".into(), Value::from(128u64));
        t.instant("dram", "transfer", lanes::MEM_BASE, 140, Some(args));
        let trace = merge_trace(vec![t]);
        assert_eq!(validate_trace(&trace).unwrap(), 4);
        let events = trace.as_array().unwrap();
        let x = &events[2];
        assert_eq!(x.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(x.get("ts").and_then(Value::as_u64), Some(100));
        assert_eq!(x.get("dur").and_then(Value::as_u64), Some(40));
        let i = &events[3];
        assert_eq!(i.get("ph").and_then(Value::as_str), Some("i"));
        assert_eq!(
            i.get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(Value::as_u64),
            Some(128)
        );
    }

    #[test]
    fn cap_drops_and_marks() {
        let mut t = Timeline::new(0, "g", 2);
        t.duration("c", "a", 0, 0, 1); // fills the cap (metadata took slot 1)
        t.duration("c", "b", 0, 1, 1); // dropped
        t.duration("c", "c", 0, 2, 1); // dropped
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 2);
        let events = t.finish();
        assert_eq!(events.len(), 3, "finish appends the dropped marker");
        let marker = events.last().unwrap();
        assert_eq!(marker.ph, 'i');
        assert_eq!(
            marker
                .args
                .as_ref()
                .unwrap()
                .get("dropped")
                .and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn merge_preserves_group_order() {
        let mut a = Timeline::new(0, "group 0", DEFAULT_MAX_EVENTS);
        a.duration("c", "x", 0, 5, 1);
        let mut b = Timeline::new(1, "group 1", DEFAULT_MAX_EVENTS);
        b.duration("c", "y", 0, 3, 1);
        let trace = merge_trace(vec![a, b]);
        let pids: Vec<u64> = trace
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.get("pid").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(pids, [0, 0, 1, 1]);
        // Deterministic bytes: merging the same inputs twice is identical.
        let mut a2 = Timeline::new(0, "group 0", DEFAULT_MAX_EVENTS);
        a2.duration("c", "x", 0, 5, 1);
        let mut b2 = Timeline::new(1, "group 1", DEFAULT_MAX_EVENTS);
        b2.duration("c", "y", 0, 3, 1);
        assert_eq!(trace.to_string(), merge_trace(vec![a2, b2]).to_string());
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        assert!(validate_trace(&Value::from(3u64)).is_err());
        let bad = Value::parse(r#"[{"ph":"X","ts":0,"pid":0,"tid":0}]"#).unwrap();
        assert!(validate_trace(&bad).unwrap_err().contains("name"));
        let no_dur = Value::parse(r#"[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}]"#).unwrap();
        assert!(validate_trace(&no_dur).unwrap_err().contains("dur"));
        let long_ph = Value::parse(r#"[{"name":"a","ph":"XX","ts":0,"pid":0,"tid":0}]"#).unwrap();
        assert!(validate_trace(&long_ph).unwrap_err().contains("ph"));
        let ok = Value::parse(r#"[{"name":"a","ph":"i","ts":1,"pid":0,"tid":2}]"#).unwrap();
        assert_eq!(validate_trace(&ok).unwrap(), 1);
    }
}
