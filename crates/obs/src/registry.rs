//! Metrics registry: counters, gauges and log2-bucket histograms,
//! snapshotable as JSON and as Prometheus text exposition format.
//!
//! The registry preserves insertion order and contains only data derived
//! from the (deterministic) simulation, so a fixed-seed run produces a
//! byte-identical snapshot regardless of host threading — the property the
//! CLI's `--run-out` artifact relies on.
//!
//! ```
//! use obs::registry::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter_add("l1_hits", 3);
//! reg.gauge_set("groups", 4.0);
//! reg.observe("mem_read_latency_cycles", 180);
//! let prom = reg.to_prometheus("zatel");
//! assert!(prom.contains("zatel_l1_hits 3"));
//! assert!(prom.contains("zatel_mem_read_latency_cycles_bucket"));
//! ```

use minijson::{field, json, Map, ToJson, Value};

/// A log2-bucket histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i - 1]`. Buckets are allocated lazily up to the largest
/// observed value, so an empty histogram is 24 bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The log2 bucket index of `value`.
pub(crate) fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `index`.
pub fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// The inclusive lower bound of bucket `index`.
pub fn bucket_lower(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = bucket_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts, index = log2 bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Adds all samples of `other` into `self`.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }
}

/// Hand-written: only the non-empty buckets render, as `le`/`count`
/// pairs.
impl ToJson for Histogram {
    fn to_json(&self) -> Value {
        let buckets = self.buckets.iter().enumerate().filter(|(_, c)| **c > 0);
        let buckets: Vec<Value> = buckets
            .map(|(i, c)| json!({ "le": bucket_upper(i), "count": *c }))
            .collect();
        json!({
            "count": self.count,
            "sum": self.sum,
            "min": self.min(),
            "max": self.max,
            "buckets": buckets,
        })
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A log2-bucket distribution.
    Histogram(Histogram),
}

/// An insertion-ordered collection of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, MetricKind)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn entry(&mut self, name: &str) -> Option<&mut MetricKind> {
        self.entries
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, k)| k)
    }

    /// Adds `delta` to the counter `name`, registering it at zero first if
    /// absent. Ignores the call (debug-asserts) if `name` is registered as
    /// a different kind.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.entry(name) {
            Some(MetricKind::Counter(v)) => *v += delta,
            Some(_) => debug_assert!(false, "metric '{name}' is not a counter"),
            None => self
                .entries
                .push((name.to_owned(), MetricKind::Counter(delta))),
        }
    }

    /// Sets the gauge `name` to `value` (last write wins on merge).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.entry(name) {
            Some(MetricKind::Gauge(v)) => *v = value,
            Some(_) => debug_assert!(false, "metric '{name}' is not a gauge"),
            None => self
                .entries
                .push((name.to_owned(), MetricKind::Gauge(value))),
        }
    }

    /// Records one sample into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.entry(name) {
            Some(MetricKind::Histogram(h)) => h.observe(value),
            Some(_) => debug_assert!(false, "metric '{name}' is not a histogram"),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                self.entries
                    .push((name.to_owned(), MetricKind::Histogram(h)));
            }
        }
    }

    /// Registers a pre-built histogram under `name` (merging if present).
    pub(crate) fn histogram_merge(&mut self, name: &str, hist: &Histogram) {
        match self.entry(name) {
            Some(MetricKind::Histogram(h)) => h.merge(hist),
            Some(_) => debug_assert!(false, "metric '{name}' is not a histogram"),
            None => self
                .entries
                .push((name.to_owned(), MetricKind::Histogram(hist.clone()))),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricKind> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, k)| k)
    }

    /// Iterates metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricKind)> {
        self.entries.iter().map(|(n, k)| (n.as_str(), k))
    }

    /// Serializes every metric as Prometheus text exposition format, with
    /// each name prefixed by `prefix_` and sanitized to the Prometheus
    /// charset.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, kind) in &self.entries {
            let name = format!("{}_{}", sanitize(prefix), sanitize(name));
            match kind {
                MetricKind::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricKind::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                MetricKind::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, c) in h.buckets().iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cumulative}",
                            bucket_upper(i)
                        );
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// Hand-written: the keys are the metric names, and each entry's shape
/// follows its `type`.
impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (name, kind) in &self.entries {
            let entry = match kind {
                MetricKind::Counter(v) => json!({ "type": "counter", "value": *v }),
                MetricKind::Gauge(v) => json!({ "type": "gauge", "value": *v }),
                MetricKind::Histogram(h) => {
                    let mut e = Map::new();
                    e.insert("type".into(), Value::from("histogram"));
                    if let Value::Object(hist) = h.to_json() {
                        for (k, v) in hist.iter() {
                            e.insert(k.clone(), v.clone());
                        }
                    }
                    Value::Object(e)
                }
            };
            m.insert(name.clone(), entry);
        }
        Value::Object(m)
    }
}

impl minijson::FromJson for MetricsRegistry {
    fn from_json(value: &Value) -> Result<Self, minijson::JsonError> {
        let obj = value
            .as_object()
            .ok_or_else(|| minijson::JsonError::conversion("MetricsRegistry: expected object"))?;
        let mut reg = MetricsRegistry::new();
        for (name, entry) in obj.iter() {
            match field::<String>(entry, "MetricsRegistry", "type")?.as_str() {
                "counter" => reg.counter_add(name, field(entry, name, "value")?),
                "gauge" => reg.gauge_set(name, field(entry, name, "value")?),
                "histogram" => {
                    let mut h = Histogram::new();
                    for b in field::<Vec<Value>>(entry, name, "buckets")? {
                        let idx = bucket_of(field(&b, name, "le")?);
                        let count: u64 = field(&b, name, "count")?;
                        if idx >= h.buckets.len() {
                            h.buckets.resize(idx + 1, 0);
                        }
                        h.buckets[idx] += count;
                        h.count += count;
                    }
                    let stat = |key| field::<Option<u64>>(entry, name, key);
                    h.sum = stat("sum")?.unwrap_or(0);
                    h.min = stat("min")?.unwrap_or(0);
                    h.max = stat("max")?.unwrap_or(0);
                    reg.histogram_merge(name, &h);
                }
                other => {
                    return Err(minijson::JsonError::conversion(format!(
                        "MetricsRegistry: unknown metric type '{other}'"
                    )))
                }
            }
        }
        Ok(reg)
    }
}

/// Maps a metric name onto the Prometheus charset `[a-zA-Z0-9_]`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::FromJson;

    #[test]
    fn log2_buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..=64 {
            assert!(bucket_lower(i) <= bucket_upper(i));
            if i > 0 {
                assert_eq!(bucket_of(bucket_lower(i)), i);
            }
            assert_eq!(bucket_of(bucket_upper(i)), i);
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max()), (0, 0, 0));
        for v in [0u64, 1, 7, 300] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 308);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 300);
        assert_eq!(h.buckets()[0], 1, "value 0");
        assert_eq!(h.buckets()[3], 1, "value 7 in [4,7]");
        assert_eq!(h.buckets()[9], 1, "value 300 in [256,511]");
    }

    #[test]
    fn histogram_merge_adds_distributions() {
        let mut a = Histogram::new();
        a.observe(5);
        let mut b = Histogram::new();
        b.observe(1000);
        b.observe(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 1000);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3, "merging an empty histogram is a no-op");
    }

    #[test]
    fn registry_kinds_and_merge() {
        let mut a = MetricsRegistry::new();
        a.counter_add("hits", 2);
        a.gauge_set("k", 4.0);
        a.observe("lat", 100);
        let mut lat = Histogram::new();
        lat.observe(200);
        a.counter_add("hits", 3);
        a.gauge_set("k", 8.0);
        a.histogram_merge("lat", &lat);
        a.counter_add("extra", 1);
        assert_eq!(a.get("hits"), Some(&MetricKind::Counter(5)));
        assert_eq!(a.get("k"), Some(&MetricKind::Gauge(8.0)));
        match a.get("lat") {
            Some(MetricKind::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(a.get("extra"), Some(&MetricKind::Counter(1)));
        assert_eq!(a.iter().count(), 4);
    }

    #[test]
    fn prometheus_format_is_well_formed() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("l1 hits", 7);
        reg.gauge_set("traced.fraction", 0.5);
        reg.observe("lat", 3);
        reg.observe("lat", 3);
        reg.observe("lat", 900);
        let text = reg.to_prometheus("zatel");
        assert!(text.contains("# TYPE zatel_l1_hits counter"));
        assert!(text.contains("zatel_l1_hits 7"));
        assert!(text.contains("zatel_traced_fraction 0.5"));
        assert!(text.contains("zatel_lat_bucket{le=\"3\"} 2"));
        assert!(
            text.contains("zatel_lat_bucket{le=\"1023\"} 3"),
            "cumulative counts: {text}"
        );
        assert!(text.contains("zatel_lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("zatel_lat_sum 906"));
        assert!(text.contains("zatel_lat_count 3"));
    }

    #[test]
    fn json_snapshot_roundtrips() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("hits", 42);
        reg.gauge_set("k", 4.0);
        for v in [1u64, 5, 5, 130] {
            reg.observe("lat", v);
        }
        let json = reg.to_json();
        let text = json.to_string();
        let back = MetricsRegistry::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back.get("hits"), Some(&MetricKind::Counter(42)));
        match back.get("lat") {
            Some(MetricKind::Histogram(h)) => {
                assert_eq!(h.count(), 4);
                assert_eq!(h.sum(), 141);
                assert_eq!(h.max(), 130);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Serialization is deterministic: same registry, same bytes.
        assert_eq!(text, back.to_json().to_string());
    }

    #[test]
    fn snapshot_is_deterministic_across_identical_runs() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.counter_add("a", 1);
            reg.observe("h", 9);
            reg.gauge_set("g", 1.25);
            reg.to_json().to_string()
        };
        assert_eq!(build(), build());
    }
}
