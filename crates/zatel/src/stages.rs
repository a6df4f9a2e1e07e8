//! The pipeline as a stage graph with a content-addressed artifact cache.
//!
//! Each deterministic phase of the Zatel pipeline (heatmap → quantize →
//! divide → select) is a [`Stage`]: a pure function from a typed input to
//! a typed output [`Artifact`], plus a deterministic *parameter
//! fingerprint* covering exactly the options that feed that stage — not
//! the whole [`ZatelOptions`](crate::ZatelOptions). Combining the stage
//! name, its parameter fingerprint and the input's content fingerprint
//! yields the artifact's cache key, so the [`ArtifactCache`] can recognize
//! repeated work across pipeline runs. Group simulation and extrapolation
//! are not stages: their results embed per-run wall-clock observations and
//! the simulation *is* the measurement being taken, so
//! [`crate::pipeline`] calls them directly.
//!
//! This is what makes sweeps cheap: a sweep over traced-percentages or
//! downscale factors varies only selection and simulation, so the
//! heatmap, quantization and division artifacts are computed once and
//! served from cache for every subsequent sweep point. An opt-in on-disk
//! layer ([`ArtifactCache::with_disk`]) extends reuse across processes for
//! the artifacts that serialize losslessly (heatmap, quantized heatmap).
//!
//! ```
//! use rtcore::scenes::SceneId;
//! use rtcore::tracer::TraceConfig;
//! use zatel::stages::{ArtifactCache, CacheOutcome, HeatmapStage};
//!
//! let scene = SceneId::Sprng.build(1);
//! let trace = TraceConfig { samples_per_pixel: 1, max_bounces: 2, seed: 1 };
//! let cache = ArtifactCache::in_memory();
//! let stage = HeatmapStage { width: 16, height: 16, trace };
//! let (_, _, first) = cache.get_or_run(&stage, &scene, scene.fingerprint());
//! let (_, _, second) = cache.get_or_run(&stage, &scene, scene.fingerprint());
//! assert_eq!(first, CacheOutcome::Miss);
//! assert_eq!(second, CacheOutcome::MemoryHit);
//! ```

use std::any::Any;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use minijson::{json, FromJson, ToJson, Value};
use rtcore::fingerprint::Fnv64;
use rtcore::scene::Scene;
use rtcore::tracer::TraceConfig;

use crate::heatmap::Heatmap;
use crate::partition::{divide, DivisionMethod, Group};
use crate::quantize::QuantizedHeatmap;
use crate::select::{select_pixels, Selection, SelectionOptions};

/// A 64-bit content/derivation fingerprint (FNV-1a).
pub type Fingerprint = u64;

/// A value a stage produces. Artifacts live in the cache behind `Arc`, so
/// they must be shareable across threads; the disk hooks are optional and
/// only implemented by artifacts whose JSON round-trip is bit-exact.
pub trait Artifact: Send + Sync + 'static {
    /// Serializes the artifact for the on-disk cache layer; `None` (the
    /// default) keeps the artifact memory-only.
    fn to_disk(&self) -> Option<Value> {
        None
    }

    /// Rebuilds the artifact from its [`Artifact::to_disk`] encoding;
    /// `None` on malformed input (treated as a cache miss).
    fn from_disk(_value: &Value) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// One phase of the pipeline: a deterministic `Input → Output` function
/// identified by a name and a parameter fingerprint.
pub trait Stage {
    /// What the stage consumes. Inputs are borrowed, never stored, so they
    /// may be arbitrarily large (a whole scene).
    type Input: ?Sized;
    /// What the stage produces.
    type Output: Artifact;

    /// Stable stage name; the first component of the cache key and the
    /// span name recorded for the stage.
    const NAME: &'static str;

    /// Fingerprint over exactly the parameters that influence the output —
    /// two stage instances with equal fingerprints must compute identical
    /// outputs from identical inputs.
    fn params_fingerprint(&self) -> Fingerprint;

    /// Computes the output. Must be deterministic in `(self, input)`.
    fn run(&self, input: &Self::Input) -> Self::Output;
}

/// How a [`ArtifactCache::get_or_run`] request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Computed now (and stored).
    Miss,
    /// Served from the in-memory map.
    MemoryHit,
    /// Served from the on-disk layer (and promoted to memory).
    DiskHit,
}

minijson::record! {
    enum CacheOutcome {
        Miss => "miss",
        MemoryHit => "memory",
        DiskHit => "disk",
    }
}

impl CacheOutcome {
    /// `true` when the artifact was reused instead of recomputed.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::MemoryHit | CacheOutcome::DiskHit)
    }
}

/// How one stage execution interacted with the cache; attached to
/// [`Prediction::cache`](crate::Prediction::cache) so runs report their
/// reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCacheRecord {
    /// The stage's [`Stage::NAME`].
    pub stage: String,
    /// The artifact's cache key.
    pub fingerprint: Fingerprint,
    /// How the request was served.
    pub outcome: CacheOutcome,
}

impl StageCacheRecord {
    /// How many of `records` were cache hits (memory or disk).
    pub fn hits(records: &[StageCacheRecord]) -> u64 {
        records.iter().filter(|r| r.outcome.is_hit()).count() as u64
    }
}

minijson::record! {
    StageCacheRecord {
        "stage" => stage,
        fingerprint: with(write_fingerprint, read_fingerprint),
        "outcome" => outcome,
    }
}

/// The fingerprint renders as 16 hex digits.
fn write_fingerprint(fingerprint: &Fingerprint, map: &mut minijson::Map) {
    map.insert(
        "fingerprint".into(),
        format!("{fingerprint:016x}").to_json(),
    );
}

fn read_fingerprint(value: &Value, ty: &str) -> Result<Fingerprint, minijson::JsonError> {
    let hex: String = minijson::field(value, ty, "fingerprint")?;
    Fingerprint::from_str_radix(&hex, 16).map_err(|e| {
        minijson::JsonError::conversion(format!("{ty}: fingerprint '{hex}' is not hex: {e}"))
    })
}

/// Cumulative hit/miss counters of an [`ArtifactCache`].
///
/// The first three fields are per-cache. The `disk_*` fields mirror the
/// counters of the cache's [`DiskTier`], which may be shared by several
/// caches — they are global to every cache composed over the same tier,
/// and zero for purely in-memory caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the in-memory tier.
    pub memory_hits: u64,
    /// Requests served from the on-disk tier.
    pub disk_hits: u64,
    /// Requests that computed the artifact.
    pub misses: u64,
    /// Entries evicted from the disk tier to honor its size budget.
    pub disk_evictions: u64,
    /// Corrupt or truncated on-disk entries discarded (each was served as
    /// a miss, never an error).
    pub disk_corrupt: u64,
    /// Bytes currently held by the disk tier.
    pub disk_bytes: u64,
    /// Entries currently held by the disk tier.
    pub disk_entries: u64,
}

minijson::record! {
    CacheStats {
        "memory_hits" => memory_hits,
        "disk_hits" => disk_hits,
        "misses" => misses,
        "disk_evictions" => disk_evictions,
        "disk_corrupt" => disk_corrupt,
        "disk_bytes" => disk_bytes,
        "disk_entries" => disk_entries,
    }
}

/// How many artifacts the memory level holds before an insert evicts the
/// least recently used one. A prediction inserts four; a long-lived
/// server meeting never-seen `(scene, seed)` pairs would otherwise grow
/// without limit. An evicted artifact is simply the disk hit or miss it
/// would have been in a fresh process.
const MEMORY_ENTRY_BOUND: usize = 4096;

#[derive(Debug)]
struct MemEntry {
    artifact: Arc<dyn Any + Send + Sync>,
    generation: u64,
}

/// The in-process level: live typed artifacts shared by `Arc`, with
/// recency kept as a generation counter like the disk index's.
// A BTreeMap so that eviction ties and any diagnostics dump are ordered
// by key, never by hash seed.
#[derive(Debug, Default)]
struct MemMap {
    next_generation: u64,
    entries: BTreeMap<(&'static str, Fingerprint), MemEntry>,
}

impl MemMap {
    /// Looks up an artifact, making it the most recently used.
    fn get(&mut self, key: (&'static str, Fingerprint)) -> Option<Arc<dyn Any + Send + Sync>> {
        let entry = self.entries.get_mut(&key)?;
        entry.generation = self.next_generation;
        self.next_generation += 1;
        Some(Arc::clone(&entry.artifact))
    }

    /// Stores an artifact as the most recently used, evicting the least
    /// recently used one beyond [`MEMORY_ENTRY_BOUND`].
    fn insert(&mut self, key: (&'static str, Fingerprint), artifact: Arc<dyn Any + Send + Sync>) {
        let generation = self.next_generation;
        self.next_generation += 1;
        self.entries.insert(
            key,
            MemEntry {
                artifact,
                generation,
            },
        );
        if self.entries.len() > MEMORY_ENTRY_BOUND {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.generation)
                .map(|(&key, _)| key);
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
            }
        }
    }
}

/// Statistics of a [`DiskTier`]. Tier-level (shared across every cache
/// composed over the tier), unlike the per-cache [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskTierStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found nothing usable on disk.
    pub misses: u64,
    /// Entries evicted to honor the size budget.
    pub evictions: u64,
    /// Corrupt or truncated entries discarded.
    pub corrupt: u64,
    /// Bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: u64,
}

const DISK_INDEX_FILE: &str = "cache-index.json";
const DISK_INDEX_SCHEMA: &str = "zatel-cache-index-v1";

#[derive(Debug, Clone, Copy)]
struct DiskEntry {
    bytes: u64,
    generation: u64,
}

#[derive(Debug, Default)]
struct DiskIndex {
    loaded: bool,
    next_generation: u64,
    entries: BTreeMap<String, DiskEntry>,
}

impl DiskIndex {
    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    fn bump(&mut self) -> u64 {
        let g = self.next_generation;
        self.next_generation += 1;
        g
    }
}

/// `true` for `{stage}-{fingerprint:016x}.json` artifact file names (and
/// `false` for the index sidecar or anything else living in the dir).
fn is_artifact_file(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(".json") else {
        return false;
    };
    let Some((_, hex)) = stem.rsplit_once('-') else {
        return false;
    };
    hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The persistent tier: serialized artifacts stored as
/// `{stage}-{fingerprint:016x}.json` files under one directory.
///
/// Recency for the LRU eviction policy is a monotonic in-index
/// *generation counter* — never file mtimes, whose granularity and
/// timezone semantics vary by filesystem — persisted (with entry sizes)
/// in a `cache-index.json` sidecar so recency survives across processes.
/// When a size budget is configured, inserts evict the
/// lowest-generation entries until the tier fits. Several
/// [`TieredCache`]s may share one `DiskTier` behind an `Arc`. Every
/// failure mode — I/O errors, corrupt documents — degrades to a miss,
/// never an error.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    budget: Option<u64>,
    index: Mutex<DiskIndex>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

impl DiskTier {
    /// An unbounded disk tier over `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::build(dir.into(), None)
    }

    /// A disk tier over `dir` holding at most `budget_bytes` of artifact
    /// files; inserts beyond the budget evict least-recently-used entries.
    pub fn with_budget(dir: impl Into<PathBuf>, budget_bytes: u64) -> Self {
        Self::build(dir.into(), Some(budget_bytes))
    }

    fn build(dir: PathBuf, budget: Option<u64>) -> Self {
        DiskTier {
            dir,
            budget,
            index: Mutex::new(DiskIndex::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Tier-level counters and current occupancy.
    pub fn stats(&self) -> DiskTierStats {
        let idx = self.index();
        DiskTierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes: idx.total_bytes(),
            entries: idx.entries.len() as u64,
        }
    }

    fn file_name(stage: &str, fp: Fingerprint) -> String {
        format!("{stage}-{fp:016x}.json")
    }

    /// The index, lazily initialized from the sidecar file and a directory
    /// scan, recovering from lock poisoning (mutations leave the index
    /// coherent entry-by-entry).
    fn index(&self) -> std::sync::MutexGuard<'_, DiskIndex> {
        let mut idx = self
            .index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !idx.loaded {
            self.load(&mut idx);
        }
        idx
    }

    /// Builds the in-memory index: sizes come from the files actually
    /// present, generations from the sidecar where available. Files never
    /// indexed (a pre-index cache dir, or a sidecar lost to a crash) are
    /// adopted in sorted-name order so the result is deterministic.
    fn load(&self, idx: &mut DiskIndex) {
        idx.loaded = true;
        let mut present: BTreeMap<String, u64> = BTreeMap::new();
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !is_artifact_file(&name) {
                    continue;
                }
                let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                present.insert(name, bytes);
            }
        }
        let mut recorded: BTreeMap<String, u64> = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(self.dir.join(DISK_INDEX_FILE)) {
            if let Ok(doc) = Value::parse(&text) {
                if doc.get("schema").and_then(Value::as_str) == Some(DISK_INDEX_SCHEMA) {
                    idx.next_generation = doc
                        .get("next_generation")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    if let Some(entries) = doc.get("entries").and_then(Value::as_array) {
                        for e in entries {
                            let (Some(file), Some(generation)) = (
                                e.get("file").and_then(Value::as_str),
                                e.get("generation").and_then(Value::as_u64),
                            ) else {
                                continue;
                            };
                            recorded.insert(file.to_owned(), generation);
                        }
                    }
                }
            }
        }
        for (name, bytes) in present {
            let generation = match recorded.get(&name) {
                Some(&g) => g,
                None => idx.bump(),
            };
            idx.next_generation = idx.next_generation.max(generation + 1);
            idx.entries.insert(name, DiskEntry { bytes, generation });
        }
    }

    /// Persists the index sidecar, best-effort.
    fn persist(&self, idx: &DiskIndex) {
        let entries = idx.entries.iter().map(|(name, e)| {
            json!({ "file": name.as_str(), "bytes": e.bytes, "generation": e.generation })
        });
        let entries: Vec<Value> = entries.collect();
        let doc = json!({
            "schema": DISK_INDEX_SCHEMA,
            "next_generation": idx.next_generation,
            "entries": entries,
        });
        let _ = std::fs::write(self.dir.join(DISK_INDEX_FILE), doc.pretty());
    }

    /// Removes an entry's file and index record.
    fn remove_entry(&self, idx: &mut DiskIndex, name: &str) {
        let _ = std::fs::remove_file(self.dir.join(name));
        idx.entries.remove(name);
    }

    /// Evicts lowest-generation entries until the tier fits its budget.
    fn evict_over_budget(&self, idx: &mut DiskIndex) {
        let Some(budget) = self.budget else {
            return;
        };
        while idx.total_bytes() > budget {
            let Some(oldest) = idx
                .entries
                .iter()
                .min_by_key(|(_, e)| e.generation)
                .map(|(name, _)| name.clone())
            else {
                return;
            };
            self.remove_entry(idx, &oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up an entry's document, making it the most recently used;
    /// `None` is a miss. An unreadable or unparsable file is dropped and
    /// counted corrupt.
    fn get(&self, stage: &str, fp: Fingerprint) -> Option<Value> {
        let name = Self::file_name(stage, fp);
        let mut idx = self.index();
        if !idx.entries.contains_key(&name) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let parsed = std::fs::read_to_string(self.dir.join(&name))
            .ok()
            .and_then(|text| Value::parse(&text).ok());
        match parsed {
            Some(value) => {
                let generation = idx.bump();
                if let Some(e) = idx.entries.get_mut(&name) {
                    e.generation = generation;
                }
                self.persist(&idx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                // Truncated, corrupt or unreadable: drop it, serve a miss.
                self.remove_entry(&mut idx, &name);
                self.persist(&idx);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an entry's document as the most recently used, evicting
    /// over-budget entries.
    fn put(&self, stage: &str, fp: Fingerprint, value: &Value) {
        let name = Self::file_name(stage, fp);
        let text = value.pretty();
        let mut idx = self.index();
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        if std::fs::write(self.dir.join(&name), &text).is_err() {
            return;
        }
        let generation = idx.bump();
        idx.entries.insert(
            name,
            DiskEntry {
                bytes: text.len() as u64,
                generation,
            },
        );
        self.evict_over_budget(&mut idx);
        self.persist(&idx);
    }

    /// Drops an entry whose document failed the typed decode (counted
    /// corrupt) so it is never served again.
    fn discard(&self, stage: &str, fp: Fingerprint) {
        let name = Self::file_name(stage, fp);
        let mut idx = self.index();
        if idx.entries.contains_key(&name) {
            self.remove_entry(&mut idx, &name);
            self.persist(&idx);
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A content-addressed store of stage outputs on two levels: a private
/// in-memory map over an optional, shareable [`DiskTier`].
///
/// Keys are `(stage name, fingerprint)` where the fingerprint mixes the
/// stage's parameter fingerprint with the input's content fingerprint —
/// any change to either produces a new key, which is the entire cache
/// invalidation story: stale entries are never *wrong*, only unreachable.
///
/// A lookup reads memory, then disk (a disk hit is decoded and promoted
/// into memory); a miss computes the artifact, keeps it in memory and
/// writes its [`Artifact::to_disk`] document, if it has one, to disk. The
/// cache is internally synchronized and is shared across sweep worker
/// threads and serve's workers behind an `Arc`; independent caches may
/// share a [`DiskTier`] (see [`TieredCache::with_disk_tier`]), each with
/// its own memory map.
#[derive(Debug)]
pub struct TieredCache {
    memory: Mutex<MemMap>,
    disk: Option<Arc<DiskTier>>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

/// The historical name of [`TieredCache`], kept for every call site that
/// predates the tier split.
pub type ArtifactCache = TieredCache;

impl TieredCache {
    fn compose(disk: Option<Arc<DiskTier>>) -> Self {
        TieredCache {
            memory: Mutex::new(MemMap::default()),
            disk,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        Self::compose(None)
    }

    /// A cache backed by `dir`: disk-persistable artifacts are written as
    /// `{stage}-{fingerprint:016x}.json` on miss and read back on a memory
    /// miss (then promoted to memory). The directory is created on first
    /// write; I/O failures degrade to cache misses, never errors.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        Self::compose(Some(Arc::new(DiskTier::new(dir))))
    }

    /// A cache with a private memory map over an existing — possibly
    /// shared — disk tier.
    pub fn with_disk_tier(disk: Arc<DiskTier>) -> Self {
        Self::compose(Some(disk))
    }

    /// Cumulative hit/miss counters (see [`CacheStats`] for which fields
    /// are per-cache vs per-disk-tier).
    pub fn stats(&self) -> CacheStats {
        let disk = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_evictions: disk.evictions,
            disk_corrupt: disk.corrupt,
            disk_bytes: disk.bytes,
            disk_entries: disk.entries,
        }
    }

    /// The memory map, recovering from a poisoned lock: a worker that
    /// panicked mid-insert leaves the map with whole entries only (values
    /// are `Arc`s swapped in atomically), so the cached data stays valid.
    fn memory(&self) -> std::sync::MutexGuard<'_, MemMap> {
        self.memory
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of artifacts currently held in memory.
    pub fn len(&self) -> usize {
        self.memory().entries.len()
    }

    /// `true` when no artifacts are held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache key of `stage` applied to an input with content
    /// fingerprint `input_fp`.
    pub fn key_of<S: Stage>(stage: &S, input_fp: Fingerprint) -> Fingerprint {
        let mut h = Fnv64::new();
        h.write_str("zatel-stage-v1");
        h.write_str(S::NAME);
        h.write_u64(stage.params_fingerprint());
        h.write_u64(input_fp);
        h.finish()
    }

    /// Returns the stage's output for `input`, computing it only when no
    /// cached copy exists. Returns the artifact, its cache key and how the
    /// request was served.
    pub fn get_or_run<S: Stage>(
        &self,
        stage: &S,
        input: &S::Input,
        input_fp: Fingerprint,
    ) -> (Arc<S::Output>, Fingerprint, CacheOutcome) {
        let fp = Self::key_of(stage, input_fp);
        let key = (S::NAME, fp);
        // A failed downcast can only mean two stages sharing a NAME with
        // different output types; it degrades to a recompute (which
        // overwrites the entry) rather than panicking mid-sweep.
        let held = self.memory().get(key);
        if let Some(artifact) = held.and_then(|any| any.downcast::<S::Output>().ok()) {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return (artifact, fp, CacheOutcome::MemoryHit);
        }
        if let Some(disk) = &self.disk {
            if let Some(value) = disk.get(S::NAME, fp) {
                match S::Output::from_disk(&value) {
                    Some(artifact) => {
                        let artifact = Arc::new(artifact);
                        self.memory().insert(key, Arc::clone(&artifact) as _);
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        return (artifact, fp, CacheOutcome::DiskHit);
                    }
                    None => disk.discard(S::NAME, fp),
                }
            }
        }
        let artifact = Arc::new(stage.run(input));
        self.memory().insert(key, Arc::clone(&artifact) as _);
        if let Some(disk) = &self.disk {
            if let Some(value) = artifact.to_disk() {
                disk.put(S::NAME, fp, &value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (artifact, fp, CacheOutcome::Miss)
    }
}

// --- Stage implementations -------------------------------------------------

/// Stage ①: profile the execution-time heatmap of a scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatmapStage {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Functional-tracer configuration used for profiling.
    pub trace: TraceConfig,
}

impl Stage for HeatmapStage {
    type Input = Scene;
    type Output = Heatmap;
    const NAME: &'static str = "heatmap";

    fn params_fingerprint(&self) -> Fingerprint {
        let mut h = Fnv64::new();
        h.write_u32(self.width).write_u32(self.height);
        h.write_u32(self.trace.samples_per_pixel)
            .write_u32(self.trace.max_bounces)
            .write_u64(self.trace.seed);
        h.finish()
    }

    fn run(&self, scene: &Scene) -> Heatmap {
        Heatmap::profile(scene, self.width, self.height, &self.trace)
    }
}

impl Artifact for Heatmap {
    fn to_disk(&self) -> Option<Value> {
        Some(self.to_json())
    }

    fn from_disk(value: &Value) -> Option<Self> {
        Heatmap::from_json(value).ok()
    }
}

/// Stage ②: K-means colour quantization of the heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizeStage {
    /// Number of K-means colours.
    pub colors: usize,
    /// K-means seed.
    pub seed: u64,
}

impl Stage for QuantizeStage {
    type Input = Heatmap;
    type Output = QuantizedHeatmap;
    const NAME: &'static str = "quantize";

    fn params_fingerprint(&self) -> Fingerprint {
        let mut h = Fnv64::new();
        h.write_u64(self.colors as u64).write_u64(self.seed);
        h.finish()
    }

    fn run(&self, heatmap: &Heatmap) -> QuantizedHeatmap {
        QuantizedHeatmap::quantize(heatmap, self.colors, self.seed)
    }
}

impl Artifact for QuantizedHeatmap {
    fn to_disk(&self) -> Option<Value> {
        Some(self.to_json())
    }

    fn from_disk(value: &Value) -> Option<Self> {
        QuantizedHeatmap::from_json(value).ok()
    }
}

/// Stage ④: divide the image plane into K groups. Pure function of its
/// parameters — the input is `()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivideStage {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Downscale factor K (number of groups).
    pub k: u32,
    /// Division method.
    pub division: DivisionMethod,
}

impl Stage for DivideStage {
    type Input = ();
    type Output = Vec<Group>;
    const NAME: &'static str = "divide";

    fn params_fingerprint(&self) -> Fingerprint {
        let mut h = Fnv64::new();
        h.write_u32(self.width)
            .write_u32(self.height)
            .write_u32(self.k);
        match self.division {
            DivisionMethod::Coarse => {
                h.write_u8(0);
            }
            DivisionMethod::Fine {
                chunk_width,
                chunk_height,
            } => {
                h.write_u8(1).write_u32(chunk_width).write_u32(chunk_height);
            }
        }
        h.finish()
    }

    fn run(&self, _: &()) -> Vec<Group> {
        divide(self.width, self.height, self.k, self.division)
    }
}

impl Artifact for Vec<Group> {}

/// Input of [`SelectStage`]: the groups and the quantized heatmap, shared
/// by `Arc` so the stage input can be assembled from cached artifacts
/// without copying.
#[derive(Debug, Clone)]
pub struct SelectInput {
    /// Image-plane groups (output of [`DivideStage`]).
    pub groups: Arc<Vec<Group>>,
    /// Quantized heatmap (output of [`QuantizeStage`]).
    pub quantized: Arc<QuantizedHeatmap>,
}

/// Stage ⑤: select each group's representative pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectStage {
    /// Selection parameters (with any percent override already applied).
    pub options: SelectionOptions,
}

impl Stage for SelectStage {
    type Input = SelectInput;
    type Output = Vec<Selection>;
    const NAME: &'static str = "select";

    fn params_fingerprint(&self) -> Fingerprint {
        let o = &self.options;
        let mut h = Fnv64::new();
        h.write_u32(o.block_width).write_u32(o.block_height);
        h.write_u8(match o.distribution {
            crate::select::Distribution::Uniform => 0,
            crate::select::Distribution::LinTmp => 1,
            crate::select::Distribution::ExpTmp => 2,
        });
        h.write_f64(o.clamp.0).write_f64(o.clamp.1);
        match o.percent_override {
            None => h.write_u8(0),
            Some(p) => h.write_u8(1).write_f64(p),
        };
        match o.percent_cap {
            None => h.write_u8(0),
            Some(p) => h.write_u8(1).write_f64(p),
        };
        h.write_u64(o.seed);
        h.finish()
    }

    fn run(&self, input: &SelectInput) -> Vec<Selection> {
        input
            .groups
            .iter()
            .map(|g| select_pixels(g, &input.quantized, &self.options))
            .collect()
    }
}

impl Artifact for Vec<Selection> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcore::scenes::SceneId;

    fn trace() -> TraceConfig {
        TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 5,
        }
    }

    #[test]
    fn heatmap_stage_caches_by_scene_and_params() {
        let a = SceneId::Sprng.build(1);
        let b = SceneId::Sprng.build(1);
        let cache = ArtifactCache::in_memory();
        let stage = HeatmapStage {
            width: 16,
            height: 16,
            trace: trace(),
        };
        let (hm1, fp1, o1) = cache.get_or_run(&stage, &a, a.fingerprint());
        // Identical content in a different Scene instance hits.
        let (hm2, fp2, o2) = cache.get_or_run(&stage, &b, b.fingerprint());
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::MemoryHit);
        assert!(!o1.is_hit() && o2.is_hit());
        assert_eq!(fp1, fp2);
        assert!(Arc::ptr_eq(&hm1, &hm2));
        // A parameter change misses.
        let wider = HeatmapStage { width: 32, ..stage };
        let (_, fp3, o3) = cache.get_or_run(&wider, &a, a.fingerprint());
        assert_eq!(o3, CacheOutcome::Miss);
        assert_ne!(fp1, fp3);
        assert_eq!(
            cache.stats(),
            CacheStats {
                memory_hits: 1,
                disk_hits: 0,
                misses: 2,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn disk_layer_round_trips_heatmap_and_quantized() {
        let scene = SceneId::Sprng.build(1);
        let dir = std::env::temp_dir().join(format!(
            "zatel-stage-test-{}-{:x}",
            std::process::id(),
            scene.fingerprint()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let hm_stage = HeatmapStage {
            width: 16,
            height: 16,
            trace: trace(),
        };
        let q_stage = QuantizeStage { colors: 4, seed: 5 };

        let warm = ArtifactCache::with_disk(&dir);
        let (hm1, _, _) = warm.get_or_run(&hm_stage, &scene, scene.fingerprint());
        let (q1, _, _) = warm.get_or_run(&q_stage, hm1.as_ref(), hm1.fingerprint());

        // A fresh cache over the same directory must hit disk and produce
        // bit-identical artifacts.
        let cold = ArtifactCache::with_disk(&dir);
        let (hm2, _, o_hm) = cold.get_or_run(&hm_stage, &scene, scene.fingerprint());
        let (q2, _, o_q) = cold.get_or_run(&q_stage, hm2.as_ref(), hm2.fingerprint());
        assert_eq!(o_hm, CacheOutcome::DiskHit);
        assert_eq!(o_q, CacheOutcome::DiskHit);
        assert_eq!(hm1.as_ref(), hm2.as_ref());
        assert_eq!(q1.as_ref(), q2.as_ref());
        // And the promotion to memory serves subsequent requests.
        let (_, _, o3) = cold.get_or_run(&hm_stage, &scene, scene.fingerprint());
        assert_eq!(o3, CacheOutcome::MemoryHit);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divide_stage_is_pure_in_its_params() {
        let cache = ArtifactCache::in_memory();
        let stage = DivideStage {
            width: 64,
            height: 64,
            k: 4,
            division: DivisionMethod::default_fine(),
        };
        let (g1, _, _) = cache.get_or_run(&stage, &(), 0);
        let (g2, _, o2) = cache.get_or_run(&stage, &(), 0);
        assert_eq!(o2, CacheOutcome::MemoryHit);
        assert_eq!(g1.len(), 4);
        assert!(Arc::ptr_eq(&g1, &g2));
        let coarse = DivideStage {
            division: DivisionMethod::Coarse,
            ..stage
        };
        let (_, _, o3) = cache.get_or_run(&coarse, &(), 0);
        assert_eq!(o3, CacheOutcome::Miss);
    }

    #[test]
    fn select_stage_key_tracks_percent_override() {
        let scene = SceneId::Sprng.build(1);
        let cache = ArtifactCache::in_memory();
        let hm_stage = HeatmapStage {
            width: 32,
            height: 32,
            trace: trace(),
        };
        let (hm, _, _) = cache.get_or_run(&hm_stage, &scene, scene.fingerprint());
        let q_stage = QuantizeStage { colors: 4, seed: 5 };
        let (q, q_fp, _) = cache.get_or_run(&q_stage, hm.as_ref(), hm.fingerprint());
        let d_stage = DivideStage {
            width: 32,
            height: 32,
            k: 2,
            division: DivisionMethod::default_fine(),
        };
        let (groups, g_fp, _) = cache.get_or_run(&d_stage, &(), 0);
        let input = SelectInput {
            groups,
            quantized: q,
        };
        let mut input_h = Fnv64::new();
        input_h.write_u64(g_fp).write_u64(q_fp);
        let input_fp = input_h.finish();

        let base = SelectStage {
            options: SelectionOptions::default(),
        };
        let (_, _, o1) = cache.get_or_run(&base, &input, input_fp);
        let (_, _, o2) = cache.get_or_run(&base, &input, input_fp);
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::MemoryHit));

        let overridden = SelectStage {
            options: SelectionOptions {
                percent_override: Some(0.4),
                ..SelectionOptions::default()
            },
        };
        let (_, _, o3) = cache.get_or_run(&overridden, &input, input_fp);
        assert_eq!(o3, CacheOutcome::Miss, "percent override changes the key");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("zatel-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn corrupt_disk_entry_is_a_counted_miss_and_deleted() {
        let scene = SceneId::Sprng.build(1);
        let dir = temp_dir("cache-corrupt");
        let stage = HeatmapStage {
            width: 16,
            height: 16,
            trace: trace(),
        };

        let warm = ArtifactCache::with_disk(&dir);
        let (hm1, fp, _) = warm.get_or_run(&stage, &scene, scene.fingerprint());
        let path = dir.join(format!("heatmap-{fp:016x}.json"));
        assert!(path.exists());

        // Truncated garbage: the cold cache must treat it as a miss,
        // delete it, count it, and recompute the same artifact.
        std::fs::write(&path, "{ \"width\": 16, \"hei").expect("truncate entry");
        let cold = ArtifactCache::with_disk(&dir);
        let (hm2, _, outcome) = cold.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(hm1.as_ref(), hm2.as_ref());
        assert_eq!(cold.stats().disk_corrupt, 1);
        // The miss rewrote a valid entry, so a third cache disk-hits.
        let third = ArtifactCache::with_disk(&dir);
        let (_, _, o3) = third.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(o3, CacheOutcome::DiskHit);

        // Structurally valid JSON that fails the typed decode is the same
        // corruption class: discarded, counted, recomputed.
        std::fs::write(&path, "{}").expect("hollow entry");
        let fourth = ArtifactCache::with_disk(&dir);
        let (_, _, o4) = fourth.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(o4, CacheOutcome::Miss);
        assert_eq!(fourth.stats().disk_corrupt, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[derive(Debug, PartialEq)]
    struct Payload(Vec<u64>);

    impl Artifact for Payload {
        fn to_disk(&self) -> Option<Value> {
            Some(Value::Array(
                self.0.iter().map(|&x| Value::from(x)).collect(),
            ))
        }

        fn from_disk(value: &Value) -> Option<Self> {
            value
                .as_array()?
                .iter()
                .map(|v| v.as_u64())
                .collect::<Option<Vec<_>>>()
                .map(Payload)
        }
    }

    struct PayloadStage {
        id: u64,
    }

    impl Stage for PayloadStage {
        type Input = ();
        type Output = Payload;
        const NAME: &'static str = "payload";
        fn params_fingerprint(&self) -> Fingerprint {
            let mut h = Fnv64::new();
            h.write_u64(self.id);
            h.finish()
        }
        fn run(&self, _: &()) -> Payload {
            Payload(vec![self.id; 64])
        }
    }

    #[test]
    fn disk_tier_evicts_lru_by_generation_within_budget() {
        // Probe one entry's on-disk size so the budget holds exactly two.
        let probe_dir = temp_dir("cache-probe");
        let probe = DiskTier::new(&probe_dir);
        probe.put(
            "payload",
            0,
            &Payload(vec![0; 64]).to_disk().expect("payload serializes"),
        );
        let entry_bytes = probe.stats().bytes;
        assert!(entry_bytes > 0);
        let _ = std::fs::remove_dir_all(&probe_dir);

        let dir = temp_dir("cache-evict");
        let tier = Arc::new(DiskTier::with_budget(&dir, 2 * entry_bytes + 8));
        let cache = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let key = |id| {
            let (_, fp, _) = cache.get_or_run(&PayloadStage { id }, &(), 0);
            dir.join(format!("payload-{fp:016x}.json"))
        };
        let p1 = key(1);
        let p2 = key(2);
        assert_eq!(tier.stats().entries, 2);

        // Touch #1 from a fresh cache (disk hit), making #2 the LRU; the
        // next insert must evict #2, not #1.
        let toucher = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let (_, _, o) = toucher.get_or_run(&PayloadStage { id: 1 }, &(), 0);
        assert_eq!(o, CacheOutcome::DiskHit);
        let p3 = key(3);

        assert!(p1.exists(), "recently used entry survives");
        assert!(!p2.exists(), "LRU entry evicted");
        assert!(p3.exists(), "new entry stored");
        let stats = tier.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 2 * entry_bytes + 8);

        // A fresh tier over the same dir reloads the index: same entries,
        // and the evicted key is a miss while the survivors hit.
        drop(cache);
        let reloaded = ArtifactCache::with_disk(&dir);
        let (_, _, o1) = reloaded.get_or_run(&PayloadStage { id: 1 }, &(), 0);
        let (_, _, o2) = reloaded.get_or_run(&PayloadStage { id: 2 }, &(), 0);
        let (_, _, o3) = reloaded.get_or_run(&PayloadStage { id: 3 }, &(), 0);
        assert_eq!(
            (o1, o2, o3),
            (
                CacheOutcome::DiskHit,
                CacheOutcome::Miss,
                CacheOutcome::DiskHit
            )
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caches_share_a_disk_tier_under_private_memory_tiers() {
        let dir = temp_dir("cache-shared");
        let tier = Arc::new(DiskTier::new(&dir));
        let a = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let b = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let stage = PayloadStage { id: 7 };

        let (va, _, oa) = a.get_or_run(&stage, &(), 0);
        let (vb, _, ob) = b.get_or_run(&stage, &(), 0);
        assert_eq!(oa, CacheOutcome::Miss);
        assert_eq!(ob, CacheOutcome::DiskHit, "b reuses a's artifact via disk");
        assert_eq!(va.as_ref(), vb.as_ref());
        // Each cache promotes into its own memory tier.
        let (_, _, oa2) = a.get_or_run(&stage, &(), 0);
        let (_, _, ob2) = b.get_or_run(&stage, &(), 0);
        assert_eq!(oa2, CacheOutcome::MemoryHit);
        assert_eq!(ob2, CacheOutcome::MemoryHit);
        // Per-cache counters stay private; tier counters aggregate.
        assert_eq!(a.stats().memory_hits, 1);
        assert_eq!(a.stats().misses, 1);
        assert_eq!(b.stats().misses, 0);
        assert_eq!(b.stats().disk_hits, 1);
        assert_eq!(tier.stats().hits, 1);
        assert_eq!(tier.stats().entries, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_level_evicts_lru_beyond_its_entry_bound() {
        let scene = SceneId::Sprng.build(1);
        let cache = ArtifactCache::in_memory();
        let outcome = |seed: usize| {
            let stage = HeatmapStage {
                width: 1,
                height: 1,
                trace: TraceConfig {
                    seed: seed as u64,
                    ..trace()
                },
            };
            cache.get_or_run(&stage, &scene, scene.fingerprint()).2
        };
        let k = 3;
        for seed in 0..MEMORY_ENTRY_BOUND {
            assert_eq!(outcome(seed), CacheOutcome::Miss);
        }
        // Touch the oldest key just before the overflow: it becomes the
        // most recently used, so the k inserts evict keys 1..=k instead.
        assert_eq!(outcome(0), CacheOutcome::MemoryHit);
        for seed in MEMORY_ENTRY_BOUND..MEMORY_ENTRY_BOUND + k {
            assert_eq!(outcome(seed), CacheOutcome::Miss);
        }
        assert_eq!(cache.len(), MEMORY_ENTRY_BOUND);
        assert_eq!(outcome(0), CacheOutcome::MemoryHit, "touched key survives");
        for seed in 1..=k {
            assert_eq!(outcome(seed), CacheOutcome::Miss, "key {seed} was evicted");
            assert_eq!(cache.len(), MEMORY_ENTRY_BOUND);
        }
    }
}
