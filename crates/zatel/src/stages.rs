//! The heatmap cache: a content-addressed store for the one pipeline
//! step that is worth caching.
//!
//! Profiling the execution-time heatmap traces every pixel of the frame;
//! at the benchmark's `predict-light` shapes it costs about 162 ms a pass,
//! against about 14 ms for quantize, divide and select together. So the
//! heatmap is a [`Stage`] — a deterministic function of its input plus a
//! *parameter fingerprint* covering exactly the options that feed it —
//! and its output is kept in an [`ArtifactCache`] under a key mixing the
//! stage name, the parameter fingerprint and the scene's content
//! fingerprint. Quantize, divide and select are plain calls in
//! [`crate::pipeline`]: recomputing them costs less than keying, storing
//! and decoding them would.
//!
//! A sweep or a serve worker that shares one cache profiles each scene
//! shape once. An opt-in on-disk layer ([`DiskTier`]) extends that reuse
//! across processes: one `{stage}-{key:016x}.json` file per artifact and
//! nothing beside it. Its size budget evicts by recency kept in memory, so
//! that order lasts only while the process runs.
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

use minijson::{FromJson, ToJson, Value};
use rtcore::fingerprint::Fnv64;
use rtcore::scene::Scene;
use rtcore::tracer::TraceConfig;

use crate::heatmap::Heatmap;

/// A 64-bit content/derivation fingerprint (FNV-1a).
pub type Fingerprint = u64;

/// A cached pipeline step: a deterministic `Input → Output` function
/// identified by a name and a parameter fingerprint.
pub trait Stage {
    /// What the stage consumes. Inputs are borrowed, never stored, so they
    /// may be arbitrarily large (a whole scene).
    type Input: ?Sized;
    /// What the stage produces: shared across threads behind `Arc`, and
    /// stored on disk as its JSON, whose round trip must be bit-exact.
    type Output: ToJson + FromJson + Send + Sync + 'static;

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
/// least recently used one. A prediction inserts one; a long-lived
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

#[derive(Debug, Clone, Copy)]
struct DiskEntry {
    bytes: u64,
    generation: u64,
}

/// The tier's view of its directory: each artifact file's size and when
/// it was last used, as a generation counter that lives as long as the
/// tier does.
#[derive(Debug, Default)]
struct DiskIndex {
    next_generation: u64,
    entries: BTreeMap<String, DiskEntry>,
}

impl DiskIndex {
    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// Records `name` as the most recently used entry.
    fn touch(&mut self, name: String, bytes: u64) {
        let generation = self.next_generation;
        self.next_generation += 1;
        self.entries.insert(name, DiskEntry { bytes, generation });
    }
}

/// `true` for `{stage}-{fingerprint:016x}.json` artifact file names.
fn is_artifact_file(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(".json") else {
        return false;
    };
    let Some((_, hex)) = stem.rsplit_once('-') else {
        return false;
    };
    hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Suffix of the temp files a write goes through before its rename.
const TEMP_SUFFIX: &str = ".tmp";

/// Numbers the temp files of this process, so tiers that share a
/// directory never write through the same temp file.
static TEMP_FILES: AtomicU64 = AtomicU64::new(0);

/// The persistent tier: one `{stage}-{fingerprint:016x}.json` file per
/// artifact under one directory, and nothing else.
///
/// A write goes to a temp file in the same directory and is renamed into
/// place, so a reader sees a whole file or none. Opening the tier adopts
/// the artifact files already there in name order and deletes temp files
/// an interrupted write left behind. Recency for the LRU eviction policy
/// is a generation counter kept in memory for as long as the tier is
/// open — never file mtimes, whose granularity and timezone semantics
/// vary by filesystem. When a size budget is configured, inserts evict
/// the least recently used entries until the tier fits. Several
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
    /// Opens an unbounded disk tier over `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::open(dir.into(), None)
    }

    /// Opens a disk tier over `dir` holding at most `budget_bytes` of
    /// artifact files; inserts beyond the budget evict least-recently-used
    /// entries.
    pub fn with_budget(dir: impl Into<PathBuf>, budget_bytes: u64) -> Self {
        Self::open(dir.into(), Some(budget_bytes))
    }

    fn open(dir: PathBuf, budget: Option<u64>) -> Self {
        let mut present = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if is_artifact_file(&name) {
                present.insert(name, entry.metadata().map(|m| m.len()).unwrap_or(0));
            } else if name.ends_with(TEMP_SUFFIX) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let mut index = DiskIndex::default();
        for (name, bytes) in present {
            index.touch(name, bytes);
        }
        DiskTier {
            dir,
            budget,
            index: Mutex::new(index),
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

    /// The index, recovering from lock poisoning (mutations leave the
    /// index coherent entry-by-entry).
    fn index(&self) -> std::sync::MutexGuard<'_, DiskIndex> {
        self.index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up an entry's typed artifact, making it the most recently
    /// used; `None` is a miss. A file that does not read back — truncated,
    /// not JSON, or JSON that fails the typed decode — is deleted and
    /// counted corrupt, and the caller's recompute writes it anew.
    fn get<T: FromJson>(&self, stage: &str, fp: Fingerprint) -> Option<T> {
        let name = Self::file_name(stage, fp);
        let path = self.dir.join(&name);
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let decoded = Value::parse(&text).ok().and_then(|v| T::from_json(&v).ok());
        let mut idx = self.index();
        if decoded.is_some() {
            idx.touch(name, text.len() as u64);
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&path);
            idx.entries.remove(&name);
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    /// Stores an entry as the most recently used: written to a temp file
    /// and renamed into place, then over-budget entries are evicted.
    fn put(&self, stage: &str, fp: Fingerprint, artifact: &impl ToJson) {
        let name = Self::file_name(stage, fp);
        let text = artifact.to_json().pretty();
        let temp = self.dir.join(format!(
            "{name}.{}-{}{TEMP_SUFFIX}",
            std::process::id(),
            TEMP_FILES.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::create_dir_all(&self.dir)
            .and_then(|()| std::fs::write(&temp, &text))
            .and_then(|()| std::fs::rename(&temp, self.dir.join(&name)));
        if written.is_err() {
            let _ = std::fs::remove_file(&temp);
            return;
        }
        let mut idx = self.index();
        idx.touch(name, text.len() as u64);
        if let Some(budget) = self.budget {
            while idx.total_bytes() > budget {
                let Some(oldest) = idx
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.generation)
                    .map(|(name, _)| name.clone())
                else {
                    break;
                };
                let _ = std::fs::remove_file(self.dir.join(&oldest));
                idx.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
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
/// writes its JSON to disk. The
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

    /// A cache backed by `dir`: artifacts are written as
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
        if let Some(artifact) = self.disk.as_ref().and_then(|d| d.get(S::NAME, fp)) {
            let artifact = Arc::new(artifact);
            self.memory().insert(key, Arc::clone(&artifact) as _);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return (artifact, fp, CacheOutcome::DiskHit);
        }
        let artifact = Arc::new(stage.run(input));
        self.memory().insert(key, Arc::clone(&artifact) as _);
        if let Some(disk) = &self.disk {
            disk.put(S::NAME, fp, artifact.as_ref());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (artifact, fp, CacheOutcome::Miss)
    }
}

/// Profiles the execution-time heatmap of a scene (paper step ①): the one
/// cached stage.
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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("zatel-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The file names in `dir`, sorted.
    fn files(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("cache dir exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    }

    /// A 1×1 heatmap stage: every seed gives a distinct key and a file of
    /// the same size.
    fn tiny(seed: u64) -> HeatmapStage {
        HeatmapStage {
            width: 1,
            height: 1,
            trace: TraceConfig { seed, ..trace() },
        }
    }

    #[test]
    fn disk_layer_round_trips_the_heatmap() {
        let scene = SceneId::Sprng.build(1);
        let dir = temp_dir("stage-test");
        let stage = HeatmapStage {
            width: 16,
            height: 16,
            trace: trace(),
        };

        let warm = ArtifactCache::with_disk(&dir);
        let (hm1, fp, _) = warm.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(
            files(&dir),
            [format!("heatmap-{fp:016x}.json")],
            "one file, no index"
        );

        // A fresh cache over the same directory must hit disk and produce a
        // bit-identical heatmap.
        let cold = ArtifactCache::with_disk(&dir);
        let (hm2, _, outcome) = cold.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(hm1.as_ref(), hm2.as_ref());
        // And the promotion to memory serves subsequent requests.
        let (_, _, o3) = cold.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(o3, CacheOutcome::MemoryHit);

        let _ = std::fs::remove_dir_all(&dir);
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
        let on_disk = |path: &std::path::Path| {
            let text = std::fs::read_to_string(path).expect("entry readable");
            Heatmap::from_json(&Value::parse(&text).expect("entry is JSON")).expect("a heatmap")
        };

        let warm = ArtifactCache::with_disk(&dir);
        let (hm1, fp, _) = warm.get_or_run(&stage, &scene, scene.fingerprint());
        let path = dir.join(format!("heatmap-{fp:016x}.json"));
        assert_eq!(on_disk(&path), *hm1);

        // The heatmap file cut short: the cold cache must treat it as a
        // miss, count it, and recompute the same artifact over it.
        let whole = std::fs::read_to_string(&path).expect("entry readable");
        std::fs::write(&path, &whole[..whole.len() / 2]).expect("truncate entry");
        let cold = ArtifactCache::with_disk(&dir);
        let (hm2, _, outcome) = cold.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(hm1.as_ref(), hm2.as_ref());
        assert_eq!(cold.stats().disk_corrupt, 1);
        assert_eq!(on_disk(&path), *hm1, "the recompute rewrote a whole file");
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
        assert_eq!(on_disk(&path), *hm1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_and_racing_writes_leave_only_whole_files() {
        let scene = SceneId::Sprng.build(1);
        let dir = temp_dir("cache-writes");
        let stage = tiny(3);
        let fp = ArtifactCache::key_of(&stage, scene.fingerprint());
        let name = format!("heatmap-{fp:016x}.json");
        let heatmap = stage.run(&scene);

        // A write interrupted before its rename leaves a temp file beside
        // where the entry would go, whole or not. It is never served, and
        // opening a tier over the directory deletes it.
        std::fs::create_dir_all(&dir).expect("cache dir");
        let temp = dir.join(format!("{name}.999-0{TEMP_SUFFIX}"));
        std::fs::write(&temp, heatmap.to_json().pretty()).expect("temp file");
        let cache = ArtifactCache::with_disk(&dir);
        assert!(!temp.exists(), "opening the tier removed the temp file");
        let (_, _, outcome) = cache.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(files(&dir), std::slice::from_ref(&name));

        // Two tiers over one directory writing the same key at once leave
        // one file, and it parses.
        std::fs::remove_file(dir.join(&name)).expect("entry removed");
        let tiers = [DiskTier::new(&dir), DiskTier::new(&dir)];
        std::thread::scope(|s| {
            for tier in &tiers {
                s.spawn(|| {
                    for _ in 0..50 {
                        tier.put(HeatmapStage::NAME, fp, &heatmap);
                    }
                });
            }
        });
        assert_eq!(files(&dir), [name]);
        let fresh = DiskTier::new(&dir);
        assert_eq!(fresh.get::<Heatmap>(HeatmapStage::NAME, fp), Some(heatmap));
        assert_eq!(fresh.stats().corrupt, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_evicts_lru_by_generation_within_budget() {
        let scene = SceneId::Sprng.build(1);
        // Probe one entry's on-disk size so the budget holds exactly two.
        let probe_dir = temp_dir("cache-probe");
        let probe = DiskTier::new(&probe_dir);
        probe.put(HeatmapStage::NAME, 0, &tiny(0).run(&scene));
        let entry_bytes = probe.stats().bytes;
        assert!(entry_bytes > 0);
        let _ = std::fs::remove_dir_all(&probe_dir);

        let dir = temp_dir("cache-evict");
        let tier = Arc::new(DiskTier::with_budget(&dir, 2 * entry_bytes + 8));
        let cache = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let key = |seed| {
            let (_, fp, _) = cache.get_or_run(&tiny(seed), &scene, scene.fingerprint());
            dir.join(format!("heatmap-{fp:016x}.json"))
        };
        let p1 = key(1);
        let p2 = key(2);
        assert_eq!(tier.stats().entries, 2);

        // Touch #1 from a fresh cache (disk hit), making #2 the LRU; the
        // next insert must evict #2, not #1.
        let toucher = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let (_, _, o) = toucher.get_or_run(&tiny(1), &scene, scene.fingerprint());
        assert_eq!(o, CacheOutcome::DiskHit);
        let p3 = key(3);

        assert!(p1.exists(), "recently used entry survives");
        assert!(!p2.exists(), "LRU entry evicted");
        assert!(p3.exists(), "new entry stored");
        let stats = tier.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 2 * entry_bytes + 8);

        // A fresh tier over the same dir adopts the files left: the
        // evicted key is a miss while the survivors hit.
        drop(cache);
        let reloaded = ArtifactCache::with_disk(&dir);
        let outcome = |seed| {
            reloaded
                .get_or_run(&tiny(seed), &scene, scene.fingerprint())
                .2
        };
        assert_eq!(
            (outcome(1), outcome(2), outcome(3)),
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
        let scene = SceneId::Sprng.build(1);
        let dir = temp_dir("cache-shared");
        let tier = Arc::new(DiskTier::new(&dir));
        let a = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let b = ArtifactCache::with_disk_tier(Arc::clone(&tier));
        let stage = tiny(7);

        let (va, _, oa) = a.get_or_run(&stage, &scene, scene.fingerprint());
        let (vb, _, ob) = b.get_or_run(&stage, &scene, scene.fingerprint());
        assert_eq!(oa, CacheOutcome::Miss);
        assert_eq!(ob, CacheOutcome::DiskHit, "b reuses a's artifact via disk");
        assert_eq!(va.as_ref(), vb.as_ref());
        // Each cache promotes into its own memory tier.
        let (_, _, oa2) = a.get_or_run(&stage, &scene, scene.fingerprint());
        let (_, _, ob2) = b.get_or_run(&stage, &scene, scene.fingerprint());
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
            cache
                .get_or_run(&tiny(seed as u64), &scene, scene.fingerprint())
                .2
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
