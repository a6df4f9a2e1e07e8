//! The heatmap cache: a content-addressed store for the one pipeline
//! step that is worth caching.
//!
//! Profiling the execution-time heatmap traces the first sample of one
//! pixel of each vertical pair; at the benchmark's `predict-light` shapes it
//! costs about 42 ms a pass, against about 14 ms for quantize, divide and
//! select together. So the heatmap is a [`Stage`] — a deterministic function of
//! its input plus a *parameter fingerprint* covering exactly the options
//! that feed it — and its output is kept in an [`ArtifactCache`] under a
//! key mixing the stage name, the parameter fingerprint and the scene's
//! content fingerprint. Quantize, divide and select are plain calls in
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

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use minijson::{FromJson, ToJson, Value};
use rtcore::fingerprint::Fnv64;
use rtcore::scene::Scene;
use rtcore::tracer::{profile_costs_lent, TraceConfig};

use crate::heatmap::Heatmap;
use crate::sim_executor::Worker;

/// A 64-bit content/derivation fingerprint (FNV-1a).
pub(crate) type Fingerprint = u64;

/// A cached pipeline step: a deterministic `Input → Output` function
/// identified by a name and a parameter fingerprint. [`HeatmapStage`] is
/// the one the [`ArtifactCache`] holds.
pub trait Stage {
    /// What the stage consumes. Inputs are borrowed, never stored, so they
    /// may be arbitrarily large (a whole scene).
    type Input: ?Sized;
    /// What the stage produces.
    type Output;

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
/// The first three fields are per-cache. The `disk_*` fields are the
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
    /// Artifact writes that failed to create the directory, write the temp
    /// file or rename it into place (the artifact was served all the same;
    /// only its reuse by a later process is lost).
    pub disk_write_failures: u64,
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
        "disk_write_failures" => disk_write_failures: default,
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

/// Entries in recency order: each `touch` or `get` stamps its entry with
/// the next generation, so the least recently used entry has the smallest
/// — a counter, never a clock or file mtimes, whose granularity and
/// timezone semantics vary by filesystem.
// A BTreeMap so that any diagnostics dump is ordered by key, never by
// hash seed.
#[derive(Debug)]
struct Recency<K, V> {
    next_generation: u64,
    entries: BTreeMap<K, (V, u64)>,
}

impl<K, V> Default for Recency<K, V> {
    fn default() -> Self {
        Recency {
            next_generation: 0,
            entries: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone, V> Recency<K, V> {
    /// Stores `value` under `key` as the most recently used entry.
    fn touch(&mut self, key: K, value: V) {
        self.next_generation += 1;
        self.entries.insert(key, (value, self.next_generation));
    }

    /// The value under `key`, made the most recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        let (value, generation) = self.entries.get_mut(key)?;
        self.next_generation += 1;
        *generation = self.next_generation;
        Some(value)
    }

    /// Removes the least recently used entry and returns its key.
    fn pop_oldest(&mut self) -> Option<K> {
        let (oldest, _) = self.entries.iter().min_by_key(|(_, (_, g))| *g)?;
        let oldest = oldest.clone();
        self.entries.remove(&oldest);
        Some(oldest)
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
/// is kept in memory for as long as the tier is open. When a size budget
/// is configured, inserts evict the least recently used entries until the
/// tier fits. Several [`TieredCache`]s may share one `DiskTier` behind an
/// `Arc`. Every failure mode — I/O errors, corrupt documents — degrades to
/// a miss, never an error; a failed write is counted.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    budget: Option<u64>,
    /// Each artifact file's size, by file name.
    index: Mutex<Recency<String, u64>>,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    write_failures: AtomicU64,
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
        let mut index = Recency::default();
        for (name, bytes) in present {
            index.touch(name, bytes);
        }
        DiskTier {
            dir,
            budget,
            index: Mutex::new(index),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        }
    }

    /// The tier's counters and current occupancy: the `disk_*` fields of a
    /// [`CacheStats`], the others zero.
    pub(crate) fn stats(&self) -> CacheStats {
        let idx = self.index();
        CacheStats {
            disk_evictions: self.evictions.load(Ordering::Relaxed),
            disk_corrupt: self.corrupt.load(Ordering::Relaxed),
            disk_write_failures: self.write_failures.load(Ordering::Relaxed),
            disk_bytes: idx.entries.values().map(|(bytes, _)| bytes).sum(),
            disk_entries: idx.entries.len() as u64,
            ..CacheStats::default()
        }
    }

    fn file_name(fp: Fingerprint) -> String {
        format!("{}-{fp:016x}.json", HeatmapStage::NAME)
    }

    /// The index, recovering from lock poisoning (mutations leave the
    /// index coherent entry-by-entry).
    fn index(&self) -> std::sync::MutexGuard<'_, Recency<String, u64>> {
        self.index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up a heatmap, making it the most recently used; `None` is a
    /// miss. A file that does not read back — truncated, not JSON, JSON
    /// that fails the typed decode, or a heatmap with a value outside
    /// `[0, 1]` — is deleted and counted corrupt, and the caller's
    /// recompute writes it anew.
    fn get(&self, fp: Fingerprint) -> Option<Heatmap> {
        let name = Self::file_name(fp);
        let path = self.dir.join(&name);
        let text = std::fs::read_to_string(&path).ok()?;
        let decoded = Value::parse(&text)
            .ok()
            .and_then(|v| Heatmap::from_json(&v).ok())
            // `from_costs` writes every value in [0, 1]. The decode itself
            // allows any: a run record's heatmap is read by `zatel report`,
            // which normalizes to the hottest pixel.
            .filter(|h| h.values().iter().all(|v| (0.0..=1.0).contains(v)));
        let mut idx = self.index();
        if decoded.is_some() {
            idx.touch(name, text.len() as u64);
        } else {
            let _ = std::fs::remove_file(&path);
            idx.entries.remove(&name);
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    /// Stores a heatmap as the most recently used: written to a temp file
    /// and renamed into place, then over-budget entries are evicted. A
    /// write that fails is counted and leaves nothing behind.
    fn put(&self, fp: Fingerprint, heatmap: &Heatmap) {
        let name = Self::file_name(fp);
        let text = heatmap.to_json().pretty();
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
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut idx = self.index();
        idx.touch(name, text.len() as u64);
        let Some(budget) = self.budget else {
            return;
        };
        while idx.entries.values().map(|(bytes, _)| bytes).sum::<u64>() > budget {
            let Some(oldest) = idx.pop_oldest() else {
                break;
            };
            let _ = std::fs::remove_file(self.dir.join(&oldest));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A content-addressed store of heatmaps on two levels: a private
/// in-memory map over an optional, shareable [`DiskTier`].
///
/// Keys are fingerprints mixing the stage name, its parameter fingerprint
/// and the scene's content fingerprint — any change to either produces a
/// new key, which is the entire cache invalidation story: stale entries
/// are never *wrong*, only unreachable.
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
    /// Bounded at [`MEMORY_ENTRY_BOUND`] entries.
    memory: Mutex<Recency<Fingerprint, Arc<Heatmap>>>,
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
            memory: Mutex::new(Recency::default()),
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
            ..disk
        }
    }

    /// The memory map, recovering from a poisoned lock: a worker that
    /// panicked mid-insert leaves the map with whole entries only (values
    /// are `Arc`s swapped in atomically), so the cached data stays valid.
    fn memory(&self) -> std::sync::MutexGuard<'_, Recency<Fingerprint, Arc<Heatmap>>> {
        self.memory
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The cache key of `stage` applied to a scene with content
    /// fingerprint `scene_fp`. The tag moves on when every heatmap changes
    /// (v2: the paired profile), so no older artifact is ever served.
    pub(crate) fn key_of(stage: &HeatmapStage, scene_fp: Fingerprint) -> Fingerprint {
        let mut h = Fnv64::new();
        h.write_str("zatel-stage-v2");
        h.write_str(HeatmapStage::NAME);
        h.write_u64(stage.params_fingerprint());
        h.write_u64(scene_fp);
        h.finish()
    }

    /// Returns the heatmap `stage` profiles of `scene` (content fingerprint
    /// `scene_fp`), profiling it only when no cached copy exists. Returns
    /// the heatmap, its cache key and how the request was served.
    pub fn get_or_run(
        &self,
        stage: &HeatmapStage,
        scene: &Scene,
        scene_fp: Fingerprint,
    ) -> (Arc<Heatmap>, Fingerprint, CacheOutcome) {
        self.get_or_make(stage, scene_fp, || stage.run(scene))
    }

    /// [`ArtifactCache::get_or_run`] with the profile made by `make`, which
    /// must return what `stage.run` would.
    pub(crate) fn get_or_make(
        &self,
        stage: &HeatmapStage,
        scene_fp: Fingerprint,
        make: impl FnOnce() -> Heatmap,
    ) -> (Arc<Heatmap>, Fingerprint, CacheOutcome) {
        let fp = Self::key_of(stage, scene_fp);
        let held = self.memory().get(&fp).cloned();
        if let Some(heatmap) = held {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return (heatmap, fp, CacheOutcome::MemoryHit);
        }
        if let Some(heatmap) = self.disk.as_ref().and_then(|d| d.get(fp)) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return (self.remember(fp, heatmap), fp, CacheOutcome::DiskHit);
        }
        let heatmap = self.remember(fp, make());
        if let Some(disk) = &self.disk {
            disk.put(fp, &heatmap);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (heatmap, fp, CacheOutcome::Miss)
    }

    /// Keeps `heatmap` in memory as the most recently used entry, evicting
    /// the least recently used one beyond [`MEMORY_ENTRY_BOUND`].
    fn remember(&self, fp: Fingerprint, heatmap: Heatmap) -> Arc<Heatmap> {
        let heatmap = Arc::new(heatmap);
        let mut memory = self.memory();
        memory.touch(fp, Arc::clone(&heatmap));
        if memory.entries.len() > MEMORY_ENTRY_BOUND {
            memory.pop_oldest();
        }
        heatmap
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

    /// Hashes the trace the profile runs ([`TraceConfig::profiled`]): its
    /// one sample, not the request's spp, so every spp of a frame shares
    /// the 1-spp key.
    fn params_fingerprint(&self) -> Fingerprint {
        let trace = self.trace.profiled();
        let mut h = Fnv64::new();
        h.write_u32(self.width).write_u32(self.height);
        h.write_u32(trace.samples_per_pixel)
            .write_u32(trace.max_bounces)
            .write_u64(trace.seed);
        h.finish()
    }

    fn run(&self, scene: &Scene) -> Heatmap {
        Heatmap::profile(scene, self.width, self.height, &self.trace)
    }
}

impl HeatmapStage {
    /// [`Stage::run`] as the job of `worker`: the same heatmap, profiled in
    /// row bands on it and on its spare worker when the pool lends it one
    /// ([`profile_costs_lent`] under [`Worker::join`]), else on it alone.
    pub(crate) fn run_on(&self, scene: &Scene, worker: Worker) -> Heatmap {
        let (width, height) = (self.width, self.height);
        let costs = profile_costs_lent(scene, width, height, &self.trace, |main, help| {
            worker.join(main, help);
        });
        Heatmap::from_costs(&costs)
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

    #[test]
    fn every_spp_of_a_frame_shares_the_one_sample_key() {
        let scene = SceneId::Sprng.build(1);
        let cache = ArtifactCache::in_memory();
        let one = HeatmapStage {
            width: 16,
            height: 16,
            trace: trace(),
        };
        let two = HeatmapStage {
            trace: TraceConfig {
                samples_per_pixel: 2,
                ..trace()
            },
            ..one
        };
        assert_eq!(one.params_fingerprint(), two.params_fingerprint());
        let (hm1, fp1, o1) = cache.get_or_run(&one, &scene, scene.fingerprint());
        let (hm2, fp2, o2) = cache.get_or_run(&two, &scene, scene.fingerprint());
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::MemoryHit));
        assert_eq!(fp1, fp2);
        assert!(Arc::ptr_eq(&hm1, &hm2));
        // A bounce or seed change still misses.
        for trace in [
            TraceConfig {
                max_bounces: 3,
                ..two.trace
            },
            TraceConfig {
                seed: 6,
                ..two.trace
            },
        ] {
            let stage = HeatmapStage { trace, ..two };
            let (_, fp, outcome) = cache.get_or_run(&stage, &scene, scene.fingerprint());
            assert_eq!(outcome, CacheOutcome::Miss);
            assert_ne!(fp, fp1);
        }
    }

    /// Every heatmap changed when the profile started pairing rows, so the
    /// key's tag moved on with it: the key a build from before the paired
    /// profile gave this stage (pinned) is never asked for, and a heatmap
    /// such a build left in a disk tier is never served.
    #[test]
    fn the_paired_profile_keys_no_earlier_heatmap() {
        const UNPAIRED_KEY: Fingerprint = 0xc91c_3051_51e3_1252;
        let stage = HeatmapStage {
            width: 16,
            height: 16,
            trace: trace(),
        };
        let key = ArtifactCache::key_of(&stage, 0x5EED);
        assert_ne!(key, UNPAIRED_KEY);
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

        // So is a heatmap with a value outside [0, 1], or one that decodes
        // to infinity: `from_costs` never writes either.
        for values in ["[2.5,-1.0]", "[1e40,0.5]"] {
            let entry = format!(r#"{{"width":2,"height":1,"values":{values}}}"#);
            std::fs::write(&path, entry).expect("out-of-range entry");
            let cache = ArtifactCache::with_disk(&dir);
            let (_, _, outcome) = cache.get_or_run(&stage, &scene, scene.fingerprint());
            assert_eq!(outcome, CacheOutcome::Miss, "{values}");
            assert_eq!(cache.stats().disk_corrupt, 1, "{values}");
            assert_eq!(on_disk(&path), *hm1, "{values}");
        }

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
                        tier.put(fp, &heatmap);
                    }
                });
            }
        });
        assert_eq!(files(&dir), [name]);
        let fresh = DiskTier::new(&dir);
        assert_eq!(fresh.get(fp), Some(heatmap));
        assert_eq!(fresh.stats().disk_corrupt, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_disk_tier_that_cannot_write_serves_every_lookup_from_a_recompute() {
        let scene = SceneId::Sprng.build(1);
        // A cache directory under a regular file: `create_dir_all` fails
        // with ENOTDIR whatever the process may write, root included.
        let file = temp_dir("cache-unwritable");
        std::fs::write(&file, "a file").expect("regular file");
        let dir = file.join("cache");
        let frame = HeatmapStage {
            width: 16,
            height: 16,
            trace: trace(),
        };
        // Two caches in turn: the second finds nothing the first wrote.
        for _ in 0..2 {
            let cache = ArtifactCache::with_disk(&dir);
            for (i, stage) in [tiny(1), tiny(2), frame].iter().enumerate() {
                let (heatmap, _, outcome) = cache.get_or_run(stage, &scene, scene.fingerprint());
                assert_eq!(outcome, CacheOutcome::Miss);
                let profiled = Heatmap::profile(&scene, stage.width, stage.height, &stage.trace);
                assert_eq!(*heatmap, profiled);
                // Each miss's write failed, and was counted.
                let stats = cache.stats();
                assert_eq!(
                    (stats.misses, stats.disk_write_failures),
                    (i as u64 + 1, i as u64 + 1)
                );
            }
            let stats = cache.stats();
            assert_eq!((stats.disk_entries, stats.disk_bytes), (0, 0));
        }
        // Every write would have gone under `dir`, temp files included.
        assert!(!dir.exists());
        assert_eq!(std::fs::read_to_string(&file).expect("file kept"), "a file");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn cache_stats_written_before_the_write_failure_count_still_decode() {
        let old = r#"{"memory_hits":1,"disk_hits":2,"misses":3,"disk_evictions":4,"disk_corrupt":5,"disk_bytes":6,"disk_entries":7}"#;
        let stats = CacheStats::from_json(&Value::parse(old).expect("JSON")).expect("decodes");
        assert_eq!(
            (
                stats.disk_corrupt,
                stats.disk_write_failures,
                stats.disk_entries
            ),
            (5, 0, 7)
        );
    }

    #[test]
    fn disk_tier_evicts_lru_by_generation_within_budget() {
        let scene = SceneId::Sprng.build(1);
        // Probe one entry's on-disk size so the budget holds exactly two.
        let probe_dir = temp_dir("cache-probe");
        let probe = DiskTier::new(&probe_dir);
        probe.put(0, &tiny(0).run(&scene));
        let entry_bytes = probe.stats().disk_bytes;
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
        assert_eq!(tier.stats().disk_entries, 2);

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
        assert_eq!(stats.disk_evictions, 1);
        assert_eq!(stats.disk_entries, 2);
        assert!(stats.disk_bytes <= 2 * entry_bytes + 8);

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
        assert_eq!((a.stats().disk_hits, b.stats().disk_hits), (0, 1));
        assert_eq!(tier.stats().disk_entries, 1);

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
        assert_eq!(cache.memory().entries.len(), MEMORY_ENTRY_BOUND);
        assert_eq!(outcome(0), CacheOutcome::MemoryHit, "touched key survives");
        for seed in 1..=k {
            assert_eq!(outcome(seed), CacheOutcome::Miss, "key {seed} was evicted");
            assert_eq!(cache.memory().entries.len(), MEMORY_ENTRY_BOUND);
        }
    }
}
