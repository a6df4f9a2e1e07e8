//! Set-associative exact-LRU cache tag array with fill-time tracking.
//!
//! One structure serves every geometry, from the fully associative L1
//! (1 set × 512 ways) to the L2 slices (sets × 16 ways): a slab of entries,
//! an intrusive per-set recency ring whose cursor names the victim, and an
//! open-addressed `line → slot` index, so `probe` and `fill` are O(1)
//! whatever the associativity. See DESIGN.md, "Memory model".

use crate::config::CacheConfig;

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present; data available at `valid_from` (may be in the future if
    /// the fill is still in flight — an MSHR merge).
    Hit {
        /// Earliest cycle the data can be consumed.
        valid_from: u64,
    },
    /// Line absent; the caller must fetch from the next level and call
    /// [`Cache::fill`].
    Miss,
}

/// One resident line: a slab slot linked into its set's recency ring.
#[derive(Debug, Clone, Copy)]
struct TagEntry {
    line: u64,
    valid_from: u64,
    newer: u32,
    older: u32,
}

/// One set's recency ring. Following `newer` from the `lru` slot visits the
/// set's entries from least to most recently used and then wraps around, so
/// the most recent entry is `lru`'s `older`.
#[derive(Debug, Clone, Copy, Default)]
struct SetRing {
    /// The eviction victim; meaningless while `len == 0`.
    lru: u32,
    len: u32,
}

/// A timing-aware cache tag array.
///
/// Data is never stored — only tags and fill times — because the simulator
/// works with real scene data held elsewhere. Misses with in-flight fills
/// are merged (hit on the pending line), modeling MSHR behaviour.
///
/// `new`, `probe(line, now)` and `fill` are called by the repository's
/// benchmark and stay source-compatible.
///
/// # Examples
///
/// ```
/// use gpusim::config::CacheConfig;
/// use gpusim::mem::{Cache, Probe};
///
/// let cfg = CacheConfig { bytes: 1024, ways: 2, line_bytes: 128, latency: 20 };
/// let mut c = Cache::new("L1", cfg);
/// assert_eq!(c.probe(0, 0), Probe::Miss);
/// c.fill(0, 100);
/// assert!(matches!(c.probe(0, 150), Probe::Hit { valid_from: 100 }));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Slab of resident lines. A slot is allocated by the fill that first
    /// needs it and afterwards only ever reused by evictions in its set.
    entries: Vec<TagEntry>,
    sets: Vec<SetRing>,
    /// Open-addressed (linear probing) map from line to slab slot + 1;
    /// `0` marks an empty bucket. Power-of-two sized, at most half full.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the multiplicative hash keeps the top bits.
    index_shift: u32,
    ways: u32,
    set_count: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry; `name` labels its
    /// panic messages.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero lines, or more lines than a
    /// `u32` slot can address.
    pub fn new(name: &'static str, config: CacheConfig) -> Self {
        let set_count = config.sets();
        let ways = config.effective_ways();
        assert!(set_count > 0 && ways > 0, "{name}: cache must have lines");
        let buckets = (2 * set_count * ways).next_power_of_two().max(2);
        assert!(buckets <= 1 << 31, "{name}: cache too large for u32 slots");
        Cache {
            entries: Vec::new(),
            sets: vec![SetRing::default(); set_count as usize],
            index: vec![0; buckets as usize],
            index_shift: 64 - buckets.trailing_zeros(),
            ways: ways as u32,
            set_count,
            accesses: 0,
            misses: 0,
        }
    }

    /// Home bucket of `line`: Fibonacci hashing, which spreads the strided
    /// and region-aligned line addresses of real layouts evenly.
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The bucket holding `line`'s slot, or the empty bucket where its probe
    /// sequence ends. Terminates because the index is never more than half
    /// full.
    fn bucket_of(&self, line: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut bucket = self.home(line);
        loop {
            match self.index[bucket] {
                0 => return bucket,
                s if self.entries[s as usize - 1].line == line => return bucket,
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    /// Empties `bucket`, shifting later members of its probe run back so
    /// every remaining line stays reachable from its home bucket
    /// (tombstone-free linear-probing deletion).
    fn unindex(&mut self, bucket: usize) {
        let mask = self.index.len() - 1;
        let (mut hole, mut next) = (bucket, bucket);
        loop {
            next = (next + 1) & mask;
            let s = self.index[next];
            if s == 0 {
                break;
            }
            // `s` may move into the hole unless its home lies cyclically
            // in (hole, next].
            let home = self.home(self.entries[s as usize - 1].line);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                hole = next;
            }
        }
        self.index[hole] = 0;
    }

    /// Makes resident `slot` the most recently used entry of `set`.
    fn touch(&mut self, set: usize, slot: u32) {
        let TagEntry { newer, older, .. } = self.entries[slot as usize];
        let lru = self.sets[set].lru;
        if slot == lru {
            // The ring closes behind the LRU entry: moving the boundary
            // past it turns it into the most recent one.
            self.sets[set].lru = newer;
        } else if newer != lru {
            self.entries[newer as usize].older = older;
            self.entries[older as usize].newer = newer;
            self.link_newest(lru, slot);
        }
    }

    /// Links detached `slot` into the ring of `lru` as its most recent
    /// entry: between the previous most recent one and `lru`.
    fn link_newest(&mut self, lru: u32, slot: u32) {
        let newest = std::mem::replace(&mut self.entries[lru as usize].older, slot);
        self.entries[newest as usize].newer = slot;
        self.entries[slot as usize].newer = lru;
        self.entries[slot as usize].older = newest;
    }

    /// Probes for `line` (a line-granular address) at time `now`, updating
    /// LRU order and hit/miss statistics.
    pub fn probe(&mut self, line: u64, now: u64) -> Probe {
        let _ = now;
        self.accesses += 1;
        match self.index[self.bucket_of(line)] {
            0 => {
                self.misses += 1;
                Probe::Miss
            }
            s => {
                self.touch((line % self.set_count) as usize, s - 1);
                Probe::Hit {
                    valid_from: self.entries[s as usize - 1].valid_from,
                }
            }
        }
    }

    /// Installs `line` with its data arriving at `valid_from`, evicting the
    /// LRU entry if the set is full. Re-filling a resident line keeps the
    /// earlier of the two arrival times.
    pub fn fill(&mut self, line: u64, valid_from: u64) {
        let set = (line % self.set_count) as usize;
        let bucket = self.bucket_of(line);
        if let s @ 1.. = self.index[bucket] {
            let entry = &mut self.entries[s as usize - 1];
            entry.valid_from = entry.valid_from.min(valid_from);
            self.touch(set, s - 1);
            return;
        }
        let ring = self.sets[set];
        if ring.len < self.ways {
            // A lone entry is a ring by itself.
            let slot = self.entries.len() as u32;
            self.entries.push(TagEntry {
                line,
                valid_from,
                newer: slot,
                older: slot,
            });
            match ring.len {
                0 => self.sets[set].lru = slot,
                _ => self.link_newest(ring.lru, slot),
            }
            self.sets[set].len += 1;
            self.index[bucket] = slot + 1;
            return;
        }
        // Full set: the LRU entry is the victim. Its slot is reused in place
        // and becomes the most recent by moving the ring boundary past it.
        let victim = ring.lru as usize;
        self.sets[set].lru = self.entries[victim].newer;
        self.unindex(self.bucket_of(self.entries[victim].line));
        self.entries[victim].line = line;
        self.entries[victim].valid_from = valid_from;
        // The deletion may have shifted entries across `bucket`: re-probe.
        let bucket = self.bucket_of(line);
        self.index[bucket] = ring.lru + 1;
    }

    /// Total probes so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate; `0.0` before any access.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ways: u32, lines: u64) -> Cache {
        Cache::new(
            "t",
            CacheConfig {
                bytes: lines * 128,
                ways,
                line_bytes: 128,
                latency: 1,
            },
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(2, 8);
        assert_eq!(c.probe(5, 0), Probe::Miss);
        c.fill(5, 40);
        assert_eq!(c.probe(5, 50), Probe::Hit { valid_from: 40 });
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.miss_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Fully associative with 2 lines.
        let mut c = small(0, 2);
        c.fill(1, 0);
        c.fill(2, 0);
        assert!(matches!(c.probe(1, 1), Probe::Hit { .. })); // touch 1 → 2 is LRU
        c.fill(3, 0); // evicts 2
        assert!(matches!(c.probe(1, 2), Probe::Hit { .. }));
        assert_eq!(c.probe(2, 3), Probe::Miss);
        assert!(matches!(c.probe(3, 4), Probe::Hit { .. }));
    }

    #[test]
    fn pending_fill_merges_as_hit() {
        let mut c = small(2, 8);
        assert_eq!(c.probe(7, 0), Probe::Miss);
        c.fill(7, 500);
        // A second access before the fill completes sees the pending line.
        match c.probe(7, 10) {
            Probe::Hit { valid_from } => assert_eq!(valid_from, 500),
            Probe::Miss => panic!("should merge with in-flight fill"),
        }
    }

    #[test]
    fn refill_keeps_earliest_valid_time() {
        let mut c = small(2, 8);
        c.fill(3, 100);
        c.fill(3, 300);
        assert_eq!(c.probe(3, 0), Probe::Hit { valid_from: 100 });
    }

    #[test]
    fn set_mapping_separates_lines() {
        // 4 sets × 2 ways = 8 lines. Lines 0 and 4 share set 0; 1 goes to set 1.
        let mut c = small(2, 8);
        c.fill(0, 0);
        c.fill(4, 0);
        c.fill(8, 0); // set 0 again: evicts LRU (line 0)
        assert_eq!(c.probe(0, 1), Probe::Miss);
        assert!(matches!(c.probe(4, 2), Probe::Hit { .. }));
        assert!(matches!(c.probe(8, 3), Probe::Hit { .. }));
    }

    #[test]
    fn lines_sharing_a_home_bucket_survive_deletions() {
        // 8 lines → 16 buckets. Every line below hashes to one bucket, so
        // the whole resident set is a single probe run and each eviction
        // deletes from its front.
        let mut c = small(0, 8);
        let home = c.home(0);
        let colliding: Vec<u64> = (0..).filter(|&l| c.home(l) == home).take(24).collect();
        for (i, &line) in colliding.iter().enumerate() {
            c.fill(line, i as u64);
            for (j, &earlier) in colliding[..=i].iter().enumerate() {
                let resident = c.index[c.bucket_of(earlier)] != 0;
                assert_eq!(resident, j + 8 > i, "line {earlier} after fill {i}");
            }
        }
    }

    #[test]
    fn full_assoc_uses_whole_capacity() {
        let mut c = small(0, 4);
        for l in 0..4 {
            c.fill(l, 0);
        }
        for l in 0..4 {
            assert!(matches!(c.probe(l, 1), Probe::Hit { .. }), "line {l}");
        }
    }
}
