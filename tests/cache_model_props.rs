//! Property tests of the gpusim cache model: against an oracle LRU built on
//! `VecDeque`, and differentially against the linear-scan tag array the
//! O(1) structure replaced ([`NaiveCache`]).

use std::collections::VecDeque;

use gpusim::config::CacheConfig;
use gpusim::mem::{Cache, Probe};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Straightforward oracle: a fully-associative LRU set as an ordered list
/// (front = most recent). Only models a single set, so we drive the real
/// cache with a fully-associative geometry.
struct OracleLru {
    capacity: usize,
    lines: VecDeque<u64>,
}

impl OracleLru {
    fn new(capacity: usize) -> Self {
        OracleLru {
            capacity,
            lines: VecDeque::new(),
        }
    }

    /// Returns `true` on hit; updates recency / inserts on miss.
    fn access(&mut self, line: u64) -> bool {
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            self.lines.push_front(line);
            true
        } else {
            if self.lines.len() == self.capacity {
                self.lines.pop_back();
            }
            self.lines.push_front(line);
            false
        }
    }
}

/// The tag array `gpusim::mem::Cache` used before the slab + recency list +
/// index rewrite, kept verbatim (minus `name`) as the naive oracle: a linear
/// `find` per probe, a `min_by_key` over `last_used` stamps per eviction.
#[derive(Debug, Clone, Copy)]
struct TagEntry {
    tag: u64,
    valid_from: u64,
    last_used: u64,
}

#[derive(Debug, Clone)]
struct NaiveCache {
    sets: Vec<Vec<TagEntry>>,
    ways: usize,
    set_count: u64,
    accesses: u64,
    misses: u64,
    use_counter: u64,
}

impl NaiveCache {
    fn new(config: CacheConfig) -> Self {
        let set_count = config.sets();
        let ways = config.effective_ways() as usize;
        assert!(set_count > 0 && ways > 0, "cache must have lines");
        NaiveCache {
            sets: vec![Vec::with_capacity(ways.min(64)); set_count as usize],
            ways,
            set_count,
            accesses: 0,
            misses: 0,
            use_counter: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.set_count) as usize
    }

    fn tag_of(&self, line: u64) -> u64 {
        line / self.set_count
    }

    fn probe(&mut self, line: u64, now: u64) -> Probe {
        let _ = now;
        self.accesses += 1;
        self.use_counter += 1;
        let tag = self.tag_of(line);
        let set_index = self.set_of(line);
        let set = &mut self.sets[set_index];
        if let Some(e) = set.iter_mut().find(|e| e.tag == tag) {
            e.last_used = self.use_counter;
            return Probe::Hit {
                valid_from: e.valid_from,
            };
        }
        self.misses += 1;
        Probe::Miss
    }

    fn fill(&mut self, line: u64, valid_from: u64) {
        self.use_counter += 1;
        let tag = self.tag_of(line);
        let set_index = self.set_of(line);
        let use_counter = self.use_counter;
        let ways = self.ways;
        let set = &mut self.sets[set_index];
        if let Some(e) = set.iter_mut().find(|e| e.tag == tag) {
            e.valid_from = e.valid_from.min(valid_from);
            e.last_used = use_counter;
            return;
        }
        if set.len() < ways {
            set.push(TagEntry {
                tag,
                valid_from,
                last_used: use_counter,
            });
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| e.last_used)
            .expect("set is full, so non-empty");
        *victim = TagEntry {
            tag,
            valid_from,
            last_used: use_counter,
        };
    }
}

/// A `Cache` and the naive oracle driven in lockstep. Every operation
/// compares what it returns, then the counters and the whole resident set
/// (with fill times), read by probing clones so the pair is not disturbed.
struct Lockstep {
    cache: Cache,
    naive: NaiveCache,
    /// Lines `0..universe` are the only ones ever touched.
    universe: u64,
}

impl Lockstep {
    fn new(cfg: CacheConfig, universe: u64) -> Self {
        Lockstep {
            cache: Cache::new("diff", cfg),
            naive: NaiveCache::new(cfg),
            universe,
        }
    }

    fn probe(&mut self, line: u64, now: u64) -> Result<Probe, TestCaseError> {
        let got = self.cache.probe(line, now);
        prop_assert_eq!(got, self.naive.probe(line, now), "probe of line {}", line);
        self.check()?;
        Ok(got)
    }

    fn fill(&mut self, line: u64, valid_from: u64) -> Result<(), TestCaseError> {
        self.cache.fill(line, valid_from);
        self.naive.fill(line, valid_from);
        self.check()
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.cache.accesses(), self.naive.accesses);
        prop_assert_eq!(self.cache.misses(), self.naive.misses);
        // Probes reorder but never evict, so one clone serves every line.
        let (mut cache, mut naive) = (self.cache.clone(), self.naive.clone());
        for line in 0..self.universe {
            prop_assert_eq!(
                cache.probe(line, 0),
                naive.probe(line, 0),
                "residency of line {}",
                line
            );
        }
        Ok(())
    }
}

fn geometry(ways: u32, lines: u64) -> CacheConfig {
    CacheConfig {
        bytes: lines * 128,
        ways,
        line_bytes: 128,
        latency: 1,
    }
}

/// The index's deletion path under collisions: a 4-line fully associative
/// cache has an 8-bucket index, so 64 lines pile ~8 deep onto each bucket;
/// every fill past the fourth evicts the LRU line and deletes it from the
/// middle of a probe run.
#[test]
fn colliding_lines_evict_in_lru_order() {
    let run = || -> Result<(), TestCaseError> {
        let mut pair = Lockstep::new(geometry(0, 4), 64);
        for round in 0..3u64 {
            for line in 0..64 {
                if pair.probe(line, round)? == Probe::Miss {
                    pair.fill(line, round * 100 + line)?;
                }
                // Re-touch an older line so the victim is not always the
                // oldest fill.
                pair.probe(line.saturating_sub(2 + round), round)?;
            }
        }
        Ok(())
    };
    run().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any geometry, any interleaving of probe / fill / re-fill of a pending
    /// line: the O(1) tag array and the naive one agree on every `Probe`
    /// (with `valid_from`), every counter and the resident set after every
    /// step.
    #[test]
    fn matches_naive_tag_array(
        fully_associative in any::<bool>(),
        ways in 1u32..17,
        sets in 1u64..9,
        ops in prop::collection::vec((0u8..5, 0u64..1024, 0u64..1000), 1..200),
    ) {
        let cfg = if fully_associative {
            geometry(0, ways as u64 * sets)
        } else {
            geometry(ways, ways as u64 * sets)
        };
        // A universe of twice the capacity keeps every set contended.
        let universe = 2 * cfg.lines() + 3;
        let mut pair = Lockstep::new(cfg, universe);
        let mut last_fill = 0;
        for (kind, raw_line, t) in ops {
            let line = raw_line % universe;
            match kind {
                0 => { pair.probe(line, t)?; }
                1 => { pair.fill(line, t)?; last_fill = line; }
                // The engine's pattern: fill on miss.
                2 | 3 => if pair.probe(line, t)? == Probe::Miss {
                    pair.fill(line, t + 200)?;
                    last_fill = line;
                },
                // A second fill of a line whose first may still be pending.
                _ => pair.fill(last_fill, t)?,
            }
        }
    }

    /// Fully-associative cache hit/miss sequence matches the oracle LRU
    /// exactly, for arbitrary access streams and capacities.
    #[test]
    fn fully_associative_matches_oracle(
        capacity_lines in 1u64..32,
        accesses in prop::collection::vec(0u64..64, 1..300),
    ) {
        let mut cache = Cache::new("prop", geometry(0, capacity_lines));
        let mut oracle = OracleLru::new(capacity_lines as usize);
        for (t, &line) in accesses.iter().enumerate() {
            let expected_hit = oracle.access(line);
            let got = cache.probe(line, t as u64);
            match got {
                Probe::Hit { .. } => prop_assert!(expected_hit, "false hit on line {line} at {t}"),
                Probe::Miss => {
                    prop_assert!(!expected_hit, "false miss on line {line} at {t}");
                    cache.fill(line, t as u64);
                }
            }
        }
        // Aggregate counters agree with the replayed stream.
        prop_assert_eq!(cache.accesses(), accesses.len() as u64);
    }

    /// Set-associative mapping isolates sets: accesses to set A never evict
    /// lines of set B.
    #[test]
    fn sets_are_isolated(
        ways in 1u32..4,
        sets_pow in 1u32..4,
        victim_line in 0u64..8,
        noise in prop::collection::vec(0u64..512, 0..200),
    ) {
        let sets = 1u64 << sets_pow;
        let mut cache = Cache::new("prop", geometry(ways, sets * ways as u64));
        // Install the victim.
        prop_assert_eq!(cache.probe(victim_line, 0), Probe::Miss);
        cache.fill(victim_line, 0);
        // Hammer only lines of OTHER sets.
        let victim_set = victim_line % sets;
        let mut t = 1u64;
        for n in noise {
            let line = if n % sets == victim_set { n + 1 } else { n };
            if line % sets == victim_set {
                continue;
            }
            if cache.probe(line, t) == Probe::Miss {
                cache.fill(line, t);
            }
            t += 1;
        }
        // The victim must still be resident.
        prop_assert!(
            matches!(cache.probe(victim_line, t), Probe::Hit { .. }),
            "victim line evicted by other sets"
        );
    }

    /// Miss rate is monotone non-increasing in capacity for a repeated
    /// cyclic scan (a classic sanity property; holds for LRU on cyclic
    /// patterns at these sizes).
    #[test]
    fn bigger_cache_never_hurts_cyclic_scans(span in 1u64..40, rounds in 1usize..6) {
        let miss_rate = |lines: u64| {
            let mut cache = Cache::new("prop", geometry(0, lines));
            let mut t = 0u64;
            for _ in 0..rounds {
                for line in 0..span {
                    if cache.probe(line, t) == Probe::Miss {
                        cache.fill(line, t);
                    }
                    t += 1;
                }
            }
            cache.miss_rate()
        };
        prop_assert!(miss_rate(64) <= miss_rate(8) + 1e-12);
    }
}
