//! GPU configuration, including the two evaluation presets of Table II and
//! the proportional downscaling used by Zatel (paper Section III-C).

/// Most lines (and ways) a validated cache level may have: the cache's tag
/// index holds `2 × sets × ways ≤ 2 × max(lines, ways)` buckets addressed
/// by `u32` slots, which `Cache::new` asserts fits in `1 << 31`.
const MAX_CACHE_TAGS: u64 = 1 << 30;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity; `0` means fully associative.
    pub ways: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Load-to-use latency in core cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of cache lines.
    pub fn lines(&self) -> u64 {
        self.bytes / self.line_bytes as u64
    }

    /// Number of sets given the associativity.
    pub fn sets(&self) -> u64 {
        let ways = if self.ways == 0 {
            self.lines()
        } else {
            self.ways as u64
        };
        (self.lines() / ways).max(1)
    }

    /// Effective ways (resolving `0` = fully associative).
    pub fn effective_ways(&self) -> u64 {
        if self.ways == 0 {
            self.lines()
        } else {
            self.ways as u64
        }
    }
}

/// Full GPU configuration.
///
/// Mirrors the structure of the paper's Table II: independent components
/// (SMs), shared components (memory partitions with their L2 slice and DRAM
/// channel), and per-SM resources (warp slots, RT unit). Every field
/// changes what the timing model computes; the Table II values it does
/// not model are listed in DESIGN.md ("Timing-model decisions").
///
/// # Examples
///
/// ```
/// use gpusim::GpuConfig;
///
/// let mobile = GpuConfig::mobile_soc();
/// assert_eq!(mobile.num_sms, 8);
/// assert_eq!(mobile.num_mem_partitions, 4);
/// let down = mobile.downscaled(4).unwrap();
/// assert_eq!(down.num_sms, 2);
/// assert_eq!(down.num_mem_partitions, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Configuration name, e.g. `"Mobile SoC"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Number of memory partitions (each holds an L2 slice and DRAM channel).
    pub num_mem_partitions: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Threads per warp (32 on all modeled GPUs).
    pub warp_size: u32,
    /// Maximum warps concurrently resident in one RT unit.
    pub rt_max_warps: u32,
    /// Rays an RT unit can box/primitive-test per cycle.
    pub rt_lanes_per_cycle: u32,
    /// L1 data cache (per SM).
    pub l1d: CacheConfig,
    /// L2 unified cache (total; split evenly across memory partitions).
    pub l2: CacheConfig,
    /// Interconnect one-way latency in core cycles.
    pub interconnect_latency: u32,
    /// Interconnect port bandwidth in bytes per core cycle (per partition,
    /// per direction).
    pub interconnect_bytes_per_cycle: f32,
    /// Additional DRAM access latency beyond L2, in core cycles.
    pub dram_latency: u32,
    /// DRAM bandwidth per channel in bytes per core cycle.
    pub dram_bytes_per_cycle: f32,
}

/// Error returned when a configuration cannot be downscaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownscaleError {
    /// The factor that was requested.
    pub factor: u32,
    reason: String,
}

impl std::fmt::Display for DownscaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot downscale by {}: {}", self.factor, self.reason)
    }
}

impl std::error::Error for DownscaleError {}

impl GpuConfig {
    /// The Mobile System-on-Chip configuration of Table II.
    pub fn mobile_soc() -> Self {
        GpuConfig {
            name: "Mobile SoC".to_owned(),
            num_sms: 8,
            num_mem_partitions: 4,
            max_warps_per_sm: 32,
            warp_size: 32,
            rt_max_warps: 4,
            rt_lanes_per_cycle: 4,
            l1d: CacheConfig {
                bytes: 64 * 1024,
                ways: 0,
                line_bytes: 128,
                latency: 20,
            },
            l2: CacheConfig {
                bytes: 3 * 1024 * 1024,
                ways: 16,
                line_bytes: 128,
                latency: 160,
            },
            interconnect_latency: 8,
            interconnect_bytes_per_cycle: 32.0,
            dram_latency: 100,
            dram_bytes_per_cycle: 16.0,
        }
    }

    /// The NVIDIA Turing RTX 2060 configuration of Table II.
    pub fn rtx_2060() -> Self {
        GpuConfig {
            name: "RTX 2060".to_owned(),
            num_sms: 30,
            num_mem_partitions: 12,
            max_warps_per_sm: 32,
            warp_size: 32,
            rt_max_warps: 4,
            rt_lanes_per_cycle: 4,
            l1d: CacheConfig {
                bytes: 64 * 1024,
                ways: 0,
                line_bytes: 128,
                latency: 20,
            },
            l2: CacheConfig {
                bytes: 3 * 1024 * 1024,
                ways: 16,
                line_bytes: 128,
                latency: 160,
            },
            interconnect_latency: 8,
            interconnect_bytes_per_cycle: 32.0,
            dram_latency: 100,
            dram_bytes_per_cycle: 16.0,
        }
    }

    /// The downscaling factor Zatel picks for this configuration: the
    /// greatest common divisor of the SM count and memory-partition count
    /// (paper Section III-C). Mobile SoC → 4, RTX 2060 → 6.
    pub fn natural_downscale_factor(&self) -> u32 {
        gcd(self.num_sms, self.num_mem_partitions)
    }

    /// Returns this configuration downscaled by `factor`: SMs and memory
    /// partitions are divided by it. Shared resources scale automatically —
    /// the L2 is sliced per memory partition and DRAM bandwidth is
    /// per-channel, so dividing the partition count divides both, exactly as
    /// the paper argues.
    ///
    /// # Errors
    ///
    /// Returns [`DownscaleError`] if `factor` is zero or does not evenly
    /// divide both component counts, or if the result fails
    /// [`GpuConfig::validate`].
    pub fn downscaled(&self, factor: u32) -> Result<GpuConfig, DownscaleError> {
        if factor == 0 {
            return Err(DownscaleError {
                factor,
                reason: "factor must be positive".into(),
            });
        }
        if !self.num_sms.is_multiple_of(factor) || !self.num_mem_partitions.is_multiple_of(factor) {
            return Err(DownscaleError {
                factor,
                reason: format!(
                    "{} SMs / {} partitions not divisible",
                    self.num_sms, self.num_mem_partitions
                ),
            });
        }
        let mut down = self.clone();
        down.name = format!("{} /{}", self.name, factor);
        down.num_sms = self.num_sms / factor;
        down.num_mem_partitions = self.num_mem_partitions / factor;
        // L2 is physically per-partition: total capacity shrinks with the
        // partition count.
        down.l2.bytes = self.l2.bytes / factor as u64;
        down.validate()
            .map_err(|reason| DownscaleError { factor, reason })?;
        Ok(down)
    }

    /// Total L2 capacity available to one memory partition.
    pub(crate) fn l2_slice(&self) -> CacheConfig {
        CacheConfig {
            bytes: self.l2.bytes / self.num_mem_partitions as u64,
            ..self.l2
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("num_sms must be positive".into());
        }
        if self.num_mem_partitions == 0 {
            return Err("num_mem_partitions must be positive".into());
        }
        if self.warp_size == 0 || self.max_warps_per_sm == 0 {
            return Err("warp geometry must be positive".into());
        }
        if self.l1d.line_bytes != self.l2.line_bytes {
            return Err("L1 and L2 line sizes must match".into());
        }
        if self.l1d.line_bytes == 0 {
            return Err("line_bytes must be positive".into());
        }
        if !self.l2.bytes.is_multiple_of(self.num_mem_partitions as u64) {
            return Err("L2 must divide evenly across memory partitions".into());
        }
        for (name, cache) in [("L1", self.l1d), ("L2 slice", self.l2_slice())] {
            if cache.lines() == 0 {
                return Err(format!("{name} must hold at least one line"));
            }
            if cache.lines().max(cache.effective_ways()) > MAX_CACHE_TAGS {
                return Err(format!(
                    "{name} lines and ways must not exceed {MAX_CACHE_TAGS} (the tag index)"
                ));
            }
        }
        if self.rt_max_warps == 0 || self.rt_lanes_per_cycle == 0 {
            return Err("rt_max_warps and rt_lanes_per_cycle must be positive".into());
        }
        if self.dram_bytes_per_cycle <= 0.0 {
            return Err("dram_bytes_per_cycle must be positive".into());
        }
        if self.interconnect_bytes_per_cycle <= 0.0 {
            return Err("interconnect_bytes_per_cycle must be positive".into());
        }
        Ok(())
    }
}

minijson::record! {
    CacheConfig {
        "bytes" => bytes,
        "ways" => ways,
        "line_bytes" => line_bytes,
        "latency" => latency,
    }
}

minijson::record! {
    GpuConfig {
        "name" => name,
        "num_sms" => num_sms,
        "num_mem_partitions" => num_mem_partitions,
        "max_warps_per_sm" => max_warps_per_sm,
        "warp_size" => warp_size,
        "rt_max_warps" => rt_max_warps,
        "rt_lanes_per_cycle" => rt_lanes_per_cycle,
        "l1d" => l1d,
        "l2" => l2,
        "interconnect_latency" => interconnect_latency,
        "interconnect_bytes_per_cycle" => interconnect_bytes_per_cycle,
        "dram_latency" => dram_latency,
        "dram_bytes_per_cycle" => dram_bytes_per_cycle,
    }
}

/// Greatest common divisor.
pub fn gcd(a: u32, b: u32) -> u32 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_ii() {
        let m = GpuConfig::mobile_soc();
        assert_eq!((m.num_sms, m.num_mem_partitions), (8, 4));
        let r = GpuConfig::rtx_2060();
        assert_eq!((r.num_sms, r.num_mem_partitions), (30, 12));
        for cfg in [m, r] {
            assert_eq!(cfg.warp_size, 32);
            assert_eq!(cfg.max_warps_per_sm, 32);
            assert_eq!(cfg.rt_max_warps, 4);
            assert_eq!(cfg.l1d.bytes, 64 * 1024);
            assert_eq!(cfg.l2.bytes, 3 * 1024 * 1024);
            assert_eq!(cfg.l2.ways, 16);
            cfg.validate().expect("preset must validate");
        }
    }

    #[test]
    fn natural_factors_match_paper() {
        assert_eq!(GpuConfig::mobile_soc().natural_downscale_factor(), 4);
        assert_eq!(GpuConfig::rtx_2060().natural_downscale_factor(), 6);
    }

    #[test]
    fn paper_example_80_sms_10_mcs() {
        let mut cfg = GpuConfig::rtx_2060();
        cfg.num_sms = 80;
        cfg.num_mem_partitions = 10;
        cfg.l2.bytes = 10 * 1024 * 1024;
        assert_eq!(cfg.natural_downscale_factor(), 10);
        let d = cfg.downscaled(10).unwrap();
        assert_eq!((d.num_sms, d.num_mem_partitions), (8, 1));
    }

    #[test]
    fn downscale_divides_shared_resources() {
        let m = GpuConfig::mobile_soc();
        let d = m.downscaled(4).unwrap();
        assert_eq!(d.l2.bytes, m.l2.bytes / 4);
        assert_eq!(d.l2_slice().bytes, m.l2_slice().bytes);
        // Per-channel DRAM bandwidth unchanged; total bandwidth scaled by
        // the partition count implicitly.
        assert_eq!(d.dram_bytes_per_cycle, m.dram_bytes_per_cycle);
        d.validate().expect("downscaled config must stay valid");
    }

    #[test]
    fn downscale_rejects_uneven_factor() {
        let m = GpuConfig::mobile_soc();
        assert!(m.downscaled(3).is_err());
        assert!(m.downscaled(0).is_err());
        let err = m.downscaled(3).unwrap_err();
        assert!(err.to_string().contains("cannot downscale by 3"));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(8, 4), 4);
        assert_eq!(gcd(30, 12), 6);
        assert_eq!(gcd(80, 10), 10);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig {
            bytes: 64 * 1024,
            ways: 0,
            line_bytes: 128,
            latency: 20,
        };
        assert_eq!(c.lines(), 512);
        assert_eq!(c.sets(), 1, "fully associative = one set");
        assert_eq!(c.effective_ways(), 512);
        let c2 = CacheConfig {
            bytes: 1024 * 1024,
            ways: 16,
            line_bytes: 128,
            latency: 160,
        };
        assert_eq!(c2.sets(), 512);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut c = GpuConfig::mobile_soc();
        c.num_sms = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::mobile_soc();
        c.l1d.line_bytes = 64;
        assert!(c.validate().is_err());
    }

    /// `validate`'s message for `mobile_soc()` after `edit`.
    fn rejected(edit: impl FnOnce(&mut GpuConfig)) -> String {
        let mut c = GpuConfig::mobile_soc();
        edit(&mut c);
        c.validate().expect_err("config accepted")
    }

    #[test]
    fn validate_rejects_zero_line_bytes() {
        let err = rejected(|c| (c.l1d.line_bytes, c.l2.line_bytes) = (0, 0));
        assert!(err.contains("line_bytes"), "{err}");
    }

    #[test]
    fn validate_rejects_an_l1_smaller_than_a_line() {
        let err = rejected(|c| c.l1d.bytes = 127);
        assert!(err.contains("L1 must hold at least one line"), "{err}");
    }

    #[test]
    fn validate_rejects_an_l2_slice_smaller_than_a_line() {
        // 4 partitions of 64 bytes each: the total is divisible, a slice
        // still holds no 128-byte line.
        let err = rejected(|c| c.l2.bytes = 256);
        assert!(
            err.contains("L2 slice must hold at least one line"),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_zero_rt_warps_or_lanes() {
        let err = rejected(|c| c.rt_max_warps = 0);
        assert!(err.contains("rt_max_warps"), "{err}");
        let err = rejected(|c| c.rt_lanes_per_cycle = 0);
        assert!(err.contains("rt_lanes_per_cycle"), "{err}");
    }

    #[test]
    fn validate_bounds_the_tag_index() {
        // Exactly at the bound is accepted: the biggest tag index a
        // validated config can ask `Cache::new` for.
        let mut c = GpuConfig::mobile_soc();
        c.l1d.bytes = MAX_CACHE_TAGS * 128;
        c.validate().expect("at the bound");
        let err = rejected(|c| c.l1d.bytes = (MAX_CACHE_TAGS + 1) * 128);
        assert!(err.contains("tag index"), "{err}");
        let err = rejected(|c| c.l2.ways = u32::MAX);
        assert!(err.contains("L2 slice lines and ways"), "{err}");
    }

    #[test]
    fn downscaled_output_is_validated() {
        // Invalid before downscaling, so invalid after: an error, not a
        // config that panics the engine.
        let mut c = GpuConfig::mobile_soc();
        c.rt_max_warps = 0;
        let err = c.downscaled(4).expect_err("invalid output accepted");
        assert!(err.to_string().contains("rt_max_warps"), "{err}");
    }
}
