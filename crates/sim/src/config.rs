//! Simulated system configuration (paper Table V defaults).

/// Which hardware prefetcher to instantiate at a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No prefetching at this level.
    None,
    /// Next-line prefetcher.
    NextLine,
    /// Per-PC stride prefetcher (Fu & Patel style).
    Stride,
    /// Streamer prefetcher (Chen & Baer style stream detector).
    Streamer,
    /// IPCP-style instruction-pointer classifier prefetcher.
    Ipcp,
}

/// Prefetchers at L1 and L2 (the paper evaluates three combinations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Prefetcher observing L1D demand accesses.
    pub l1: PrefetcherKind,
    /// Prefetcher observing L2 demand accesses.
    pub l2: PrefetcherKind,
}

impl PrefetcherConfig {
    /// Paper default (CRC-2 methodology): next-line at L1, stride at L2.
    pub fn default_paper() -> Self {
        PrefetcherConfig {
            l1: PrefetcherKind::NextLine,
            l2: PrefetcherKind::Stride,
        }
    }

    /// The Fig. 3(b)/Fig. 14 alternative: stride at L1, streamer at L2.
    pub fn stride_streamer() -> Self {
        PrefetcherConfig {
            l1: PrefetcherKind::Stride,
            l2: PrefetcherKind::Streamer,
        }
    }

    /// The Fig. 14 IPCP configuration (IPCP at L2, next-line at L1).
    pub fn ipcp() -> Self {
        PrefetcherConfig {
            l1: PrefetcherKind::NextLine,
            l2: PrefetcherKind::Ipcp,
        }
    }

    /// No prefetching anywhere (used for MPKI-based workload screening).
    pub fn none() -> Self {
        PrefetcherConfig {
            l1: PrefetcherKind::None,
            l2: PrefetcherKind::None,
        }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Access latency in core cycles.
    pub latency: u64,
    /// Number of MSHR entries (outstanding misses).
    pub mshr_entries: usize,
}

impl CacheConfig {
    /// Number of sets implied by capacity / ways / 64B lines.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * crate::types::LINE_SIZE as usize)
    }
}

/// DRAM timing parameters, expressed in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Row-precharge time in core cycles (tRP).
    pub t_rp: u64,
    /// Row-to-column delay in core cycles (tRCD).
    pub t_rcd: u64,
    /// Column access strobe latency in core cycles (tCAS).
    pub t_cas: u64,
    /// Cycles the channel data bus is occupied per 64B transfer.
    pub burst: u64,
    /// Number of lines per DRAM row (row-buffer size / 64B).
    pub lines_per_row: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // DDR4-3200 on a 4 GHz core: 12.5ns = 50 cycles; 64B over a 64-bit
        // channel at 3200 MT/s = 20ns/8B*... = 2.5ns ≈ 10 core cycles.
        DramConfig {
            channels: 2,
            ranks: 2,
            banks: 8,
            t_rp: 50,
            t_rcd: 50,
            t_cas: 50,
            burst: 10,
            lines_per_row: 128, // 8KB row buffer
        }
    }
}

/// Full system configuration. Defaults follow the paper's Table V.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cores (the paper uses 4, 8 and 16).
    pub cores: usize,
    /// Fetch/execute/commit width.
    pub width: usize,
    /// Reorder buffer capacity.
    pub rob_size: usize,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2 cache.
    pub l2: CacheConfig,
    /// Shared LLC capacity *per core* in bytes (total = per-core × cores).
    pub llc_per_core: usize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC access latency in cycles.
    pub llc_latency: u64,
    /// LLC MSHR entries per slice (scaled by core count).
    pub llc_mshr_per_slice: usize,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Prefetcher selection.
    pub prefetchers: PrefetcherConfig,
    /// Prefetch degree (lines issued per trigger).
    pub prefetch_degree: usize,
    /// Length of the system-feedback epoch in cycles (100K in the paper).
    pub epoch_cycles: u64,
    /// Mesh NoC timing between cores and address-interleaved LLC
    /// slices. `None` (the default) keeps the classic uniform-latency
    /// LLC, byte-identical to every pre-NoC result.
    pub noc: Option<chrome_noc::NocConfig>,
}

impl SimConfig {
    /// Table V configuration with the given number of cores.
    pub fn with_cores(cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        SimConfig {
            cores,
            width: 6,
            rob_size: 512,
            l1d: CacheConfig {
                capacity: 48 * 1024,
                ways: 12,
                latency: 5,
                mshr_entries: 16,
            },
            l2: CacheConfig {
                capacity: 1280 * 1024,
                ways: 20,
                latency: 10,
                mshr_entries: 48,
            },
            llc_per_core: 3 * 1024 * 1024,
            llc_ways: 12,
            llc_latency: 40,
            llc_mshr_per_slice: 64,
            dram: DramConfig::default(),
            prefetchers: PrefetcherConfig::default_paper(),
            prefetch_degree: 2,
            epoch_cycles: 100_000,
            noc: None,
        }
    }

    /// Total LLC geometry as a [`CacheConfig`].
    pub fn llc(&self) -> CacheConfig {
        CacheConfig {
            capacity: self.llc_per_core * self.cores,
            ways: self.llc_ways,
            latency: self.llc_latency,
            mshr_entries: self.llc_mshr_per_slice * self.cores,
        }
    }

    /// A scaled-down configuration for fast unit/property tests: small
    /// caches so interesting events (misses, evictions) happen quickly.
    pub fn small_test(cores: usize) -> Self {
        let mut cfg = Self::with_cores(cores);
        cfg.l1d = CacheConfig {
            capacity: 4 * 1024,
            ways: 4,
            latency: 5,
            mshr_entries: 8,
        };
        cfg.l2 = CacheConfig {
            capacity: 16 * 1024,
            ways: 8,
            latency: 10,
            mshr_entries: 16,
        };
        cfg.llc_per_core = 64 * 1024;
        cfg.llc_ways = 8;
        cfg.epoch_cycles = 10_000;
        cfg
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::with_cores(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_geometry() {
        let cfg = SimConfig::with_cores(4);
        assert_eq!(cfg.l1d.sets(), 64); // 48KB / (12 * 64)
        assert_eq!(cfg.l2.sets(), 1024); // 1.25MB / (20 * 64)
        assert_eq!(cfg.llc().sets(), 16384); // 12MB / (12 * 64)
    }

    #[test]
    fn llc_scales_with_cores() {
        assert_eq!(SimConfig::with_cores(8).llc().sets(), 32768);
        assert_eq!(SimConfig::with_cores(16).llc().sets(), 65536);
        assert_eq!(SimConfig::with_cores(16).llc().mshr_entries, 64 * 16);
    }

    #[test]
    fn prefetcher_presets() {
        assert_eq!(
            PrefetcherConfig::default_paper().l1,
            PrefetcherKind::NextLine
        );
        assert_eq!(
            PrefetcherConfig::stride_streamer().l2,
            PrefetcherKind::Streamer
        );
        assert_eq!(PrefetcherConfig::ipcp().l2, PrefetcherKind::Ipcp);
        assert_eq!(PrefetcherConfig::none().l1, PrefetcherKind::None);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SimConfig::with_cores(0);
    }
}
