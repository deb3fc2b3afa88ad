//! Micro-benchmarks for the hot structures: Q-table lookup and update,
//! CHROME's decision path on both environments, cache access paths,
//! DRAM timing, and workload-generator throughput. These are the
//! operations that bound simulation speed and, conceptually, the
//! hardware's decision latency (paper §V-G estimates ~2 cycles for the
//! pipelined Q-table lookup).
//!
//! Run with `cargo bench -p chrome-bench --features bench-harness`.

use std::collections::HashMap;

use chrome_bench::harness::{bench, black_box};
use chrome_core::agent::Chrome;
use chrome_core::config::ChromeConfig;
use chrome_core::engine::MISS_ACTIONS;
use chrome_core::qtable::{QTable, Rows};
use chrome_serve::{ChromeServePolicy, RequestStream, ShardPolicy, ShardPressure, StreamKind};
use chrome_sim::cache::PrivateCache;
use chrome_sim::config::{CacheConfig, DramConfig};
use chrome_sim::dram::Dram;
use chrome_sim::llc::SharedLlc;
use chrome_sim::policy::{AccessInfo, BuiltinLru, LlcPolicy, SystemFeedback};
use chrome_sim::types::{mix64, LineAddr};
use chrome_sim::SimConfig;

fn bench_qtable() {
    let mut table = QTable::new(2, 4, 2048, 1.582);
    let mut i = 0u64;
    bench("qtable_lookup", || {
        // a miss decision's reads: hash the state into its rows once,
        // then read Q(s,a) for each of the 4 miss actions
        i += 1;
        let rows = table.rows(&[mix64(i), i % 4096]);
        MISS_ACTIONS.map(|a| table.q(&rows, a))
    });
    // the SARSA step reuses the rows an EQ entry stored at decision time
    let stored: Vec<Rows> = (0..4096u64).map(|i| table.rows(&[mix64(i), i])).collect();
    let mut i = 0usize;
    bench("qtable_update", || {
        i += 1;
        table.update(&stored[i % stored.len()], i % 7, 10.0, 0.05)
    });
}

fn bench_chrome_decision() {
    let mut chrome = Chrome::new(ChromeConfig::default());
    chrome.initialize(16384, 12, 4);
    let fb = SystemFeedback::new(4);
    let mut i = 0u64;
    bench("chrome_miss_decision", || {
        i += 1;
        let info = AccessInfo {
            core: (i % 4) as usize,
            pc: 0x400 + (i % 64) * 4,
            line: LineAddr(mix64(i) % (1 << 24)),
            is_prefetch: i.is_multiple_of(5),
            is_write: false,
            cycle: i,
        };
        black_box(chrome.on_miss((mix64(i) % 16384) as usize, &info, &fb))
    });
}

/// One mixed-stream request through a shard's CHROME policy: `admit`
/// on a miss or `on_hit` on a hit, plus the insert/victim bookkeeping
/// an admission triggers, against a 512-slot shard kept by a plain
/// key → slot map. The policy sees only the keys `ServeCache` routes to
/// one shard of the default 16 (servebench's geometry, 20,000 keys), so
/// its EQ fills the 2 of 32 FIFOs a benchmarked shard's does.
fn bench_serve_decision() {
    const SLOTS: u32 = 512;
    let reqs: Vec<_> = RequestStream::generate(StreamKind::MixedTenant, 1 << 20, 20_000, 0xC42)
        .into_iter()
        .filter(|r| mix64(r.key) & 15 == 0)
        .collect();
    let mut policy = ChromeServePolicy::new(SLOTS as usize, 0xC42);
    let calm = ShardPressure::default();
    let mut resident: HashMap<u64, u32> = HashMap::with_capacity(SLOTS as usize);
    let mut slot_key = vec![0u64; SLOTS as usize];
    let mut free: Vec<u32> = (0..SLOTS).collect();
    let mut i = 0usize;
    bench("serve_decision", || {
        let r = &reqs[i % reqs.len()];
        i += 1;
        if let Some(&slot) = resident.get(&r.key) {
            policy.on_hit(slot, r, &calm);
        } else if policy.admit(r, &calm) {
            let slot = free.pop().unwrap_or_else(|| {
                let victim = policy.choose_victim();
                policy.on_remove(victim);
                resident.remove(&slot_key[victim as usize]);
                victim
            });
            resident.insert(r.key, slot);
            slot_key[slot as usize] = r.key;
            policy.on_insert(slot, r, &calm);
        }
    });
}

/// A demand lookup, and a fill on a miss, against one private cache;
/// `lines`, several times the capacity, sets the hit ratio.
fn bench_private_cache(name: &str, cfg: &CacheConfig, lines: u64) {
    let mut cache = PrivateCache::new(cfg);
    let mut i = 0u64;
    bench(name, || {
        i += 1;
        let line = LineAddr(mix64(i) % lines);
        if cache.lookup(line, false, false).is_none() {
            cache.fill(line, false, false, i);
        }
    });
}

/// Each level at its Table V geometry (12-way 48 KiB L1D, 20-way
/// 1.25 MiB L2, 12-way 3 MiB-per-core LLC, here for 4 cores), the LLC
/// on the statically dispatched LRU arm the simulator runs.
fn bench_cache_paths() {
    let paper = SimConfig::with_cores(4);
    bench_private_cache("l1_lookup_fill", &paper.l1d, 4096);
    bench_private_cache("l2_lookup_fill", &paper.l2, 1 << 16);
    let mut llc = SharedLlc::new(&paper.llc(), 4, BuiltinLru::new());
    let fb = SystemFeedback::new(4);
    let mut i = 0u64;
    let mut access = |llc: &mut SharedLlc| {
        i += 1;
        let info = AccessInfo {
            core: (i % 4) as usize,
            pc: 0x400,
            line: LineAddr(mix64(i) % (1 << 20)),
            is_prefetch: false,
            is_write: false,
            cycle: i,
        };
        llc.access(&info, &fb)
    };
    // time the steady state: every way valid, every miss a replacement
    let ways = llc.num_sets() * llc.ways();
    while llc.occupancy() < ways {
        for _ in 0..4096 {
            access(&mut llc);
        }
    }
    bench("llc_access_lru", || black_box(access(&mut llc)));
}

fn bench_dram() {
    let mut dram = Dram::new(DramConfig::default());
    let mut i = 0u64;
    bench("dram_access", || {
        i += 1;
        black_box(dram.access(LineAddr(mix64(i) % (1 << 22)), i * 4, false))
    });
}

/// One record per iteration. GAP kernels regenerate each scanned
/// vertex's adjacency: PageRank walks vertices in order, while the
/// frontier kernels jump between vertices and replay up to 15 others per
/// scan, and the skewed `tw` and `or` graphs pay a `powf` per neighbor.
fn bench_generators() {
    let mut spec = chrome_traces::build_workload("mcf", 1).expect("known");
    bench("trace_gen_spec_mcf", || black_box(spec.next_record()));
    for (name, workload) in [
        ("trace_gen_gap_pr", "pr-ur"),
        ("trace_gen_gap_bfs_ur", "bfs-ur"),
        ("trace_gen_gap_bfs_tw", "bfs-tw"),
        ("trace_gen_gap_sssp_or", "sssp-or"),
    ] {
        let mut gap = chrome_traces::build_workload(workload, 1).expect("known");
        bench(name, || black_box(gap.next_record()));
    }
}

fn main() {
    bench_qtable();
    bench_chrome_decision();
    bench_serve_decision();
    bench_cache_paths();
    bench_dram();
    bench_generators();
}
