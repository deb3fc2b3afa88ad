//! Golden-digest pin for the data-oriented hot-path refactor: every
//! cell's `SimResults` and epoch-telemetry series must stay *byte
//! identical* to the digests captured on `main` before the SoA/SIMD/
//! enum-dispatch rework landed. `kernel_equiv.rs` proves the two
//! scheduling kernels agree with each other; this test proves the
//! whole simulator still agrees with its own past across policies,
//! kernels, prefetcher presets and geometries (including the full
//! Table V 12/20/12-way caches the SIMD probe has to mask correctly).
//!
//! The sampled cells pin sampled replay the same way: per-interval
//! `SimResults` and the epoch series of `System::run_sampled`, plus the
//! `FunctionalProfile` of a fresh system, so the functional warmup walk
//! is held to its own past as tightly as the timed one.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_HOT_PATH_GOLDEN=1 cargo test -p chrome-bench --test hot_path_golden
//! ```

use chrome_bench::registry::build_any_slot;
use chrome_noc::NocConfig;
use chrome_sim::{Kernel, PrefetcherConfig, SampledInterval, SimConfig, System};
use chrome_telemetry::{TelemetryConfig, TelemetrySink};
use chrome_traces::mix;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/hot_path_digests.txt"
);

/// FNV-1a over the canonical debug rendering — the same stable-hash
/// idiom the grid engine uses for spec hashes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct Cell {
    label: &'static str,
    workload: &'static str,
    scheme: &'static str,
    cores: usize,
    prefetchers: PrefetcherConfig,
    /// Use the full Table V geometry instead of `small_test`.
    full_geometry: bool,
    instructions: u64,
    warmup: u64,
}

fn cells() -> Vec<Cell> {
    let c =
        |label, workload, scheme, cores, prefetchers, full_geometry, instructions, warmup| Cell {
            label,
            workload,
            scheme,
            cores,
            prefetchers,
            full_geometry,
            instructions,
            warmup,
        };
    vec![
        // Policy coverage on the small geometry (8-way LLC).
        c(
            "lru-mcf-1",
            "mcf",
            "LRU",
            1,
            PrefetcherConfig::default_paper(),
            false,
            20_000,
            2_000,
        ),
        c(
            "lru-mcf-4",
            "mcf",
            "LRU",
            4,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "chrome-mcf-1",
            "mcf",
            "CHROME",
            1,
            PrefetcherConfig::default_paper(),
            false,
            20_000,
            2_000,
        ),
        c(
            "chrome-mcf-4",
            "mcf",
            "CHROME",
            4,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "hawkeye-mcf-2",
            "mcf",
            "Hawkeye",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "glider-lib-2",
            "libquantum",
            "Glider",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "mockingjay-mcf-2",
            "mcf",
            "Mockingjay",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "care-mcf-2",
            "mcf",
            "CARE",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        // Prefetcher-kind coverage (every enum arm of the dispatcher).
        c(
            "lru-lib-none",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::none(),
            false,
            16_000,
            1_000,
        ),
        c(
            "lru-lib-ss",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::stride_streamer(),
            false,
            16_000,
            1_000,
        ),
        c(
            "lru-lib-ipcp",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::ipcp(),
            false,
            16_000,
            1_000,
        ),
        // GAP workload + non-power-of-two full Table V geometry
        // (12-way L1, 20-way L2, 12-way LLC: the SIMD probe's masked
        // remainder lanes).
        c(
            "lru-bfs-full",
            "bfs-ur",
            "LRU",
            2,
            PrefetcherConfig::default_paper(),
            true,
            12_000,
            1_000,
        ),
        c(
            "chrome-mcf-full",
            "mcf",
            "CHROME",
            2,
            PrefetcherConfig::default_paper(),
            true,
            12_000,
            1_000,
        ),
    ]
}

/// Sampled-replay cells: `base.instructions` is each interval's
/// measured length and `base.warmup` its detailed ramp; the functional
/// warmup between intervals is what these cells exist to pin.
struct SampledCell {
    base: Cell,
    /// Put the LLC behind the default 4-slice mesh NoC.
    noc: bool,
}

fn sampled_cells() -> Vec<SampledCell> {
    let s = |label, workload, scheme, cores, prefetchers, full_geometry, noc| SampledCell {
        base: Cell {
            label,
            workload,
            scheme,
            cores,
            prefetchers,
            full_geometry,
            instructions: 2_500,
            warmup: 1_500,
        },
        noc,
    };
    vec![
        s(
            "sampled-lru-mcf-1",
            "mcf",
            "LRU",
            1,
            PrefetcherConfig::default_paper(),
            false,
            false,
        ),
        s(
            "sampled-chrome-mcf-4",
            "mcf",
            "CHROME",
            4,
            PrefetcherConfig::default_paper(),
            false,
            false,
        ),
        s(
            "sampled-hawkeye-omnetpp-2",
            "omnetpp",
            "Hawkeye",
            2,
            PrefetcherConfig::default_paper(),
            false,
            false,
        ),
        s(
            "sampled-lru-lib-none",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::none(),
            false,
            false,
        ),
        s(
            "sampled-lru-lib-ss",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::stride_streamer(),
            false,
            false,
        ),
        s(
            "sampled-chrome-lib-ipcp",
            "libquantum",
            "CHROME",
            1,
            PrefetcherConfig::ipcp(),
            false,
            false,
        ),
        s(
            "sampled-lru-mcf-4-noc",
            "mcf",
            "LRU",
            4,
            PrefetcherConfig::default_paper(),
            false,
            true,
        ),
        s(
            "sampled-lru-bfs-full",
            "bfs-ur",
            "LRU",
            2,
            PrefetcherConfig::default_paper(),
            true,
            false,
        ),
    ]
}

fn build_system(cell: &Cell, noc: bool) -> System {
    let mut cfg = if cell.full_geometry {
        SimConfig::with_cores(cell.cores)
    } else {
        SimConfig::small_test(cell.cores)
    };
    cfg.prefetchers = cell.prefetchers;
    if noc {
        cfg.noc = Some(NocConfig::default());
    }
    let traces = mix::homogeneous(cell.workload, cfg.cores, 0xC0FFEE).expect("known workload");
    let policy = build_any_slot(cell.scheme).expect("known scheme");
    System::with_policy(cfg, traces, policy)
}

fn digest_cell(cell: &Cell, kernel: Kernel) -> u64 {
    let mut sys = build_system(cell, false);
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    let results = sys.run_with_kernel(cell.instructions, cell.warmup, kernel);
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    // Canonical rendering: Debug formatting of both payloads. f64 Debug
    // is shortest-roundtrip, so equal digests imply bit-equal floats.
    let rendered = format!("{results:?}|{:?}", epochs.records());
    fnv1a(rendered.as_bytes())
}

/// Three intervals spread over the first ~45K instructions, each core
/// starting a little later than the one before (cores drift in real
/// plans), with functional gaps of 10K+ instructions between them.
fn sampled_plan(cell: &Cell) -> Vec<SampledInterval> {
    [6_000u64, 20_000, 41_000]
        .iter()
        .map(|&at| SampledInterval {
            start: (0..cell.cores as u64).map(|c| at + 700 * c).collect(),
            ramp: cell.warmup,
            detail: cell.instructions,
        })
        .collect()
}

fn digest_sampled_cell(cell: &SampledCell, kernel: Kernel) -> u64 {
    let mut sys = build_system(&cell.base, cell.noc);
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    let results = sys.run_sampled(&sampled_plan(&cell.base), kernel);
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    // The functional-only pass runs on a fresh system, as the grid's
    // reconstruction does: six aligned 7K-instruction intervals.
    let bounds: Vec<u64> = (0..=6).map(|j| j * 7_000).collect();
    let profile =
        build_system(&cell.base, cell.noc).run_functional_profile(&vec![bounds; cell.base.cores]);
    let rendered = format!("{results:?}|{:?}|{profile:?}", epochs.records());
    fnv1a(rendered.as_bytes())
}

const KERNELS: [(&str, Kernel); 2] = [
    ("event", Kernel::EventDriven),
    ("reference", Kernel::Reference),
];

fn timed_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for cell in cells() {
        for (kname, kernel) in KERNELS {
            let digest = digest_cell(&cell, kernel);
            lines.push(format!("{}/{kname} {digest:#018x}", cell.label));
        }
    }
    lines
}

fn sampled_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for cell in sampled_cells() {
        for (kname, kernel) in KERNELS {
            let digest = digest_sampled_cell(&cell, kernel);
            lines.push(format!("{}/{kname} {digest:#018x}", cell.base.label));
        }
    }
    lines
}

/// Compare one test's `label digest` lines against the golden file.
/// Under `REGEN_HOT_PATH_GOLDEN` the whole file is rewritten instead,
/// timed lines first, so either test regenerates both sets.
fn check_against_golden(lines: fn() -> Vec<String>) {
    if std::env::var("REGEN_HOT_PATH_GOLDEN").is_ok() {
        let all = [timed_lines(), sampled_lines()].concat();
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, all.join("\n") + "\n").unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden digest file missing — run with REGEN_HOT_PATH_GOLDEN=1 to create it");
    let golden_map: std::collections::BTreeMap<&str, &str> =
        golden.lines().filter_map(|l| l.split_once(' ')).collect();
    let mut mismatches = Vec::new();
    for line in lines() {
        let (label, digest) = line.split_once(' ').unwrap();
        match golden_map.get(label) {
            Some(&want) if want == digest => {}
            Some(&want) => mismatches.push(format!("{label}: got {digest}, golden {want}")),
            None => mismatches.push(format!("{label}: missing from golden file")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "results diverged from the golden digests:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn hot_paths_match_pre_refactor_golden_digests() {
    check_against_golden(timed_lines);
}

#[test]
fn sampled_replay_matches_golden_digests() {
    check_against_golden(sampled_lines);
}
