//! Declarative simulation-cell specs and their stable content hashes.
//!
//! A [`CellSpec`] names everything that determines a cell's output:
//! experiment, workload (or `+`-joined mix), scheme, system size,
//! instruction budget, base seed and prefetcher configuration. Two
//! hashes derive from it:
//!
//! * [`CellSpec::spec_hash`] — over every field; the checkpoint key in
//!   the run manifest. Any change to the cell's definition changes the
//!   hash, so `--resume` never reuses a stale result.
//! * [`CellSpec::workload_seed`] — over the workload-identity fields
//!   only (`workload`, `cores`, `seed`). All schemes evaluated on the
//!   same workload must replay the *same* trace, so the trace-generator
//!   seed must not depend on the scheme (or budget) under test.
//!
//! Both use FNV-1a over a canonical `key=value` rendering — stable
//! across platforms, compilers and runs, unlike `std`'s `Hasher`s.

/// FNV-1a 64-bit over a byte string. Stable by construction.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — diffuses an FNV hash into a well-mixed seed.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic trace-generator seed for a workload identity.
/// Free-function form of [`CellSpec::workload_seed`] so trace tooling
/// can derive grid-matching generator seeds without building a full
/// spec.
#[must_use]
pub fn workload_seed(workload: &str, cores: u32, seed: u64) -> u64 {
    let identity = format!("workload={workload};cores={cores};seed={seed}");
    splitmix64(fnv1a64(identity.as_bytes()))
}

/// One schedulable simulation cell: `(workload, scheme, cores,
/// instructions, seed)` plus the knobs the experiments vary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Owning experiment (e.g. `"fig06_4core_spec"`); part of the
    /// checkpoint key so equal cells from different experiments never
    /// alias in a shared manifest or artifact directory.
    pub experiment: String,
    /// Workload name, or a `+`-joined heterogeneous mix
    /// (e.g. `"mcf+libquantum"`).
    pub workload: String,
    /// Replacement-scheme name as understood by the policy registry.
    pub scheme: String,
    /// Cores in the simulated system.
    pub cores: u32,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Base seed; the effective trace seed is [`CellSpec::workload_seed`].
    pub seed: u64,
    /// Prefetcher-configuration tag (e.g. `"paper"`, `"ipcp"`).
    pub prefetch: String,
    /// Track evicted-unused block outcomes (Fig. 2/6/9).
    pub track_unused: bool,
    /// Record the epoch-resolved telemetry series (Table VII).
    pub record_epochs: bool,
    /// Content hash (fixed-width hex) of the trace file backing this
    /// cell, empty when traces come from the live generator. File-backed
    /// cells mix the trace content into the spec hash, so `--resume`
    /// never pairs a checkpoint with a different trace revision; the
    /// empty default keeps generator-backed hashes (and thus existing
    /// manifests) unchanged.
    pub trace: String,
    /// Representative-interval sampling spec (`k=<k>,ramp=<n>` form),
    /// empty for full simulation. Folded into the spec hash the same
    /// conditional way as `trace`, so sampled and full runs of the same
    /// cell never share a checkpoint and full-run hashes are unchanged.
    /// Must not contain `;` (the canonical-form field separator).
    pub sampling: String,
    /// Canonical mesh-NoC configuration (`slices=..,hop=..,flits=..,
    /// depth=..` form), empty for the classic uniform-latency LLC.
    /// Folded into the spec hash only when set, like `trace`, so NoC-off
    /// hashes (and existing manifests) are unchanged. Must not contain
    /// `;`.
    pub noc: String,
}

impl CellSpec {
    /// Canonical `key=value;` rendering every hash is computed over.
    /// Field order is part of the format; never reorder. The `trace`
    /// field is appended only when set, so generator-backed specs hash
    /// exactly as they did before trace files existed.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "experiment={};workload={};scheme={};cores={};instructions={};\
             warmup={};seed={};prefetch={};track_unused={};record_epochs={}",
            self.experiment,
            self.workload,
            self.scheme,
            self.cores,
            self.instructions,
            self.warmup,
            self.seed,
            self.prefetch,
            self.track_unused,
            self.record_epochs,
        );
        if !self.trace.is_empty() {
            s.push_str(";trace=");
            s.push_str(&self.trace);
        }
        if !self.sampling.is_empty() {
            debug_assert!(
                !self.sampling.contains(';'),
                "sampling spec must not contain the field separator"
            );
            s.push_str(";sampling=");
            s.push_str(&self.sampling);
        }
        if !self.noc.is_empty() {
            debug_assert!(
                !self.noc.contains(';'),
                "noc spec must not contain the field separator"
            );
            s.push_str(";noc=");
            s.push_str(&self.noc);
        }
        s
    }

    /// Stable content hash over every field — the manifest key.
    #[must_use]
    pub fn spec_hash(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// [`CellSpec::spec_hash`] as fixed-width hex (manifest/file form).
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.spec_hash())
    }

    /// Deterministic trace-generator seed: a function of the workload
    /// identity (`workload`, `cores`, base `seed`) only, so every
    /// scheme compared on this workload replays identical traces, at
    /// any thread count and in any execution order.
    #[must_use]
    pub fn workload_seed(&self) -> u64 {
        workload_seed(&self.workload, self.cores, self.seed)
    }

    /// Human-readable cell label for progress and failure reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}:{}", self.experiment, self.workload, self.scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            experiment: "fig06".into(),
            workload: "mcf".into(),
            scheme: "CHROME".into(),
            cores: 4,
            instructions: 3_000_000,
            warmup: 600_000,
            seed: 0x5EED,
            prefetch: "paper".into(),
            track_unused: false,
            record_epochs: false,
            trace: String::new(),
            sampling: String::new(),
            noc: String::new(),
        }
    }

    #[test]
    fn hash_is_stable_across_calls_and_clones() {
        let s = spec();
        assert_eq!(s.spec_hash(), s.clone().spec_hash());
        // pin the value: the manifest format depends on hash stability
        // across builds, so a change here invalidates old manifests
        assert_eq!(s.hash_hex().len(), 16);
    }

    #[test]
    fn every_field_feeds_the_spec_hash() {
        let base = spec();
        let mut variants = Vec::new();
        for f in 0..13 {
            let mut v = base.clone();
            match f {
                0 => v.experiment = "fig10".into(),
                1 => v.workload = "gcc".into(),
                2 => v.scheme = "LRU".into(),
                3 => v.cores = 8,
                4 => v.instructions += 1,
                5 => v.warmup += 1,
                6 => v.seed += 1,
                7 => v.prefetch = "ipcp".into(),
                8 => v.track_unused = true,
                9 => v.record_epochs = true,
                10 => v.trace = "00000000deadbeef".into(),
                11 => v.sampling = "k=5,ramp=2000".into(),
                _ => v.noc = "slices=4,hop=2,flits=1,depth=8".into(),
            }
            variants.push(v.spec_hash());
        }
        variants.push(base.spec_hash());
        variants.sort_unstable();
        variants.dedup();
        assert_eq!(variants.len(), 14, "hash collision across field variants");
    }

    #[test]
    fn empty_trace_keeps_legacy_canonical_form() {
        // generator-backed specs must hash exactly as before the trace
        // field existed, or every existing manifest would be invalidated
        let s = spec();
        assert!(!s.canonical().contains("trace="));
        let mut t = s.clone();
        t.trace = "00000000deadbeef".into();
        assert!(t.canonical().ends_with(";trace=00000000deadbeef"));
        assert_ne!(s.spec_hash(), t.spec_hash());
        // a different trace revision is a different checkpoint identity
        let mut t2 = s.clone();
        t2.trace = "00000000deadbee0".into();
        assert_ne!(t.spec_hash(), t2.spec_hash());
    }

    #[test]
    fn empty_sampling_keeps_legacy_canonical_form() {
        // full-simulation specs must hash exactly as before the
        // sampling axis existed, and a sampled cell can never resume
        // from a full cell's checkpoint (or vice versa)
        let s = spec();
        assert!(!s.canonical().contains("sampling="));
        let mut k5 = s.clone();
        k5.sampling = "k=5,ramp=2000".into();
        assert!(k5.canonical().ends_with(";sampling=k=5,ramp=2000"));
        assert_ne!(s.spec_hash(), k5.spec_hash());
        let mut k3 = s.clone();
        k3.sampling = "k=3,ramp=2000".into();
        assert_ne!(k5.spec_hash(), k3.spec_hash());
    }

    #[test]
    fn empty_noc_keeps_legacy_canonical_form() {
        // NoC-off specs must hash exactly as before the NoC axis
        // existed, so existing manifests stay valid.
        let s = spec();
        assert!(!s.canonical().contains("noc="));
        let mut noc = s.clone();
        noc.noc = "slices=4,hop=2,flits=1,depth=8".into();
        assert!(noc
            .canonical()
            .ends_with(";noc=slices=4,hop=2,flits=1,depth=8"));
        assert_ne!(s.spec_hash(), noc.spec_hash());
    }

    #[test]
    fn workload_seed_free_function_matches_method() {
        let s = spec();
        assert_eq!(s.workload_seed(), workload_seed("mcf", 4, 0x5EED));
    }

    #[test]
    fn workload_seed_ignores_scheme_and_budget() {
        let base = spec();
        let mut other_scheme = base.clone();
        other_scheme.scheme = "LRU".into();
        other_scheme.instructions *= 10;
        other_scheme.experiment = "fig11".into();
        assert_eq!(base.workload_seed(), other_scheme.workload_seed());
        let mut other_wl = base.clone();
        other_wl.workload = "gcc".into();
        assert_ne!(base.workload_seed(), other_wl.workload_seed());
        let mut other_cores = base.clone();
        other_cores.cores = 8;
        assert_ne!(base.workload_seed(), other_cores.workload_seed());
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a 64 of the empty string is the offset basis
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
