//! Multi-programmed workload mixes (paper §VI).
//!
//! * Homogeneous mixes: `n` copies of the same trace, one per core, each
//!   with a distinct seed (so physical placement differs while the
//!   access character is identical).
//! * Heterogeneous mixes: `n` traces drawn at random from the
//!   memory-intensive SPEC pool; the paper uses 150 four-core, 25
//!   eight-core and 25 sixteen-core mixes.

use chrome_sim::trace::TraceSource;
use chrome_sim::types::mix64;

use crate::spec::spec_workloads;

/// Build a homogeneous mix: `cores` copies of `name`. Returns `None` if
/// the workload name is unknown.
pub fn homogeneous(name: &str, cores: usize, seed: u64) -> Option<Vec<Box<dyn TraceSource>>> {
    (0..cores)
        .map(|i| crate::build_workload(name, seed ^ mix64(i as u64 + 1)))
        .collect()
}

/// Deterministically generate `count` heterogeneous mixes of `cores`
/// workload names drawn from the SPEC pool (sampling with replacement,
/// as in the paper's random-mix methodology).
pub fn heterogeneous_names(cores: usize, count: usize, seed: u64) -> Vec<Vec<&'static str>> {
    let pool = spec_workloads();
    (0..count)
        .map(|m| {
            (0..cores)
                .map(|c| {
                    let r = mix64(seed ^ ((m as u64) << 16) ^ c as u64);
                    pool[(r % pool.len() as u64) as usize]
                })
                .collect()
        })
        .collect()
}

/// Build the trace sources for one heterogeneous mix.
pub fn build_mix(names: &[&str], seed: u64) -> Option<Vec<Box<dyn TraceSource>>> {
    names
        .iter()
        .enumerate()
        .map(|(i, n)| crate::build_workload(n, seed ^ mix64(0xB00 + i as u64)))
        .collect()
}

/// The per-core sources of a workload identity: one source per name of
/// a `+`-joined heterogeneous mix ([`build_mix`]), or `cores` copies of
/// a single workload ([`homogeneous`]). Returns `None` for an unknown
/// name, or for a mix whose name count is not `cores`.
pub fn sources(workload: &str, cores: usize, seed: u64) -> Option<Vec<Box<dyn TraceSource>>> {
    if workload.contains('+') {
        let names: Vec<&str> = workload.split('+').collect();
        if names.len() != cores {
            return None;
        }
        build_mix(&names, seed)
    } else {
        homogeneous(workload, cores, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builds_n_sources() {
        let mix = homogeneous("mcf", 4, 1).expect("mcf exists");
        assert_eq!(mix.len(), 4);
        for s in &mix {
            assert_eq!(s.name(), "mcf");
        }
    }

    #[test]
    fn homogeneous_unknown_is_none() {
        assert!(homogeneous("nope", 4, 1).is_none());
    }

    #[test]
    fn heterogeneous_names_deterministic() {
        let a = heterogeneous_names(4, 150, 7);
        let b = heterogeneous_names(4, 150, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 150);
        assert!(a.iter().all(|m| m.len() == 4));
    }

    #[test]
    fn heterogeneous_names_vary_across_mixes() {
        let mixes = heterogeneous_names(4, 50, 7);
        let distinct: std::collections::HashSet<_> = mixes.iter().collect();
        assert!(distinct.len() > 40, "mixes should mostly differ");
    }

    #[test]
    fn build_mix_produces_sources() {
        let names = ["mcf", "libquantum", "gcc", "soplex"];
        let mix = build_mix(&names, 3).expect("all known");
        assert_eq!(mix.len(), 4);
        assert_eq!(mix[1].name(), "libquantum");
    }

    #[test]
    fn single_entry_mix_builds_one_source() {
        let mix = build_mix(&["mcf"], 3).expect("mcf exists");
        assert_eq!(mix.len(), 1);
        assert_eq!(mix[0].name(), "mcf");
        // a single-entry mix uses the per-slot seed derivation, not the
        // homogeneous one: slot 0 of a mix and core 0 of a homogeneous
        // run of the same workload are different instantiations
        let mut via_mix = build_mix(&["mcf"], 3).unwrap();
        let mut via_homo = homogeneous("mcf", 1, 3).unwrap();
        let differs = (0..64).any(|_| via_mix[0].next_record() != via_homo[0].next_record());
        assert!(differs, "mix and homogeneous seeds must stay independent");
    }

    #[test]
    fn sources_builds_homogeneous_and_checks_mix_width() {
        // a plain name is a homogeneous mix: same seeds, same streams
        let mut homo = sources("mcf", 2, 5).expect("mcf exists");
        let mut direct = homogeneous("mcf", 2, 5).unwrap();
        assert_eq!(homo.len(), 2);
        for (a, b) in homo.iter_mut().zip(&mut direct) {
            assert!((0..64).all(|_| a.next_record() == b.next_record()));
        }
        // a `+`-mix is one source per name, and only at its own width
        let mix = sources("mcf+libquantum", 2, 5).expect("both exist");
        assert_eq!(mix[1].name(), "libquantum");
        assert!(sources("mcf+libquantum", 4, 5).is_none());
        assert!(sources("mcf+libquantum", 1, 5).is_none());
        assert!(sources("nope", 2, 5).is_none());
    }

    #[test]
    fn build_mix_any_unknown_is_none() {
        assert!(build_mix(&["mcf", "nope"], 1).is_none());
        assert!(build_mix(&[], 1).is_some_and(|m| m.is_empty()));
    }

    #[test]
    fn heterogeneous_pool_indexing_wraps_within_bounds() {
        // the pool index is r % pool.len(); sweep enough draws that
        // every residue class is hit and verify all names come from the
        // pool (guards against off-by-one on the wraparound)
        let pool: std::collections::HashSet<_> = spec_workloads().into_iter().collect();
        for cores in [1, 3, 16, 17] {
            for mix in heterogeneous_names(cores, 64, 0xFEED) {
                assert_eq!(mix.len(), cores);
                for name in mix {
                    assert!(pool.contains(name), "{name} escaped the pool");
                }
            }
        }
        // the full pool is reachable: with many draws every workload
        // should appear at least once
        let seen: std::collections::HashSet<_> = heterogeneous_names(4, 400, 1)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(seen.len(), pool.len(), "every pool entry is drawable");
    }

    #[test]
    fn homogeneous_per_core_seeds_differ() {
        // copies of the same workload must not be lockstep-identical:
        // each core gets a distinct derived seed
        let mut mix = homogeneous("libquantum", 2, 9).unwrap();
        let (a, b) = mix.split_at_mut(1);
        let differs = (0..256).any(|_| a[0].next_record() != b[0].next_record());
        assert!(differs, "core 0 and core 1 replay identical streams");
    }

    #[test]
    fn zero_core_homogeneous_is_empty() {
        let mix = homogeneous("mcf", 0, 1).expect("vacuously buildable");
        assert!(mix.is_empty());
    }
}
