//! Correctness checks run on every result the benchmark times. A failed
//! check counts against `failed` in the result line and makes the
//! process exit non-zero.

use chrome_serve::CacheStats as ServeStats;
use chrome_sim::{CacheStats, SimResults};

/// Tally of checks run and the descriptions of those that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failed.is_empty()
    }
}

fn check_level(c: &mut Checks, level: &str, s: &CacheStats) {
    c.check(s.demand_misses <= s.demand_accesses, || {
        format!(
            "{level}: {} demand misses > {} accesses",
            s.demand_misses, s.demand_accesses
        )
    });
    c.check(s.prefetch_misses <= s.prefetch_accesses, || {
        format!(
            "{level}: {} prefetch misses > {} accesses",
            s.prefetch_misses, s.prefetch_accesses
        )
    });
}

/// Every core retired exactly its quota, and misses never exceed
/// accesses at any cache level.
pub fn check_sim(c: &mut Checks, r: &SimResults, cores: usize, quota: u64) {
    c.check(r.per_core.len() == cores, || {
        format!("{} cores reported, {cores} simulated", r.per_core.len())
    });
    for (i, core) in r.per_core.iter().enumerate() {
        c.check(core.instructions == quota, || {
            format!("core {i} retired {} of quota {quota}", core.instructions)
        });
    }
    for (i, s) in r.l1d.iter().enumerate() {
        check_level(c, &format!("l1d[{i}]"), s);
    }
    for (i, s) in r.l2.iter().enumerate() {
        check_level(c, &format!("l2[{i}]"), s);
    }
    check_level(c, "llc", &r.llc);
}

/// What one serve round observed from outside the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeObserved {
    /// Requests the clients issued in the measured region.
    pub issued: u64,
    /// Accesses that reported a hit to the clients.
    pub hits: u64,
    /// Value bytes resident after the run.
    pub resident_bytes: u64,
    /// `shards × shard_bytes`.
    pub capacity_bytes: u64,
}

/// Counter identities of the serving cache over the measured region.
pub fn check_serve(c: &mut Checks, s: &ServeStats, o: &ServeObserved) {
    c.check(s.requests == o.issued, || {
        format!(
            "cache counted {} requests, clients issued {}",
            s.requests, o.issued
        )
    });
    c.check(s.hits + s.misses == s.requests, || {
        format!(
            "hits {} + misses {} != requests {}",
            s.hits, s.misses, s.requests
        )
    });
    c.check(s.admits + s.bypasses == s.misses, || {
        format!(
            "admits {} + bypasses {} != misses {}",
            s.admits, s.bypasses, s.misses
        )
    });
    c.check(s.errors == 0, || {
        format!("{} read-path integrity errors", s.errors)
    });
    c.check(o.resident_bytes <= o.capacity_bytes, || {
        format!(
            "{} bytes resident > capacity {}",
            o.resident_bytes, o.capacity_bytes
        )
    });
    c.check(o.hits == s.hits, || {
        format!("clients saw {} hits, cache counted {}", o.hits, s.hits)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_sim::CoreStats;

    fn good_sim() -> SimResults {
        let level = CacheStats {
            demand_accesses: 10,
            demand_misses: 4,
            prefetch_accesses: 6,
            prefetch_misses: 2,
            ..Default::default()
        };
        SimResults {
            per_core: vec![
                CoreStats {
                    instructions: 100,
                    cycles: 80,
                    ..Default::default()
                };
                2
            ],
            l1d: vec![level; 2],
            l2: vec![level; 2],
            llc: level,
            ..Default::default()
        }
    }

    fn sim_fails(r: &SimResults) -> usize {
        let mut c = Checks::default();
        check_sim(&mut c, r, 2, 100);
        c.failed.len()
    }

    #[test]
    fn clean_sim_result_passes() {
        assert_eq!(sim_fails(&good_sim()), 0);
    }

    #[test]
    fn each_doctored_sim_result_trips_its_check() {
        let mut r = good_sim();
        r.per_core.pop();
        assert_eq!(sim_fails(&r), 1, "missing core");
        let mut r = good_sim();
        r.per_core[1].instructions = 99;
        assert_eq!(sim_fails(&r), 1, "short quota");
        let mut r = good_sim();
        r.l1d[0].demand_misses = 11;
        assert_eq!(sim_fails(&r), 1, "l1d demand");
        let mut r = good_sim();
        r.l2[1].prefetch_misses = 7;
        assert_eq!(sim_fails(&r), 1, "l2 prefetch");
        let mut r = good_sim();
        r.llc.demand_misses = 11;
        assert_eq!(sim_fails(&r), 1, "llc demand");
    }

    fn good_serve() -> (ServeStats, ServeObserved) {
        let s = ServeStats {
            requests: 100,
            hits: 40,
            misses: 60,
            admits: 35,
            bypasses: 25,
            evictions: 30,
            errors: 0,
        };
        let o = ServeObserved {
            issued: 100,
            hits: 40,
            resident_bytes: 1000,
            capacity_bytes: 4096,
        };
        (s, o)
    }

    fn serve_fails(s: &ServeStats, o: &ServeObserved) -> usize {
        let mut c = Checks::default();
        check_serve(&mut c, s, o);
        c.failed.len()
    }

    #[test]
    fn each_doctored_serve_result_trips_its_check() {
        let (s, o) = good_serve();
        assert_eq!(serve_fails(&s, &o), 0);

        let (s, mut o) = good_serve();
        o.issued = 101;
        assert_eq!(serve_fails(&s, &o), 1, "lost requests");
        let (mut s, o) = good_serve();
        s.misses = 59;
        s.bypasses = 24;
        assert_eq!(serve_fails(&s, &o), 1, "hits + misses");
        let (mut s, o) = good_serve();
        s.admits = 36;
        assert_eq!(serve_fails(&s, &o), 1, "admits + bypasses");
        let (mut s, o) = good_serve();
        s.errors = 1;
        assert_eq!(serve_fails(&s, &o), 1, "errors");
        let (s, mut o) = good_serve();
        o.resident_bytes = 4097;
        assert_eq!(serve_fails(&s, &o), 1, "over capacity");
        let (s, mut o) = good_serve();
        o.hits = 39;
        assert_eq!(serve_fails(&s, &o), 1, "hit tally");
    }
}
