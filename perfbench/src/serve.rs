//! The serving workload: CHROME behind the sharded KV cache, driven by a
//! pre-generated mixed-tenant stream from a closed loop of client
//! threads, through public entry points only (`RequestStream::generate`,
//! `ServeCache::new`, `ServeCache::access`).

use std::time::Instant;

use chrome_exec::workload_seed;
use chrome_serve::{
    CacheStats, PolicyKind, PolicyTiming, Request, RequestStream, ServeCache, ServeConfig,
    StreamKind,
};

use crate::checks::{check_serve, Checks, ServeObserved};
use crate::report::{best, call_percentiles, median, ratio, setup_medians, Values, HOOK_METRICS};
use crate::span::{now_ns, per_call, timer_cost_ns, NamedSpan, SpanStat};
use crate::{Outcome, RunOpts, Setup};

/// One serving workload: stream, geometry and budgets.
pub struct ServeWorkload {
    pub name: &'static str,
    /// Measured requests per round.
    pub requests: usize,
    /// Untimed warmup requests per round (served before the measured
    /// ones, from the same stream).
    pub warmup: usize,
    /// Keys per tenant.
    pub keyspace: u64,
    pub shards: usize,
    pub shard_slots: usize,
    pub shard_bytes: u64,
    /// Closed-loop client threads; each owns `shards / threads` shards.
    pub threads: usize,
}

pub const SERVE_MIXED_CHROME: ServeWorkload = ServeWorkload {
    name: "serve-mixed-chrome",
    requests: 1_000_000,
    warmup: 200_000,
    keyspace: 20_000,
    shards: 16,
    shard_slots: 512,
    shard_bytes: 256 * 1024,
    threads: 2,
};

/// What one client thread saw.
#[derive(Default)]
struct Client {
    hits: u64,
    backend_us: u64,
    busy_s: f64,
    access: SpanStat,
}

/// One round's cache, inputs and set-up times.
struct Prepared {
    cache: ServeCache,
    measured: Vec<Vec<Request>>,
    setup: Setup,
    generated: usize,
    generate_ns: u64,
}

/// One timed region's outcome.
struct Measured {
    stats: CacheStats,
    timing: PolicyTiming,
    clients: Vec<Client>,
    wall_s: f64,
    resident_bytes: u64,
}

impl Measured {
    fn hits(&self) -> u64 {
        self.clients.iter().map(|c| c.hits).sum()
    }

    fn backend_us(&self) -> u64 {
        self.clients.iter().map(|c| c.backend_us).sum()
    }
}

fn stats_delta(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        requests: a.requests - b.requests,
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        admits: a.admits - b.admits,
        bypasses: a.bypasses - b.bypasses,
        evictions: a.evictions - b.evictions,
        errors: a.errors - b.errors,
    }
}

fn timing_delta(a: &PolicyTiming, b: &PolicyTiming) -> PolicyTiming {
    PolicyTiming {
        admit_ns: a.admit_ns - b.admit_ns,
        admit_calls: a.admit_calls - b.admit_calls,
        hit_ns: a.hit_ns - b.hit_ns,
        hit_calls: a.hit_calls - b.hit_calls,
        victim_ns: a.victim_ns - b.victim_ns,
        victim_calls: a.victim_calls - b.victim_calls,
        insert_ns: a.insert_ns - b.insert_ns,
        insert_calls: a.insert_calls - b.insert_calls,
    }
}

impl ServeWorkload {
    fn config(&self, seed: u64, time_policy: bool) -> ServeConfig {
        ServeConfig {
            policy: PolicyKind::Chrome,
            shards: self.shards,
            shard_slots: self.shard_slots,
            shard_bytes: self.shard_bytes,
            seed,
            time_policy,
        }
    }

    fn scaled(n: usize, scale: f64) -> usize {
        ((n as f64 * scale) as usize).max(1_000)
    }

    /// Generate and partition the stream, build the cache, and serve the
    /// warmup prefix untimed.
    fn prepare(&self, opts: &RunOpts, time_policy: bool) -> Prepared {
        let warmup = Self::scaled(self.warmup, opts.scale);
        let generated = warmup + Self::scaled(self.requests, opts.scale);
        let t0 = Instant::now();
        let stream_seed = workload_seed(
            StreamKind::MixedTenant.name(),
            self.shards as u32,
            opts.seed,
        );
        let stream = RequestStream::generate(
            StreamKind::MixedTenant,
            generated,
            self.keyspace,
            stream_seed,
        );
        let generate_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let cache = ServeCache::new(&self.config(opts.seed, time_policy));
        let build_s = t1.elapsed().as_secs_f64();

        // Partition per shard, keeping stream order within each shard,
        // so every shard sees the same sequence at any thread count.
        let t2 = Instant::now();
        let partition = |reqs: &[Request]| {
            let mut by_shard: Vec<Vec<Request>> = vec![Vec::new(); self.shards];
            for r in reqs {
                by_shard[cache.shard_index(r.key)].push(*r);
            }
            by_shard
        };
        let warm = partition(&stream[..warmup]);
        let measured = partition(&stream[warmup..]);
        drop(stream);
        let inputs_s = generate_ns as f64 / 1e9 + t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        self.serve(&cache, &warm, false);
        let warmup_s = t3.elapsed().as_secs_f64();
        Prepared {
            cache,
            measured,
            setup: Setup {
                inputs_s,
                build_s,
                warmup_s,
            },
            generated,
            generate_ns,
        }
    }

    /// Closed loop: each client serves its own shards' requests in order,
    /// one at a time. With `timed`, every `access` call is a span.
    fn serve(&self, cache: &ServeCache, by_shard: &[Vec<Request>], timed: bool) -> Vec<Client> {
        let threads = self.threads.clamp(1, self.shards);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut c = Client::default();
                        let t0 = Instant::now();
                        for shard in (t..by_shard.len()).step_by(threads) {
                            for r in &by_shard[shard] {
                                let hit = if timed {
                                    let s = now_ns();
                                    let hit = cache.access(r);
                                    c.access.record(s);
                                    hit
                                } else {
                                    cache.access(r)
                                };
                                if hit {
                                    c.hits += 1;
                                } else {
                                    c.backend_us += u64::from(r.miss_cost_us());
                                }
                            }
                        }
                        c.busy_s = t0.elapsed().as_secs_f64();
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// Time the measured region of a prepared round.
    fn measure(&self, p: &Prepared, timed: bool) -> Measured {
        let stats0 = p.cache.stats();
        let timing0 = p.cache.timing().unwrap_or_default();
        let t0 = Instant::now();
        let clients = self.serve(&p.cache, &p.measured, timed);
        let wall_s = t0.elapsed().as_secs_f64();
        Measured {
            stats: stats_delta(&p.cache.stats(), &stats0),
            timing: timing_delta(&p.cache.timing().unwrap_or_default(), &timing0),
            clients,
            wall_s,
            resident_bytes: p.cache.resident_bytes(),
        }
    }

    fn round(&self, opts: &RunOpts, traced: bool) -> (Prepared, Measured) {
        let p = self.prepare(opts, traced);
        let m = self.measure(&p, traced);
        (p, m)
    }

    /// Run the serve checks on one round; returns whether all passed.
    fn check(&self, checks: &mut Checks, p: &Prepared, m: &Measured) -> bool {
        let before = checks.failed.len();
        let observed = ServeObserved {
            issued: p.measured.iter().map(|s| s.len() as u64).sum(),
            hits: m.hits(),
            resident_bytes: m.resident_bytes,
            capacity_bytes: self.shards as u64 * self.shard_bytes,
        };
        check_serve(checks, &m.stats, &observed);
        checks.failed.len() == before
    }

    pub fn run_plain(&self, opts: &RunOpts) -> Outcome {
        let mut checks = Checks::default();
        let mut rounds: Vec<(Setup, Measured)> = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        let start = Instant::now();
        let mut measured = 0.0;
        while !opts.enough(rounds.len(), measured, start) {
            let (p, m) = self.round(opts, false);
            let mut ok = self.check(&mut checks, &p, &m);
            if let Some((_, first)) = rounds.first() {
                let same = first.stats == m.stats && first.backend_us() == m.backend_us();
                checks.check(same, || {
                    format!("round {} counters differ from round 0", rounds.len())
                });
                ok &= same;
            }
            attempted += m.stats.requests;
            failed += if ok { m.stats.errors } else { m.stats.requests };
            measured += m.wall_s;
            rounds.push((p.setup, m));
        }
        let (_, first) = &rounds[0];
        let requests = first.stats.requests as f64;
        let mops_samples: Vec<f64> = rounds
            .iter()
            .map(|(_, m)| m.stats.requests as f64 / m.wall_s / 1e6)
            .collect();
        let setups: Vec<f64> = rounds.iter().map(|(s, _)| s.total()).collect();
        let backend_us_per_req = first.backend_us() as f64 / requests;

        let mut e2e = Values::new();
        e2e.insert("setup_s", median(&setups));
        e2e.insert("mops", best(&mops_samples));
        e2e.insert("hit_ratio", first.stats.hit_ratio());
        e2e.insert("virtual_ns_per_op", backend_us_per_req * 1e3);
        let human = vec![
            ("serve_rps", "1/s", best(&mops_samples) * 1e6),
            ("serve_hit_ratio", "ratio", first.stats.hit_ratio()),
            ("serve_backend_us_per_req", "vus/req", backend_us_per_req),
        ];
        Outcome {
            checks,
            attempted,
            failed,
            rounds: rounds.len(),
            values: e2e,
            human,
            samples: vec![("mops", mops_samples), ("setup_s", setups)],
            spans_written: None,
        }
    }

    /// Traced run: each round serves the same stream on an untraced and a
    /// traced cache (per-access spans plus the cache's own policy-hook
    /// timing); their counters must be identical.
    pub fn run_traced(&self, opts: &RunOpts) -> Outcome {
        let mut checks = Checks::default();
        let (mut attempted, mut failed) = (0, 0);
        let access = SpanStat::default();
        let mut timing = PolicyTiming::default();
        let (mut wall_plain, mut wall_traced) = (0.0, 0.0);
        let mut busy = vec![0.0; self.threads];
        let mut setups: Vec<Setup> = Vec::new();
        let mut generate: Vec<f64> = Vec::new();
        let mut generated = 0;
        let mut first: Option<Measured> = None;
        let start = Instant::now();
        while !opts.enough(setups.len(), wall_plain + wall_traced, start) {
            let (pp, plain) = self.round(opts, false);
            let (pt, traced) = self.round(opts, true);
            let mut ok = self.check(&mut checks, &pp, &plain);
            let same = traced.stats == plain.stats && traced.backend_us() == plain.backend_us();
            checks.check(same, || "traced counters differ from untraced".to_string());
            ok &= same;
            attempted += plain.stats.requests;
            failed += if ok {
                plain.stats.errors
            } else {
                plain.stats.requests
            };
            for (b, c) in busy.iter_mut().zip(&traced.clients) {
                *b += c.busy_s;
                access.absorb(&c.access);
            }
            timing.merge(&traced.timing);
            wall_plain += plain.wall_s;
            wall_traced += traced.wall_s;
            setups.push(pp.setup);
            generate.push(per_call(pt.generate_ns, pt.generated as u64));
            generated += pt.generated;
            first.get_or_insert(traced);
        }
        let m = first.expect("at least one round ran");
        let s = m.stats;
        let requests = access.calls() as f64;
        let busy_ns = busy.iter().sum::<f64>() * 1e9;

        let mut v = Values::new();
        setup_medians(&setups, &mut v);
        v.insert("trace.timer_ns", timer_cost_ns());
        v.insert("trace_overhead", wall_traced / wall_plain - 1.0);
        v.insert("traces.records", generated as f64);
        v.insert("traces.ns_per_record", median(&generate));
        let timed = [
            (timing.hit_ns, timing.hit_calls),
            (timing.admit_ns, timing.admit_calls),
            (timing.victim_ns, timing.victim_calls),
            (timing.insert_ns, timing.insert_calls),
        ];
        for ((calls_name, ns_name), (ns, calls)) in HOOK_METRICS.into_iter().zip(timed) {
            v.insert(calls_name, calls as f64);
            v.insert(ns_name, per_call(ns, calls));
        }
        let policy_ns = timing.total_ns() as f64;
        let policy_calls =
            timing.admit_calls + timing.hit_calls + timing.victim_calls + timing.insert_calls;
        v.insert(
            "policy.ns_per_call",
            per_call(timing.total_ns(), policy_calls),
        );
        v.insert("policy.share", policy_ns / busy_ns);
        call_percentiles(&access, &mut v);
        let store_ns = access.total_ns() as f64 - policy_ns;
        v.insert("engine.self_share", store_ns / busy_ns);
        v.insert("engine.self_ns_per_op", store_ns / requests);
        v.insert("engine.self_ns_per_access", store_ns / requests);

        let misses = s.misses as f64;
        v.insert("serve.hit_ratio", s.hit_ratio());
        v.insert(
            "serve.backend_us_per_req",
            m.backend_us() as f64 / s.requests as f64,
        );
        v.insert("serve.admit_ratio", ratio(s.admits as f64, misses));
        v.insert("serve.bypass_ratio", ratio(s.bypasses as f64, misses));
        v.insert(
            "serve.evictions_per_req",
            ratio(s.evictions as f64, s.requests as f64),
        );
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        v.insert(
            "serve.thread_busy_imbalance",
            ratio(max_busy, mean_busy) - 1.0,
        );

        let names: Vec<String> = (0..m.clients.len())
            .map(|t| format!("serve.access.client{t}"))
            .collect();
        let spans: Vec<NamedSpan> = m
            .clients
            .iter()
            .zip(&names)
            .map(|(c, name)| NamedSpan {
                name,
                parent: "serve.client",
                stat: &c.access,
            })
            .collect();
        let human = vec![
            ("trace_overhead", "ratio", wall_traced / wall_plain - 1.0),
            ("policy.share", "ratio", policy_ns / busy_ns),
            ("serve.store_share", "ratio", store_ns / busy_ns),
        ];
        Outcome {
            checks,
            attempted,
            failed,
            rounds: setups.len(),
            values: v,
            human,
            samples: Vec::new(),
            spans_written: opts.write_spans(self.name, &spans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> RunOpts {
        RunOpts {
            scale: 0.02,
            min_rounds: 1,
            seconds: 0.0,
            ..RunOpts::for_test(seed)
        }
    }

    #[test]
    fn traced_counters_equal_untraced() {
        let w = &SERVE_MIXED_CHROME;
        let opts = small(3);
        let (_, plain) = w.round(&opts, false);
        let (_, traced) = w.round(&opts, true);
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.backend_us(), traced.backend_us());
        assert!(traced.timing.admit_calls > 0, "policy hooks were timed");
        assert_eq!(
            traced.clients.iter().map(|c| c.access.calls()).sum::<u64>(),
            traced.stats.requests,
            "every access was a span"
        );
    }

    #[test]
    fn runs_pass_their_checks() {
        let w = &SERVE_MIXED_CHROME;
        let plain = w.run_plain(&RunOpts {
            min_rounds: 2,
            ..small(4)
        });
        assert!(plain.checks.passed(), "{:?}", plain.checks.failed);
        assert_eq!(plain.failed, 0);
        let traced = w.run_traced(&small(4));
        assert!(traced.checks.passed(), "{:?}", traced.checks.failed);
        assert!(traced.values["serve.hit_ratio"] > 0.0);
    }
}
