//! Golden-digest pin for the serving agent: for `chrome` and
//! `chrome-nc` on every request stream, the merged `CacheStats` (plus
//! the latency percentiles) and the binary audit trail must stay
//! byte-identical to the digests below.
//!
//! `determinism.rs` only compares thread counts within one build; this
//! file holds the serve agent to its own past across commits, the way
//! `hot_path_golden` holds the simulator. The digests were captured
//! before the Q-table's row indices were hoisted out of the per-read
//! path, and an optimization of the decision path must leave them
//! unchanged.
//!
//! On a mismatch the test prints the whole table as it now stands;
//! replace `GOLDEN` with it only when an *intentional* change to the
//! agent's behaviour lands.

use chrome_exec::fnv1a64;
use chrome_serve::{bench, BenchParams, PolicyKind, StreamKind};

/// One `policy/stream` line per cell: the stats and audit digests.
const GOLDEN: &str = "\
chrome/zipf stats=0ecc29f63e47a3b7 audit=97b5447d187171c4
chrome/scan stats=0046ef5888d64760 audit=489e128bf51a1dce
chrome/churn stats=36e6101c7c5eb8de audit=98266eff912b6b3a
chrome/mixed stats=79b6732c70869cb4 audit=5305d423a0fd2604
chrome-nc/zipf stats=1b5ad05a45576c15 audit=3847b6d5ed4e96fd
chrome-nc/scan stats=d1cee8c4423bede0 audit=378c582e582c0935
chrome-nc/churn stats=81d228345cc4b05a audit=e494d88aa7e140f5
chrome-nc/mixed stats=8bd59c09d42361a4 audit=ffec5745137ebdb8
";

/// Per-shard audit cap, well above the ~7.5K decisions a shard makes
/// here, so the blob holds every decision and reward.
const AUDIT_CAP: usize = 1 << 20;

fn params(policy: PolicyKind, stream: StreamKind) -> BenchParams {
    BenchParams {
        policy,
        stream,
        threads: 2,
        requests: 60_000,
        keyspace: 8_000,
        seed: 0xD15C,
        shards: 8,
        shard_slots: 128,
        shard_bytes: 64 * 1024,
        time_policy: false,
    }
}

fn digests(policy: PolicyKind, stream: StreamKind) -> (u64, u64) {
    let (r, audit) = bench::run_audited(&params(policy, stream), AUDIT_CAP);
    assert!(!audit.is_empty());
    let summary = format!("{:?} p50={} p99={}", r.stats, r.p50_us, r.p99_us);
    (fnv1a64(summary.as_bytes()), fnv1a64(&audit))
}

#[test]
fn serve_agent_matches_golden_digests() {
    let mut actual = String::new();
    for policy in [PolicyKind::Chrome, PolicyKind::ChromeNc] {
        for stream in StreamKind::all() {
            let (stats, audit) = digests(policy, stream);
            actual.push_str(&format!(
                "{}/{} stats={stats:016x} audit={audit:016x}\n",
                policy.name(),
                stream.name()
            ));
        }
    }
    assert!(
        actual == GOLDEN,
        "serve digests moved; the table now reads:\n{actual}"
    );
}
