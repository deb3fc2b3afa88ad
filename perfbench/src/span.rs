//! Host-time spans recorded from outside the program.
//!
//! Every layer boundary the benchmark can reach through a public API is
//! timed here: the two simulator extension traits ([`LlcPolicy`],
//! [`TraceSource`]) through transparent decorators, and each serving
//! request around `ServeCache::access`. A [`SpanStat`] keeps, per
//! boundary, the call count, the summed duration, a log-linear duration
//! histogram and the first [`SAMPLE_CAP`] raw spans; everything stays in
//! memory until the run ends and [`write_spans`] dumps it.
//!
//! Each `SpanStat` has exactly one writer thread (decorators live inside
//! one single-stepped `System`; each serve client owns its own stat), so
//! counters are updated with relaxed load + store rather than locked
//! read-modify-writes: atomics only to make the decorators `Send`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use chrome_sim::overhead::StorageOverhead;
use chrome_sim::policy::{AccessInfo, CandidateLine, FillDecision, LlcPolicy, SystemFeedback};
use chrome_sim::trace::TraceSource;
use chrome_sim::types::{LineAddr, TraceRecord};
use chrome_telemetry::{AuditLog, PolicyEpochProbe, TelemetrySink};

/// Raw spans kept per boundary for the span dump.
pub const SAMPLE_CAP: usize = 2048;

/// Histogram buckets: exact below 16 ns, then 16 sub-buckets per power
/// of two (at most 6.25% relative error).
const HIST_LEN: usize = 976;

/// Raw span-clock ticks: the time-stamp counter on x86-64 (a few ns
/// per read, against tens for `Instant::now` on virtualized hosts).
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` only reads the time-stamp counter; it has no
    // memory effects and exists on every x86-64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Raw span-clock ticks: nanoseconds since the first read elsewhere.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, calibrated once against `Instant` over 20 ms.
fn ns_per_tick() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        let (t0, k0) = (Instant::now(), ticks());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (ns, k) = (t0.elapsed().as_nanos() as f64, ticks() - k0);
        if k == 0 {
            1.0
        } else {
            ns / k as f64
        }
    })
}

/// The span clock, in nanoseconds from an arbitrary origin.
#[inline]
pub fn now_ns() -> u64 {
    (ticks() as f64 * ns_per_tick()) as u64
}

fn bucket(ns: u64) -> usize {
    if ns < 16 {
        ns as usize
    } else {
        let e = 63 - ns.leading_zeros();
        ((((e - 3) << 4) as u64) | ((ns >> (e - 4)) & 15)) as usize
    }
}

fn bucket_floor(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let e = (idx >> 4) as u32 + 3;
        (16 + (idx as u64 & 15)) << (e - 4)
    }
}

/// Aggregate of every span recorded at one layer boundary.
pub struct SpanStat {
    calls: AtomicU64,
    ns: AtomicU64,
    hist: Box<[AtomicU64]>,
    samples: Mutex<Vec<(u64, u64)>>,
}

impl Default for SpanStat {
    fn default() -> Self {
        SpanStat {
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            hist: (0..HIST_LEN).map(|_| AtomicU64::new(0)).collect(),
            samples: Mutex::new(Vec::new()),
        }
    }
}

impl SpanStat {
    /// Close a span opened at `start` (a [`now_ns`] reading).
    #[inline]
    pub fn record(&self, start: u64) {
        self.record_dur(start, now_ns().saturating_sub(start));
    }

    /// Record a span of `dur` ns that opened at `start`.
    pub fn record_dur(&self, start: u64, dur: u64) {
        let calls = self.calls.load(Relaxed);
        self.calls.store(calls + 1, Relaxed);
        self.ns.store(self.ns.load(Relaxed) + dur, Relaxed);
        let slot = &self.hist[bucket(dur)];
        slot.store(slot.load(Relaxed) + 1, Relaxed);
        if (calls as usize) < SAMPLE_CAP {
            self.samples
                .lock()
                .expect("span sample lock poisoned")
                .push((start, dur));
        }
    }

    /// Spans recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Summed span duration (ns).
    pub fn total_ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    /// Fold another stat's counters, histogram and (up to the cap) raw
    /// samples into this one.
    pub fn absorb(&self, other: &SpanStat) {
        self.calls.store(self.calls() + other.calls(), Relaxed);
        self.ns.store(self.total_ns() + other.total_ns(), Relaxed);
        for (a, b) in self.hist.iter().zip(other.hist.iter()) {
            a.store(a.load(Relaxed) + b.load(Relaxed), Relaxed);
        }
        let mut mine = self.samples.lock().expect("span sample lock poisoned");
        let room = SAMPLE_CAP.saturating_sub(mine.len());
        mine.extend(other.samples().into_iter().take(room));
    }

    /// The `p`-quantile span duration in ns (bucket floor); 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.calls();
        if count == 0 {
            return 0;
        }
        let target = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (idx, n) in self.hist.iter().enumerate() {
            seen += n.load(Relaxed);
            if seen >= target {
                return bucket_floor(idx);
            }
        }
        bucket_floor(HIST_LEN - 1)
    }

    fn samples(&self) -> Vec<(u64, u64)> {
        self.samples
            .lock()
            .expect("span sample lock poisoned")
            .clone()
    }
}

/// Mean ns per call, 0 when there were no calls.
pub fn per_call(ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

/// Calibrated host cost (ns) of one empty span: open, close, record.
pub fn timer_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let stat = SpanStat::default();
    let t0 = now_ns();
    for _ in 0..N {
        stat.record(now_ns());
    }
    (now_ns() - t0) as f64 / N as f64
}

/// One named boundary in the span dump: its parent boundary and stats.
pub struct NamedSpan<'a> {
    pub name: &'a str,
    pub parent: &'a str,
    pub stat: &'a SpanStat,
}

/// Write every boundary's aggregate and its raw span samples as JSON
/// lines (`{"span":..,"parent":..,"calls":..,"ns":..,"samples":[[start,dur],..]}`).
pub fn write_spans(path: &std::path::Path, spans: &[NamedSpan]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let samples: Vec<String> = s
            .stat
            .samples()
            .iter()
            .map(|(start, dur)| format!("[{start},{dur}]"))
            .collect();
        out.push_str(&format!(
            "{{\"span\":\"{}\",\"parent\":\"{}\",\"calls\":{},\"ns\":{},\"samples\":[{}]}}\n",
            s.name,
            s.parent,
            s.stat.calls(),
            s.stat.total_ns(),
            samples.join(",")
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Span stats of one simulated system: its trace reads and each LLC
/// policy hook. Decorators record only while armed, so the untimed
/// warmup leaves no spans.
#[derive(Default)]
pub struct SimProbes {
    armed: AtomicBool,
    pub next_record: SpanStat,
    pub on_hit: SpanStat,
    pub on_miss: SpanStat,
    pub choose_victim: SpanStat,
    pub on_fill: SpanStat,
    pub on_evict: SpanStat,
    pub on_epoch: SpanStat,
}

impl SimProbes {
    /// Start recording (called at the start of the timed region).
    pub fn arm(&self) {
        self.armed.store(true, Relaxed);
    }

    #[inline]
    fn start(&self) -> Option<u64> {
        self.armed.load(Relaxed).then(now_ns)
    }

    /// `(hook name, stat)` of every policy hook, in trait order.
    pub fn hooks(&self) -> [(&'static str, &SpanStat); 6] {
        [
            ("on_hit", &self.on_hit),
            ("on_miss", &self.on_miss),
            ("choose_victim", &self.choose_victim),
            ("on_fill", &self.on_fill),
            ("on_evict", &self.on_evict),
            ("on_epoch", &self.on_epoch),
        ]
    }
}

#[inline]
fn close(stat: &SpanStat, start: Option<u64>) {
    if let Some(t) = start {
        stat.record(t);
    }
}

/// Transparent timing decorator around an LLC policy: every per-access
/// hook is one span; every other trait method is forwarded untimed.
pub struct TimedPolicy {
    inner: Box<dyn LlcPolicy>,
    probes: Arc<SimProbes>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn LlcPolicy>, probes: Arc<SimProbes>) -> Self {
        TimedPolicy { inner, probes }
    }
}

impl LlcPolicy for TimedPolicy {
    fn initialize(&mut self, num_sets: usize, ways: usize, cores: usize) {
        self.inner.initialize(num_sets, ways, cores);
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo, feedback: &SystemFeedback) {
        let t = self.probes.start();
        self.inner.on_hit(set, way, info, feedback);
        close(&self.probes.on_hit, t);
    }

    fn on_miss(
        &mut self,
        set: usize,
        info: &AccessInfo,
        feedback: &SystemFeedback,
    ) -> FillDecision {
        let t = self.probes.start();
        let d = self.inner.on_miss(set, info, feedback);
        close(&self.probes.on_miss, t);
        d
    }

    fn choose_victim(
        &mut self,
        set: usize,
        candidates: &[CandidateLine],
        info: &AccessInfo,
    ) -> usize {
        let t = self.probes.start();
        let way = self.inner.choose_victim(set, candidates, info);
        close(&self.probes.choose_victim, t);
        way
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo, feedback: &SystemFeedback) {
        let t = self.probes.start();
        self.inner.on_fill(set, way, info, feedback);
        close(&self.probes.on_fill, t);
    }

    fn on_evict(&mut self, set: usize, way: usize, line: LineAddr, was_hit: bool) {
        let t = self.probes.start();
        self.inner.on_evict(set, way, line, was_hit);
        close(&self.probes.on_evict, t);
    }

    fn on_epoch(&mut self, feedback: &SystemFeedback) {
        let t = self.probes.start();
        self.inner.on_epoch(feedback);
        close(&self.probes.on_epoch, t);
    }

    fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.inner.set_telemetry(sink);
    }

    fn epoch_probe(&self) -> PolicyEpochProbe {
        self.inner.epoch_probe()
    }

    fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        self.inner.enable_audit(stream, cap)
    }

    fn audit(&self) -> Option<&AuditLog> {
        self.inner.audit()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn report(&self) -> Vec<(String, f64)> {
        self.inner.report()
    }

    fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead {
        self.inner.storage_overhead(llc_blocks)
    }
}

/// Transparent timing decorator around one core's trace source.
pub struct TimedTrace {
    inner: Box<dyn TraceSource>,
    probes: Arc<SimProbes>,
}

impl TimedTrace {
    pub fn new(inner: Box<dyn TraceSource>, probes: Arc<SimProbes>) -> Self {
        TimedTrace { inner, probes }
    }
}

impl TraceSource for TimedTrace {
    fn next_record(&mut self) -> TraceRecord {
        let t = self.probes.start();
        let r = self.inner.next_record();
        close(&self.probes.next_record, t);
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_floors_bound_values() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 33, 100, 1_000, 65_535, 1 << 40] {
            let b = bucket(ns);
            assert!(b >= last, "bucket order at {ns}");
            last = b;
            assert!(bucket_floor(b) <= ns, "floor above value at {ns}");
            assert_eq!(bucket(bucket_floor(b)), b, "floor in its bucket at {ns}");
        }
        assert!(bucket(u64::MAX) < HIST_LEN);
    }

    #[test]
    fn percentiles_follow_recorded_durations() {
        let s = SpanStat::default();
        for _ in 0..100 {
            s.record(now_ns());
        }
        assert_eq!(s.calls(), 100);
        assert!(s.percentile(0.5) <= s.percentile(0.99));
        assert!(s.samples().len() == 100);
    }
}
