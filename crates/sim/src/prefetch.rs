//! Hardware prefetchers: next-line, per-PC stride, streamer, and an
//! IPCP-style instruction-pointer classifier.
//!
//! Prefetchers observe demand accesses at their cache level and propose
//! additional line addresses to fetch. Proposals are clamped to the same
//! physical page (standard hardware practice, since the prefetcher works
//! on physical addresses past the TLB).

use crate::config::PrefetcherKind;
use crate::types::LineAddr;

/// Where a prefetched line should be filled.
///
/// Near prefetches land close to the core; far (lookahead) prefetches
/// fill only the LLC, as championship-simulator prefetchers do — this is
/// what creates LLC prefetch hits for prefetch-aware LLC policies to
/// manage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillLevel {
    /// Fill L1 (and everything below).
    L1,
    /// Fill L2 and the LLC, but not L1.
    L2,
    /// Fill only the shared LLC.
    LlcOnly,
}

/// One prefetch proposal: a target line and its fill level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// The line to fetch.
    pub line: LineAddr,
    /// How deep the fill should go.
    pub fill: FillLevel,
}

impl PrefetchRequest {
    /// Convenience constructor.
    pub fn new(line: LineAddr, fill: FillLevel) -> Self {
        PrefetchRequest { line, fill }
    }
}

/// A hardware prefetcher observing one cache level.
pub trait Prefetcher {
    /// Observe a demand access at this level and append prefetch
    /// candidates to `out`. `hit` reports whether the demand access hit.
    fn on_access(&mut self, pc: u64, line: LineAddr, hit: bool, out: &mut Vec<PrefetchRequest>);

    /// Prefetcher name for diagnostics.
    fn name(&self) -> &str;
}

/// All built-in prefetchers as a closed enum. The memory hierarchy
/// observes one of these per core per level on *every* L1/L2 access,
/// so the dispatch is a jump table over inlined bodies instead of a
/// vtable load + indirect call per access.
#[derive(Debug, Clone)]
pub enum AnyPrefetcher {
    /// The null prefetcher.
    None(NoPrefetcher),
    /// Next-`degree`-lines.
    NextLine(NextLine),
    /// Per-PC stride (Fu & Patel).
    Stride(StridePrefetcher),
    /// Page-stream runner (Chen & Baer).
    Streamer(Streamer),
    /// IP classifier (Pakalapati & Panda).
    Ipcp(Ipcp),
}

impl AnyPrefetcher {
    /// Construct a prefetcher of the given kind with the given degree.
    pub fn build(kind: PrefetcherKind, degree: usize) -> Self {
        match kind {
            PrefetcherKind::None => AnyPrefetcher::None(NoPrefetcher),
            PrefetcherKind::NextLine => AnyPrefetcher::NextLine(NextLine { degree }),
            PrefetcherKind::Stride => AnyPrefetcher::Stride(StridePrefetcher::new(degree)),
            PrefetcherKind::Streamer => AnyPrefetcher::Streamer(Streamer::new(degree)),
            PrefetcherKind::Ipcp => AnyPrefetcher::Ipcp(Ipcp::new(degree)),
        }
    }

    /// Statically-dispatched access hook; see [`Prefetcher::on_access`].
    #[inline]
    pub fn on_access(
        &mut self,
        pc: u64,
        line: LineAddr,
        hit: bool,
        out: &mut Vec<PrefetchRequest>,
    ) {
        match self {
            AnyPrefetcher::None(p) => p.on_access(pc, line, hit, out),
            AnyPrefetcher::NextLine(p) => p.on_access(pc, line, hit, out),
            AnyPrefetcher::Stride(p) => p.on_access(pc, line, hit, out),
            AnyPrefetcher::Streamer(p) => p.on_access(pc, line, hit, out),
            AnyPrefetcher::Ipcp(p) => p.on_access(pc, line, hit, out),
        }
    }

    /// Prefetcher name for diagnostics.
    pub fn name(&self) -> &str {
        match self {
            AnyPrefetcher::None(p) => Prefetcher::name(p),
            AnyPrefetcher::NextLine(p) => Prefetcher::name(p),
            AnyPrefetcher::Stride(p) => Prefetcher::name(p),
            AnyPrefetcher::Streamer(p) => Prefetcher::name(p),
            AnyPrefetcher::Ipcp(p) => Prefetcher::name(p),
        }
    }
}

#[inline]
fn same_page(a: LineAddr, b: LineAddr) -> bool {
    a.page_number() == b.page_number()
}

/// The null prefetcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn on_access(&mut self, _: u64, _: LineAddr, _: bool, _: &mut Vec<PrefetchRequest>) {}

    fn name(&self) -> &str {
        "none"
    }
}

/// Prefetch the next `degree` sequential lines.
#[derive(Debug, Clone, Copy)]
pub struct NextLine {
    degree: usize,
}

impl Prefetcher for NextLine {
    fn on_access(&mut self, _: u64, line: LineAddr, _: bool, out: &mut Vec<PrefetchRequest>) {
        let mut next = line;
        for _ in 0..self.degree {
            next = next.next();
            if !same_page(line, next) {
                break;
            }
            out.push(PrefetchRequest::new(next, FillLevel::L1));
        }
    }

    fn name(&self) -> &str {
        "next-line"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc_tag: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
}

/// Classic per-PC stride prefetcher (Fu & Patel).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: usize,
}

impl StridePrefetcher {
    /// 256-entry PC-indexed stride table.
    pub fn new(degree: usize) -> Self {
        StridePrefetcher {
            table: vec![StrideEntry::default(); 256],
            degree,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn on_access(&mut self, pc: u64, line: LineAddr, _: bool, out: &mut Vec<PrefetchRequest>) {
        let idx = (pc as usize ^ (pc >> 8) as usize) % self.table.len();
        let e = &mut self.table[idx];
        if e.pc_tag != pc {
            *e = StrideEntry {
                pc_tag: pc,
                last_line: line.0,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let delta = line.0 as i64 - e.last_line as i64;
        e.last_line = line.0;
        if delta == 0 {
            return;
        }
        if delta == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            if e.confidence > 0 {
                e.confidence -= 1;
            }
            if e.confidence == 0 {
                e.stride = delta;
            }
            return;
        }
        if e.confidence >= 2 {
            // prefetch with lookahead distance so the stream arrives
            // ahead of the demand wavefront
            const DISTANCE: i64 = 12;
            for k in 1..=self.degree as i64 {
                // far lookahead fills only the LLC
                let target = line.offset(e.stride * (DISTANCE + k));
                if same_page(line, target) && target != line {
                    out.push(PrefetchRequest::new(target, FillLevel::LlcOnly));
                }
                // the near window fills L2
                let near = line.offset(e.stride * k);
                if same_page(line, near) && near != line {
                    out.push(PrefetchRequest::new(near, FillLevel::L2));
                }
            }
        }
    }

    fn name(&self) -> &str {
        "stride"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    page: u64,
    last_line: u64,
    /// How far ahead of the demand stream prefetching has reached.
    ahead: u64,
    dir: i8,
    confidence: u8,
    valid: bool,
    lru: u64,
}

/// Streamer prefetcher (Chen & Baer style): detects monotonic streams
/// within a page and runs ahead of them.
#[derive(Debug, Clone)]
pub struct Streamer {
    streams: Vec<Stream>,
    degree: usize,
    tick: u64,
}

impl Streamer {
    /// 16 concurrent stream trackers.
    pub fn new(degree: usize) -> Self {
        Streamer {
            streams: vec![Stream::default(); 16],
            degree,
            tick: 0,
        }
    }
}

impl Prefetcher for Streamer {
    fn on_access(&mut self, _: u64, line: LineAddr, _: bool, out: &mut Vec<PrefetchRequest>) {
        self.tick += 1;
        let page = line.page_number();
        if let Some(s) = self.streams.iter_mut().find(|s| s.valid && s.page == page) {
            let delta = line.0 as i64 - s.last_line as i64;
            s.last_line = line.0;
            s.lru = self.tick;
            if delta == 0 {
                return;
            }
            let dir = if delta > 0 { 1 } else { -1 };
            if dir == s.dir as i64 {
                s.confidence = (s.confidence + 1).min(3);
            } else {
                s.dir = dir as i8;
                s.confidence = 0;
                s.ahead = line.0;
            }
            if s.confidence >= 1 {
                // run ahead of the demand wavefront: continue from the
                // ahead pointer, up to `depth` lines past the demand
                let depth = 4 * self.degree as i64 + 8;
                let issue = (self.degree * 2).max(2);
                let mut next = if dir > 0 {
                    s.ahead.max(line.0) + 1
                } else {
                    s.ahead.min(line.0).saturating_sub(1)
                };
                let mut issued = 0;
                while issued < issue {
                    let target = LineAddr(next);
                    let dist = target.0 as i64 - line.0 as i64;
                    if !same_page(line, target) || dist.abs() > depth || target == line {
                        break;
                    }
                    let fill = if dist.unsigned_abs() <= self.degree as u64 + 2 {
                        FillLevel::L2
                    } else {
                        FillLevel::LlcOnly
                    };
                    out.push(PrefetchRequest::new(target, fill));
                    s.ahead = next;
                    issued += 1;
                    next = if dir > 0 {
                        next + 1
                    } else {
                        next.saturating_sub(1)
                    };
                    if next == 0 {
                        break;
                    }
                }
            }
        } else {
            let victim = self
                .streams
                .iter_mut()
                .min_by_key(|s| if s.valid { s.lru } else { 0 })
                .expect("streams nonempty");
            *victim = Stream {
                page,
                last_line: line.0,
                ahead: line.0,
                dir: 1,
                confidence: 0,
                valid: true,
                lru: self.tick,
            };
        }
    }

    fn name(&self) -> &str {
        "streamer"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct IpcpEntry {
    pc_tag: u64,
    last_line: u64,
    stride: i64,
    stride_conf: u8,
    stream_conf: u8,
}

/// IPCP-style prefetcher (Pakalapati & Panda): classifies each
/// instruction pointer as constant-stride or global-stream and issues
/// class-specific prefetches with class-specific degrees.
#[derive(Debug, Clone)]
pub struct Ipcp {
    table: Vec<IpcpEntry>,
    degree: usize,
    global_last: u64,
    global_dir: i8,
    global_conf: u8,
}

impl Ipcp {
    /// 128-entry IP classifier.
    pub fn new(degree: usize) -> Self {
        Ipcp {
            table: vec![IpcpEntry::default(); 128],
            degree,
            global_last: 0,
            global_dir: 1,
            global_conf: 0,
        }
    }
}

impl Prefetcher for Ipcp {
    fn on_access(&mut self, pc: u64, line: LineAddr, _: bool, out: &mut Vec<PrefetchRequest>) {
        // Global stream component.
        let gdelta = line.0 as i64 - self.global_last as i64;
        let gdir = if gdelta >= 0 { 1i8 } else { -1 };
        if gdelta != 0 && gdelta.abs() <= 4 && gdir == self.global_dir {
            self.global_conf = (self.global_conf + 1).min(7);
        } else if gdelta != 0 {
            self.global_dir = gdir;
            self.global_conf = self.global_conf.saturating_sub(1);
        }
        self.global_last = line.0;

        // Per-IP constant-stride component.
        let idx = (pc as usize ^ (pc >> 7) as usize) % self.table.len();
        let e = &mut self.table[idx];
        if e.pc_tag != pc {
            *e = IpcpEntry {
                pc_tag: pc,
                last_line: line.0,
                ..Default::default()
            };
            return;
        }
        let delta = line.0 as i64 - e.last_line as i64;
        e.last_line = line.0;
        if delta != 0 {
            if delta == e.stride {
                e.stride_conf = (e.stride_conf + 1).min(3);
            } else {
                e.stride_conf = e.stride_conf.saturating_sub(1);
                if e.stride_conf == 0 {
                    e.stride = delta;
                }
            }
        }

        if e.stride_conf >= 2 && e.stride != 0 {
            // Constant-stride class: aggressive degree with lookahead.
            const DISTANCE: i64 = 8;
            for k in 1..=(self.degree as i64 * 2) {
                let target = line.offset(e.stride * (DISTANCE + k));
                if same_page(line, target) && target != line {
                    out.push(PrefetchRequest::new(target, FillLevel::LlcOnly));
                }
                let near = line.offset(e.stride * k);
                if same_page(line, near) && near != line {
                    out.push(PrefetchRequest::new(near, FillLevel::L2));
                }
            }
            e.stream_conf = e.stream_conf.saturating_sub(1);
        } else if self.global_conf >= 4 {
            // Global-stream class: direction-guided, runs well ahead.
            const DISTANCE: i64 = 8;
            for k in 1..=(self.degree as i64 * 2) {
                let target = line.offset(self.global_dir as i64 * (DISTANCE + k));
                if same_page(line, target) && target != line {
                    out.push(PrefetchRequest::new(target, FillLevel::LlcOnly));
                }
                let near = line.offset(self.global_dir as i64 * k);
                if same_page(line, near) && near != line {
                    out.push(PrefetchRequest::new(near, FillLevel::L2));
                }
            }
        }
    }

    fn name(&self) -> &str {
        "ipcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PAGE_SIZE;

    fn lines(page: u64, offsets: &[u64]) -> Vec<LineAddr> {
        offsets
            .iter()
            .map(|&o| LineAddr::from_byte_addr(page * PAGE_SIZE + o * 64))
            .collect()
    }

    #[test]
    fn next_line_proposes_sequential() {
        let mut p = NextLine { degree: 2 };
        let mut out = Vec::new();
        let l = LineAddr::from_byte_addr(PAGE_SIZE);
        p.on_access(0, l, true, &mut out);
        let targets: Vec<LineAddr> = out.iter().map(|r| r.line).collect();
        assert_eq!(targets, vec![l.next(), l.next().next()]);
        assert!(out.iter().all(|r| r.fill == FillLevel::L1));
    }

    #[test]
    fn next_line_stops_at_page_boundary() {
        let mut p = NextLine { degree: 4 };
        let mut out = Vec::new();
        // last line of a page
        let l = LineAddr::from_byte_addr(PAGE_SIZE - 64);
        p.on_access(0, l, true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stride_learns_constant_stride() {
        let mut p = StridePrefetcher::new(2);
        let mut out = Vec::new();
        for l in lines(1, &[0, 3, 6, 9, 12]) {
            out.clear();
            p.on_access(0x400, l, false, &mut out);
        }
        // by the 4th+ access confidence >= 2 -> near and lookahead
        // proposals along stride 3, all in-page
        assert!(!out.is_empty());
        let base = LineAddr::from_byte_addr(PAGE_SIZE + 12 * 64).0;
        for r in &out {
            assert_eq!((r.line.0 - base) % 3, 0, "proposal off-stride: {r:?}");
        }
        // lookahead proposals target the LLC, the near window targets L2
        assert!(out.iter().any(|r| r.fill == FillLevel::LlcOnly));
        assert!(out.iter().any(|r| r.fill == FillLevel::L2));
    }

    #[test]
    fn stride_ignores_random_pattern() {
        let mut p = StridePrefetcher::new(2);
        let mut out = Vec::new();
        for l in lines(1, &[0, 7, 2, 9, 1, 8]) {
            p.on_access(0x400, l, false, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn stride_tracks_pcs_independently() {
        let mut p = StridePrefetcher::new(1);
        let mut out = Vec::new();
        // interleave two PCs with different strides
        let a = lines(1, &[0, 1, 2, 3, 4, 5]);
        let b = lines(2, &[0, 2, 4, 6, 8, 10]);
        for i in 0..6 {
            out.clear();
            p.on_access(0x400, a[i], false, &mut out);
            let before = out.len();
            p.on_access(0x808, b[i], false, &mut out);
            if i >= 3 {
                assert!(before >= 1, "pc A should prefetch by access {i}");
                assert!(out.len() > before, "pc B should prefetch by access {i}");
            }
        }
    }

    #[test]
    fn streamer_follows_ascending_stream() {
        let mut p = Streamer::new(2);
        let mut out = Vec::new();
        for l in lines(5, &[0, 1, 2, 3]) {
            out.clear();
            p.on_access(0, l, false, &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.line.page_number() == 5));
    }

    #[test]
    fn streamer_follows_descending_stream() {
        let mut p = Streamer::new(2);
        let mut out = Vec::new();
        for l in lines(5, &[30, 29, 28, 27]) {
            out.clear();
            p.on_access(0, l, false, &mut out);
        }
        assert!(!out.is_empty());
        assert!(out[0].line.0 < LineAddr::from_byte_addr(5 * PAGE_SIZE + 27 * 64).0);
    }

    #[test]
    fn ipcp_constant_stride_class() {
        let mut p = Ipcp::new(2);
        let mut out = Vec::new();
        for l in lines(3, &[0, 4, 8, 12, 16]) {
            out.clear();
            p.on_access(0x1234, l, false, &mut out);
        }
        assert!(out.len() >= 2, "constant-stride class should be aggressive");
    }

    #[test]
    fn no_prefetcher_is_silent() {
        let mut p = NoPrefetcher;
        let mut out = Vec::new();
        p.on_access(0, LineAddr(0), false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn build_matches_kind() {
        let build = AnyPrefetcher::build;
        assert_eq!(build(PrefetcherKind::None, 2).name(), "none");
        assert_eq!(build(PrefetcherKind::NextLine, 2).name(), "next-line");
        assert_eq!(build(PrefetcherKind::Stride, 2).name(), "stride");
        assert_eq!(build(PrefetcherKind::Streamer, 2).name(), "streamer");
        assert_eq!(build(PrefetcherKind::Ipcp, 2).name(), "ipcp");
    }
}
