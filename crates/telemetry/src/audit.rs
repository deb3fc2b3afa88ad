//! The per-decision audit trail: a bounded, lossy-counted binary log
//! of everything CHROME knew at each decision — feature-slice values,
//! per-action Q components, the chosen action, the EQ linkage id — plus
//! the reward each decision eventually received.
//!
//! The log is the forensics substrate: an offline pass joins it against
//! a Belady/MIN oracle to explain *why* individual decisions diverged
//! from optimal. It is deliberately binary (a decision record is ~100
//! bytes vs ~400 of JSONL) and deliberately bounded — when `cap`
//! records are held, further pushes increment `dropped` instead of
//! growing, so an audited run can never balloon its artifact.
//!
//! Encoding is little-endian with an explicit magic + version header
//! per segment. Multiple segments concatenate: the serving cache emits
//! one segment per shard, merged in shard-index order, which makes the
//! byte stream identical at any thread count.

/// Actions per decision (the paper's 7-action space).
pub const AUDIT_ACTIONS: usize = 7;
/// Feature slots per decision record (the engine's maximum arity).
pub const AUDIT_FEATURES: usize = 2;

/// Segment header magic: "CHAU".
const MAGIC: [u8; 4] = *b"CHAU";
/// Format version.
const VERSION: u16 = 1;
/// Record tags.
const TAG_DECISION: u8 = 1;
const TAG_REWARD: u8 = 2;

/// Everything known at decision time, snapshotted for the audit trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Monotonic per-engine decision id — the EQ linkage id. Reward
    /// records reference it.
    pub id: u64,
    /// The EQ match key (line address in the LLC, key hash in serve).
    pub key: u64,
    /// Feature-slice values (unused slots zero).
    pub state: [u64; AUDIT_FEATURES],
    /// Issuing lane (core / tenant).
    pub lane: u32,
    /// Number of active features in `state`.
    pub features: u8,
    /// The chosen action (paper encoding 0..=6).
    pub action: u8,
    /// True when the triggering access hit.
    pub hit: bool,
    /// True when the access landed on a sampled set/bucket (and was
    /// therefore recorded in the EQ and will be trained on).
    pub sampled: bool,
    /// True when ε-greedy exploration overrode the greedy choice.
    pub explored: bool,
    /// Per-feature Q components: `q[f][a]` is feature `f`'s vote for
    /// action `a`. The engine's Q(s,a) is the max over features, so
    /// these are what attribution needs.
    pub q: [[f32; AUDIT_ACTIONS]; AUDIT_FEATURES],
}

/// A reward assigned to an earlier decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardRecord {
    /// Decision id the reward was assigned to.
    pub id: u64,
    /// True when assigned by key match (re-requested in the EQ window);
    /// false when assigned at EQ eviction (dead-block reward).
    pub matched: bool,
    /// The reward value.
    pub reward: f64,
}

/// One audit-trail record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuditRecord {
    /// A decision snapshot.
    Decision(DecisionRecord),
    /// A delayed reward, referencing an earlier decision.
    Reward(RewardRecord),
}

/// A bounded in-memory audit log for one stream (the hardware LLC, or
/// one serve shard).
#[derive(Debug)]
pub struct AuditLog {
    stream: u32,
    cap: usize,
    records: Vec<AuditRecord>,
    dropped: u64,
}

impl AuditLog {
    /// An empty log for `stream`, holding at most `cap` records.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(stream: u32, cap: usize) -> Self {
        assert!(cap > 0, "audit log needs a nonzero capacity");
        AuditLog {
            stream,
            cap,
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// Which stream this log records (0 for the hardware LLC; the
    /// shard index in the serving cache).
    pub fn stream(&self) -> u32 {
        self.stream
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records refused because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held records, in arrival order.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    fn push(&mut self, r: AuditRecord) {
        if self.records.len() < self.cap {
            self.records.push(r);
        } else {
            self.dropped += 1;
        }
    }

    /// Append a decision snapshot (or count it dropped).
    pub fn push_decision(&mut self, d: DecisionRecord) {
        self.push(AuditRecord::Decision(d));
    }

    /// Append a reward record (or count it dropped).
    pub fn push_reward(&mut self, r: RewardRecord) {
        self.push(AuditRecord::Reward(r));
    }

    /// Serialize to one binary segment.
    pub fn to_bytes(&self) -> Vec<u8> {
        // header 28 B + ~104 B per decision record
        let mut out = Vec::with_capacity(28 + self.records.len() * 104);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&self.stream.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        for r in &self.records {
            match r {
                AuditRecord::Decision(d) => {
                    out.push(TAG_DECISION);
                    out.extend_from_slice(&d.id.to_le_bytes());
                    out.extend_from_slice(&d.key.to_le_bytes());
                    for s in &d.state {
                        out.extend_from_slice(&s.to_le_bytes());
                    }
                    out.extend_from_slice(&d.lane.to_le_bytes());
                    let flags =
                        u8::from(d.hit) | (u8::from(d.sampled) << 1) | (u8::from(d.explored) << 2);
                    out.push(flags);
                    out.push(d.features);
                    out.push(d.action);
                    for row in &d.q {
                        for &v in row {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
                AuditRecord::Reward(w) => {
                    out.push(TAG_REWARD);
                    out.extend_from_slice(&w.id.to_le_bytes());
                    out.push(u8::from(w.matched));
                    out.extend_from_slice(&w.reward.to_le_bytes());
                }
            }
        }
        out
    }
}

/// A parsed audit segment: one stream's records plus its drop count.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSegment {
    /// Stream id the segment was recorded from.
    pub stream: u32,
    /// Records dropped at record time because the log was full.
    pub dropped: u64,
    /// The retained records, in arrival order.
    pub records: Vec<AuditRecord>,
}

/// A byte cursor over an audit blob.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "audit log truncated at byte {} (wanted {n} more of {})",
                self.pos,
                self.buf.len()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Parse a blob of concatenated audit segments.
///
/// # Errors
///
/// Returns a description when the magic, version, tag, or length is
/// malformed.
pub fn parse_audit(bytes: &[u8]) -> Result<Vec<AuditSegment>, String> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let mut segments = Vec::new();
    while c.pos < c.buf.len() {
        let magic = c.take(4)?;
        if magic != MAGIC {
            return Err(format!("bad audit magic at byte {}", c.pos - 4));
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(format!("unsupported audit version {version}"));
        }
        let _reserved = c.u16()?;
        let stream = c.u32()?;
        let count = c.u64()?;
        let dropped = c.u64()?;
        let mut records = Vec::with_capacity(count.min(1 << 24) as usize);
        for _ in 0..count {
            match c.u8()? {
                TAG_DECISION => {
                    let id = c.u64()?;
                    let key = c.u64()?;
                    let mut state = [0u64; AUDIT_FEATURES];
                    for s in &mut state {
                        *s = c.u64()?;
                    }
                    let lane = c.u32()?;
                    let flags = c.u8()?;
                    let features = c.u8()?;
                    let action = c.u8()?;
                    let mut q = [[0f32; AUDIT_ACTIONS]; AUDIT_FEATURES];
                    for row in &mut q {
                        for v in row.iter_mut() {
                            *v = c.f32()?;
                        }
                    }
                    records.push(AuditRecord::Decision(DecisionRecord {
                        id,
                        key,
                        state,
                        lane,
                        features,
                        action,
                        hit: flags & 1 != 0,
                        sampled: flags & 2 != 0,
                        explored: flags & 4 != 0,
                        q,
                    }));
                }
                TAG_REWARD => {
                    let id = c.u64()?;
                    let matched = c.u8()? != 0;
                    let reward = c.f64()?;
                    records.push(AuditRecord::Reward(RewardRecord {
                        id,
                        matched,
                        reward,
                    }));
                }
                t => return Err(format!("unknown audit record tag {t}")),
            }
        }
        segments.push(AuditSegment {
            stream,
            dropped,
            records,
        });
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(id: u64) -> DecisionRecord {
        let mut q = [[0f32; AUDIT_ACTIONS]; AUDIT_FEATURES];
        q[0][2] = 1.5;
        q[1][6] = -0.25;
        DecisionRecord {
            id,
            key: 0xDEAD_BEEF ^ id,
            state: [id * 3, id * 7],
            lane: 2,
            features: 2,
            action: (id % 7) as u8,
            hit: id.is_multiple_of(2),
            sampled: true,
            explored: id.is_multiple_of(5),
            q,
        }
    }

    #[test]
    fn roundtrips_decisions_and_rewards() {
        let mut log = AuditLog::new(9, 64);
        for id in 0..10 {
            log.push_decision(decision(id));
            if id % 3 == 0 {
                log.push_reward(RewardRecord {
                    id,
                    matched: id % 2 == 0,
                    reward: -2.5 + id as f64,
                });
            }
        }
        let segs = parse_audit(&log.to_bytes()).expect("parse");
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].stream, 9);
        assert_eq!(segs[0].dropped, 0);
        assert_eq!(segs[0].records, log.records());
    }

    #[test]
    fn cap_drops_are_counted_not_stored() {
        let mut log = AuditLog::new(0, 3);
        for id in 0..8 {
            log.push_decision(decision(id));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 5);
        let segs = parse_audit(&log.to_bytes()).expect("parse");
        assert_eq!(segs[0].records.len(), 3);
        assert_eq!(segs[0].dropped, 5);
    }

    #[test]
    fn concatenated_segments_parse_in_order() {
        let mut a = AuditLog::new(0, 8);
        a.push_decision(decision(1));
        let mut b = AuditLog::new(1, 8);
        b.push_decision(decision(2));
        b.push_reward(RewardRecord {
            id: 2,
            matched: true,
            reward: 4.0,
        });
        let mut blob = a.to_bytes();
        blob.extend_from_slice(&b.to_bytes());
        let segs = parse_audit(&blob).expect("parse");
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].stream, 0);
        assert_eq!(segs[1].stream, 1);
        assert_eq!(segs[1].records.len(), 2);
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let mut log = AuditLog::new(0, 8);
        log.push_decision(decision(1));
        let bytes = log.to_bytes();
        assert!(parse_audit(&bytes[..bytes.len() - 3]).is_err());
        assert!(parse_audit(&bytes[1..]).is_err(), "bad magic");
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_rejected() {
        let _ = AuditLog::new(0, 0);
    }
}
