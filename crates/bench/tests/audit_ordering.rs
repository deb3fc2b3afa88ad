//! Decision-observer ordering under the event-driven kernel: the audit
//! trail must record decisions in decision order (strictly increasing
//! ids, rewards only settling already-seen decisions), and the blob
//! must be byte-identical to the reference kernel's — cycle skipping is
//! a scheduling transform, not a reordering of the agent's control
//! flow. The trail is the agent's only per-decision record, so it must
//! also show the agent being rewarded both ways: by a key match and at
//! EQ eviction.

use chrome_core::{Chrome, ChromeConfig};
use chrome_sim::{Kernel, SimConfig, System};
use chrome_telemetry::{parse_audit, AuditRecord};
use chrome_traces::mix;

fn audited_blob(kernel: Kernel) -> Vec<u8> {
    let cfg = SimConfig::with_cores(2);
    let traces = mix::homogeneous("gcc", 2, 0xA0D1).expect("known workload");
    // A sampled set sees about two decisions in this run, so a deeper
    // FIFO would never age an entry out: no dead-block reward and no
    // SARSA update would reach the trail.
    let policy = Box::new(Chrome::new(ChromeConfig {
        sampled_sets: 512,
        eq_fifo_len: 2,
        ..ChromeConfig::default()
    }));
    let mut sys = System::with_policy(cfg, traces, policy);
    assert!(sys.enable_audit(0, 1 << 20));
    let _ = sys.run_with_kernel(120_000, 12_000, kernel);
    sys.audit_bytes()
}

#[test]
fn decision_callbacks_arrive_in_decision_order_under_the_event_driven_kernel() {
    let blob = audited_blob(Kernel::EventDriven);
    let segs = parse_audit(&blob).expect("well-formed blob");
    assert_eq!(segs.len(), 1);
    let mut decisions = 0u64;
    let (mut matched, mut unmatched) = (0u64, 0u64);
    let mut last_id = None;
    let mut seen = std::collections::HashSet::new();
    for r in &segs[0].records {
        match r {
            AuditRecord::Decision(d) => {
                assert!(
                    Some(d.id) > last_id,
                    "decision {} observed after {last_id:?}",
                    d.id
                );
                last_id = Some(d.id);
                seen.insert(d.id);
                decisions += 1;
            }
            AuditRecord::Reward(w) => {
                assert!(
                    seen.contains(&w.id),
                    "reward for decision {} arrived before the decision",
                    w.id
                );
                if w.matched {
                    matched += 1;
                } else {
                    unmatched += 1;
                }
            }
        }
    }
    assert!(decisions > 0, "the run produced LLC decisions");
    assert!(matched > 0, "no decision was rewarded by a key match");
    assert!(unmatched > 0, "no decision was rewarded at EQ eviction");
}

#[test]
fn audit_blob_is_identical_across_kernels() {
    let ed = audited_blob(Kernel::EventDriven);
    let rf = audited_blob(Kernel::Reference);
    assert!(!ed.is_empty());
    assert_eq!(
        ed, rf,
        "cycle skipping must not reorder or perturb the audit trail"
    );
}
