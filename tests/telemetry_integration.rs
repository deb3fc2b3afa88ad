//! Telemetry integration: a real multi-core run must produce an epoch
//! series whose per-epoch counter deltas reconcile exactly with the
//! end-of-run `CacheStats`, and the artifact exporter must write every
//! format. What the agent decided is the audit log's record: the same
//! run, audited, must show its decisions and rewards there.

#![cfg(feature = "telemetry")]

use chrome_repro::chrome::engine::ACTION_BYPASS;
use chrome_repro::chrome::{Chrome, ChromeConfig};
use chrome_repro::sim::{SimConfig, System};
use chrome_repro::telemetry::{export, parse_audit, AuditRecord, TelemetryConfig, TelemetrySink};
use chrome_repro::traces::mix;

fn telemetry_system() -> (System, TelemetrySink) {
    let traces = mix::build_mix(&["mcf", "gcc"], 11).expect("known workloads");
    let policy = Box::new(Chrome::new(ChromeConfig {
        sampled_sets: 256,
        eq_fifo_len: 8,
        ..Default::default()
    }));
    let mut sys = System::with_policy(SimConfig::small_test(2), traces, policy);
    let sink = TelemetrySink::recording(TelemetryConfig::default());
    sys.set_telemetry(sink.clone());
    (sys, sink)
}

fn run_with_telemetry() -> (chrome_repro::sim::stats::SimResults, TelemetrySink) {
    let (mut sys, sink) = telemetry_system();
    let r = sys.run(60_000, 5_000);
    (r, sink)
}

#[test]
fn epoch_series_reconciles_with_final_stats() {
    let (r, sink) = run_with_telemetry();
    let epochs = sink.with(|t| t.epochs.clone()).expect("recording sink");
    assert!(
        epochs.len() >= 2,
        "run too short to cross an epoch boundary"
    );

    // Epoch indices are contiguous and cycles strictly increase.
    let records = epochs.records();
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.epoch, i as u64, "epoch sequence has a gap");
        if i > 0 {
            assert!(
                rec.end_cycle > records[i - 1].end_cycle,
                "epoch cycles not monotone"
            );
        }
        assert_eq!(rec.camat.len(), 2, "one C-AMAT sample per core");
        assert!(rec.mshr_occupancy <= rec.mshr_capacity);
    }

    // Record count matches the measured span at the configured epoch
    // length (10K cycles in the small test config): every complete
    // epoch spans at least one boundary, plus the final partial epoch.
    let span = records.last().unwrap().end_cycle - records[0].end_cycle;
    let complete = (epochs.len() - 1) as u64;
    assert!(
        complete >= span / 10_000,
        "fewer epochs than boundaries crossed"
    );
    assert!(
        complete <= span / 10_000 + 2,
        "more epochs than boundaries crossed"
    );

    // Per-epoch deltas sum exactly to the end-of-run totals.
    assert_eq!(epochs.summed(|e| e.demand_accesses), r.llc.demand_accesses);
    assert_eq!(epochs.summed(|e| e.demand_misses), r.llc.demand_misses);
    assert_eq!(epochs.summed(|e| e.bypasses), r.llc.bypasses);
    assert_eq!(epochs.summed(|e| e.evictions), r.llc.evictions);
    assert_eq!(epochs.summed(|e| e.writebacks), r.llc.writebacks);
}

#[test]
fn event_trace_captures_decisions() {
    let (mut sys, sink) = telemetry_system();
    assert!(sys.enable_audit(0, 1 << 20), "CHROME is auditable");
    let r = sys.run(60_000, 5_000);
    let segs = parse_audit(&sys.audit_bytes()).expect("well-formed blob");
    assert_eq!(segs.len(), 1);
    assert_eq!(segs[0].dropped, 0, "audit log too small for the run");
    let (mut inserts, mut bypasses, mut rewards) = (0u64, 0u64, 0u64);
    for rec in &segs[0].records {
        match rec {
            AuditRecord::Decision(d) if !d.hit && usize::from(d.action) == ACTION_BYPASS => {
                bypasses += 1
            }
            AuditRecord::Decision(d) if !d.hit => inserts += 1,
            AuditRecord::Decision(_) => {}
            AuditRecord::Reward(_) => rewards += 1,
        }
    }
    let (epochs, trace) = sink
        .with(|t| {
            (
                t.epochs.len(),
                export::chrome_trace_json(&t.epochs, t.attrib.spans()),
            )
        })
        .expect("recording sink");
    assert_eq!(
        trace.matches("\"cat\":\"epoch\"").count(),
        epochs,
        "one trace span per epoch record"
    );
    assert!(
        inserts > 0,
        "no insert decisions despite {} evictions",
        r.llc.evictions
    );
    if r.llc.bypasses > 0 {
        assert!(
            bypasses > 0,
            "bypasses happened but no decision recorded one"
        );
    }
    assert!(rewards > 0, "agent trained without any reward records");
}

#[test]
fn exporter_writes_all_artifacts() {
    let (_, sink) = run_with_telemetry();
    let dir = std::env::temp_dir().join(format!("chrome_telem_it_{}", std::process::id()));
    let files = sink.export(&dir, "it").expect("export succeeds");
    assert_eq!(files.len(), 2, "epochs csv, trace");
    let epochs = sink.with(|t| t.epochs.len()).unwrap();
    let csv = std::fs::read_to_string(dir.join("it_epochs.csv")).unwrap();
    assert_eq!(
        csv.lines().count(),
        epochs + 1,
        "CSV = header + one row per epoch"
    );
    let trace = std::fs::read_to_string(dir.join("it_trace.json")).unwrap();
    assert!(trace.starts_with('{') && trace.ends_with('}'));
    assert!(trace.contains("\"traceEvents\":["));
    std::fs::remove_dir_all(&dir).ok();
}
